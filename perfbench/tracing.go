package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// span is one timed call into a layer: its name, the span that caused
// it (0 for a root), and its start and end relative to the tracer's
// creation.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory for the traced run; they are written
// out once the run ends. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// client is the span of the request the single client goroutine
	// is making, forwarded to the server in spanHeader so handler spans
	// name their cause.
	client atomic.Int64
	// handlerNanos sums time spent inside server handlers, so client
	// time minus handler time gives the transport round trip.
	handlerNanos atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes
// it. Both are no-ops on a nil tracer.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// durations returns the length of every closed span called name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedStore wraps the result store handed to the daemon, with a span
// around every Get and Put.
type timedStore struct {
	store.ResultStore
	tr *tracer
}

// Get times the wrapped store's Get.
func (s timedStore) Get(k store.Key) ([]byte, error) {
	_, end := s.tr.begin("store.get", 0)
	defer end()
	return s.ResultStore.Get(k)
}

// Put times the wrapped store's Put.
func (s timedStore) Put(k store.Key, p []byte) error {
	_, end := s.tr.begin("store.put", 0)
	defer end()
	return s.ResultStore.Put(k, p)
}

// spanHeader carries the client's request span to the server.
const spanHeader = "X-Perfbench-Span"

// timedHandler wraps the daemon's HTTP handler with one span per
// request, named by route and parented to the client span that sent it.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

// ServeHTTP times one request through the wrapped handler.
func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	start := time.Now()
	_, end := h.tr.begin("server."+route(r), parent)
	h.next.ServeHTTP(w, r)
	end()
	h.tr.handlerNanos.Add(int64(time.Since(start)))
}

// route names a daemon endpoint for the handler spans.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/runs":
		return "submit"
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/cancel"):
		return "cancel"
	case strings.HasPrefix(p, "/v1/runs/"):
		return "status"
	case p == "/v1/campaigns":
		return "campaign_submit"
	case strings.HasSuffix(p, "/stream"):
		return "campaign_stream"
	case strings.HasPrefix(p, "/v1/campaigns/"):
		return "campaign_status"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

// spanTransport stamps the client's current request span on every
// outgoing request.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

// RoundTrip sends r with the client's span in spanHeader.
func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(t.tr.client.Load(), 10))
	return t.base.RoundTrip(r)
}
