package serviceclient

// Request-counting tests of Run's inline answer: a job the service
// already holds done costs one POST carrying Prefer:
// return=representation, whose body is the bytes GET .../result serves;
// every other job takes the submit → wait → fetch path, and a
// submission without the header is answered as before.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/store"
)

// exchange is one HTTP request a client sent and the answer it got.
type exchange struct {
	method, path, prefer string
	code                 int
	header               http.Header
	body                 []byte
}

// countingTransport records every exchange that passes through it; the
// response body is read in full and handed on unchanged.
type countingTransport struct {
	mu   sync.Mutex
	log  []exchange
	sent chan struct{} // ready once an exchange completed; sends never block
}

func newCountingClient(url string) (*Client, *countingTransport) {
	tr := &countingTransport{sent: make(chan struct{}, 1)}
	c := New(url)
	c.HTTPClient = &http.Client{Transport: tr}
	c.PollInterval = 2 * time.Millisecond
	return c, tr
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.mu.Lock()
	t.log = append(t.log, exchange{r.Method, r.URL.Path, r.Header.Get("Prefer"), resp.StatusCode, resp.Header.Clone(), body})
	t.mu.Unlock()
	select {
	case t.sent <- struct{}{}:
	default:
	}
	return resp, nil
}

// exchanges returns a copy of the log and empties it.
func (t *countingTransport) exchanges() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	log := t.log
	t.log = nil
	return log
}

var inlineReq = server.RunRequest{Apps: []string{"SCP"}, Policy: "mosaic", Seed: 4}

// checkOneInlinePOST asserts that log is exactly one POST /v1/runs that
// asked for and got the inline report, and that its bytes are what
// GET /v1/runs/{id}/result serves for the job its Location names.
func checkOneInlinePOST(t *testing.T, c *Client, log []exchange) {
	t.Helper()
	if len(log) != 1 || log[0].method != http.MethodPost || log[0].path != "/v1/runs" {
		var sent []string
		for _, x := range log {
			sent = append(sent, x.method+" "+x.path)
		}
		t.Fatalf("Run sent %q, want one POST /v1/runs", sent)
	}
	x := log[0]
	if x.prefer != server.PreferInline || x.code != http.StatusOK || x.header.Get("Preference-Applied") != server.PreferInline {
		t.Fatalf("POST: Prefer %q → HTTP %d, Preference-Applied %q", x.prefer, x.code, x.header.Get("Preference-Applied"))
	}
	id, ok := strings.CutPrefix(x.header.Get("Location"), "/v1/runs/")
	if !ok {
		t.Fatalf("inline answer Location %q", x.header.Get("Location"))
	}
	want, err := c.ResultBytes(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.body, want) {
		t.Fatalf("inline report differs from GET .../result:\n%s\nvs\n%s", x.body, want)
	}
}

func TestRunCacheHitIsOneRequest(t *testing.T) {
	plain, _ := startService(t, nil, nil)
	if _, err := plain.Run(context.Background(), inlineReq); err != nil {
		t.Fatal(err)
	}
	c, tr := newCountingClient(plain.BaseURL)
	rep, err := c.Run(context.Background(), inlineReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 || rep.Seed != inlineReq.Seed {
		t.Fatalf("inline report shape: %+v", rep)
	}
	checkOneInlinePOST(t, c, tr.exchanges())
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"mosaicd_cache_hits_total 1", "mosaicd_results_inline_total 1", "mosaicd_runs_completed_total 1"} {
		if !strings.Contains(m, "\n"+line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
}

func TestRunStoreServeIsOneRequest(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, s := startService(t, disk, nil)
	if _, err := first.Run(context.Background(), inlineReq); err != nil {
		t.Fatal(err)
	}
	shutdown(t, s)

	disk, err = store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted, _ := startService(t, disk, nil)
	c, tr := newCountingClient(restarted.BaseURL)
	if _, err := c.Run(context.Background(), inlineReq); err != nil {
		t.Fatal(err)
	}
	checkOneInlinePOST(t, c, tr.exchanges())
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"mosaicd_store_serves_total 1", "mosaicd_results_inline_total 1", "mosaicd_runs_completed_total 0"} {
		if !strings.Contains(m, "\n"+line+"\n") {
			t.Errorf("metrics lack %q", line)
		}
	}
}

// TestRunOntoRunningJobWaits: a submission deduplicated onto a job that
// is still running is answered with its status, not inline, and Run
// polls and fetches the record as before.
func TestRunOntoRunningJobWaits(t *testing.T) {
	gate := make(chan struct{})
	reg := faults.New()
	reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate, Times: 1})
	plain, _ := startService(t, nil, reg)
	st, err := plain.Submit(context.Background(), inlineReq)
	if err != nil {
		t.Fatal(err)
	}
	waitHits(t, reg, server.PointExecBegin, 1) // the job is running, held at the gate

	c, tr := newCountingClient(plain.BaseURL)
	type result struct {
		seed int64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.Run(context.Background(), inlineReq)
		done <- result{rep.Seed, err}
	}()
	<-tr.sent // the submission has been answered
	close(gate)
	r := <-done
	if r.err != nil || r.seed != inlineReq.Seed {
		t.Fatalf("Run onto a running job: seed %d, %v", r.seed, r.err)
	}
	log := tr.exchanges()
	if len(log) < 3 {
		t.Fatalf("Run sent %d requests, want submit, status polls and a result fetch", len(log))
	}
	x := log[0]
	if x.method != http.MethodPost || x.code != http.StatusOK ||
		x.header.Get("Preference-Applied") != "" || x.header.Get("Location") != "" {
		t.Fatalf("dedup onto a running job: %s %s → HTTP %d, headers %v", x.method, x.path, x.code, x.header)
	}
	if want := fmt.Sprintf(`"ID":%q,"State":"running"`, st.ID); !strings.Contains(string(x.body), want) {
		t.Fatalf("dedup answer %s lacks %s", x.body, want)
	}
	last := log[len(log)-1]
	if last.method != http.MethodGet || last.path != "/v1/runs/"+st.ID+"/result" || last.code != http.StatusOK {
		t.Fatalf("last request %s %s → HTTP %d, want the result fetch", last.method, last.path, last.code)
	}
}

func TestRunSurfacesFailedAndCanceledJobs(t *testing.T) {
	t.Run("failed", func(t *testing.T) {
		reg := faults.New()
		reg.Arm(server.PointExecBegin, faults.Trigger{Err: errors.New("disk on fire"), Times: 1})
		plain, _ := startService(t, nil, reg)
		c, _ := newCountingClient(plain.BaseURL)
		if _, err := c.Run(context.Background(), inlineReq); err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("Run of a failed job: %v", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		gate := make(chan struct{})
		defer close(gate)
		reg := faults.New()
		reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate, Times: 1})
		plain, _ := startService(t, nil, reg)
		c, tr := newCountingClient(plain.BaseURL)
		runErr := make(chan error, 1)
		go func() {
			_, err := c.Run(context.Background(), inlineReq)
			runErr <- err
		}()
		<-tr.sent
		waitHits(t, reg, server.PointExecBegin, 1)
		var st server.JobStatus
		if x := tr.exchanges()[0]; x.code != http.StatusAccepted || json.Unmarshal(x.body, &st) != nil {
			t.Fatalf("fresh submission answered HTTP %d %q", x.code, x.body)
		}
		if _, err := plain.Cancel(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		if err := <-runErr; !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run of a canceled job: %v, want ErrCanceled", err)
		}
	})
}

// TestSubmitAnswerUnchanged: Submit sends no Prefer header, so a cache
// hit is answered with its JobStatus exactly as before inline answers
// existed — same code, same bytes, no Location or Preference-Applied.
func TestSubmitAnswerUnchanged(t *testing.T) {
	plain, _ := startService(t, nil, nil)
	first, err := plain.Run(context.Background(), inlineReq)
	if err != nil {
		t.Fatal(err)
	}
	c, tr := newCountingClient(plain.BaseURL)
	st, err := c.Submit(context.Background(), inlineReq)
	if err != nil {
		t.Fatal(err)
	}
	log := tr.exchanges()
	if len(log) != 1 {
		t.Fatalf("Submit sent %d requests", len(log))
	}
	x := log[0]
	rec := first.Figures[0].Runs[0]
	want := fmt.Sprintf(`{"ID":"r000001","State":"done","Workload":%q,"Policy":%q,"ConfigDigest":%q,"Cached":true}`+"\n",
		rec.Workload, rec.Policy, rec.ConfigDigest)
	if x.prefer != "" || x.code != http.StatusOK || string(x.body) != want {
		t.Fatalf("Submit: Prefer %q → HTTP %d %q, want 200 %q", x.prefer, x.code, x.body, want)
	}
	for _, h := range []string{"Location", "Preference-Applied"} {
		if v := x.header.Get(h); v != "" {
			t.Errorf("Submit answer carries %s: %q", h, v)
		}
	}
	if st.ID != "r000001" || st.State != server.JobDone || !st.Cached {
		t.Fatalf("Submit status %+v", st)
	}
}
