package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stubResults fabricates a plausible simulation outcome for stubbed
// runs, distinct per (workload, seed) so records stay distinguishable.
func stubResults(cfg config.Config, wl workload.Workload, so sim.Options) sim.Results {
	return sim.Results{
		Workload:     wl.Name,
		Policy:       so.Policy.String(),
		ConfigDigest: sim.Digest(cfg, so),
		Cycles:       1000 + uint64(so.Seed),
	}
}

// newStubServer starts a service whose simulations block until release
// is closed, so tests control queue occupancy exactly.
func newStubServer(t *testing.T, opt Options) (*Server, *httptest.Server, chan struct{}, *atomic.Int32) {
	t.Helper()
	if opt.BaseConfig == nil {
		opt.BaseConfig = config.FastTest
	}
	s := New(opt)
	release := make(chan struct{})
	var execs atomic.Int32
	s.runSim = func(ctx context.Context, cfg config.Config, wl workload.Workload, so sim.Options) (sim.Results, error) {
		execs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return sim.Results{}, ctx.Err()
		}
		return stubResults(cfg, wl, so), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts, release, &execs
}

func postRun(t *testing.T, ts *httptest.Server, req RunRequest) (int, JobStatus, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("parsing %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, string(raw)
}

func getJSON(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, ts.URL+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s (%s)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestBurstBeyond429 floods a 1-worker, 1-slot service with distinct
// submissions: overflow must be rejected with 429 + Retry-After, and
// every accepted job must still complete once workers drain.
func TestBurstBeyondQueueGets429(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 1})

	const n = 10
	var accepted []string
	var rejected int
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(RunRequest{Apps: []string{"SCP"}, Seed: int64(i)})
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submission %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
	}
	// Capacity is worker + dispatcher hand-off + queue slot; everything
	// beyond must bounce.
	if rejected == 0 {
		t.Fatalf("no 429s across %d submissions into a 1+1 service", n)
	}
	if len(accepted) < 2 {
		t.Fatalf("only %d accepted; queue+worker should hold at least 2", len(accepted))
	}

	close(release)
	for _, id := range accepted {
		waitState(t, ts, id, JobDone)
	}
	if got := int(execs.Load()); got != len(accepted) {
		t.Errorf("%d executions for %d accepted jobs", got, len(accepted))
	}

	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	wantLines := []string{
		fmt.Sprintf("mosaicd_jobs_accepted_total %d", len(accepted)),
		fmt.Sprintf("mosaicd_jobs_rejected_total %d", rejected),
		fmt.Sprintf("mosaicd_runs_completed_total %d", len(accepted)),
		"mosaicd_queue_depth 0",
		"mosaicd_queue_capacity 1",
	}
	for _, want := range wantLines {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestSingleFlightDedupe pins the cache contract: an identical second
// submission joins the first job (even before it finishes), the
// simulation executes once, and both fetches serve identical bytes.
func TestSingleFlightDedupe(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 2, QueueSize: 4})

	req := RunRequest{Apps: []string{"SCP", "RED"}, Policy: "mosaic", Seed: 7}
	code1, st1, _ := postRun(t, ts, req)
	if code1 != http.StatusAccepted || st1.Cached {
		t.Fatalf("first submission: HTTP %d cached=%v", code1, st1.Cached)
	}
	code2, st2, _ := postRun(t, ts, req)
	if code2 != http.StatusOK || !st2.Cached {
		t.Fatalf("identical submission: HTTP %d cached=%v, want 200 cached", code2, st2.Cached)
	}
	if st2.ID != st1.ID {
		t.Fatalf("deduped submission got job %s, want %s", st2.ID, st1.ID)
	}
	if st1.ConfigDigest == "" || st1.ConfigDigest != st2.ConfigDigest {
		t.Fatalf("digests %q vs %q", st1.ConfigDigest, st2.ConfigDigest)
	}

	// A different seed is a different simulation: new job.
	diff := req
	diff.Seed = 8
	code3, st3, _ := postRun(t, ts, diff)
	if code3 != http.StatusAccepted || st3.ID == st1.ID {
		t.Fatalf("different-seed submission: HTTP %d id=%s", code3, st3.ID)
	}

	close(release)
	waitState(t, ts, st1.ID, JobDone)
	waitState(t, ts, st3.ID, JobDone)

	// The same identical submission after completion is also served from
	// cache, still on the same job.
	code4, st4, _ := postRun(t, ts, req)
	if code4 != http.StatusOK || !st4.Cached || st4.ID != st1.ID || st4.State != JobDone {
		t.Fatalf("post-completion resubmission: HTTP %d %+v", code4, st4)
	}

	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions, want 2 (one per distinct simulation)", got)
	}

	c1, body1 := getJSON(t, ts.URL+"/v1/runs/"+st1.ID+"/result")
	c2, body2 := getJSON(t, ts.URL+"/v1/runs/"+st1.ID+"/result")
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("result fetches: HTTP %d, %d", c1, c2)
	}
	if body1 != body2 {
		t.Error("repeated result fetches returned different bytes")
	}
	if !strings.Contains(body1, "\"SchemaVersion\": 1") {
		t.Errorf("result is not a schema-versioned report:\n%s", body1[:min(200, len(body1))])
	}

	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	for _, want := range []string{
		"mosaicd_cache_hits_total 2",
		"mosaicd_cache_misses_total 2",
		"mosaicd_cache_hit_rate 0.5",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestDeprecatedShardsIgnored pins wire compatibility for the removed
// sharded cycle loop: a request that still carries Shards decodes, and
// it shares one job key and one cache entry with the same request
// without it.
func TestDeprecatedShardsIgnored(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 2})

	req := RunRequest{Apps: []string{"SCP"}, Policy: "mosaic", Seed: 7}
	withShards := req
	withShards.Shards = 4
	plain, err := Resolve(config.FastTest, req)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Resolve(config.FastTest, withShards)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key != sharded.Key {
		t.Fatalf("job key varies with Shards: %v vs %v", sharded.Key, plain.Key)
	}

	code1, st1, _ := postRun(t, ts, req)
	if code1 != http.StatusAccepted {
		t.Fatalf("plain submission: HTTP %d", code1)
	}
	close(release)
	waitState(t, ts, st1.ID, JobDone)

	code2, st2, body := postRun(t, ts, withShards)
	if code2 != http.StatusOK || !st2.Cached || st2.ID != st1.ID || st2.ConfigDigest != st1.ConfigDigest {
		t.Fatalf("submission with Shards=4: HTTP %d %+v (%s), want a cache hit on job %s", code2, st2, body, st1.ID)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "mosaicd_cache_hits_total 1") {
		t.Errorf("/metrics lacks one cache hit:\n%s", metricsBody)
	}
}

// TestGracefulShutdown pins the drain contract: in-flight jobs finish,
// new submissions are rejected, health flips to 503.
func TestGracefulShutdown(t *testing.T) {
	s, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 4})

	_, st1, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 1})
	waitState(t, ts, st1.ID, JobRunning)
	_, st2, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 2}) // queued behind it

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// Draining: health 503, new submissions 503.
	waitFor(t, func() bool {
		code, _ := getJSON(t, ts.URL+"/healthz")
		return code == http.StatusServiceUnavailable
	}, "healthz to report draining")
	if code, _, body := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 3}); code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: HTTP %d: %s", code, body)
	}

	select {
	case err := <-done:
		t.Fatalf("shutdown returned before in-flight jobs finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both accepted jobs finished and stay fetchable after the drain.
	for _, id := range []string{st1.ID, st2.ID} {
		code, body := getJSON(t, ts.URL+"/v1/runs/"+id+"/result")
		if code != http.StatusOK {
			t.Errorf("post-drain result %s: HTTP %d: %s", id, code, body)
		}
	}

	// A second Shutdown is a harmless no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestShutdownContextExpiry: a context that expires mid-drain returns
// its error without abandoning the drain.
func TestShutdownContextExpiry(t *testing.T) {
	s, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 1})
	_, st, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}})
	waitState(t, ts, st.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with blocked worker returned nil before drain")
	}
	close(release)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

// TestRequestValidation maps malformed submissions to 400s and unknown
// jobs to 404s.
func TestRequestValidation(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 1})
	defer close(release)

	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"no apps", `{}`},
		{"unknown app", `{"Apps":["NOPE"]}`},
		{"unknown policy", `{"Apps":["SCP"],"Policy":"magic"}`},
		{"bad frag", `{"Apps":["SCP"],"FragIndex":1.5}`},
		{"unknown field", `{"Apps":["SCP"],"Bogus":1}`},
		{"negative shards", `{"Apps":["SCP"],"Shards":-1}`},
		{"negative scale", `{"Apps":["SCP"],"Scale":-5}`},
		{"too many apps", `{"Apps":[` + strings.Repeat(`"SCP",`, 99) + `"SCP"]}`},
		// Sizes the simulator would allocate up front: each is past its
		// config ceiling and must fail before any worker builds it.
		{"warps past ceiling", `{"Apps":["HS"],"Dim":"warps","DimValue":1073741824}`},
		{"L1 TLB past ceiling", `{"Apps":["HS"],"Dim":"l1base","DimValue":1073741824}`},
		{"L1 large TLB past ceiling", `{"Apps":["HS"],"Dim":"l1large","DimValue":1073741824}`},
		{"L2 TLB past ceiling", `{"Apps":["HS"],"Dim":"l2base","DimValue":1073741824}`},
		{"L2 large TLB past ceiling", `{"Apps":["HS"],"Dim":"l2large","DimValue":1073741824}`},
		{"page-walk cache past ceiling", `{"Apps":["HS"],"Dim":"pwc","DimValue":1073741824}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", tc.name, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "Error") {
			t.Errorf("%s: body %q lacks an Error field", tc.name, raw)
		}
	}

	// A vanishing oversubscription ratio saturates the residency budget
	// instead of converting an out-of-range float, so its digest is the
	// same on every platform.
	plan, err := Resolve(nil, RunRequest{Apps: []string{"HS"}, Oversub: 1e-300})
	if err != nil {
		t.Fatalf("tiny oversub rejected: %v", err)
	}
	if got := plan.Cell.Config.MaxResidentPages; got != math.MaxUint64 {
		t.Errorf("Oversub 1e-300 budget = %d, want saturation at %d", got, uint64(math.MaxUint64))
	}

	if code, body := getJSON(t, ts.URL+"/v1/runs/r999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d: %s", code, body)
	}
	if code, body := getJSON(t, ts.URL+"/v1/runs/r999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d: %s", code, body)
	}
}

// TestFailedRun surfaces simulation errors as failed jobs with a 500
// result and the message preserved.
func TestFailedRun(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1, BaseConfig: config.FastTest})
	s.runSim = func(context.Context, config.Config, workload.Workload, sim.Options) (sim.Results, error) {
		return sim.Results{}, fmt.Errorf("synthetic blow-up")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	_, st, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}})
	got := waitAnyTerminal(t, ts, st.ID)
	if got.State != JobFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "synthetic blow-up") {
		t.Fatalf("failure message %q", got.Error)
	}
	code, body := getJSON(t, ts.URL+"/v1/runs/"+st.ID+"/result")
	if code != http.StatusInternalServerError || !strings.Contains(body, "synthetic blow-up") {
		t.Fatalf("failed job result: HTTP %d: %s", code, body)
	}

	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "mosaicd_runs_failed_total 1") {
		t.Errorf("/metrics missing failed counter:\n%s", metricsBody)
	}
}

// TestResultBeforeDone: polling the result of an unfinished job reports
// the lifecycle state with 202, distinguishing "wait" from "gone".
func TestResultBeforeDone(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 1})
	_, st, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}})
	code, body := getJSON(t, ts.URL+"/v1/runs/"+st.ID+"/result")
	if code != http.StatusAccepted {
		t.Fatalf("unfinished result: HTTP %d: %s", code, body)
	}
	close(release)
	waitState(t, ts, st.ID, JobDone)
}

func waitAnyTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, ts.URL+"/v1/runs/"+id)
		var st JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return JobStatus{}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
