package server

// The chaos suite drives every injected failure mode of the service
// deterministically (package faults — no sleeps-and-hope scheduling)
// and runs under -race in CI with goroutine-leak checks. The contracts
// pinned here:
//
//   - a crashed (panicking) worker never wedges the queue or the daemon
//   - a canceled or timed-out job releases its worker slot
//   - the single-flight cache never serves a result from a failed,
//     canceled, or timed-out run — retries always run fresh
//   - drain-under-fault still terminates
//
// Helpers (newStubServer, postRun, waitState, ...) live in server_test.go.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

func postCancel(t *testing.T, ts *httptest.Server, id string) (int, JobStatus, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	code, body := resp.StatusCode, readBody(t, resp)
	if code == http.StatusOK {
		mustUnmarshal(t, body, &st)
	}
	return code, st, body
}

func mustMetric(t *testing.T, ts *httptest.Server, want ...string) {
	t.Helper()
	_, body := getJSON(t, ts.URL+"/metrics")
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q:\n%s", w, body)
		}
	}
}

// TestChaosWorkerPanicRecovers: a panic on the worker (injected at the
// exec-begin point) fails that job only. The daemon keeps serving, the
// poisoned cache entry is evicted so an identical retry runs fresh, and
// the drain still completes cleanly.
func TestChaosWorkerPanicRecovers(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := faults.New()
	reg.Arm(PointExecBegin, faults.Trigger{Panic: true, Times: 1})
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 4, Faults: reg})
	close(release) // stubbed sims return immediately; faults control failure

	req := RunRequest{Apps: []string{"SCP"}, Seed: 1}
	_, st1, _ := postRun(t, ts, req)
	failed := waitAnyTerminal(t, ts, st1.ID)
	if failed.State != JobFailed || !strings.Contains(failed.Error, "injected panic") {
		t.Fatalf("panicked job: %+v", failed)
	}
	if code, body := getJSON(t, ts.URL+"/v1/runs/"+st1.ID+"/result"); code != http.StatusInternalServerError {
		t.Fatalf("failed job result: HTTP %d: %s", code, body)
	}

	// The queue is not wedged: an unrelated job completes on the same
	// (sole) worker that just panicked.
	_, st2, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 2})
	waitState(t, ts, st2.ID, JobDone)

	// The identical retry is NOT served the failed job from cache: the
	// entry was evicted, a fresh job runs (Times=1 is exhausted) and
	// completes.
	code, st3, _ := postRun(t, ts, req)
	if code != http.StatusAccepted || st3.Cached || st3.ID == st1.ID {
		t.Fatalf("retry after failure: HTTP %d %+v (want a fresh uncached job)", code, st3)
	}
	waitState(t, ts, st3.ID, JobDone)
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d stub executions, want 2 (panic preempted the first)", got)
	}
	mustMetric(t, ts,
		"mosaicd_runs_failed_total 1",
		"mosaicd_runs_completed_total 2",
		"mosaicd_cache_evictions_total 1",
	)
	if hits := reg.Hits(PointExecBegin); hits != 3 {
		t.Errorf("exec-begin point fired %d times, want 3", hits)
	}
}

// TestChaosCancelQueuedJob: canceling a job that is still waiting for a
// worker terminates it immediately, without it ever running, and frees
// its cache slot.
func TestChaosCancelQueuedJob(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 4})

	_, stA, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 1})
	waitState(t, ts, stA.ID, JobRunning) // occupies the only worker
	reqB := RunRequest{Apps: []string{"SCP"}, Seed: 2}
	_, stB, _ := postRun(t, ts, reqB)

	code, canceled, body := postCancel(t, ts, stB.ID)
	if code != http.StatusOK || canceled.State != JobCanceled {
		t.Fatalf("cancel queued job: HTTP %d %+v %s", code, canceled, body)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/runs/"+stB.ID+"/result"); code != http.StatusGone {
		t.Fatalf("canceled job result: HTTP %d, want 410", code)
	}

	// Cancel is idempotent and the resubmission is a fresh job.
	if code, again, _ := postCancel(t, ts, stB.ID); code != http.StatusOK || again.State != JobCanceled {
		t.Fatalf("second cancel: HTTP %d %+v", code, again)
	}
	codeB2, stB2, _ := postRun(t, ts, reqB)
	if codeB2 != http.StatusAccepted || stB2.Cached || stB2.ID == stB.ID {
		t.Fatalf("resubmission after cancel: HTTP %d %+v", codeB2, stB2)
	}

	close(release)
	waitState(t, ts, stA.ID, JobDone)
	waitState(t, ts, stB2.ID, JobDone)
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions, want 2 (the canceled job never ran)", got)
	}
	mustMetric(t, ts,
		"mosaicd_runs_canceled_total 1",
		"mosaicd_cache_evictions_total 1",
		"mosaicd_workers_busy 0",
	)
}

// TestChaosCancelRunningJob: canceling a running job releases its
// worker slot promptly (the simulation is abandoned), and an identical
// resubmission runs fresh.
func TestChaosCancelRunningJob(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 4})

	req := RunRequest{Apps: []string{"SCP"}, Seed: 7}
	_, st, _ := postRun(t, ts, req)
	waitState(t, ts, st.ID, JobRunning)

	if code, c, body := postCancel(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("cancel running job: HTTP %d %+v %s", code, c, body)
	}
	got := waitAnyTerminal(t, ts, st.ID)
	if got.State != JobCanceled {
		t.Fatalf("canceled running job reached %s (%s)", got.State, got.Error)
	}

	// Worker slot released without touching the release gate: a second
	// job runs to completion while the first stub is still blocked.
	_, st2, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 8})
	waitState(t, ts, st2.ID, JobRunning)
	codeR, stR, _ := postRun(t, ts, req)
	if codeR != http.StatusAccepted || stR.Cached {
		t.Fatalf("resubmission of canceled run: HTTP %d %+v", codeR, stR)
	}
	close(release)
	waitState(t, ts, st2.ID, JobDone)
	waitState(t, ts, stR.ID, JobDone)
	if got := execs.Load(); got != 3 {
		t.Fatalf("%d executions, want 3", got)
	}
	mustMetric(t, ts, "mosaicd_runs_canceled_total 1", "mosaicd_cache_evictions_total 1")
}

// TestChaosJobTimeout: a per-request deadline fails a stuck run, frees
// the worker, and evicts the cache entry; the server-wide default
// deadline covers requests that set none.
func TestChaosJobTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, ts, release, _ := newStubServer(t, Options{
		Workers: 1, QueueSize: 4, DefaultTimeout: 50 * time.Millisecond,
	})
	defer close(release) // the stubs exit via ctx, not the gate

	// Per-request deadline.
	req := RunRequest{Apps: []string{"SCP"}, Seed: 1, TimeoutMS: 25}
	_, st, _ := postRun(t, ts, req)
	got := waitAnyTerminal(t, ts, st.ID)
	if got.State != JobFailed || !strings.Contains(got.Error, "deadline exceeded") {
		t.Fatalf("timed-out job: %+v", got)
	}

	// Server default deadline (no TimeoutMS on the request).
	_, st2, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 2})
	got2 := waitAnyTerminal(t, ts, st2.ID)
	if got2.State != JobFailed || !strings.Contains(got2.Error, "deadline exceeded") {
		t.Fatalf("default-deadline job: %+v", got2)
	}

	// Both evictions happened; the worker slot is free again.
	mustMetric(t, ts,
		"mosaicd_runs_failed_total 2",
		"mosaicd_cache_evictions_total 2",
		"mosaicd_workers_busy 0",
	)
	codeR, stR, _ := postRun(t, ts, req)
	if codeR != http.StatusAccepted || stR.Cached {
		t.Fatalf("resubmission after timeout: HTTP %d %+v", codeR, stR)
	}
	waitAnyTerminal(t, ts, stR.ID)
}

// TestChaosDeadlineWhileQueued: a job whose deadline expires before a
// worker frees up is failed by the dispatcher without ever occupying a
// worker slot or executing.
func TestChaosDeadlineWhileQueued(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 4})

	_, stA, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 1})
	waitState(t, ts, stA.ID, JobRunning)
	_, stB, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 2, TimeoutMS: 25})

	got := waitAnyTerminal(t, ts, stB.ID)
	if got.State != JobFailed || !strings.Contains(got.Error, "while queued") {
		t.Fatalf("queued job past deadline: %+v", got)
	}
	close(release)
	waitState(t, ts, stA.ID, JobDone)
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions, want 1 (the expired job never ran)", got)
	}
}

// TestChaosFailedRunNeverCached: an injected failure (no panic, plain
// error) on the first execution is never served to an identical
// resubmission — the retry runs fresh and succeeds.
func TestChaosFailedRunNeverCached(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := faults.New()
	reg.Arm(PointExecBegin, faults.Trigger{Fail: true, Times: 1})
	_, ts, release, execs := newStubServer(t, Options{Workers: 2, QueueSize: 4, Faults: reg})
	close(release)

	req := RunRequest{Apps: []string{"SCP", "RED"}, Policy: "mosaic", Seed: 5}
	_, st1, _ := postRun(t, ts, req)
	if got := waitAnyTerminal(t, ts, st1.ID); got.State != JobFailed {
		t.Fatalf("first run: %+v", got)
	}

	code, st2, _ := postRun(t, ts, req)
	if code != http.StatusAccepted || st2.Cached || st2.ID == st1.ID {
		t.Fatalf("retry was served the failed run: HTTP %d %+v", code, st2)
	}
	waitState(t, ts, st2.ID, JobDone)
	codeRes, body := getJSON(t, ts.URL+"/v1/runs/"+st2.ID+"/result")
	if codeRes != http.StatusOK || !strings.Contains(body, "\"SchemaVersion\": 1") {
		t.Fatalf("retry result: HTTP %d: %s", codeRes, body)
	}
	// And a third submission IS served from cache — the done run.
	code3, st3, _ := postRun(t, ts, req)
	if code3 != http.StatusOK || !st3.Cached || st3.ID != st2.ID {
		t.Fatalf("post-success resubmission: HTTP %d %+v", code3, st3)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d stub executions, want 1 (failure fired before the stub)", got)
	}
}

// TestChaosDrainUnderFault: graceful shutdown terminates even while
// injected faults are panicking some jobs and holding others on a gate.
func TestChaosDrainUnderFault(t *testing.T) {
	testutil.CheckGoroutines(t)
	gate := make(chan struct{})
	reg := faults.New()
	reg.Arm(PointExecBegin, faults.Trigger{Block: gate, Panic: true, Times: 1})
	s, ts, release, _ := newStubServer(t, Options{Workers: 2, QueueSize: 8, Faults: reg})
	close(release)

	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		_, st, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: seed})
		ids = append(ids, st.ID)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(t.Context()) }()
	waitFor(t, func() bool {
		code, _ := getJSON(t, ts.URL+"/healthz")
		return code == http.StatusServiceUnavailable
	}, "healthz to flip to draining")
	select {
	case err := <-done:
		t.Fatalf("drain finished while a fault gate held a worker: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(gate) // release the held worker; the armed panic then fires once
	if err := <-done; err != nil {
		t.Fatalf("drain under fault: %v", err)
	}
	var failed, completed int
	for _, id := range ids {
		switch got := waitAnyTerminal(t, ts, id); got.State {
		case JobFailed:
			failed++
		case JobDone:
			completed++
		default:
			t.Errorf("job %s drained into %s", id, got.State)
		}
	}
	if failed != 1 || completed != 3 {
		t.Errorf("drained to %d failed / %d done, want 1/3", failed, completed)
	}
}

// TestChaosConcurrentSingleFlight (satellite): N concurrent identical
// submissions while the first execution is fault-delayed collapse onto
// one job — the simulation runs exactly once and every caller reads
// byte-identical report bytes. Run with -race.
func TestChaosConcurrentSingleFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	gate := make(chan struct{})
	reg := faults.New()
	reg.Arm(PointExecBegin, faults.Trigger{Block: gate, Times: 1})
	_, ts, release, execs := newStubServer(t, Options{Workers: 4, QueueSize: 16, Faults: reg})
	close(release)

	req := RunRequest{Apps: []string{"SCP", "RED"}, Policy: "mosaic", Seed: 11}
	_, first, _ := postRun(t, ts, req)
	waitState(t, ts, first.ID, JobRunning) // held at the gate

	const n = 16
	idsc := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, st, body := postRun(t, ts, req)
			if code != http.StatusOK || !st.Cached {
				t.Errorf("concurrent identical submission: HTTP %d %s", code, body)
			}
			idsc <- st.ID
		}()
	}
	wg.Wait()
	close(gate)
	waitState(t, ts, first.ID, JobDone)

	close(idsc)
	for id := range idsc {
		if id != first.ID {
			t.Errorf("submission joined job %s, want %s", id, first.ID)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d identical submissions", got, n+1)
	}
	_, ref := getJSON(t, ts.URL+"/v1/runs/"+first.ID+"/result")
	for i := 0; i < 4; i++ {
		if _, b := getJSON(t, ts.URL+"/v1/runs/"+first.ID+"/result"); b != ref {
			t.Fatal("result fetches are not byte-identical")
		}
	}
	mustMetric(t, ts, fmt.Sprintf("mosaicd_cache_hits_total %d", n), "mosaicd_cache_misses_total 1")
}

// TestChaosCorruptResult: the corrupt-result trigger flips stored
// report bytes, proving the seam reaches the payload path — the served
// result no longer parses as a report, while an uncorrupted job's does.
func TestChaosCorruptResult(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := faults.New()
	reg.Arm(PointResult, faults.Trigger{Corrupt: true, Times: 1})
	_, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 4, Faults: reg})
	close(release)

	_, st, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 1})
	waitState(t, ts, st.ID, JobDone)
	_, corrupted := getJSON(t, ts.URL+"/v1/runs/"+st.ID+"/result")
	if _, err := metrics.ReadReport(strings.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted result still parsed as a report")
	}

	_, st2, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Seed: 2})
	waitState(t, ts, st2.ID, JobDone)
	_, clean := getJSON(t, ts.URL+"/v1/runs/"+st2.ID+"/result")
	if _, err := metrics.ReadReport(strings.NewReader(clean)); err != nil {
		t.Fatalf("clean result after corrupt Times=1: %v", err)
	}
}

// TestChaosInjectedQueuePressure: a failure trigger on the submit point
// turns submissions into 429s (with Retry-After), the same wire shape
// as real queue overflow, until the trigger exhausts.
func TestChaosInjectedQueuePressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := faults.New()
	reg.Arm(PointSubmit, faults.Trigger{Fail: true, Times: 2})
	_, ts, release, _ := newStubServer(t, Options{Workers: 1, QueueSize: 4, Faults: reg})
	close(release)

	req := RunRequest{Apps: []string{"SCP"}}
	for i := 0; i < 2; i++ {
		body, _ := json429Body(t, ts, req)
		if !strings.Contains(body, "injected queue pressure") {
			t.Fatalf("storm rejection %d body: %s", i, body)
		}
	}
	code, st, _ := postRun(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("post-storm submission: HTTP %d", code)
	}
	waitState(t, ts, st.ID, JobDone)
	mustMetric(t, ts, "mosaicd_jobs_rejected_total 2")
}

// TestSubmitPathZeroAllocs is the acceptance guard on the server's own
// registry wiring: with no Faults configured (the production default),
// the injection points on the submit and result paths cost zero
// allocations.
func TestSubmitPathZeroAllocs(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	t.Cleanup(func() { s.Shutdown(t.Context()) })
	payload := []byte(`{"SchemaVersion":1}`)
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.faults.Fire(PointSubmit); err != nil {
			t.Fatal(err)
		}
		s.faults.CorruptBytes(PointResult, payload)
	}); n != 0 {
		t.Errorf("disabled injection points allocate %v per submit, want 0", n)
	}
}

func json429Body(t *testing.T, ts *httptest.Server, req RunRequest) (string, http.Header) {
	t.Helper()
	code, _, body := postRun(t, ts, req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429: %s", code, body)
	}
	return body, nil
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func mustUnmarshal(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
}
