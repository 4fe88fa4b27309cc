package serviceclient

// Chaos matrix for Client.Run against a real service under injected
// faults: each failure mode must resolve to a typed error or a clean
// retry, with no goroutine leaks (checked via testutil). Runs under
// -race in CI. The Wait-deadline regression tests (a lost job ID must
// surface ErrTimeout, never hang) live here too.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/testutil"
)

// startService runs a real service (real simulations on the FastTest
// config, clamped like the e2e tests) over st (nil = in-memory) with
// the given fault registry armed. The server handle is returned so
// tests can start a drain or a restart mid-scenario; Shutdown is
// idempotent, so the cleanup's own drain is safe either way.
func startService(t *testing.T, st store.ResultStore, reg *faults.Registry) (*Client, *server.Server) {
	t.Helper()
	s := server.New(server.Options{
		Workers:   2,
		QueueSize: 8,
		Faults:    reg,
		Store:     st,
		BaseConfig: func() config.Config {
			c := config.FastTest()
			c.MaxWarpInstructions = 128
			return c
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { shutdown(t, s) })
	c := New(ts.URL)
	c.PollInterval = 2 * time.Millisecond
	return c, s
}

func shutdown(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestChaosRunMatrix drives Client.Run through the four injected
// failure modes of the service path and pins each outcome.
func TestChaosRunMatrix(t *testing.T) {
	req := server.RunRequest{Apps: []string{"SCP"}, Policy: "mosaic", Seed: 3}

	t.Run("429-storm", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		reg := faults.New()
		reg.Arm(server.PointSubmit, faults.Trigger{Fail: true, Times: 2})
		c, _ := startService(t, nil, reg)

		rep, err := c.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("Run through a 429 storm: %v", err)
		}
		if rep.SchemaVersion == 0 || len(rep.Figures) != 1 {
			t.Fatalf("post-storm report shape: %+v", rep)
		}
		if hits := reg.Hits(server.PointSubmit); hits != 3 {
			t.Errorf("submit point fired %d times, want 3 (2 rejections + success)", hits)
		}
	})

	t.Run("mid-run-worker-panic", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		reg := faults.New()
		reg.Arm(server.PointExecBegin, faults.Trigger{Panic: true, Times: 1})
		c, _ := startService(t, nil, reg)

		_, err := c.Run(context.Background(), req)
		if err == nil || !strings.Contains(err.Error(), "injected panic") {
			t.Fatalf("Run over a panicked worker: %v", err)
		}
		// The crash poisoned nothing: the same Run retried verbatim now
		// succeeds (the panic trigger is exhausted and the cache entry
		// was evicted).
		if _, err := c.Run(context.Background(), req); err != nil {
			t.Fatalf("Run retry after worker panic: %v", err)
		}
	})

	t.Run("drain-mid-wait", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		gate := make(chan struct{})
		reg := faults.New()
		reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate, Times: 1})
		c, s := startService(t, nil, reg)

		runErr := make(chan error, 1)
		go func() {
			_, err := c.Run(context.Background(), req)
			runErr <- err
		}()
		waitHits(t, reg, server.PointExecBegin, 1) // the run is held at the gate

		// Drain begins while the client is mid-Wait: the accepted job
		// must finish and the waiting Run must still succeed, while new
		// submissions get the typed drain error.
		shutdownErr := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			shutdownErr <- s.Shutdown(ctx)
		}()
		waitFor(t, func() bool {
			_, err := c.Submit(context.Background(), req)
			return errors.Is(err, ErrDraining)
		}, "submission rejected with ErrDraining")

		close(gate)
		if err := <-runErr; err != nil {
			t.Fatalf("Run across drain: %v", err)
		}
		if err := <-shutdownErr; err != nil {
			t.Fatalf("drain: %v", err)
		}
	})

	t.Run("response-timeout", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		gate := make(chan struct{})
		reg := faults.New()
		reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate, Times: 1})
		c, _ := startService(t, nil, reg)
		t.Cleanup(func() { close(gate) }) // let the held run finish into the drain
		c.WaitTimeout = 50 * time.Millisecond

		_, err := c.Run(context.Background(), req)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Run against a wedged worker: %v, want ErrTimeout", err)
		}
	})
}

// waitHits polls until the injection point has fired n times, proving
// the server reached a known execution state without sleeps.
func waitHits(t *testing.T, reg *faults.Registry, point string, n uint64) {
	t.Helper()
	waitFor(t, func() bool { return reg.Hits(point) >= n },
		fmt.Sprintf("injection point %s reaching %d hits", point, n))
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gave up waiting for %s", what)
}

// TestWaitDefaultDeadlineLostJob is the regression for the unbounded
// Wait bug: a job ID the server will never resolve (here: a scripted
// status endpoint that reports running forever) must surface ErrTimeout
// at the client's default deadline instead of polling forever.
func TestWaitDefaultDeadlineLostJob(t *testing.T) {
	testutil.CheckGoroutines(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobStatus{ID: r.PathValue("id"), State: server.JobRunning})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 50 * time.Millisecond

	start := time.Now()
	_, err := c.Wait(context.Background(), "r424242")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Wait on a lost job: %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Wait took %v; the default deadline did not apply", elapsed)
	}

	// A context deadline takes precedence over the client default.
	c.WaitTimeout = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, "r424242"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Wait under ctx deadline: %v, want ErrTimeout", err)
	}

	// Cancellation mid-wait is the other typed sentinel.
	c.WaitTimeout = time.Hour
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel2() }()
	if _, err := c.Wait(ctx2, "r424242"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait under canceled ctx: %v, want ErrCanceled", err)
	}
}

// TestCancelEndToEnd: Cancel aborts a held job through the HTTP API and
// Wait maps the canceled state onto ErrCanceled.
func TestCancelEndToEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	gate := make(chan struct{})
	reg := faults.New()
	reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate, Times: 1})
	c, _ := startService(t, nil, reg)
	defer close(gate)
	ctx := context.Background()

	st, err := c.Submit(ctx, server.RunRequest{Apps: []string{"SCP"}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitHits(t, reg, server.PointExecBegin, 1)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.Wait(ctx, st.ID)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait on canceled job: %v, want ErrCanceled", err)
	}
	if final.State != server.JobCanceled {
		t.Fatalf("final state %s", final.State)
	}
	if _, err := c.Cancel(ctx, "r999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("cancel unknown job: %v", err)
	}
}
