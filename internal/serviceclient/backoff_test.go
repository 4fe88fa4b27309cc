package serviceclient

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestPollDelaySchedule pins Wait's backoff deterministically: delays
// double from PollInterval to the 2s cap, each jittered into
// [base/2, base] by the rnd sample.
func TestPollDelaySchedule(t *testing.T) {
	const interval = 200 * time.Millisecond
	// rnd = 0 lands on the bottom of the jitter window: base/2.
	wantHalf := []time.Duration{
		100 * time.Millisecond, // n=1: base 200ms
		200 * time.Millisecond, // n=2: base 400ms
		400 * time.Millisecond, // n=3: base 800ms
		800 * time.Millisecond, // n=4: base 1.6s
		1 * time.Second,        // n=5: base capped at 2s
		1 * time.Second,        // n=6: stays capped
	}
	for i, want := range wantHalf {
		if got := pollDelay(interval, i+1, 0); got != want {
			t.Errorf("pollDelay(n=%d, rnd=0) = %v, want %v", i+1, got, want)
		}
	}
	// rnd = 0.5 lands mid-window: 3/4 of base.
	if got, want := pollDelay(interval, 1, 0.5), 150*time.Millisecond; got != want {
		t.Errorf("pollDelay(n=1, rnd=0.5) = %v, want %v", got, want)
	}
	// rnd → 1 approaches (but never exceeds) base.
	if got := pollDelay(interval, 1, 0.999999); got < 199*time.Millisecond || got > interval {
		t.Errorf("pollDelay(n=1, rnd→1) = %v, want just under %v", got, interval)
	}
	// A PollInterval above the cap raises the cap to itself.
	if got, want := pollDelay(5*time.Second, 3, 0), 2500*time.Millisecond; got != want {
		t.Errorf("pollDelay(interval=5s, n=3, rnd=0) = %v, want %v", got, want)
	}
	// Delays never collapse to zero, even for absurd inputs.
	if got := pollDelay(time.Nanosecond, 60, 0); got <= 0 || got > waitBackoffCap {
		t.Errorf("pollDelay(1ns, n=60) = %v out of range", got)
	}
}

// TestPollDelayDegenerateInputs pins the hardening contract: pollDelay
// must return promptly and within its documented ceiling —
// max(waitBackoffCap, interval) — for any (interval, n), including the
// inputs that used to make the doubling loop iterate n−1 times (a
// non-positive interval can never reach the cap by doubling, and a huge
// n would overflow base along the way).
func TestPollDelayDegenerateInputs(t *testing.T) {
	cases := []struct {
		name     string
		interval time.Duration
		n        int
	}{
		{"zero interval, huge n", 0, math.MaxInt},
		{"negative interval, huge n", -time.Second, math.MaxInt},
		{"tiny interval, huge n", time.Nanosecond, math.MaxInt},
		{"near-overflow interval", math.MaxInt64 / 2, 64},
		{"zero interval, n=1", 0, 1},
		{"huge n at default interval", 200 * time.Millisecond, 1 << 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ceiling := waitBackoffCap
			if tc.interval > ceiling {
				ceiling = tc.interval
			}
			start := time.Now()
			for _, rnd := range []float64{0, 0.5, 0.999999} {
				got := pollDelay(tc.interval, tc.n, rnd)
				if got <= 0 || got > ceiling {
					t.Errorf("pollDelay(%v, %d, %v) = %v, want in (0, %v]",
						tc.interval, tc.n, rnd, got, ceiling)
				}
			}
			// "Promptly" means a bounded number of doubling steps, not n
			// iterations: even math.MaxInt must compute in well under a
			// second.
			if took := time.Since(start); took > time.Second {
				t.Errorf("pollDelay(%v, %d) took %v to compute", tc.interval, tc.n, took)
			}
		})
	}
}

// TestWaitUsesJitteredBackoff runs Wait against a scripted service with
// a deterministic jitter hook: the first poll is immediate (no delay
// precedes it) and every sleep consumes exactly one jitter sample.
func TestWaitUsesJitteredBackoff(t *testing.T) {
	f := &fakeService{pollsToGo: 3}
	ts := httptest.NewServer(f.handler(t))
	defer ts.Close()

	var samples atomic.Int32
	c := New(ts.URL)
	c.PollInterval = time.Millisecond
	c.Jitter = func() float64 {
		samples.Add(1)
		return 0 // bottom of the window: fastest deterministic schedule
	}
	start := time.Now()
	st, err := c.Wait(context.Background(), "r000001")
	if err != nil || st.State != server.JobDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	// pollsToGo=3 means polls 1-3 see running, poll 4 sees done: 4
	// polls, 3 sleeps, 3 jitter samples.
	if got := f.polls.Load(); got != 4 {
		t.Errorf("%d polls, want 4", got)
	}
	if got := samples.Load(); got != 3 {
		t.Errorf("%d jitter samples, want 3 (one per sleep)", got)
	}
	// Sanity: the 1ms-interval schedule (0.5+1+2 ms of sleeps) must not
	// have ballooned to default-interval scale.
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("wait took %v with 1ms interval", took)
	}
}

// TestRunCampaignReconnects: a stream that drops mid-campaign is
// transparently resumed, and the replayed prefix deduplicates — every
// cell ends with exactly one event, in grid order.
func TestRunCampaignReconnects(t *testing.T) {
	events := []server.CellEvent{
		{Index: 0, Workload: "SCP", Policy: "a", ConfigDigest: "d0", State: server.JobDone},
		{Index: 1, Workload: "SCP", Policy: "b", ConfigDigest: "d1", State: server.JobDone},
	}
	var streams atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000001", State: server.CampaignRunning, Cells: 2})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000001", State: server.CampaignRunning, Cells: 2})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if streams.Add(1) == 1 {
			enc.Encode(events[0]) // then "drop": close with one event missing
			return
		}
		for _, ev := range events { // replay from the start
			enc.Encode(ev)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	got, err := New(ts.URL).RunCampaign(context.Background(), server.CampaignRequest{
		Base: server.RunRequest{Apps: []string{"SCP"}}, Policies: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streams.Load() != 2 {
		t.Fatalf("%d stream connections, want 2", streams.Load())
	}
	if len(got) != 2 {
		t.Fatalf("%d events, want 2", len(got))
	}
	for i, ev := range got {
		if ev.Index != i || ev.ConfigDigest != events[i].ConfigDigest {
			t.Errorf("event %d: %+v", i, ev)
		}
	}
}

// TestCampaignCancelSurfacesShortfall: a campaign that goes terminal
// with missing cell events (cells never delivered) is an error, not a
// silent short grid.
func TestCampaignCancelSurfacesShortfall(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000001", State: server.CampaignRunning, Cells: 2})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000001", State: server.CampaignCanceled, Cells: 2, Done: 1, Canceled: 0})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.CellEvent{Index: 0, State: server.JobDone})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	_, err := New(ts.URL).RunCampaign(context.Background(), server.CampaignRequest{
		Base: server.RunRequest{Apps: []string{"SCP"}}, Policies: []string{"a", "b"},
	})
	if err == nil {
		t.Fatal("missing cells on a terminal campaign did not error")
	}
}

// runCampaignWithin runs RunCampaign with a context that has no
// deadline and fails the test if it has not returned within limit.
func runCampaignWithin(t *testing.T, c *Client, limit time.Duration) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunCampaign(context.Background(), server.CampaignRequest{
			Base: server.RunRequest{Apps: []string{"SCP"}}, Policies: []string{"a", "b"},
		})
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(limit):
		t.Fatalf("RunCampaign still running after %v", limit)
		return nil
	}
}

// TestRunCampaignUnknownCampaignEnds: a daemon that answers the stream
// and status endpoints with 404 (it restarted and lost the campaign)
// ends RunCampaign with an error naming the campaign, instead of
// reconnecting forever.
func TestRunCampaignUnknownCampaignEnds(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000007", State: server.CampaignRunning, Cells: 2})
	})
	notFound := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(struct{ Error string }{"no such campaign"})
	}
	mux.HandleFunc("GET /v1/campaigns/{id}", notFound)
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", notFound)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	err := runCampaignWithin(t, New(ts.URL), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "c000007") || !strings.Contains(err.Error(), "404") {
		t.Fatalf("RunCampaign against a 404 stream: %v, want an error naming c000007 and the 404", err)
	}
}

// TestRunCampaignServerGoneTimesOut: once the daemon is gone for good,
// failed reconnects give up after WaitTimeout with ErrTimeout.
func TestRunCampaignServerGoneTimesOut(t *testing.T) {
	var ts *httptest.Server
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.CampaignStatus{ID: "c000003", State: server.CampaignRunning, Cells: 2})
		go ts.Close() // the daemon dies right after accepting
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // a stream that raced the close dies with it
	})
	ts = httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	c.WaitTimeout = 300 * time.Millisecond
	err := runCampaignWithin(t, c, 5*time.Second)
	if !errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "c000003") {
		t.Fatalf("RunCampaign against a dead server: %v, want ErrTimeout naming c000003", err)
	}
}
