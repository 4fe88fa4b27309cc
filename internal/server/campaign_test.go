package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/testutil"
)

func postCampaign(t *testing.T, ts *httptest.Server, req CampaignRequest) (int, CampaignStatus, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("parsing %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, string(raw)
}

// streamEvents follows the campaign's NDJSON stream to its end and
// returns every event.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []CellEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var evs []CellEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev CellEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		evs = append(evs, ev)
	}
}

func campaignStatus(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	code, body := getJSON(t, ts.URL+"/v1/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("campaign status: HTTP %d: %s", code, body)
	}
	var st CampaignStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCampaignGrid submits a 2-value x 2-policy sweep grid and checks
// the stream delivers exactly one done event per cell, replayable on
// reconnect, with the grid's identity triples.
// TestCampaignAcceptedIsRunning pins the 202 reply of a campaign submit
// to the state at acceptance. An instant stub answers a resubmitted grid
// from the cache, so its feeder can finish every cell before the reply
// is written; the reply must still say the campaign is running. Four
// clients submit at once so feeders and handlers interleave.
func TestCampaignAcceptedIsRunning(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 2})
	close(release)

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 3},
		Policies: []string{"gpummu"},
		Dim:      "l1base",
		Values:   []int{16},
	}
	// The first run fills the cache, so every later cell is a hit.
	if code, st, raw := postCampaign(t, ts, req); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, raw)
	} else {
		streamEvents(t, ts, st.ID)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st CampaignStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil {
					t.Errorf("submit: HTTP %d, decode error %v", resp.StatusCode, err)
					return
				}
				if st.State != CampaignRunning || st.Done != 0 {
					t.Errorf("accepted status %+v, want state %q with no cell done", st, CampaignRunning)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCampaignGrid(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 2})
	close(release)

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 3},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64},
	}
	code, st, raw := postCampaign(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, raw)
	}
	if st.Cells != 4 || st.State != CampaignRunning {
		t.Fatalf("accepted status: %+v", st)
	}

	evs := streamEvents(t, ts, st.ID)
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	seen := make(map[int]CellEvent)
	for _, ev := range evs {
		if ev.State != JobDone {
			t.Fatalf("cell %d: state %s (%s)", ev.Index, ev.State, ev.Error)
		}
		if len(ev.Result) == 0 {
			t.Fatalf("cell %d: no result payload", ev.Index)
		}
		if _, dup := seen[ev.Index]; dup {
			t.Fatalf("cell %d emitted twice", ev.Index)
		}
		seen[ev.Index] = ev
	}
	// Grid order: index = value*len(policies) + policy.
	if seen[0].Policy == seen[1].Policy {
		t.Fatalf("cells 0/1 share policy %q", seen[0].Policy)
	}
	if seen[0].DimValue != 16 || seen[2].DimValue != 64 {
		t.Fatalf("dim values: cell0=%d cell2=%d", seen[0].DimValue, seen[2].DimValue)
	}
	if seen[0].ConfigDigest == seen[2].ConfigDigest {
		t.Fatal("different swept values share a config digest")
	}
	if execs.Load() != 4 {
		t.Fatalf("%d simulations for 4 distinct cells", execs.Load())
	}

	// Reconnect: the stream replays every event, identically.
	replay := streamEvents(t, ts, st.ID)
	if len(replay) != 4 {
		t.Fatalf("replay: %d events, want 4", len(replay))
	}
	for i := range replay {
		a, _ := json.Marshal(evs[i])
		b, _ := json.Marshal(replay[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("replay event %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}

	final := campaignStatus(t, ts, st.ID)
	if final.State != CampaignDone || final.Done != 4 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
}

// TestCampaignDedup: campaign cells share HTTP submission's admission
// path. A resubmitted campaign is answered entirely from the cache; on
// a full queue, cells wait for space instead of failing, an HTTP
// submission of a queued cell's key joins that cell's job, and a
// campaign canceled during the wait marks its cells canceled.
func TestCampaignDedup(t *testing.T) {
	t.Run("resubmission", func(t *testing.T) {
		_, ts, release, execs := newStubServer(t, Options{Workers: 2})
		close(release)

		req := CampaignRequest{
			Base:     RunRequest{Apps: []string{"SCP"}},
			Policies: []string{"gpummu", "mosaic"},
			Dim:      "l1base",
			Values:   []int{16, 64},
		}
		_, st1, _ := postCampaign(t, ts, req)
		first := streamEvents(t, ts, st1.ID)

		_, st2, _ := postCampaign(t, ts, req)
		second := streamEvents(t, ts, st2.ID)
		if len(second) != 4 {
			t.Fatalf("%d events on resubmission", len(second))
		}
		for _, ev := range second {
			if ev.State != JobDone || !ev.Cached {
				t.Fatalf("cell %d: state=%s cached=%v", ev.Index, ev.State, ev.Cached)
			}
		}
		if execs.Load() != 4 {
			t.Fatalf("resubmission re-simulated: %d execs", execs.Load())
		}
		final := campaignStatus(t, ts, st2.ID)
		if final.FromCache != 4 || final.FromStore != 0 {
			t.Fatalf("resubmission sources: %+v", final)
		}
		// Byte-identical results cell for cell.
		byIdx := func(evs []CellEvent) map[int]string {
			m := make(map[int]string)
			for _, ev := range evs {
				m[ev.Index] = string(ev.Result)
			}
			return m
		}
		f, s := byIdx(first), byIdx(second)
		for i := 0; i < 4; i++ {
			if f[i] != s[i] {
				t.Fatalf("cell %d bytes differ between campaigns", i)
			}
		}
	})

	// fullQueue starts a one-worker, one-slot server whose worker is
	// held by an unrelated run, and a three-cell campaign whose cells 0
	// and 1 take the dispatcher's hand-off and the only queue slot, so
	// cell 2 waits for space.
	fullQueue := func(t *testing.T) (*Server, *httptest.Server, chan struct{}, *atomic.Int32, string) {
		s, ts, release, execs := newStubServer(t, Options{Workers: 1, QueueSize: 1, DefaultTimeout: time.Minute})
		code, blocker, _ := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Policy: "ideal", Seed: 99})
		if code != http.StatusAccepted {
			t.Fatalf("blocker: HTTP %d", code)
		}
		waitState(t, ts, blocker.ID, JobRunning)
		code, st, raw := postCampaign(t, ts, CampaignRequest{
			Base:     RunRequest{Apps: []string{"SCP"}},
			Policies: []string{"gpummu", "gpummu-2mb", "mosaic"},
		})
		if code != http.StatusAccepted {
			t.Fatalf("campaign: HTTP %d: %s", code, raw)
		}
		waitFor(t, func() bool { return s.accepted.Load() == 3 && len(s.queue) == 1 }, "cells 0 and 1 to fill the queue")
		return s, ts, release, execs, st.ID
	}

	t.Run("full queue", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		s, ts, release, execs, id := fullQueue(t)

		// Cell 0's key joins its queued job.
		code, st, raw := postRun(t, ts, RunRequest{Apps: []string{"SCP"}, Policy: "gpummu"})
		if code != http.StatusOK || !st.Cached || st.ID != "r000002" {
			t.Fatalf("submit of a queued cell's key: HTTP %d %s, want a cache hit on r000002", code, raw)
		}
		// A refused enqueue attempt leaves no live deadline behind.
		p, err := Resolve(config.FastTest, RunRequest{Apps: []string{"SCP"}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		j := newJob(p)
		if _, _, err := s.enqueue(j); !errors.Is(err, errQueueFull) || j.ctx.Err() == nil {
			t.Fatalf("enqueue on a full queue: err=%v, job ctx err=%v; want errQueueFull and a released deadline", err, j.ctx.Err())
		}

		close(release)
		evs := streamEvents(t, ts, id)
		if len(evs) != 3 {
			t.Fatalf("%d events, want 3", len(evs))
		}
		for _, ev := range evs {
			if ev.State != JobDone {
				t.Fatalf("cell %d: state %s (%s), want done after waiting", ev.Index, ev.State, ev.Error)
			}
		}
		if n := execs.Load(); n != 4 {
			t.Fatalf("%d executions, want 4 (blocker + one per cell)", n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})

	t.Run("cancel while waiting", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		_, ts, _, execs, id := fullQueue(t)

		resp, err := http.Post(ts.URL+"/v1/campaigns/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		evs := streamEvents(t, ts, id)
		if len(evs) != 3 {
			t.Fatalf("%d events after cancel, want 3", len(evs))
		}
		for _, ev := range evs {
			if ev.State != JobCanceled {
				t.Fatalf("cell %d: state %s after cancel", ev.Index, ev.State)
			}
		}
		if final := campaignStatus(t, ts, id); final.State != CampaignCanceled || final.Canceled != 3 {
			t.Fatalf("final status: %+v", final)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("%d executions while the worker was held, want 1", n)
		}
	})
}

// TestCampaignFromStore: a fresh daemon over a warmed store answers a
// campaign without simulating at all.
func TestCampaignFromStore(t *testing.T) {
	shared := store.NewMem()
	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"gpummu", "mosaic"},
	}

	_, ts1, release1, _ := newStubServer(t, Options{Workers: 2, Store: shared})
	close(release1)
	_, st1, _ := postCampaign(t, ts1, req)
	streamEvents(t, ts1, st1.ID)

	_, ts2, _, execs2 := newStubServer(t, Options{Workers: 2, Store: shared})
	_, st2, _ := postCampaign(t, ts2, req)
	evs := streamEvents(t, ts2, st2.ID)
	if len(evs) != 2 {
		t.Fatalf("%d events", len(evs))
	}
	for _, ev := range evs {
		if ev.State != JobDone || !ev.Cached {
			t.Fatalf("cell %d: state=%s cached=%v (%s)", ev.Index, ev.State, ev.Cached, ev.Error)
		}
	}
	if execs2.Load() != 0 {
		t.Fatalf("second daemon simulated %d cells", execs2.Load())
	}
	if final := campaignStatus(t, ts2, st2.ID); final.FromStore != 2 {
		t.Fatalf("sources: %+v", final)
	}
}

// TestCampaignDeprecatedShards: a campaign whose Base still carries the
// deprecated Shards field decodes, and its cell is the same result as
// the campaign without it, answered from cache.
func TestCampaignDeprecatedShards(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 1})
	close(release)

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 7, Shards: 4},
		Policies: []string{"mosaic"},
	}
	code, st, raw := postCampaign(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("campaign with Shards=4 in its base: HTTP %d: %s", code, raw)
	}
	withShards := streamEvents(t, ts, st.ID)
	if len(withShards) != 1 || withShards[0].State != JobDone {
		t.Fatalf("campaign with Shards=4 in its base: %+v, want one done cell", withShards)
	}

	req.Base.Shards = 0
	code, st, raw = postCampaign(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("campaign without Shards: HTTP %d: %s", code, raw)
	}
	plain := streamEvents(t, ts, st.ID)
	if len(plain) != 1 || plain[0].State != JobDone {
		t.Fatalf("campaign without Shards: %+v, want one done cell", plain)
	}
	if !plain[0].Cached || plain[0].ConfigDigest != withShards[0].ConfigDigest || !bytes.Equal(plain[0].Result, withShards[0].Result) {
		t.Errorf("campaign without Shards: cached=%v, same digest=%v, identical bytes=%v; want a cache hit on the same result",
			plain[0].Cached, plain[0].ConfigDigest == withShards[0].ConfigDigest, bytes.Equal(plain[0].Result, withShards[0].Result))
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}

// TestCampaignCancel: canceling mid-flight marks unfinished cells
// canceled, closes the stream, and leaves the campaign canceled.
func TestCampaignCancel(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1})
	defer close(release) // free the blocked simulations at test end

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"gpummu", "gpummu-2mb", "mosaic", "ideal"},
	}
	_, st, _ := postCampaign(t, ts, req)

	// Cancel while every simulation is still blocked on release.
	resp, err := http.Post(ts.URL+"/v1/campaigns/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	evs := streamEvents(t, ts, st.ID)
	if len(evs) != 4 {
		t.Fatalf("%d events after cancel, want 4", len(evs))
	}
	for _, ev := range evs {
		if ev.State != JobCanceled {
			t.Fatalf("cell %d: state %s after cancel", ev.Index, ev.State)
		}
	}
	final := campaignStatus(t, ts, st.ID)
	if final.State != CampaignCanceled || final.Canceled != 4 {
		t.Fatalf("final status: %+v", final)
	}
}

// TestCampaignValidation pins the 400 paths of campaign planning.
func TestCampaignValidation(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1})
	close(release)
	// One cell over the HTTP bound: rejected as outside input, yet a
	// plannable grid (local sweeps plan it with PlanCampaign).
	overBound := CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"ideal"}, Dim: "l1base",
		Values: make([]int, maxCampaignCells+1)}
	for i := range overBound.Values {
		overBound.Values[i] = 16 + i
	}
	if _, err := PlanCampaign(config.FastTest, overBound); err != nil {
		t.Fatalf("PlanCampaign over the HTTP bound: %v", err)
	}
	cases := []struct {
		name string
		req  CampaignRequest
	}{
		{"no policies", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}}},
		{"base policy set", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}, Policy: "mosaic"}, Policies: []string{"mosaic"}}},
		{"base dim set", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}, Dim: "l1base", DimValue: 16}, Policies: []string{"mosaic"}}},
		{"dim without values", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Dim: "l1base"}},
		{"values without dim", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Values: []int{16}}},
		{"unknown dim", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Dim: "bogus", Values: []int{1}}},
		{"unknown policy", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"vax"}, Dim: "l1base", Values: []int{16}}},
		{"no apps", CampaignRequest{Policies: []string{"mosaic"}}},
		{"over the cell bound", overBound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postCampaign(t, ts, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d: %s", code, raw)
			}
		})
	}
	if code, body := getJSON(t, ts.URL+"/v1/campaigns/c999999"); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: HTTP %d: %s", code, body)
	}
}

// TestCampaignDigestsMatchSweep pins the configuration sequence Resolve
// applies to a sweep cell against a literal copy of it. Resolve is the
// single place a request becomes a simulation — mosaic-sweep plans its
// local grids with PlanCampaign too — so a change here changes every
// swept digest and orphans every stored sweep cell.
func TestCampaignDigestsMatchSweep(t *testing.T) {
	base := config.FastTest
	cells, err := PlanCampaign(base, CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 42, NoPaging: true},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	pols := []string{"gpummu", "mosaic"}
	vals := []int{16, 64}
	for vi, v := range vals {
		for pi := range pols {
			// The exact sequence cmd/mosaic-sweep applies.
			cfg := base()
			cfg.IOBusEnabled = false
			cfg.L1TLBBaseEntries = v
			cfg.ClampTLBWays()
			pol, err := ParsePolicy(pols[pi])
			if err != nil {
				t.Fatal(err)
			}
			want := sim.Digest(cfg, sim.Options{Policy: pol, Seed: 42})
			cell := cells[vi*len(pols)+pi]
			if cell.Key.ConfigDigest != want {
				t.Errorf("cell %d digest %s, want %s", cell.Index, cell.Key.ConfigDigest, want)
			}
		}
	}
}

// FuzzCampaignPlan decodes arbitrary bytes into a CampaignRequest as
// POST /v1/campaigns does (unknown fields rejected, then the cell
// bound) and plans the grid. PlanCampaign must never panic. It returns
// an error and no cells, or len(Policies) × max(len(Values), 1) cells in
// grid order, each of which Resolve maps back to the cell's key.
func FuzzCampaignPlan(f *testing.F) {
	for _, seed := range []string{
		`{"Base":{"Apps":["HS"]},"Policies":["gpummu","mosaic"]}`,
		`{"Base":{"Apps":["NW","HS"],"Scale":96},"Policies":["mosaic"],"Dim":"l1base","Values":[16,64]}`,
		`{"Base":{"Apps":["HS"],"FragIndex":1,"FragOccupancy":0.9},"Policies":["fifo-mmu","ideal"],"Dim":"oversub","Values":[0,150]}`,
		`{"Base":{"Apps":["HS"]},"Policies":["gpummu"],"Dim":"oversub","Values":[-150]}`,
		`{"Base":{"Apps":["HS"]},"Policies":["gpummu"],"Values":[1]}`,
		`{"Base":{"Apps":["HS"]},"Policies":["gpummu"],"Dim":"pwc"}`,
		`{"Base":{"Apps":["HS"],"Policy":"mosaic"},"Policies":["gpummu"]}`,
		`{"Base":{"Apps":["HS"],"Dim":"l1base"},"Policies":["gpummu"]}`,
		`{"Base":{"Apps":["HS"]},"Policies":["nope"]}`,
		`{"Base":{"Apps":["HS"]},"Policies":[]}`,
		`{"Base":{},"Policies":["gpummu"]}`,
		`{"Base":{"Apps":["HS"]},"Policies":["gpummu"],"Extra":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CampaignRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || checkCampaignBound(req) != nil {
			return
		}
		cells, err := PlanCampaign(config.FastTest, req)
		if err != nil {
			if cells != nil {
				t.Fatalf("PlanCampaign returned %d cells with error %v", len(cells), err)
			}
			return
		}
		if want := len(req.Policies) * max(len(req.Values), 1); len(cells) != want {
			t.Fatalf("planned %d cells, grid has %d", len(cells), want)
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has index %d", i, c.Index)
			}
			p, err := Resolve(config.FastTest, c.Req)
			if err != nil {
				t.Fatalf("cell %d request %+v no longer resolves: %v", i, c.Req, err)
			}
			if p.Key != c.Key {
				t.Fatalf("cell %d keyed %+v, its request resolves to %+v", i, c.Key, p.Key)
			}
		}
	})
}
