package coordinator

// Fleet tests run real mosaicd workers (real simulations on the
// FastTest config) behind a coordinator and drive campaigns through the
// public client, including the chaos contract: a worker killed before
// or during a campaign loses no cells and duplicates none — every cell
// emits exactly one terminal event and the grid completes on the
// survivors. Runs under -race in CI with goroutine-leak checks.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/serviceclient"
	"repro/internal/store"
	"repro/internal/testutil"
)

func fleetConfig() config.Config {
	c := config.FastTest()
	c.MaxWarpInstructions = 128
	return c
}

// fleet is a coordinator over n real workers, all sharing one result
// store, with a client pointed at the coordinator.
type fleet struct {
	workers  []*server.Server
	workerTS []*httptest.Server
	co       *Coordinator
	coTS     *httptest.Server
	client   *serviceclient.Client
}

func startFleet(t *testing.T, n int, shared store.ResultStore, reg *faults.Registry) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := server.New(server.Options{
			Workers:    2,
			QueueSize:  16,
			BaseConfig: fleetConfig,
			Store:      shared,
			Faults:     reg,
		})
		ts := httptest.NewServer(s.Handler())
		f.workers = append(f.workers, s)
		f.workerTS = append(f.workerTS, ts)
		urls[i] = ts.URL
		t.Cleanup(ts.Close) // idempotent: kill tests close early
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("worker shutdown: %v", err)
			}
		})
	}
	co, err := New(Options{
		Workers:      urls,
		BaseConfig:   fleetConfig,
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.co = co
	f.coTS = httptest.NewServer(co.Handler())
	t.Cleanup(f.coTS.Close)
	f.client = serviceclient.New(f.coTS.URL)
	f.client.PollInterval = 2 * time.Millisecond
	return f
}

// forceRing pins every cell's first candidate to worker 0, making the
// kill-and-requeue tests deterministic: with both vnodes at the bottom
// of the hash space, every practical key wraps past them and walks the
// ring from worker 0.
func forceRing(co *Coordinator) {
	co.ring = &ring{hashes: []uint64{1, 2}, workers: map[uint64]int{1: 0, 2: 1}, n: 2}
}

// killWorker drops worker i's listener and its live connections — the
// daemon process object survives (its in-flight sims finish), but no
// request reaches it again, which is exactly what a node kill looks
// like from the coordinator's side.
func (f *fleet) killWorker(i int) {
	f.workerTS[i].CloseClientConnections()
	f.workerTS[i].Close()
}

func sixCellGrid() server.CampaignRequest {
	return server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}, Seed: 7},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64, 256},
	}
}

func assertAllDone(t *testing.T, events []server.CellEvent) {
	t.Helper()
	for i, ev := range events {
		if ev.Index != i || ev.State != server.JobDone || len(ev.Result) == 0 {
			t.Fatalf("cell %d: index %d state %s error %q (result %d bytes)",
				i, ev.Index, ev.State, ev.Error, len(ev.Result))
		}
	}
}

func coordMetrics(t *testing.T, f *fleet, want ...string) {
	t.Helper()
	m, err := f.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(m, w) {
			t.Errorf("coordinator metrics missing %q:\n%s", w, m)
		}
	}
}

// TestFleetCampaign: a campaign through the coordinator completes the
// full grid with results byte-identical to the same campaign on a
// standalone server, and a resubmission is answered entirely from the
// fleet's caches.
func TestFleetCampaign(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 2, store.NewMem(), nil)

	events, err := f.client.RunCampaign(context.Background(), sixCellGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("%d events, want 6", len(events))
	}
	assertAllDone(t, events)
	coordMetrics(t, f, "coordinator_cells_total 6", "coordinator_cells_failed_total 0",
		"coordinator_workers_alive 2")

	// The same grid on a standalone single daemon must serve
	// byte-identical cell results: the fleet changes where cells run,
	// never what they produce.
	solo := server.New(server.Options{Workers: 2, QueueSize: 16, BaseConfig: fleetConfig})
	soloTS := httptest.NewServer(solo.Handler())
	t.Cleanup(soloTS.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := solo.Shutdown(ctx); err != nil {
			t.Errorf("solo shutdown: %v", err)
		}
	})
	soloClient := serviceclient.New(soloTS.URL)
	soloClient.PollInterval = 2 * time.Millisecond
	soloEvents, err := soloClient.RunCampaign(context.Background(), sixCellGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if !bytes.Equal(events[i].Result, soloEvents[i].Result) {
			t.Errorf("cell %d result differs between fleet and standalone server", i)
		}
		if events[i].ConfigDigest != soloEvents[i].ConfigDigest {
			t.Errorf("cell %d digest differs: %s vs %s", i, events[i].ConfigDigest, soloEvents[i].ConfigDigest)
		}
	}

	// Resubmission: every cell is already in a worker cache (or the
	// shared store), so nothing simulates again.
	again, err := f.client.RunCampaign(context.Background(), sixCellGrid())
	if err != nil {
		t.Fatal(err)
	}
	assertAllDone(t, again)
	for i := range again {
		if !again[i].Cached {
			t.Errorf("resubmitted cell %d not served from cache/store", i)
		}
		if !bytes.Equal(again[i].Result, events[i].Result) {
			t.Errorf("resubmitted cell %d bytes differ", i)
		}
	}
}

// TestFleetWorkerDeadBeforeCampaign: with every cell preferring worker
// 0 and worker 0 down, the first attempt marks it dead and every cell
// requeues onto worker 1 — the campaign completes with no failed cells
// and no duplicate executions.
func TestFleetWorkerDeadBeforeCampaign(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 2, store.NewMem(), nil)
	forceRing(f.co)
	f.killWorker(0)

	events, err := f.client.RunCampaign(context.Background(), sixCellGrid())
	if err != nil {
		t.Fatal(err)
	}
	assertAllDone(t, events)
	coordMetrics(t, f,
		"coordinator_cells_total 6",
		"coordinator_cells_failed_total 0",
		"coordinator_worker_deaths_total 1",
		"coordinator_workers_alive 1",
	)

	// No duplicated cells: the surviving worker ran each unique cell
	// exactly once.
	wm, err := serviceclient.New(f.workerTS[1].URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wm, "mosaicd_runs_completed_total 6") {
		t.Errorf("survivor should have completed exactly 6 runs:\n%s", wm)
	}

	// The fleet degrades, it does not die: /healthz still reports ok.
	resp, err := http.Get(f.coTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with one survivor: HTTP %d", resp.StatusCode)
	}
}

// TestFleetWorkerKilledMidCampaign is the node-kill chaos contract:
// worker 0 is killed while its cells are in flight, and the campaign
// still delivers exactly one terminal done event per cell — nothing
// lost, nothing duplicated, the survivors absorb the requeues.
func TestFleetWorkerKilledMidCampaign(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 2, store.NewMem(), nil)
	forceRing(f.co) // every cell prefers worker 0: the kill must strand work

	grid := sixCellGrid()
	grid.Values = []int{16, 64, 256, 1024} // 8 cells: enough to be mid-flight at the kill
	st, err := f.client.SubmitCampaign(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 8 {
		t.Fatalf("%d cells planned, want 8", st.Cells)
	}

	seen := make(map[int]int)
	killed := false
	err = f.client.StreamCampaign(context.Background(), st.ID, func(ev server.CellEvent) error {
		seen[ev.Index]++
		if !killed && len(seen) >= 2 {
			killed = true
			f.killWorker(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	final, err := f.client.CampaignStatus(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.CampaignDone || final.Done != 8 || final.Failed != 0 || final.Canceled != 0 {
		t.Fatalf("campaign after node kill: %+v", final)
	}
	if len(seen) != 8 {
		t.Fatalf("stream delivered %d distinct cells, want 8", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("cell %d emitted %d events, want exactly 1", idx, n)
		}
	}
}

// TestFleetAllWorkersDown: with no worker reachable, a campaign still
// terminates — every cell fails with a transport error instead of
// hanging — and /healthz reports the outage.
func TestFleetAllWorkersDown(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 1, store.NewMem(), nil)
	f.killWorker(0)

	events, err := f.client.RunCampaign(context.Background(), server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}, Seed: 7},
		Policies: []string{"gpummu", "mosaic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if ev.State != server.JobFailed || ev.Error == "" {
			t.Errorf("cell %d with fleet down: state %s error %q", i, ev.State, ev.Error)
		}
	}
	coordMetrics(t, f, "coordinator_cells_failed_total 2", "coordinator_workers_alive 0")

	resp, err := http.Get(f.coTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with all workers down: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestFleetCancel: canceling a campaign whose cells are wedged on a
// blocked worker emits canceled events for every unfinished cell and
// turns the campaign terminal.
func TestFleetCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	gate := make(chan struct{})
	reg := faults.New()
	reg.Arm(server.PointExecBegin, faults.Trigger{Block: gate})
	f := startFleet(t, 1, store.NewMem(), reg)
	t.Cleanup(func() { close(gate) }) // let the worker's sims finish so shutdown drains

	st, err := f.client.SubmitCampaign(context.Background(), server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}, Seed: 7},
		Policies: []string{"gpummu", "mosaic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.CancelCampaign(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cst, err := f.client.CampaignStatus(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cst.State.Terminal() {
			if cst.State != server.CampaignCanceled || cst.Canceled != 2 {
				t.Fatalf("canceled campaign status: %+v", cst)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never went terminal after cancel: %+v", cst)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetCampaignDeprecatedShards: a campaign whose Base still carries
// the deprecated Shards field decodes at the coordinator and its
// workers, and its cell is the same result as the campaign without it.
func TestFleetCampaignDeprecatedShards(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 1, store.NewMem(), nil)

	grid := server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}, Seed: 7, Shards: 4},
		Policies: []string{"mosaic"},
	}
	withShards, err := f.client.RunCampaign(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	assertAllDone(t, withShards)

	grid.Base.Shards = 0
	plain, err := f.client.RunCampaign(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	assertAllDone(t, plain)
	if !plain[0].Cached || !bytes.Equal(plain[0].Result, withShards[0].Result) {
		t.Errorf("campaign without Shards: cached=%v, identical bytes=%v; want a cache hit on the same result",
			plain[0].Cached, bytes.Equal(plain[0].Result, withShards[0].Result))
	}
}

// TestCoordinatorAPIErrors pins the coordinator's error surface: plan
// validation 400s, unknown campaigns 404, and single-run endpoints
// explicitly unimplemented.
func TestCoordinatorAPIErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := startFleet(t, 1, store.NewMem(), nil)

	_, err := f.client.SubmitCampaign(context.Background(), server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"vax"},
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("unknown policy: %v, want HTTP 400", err)
	}
	_, err = f.client.SubmitCampaign(context.Background(), server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"ideal"},
		Dim:      "l1base",
		Values:   make([]int, 4097),
	})
	if err == nil || !strings.Contains(err.Error(), "campaign bound") {
		t.Errorf("4097-cell campaign: %v, want the cell-bound 400", err)
	}

	if _, err := f.client.CampaignStatus(context.Background(), "c999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown campaign: %v, want 404", err)
	}

	for _, path := range []string{"/v1/runs", "/v1/runs/r000001"} {
		resp, err := http.Post(f.coTS.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("POST %s: HTTP %d, want 501", path, resp.StatusCode)
		}
	}

	if _, err := New(Options{}); err == nil {
		t.Error("coordinator with no workers must refuse to start")
	}
}
