// Package coordinator turns a fleet of mosaicd workers into one
// campaign endpoint. It serves the same campaign API as a single
// mosaicd (plan, stream, cancel — mosaic-sweep cannot tell the
// difference), but instead of simulating locally it consistent-hashes
// each cell onto a worker and runs it there over the workers' own HTTP
// API. Worker loss is absorbed by requeueing: a cell whose worker dies
// walks its ring successors until one answers, and because the
// simulator is deterministic and workers share a result store, a
// duplicated execution is harmless — both produce byte-identical
// results under the same store key.
package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/server"
	"repro/internal/serviceclient"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the base URLs of the mosaicd workers cells fan out
	// to, e.g. "http://127.0.0.1:8641". At least one is required.
	Workers []string
	// BaseConfig supplies the configuration campaigns are planned from.
	// It must match the workers' own base configuration — the
	// coordinator plans digests locally and the workers execute the
	// same requests, so a mismatch would fail every cell with digest
	// divergence at result time. Defaults to config.Eval, mosaicd's own
	// default.
	BaseConfig func() config.Config
	// PollInterval spaces the per-cell status polls against workers
	// (default: the client's 200ms).
	PollInterval time.Duration
	// WaitTimeout bounds one cell attempt on one worker; see
	// serviceclient.Client.WaitTimeout. 0 keeps the client default.
	WaitTimeout time.Duration
	// MaxInFlightPerWorker bounds concurrently dispatched cells at
	// len(Workers) * this (default 8): enough to keep every worker's
	// queue fed without thundering the fleet.
	MaxInFlightPerWorker int
	// HTTPClient overrides the transport used for worker calls.
	HTTPClient *http.Client
}

// Coordinator fans campaign cells out across mosaicd workers. Create
// with New; serve Handler().
type Coordinator struct {
	opt     Options
	workers []*worker
	ring    *ring
	mux     *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*server.CampaignLog
	seq       uint64
	draining  bool

	// inflight bounds concurrently dispatched cells fleet-wide.
	inflight chan struct{}

	campaignsTotal  atomic.Uint64
	campaignsActive atomic.Int64
	cellsTotal      atomic.Uint64
	cellsFailed     atomic.Uint64
	cellsCached     atomic.Uint64
	cellRetries     atomic.Uint64
	workerDeaths    atomic.Uint64
	workerRevivals  atomic.Uint64
}

// worker is one mosaicd backend and its liveness mark. dead is advisory
// routing state, not truth: a dead worker is skipped while any
// alternative is alive, retried as a last resort, and re-probed on the
// next campaign submit.
type worker struct {
	url    string
	client *serviceclient.Client
	dead   atomic.Bool
}

// New builds a coordinator over opt.Workers.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Workers) == 0 {
		return nil, errors.New("coordinator: at least one worker required")
	}
	if opt.BaseConfig == nil {
		opt.BaseConfig = config.Eval
	}
	if opt.MaxInFlightPerWorker <= 0 {
		opt.MaxInFlightPerWorker = 8
	}
	co := &Coordinator{
		opt:       opt,
		campaigns: make(map[string]*server.CampaignLog),
		inflight:  make(chan struct{}, opt.MaxInFlightPerWorker*len(opt.Workers)),
	}
	for _, u := range opt.Workers {
		c := serviceclient.New(u)
		c.PollInterval = opt.PollInterval
		c.WaitTimeout = opt.WaitTimeout
		c.HTTPClient = opt.HTTPClient
		co.workers = append(co.workers, &worker{url: c.BaseURL, client: c})
	}
	co.ring = newRing(len(co.workers), func(i int) string { return co.workers[i].url })

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", co.handleHealth)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.HandleFunc("POST /v1/campaigns", co.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", co.handleCampaignStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", co.handleCampaignStream)
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", co.handleCampaignCancel)
	mux.HandleFunc("/v1/runs", co.handleNotProxied)
	mux.HandleFunc("/v1/runs/", co.handleNotProxied)
	co.mux = mux
	return co, nil
}

// Handler returns the coordinator's HTTP surface: the campaign API plus
// /healthz and /metrics. Single-run endpoints are not proxied — clients
// wanting /v1/runs should talk to a worker directly.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Drain stops accepting new campaigns; running ones finish.
func (co *Coordinator) Drain() {
	co.mu.Lock()
	co.draining = true
	co.mu.Unlock()
}

// writeJSON/writeError mirror the worker API's envelope so clients can
// parse coordinator errors identically.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

func (co *Coordinator) handleNotProxied(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotImplemented,
		"coordinator serves the campaign API only; submit POST /v1/campaigns or address a worker directly for single runs")
}

// handleHealth reports ok while any worker is believed alive.
func (co *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	alive := 0
	for _, wk := range co.workers {
		if !wk.dead.Load() {
			alive++
		}
	}
	if alive == 0 {
		writeError(w, http.StatusServiceUnavailable, "all workers down")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Alive   int    `json:"alive"`
	}{"ok", len(co.workers), alive})
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	alive := 0
	for _, wk := range co.workers {
		if !wk.dead.Load() {
			alive++
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "coordinator_workers %d\n", len(co.workers))
	fmt.Fprintf(w, "coordinator_workers_alive %d\n", alive)
	fmt.Fprintf(w, "coordinator_worker_deaths_total %d\n", co.workerDeaths.Load())
	fmt.Fprintf(w, "coordinator_worker_revivals_total %d\n", co.workerRevivals.Load())
	fmt.Fprintf(w, "coordinator_campaigns_total %d\n", co.campaignsTotal.Load())
	fmt.Fprintf(w, "coordinator_campaigns_active %d\n", co.campaignsActive.Load())
	fmt.Fprintf(w, "coordinator_cells_total %d\n", co.cellsTotal.Load())
	fmt.Fprintf(w, "coordinator_cells_cached_total %d\n", co.cellsCached.Load())
	fmt.Fprintf(w, "coordinator_cells_failed_total %d\n", co.cellsFailed.Load())
	fmt.Fprintf(w, "coordinator_cell_retries_total %d\n", co.cellRetries.Load())
}

// probeDead re-checks every dead-marked worker's /healthz in parallel
// and revives responders. Called on campaign submit so a restarted
// worker rejoins the ring without coordinator restarts.
func (co *Coordinator) probeDead() {
	var wg sync.WaitGroup
	for _, wk := range co.workers {
		if !wk.dead.Load() {
			continue
		}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			if wk.client.Health(ctx) == nil {
				wk.dead.Store(false)
				co.workerRevivals.Add(1)
			}
		}(wk)
	}
	wg.Wait()
}

func (co *Coordinator) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if err := server.CheckCampaignBound(req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cells, err := server.PlanCampaign(co.opt.BaseConfig, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	co.probeDead()

	co.mu.Lock()
	if co.draining {
		co.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return
	}
	co.seq++
	log := server.NewCampaignLog(fmt.Sprintf("c%06d", co.seq), len(cells))
	co.campaigns[log.ID()] = log
	co.mu.Unlock()

	co.campaignsTotal.Add(1)
	co.campaignsActive.Add(1)
	co.cellsTotal.Add(uint64(len(cells)))
	go co.runCampaign(log, cells)
	writeJSON(w, http.StatusAccepted, log.Status())
}

// runCampaign dispatches every cell to the fleet, one goroutine per
// cell under the in-flight bound, and finishes the log when all cells
// have their terminal event.
func (co *Coordinator) runCampaign(log *server.CampaignLog, cells []server.PlannedCell) {
	defer co.campaignsActive.Add(-1)
	var wg sync.WaitGroup
	for _, cell := range cells {
		select {
		case co.inflight <- struct{}{}:
		case <-log.Context().Done():
			log.Note(cell.Event(server.JobCanceled), false, false)
			continue
		}
		wg.Add(1)
		go func(cell server.PlannedCell) {
			defer wg.Done()
			defer func() { <-co.inflight }()
			co.runCell(log, cell)
		}(cell)
	}
	wg.Wait()
	if log.Context().Err() != nil {
		log.Finish(server.CampaignCanceled)
		return
	}
	log.Finish(server.CampaignDone)
}

// runCell executes one cell somewhere on the fleet and records exactly
// one terminal event. The cell walks its consistent-hash candidate
// order — alive workers first, dead ones as a last resort — for up to
// two laps; a transport failure marks the worker dead and requeues the
// cell on the next candidate.
func (co *Coordinator) runCell(log *server.CampaignLog, cell server.PlannedCell) {
	cands := co.ring.candidates(cell.Key.Workload + "\x00" + cell.Key.Policy + "\x00" + cell.Key.ConfigDigest)
	var lastErr error
	for lap := 0; lap < 2; lap++ {
		for _, pass := range []bool{true, false} { // alive candidates first, then dead last-resorts
			for _, wi := range cands {
				wk := co.workers[wi]
				if wk.dead.Load() == pass {
					continue
				}
				if log.Context().Err() != nil {
					log.Note(cell.Event(server.JobCanceled), false, false)
					return
				}
				result, cached, err := co.runOnWorker(log.Context(), wk, cell.Req)
				if err == nil {
					ev := cell.Event(server.JobDone)
					ev.Result = json.RawMessage(result)
					ev.Cached = cached
					if cached {
						co.cellsCached.Add(1)
					}
					log.Note(ev, cached, false)
					return
				}
				if log.Context().Err() != nil {
					log.Note(cell.Event(server.JobCanceled), false, false)
					return
				}
				lastErr = err
				if isWorkerLoss(err) && !wk.dead.Swap(true) {
					co.workerDeaths.Add(1)
				}
				co.cellRetries.Add(1)
			}
		}
	}
	ev := cell.Event(server.JobFailed)
	if lastErr != nil {
		ev.Error = lastErr.Error()
	} else {
		ev.Error = "no worker available"
	}
	co.cellsFailed.Add(1)
	log.Note(ev, false, false)
}

// runOnWorker runs one cell attempt end to end on one worker: submit
// (absorbing queue-full with backoff), wait, fetch the result bytes
// verbatim. cached reports whether the worker answered from its cache
// or store rather than simulating fresh.
func (co *Coordinator) runOnWorker(ctx context.Context, wk *worker, req server.RunRequest) (result []byte, cached bool, err error) {
	backoff := 25 * time.Millisecond
	var st server.JobStatus
	for {
		st, err = wk.client.Submit(ctx, req)
		if err == nil {
			break
		}
		if !errors.Is(err, serviceclient.ErrQueueFull) {
			return nil, false, err
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
	if _, err := wk.client.Wait(ctx, st.ID); err != nil {
		return nil, st.Cached, err
	}
	b, err := wk.client.ResultBytes(ctx, st.ID)
	return b, st.Cached, err
}

// isWorkerLoss reports whether err smells like the worker itself is
// gone (connection refused/reset, DNS failure, a dying server's
// draining rejection) rather than a per-cell failure. Only these mark
// the worker dead; a failed simulation on a healthy worker does not.
func isWorkerLoss(err error) bool {
	if errors.Is(err, serviceclient.ErrDraining) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

func (co *Coordinator) lookupCampaign(id string) *server.CampaignLog {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.campaigns[id]
}

func (co *Coordinator) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	log := co.lookupCampaign(r.PathValue("id"))
	if log == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, log.Status())
}

func (co *Coordinator) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	log := co.lookupCampaign(r.PathValue("id"))
	if log == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	log.Cancel()
	writeJSON(w, http.StatusOK, log.Status())
}

func (co *Coordinator) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	log := co.lookupCampaign(r.PathValue("id"))
	if log == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	log.ServeStream(w, r)
}
