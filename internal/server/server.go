// Package server implements mosaicd, a long-running HTTP simulation
// service over the deterministic simulator: submissions enter a bounded
// job queue (429 on overflow), a fixed worker pool executes them via the
// same harness.Runner that powers the CLI's -jobs mode, and results are
// cached under their (workload, policy, ConfigDigest) identity so
// identical submissions run once and serve byte-identical reports.
//
// The HTTP API (docs/SERVICE.md):
//
//	POST /v1/runs             submit a RunRequest → JobStatus (or, with
//	                          Prefer: return=representation, the report
//	                          of a job already done)
//	GET  /v1/runs/{id}        job lifecycle status
//	GET  /v1/runs/{id}/result schema-versioned Report JSON of a done job
//	POST /v1/runs/{id}/cancel cancel a queued or running job
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             text-format service counters
//
// Failure semantics: a simulation error, panic, per-job deadline, or
// cancellation marks the job failed/canceled without taking a worker
// down, and evicts the job from the result cache so an identical
// resubmission runs fresh — the cache never serves output from a run
// that did not complete. Every seam is instrumented with
// internal/faults injection points (see the Point* constants) so the
// chaos suite, and operators via mosaicd -fault, can force these paths
// deterministically.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Fault-injection points threaded through the service (package faults;
// inert unless Options.Faults arms them).
const (
	// PointSubmit fires on every accepted-path submission; a failure
	// trigger turns it into a 429, modeling queue pressure.
	PointSubmit = "server.submit"
	// PointExecBegin fires on a worker as a job turns running, before
	// the simulation starts; block/delay triggers hold the worker,
	// panic exercises the recovery path, failure fails the job.
	PointExecBegin = "server.exec.begin"
	// PointResult passes the serialized report through CorruptBytes
	// just before it is stored, modeling result corruption.
	PointResult = "server.result"
)

// Options configures a Server.
type Options struct {
	// Workers is the number of simulations run concurrently
	// (0 = GOMAXPROCS).
	Workers int
	// QueueSize bounds how many accepted jobs may wait for a worker
	// (0 = 64). Submissions beyond queue + workers are rejected with
	// HTTP 429.
	QueueSize int
	// Generator is stamped into served reports (empty = "mosaicd").
	Generator string
	// BaseConfig supplies the configuration a request starts from
	// before its Scale/NoPaging mutations (nil = config.Eval, matching
	// mosaic-sim's local mode).
	BaseConfig func() config.Config
	// DefaultTimeout bounds jobs whose request carries no TimeoutMS
	// (0 = unbounded). The clock starts at acceptance, so queue wait
	// counts against it.
	DefaultTimeout time.Duration
	// Faults is the fault-injection registry for chaos testing and
	// mosaicd -fault; nil (the default) leaves every injection point
	// inert at zero cost.
	Faults *faults.Registry
	// Store is the persistent result tier under the in-memory cache:
	// completed runs are written through to it and submissions that miss
	// the cache are answered from it without simulating. nil (the
	// default) uses a process-local in-memory store; point multiple
	// daemons at one store.NewDisk root to share results (mosaicd
	// -store).
	Store store.ResultStore
	// CacheEntries bounds the in-memory hot tier of completed results
	// (mosaicd -cache-entries): beyond it the least-recently-served
	// done job is evicted — its bytes drop and later fetches fall
	// through to the store. 0 (the default) leaves the cache unbounded,
	// exactly the pre-flag behavior.
	CacheEntries int
}

// Server is one mosaicd instance. Create with New, expose Handler over
// HTTP, and stop with Shutdown.
type Server struct {
	opt    Options
	mux    *http.ServeMux
	runner *harness.Runner
	queue  chan *job
	faults *faults.Registry

	// runSim executes one simulation; tests stub it to control timing
	// and honor ctx. The real simulator ignores ctx (a run is finite);
	// execute still enforces deadlines by abandoning the result.
	runSim func(context.Context, config.Config, workload.Workload, sim.Options) (sim.Results, error)

	// store is the persistent tier; cacheCap bounds the done-job hot
	// tier tracked by lru (least-recently-served at the back).
	store    store.ResultStore
	cacheCap int

	mu          sync.Mutex
	draining    bool
	jobs        map[string]*job
	cache       map[store.Key]*job
	lru         *list.List // of *job; done jobs only
	seq         uint64
	campaigns   map[string]*campaign
	campaignSeq uint64

	drained chan struct{} // closed once the queue is drained and workers stopped

	workers           int
	busyWorkers       atomic.Int64
	accepted          atomic.Uint64
	rejected          atomic.Uint64
	runsCompleted     atomic.Uint64
	runsFailed        atomic.Uint64
	runsCanceled      atomic.Uint64
	cacheHits         atomic.Uint64
	cacheMisses       atomic.Uint64
	cacheEvictions    atomic.Uint64
	cacheLRUEvictions atomic.Uint64
	storeServes       atomic.Uint64
	resultsInline     atomic.Uint64
	storePutErrors    atomic.Uint64

	campaignsTotal      atomic.Uint64
	campaignsActive     atomic.Int64
	campaignCells       atomic.Uint64
	campaignCellsCached atomic.Uint64
	campaignCellsFailed atomic.Uint64
}

// New starts a Server: its worker pool runs until Shutdown.
func New(opt Options) *Server {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueSize <= 0 {
		opt.QueueSize = 64
	}
	if opt.Generator == "" {
		opt.Generator = "mosaicd"
	}
	if opt.BaseConfig == nil {
		opt.BaseConfig = config.Eval
	}
	if opt.Store == nil {
		opt.Store = store.NewMem()
	}
	s := &Server{
		opt:       opt,
		mux:       http.NewServeMux(),
		runner:    harness.NewRunner(opt.Workers),
		queue:     make(chan *job, opt.QueueSize),
		faults:    opt.Faults,
		store:     opt.Store,
		cacheCap:  opt.CacheEntries,
		jobs:      make(map[string]*job),
		cache:     make(map[store.Key]*job),
		lru:       list.New(),
		campaigns: make(map[string]*campaign),
		drained:   make(chan struct{}),
		workers:   opt.Workers,
		runSim: func(_ context.Context, cfg config.Config, wl workload.Workload, so sim.Options) (sim.Results, error) {
			sm, err := sim.New(cfg, wl, so)
			if err != nil {
				return sim.Results{}, err
			}
			return sm.Run()
		},
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleCampaignStream)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCampaignCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	// The dispatcher feeds queued jobs to the worker pool; Runner's
	// context-aware hand-off blocks while every worker is busy — exactly
	// the backpressure that keeps the bounded queue meaningful — but
	// abandons a job whose deadline or cancellation lands first, so a
	// dead job never ties up a worker slot.
	go func() {
		for j := range s.queue {
			j := j
			if err := s.runner.SubmitCtx(j.ctx, func(context.Context) { s.execute(j) }); err != nil {
				s.finishAborted(j)
			}
		}
		s.runner.Wait()
		s.runner.Close()
		close(s.drained)
	}()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: new submissions are rejected immediately,
// queued and running jobs finish, then the worker pool stops. It
// returns early with ctx's error if the context expires first (the
// drain itself keeps going — abandoning simulations would leave
// accepted jobs unfinished).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // no sends can follow: submissions check draining under mu
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	p, err := Resolve(s.opt.BaseConfig, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := newJob(p)
	if err := s.faults.Fire(PointSubmit); err != nil {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Sprintf("injected queue pressure: %v", err))
		return
	}
	got, src, err := s.answer(j)
	if got == nil && err == nil {
		got, src, err = s.enqueue(j)
	}
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errQueueFull):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case src == srcSim:
		writeJSON(w, http.StatusAccepted, got.status(false))
	default:
		if prefersInline(r.Header) {
			if result := got.doneResult(); result != nil {
				s.resultsInline.Add(1)
				w.Header().Set("Location", "/v1/runs/"+got.id)
				w.Header().Set("Preference-Applied", PreferInline)
				writeReport(w, result)
				return
			}
		}
		writeJSON(w, http.StatusOK, got.status(true))
	}
}

// prefersInline reports whether a request's Prefer headers (RFC 7240:
// comma-separated preferences, each optionally followed by
// ;-parameters) ask for return=representation.
func prefersInline(h http.Header) bool {
	for _, v := range h.Values("Prefer") {
		for _, pref := range strings.Split(v, ",") {
			pref, _, _ = strings.Cut(pref, ";")
			name, val, _ := strings.Cut(pref, "=")
			if strings.EqualFold(strings.TrimSpace(name), "return") &&
				strings.EqualFold(strings.Trim(strings.TrimSpace(val), `"`), "representation") {
				return true
			}
		}
	}
	return false
}

// The two refusals of admission: a draining server accepts nothing,
// and a full queue takes no new simulation.
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("job queue full, retry later")
)

// answer resolves j's key without simulating. HTTP submissions and
// campaign cells both admit through it, then through enqueue. It
// returns the key's cached job, or j itself finished from the
// persistent store and registered as the key's cached job; a nil job
// when neither tier has the key; errDraining once shutdown began.
func (s *Server) answer(j *job) (*job, cellSource, error) {
	s.mu.Lock()
	existing, err := s.hit(j)
	s.mu.Unlock()
	if existing != nil || err != nil {
		return existing, srcCache, err
	}
	// The store lookup (possibly disk IO) runs outside s.mu, so the
	// cache is rechecked after — an identical racer may have won.
	result := s.tryStore(j)
	if result == nil {
		return nil, srcSim, nil
	}
	j.finish(JobDone, "", result)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, err := s.hit(j); existing != nil || err != nil {
		return existing, srcCache, err
	}
	s.register(j)
	j.lruElem = s.lru.PushFront(j)
	s.trimLRU()
	s.storeServes.Add(1)
	return j, srcStore, nil
}

// enqueue makes one attempt to queue j for simulation: it arms j's
// deadline and, given a free queue slot, registers j as its key's job.
// A job cached for the key since answer is returned instead. A full
// queue or a draining server refuses with errQueueFull or errDraining.
// Every exit that does not enqueue j leaves its deadline released, so
// a caller may retry with the same j.
func (s *Server) enqueue(j *job) (*job, cellSource, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, err := s.hit(j); existing != nil || err != nil {
		return existing, srcCache, err
	}
	j.start(s.opt.DefaultTimeout) // before enqueue: the dispatcher reads j.ctx
	select {
	case s.queue <- j:
	default:
		j.cancel()
		return nil, srcSim, errQueueFull
	}
	s.register(j)
	s.cacheMisses.Add(1)
	s.accepted.Add(1)
	return j, srcSim, nil
}

// hit is the check every admission step makes first: errDraining once
// shutdown began, else the key's cached job (a counted cache hit), else
// nil. Caller holds s.mu.
func (s *Server) hit(j *job) (*job, error) {
	if s.draining {
		return nil, errDraining
	}
	existing, ok := s.cache[j.Key]
	if !ok {
		return nil, nil
	}
	s.touch(existing)
	s.cacheHits.Add(1)
	return existing, nil
}

// register assigns j the next job ID and makes it its key's cached
// job. Caller holds s.mu.
func (s *Server) register(j *job) {
	s.seq++
	j.id = fmt.Sprintf("r%06d", s.seq)
	s.jobs[j.id] = j
	s.cache[j.Key] = j
}

// touch marks a cached job as recently served. Caller holds s.mu.
func (s *Server) touch(j *job) {
	if j.lruElem != nil {
		s.lru.MoveToFront(j.lruElem)
	}
}

// noteDone registers a freshly completed job in the LRU hot tier (if it
// is still its key's cache entry) and enforces the cache bound.
func (s *Server) noteDone(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache[j.Key] != j || j.lruElem != nil {
		return
	}
	j.lruElem = s.lru.PushFront(j)
	s.trimLRU()
}

// trimLRU evicts least-recently-served done jobs beyond the cache
// bound: the cache entry goes away (an identical resubmission builds a
// fresh job, served from the store) and the job's result bytes are
// dropped (a later fetch by ID falls through to the store). Caller
// holds s.mu.
func (s *Server) trimLRU() {
	if s.cacheCap <= 0 {
		return
	}
	for s.lru.Len() > s.cacheCap {
		e := s.lru.Back()
		old := s.lru.Remove(e).(*job)
		old.lruElem = nil
		if s.cache[old.Key] == old {
			delete(s.cache, old.Key)
		}
		old.dropResult()
		s.cacheLRUEvictions.Add(1)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	switch state {
	case JobDone:
		if result == nil {
			// The hot tier dropped this job's bytes (LRU bound); refetch
			// from the persistent store, which outlives the cache entry.
			if result = s.tryStore(j); result == nil {
				writeError(w, http.StatusGone, "result evicted from cache and not in store")
				return
			}
		}
		writeReport(w, result)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, errMsg)
	case JobCanceled:
		writeError(w, http.StatusGone, errMsg)
	default:
		// Not terminal yet: report the lifecycle state so pollers can
		// distinguish "be patient" from "gone".
		writeJSON(w, http.StatusAccepted, j.status(false))
	}
}

// handleCancel cancels a queued or running job: its context is ended,
// the job transitions to canceled (queued jobs immediately; running
// jobs as soon as execute observes the context), and the cache entry is
// evicted so a resubmission runs fresh. Canceling a terminal job is a
// no-op that reports the terminal state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	if j.requestCancel("canceled by request") {
		// requestCancel terminated the job itself (it was still queued);
		// running jobs are counted and evicted by their executor when it
		// observes the canceled context.
		s.runsCanceled.Add(1)
		s.evict(j)
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// evict removes j from the result cache (if it is still the entry for
// its key — a fresh retry may have replaced it), so identical
// resubmissions build a new job instead of inheriting a failed one.
func (s *Server) evict(j *job) {
	s.mu.Lock()
	if s.cache[j.Key] == j {
		delete(s.cache, j.Key)
		s.cacheEvictions.Add(1)
	}
	if j.lruElem != nil {
		s.lru.Remove(j.lruElem)
		j.lruElem = nil
	}
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeReport serves a done job's serialized report verbatim.
func writeReport(w http.ResponseWriter, result []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(result)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}
