package server

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// job is one accepted simulation: the validated request, the resolved
// setup, and the mutable lifecycle state. A job is also the cache entry
// for its (workload, policy, digest) key — identical submissions share
// one job, so the simulation runs once and every fetch serves the same
// serialized bytes. A job that fails, times out, or is canceled is
// evicted from the cache, so only completed runs are ever served.
type job struct {
	id     string
	req    RunRequest
	key    string
	digest string
	policy core.Policy
	cfg    config.Config
	wl     workload.Workload
	simOpt sim.Options

	// ctx bounds the job's whole life (queue wait + run) and cancel
	// ends it early; both are set by start at acceptance time. Jobs
	// answered from the persistent store are born done and never start.
	ctx    context.Context
	cancel context.CancelFunc

	// lruElem is the job's node in the server's done-job LRU, nil while
	// the job is not cached as done. Guarded by Server.mu, not job.mu.
	lruElem *list.Element

	mu     sync.Mutex
	state  JobState
	errMsg string
	result []byte // serialized Report, set when state == JobDone
	done   chan struct{}
}

// ParsePolicy maps a wire policy name (the mosaic-sim -policy values) to
// the memory manager it selects, resolving against the core policy
// registry so third-party registered policies are accepted too. Empty
// selects Mosaic. Unknown names return an error wrapping
// core.ErrUnknownPolicy.
func ParsePolicy(name string) (core.Policy, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return core.Mosaic, nil
	}
	return core.ParsePolicy(name)
}

// buildJob resolves a request against the server's base configuration;
// see the free buildJob for the semantics.
func (s *Server) buildJob(req RunRequest) (*job, error) {
	return buildJob(s.opt.BaseConfig, req)
}

// buildJob validates a request and resolves it into a ready-to-run job:
// configuration, workload, simulation options, and the digest-based
// cache key. The returned job is not yet registered or enqueued. It is
// a free function over the base configuration so campaign planning can
// digest cells without a server.
func buildJob(base func() config.Config, req RunRequest) (*job, error) {
	if len(req.Apps) == 0 {
		return nil, fmt.Errorf("apps required (see mosaic-sim -list for the suite)")
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeoutMS must be non-negative")
	}
	specs := make([]workload.Spec, 0, len(req.Apps))
	names := make([]string, 0, len(req.Apps))
	for _, name := range req.Apps {
		spec, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		names = append(names, spec.Name)
	}
	wl := workload.Workload{Name: strings.Join(names, ","), Apps: specs}

	policy, err := ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	if bad := func(v float64) bool { return v < 0 || v > 1 }; bad(req.FragIndex) ||
		bad(req.FragOccupancy) || bad(req.DeallocFraction) {
		return nil, fmt.Errorf("fragIndex, fragOccupancy, and deallocFraction must be in [0, 1]")
	}

	cfg := base()
	if req.Scale > 0 {
		cfg.WorkloadScale = req.Scale
	}
	if req.NoPaging {
		cfg.IOBusEnabled = false
	}
	if req.Oversub < 0 {
		return nil, fmt.Errorf("oversub must be non-negative")
	}
	if req.Oversub > 0 {
		// Resolved against the scaled workload here so the budget lands in
		// the config digest — oversubscribed and unbounded runs of the same
		// workload never share a cache entry.
		cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, req.Oversub)
	}
	if req.Dim != "" {
		// A sweep cell: the registered dimension mutation plus the TLB-way
		// clamp, applied exactly as mosaic-sweep's cellCfg applies them so
		// the digest matches a local sweep of the same grid.
		d, err := harness.SweepDimByName(req.Dim)
		if err != nil {
			return nil, err
		}
		harness.ApplySweepDim(&cfg, wl, d, req.DimValue)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(wl.Apps) > cfg.NumSMs {
		return nil, fmt.Errorf("%d apps exceed %d SMs", len(wl.Apps), cfg.NumSMs)
	}

	// Shards is deprecated and otherwise ignored, but it is still
	// outside input: reject what was always rejected.
	if req.Shards < 0 {
		return nil, fmt.Errorf("shards must be non-negative")
	}
	simOpt := sim.Options{
		Policy:          policy,
		Seed:            req.Seed,
		FragIndex:       req.FragIndex,
		FragOccupancy:   req.FragOccupancy,
		DeallocFraction: req.DeallocFraction,
		SnapshotWarmup:  req.SnapshotWarmupCycles,
	}
	digest := sim.Digest(cfg, simOpt)
	return &job{
		req:    req,
		key:    wl.Name + "\x00" + policy.String() + "\x00" + digest,
		digest: digest,
		policy: policy,
		cfg:    cfg,
		wl:     wl,
		simOpt: simOpt,
		state:  JobQueued,
		done:   make(chan struct{}),
	}, nil
}

// start arms the job's lifetime context at acceptance: the request's
// TimeoutMS when set, otherwise the server default (0 = unbounded).
// TimeoutMS is not part of the cache key — it bounds this job's
// execution, not the simulation's identity.
func (j *job) start(defaultTimeout time.Duration) {
	timeout := defaultTimeout
	if j.req.TimeoutMS > 0 {
		timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
}

// status snapshots the job for a wire response.
func (j *job) status(cached bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:           j.id,
		State:        j.state,
		Workload:     j.wl.Name,
		Policy:       j.policy.String(),
		ConfigDigest: j.digest,
		Cached:       cached,
		Error:        j.errMsg,
	}
}

// trySetRunning moves queued → running; it refuses (and reports false)
// once the job is terminal, so a cancel that landed while the job sat
// in the queue keeps it from ever running.
func (j *job) trySetRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	return true
}

// finish moves the job to a terminal state exactly once; later calls
// (e.g. a cancel racing a completion) are no-ops. It releases the job's
// context resources and wakes done-waiters.
func (j *job) finish(state JobState, errMsg string, result []byte) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
	return true
}

// dropResult releases a done job's serialized report (LRU eviction);
// the job stays addressable and fetches fall through to the store.
func (j *job) dropResult() {
	j.mu.Lock()
	j.result = nil
	j.mu.Unlock()
}

// requestCancel ends the job early. A queued job transitions to
// canceled immediately; a running job has its context canceled and
// transitions (with its eviction and counting) when execute observes
// it. Reports whether requestCancel itself terminated the job — the
// caller then owns the eviction and the canceled count.
func (j *job) requestCancel(reason string) bool {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state.Terminal() {
		return false
	}
	if state == JobQueued && j.finish(JobCanceled, reason, nil) {
		return true
	}
	// Running (or it turned terminal since the peek): canceling the
	// context is a no-op on finished jobs and aborts running ones.
	if j.cancel != nil {
		j.cancel()
	}
	return false
}

// finishAborted finalizes a job whose context ended before a worker
// picked it up (deadline or cancel while queued): canceled jobs keep
// the cancel reason, deadline expiries read as timeouts.
func (s *Server) finishAborted(j *job) {
	if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
		if j.finish(JobFailed, "job deadline exceeded while queued", nil) {
			s.runsFailed.Add(1)
			s.evict(j)
		}
		return
	}
	if j.finish(JobCanceled, "canceled while queued", nil) {
		s.runsCanceled.Add(1)
		s.evict(j)
	}
}

// execute runs the job's simulation on a worker and serializes its
// report. The simulation proper runs on a helper goroutine so the
// worker can abandon it when the job's deadline or cancellation lands
// first — the worker slot is released immediately; the abandoned run
// (always finite) finishes into a discarded buffer. Panics (the
// simulator's internal-error convention) fail the job instead of
// killing the worker, and any non-done outcome evicts the job's cache
// entry.
func (s *Server) execute(j *job) {
	s.busyWorkers.Add(1)
	defer s.busyWorkers.Add(-1)
	// A panic on the worker itself (an injection point, report
	// serialization) fails this job only — never the pool: an
	// unrecovered panic here would be captured by the Runner and
	// re-raised into the dispatcher's drain Wait, taking the daemon down.
	defer func() {
		if p := recover(); p != nil {
			s.finishExecFailure(j, fmt.Errorf("worker panic: %v", p))
		}
	}()
	if !j.trySetRunning() {
		// Canceled while queued (or racing with it): nothing to run.
		return
	}
	if err := j.ctx.Err(); err != nil {
		s.finishExecFailure(j, err)
		return
	}
	if err := s.faults.FireCtx(j.ctx, PointExecBegin); err != nil {
		s.finishExecFailure(j, err)
		return
	}

	type outcome struct {
		res sim.Results
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("simulation panic: %v", p)}
			}
		}()
		res, err := s.runSim(j.ctx, j.cfg, j.wl, j.simOpt)
		ch <- outcome{res, err}
	}()

	var o outcome
	select {
	case o = <-ch:
	case <-j.ctx.Done():
		s.finishExecFailure(j, j.ctx.Err())
		return
	}
	if o.err != nil {
		s.finishExecFailure(j, o.err)
		return
	}

	rec := metrics.NewRunRecord(o.res)
	rep := metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     s.opt.Generator,
		Seed:          j.simOpt.Seed,
		Apps:          strings.Split(j.wl.Name, ","),
		Figures: []metrics.Figure{{
			ID:    "run",
			Title: j.policy.String() + " on " + j.wl.Name,
			Runs:  []metrics.RunRecord{rec},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		s.finishExecFailure(j, err)
		return
	}
	// Write through to the persistent store before the job turns done:
	// any result a client has observed is durably stored (the PointResult
	// fault corrupts only the served bytes, never the stored record).
	s.putStore(j, rec)
	result := s.faults.CorruptBytes(PointResult, buf.Bytes())
	if j.finish(JobDone, "", result) {
		s.runsCompleted.Add(1)
		s.noteDone(j)
	}
}

// finishExecFailure maps an execution error onto the job's terminal
// state — context.Canceled reads as a cancellation, everything else
// (simulation errors, panics, deadline expiry) as a failure — bumps the
// matching counter, and evicts the poisoned cache entry.
func (s *Server) finishExecFailure(j *job, err error) {
	if errors.Is(err, context.Canceled) {
		if j.finish(JobCanceled, "canceled while running", nil) {
			s.runsCanceled.Add(1)
			s.evict(j)
		}
		return
	}
	msg := err.Error()
	if errors.Is(err, context.DeadlineExceeded) {
		msg = "job deadline exceeded"
	}
	if j.finish(JobFailed, msg, nil) {
		s.runsFailed.Add(1)
		s.evict(j)
	}
}
