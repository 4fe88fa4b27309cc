package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// job is one accepted simulation: the resolved plan plus the mutable
// lifecycle state. A job is also the cache entry for its plan's Key —
// identical submissions share one job, so the simulation runs once and
// every fetch serves the same serialized bytes. A job that fails, times
// out, or is canceled is evicted from the cache, so only completed runs
// are ever served.
type job struct {
	// Key is the plan's result identity and seed the seed its report is
	// stamped with: all a terminal job keeps of its plan. The server
	// keeps every job addressable by ID for its whole life.
	Key  store.Key
	seed int64
	id   string

	// ctx bounds the job's whole life (queue wait + run) and cancel
	// ends it early; both are set by start at acceptance time. Jobs
	// answered from the persistent store are born done and never start.
	ctx    context.Context
	cancel context.CancelFunc

	// lruElem is the job's node in the server's done-job LRU, nil while
	// the job is not cached as done. Guarded by Server.mu, not job.mu.
	lruElem *list.Element

	mu sync.Mutex
	// plan is what the job simulates, released by finish. start reads
	// it before the job is registered; execute gets it from
	// trySetRunning.
	plan   *Plan
	state  JobState
	errMsg string
	result []byte // serialized Report, set when state == JobDone
	done   chan struct{}
}

// newJob wraps a resolved plan as a queued job, not yet registered or
// enqueued.
func newJob(p Plan) *job {
	return &job{Key: p.Key, seed: p.Options.Seed, plan: &p, state: JobQueued, done: make(chan struct{})}
}

// start arms the job's lifetime context at acceptance: the request's
// TimeoutMS when set, otherwise the server default (0 = unbounded).
// TimeoutMS is not part of the cache key — it bounds this job's
// execution, not the simulation's identity.
func (j *job) start(defaultTimeout time.Duration) {
	timeout := defaultTimeout
	if ms := j.plan.Req.TimeoutMS; ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
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
		Workload:     j.Key.Workload,
		Policy:       j.Key.Policy,
		ConfigDigest: j.Key.ConfigDigest,
		Cached:       cached,
		Error:        j.errMsg,
	}
}

// trySetRunning moves queued → running and returns the plan to run; it
// refuses (and returns nil) once the job is terminal, so a cancel that
// landed while the job sat in the queue keeps it from ever running.
func (j *job) trySetRunning() *Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return nil
	}
	j.state = JobRunning
	return j.plan
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
	j.plan = nil
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
	return true
}

// doneResult returns the serialized report of a done job whose bytes
// are still held, else nil.
func (j *job) doneResult() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.result
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
	p := j.trySetRunning()
	if p == nil {
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
		res, err := s.runSim(j.ctx, p.Config, p.Workload, p.Options)
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
	served, err := s.envelope(j, rec)
	if err != nil {
		s.finishExecFailure(j, err)
		return
	}
	// Write through to the persistent store before the job turns done:
	// any result a client has observed is durably stored (the PointResult
	// fault corrupts only the served bytes, never the stored record).
	s.putStore(j, rec)
	result := s.faults.CorruptBytes(PointResult, served)
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
