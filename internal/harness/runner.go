package harness

import (
	"context"
	"runtime"
	"sync"
)

// Runner is a fixed-size worker pool for executing independent simulation
// jobs concurrently. Each submitted job runs on one of the pool's
// goroutines; Submit applies backpressure once every worker is busy.
//
// Jobs must be independent of each other: the determinism guarantee of
// the harness rests on every job writing only into its own pre-assigned
// result slot, with all cross-job arithmetic done after Wait returns.
type Runner struct {
	jobs   chan func()
	donewg sync.WaitGroup // worker goroutines
	flight sync.WaitGroup // submitted but unfinished jobs

	mu     sync.Mutex
	pv     any // first captured job panic
	closed bool
}

// NewRunner starts a pool of the given number of workers; workers <= 0
// means GOMAXPROCS. Close must be called to release the goroutines.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{jobs: make(chan func())}
	r.donewg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer r.donewg.Done()
			for fn := range r.jobs {
				fn()
			}
		}()
	}
	return r
}

// Submit queues fn for execution, blocking while every worker is busy.
// A panic inside fn is captured and re-raised by the next Wait, matching
// the panic-on-error contract of the harness figures.
//
// Submit must not be called after Close: the Runner's lifecycle is
// Submit* → Wait → Close (Wait may interleave with further Submit
// batches, Close is final). Violating the contract panics with a
// harness-prefixed message.
func (r *Runner) Submit(fn func()) {
	r.jobs <- r.enter(fn)
}

// SubmitCtx is Submit with a context governing both the hand-off and
// the job: while every worker is busy it blocks like Submit, but if ctx
// ends before a worker frees up the job is abandoned unrun and ctx's
// error returned — a dead job never occupies a worker slot. Once a
// worker picks the job up, fn receives ctx for cooperative per-job
// cancellation; SubmitCtx itself has already returned nil by then.
func (r *Runner) SubmitCtx(ctx context.Context, fn func(context.Context)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	wrapped := r.enter(func() { fn(ctx) })
	select {
	case r.jobs <- wrapped:
		return nil
	case <-ctx.Done():
		r.flight.Done()
		return ctx.Err()
	}
}

// enter registers one in-flight job and wraps fn with the pool's
// panic-capture bookkeeping. The caller must hand the wrapper to a
// worker, or call flight.Done itself when abandoning the job.
func (r *Runner) enter(fn func()) func() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		panic("harness: Runner.Submit called after Close (lifecycle is Submit* → Wait → Close)")
	}
	r.flight.Add(1)
	r.mu.Unlock()
	return func() {
		defer r.flight.Done()
		defer func() {
			if p := recover(); p != nil {
				r.mu.Lock()
				if r.pv == nil {
					r.pv = p
				}
				r.mu.Unlock()
			}
		}()
		fn()
	}
}

// Wait blocks until every submitted job has finished. If any job
// panicked, Wait re-panics with the first captured value. The Runner
// stays usable for further batches.
func (r *Runner) Wait() {
	r.flight.Wait()
	r.mu.Lock()
	p := r.pv
	r.pv = nil
	r.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// Close drains in-flight jobs and stops the workers. It does not
// re-raise captured panics (call Wait first — the Wait-before-Close
// contract); a closed Runner must not be reused, and any later Submit
// panics.
func (r *Runner) Close() {
	r.flight.Wait()
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.jobs)
	}
	r.mu.Unlock()
	r.donewg.Wait()
}
