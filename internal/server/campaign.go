package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
)

// maxCampaignCells bounds one campaign's grid; larger sweeps should be
// split — a single grid beyond this is almost certainly a client bug.
const maxCampaignCells = 4096

// checkCampaignBound rejects a campaign whose grid exceeds the
// per-campaign cell bound. POST /v1/campaigns applies it before
// planning: the bound guards the service against outside input, so
// local sweeps that plan with PlanCampaign are not subject to it.
func checkCampaignBound(req CampaignRequest) error {
	n := len(req.Policies) * max(len(req.Values), 1)
	if n > maxCampaignCells {
		return fmt.Errorf("%d cells exceed the %d-cell campaign bound; split the sweep", n, maxCampaignCells)
	}
	return nil
}

// PlannedCell is one cell of a campaign grid: its position and its
// resolved plan. Plan.Req is the single-run request that computes the
// cell and Plan.Key its result identity — its cache and store address.
type PlannedCell struct {
	// Index is the cell's grid position (value-major: value index *
	// len(policies) + policy index — the mosaic-sweep cell order).
	Index int
	Plan
}

// Event builds the cell's terminal-event skeleton: identity fields
// filled, Result/Error left for the caller.
func (c PlannedCell) Event(state JobState) CellEvent {
	return CellEvent{
		Index:        c.Index,
		Workload:     c.Key.Workload,
		Policy:       c.Key.Policy,
		ConfigDigest: c.Key.ConfigDigest,
		DimValue:     c.Req.DimValue,
		State:        state,
	}
}

// PlanCampaign expands a campaign into its cell grid, resolving every
// cell with Resolve against the base configuration (nil means
// config.Eval). mosaicd and mosaic-sweep's local mode both plan with
// it, so they agree on the grid, its order and its digests.
func PlanCampaign(base func() config.Config, req CampaignRequest) ([]PlannedCell, error) {
	if len(req.Policies) == 0 {
		return nil, errors.New("policies required")
	}
	if req.Base.Policy != "" {
		return nil, errors.New("base.policy must be empty: the campaign's Policies axis supplies it per cell")
	}
	if req.Base.Dim != "" || req.Base.DimValue != 0 {
		return nil, errors.New("base.dim/dimValue must be empty: the campaign's Dim/Values axis supplies them per cell")
	}
	vals := req.Values
	if req.Dim == "" {
		if len(req.Values) > 0 {
			return nil, errors.New("values without dim")
		}
		vals = []int{0} // one-row grid over the policy axis alone
	} else if len(vals) == 0 {
		return nil, errors.New("dim without values")
	}

	cells := make([]PlannedCell, 0, len(vals)*len(req.Policies))
	for vi, v := range vals {
		for pi, pol := range req.Policies {
			r := req.Base
			r.Policy = pol
			if req.Dim != "" {
				r.Dim, r.DimValue = req.Dim, v
			}
			i := vi*len(req.Policies) + pi
			p, err := Resolve(base, r)
			if err != nil {
				return nil, fmt.Errorf("cell %d (%s=%d, policy %s): %w", i, req.Dim, v, pol, err)
			}
			cells = append(cells, PlannedCell{Index: i, Plan: p})
		}
	}
	return cells, nil
}

// cellSource records how a campaign cell (or an HTTP submission) was
// answered.
type cellSource int

const (
	srcSim   cellSource = iota // enqueued and simulated (or joined a live job)
	srcCache                   // deduplicated onto a cached done job
	srcStore                   // answered from the persistent store
)

// campaign is one accepted sweep grid: its planned cells, its
// cancellation context, lifecycle counters, and the append-only event
// log that NDJSON streams replay from — every event from the start on
// (re)connect, follow-mode until terminal, then a clean close.
type campaign struct {
	id    string
	cells []PlannedCell

	// ctx ends the campaign early; work already in flight is left to
	// finish (it warms caches and stores either way) — cancel stops
	// feeding and unfinished cells are marked canceled by the runner.
	ctx    context.Context
	cancel context.CancelFunc

	mu                   sync.Mutex
	state                CampaignState
	done                 int
	failed               int
	canceled             int
	fromCache, fromStore int

	// events is append-only, one terminal event per cell in completion
	// order; streams replay it from the start, so reconnects never miss
	// a cell. bump is closed and replaced on every append; finished is
	// closed once the state turns terminal.
	events   []CellEvent
	bump     chan struct{}
	finished chan struct{}
}

func newCampaign(id string, cells []PlannedCell) *campaign {
	ctx, cancel := context.WithCancel(context.Background())
	return &campaign{
		id:       id,
		cells:    cells,
		ctx:      ctx,
		cancel:   cancel,
		state:    CampaignRunning,
		bump:     make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// noteCell records a cell's terminal event: counters (with the cell's
// source attribution), the event log, and a wakeup for stream
// followers. Exactly one noteCell per cell is the runner's contract —
// the log does not deduplicate.
func (c *campaign) noteCell(ev CellEvent, src cellSource) {
	c.mu.Lock()
	switch ev.State {
	case JobDone:
		c.done++
	case JobFailed:
		c.failed++
	case JobCanceled:
		c.canceled++
	}
	switch src {
	case srcCache:
		c.fromCache++
	case srcStore:
		c.fromStore++
	}
	c.events = append(c.events, ev)
	close(c.bump)
	c.bump = make(chan struct{})
	c.mu.Unlock()
}

// finish moves the campaign to a terminal state exactly once; later
// calls are no-ops.
func (c *campaign) finish(state CampaignState) {
	c.mu.Lock()
	if !c.state.Terminal() {
		c.state = state
		close(c.finished)
	}
	c.mu.Unlock()
}

// status snapshots the campaign for a wire response.
func (c *campaign) status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CampaignStatus{
		ID:        c.id,
		State:     c.state,
		Cells:     len(c.cells),
		Done:      c.done,
		Failed:    c.failed,
		Canceled:  c.canceled,
		FromCache: c.fromCache,
		FromStore: c.fromStore,
	}
}

// serveStream writes the campaign's NDJSON event stream: every event
// from the campaign's start (replay makes reconnects lossless), then
// follow-mode until the campaign is terminal and fully drained.
func (c *campaign) serveStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	for {
		c.mu.Lock()
		pending := c.events[sent:]
		bump := c.bump
		state := c.state
		c.mu.Unlock()
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		sent += len(pending)
		if flusher != nil && len(pending) > 0 {
			flusher.Flush()
		}
		if state.Terminal() && len(pending) == 0 {
			return
		}
		select {
		case <-bump:
		case <-c.finished:
			// Every event lands before finish; loop once more to drain,
			// then exit on the terminal re-check.
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if err := checkCampaignBound(req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cells, err := PlanCampaign(s.opt.BaseConfig, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	s.campaignSeq++
	c := newCampaign(fmt.Sprintf("c%06d", s.campaignSeq), cells)
	s.campaigns[c.id] = c
	s.mu.Unlock()

	s.campaignsTotal.Add(1)
	s.campaignsActive.Add(1)
	s.campaignCells.Add(uint64(len(cells)))
	// Read the status before the feeder starts: a fast feeder could
	// otherwise finish every cell first, and the "accepted" reply would
	// say the campaign is already done.
	accepted := c.status()
	go s.runCampaign(c)
	writeJSON(w, http.StatusAccepted, accepted)
}

// runCampaign is the campaign's feeder: it submits cells in grid order
// (cache → store → queue, blocking on queue pressure rather than
// bouncing) and spawns one waiter per cell that emits the cell's single
// terminal event. Cell failures are recorded, never fatal; a canceled
// campaign marks its unfinished cells canceled.
func (s *Server) runCampaign(c *campaign) {
	defer s.campaignsActive.Add(-1)
	var wg sync.WaitGroup
	for _, cell := range c.cells {
		if c.ctx.Err() != nil {
			c.noteCell(cell.Event(JobCanceled), srcSim)
			continue
		}
		j, src, err := s.submitCell(c, cell)
		if err != nil {
			ev := cell.Event(JobCanceled)
			if !errors.Is(err, context.Canceled) {
				ev.State, ev.Error = JobFailed, err.Error()
				s.campaignCellsFailed.Add(1)
			}
			c.noteCell(ev, srcSim)
			continue
		}
		wg.Add(1)
		go func(cell PlannedCell, j *job, src cellSource) {
			defer wg.Done()
			s.awaitCell(c, cell, j, src)
		}(cell, j, src)
	}
	wg.Wait()
	state := CampaignDone
	if c.ctx.Err() != nil {
		state = CampaignCanceled
	}
	c.finish(state)
}

// submitCell resolves one cell onto a job through the same admission
// path as POST /v1/runs: an existing cached job, a store-answered done
// job, or a freshly enqueued one. Unlike the HTTP path it absorbs
// queue pressure by retrying (a campaign is one client; 429-bouncing
// it against itself would just spin) while its campaign is live.
func (s *Server) submitCell(c *campaign, cell PlannedCell) (*job, cellSource, error) {
	j := newJob(cell.Plan)
	if got, src, err := s.answer(j); got != nil || err != nil {
		return got, src, err
	}
	for {
		got, src, err := s.enqueue(j)
		if !errors.Is(err, errQueueFull) {
			return got, src, err
		}
		select {
		case <-c.ctx.Done():
			return nil, srcSim, c.ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// awaitCell waits for one cell's job and emits the cell's terminal
// event. A campaign cancellation emits a canceled event immediately;
// the underlying job keeps running (its result still warms the store).
func (s *Server) awaitCell(c *campaign, cell PlannedCell, j *job, src cellSource) {
	select {
	case <-j.done:
	case <-c.ctx.Done():
		c.noteCell(cell.Event(JobCanceled), src)
		return
	}

	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	ev := cell.Event(state)
	switch state {
	case JobDone:
		if result == nil {
			// LRU-evicted between completion and this read: the store
			// still has the bytes.
			result = s.tryStore(j)
		}
		if result == nil {
			ev.State = JobFailed
			ev.Error = "result evicted from cache and not in store"
			s.campaignCellsFailed.Add(1)
		} else {
			ev.Result = json.RawMessage(result)
			ev.Cached = src != srcSim
			if src != srcSim {
				s.campaignCellsCached.Add(1)
			}
		}
	case JobFailed:
		ev.Error = errMsg
		s.campaignCellsFailed.Add(1)
	case JobCanceled:
		// The underlying job was canceled out from under the campaign
		// (explicit /v1/runs cancel or drain); the cell reads canceled.
	}
	c.noteCell(ev, src)
}

func (s *Server) lookupCampaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

// handleCampaignCancel stops the campaign: feeding ends, unfinished
// cells emit canceled events, and the stream closes after the terminal
// replay. Cells already simulating run to completion and keep warming
// the cache and store. Canceling a terminal campaign is a no-op.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.cancel()
	writeJSON(w, http.StatusOK, c.status())
}

// handleCampaignStream serves the campaign's NDJSON event stream.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.serveStream(w, r)
}
