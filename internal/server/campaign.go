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

// CheckCampaignBound rejects a campaign whose grid exceeds the
// per-campaign cell bound. POST /v1/campaigns applies it, on a server
// and on a coordinator, before planning: the bound guards the service
// against outside input, so local sweeps that plan with PlanCampaign
// are not subject to it.
func CheckCampaignBound(req CampaignRequest) error {
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
// config.Eval). mosaicd, the coordinator and mosaic-sweep's local mode
// all plan with it, so they agree on the grid, its order and its
// digests.
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

// cellSource records how a campaign cell was answered.
type cellSource int

const (
	srcSim   cellSource = iota // enqueued and simulated (or joined a live job)
	srcCache                   // deduplicated onto a cached done job
	srcStore                   // answered from the persistent store
)

// CampaignLog is the bookkeeping behind one campaign: its cancellation
// context, lifecycle counters, and the append-only event log that
// NDJSON streams replay from. mosaicd's local campaign runner and the
// coordinator's fleet fan-out share this one implementation, so clients
// see an identical stream either way: every event from the start on
// (re)connect, follow-mode until terminal, then a clean close.
type CampaignLog struct {
	id    string
	cells int

	// ctx ends the campaign early; work already in flight is left to
	// finish (it warms caches and stores either way) — Cancel stops
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

// NewCampaignLog starts the log for a campaign of the given grid size
// in the running state.
func NewCampaignLog(id string, cells int) *CampaignLog {
	ctx, cancel := context.WithCancel(context.Background())
	return &CampaignLog{
		id:       id,
		cells:    cells,
		ctx:      ctx,
		cancel:   cancel,
		state:    CampaignRunning,
		bump:     make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// ID returns the campaign's identifier.
func (l *CampaignLog) ID() string { return l.id }

// Context is done once the campaign is canceled; runners watch it to
// stop feeding cells.
func (l *CampaignLog) Context() context.Context { return l.ctx }

// Cancel ends the campaign early. Idempotent.
func (l *CampaignLog) Cancel() { l.cancel() }

// Note records a cell's terminal event: counters, the event log, and a
// wakeup for stream followers. Exactly one Note per cell is the
// runner's contract — the log does not deduplicate.
func (l *CampaignLog) Note(ev CellEvent, fromCache, fromStore bool) {
	l.mu.Lock()
	switch ev.State {
	case JobDone:
		l.done++
	case JobFailed:
		l.failed++
	case JobCanceled:
		l.canceled++
	}
	if fromCache {
		l.fromCache++
	}
	if fromStore {
		l.fromStore++
	}
	l.events = append(l.events, ev)
	close(l.bump)
	l.bump = make(chan struct{})
	l.mu.Unlock()
}

// Finish moves the campaign to a terminal state exactly once; later
// calls are no-ops.
func (l *CampaignLog) Finish(state CampaignState) {
	l.mu.Lock()
	if !l.state.Terminal() {
		l.state = state
		close(l.finished)
	}
	l.mu.Unlock()
}

// Status snapshots the campaign for a wire response.
func (l *CampaignLog) Status() CampaignStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CampaignStatus{
		ID:        l.id,
		State:     l.state,
		Cells:     l.cells,
		Done:      l.done,
		Failed:    l.failed,
		Canceled:  l.canceled,
		FromCache: l.fromCache,
		FromStore: l.fromStore,
	}
}

// ServeStream writes the campaign's NDJSON event stream: every event
// from the campaign's start (replay makes reconnects lossless), then
// follow-mode until the campaign is terminal and fully drained.
func (l *CampaignLog) ServeStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	for {
		l.mu.Lock()
		pending := l.events[sent:]
		bump := l.bump
		state := l.state
		l.mu.Unlock()
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
		case <-l.finished:
			// Every event lands before Finish; loop once more to drain,
			// then exit on the terminal re-check.
		case <-r.Context().Done():
			return
		}
	}
}

// campaign is one accepted sweep grid on this server: the shared log
// plus the planned cells the local runner executes.
type campaign struct {
	*CampaignLog
	cells []PlannedCell
}

func newCampaign(id string, cells []PlannedCell) *campaign {
	return &campaign{CampaignLog: NewCampaignLog(id, len(cells)), cells: cells}
}

// noteCell records a cell's terminal event with its source attribution.
func (c *campaign) noteCell(ev CellEvent, src cellSource) {
	c.Note(ev, src == srcCache, src == srcStore)
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if err := CheckCampaignBound(req); err != nil {
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
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.campaignSeq++
	c := newCampaign(fmt.Sprintf("c%06d", s.campaignSeq), cells)
	s.campaigns[c.ID()] = c
	s.mu.Unlock()

	s.campaignsTotal.Add(1)
	s.campaignsActive.Add(1)
	s.campaignCells.Add(uint64(len(cells)))
	go s.runCampaign(c)
	writeJSON(w, http.StatusAccepted, c.Status())
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
		if c.Context().Err() != nil {
			c.noteCell(cell.Event(JobCanceled), srcSim)
			continue
		}
		j, src, err := s.submitCell(c, cell)
		if err != nil {
			state := JobFailed
			if errors.Is(err, context.Canceled) {
				state = JobCanceled
			}
			ev := cell.Event(state)
			ev.Error = err.Error()
			if state == JobCanceled {
				ev.Error = ""
			}
			if state == JobFailed {
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
	if c.Context().Err() != nil {
		c.Finish(CampaignCanceled)
		return
	}
	c.Finish(CampaignDone)
}

// submitCell resolves one cell onto a job: an existing cached job, a
// store-answered done job, or a freshly enqueued one. Unlike the HTTP
// submission path it absorbs queue pressure by waiting (a campaign is
// one client; 429-bouncing it against itself would just spin), while
// still honoring cancellation and drain.
func (s *Server) submitCell(c *campaign, cell PlannedCell) (*job, cellSource, error) {
	j := newJob(cell.Plan)

	s.mu.Lock()
	if existing, ok := s.cache[j.Key]; ok {
		s.touch(existing)
		s.mu.Unlock()
		s.cacheHits.Add(1)
		return existing, srcCache, nil
	}
	s.mu.Unlock()

	if result := s.tryStore(j); result != nil {
		j.finish(JobDone, "", result)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, srcSim, errors.New("server is draining")
		}
		if existing, ok := s.cache[j.Key]; ok {
			s.touch(existing)
			s.mu.Unlock()
			s.cacheHits.Add(1)
			return existing, srcCache, nil
		}
		s.seq++
		j.id = fmt.Sprintf("r%06d", s.seq)
		s.jobs[j.id] = j
		s.cache[j.Key] = j
		j.lruElem = s.lru.PushFront(j)
		s.trimLRU()
		s.mu.Unlock()
		s.storeServes.Add(1)
		return j, srcStore, nil
	}

	started := false
	for {
		if err := c.Context().Err(); err != nil {
			return nil, srcSim, err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, srcSim, errors.New("server is draining")
		}
		if existing, ok := s.cache[j.Key]; ok {
			s.touch(existing)
			s.mu.Unlock()
			s.cacheHits.Add(1)
			return existing, srcCache, nil
		}
		if !started {
			j.start(s.opt.DefaultTimeout) // before enqueue: the dispatcher reads j.ctx
			started = true
		}
		select {
		case s.queue <- j:
			s.seq++
			j.id = fmt.Sprintf("r%06d", s.seq)
			s.jobs[j.id] = j
			s.cache[j.Key] = j
			s.mu.Unlock()
			s.cacheMisses.Add(1)
			s.accepted.Add(1)
			return j, srcSim, nil
		default:
			s.mu.Unlock()
			select {
			case <-c.Context().Done():
				return nil, srcSim, c.Context().Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}

// awaitCell waits for one cell's job and emits the cell's terminal
// event. A campaign cancellation emits a canceled event immediately;
// the underlying job keeps running (its result still warms the store).
func (s *Server) awaitCell(c *campaign, cell PlannedCell, j *job, src cellSource) {
	select {
	case <-j.done:
	case <-c.Context().Done():
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
	writeJSON(w, http.StatusOK, c.Status())
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
	c.Cancel()
	writeJSON(w, http.StatusOK, c.Status())
}

// handleCampaignStream serves the campaign's NDJSON event stream via
// the shared CampaignLog replay.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	c.ServeStream(w, r)
}
