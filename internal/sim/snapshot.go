package sim

// Snapshot/fork support: capture a warmed, quiesced simulator once and
// fork independent copies that diverge per sweep cell. A 20-cell TLB
// sweep whose cells share a warmup prefix pays for that prefix once
// instead of 20 times; every fork replays the remainder of the run with
// byte-identical results to a cold two-phase run of the same plan.
//
// The design works around one hard constraint: the event queue, DRAM
// banks, I/O bus, page-table walker, and cache MSHRs all hold
// continuation closures bound to the source simulator, and closures
// cannot be deep-copied. So a snapshot is only taken at a quiesce point
// — instruction issue frozen, every in-flight event drained — where all
// of that state is empty by construction. The one exception is the
// dealloc poll, which re-arms itself forever; it is tracked explicitly
// (pollPending/pollAt) and re-scheduled freshly bound on each fork's
// queue.

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/config"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// WarmSnapshot runs the warmup prefix of a two-phase plan
// (opt.SnapshotWarmup > 0) under base and freezes it for forking: the
// first half of every snapshot-warmup sweep, shared by the harness's
// TLB figures and mosaic-sweep.
func WarmSnapshot(base config.Config, wl workload.Workload, opt Options) (*Snapshot, error) {
	s, err := New(base, wl, opt)
	if err == nil {
		err = s.RunWarmup()
	}
	if err != nil {
		return nil, err
	}
	return s.Snapshot()
}

// RunTwoPhase runs one cell of a two-phase sweep: the warmup under base
// (inherited by forking snap, or run cold when snap is nil), then the
// cell configuration via Reconfigure, then the measured remainder. base,
// wl and opt must be the plan snap was warmed from; both paths produce
// byte-identical Results.
func RunTwoPhase(snap *Snapshot, base config.Config, wl workload.Workload, opt Options, cell config.Config) (Results, error) {
	var s *Simulator
	if snap != nil {
		s = snap.Fork()
	} else {
		var err error
		if s, err = New(base, wl, opt); err == nil {
			err = s.RunWarmup()
		}
		if err != nil {
			return Results{}, err
		}
	}
	if err := s.Reconfigure(cell); err != nil {
		return Results{}, err
	}
	return s.Run()
}

// RunWarmup executes the shared warmup prefix: it drives the run plan to
// (at least) Options.SnapshotWarmup cycles, then quiesces — instruction
// issue stops and the event queue drains until only the self-re-arming
// dealloc poll (if armed) remains. After RunWarmup the simulator is at a
// closure-free point where Snapshot can capture it; calling Run next
// executes the remainder of the plan. RunWarmup is idempotent and is
// invoked automatically by Run when SnapshotWarmup is set, so cold runs
// of a two-phase plan follow exactly the same trajectory as forked ones.
func (s *Simulator) RunWarmup() error {
	if s.frozen {
		return errors.New("sim: RunWarmup on a frozen (snapshotted) simulator")
	}
	if s.warmupDone {
		return nil
	}
	if s.opt.SnapshotWarmup == 0 {
		return errors.New("sim: RunWarmup without Options.SnapshotWarmup")
	}
	s.start()
	bound := s.opt.SnapshotWarmup
	if bound > s.cfg.MaxCycles {
		bound = s.cfg.MaxCycles
	}
	if err := s.runUntil(bound); err != nil {
		return err
	}
	if err := s.quiesce(); err != nil {
		return err
	}
	s.warmupDone = true
	return nil
}

// quiesce drains the event queue with instruction issue frozen: it
// advances the clock from event to event, running each, until the only
// remaining event is the tracked dealloc poll (or the queue is empty).
// Warps whose memory accesses complete during the drain become ready but
// do not issue; they resume in cycle order when runUntil continues.
func (s *Simulator) quiesce() error {
	// Each drained event can schedule successors (a DRAM access completes
	// and wakes a queued one), so the drain is a loop, not a single pass.
	// The bound is a safety net: a healthy queue reaches the poll-only
	// state in far fewer steps than this.
	const maxSteps = 1 << 26
	for steps := 0; ; steps++ {
		want := 0
		if s.pollPending {
			// The poll re-arms itself, so it is the one event that may
			// (and must) survive the drain. pollPending implies the poll
			// is on the queue, so a queue of length 1 holds only it.
			want = 1
		}
		if s.q.Len() <= want {
			break
		}
		if steps >= maxSteps {
			return fmt.Errorf("sim: quiesce did not drain at cycle %d (%d events pending)", s.cycle, s.q.Len())
		}
		next, ok := s.q.NextCycle()
		if !ok {
			return errors.New("sim: quiesce: queue length and contents disagree")
		}
		if next > s.cycle {
			s.cycle = next
		}
		s.q.RunDue(s.cycle)
		s.cycle++
	}
	return nil
}

// Snapshot captures the simulator at its warmup quiesce point and
// freezes it: the source must not run further, because forks share its
// state only by copying it at capture time. Snapshot validates that the
// engine really is quiescent — event queue drained to at most the
// tracked dealloc poll, walker idle, DRAM and caches with nothing in
// flight, no warp with outstanding accesses — and returns an error
// naming the violation otherwise.
type Snapshot struct {
	src *Simulator
}

// Snapshot freezes the warmed simulator and returns a handle from which
// independent forks are created. It requires RunWarmup to have completed.
func (s *Simulator) Snapshot() (*Snapshot, error) {
	if s.frozen {
		return nil, errors.New("sim: Snapshot on an already-frozen simulator")
	}
	if !s.warmupDone {
		return nil, errors.New("sim: Snapshot before RunWarmup completed")
	}
	want := 0
	if s.pollPending {
		want = 1
		if s.pollAt <= s.cycle {
			return nil, fmt.Errorf("sim: Snapshot with overdue dealloc poll (at %d, cycle %d)", s.pollAt, s.cycle)
		}
	}
	if n := s.q.Len(); n != want {
		return nil, fmt.Errorf("sim: Snapshot with %d pending events (want %d)", n, want)
	}
	if s.walker.Active() != 0 || s.walker.Queued() != 0 {
		return nil, fmt.Errorf("sim: Snapshot with %d active / %d queued page walks", s.walker.Active(), s.walker.Queued())
	}
	if n := s.mem.PendingRequests(); n != 0 {
		return nil, fmt.Errorf("sim: Snapshot with %d pending DRAM requests", n)
	}
	if n := s.l2c.InFlight(); n != 0 {
		return nil, fmt.Errorf("sim: Snapshot with %d in-flight L2 cache misses", n)
	}
	if s.pwc != nil {
		if n := s.pwc.InFlight(); n != 0 {
			return nil, fmt.Errorf("sim: Snapshot with %d in-flight walk-cache misses", n)
		}
	}
	for _, m := range s.sms {
		if n := m.l1cache.InFlight(); n != 0 {
			return nil, fmt.Errorf("sim: Snapshot with %d in-flight L1 cache misses on SM %d", n, m.id)
		}
		for _, w := range m.warps {
			if w.outstanding != 0 {
				return nil, fmt.Errorf("sim: Snapshot with warp %d/%d holding %d outstanding accesses", m.id, w.idx, w.outstanding)
			}
		}
	}
	s.frozen = true
	return &Snapshot{src: s}, nil
}

// Fork builds an independent simulator that resumes from the snapshot
// point. The fork shares nothing mutable with the source or with other
// forks — every map, slice, page table, allocator free list, TLB array,
// cache tag store, RNG stream, and the pager's LRU list is deep-copied —
// so forks may run concurrently on different goroutines. Fork itself is
// also safe to call concurrently: the frozen source is only read.
//
// The forked run continues the source's (cycle, seq) event ordering: the
// fork's queue starts empty but inherits the sequence counter, and the
// dealloc poll (if armed) is re-scheduled freshly bound to the fork, so
// it sorts before any later-scheduled event exactly as the source's poll
// would have. RunRecords of a forked run are therefore byte-identical to
// a cold run of the same two-phase plan.
func (sn *Snapshot) Fork() *Simulator {
	s := sn.src
	ns := &Simulator{
		cfg:    s.cfg,
		opt:    s.opt,
		wl:     s.wl,
		digest: s.digest,

		cycle:    s.cycle,
		liveApps: s.liveApps,

		pollPending: false, // re-armed below if the source's poll was
		started:     s.started,
		warmupDone:  true,

		l1Req: s.l1Req, l1Hit: s.l1Hit,
		l2Req: s.l2Req, l2Hit: s.l2Hit,
		trFaults: s.trFaults,
	}
	ns.q = s.q.CloneEmpty()
	ns.bus = s.bus.Clone(ns.q)
	ns.mem = s.mem.Clone(ns.q)
	ns.mgr = s.mgr.Clone(ns.q, ns.bus, ns.mem)
	ns.rec = s.rec.Clone()
	ns.mgr.SetTrace(ns.rec)

	ns.l2c = s.l2c.Clone()
	ns.l2cGate = s.l2cGate.Clone()
	ns.l2tlb = s.l2tlb.Clone()
	ns.l2gate = s.l2gate.Clone()
	if s.pwc != nil {
		ns.pwc = s.pwc.Clone()
	}
	ns.walker = s.walker.Clone(ns.mgr, ns.walkAccess)
	ns.bindFlushHooks()
	ns.active = make([]uint64, len(s.active))
	ns.issue = ns.issueWarp

	appOf := make(map[*appRun]*appRun, len(s.apps))
	for _, a := range s.apps {
		na := &appRun{
			asid:          a.asid,
			spec:          a.spec,
			base:          a.base,
			buffers:       append([]buffer(nil), a.buffers...),
			liveSMs:       a.liveSMs,
			computePerMem: a.computePerMem,
			accesses:      a.accesses,
			instructions:  a.instructions,
			finishCycle:   a.finishCycle,
			completed:     a.completed,
			deallocDone:   a.deallocDone,
		}
		appOf[a] = na
		ns.apps = append(ns.apps, na)
	}
	for _, m := range s.sms {
		nm := &sm{
			id:      m.id,
			app:     appOf[m.app],
			l1tlb:   m.l1tlb.Clone(),
			l1cache: m.l1cache.Clone(),
			lastIdx: m.lastIdx,
			live:    m.live,
			ready:   append([]uint64(nil), m.ready...),
			soon:    append([]uint64(nil), m.soon...),
			soonAt:  m.soonAt,
			soonN:   m.soonN,
			wake:    append([]wakeEnt(nil), m.wake...),
		}
		for _, w := range m.warps {
			nm.warps = append(nm.warps, &warp{
				idx:         w.idx,
				state:       w.state,
				computeLeft: w.computeLeft,
				gen:         w.gen.Clone(),
				outstanding: w.outstanding,
				retired:     w.retired,
				jitterState: w.jitterState,
			})
		}
		nm.bindActive(ns.active)
		if !nm.idle() {
			*nm.active |= nm.activeBit
		}
		nm.app.sms = append(nm.app.sms, nm)
		ns.sms = append(ns.sms, nm)
	}

	if s.pollPending {
		ns.deallocPoll = ns.pollDealloc
		ns.schedulePoll(s.pollAt)
	}
	return ns
}

// CanReconfigure reports whether cell differs from base only in the
// knobs a warmed simulator can adopt mid-run: the TLB geometry and
// latency fields (L1 base/large entries and latency; L2 base/large
// entries, base ways, and latency). Grids whose cells vary anything else
// — cache sizes, DRAM timing, walker concurrency, workload scaling —
// cannot share a warmup prefix, and sweep drivers fall back to cold runs.
func CanReconfigure(base, cell config.Config) bool {
	merged := base
	merged.L1TLBBaseEntries = cell.L1TLBBaseEntries
	merged.L1TLBLargeEntries = cell.L1TLBLargeEntries
	merged.L1TLBLatency = cell.L1TLBLatency
	merged.L2TLBBaseEntries = cell.L2TLBBaseEntries
	merged.L2TLBLargeEntries = cell.L2TLBLargeEntries
	merged.L2TLBBaseWays = cell.L2TLBBaseWays
	merged.L2TLBLatency = cell.L2TLBLatency
	return merged == cell
}

// Reconfigure applies a sweep cell's configuration to a warmed simulator
// between warmup and measurement. Only the CanReconfigure fields may
// differ from the current configuration. The TLBs are rebuilt fresh and
// empty under the cell's geometry (their cumulative hit/miss counters
// carry over, so Results still cover the whole run); the manager, page
// tables, caches, and residency state are untouched. Both forked and
// cold two-phase runs call Reconfigure — including for the cell equal to
// the base configuration — so the ConfigDigest chain below is identical
// on either path: the digest becomes FNV-64a of
// "<old digest>|reconf=<cell digest>".
func (s *Simulator) Reconfigure(cell config.Config) error {
	if s.frozen {
		return errors.New("sim: Reconfigure on a frozen simulator; Fork first")
	}
	if !s.warmupDone {
		return errors.New("sim: Reconfigure before warmup completed")
	}
	if err := cell.Validate(); err != nil {
		return fmt.Errorf("sim: Reconfigure: %w", err)
	}
	if !CanReconfigure(s.cfg, cell) {
		return errors.New("sim: Reconfigure may only change TLB geometry/latency fields")
	}
	old := s.l2tlb.Stats()
	s.l2tlb = tlb.MustNew(tlb.Config{
		Name:         "L2TLB",
		BaseEntries:  cell.L2TLBBaseEntries,
		BaseWays:     cell.L2TLBBaseWays,
		LargeEntries: cell.L2TLBLargeEntries,
		Latency:      cell.L2TLBLatency,
	})
	s.l2tlb.RestoreStats(old)
	for _, m := range s.sms {
		o := m.l1tlb.Stats()
		m.l1tlb = tlb.MustNew(tlb.Config{
			Name:         fmt.Sprintf("L1TLB-%d", m.id),
			BaseEntries:  cell.L1TLBBaseEntries,
			LargeEntries: cell.L1TLBLargeEntries,
			Latency:      cell.L1TLBLatency,
		})
		m.l1tlb.RestoreStats(o)
	}
	s.cfg = cell
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|reconf=%s", s.digest, cell.DigestString())
	s.digest = fmt.Sprintf("%016x", h.Sum64())
	return nil
}
