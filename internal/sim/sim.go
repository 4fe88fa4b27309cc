// Package sim is the cycle-approximate multi-application GPU simulator:
// SMs running SIMT warps under a greedy-then-oldest (GTO) scheduler, a
// two-level TLB hierarchy with a shared highly-threaded page table walker,
// per-SM L1 caches, a banked shared L2, FR-FCFS DRAM, and demand paging
// over a serialized system I/O bus — the substrate on which the paper's
// memory managers are compared.
//
// The model is warp-granularity: each SM issues at most one instruction
// per cycle from one ready warp; a memory instruction blocks its warp
// until every lane's access (translation, residency, data) completes.
// This preserves the stall structure that address translation and demand
// paging perturb, which is what the paper measures.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/pagetable"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vmem"
	"repro/internal/walker"
	"repro/internal/workload"
)

// Options configures one simulation run.
type Options struct {
	// Policy selects the memory manager under test.
	Policy core.Policy
	// MutateManager optionally tweaks the manager options (ablations).
	MutateManager func(*core.Options)
	// Seed drives all workload randomness.
	Seed int64
	// FragIndex/FragOccupancy pre-fragment physical memory before the
	// applications start (§6.4 stress tests). Zero disables.
	FragIndex     float64
	FragOccupancy float64
	// DeallocFraction frees this fraction of a scratch buffer of whole
	// 2MB regions partway through each app's execution, splintering the
	// coalesced regions it frees from. CAC compacts only when free
	// destination slots exist, which takes FragIndex too. Zero disables.
	DeallocFraction float64
	// TraceLimit, when positive, records up to this many memory-management
	// events (see internal/trace) into Results.Trace.
	TraceLimit int
	// SnapshotWarmup, when positive, runs the simulation as a two-phase
	// plan: a warmup prefix to (at least) this cycle followed by a quiesce
	// (instruction issue freezes and all in-flight events drain), then the
	// remainder of the run. The quiesce point is where Snapshot/Fork may
	// capture the engine, and the drain perturbs timing relative to a plain
	// run, so the knob is part of the ConfigDigest: a warmup run is a
	// different (but equally deterministic) experiment than a plain run,
	// and forked runs are byte-identical to cold runs of the same plan.
	// Zero leaves the digest and the run plan exactly as they were before
	// the knob existed.
	SnapshotWarmup uint64
}

// ErrOutOfRange is wrapped by every Options.Validate failure; test with
// errors.Is.
var ErrOutOfRange = errors.New("out of range")

// Validate rejects option values no simulation can honor: the §6.4
// stress fractions (FragIndex, FragOccupancy, DeallocFraction) must lie
// in [0, 1]. New calls it, so every entry point rejects them with an
// error wrapping ErrOutOfRange instead of running a nonsense experiment
// or panicking mid-setup.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"FragIndex", o.FragIndex}, {"FragOccupancy", o.FragOccupancy}, {"DeallocFraction", o.DeallocFraction}} {
		if !(f.v >= 0 && f.v <= 1) { // NaN fails too
			return fmt.Errorf("sim: %s %g: %w (want [0, 1])", f.name, f.v, ErrOutOfRange)
		}
	}
	return nil
}

type warpState uint8

const (
	warpReady warpState = iota
	warpBlocked
	warpDone
)

type warp struct {
	idx         int
	state       warpState
	computeLeft int
	gen         *workload.StreamGen
	outstanding int
	retired     uint64
	// jitterState drives a small deterministic per-round perturbation of
	// the compute phase. Real kernels' warps are never perfectly
	// phase-locked; without jitter, thousands of identical warps issue
	// memory bursts in lockstep and queueing artifacts dominate. The
	// jitter depends only on the warp, not the memory manager, so
	// cross-policy comparisons stay instruction-identical.
	jitterState uint64
}

// jitter returns the warp's next 0..4 extra compute cycles. (The range is
// pinned by golden results: the LCG's top bits mod 5 yield 0..4, and every
// recorded figure depends on that spread, so it must not be "corrected"
// to a narrower one.)
func (w *warp) jitter() int {
	w.jitterState = w.jitterState*6364136223846793005 + 1442695040888963407
	return int(w.jitterState>>33) % 5
}

type sm struct {
	id      int
	app     *appRun
	l1tlb   *tlb.TLB
	l1cache *cache.Cache
	warps   []*warp
	lastIdx int
	live    int // warps not yet done

	// Ready-set scheduler state (see sched.go): issuable warps as a
	// bitmask, plus waiting warps split between a single-cycle "soon"
	// mask and a min-heap of odd wake cycles.
	ready  []uint64
	soon   []uint64
	soonAt uint64
	soonN  int
	wake   []wakeEnt
	// active/activeBit locate this SM's bit in the simulator's active-SM
	// set, which wakeAdd sets.
	active    *uint64
	activeBit uint64
}

// buffer is one contiguous virtual allocation of an application. Real
// GPGPU applications allocate several unevenly sized arrays en masse;
// splitting the working set this way is what exposes the 2MB-only
// manager's internal fragmentation (§3.2).
type buffer struct {
	va   vmem.VirtAddr
	size uint64
}

type appRun struct {
	asid    vmem.ASID
	spec    workload.Spec
	base    vmem.VirtAddr
	buffers []buffer
	sms     []*sm
	liveSMs int
	// computePerMem and accesses are read off the warps' specs once in
	// setupApps: the compute phase after each memory instruction, and
	// the memory instructions all the app's warps execute (under the
	// MaxWarpInstructions cap the generators hold).
	computePerMem int
	accesses      uint64
	// results
	instructions uint64
	finishCycle  uint64
	completed    bool
	deallocDone  bool
}

// addrOf maps a working-set offset onto the application's buffers.
func (a *appRun) addrOf(off uint64) vmem.VirtAddr {
	for i := range a.buffers {
		b := &a.buffers[i]
		if off < b.size {
			return b.va + vmem.VirtAddr(off)
		}
		off -= b.size
	}
	// Offsets are always < the summed sizes; fall back defensively.
	return a.buffers[0].va
}

// AppResult reports one application's outcome.
type AppResult struct {
	ASID         vmem.ASID
	Name         string
	Instructions uint64
	FinishCycle  uint64
	IPC          float64
	Completed    bool
	BloatPct     float64
}

// Results reports one simulation run.
type Results struct {
	Workload string
	Policy   string
	// ConfigDigest is a stable hex digest of everything that determines
	// the simulation's outcome: the configuration, the resolved manager
	// options, and the scalar simulation options (seed, fragmentation,
	// dealloc fraction). Two runs with equal digests, workload, and
	// policy produce identical results.
	ConfigDigest string
	Cycles       uint64
	Apps         []AppResult

	// Request-granularity TLB rates: a request hits a level if either
	// its large or base array serves it.
	L1TLBRequests, L1TLBHits uint64
	L2TLBRequests, L2TLBHits uint64

	// L1TLB aggregates the per-SM L1 TLB counters (lookup granularity:
	// one request that misses large and hits base counts in both
	// arrays); L2TLB snapshots the shared L2 TLB.
	L1TLB, L2TLB tlb.Stats

	Manager   core.Stats
	Allocator alloc.Stats
	Bus       iobus.Stats
	DRAM      dram.Stats
	Walker    walker.Stats
	// PageWalkCache holds walk-cache counters when the optional
	// dedicated walk cache is configured (zero value otherwise).
	PageWalkCache cache.Stats

	// TranslationFaults counts walks that found no mapping (must be 0
	// for well-formed workloads).
	TranslationFaults uint64

	// Trace holds recorded management events when Options.TraceLimit was
	// set; nil otherwise.
	Trace *trace.Recorder
}

// L1TLBHitRate returns the request-granularity L1 TLB hit rate.
func (r Results) L1TLBHitRate() float64 { return rate(r.L1TLBHits, r.L1TLBRequests) }

// L2TLBHitRate returns the request-granularity shared L2 TLB hit rate.
func (r Results) L2TLBHitRate() float64 { return rate(r.L2TLBHits, r.L2TLBRequests) }

func rate(h, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}

// TotalIPC sums per-app IPCs (system throughput).
func (r Results) TotalIPC() float64 {
	var t float64
	for _, a := range r.Apps {
		t += a.IPC
	}
	return t
}

// Digest returns the ConfigDigest that Run would stamp into Results for
// this configuration and these options, without building a simulator.
// It lets services key result caches before deciding whether to run:
// equal digests (plus equal workload and policy) mean the simulation
// would produce byte-identical results. A policy id outside the core
// table has no run to name (New rejects it), so its digest is "".
func Digest(cfg config.Config, opt Options) string {
	mopt, err := managerOptions(cfg, opt)
	if err != nil {
		return ""
	}
	return configDigest(cfg, opt, mopt)
}

// managerOptions resolves the manager options a run uses: the policy's
// table row under cfg, then opt.MutateManager's ablation.
func managerOptions(cfg config.Config, opt Options) (core.Options, error) {
	mopt, err := core.ResolveOptions(opt.Policy, cfg)
	if err != nil {
		return core.Options{}, err
	}
	if opt.MutateManager != nil {
		opt.MutateManager(&mopt)
	}
	return mopt, nil
}

// configDigest hashes everything that determines a run's outcome: the
// full configuration, the scalar simulation options, and the resolved
// manager options (which capture MutateManager's effect). The printed
// forms are flat and deterministic, so equal setups always collide and
// differing setups practically never do. The config goes through
// DigestString, which strips knobs added after the digest scheme shipped
// when they hold their zero value — a run that does not use a new knob
// keeps the digest it had before the knob existed.
// Options.SnapshotWarmup follows the same zero-omission rule inline:
// it joins the hash only when set, because the warmup quiesce changes
// timing and therefore defines a distinct experiment.
func configDigest(cfg config.Config, opt Options, mopt core.Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|seed=%d frag=%g/%g dealloc=%g",
		cfg.DigestString(), opt.Seed, opt.FragIndex, opt.FragOccupancy, opt.DeallocFraction)
	if opt.SnapshotWarmup > 0 {
		fmt.Fprintf(h, " warmup=%d", opt.SnapshotWarmup)
	}
	fmt.Fprintf(h, "|%+v", mopt)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Simulator is one configured run. Use New then Run once.
type Simulator struct {
	cfg    config.Config
	opt    Options
	wl     workload.Workload
	digest string

	q       *event.Queue
	cycle   uint64
	bus     *iobus.Bus
	mem     *dram.DRAM
	mgr     *core.System
	l2c     *cache.Cache
	l2cGate *tlb.PortGate // L2 cache lookup throughput (banked ports)
	l2tlb   *tlb.TLB
	l2gate  *tlb.PortGate
	walker  *walker.Walker
	pwc     *cache.Cache // optional dedicated page-walk cache

	sms  []*sm
	apps []*appRun
	// active is the active-SM set: bit i is set when sms[i] has a ready,
	// soon or wake entry (see sched.go).
	active []uint64
	// issue carries out the instruction the issue loop picked; it is
	// issueWarp, bound once (tests substitute a scripted one).
	issue func(m *sm, w *warp)

	liveApps int
	rec      *trace.Recorder

	// deallocPoll is pollDealloc bound once, so re-arming the poll on the
	// event queue does not allocate a fresh method value each period.
	deallocPoll event.Func
	// pollPending/pollAt track whether (and for which cycle) the dealloc
	// poll is currently scheduled. The poll is the one event allowed to
	// remain on the queue across a warmup quiesce — it re-arms itself
	// indefinitely, so draining it would hang — and Fork uses pollAt to
	// re-schedule a freshly bound poll on the fork's queue.
	pollPending bool
	pollAt      uint64

	// started records that the run plan began (the dealloc poll, if any,
	// is armed); warmupDone that the warmup phase (if any) completed;
	// frozen that a Snapshot captured this simulator, after which it must
	// not run further (forks would observe mutated source state).
	started    bool
	warmupDone bool
	frozen     bool

	// Free lists for the pooled memory-access path (see memory.go). Both
	// are LIFO stacks; objects carry their callbacks pre-bound, so the
	// steady-state translate+data path performs no allocations.
	reqFree     []*memReq
	fillFree    []*fillReq
	pwcFillFree []*pwcFill

	l1Req, l1Hit uint64
	l2Req, l2Hit uint64
	trFaults     uint64
}

// New builds a simulator for the workload under the given policy.
func New(cfg config.Config, wl workload.Workload, opt Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(wl.Apps) == 0 {
		return nil, errors.New("sim: empty workload")
	}
	if len(wl.Apps) > cfg.NumSMs {
		return nil, fmt.Errorf("sim: %d apps exceed %d SMs", len(wl.Apps), cfg.NumSMs)
	}

	s := &Simulator{cfg: cfg, opt: opt, wl: wl, q: &event.Queue{}}
	s.bus = iobus.New(cfg, s.q)
	s.mem = dram.New(cfg, s.q)

	mopt, err := managerOptions(cfg, opt)
	if err != nil {
		// Policy ids outside the table are a caller bug, not a config to
		// run: surface the typed core.ErrUnknownPolicy instead of
		// simulating baseline-like options.
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.digest = configDigest(cfg, opt, mopt)
	mgr, err := core.NewSystem(cfg, mopt, s.q, s.bus, s.mem)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	if opt.TraceLimit > 0 {
		s.rec = trace.New(opt.TraceLimit)
		mgr.SetTrace(s.rec)
	}

	if opt.FragIndex > 0 {
		mgr.Pool().PreFragment(opt.Seed^0x5f5f, opt.FragIndex, opt.FragOccupancy)
		mgr.RebuildFreeLists()
	}

	s.l2c = cache.MustNew("L2", cfg.L2CacheBytes, cfg.L2CacheLineSz, cfg.L2CacheWays)
	s.l2cGate = tlb.NewPortGate(cfg.L2CachePorts)
	s.l2tlb = tlb.MustNew(tlb.Config{
		Name:         "L2TLB",
		BaseEntries:  cfg.L2TLBBaseEntries,
		BaseWays:     cfg.L2TLBBaseWays,
		LargeEntries: cfg.L2TLBLargeEntries,
		Latency:      cfg.L2TLBLatency,
	})
	s.l2gate = tlb.NewPortGate(cfg.L2TLBPorts)
	var pwc *cache.Cache
	if cfg.PageWalkCacheEntries > 0 {
		pwc = cache.MustNew("PWC", cfg.PageWalkCacheEntries*cfg.L2CacheLineSz,
			cfg.L2CacheLineSz, cfg.PageWalkCacheWays())
	}
	s.pwc = pwc
	s.walker = walker.New(cfg.WalkerConcurrency, mgr, s.walkAccess)
	s.bindFlushHooks()

	if err := s.setupApps(); err != nil {
		return nil, err
	}
	return s, nil
}

// walkAccess is the walker's memory path: one PTE read per call. A
// dedicated page-walk cache (Power et al.) intercepts reads before the
// memory system when configured. It is a method (not a closure over New's
// locals) so Fork can hand a forked walker the forked simulator's path.
func (s *Simulator) walkAccess(now uint64, addr vmem.PhysAddr, level int, done func(uint64)) {
	if s.pwc != nil {
		if s.pwc.Lookup(addr) {
			s.q.Schedule(now+uint64(s.cfg.PageWalkCacheLatency), done)
			return
		}
		done = s.acquirePWCFill(addr, done).fn
	}
	// Upper-level PTEs cover huge ranges and stay hot in the L2
	// cache even at unscaled working sets; leaf PTEs thrash. With
	// PTWalkCached every level is L2-cacheable.
	if s.cfg.PTWalkCached || level < pagetable.Levels-1 {
		s.accessL2(now, addr, done)
		return
	}
	s.accessPTE(now, addr, done)
}

// bindFlushHooks points the manager's TLB shootdown callbacks at this
// simulator's TLBs. The hooks read s.l2tlb and s.sms through the receiver
// at call time, so they survive Reconfigure replacing the TLB objects;
// forks rebind so shootdowns reach the fork's TLBs, not the source's.
func (s *Simulator) bindFlushHooks() {
	s.mgr.SetFlushHooks(
		func(asid vmem.ASID, va vmem.VirtAddr) {
			s.l2tlb.FlushLargeEntry(asid, va)
			for _, m := range s.sms {
				m.l1tlb.FlushLargeEntry(asid, va)
			}
		},
		func(asid vmem.ASID, va vmem.VirtAddr) {
			s.l2tlb.FlushBaseEntry(asid, va)
			for _, m := range s.sms {
				m.l1tlb.FlushBaseEntry(asid, va)
			}
		},
		func() {
			s.l2tlb.FlushAll()
			for _, m := range s.sms {
				m.l1tlb.FlushAll()
			}
		},
	)
}

// setupApps partitions SMs equally across applications (§5), registers
// protection domains, performs the en-masse allocations, and builds the
// per-warp access streams.
func (s *Simulator) setupApps() error {
	nApps := len(s.wl.Apps)
	per := s.cfg.NumSMs / nApps
	s.active = make([]uint64, (s.cfg.NumSMs+63)/64)
	s.issue = s.issueWarp

	smID := 0
	for i, spec := range s.wl.Apps {
		asid := vmem.ASID(i + 1)
		app := &appRun{
			asid: asid,
			spec: spec,
			base: vmem.VirtAddr(1 << 30), // private address space per app
		}
		if err := s.mgr.RegisterApp(asid); err != nil {
			return err
		}
		// En-masse allocation of the working set as three unevenly sized
		// buffers (as real kernels allocate several arrays at launch).
		// Each buffer starts 2MB-aligned; sizes are page-granular, so the
		// tails exercise partial-region allocation.
		ws := spec.ScaledWorkingSet(s.cfg)
		sizes := []uint64{ws}
		if ws >= 4*vmem.LargePageSize {
			// Ragged sizes: real arrays are page-granular, not 2MB
			// multiples, which is where 2MB-only management bloats.
			s1 := vmem.AlignUp(ws/2, vmem.BasePageSize) + 5*vmem.BasePageSize
			s2 := vmem.AlignUp(ws*3/10, vmem.BasePageSize) + 11*vmem.BasePageSize
			sizes = []uint64{s1, s2, ws - s1 - s2}
		}
		va := app.base
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			app.buffers = append(app.buffers, buffer{va: va, size: sz})
			if err := s.mgr.AllocVirtual(0, asid, va, sz); err != nil {
				return fmt.Errorf("sim: en-masse alloc for %s: %w", spec.Name, err)
			}
			va = vmem.VirtAddr(vmem.AlignUp(uint64(va)+sz, vmem.LargePageSize)) + vmem.LargePageSize
		}

		count := per
		if count == 0 {
			count = 1
		}
		warpTotal := count * s.cfg.WarpsPerSM
		warpIdx := 0
		cap := spec
		if s.cfg.MaxWarpInstructions > 0 && cap.AccessesPerWarp > s.cfg.MaxWarpInstructions {
			cap.AccessesPerWarp = s.cfg.MaxWarpInstructions
		}
		app.computePerMem = cap.ComputePerMem
		app.accesses = uint64(warpTotal) * uint64(cap.AccessesPerWarp)
		for c := 0; c < count; c++ {
			m := &sm{
				id:  smID,
				app: app,
				l1tlb: tlb.MustNew(tlb.Config{
					Name:         fmt.Sprintf("L1TLB-%d", smID),
					BaseEntries:  s.cfg.L1TLBBaseEntries,
					LargeEntries: s.cfg.L1TLBLargeEntries,
					Latency:      s.cfg.L1TLBLatency,
				}),
				l1cache: cache.MustNew(fmt.Sprintf("L1-%d", smID),
					s.cfg.L1CacheBytes, s.cfg.L1CacheLineSz, s.cfg.L1CacheWays),
			}
			m.initSched(s.cfg.WarpsPerSM)
			m.bindActive(s.active)
			for wi := 0; wi < s.cfg.WarpsPerSM; wi++ {
				w := &warp{
					idx:         wi,
					computeLeft: cap.ComputePerMem,
					gen:         cap.NewStream(s.cfg, warpIdx, warpTotal, s.opt.Seed^int64(asid)<<32),
					jitterState: uint64(warpIdx)*0x9E3779B97F4A7C15 + uint64(asid),
				}
				// Stagger warp start cycles so SMs do not issue their
				// first memory burst in perfect lockstep.
				m.wakeAdd(wi, uint64((warpIdx*13)%173))
				warpIdx++
				m.warps = append(m.warps, w)
			}
			m.live = len(m.warps)
			app.sms = append(app.sms, m)
			s.sms = append(s.sms, m)
			smID++
		}
		app.liveSMs = len(app.sms)
		s.apps = append(s.apps, app)
	}
	s.liveApps = nApps
	return nil
}

// Run executes the simulation to completion (or MaxCycles) and returns
// the results. It must be called once. When Options.SnapshotWarmup is set
// and the warmup phase has not yet run (i.e. the simulator was not forked
// from a warmed snapshot), Run performs the warmup-then-quiesce prefix
// first, so server- and CLI-side runs of the same plan agree regardless
// of whether they went through Snapshot/Fork.
func (s *Simulator) Run() (Results, error) {
	if s.frozen {
		return Results{}, errors.New("sim: Run on a frozen (snapshotted) simulator; Fork it instead")
	}
	if s.opt.SnapshotWarmup > 0 && !s.warmupDone {
		if err := s.RunWarmup(); err != nil {
			return Results{}, err
		}
	}
	s.start()
	if err := s.runUntil(s.cfg.MaxCycles); err != nil {
		return Results{}, err
	}
	return s.results(), nil
}

// start arms the run plan exactly once: the dealloc poll, if configured,
// goes on the event queue. Both Run and RunWarmup call it, so the poll is
// armed at the true beginning of the run whichever entry point came first.
func (s *Simulator) start() {
	if s.started {
		return
	}
	s.started = true
	if s.opt.DeallocFraction > 0 {
		// Dealloc polling rides the event queue so idle fast-forward can
		// never starve it (it used to key off s.cycle&0x1FFF == 0, which
		// fast-forward could jump straight over).
		s.deallocPoll = s.pollDealloc
		s.schedulePoll(deallocPollPeriod)
	}
}

// schedulePoll arms the dealloc poll for cycle at, tracking the pending
// registration so quiesce and Fork can account for it.
func (s *Simulator) schedulePoll(at uint64) {
	s.pollPending = true
	s.pollAt = at
	s.q.Schedule(at, s.deallocPoll)
}

// runUntil drives the main loop while applications remain live and the
// cycle counter is below bound. It is the single authoritative loop body
// — Run and RunWarmup both use it, so warmed-up prefixes execute exactly
// the instructions a full run's first cycles would.
func (s *Simulator) runUntil(bound uint64) error {
	for s.liveApps > 0 && s.cycle < bound {
		s.q.RunDue(s.cycle)

		issued := false
		if s.cycle >= s.mgr.StallUntil() {
			issued = s.issueActive()
		}

		s.cycle++
		if issued {
			continue
		}
		if err := s.fastForward(); err != nil {
			return err
		}
	}
	return nil
}

// fastForward advances the clock across an idle stretch to the earliest
// of the next queued event, the end of a GPU-wide stall, or the next
// warp wake-up. Nothing to advance to while applications remain live
// is a deadlock.
func (s *Simulator) fastForward() error {
	var target uint64
	found := false
	consider := func(c uint64) {
		if c >= s.cycle && (!found || c < target) {
			target, found = c, true
		}
	}
	if next, ok := s.q.NextCycle(); ok {
		consider(next)
	}
	if st := s.mgr.StallUntil(); st > s.cycle {
		consider(st)
	}
	consider(s.nextWarpWake())
	if !found {
		if s.liveApps > 0 {
			return fmt.Errorf("sim: deadlock at cycle %d with %d live apps", s.cycle, s.liveApps)
		}
		return nil
	}
	if target > s.cycle {
		s.cycle = target
	}
	return nil
}

// nextWarpWake returns the earliest wake cycle among warps waiting on a
// future (>= s.cycle) cycle, or 0 when none are. Warps whose wake cycle
// already passed (possible across a GPU-wide stall) are promoted into
// their SM's issuable set and — matching the scan this replaced — not
// reported as wake-up targets.
func (s *Simulator) nextWarpWake() uint64 {
	var min uint64
	for wi, word := range s.active {
		for ; word != 0; word &= word - 1 {
			m := s.sms[wi<<6|bits.TrailingZeros64(word)]
			if w := m.wakeMin(s.cycle); w != 0 && (min == 0 || w < min) {
				min = w
			}
		}
	}
	return min
}

// deallocPollPeriod matches the old maybeDealloc cadence (every 8K cycles).
const deallocPollPeriod = 0x2000

// pollDealloc frees a fraction of each application's buffer once it is
// halfway done, to exercise deallocation paths and CAC. It re-arms itself
// on the event queue until every app has either deallocated or completed,
// so the poll fires even through idle fast-forward.
func (s *Simulator) pollDealloc(c uint64) {
	s.pollPending = false
	pending := false
	for _, app := range s.apps {
		if app.deallocDone || app.completed {
			continue
		}
		left := uint64(0)
		for _, m := range app.sms {
			for _, w := range m.warps {
				left += uint64(w.gen.Remaining())
			}
		}
		if left*2 > app.accesses {
			pending = true
			continue
		}
		app.deallocDone = true
		ws := app.spec.ScaledWorkingSet(s.cfg)
		// Allocate a scratch buffer of whole 2MB regions (so they
		// coalesce under Mosaic), then free DeallocFraction of it,
		// splintering the regions it frees from without touching the
		// pages the access streams still use. The app's other frames
		// are mostly full coalesced regions too, so CAC finds a
		// compaction destination only in frames FragIndex left partly
		// free.
		scratch := vmem.AlignUp(ws/2, vmem.LargePageSize)
		last := app.buffers[len(app.buffers)-1]
		scratchVA := vmem.VirtAddr(vmem.AlignUp(uint64(last.va)+last.size, vmem.LargePageSize)) + vmem.LargePageSize
		if err := s.mgr.AllocVirtual(c, app.asid, scratchVA, scratch); err == nil {
			frac := vmem.AlignDown(uint64(float64(scratch)*s.opt.DeallocFraction), vmem.BasePageSize)
			_ = s.mgr.FreeVirtual(c, app.asid, scratchVA, frac)
		}
	}
	if pending {
		s.schedulePoll(c + deallocPollPeriod)
	}
}

// issueActive runs one cycle of instruction issue: each SM in the
// active-SM set, in index order, issues at most one instruction, and an
// SM left with no ready, soon or wake entry drops out of the set. It
// reports whether any SM issued.
func (s *Simulator) issueActive() bool {
	issued := false
	for wi := range s.active {
		for word := s.active[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			m := s.sms[wi<<6|b]
			if s.issueSM(m) {
				issued = true
			}
			if m.idle() {
				s.active[wi] &^= 1 << uint(b)
			}
		}
	}
	return issued
}

// issueSM issues at most one instruction on one SM using GTO scheduling:
// keep issuing from the last warp until it stalls, then pick the oldest
// ready warp. Candidates come from the incrementally maintained issuable
// set, so an SM with nothing to do costs O(1), not O(warps).
func (s *Simulator) issueSM(m *sm) bool {
	if m.live == 0 {
		return false
	}
	m.drainBefore(s.cycle + 1)
	idx := m.lastIdx
	if !m.issuable(idx) {
		idx = m.firstIssuable() // oldest = lowest index
		if idx < 0 {
			return false
		}
		m.lastIdx = idx
	}
	s.issue(m, m.warps[idx])
	return true
}

// maxLanes is the widest memory burst a warp issues in one instruction
// (issueWarp's lane buffer size).
const maxLanes = 8

func (s *Simulator) issueWarp(m *sm, w *warp) {
	if w.computeLeft > 0 {
		w.computeLeft--
		w.retired++
		m.clearIssuable(w.idx)
		m.wakeAdd(w.idx, s.cycle+1)
		return
	}
	var buf [maxLanes]uint64
	n := w.gen.Next(buf[:])
	if n == 0 {
		s.finishWarp(m, w)
		return
	}
	w.state = warpBlocked
	m.clearIssuable(w.idx)
	w.outstanding = n
	for i := 0; i < n; i++ {
		s.memInstr(m, w, m.app.addrOf(buf[i]))
	}
}

func (s *Simulator) finishWarp(m *sm, w *warp) {
	w.state = warpDone
	m.clearIssuable(w.idx)
	m.live--
	m.app.instructions += w.retired
	if m.live == 0 {
		m.app.liveSMs--
		if m.app.liveSMs == 0 {
			m.app.completed = true
			m.app.finishCycle = s.cycle
			s.liveApps--
		}
	}
}

func (s *Simulator) results() Results {
	r := Results{
		Workload:          s.wl.Name,
		Policy:            s.mgr.Name(),
		ConfigDigest:      s.digest,
		Cycles:            s.cycle,
		L1TLBRequests:     s.l1Req,
		L1TLBHits:         s.l1Hit,
		L2TLBRequests:     s.l2Req,
		L2TLBHits:         s.l2Hit,
		Manager:           s.mgr.Stats(),
		Allocator:         s.mgr.AllocatorStats(),
		Bus:               s.bus.Stats(),
		DRAM:              s.mem.Stats(),
		Walker:            s.walker.Stats(),
		TranslationFaults: s.trFaults,
		Trace:             s.rec,
	}
	if s.pwc != nil {
		r.PageWalkCache = s.pwc.Stats()
	}
	for _, m := range s.sms {
		r.L1TLB = r.L1TLB.Add(m.l1tlb.Stats())
	}
	r.L2TLB = s.l2tlb.Stats()
	for _, app := range s.apps {
		fin := app.finishCycle
		instr := app.instructions
		if !app.completed {
			fin = s.cycle
			// Count work done so far.
			instr = 0
			for _, m := range app.sms {
				for _, w := range m.warps {
					instr += w.retired
				}
			}
		}
		ipc := 0.0
		if fin > 0 {
			ipc = float64(instr) / float64(fin)
		}
		r.Apps = append(r.Apps, AppResult{
			ASID:         app.asid,
			Name:         app.spec.Name,
			Instructions: instr,
			FinishCycle:  fin,
			IPC:          ipc,
			Completed:    app.completed,
			BloatPct:     s.mgr.BloatPct(app.asid),
		})
	}
	return r
}
