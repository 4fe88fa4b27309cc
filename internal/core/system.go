package core

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/alloc"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/pagetable"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// Stats aggregates memory-manager activity.
type Stats struct {
	FarFaults          uint64 // demand-paging transfers issued
	CoalescedFaults    uint64 // fault requests merged into a pending transfer
	Coalesces          uint64 // regions promoted to large pages
	CoalesceAttempts   uint64 // regions considered for promotion
	Splinters          uint64
	Compactions        uint64 // CAC splinter+compact operations
	MigratedPages      uint64 // base pages moved by CAC or migrating coalescer
	BulkCopies         uint64 // migrations that used in-DRAM copy
	EmergencyAdds      uint64 // regions parked on the emergency frame list
	EmergencySplinters uint64 // emergency-list frames splintered for space
	// StallCycles is not the time the GPU was stalled (CAC worst-case
	// model). Each stall that ends later than the previous one adds its
	// end minus the previous end, counting the first from cycle 0, so
	// the sum telescopes to the end cycle of the latest stall: the time
	// before the first stall and every gap between stalls count too.
	// RunRecords serialize it, so correcting it changes record bytes.
	StallCycles    uint64
	AllocFallbacks uint64 // allocations that needed CAC recovery

	// ---- bounded residency (oversubscription) ----
	// Nonzero only when Config.MaxResidentPages bounds the GPU page pool
	// (the ideal TLB is exempt); omitted from JSON otherwise so unbounded
	// records keep their pre-oversubscription byte form.

	Evictions    uint64 `json:",omitempty"` // victim selections under residency pressure
	EvictedPages uint64 `json:",omitempty"` // base pages pushed to the host tier
	WriteBacks   uint64 `json:",omitempty"` // evictions that wrote dirty data back over the I/O bus
	CleanDrops   uint64 `json:",omitempty"` // evictions of clean pages, dropped without a transfer
	Refaults     uint64 `json:",omitempty"` // far-faults re-fetching previously evicted pages
	// PeakResidentPages is the high-water mark of base pages resident (or
	// committed to a pending fault) at once.
	PeakResidentPages uint64 `json:",omitempty"`
}

// CoalesceSuccessRate returns Coalesces / CoalesceAttempts (0 when no
// region was ever considered) — how often a considered region was fully
// populated and promotable to a large page.
func (s Stats) CoalesceSuccessRate() float64 {
	if s.CoalesceAttempts == 0 {
		return 0
	}
	return float64(s.Coalesces) / float64(s.CoalesceAttempts)
}

type appState struct {
	table *pagetable.PageTable
	// units[i] is the pager's entry of fault key unitBase+i (nil: never
	// faulted, or freed). An app's VA range is contiguous, so it is dense.
	units    []*pageEntry
	unitBase uint64
	// spare is the unused rest of the chunk new entries are carved from.
	spare     []pageEntry
	liveBytes uint64
	// pagesPerFrame counts this app's mapped base pages per large frame,
	// for footprint/bloat accounting.
	pagesPerFrame map[int]int
}

// unit returns the pager entry of fault key key, or nil.
func (a *appState) unit(key uint64) *pageEntry {
	if i := key - a.unitBase; i < uint64(len(a.units)) {
		return a.units[i]
	}
	return nil
}

// setUnit stores e as key's entry, growing the table to cover key. A
// downward growth at least doubles the table, so a run of ever lower keys
// copies it only logarithmically often.
func (a *appState) setUnit(key uint64, e *pageEntry) {
	if len(a.units) == 0 {
		a.unitBase = key
	} else if key < a.unitBase {
		shift := min(max(a.unitBase-key, uint64(len(a.units))), a.unitBase)
		a.units = append(make([]*pageEntry, shift, shift+uint64(len(a.units))), a.units...)
		a.unitBase -= shift
	}
	// Grow one slot at a time: append(units, make(...)...) allocates the
	// temporary slice when the race detector disables that optimisation.
	for uint64(len(a.units)) <= key-a.unitBase {
		a.units = append(a.units, nil)
	}
	a.units[key-a.unitBase] = e
}

type emergencyEntry struct {
	asid vmem.ASID
	va   vmem.VirtAddr // large-aligned region base
}

// System is one configured GPU memory manager: allocation policy, page
// tables, demand paging, and (for Mosaic) the In-Place Coalescer and CAC.
// It is single-goroutine, driven by the simulator's event loop.
type System struct {
	cfg config.Config
	opt Options
	q   *event.Queue
	bus *iobus.Bus
	mem *dram.DRAM

	pool     *alloc.Pool
	cocoa    *alloc.CoCoA
	baseline *alloc.Baseline

	apps   []*appState // indexed by ASID; nil for unregistered ids
	ptNext vmem.PhysAddr
	ptEnd  vmem.PhysAddr

	// coalesced tracks which large frames currently back a coalesced
	// region (their free slots are locked until splintered).
	coalesced map[int]bool
	emergency []emergencyEntry
	onEmerg   map[uint64]bool // regions already parked, keyed by packed id
	// taken is splinterAndCompact's scratch, one set per frame of the
	// slots promised to the pages it plans to move; empty between calls.
	taken []alloc.SlotSet

	// pager runs demand paging; it bounds GPU residency when
	// MaxResidentPages is set. Nil when the I/O bus is disabled: every
	// page is resident up front.
	pager *pager

	stallUntil uint64
	stats      Stats
	trace      *trace.Recorder

	flushLargeEntry func(asid vmem.ASID, va vmem.VirtAddr)
	flushBaseEntry  func(asid vmem.ASID, va vmem.VirtAddr)
	flushAll        func()
}

// NewSystem builds a manager. bus and mem may be shared with the rest of
// the simulator; q drives all deferred completions.
func NewSystem(cfg config.Config, opt Options, q *event.Queue, bus *iobus.Bus, mem *dram.DRAM) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Reserve the top of DRAM for page-table nodes.
	reserve := uint64(64 << 20)
	if reserve > cfg.TotalDRAMBytes/4 {
		reserve = vmem.AlignUp(cfg.TotalDRAMBytes/4, vmem.LargePageSize)
	}
	usable := vmem.AlignDown(cfg.TotalDRAMBytes-reserve, vmem.LargePageSize)
	frames := int(usable / vmem.LargePageSize)
	if frames < 1 {
		return nil, errors.New("core: DRAM too small for one large frame")
	}
	pool, err := newPool(frames, cfg.MemoryPartitons)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:             cfg,
		opt:             opt,
		q:               q,
		bus:             bus,
		mem:             mem,
		pool:            pool,
		ptNext:          vmem.PhysAddr(usable),
		ptEnd:           vmem.PhysAddr(cfg.TotalDRAMBytes),
		coalesced:       make(map[int]bool),
		onEmerg:         make(map[uint64]bool),
		flushLargeEntry: func(vmem.ASID, vmem.VirtAddr) {},
		flushBaseEntry:  func(vmem.ASID, vmem.VirtAddr) {},
		flushAll:        func() {},
	}
	switch opt.Allocator {
	case AllocCoCoA:
		s.cocoa = alloc.NewCoCoA(pool)
	default:
		s.baseline = alloc.NewBaseline(pool)
	}
	if cfg.IOBusEnabled {
		s.pager = newPager(s)
	}
	return s, nil
}

// newPool builds a pool of n large frames at address 0, indexed by the
// DRAM channels of a memory with the given number of them, for CAC's
// free-slot search (alloc.Pool.FindFree).
func newPool(n, channels int) (*alloc.Pool, error) {
	pool, err := alloc.NewPool(0, n)
	if err != nil {
		return nil, err
	}
	pool.IndexChannels(channels, func(pa vmem.PhysAddr) int { return dram.Channel(pa, channels) })
	return pool, nil
}

// Clone returns a deep copy of the manager for a forked simulator, wired
// to the fork's event queue, I/O bus, and DRAM model. It requires the
// manager to be quiescent: no queued, in-flight, or draining pager
// entries, since all of those hold completion closures bound to the
// source; Clone panics otherwise. Frame pool, allocator free lists (in
// order), page tables (with node addresses preserved), residency tables,
// pager recency, and all counters are duplicated so the fork continues
// bit-for-bit where the source stopped. The clone starts with no trace
// recorder and no-op flush hooks — the forked simulator must rebind both
// (SetTrace, SetFlushHooks) before running.
func (s *System) Clone(q *event.Queue, bus *iobus.Bus, mem *dram.DRAM) *System {
	ns := &System{
		cfg:             s.cfg,
		opt:             s.opt,
		q:               q,
		bus:             bus,
		mem:             mem,
		pool:            s.pool.Clone(),
		apps:            make([]*appState, len(s.apps)),
		ptNext:          s.ptNext,
		ptEnd:           s.ptEnd,
		coalesced:       maps.Clone(s.coalesced),
		onEmerg:         maps.Clone(s.onEmerg),
		emergency:       append([]emergencyEntry(nil), s.emergency...),
		stallUntil:      s.stallUntil,
		stats:           s.stats,
		flushLargeEntry: func(vmem.ASID, vmem.VirtAddr) {},
		flushBaseEntry:  func(vmem.ASID, vmem.VirtAddr) {},
		flushAll:        func() {},
	}
	if s.cocoa != nil {
		ns.cocoa = s.cocoa.Clone(ns.pool)
	}
	if s.baseline != nil {
		ns.baseline = s.baseline.Clone(ns.pool)
	}
	for asid, a := range s.apps {
		if a == nil {
			continue
		}
		ns.apps[asid] = &appState{
			table:         a.table.Clone(ns.allocPTNode),
			liveBytes:     a.liveBytes,
			pagesPerFrame: maps.Clone(a.pagesPerFrame),
		}
	}
	if s.pager != nil {
		ns.pager = s.pager.clone(ns)
	}
	return ns
}

// Name returns the policy name.
func (s *System) Name() string { return s.opt.Policy.String() }

// Pool exposes the physical frame pool (for harness inspection and
// fragmentation seeding before any allocation).
func (s *System) Pool() *alloc.Pool { return s.pool }

// RebuildFreeLists re-derives allocator free lists from the pool; call it
// after Pool().PreFragment. Allocator counters survive the rebuild. The
// baseline allocator needs no rebuild: it keeps no derived free lists —
// every AllocBase scans the pool itself, so pre-fragmented slots are
// already visible to it.
func (s *System) RebuildFreeLists() {
	if s.cocoa != nil {
		stats := s.cocoa.Stats()
		s.cocoa = alloc.NewCoCoA(s.pool)
		s.cocoa.RestoreStats(stats)
	}
}

// Stats returns a snapshot of manager counters.
func (s *System) Stats() Stats { return s.stats }

// AllocatorStats returns the underlying allocator's counters.
func (s *System) AllocatorStats() alloc.Stats {
	if s.cocoa != nil {
		return s.cocoa.Stats()
	}
	return s.baseline.Stats()
}

// TranslationBypass reports whether the simulator should treat every
// translation as an L1 TLB hit (Ideal TLB configuration).
func (s *System) TranslationBypass() bool { return s.opt.Bypass }

// StallUntil returns the cycle until which the whole GPU is stalled by a
// management operation (the worst-case CAC model of §5).
func (s *System) StallUntil() uint64 { return s.stallUntil }

// SetTrace attaches an event recorder; nil disables tracing.
func (s *System) SetTrace(r *trace.Recorder) { s.trace = r }

// SetFlushHooks registers the TLB shootdown callbacks. Each hook must
// flush the matching entries in every L1 TLB and the shared L2 TLB.
func (s *System) SetFlushHooks(large, base func(vmem.ASID, vmem.VirtAddr), all func()) {
	if large != nil {
		s.flushLargeEntry = large
	}
	if base != nil {
		s.flushBaseEntry = base
	}
	if all != nil {
		s.flushAll = all
	}
}

// RegisterApp creates the protection domain for one application.
func (s *System) RegisterApp(asid vmem.ASID) error {
	if asid == vmem.RuntimeASID {
		return errors.New("core: ASID 0 is reserved for the runtime")
	}
	if _, err := s.app(asid); err == nil {
		return fmt.Errorf("core: ASID %d already registered", asid)
	}
	if n := int(asid) + 1; n > len(s.apps) {
		s.apps = append(s.apps, make([]*appState, n-len(s.apps))...)
	}
	s.apps[asid] = &appState{
		table:         pagetable.New(asid, s.allocPTNode),
		pagesPerFrame: make(map[int]int),
	}
	return nil
}

func (s *System) allocPTNode() vmem.PhysAddr {
	a := s.ptNext
	if a+vmem.BasePageSize > s.ptEnd {
		panic("core: page-table reservation exhausted")
	}
	s.ptNext += vmem.BasePageSize
	return a
}

func (s *System) app(asid vmem.ASID) (*appState, error) {
	if int(asid) < len(s.apps) && s.apps[asid] != nil {
		return s.apps[asid], nil
	}
	return nil, fmt.Errorf("core: ASID %d not registered", asid)
}

// ---- walker.TableSet ----

// WalkAddrs implements walker.TableSet. An unknown ASID appends nothing.
func (s *System) WalkAddrs(dst []vmem.PhysAddr, asid vmem.ASID, va vmem.VirtAddr) []vmem.PhysAddr {
	a, err := s.app(asid)
	if err != nil {
		return dst
	}
	return a.table.WalkAddrs(dst, va)
}

// Translate implements walker.TableSet.
func (s *System) Translate(asid vmem.ASID, va vmem.VirtAddr) (pagetable.Translation, bool) {
	a, err := s.app(asid)
	if err != nil {
		return pagetable.Translation{}, false
	}
	return a.table.Translate(va)
}

// ---- allocation ----

// AllocVirtual performs the en-masse allocation of [va, va+size) for asid
// at the given cycle: physical frames are assigned (contiguously, under
// CoCoA), page tables are populated, and — per the coalescing mode —
// fully covered aligned 2MB regions are promoted to large pages
// immediately. With demand paging enabled the pages start non-resident.
func (s *System) AllocVirtual(now uint64, asid vmem.ASID, va vmem.VirtAddr, size uint64) error {
	a, err := s.app(asid)
	if err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	start := va.BasePageBase()
	end := vmem.VirtAddr(vmem.AlignUp(uint64(va)+size, vmem.BasePageSize))
	a.liveBytes += uint64(end - start)
	s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvAlloc, ASID: asid, VA: start, Size: uint64(end - start)})

	cur := start
	for cur < end {
		regionEnd := cur.LargePageBase() + vmem.LargePageSize
		fullRegion := cur.IsLargeAligned() && regionEnd <= end
		switch {
		case s.cocoa != nil && (fullRegion || s.opt.Fault == FaultLarge):
			// The 2MB-only manager backs even partial regions with a
			// whole frame (this is where its memory bloat comes from).
			if err := s.allocRegion(now, a, asid, cur.LargePageBase()); err != nil {
				if !errors.Is(err, alloc.ErrNoFreeFrames) {
					return err
				}
				// No whole frame available: degrade to base pages.
				if err := s.allocBaseRange(now, a, asid, cur, minVA(regionEnd, end)); err != nil {
					return err
				}
			}
			cur = regionEnd
		default:
			chunkEnd := minVA(regionEnd, end)
			if err := s.allocBaseRange(now, a, asid, cur, chunkEnd); err != nil {
				return err
			}
			cur = chunkEnd
		}
	}
	return nil
}

func minVA(a, b vmem.VirtAddr) vmem.VirtAddr {
	if a < b {
		return a
	}
	return b
}

// allocRegion maps one aligned 2MB region onto one whole large frame and
// coalesces it per the configured mode.
func (s *System) allocRegion(now uint64, a *appState, asid vmem.ASID, regionVA vmem.VirtAddr) error {
	if a.table.MappedInRegion(regionVA) > 0 {
		// Part of the region is already populated (an earlier partial
		// allocation); fall back to filling the gaps with base pages.
		return alloc.ErrNoFreeFrames
	}
	framePA, err := s.cocoa.AllocRegion(asid)
	if errors.Is(err, alloc.ErrNoFreeFrames) {
		s.stats.AllocFallbacks++
		s.recoverFrames(now, asid)
		framePA, err = s.cocoa.AllocRegion(asid)
	}
	if err != nil {
		return err
	}
	ref, _ := s.pool.RefOf(framePA)
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := a.table.Map(regionVA+vmem.VirtAddr(off), framePA+off); err != nil {
			return err
		}
	}
	a.pagesPerFrame[ref.Frame] += vmem.BasePagesPerLarge
	s.maybeCoalesce(now, a, asid, regionVA, ref.Frame)
	return nil
}

// allocBaseRange maps [cur, endVA) one base page at a time.
func (s *System) allocBaseRange(now uint64, a *appState, asid vmem.ASID, cur, endVA vmem.VirtAddr) error {
	for ; cur < endVA; cur += vmem.BasePageSize {
		pa, err := s.allocBasePage(now, asid)
		if err != nil {
			return err
		}
		if err := a.table.Map(cur, pa); err != nil {
			return err
		}
		if ref, ok := s.pool.RefOf(pa); ok {
			a.pagesPerFrame[ref.Frame]++
		}
	}
	return nil
}

func (s *System) allocBasePage(now uint64, asid vmem.ASID) (vmem.PhysAddr, error) {
	if s.baseline != nil {
		return s.baseline.AllocBase(asid)
	}
	pa, err := s.cocoa.AllocBase(asid)
	if errors.Is(err, alloc.ErrNoFreeFrames) {
		s.stats.AllocFallbacks++
		s.recoverFrames(now, asid)
		pa, err = s.cocoa.AllocBase(asid)
		if errors.Is(err, alloc.ErrNoFreeFrames) {
			pa, err = s.cocoa.AllocScavenge(asid)
		}
	}
	return pa, err
}

// maybeCoalesce runs the In-Place Coalescer (or its migrating ablation)
// on a fully-allocated region.
func (s *System) maybeCoalesce(now uint64, a *appState, asid vmem.ASID, regionVA vmem.VirtAddr, frameIdx int) {
	if s.opt.Coalesce == CoalesceOff {
		return
	}
	s.stats.CoalesceAttempts++
	if ok, _ := a.table.CanCoalesce(regionVA); !ok {
		return
	}
	if s.opt.Coalesce == CoalesceMigrate {
		s.migrateCoalesceCost(now)
	}
	if err := a.table.Coalesce(regionVA); err != nil {
		return
	}
	s.coalesced[frameIdx] = true
	s.stats.Coalesces++
	s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvCoalesce, ASID: asid, VA: regionVA, Size: vmem.LargePageSize})
	if s.opt.FlushOnCoalesce || s.opt.Coalesce == CoalesceMigrate {
		s.flushAll()
	}
}

// migrateCoalesceCost models the conventional coalescer of Fig. 6a: the
// 512 base pages are copied into a fresh large frame over the narrow
// DRAM channel interface and the TLB flush stalls the SMs.
func (s *System) migrateCoalesceCost(now uint64) {
	last := now
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		pa := vmem.PhysAddr(i * vmem.BasePageSize)
		if fin := s.mem.CopyPageNarrow(now, pa, pa, nil); fin > last {
			last = fin
		}
	}
	s.stall(last)
	s.stats.MigratedPages += vmem.BasePagesPerLarge
}

func (s *System) stall(until uint64) {
	if until > s.stallUntil {
		s.stats.StallCycles += until - s.stallUntil
		s.stallUntil = until
	}
}

// ---- demand paging ----

func (s *System) faultKey(va vmem.VirtAddr) uint64 {
	if s.opt.Fault == FaultLarge {
		return va.LargePageNumber()
	}
	return va.BasePageNumber()
}

// IsResident reports whether the data backing va is in GPU memory.
func (s *System) IsResident(asid vmem.ASID, va vmem.VirtAddr) bool {
	if s.pager == nil {
		return true
	}
	a, err := s.app(asid)
	if err != nil {
		return false
	}
	e := a.unit(s.faultKey(va))
	return e != nil && e.state == pageResident
}

// EnsureResident triggers a far-fault for va's page if its data is not
// yet in GPU memory. It returns true when the page is already resident
// (done is not called); otherwise done fires when the I/O bus transfer
// completes. Concurrent faults for one page coalesce into one transfer.
func (s *System) EnsureResident(now uint64, asid vmem.ASID, va vmem.VirtAddr, done func(cycle uint64)) bool {
	if s.pager == nil {
		return true
	}
	a, err := s.app(asid)
	if err != nil {
		return true
	}
	return s.pager.ensureResident(now, a, asid, va, done)
}

// ---- deallocation & CAC ----

// FreeVirtual deallocates [va, va+size) for asid at the given cycle,
// releasing physical frames and — under Mosaic — running CAC on coalesced
// regions whose live-page count drops below the threshold (§4.4).
func (s *System) FreeVirtual(now uint64, asid vmem.ASID, va vmem.VirtAddr, size uint64) error {
	a, err := s.app(asid)
	if err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	start := va.BasePageBase()
	end := vmem.VirtAddr(vmem.AlignUp(uint64(va)+size, vmem.BasePageSize))
	s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvFree, ASID: asid, VA: start, Size: uint64(end - start)})
	if freed := uint64(end - start); freed < a.liveBytes {
		a.liveBytes -= freed
	} else {
		a.liveBytes = 0
	}

	// Track coalesced regions touched, with the backing frame index and
	// the slots freed while locked.
	type regionInfo struct {
		frameIdx int
		locked   []alloc.PageRef
	}
	regions := make(map[vmem.VirtAddr]*regionInfo)

	for cur := start; cur < end; cur += vmem.BasePageSize {
		tr, ok := a.table.BaseTranslate(cur)
		if !ok {
			continue // already free
		}
		pa := tr.Frame
		wasCoalesced := a.table.IsCoalesced(cur)
		if err := a.table.Unmap(cur); err != nil {
			return err
		}
		if ref, ok := s.pool.RefOf(pa); ok {
			a.pagesPerFrame[ref.Frame]--
			if a.pagesPerFrame[ref.Frame] == 0 {
				delete(a.pagesPerFrame, ref.Frame)
			}
			if wasCoalesced {
				// Locked free: stays unavailable until splinter.
				if err := s.pool.FreeSlot(ref); err != nil {
					return err
				}
				ri := regions[cur.LargePageBase()]
				if ri == nil {
					ri = &regionInfo{frameIdx: ref.Frame}
					regions[cur.LargePageBase()] = ri
				}
				ri.locked = append(ri.locked, ref)
			} else {
				if err := s.freePhysical(pa); err != nil {
					return err
				}
			}
		}
		if s.opt.Fault != FaultLarge && s.pager != nil {
			s.pager.release(a, cur.BasePageNumber())
		}
	}

	for regionVA, ri := range regions {
		s.handleShrunkRegion(now, a, asid, regionVA, ri.frameIdx, ri.locked)
		if s.opt.Fault == FaultLarge && s.pager != nil && a.table.MappedInRegion(regionVA) == 0 {
			s.pager.release(a, regionVA.LargePageNumber())
		}
	}
	return nil
}

func (s *System) freePhysical(pa vmem.PhysAddr) error {
	if s.cocoa != nil {
		return s.cocoa.Free(pa)
	}
	return s.baseline.Free(pa)
}

// mustReturnFrame hands an emptied frame back to CoCoA. The callers all
// verify the frame drained first, so a rejection means allocator state
// corrupted — the same class of unreachable condition as page-table
// reservation exhaustion above.
func (s *System) mustReturnFrame(fi int) {
	if err := s.cocoa.ReturnFrame(fi); err != nil {
		panic("core: " + err.Error())
	}
}

// handleShrunkRegion applies the CAC policy after deallocations inside a
// coalesced region.
func (s *System) handleShrunkRegion(now uint64, a *appState, asid vmem.ASID, regionVA vmem.VirtAddr, frameIdx int, locked []alloc.PageRef) {
	remaining := a.table.MappedInRegion(regionVA)
	if remaining == 0 {
		// Whole region gone: splinter and recycle the frame.
		s.splinterRegion(now, a, asid, regionVA, frameIdx)
		if s.cocoa != nil && s.pool.Frame(frameIdx).Count == 0 {
			s.mustReturnFrame(frameIdx)
		}
		return
	}
	if s.opt.CAC == CACOff {
		// No compaction support (e.g. 2MB-only manager): splinter so the
		// freed slots become legal to reuse, releasing them to the owner.
		s.splinterRegion(now, a, asid, regionVA, frameIdx)
		if s.cocoa != nil {
			s.cocoa.ReleaseSlots(asid, locked)
		}
		return
	}
	threshold := int(s.opt.CACThreshold * vmem.BasePagesPerLarge)
	if remaining < threshold {
		s.splinterAndCompact(now, a, asid, regionVA, frameIdx)
		return
	}
	// Occupancy still high: park on the emergency frame list.
	key := uint64(asid)<<48 | regionVA.LargePageNumber()
	if !s.onEmerg[key] {
		s.onEmerg[key] = true
		s.emergency = append(s.emergency, emergencyEntry{asid, regionVA})
		s.stats.EmergencyAdds++
	}
}

// splinterRegion splinters a coalesced region and flushes its large-page
// TLB entries (the mandatory shootdown of §4.4).
func (s *System) splinterRegion(now uint64, a *appState, asid vmem.ASID, regionVA vmem.VirtAddr, frameIdx int) {
	if !a.table.IsCoalesced(regionVA) {
		return
	}
	if err := a.table.Splinter(regionVA); err != nil {
		return
	}
	delete(s.coalesced, frameIdx)
	s.stats.Splinters++
	s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvSplinter, ASID: asid, VA: regionVA, Size: vmem.LargePageSize})
	s.flushLargeEntry(asid, regionVA)
}

// EmergencyListLen reports the current emergency frame list length.
func (s *System) EmergencyListLen() int { return len(s.emergency) }

// recoverFrames is CoCoA's failsafe (§4.4): when the free-frame list runs
// dry, first try compacting fragmented frames to free one, then splinter
// a frame from the emergency list so its unallocated base pages become
// usable.
func (s *System) recoverFrames(now uint64, asid vmem.ASID) {
	if s.opt.CAC == CACOff {
		return
	}
	if s.compactFragmented(now) {
		return
	}
	for len(s.emergency) > 0 {
		e := s.emergency[0]
		s.emergency = s.emergency[1:]
		delete(s.onEmerg, uint64(e.asid)<<48|e.va.LargePageNumber())
		a, err := s.app(e.asid)
		if err != nil || !a.table.IsCoalesced(e.va) {
			continue
		}
		frameIdx, ok := s.regionFrame(a, e.va)
		if !ok {
			continue
		}
		s.splinterRegion(now, a, e.asid, e.va, frameIdx)
		s.releaseFreeSlots(e.asid, frameIdx)
		s.stats.EmergencySplinters++
		return
	}
}

// releaseFreeSlots hands every unallocated slot of a just-splintered
// frame to its owner's CoCoA free list.
func (s *System) releaseFreeSlots(asid vmem.ASID, frameIdx int) {
	var free []alloc.PageRef
	f := s.pool.Frame(frameIdx)
	for slot := f.NextFree(0); slot >= 0; slot = f.NextFree(slot + 1) {
		free = append(free, alloc.PageRef{Frame: frameIdx, Slot: slot})
	}
	s.cocoa.ReleaseSlots(asid, free)
}

// regionFrame resolves the large frame backing a mapped region.
func (s *System) regionFrame(a *appState, regionVA vmem.VirtAddr) (int, bool) {
	m := a.table.RegionMappings(regionVA)
	for i := range m {
		if m[i].Valid {
			ref, ok := s.pool.RefOf(m[i].Frame)
			return ref.Frame, ok
		}
	}
	return 0, false
}

// ---- accounting ----

// LiveBytes returns the bytes currently allocated (not yet freed) by the
// application's own requests.
func (s *System) LiveBytes(asid vmem.ASID) uint64 {
	a, err := s.app(asid)
	if err != nil {
		return 0
	}
	return a.liveBytes
}

// FootprintBytes returns the physical memory effectively reserved for the
// application: whole large frames it owns under the soft guarantee, plus
// 4KB per page it holds inside frames it does not own.
func (s *System) FootprintBytes(asid vmem.ASID) uint64 {
	a, err := s.app(asid)
	if err != nil {
		return 0
	}
	var total uint64
	for frameIdx, pages := range a.pagesPerFrame {
		if s.cocoa != nil && s.pool.Frame(frameIdx).Owner == asid {
			total += vmem.LargePageSize
		} else {
			total += uint64(pages) * vmem.BasePageSize
		}
	}
	return total
}

// BloatPct returns the memory-bloat percentage: footprint over live
// requested bytes, minus one. Zero when nothing is live.
func (s *System) BloatPct(asid vmem.ASID) float64 {
	live := s.LiveBytes(asid)
	if live == 0 {
		return 0
	}
	fp := s.FootprintBytes(asid)
	if fp <= live {
		return 0
	}
	return (float64(fp)/float64(live) - 1) * 100
}
