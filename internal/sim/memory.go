package sim

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/pagetable"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// The per-lane memory path (translate, ensure residency, data access) is
// the simulator's hottest code: it runs once per lane per memory
// instruction. It used to build a chain of nested closures per lane —
// several heap allocations each — so the path is now a pooled state
// machine: a memReq carries the lane through its pipeline stages
// (l2Lookup → walkDone → translated → resident → complete), with each
// stage's callback bound once when the object is first created and reused
// across the object's pool lifetime. A req is released back to the pool
// exactly when complete fires, after which none of its callbacks are
// registered anywhere, so reuse can never resurrect a stale registration.
type memReq struct {
	s         *Simulator
	m         *sm
	w         *warp
	asid      vmem.ASID
	va        vmem.VirtAddr
	pa        vmem.PhysAddr
	walkStart uint64

	// Callbacks pre-bound to this object (allocated once per pooled
	// object, not per access).
	l2LookupFn event.Func
	walkDoneFn func(cycle uint64, tr pagetable.Translation, ok bool)
	residentFn func(cycle uint64)
	completeFn func(cycle uint64)
}

// acquireReq pops a request from the pool (or builds one, binding its
// stage callbacks) and initializes it for one lane access.
func (s *Simulator) acquireReq(m *sm, w *warp, va vmem.VirtAddr) *memReq {
	var r *memReq
	if n := len(s.reqFree); n > 0 {
		r = s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
	} else {
		r = &memReq{s: s}
		r.l2LookupFn = r.l2Lookup
		r.walkDoneFn = r.walkDone
		r.residentFn = r.resident
		r.completeFn = r.complete
	}
	r.m, r.w, r.va, r.asid = m, w, va, m.app.asid
	return r
}

// fillReq is the pooled "complete this cache miss" callback used for L1
// and L2 line fills, replacing a per-miss closure over (cache, pa). Its
// fn fires exactly once per acquire, releasing the object before invoking
// CompleteMiss so synchronous completion cascades can reuse it.
type fillReq struct {
	s  *Simulator
	c  *cache.Cache
	pa vmem.PhysAddr
	fn event.Func
}

func (s *Simulator) acquireFill(c *cache.Cache, pa vmem.PhysAddr) *fillReq {
	var f *fillReq
	if n := len(s.fillFree); n > 0 {
		f = s.fillFree[n-1]
		s.fillFree = s.fillFree[:n-1]
	} else {
		f = &fillReq{s: s}
		f.fn = f.fill
	}
	f.c, f.pa = c, pa
	return f
}

func (f *fillReq) fill(cycle uint64) {
	c, pa := f.c, f.pa
	f.c = nil
	f.s.fillFree = append(f.s.fillFree, f)
	c.CompleteMiss(pa, cycle)
}

// pwcFill is the pooled "fill the page-walk cache, then continue the
// walk" callback for a PTE read that missed the PWC. Like fillReq, its fn
// fires exactly once per acquire and releases the object first.
type pwcFill struct {
	s     *Simulator
	addr  vmem.PhysAddr
	inner func(cycle uint64)
	fn    event.Func
}

func (s *Simulator) acquirePWCFill(addr vmem.PhysAddr, inner func(cycle uint64)) *pwcFill {
	var f *pwcFill
	if n := len(s.pwcFillFree); n > 0 {
		f = s.pwcFillFree[n-1]
		s.pwcFillFree = s.pwcFillFree[:n-1]
	} else {
		f = &pwcFill{s: s}
		f.fn = f.fill
	}
	f.addr, f.inner = addr, inner
	return f
}

func (f *pwcFill) fill(cycle uint64) {
	addr, inner := f.addr, f.inner
	f.inner = nil
	f.s.pwcFillFree = append(f.s.pwcFillFree, f)
	f.s.pwc.Fill(addr)
	inner(cycle)
}

// accessPTE is the page-table read path when PTWalkCached is false: it
// contends for the L2 ports like any access but always fetches from DRAM,
// modeling page tables that do not stay resident in the thrashed L2 (the
// unscaled-working-set behavior; see DESIGN.md §5).
func (s *Simulator) accessPTE(now uint64, pa vmem.PhysAddr, done func(cycle uint64)) {
	start := s.l2cGate.Admit(now)
	l2Lat := uint64(s.cfg.L2CacheLatency)
	s.mem.Enqueue(start+l2Lat, dram.Request{Addr: pa, Done: done})
}

// memInstr performs one lane-group memory access for warp w: translate,
// ensure residency (demand paging), then the data access through the
// cache hierarchy. The warp's outstanding count is decremented when the
// data arrives; w.outstanding must already cover this lane.
//
// The translate stage runs inline: L1 TLB (large then base) resolves
// synchronously; on a miss the request is handed to the L2 TLB via the
// port gate, and onward to the shared walker.
func (s *Simulator) memInstr(m *sm, w *warp, va vmem.VirtAddr) {
	r := s.acquireReq(m, w, va)
	now := s.cycle
	l1Lat := uint64(s.cfg.L1TLBLatency)

	if s.mgr.TranslationBypass() {
		tr, ok := s.mgr.Translate(r.asid, va)
		s.l1Req++
		s.l1Hit++
		r.translated(now+l1Lat, tr.PhysOf(va), ok)
		return
	}

	// L1 TLB: large-page entries first (§4.3), then base.
	s.l1Req++
	if frame, ok := m.l1tlb.LookupLarge(r.asid, va); ok {
		s.l1Hit++
		r.translated(now+l1Lat, frame+vmem.PhysAddr(uint64(va)&(vmem.LargePageSize-1)), true)
		return
	}
	if frame, ok := m.l1tlb.LookupBase(r.asid, va); ok {
		s.l1Hit++
		r.translated(now+l1Lat, frame+vmem.PhysAddr(va.PageOffset()), true)
		return
	}

	// Shared L2 TLB: port contention then lookup latency.
	start := s.l2gate.Admit(now + l1Lat)
	s.q.Schedule(start+uint64(s.cfg.L2TLBLatency), r.l2LookupFn)
}

// l2Lookup is the request's L2 TLB stage: lookup (large then base), then
// a page table walk on a miss.
func (r *memReq) l2Lookup(c uint64) {
	s, m, asid, va := r.s, r.m, r.asid, r.va
	s.l2Req++
	if frame, ok := s.l2tlb.LookupLarge(asid, va); ok {
		s.l2Hit++
		m.l1tlb.InsertLarge(asid, va, frame)
		r.translated(c, frame+vmem.PhysAddr(uint64(va)&(vmem.LargePageSize-1)), true)
		return
	}
	if frame, ok := s.l2tlb.LookupBase(asid, va); ok {
		s.l2Hit++
		m.l1tlb.InsertBase(asid, va, frame)
		r.translated(c, frame+vmem.PhysAddr(va.PageOffset()), true)
		return
	}
	r.walkStart = c
	s.walker.Walk(c, asid, va, r.walkDoneFn)
}

// walkDone is the request's page-table-walk completion stage.
func (r *memReq) walkDone(c uint64, tr pagetable.Translation, ok bool) {
	s, m, asid, va := r.s, r.m, r.asid, r.va
	s.rec.Record(trace.Event{
		Cycle: c, Kind: trace.EvWalk, ASID: asid,
		VA: va.BasePageBase(), Latency: c - r.walkStart,
	})
	if !ok {
		r.translated(c, 0, false)
		return
	}
	if tr.Size == vmem.Large {
		s.l2tlb.InsertLarge(asid, va, tr.Frame)
		m.l1tlb.InsertLarge(asid, va, tr.Frame)
	} else {
		s.l2tlb.InsertBase(asid, va, tr.Frame)
		m.l1tlb.InsertBase(asid, va, tr.Frame)
	}
	r.translated(c, tr.PhysOf(va), true)
}

// translated receives the translation result and moves the request to the
// residency stage (demand paging) or, on a fault, completes the lane.
func (r *memReq) translated(c uint64, pa vmem.PhysAddr, ok bool) {
	if !ok {
		r.s.trFaults++
		r.complete(c)
		return
	}
	r.pa = pa
	if r.s.mgr.EnsureResident(c, r.asid, r.va, r.residentFn) {
		r.resident(c)
	}
}

// resident runs the physical access through the SM's L1 cache, the shared
// L2, and DRAM, with MSHR coalescing at both cache levels.
func (r *memReq) resident(c uint64) {
	s, m, pa := r.s, r.m, r.pa
	l1Lat := uint64(s.cfg.L1CacheLatency)
	if m.l1cache.Lookup(pa) {
		r.complete(c + l1Lat)
		return
	}
	if first := m.l1cache.TrackMiss(pa, r.completeFn); first {
		s.accessL2(c+l1Lat, pa, s.acquireFill(m.l1cache, pa).fn)
	}
}

// complete fires when the lane's data arrives: it retires the lane on the
// warp and releases the request to the pool. By construction every other
// callback of this request has already fired (each stage hands off to
// exactly one successor), so pool reuse is safe.
func (r *memReq) complete(c uint64) {
	m, w := r.m, r.w
	r.m, r.w = nil, nil
	r.s.reqFree = append(r.s.reqFree, r)
	w.outstanding--
	if w.outstanding == 0 {
		w.state = warpReady
		m.wakeAdd(w.idx, c+1)
		w.retired++
		w.computeLeft = m.app.computePerMem + w.jitter()
	}
}

// accessL2 runs an access through the shared L2 cache and DRAM. It is
// also the walker's memory path (page table reads hit the L2 like data),
// so walk traffic competes with data traffic for the banked L2 ports.
func (s *Simulator) accessL2(now uint64, pa vmem.PhysAddr, done func(cycle uint64)) {
	start := s.l2cGate.Admit(now)
	l2Lat := uint64(s.cfg.L2CacheLatency)
	if s.l2c.Lookup(pa) {
		s.q.Schedule(start+l2Lat, done)
		return
	}
	if first := s.l2c.TrackMiss(pa, done); first {
		s.mem.Enqueue(start+l2Lat, dram.Request{Addr: pa, Done: s.acquireFill(s.l2c, pa).fn})
	}
}
