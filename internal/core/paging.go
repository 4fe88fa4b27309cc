package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/vmem"
)

// This file implements demand paging: data starts in a host/CXL remote
// tier and far-faults across the I/O bus on first touch. When
// Config.MaxResidentPages caps how many 4KB base pages may live in GPU
// memory at once, faults beyond the budget evict least-recently-used
// victims (first-faulted ones under FIFO-MMU) back to the remote tier.
// Victim granularity follows the manager's fault granularity — 4KB pages
// for the GPU-MMU baseline and Mosaic, whole 2MB frames for the 2MB-only
// manager (and for Mosaic when the victim belongs to a coalesced region,
// the thrash-amplification case the paper gestures at in §3.2). Dirty pages write back over the
// bus before their frame can be reused; the bus is FIFO, so a page-in
// issued after a write-back queues behind it and the outbound data is on
// the host before the inbound data lands. Evicted pages re-fault at bus
// latency.
//
// Residency is admission-controlled: a fault that cannot fit — even after
// evicting every resident victim — joins a FIFO fault queue and is
// admitted as in-flight transfers land and their pages become evictable.
// Memory therefore never holds more than the budget; warps simply wait
// longer when the pool is saturated, as they would behind a real GPU's
// fault queue.

// pageState is the lifecycle of one paged unit (a base page or, under
// 2MB fault granularity, a whole large page).
type pageState uint8

const (
	// pageRemote: data lives in the host tier; a touch far-faults.
	pageRemote pageState = iota
	// pageQueued: a fault is waiting for pool capacity; touches coalesce.
	pageQueued
	// pagePendingIn: a fault transfer is in flight; touches coalesce.
	pagePendingIn
	// pageResident: data is in GPU memory.
	pageResident
	// pagePendingOut: evicted dirty data is still draining to the host.
	pagePendingOut
)

// pageEntry is the pager's record of one paged unit. While resident
// under a bounded pool it is linked into the pager's residency queue
// through its own prev/next fields, so queue operations never allocate.
type pageEntry struct {
	// The narrow fields come first, so they share one word.
	asid  vmem.ASID
	state pageState
	dirty bool
	// evicted marks entries that left GPU memory at least once, so their
	// next fault counts as a refault.
	evicted bool
	// freed marks entries whose virtual range was deallocated while a
	// transfer was still in flight; the completion must not resurrect
	// them (their budget was already released).
	freed   bool
	key     uint64 // faultKey: base or large page number
	va      vmem.VirtAddr
	pages   uint64 // base pages covered: 1, or 512 under FaultLarge
	waiters []func(uint64)
	// Intrusive residency-queue links (only meaningful while resident).
	prev, next *pageEntry
}

// residencyQueue is the victim order of a bounded pager: an intrusive
// doubly linked list of resident entries around a sentinel. Entries join
// at the front and the victim is the back; under LRU a touch moves its
// entry back to the front, under FIFO it leaves it in place. The zero
// value is empty; a queue must not be copied after first use.
type residencyQueue struct {
	sent pageEntry
}

// pushFront links e at the front of the queue.
func (q *residencyQueue) pushFront(e *pageEntry) {
	if q.sent.next == nil {
		q.sent.next, q.sent.prev = &q.sent, &q.sent
	}
	e.prev = &q.sent
	e.next = q.sent.next
	e.prev.next = e
	e.next.prev = e
}

// remove unlinks e; entries that are not linked are ignored.
func (q *residencyQueue) remove(e *pageEntry) {
	if e.prev == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// back returns the victim, the last entry, or nil when the queue is
// empty. It only reads the queue (a never-used queue's links are nil),
// so concurrent forks may clone one source pager.
func (q *residencyQueue) back() *pageEntry {
	if q.sent.prev == &q.sent {
		return nil
	}
	return q.sent.prev
}

// cloneInto links remap(e) into the empty queue dst for every entry e of
// q, in q's order, so dst yields the same victims as q.
func (q *residencyQueue) cloneInto(dst *residencyQueue, remap func(*pageEntry) *pageEntry) {
	for e := q.back(); e != nil && e != &q.sent; e = e.prev {
		dst.pushFront(remap(e))
	}
}

// pager moves every paged unit between the remote tier and GPU memory.
// The System builds one whenever demand paging is on; its entries live in
// the owning appState's residency table.
type pager struct {
	s *System
	// budget is MaxResidentPages in base pages when residency is bounded;
	// math.MaxUint64 otherwise, so no fault waits and nothing is evicted.
	budget uint64
	used   uint64 // base pages resident or committed to pending faults
	// queued is the FIFO admission queue of faults waiting for capacity.
	queued []*pageEntry
	// res orders resident entries for victim selection; fifo (the
	// policy's table row) keeps a touch from requeueing its entry.
	res  residencyQueue
	fifo bool

	// waiterFree holds emptied waiter slices. An entry takes one when it
	// faults and gives it back after its waiters fired, so only units
	// with a fault in flight hold a slice.
	waiterFree [][]func(uint64)
	// group is evict's scratch list of the entries one eviction moves.
	group []*pageEntry
	// wbFree pools the records dirty write-backs complete through.
	wbFree []*writeBack
	// landFree pools the records page-ins complete through.
	landFree []*landing
}

// landing is one page-in on its way to GPU memory: the entry it fills,
// and its bus completion bound once per pooled record.
type landing struct {
	p  *pager
	e  *pageEntry
	fn func(uint64)
}

// writeBack is one dirty eviction on its way to the host tier: the
// entries it moves, and its bus completion bound once per pooled record.
type writeBack struct {
	p     *pager
	group []*pageEntry
	fn    func(uint64)
}

// entryChunk is how many entries an app's chunk holds: a first fault
// allocates only when its app's chunk runs out, and a chunk is a few KB.
const entryChunk = 64

// newEntry makes the record of one paged unit of a, carved from a's
// current chunk.
func (a *appState) newEntry(asid vmem.ASID, key, pages uint64) *pageEntry {
	if len(a.spare) == 0 {
		a.spare = make([]pageEntry, entryChunk)
	}
	e := &a.spare[0]
	a.spare = a.spare[1:]
	*e = pageEntry{asid: asid, key: key, pages: pages}
	return e
}

// newPager builds s's pager. The ideal TLB stands in for a system free of
// memory-management limits, so it is exempt from the residency bound. An
// id outside the policy table (a MutateManager may set one) evicts LRU.
func newPager(s *System) *pager {
	r := s.opt.Policy.row()
	p := &pager{s: s, budget: math.MaxUint64, fifo: r != nil && r.fifo}
	if s.cfg.MaxResidentPages > 0 && !s.opt.Bypass {
		p.budget = s.cfg.MaxResidentPages
	}
	return p
}

// bounded reports whether the pager enforces a residency budget.
func (p *pager) bounded() bool { return p.budget != math.MaxUint64 }

// clone deep-copies the pager, with the residency tables of its entries,
// for a forked manager ns whose apps are already cloned. It requires the
// pager to be quiescent — an empty admission queue and no entries in the
// queued/pending-in/pending-out states, since transfers in flight hold
// waiter closures bound to the source simulator — and panics otherwise.
// Entries are duplicated into ns's tables and the residency queue is
// rebuilt over the copies in the exact victim order of the source, so
// the fork's next eviction picks the same victim the source would have.
func (p *pager) clone(ns *System) *pager {
	if len(p.queued) != 0 {
		panic(fmt.Sprintf("core: pager clone with %d queued faults", len(p.queued)))
	}
	np := &pager{s: ns, budget: p.budget, used: p.used, fifo: p.fifo}
	for asid, a := range p.s.apps {
		if a == nil {
			continue
		}
		na := ns.apps[asid]
		na.units, na.unitBase = make([]*pageEntry, len(a.units)), a.unitBase
		for i, e := range a.units {
			if e == nil {
				continue
			}
			switch e.state {
			case pageQueued, pagePendingIn, pagePendingOut:
				panic(fmt.Sprintf("core: pager clone with entry in transient state %d", e.state))
			}
			if len(e.waiters) != 0 {
				panic("core: pager clone with waiters outstanding")
			}
			ne := na.newEntry(e.asid, e.key, e.pages)
			ne.va, ne.state, ne.dirty, ne.evicted, ne.freed = e.va, e.state, e.dirty, e.evicted, e.freed
			na.units[i] = ne
		}
	}
	p.res.cloneInto(&np.res, func(e *pageEntry) *pageEntry {
		return ns.apps[e.asid].unit(e.key)
	})
	return np
}

// touch records an access to the resident entry e: under LRU it moves e
// to the front of the victim order, under FIFO the order stays as e's
// fault left it.
func (p *pager) touch(e *pageEntry) {
	if !p.fifo {
		p.res.remove(e)
		p.res.pushFront(e)
	}
}

// pageDirty deterministically decides whether a page gets written while
// resident (~half do). Keyed by identity, not history, so repeated
// evict/refault cycles of one page behave consistently.
func pageDirty(asid vmem.ASID, key uint64) bool {
	h := (uint64(asid)+1)*0x9E3779B97F4A7C15 + key*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h&1 == 1
}

// ensureResident is the fault path behind System.EnsureResident, with its
// contract: true means already resident (done is not called), false means
// done fires when the page lands.
func (p *pager) ensureResident(now uint64, a *appState, asid vmem.ASID, va vmem.VirtAddr, done func(cycle uint64)) bool {
	s := p.s
	key := s.faultKey(va)
	e := a.unit(key)
	if e != nil {
		switch e.state {
		case pageResident:
			if p.bounded() {
				p.touch(e)
			}
			return true
		case pageQueued, pagePendingIn:
			e.waiters = append(e.waiters, done)
			s.stats.CoalescedFaults++
			return false
		}
		// pageRemote or pagePendingOut: fall through to fault. A fault
		// while the write-back drains is safe — the bus is FIFO, so the
		// page-in transfer queues behind the outbound data.
	} else {
		pages := uint64(1)
		if s.opt.Fault == FaultLarge {
			pages = vmem.BasePagesPerLarge
		}
		e = a.newEntry(asid, key, pages)
		a.setUnit(key, e)
	}
	e.va = va.BasePageBase()
	if e.evicted {
		s.stats.Refaults++
	}
	s.stats.FarFaults++
	if n := len(p.waiterFree); e.waiters == nil && n > 0 {
		e.waiters = p.waiterFree[n-1]
		p.waiterFree = p.waiterFree[:n-1]
	}
	e.waiters = append(e.waiters[:0], done)

	// Admission control: earlier queued faults go first, and a fault that
	// does not fit even after evicting every resident victim waits its
	// turn rather than overcommitting memory.
	if len(p.queued) > 0 {
		e.state = pageQueued
		p.queued = append(p.queued, e)
		return false
	}
	p.ensureCapacity(now, e.pages)
	if p.used+e.pages > p.budget {
		e.state = pageQueued
		p.queued = append(p.queued, e)
		return false
	}
	p.issue(now, e)
	return false
}

// issue commits an admitted fault's budget and puts its transfer on the
// bus. The caller has already verified the pages fit.
func (p *pager) issue(now uint64, e *pageEntry) {
	s := p.s
	p.used += e.pages
	if p.bounded() && p.used > s.stats.PeakResidentPages {
		s.stats.PeakResidentPages = p.used
	}
	e.state = pagePendingIn
	size := vmem.Base
	if s.opt.Fault == FaultLarge {
		size = vmem.Large
	}
	l := p.acquireLanding()
	l.e = e
	fin := s.bus.Transfer(now, size, l.fn)
	s.trace.Record(trace.Event{
		Cycle: now, Kind: trace.EvFarFault, ASID: e.asid,
		VA: e.va, Size: size.Bytes(), Latency: fin - now,
	})
}

// acquireLanding pops a landing record from the pool or builds one.
func (p *pager) acquireLanding() *landing {
	if n := len(p.landFree); n > 0 {
		l := p.landFree[n-1]
		p.landFree = p.landFree[:n-1]
		return l
	}
	l := &landing{p: p}
	l.fn = l.landed
	return l
}

// landed fires when the page-in's data is in GPU memory: the record
// returns to the pool and the entry lands.
func (l *landing) landed(cycle uint64) {
	e := l.e
	l.e = nil
	l.p.landFree = append(l.p.landFree, l)
	l.p.land(e, cycle)
}

// land completes e's page-in: the unit becomes resident (unless its range
// was freed meanwhile), the admission queue gets another chance, and the
// faults waiting on e fire in arrival order.
func (p *pager) land(e *pageEntry, cycle uint64) {
	waiters := e.waiters
	e.waiters = nil
	if !e.freed {
		e.state = pageResident
		e.dirty = pageDirty(e.asid, e.key)
		if p.bounded() { // only a bounded pager ever asks for a victim
			p.res.pushFront(e)
		}
	}
	// The landed page is evictable, so capacity may now exist for
	// faults the admission queue was holding back.
	p.admit(cycle)
	p.fire(waiters, cycle)
}

// fire runs waiters already detached from their entry (so a waiter that
// faults on the entry again starts a fresh list), in order, then returns
// their cleared slice to the pool; it is pooled only now, so no fault can
// take it while it is being read.
func (p *pager) fire(waiters []func(uint64), cycle uint64) {
	for _, w := range waiters {
		if w != nil {
			w(cycle)
		}
	}
	if waiters != nil {
		clear(waiters) // release the callback references
		p.waiterFree = append(p.waiterFree, waiters[:0])
	}
}

// admit drains the fault queue in FIFO order for as long as capacity can
// be made. Every in-flight transfer eventually lands and becomes
// evictable, so the queue always makes progress.
func (p *pager) admit(now uint64) {
	for len(p.queued) > 0 {
		e := p.queued[0]
		if e.freed {
			// The range was deallocated while the fault waited; unblock
			// its warps without moving any data.
			p.queued = p.queued[1:]
			waiters := e.waiters
			e.waiters = nil
			p.fire(waiters, now)
			continue
		}
		p.ensureCapacity(now, e.pages)
		if p.used+e.pages > p.budget {
			return
		}
		p.queued = p.queued[1:]
		p.issue(now, e)
	}
}

// ensureCapacity evicts policy-selected victims until pages more base
// pages fit in the budget, stopping early when nothing is resident.
func (p *pager) ensureCapacity(now uint64, pages uint64) {
	for p.used+pages > p.budget {
		victim := p.res.back()
		if victim == nil {
			return // nothing resident to evict
		}
		p.evict(now, victim)
	}
}

// evict pushes one policy-selected victim out of GPU memory. Under
// base-page fault granularity a victim inside a coalesced Mosaic region
// takes its whole 2MB frame with it: the frame's pages are interleaved
// physically, so reclaiming contiguous space means evicting all of them —
// one large write-back if any page is dirty. Residency is a tier below
// translation: the mapping and coalesced status survive; only the data
// moves, and it faults back page by page.
func (p *pager) evict(now uint64, victim *pageEntry) {
	s := p.s
	a := s.apps[victim.asid]
	group := append(p.group[:0], victim)
	size := vmem.Base
	if s.opt.Fault == FaultLarge {
		size = vmem.Large
	} else if a.table.IsCoalesced(victim.va) {
		// Gather every resident sibling of the victim's 2MB region.
		basePN := victim.va.LargePageBase().BasePageNumber()
		for i := uint64(0); i < vmem.BasePagesPerLarge; i++ {
			k := basePN + i
			if k == victim.key {
				continue
			}
			if sib := a.unit(k); sib != nil && sib.state == pageResident {
				group = append(group, sib)
			}
		}
		// A lone remnant of an already-evicted frame moves 4KB of data,
		// not 2MB; only a multi-page gather earns the bulk transfer.
		if len(group) > 1 {
			size = vmem.Large
		}
	}
	p.group = group

	dirty := false
	for _, e := range group {
		if e.dirty {
			dirty = true
		}
		p.res.remove(e)
		p.used -= e.pages
		s.stats.EvictedPages += e.pages
		e.evicted = true
		e.dirty = false
	}
	s.stats.Evictions++
	if dirty {
		// The budget frees immediately — the FIFO bus guarantees the
		// outbound data precedes any subsequently issued page-in — but
		// the entries stay pending-out until the link has drained them.
		s.stats.WriteBacks++
		for _, e := range group {
			e.state = pagePendingOut
		}
		wb := p.acquireWriteBack()
		wb.group = append(wb.group, group...)
		s.bus.WriteBack(now, size, wb.fn)
	} else {
		s.stats.CleanDrops++
		for _, e := range group {
			e.state = pageRemote
		}
	}
}

// acquireWriteBack pops a write-back record from the pool or builds one.
func (p *pager) acquireWriteBack() *writeBack {
	if n := len(p.wbFree); n > 0 {
		wb := p.wbFree[n-1]
		p.wbFree = p.wbFree[:n-1]
		return wb
	}
	wb := &writeBack{p: p}
	wb.fn = wb.drained
	return wb
}

// drained fires when the write-back's data has left GPU memory: entries
// still pending-out become remote (one that refaulted meanwhile keeps its
// newer state), and the record returns to the pool.
func (wb *writeBack) drained(uint64) {
	for _, e := range wb.group {
		if e.state == pagePendingOut {
			e.state = pageRemote
		}
	}
	clear(wb.group)
	wb.group = wb.group[:0]
	wb.p.wbFree = append(wb.p.wbFree, wb)
}

// release forgets a paged unit whose virtual range was freed. Freed pages
// vacate the budget immediately; no write-back is owed for data the
// application discarded. A queued fault's entry stays freed-marked in the
// admission queue and is discharged by admit without moving data.
func (p *pager) release(a *appState, key uint64) {
	e := a.unit(key)
	if e == nil {
		return
	}
	if e.state == pageResident || e.state == pagePendingIn {
		p.used -= e.pages
	}
	e.freed = true
	p.res.remove(e)
	a.units[key-a.unitBase] = nil
}

// ResidentPages reports the base pages currently counted against the
// residency budget (resident plus pending-in commitments); 0 when
// residency is unbounded.
func (s *System) ResidentPages() uint64 {
	if s.pager == nil || !s.pager.bounded() {
		return 0
	}
	return s.pager.used
}
