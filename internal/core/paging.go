package core

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/vmem"
)

// This file implements the bounded-residency demand-paging tier: when
// Config.MaxResidentPages caps how many 4KB base pages may live in GPU
// memory at once, faults beyond the budget evict least-recently-used
// victims to a host/CXL remote tier across the I/O bus. Victim
// granularity follows the manager's fault granularity — 4KB pages for the
// GPU-MMU baseline and Mosaic, whole 2MB frames for the 2MB-only manager
// (and for Mosaic when the victim belongs to a coalesced region, the
// thrash-amplification case the paper gestures at in §3.2). Dirty pages
// write back over the bus before their frame can be reused; the bus is
// FIFO, so a page-in issued after a write-back queues behind it and the
// outbound data is on the host before the inbound data lands. Evicted
// pages re-fault at bus latency.
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

// PageEntry is the pager's record of one paged unit — the value a
// ResidencyPolicy orders for victim selection. Entries carry intrusive
// list links so policies built on ResidencyQueue never allocate per
// operation.
type PageEntry struct {
	asid  vmem.ASID
	key   uint64 // faultKey: base or large page number
	va    vmem.VirtAddr
	state pageState
	dirty bool
	pages uint64 // base pages covered: 1, or 512 under FaultLarge
	// evicted marks entries that left GPU memory at least once, so their
	// next fault counts as a refault.
	evicted bool
	// freed marks entries whose virtual range was deallocated while a
	// transfer was still in flight; the completion must not resurrect
	// them (their budget was already released).
	freed   bool
	waiters []func(uint64)
	// landFn is the bus completion of this unit's page-in (pager.land),
	// bound once when the entry is made so a refault allocates nothing.
	landFn func(uint64)
	// Intrusive residency-queue links (only meaningful while resident).
	prev, next *PageEntry
}

// ASID returns the owning application's address-space id.
func (e *PageEntry) ASID() vmem.ASID { return e.asid }

// Key returns the paged unit's fault key (base or large page number,
// per the policy's fill granularity).
func (e *PageEntry) Key() uint64 { return e.key }

// VA returns the base-page-aligned virtual address of the unit's last
// fault.
func (e *PageEntry) VA() vmem.VirtAddr { return e.va }

// Pages returns how many base pages the unit covers (1, or 512 under
// large-page fill).
func (e *PageEntry) Pages() uint64 { return e.pages }

// Dirty reports whether the unit has been written since it became
// resident (and so owes a write-back on eviction).
func (e *PageEntry) Dirty() bool { return e.dirty }

type pagerKey struct {
	asid vmem.ASID
	key  uint64
}

// pager tracks residency against the budget. It is created only when the
// configuration bounds residency; a nil pager leaves the pre-existing
// unbounded fault path untouched.
type pager struct {
	s       *System
	budget  uint64 // MaxResidentPages, in base pages
	used    uint64 // base pages resident or committed to pending faults
	entries map[pagerKey]*PageEntry
	// queued is the FIFO admission queue of faults waiting for capacity.
	queued []*PageEntry
	// res orders resident entries for victim selection (the policy's
	// ResidencyPolicy; LRU by default).
	res ResidencyPolicy

	// waiterFree holds emptied waiter slices. An entry takes one when it
	// faults and gives it back after its waiters fired, so only units
	// with a fault in flight hold a slice.
	waiterFree [][]func(uint64)
	// group is evict's scratch list of the entries one eviction moves.
	group []*PageEntry
	// wbFree pools the records dirty write-backs complete through.
	wbFree []*writeBack
}

// writeBack is one dirty eviction on its way to the host tier: the
// entries it moves, and its bus completion bound once per pooled record.
type writeBack struct {
	p     *pager
	group []*PageEntry
	fn    func(uint64)
}

// newEntry makes the record of one paged unit with its landing callback
// bound to p.
func (p *pager) newEntry(asid vmem.ASID, key, pages uint64) *PageEntry {
	e := &PageEntry{asid: asid, key: key, pages: pages}
	e.landFn = func(cycle uint64) { p.land(e, cycle) }
	return e
}

func newPager(s *System) *pager {
	return &pager{
		s:       s,
		budget:  s.cfg.MaxResidentPages,
		entries: make(map[pagerKey]*PageEntry),
		res:     residencyFor(s.opt.Policy)(),
	}
}

// clone deep-copies the pager for a forked manager ns. It requires the
// pager to be quiescent — an empty admission queue and no entries in the
// queued/pending-in/pending-out states, since transfers in flight hold
// waiter closures bound to the source simulator — and panics otherwise.
// Entries are duplicated and the residency policy is cloned over the
// copies in the exact victim order of the source, so the fork's next
// eviction picks the same victim the source would have.
func (p *pager) clone(ns *System) *pager {
	if len(p.queued) != 0 {
		panic(fmt.Sprintf("core: pager clone with %d queued faults", len(p.queued)))
	}
	np := &pager{
		s:       ns,
		budget:  p.budget,
		used:    p.used,
		entries: make(map[pagerKey]*PageEntry, len(p.entries)),
	}
	for k, e := range p.entries {
		switch e.state {
		case pageQueued, pagePendingIn, pagePendingOut:
			panic(fmt.Sprintf("core: pager clone with entry in transient state %d", e.state))
		}
		if len(e.waiters) != 0 {
			panic("core: pager clone with waiters outstanding")
		}
		ne := np.newEntry(e.asid, e.key, e.pages)
		ne.va, ne.state, ne.dirty, ne.evicted, ne.freed = e.va, e.state, e.dirty, e.evicted, e.freed
		np.entries[k] = ne
	}
	np.res = p.res.Clone(func(e *PageEntry) *PageEntry {
		return np.entries[pagerKey{e.asid, e.key}]
	})
	return np
}

// pageDirty deterministically decides whether a page gets written while
// resident (~half do). Keyed by identity, not history, so repeated
// evict/refault cycles of one page behave consistently.
func pageDirty(asid vmem.ASID, key uint64) bool {
	h := (uint64(asid)+1)*0x9E3779B97F4A7C15 + key*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h&1 == 1
}

// ensureResident is the bounded-residency fault path, mirroring
// System.EnsureResident's contract: true means already resident (done is
// not called), false means done fires when the page lands.
func (p *pager) ensureResident(now uint64, a *appState, asid vmem.ASID, va vmem.VirtAddr, done func(cycle uint64)) bool {
	s := p.s
	key := s.faultKey(va)
	e := p.entries[pagerKey{asid, key}]
	if e != nil {
		switch e.state {
		case pageResident:
			p.res.Touch(e)
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
		e = p.newEntry(asid, key, pages)
		p.entries[pagerKey{asid, key}] = e
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
func (p *pager) issue(now uint64, e *PageEntry) {
	s := p.s
	p.used += e.pages
	if p.used > s.stats.PeakResidentPages {
		s.stats.PeakResidentPages = p.used
	}
	e.state = pagePendingIn
	size := vmem.Base
	if s.opt.Fault == FaultLarge {
		size = vmem.Large
	}
	fin := s.bus.Transfer(now, size, e.landFn)
	s.trace.Record(trace.Event{
		Cycle: now, Kind: trace.EvFarFault, ASID: e.asid,
		VA: e.va, Size: size.Bytes(), Latency: fin - now,
	})
}

// land completes e's page-in: the unit becomes resident (unless its range
// was freed meanwhile), the admission queue gets another chance, and the
// faults waiting on e fire in arrival order.
func (p *pager) land(e *PageEntry, cycle uint64) {
	s := p.s
	waiters := e.waiters
	e.waiters = nil
	if !e.freed {
		e.state = pageResident
		e.dirty = pageDirty(e.asid, e.key)
		if a, err := s.app(e.asid); err == nil {
			a.resident[e.key] = true
		}
		p.res.Insert(e)
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
		victim := p.res.Victim()
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
func (p *pager) evict(now uint64, victim *PageEntry) {
	s := p.s
	group := append(p.group[:0], victim)
	size := vmem.Base
	if s.opt.Fault == FaultLarge {
		size = vmem.Large
	} else if a, err := s.app(victim.asid); err == nil && a.table.IsCoalesced(victim.va) {
		// Gather every resident sibling of the victim's 2MB region.
		basePN := victim.va.LargePageBase().BasePageNumber()
		for i := uint64(0); i < vmem.BasePagesPerLarge; i++ {
			k := basePN + i
			if k == victim.key {
				continue
			}
			if sib := p.entries[pagerKey{victim.asid, k}]; sib != nil && sib.state == pageResident {
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
	var a *appState
	if app, err := s.app(victim.asid); err == nil {
		a = app
	}
	for _, e := range group {
		if e.dirty {
			dirty = true
		}
		p.res.Remove(e)
		p.used -= e.pages
		s.stats.EvictedPages += e.pages
		e.evicted = true
		e.dirty = false
		if a != nil {
			delete(a.resident, e.key)
		}
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
func (p *pager) release(asid vmem.ASID, key uint64) {
	e := p.entries[pagerKey{asid, key}]
	if e == nil {
		return
	}
	if e.state == pageResident || e.state == pagePendingIn {
		p.used -= e.pages
	}
	e.freed = true
	p.res.Remove(e)
	delete(p.entries, pagerKey{asid, key})
}

// ResidentPages reports the base pages currently counted against the
// residency budget (resident plus pending-in commitments).
func (s *System) ResidentPages() uint64 {
	if s.pager == nil {
		return 0
	}
	return s.pager.used
}
