// Package dram models the GPU's off-chip memory: multiple channels
// (one per memory partition), banks with open-row tracking, an FR-FCFS
// request scheduler per channel, and the in-DRAM bulk-copy primitive
// (RowClone/LISA) that the CAC-BC compaction variant exploits.
//
// The model is event-driven: requests enqueue with a completion callback
// into their bank's FIFO, the per-channel scheduler dispatches them to
// free banks preferring row-buffer hits over older requests (first-ready,
// first-come first-served), and the channel data bus serializes
// transfers. Scheduling touches only the target bank's queue, and the
// scheduler's own callbacks are bound once per channel and bank, so a
// request costs no allocation once the queues are warm.
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

const noOpenRow = ^uint64(0)

// Request is one memory access presented to DRAM.
type Request struct {
	Addr vmem.PhysAddr
	// Done is invoked at the cycle the data burst completes. It may be nil.
	Done func(cycle uint64)

	row uint64
}

// Stats aggregates DRAM activity counters.
type Stats struct {
	Accesses    uint64
	RowHits     uint64
	RowMisses   uint64
	BulkCopies  uint64 // RowClone/LISA page copies
	NarrowCopy  uint64 // 64-bit-at-a-time page copies
	BusyCycles  uint64 // channel data-bus occupancy
	MaxQueueLen int
	// ChannelAccesses counts accesses per channel (load-balance
	// diagnostics).
	ChannelAccesses []uint64
}

// RowHitRate returns RowHits / Accesses (0 when idle) — the row-buffer
// locality the FR-FCFS scheduler preserved.
func (s Stats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

type bank struct {
	openRow   uint64
	busyUntil uint64
	// queue holds the bank's waiting requests in arrival order, so the
	// first row hit is the oldest one.
	queue   []Request
	retryFn event.Func // bound to this bank and its owning DRAM
}

type channel struct {
	banks []bank
	// waiting has bit b set while bank b's queue is not empty.
	// Dispatch walks the set bits, so a bank with nothing queued costs
	// it nothing.
	waiting []uint64
	// armed has bit b set while bank b has a dispatch retry pending at
	// its busyUntil. It dedups wake-up events: at most one pending
	// retry per bank, or queue pressure makes event counts explode.
	armed []uint64
	// armedFrom is a lower bound on the busyUntil of every armed bank:
	// lowered when a bank is armed, recomputed exactly after a walk
	// that visits armed banks. Before it, every armed bank is busy.
	armedFrom  uint64
	queued     int // requests waiting across all banks
	busFree    uint64
	dispatchFn event.Func // bound to this channel and its owning DRAM
}

// noop stands in for a nil Request.Done, so every serviced request
// schedules exactly one completion event.
func noop(uint64) {}

// DRAM is the whole off-chip memory system.
type DRAM struct {
	cfg      config.Config
	q        *event.Queue
	channels []channel
	stats    Stats
}

// New builds a DRAM model wired to the simulator's event queue.
func New(cfg config.Config, q *event.Queue) *DRAM {
	d := &DRAM{
		cfg:      cfg,
		q:        q,
		channels: make([]channel, cfg.MemoryPartitons),
	}
	d.stats.ChannelAccesses = make([]uint64, cfg.MemoryPartitons)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.banks = make([]bank, cfg.DRAMBanksPerChannel)
		ch.waiting = make([]uint64, (cfg.DRAMBanksPerChannel+63)/64)
		ch.armed = make([]uint64, len(ch.waiting))
		for b := range ch.banks {
			ch.banks[b].openRow = noOpenRow
		}
	}
	d.bindCallbacks()
	return d
}

// bindCallbacks binds each channel's dispatch and each bank's retry
// callback to d. They are built once here rather than per request.
func (d *DRAM) bindCallbacks() {
	for i := range d.channels {
		ch, ci := &d.channels[i], i
		ch.dispatchFn = func(cycle uint64) { d.dispatch(ci, cycle) }
		for b := range ch.banks {
			wi, bit := b/64, uint64(1)<<(b%64)
			ch.banks[b].retryFn = func(cycle uint64) {
				ch.armed[wi] &^= bit
				d.dispatch(ci, cycle)
			}
		}
	}
}

// Stats returns a snapshot of the activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Clone returns a deep copy of the DRAM model wired to q (a forked
// simulator's event queue). It requires the memory system to be quiescent:
// no queued requests and no pending dispatch retries, since both hold
// closures bound to the source simulator. Open-row state, bus-free times,
// and stats (including the per-channel access counts) are duplicated so
// the clone's timing picks up exactly where the source's left off. The
// per-channel dispatch and per-bank retry callbacks capture their owning
// DRAM, so the clone binds its own; the bank queues start empty. Clone
// panics if the model is not quiescent; callers drain first.
func (d *DRAM) Clone(q *event.Queue) *DRAM {
	nd := &DRAM{cfg: d.cfg, q: q, channels: make([]channel, len(d.channels))}
	for i := range d.channels {
		ch := &d.channels[i]
		if ch.queued != 0 {
			panic(fmt.Sprintf("dram: Clone with %d queued requests on channel %d", ch.queued, i))
		}
		nch := &nd.channels[i]
		nch.busFree = ch.busFree
		nch.banks = make([]bank, len(ch.banks))
		nch.waiting = make([]uint64, len(ch.waiting))
		nch.armed = make([]uint64, len(ch.armed))
		for wi, word := range ch.armed {
			if word != 0 {
				panic(fmt.Sprintf("dram: Clone with retry pending on channel %d bank %d", i, wi*64+bits.TrailingZeros64(word)))
			}
		}
		for b := range ch.banks {
			nch.banks[b].openRow = ch.banks[b].openRow
			nch.banks[b].busyUntil = ch.banks[b].busyUntil
		}
	}
	nd.stats = d.stats
	nd.stats.ChannelAccesses = append([]uint64(nil), d.stats.ChannelAccesses...)
	nd.bindCallbacks()
	return nd
}

// mixPage swizzles a page number so that strided access patterns spread
// evenly over channels and banks, as real GDDR address hashing does.
// The mapping is a fixed bijection-free hash: deterministic per page.
func mixPage(page uint64) uint64 {
	page ^= page >> 17
	page *= 0x9E3779B97F4A7C15
	page ^= page >> 29
	return page
}

// ChannelOf returns the channel index an address maps to. Channels
// interleave at base-page (4KB) granularity so that an entire base page
// lives in one channel — this is what lets CAC restrict compaction
// migrations to intra-channel moves (paper §4.4) and lets RowClone-style
// bulk copy operate on whole pages.
func (d *DRAM) ChannelOf(addr vmem.PhysAddr) int { return Channel(addr, len(d.channels)) }

// Channel is ChannelOf for a DRAM of n channels. It depends on nothing
// else, so holders of the mapping need no reference to a DRAM.
func Channel(addr vmem.PhysAddr, n int) int {
	return int(mixPage(addr.BaseFrameNumber()) % uint64(n))
}

func (d *DRAM) decompose(addr vmem.PhysAddr) (chanIdx, bankIdx int, row uint64) {
	page := addr.BaseFrameNumber()
	h := mixPage(page)
	nc := uint64(len(d.channels))
	chanIdx = int(h % nc)
	perChan := h / nc
	nb := uint64(d.cfg.DRAMBanksPerChannel)
	bankIdx = int(perChan % nb)
	// A 4KB page spans several rows of DRAMRowBytes each; consecutive
	// lines within the page share rows (spatial locality -> row hits).
	rowsPerPage := uint64(vmem.BasePageSize / d.cfg.DRAMRowBytes)
	if rowsPerPage == 0 {
		rowsPerPage = 1
	}
	row = perChan/nb*rowsPerPage + addr.PageOffset()/uint64(d.cfg.DRAMRowBytes)
	return
}

// Enqueue submits a read/write access. The Done callback fires when the
// data burst finishes on the channel bus.
func (d *DRAM) Enqueue(now uint64, r Request) {
	chanIdx, bankIdx, row := d.decompose(r.Addr)
	r.row = row
	ch := &d.channels[chanIdx]
	b := &ch.banks[bankIdx]
	b.queue = append(b.queue, r)
	ch.waiting[bankIdx/64] |= 1 << (bankIdx % 64)
	ch.queued++
	if ch.queued > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = ch.queued
	}
	d.dispatch(chanIdx, now)
}

// dispatch applies FR-FCFS on one channel: for every bank with queued
// requests that is free, in ascending bank order, pick the oldest
// row-hit request for that bank if one exists, otherwise the oldest
// request for that bank. A busy bank gets one retry armed at the cycle
// it frees. Before the channel's armedFrom every armed bank is still
// busy with its retry pending, so visiting it would change nothing, and
// the walk skips the armed banks.
func (d *DRAM) dispatch(chanIdx int, now uint64) {
	ch := &d.channels[chanIdx]
	if ch.queued == 0 {
		return
	}
	full := now >= ch.armedFrom
	// Servicing a bank schedules events but enqueues nothing, so only
	// the bank being visited can leave the waiting set during the walk.
	for wi, word := range ch.waiting {
		if !full {
			word &^= ch.armed[wi]
		}
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			bankIdx := wi*64 + bits.TrailingZeros64(word)
			b := &ch.banks[bankIdx]
			if b.busyUntil > now {
				// Retry once the bank frees.
				if ch.armed[wi]&bit == 0 {
					ch.armed[wi] |= bit
					ch.armedFrom = min(ch.armedFrom, b.busyUntil)
					d.q.Schedule(b.busyUntil, b.retryFn)
				}
				continue
			}
			pos := pick(b.queue, b.openRow)
			r := b.queue[pos]
			copy(b.queue[pos:], b.queue[pos+1:])
			b.queue[len(b.queue)-1] = Request{} // release the callback reference
			b.queue = b.queue[:len(b.queue)-1]
			if len(b.queue) == 0 {
				ch.waiting[wi] &^= bit
			}
			ch.queued--
			d.service(chanIdx, bankIdx, r, now)
		}
	}
	if full {
		ch.armedFrom = ch.earliestArmed()
	}
}

// earliestArmed returns the least busyUntil of the channel's armed
// banks, or the largest cycle when none is armed.
func (ch *channel) earliestArmed() uint64 {
	from := ^uint64(0)
	for wi, word := range ch.armed {
		for ; word != 0; word &= word - 1 {
			from = min(from, ch.banks[wi*64+bits.TrailingZeros64(word)].busyUntil)
		}
	}
	return from
}

// pick returns the index of the FR-FCFS choice in a bank's non-empty
// queue: the oldest request targeting the open row, else the oldest
// request.
func pick(queue []Request, openRow uint64) int {
	if openRow != noOpenRow {
		for i := range queue {
			if queue[i].row == openRow {
				return i // queue order == age order, so first hit is oldest hit
			}
		}
	}
	return 0
}

func (d *DRAM) service(chanIdx, bankIdx int, r Request, now uint64) {
	ch := &d.channels[chanIdx]
	b := &ch.banks[bankIdx]

	lat := uint64(d.cfg.DRAMRowMissCycles)
	busy := uint64(d.cfg.DRAMRowMissBusy)
	if b.openRow == r.row {
		lat = uint64(d.cfg.DRAMRowHitCycles)
		busy = uint64(d.cfg.DRAMRowHitBusy)
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		b.openRow = r.row
	}
	d.stats.Accesses++
	d.stats.ChannelAccesses[chanIdx]++

	// The bank is occupied for the (short) busy time and frees at
	// busyUntil; the requester observes the full access latency. Banks
	// pipeline behind each other.
	ready := now + lat // data ready at the bank
	burst := uint64(d.cfg.DRAMBusCycles)
	start := max64(ready, ch.busFree)
	done := start + burst
	ch.busFree = done
	b.busyUntil = now + busy
	d.stats.BusyCycles += burst

	if r.Done != nil {
		d.q.Schedule(done, r.Done)
	} else {
		d.q.Schedule(done, noop)
	}
	// The data is ready at the bank long after the bank frees: wake the
	// channel then to dispatch whatever is queued by that cycle. A
	// request that finds the bank busy before then arms its own retry.
	d.q.Schedule(ready, ch.dispatchFn)
}

// CopyPageBulk performs a RowClone/LISA-style in-DRAM copy of one 4KB base
// page. Source and destination must reside in the same channel; it returns
// an error otherwise. done fires when the copy completes; the returned
// cycle is that completion time.
func (d *DRAM) CopyPageBulk(now uint64, src, dst vmem.PhysAddr, done func(cycle uint64)) (uint64, error) {
	sc := d.ChannelOf(src)
	if dc := d.ChannelOf(dst); dc != sc {
		return 0, fmt.Errorf("dram: bulk copy crosses channels (%d -> %d)", sc, dc)
	}
	ch := &d.channels[sc]
	start := max64(now, ch.busFree)
	finish := start + uint64(d.cfg.DRAMBulkCopyCycles)
	ch.busFree = finish
	d.stats.BulkCopies++
	d.scheduleCopyDone(finish, sc, done)
	return finish, nil
}

// CopyPageNarrow copies one 4KB base page 64 bits at a time over the
// channel bus — the conventional migration path (paper §4.4). It occupies
// the source channel for the whole transfer. done fires on completion;
// the returned cycle is that completion time.
func (d *DRAM) CopyPageNarrow(now uint64, src, dst vmem.PhysAddr, done func(cycle uint64)) uint64 {
	// 4KB read + 4KB write at 64 bits/cycle.
	const words = vmem.BasePageSize / 8
	sc := d.ChannelOf(src)
	ch := &d.channels[sc]
	start := max64(now, ch.busFree)
	finish := start + 2*words
	ch.busFree = finish
	d.stats.NarrowCopy++
	d.stats.BusyCycles += 2 * words
	d.scheduleCopyDone(finish, sc, done)
	return finish
}

// scheduleCopyDone schedules a page copy's completion on channel sc:
// done (if any), then a dispatch of the channel's queued requests. With
// no done, the channel's pre-bound dispatch is the whole completion, so
// the copies migration issues allocate nothing.
func (d *DRAM) scheduleCopyDone(finish uint64, sc int, done func(cycle uint64)) {
	if done == nil {
		d.q.Schedule(finish, d.channels[sc].dispatchFn)
		return
	}
	d.q.Schedule(finish, func(cycle uint64) {
		done(cycle)
		d.dispatch(sc, cycle)
	})
}

// PendingRequests reports the number of queued (not yet dispatched)
// requests across all channels; used by tests and drain logic.
func (d *DRAM) PendingRequests() int {
	n := 0
	for i := range d.channels {
		n += d.channels[i].queued
	}
	return n
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
