// Package walker implements the shared, highly-threaded page table walker
// (paper §3.1): a fixed number of walk slots (64 by default) that each
// perform the serialized, dependent memory accesses of a 4-level page
// table walk through the shared L2 cache and DRAM. Duplicate in-flight
// walks for the same (ASID, base page) coalesce MSHR-style, and walks
// beyond the slot limit queue.
package walker

import (
	"math/bits"

	"repro/internal/pagetable"
	"repro/internal/slotidx"
	"repro/internal/vmem"
)

// TableSet resolves per-application page tables for the walker. The memory
// manager implements it.
type TableSet interface {
	// WalkAddrs appends to dst the PTE addresses a hardware walk of
	// (asid, va) reads, in dependency order, and returns the extended
	// slice. The walker passes a buffer of pagetable.Levels entries.
	WalkAddrs(dst []vmem.PhysAddr, asid vmem.ASID, va vmem.VirtAddr) []vmem.PhysAddr
	// Translate resolves (asid, va) from the page table.
	Translate(asid vmem.ASID, va vmem.VirtAddr) (pagetable.Translation, bool)
}

// AccessFunc performs one memory access of a walk and invokes done at its
// completion cycle. level is the page-table level being read (0 = root);
// the memory system may treat hot upper levels and thrashy leaf levels
// differently.
type AccessFunc func(now uint64, addr vmem.PhysAddr, level int, done func(cycle uint64))

// DoneFunc receives the walk result. ok is false when the page is not
// mapped (a page fault: the manager must handle it and retry).
type DoneFunc func(cycle uint64, tr pagetable.Translation, ok bool)

// mergeKey packs the (ASID, base page) a walk resolves into one word,
// VPN above the 16 ASID bits. BasePageNumber drops the ignored top 16
// bits of the address, so the VPN fits in 36 bits and no two pages share
// a key.
func mergeKey(asid vmem.ASID, va vmem.VirtAddr) uint64 {
	return va.BasePageNumber()<<16 | uint64(asid)
}

type request struct {
	asid vmem.ASID
	va   vmem.VirtAddr
}

// LatencyBuckets is the number of power-of-two walk-latency histogram
// buckets kept in Stats.
const LatencyBuckets = 16

// Stats aggregates walker activity. All counters are monotonic within
// one simulation; Stats is a plain value, so a snapshot is one copy.
type Stats struct {
	Walks          uint64 // walks actually performed
	Coalesced      uint64 // requests merged into an in-flight walk
	Faults         uint64 // walks that found no mapping
	MemoryAccesses uint64
	TotalLatency   uint64 // sum of per-walk latencies, for averaging
	MaxQueued      int
	// LatencyHist buckets completed-walk latencies (cycles) by power of
	// two: bucket 0 counts walks finishing in 0 or 1 cycles, bucket i
	// (i >= 1) walks in [2^i, 2^(i+1)), and the last bucket is a
	// catch-all for anything at or above 2^(LatencyBuckets-1) cycles.
	LatencyHist [LatencyBuckets]uint64
}

// AvgLatency returns the mean walk latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Walks)
}

// latencyBucket maps one walk latency to its histogram bucket.
func latencyBucket(lat uint64) int {
	b := bits.Len64(lat) - 1 // floor(log2(lat)); -1 for lat == 0
	if b < 0 {
		b = 0
	}
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// walkState is one walk in progress: the dependent PTE reads of request
// r, issued one at a time. States are pooled; stepFn is bound to the
// state once, when it is first built.
type walkState struct {
	w      *Walker
	r      request
	start  uint64
	buf    [pagetable.Levels]vmem.PhysAddr
	addrs  []vmem.PhysAddr // the PTE reads of this walk, a prefix of buf
	next   int             // index into addrs of the next read
	stepFn func(cycle uint64)
}

// Walker is the shared page table walker. Not safe for concurrent use.
type Walker struct {
	slots  int
	active int
	tables TableSet
	access AccessFunc

	// pending is a ring of requests waiting for a slot: pendN entries
	// starting at pendHead.
	pending  []request
	pendHead int
	pendN    int

	// inflight maps a walked base page (its mergeKey) to its slot in
	// waiters, which holds the callbacks of every request merged into
	// that walk. Slots and their slices are reused through freeSlots.
	inflight  slotidx.Index
	waiters   [][]DoneFunc
	freeSlots []int32

	walkFree []*walkState
	stats    Stats
}

// New builds a walker with the given concurrency wired to the table set
// and the memory access path.
func New(slots int, tables TableSet, access AccessFunc) *Walker {
	if slots <= 0 {
		slots = 1
	}
	return &Walker{
		slots:  slots,
		tables: tables,
		access: access,
	}
}

// Clone returns a copy of the walker rebound to a forked simulator's
// table set and memory access path (both hold references to the owning
// engine, so the fork must supply its own). It requires the walker to be
// idle — no active walks, no queued requests, no in-flight coalescing
// state — because those hold continuation closures bound to the source;
// Clone panics otherwise. The pooled walk states bind their step
// callbacks to the walker that built them, so the clone starts with an
// empty pool (and empty waiter slab and pending ring) and binds its own.
// Stats (including the latency histogram) carry over by value.
func (w *Walker) Clone(tables TableSet, access AccessFunc) *Walker {
	if w.active != 0 || w.pendN != 0 || w.inflight.Len() != 0 {
		panic("walker: Clone while walks are in flight")
	}
	nw := New(w.slots, tables, access)
	nw.stats = w.stats
	return nw
}

// Stats returns a snapshot of the counters.
func (w *Walker) Stats() Stats { return w.stats }

// Active returns the number of walks currently occupying slots.
func (w *Walker) Active() int { return w.active }

// Queued returns the number of walk requests waiting for a slot.
func (w *Walker) Queued() int { return w.pendN }

// Walk requests a translation of (asid, va). done always fires exactly
// once. Requests for a base page with a walk already in flight coalesce.
func (w *Walker) Walk(now uint64, asid vmem.ASID, va vmem.VirtAddr, done DoneFunc) {
	k := mergeKey(asid, va)
	if slot, ok := w.inflight.Get(k); ok {
		w.waiters[slot] = append(w.waiters[slot], done)
		w.stats.Coalesced++
		return
	}
	var slot int32
	if n := len(w.freeSlots); n > 0 {
		slot = w.freeSlots[n-1]
		w.freeSlots = w.freeSlots[:n-1]
	} else {
		slot = int32(len(w.waiters))
		w.waiters = append(w.waiters, nil)
	}
	w.waiters[slot] = append(w.waiters[slot], done)
	w.inflight.Put(k, slot)
	if w.active >= w.slots {
		w.pushPending(request{asid, va})
		if w.pendN > w.stats.MaxQueued {
			w.stats.MaxQueued = w.pendN
		}
		return
	}
	w.start(now, request{asid, va})
}

// pushPending appends r to the pending ring, doubling it when full.
func (w *Walker) pushPending(r request) {
	if w.pendN == len(w.pending) {
		grown := make([]request, max(8, 2*len(w.pending)))
		for i := 0; i < w.pendN; i++ {
			grown[i] = w.pending[(w.pendHead+i)%len(w.pending)]
		}
		w.pending, w.pendHead = grown, 0
	}
	w.pending[(w.pendHead+w.pendN)%len(w.pending)] = r
	w.pendN++
}

// popPending removes and returns the oldest pending request.
func (w *Walker) popPending() request {
	r := w.pending[w.pendHead]
	w.pendHead = (w.pendHead + 1) % len(w.pending)
	w.pendN--
	return r
}

func (w *Walker) start(now uint64, r request) {
	w.active++
	w.stats.Walks++
	var st *walkState
	if n := len(w.walkFree); n > 0 {
		st = w.walkFree[n-1]
		w.walkFree = w.walkFree[:n-1]
	} else {
		st = &walkState{w: w}
		st.stepFn = st.step
	}
	st.r, st.start, st.next = r, now, 0
	st.addrs = w.tables.WalkAddrs(st.buf[:0], r.asid, r.va)
	st.step(now)
}

// step issues the next dependent PTE access; when the chain ends it
// completes the walk.
func (st *walkState) step(now uint64) {
	w := st.w
	if st.next >= len(st.addrs) {
		start, r := st.start, st.r
		w.walkFree = append(w.walkFree, st)
		w.finish(start, now, r)
		return
	}
	i := st.next
	st.next++
	w.stats.MemoryAccesses++
	w.access(now, st.addrs[i], i, st.stepFn)
}

func (w *Walker) finish(start, now uint64, r request) {
	w.active--
	w.stats.TotalLatency += now - start
	w.stats.LatencyHist[latencyBucket(now-start)]++
	tr, ok := w.tables.Translate(r.asid, r.va)
	if !ok {
		w.stats.Faults++
	}
	slot, _ := w.inflight.Take(mergeKey(r.asid, r.va))
	// Start a queued walk before delivering results so the freed slot is
	// reused this cycle.
	if w.pendN > 0 && w.active < w.slots {
		w.start(now, w.popPending())
	}
	// The waiter slot is freed only after the callbacks ran, so a
	// callback that starts a walk cannot reuse this slice mid-loop.
	waiters := w.waiters[slot]
	for _, d := range waiters {
		if d != nil {
			d(now, tr, ok)
		}
	}
	clear(waiters) // release the callback references
	w.waiters[slot] = waiters[:0]
	w.freeSlots = append(w.freeSlots, slot)
}
