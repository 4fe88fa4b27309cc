// Package event provides the deterministic future-event queue that drives
// the cycle-approximate simulator. Events are ordered by (cycle, insertion
// sequence) so ties resolve in FIFO order regardless of the queue's
// internals, keeping simulations reproducible.
//
// Near-future events go into a timing wheel: one FIFO bucket per cycle
// for the wheelSize cycles starting at the wheel's base cycle, plus an
// occupancy bitmap to find the next non-empty bucket. Buckets are linked
// lists threaded through one pool of nodes, so the pool grows with the
// number of pending events, not with the number of distinct cycles that
// ever held one. Events further out, and events scheduled for a cycle
// the wheel has already passed, go into a monomorphic binary heap. Items
// are stored as plain values, never boxed through an interface, so
// steady-state scheduling performs no per-event allocations.
//
// Why the two structures together keep exact (cycle, seq) order: the
// wheel base only moves forward, so a heap item for cycle c was inserted
// either when c was already behind the base (and no wheel item for c can
// follow it) or when c was at least wheelSize ahead of it (and every
// wheel item for c is inserted later, once the base has come within
// wheelSize of c). Either way, heap items for c carry smaller sequence
// numbers than wheel items for c. Draining heap items with cycle <= c
// before bucket c, and bucket c in list order with appends allowed
// mid-drain, therefore fires events in (cycle, seq) order.
package event

import "math/bits"

// wheelSize is the number of per-cycle buckets in the timing wheel. It
// spans the cache, TLB and unloaded DRAM latencies, so memory-path
// events take the wheel and mostly far-future timers (polls, I/O
// transfers) take the heap.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// Func is the callback invoked when an event fires. It receives the cycle
// at which it fires.
type Func func(cycle uint64)

type item struct {
	cycle uint64
	seq   uint64
	fn    Func
}

// less orders items by (cycle, seq): earliest cycle first, FIFO on ties.
func (it item) less(o item) bool {
	if it.cycle != o.cycle {
		return it.cycle < o.cycle
	}
	return it.seq < o.seq
}

// node is one wheel event. next is the 1-based index of the following
// node in the same bucket (or on the free list); 0 ends the list.
type node struct {
	fn   Func
	next int32
}

// Queue is a future-event list. The zero value is ready to use. Queue is
// not safe for concurrent use; the simulator is single-goroutine by design.
type Queue struct {
	h   []item
	seq uint64

	// The wheel holds the events for cycles [base, base+wheelSize), those
	// for cycle c in bucket c&wheelMask: a FIFO list of nodes from
	// heads[b] to tails[b] (1-based indices into nodes, 0 when empty).
	// occ has a bit set for every non-empty bucket, free heads the list
	// of unused nodes and nWheel counts the events in the wheel.
	base   uint64
	nWheel int
	free   int32
	nodes  []node
	heads  [wheelSize]int32
	tails  [wheelSize]int32
	occ    [wheelWords]uint64
}

// push adds it to the heap, restoring the heap invariant bottom-up.
func (q *Queue) push(it item) {
	q.h = append(q.h, it)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].less(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the minimum item, restoring the invariant
// top-down.
func (q *Queue) pop() item {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = item{} // release the callback reference
	q.h = q.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.h[right].less(q.h[left]) {
			child = right
		}
		if !q.h[child].less(q.h[i]) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
	return top
}

// Schedule registers fn to run at the given absolute cycle.
func (q *Queue) Schedule(cycle uint64, fn Func) {
	q.seq++
	if cycle >= q.base && cycle-q.base < wheelSize {
		var n int32
		if q.free != 0 {
			n = q.free
			q.free = q.nodes[n-1].next
			q.nodes[n-1] = node{fn: fn}
		} else {
			q.nodes = append(q.nodes, node{fn: fn})
			n = int32(len(q.nodes))
		}
		b := cycle & wheelMask
		if t := q.tails[b]; t != 0 {
			q.nodes[t-1].next = n
		} else {
			q.heads[b] = n
			q.occ[b>>6] |= 1 << (b & 63)
		}
		q.tails[b] = n
		q.nWheel++
		return
	}
	q.push(item{cycle: cycle, seq: q.seq, fn: fn})
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) + q.nWheel }

// Seq returns the last assigned sequence number — the count of events
// ever scheduled on this queue (including those already run).
// Determinism gates compare it across engine variants: two runs that
// scheduled the same events in the same order finish with equal Seq.
func (q *Queue) Seq() uint64 { return q.seq }

// CloneEmpty returns a fresh queue with no pending events that continues
// the receiver's sequence numbering. Forked simulators use it so that the
// relative (cycle, seq) order of events scheduled after the fork matches
// the order a cold run would have produced: both start from the same
// sequence point, and callbacks cannot observe absolute sequence values.
// The clone also starts its wheel at the receiver's base cycle, which
// decides only where an event is stored, never when it fires. The
// receiver is not modified and shares no state with the clone.
func (q *Queue) CloneEmpty() *Queue { return &Queue{seq: q.seq, base: q.base} }

// nextWheel returns the earliest cycle with an event in the wheel.
func (q *Queue) nextWheel() (uint64, bool) {
	if q.nWheel == 0 {
		return 0, false
	}
	start := q.base & wheelMask
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	// wheelWords+1 steps: the last revisits the first word's low bits,
	// which hold the cycles at the far end of the window.
	for i := 0; i <= wheelWords; i++ {
		if word != 0 {
			idx := w<<6 | uint64(bits.TrailingZeros64(word))
			return q.base + (idx-start)&wheelMask, true
		}
		w = (w + 1) % wheelWords
		word = q.occ[w]
	}
	panic("event: wheel count and occupancy bitmap disagree")
}

// NextCycle returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (q *Queue) NextCycle() (cycle uint64, ok bool) {
	cycle, ok = q.nextWheel()
	if len(q.h) > 0 && (!ok || q.h[0].cycle < cycle) {
		return q.h[0].cycle, true
	}
	return cycle, ok
}

// RunDue pops and runs every event scheduled at or before cycle, in
// (cycle, seq) order. Events scheduled by callbacks for cycles <= cycle
// also run. It returns the number of events fired.
func (q *Queue) RunDue(cycle uint64) int {
	n := 0
	for {
		// Heap items at or before the wheel base order before the
		// base bucket (see the package comment).
		if len(q.h) > 0 && q.h[0].cycle <= q.base && q.h[0].cycle <= cycle {
			it := q.pop()
			it.fn(it.cycle)
			n++
			continue
		}
		if q.base <= cycle {
			b := q.base & wheelMask
			if h := q.heads[b]; h != 0 {
				nd := &q.nodes[h-1]
				fn := nd.fn
				q.heads[b] = nd.next
				if nd.next == 0 {
					q.tails[b] = 0
					q.occ[b>>6] &^= 1 << (b & 63)
				}
				// Free the node before firing, releasing the callback
				// reference, so the callback may reuse it.
				*nd = node{next: q.free}
				q.free = h
				q.nWheel--
				fn(q.base)
				n++
				continue
			}
		}
		// The base bucket is empty: move the base to the next cycle
		// with an event, if that cycle is due.
		next, ok := q.nextWheel()
		if len(q.h) > 0 && (!ok || q.h[0].cycle < next) {
			next, ok = q.h[0].cycle, true
		}
		if !ok || next > cycle {
			break
		}
		q.base = next
	}
	if cycle > q.base {
		// Nothing is left in [base, cycle], so the window can start at
		// cycle: every wheel event lies beyond it.
		q.base = cycle
	}
	return n
}
