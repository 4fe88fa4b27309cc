package walker

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pagetable"
	"repro/internal/vmem"
)

// fakeTables is a TableSet with one table per ASID.
type fakeTables struct {
	tables map[vmem.ASID]*pagetable.PageTable
}

func newFakeTables() *fakeTables {
	return &fakeTables{tables: map[vmem.ASID]*pagetable.PageTable{}}
}

func (f *fakeTables) table(asid vmem.ASID) *pagetable.PageTable {
	pt, ok := f.tables[asid]
	if !ok {
		next := vmem.PhysAddr(0x1000_0000 + uint64(asid)*0x100_0000)
		pt = pagetable.New(asid, func() vmem.PhysAddr {
			a := next
			next += vmem.BasePageSize
			return a
		})
		f.tables[asid] = pt
	}
	return pt
}

func (f *fakeTables) WalkAddrs(dst []vmem.PhysAddr, asid vmem.ASID, va vmem.VirtAddr) []vmem.PhysAddr {
	return f.table(asid).WalkAddrs(dst, va)
}

func (f *fakeTables) Translate(asid vmem.ASID, va vmem.VirtAddr) (pagetable.Translation, bool) {
	return f.table(asid).Translate(va)
}

// fixedAccess completes every memory access after lat cycles via the event
// queue.
func fixedAccess(q *event.Queue, lat uint64) AccessFunc {
	return func(now uint64, _ vmem.PhysAddr, _ int, done func(uint64)) {
		q.Schedule(now+lat, done)
	}
}

func drain(q *event.Queue) {
	for {
		c, ok := q.NextCycle()
		if !ok {
			return
		}
		q.RunDue(c)
	}
}

func TestWalkResolvesMapping(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	ft.table(1).Map(0x5000, 0x9000)
	w := New(64, ft, fixedAccess(q, 10))

	var gotTr pagetable.Translation
	var gotOK bool
	var doneAt uint64
	w.Walk(0, 1, 0x5000, func(c uint64, tr pagetable.Translation, ok bool) {
		doneAt, gotTr, gotOK = c, tr, ok
	})
	drain(q)
	if !gotOK {
		t.Fatal("walk faulted on a mapped page")
	}
	if gotTr.Frame != 0x9000 || gotTr.Size != vmem.Base {
		t.Errorf("translation = %+v", gotTr)
	}
	// 4 dependent accesses of 10 cycles each.
	if doneAt != 40 {
		t.Errorf("walk finished at %d, want 40", doneAt)
	}
	if w.Stats().MemoryAccesses != 4 {
		t.Errorf("MemoryAccesses = %d, want 4", w.Stats().MemoryAccesses)
	}
}

func TestWalkFaultsOnUnmapped(t *testing.T) {
	q := &event.Queue{}
	w := New(64, newFakeTables(), fixedAccess(q, 1))
	var gotOK = true
	w.Walk(0, 1, 0x5000, func(_ uint64, _ pagetable.Translation, ok bool) { gotOK = ok })
	drain(q)
	if gotOK {
		t.Error("walk of unmapped page reported success")
	}
	if w.Stats().Faults != 1 {
		t.Errorf("Faults = %d, want 1", w.Stats().Faults)
	}
}

func TestDuplicateWalksCoalesce(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	ft.table(1).Map(0x5000, 0x9000)
	w := New(64, ft, fixedAccess(q, 10))

	fired := 0
	for i := 0; i < 5; i++ {
		w.Walk(0, 1, 0x5123, func(uint64, pagetable.Translation, bool) { fired++ })
	}
	drain(q)
	if fired != 5 {
		t.Errorf("%d callbacks fired, want 5", fired)
	}
	s := w.Stats()
	if s.Walks != 1 {
		t.Errorf("Walks = %d, want 1 (coalesced)", s.Walks)
	}
	if s.Coalesced != 4 {
		t.Errorf("Coalesced = %d, want 4", s.Coalesced)
	}
}

func TestDifferentASIDsDoNotCoalesce(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	ft.table(1).Map(0x5000, 0x9000)
	ft.table(2).Map(0x5000, 0xA000)
	w := New(64, ft, fixedAccess(q, 1))
	w.Walk(0, 1, 0x5000, nil)
	w.Walk(0, 2, 0x5000, nil)
	drain(q)
	if w.Stats().Walks != 2 {
		t.Errorf("Walks = %d, want 2", w.Stats().Walks)
	}
}

func TestSlotLimitQueues(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	for i := 0; i < 10; i++ {
		ft.table(1).Map(vmem.VirtAddr(i*vmem.BasePageSize), vmem.PhysAddr(i*vmem.BasePageSize))
	}
	w := New(2, ft, fixedAccess(q, 10))
	var finishes []uint64
	for i := 0; i < 4; i++ {
		w.Walk(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), func(c uint64, _ pagetable.Translation, _ bool) {
			finishes = append(finishes, c)
		})
	}
	if w.Active() != 2 || w.Queued() != 2 {
		t.Errorf("active=%d queued=%d, want 2/2", w.Active(), w.Queued())
	}
	drain(q)
	if len(finishes) != 4 {
		t.Fatalf("%d walks finished", len(finishes))
	}
	// First two finish at 40; the queued pair start at 40 and finish at 80.
	if finishes[0] != 40 || finishes[1] != 40 || finishes[2] != 80 || finishes[3] != 80 {
		t.Errorf("finish cycles = %v", finishes)
	}
	if w.Active() != 0 || w.Queued() != 0 {
		t.Errorf("walker not drained: active=%d queued=%d", w.Active(), w.Queued())
	}
}

func TestCoalescedRegionWalk(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	pt := ft.table(3)
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := pt.Map(vmem.VirtAddr(off), vmem.PhysAddr(2<<21)+off); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Coalesce(0); err != nil {
		t.Fatal(err)
	}
	w := New(64, ft, fixedAccess(q, 5))
	var gotTr pagetable.Translation
	w.Walk(0, 3, vmem.VirtAddr(300*vmem.BasePageSize+17), func(_ uint64, tr pagetable.Translation, ok bool) {
		if !ok {
			t.Error("coalesced walk faulted")
		}
		gotTr = tr
	})
	drain(q)
	if gotTr.Size != vmem.Large || gotTr.Frame != 2<<21 {
		t.Errorf("translation = %+v, want large frame at 4MiB", gotTr)
	}
	// Still exactly 4 memory accesses.
	if w.Stats().MemoryAccesses != 4 {
		t.Errorf("MemoryAccesses = %d, want 4", w.Stats().MemoryAccesses)
	}
}

func TestLatencyHistogram(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	ft.table(1).Map(0, 0)
	ft.table(1).Map(vmem.BasePageSize, vmem.BasePageSize)
	w := New(64, ft, fixedAccess(q, 25))
	w.Walk(0, 1, 0, nil)
	drain(q)
	w.Walk(0, 1, vmem.VirtAddr(vmem.BasePageSize), nil)
	drain(q)
	s := w.Stats()
	var sum uint64
	for _, n := range s.LatencyHist {
		sum += n
	}
	if sum != s.Walks {
		t.Errorf("histogram sums to %d, want one count per walk (%d)", sum, s.Walks)
	}
	// Both walks take 4 accesses x 25 cycles = 100 cycles: bucket [64,128).
	if s.LatencyHist[6] != 2 {
		t.Errorf("LatencyHist = %v, want both walks in bucket 6", s.LatencyHist)
	}
}

func TestLatencyBucketBounds(t *testing.T) {
	cases := []struct {
		lat  uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{63, 5}, {64, 6}, {100, 6}, {127, 6}, {128, 7},
		{1 << (LatencyBuckets - 1), LatencyBuckets - 1},
		{^uint64(0), LatencyBuckets - 1}, // catch-all saturates
	}
	for _, c := range cases {
		if got := latencyBucket(c.lat); got != c.want {
			t.Errorf("latencyBucket(%d) = %d, want %d", c.lat, got, c.want)
		}
	}
}

func TestAvgLatency(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	ft.table(1).Map(0, 0)
	w := New(64, ft, fixedAccess(q, 25))
	w.Walk(0, 1, 0, nil)
	drain(q)
	if got := w.Stats().AvgLatency(); got != 100 {
		t.Errorf("AvgLatency = %f, want 100", got)
	}
	var empty Stats
	if empty.AvgLatency() != 0 {
		t.Error("empty AvgLatency should be 0")
	}
}

// TestWalkAllocFree guards the walk path: once the walk pool, waiter
// slab and pending ring are warm, walks (queued past the slot limit,
// coalesced, and finished) allocate nothing.
func TestWalkAllocFree(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	for i := 0; i < 16; i++ {
		ft.table(1).Map(vmem.VirtAddr(i*vmem.BasePageSize), vmem.PhysAddr(i*vmem.BasePageSize))
	}
	w := New(4, ft, fixedAccess(q, 10))
	done := func(uint64, pagetable.Translation, bool) {}
	round := func() {
		for i := 0; i < 32; i++ {
			w.Walk(0, 1, vmem.VirtAddr((i%16)*vmem.BasePageSize), done)
		}
		drain(q)
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("Walk + finish allocates %.1f objects per round, want 0", avg)
	}
	if w.Active() != 0 || w.Queued() != 0 {
		t.Fatalf("walker not drained: active=%d queued=%d", w.Active(), w.Queued())
	}
}

// TestPendingQueueWrapsInOrder drives a one-slot walker whose pending
// queue wraps around and grows while walks finish and new ones arrive:
// walks must still start in request order, and MaxQueued must record
// the deepest queue: 35, as the slice-backed queue it replaced did.
func TestPendingQueueWrapsInOrder(t *testing.T) {
	q := &event.Queue{}
	ft := newFakeTables()
	for i := 0; i < 64; i++ {
		ft.table(1).Map(vmem.VirtAddr(i*vmem.BasePageSize), vmem.PhysAddr(i*vmem.BasePageSize))
	}
	w := New(1, ft, fixedAccess(q, 1))
	var order []int
	next := 0
	var walk func(now uint64, n int)
	walk = func(now uint64, n int) {
		for ; n > 0; n-- {
			page := next
			next++
			w.Walk(now, 1, vmem.VirtAddr(page*vmem.BasePageSize), func(c uint64, _ pagetable.Translation, _ bool) {
				order = append(order, page)
				// Each finish adds more work, so the ring wraps
				// and then outgrows its capacity.
				if next < 64 {
					walk(c, 1+page%3)
				}
			})
		}
	}
	walk(0, 6)
	drain(q)
	if len(order) != next {
		t.Fatalf("%d walks finished, %d requested", len(order), next)
	}
	for i, p := range order {
		if p != i {
			t.Fatalf("walk %d finished in position %d; order %v", p, i, order)
		}
	}
	if got := w.Stats().MaxQueued; got != 35 {
		t.Fatalf("MaxQueued = %d, want 35", got)
	}
}
