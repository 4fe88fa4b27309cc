package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	if _, ok := q.NextCycle(); ok {
		t.Error("NextCycle on empty queue reported ok")
	}
	if n := q.RunDue(100); n != 0 {
		t.Errorf("RunDue fired %d events on empty queue", n)
	}
}

func TestFIFOOrderWithinCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func(uint64) { got = append(got, i) })
	}
	q.RunDue(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", got)
		}
	}
}

func TestCycleOrdering(t *testing.T) {
	var q Queue
	var got []uint64
	cycles := []uint64{9, 3, 7, 1, 5}
	for _, c := range cycles {
		c := c
		q.Schedule(c, func(at uint64) {
			if at != c {
				t.Errorf("fired at %d, scheduled for %d", at, c)
			}
			got = append(got, c)
		})
	}
	q.RunDue(100)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events fired out of cycle order: %v", got)
	}
	if len(got) != len(cycles) {
		t.Errorf("fired %d events, want %d", len(got), len(cycles))
	}
}

func TestRunDueStopsAtBoundary(t *testing.T) {
	var q Queue
	fired := map[uint64]bool{}
	for _, c := range []uint64{1, 2, 3, 4, 5} {
		c := c
		q.Schedule(c, func(uint64) { fired[c] = true })
	}
	q.RunDue(3)
	for c := uint64(1); c <= 3; c++ {
		if !fired[c] {
			t.Errorf("event at %d should have fired", c)
		}
	}
	for c := uint64(4); c <= 5; c++ {
		if fired[c] {
			t.Errorf("event at %d fired early", c)
		}
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d after partial drain, want 2", q.Len())
	}
}

func TestCallbackSchedulingSameCycleRuns(t *testing.T) {
	var q Queue
	ran := false
	q.Schedule(10, func(at uint64) {
		q.Schedule(at, func(uint64) { ran = true })
	})
	q.RunDue(10)
	if !ran {
		t.Error("event scheduled by a callback for the same cycle did not run")
	}
}

func TestNextCycle(t *testing.T) {
	var q Queue
	q.Schedule(42, func(uint64) {})
	q.Schedule(17, func(uint64) {})
	if c, ok := q.NextCycle(); !ok || c != 17 {
		t.Errorf("NextCycle = %d,%v, want 17,true", c, ok)
	}
}

// Property: for any batch of events, RunDue(max) fires all of them in
// nondecreasing cycle order.
func TestOrderingProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 1
		var fired []uint64
		for i := 0; i < count; i++ {
			c := uint64(rng.Intn(1000))
			q.Schedule(c, func(at uint64) { fired = append(fired, at) })
		}
		q.RunDue(1000)
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// ---- Sim-core microbenchmarks (end-to-end numbers: perfbench/) ----

// BenchmarkSimCoreEventQueue measures steady-state Schedule/RunDue churn:
// a window of future events drained in cycle order, the simulator's
// dominant queue pattern.
func BenchmarkSimCoreEventQueue(b *testing.B) {
	var q Queue
	fn := func(uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 8
		for j := uint64(0); j < 8; j++ {
			q.Schedule(base+j, fn)
		}
		q.RunDue(base + 7)
	}
}

// BenchmarkSimCoreEventQueueSameCycle measures the same-cycle cascade
// pattern: callbacks scheduling follow-up work for the cycle currently
// being drained (MSHR completions, coalesced fault wakeups).
func BenchmarkSimCoreEventQueueSameCycle(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		q.Schedule(c, func(at uint64) {
			q.Schedule(at, func(at2 uint64) {
				q.Schedule(at2, func(uint64) {})
			})
		})
		q.RunDue(c)
	}
}

// TestSameCycleInterleaving pins the fast-path ordering contract: heap
// items already queued for the drain cycle run before items scheduled
// during the drain, and drain-scheduled items run in FIFO order — the
// exact (cycle, seq) order of the plain-heap implementation.
func TestSameCycleInterleaving(t *testing.T) {
	var q Queue
	var got []string
	q.Schedule(5, func(at uint64) {
		got = append(got, "a")
		q.Schedule(at, func(uint64) { got = append(got, "a1") })
		q.Schedule(at, func(uint64) { got = append(got, "a2") })
	})
	q.Schedule(5, func(uint64) { got = append(got, "b") })
	q.RunDue(5)
	want := "a,b,a1,a2"
	if s := join(got); s != want {
		t.Errorf("same-cycle order = %s, want %s", s, want)
	}
}

// TestEarlierCycleBeatsSameCycleFIFO: an event scheduled during a drain
// for an earlier (overdue) cycle still runs before already-buffered
// same-cycle events, because cycle order dominates sequence order.
func TestEarlierCycleBeatsSameCycleFIFO(t *testing.T) {
	var q Queue
	var got []string
	q.Schedule(10, func(uint64) {
		got = append(got, "first")
		q.Schedule(10, func(uint64) { got = append(got, "fifo") })
		q.Schedule(7, func(at uint64) {
			if at != 7 {
				t.Errorf("overdue event fired with at=%d, want 7", at)
			}
			got = append(got, "overdue")
		})
	})
	q.RunDue(10)
	want := "first,overdue,fifo"
	if s := join(got); s != want {
		t.Errorf("order = %s, want %s", s, want)
	}
}

// TestLenAndNextCycleDuringDrain: bookkeeping stays consistent while the
// bucket being drained holds items appended mid-drain.
func TestLenAndNextCycleDuringDrain(t *testing.T) {
	var q Queue
	q.Schedule(3, func(at uint64) {
		q.Schedule(at, func(uint64) {})
		if q.Len() != 1 {
			t.Errorf("Len mid-drain = %d, want 1", q.Len())
		}
		if c, ok := q.NextCycle(); !ok || c != 3 {
			t.Errorf("NextCycle mid-drain = %d,%v, want 3,true", c, ok)
		}
	})
	q.RunDue(3)
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", q.Len())
	}
}

// TestScheduleAllocFree: steady-state scheduling performs zero per-event
// allocations once the backing arrays are warm.
func TestScheduleAllocFree(t *testing.T) {
	var q Queue
	fn := func(uint64) {}
	// Warm the heap and FIFO capacity.
	for i := uint64(0); i < 64; i++ {
		q.Schedule(i, fn)
	}
	q.RunDue(64)
	var c uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for j := uint64(0); j < 8; j++ {
			q.Schedule(c+j, fn)
		}
		q.RunDue(c + 7)
		c += 8
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule/RunDue allocates %.1f per round, want 0", allocs)
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// TestSeqCountsEverySchedule pins Seq as a determinism probe: it counts
// every Schedule call (heap and wheel alike), survives
// RunDue, and CloneEmpty continues it — so two engine variants that
// scheduled the same event stream always finish with equal Seq.
func TestSeqCountsEverySchedule(t *testing.T) {
	q := &Queue{}
	if q.Seq() != 0 {
		t.Fatalf("fresh queue Seq = %d, want 0", q.Seq())
	}
	q.Schedule(5, func(uint64) {})
	q.Schedule(3, func(uint64) {})
	if q.Seq() != 2 {
		t.Fatalf("Seq = %d after 2 schedules, want 2", q.Seq())
	}
	// A callback scheduling same-cycle work appends to the bucket being
	// drained — it must count too.
	q.Schedule(7, func(c uint64) { q.Schedule(c, func(uint64) {}) })
	q.RunDue(7)
	if q.Seq() != 4 {
		t.Fatalf("Seq = %d after drain with one same-cycle schedule, want 4", q.Seq())
	}
	if c := q.CloneEmpty(); c.Seq() != q.Seq() {
		t.Fatalf("CloneEmpty Seq = %d, want %d", c.Seq(), q.Seq())
	}
}
