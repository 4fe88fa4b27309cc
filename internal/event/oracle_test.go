package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the naive reference for Queue: one slice kept sorted by
// (cycle, seq), popped from the front. It is the contract the wheel and
// heap must reproduce exactly.
type refQueue struct {
	items []item
	seq   uint64
}

func (r *refQueue) Schedule(cycle uint64, fn Func) {
	r.seq++
	it := item{cycle: cycle, seq: r.seq, fn: fn}
	i := sort.Search(len(r.items), func(i int) bool { return it.less(r.items[i]) })
	r.items = append(r.items, item{})
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = it
}

func (r *refQueue) Len() int    { return len(r.items) }
func (r *refQueue) Seq() uint64 { return r.seq }

func (r *refQueue) NextCycle() (uint64, bool) {
	if len(r.items) == 0 {
		return 0, false
	}
	return r.items[0].cycle, true
}

func (r *refQueue) RunDue(cycle uint64) int {
	n := 0
	for len(r.items) > 0 && r.items[0].cycle <= cycle {
		it := r.items[0]
		r.items = r.items[1:]
		it.fn(it.cycle)
		n++
	}
	return n
}

// queueUnderTest is what the oracle drives on both implementations.
type queueUnderTest interface {
	Schedule(cycle uint64, fn Func)
	Len() int
	Seq() uint64
	NextCycle() (uint64, bool)
	RunDue(cycle uint64) int
}

// oracleProgram replays one random schedule on q and returns a log of
// every observable step: each firing with its cycle and the queue's
// Len/NextCycle seen from inside the callback, and each RunDue's count
// with Len/NextCycle/Seq after it. Callbacks schedule children in the
// past, in the same cycle (appends mid-drain), in the near future and
// more than a wheel ahead; the main loop jumps RunDue across idle stretches
// and, whenever the queue is empty, continues on a CloneEmpty copy.
func oracleProgram(seed int64, q queueUnderTest, clone func(queueUnderTest) queueUnderTest) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	nextID := 0
	offset := func(r *rand.Rand) int64 {
		switch r.Intn(6) {
		case 0:
			return -int64(r.Intn(40)) // past
		case 1:
			return 0 // same cycle
		case 2, 3:
			return int64(r.Intn(300)) // inside the wheel
		case 4:
			return int64(wheelSize - 5 + r.Intn(10)) // at the wheel's edge
		default:
			return int64(wheelSize + r.Intn(4*wheelSize)) // beyond it
		}
	}
	at := func(base uint64, off int64) uint64 {
		if off < 0 && uint64(-off) > base {
			return 0
		}
		return uint64(int64(base) + off)
	}
	var event func(id int, budget int) Func
	event = func(id int, budget int) Func {
		return func(c uint64) {
			nc, ok := q.NextCycle()
			log = append(log, fmt.Sprintf("fire %d at %d len=%d next=%d,%v", id, c, q.Len(), nc, ok))
			if budget <= 0 {
				return
			}
			// Children derive from the event's id, so both queues run
			// the same program as long as they fire in the same order.
			r := rand.New(rand.NewSource(seed ^ int64(id)*7919))
			for k := r.Intn(3); k > 0; k-- {
				nextID++
				q.Schedule(at(c, offset(r)), event(nextID, budget-1))
			}
		}
	}
	var now uint64 = 5000
	for step := 0; step < 300; step++ {
		for k := rng.Intn(4); k > 0; k-- {
			nextID++
			q.Schedule(at(now, offset(rng)), event(nextID, 3))
		}
		switch rng.Intn(5) {
		case 0:
			// stay on this cycle
		case 1:
			now++
		case 2:
			now += uint64(rng.Intn(200))
		case 3:
			now += uint64(wheelSize + rng.Intn(3*wheelSize)) // idle stretch
		default:
			if nc, ok := q.NextCycle(); ok && nc > now {
				now = nc // fast-forward, as the simulator does
			}
		}
		n := q.RunDue(now)
		nc, ok := q.NextCycle()
		log = append(log, fmt.Sprintf("rundue %d fired %d len=%d next=%d,%v seq=%d", now, n, q.Len(), nc, ok, q.Seq()))
		if q.Len() == 0 && rng.Intn(2) == 0 {
			q = clone(q)
			log = append(log, fmt.Sprintf("clone seq=%d", q.Seq()))
		}
	}
	return log
}

// TestQueueMatchesSortedReference checks the wheel-plus-heap queue
// against the sorted-slice reference on random schedules: both must
// fire the same events at the same cycles in the same order and report
// the same Len, NextCycle and Seq at every step.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := oracleProgram(seed, &Queue{}, func(q queueUnderTest) queueUnderTest {
			return q.(*Queue).CloneEmpty()
		})
		want := oracleProgram(seed, &refQueue{}, func(q queueUnderTest) queueUnderTest {
			return &refQueue{seq: q.Seq()}
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, step %d:\n got  %s\n want %s", seed, i, got[i], want[i])
			}
		}
	}
}
