package lru

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stampRef is the per-way timestamp scheme the lists replace: every push
// and touch stamps its way with a fresh tick, and a set's recency order
// is its valid ways sorted by stamp.
type stampRef struct {
	ways  int
	valid []bool
	stamp []uint64
	tick  uint64
}

func newStampRef(sets, ways int) *stampRef {
	return &stampRef{ways: ways, valid: make([]bool, sets*ways), stamp: make([]uint64, sets*ways)}
}

func (r *stampRef) clone() *stampRef {
	nr := *r
	nr.valid = slices.Clone(r.valid)
	nr.stamp = slices.Clone(r.stamp)
	return &nr
}

func (r *stampRef) use(i int) {
	r.tick++
	r.valid[i], r.stamp[i] = true, r.tick
}

// order returns set's valid ways from the oldest stamp to the newest.
func (r *stampRef) order(set int) []int {
	var ws []int
	for i := set * r.ways; i < (set+1)*r.ways; i++ {
		if r.valid[i] {
			ws = append(ws, i)
		}
	}
	sort.Slice(ws, func(a, b int) bool { return r.stamp[ws[a]] < r.stamp[ws[b]] })
	return ws
}

// step applies one random operation to set of both l and r: Push of an
// invalid way, Touch or Remove of a valid one, each picked by op.
func step(op, pick, set int, l *Lists, r *stampRef) {
	base := set * r.ways
	var valid, invalid []int
	for i := base; i < base+r.ways; i++ {
		if r.valid[i] {
			valid = append(valid, i)
		} else {
			invalid = append(invalid, i)
		}
	}
	switch {
	case op < 40 && len(invalid) > 0 || len(valid) == 0:
		i := invalid[pick%len(invalid)]
		l.Push(set, i)
		r.use(i)
	case op < 85:
		i := valid[pick%len(valid)]
		if pick%4 == 0 {
			i = l.LRU(set) // touching the LRU end relinks both ends
		}
		l.Touch(set, i)
		r.use(i)
	default:
		i := valid[pick%len(valid)]
		l.Remove(set, i)
		r.valid[i] = false
	}
}

// check fails unless every set of l lists the reference's valid ways in
// stamp order, with the same length and LRU end.
func check(t *testing.T, step int, l *Lists, r *stampRef, sets int) {
	t.Helper()
	var got []int
	for s := 0; s < sets; s++ {
		want := r.order(s)
		got = l.Order(got[:0], s)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d set %d: order %v; reference %v", step, s, got, want)
		}
		lru := -1
		if len(want) > 0 {
			lru = want[0]
		}
		if l.Len(s) != len(want) || l.LRU(s) != lru {
			t.Fatalf("step %d set %d: Len %d LRU %d; reference %d, %d", step, s, l.Len(s), l.LRU(s), len(want), lru)
		}
	}
}

// TestListsMatchStampReference drives the lists and the per-way stamp
// reference with the same random Push/Touch/Remove programs on
// direct-mapped, 4-way, 16-way and fully associative geometries, and
// compares every set's order after every step. At a random step both are
// cloned and the clones run a different program alongside their
// sources, so a clone that shares links with its source diverges.
func TestListsMatchStampReference(t *testing.T) {
	geoms := []struct {
		name       string
		sets, ways int
	}{
		{"1-way", 16, 1},
		{"4-way", 8, 4},
		{"16-way", 4, 16},
		{"fully-associative", 1, 256},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			const steps = 6000
			rng := rand.New(rand.NewSource(int64(g.sets*1000 + g.ways)))
			l, r := New(g.sets, g.ways), newStampRef(g.sets, g.ways)
			var lc Lists
			var rc *stampRef
			cloneAt := steps/4 + rng.Intn(steps/2)
			for i := 0; i < steps; i++ {
				if i == cloneAt {
					lc, rc = l.Clone(), r.clone()
				}
				step(rng.Intn(100), rng.Intn(1<<20), rng.Intn(g.sets), &l, r)
				check(t, i, &l, r, g.sets)
				if rc != nil {
					step(rng.Intn(100), rng.Intn(1<<20), rng.Intn(g.sets), &lc, rc)
					check(t, i, &lc, rc, g.sets)
					check(t, i, &l, r, g.sets)
				}
			}
		})
	}
}

// TestZeroListsAreEmpty checks that New needs no initialisation: every
// set of a fresh array is empty.
func TestZeroListsAreEmpty(t *testing.T) {
	l := New(4, 8)
	for s := 0; s < 4; s++ {
		if l.Len(s) != 0 || l.LRU(s) != -1 || len(l.Order(nil, s)) != 0 {
			t.Fatalf("set %d of a new array: Len %d LRU %d", s, l.Len(s), l.LRU(s))
		}
	}
}

// TestListsAllocFree guards the list operations a cache or TLB runs on
// every access: Push, Touch, Remove and LRU allocate nothing.
func TestListsAllocFree(t *testing.T) {
	const sets, ways = 4, 16
	l := New(sets, ways)
	avg := testing.AllocsPerRun(100, func() {
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				l.Push(s, s*ways+w)
			}
			for w := 0; w < ways; w++ {
				l.Touch(s, l.LRU(s))
			}
			for l.Len(s) > 0 {
				l.Remove(s, l.LRU(s))
			}
		}
	})
	if avg != 0 {
		t.Fatalf("list operations allocate %.1f objects per run, want 0", avg)
	}
}
