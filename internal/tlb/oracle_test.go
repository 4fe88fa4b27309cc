package tlb

import (
	"math/rand"
	"testing"

	"repro/internal/vmem"
)

// The struct-of-ways array the packed-tag entrySet replaced, kept as the
// reference its replacement must match way for way.

type refKey struct {
	ASID vmem.ASID
	VPN  uint64
}

type refWay struct {
	key      refKey
	frame    vmem.PhysAddr
	valid    bool
	lastUsed uint64
}

type refEntrySet struct {
	sets int
	ways int
	arr  []refWay
	tick uint64
}

func (e *refEntrySet) setOf(k refKey) int {
	if e.sets == 1 {
		return 0
	}
	h := k.VPN*0x9E3779B97F4A7C15 ^ uint64(k.ASID)*0xBF58476D1CE4E5B9
	return int(h % uint64(e.sets))
}

func (e *refEntrySet) lookup(k refKey) (vmem.PhysAddr, bool) {
	base := e.setOf(k) * e.ways
	e.tick++
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.lastUsed = e.tick
			return w.frame, true
		}
	}
	return 0, false
}

func (e *refEntrySet) probe(k refKey) bool {
	base := e.setOf(k) * e.ways
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			return true
		}
	}
	return false
}

func (e *refEntrySet) insert(k refKey, frame vmem.PhysAddr) (evicted bool) {
	base := e.setOf(k) * e.ways
	e.tick++
	victim := -1
	var oldest = ^uint64(0)
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.frame = frame
			w.lastUsed = e.tick
			return false
		}
		if !w.valid {
			if victim == -1 || e.arr[base+victim].valid {
				victim = i
			}
			continue
		}
		if w.lastUsed < oldest && (victim == -1 || e.arr[base+victim].valid) {
			oldest = w.lastUsed
			victim = i
		}
	}
	evicted = e.arr[base+victim].valid
	e.arr[base+victim] = refWay{key: k, frame: frame, valid: true, lastUsed: e.tick}
	return evicted
}

func (e *refEntrySet) invalidate(k refKey) bool {
	base := e.setOf(k) * e.ways
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.valid = false
			return true
		}
	}
	return false
}

func (e *refEntrySet) invalidateASID(asid vmem.ASID) int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid && e.arr[i].key.ASID == asid {
			e.arr[i].valid = false
			n++
		}
	}
	return n
}

func (e *refEntrySet) invalidateAll() int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid {
			e.arr[i].valid = false
			n++
		}
	}
	return n
}

func (e *refEntrySet) occupancy() int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid {
			n++
		}
	}
	return n
}

// sameWays checks that both arrays hold the same valid translation in
// every way, so any divergence in victim choice shows up at once.
func sameWays(t *testing.T, step int, ref *refEntrySet, e *entrySet) {
	t.Helper()
	for i, w := range ref.arr {
		tg := e.tags[i]
		if w.valid != (tg&validTag != 0) {
			t.Fatalf("step %d: way %d valid=%v, packed tag %#x", step, i, w.valid, tg)
		}
		if w.valid && (tg != tagOf(w.key.ASID, w.key.VPN) || e.meta[i].frame != w.frame || e.meta[i].lastUsed != w.lastUsed) {
			t.Fatalf("step %d: way %d holds %+v, packed %#x/%+v", step, i, w, tg, e.meta[i])
		}
	}
}

// TestPackedEntrySetMatchesStructOfWays drives the packed-tag entrySet
// and the struct-of-ways reference with the same random programs of
// lookups, probes, inserts, single-entry, per-ASID and full flushes, on
// direct-mapped, set-associative and fully associative geometries. Every
// returned frame, hit, eviction and flush count and the occupancy must
// agree, and after every step each way must hold the same translation.
func TestPackedEntrySetMatchesStructOfWays(t *testing.T) {
	geoms := []struct {
		name          string
		entries, ways int
	}{
		{"1-way", 32, 1},
		{"4-way", 64, 4},
		{"16-way", 512, 16},
		{"fully-associative", 128, 128},
		{"single-entry", 1, 1},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries*131 + g.ways)))
			e, err := newEntrySet(g.entries, g.ways)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refEntrySet{sets: g.entries / g.ways, ways: g.ways, arr: make([]refWay, g.entries)}
			// Keys: a VPN window about twice the capacity, plus a few
			// VPNs at the top of the 36-bit range, over three ASIDs.
			key := func() refKey {
				vpn := uint64(rng.Intn(2*g.entries + 4))
				if rng.Intn(16) == 0 {
					vpn = 1<<36 - 1 - uint64(rng.Intn(4))
				}
				return refKey{ASID: vmem.ASID(1 + rng.Intn(3)), VPN: vpn}
			}
			for step := 0; step < 20000; step++ {
				k := key()
				tg := tagOf(k.ASID, k.VPN)
				switch op := rng.Intn(100); {
				case op < 40:
					f1, ok1 := ref.lookup(k)
					f2, ok2 := e.lookup(tg)
					if f1 != f2 || ok1 != ok2 {
						t.Fatalf("step %d: lookup(%+v) = %v, %v; reference %v, %v", step, k, f2, ok2, f1, ok1)
					}
				case op < 50:
					if a, b := ref.probe(k), e.probe(tg); a != b {
						t.Fatalf("step %d: probe(%+v) = %v; reference %v", step, k, b, a)
					}
				case op < 88:
					frame := vmem.PhysAddr(rng.Intn(1<<20)) << vmem.BasePageShift
					if a, b := ref.insert(k, frame), e.insert(tg, frame); a != b {
						t.Fatalf("step %d: insert(%+v) evicted = %v; reference %v", step, k, b, a)
					}
				case op < 96:
					if a, b := ref.invalidate(k), e.invalidate(tg); a != b {
						t.Fatalf("step %d: invalidate(%+v) = %v; reference %v", step, k, b, a)
					}
				case op < 99:
					if a, b := ref.invalidateASID(k.ASID), e.invalidateASID(k.ASID); a != b {
						t.Fatalf("step %d: invalidateASID(%d) = %d; reference %d", step, k.ASID, b, a)
					}
				default:
					if a, b := ref.invalidateAll(), e.invalidateAll(); a != b {
						t.Fatalf("step %d: invalidateAll = %d; reference %d", step, b, a)
					}
				}
				if a, b := ref.occupancy(), e.occupancy(); a != b {
					t.Fatalf("step %d: occupancy = %d; reference %d", step, b, a)
				}
				sameWays(t, step, ref, e)
			}
		})
	}
}
