package slotidx

import (
	"math/rand"
	"testing"
)

// check compares every key of the reference map and a few absent keys
// against the index.
func check(t *testing.T, x *Index, ref map[uint64]int32, absent []uint64, step int) {
	t.Helper()
	if x.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, map holds %d", step, x.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := x.Get(k); !ok || got != v {
			t.Fatalf("step %d: Get(%#x) = %d, %v; map has %d", step, k, got, ok, v)
		}
	}
	for _, k := range absent {
		if _, in := ref[k]; in {
			continue
		}
		if got, ok := x.Get(k); ok {
			t.Fatalf("step %d: Get(%#x) = %d for a key the map does not hold", step, k, got)
		}
	}
}

// clusteredKeys returns n keys whose probe sequences start in the last
// two cells of a minCap-cell table, so runs of them wrap around the end.
func clusteredKeys(n int) []uint64 {
	x := &Index{shift: 64 - 4} // the home function of a 16-cell table
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if x.home(k) >= minCap-2 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestIndexMatchesMap drives the index and a Go map with the same random
// Put/Get/Take program and checks they agree after every step. One phase
// keeps at most 7 keys, all homed in the last two cells of the initial
// 16-cell table, so every run wraps to cell 0 and every Take backward-
// shifts across the wrap; a second phase uses a wider key range that
// forces the table to grow several times and shrink back to empty.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phases := []struct {
		name  string
		keys  []uint64
		limit int
		steps int
	}{
		{"wrap-around cluster", clusteredKeys(12), 7, 20000},
		{"growth", func() []uint64 {
			ks := make([]uint64, 600)
			for i := range ks {
				ks[i] = uint64(i)*4096 + uint64(rng.Intn(3))
			}
			return ks
		}(), 400, 40000},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			var x Index
			ref := map[uint64]int32{}
			for step := 0; step < ph.steps; step++ {
				k := ph.keys[rng.Intn(len(ph.keys))]
				switch op := rng.Intn(3); {
				case op == 0 && len(ref) < ph.limit:
					v := int32(rng.Intn(1 << 20))
					x.Put(k, v)
					ref[k] = v
				case op == 1:
					got, ok := x.Take(k)
					want, in := ref[k]
					if ok != in || got != want {
						t.Fatalf("step %d: Take(%#x) = %d, %v; map has %d, %v", step, k, got, ok, want, in)
					}
					delete(ref, k)
				default:
					got, ok := x.Get(k)
					want, in := ref[k]
					if ok != in || got != want {
						t.Fatalf("step %d: Get(%#x) = %d, %v; map has %d, %v", step, k, got, ok, want, in)
					}
				}
				if step%97 == 0 {
					check(t, &x, ref, ph.keys[:min(20, len(ph.keys))], step)
				}
			}
			if ph.limit < minCap/2 && len(x.tab) != minCap {
				t.Fatalf("cluster phase grew the table to %d cells; it must stay at %d to wrap", len(x.tab), minCap)
			}
			for k := range ref {
				x.Take(k)
			}
			if x.Len() != 0 {
				t.Fatalf("Len = %d after taking every key", x.Len())
			}
			check(t, &x, map[uint64]int32{}, ph.keys, -1)
		})
	}
}

// TestIndexZeroValueAndAllocFree: the zero Index answers lookups without
// allocating, and a warm index reuses its table for Put/Take.
func TestIndexZeroValueAndAllocFree(t *testing.T) {
	var x Index
	if _, ok := x.Get(5); ok {
		t.Fatal("zero Index reports a key")
	}
	if _, ok := x.Take(5); ok {
		t.Fatal("zero Index takes a key")
	}
	round := func() {
		for k := uint64(0); k < 32; k++ {
			x.Put(k<<7, int32(k))
		}
		for k := uint64(0); k < 32; k++ {
			if s, ok := x.Take(k << 7); !ok || s != int32(k) {
				t.Fatalf("Take(%d) = %d, %v", k<<7, s, ok)
			}
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("warm Put/Take allocates %.1f objects per round, want 0", avg)
	}
}
