package sim

import (
	"math/rand"
	"testing"
)

// TestReadySetMatchesNaiveScan drives the incremental scheduling sets
// against a naive map-based model with random wake registrations, clock
// advances, and issue consumption, checking that the issuable set, the
// oldest-ready pick, and the next-wake answer always match what full
// scans would produce.
func TestReadySetMatchesNaiveScan(t *testing.T) {
	const nWarps = 96
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := &sm{}
		m.initSched(nWarps)
		m.bindActive(make([]uint64, 1))
		waiting := make(map[int]uint64) // idx -> wake cycle
		ready := make(map[int]bool)
		var free []int // warps in neither set (blocked/done in the real sim)
		for i := 0; i < nWarps; i++ {
			free = append(free, i)
		}
		cycle := uint64(2)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(3) {
			case 0: // register a wake, possibly already overdue
				if len(free) == 0 {
					continue
				}
				k := rng.Intn(len(free))
				idx := free[k]
				free = append(free[:k], free[k+1:]...)
				at := cycle - 1 + uint64(rng.Intn(8))
				m.wakeAdd(idx, at)
				waiting[idx] = at
			case 1: // advance the clock and compare the next-wake answer
				cycle += uint64(rng.Intn(4))
				got := m.wakeMin(cycle)
				var want uint64
				for idx, at := range waiting {
					if at < cycle {
						ready[idx] = true
						delete(waiting, idx)
						continue
					}
					if want == 0 || at < want {
						want = at
					}
				}
				if got != want {
					t.Fatalf("trial %d step %d: wakeMin(%d) = %d, naive scan = %d",
						trial, step, cycle, got, want)
				}
			case 2: // promote for issue and consume the oldest ready warp
				m.drainBefore(cycle + 1)
				for idx, at := range waiting {
					if at <= cycle {
						ready[idx] = true
						delete(waiting, idx)
					}
				}
				for idx := 0; idx < nWarps; idx++ {
					if m.issuable(idx) != ready[idx] {
						t.Fatalf("trial %d step %d: warp %d issuable=%v, naive=%v",
							trial, step, idx, m.issuable(idx), ready[idx])
					}
				}
				want := -1
				for idx := range ready {
					if want < 0 || idx < want {
						want = idx
					}
				}
				got := m.firstIssuable()
				if got != want {
					t.Fatalf("trial %d step %d: firstIssuable = %d, naive = %d",
						trial, step, got, want)
				}
				if got >= 0 {
					m.clearIssuable(got)
					delete(ready, got)
					free = append(free, got)
				}
			}
		}
	}
}
