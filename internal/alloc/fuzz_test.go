package alloc

import (
	"errors"
	"testing"

	"repro/internal/vmem"
)

// fuzzChannels is the channel count of the fuzzed pool's index, and
// fuzzChannel its stand-in for the DRAM channel hash.
const fuzzChannels = 4

func fuzzChannel(pa vmem.PhysAddr) int { return int(pa.BaseFrameNumber() * 0x9E3779B97F4A7C15 >> 62) }

// FuzzCoCoAOps drives CoCoA with an arbitrary operation tape from two
// applications and checks that pool accounting, free-frame-list
// invariants, and the soft guarantee hold throughout (no scavenge path is
// exercised here). Ops 4 and 5 deliberately misuse the free path — double
// frees and bogus frame returns — which must surface as typed errors and
// leave the free lists untouched. After every op a FindFree for the op's
// application, in the channel its high bits name, may drop frames from
// the channel sets; the pool's frame sets must still cover every free
// slot.
func FuzzCoCoAOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 3})
	f.Add([]byte{2, 2, 2, 1, 1, 1, 0})
	// Free/return cycles: allocate, free, double free, misuse ReturnFrame.
	f.Add([]byte{0, 2, 4, 4, 0, 2, 4})
	f.Add([]byte{0, 1, 5, 2, 5, 2, 5, 4})
	f.Add([]byte{3, 3, 0, 4, 5, 0, 2, 2, 4, 5})
	// Fill a frame with one application's pages, searching every
	// channel as it goes (each set drops the frame once it is full),
	// then free the last page: its channel's set must take the frame
	// back.
	fill := make([]byte, 0, vmem.BasePagesPerLarge+1)
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		fill = append(fill, byte(6*(i%fuzzChannels)))
	}
	f.Add(append(fill, 2))

	f.Fuzz(func(t *testing.T, tape []byte) {
		pool, err := NewPool(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		pool.IndexChannels(fuzzChannels, fuzzChannel)
		c := NewCoCoA(pool)
		live := map[vmem.ASID][]vmem.PhysAddr{}
		freed := map[vmem.ASID][]vmem.PhysAddr{}
		var regionPages uint64

		checkFreeFrames := func() {
			t.Helper()
			// Every empty unowned frame appears on the free-frame list at
			// most once (stale entries for since-reused frames are legal;
			// duplicates of genuinely free frames are not).
			seen := map[int]bool{}
			freeListed := 0
			for _, fi := range c.freeFrames {
				if seen[fi] {
					t.Fatalf("frame %d on the free-frame list twice", fi)
				}
				seen[fi] = true
				if pool.Frame(fi).Count == 0 && pool.Frame(fi).Owner == NoOwner {
					freeListed++
				}
			}
			if got := c.FreeFrameCount(); got != len(c.freeFrames) {
				t.Fatalf("FreeFrameCount = %d, list holds %d", got, len(c.freeFrames))
			}
			// The list can never exceed the pool, and every genuinely
			// free frame the allocator has ever seen must be reachable:
			// counting empty unowned frames on the list vs in the pool.
			emptyFrames := 0
			for fi := 0; fi < pool.NumFrames(); fi++ {
				if pool.Frame(fi).Count == 0 && pool.Frame(fi).Owner == NoOwner {
					emptyFrames++
				}
			}
			if freeListed > emptyFrames {
				t.Fatalf("free list claims %d empty frames, pool has %d", freeListed, emptyFrames)
			}
		}

		// checkFrameSets: the not-full set holds exactly the frames with
		// a free slot, and no channel set misses a frame with a free slot
		// in that channel.
		checkFrameSets := func() {
			t.Helper()
			for fi := 0; fi < pool.NumFrames(); fi++ {
				f := pool.Frame(fi)
				if hasFree := f.Count < vmem.BasePagesPerLarge; pool.notFull.has(fi) != hasFree {
					t.Fatalf("frame %d with %d pages: in not-full set %v", fi, f.Count, !hasFree)
				}
				for slot := f.NextFree(0); slot >= 0; slot = f.NextFree(slot + 1) {
					ch := fuzzChannel(pool.Addr(PageRef{Frame: fi, Slot: slot}))
					if !pool.mayHold[ch].has(fi) {
						t.Fatalf("frame %d has free slot %d in channel %d but is not in that channel's set", fi, slot, ch)
					}
				}
			}
		}

		for _, op := range tape {
			asid := vmem.ASID(op%2) + 1
			switch op % 6 {
			case 0, 1: // base alloc
				pa, err := c.AllocBase(asid)
				if err != nil {
					continue // pool pressure is fine
				}
				live[asid] = append(live[asid], pa)
			case 2: // free one page
				l := live[asid]
				if len(l) == 0 {
					continue
				}
				pa := l[len(l)-1]
				live[asid] = l[:len(l)-1]
				if err := c.Free(pa); err != nil {
					t.Fatalf("free of live page failed: %v", err)
				}
				freed[asid] = append(freed[asid], pa)
			case 3: // whole-region alloc
				if _, err := c.AllocRegion(asid); err == nil {
					regionPages += vmem.BasePagesPerLarge
				}
			case 4: // double free of an already-freed page
				fl := freed[asid]
				if len(fl) == 0 {
					continue
				}
				pa := fl[len(fl)-1]
				ref, _ := pool.RefOf(pa)
				if pool.Frame(ref.Frame).Allocated(ref.Slot) {
					// Slot was recycled by a later alloc; no longer a
					// double free. Drop the stale record.
					freed[asid] = fl[:len(fl)-1]
					continue
				}
				before := c.FreeFrameCount()
				if err := c.Free(pa); !errors.Is(err, ErrDoubleFree) {
					t.Fatalf("double free of %v returned %v, want ErrDoubleFree", pa, err)
				}
				if c.FreeFrameCount() != before {
					t.Fatal("rejected double free still grew the free-frame list")
				}
			case 5: // bogus ReturnFrame: occupied frame, or repeated return
				fi := int(op) % pool.NumFrames()
				f := pool.Frame(fi)
				returnable := f.Count == 0 && f.Owner == NoOwner && !c.inFree[fi]
				before := c.FreeFrameCount()
				err := c.ReturnFrame(fi)
				if returnable {
					if err != nil {
						t.Fatalf("return of drained frame %d failed: %v", fi, err)
					}
					// A second return of the same frame must be rejected.
					if err := c.ReturnFrame(fi); !errors.Is(err, ErrBadFrameReturn) {
						t.Fatalf("repeated return of frame %d returned %v, want ErrBadFrameReturn", fi, err)
					}
					if c.FreeFrameCount() != before+1 {
						t.Fatal("repeated return double-inserted")
					}
				} else {
					if !errors.Is(err, ErrBadFrameReturn) {
						t.Fatalf("bogus return of frame %d returned %v, want ErrBadFrameReturn", fi, err)
					}
					if c.FreeFrameCount() != before {
						t.Fatal("rejected return still grew the free-frame list")
					}
				}
			}
			checkFreeFrames()
			pool.FindFree(int(op/6)%fuzzChannels, nil, func(_ int, f *Frame) bool { return f.Owner == asid })
			checkFrameSets()
		}

		var liveCount uint64
		for asid, pages := range live {
			liveCount += uint64(len(pages))
			for _, pa := range pages {
				ref, ok := pool.RefOf(pa)
				if !ok {
					t.Fatalf("live page %v outside pool", pa)
				}
				if !pool.Frame(ref.Frame).Allocated(ref.Slot) {
					t.Fatalf("live page %v not allocated in pool", pa)
				}
				if owner := pool.Frame(ref.Frame).Owner; owner != asid {
					t.Fatalf("page of app %d in frame owned by %d", asid, owner)
				}
			}
		}
		if got := pool.AllocatedBasePages(); got != liveCount+regionPages {
			t.Fatalf("pool has %d pages, model %d", got, liveCount+regionPages)
		}
		if c.Stats().Violations != 0 {
			t.Fatal("soft guarantee violated without scavenging")
		}
	})
}
