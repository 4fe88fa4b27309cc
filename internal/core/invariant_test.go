package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/vmem"
)

// TestRandomAllocFreeInvariants drives a Mosaic manager through random
// interleaved allocations and deallocations from several applications and
// checks global invariants after every operation batch:
//
//  1. every mapped base page translates to a frame whose pool slot is
//     allocated and owned consistently;
//  2. the pool's allocated-page count equals the sum of mapped pages;
//  3. no frame holds pages of two applications unless a scavenge was
//     recorded (soft guarantee);
//  4. coalesced regions translate at 2MB granularity and their base
//     translations agree with the large mapping.
func TestRandomAllocFreeInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, Mosaic, func(c *config.Config, _ *Options) {
			c.TotalDRAMBytes = 96 << 20
			c.IOBusEnabled = false
		})

		const nApps = 3
		live := make([][]region2, nApps+1)
		nextVA := make([]vmem.VirtAddr, nApps+1)
		for a := 1; a <= nApps; a++ {
			if err := r.sys.RegisterApp(vmem.ASID(a)); err != nil {
				t.Fatal(err)
			}
			nextVA[a] = vmem.VirtAddr(1 << 30)
		}

		// Keep total live memory below ~60% of the pool so CoCoA never
		// needs the scavenge path; the guarantee invariant only holds
		// without memory pressure.
		budget := uint64(r.sys.Pool().NumFrames()) * vmem.LargePageSize * 6 / 10
		var liveBytes uint64

		var now uint64
		for op := 0; op < 150; op++ {
			now += 100
			a := rng.Intn(nApps) + 1
			asid := vmem.ASID(a)
			if (rng.Intn(3) > 0 || len(live[a]) == 0) && liveBytes < budget {
				// Allocate 1..4MB, sometimes aligned, sometimes ragged.
				size := uint64(rng.Intn(4)+1) << 20
				if rng.Intn(2) == 0 {
					size += uint64(rng.Intn(256)) * vmem.BasePageSize
				}
				va := nextVA[a]
				nextVA[a] = vmem.VirtAddr(vmem.AlignUp(uint64(va)+size, vmem.LargePageSize)) + vmem.LargePageSize
				if err := r.sys.AllocVirtual(now, asid, va, size); err != nil {
					t.Fatalf("seed %d op %d: alloc: %v", seed, op, err)
				}
				live[a] = append(live[a], region2{va, size})
				liveBytes += vmem.AlignUp(size, vmem.BasePageSize)
			} else {
				if len(live[a]) == 0 {
					continue
				}
				i := rng.Intn(len(live[a]))
				reg := live[a][i]
				if rng.Intn(2) == 0 {
					// Free the whole region.
					if err := r.sys.FreeVirtual(now, asid, reg.va, reg.size); err != nil {
						t.Fatalf("seed %d op %d: free: %v", seed, op, err)
					}
					live[a] = append(live[a][:i], live[a][i+1:]...)
					liveBytes -= vmem.AlignUp(reg.size, vmem.BasePageSize)
				} else {
					// Free a prefix.
					part := vmem.AlignDown(reg.size/2, vmem.BasePageSize)
					if part == 0 {
						continue
					}
					if err := r.sys.FreeVirtual(now, asid, reg.va, part); err != nil {
						t.Fatalf("seed %d op %d: partial free: %v", seed, op, err)
					}
					live[a][i] = region2{reg.va + vmem.VirtAddr(part), reg.size - part}
					liveBytes -= part
				}
			}
			checkInvariants(t, r, live, seed, op)
		}
	}
}

func checkInvariants(t *testing.T, r *testRig, live [][]region2, seed int64, op int) {
	t.Helper()
	pool := r.sys.Pool()
	var mappedTotal uint64
	for a := 1; a < len(live); a++ {
		asid := vmem.ASID(a)
		for _, reg := range live[a] {
			end := vmem.VirtAddr(vmem.AlignUp(uint64(reg.va)+reg.size, vmem.BasePageSize))
			for va := reg.va.BasePageBase(); va < end; va += vmem.BasePageSize {
				tr, ok := r.sys.Translate(asid, va)
				if !ok {
					t.Fatalf("seed %d op %d: live page %v of app %d does not translate", seed, op, va, a)
				}
				pa := tr.PhysOf(va)
				ref, inPool := pool.RefOf(pa)
				if !inPool {
					t.Fatalf("seed %d op %d: %v translates outside the pool (%v)", seed, op, va, pa)
				}
				f := pool.Frame(ref.Frame)
				if !f.Allocated(ref.Slot) {
					t.Fatalf("seed %d op %d: %v maps to unallocated slot %+v", seed, op, va, ref)
				}
				if tr.Size == vmem.Large {
					// Large translation must agree with the base mapping.
					if !tr.Frame.IsLargeAligned() {
						t.Fatalf("seed %d op %d: large frame %v misaligned", seed, op, tr.Frame)
					}
				}
				mappedTotal++
			}
		}
	}
	// Pool accounting: allocated slots >= live mapped pages (some slots
	// may be locked by coalesced frames awaiting splinter, and page-table
	// reservations are outside the pool).
	if got := pool.AllocatedBasePages(); got < mappedTotal {
		t.Fatalf("seed %d op %d: pool has %d allocated pages < %d live mapped", seed, op, got, mappedTotal)
	}
	// Soft guarantee: no violations under pure CoCoA flows without
	// memory pressure.
	if v := r.sys.AllocatorStats().Violations; v != 0 {
		t.Fatalf("seed %d op %d: %d soft-guarantee violations", seed, op, v)
	}
}

// region2 is one live virtual allocation in the invariant driver.
type region2 struct {
	va   vmem.VirtAddr
	size uint64
}

func TestCompactFragmentedRecoversFrames(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, _ *Options) {
		c.TotalDRAMBytes = 64 << 20
		c.IOBusEnabled = false
	})
	// Fragment everything at 25% occupancy: no free frames remain, but
	// compaction can consolidate four frames into one.
	r.sys.Pool().PreFragment(7, 1.0, 0.25)
	r.sys.RebuildFreeLists()
	if err := r.sys.RegisterApp(1); err != nil {
		t.Fatal(err)
	}
	// An aligned 2MB allocation needs a whole frame; only fragmented
	// compaction can provide one.
	if err := r.sys.AllocVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatalf("allocation with compaction available failed: %v", err)
	}
	s := r.sys.Stats()
	if s.Compactions == 0 || s.MigratedPages == 0 {
		t.Errorf("no fragmented compaction happened: %+v", s)
	}
	if s.StallCycles == 0 {
		t.Error("compaction migrations should stall the GPU (non-ideal CAC)")
	}
	// The region should have coalesced after getting its frame.
	if s.Coalesces != 1 {
		t.Errorf("Coalesces = %d, want 1", s.Coalesces)
	}
}

func TestCompactFragmentedRespectsCapacity(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, _ *Options) {
		c.TotalDRAMBytes = 64 << 20
		c.IOBusEnabled = false
	})
	// 90% occupancy: consolidating any frame's pages into the others'
	// free slots is impossible frame-for-frame... but capacity across
	// many frames may still allow one recovery; at 100% it cannot.
	r.sys.Pool().PreFragment(9, 1.0, 1.0)
	r.sys.RebuildFreeLists()
	r.sys.RegisterApp(1)
	err := r.sys.AllocVirtual(0, 1, 0, 2<<20)
	if err == nil {
		t.Fatal("allocation succeeded with zero free capacity")
	}
	if r.sys.Stats().Compactions != 0 {
		t.Error("compaction claimed success with no free slots")
	}
}

func TestBulkCopyFragmentedCompaction(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, o *Options) {
		c.TotalDRAMBytes = 64 << 20
		c.IOBusEnabled = false
		o.CAC = CACBulkCopy
	})
	r.sys.Pool().PreFragment(11, 1.0, 0.25)
	r.sys.RebuildFreeLists()
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	if r.sys.Stats().BulkCopies == 0 {
		t.Error("CAC-BC compaction used no bulk copies")
	}
}

func TestIdealCACFragmentedCompactionIsFree(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, o *Options) {
		c.TotalDRAMBytes = 64 << 20
		c.IOBusEnabled = false
		o.CAC = CACIdeal
	})
	r.sys.Pool().PreFragment(13, 1.0, 0.25)
	r.sys.RebuildFreeLists()
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	if r.sys.Stats().StallCycles != 0 {
		t.Errorf("ideal CAC stalled %d cycles", r.sys.Stats().StallCycles)
	}
}
