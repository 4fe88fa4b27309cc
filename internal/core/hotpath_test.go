package core

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/vmem"
)

// pagedRig builds a system under policy with a bounded residency budget
// and warms it: one app, a working set larger than the budget, every
// faulted unit landed. The returned rig has a live pager in steady state.
func pagedRig(t *testing.T, policy Policy) *testRig {
	t.Helper()
	r := newRig(t, policy, func(cfg *config.Config, opt *Options) {
		cfg.MaxResidentPages = 4 * vmem.BasePagesPerLarge // four 2MB frames
	})
	if err := r.sys.RegisterApp(1); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.AllocVirtual(0, 1, 0, 8*vmem.LargePageSize); err != nil {
		t.Fatal(err)
	}
	now := uint64(1)
	for i := uint64(0); i < 8; i++ {
		r.sys.EnsureResident(now, 1, vmem.VirtAddr(i*vmem.LargePageSize), nil)
		now += 1000
		r.drain()
	}
	if r.sys.pager == nil {
		t.Fatal("bounded config did not build a pager")
	}
	return r
}

// TestPolicySeamDispatchAllocFree guards the steady-state cost of the
// one per-policy pager behavior, the residency order: once a pager is
// built, touching an entry and asking for the next victim must not
// allocate. These calls sit on the fault hot path, so an order that
// allocated per query would show up in every bounded run.
func TestPolicySeamDispatchAllocFree(t *testing.T) {
	p := pagedRig(t, Mosaic).sys.pager
	e := p.res.back()
	if e == nil {
		t.Fatal("warm pager has no victim")
	}
	if avg := testing.AllocsPerRun(200, func() {
		p.touch(e)
		if p.res.back() == nil {
			t.Fatal("victim vanished")
		}
	}); avg != 0 {
		t.Fatalf("residency dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestPagerResidentHitAllocFree guards the pager's warm path under both
// victim orders: touching an already-resident page (an intrusive list
// requeue under LRU, nothing under FIFO) must not allocate.
func TestPagerResidentHitAllocFree(t *testing.T) {
	for _, policy := range []Policy{Mosaic, FIFOMMU} {
		t.Run(policy.String(), func(t *testing.T) {
			s := pagedRig(t, policy).sys
			// Find a resident address: the victim queue's back entry is resident.
			e := s.pager.res.back()
			if e == nil {
				t.Fatal("warm pager has no victim")
			}
			va := e.va
			if !s.EnsureResident(1<<20, 1, va, nil) {
				t.Fatal("victim entry not resident")
			}
			if avg := testing.AllocsPerRun(200, func() {
				if !s.EnsureResident(1<<20, 1, va, nil) {
					t.Fatal("page fell out of residency during warm loop")
				}
			}); avg != 0 {
				t.Fatalf("resident-hit fault path allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// TestUnboundedResidentHitAllocFree guards the resident hit of a run
// without a residency bound, the path every access of the paper's
// in-memory figures takes: the ASID-indexed app slice and the app's dense
// residency table, with no allocation.
func TestUnboundedResidentHitAllocFree(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	s := r.sys
	if err := s.RegisterApp(1); err != nil {
		t.Fatal(err)
	}
	va := vmem.VirtAddr(1<<30 + 5*vmem.BasePageSize)
	s.EnsureResident(1, 1, va, nil)
	r.drain()
	if avg := testing.AllocsPerRun(200, func() {
		if !s.EnsureResident(1<<20, 1, va, nil) {
			t.Fatal("landed page not resident")
		}
	}); avg != 0 {
		t.Fatalf("unbounded resident hit allocates %.1f objects/op, want 0", avg)
	}
}

// TestFaultPathAllocFree guards the steady-state demand-fault path: once
// every page has faulted in once, a sweep that keeps evicting and
// refaulting pages — single pages, clean or written back, under GPU-MMU
// and whole coalesced frames under Mosaic — allocates
// nothing. Page-ins land through pooled records, fired waiter
// slices are reused, and write-back records are pooled.
func TestFaultPathAllocFree(t *testing.T) {
	for _, policy := range []Policy{GPUMMU4K, Mosaic} {
		t.Run(policy.String(), func(t *testing.T) {
			r := newRig(t, policy, func(cfg *config.Config, opt *Options) {
				cfg.MaxResidentPages = vmem.BasePagesPerLarge
			})
			s := r.sys
			if err := s.RegisterApp(1); err != nil {
				t.Fatal(err)
			}
			if err := s.AllocVirtual(0, 1, 0, 8*vmem.LargePageSize); err != nil {
				t.Fatal(err)
			}
			landed := 0
			done := func(uint64) { landed++ }
			now := uint64(1)
			// One pass touches 80 pages in each of 8 frames, more than the
			// one-frame budget, so every pass after the first refaults.
			pass := func() {
				for f := uint64(0); f < 8; f++ {
					for pg := uint64(0); pg < 80; pg++ {
						va := vmem.VirtAddr(f*vmem.LargePageSize + pg*5*vmem.BasePageSize)
						s.EnsureResident(now, 1, va, done)
						for {
							c, ok := r.q.NextCycle()
							if !ok {
								break
							}
							r.q.RunDue(c)
							now = max(now, c)
						}
						now++
					}
				}
			}
			pass()
			pass()
			before := s.Stats()
			if avg := testing.AllocsPerRun(20, pass); avg != 0 {
				t.Fatalf("refault sweep allocates %.1f objects per pass, want 0", avg)
			}
			after := s.Stats()
			// Whole coalesced frames always hold a dirty page, so only the
			// page-granular baseline also drops clean victims.
			if after.Refaults == before.Refaults || after.WriteBacks == before.WriteBacks ||
				(policy == GPUMMU4K && after.CleanDrops == before.CleanDrops) {
				t.Fatalf("sweep did not exercise refaults, write-backs and clean drops: %+v -> %+v", before, after)
			}
			if landed == 0 {
				t.Fatal("no fault completion fired")
			}
		})
	}
}

// TestFirstFaultAllocFree guards the first fault of a unit: its entry is
// carved from a per-app chunk, its page-in lands through a pooled record
// and its waiter slice comes from the pool, so once the pools are warm a
// sweep over never-touched pages allocates only for a new chunk and the
// residency table's occasional growth.
func TestFirstFaultAllocFree(t *testing.T) {
	for _, policy := range []Policy{GPUMMU4K, Mosaic} {
		t.Run(policy.String(), func(t *testing.T) {
			r := newRig(t, policy, nil)
			s := r.sys
			if err := s.RegisterApp(1); err != nil {
				t.Fatal(err)
			}
			done := func(uint64) {}
			next, now := uint64(0), uint64(1)
			// sweep first-faults n fresh pages, eight in flight at a time.
			sweep := func(n int) {
				for i := 0; i < n; i++ {
					va := vmem.VirtAddr(1<<30 + next*vmem.BasePageSize)
					next++
					if s.EnsureResident(now, 1, va, done) {
						t.Fatalf("page %v resident before its first fault", va)
					}
					if i%8 == 7 {
						r.drain()
					}
					now += 10
				}
				r.drain()
			}
			sweep(4096)
			const faults = 16384
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sweep(faults)
			runtime.ReadMemStats(&after)
			if per := float64(after.Mallocs-before.Mallocs) / faults; per >= 1.0/32 {
				t.Fatalf("first fault allocates %.4f objects on average, want < 1/32", per)
			}
			if got := s.Stats().FarFaults; got != 4096+faults {
				t.Fatalf("FarFaults = %d, want %d", got, 4096+faults)
			}
		})
	}
}
