package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/vmem"
)

// pagedRig builds a Mosaic system with a bounded residency budget and
// warms it: one app, a working set larger than the budget, every faulted
// unit landed. The returned rig has a live pager in steady state.
func pagedRig(t *testing.T) *testRig {
	t.Helper()
	r := newRig(t, Mosaic, func(cfg *config.Config, opt *Options) {
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
// one policy seam, the residency order: once a pager is built, touching
// an entry and asking for the next victim must not allocate. These
// interface calls sit on the fault hot path, so a residency policy that
// allocates per query would show up in every bounded run.
func TestPolicySeamDispatchAllocFree(t *testing.T) {
	p := pagedRig(t).sys.pager
	e := p.res.Victim()
	if e == nil {
		t.Fatal("warm pager has no victim")
	}
	if avg := testing.AllocsPerRun(200, func() {
		p.res.Touch(e)
		if p.res.Victim() == nil {
			t.Fatal("victim vanished")
		}
	}); avg != 0 {
		t.Fatalf("residency dispatch allocates %.1f objects/op, want 0", avg)
	}
}

// TestPagerResidentHitAllocFree guards the pager's warm path: touching an
// already-resident page goes through ResidencyPolicy.Touch (an intrusive
// list requeue) and must not allocate.
func TestPagerResidentHitAllocFree(t *testing.T) {
	r := pagedRig(t)
	s := r.sys
	// Find a resident address: the victim queue's back entry is resident.
	e := s.pager.res.Victim()
	if e == nil {
		t.Fatal("warm pager has no victim")
	}
	va := e.VA()
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
}

// TestLRUResidencyCloneOrder pins the Clone contract third-party
// policies must honor: the clone preserves the source's exact victim
// order over remapped entries (the snapshot-fork byte-identity
// requirement from docs/ARCHITECTURE.md §6).
func TestLRUResidencyCloneOrder(t *testing.T) {
	res := NewLRUResidency()
	entries := make([]*PageEntry, 4)
	for i := range entries {
		entries[i] = &PageEntry{asid: 1, key: uint64(i), pages: 1}
		res.Insert(entries[i])
	}
	res.Touch(entries[0]) // victim order now 1, 2, 3, 0
	clones := make(map[uint64]*PageEntry, len(entries))
	for _, e := range entries {
		clones[e.key] = &PageEntry{asid: e.asid, key: e.key, pages: e.pages}
	}
	cl := res.Clone(func(e *PageEntry) *PageEntry { return clones[e.key] })
	for _, wantKey := range []uint64{1, 2, 3, 0} {
		v := cl.Victim()
		if v == nil {
			t.Fatalf("clone ran out of victims before key %d", wantKey)
		}
		if v.Key() != wantKey {
			t.Fatalf("clone victim key = %d, want %d", v.Key(), wantKey)
		}
		if v == entries[wantKey] {
			t.Fatal("clone returned a source entry instead of its remapped copy")
		}
		cl.Remove(v)
	}
	// The source policy must be untouched by draining the clone.
	if v := res.Victim(); v == nil || v.Key() != 1 {
		t.Fatalf("source policy disturbed by clone drain: victim %+v", v)
	}
}

// TestFaultPathAllocFree guards the steady-state demand-fault path: once
// every page has faulted in once, a sweep that keeps evicting and
// refaulting pages — single pages, clean or written back, under GPU-MMU
// and whole coalesced frames under Mosaic — allocates
// nothing. Entries carry pre-bound landing callbacks, fired waiter
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
