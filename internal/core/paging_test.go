package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/vmem"
)

// checkPagingInvariants asserts the counter relationships every bounded-
// residency run must satisfy: each eviction resolves to exactly one
// write-back or clean drop, and the manager's write-back count matches
// what actually crossed the bus.
func checkPagingInvariants(t *testing.T, r *testRig) {
	t.Helper()
	s := r.sys.Stats()
	if s.Evictions != s.WriteBacks+s.CleanDrops {
		t.Errorf("Evictions (%d) != WriteBacks (%d) + CleanDrops (%d)",
			s.Evictions, s.WriteBacks, s.CleanDrops)
	}
	if bus := r.sys.bus.Stats(); bus.TotalWriteBacks() != s.WriteBacks {
		t.Errorf("bus write-backs (%d) != manager WriteBacks (%d)",
			bus.TotalWriteBacks(), s.WriteBacks)
	}
	if r.sys.ResidentPages() > r.cfg.MaxResidentPages {
		t.Errorf("resident pages %d exceed budget %d",
			r.sys.ResidentPages(), r.cfg.MaxResidentPages)
	}
	if s.PeakResidentPages > r.cfg.MaxResidentPages {
		t.Errorf("peak resident pages %d exceed budget %d (admission control breached)",
			s.PeakResidentPages, r.cfg.MaxResidentPages)
	}
}

func newPagedRig(t *testing.T, policy Policy, budget uint64) *testRig {
	return newRig(t, policy, func(c *config.Config, _ *Options) {
		c.MaxResidentPages = budget
	})
}

func TestPagerEvictsLRUBasePages(t *testing.T) {
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)

	// Fault exactly the budget: no eviction.
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), nil)
	}
	r.drain()
	if s := r.sys.Stats(); s.Evictions != 0 {
		t.Fatalf("evictions before budget exceeded: %+v", s)
	}
	if got := r.sys.ResidentPages(); got != budget {
		t.Fatalf("ResidentPages = %d, want %d", got, budget)
	}
	if !r.sys.IsResident(1, 0) {
		t.Fatal("first page not resident")
	}

	// One past the budget: the least-recently-used page (the first) goes.
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(budget*vmem.BasePageSize), nil)
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 1 {
		t.Fatalf("evictions = %d / pages = %d, want 1/1", s.Evictions, s.EvictedPages)
	}
	if r.sys.IsResident(1, 0) {
		t.Error("LRU victim still resident")
	}
	if !r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("second page (not LRU) evicted")
	}
	if s.PeakResidentPages != budget {
		t.Errorf("PeakResidentPages = %d, want %d", s.PeakResidentPages, budget)
	}
	checkPagingInvariants(t, r)

	// Touching a page moves it off the LRU tail: re-touch the now-oldest
	// page (page 1), fault another new one, and page 2 must be the victim.
	if !r.sys.EnsureResident(100, 1, vmem.BasePageSize, nil) {
		t.Fatal("touch of resident page should not fault")
	}
	r.sys.EnsureResident(100, 1, vmem.VirtAddr((budget+1)*vmem.BasePageSize), nil)
	r.drain()
	if !r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("recently touched page evicted (not LRU order)")
	}
	if r.sys.IsResident(1, 2*vmem.BasePageSize) {
		t.Error("expected page 2 to be the second victim")
	}
	checkPagingInvariants(t, r)
}

func TestPagerRefaultCountsAndCompletes(t *testing.T) {
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), nil)
	}
	r.drain()
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(budget*vmem.BasePageSize), nil) // evicts page 0
	r.drain()
	if r.sys.Stats().Refaults != 0 {
		t.Fatal("refault counted before any re-touch")
	}
	var doneAt uint64
	if r.sys.EnsureResident(1000, 1, 0, func(c uint64) { doneAt = c }) {
		t.Fatal("evicted page claimed resident")
	}
	r.drain()
	s := r.sys.Stats()
	if s.Refaults != 1 {
		t.Errorf("Refaults = %d, want 1", s.Refaults)
	}
	if doneAt < 1000+r.cfg.IOBaseFaultCycles {
		t.Errorf("refault completed at %d, want >= %d (bus latency)", doneAt, 1000+r.cfg.IOBaseFaultCycles)
	}
	if !r.sys.IsResident(1, 0) {
		t.Error("refaulted page not resident")
	}
	checkPagingInvariants(t, r)
}

func TestPagerDirtyWriteBackAndCleanDropBothOccur(t *testing.T) {
	// Evict many single pages; the deterministic dirty hash marks ~half,
	// so both paths must appear and partition the evictions.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	for i := uint64(0); i < budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), nil)
	}
	r.drain()
	for i := uint64(0); i < 64; i++ {
		r.sys.EnsureResident(1, 1, vmem.VirtAddr((budget+i)*vmem.BasePageSize), nil)
	}
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 64 {
		t.Fatalf("Evictions = %d, want 64", s.Evictions)
	}
	if s.WriteBacks == 0 || s.CleanDrops == 0 {
		t.Errorf("want both write-backs (%d) and clean drops (%d) among 64 evictions",
			s.WriteBacks, s.CleanDrops)
	}
	bus := r.sys.bus.Stats()
	if bus.WriteBackBase != s.WriteBacks || bus.WriteBackLarge != 0 {
		t.Errorf("bus write-backs base/large = %d/%d, manager %d", bus.WriteBackBase, bus.WriteBackLarge, s.WriteBacks)
	}
	checkPagingInvariants(t, r)
}

func TestPagerLargeGranularityEviction(t *testing.T) {
	// The 2MB-only manager faults and evicts whole large pages: budget for
	// one frame means every new region displaces the previous one — the
	// thrash amplification of §3.2.
	r := newPagedRig(t, GPUMMU2M, 512)
	r.sys.RegisterApp(1)
	r.sys.EnsureResident(0, 1, 0, nil)
	r.drain()
	if got := r.sys.ResidentPages(); got != 512 {
		t.Fatalf("ResidentPages = %d after one 2MB fault, want 512", got)
	}
	r.sys.EnsureResident(0, 1, vmem.LargePageSize, nil)
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 512 {
		t.Fatalf("evictions = %d / pages = %d, want 1/512", s.Evictions, s.EvictedPages)
	}
	if r.sys.IsResident(1, 0) {
		t.Error("evicted 2MB page still resident")
	}
	bus := r.sys.bus.Stats()
	if s.WriteBacks == 1 && bus.WriteBackLarge != 1 {
		t.Errorf("dirty 2MB eviction should cross the bus as one large write-back, got %+v", bus)
	}
	checkPagingInvariants(t, r)
}

func TestPagerMosaicEvictsWholeCoalescedFrame(t *testing.T) {
	// Mosaic faults at 4KB but a victim inside a coalesced region takes
	// the whole 2MB frame with it: one eviction, 512 pages, at most one
	// large write-back. Translation survives — pages refault individually.
	r := newPagedRig(t, Mosaic, 512)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	if r.sys.Stats().Coalesces != 1 {
		t.Fatal("region did not coalesce")
	}
	for i := uint64(0); i < 512; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), nil)
	}
	r.drain()
	if got := r.sys.ResidentPages(); got != 512 {
		t.Fatalf("ResidentPages = %d, want 512", got)
	}

	// Fault a page of a second (uncoalesced) range: the LRU victim is
	// page 0 of the coalesced region, and its whole frame goes.
	if err := r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 64<<10); err != nil {
		t.Fatal(err)
	}
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(8<<21), nil)
	r.drain()
	s := r.sys.Stats()
	if s.Evictions != 1 || s.EvictedPages != 512 {
		t.Fatalf("evictions = %d / pages = %d, want 1/512 (whole coalesced frame)", s.Evictions, s.EvictedPages)
	}
	bus := r.sys.bus.Stats()
	if s.WriteBacks+s.CleanDrops != 1 {
		t.Fatalf("frame eviction split into %d write-backs + %d drops", s.WriteBacks, s.CleanDrops)
	}
	if s.WriteBacks == 1 && bus.WriteBackLarge != 1 {
		t.Errorf("coalesced-frame write-back should be one 2MB transfer, bus %+v", bus)
	}
	// Translation is intact (residency is a tier below translation).
	if tr, ok := r.sys.Translate(1, 0); !ok || tr.Size != vmem.Large {
		t.Errorf("coalesced translation lost on eviction: %+v %v", tr, ok)
	}
	if r.sys.IsResident(1, 0) || r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("evicted frame pages still resident")
	}
	// Pages come back at base granularity, counted as refaults.
	r.sys.EnsureResident(0, 1, 0, nil)
	r.drain()
	s = r.sys.Stats()
	if s.Refaults != 1 {
		t.Errorf("Refaults = %d, want 1", s.Refaults)
	}
	if !r.sys.IsResident(1, 0) || r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("refault should restore one base page only")
	}
	checkPagingInvariants(t, r)
}

func TestPagerMosaicUncoalescedEvictsSinglePages(t *testing.T) {
	r := newPagedRig(t, Mosaic, 512)
	r.sys.RegisterApp(1)
	// A 1MB allocation does not coalesce; victims are single base pages.
	if err := r.sys.AllocVirtual(0, 1, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr((i%256)*vmem.BasePageSize+(i/256)<<30), nil)
	}
	r.drain()
	r.sys.EnsureResident(0, 1, vmem.VirtAddr(3<<30), nil)
	r.drain()
	s := r.sys.Stats()
	if s.Evictions == 0 {
		t.Fatal("no eviction past budget")
	}
	if s.EvictedPages != s.Evictions {
		t.Errorf("uncoalesced Mosaic evictions should be single pages: %d evictions, %d pages",
			s.Evictions, s.EvictedPages)
	}
	checkPagingInvariants(t, r)
}

func TestPagerCoalescesConcurrentFaults(t *testing.T) {
	r := newPagedRig(t, GPUMMU4K, 512)
	r.sys.RegisterApp(1)
	first, second := false, false
	r.sys.EnsureResident(0, 1, 0x100, func(uint64) { first = true })
	r.sys.EnsureResident(0, 1, 0x200, func(uint64) { second = true })
	if s := r.sys.Stats(); s.FarFaults != 1 || s.CoalescedFaults != 1 {
		t.Fatalf("fault stats = %+v, want one transfer + one coalesced", s)
	}
	r.drain()
	if !first || !second {
		t.Error("waiters not fired")
	}
}

func TestPagerAdmissionQueueBoundsResidency(t *testing.T) {
	// Burst twice the budget of faults at cycle 0, before anything can
	// land: the pool must never commit beyond the budget — the excess
	// waits in the fault queue and is admitted as transfers land, and
	// every waiter still fires exactly once.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	fired := 0
	for i := uint64(0); i < 2*budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), func(uint64) { fired++ })
	}
	if got := r.sys.ResidentPages(); got > budget {
		t.Fatalf("committed %d pages at burst time, budget %d", got, budget)
	}
	r.drain()
	s := r.sys.Stats()
	if fired != 2*budget {
		t.Errorf("fired %d waiters, want %d", fired, 2*budget)
	}
	if s.FarFaults != 2*budget {
		t.Errorf("FarFaults = %d, want %d", s.FarFaults, 2*budget)
	}
	if s.PeakResidentPages > budget {
		t.Errorf("peak resident %d exceeds budget %d", s.PeakResidentPages, budget)
	}
	if s.Evictions == 0 {
		t.Error("queued faults admitted without evicting earlier pages")
	}
	checkPagingInvariants(t, r)
}

func TestPagerAdmissionQueueDischargesFreedFaults(t *testing.T) {
	// Free a range while some of its faults still wait in the admission
	// queue: the queued faults must unblock their warps without moving
	// data or leaking budget.
	const budget = 512
	r := newPagedRig(t, GPUMMU4K, budget)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, (2*budget)*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := uint64(0); i < 2*budget; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), func(uint64) { fired++ })
	}
	if err := r.sys.FreeVirtual(1, 1, 0, (2*budget)*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	r.drain()
	if fired != 2*budget {
		t.Errorf("fired %d waiters, want %d (freed queued faults must still unblock)", fired, 2*budget)
	}
	if got := r.sys.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages = %d after free, want 0", got)
	}
}

func TestPagerReleasesBudgetOnFree(t *testing.T) {
	r := newPagedRig(t, GPUMMU4K, 512)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 256<<10); err != nil { // 64 pages
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		r.sys.EnsureResident(0, 1, vmem.VirtAddr(i*vmem.BasePageSize), nil)
	}
	r.drain()
	if got := r.sys.ResidentPages(); got != 64 {
		t.Fatalf("ResidentPages = %d, want 64", got)
	}
	if err := r.sys.FreeVirtual(100, 1, 0, 256<<10); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages = %d after free, want 0 (budget released)", got)
	}
	// Freed pages owe no write-back.
	if wb := r.sys.bus.Stats().TotalWriteBacks(); wb != 0 {
		t.Errorf("free of resident pages wrote back %d transfers", wb)
	}
}

// TestPagerUnboundedConfigIsInert pins what an unbounded pager leaves
// alone: it moves data, but never evicts or queues a fault, and the
// bounded-residency counters (omitted from unbounded RunRecords) stay
// zero. The ideal TLB is exempt from a residency bound, so it behaves
// the same under one.
func TestPagerUnboundedConfigIsInert(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *testRig
	}{
		{"unbounded Mosaic", newRig(t, Mosaic, nil)}, // MaxResidentPages unset
		{"bounded ideal TLB", newRig(t, IdealTLB, func(c *config.Config, _ *Options) {
			c.MaxResidentPages = 512
		})},
	} {
		name, r := tc.name, tc.r
		r.sys.RegisterApp(1)
		const pages = 4 * 512 // four times the smallest bound
		if err := r.sys.AllocVirtual(0, 1, 0, pages*vmem.BasePageSize); err != nil {
			t.Fatal(err)
		}
		fired := 0
		for i := uint64(0); i < pages; i++ {
			r.sys.EnsureResident(i/64, 1, vmem.VirtAddr(i*vmem.BasePageSize), func(uint64) { fired++ })
		}
		r.drain()
		s := r.sys.Stats()
		if fired != pages || s.FarFaults != pages {
			t.Errorf("%s: %d of %d faults fired, FarFaults %d", name, fired, pages, s.FarFaults)
		}
		for i := uint64(0); i < pages; i++ {
			if !r.sys.IsResident(1, vmem.VirtAddr(i*vmem.BasePageSize)) {
				t.Fatalf("%s: page %d not resident", name, i)
			}
		}
		if s.Evictions != 0 || s.EvictedPages != 0 || s.WriteBacks != 0 || s.CleanDrops != 0 || s.Refaults != 0 {
			t.Errorf("%s: evicted without a bound: %+v", name, s)
		}
		if r.sys.ResidentPages() != 0 || s.PeakResidentPages != 0 {
			t.Errorf("%s: ResidentPages %d, PeakResidentPages %d, want 0 and 0",
				name, r.sys.ResidentPages(), s.PeakResidentPages)
		}
	}
}
