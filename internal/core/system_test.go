package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/vmem"
)

// testRig bundles a System with its event infrastructure.
type testRig struct {
	q   *event.Queue
	sys *System
	cfg config.Config
}

func newRig(t *testing.T, policy Policy, mutate func(*config.Config, *Options)) *testRig {
	t.Helper()
	cfg := config.Default()
	cfg.TotalDRAMBytes = 256 << 20 // keep pools small for tests
	opt, err := ResolveOptions(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg, &opt)
	}
	q := &event.Queue{}
	bus := iobus.New(cfg, q)
	mem := dram.New(cfg, q)
	sys, err := NewSystem(cfg, opt, q, bus, mem)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{q: q, sys: sys, cfg: cfg}
}

func (r *testRig) drain() {
	for {
		c, ok := r.q.NextCycle()
		if !ok {
			return
		}
		r.q.RunDue(c)
	}
}

func TestRegisterApp(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	if err := r.sys.RegisterApp(1); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.RegisterApp(1); err == nil {
		t.Error("double registration accepted")
	}
	if err := r.sys.RegisterApp(vmem.RuntimeASID); err == nil {
		t.Error("runtime ASID registration accepted")
	}
	if err := r.sys.AllocVirtual(0, 99, 0, 4096); err == nil {
		t.Error("alloc for unregistered app accepted")
	}
}

func TestMosaicAllocCoalescesAlignedRegions(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	// 4MB aligned allocation = 2 regions, both coalescible.
	if err := r.sys.AllocVirtual(0, 1, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.Stats().Coalesces; got != 2 {
		t.Errorf("Coalesces = %d, want 2", got)
	}
	tr, ok := r.sys.Translate(1, 0x1234)
	if !ok || tr.Size != vmem.Large {
		t.Errorf("translation = %+v %v, want large", tr, ok)
	}
	// Base pages contiguous within the large frame.
	tr2, _ := r.sys.Translate(1, vmem.LargePageSize+5)
	if tr2.Size != vmem.Large {
		t.Error("second region not coalesced")
	}
}

func TestMosaicPartialRegionUsesBasePages(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	// 1MB allocation: half a region; must not coalesce.
	if err := r.sys.AllocVirtual(0, 1, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.Stats().Coalesces; got != 0 {
		t.Errorf("Coalesces = %d, want 0", got)
	}
	tr, ok := r.sys.Translate(1, 0)
	if !ok || tr.Size != vmem.Base {
		t.Errorf("translation = %+v %v, want base", tr, ok)
	}
	if _, ok := r.sys.Translate(1, 1<<20); ok {
		t.Error("unallocated address translated")
	}
}

func TestGPUMMU4KNeverCoalesces(t *testing.T) {
	r := newRig(t, GPUMMU4K, nil)
	r.sys.RegisterApp(1)
	r.sys.RegisterApp(2)
	if err := r.sys.AllocVirtual(0, 1, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.AllocVirtual(0, 2, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	if got := r.sys.Stats().Coalesces; got != 0 {
		t.Errorf("baseline coalesced %d regions", got)
	}
	tr, ok := r.sys.Translate(1, 0)
	if !ok || tr.Size != vmem.Base {
		t.Errorf("translation = %+v %v", tr, ok)
	}
}

func TestGPUMMU2MBacksPartialRegionsWithWholeFrames(t *testing.T) {
	r := newRig(t, GPUMMU2M, nil)
	r.sys.RegisterApp(1)
	// Allocate 100KB: the 2MB manager still burns a whole frame.
	if err := r.sys.AllocVirtual(0, 1, 0, 100<<10); err != nil {
		t.Fatal(err)
	}
	tr, ok := r.sys.Translate(1, 0)
	if !ok || tr.Size != vmem.Large {
		t.Errorf("translation = %+v %v, want large", tr, ok)
	}
	// Bloat: footprint 2MB vs 100KB live.
	if bloat := r.sys.BloatPct(1); bloat < 100 {
		t.Errorf("bloat = %.1f%%, want >> 100%%", bloat)
	}
}

func TestMosaicBloatIsLow(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 32<<20); err != nil {
		t.Fatal(err)
	}
	if bloat := r.sys.BloatPct(1); bloat > 1 {
		t.Errorf("bloat = %.2f%%, want ~0 for aligned alloc", bloat)
	}
}

func TestDemandPagingFarFault(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	if r.sys.IsResident(1, 0) {
		t.Fatal("page resident before first touch")
	}
	var faultDone uint64
	if resident := r.sys.EnsureResident(0, 1, 0x100, func(c uint64) { faultDone = c }); resident {
		t.Fatal("EnsureResident claimed residency")
	}
	// Concurrent fault on the same page coalesces.
	coalesced := false
	r.sys.EnsureResident(0, 1, 0x200, func(uint64) { coalesced = true })
	r.drain()
	if faultDone != r.cfg.IOBaseFaultCycles {
		t.Errorf("fault done at %d, want %d (4KB transfer)", faultDone, r.cfg.IOBaseFaultCycles)
	}
	if !coalesced {
		t.Error("coalesced fault callback missing")
	}
	s := r.sys.Stats()
	if s.FarFaults != 1 || s.CoalescedFaults != 1 {
		t.Errorf("fault stats = %+v", s)
	}
	if !r.sys.IsResident(1, 0) {
		t.Error("page not resident after fault")
	}
	// A different base page of the same region faults separately (Mosaic
	// transfers at base granularity even for coalesced regions).
	if r.sys.IsResident(1, vmem.BasePageSize) {
		t.Error("neighboring base page resident without fault")
	}
}

func TestLargeFaultGranularity(t *testing.T) {
	r := newRig(t, GPUMMU2M, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	var faultDone uint64
	r.sys.EnsureResident(0, 1, 0, func(c uint64) { faultDone = c })
	r.drain()
	if faultDone != r.cfg.IOLargeFaultCycles {
		t.Errorf("fault done at %d, want %d (2MB transfer)", faultDone, r.cfg.IOLargeFaultCycles)
	}
	// The whole region is now resident.
	if !r.sys.IsResident(1, vmem.LargePageSize-1) {
		t.Error("tail of region not resident after 2MB transfer")
	}
}

func TestNoDemandPagingConfig(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, _ *Options) { c.IOBusEnabled = false })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	if !r.sys.IsResident(1, 0) {
		t.Error("page not resident with paging disabled")
	}
	if !r.sys.EnsureResident(0, 1, 0, nil) {
		t.Error("EnsureResident should be a no-op with paging disabled")
	}
	if r.sys.Stats().FarFaults != 0 {
		t.Error("far fault counted with paging disabled")
	}
}

func TestFreeVirtualReleasesMemory(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	before := r.sys.Pool().AllocatedBasePages()
	if err := r.sys.FreeVirtual(0, 1, 0, 2<<20); err != nil {
		t.Fatal(err)
	}
	after := r.sys.Pool().AllocatedBasePages()
	if after != before-vmem.BasePagesPerLarge {
		t.Errorf("allocated pages %d -> %d, want -512", before, after)
	}
	if _, ok := r.sys.Translate(1, 0); ok {
		t.Error("freed page still translates")
	}
	if r.sys.LiveBytes(1) != 0 {
		t.Errorf("LiveBytes = %d", r.sys.LiveBytes(1))
	}
	// Whole region freed: splinter happened, frame recycled.
	if r.sys.Stats().Splinters != 1 {
		t.Errorf("Splinters = %d, want 1", r.sys.Stats().Splinters)
	}
}

func TestCACCompactsBelowThreshold(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	// Two regions: one to shrink, one partial frame to receive migrants.
	r.sys.AllocVirtual(0, 1, 0, 2<<20)                      // region A, coalesced
	r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 256<<10) // 64 base pages in partial frame
	// Free 90% of region A -> occupancy 10% < 50% threshold.
	freePages := uint64(460)
	if err := r.sys.FreeVirtual(0, 1, 0, freePages*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	s := r.sys.Stats()
	if s.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1 (stats %+v)", s.Compactions, s)
	}
	if s.MigratedPages != vmem.BasePagesPerLarge-freePages {
		t.Errorf("MigratedPages = %d, want %d", s.MigratedPages, vmem.BasePagesPerLarge-freePages)
	}
	if s.StallCycles == 0 {
		t.Error("compaction should stall the GPU under the worst-case model")
	}
	// Surviving pages still translate (at base granularity now).
	survivor := vmem.VirtAddr(freePages * vmem.BasePageSize)
	tr, ok := r.sys.Translate(1, survivor)
	if !ok || tr.Size != vmem.Base {
		t.Errorf("survivor translation = %+v %v", tr, ok)
	}
}

func TestCACIdealHasNoStall(t *testing.T) {
	r := newRig(t, Mosaic, func(_ *config.Config, o *Options) { o.CAC = CACIdeal })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 256<<10)
	r.sys.FreeVirtual(0, 1, 0, 460*vmem.BasePageSize)
	if r.sys.Stats().StallCycles != 0 {
		t.Errorf("ideal CAC stalled %d cycles", r.sys.Stats().StallCycles)
	}
	if r.sys.Stats().Compactions != 1 {
		t.Errorf("Compactions = %d", r.sys.Stats().Compactions)
	}
}

func TestCACBulkCopyUsed(t *testing.T) {
	r := newRig(t, Mosaic, func(_ *config.Config, o *Options) { o.CAC = CACBulkCopy })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 1<<20) // plenty of slots
	r.sys.FreeVirtual(0, 1, 0, 480*vmem.BasePageSize)
	s := r.sys.Stats()
	if s.Compactions != 1 {
		t.Fatalf("Compactions = %d", s.Compactions)
	}
	if s.BulkCopies == 0 {
		t.Error("CAC-BC performed no bulk copies")
	}
}

func TestEmergencyListAboveThreshold(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	// Free only 10% -> occupancy 90% >= threshold: park on emergency list.
	if err := r.sys.FreeVirtual(0, 1, 0, 51*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	s := r.sys.Stats()
	if s.Compactions != 0 {
		t.Errorf("compaction ran above threshold")
	}
	if s.EmergencyAdds != 1 || r.sys.EmergencyListLen() != 1 {
		t.Errorf("emergency adds=%d len=%d", s.EmergencyAdds, r.sys.EmergencyListLen())
	}
	// Region must still be coalesced.
	tr, ok := r.sys.Translate(1, 60*vmem.BasePageSize)
	if !ok || tr.Size != vmem.Large {
		t.Errorf("region splintered prematurely: %+v %v", tr, ok)
	}
}

func TestEmergencySplinterOnAllocPressure(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, _ *Options) {
		c.TotalDRAMBytes = 16 << 20 // 4MB reserve -> 6 frames
	})
	r.sys.RegisterApp(1)
	nFrames := r.sys.Pool().NumFrames()
	// Fill all frames with coalesced regions.
	for i := 0; i < nFrames; i++ {
		if err := r.sys.AllocVirtual(0, 1, vmem.VirtAddr(i)<<21, 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	// Free a bit of one region (stays coalesced, goes on emergency list).
	if err := r.sys.FreeVirtual(0, 1, 0, 100*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	if r.sys.EmergencyListLen() != 1 {
		t.Fatalf("emergency list len = %d", r.sys.EmergencyListLen())
	}
	// New allocation: no free frames -> failsafe splinters the emergency
	// frame and serves from its unallocated pages.
	if err := r.sys.AllocVirtual(0, 1, vmem.VirtAddr(nFrames)<<21, 50*vmem.BasePageSize); err != nil {
		t.Fatalf("allocation under pressure failed: %v", err)
	}
	s := r.sys.Stats()
	if s.EmergencySplinters != 1 {
		t.Errorf("EmergencySplinters = %d, want 1", s.EmergencySplinters)
	}
	if s.AllocFallbacks == 0 {
		t.Error("AllocFallbacks not counted")
	}
}

func TestSoftGuaranteeAcrossApps(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.RegisterApp(2)
	// Interleaved partial allocations: frames must stay single-app.
	for i := 0; i < 8; i++ {
		va := vmem.VirtAddr(i) << 21
		if err := r.sys.AllocVirtual(0, 1, va, 64<<10); err != nil {
			t.Fatal(err)
		}
		if err := r.sys.AllocVirtual(0, 2, va, 64<<10); err != nil {
			t.Fatal(err)
		}
	}
	if v := r.sys.AllocatorStats().Violations; v != 0 {
		t.Errorf("soft guarantee violated %d times", v)
	}
}

func TestFlushHooksCalledOnSplinter(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	var largeFlushes, baseFlushes int
	r.sys.SetFlushHooks(
		func(vmem.ASID, vmem.VirtAddr) { largeFlushes++ },
		func(vmem.ASID, vmem.VirtAddr) { baseFlushes++ },
		nil,
	)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	r.sys.AllocVirtual(0, 1, vmem.VirtAddr(8<<21), 256<<10)
	r.sys.FreeVirtual(0, 1, 0, 460*vmem.BasePageSize)
	if largeFlushes != 1 {
		t.Errorf("large flushes = %d, want 1 (splinter)", largeFlushes)
	}
	if baseFlushes != 52 {
		t.Errorf("base flushes = %d, want 52 (one per migrated page)", baseFlushes)
	}
}

func TestInPlaceCoalesceDoesNotFlush(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	allFlushes := 0
	r.sys.SetFlushHooks(nil, nil, func() { allFlushes++ })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 8<<20)
	if allFlushes != 0 {
		t.Errorf("in-place coalescing flushed the TLB %d times", allFlushes)
	}
}

func TestFlushOnCoalesceAblation(t *testing.T) {
	r := newRig(t, Mosaic, func(_ *config.Config, o *Options) { o.FlushOnCoalesce = true })
	allFlushes := 0
	r.sys.SetFlushHooks(nil, nil, func() { allFlushes++ })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 8<<20)
	if allFlushes != 4 {
		t.Errorf("flush-on-coalesce ablation flushed %d times, want 4", allFlushes)
	}
}

func TestMigratingCoalescerCostsStall(t *testing.T) {
	r := newRig(t, Mosaic, func(_ *config.Config, o *Options) { o.Coalesce = CoalesceMigrate })
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	s := r.sys.Stats()
	if s.Coalesces != 1 {
		t.Fatalf("Coalesces = %d", s.Coalesces)
	}
	if s.StallCycles == 0 {
		t.Error("migrating coalescer imposed no stall")
	}
	if s.MigratedPages != vmem.BasePagesPerLarge {
		t.Errorf("MigratedPages = %d, want 512", s.MigratedPages)
	}
}

func TestIdealTLBBypass(t *testing.T) {
	r := newRig(t, IdealTLB, nil)
	if !r.sys.TranslationBypass() {
		t.Error("ideal TLB should bypass translation")
	}
	r2 := newRig(t, Mosaic, nil)
	if r2.sys.TranslationBypass() {
		t.Error("Mosaic should not bypass translation")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[Policy]string{
		GPUMMU4K: "GPU-MMU",
		GPUMMU2M: "GPU-MMU-2MB",
		Mosaic:   "Mosaic",
		IdealTLB: "Ideal-TLB",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy name")
	}
}

func TestRebuildFreeListsPreservesAllocatorStats(t *testing.T) {
	r := newRig(t, Mosaic, func(c *config.Config, _ *Options) { c.IOBusEnabled = false })
	r.sys.RegisterApp(1)
	if err := r.sys.AllocVirtual(0, 1, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
	before := r.sys.AllocatorStats()
	if before.RegionAllocs == 0 {
		t.Fatal("no allocator activity to preserve")
	}
	r.sys.RebuildFreeLists()
	if got := r.sys.AllocatorStats(); got != before {
		t.Errorf("allocator stats lost across rebuild: got %+v, want %+v", got, before)
	}
	// The rebuilt allocator still serves allocations.
	if err := r.sys.AllocVirtual(0, 1, 16<<20, 2<<20); err != nil {
		t.Fatalf("allocator broken after rebuild: %v", err)
	}
}

func TestWalkAddrsThroughSystem(t *testing.T) {
	r := newRig(t, Mosaic, nil)
	r.sys.RegisterApp(1)
	r.sys.AllocVirtual(0, 1, 0, 2<<20)
	addrs := r.sys.WalkAddrs(nil, 1, 0x1000)
	if len(addrs) != 4 {
		t.Errorf("walk depth = %d, want 4", len(addrs))
	}
	// PTE addresses must fall in the reserved page-table area (top of DRAM).
	usable := uint64(r.sys.Pool().NumFrames()) * vmem.LargePageSize
	for _, a := range addrs {
		if uint64(a) < usable {
			t.Errorf("PTE address %v outside reserved region", a)
		}
	}
	if r.sys.WalkAddrs(nil, 99, 0) != nil {
		t.Error("walk addrs for unknown app should be nil")
	}
}
