package pagetable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/vmem"
)

// seqAlloc hands out consecutive 4KB frames starting at base.
func seqAlloc(base vmem.PhysAddr) NodeAllocator {
	next := base
	return func() vmem.PhysAddr {
		a := next
		next += vmem.BasePageSize
		return a
	}
}

func newPT() *PageTable {
	return New(1, seqAlloc(0x1000_0000))
}

func TestMapTranslateUnmap(t *testing.T) {
	pt := newPT()
	va := vmem.VirtAddr(0x40_0000)
	pa := vmem.PhysAddr(0x20_0000)
	if err := pt.Map(va, pa); err != nil {
		t.Fatal(err)
	}
	tr, ok := pt.Translate(va + 0x123)
	if !ok {
		t.Fatal("translate failed after map")
	}
	if tr.Size != vmem.Base || tr.Frame != pa {
		t.Errorf("translation = %+v", tr)
	}
	if got := tr.PhysOf(va + 0x123); got != pa+0x123 {
		t.Errorf("PhysOf = %v, want %v", got, pa+0x123)
	}
	if err := pt.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.Translate(va); ok {
		t.Error("translate succeeded after unmap")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := newPT()
	if err := pt.Map(0x1000, 0x2000); err != nil {
		t.Fatal(err)
	}
	err := pt.Map(0x1000, 0x3000)
	if !errors.Is(err, ErrAlreadyMapped) {
		t.Errorf("double map err = %v, want ErrAlreadyMapped", err)
	}
}

func TestUnmapMissingRejected(t *testing.T) {
	pt := newPT()
	if err := pt.Unmap(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("err = %v, want ErrNotMapped", err)
	}
}

// mapContiguousRegion maps all 512 pages of the 2MB region at vaBase to a
// contiguous large frame at paBase.
func mapContiguousRegion(t *testing.T, pt *PageTable, vaBase vmem.VirtAddr, paBase vmem.PhysAddr) {
	t.Helper()
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := pt.Map(vaBase+vmem.VirtAddr(off), paBase+off); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoalescePreconditions(t *testing.T) {
	pt := newPT()
	vaBase := vmem.VirtAddr(0) // large-aligned
	paBase := vmem.PhysAddr(4 << 20)

	if ok, _ := pt.CanCoalesce(vaBase); ok {
		t.Error("empty region reported coalescible")
	}

	// Partially mapped: not coalescible.
	for i := 0; i < 100; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := pt.Map(vaBase+vmem.VirtAddr(off), paBase+off); err != nil {
			t.Fatal(err)
		}
	}
	if ok, reason := pt.CanCoalesce(vaBase); ok {
		t.Errorf("partially mapped region coalescible: %s", reason)
	}

	// Fill the rest.
	for i := 100; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := pt.Map(vaBase+vmem.VirtAddr(off), paBase+off); err != nil {
			t.Fatal(err)
		}
	}
	if ok, reason := pt.CanCoalesce(vaBase); !ok {
		t.Errorf("contiguous full region not coalescible: %s", reason)
	}
}

func TestCoalesceRejectsNonContiguous(t *testing.T) {
	pt := newPT()
	paBase := vmem.PhysAddr(4 << 20)
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		dst := paBase + off
		if i == 300 {
			dst = paBase + vmem.PhysAddr(600*vmem.BasePageSize) // break contiguity
		}
		if err := pt.Map(vmem.VirtAddr(off), dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Coalesce(0); err == nil {
		t.Error("coalesce of non-contiguous region succeeded")
	}
}

func TestCoalesceRejectsMisaligned(t *testing.T) {
	pt := newPT()
	// Contiguous but starting one base page into a large frame.
	paBase := vmem.PhysAddr(4<<20) + vmem.BasePageSize
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		off := vmem.PhysAddr(i * vmem.BasePageSize)
		if err := pt.Map(vmem.VirtAddr(off), paBase+off); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := pt.CanCoalesce(0); ok {
		t.Error("misaligned region reported coalescible")
	}
}

func TestCoalesceAndLargeTranslation(t *testing.T) {
	pt := newPT()
	vaBase := vmem.VirtAddr(6 << 21) // an arbitrary large-aligned VA
	paBase := vmem.PhysAddr(8 << 21)
	mapContiguousRegion(t, pt, vaBase, paBase)
	if err := pt.Coalesce(vaBase); err != nil {
		t.Fatal(err)
	}
	if !pt.IsCoalesced(vaBase + 12345) {
		t.Error("IsCoalesced false after coalesce")
	}
	tr, ok := pt.Translate(vaBase + 0x1234)
	if !ok || tr.Size != vmem.Large {
		t.Fatalf("translation = %+v, %v; want large hit", tr, ok)
	}
	if tr.Frame != paBase {
		t.Errorf("large frame = %v, want %v", tr.Frame, paBase)
	}
	if got := tr.PhysOf(vaBase + 0x1234); got != paBase+0x1234 {
		t.Errorf("PhysOf = %v", got)
	}
	// Base mappings stay correct (flush-free property).
	btr, ok := pt.BaseTranslate(vaBase + vmem.VirtAddr(37*vmem.BasePageSize))
	if !ok || btr.Frame != paBase+vmem.PhysAddr(37*vmem.BasePageSize) {
		t.Errorf("base translation after coalesce = %+v, %v", btr, ok)
	}
}

func TestDoubleCoalesceRejected(t *testing.T) {
	pt := newPT()
	mapContiguousRegion(t, pt, 0, 2<<21)
	if err := pt.Coalesce(0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Coalesce(0); err == nil {
		t.Error("double coalesce succeeded")
	}
}

func TestSplinterRestoresBaseMappings(t *testing.T) {
	pt := newPT()
	mapContiguousRegion(t, pt, 0, 2<<21)
	if err := pt.Coalesce(0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Splinter(0); err != nil {
		t.Fatal(err)
	}
	if pt.IsCoalesced(0) {
		t.Error("still coalesced after splinter")
	}
	tr, ok := pt.Translate(vmem.VirtAddr(5 * vmem.BasePageSize))
	if !ok || tr.Size != vmem.Base {
		t.Errorf("post-splinter translation = %+v, %v", tr, ok)
	}
	if err := pt.Splinter(0); err == nil {
		t.Error("double splinter succeeded")
	}
}

func TestSplinterUnmappedRegion(t *testing.T) {
	pt := newPT()
	if err := pt.Splinter(0); err == nil {
		t.Error("splinter of unmapped region succeeded")
	}
}

func TestWalkAddrsDepth(t *testing.T) {
	pt := newPT()
	if err := pt.Map(0x1000, 0x2000); err != nil {
		t.Fatal(err)
	}
	addrs := pt.WalkAddrs(nil, 0x1000)
	if len(addrs) != Levels {
		t.Errorf("walk touched %d PTEs, want %d", len(addrs), Levels)
	}
	// All addresses must be distinct and within the node allocator range.
	seen := map[vmem.PhysAddr]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("duplicate walk address %v", a)
		}
		seen[a] = true
	}
}

func TestWalkAddrsCoalescedStillFourAccesses(t *testing.T) {
	pt := newPT()
	mapContiguousRegion(t, pt, 0, 2<<21)
	if err := pt.Coalesce(0); err != nil {
		t.Fatal(err)
	}
	addrs := pt.WalkAddrs(nil, vmem.VirtAddr(100*vmem.BasePageSize))
	if len(addrs) != Levels {
		t.Errorf("coalesced walk touched %d PTEs, want %d (reads first L4 PTE)", len(addrs), Levels)
	}
	// The final access must be the first PTE of the leaf table, i.e. the
	// same final address regardless of which base page we walk.
	addrs2 := pt.WalkAddrs(nil, vmem.VirtAddr(400*vmem.BasePageSize))
	if addrs[len(addrs)-1] != addrs2[len(addrs2)-1] {
		t.Error("coalesced walks should read the same first L4 PTE")
	}
}

func TestWalkAddrsUnmappedShortens(t *testing.T) {
	pt := newPT()
	addrs := pt.WalkAddrs(nil, 0x1000)
	if len(addrs) != 1 {
		t.Errorf("walk of empty table touched %d PTEs, want 1 (root only)", len(addrs))
	}
}

func TestRemap(t *testing.T) {
	pt := newPT()
	if err := pt.Map(0x1000, 0x2000); err != nil {
		t.Fatal(err)
	}
	if err := pt.Remap(0x1000, 0x9000); err != nil {
		t.Fatal(err)
	}
	tr, _ := pt.Translate(0x1000)
	if tr.Frame != 0x9000 {
		t.Errorf("frame after remap = %v", tr.Frame)
	}
	if err := pt.Remap(0x5000, 0x9000); err == nil {
		t.Error("remap of unmapped page succeeded")
	}
}

func TestRemapInsideCoalescedRejected(t *testing.T) {
	pt := newPT()
	mapContiguousRegion(t, pt, 0, 2<<21)
	if err := pt.Coalesce(0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Remap(0, 0x9000); err == nil {
		t.Error("remap inside coalesced region succeeded")
	}
}

func TestMappedInRegion(t *testing.T) {
	pt := newPT()
	if got := pt.MappedInRegion(0); got != 0 {
		t.Errorf("empty region count = %d", got)
	}
	for i := 0; i < 10; i++ {
		if err := pt.Map(vmem.VirtAddr(i*vmem.BasePageSize), vmem.PhysAddr(i*vmem.BasePageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pt.MappedInRegion(0x1234); got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	pt.Unmap(0)
	if got := pt.MappedInRegion(0); got != 9 {
		t.Errorf("count after unmap = %d, want 9", got)
	}
}

func TestRegionMappings(t *testing.T) {
	pt := newPT()
	pt.Map(vmem.VirtAddr(3*vmem.BasePageSize), 0x7000)
	m := pt.RegionMappings(0)
	if !m[3].Valid || m[3].Frame != 0x7000 {
		t.Errorf("slot 3 = %+v", m[3])
	}
	if m[4].Valid {
		t.Error("slot 4 should be invalid")
	}
}

func TestStatsTracking(t *testing.T) {
	pt := newPT()
	mapContiguousRegion(t, pt, 0, 2<<21)
	s := pt.Stats()
	if s.MappedBasePages != vmem.BasePagesPerLarge {
		t.Errorf("MappedBasePages = %d", s.MappedBasePages)
	}
	pt.Coalesce(0)
	if pt.Stats().CoalescedRanges != 1 || pt.Stats().Coalesces != 1 {
		t.Errorf("coalesce stats = %+v", pt.Stats())
	}
	pt.Splinter(0)
	if pt.Stats().CoalescedRanges != 0 || pt.Stats().Splinters != 1 {
		t.Errorf("splinter stats = %+v", pt.Stats())
	}
}

// Property: Map then Translate round-trips for arbitrary aligned pairs.
func TestMapTranslateProperty(t *testing.T) {
	prop := func(vraw, praw uint64) bool {
		pt := newPT()
		va := vmem.VirtAddr(vraw & ((1 << 47) - 1)).BasePageBase()
		pa := vmem.PhysAddr(praw & ((1 << 38) - 1)).BaseFrameBase()
		if err := pt.Map(va, pa); err != nil {
			return false
		}
		tr, ok := pt.Translate(va)
		return ok && tr.Frame == pa && tr.Size == vmem.Base
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: coalesce followed by splinter restores identical base
// translations for every page of the region.
func TestCoalesceSplinterRoundTripProperty(t *testing.T) {
	prop := func(regionIdx uint16) bool {
		pt := newPT()
		vaBase := vmem.LargeVPNToAddr(uint64(regionIdx))
		paBase := vmem.LargePFNToAddr(uint64(regionIdx) + 7)
		for i := 0; i < vmem.BasePagesPerLarge; i++ {
			off := vmem.PhysAddr(i * vmem.BasePageSize)
			if err := pt.Map(vaBase+vmem.VirtAddr(off), paBase+off); err != nil {
				return false
			}
		}
		if err := pt.Coalesce(vaBase); err != nil {
			return false
		}
		if err := pt.Splinter(vaBase); err != nil {
			return false
		}
		for i := 0; i < vmem.BasePagesPerLarge; i++ {
			off := vmem.PhysAddr(i * vmem.BasePageSize)
			tr, ok := pt.Translate(vaBase + vmem.VirtAddr(off))
			if !ok || tr.Size != vmem.Base || tr.Frame != paBase+off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
