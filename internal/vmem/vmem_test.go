package vmem

import (
	"testing"
	"testing/quick"
)

func TestPageGeometryConstants(t *testing.T) {
	if BasePageSize != 4096 {
		t.Errorf("BasePageSize = %d, want 4096", BasePageSize)
	}
	if LargePageSize != 2<<20 {
		t.Errorf("LargePageSize = %d, want 2MiB", LargePageSize)
	}
	if BasePagesPerLarge != 512 {
		t.Errorf("BasePagesPerLarge = %d, want 512", BasePagesPerLarge)
	}
}

func TestPageSizeBytes(t *testing.T) {
	if Base.Bytes() != 4096 {
		t.Errorf("Base.Bytes() = %d", Base.Bytes())
	}
	if Large.Bytes() != 2<<20 {
		t.Errorf("Large.Bytes() = %d", Large.Bytes())
	}
	if Base.String() != "4KB" || Large.String() != "2MB" {
		t.Errorf("String() = %q, %q", Base.String(), Large.String())
	}
}

func TestVirtAddrDecomposition(t *testing.T) {
	a := VirtAddr(0x2_0040_1234)
	if got := a.PageOffset(); got != 0x234 {
		t.Errorf("PageOffset = %#x, want 0x234", got)
	}
	if got := a.BasePageBase(); got != 0x2_0040_1000 {
		t.Errorf("BasePageBase = %#x", uint64(got))
	}
	if got := a.LargePageBase(); got != 0x2_0040_0000 {
		t.Errorf("LargePageBase = %#x", uint64(got))
	}
	if got := a.BasePageNumber(); got != 0x2_0040_1234>>12 {
		t.Errorf("BasePageNumber = %#x", got)
	}
	if got := a.LargePageNumber(); got != 0x2_0040_1234>>21 {
		t.Errorf("LargePageNumber = %#x", got)
	}
	if got := a.IndexInLargePage(); got != 1 {
		t.Errorf("IndexInLargePage = %d, want 1", got)
	}
}

func TestAlignment(t *testing.T) {
	if !VirtAddr(0).IsLargeAligned() {
		t.Error("0 should be large-aligned")
	}
	if !VirtAddr(4 << 20).IsLargeAligned() {
		t.Error("4MiB should be large-aligned")
	}
	if VirtAddr(4096).IsLargeAligned() {
		t.Error("4096 should not be large-aligned")
	}
	if AlignUp(1, 4096) != 4096 {
		t.Errorf("AlignUp(1, 4096) = %d", AlignUp(1, 4096))
	}
	if AlignUp(4096, 4096) != 4096 {
		t.Errorf("AlignUp(4096, 4096) = %d", AlignUp(4096, 4096))
	}
	if AlignDown(4097, 4096) != 4096 {
		t.Errorf("AlignDown(4097, 4096) = %d", AlignDown(4097, 4096))
	}
}

func TestPagesIn(t *testing.T) {
	cases := []struct {
		size, want uint64
	}{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {2 << 20, 512},
	}
	for _, c := range cases {
		if got := PagesIn(c.size); got != c.want {
			t.Errorf("PagesIn(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestRoundTripConversions(t *testing.T) {
	prop := func(raw uint64) bool {
		vpn := (raw >> BasePageShift) & ((1 << 36) - 1) // keep within 48-bit space
		lpn := vpn >> (LargePageShift - BasePageShift)
		okV := VPNToAddr(vpn).BasePageNumber() == vpn
		okL := LargeVPNToAddr(lpn).LargePageNumber() == lpn
		okP := PFNToAddr(vpn).BaseFrameNumber() == vpn
		okLP := LargePFNToAddr(lpn).LargeFrameNumber() == lpn
		return okV && okL && okP && okLP
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: an address's large page contains its base page; the base page
// index within the large page is always in [0, 512).
func TestPageContainmentProperty(t *testing.T) {
	prop := func(raw uint64) bool {
		a := VirtAddr(raw & ((1 << 48) - 1))
		if a.BasePageBase() < a.LargePageBase() {
			return false
		}
		if a.BasePageBase()-a.LargePageBase() >= LargePageSize {
			return false
		}
		idx := a.IndexInLargePage()
		if idx < 0 || idx >= BasePagesPerLarge {
			return false
		}
		// Reconstruct the base page from large page base + index.
		return a.LargePageBase()+VirtAddr(idx*BasePageSize) == a.BasePageBase()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: physical decomposition mirrors virtual decomposition.
func TestPhysMirrorsVirtProperty(t *testing.T) {
	prop := func(raw uint64) bool {
		raw &= (1 << 48) - 1
		v, p := VirtAddr(raw), PhysAddr(raw)
		return v.BasePageNumber() == p.BaseFrameNumber() &&
			v.LargePageNumber() == p.LargeFrameNumber() &&
			v.PageOffset() == p.PageOffset() &&
			v.IndexInLargePage() == p.IndexInLargeFrame() &&
			v.IsLargeAligned() == p.IsLargeAligned()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if VirtAddr(0x1000).String() != "va:0x1000" {
		t.Errorf("VirtAddr.String() = %q", VirtAddr(0x1000).String())
	}
	if PhysAddr(0x1000).String() != "pa:0x1000" {
		t.Errorf("PhysAddr.String() = %q", PhysAddr(0x1000).String())
	}
}

// Property: the ignored top 16 bits never reach a page number, so every
// key built from one (TLB tags, walk-merge and pager keys) treats va and
// va with high bits set as the same page, as the page table does; and a
// base VPN fits in 36 bits, so vpn<<16|asid packs without collisions.
func TestPageNumbersIgnoreTopBits(t *testing.T) {
	prop := func(raw uint64, high uint16) bool {
		a := VirtAddr(raw)
		hi := a | VirtAddr(uint64(high)<<VirtAddrBits)
		low := VirtAddr(raw & (1<<VirtAddrBits - 1))
		return a.BasePageNumber() == hi.BasePageNumber() &&
			a.BasePageNumber() == low.BasePageNumber() &&
			a.LargePageNumber() == hi.LargePageNumber() &&
			a.LargePageNumber() == low.LargePageNumber() &&
			a.BasePageNumber() < 1<<(VirtAddrBits-BasePageShift) &&
			a.LargePageNumber() < 1<<(VirtAddrBits-LargePageShift)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	va := VirtAddr(0x7fff_ffff_f000)
	if got := (va | 1<<56).BasePageNumber(); got != va.BasePageNumber() {
		t.Fatalf("BasePageNumber(va|1<<56) = %#x, want %#x", got, va.BasePageNumber())
	}
	// Packed (vpn, asid) keys of distinct pages or domains never collide.
	key := func(a VirtAddr, asid ASID) uint64 { return a.BasePageNumber()<<16 | uint64(asid) }
	if key(va, 1) == key(va|1<<56, 2) || key(va, 1) != key(va|1<<60, 1) {
		t.Fatal("packed VPN keys alias across ASIDs or split one page")
	}
}
