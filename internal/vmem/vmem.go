// Package vmem defines the primitive address and page-geometry types shared
// by every layer of the simulator: virtual and physical addresses, the 4KB
// base / 2MB large page geometry from the paper, and address-space
// identifiers used to enforce memory protection across concurrently running
// applications.
package vmem

import "fmt"

// VirtAddr is a 48-bit virtual address within one application's address
// space. The upper 16 bits are ignored, matching x86-64 canonical form.
type VirtAddr uint64

// VirtAddrBits is the width of a virtual address; bits above it are
// ignored, so va and va|1<<56 name the same byte.
const VirtAddrBits = 48

// vaMask keeps the significant bits of a VirtAddr.
const vaMask = 1<<VirtAddrBits - 1

// PhysAddr is a physical GPU memory address.
type PhysAddr uint64

// ASID identifies a memory protection domain (one per application or
// virtual machine). ASID 0 is reserved for the GPU runtime itself (page
// tables and other metadata live there).
type ASID uint16

// RuntimeASID is the protection domain owned by the GPU runtime. Page-table
// memory is allocated under it.
const RuntimeASID ASID = 0

// Page geometry constants. The paper uses 4KB base pages and 2MB large
// pages; a large page frame holds exactly 512 base pages.
const (
	BasePageShift = 12
	BasePageSize  = 1 << BasePageShift // 4 KiB

	LargePageShift = 21
	LargePageSize  = 1 << LargePageShift // 2 MiB

	// BasePagesPerLarge is the number of base pages in one large page frame.
	BasePagesPerLarge = LargePageSize / BasePageSize // 512
)

// PageSize enumerates the two page sizes the manager can map at.
type PageSize uint8

const (
	// Base is the conventional 4KB page size.
	Base PageSize = iota
	// Large is the 2MB large page size.
	Large
)

// Bytes returns the size in bytes of the page size.
func (s PageSize) Bytes() uint64 {
	if s == Large {
		return LargePageSize
	}
	return BasePageSize
}

// String implements fmt.Stringer.
func (s PageSize) String() string {
	if s == Large {
		return "2MB"
	}
	return "4KB"
}

// BasePageNumber returns the virtual base page number of a: a value below
// 2^36, since the ignored top bits of a are dropped (the page table
// aliases such addresses, so every key built from a VPN must too).
func (a VirtAddr) BasePageNumber() uint64 { return uint64(a) & vaMask >> BasePageShift }

// LargePageNumber returns the virtual large page number of a, below 2^27;
// like BasePageNumber it ignores the top 16 bits.
func (a VirtAddr) LargePageNumber() uint64 { return uint64(a) & vaMask >> LargePageShift }

// BasePageBase returns the address of the first byte of a's base page.
func (a VirtAddr) BasePageBase() VirtAddr { return a &^ (BasePageSize - 1) }

// LargePageBase returns the address of the first byte of a's large page.
func (a VirtAddr) LargePageBase() VirtAddr { return a &^ (LargePageSize - 1) }

// PageOffset returns the byte offset of a within its base page.
func (a VirtAddr) PageOffset() uint64 { return uint64(a) & (BasePageSize - 1) }

// IndexInLargePage returns which of the 512 base-page slots within the
// enclosing large page a falls into.
func (a VirtAddr) IndexInLargePage() int {
	return int((uint64(a) >> BasePageShift) & (BasePagesPerLarge - 1))
}

// IsLargeAligned reports whether a is aligned to a large page boundary.
func (a VirtAddr) IsLargeAligned() bool { return uint64(a)&(LargePageSize-1) == 0 }

// String implements fmt.Stringer.
func (a VirtAddr) String() string { return fmt.Sprintf("va:%#x", uint64(a)) }

// BaseFrameNumber returns the physical base frame number of p.
func (p PhysAddr) BaseFrameNumber() uint64 { return uint64(p) >> BasePageShift }

// LargeFrameNumber returns the physical large frame number of p.
func (p PhysAddr) LargeFrameNumber() uint64 { return uint64(p) >> LargePageShift }

// BaseFrameBase returns the address of the first byte of p's base frame.
func (p PhysAddr) BaseFrameBase() PhysAddr { return p &^ (BasePageSize - 1) }

// LargeFrameBase returns the address of the first byte of p's large frame.
func (p PhysAddr) LargeFrameBase() PhysAddr { return p &^ (LargePageSize - 1) }

// PageOffset returns the byte offset of p within its base frame.
func (p PhysAddr) PageOffset() uint64 { return uint64(p) & (BasePageSize - 1) }

// IndexInLargeFrame returns which of the 512 base-frame slots within the
// enclosing large frame p falls into.
func (p PhysAddr) IndexInLargeFrame() int {
	return int((uint64(p) >> BasePageShift) & (BasePagesPerLarge - 1))
}

// IsLargeAligned reports whether p is aligned to a large frame boundary.
func (p PhysAddr) IsLargeAligned() bool { return uint64(p)&(LargePageSize-1) == 0 }

// String implements fmt.Stringer.
func (p PhysAddr) String() string { return fmt.Sprintf("pa:%#x", uint64(p)) }

// VPNToAddr converts a virtual base page number back to the page's first
// address.
func VPNToAddr(vpn uint64) VirtAddr { return VirtAddr(vpn << BasePageShift) }

// PFNToAddr converts a physical base frame number back to the frame's first
// address.
func PFNToAddr(pfn uint64) PhysAddr { return PhysAddr(pfn << BasePageShift) }

// LargeVPNToAddr converts a virtual large page number to its first address.
func LargeVPNToAddr(vpn uint64) VirtAddr { return VirtAddr(vpn << LargePageShift) }

// LargePFNToAddr converts a physical large frame number to its first address.
func LargePFNToAddr(pfn uint64) PhysAddr { return PhysAddr(pfn << LargePageShift) }

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }

// AlignDown rounds n down to a multiple of align (a power of two).
func AlignDown(n, align uint64) uint64 { return n &^ (align - 1) }

// PagesIn returns how many base pages are needed to hold size bytes.
func PagesIn(size uint64) uint64 { return (size + BasePageSize - 1) / BasePageSize }
