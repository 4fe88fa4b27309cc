// Package pagetable implements the 4-level x86-64-style per-application
// page table the GPU walks on TLB misses, including the two paper-specific
// PTE extensions that make in-place coalescing possible (§4.3, Fig. 7):
//
//   - a "large page" bit on each L3 PTE (the entry covering one 2MB
//     region), set atomically to switch the region to a large-page
//     mapping; and
//   - a "disabled" bit on each L4 PTE (base page entry), set after
//     coalescing to discourage — but not forbid — use of the still-correct
//     base mappings.
//
// Because Mosaic's allocator conserves contiguity, the large-page
// translation is recoverable from the first L4 PTE of the region (its
// upper bits equal the large frame number), so no extra mapping storage is
// needed; Translate mirrors that behavior.
//
// Every page-table node is assigned a physical address so that simulated
// page walks generate real memory traffic through the L2 cache and DRAM.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/vmem"
)

// Levels is the page-table depth. Level 0 is the root; level 3 holds leaf
// (L4 in the paper's x86 naming) entries.
const Levels = 4

// EntriesPerNode is the fan-out of each node: 512 eight-byte entries fill
// one 4KB base page.
const EntriesPerNode = 512

const indexBits = 9

// PTESize is the size of one page table entry in bytes.
const PTESize = 8

// ErrNotMapped is returned when an operation targets an unmapped page.
var ErrNotMapped = errors.New("pagetable: page not mapped")

// ErrAlreadyMapped is returned when Map would overwrite a live mapping.
var ErrAlreadyMapped = errors.New("pagetable: page already mapped")

// NodeAllocator provides 4KB-aligned physical frames for page-table nodes.
// The GPU runtime typically reserves a region of GPU memory for this.
type NodeAllocator func() vmem.PhysAddr

// Translation is the result of resolving a virtual address.
type Translation struct {
	// Frame is the physical base address of the mapped page: a base
	// frame for 4KB mappings, a large frame for 2MB mappings.
	Frame vmem.PhysAddr
	// Size is the mapping granularity the walker found.
	Size vmem.PageSize
}

// PhysOf applies the translation to a full virtual address.
func (t Translation) PhysOf(va vmem.VirtAddr) vmem.PhysAddr {
	if t.Size == vmem.Large {
		return t.Frame + vmem.PhysAddr(uint64(va)&(vmem.LargePageSize-1))
	}
	return t.Frame + vmem.PhysAddr(va.PageOffset())
}

type leafEntry struct {
	valid    bool
	disabled bool
	frame    vmem.PhysAddr // base frame address
}

type node struct {
	addr     vmem.PhysAddr
	children []*node     // interior levels
	leaves   []leafEntry // leaf level
	largeBit []bool      // level-2 only: large-page bit per child
	// population counts live children/leaves for cheap emptiness checks.
	population int
}

// Stats tracks page-table size and activity.
type Stats struct {
	MappedBasePages uint64
	CoalescedRanges uint64
	Nodes           uint64
	Coalesces       uint64
	Splinters       uint64
	Remaps          uint64
}

// PageTable is one application's 4-level table.
type PageTable struct {
	asid  vmem.ASID
	alloc NodeAllocator
	root  *node
	stats Stats
}

// New creates an empty table for the given protection domain. alloc is
// called once per created node (including the root, immediately).
func New(asid vmem.ASID, alloc NodeAllocator) *PageTable {
	pt := &PageTable{asid: asid, alloc: alloc}
	pt.root = pt.newNode(0)
	return pt
}

// ASID returns the protection domain this table translates for.
func (pt *PageTable) ASID() vmem.ASID { return pt.asid }

// Stats returns a snapshot of table statistics.
func (pt *PageTable) Stats() Stats { return pt.stats }

// Clone returns a deep copy of the table for a forked simulator. Every
// node is duplicated with its physical address preserved — walks of the
// clone read the same PTE addresses, so the forked memory traffic matches
// the original exactly — and no node allocator calls are made (node stats
// carry over unchanged). Nodes created in the clone after this point use
// alloc, which must be the forked owner's allocator, not the source's.
func (pt *PageTable) Clone(alloc NodeAllocator) *PageTable {
	npt := *pt
	npt.alloc = alloc
	npt.root = cloneNode(pt.root)
	return &npt
}

// cloneNode deep-copies a node subtree, preserving assigned addresses.
func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	nn := &node{addr: n.addr, population: n.population}
	if n.leaves != nil {
		nn.leaves = make([]leafEntry, len(n.leaves))
		copy(nn.leaves, n.leaves)
	}
	if n.children != nil {
		nn.children = make([]*node, len(n.children))
		for i, c := range n.children {
			nn.children[i] = cloneNode(c)
		}
	}
	if n.largeBit != nil {
		nn.largeBit = make([]bool, len(n.largeBit))
		copy(nn.largeBit, n.largeBit)
	}
	return nn
}

func (pt *PageTable) newNode(level int) *node {
	n := &node{addr: pt.alloc()}
	if level == Levels-1 {
		n.leaves = make([]leafEntry, EntriesPerNode)
	} else {
		n.children = make([]*node, EntriesPerNode)
		if level == Levels-2 {
			n.largeBit = make([]bool, EntriesPerNode)
		}
	}
	pt.stats.Nodes++
	return n
}

// indexAt extracts the table index for the given level (0 = root).
func indexAt(va vmem.VirtAddr, level int) int {
	shift := uint(vmem.BasePageShift + (Levels-1-level)*indexBits)
	return int((uint64(va) >> shift) & (EntriesPerNode - 1))
}

// entryAddr returns the physical address of the PTE consulted at the
// given level for va — the address the hardware walker reads.
func entryAddr(n *node, va vmem.VirtAddr, level int) vmem.PhysAddr {
	return n.addr + vmem.PhysAddr(indexAt(va, level)*PTESize)
}

// Map installs a base-page mapping va -> frame. Both must be page-aligned
// base addresses (low 12 bits are ignored).
func (pt *PageTable) Map(va vmem.VirtAddr, frame vmem.PhysAddr) error {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		idx := indexAt(va, level)
		if n.children[idx] == nil {
			n.children[idx] = pt.newNode(level + 1)
			n.population++
		}
		n = n.children[idx]
	}
	leaf := &n.leaves[indexAt(va, Levels-1)]
	if leaf.valid {
		return fmt.Errorf("%w: %v", ErrAlreadyMapped, va.BasePageBase())
	}
	leaf.valid = true
	leaf.disabled = false
	leaf.frame = frame.BaseFrameBase()
	n.population++
	pt.stats.MappedBasePages++
	return nil
}

// Unmap removes the base-page mapping for va. Unmapping a page inside a
// coalesced range is legal — the range keeps its large-page bit until the
// manager splinters it — but the leaf becomes invalid immediately.
func (pt *PageTable) Unmap(va vmem.VirtAddr) error {
	path, ok := pt.lookupPath(va)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMapped, va.BasePageBase())
	}
	leafNode := path[Levels-1]
	leaf := &leafNode.leaves[indexAt(va, Levels-1)]
	leaf.valid = false
	leaf.disabled = false
	leafNode.population--
	pt.stats.MappedBasePages--
	return nil
}

// lookupPath returns the node visited at each level, or ok=false when an
// interior entry is absent or the leaf is invalid.
func (pt *PageTable) lookupPath(va vmem.VirtAddr) ([Levels]*node, bool) {
	var path [Levels]*node
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		path[level] = n
		n = n.children[indexAt(va, level)]
		if n == nil {
			return path, false
		}
	}
	path[Levels-1] = n
	return path, n.leaves[indexAt(va, Levels-1)].valid
}

// Translate resolves va. It honors the large-page bit: when set, the
// translation is served at 2MB granularity using the large frame number
// recovered from the region's first leaf PTE (paper §4.3, Fig. 7b).
func (pt *PageTable) Translate(va vmem.VirtAddr) (Translation, bool) {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		idx := indexAt(va, level)
		child := n.children[idx]
		if child == nil {
			return Translation{}, false
		}
		if level == Levels-2 && n.largeBit[idx] {
			// Large mapping: read the large frame number out of the first
			// leaf PTE of the region (Fig. 7b). The frame bits stay in the
			// PTE even if that base page was deallocated while the region
			// remained coalesced (the large bit keeps the region live).
			return Translation{Frame: child.leaves[0].frame.LargeFrameBase(), Size: vmem.Large}, true
		}
		n = child
	}
	leaf := n.leaves[indexAt(va, Levels-1)]
	if !leaf.valid {
		return Translation{}, false
	}
	return Translation{Frame: leaf.frame, Size: vmem.Base}, true
}

// WalkAddrs appends to dst the physical addresses of the PTEs a hardware
// walk of va reads, in order, and returns the extended slice. A walk
// always touches all four levels: even for a coalesced region the walker
// reads the large mapping out of the first L4 PTE (§4.3). A walk reads at
// most Levels entries, so a dst backed by a [Levels]vmem.PhysAddr array
// never allocates.
func (pt *PageTable) WalkAddrs(dst []vmem.PhysAddr, va vmem.VirtAddr) []vmem.PhysAddr {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		dst = append(dst, entryAddr(n, va, level))
		idx := indexAt(va, level)
		child := n.children[idx]
		if child == nil {
			return dst
		}
		if level == Levels-2 && n.largeBit[idx] {
			// Final read: the first PTE of the leaf table.
			return append(dst, child.addr)
		}
		n = child
	}
	return append(dst, entryAddr(n, va, Levels-1))
}

// CanCoalesce reports whether the 2MB region containing va satisfies the
// paper's coalescing preconditions: all 512 base pages mapped, physically
// contiguous, and aligned so base page 0 sits at a large-frame boundary.
// It returns a diagnostic reason when not coalescible.
func (pt *PageTable) CanCoalesce(va vmem.VirtAddr) (bool, string) {
	leafTable, _, ok := pt.regionLeafTable(va)
	if !ok {
		return false, "region has no leaf table"
	}
	first := leafTable.leaves[0]
	if !first.valid {
		return false, "first base page unmapped"
	}
	if !first.frame.IsLargeAligned() {
		return false, "first base page not aligned to a large frame"
	}
	for i := 1; i < EntriesPerNode; i++ {
		leaf := leafTable.leaves[i]
		if !leaf.valid {
			return false, fmt.Sprintf("base page %d unmapped", i)
		}
		want := first.frame + vmem.PhysAddr(i*vmem.BasePageSize)
		if leaf.frame != want {
			return false, fmt.Sprintf("base page %d not contiguous", i)
		}
	}
	return true, ""
}

// regionLeafTable returns the leaf node for va's 2MB region plus its
// parent (the node holding the large-page bit).
func (pt *PageTable) regionLeafTable(va vmem.VirtAddr) (leafTable, parent *node, ok bool) {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		child := n.children[indexAt(va, level)]
		if child == nil {
			return nil, nil, false
		}
		if level == Levels-2 {
			return child, n, true
		}
		n = child
	}
	return nil, nil, false
}

// Coalesce switches va's 2MB region to a large-page mapping: it validates
// the preconditions, sets the L3 large-page bit (the single atomic update
// that makes the large mapping live), and then sets the disabled bit on
// all 512 leaf PTEs. The leaf mappings remain correct, mirroring the
// paper's flush-free transition.
func (pt *PageTable) Coalesce(va vmem.VirtAddr) error {
	if ok, reason := pt.CanCoalesce(va); !ok {
		return fmt.Errorf("pagetable: cannot coalesce %v: %s", va.LargePageBase(), reason)
	}
	leafTable, parent, _ := pt.regionLeafTable(va)
	idx := indexAt(va, Levels-2)
	if parent.largeBit[idx] {
		return fmt.Errorf("pagetable: %v already coalesced", va.LargePageBase())
	}
	parent.largeBit[idx] = true
	for i := range leafTable.leaves {
		leafTable.leaves[i].disabled = true
	}
	pt.stats.Coalesces++
	pt.stats.CoalescedRanges++
	return nil
}

// Splinter reverses Coalesce: clears the disabled bits, then clears the
// large-page bit. Callers must flush large-page TLB entries for the range
// afterward (the manager does this).
func (pt *PageTable) Splinter(va vmem.VirtAddr) error {
	leafTable, parent, ok := pt.regionLeafTable(va)
	if !ok {
		return fmt.Errorf("%w: region %v", ErrNotMapped, va.LargePageBase())
	}
	idx := indexAt(va, Levels-2)
	if !parent.largeBit[idx] {
		return fmt.Errorf("pagetable: %v not coalesced", va.LargePageBase())
	}
	for i := range leafTable.leaves {
		leafTable.leaves[i].disabled = false
	}
	parent.largeBit[idx] = false
	pt.stats.Splinters++
	pt.stats.CoalescedRanges--
	return nil
}

// IsCoalesced reports whether va's 2MB region currently has the
// large-page bit set.
func (pt *PageTable) IsCoalesced(va vmem.VirtAddr) bool {
	_, parent, ok := pt.regionLeafTable(va)
	return ok && parent.largeBit[indexAt(va, Levels-2)]
}

// Remap changes the physical frame of an existing base mapping (used by
// CAC when compaction migrates a page). The region must not be coalesced.
func (pt *PageTable) Remap(va vmem.VirtAddr, newFrame vmem.PhysAddr) error {
	if pt.IsCoalesced(va) {
		return fmt.Errorf("pagetable: remap inside coalesced region %v", va.LargePageBase())
	}
	path, ok := pt.lookupPath(va)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMapped, va.BasePageBase())
	}
	leaf := &path[Levels-1].leaves[indexAt(va, Levels-1)]
	leaf.frame = newFrame.BaseFrameBase()
	pt.stats.Remaps++
	return nil
}

// BaseTranslate resolves va strictly at base-page granularity, ignoring
// the large-page bit. Coalesced regions keep valid (disabled) base
// mappings, so this succeeds for them too — mirroring the paper's
// guarantee that stale base TLB entries remain safe to use.
func (pt *PageTable) BaseTranslate(va vmem.VirtAddr) (Translation, bool) {
	path, ok := pt.lookupPath(va)
	if !ok {
		return Translation{}, false
	}
	leaf := path[Levels-1].leaves[indexAt(va, Levels-1)]
	return Translation{Frame: leaf.frame, Size: vmem.Base}, true
}

// MappedInRegion counts valid base pages in va's 2MB region.
func (pt *PageTable) MappedInRegion(va vmem.VirtAddr) int {
	leafTable, _, ok := pt.regionLeafTable(va)
	if !ok {
		return 0
	}
	count := 0
	for i := range leafTable.leaves {
		if leafTable.leaves[i].valid {
			count++
		}
	}
	return count
}

// RegionMappings returns, for each of the 512 slots of va's region, the
// mapped frame (or ok=false). Used by CAC to plan compaction.
func (pt *PageTable) RegionMappings(va vmem.VirtAddr) [EntriesPerNode]struct {
	Frame vmem.PhysAddr
	Valid bool
} {
	var out [EntriesPerNode]struct {
		Frame vmem.PhysAddr
		Valid bool
	}
	leafTable, _, ok := pt.regionLeafTable(va)
	if !ok {
		return out
	}
	for i := range leafTable.leaves {
		out[i].Frame = leafTable.leaves[i].frame
		out[i].Valid = leafTable.leaves[i].valid
	}
	return out
}
