// Package core implements the GPU memory managers the paper evaluates:
//
//   - GPU-MMU (4KB): the state-of-the-art baseline after Power et al.,
//     with the app-interleaving allocator of Fig. 1a and base pages only.
//   - GPU-MMU (2MB): the same system managing memory exclusively at 2MB
//     granularity — fast translation, catastrophic demand paging and
//     memory bloat (§3.2).
//   - Mosaic: CoCoA (contiguity-conserving allocation, §4.2) +
//     the In-Place Coalescer (§4.3) + CAC (contiguity-aware
//     compaction, §4.4), with optional in-DRAM bulk-copy (CAC-BC).
//   - Ideal TLB: an upper bound where every translation hits.
//   - FIFO-MMU: Mosaic whose bounded page pool evicts in first-fault
//     order instead of least recently used.
//
// The managers share one System implementation parameterized by Options;
// ablation variants (migrating coalescer, no soft guarantee, forced
// flush-on-coalesce) use the same knobs.
package core

// Policy selects a paper configuration by name.
type Policy int

const (
	// GPUMMU4K is the baseline: 4KB pages only, interleaving allocator.
	GPUMMU4K Policy = iota
	// GPUMMU2M manages memory exclusively with 2MB pages.
	GPUMMU2M
	// Mosaic is the paper's proposal.
	Mosaic
	// IdealTLB is Mosaic with translation assumed free (all TLB hits).
	IdealTLB
	// FIFOMMU is Mosaic evicting in first-fault order under a bounded
	// page pool.
	FIFOMMU
)

// String implements fmt.Stringer: the table's display name ("GPU-MMU",
// "Mosaic", ...), or "unknown" for ids outside the table. This string is
// part of every ConfigDigest (Options are hashed with %+v, which invokes
// String), so the names are frozen once results exist under them.
func (p Policy) String() string {
	if r := p.row(); r != nil {
		return r.name
	}
	return "unknown"
}

// AllocatorKind selects the physical allocation policy.
type AllocatorKind int

const (
	// AllocBaseline is the shared-cursor, app-interleaving allocator.
	AllocBaseline AllocatorKind = iota
	// AllocCoCoA is Mosaic's contiguity-conserving allocator.
	AllocCoCoA
)

// CoalesceMode selects how (and whether) base pages become large pages.
type CoalesceMode int

const (
	// CoalesceOff never creates large pages.
	CoalesceOff CoalesceMode = iota
	// CoalesceInPlace is Mosaic's In-Place Coalescer: PTE bit flips only,
	// no data movement, no TLB flush.
	CoalesceInPlace
	// CoalesceMigrate is the conventional approach (Fig. 6a): migrate
	// base pages into a free large frame, update PTEs, flush the TLB,
	// stalling the GPU — the ablation baseline for in-place coalescing.
	CoalesceMigrate
)

// CACMode selects the compaction variant of §6.4.
type CACMode int

const (
	// CACOff disables compaction entirely ("no CAC").
	CACOff CACMode = iota
	// CACOn is the baseline CAC using narrow (64-bit/cycle) copies.
	CACOn
	// CACBulkCopy is CAC-BC: RowClone/LISA in-DRAM page copies when
	// source and destination share a channel.
	CACBulkCopy
	// CACIdeal is the zero-cost compaction upper bound ("Ideal CAC").
	CACIdeal
)

// FaultGranularity is the demand-paging transfer unit.
type FaultGranularity int

const (
	// FaultBase transfers 4KB pages over the I/O bus.
	FaultBase FaultGranularity = iota
	// FaultLarge transfers whole 2MB pages.
	FaultLarge
)

// Options fully parameterizes a System.
type Options struct {
	Policy    Policy
	Allocator AllocatorKind
	Coalesce  CoalesceMode
	CAC       CACMode
	// CACThreshold is the live-page fraction below which a coalesced
	// frame is splintered and compacted after a deallocation.
	CACThreshold float64
	Fault        FaultGranularity
	// Bypass makes every translation an L1 TLB hit (Ideal TLB).
	Bypass bool
	// FlushOnCoalesce forces a full TLB flush after each coalesce — an
	// ablation of the paper's flush-free transition (§4.3).
	FlushOnCoalesce bool
}
