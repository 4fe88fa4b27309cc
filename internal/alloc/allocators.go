package alloc

import (
	"errors"
	"fmt"

	"repro/internal/vmem"
)

// ErrDoubleFree is returned by Free when the base page is not currently
// allocated — a double free, which would otherwise silently double-insert
// the slot into the free lists and corrupt allocator state.
var ErrDoubleFree = errors.New("alloc: double free of base page")

// ErrBadFrameReturn is returned by ReturnFrame when the frame is not
// actually returnable: it still holds allocated pages, retains an owner,
// or already sits on the free-frame list (a repeated return).
var ErrBadFrameReturn = errors.New("alloc: invalid frame return")

// Stats aggregates allocator activity.
type Stats struct {
	RegionAllocs uint64 // whole-large-frame allocations (aligned 2MB regions)
	BaseAllocs   uint64 // single base-page allocations
	Frees        uint64
	// Violations counts base pages placed in a frame owned by another
	// domain — impossible under CoCoA's soft guarantee except through the
	// explicit scavenge path, and routine under the baseline.
	Violations uint64
	// FreeFallbacks counts CoCoA allocations served by scavenging after
	// the free-frame list ran dry.
	FreeFallbacks uint64
}

// Baseline is the state-of-the-art GPU-MMU allocator of Fig. 1a: all
// applications draw base frames from one shared cursor, so concurrent
// allocation interleaves applications within large page frames and no
// frame can ever be coalesced without migration.
type Baseline struct {
	pool   *Pool
	cursor int
	stats  Stats
}

// NewBaseline wraps pool with the baseline policy.
func NewBaseline(pool *Pool) *Baseline { return &Baseline{pool: pool} }

// Pool exposes the underlying frame pool.
func (b *Baseline) Pool() *Pool { return b.pool }

// Clone returns a copy of the allocator rebound to pool, which must be a
// Clone of the receiver's pool (the cursor and stats only make sense
// against identical frame state). The receiver is unchanged.
func (b *Baseline) Clone(pool *Pool) *Baseline {
	nb := *b
	nb.pool = pool
	return &nb
}

// Stats returns a snapshot of the counters.
func (b *Baseline) Stats() Stats { return b.stats }

// AllocBase hands out the next free base frame, regardless of which
// application owns the enclosing large frame.
func (b *Baseline) AllocBase(asid vmem.ASID) (vmem.PhysAddr, error) {
	n := b.pool.NumFrames()
	for scanned := 0; scanned < n; scanned++ {
		fi := (b.cursor + scanned) % n
		f := b.pool.Frame(fi)
		slot := f.NextFree(0)
		if slot < 0 {
			continue
		}
		b.cursor = fi
		ref := PageRef{fi, slot}
		mixed := f.Owner != NoOwner && f.Owner != asid
		if err := b.pool.AllocSlot(ref, asid, true); err != nil {
			return 0, err
		}
		if mixed {
			b.stats.Violations++
		}
		b.stats.BaseAllocs++
		return b.pool.Addr(ref), nil
	}
	return 0, ErrNoMemory
}

// Free releases the base frame at pa.
func (b *Baseline) Free(pa vmem.PhysAddr) error {
	ref, ok := b.pool.RefOf(pa)
	if !ok {
		return fmt.Errorf("alloc: %v outside pool", pa)
	}
	if err := b.pool.FreeSlot(ref); err != nil {
		return err
	}
	b.stats.Frees++
	return nil
}

// CoCoA is Mosaic's Contiguity-Conserving Allocator (§4.2). It maintains
// (1) a free-frame list of large frames with no allocated base pages and
// no owner, and (2) per-application free-base-page lists of slots within
// partially allocated frames assigned to that application. It guarantees
// (softly) that every large frame holds base pages of a single protection
// domain.
type CoCoA struct {
	pool       *Pool
	freeFrames []int
	// inFree tracks free-frame list membership so that a double free or a
	// repeated ReturnFrame cannot insert the same frame twice.
	inFree   map[int]bool
	freeBase map[vmem.ASID][]PageRef
	stats    Stats
}

// NewCoCoA wraps pool with the CoCoA policy. Frames already carrying
// pre-fragmented stress data stay off the free-frame list.
func NewCoCoA(pool *Pool) *CoCoA {
	c := &CoCoA{
		pool:     pool,
		inFree:   make(map[int]bool),
		freeBase: make(map[vmem.ASID][]PageRef),
	}
	for i := 0; i < pool.NumFrames(); i++ {
		f := pool.Frame(i)
		if f.Count == 0 && f.Owner == NoOwner {
			c.freeFrames = append(c.freeFrames, i)
			c.inFree[i] = true
		}
	}
	return c
}

// Pool exposes the underlying frame pool.
func (c *CoCoA) Pool() *Pool { return c.pool }

// Clone returns a deep copy of the allocator rebound to pool, which must
// be a Clone of the receiver's pool. The free-frame list keeps its exact
// FIFO order and the per-application free-base-page lists keep their LIFO
// order — popFreeFrame/AllocBase draw positionally, so order is part of
// the deterministic allocation sequence a fork must reproduce.
func (c *CoCoA) Clone(pool *Pool) *CoCoA {
	nc := &CoCoA{
		pool:       pool,
		freeFrames: append([]int(nil), c.freeFrames...),
		inFree:     make(map[int]bool, len(c.inFree)),
		freeBase:   make(map[vmem.ASID][]PageRef, len(c.freeBase)),
		stats:      c.stats,
	}
	for fi, ok := range c.inFree {
		nc.inFree[fi] = ok
	}
	for asid, refs := range c.freeBase {
		nc.freeBase[asid] = append([]PageRef(nil), refs...)
	}
	return nc
}

// Stats returns a snapshot of the counters.
func (c *CoCoA) Stats() Stats { return c.stats }

// RestoreStats seeds the counters from a snapshot, so a manager that
// rebuilds its allocator (e.g. after Pool.PreFragment) does not lose the
// activity accumulated by the previous instance.
func (c *CoCoA) RestoreStats(st Stats) { c.stats = st }

// FreeFrameCount returns the size of the free-frame list.
func (c *CoCoA) FreeFrameCount() int { return len(c.freeFrames) }

// AllocRegion allocates one whole large frame for a page-aligned 2MB
// region of asid's virtual memory, preserving contiguity so the region is
// immediately coalescible. It returns ErrNoFreeFrames when the free-frame
// list is empty (the manager should run CAC and retry).
func (c *CoCoA) AllocRegion(asid vmem.ASID) (vmem.PhysAddr, error) {
	fi, ok := c.popFreeFrame()
	if !ok {
		return 0, ErrNoFreeFrames
	}
	for slot := 0; slot < vmem.BasePagesPerLarge; slot++ {
		if err := c.pool.AllocSlot(PageRef{fi, slot}, asid, false); err != nil {
			return 0, err
		}
	}
	c.stats.RegionAllocs++
	return c.pool.FrameAddr(fi), nil
}

// AllocBase allocates one base frame for asid from its free-base-page
// list, pulling a new large frame from the free-frame list when the
// application has none. Returns ErrNoFreeFrames when both are exhausted.
func (c *CoCoA) AllocBase(asid vmem.ASID) (vmem.PhysAddr, error) {
	for {
		list := c.freeBase[asid]
		for len(list) > 0 {
			ref := list[len(list)-1]
			list = list[:len(list)-1]
			f := c.pool.Frame(ref.Frame)
			// Lazily skip stale refs: frame reassigned or slot taken.
			if f.Owner != asid || f.Allocated(ref.Slot) {
				continue
			}
			c.freeBase[asid] = list
			if err := c.pool.AllocSlot(ref, asid, false); err != nil {
				return 0, err
			}
			c.stats.BaseAllocs++
			return c.pool.Addr(ref), nil
		}
		c.freeBase[asid] = list

		fi, ok := c.popFreeFrame()
		if !ok {
			return 0, ErrNoFreeFrames
		}
		// Assign the frame to this application and expose its pages.
		// Slot 0 is allocated immediately (setting ownership); the rest
		// go on the free-base-page list.
		if err := c.pool.AllocSlot(PageRef{fi, 0}, asid, false); err != nil {
			return 0, err
		}
		refs := make([]PageRef, 0, vmem.BasePagesPerLarge-1)
		for slot := vmem.BasePagesPerLarge - 1; slot >= 1; slot-- {
			refs = append(refs, PageRef{fi, slot})
		}
		c.freeBase[asid] = append(c.freeBase[asid], refs...)
		c.stats.BaseAllocs++
		return c.pool.Addr(PageRef{fi, 0}), nil
	}
}

// AllocScavenge is the last-resort path: allocate any free base frame
// anywhere, breaking the soft guarantee if necessary. Managers call it
// only after CAC cannot recover any frame (paper §4.4's emergency-list
// exhaustion).
func (c *CoCoA) AllocScavenge(asid vmem.ASID) (vmem.PhysAddr, error) {
	for fi := 0; fi < c.pool.NumFrames(); fi++ {
		f := c.pool.Frame(fi)
		slot := f.NextFree(0)
		if slot < 0 {
			continue
		}
		mixed := f.Owner != NoOwner && f.Owner != asid
		ref := PageRef{fi, slot}
		if err := c.pool.AllocSlot(ref, asid, true); err != nil {
			return 0, err
		}
		if mixed {
			c.stats.Violations++
		}
		c.stats.BaseAllocs++
		c.stats.FreeFallbacks++
		return c.pool.Addr(ref), nil
	}
	return 0, ErrNoMemory
}

// Free releases the base frame at pa. When the enclosing large frame
// becomes completely free it returns to the free-frame list; otherwise
// the slot joins the owner's free-base-page list.
func (c *CoCoA) Free(pa vmem.PhysAddr) error {
	ref, ok := c.pool.RefOf(pa)
	if !ok {
		return fmt.Errorf("alloc: %v outside pool", pa)
	}
	f := c.pool.Frame(ref.Frame)
	if !f.Allocated(ref.Slot) {
		return fmt.Errorf("%w: slot %+v", ErrDoubleFree, ref)
	}
	owner := f.Owner
	if err := c.pool.FreeSlot(ref); err != nil {
		return err
	}
	c.stats.Frees++
	if f.Count == 0 {
		if !c.inFree[ref.Frame] {
			c.freeFrames = append(c.freeFrames, ref.Frame)
			c.inFree[ref.Frame] = true
		}
	} else if owner != NoOwner && owner != FragOwner {
		c.freeBase[owner] = append(c.freeBase[owner], ref)
	}
	return nil
}

// ReturnFrame puts an emptied frame index back on the free-frame list;
// CAC calls it after compacting a frame out of existence. The frame must
// be genuinely returnable — empty, unowned, and not already on the list —
// or ErrBadFrameReturn is reported and the list is left untouched.
func (c *CoCoA) ReturnFrame(fi int) error {
	if fi < 0 || fi >= c.pool.NumFrames() {
		return fmt.Errorf("%w: frame %d out of range", ErrBadFrameReturn, fi)
	}
	f := c.pool.Frame(fi)
	switch {
	case f.Count != 0:
		return fmt.Errorf("%w: frame %d still holds %d pages", ErrBadFrameReturn, fi, f.Count)
	case f.Owner != NoOwner:
		return fmt.Errorf("%w: frame %d still owned by %d", ErrBadFrameReturn, fi, f.Owner)
	case c.inFree[fi]:
		return fmt.Errorf("%w: frame %d already on the free list", ErrBadFrameReturn, fi)
	}
	c.freeFrames = append(c.freeFrames, fi)
	c.inFree[fi] = true
	return nil
}

// ReleaseSlots adds specific free slots to an application's
// free-base-page list — used when a coalesced frame is splintered and its
// locked free slots become allocatable again (§4.4).
func (c *CoCoA) ReleaseSlots(asid vmem.ASID, refs []PageRef) {
	c.freeBase[asid] = append(c.freeBase[asid], refs...)
}

// popFreeFrame takes the oldest entry (FIFO) so that consecutive region
// allocations receive ascending frames: virtual-to-physical contiguity
// then extends across region boundaries, matching how the baseline
// cursor allocator lays out memory and keeping DRAM bank interleaving
// comparable between managers.
func (c *CoCoA) popFreeFrame() (int, bool) {
	for len(c.freeFrames) > 0 {
		fi := c.freeFrames[0]
		c.freeFrames = c.freeFrames[1:]
		delete(c.inFree, fi)
		f := c.pool.Frame(fi)
		if f.Count == 0 && f.Owner == NoOwner { // skip stale entries
			return fi, true
		}
	}
	return 0, false
}
