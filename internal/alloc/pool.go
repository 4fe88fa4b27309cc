// Package alloc manages physical GPU memory frames. It provides the frame
// pool (large-frame-granularity ownership plus per-frame bitmaps of base
// frames) and the two allocation policies the paper compares:
//
//   - Baseline: the state-of-the-art GPU-MMU allocator (Fig. 1a), which
//     hands out base frames sequentially from a shared cursor so that a
//     single large page frame ends up holding base pages from multiple
//     applications — making migration-free coalescing impossible.
//   - CoCoA: Mosaic's Contiguity-Conserving Allocation (§4.2), which keeps
//     a free-frame list and per-application free-base-page lists, provides
//     the soft guarantee that a large frame holds pages of only one
//     application, and allocates aligned 2MB virtual regions to whole
//     large frames so they coalesce with no data movement.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/vmem"
)

// NoOwner marks a large frame not yet assigned to any protection domain.
const NoOwner = ^vmem.ASID(0)

// FragOwner marks pre-fragmented data planted by the §6.4 stress tests:
// it violates the soft guarantee by construction and is never coalescible.
const FragOwner = NoOwner - 1

// ErrNoMemory is returned when the pool has no base frame left to serve a
// request (true out-of-memory).
var ErrNoMemory = errors.New("alloc: out of physical memory")

// ErrNoFreeFrames is returned by CoCoA when the free-frame list is empty
// and the application has no partial frame to draw from; the manager is
// expected to invoke CAC and retry (paper §4.4 failsafe).
var ErrNoFreeFrames = errors.New("alloc: no free large frames")

// PageRef names one base frame slot within one large frame.
type PageRef struct {
	Frame int // large frame index
	Slot  int // base frame slot within it, [0, 512)
}

// SlotSet is a set of base-frame slots of one large frame, one bit per
// slot.
type SlotSet [vmem.BasePagesPerLarge / 64]uint64

// Has reports whether slot is in the set.
func (s *SlotSet) Has(slot int) bool { return s[slot/64]&(1<<(slot%64)) != 0 }

// Add puts slot in the set.
func (s *SlotSet) Add(slot int) { s[slot/64] |= 1 << (slot % 64) }

// Remove takes slot out of the set.
func (s *SlotSet) Remove(slot int) { s[slot/64] &^= 1 << (slot % 64) }

// next returns the lowest slot in [from, 512) whose bit is set in
// flip ^ (s | extra), or -1: flip 0 finds members of s, flip all-ones
// finds non-members of s outside extra. It tests a word at a time.
func (s *SlotSet) next(from int, flip uint64, extra *SlotSet) int {
	for w := from / 64; w < len(s); w++ {
		word := s[w]
		if extra != nil {
			word |= extra[w]
		}
		word ^= flip
		if w == from/64 {
			word &= ^uint64(0) << (from % 64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Frame is the pool's view of one large page frame.
type Frame struct {
	Owner   vmem.ASID
	used    SlotSet
	Count   int  // allocated base frames
	PreFrag bool // contains pre-fragmented stress data
}

// Allocated reports whether the given slot is allocated.
func (f *Frame) Allocated(slot int) bool { return f.used.Has(slot) }

// NextFree returns the lowest free slot at or after from, or -1 when
// there is none.
func (f *Frame) NextFree(from int) int { return f.used.next(from, ^uint64(0), nil) }

// NextFreeExcept is NextFree that also passes over the slots in except.
func (f *Frame) NextFreeExcept(from int, except *SlotSet) int {
	return f.used.next(from, ^uint64(0), except)
}

// NextAllocated returns the lowest allocated slot at or after from, or -1
// when there is none.
func (f *Frame) NextAllocated(from int) int { return f.used.next(from, 0, nil) }

func (f *Frame) set(slot int) {
	f.used.Add(slot)
	f.Count++
}

func (f *Frame) clear(slot int) {
	f.used.Remove(slot)
	f.Count--
}

// frameSet is a set of large frames, one bit per frame.
type frameSet []uint64

// allFrames returns the set of frames 0 to n-1.
func allFrames(n int) frameSet {
	s := make(frameSet, (n+63)/64)
	for w := range s {
		s[w] = ^uint64(0)
	}
	if n%64 != 0 {
		s[len(s)-1] = 1<<(n%64) - 1
	}
	return s
}

func (s frameSet) has(fi int) bool { return s[fi/64]&(1<<(fi%64)) != 0 }
func (s frameSet) add(fi int)      { s[fi/64] |= 1 << (fi % 64) }
func (s frameSet) remove(fi int)   { s[fi/64] &^= 1 << (fi % 64) }

// next returns the lowest frame at or after from in the set, or -1.
func (s frameSet) next(from int) int {
	w := from / 64
	if w >= len(s) {
		return -1
	}
	word := s[w] & (^uint64(0) << (from % 64))
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// Pool tracks every allocatable large frame of GPU physical memory.
type Pool struct {
	base   vmem.PhysAddr // address of frame 0 (large-aligned)
	frames []Frame
	// notFull holds exactly the frames with a free slot.
	notFull frameSet
	// channelOf maps an address to its DRAM channel; nil until
	// IndexChannels.
	channelOf func(vmem.PhysAddr) int
	// mayHold[c] holds every frame with a free slot in channel c, and
	// perhaps others: FindFree drops a frame it found none in, and
	// FreeSlot adds the frame back for the freed slot's channel.
	mayHold []frameSet
}

// NewPool creates a pool of n large frames starting at base, which must be
// large-page aligned.
func NewPool(base vmem.PhysAddr, n int) (*Pool, error) {
	if !base.IsLargeAligned() {
		return nil, fmt.Errorf("alloc: pool base %v not large-aligned", base)
	}
	if n <= 0 {
		return nil, errors.New("alloc: pool needs at least one frame")
	}
	p := &Pool{base: base, frames: make([]Frame, n), notFull: allFrames(n)}
	for i := range p.frames {
		p.frames[i].Owner = NoOwner
	}
	return p, nil
}

// IndexChannels makes the pool keep, for each of channels DRAM
// channels, the set of frames that may hold a free slot in it, which
// FindFree needs. channelOf maps an address to its channel and must
// depend on nothing but the address: clones share it. Every frame
// starts in every set, so indexing costs no channel lookup.
func (p *Pool) IndexChannels(channels int, channelOf func(vmem.PhysAddr) int) {
	p.channelOf = channelOf
	p.mayHold = make([]frameSet, channels)
	for c := range p.mayHold {
		p.mayHold[c] = allFrames(len(p.frames))
	}
}

// Clone returns a deep copy of the pool. Frame state (ownership, bitmaps,
// counts) and the frame sets are duplicated, so allocations in the clone
// never affect the receiver; forked simulators must each own a pool
// clone.
func (p *Pool) Clone() *Pool {
	np := &Pool{
		base:      p.base,
		frames:    append([]Frame(nil), p.frames...),
		notFull:   append(frameSet(nil), p.notFull...),
		channelOf: p.channelOf,
	}
	if p.mayHold != nil {
		np.mayHold = make([]frameSet, len(p.mayHold))
		for c, set := range p.mayHold {
			np.mayHold[c] = append(frameSet(nil), set...)
		}
	}
	return np
}

// NumFrames returns the number of large frames managed.
func (p *Pool) NumFrames() int { return len(p.frames) }

// Frame returns frame i's state (read-only view).
func (p *Pool) Frame(i int) *Frame { return &p.frames[i] }

// Addr returns the physical address of a page reference.
func (p *Pool) Addr(ref PageRef) vmem.PhysAddr {
	return p.base +
		vmem.PhysAddr(uint64(ref.Frame)*vmem.LargePageSize) +
		vmem.PhysAddr(uint64(ref.Slot)*vmem.BasePageSize)
}

// FrameAddr returns the physical address of large frame i.
func (p *Pool) FrameAddr(i int) vmem.PhysAddr {
	return p.base + vmem.PhysAddr(uint64(i)*vmem.LargePageSize)
}

// RefOf inverts Addr. ok is false for addresses outside the pool.
func (p *Pool) RefOf(pa vmem.PhysAddr) (PageRef, bool) {
	if pa < p.base {
		return PageRef{}, false
	}
	off := uint64(pa - p.base)
	frame := int(off / vmem.LargePageSize)
	if frame >= len(p.frames) {
		return PageRef{}, false
	}
	slot := int(off % vmem.LargePageSize / vmem.BasePageSize)
	return PageRef{frame, slot}, true
}

// AllocSlot marks one base frame allocated for asid. The frame must be
// unowned or owned by asid unless force is set (the baseline allocator and
// the CoCoA emergency path mix owners deliberately).
func (p *Pool) AllocSlot(ref PageRef, asid vmem.ASID, force bool) error {
	f := &p.frames[ref.Frame]
	if f.Allocated(ref.Slot) {
		return fmt.Errorf("alloc: slot %+v already allocated", ref)
	}
	if f.Owner == NoOwner {
		f.Owner = asid
	} else if f.Owner != asid && !force {
		return fmt.Errorf("alloc: frame %d owned by %d, requested by %d", ref.Frame, f.Owner, asid)
	}
	f.set(ref.Slot)
	if f.Count == vmem.BasePagesPerLarge {
		p.notFull.remove(ref.Frame)
	}
	return nil
}

// FreeSlot releases one base frame. When the frame empties completely its
// ownership resets.
func (p *Pool) FreeSlot(ref PageRef) error {
	f := &p.frames[ref.Frame]
	if !f.Allocated(ref.Slot) {
		return fmt.Errorf("alloc: slot %+v not allocated", ref)
	}
	f.clear(ref.Slot)
	p.notFull.add(ref.Frame)
	if p.channelOf != nil {
		p.mayHold[p.channelOf(p.Addr(ref))].add(ref.Frame)
	}
	if f.Count == 0 {
		f.Owner = NoOwner
		f.PreFrag = false
	}
	return nil
}

// FindFree returns the first free slot, frames in index order and slots
// ascending, of the frames eligible accepts that lies in DRAM channel
// ch, else the first free slot of any of them. Slots in taken (nil, or
// one set per frame) do not count as free. The pool must be indexed
// (IndexChannels).
//
// The channel search visits only the frames that may hold a free slot
// in ch, and drops from that set each eligible frame it finds none in:
// a frame with promised slots stays, since a plan that fails returns
// them. The fallback visits only frames that are not full.
func (p *Pool) FindFree(ch int, taken []SlotSet, eligible func(fi int, f *Frame) bool) (PageRef, bool) {
	hint := p.mayHold[ch]
	for fi := hint.next(0); fi >= 0; fi = hint.next(fi + 1) {
		f := &p.frames[fi]
		if f.Count == vmem.BasePagesPerLarge {
			hint.remove(fi)
			continue
		}
		if !eligible(fi, f) {
			continue
		}
		var except *SlotSet
		if taken != nil {
			except = &taken[fi]
		}
		for slot := f.NextFreeExcept(0, except); slot >= 0; slot = f.NextFreeExcept(slot+1, except) {
			ref := PageRef{Frame: fi, Slot: slot}
			if p.channelOf(p.Addr(ref)) == ch {
				return ref, true
			}
		}
		if except == nil || *except == (SlotSet{}) {
			hint.remove(fi)
		}
	}
	for fi := p.notFull.next(0); fi >= 0; fi = p.notFull.next(fi + 1) {
		f := &p.frames[fi]
		if !eligible(fi, f) {
			continue
		}
		var except *SlotSet
		if taken != nil {
			except = &taken[fi]
		}
		if slot := f.NextFreeExcept(0, except); slot >= 0 {
			return PageRef{Frame: fi, Slot: slot}, true
		}
	}
	return PageRef{}, false
}

// AllocatedBasePages returns the total allocated base frames in the pool.
func (p *Pool) AllocatedBasePages() uint64 {
	var n uint64
	for i := range p.frames {
		n += uint64(p.frames[i].Count)
	}
	return n
}

// OwnedFrames returns how many large frames each domain currently owns.
func (p *Pool) OwnedFrames() map[vmem.ASID]int {
	m := make(map[vmem.ASID]int)
	for i := range p.frames {
		if p.frames[i].Owner != NoOwner {
			m[p.frames[i].Owner]++
		}
	}
	return m
}

// PreFragment plants stress data for the §6.4 experiments: a fraction
// `index` of all large frames receives `occupancy`*512 allocated base
// pages owned by FragOwner, placed randomly. Frames and slots are drawn
// from rand.New(rand.NewSource(seed)): the frames by its Perm, then each
// frame's slots as the first pages of a further Perm(512), drawn
// through a drawStream that continues the same source. It must be
// called on a fresh pool.
func (p *Pool) PreFragment(seed int64, index, occupancy float64) {
	rng := rand.New(rand.NewSource(seed))
	nFrag := int(index * float64(len(p.frames)))
	perm := rng.Perm(len(p.frames))
	pagesPer := int(occupancy * vmem.BasePagesPerLarge)
	if pagesPer < 1 && occupancy > 0 {
		pagesPer = 1
	}
	draws := newDrawStream(rng)
	var slots [vmem.BasePagesPerLarge]uint16
	var full SlotSet
	for w := range full {
		full[w] = ^uint64(0)
	}
	for _, fi := range perm[:nFrag] {
		f := &p.frames[fi]
		f.Owner = FragOwner
		f.PreFrag = true
		draws.permInto(slots[:])
		// The frame holds the permutation's first pagesPer slots: all
		// of them, less the rest.
		f.used = full
		for _, s := range slots[pagesPer:] {
			f.used.Remove(int(s))
		}
		f.Count = pagesPer
		if pagesPer == vmem.BasePagesPerLarge {
			p.notFull.remove(fi)
		}
	}
}

// FragmentedFrames counts frames still holding pre-fragmented data.
func (p *Pool) FragmentedFrames() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].PreFrag {
			n++
		}
	}
	return n
}
