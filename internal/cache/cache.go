// Package cache implements the set-associative tag stores used for the
// per-SM private L1 data caches and the banked shared L2 cache, with
// miss-status holding registers (MSHRs) so concurrent misses to the same
// line coalesce into a single lower-level request.
//
// The cache is a timing/tag model only — no data is stored. Latency and
// lower-level orchestration belong to the memory-system glue in the
// simulator; this package answers "hit or miss", maintains LRU state, and
// tracks outstanding misses.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/lru"
	"repro/internal/slotidx"
	"repro/internal/vmem"
)

// Stats aggregates cache activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Coalesced   uint64 // misses merged into an in-flight MSHR entry
	Fills       uint64
	Evictions   uint64
	MaxInFlight int
}

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a single set-associative tag store. It is not safe for
// concurrent use.
type Cache struct {
	name      string
	ways      int
	setMask   uint64 // sets - 1; the set count is a power of two
	lineShift uint
	// tags holds each way's line address shifted left by one with the
	// low bit set, or 0 for an invalid way, sets * ways row-major by set.
	tags  []uint64
	lru   lru.Lists // each set's valid ways, least recently used first
	stats Stats

	// mshr maps a line address to its slot in waiters, which holds the
	// completion callbacks of all requests waiting on that line's fill.
	// Slots and their slices are reused through free, so a warm cache
	// tracks misses without allocating.
	mshr    slotidx.Index
	waiters [][]func(cycle uint64)
	free    []int32
}

// New builds a cache with the given total capacity in bytes.
func New(name string, totalBytes, lineSize, ways int) (*Cache, error) {
	if totalBytes <= 0 || lineSize <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry", name)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	numLines := totalBytes / lineSize
	if numLines == 0 {
		return nil, fmt.Errorf("cache %s: %d bytes hold no %d-byte line", name, totalBytes, lineSize)
	}
	if numLines%ways != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", name, numLines, ways)
	}
	sets := numLines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets not a power of two", name, sets)
	}
	return &Cache{
		name:      name,
		ways:      ways,
		setMask:   uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		tags:      make([]uint64, sets*ways),
		lru:       lru.New(sets, ways),
	}, nil
}

// MustNew is New but panics on a bad geometry; for use with validated
// configurations.
func MustNew(name string, totalBytes, lineSize, ways int) *Cache {
	c, err := New(name, totalBytes, lineSize, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns a deep copy of the cache's tag store, LRU state, and
// stats. It requires the MSHRs to be empty (no outstanding misses): MSHR
// entries hold completion closures bound to the source simulator and
// cannot be transplanted. Callers snapshot only quiesced simulations, so a
// non-empty MSHR table is a programming error and Clone panics. The cache
// binds no callbacks of its own, so nothing is re-bound: the clone starts
// with an empty MSHR table and waiter slab that grow on first use.
func (c *Cache) Clone() *Cache {
	if c.mshr.Len() != 0 {
		panic(fmt.Sprintf("cache %s: Clone with %d outstanding MSHR entries", c.name, c.mshr.Len()))
	}
	nc := *c
	nc.tags = append([]uint64(nil), c.tags...)
	nc.lru = c.lru.Clone()
	nc.mshr = slotidx.Index{}
	nc.waiters, nc.free = nil, nil
	return &nc
}

// LineAddr returns the line-granularity address of a.
func (c *Cache) LineAddr(a vmem.PhysAddr) uint64 { return uint64(a) >> c.lineShift }

func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// tagOf packs a line address into its tags word.
func tagOf(lineAddr uint64) uint64 { return lineAddr<<1 | 1 }

// find returns the way of set holding tag t, or -1.
func (c *Cache) find(set int, t uint64) int {
	base := set * c.ways
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == t {
			return base + i
		}
	}
	return -1
}

// Lookup probes the cache. On a hit it refreshes LRU state and returns
// true. On a miss it returns false and leaves the cache unchanged; callers
// decide whether to start a fill via TrackMiss/Fill.
func (c *Cache) Lookup(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	set := c.setOf(la)
	if i := c.find(set, tagOf(la)); i >= 0 {
		c.lru.Touch(set, i)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains reports whether the line for a is resident without touching
// LRU or stats.
func (c *Cache) Contains(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	return c.find(c.setOf(la), tagOf(la)) >= 0
}

// Fill inserts the line for a, evicting the LRU way if the set is full.
// It returns the evicted line address and whether an eviction occurred.
// While the set is not full the line takes its first invalid way.
func (c *Cache) Fill(a vmem.PhysAddr) (evicted uint64, wasEvicted bool) {
	la := c.LineAddr(a)
	set := c.setOf(la)
	t := tagOf(la)
	c.stats.Fills++
	if i := c.find(set, t); i >= 0 { // already present (racing fill)
		c.lru.Touch(set, i)
		return 0, false
	}
	if c.lru.Len(set) < c.ways {
		victim := set * c.ways
		for c.tags[victim] != 0 {
			victim++
		}
		c.tags[victim] = t
		c.lru.Push(set, victim)
		return 0, false
	}
	// The LRU way takes the line and becomes the most recently used.
	victim := c.lru.LRU(set)
	evicted = c.tags[victim] >> 1
	c.stats.Evictions++
	c.tags[victim] = t
	c.lru.Touch(set, victim)
	return evicted, true
}

// Invalidate drops the line for a if present, returning whether it was.
func (c *Cache) Invalidate(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	set := c.setOf(la)
	i := c.find(set, tagOf(la))
	if i < 0 {
		return false
	}
	c.tags[i] = 0
	c.lru.Remove(set, i)
	return true
}

// TrackMiss registers done to run when the line for a is filled. It
// returns true when this is the first outstanding miss for the line (the
// caller must issue the lower-level request) and false when the miss
// coalesced into an existing MSHR entry.
func (c *Cache) TrackMiss(a vmem.PhysAddr, done func(cycle uint64)) (isFirst bool) {
	la := c.LineAddr(a)
	if slot, exists := c.mshr.Get(la); exists {
		c.waiters[slot] = append(c.waiters[slot], done)
		c.stats.Coalesced++
		// The earlier Lookup already counted this as a miss; reclassify.
		c.stats.Misses--
		return false
	}
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = int32(len(c.waiters))
		c.waiters = append(c.waiters, nil)
	}
	c.waiters[slot] = append(c.waiters[slot], done)
	c.mshr.Put(la, slot)
	if n := c.mshr.Len(); n > c.stats.MaxInFlight {
		c.stats.MaxInFlight = n
	}
	return true
}

// CompleteMiss fills the line for a and fires every waiter registered via
// TrackMiss, in registration order. The line's MSHR entry is gone before
// the first waiter runs, so a waiter that misses on the same line starts
// a new entry.
func (c *Cache) CompleteMiss(a vmem.PhysAddr, cycle uint64) {
	la := c.LineAddr(a)
	c.Fill(a)
	slot, ok := c.mshr.Take(la)
	if !ok {
		return
	}
	// The slot is not free yet, so waiters that track new misses cannot
	// reuse this slice while it is being read.
	waiters := c.waiters[slot]
	for _, w := range waiters {
		if w != nil {
			w(cycle)
		}
	}
	clear(waiters) // release the callback references
	c.waiters[slot] = waiters[:0]
	c.free = append(c.free, slot)
}

// InFlight returns the number of outstanding MSHR entries.
func (c *Cache) InFlight() int { return c.mshr.Len() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }
