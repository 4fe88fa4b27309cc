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

type line struct {
	tag      uint64
	valid    bool
	lastUsed uint64
}

// Cache is a single set-associative tag store. It is not safe for
// concurrent use.
type Cache struct {
	name      string
	ways      int
	sets      int
	lineShift uint
	lines     []line // sets * ways, row-major by set
	tick      uint64
	stats     Stats

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
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		lines:     make([]line, sets*ways),
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
	nc.lines = make([]line, len(c.lines))
	copy(nc.lines, c.lines)
	nc.mshr = slotidx.Index{}
	nc.waiters, nc.free = nil, nil
	return &nc
}

// LineAddr returns the line-granularity address of a.
func (c *Cache) LineAddr(a vmem.PhysAddr) uint64 { return uint64(a) >> c.lineShift }

func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr % uint64(c.sets)) }

// Lookup probes the cache. On a hit it refreshes LRU state and returns
// true. On a miss it returns false and leaves the cache unchanged; callers
// decide whether to start a fill via TrackMiss/Fill.
func (c *Cache) Lookup(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	set := c.setOf(la)
	base := set * c.ways
	c.tick++
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == la {
			ln.lastUsed = c.tick
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains reports whether the line for a is resident without touching
// LRU or stats.
func (c *Cache) Contains(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	base := c.setOf(la) * c.ways
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == la {
			return true
		}
	}
	return false
}

// Fill inserts the line for a, evicting the LRU way if the set is full.
// It returns the evicted line address and whether an eviction occurred.
func (c *Cache) Fill(a vmem.PhysAddr) (evicted uint64, wasEvicted bool) {
	la := c.LineAddr(a)
	base := c.setOf(la) * c.ways
	c.tick++
	c.stats.Fills++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == la { // already present (racing fill)
			ln.lastUsed = c.tick
			return 0, false
		}
		if !ln.valid {
			if victim == -1 || c.lines[base+victim].valid {
				victim = i
			}
			continue
		}
		if ln.lastUsed < oldest && (victim == -1 || c.lines[base+victim].valid) {
			oldest = ln.lastUsed
			victim = i
		}
	}
	ln := &c.lines[base+victim]
	if ln.valid {
		evicted, wasEvicted = ln.tag, true
		c.stats.Evictions++
	}
	ln.tag = la
	ln.valid = true
	ln.lastUsed = c.tick
	return evicted, wasEvicted
}

// Invalidate drops the line for a if present, returning whether it was.
func (c *Cache) Invalidate(a vmem.PhysAddr) bool {
	la := c.LineAddr(a)
	base := c.setOf(la) * c.ways
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == la {
			ln.valid = false
			return true
		}
	}
	return false
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
