package cache

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vmem"
)

// refCache is a copy of the struct-of-lines tag store with per-line LRU
// stamps, kept as the reference the packed tags and recency lists must
// match way for way. Its MSHRs are a plain map of waiter lists, not the
// slot index Cache uses.
type refCache struct {
	ways, sets int
	lineShift  uint
	lines      []refLine
	tick       uint64
	stats      Stats
	mshr       map[uint64][]func(cycle uint64)
}

type refLine struct {
	tag      uint64
	valid    bool
	lastUsed uint64
}

func newRefCache(totalBytes, lineSize, ways int) *refCache {
	sets := totalBytes / lineSize / ways
	return &refCache{
		ways: ways, sets: sets,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		lines:     make([]refLine, sets*ways),
		mshr:      map[uint64][]func(cycle uint64){},
	}
}

func (c *refCache) lineAddr(a vmem.PhysAddr) uint64 { return uint64(a) >> c.lineShift }

func (c *refCache) base(la uint64) int { return int(la%uint64(c.sets)) * c.ways }

func (c *refCache) Lookup(a vmem.PhysAddr) bool {
	la := c.lineAddr(a)
	base := c.base(la)
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

func (c *refCache) Contains(a vmem.PhysAddr) bool {
	la := c.lineAddr(a)
	base := c.base(la)
	for i := 0; i < c.ways; i++ {
		if ln := &c.lines[base+i]; ln.valid && ln.tag == la {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(a vmem.PhysAddr) (uint64, bool) {
	la := c.lineAddr(a)
	base := c.base(la)
	c.tick++
	c.stats.Fills++
	victim := -1
	oldest := ^uint64(0)
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == la {
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
	var evicted uint64
	wasEvicted := ln.valid
	if wasEvicted {
		evicted = ln.tag
		c.stats.Evictions++
	}
	*ln = refLine{tag: la, valid: true, lastUsed: c.tick}
	return evicted, wasEvicted
}

func (c *refCache) Invalidate(a vmem.PhysAddr) bool {
	la := c.lineAddr(a)
	base := c.base(la)
	for i := 0; i < c.ways; i++ {
		if ln := &c.lines[base+i]; ln.valid && ln.tag == la {
			ln.valid = false
			return true
		}
	}
	return false
}

func (c *refCache) TrackMiss(a vmem.PhysAddr, done func(cycle uint64)) bool {
	la := c.lineAddr(a)
	if ws, ok := c.mshr[la]; ok {
		c.mshr[la] = append(ws, done)
		c.stats.Coalesced++
		c.stats.Misses--
		return false
	}
	c.mshr[la] = []func(cycle uint64){done}
	c.stats.MaxInFlight = max(c.stats.MaxInFlight, len(c.mshr))
	return true
}

func (c *refCache) CompleteMiss(a vmem.PhysAddr, cycle uint64) {
	la := c.lineAddr(a)
	c.Fill(a)
	ws, ok := c.mshr[la]
	if !ok {
		return
	}
	delete(c.mshr, la)
	for _, w := range ws {
		w(cycle)
	}
}

// cacheProgram runs one random program of Lookup, Fill, Invalidate,
// Contains, TrackMiss and CompleteMiss calls on both the reference and
// c, failing on the first return value, fired waiter, Stats snapshot,
// way or recency order that differs. With racing set, the program fills
// lines the way the page-walk cache does: every Lookup miss queues a
// fill of its line, and the fills land later in random order, so two
// misses on one line fill it twice. It returns how many fills found
// their line already present.
func cacheProgram(t *testing.T, seed int64, totalBytes, lineSize, ways int, racing bool) (racingFills int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := MustNew("oracle", totalBytes, lineSize, ways)
	ref := newRefCache(totalBytes, lineSize, ways)
	lines := totalBytes / lineSize
	// fired logs each waiter as it runs: its TrackMiss step and cycle.
	type fired struct{ step, cycle uint64 }
	var got, want []fired
	var pending []vmem.PhysAddr // racing: missed lines waiting to fill
	var order []int
	for step := 0; step < 20000; step++ {
		// Lines in a window twice the capacity, at random offsets
		// within the line.
		a := vmem.PhysAddr(rng.Intn(2*lines+3)*lineSize + rng.Intn(lineSize))
		switch op := rng.Intn(100); {
		case op < 35:
			g, w := c.Lookup(a), ref.Lookup(a)
			if g != w {
				t.Fatalf("step %d: Lookup(%v) = %v; reference %v", step, a, g, w)
			}
			if racing && !g {
				pending = append(pending, a)
			}
		case op < 60:
			if racing {
				if len(pending) == 0 {
					continue
				}
				k := rng.Intn(len(pending))
				a = pending[k]
				pending[k] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			}
			if ref.Contains(a) {
				racingFills++
			}
			ge, gok := c.Fill(a)
			we, wok := ref.Fill(a)
			if ge != we || gok != wok {
				t.Fatalf("step %d: Fill(%v) = %#x, %v; reference %#x, %v", step, a, ge, gok, we, wok)
			}
		case op < 70:
			if g, w := c.Invalidate(a), ref.Invalidate(a); g != w {
				t.Fatalf("step %d: Invalidate(%v) = %v; reference %v", step, a, g, w)
			}
		case op < 80:
			if g, w := c.Contains(a), ref.Contains(a); g != w {
				t.Fatalf("step %d: Contains(%v) = %v; reference %v", step, a, g, w)
			}
		case op < 92:
			id := uint64(step)
			g := c.TrackMiss(a, func(cy uint64) { got = append(got, fired{id, cy}) })
			w := ref.TrackMiss(a, func(cy uint64) { want = append(want, fired{id, cy}) })
			if g != w {
				t.Fatalf("step %d: TrackMiss(%v) = %v; reference %v", step, a, g, w)
			}
		default:
			c.CompleteMiss(a, uint64(step))
			ref.CompleteMiss(a, uint64(step))
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: CompleteMiss(%v) fired %v; reference %v", step, a, got, want)
			}
			got, want = got[:0], want[:0]
		}
		if g, w := c.Stats(), ref.stats; g != w {
			t.Fatalf("step %d: stats %+v; reference %+v", step, g, w)
		}
		if g, w := c.InFlight(), len(ref.mshr); g != w {
			t.Fatalf("step %d: InFlight = %d; reference %d", step, g, w)
		}
		for i, ln := range ref.lines {
			tag, valid := c.tags[i]>>1, c.tags[i] != 0
			if valid != ln.valid || valid && tag != ln.tag {
				t.Fatalf("step %d: way %d = %#x valid=%v; reference %+v", step, i, tag, valid, ln)
			}
		}
		for s := 0; s < ref.sets; s++ {
			order = c.lru.Order(order[:0], s)
			if want := ref.order(s); !slices.Equal(order, want) {
				t.Fatalf("step %d: set %d recency %v; reference stamps order %v", step, s, order, want)
			}
		}
	}
	return racingFills
}

// order returns set s's valid ways from the oldest LRU stamp to the
// newest.
func (c *refCache) order(s int) []int {
	var ws []int
	for i := s * c.ways; i < (s+1)*c.ways; i++ {
		if c.lines[i].valid {
			ws = append(ws, i)
		}
	}
	slices.SortFunc(ws, func(a, b int) int { return cmp.Compare(c.lines[a].lastUsed, c.lines[b].lastUsed) })
	return ws
}

// TestCacheMatchesStructOfLinesReference checks the cache against the
// struct-of-lines reference on direct-mapped, 4-way, 16-way and fully
// associative geometries: after every step each way must hold the same
// line and each set's recency list must order its valid ways as the
// reference's stamps do. Each geometry also runs a racing-fill program,
// which must fill lines already present.
func TestCacheMatchesStructOfLinesReference(t *testing.T) {
	geoms := []struct {
		name                  string
		total, lineSize, ways int
	}{
		{"1-way", 64 * 64, 64, 1},
		{"4-way", 32 * 128, 128, 4},
		{"16-way", 64 * 128, 128, 16},
		{"fully-associative", 32 * 128, 128, 32},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cacheProgram(t, seed, g.total, g.lineSize, g.ways, false)
			}
			if n := cacheProgram(t, 5, g.total, g.lineSize, g.ways, true); n < 100 {
				t.Fatalf("racing program filled %d lines already present, want at least 100", n)
			} else {
				t.Logf("racing fills: %d", n)
			}
		})
	}
}
