package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vmem"
)

func TestBadGeometryRejected(t *testing.T) {
	cases := []struct {
		name                string
		total, lineSz, ways int
	}{
		{"zero total", 0, 64, 4},
		{"zero line", 1024, 0, 4},
		{"zero ways", 1024, 64, 0},
		{"non-pow2 line", 1024, 96, 4},
		{"lines not divisible", 64 * 3, 64, 2},
		{"non-pow2 sets", 64 * 6, 64, 2},
		{"smaller than a line", 32, 64, 1},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.total, c.lineSz, c.ways); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustNew("l1", 16<<10, 128, 4)
	if c.Lookup(0x1000) {
		t.Error("empty cache reported a hit")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("miss after fill")
	}
	if !c.Lookup(0x1040) { // same 128B line
		t.Error("same-line access missed")
	}
	if c.Lookup(0x2000) {
		t.Error("different line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction: 2-way, 2 sets, 64B lines = 256 bytes.
	c := MustNew("tiny", 256, 64, 2)
	// Addresses mapping to set 0: line addrs 0, 2, 4 (even).
	a0 := vmem.PhysAddr(0 * 64)
	a2 := vmem.PhysAddr(2 * 64)
	a4 := vmem.PhysAddr(4 * 64)
	c.Fill(a0)
	c.Fill(a2)
	c.Lookup(a0) // a0 recently used; a2 is LRU
	evicted, was := c.Fill(a4)
	if !was {
		t.Fatal("expected eviction")
	}
	if evicted != c.LineAddr(a2) {
		t.Errorf("evicted line %d, want %d (LRU)", evicted, c.LineAddr(a2))
	}
	if !c.Contains(a0) || c.Contains(a2) || !c.Contains(a4) {
		t.Error("post-eviction residency wrong")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := MustNew("tiny", 256, 64, 2)
	c.Fill(0)
	if _, was := c.Fill(0); was {
		t.Error("refilling a resident line evicted something")
	}
	if c.Stats().Evictions != 0 {
		t.Error("eviction counted on idempotent fill")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew("tiny", 256, 64, 2)
	c.Fill(0x40)
	if !c.Invalidate(0x40) {
		t.Error("Invalidate missed a resident line")
	}
	if c.Contains(0x40) {
		t.Error("line still resident after Invalidate")
	}
	if c.Invalidate(0x40) {
		t.Error("Invalidate found an absent line")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	fired := []int{}
	if !c.TrackMiss(0x1000, func(uint64) { fired = append(fired, 1) }) {
		t.Error("first miss should be primary")
	}
	if c.TrackMiss(0x1010, func(uint64) { fired = append(fired, 2) }) {
		t.Error("same-line miss should coalesce")
	}
	if c.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", c.InFlight())
	}
	c.CompleteMiss(0x1000, 42)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("waiters fired = %v, want [1 2]", fired)
	}
	if c.InFlight() != 0 {
		t.Errorf("InFlight = %d after completion", c.InFlight())
	}
	if !c.Contains(0x1000) {
		t.Error("line not resident after CompleteMiss")
	}
	if c.Stats().Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", c.Stats().Coalesced)
	}
}

func TestCoalescedMissNotDoubleCounted(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	c.Lookup(0x1000) // miss
	c.TrackMiss(0x1000, nil)
	c.Lookup(0x1020) // same line: counted as miss by Lookup...
	c.TrackMiss(0x1020, nil)
	s := c.Stats()
	// ...but reclassified as coalesced by TrackMiss.
	if s.Misses != 1 || s.Coalesced != 1 {
		t.Errorf("misses=%d coalesced=%d, want 1/1", s.Misses, s.Coalesced)
	}
}

func TestHitRate(t *testing.T) {
	c := MustNew("l1", 16<<10, 128, 4)
	c.Fill(0)
	c.Lookup(0)      // hit
	c.Lookup(0x4000) // miss
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %f, want 0.5", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// Property: after filling N distinct lines that all map to one set of a
// W-way cache, exactly the W most recently used remain resident.
func TestSetResidencyProperty(t *testing.T) {
	prop := func(n uint8) bool {
		c := MustNew("p", 1024, 64, 4) // 4 sets, 4 ways
		count := int(n%12) + 1
		var addrs []vmem.PhysAddr
		for i := 0; i < count; i++ {
			a := vmem.PhysAddr(i * 4 * 64) // all set 0
			addrs = append(addrs, a)
			c.Fill(a)
		}
		resident := 0
		for i, a := range addrs {
			if c.Contains(a) {
				resident++
				if count-i > 4 { // should have been evicted
					return false
				}
			}
		}
		want := count
		if want > 4 {
			want = 4
		}
		return resident == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lookup(a) after Fill(a) always hits, regardless of prior state,
// as long as no intervening fill maps to the same set.
func TestFillThenLookupProperty(t *testing.T) {
	prop := func(raw uint64) bool {
		c := MustNew("p", 16<<10, 128, 4)
		a := vmem.PhysAddr(raw & ((1 << 40) - 1))
		c.Fill(a)
		return c.Lookup(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMSHRAllocFree guards the miss-tracking path: once the waiter slab
// is warm, tracking primary and coalesced misses and completing them
// allocates nothing.
func TestMSHRAllocFree(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	done := func(uint64) {}
	round := func() {
		for i := 0; i < 16; i++ {
			a := vmem.PhysAddr(i%8) * 4096
			c.Lookup(a)
			c.TrackMiss(a, done)
		}
		for i := 0; i < 8; i++ {
			c.CompleteMiss(vmem.PhysAddr(i)*4096, 1)
			c.Invalidate(vmem.PhysAddr(i) * 4096)
		}
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("TrackMiss/CompleteMiss allocates %.1f objects per round, want 0", avg)
	}
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after every miss completed", c.InFlight())
	}
}

// TestMSHRWaiterTracksSameLine: a waiter that misses on the line being
// completed starts a fresh MSHR entry, and the waiters still pending on
// the completing entry all fire, in order, exactly once.
func TestMSHRWaiterTracksSameLine(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	var fired []string
	again := func(uint64) { fired = append(fired, "again") }
	c.TrackMiss(0x1000, func(uint64) {
		fired = append(fired, "a")
		if !c.TrackMiss(0x1000, again) {
			t.Error("miss tracked during completion should start a new entry")
		}
	})
	c.TrackMiss(0x1000, func(uint64) { fired = append(fired, "b") })
	c.CompleteMiss(0x1000, 5)
	if got := strings.Join(fired, ","); got != "a,b" {
		t.Fatalf("first completion fired %s, want a,b", got)
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want the re-tracked entry", c.InFlight())
	}
	c.CompleteMiss(0x1000, 9)
	if got := strings.Join(fired, ","); got != "a,b,again" {
		t.Fatalf("second completion fired %s, want a,b,again", got)
	}
}
