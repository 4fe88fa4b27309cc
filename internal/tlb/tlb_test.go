package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/vmem"
)

func l1Config() Config {
	return Config{
		Name:         "l1",
		BaseEntries:  128,
		LargeEntries: 16,
		Latency:      1,
	}
}

func l2Config() Config {
	return Config{
		Name:         "l2",
		BaseEntries:  512,
		BaseWays:     16,
		LargeEntries: 256,
		Latency:      10,
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := New(Config{Name: "x", BaseEntries: 0, LargeEntries: 16}); err == nil {
		t.Error("zero base entries accepted")
	}
	if _, err := New(Config{Name: "x", BaseEntries: 10, BaseWays: 3, LargeEntries: 16}); err == nil {
		t.Error("non-divisible ways accepted")
	}
}

func TestBaseInsertLookup(t *testing.T) {
	tl := MustNew(l1Config())
	va := vmem.VirtAddr(0x1234_5678)
	if _, ok := tl.LookupBase(1, va); ok {
		t.Error("hit in empty TLB")
	}
	tl.InsertBase(1, va, 0xABC000)
	frame, ok := tl.LookupBase(1, va)
	if !ok || frame != 0xABC000 {
		t.Errorf("lookup = %v, %v", frame, ok)
	}
	// Same base page, different offset.
	if _, ok := tl.LookupBase(1, va+1); !ok {
		t.Error("same-page lookup missed")
	}
	// Different page.
	if _, ok := tl.LookupBase(1, va+vmem.BasePageSize); ok {
		t.Error("different-page lookup hit")
	}
}

func TestASIDIsolation(t *testing.T) {
	tl := MustNew(l2Config())
	va := vmem.VirtAddr(0x40_0000)
	tl.InsertBase(1, va, 0x1000)
	tl.InsertLarge(1, va, 0x200000)
	if _, ok := tl.LookupBase(2, va); ok {
		t.Error("ASID 2 hit ASID 1's base entry")
	}
	if _, ok := tl.LookupLarge(2, va); ok {
		t.Error("ASID 2 hit ASID 1's large entry")
	}
	if _, ok := tl.LookupBase(1, va); !ok {
		t.Error("owner missed own base entry")
	}
}

func TestLargeEntryCoversWholeRegion(t *testing.T) {
	tl := MustNew(l1Config())
	region := vmem.VirtAddr(4 << 21)
	tl.InsertLarge(7, region, 0x800000)
	for _, off := range []vmem.VirtAddr{0, 4096, 1 << 20, vmem.LargePageSize - 1} {
		if _, ok := tl.LookupLarge(7, region+off); !ok {
			t.Errorf("large lookup missed at offset %#x", uint64(off))
		}
	}
	if _, ok := tl.LookupLarge(7, region+vmem.LargePageSize); ok {
		t.Error("large lookup hit in neighboring region")
	}
}

func TestLRUCapacityBase(t *testing.T) {
	tl := MustNew(Config{Name: "t", BaseEntries: 4, LargeEntries: 2})
	// Fully associative with 4 entries: inserting 5 evicts the LRU.
	for i := 0; i < 5; i++ {
		tl.InsertBase(1, vmem.VirtAddr(i*vmem.BasePageSize), vmem.PhysAddr(i*vmem.BasePageSize))
	}
	if tl.ProbeBase(1, 0) {
		t.Error("LRU entry survived over-capacity insert")
	}
	for i := 1; i < 5; i++ {
		if !tl.ProbeBase(1, vmem.VirtAddr(i*vmem.BasePageSize)) {
			t.Errorf("entry %d evicted unexpectedly", i)
		}
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	tl := MustNew(l1Config())
	tl.InsertBase(1, 0x1000, 0xA000)
	tl.InsertBase(1, 0x1000, 0xB000)
	frame, _ := tl.LookupBase(1, 0x1000)
	if frame != 0xB000 {
		t.Errorf("frame = %v, want updated 0xB000", frame)
	}
	b, _ := tl.Occupancy()
	if b != 1 {
		t.Errorf("occupancy = %d, want 1 (no duplicate)", b)
	}
}

func TestFlushLargeEntry(t *testing.T) {
	tl := MustNew(l1Config())
	tl.InsertLarge(1, 0, 0)
	if !tl.FlushLargeEntry(1, 4096) { // same region
		t.Error("flush missed the entry")
	}
	if tl.ProbeLarge(1, 0) {
		t.Error("entry survived flush")
	}
	if tl.FlushLargeEntry(1, 0) {
		t.Error("second flush found an entry")
	}
}

func TestFlushASID(t *testing.T) {
	tl := MustNew(l2Config())
	tl.InsertBase(1, 0x1000, 0x1000)
	tl.InsertBase(2, 0x1000, 0x2000)
	tl.InsertLarge(1, 0x400000, 0x400000)
	if n := tl.FlushASID(1); n != 2 {
		t.Errorf("FlushASID flushed %d, want 2", n)
	}
	if tl.ProbeBase(1, 0x1000) {
		t.Error("ASID 1 base entry survived")
	}
	if !tl.ProbeBase(2, 0x1000) {
		t.Error("ASID 2 entry was flushed")
	}
}

func TestFlushAll(t *testing.T) {
	tl := MustNew(l1Config())
	tl.InsertBase(1, 0x1000, 0)
	tl.InsertLarge(2, 0x400000, 0)
	if n := tl.FlushAll(); n != 2 {
		t.Errorf("FlushAll = %d, want 2", n)
	}
	b, l := tl.Occupancy()
	if b != 0 || l != 0 {
		t.Errorf("occupancy after FlushAll = %d/%d", b, l)
	}
}

func TestStats(t *testing.T) {
	tl := MustNew(l1Config())
	tl.LookupBase(1, 0)  // miss
	tl.LookupLarge(1, 0) // miss
	tl.InsertBase(1, 0, 0)
	tl.LookupBase(1, 0) // hit
	s := tl.Stats()
	if s.BaseHits != 1 || s.BaseMisses != 1 || s.LargeMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Lookups() != 3 || s.Hits() != 1 {
		t.Errorf("lookups=%d hits=%d", s.Lookups(), s.Hits())
	}
	if hr := s.HitRate(); hr < 0.33 || hr > 0.34 {
		t.Errorf("HitRate = %f", hr)
	}
}

func TestEvictionCounting(t *testing.T) {
	tl := MustNew(Config{Name: "ev", BaseEntries: 2, LargeEntries: 2})
	tl.InsertBase(1, 0x1000, 0)
	tl.InsertBase(1, 0x2000, 0)
	if ev := tl.Stats().Evictions; ev != 0 {
		t.Fatalf("Evictions = %d while under capacity, want 0", ev)
	}
	tl.InsertBase(1, 0x3000, 0) // displaces the LRU entry
	if ev := tl.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d after over-capacity insert, want 1", ev)
	}
	// Updating a resident key replaces in place: no eviction.
	tl.InsertBase(1, 0x3000, 0x5000)
	if ev := tl.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d after in-place update, want 1", ev)
	}
	// Large array counts independently.
	tl.InsertLarge(1, 0<<21, 0)
	tl.InsertLarge(1, 1<<21, 0)
	tl.InsertLarge(1, 2<<21, 0)
	if ev := tl.Stats().Evictions; ev != 2 {
		t.Errorf("Evictions = %d after large-array overflow, want 2", ev)
	}
	if ins := tl.Stats().Insertions; ins != 7 {
		t.Errorf("Insertions = %d, want 7", ins)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{BaseHits: 1, BaseMisses: 2, LargeHits: 3, LargeMisses: 4, Insertions: 5, Evictions: 6, Flushes: 7}
	b := Stats{BaseHits: 10, BaseMisses: 20, LargeHits: 30, LargeMisses: 40, Insertions: 50, Evictions: 60, Flushes: 70}
	got := a.Add(b)
	want := Stats{BaseHits: 11, BaseMisses: 22, LargeHits: 33, LargeMisses: 44, Insertions: 55, Evictions: 66, Flushes: 77}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

func TestPortGateThroughput(t *testing.T) {
	g := NewPortGate(2)
	// Four requests in cycle 10: two serve at 10, two at 11.
	starts := []uint64{g.Admit(10), g.Admit(10), g.Admit(10), g.Admit(10)}
	want := []uint64{10, 10, 11, 11}
	for i := range starts {
		if starts[i] != want[i] {
			t.Errorf("request %d served at %d, want %d", i, starts[i], want[i])
		}
	}
	// A request at a later cycle resets the window.
	if got := g.Admit(20); got != 20 {
		t.Errorf("later request served at %d, want 20", got)
	}
}

func TestPortGateNeverGoesBackward(t *testing.T) {
	prop := func(deltas []uint8) bool {
		g := NewPortGate(2)
		var now, lastStart uint64
		for _, d := range deltas {
			now += uint64(d % 3)
			s := g.Admit(now)
			if s < now || s < lastStart {
				return false
			}
			lastStart = s
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPortGateRetrogradeArrivals pins the documented high-water contract:
// a request arriving earlier than the gate's latest service cycle (which
// happens when callers compute arrivals from different base cycles) is
// serviced at the high-water cycle, queued behind requests already
// admitted there — it never rewinds arbitration.
func TestPortGateRetrogradeArrivals(t *testing.T) {
	g := NewPortGate(2)
	if got := g.Admit(10); got != 10 {
		t.Fatalf("first request served at %d, want 10", got)
	}
	// Retrograde arrival at 3: takes the second port of cycle 10.
	if got := g.Admit(3); got != 10 {
		t.Errorf("retrograde request served at %d, want 10", got)
	}
	// Cycle 10's ports are exhausted; the next retrograde arrival slips.
	if got := g.Admit(7); got != 11 {
		t.Errorf("second retrograde request served at %d, want 11", got)
	}
	// An arrival past the high-water mark reopens arbitration at now.
	if got := g.Admit(12); got != 12 {
		t.Errorf("later request served at %d, want 12", got)
	}
}

// Property: for arbitrary (including retrograde) arrival orders, service
// cycles are monotonically non-decreasing, never precede the arrival, and
// no service cycle admits more requests than the gate has ports.
func TestPortGateServiceMonotoneAnyOrder(t *testing.T) {
	const ports = 3
	prop := func(arrivals []uint16) bool {
		g := NewPortGate(ports)
		perCycle := make(map[uint64]int)
		var last uint64
		for _, a := range arrivals {
			now := uint64(a % 50)
			s := g.Admit(now)
			if s < now || s < last {
				return false
			}
			last = s
			if perCycle[s]++; perCycle[s] > ports {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: inserting then probing the same key always hits, for both
// arrays, across random ASIDs and addresses.
func TestInsertProbeProperty(t *testing.T) {
	prop := func(asid uint16, raw uint64) bool {
		tl := MustNew(l2Config())
		va := vmem.VirtAddr(raw & ((1 << 47) - 1))
		tl.InsertBase(vmem.ASID(asid), va, 0x1000)
		tl.InsertLarge(vmem.ASID(asid), va, 0x200000)
		return tl.ProbeBase(vmem.ASID(asid), va) && tl.ProbeLarge(vmem.ASID(asid), va)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAssociativeConflicts(t *testing.T) {
	// A 32-entry 4-way array has 8 sets; filling way past capacity must
	// keep exactly 32 entries resident and evict LRU within sets.
	tl := MustNew(Config{Name: "sa", BaseEntries: 32, BaseWays: 4, LargeEntries: 2})
	for i := 0; i < 128; i++ {
		tl.InsertBase(1, vmem.VirtAddr(i)<<vmem.BasePageShift, vmem.PhysAddr(i)<<vmem.BasePageShift)
	}
	b, _ := tl.Occupancy()
	if b != 32 {
		t.Errorf("occupancy = %d, want 32", b)
	}
	// The most recently inserted entries are most likely resident: at
	// least one of the last 4 must hit.
	hits := 0
	for i := 124; i < 128; i++ {
		if tl.ProbeBase(1, vmem.VirtAddr(i)<<vmem.BasePageShift) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("none of the most recent insertions survived")
	}
}

func TestLatencyAccessor(t *testing.T) {
	tl := MustNew(Config{Name: "lat", BaseEntries: 4, LargeEntries: 2, Latency: 7})
	if tl.Latency() != 7 || tl.Name() != "lat" {
		t.Errorf("accessors: %d %q", tl.Latency(), tl.Name())
	}
}

// TestTLBAllocFree guards the translation hot path: once the arrays and
// their indexes are warm, lookups, inserts that evict, and single-entry
// flushes allocate nothing, on the fully associative L1 geometry and the
// set-associative L2 one.
func TestTLBAllocFree(t *testing.T) {
	for _, cfg := range []Config{l1Config(), l2Config()} {
		tl := MustNew(cfg)
		round := func() {
			// Twice the base capacity of keys: inserts past warm-up evict.
			for i := 0; i < 2*cfg.BaseEntries; i++ {
				va := vmem.VirtAddr(i) << vmem.BasePageShift
				asid := vmem.ASID(1 + i%2)
				if _, ok := tl.LookupLarge(asid, va); !ok {
					if _, ok := tl.LookupBase(asid, va); !ok {
						tl.InsertBase(asid, va, vmem.PhysAddr(va))
					}
				}
				if i%64 == 0 {
					lva := vmem.VirtAddr(i) << vmem.LargePageShift
					tl.InsertLarge(asid, lva, vmem.PhysAddr(lva))
				}
				if i%7 == 0 {
					tl.FlushBaseEntry(asid, va)
					tl.FlushLargeEntry(asid, va)
				}
			}
		}
		round()
		if avg := testing.AllocsPerRun(20, round); avg != 0 {
			t.Fatalf("%s: lookups, inserts and flushes allocate %.1f objects per round, want 0", cfg.Name, avg)
		}
		if tl.Stats().Evictions == 0 {
			t.Fatalf("%s: no insert evicted; the guard does not cover replacement", cfg.Name)
		}
	}
}
