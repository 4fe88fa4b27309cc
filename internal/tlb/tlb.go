// Package tlb implements the translation lookaside buffers: per-SM private
// L1 TLBs and the shared L2 TLB. Following the paper (§2.2), every TLB
// level keeps two separate sets of entries — one for base (4KB) pages and
// one for large (2MB) pages — and shared-level entries carry address-space
// identifiers so concurrently running applications cannot consume each
// other's translations.
//
// Lookup order under Mosaic (§4.3): probe the large-page entries first; a
// hit there means the page is coalesced and the base-page entries are not
// consulted, preserving base-entry capacity for uncoalesced pages.
package tlb

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/slotidx"
	"repro/internal/vmem"
)

// Stats aggregates per-array hit/miss counters. All counters are
// monotonic within one simulation; Stats snapshots are cheap value
// copies suitable for per-run export.
type Stats struct {
	BaseHits    uint64
	BaseMisses  uint64
	LargeHits   uint64
	LargeMisses uint64
	Insertions  uint64
	// Evictions counts insertions that displaced a valid entry with a
	// different key (capacity/conflict replacement). Flushes are counted
	// separately.
	Evictions uint64
	Flushes   uint64
}

// Add returns the field-wise sum of two snapshots, for aggregating the
// per-SM L1 TLBs into one run-level record.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		BaseHits:    s.BaseHits + o.BaseHits,
		BaseMisses:  s.BaseMisses + o.BaseMisses,
		LargeHits:   s.LargeHits + o.LargeHits,
		LargeMisses: s.LargeMisses + o.LargeMisses,
		Insertions:  s.Insertions + o.Insertions,
		Evictions:   s.Evictions + o.Evictions,
		Flushes:     s.Flushes + o.Flushes,
	}
}

// Hits returns total hits across both arrays.
func (s Stats) Hits() uint64 { return s.BaseHits + s.LargeHits }

// Lookups returns total lookups across both arrays.
func (s Stats) Lookups() uint64 {
	return s.BaseHits + s.BaseMisses + s.LargeHits + s.LargeMisses
}

// HitRate returns overall hits/lookups (0 when idle). Note that a single
// translation request that misses in the large array and hits in the base
// array counts one large miss and one base hit; use the MMU-level stats
// for request-granularity rates.
func (s Stats) HitRate() float64 {
	l := s.Lookups()
	if l == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(l)
}

// validTag marks a tags word in use. The rest of the word is the
// packed key vpn<<16 | asid: a base VPN is below 2^36 (vmem drops the
// ignored top address bits), so distinct (ASID, VPN) pairs never share a
// tag and an invalid way never matches one.
const validTag = 1 << 63

// tagOf packs a translation's key into its tags word.
func tagOf(asid vmem.ASID, vpn uint64) uint64 { return vpn<<16 | uint64(asid) | validTag }

// entrySet is one set-associative array with LRU replacement.
// sets == 1 makes it fully associative. An index from packed tag to way
// answers lookups, probes and single-entry flushes with one hash probe
// whatever the geometry, and each set's recency list names its
// replacement victim, so no operation but a per-ASID or full flush scans
// the ways.
type entrySet struct {
	sets   int
	ways   int
	tags   []uint64
	frames []vmem.PhysAddr
	lru    lru.Lists     // each set's valid ways, least recently used first
	idx    slotidx.Index // valid tag -> way
}

func newEntrySet(entries, ways int) (*entrySet, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad geometry entries=%d ways=%d", entries, ways)
	}
	return &entrySet{
		sets: entries / ways, ways: ways,
		tags: make([]uint64, entries), frames: make([]vmem.PhysAddr, entries),
		lru: lru.New(entries/ways, ways),
	}, nil
}

// set returns the set tag t maps to.
func (e *entrySet) set(t uint64) int {
	if e.sets == 1 {
		return 0
	}
	vpn, asid := (t&^validTag)>>16, uint64(uint16(t))
	h := vpn*0x9E3779B97F4A7C15 ^ asid*0xBF58476D1CE4E5B9
	return int(h % uint64(e.sets))
}

// find returns the way holding tag t, or -1.
func (e *entrySet) find(t uint64) int {
	i, ok := e.idx.Get(t)
	if !ok {
		return -1
	}
	return int(i)
}

func (e *entrySet) lookup(t uint64) (vmem.PhysAddr, bool) {
	i := e.find(t)
	if i < 0 {
		return 0, false
	}
	e.lru.Touch(i/e.ways, i)
	return e.frames[i], true
}

func (e *entrySet) probe(t uint64) bool { return e.find(t) >= 0 }

// insert caches a translation and reports whether a valid entry with a
// different key was displaced to make room. The victim is the first
// invalid way of the set, else its least recently used way.
func (e *entrySet) insert(t uint64, frame vmem.PhysAddr) (evicted bool) {
	if i := e.find(t); i >= 0 {
		e.frames[i] = frame
		e.lru.Touch(i/e.ways, i)
		return false
	}
	set := e.set(t)
	var victim int
	if e.lru.Len(set) < e.ways {
		// Only a set still warming up or thinned by flushes scans.
		victim = set * e.ways
		for e.tags[victim]&validTag != 0 {
			victim++
		}
		e.lru.Push(set, victim)
	} else {
		// The LRU way takes the entry and becomes the most recently used.
		victim = e.lru.LRU(set)
		e.idx.Take(e.tags[victim])
		e.lru.Touch(set, victim)
		evicted = true
	}
	e.tags[victim] = t
	e.frames[victim] = frame
	e.idx.Put(t, int32(victim))
	return evicted
}

// drop invalidates valid way i, which the caller has already taken out
// of the index.
func (e *entrySet) drop(i int) {
	e.lru.Remove(i/e.ways, i)
	e.tags[i] = 0
}

func (e *entrySet) invalidate(t uint64) bool {
	i, ok := e.idx.Take(t)
	if ok {
		e.drop(int(i))
	}
	return ok
}

func (e *entrySet) invalidateASID(asid vmem.ASID) int {
	n := 0
	for i, tg := range e.tags {
		if tg&validTag != 0 && vmem.ASID(tg) == asid {
			e.idx.Take(tg)
			e.drop(i)
			n++
		}
	}
	return n
}

func (e *entrySet) invalidateAll() int {
	n := 0
	for i, tg := range e.tags {
		if tg&validTag != 0 {
			e.idx.Take(tg)
			e.drop(i)
			n++
		}
	}
	return n
}

func (e *entrySet) occupancy() int { return e.idx.Len() }

// TLB is one translation lookaside buffer level with split base/large
// entry arrays. Not safe for concurrent use.
type TLB struct {
	name    string
	latency int
	base    *entrySet
	large   *entrySet
	stats   Stats
}

// Config describes one TLB level's geometry.
type Config struct {
	Name         string
	BaseEntries  int
	BaseWays     int // 0 or BaseEntries => fully associative
	LargeEntries int
	LargeWays    int // 0 or LargeEntries => fully associative
	Latency      int // cycles per lookup
}

// New builds a TLB level.
func New(cfg Config) (*TLB, error) {
	bw := cfg.BaseWays
	if bw == 0 {
		bw = cfg.BaseEntries
	}
	lw := cfg.LargeWays
	if lw == 0 {
		lw = cfg.LargeEntries
	}
	b, err := newEntrySet(cfg.BaseEntries, bw)
	if err != nil {
		return nil, fmt.Errorf("%s base: %w", cfg.Name, err)
	}
	l, err := newEntrySet(cfg.LargeEntries, lw)
	if err != nil {
		return nil, fmt.Errorf("%s large: %w", cfg.Name, err)
	}
	return &TLB{name: cfg.Name, latency: cfg.Latency, base: b, large: l}, nil
}

// MustNew is New but panics on bad geometry.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the diagnostic name.
func (t *TLB) Name() string { return t.name }

// Clone returns a deep copy of the TLB: entry arrays, LRU lists, and stats
// are all duplicated, so the clone and the receiver may diverge freely.
// Forked simulators must not share TLB state — every lookup mutates LRU
// recency, so aliasing would leak recency across forks.
func (t *TLB) Clone() *TLB {
	nt := *t
	nt.base = t.base.clone()
	nt.large = t.large.clone()
	return &nt
}

// RestoreStats overwrites the TLB's counters, carrying warmup-phase stats
// across a geometry rebuild (Reconfigure replaces the arrays but the run
// record must still account for lookups made before the rebuild).
func (t *TLB) RestoreStats(s Stats) { t.stats = s }

// clone deep-copies one entry array including LRU state and rebuilds
// its index.
func (e *entrySet) clone() *entrySet {
	ne := *e
	ne.tags = append([]uint64(nil), e.tags...)
	ne.frames = append([]vmem.PhysAddr(nil), e.frames...)
	ne.lru = e.lru.Clone()
	ne.idx = slotidx.Index{}
	for i, tg := range e.tags {
		if tg&validTag != 0 {
			ne.idx.Put(tg, int32(i))
		}
	}
	return &ne
}

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() int { return t.latency }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// LookupLarge probes the large-page array for (asid, large VPN of va).
func (t *TLB) LookupLarge(asid vmem.ASID, va vmem.VirtAddr) (vmem.PhysAddr, bool) {
	frame, ok := t.large.lookup(tagOf(asid, va.LargePageNumber()))
	if ok {
		t.stats.LargeHits++
	} else {
		t.stats.LargeMisses++
	}
	return frame, ok
}

// LookupBase probes the base-page array for (asid, base VPN of va).
func (t *TLB) LookupBase(asid vmem.ASID, va vmem.VirtAddr) (vmem.PhysAddr, bool) {
	frame, ok := t.base.lookup(tagOf(asid, va.BasePageNumber()))
	if ok {
		t.stats.BaseHits++
	} else {
		t.stats.BaseMisses++
	}
	return frame, ok
}

// InsertBase caches a base translation (frame = base frame address).
func (t *TLB) InsertBase(asid vmem.ASID, va vmem.VirtAddr, frame vmem.PhysAddr) {
	if t.base.insert(tagOf(asid, va.BasePageNumber()), frame) {
		t.stats.Evictions++
	}
	t.stats.Insertions++
}

// InsertLarge caches a large translation (frame = large frame address).
func (t *TLB) InsertLarge(asid vmem.ASID, va vmem.VirtAddr, frame vmem.PhysAddr) {
	if t.large.insert(tagOf(asid, va.LargePageNumber()), frame) {
		t.stats.Evictions++
	}
	t.stats.Insertions++
}

// ProbeBase reports base-array residency without touching LRU or stats.
func (t *TLB) ProbeBase(asid vmem.ASID, va vmem.VirtAddr) bool {
	return t.base.probe(tagOf(asid, va.BasePageNumber()))
}

// ProbeLarge reports large-array residency without touching LRU or stats.
func (t *TLB) ProbeLarge(asid vmem.ASID, va vmem.VirtAddr) bool {
	return t.large.probe(tagOf(asid, va.LargePageNumber()))
}

// FlushLargeEntry removes the large-page entry for va's region, as
// required when a coalesced page is splintered (§4.4). It returns whether
// an entry was dropped.
func (t *TLB) FlushLargeEntry(asid vmem.ASID, va vmem.VirtAddr) bool {
	ok := t.large.invalidate(tagOf(asid, va.LargePageNumber()))
	if ok {
		t.stats.Flushes++
	}
	return ok
}

// FlushBaseEntry removes the base-page entry for va, used when CAC
// migrates a base page during compaction.
func (t *TLB) FlushBaseEntry(asid vmem.ASID, va vmem.VirtAddr) bool {
	ok := t.base.invalidate(tagOf(asid, va.BasePageNumber()))
	if ok {
		t.stats.Flushes++
	}
	return ok
}

// FlushASID drops every entry belonging to one protection domain.
func (t *TLB) FlushASID(asid vmem.ASID) int {
	n := t.base.invalidateASID(asid) + t.large.invalidateASID(asid)
	t.stats.Flushes += uint64(n)
	return n
}

// FlushAll empties both arrays (full TLB shootdown).
func (t *TLB) FlushAll() int {
	n := t.base.invalidateAll() + t.large.invalidateAll()
	t.stats.Flushes += uint64(n)
	return n
}

// Occupancy returns the number of valid base and large entries.
func (t *TLB) Occupancy() (baseEntries, largeEntries int) {
	return t.base.occupancy(), t.large.occupancy()
}

// PortGate models a fixed number of lookup ports per cycle on a shared
// TLB: the (p+1)-th request in a cycle slips to the next cycle.
type PortGate struct {
	ports     int
	cycle     uint64
	usedInCyc int
}

// NewPortGate builds a gate admitting ports lookups per cycle.
func NewPortGate(ports int) *PortGate {
	if ports <= 0 {
		ports = 1
	}
	return &PortGate{ports: ports}
}

// Admit returns the cycle at which a request arriving at now actually
// begins service, accounting for port contention.
//
// Contract: returned service cycles are monotonically non-decreasing
// across calls regardless of arrival order. The gate arbitrates at its
// high-water cycle: a retrograde arrival — now earlier than the latest
// service cycle, which happens because callers compute arrivals from
// different base cycles (the L2 data ports admit both SM accesses and
// walker PTE reads) — is treated as arriving at the high-water cycle and
// queues behind requests already admitted there. The gate never
// retroactively reclaims ports in a cycle it has already arbitrated, so
// results are deterministic for any admission order the event queue
// produces, and per-cycle port counts are respected at the cycle the
// gate arbitrated, not at the caller's nominal arrival cycle. This
// accounting is pinned by golden results; do not "fix" retrograde
// arrivals to be serviced at max(now, first free port cycle) computed
// per-arrival.
func (g *PortGate) Admit(now uint64) uint64 {
	if now > g.cycle {
		g.cycle = now
		g.usedInCyc = 0
	}
	// Service cycle is g.cycle (>= now) with usedInCyc ports consumed.
	for g.usedInCyc >= g.ports {
		g.cycle++
		g.usedInCyc = 0
	}
	g.usedInCyc++
	return g.cycle
}

// Clone returns an independent copy of the gate (its high-water cycle and
// in-cycle port count). Forks must not share a gate: Admit mutates the
// arbitration state on every call.
func (g *PortGate) Clone() *PortGate {
	ng := *g
	return &ng
}
