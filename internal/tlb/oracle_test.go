package tlb

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vmem"
)

// The struct-of-ways array the packed-tag entrySet replaced, kept as the
// reference its replacement must match way for way.

type refKey struct {
	ASID vmem.ASID
	VPN  uint64
}

type refWay struct {
	key      refKey
	frame    vmem.PhysAddr
	valid    bool
	lastUsed uint64
}

type refEntrySet struct {
	sets int
	ways int
	arr  []refWay
	tick uint64
}

func (e *refEntrySet) setOf(k refKey) int {
	if e.sets == 1 {
		return 0
	}
	h := k.VPN*0x9E3779B97F4A7C15 ^ uint64(k.ASID)*0xBF58476D1CE4E5B9
	return int(h % uint64(e.sets))
}

func (e *refEntrySet) lookup(k refKey) (vmem.PhysAddr, bool) {
	base := e.setOf(k) * e.ways
	e.tick++
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.lastUsed = e.tick
			return w.frame, true
		}
	}
	return 0, false
}

func (e *refEntrySet) probe(k refKey) bool {
	base := e.setOf(k) * e.ways
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			return true
		}
	}
	return false
}

func (e *refEntrySet) insert(k refKey, frame vmem.PhysAddr) (evicted bool) {
	base := e.setOf(k) * e.ways
	e.tick++
	victim := -1
	var oldest = ^uint64(0)
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.frame = frame
			w.lastUsed = e.tick
			return false
		}
		if !w.valid {
			if victim == -1 || e.arr[base+victim].valid {
				victim = i
			}
			continue
		}
		if w.lastUsed < oldest && (victim == -1 || e.arr[base+victim].valid) {
			oldest = w.lastUsed
			victim = i
		}
	}
	evicted = e.arr[base+victim].valid
	e.arr[base+victim] = refWay{key: k, frame: frame, valid: true, lastUsed: e.tick}
	return evicted
}

func (e *refEntrySet) invalidate(k refKey) bool {
	base := e.setOf(k) * e.ways
	for i := 0; i < e.ways; i++ {
		w := &e.arr[base+i]
		if w.valid && w.key == k {
			w.valid = false
			return true
		}
	}
	return false
}

func (e *refEntrySet) invalidateASID(asid vmem.ASID) int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid && e.arr[i].key.ASID == asid {
			e.arr[i].valid = false
			n++
		}
	}
	return n
}

func (e *refEntrySet) invalidateAll() int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid {
			e.arr[i].valid = false
			n++
		}
	}
	return n
}

func (e *refEntrySet) occupancy() int {
	n := 0
	for i := range e.arr {
		if e.arr[i].valid {
			n++
		}
	}
	return n
}

// sameWays checks that both arrays hold the same valid translation in
// every way and that each set's recency list orders its valid ways as
// the reference's LRU stamps do, so any divergence in victim choice
// shows up at once.
func sameWays(t *testing.T, step int, ref *refEntrySet, e *entrySet) {
	t.Helper()
	for i, w := range ref.arr {
		tg := e.tags[i]
		if w.valid != (tg&validTag != 0) {
			t.Fatalf("step %d: way %d valid=%v, packed tag %#x", step, i, w.valid, tg)
		}
		if w.valid && (tg != tagOf(w.key.ASID, w.key.VPN) || e.frames[i] != w.frame) {
			t.Fatalf("step %d: way %d holds %+v, packed %#x/%v", step, i, w, tg, e.frames[i])
		}
	}
	var got, want []int
	for s := 0; s < ref.sets; s++ {
		got = e.lru.Order(got[:0], s)
		want = want[:0]
		for i := s * ref.ways; i < (s+1)*ref.ways; i++ {
			if ref.arr[i].valid {
				want = append(want, i)
			}
		}
		slices.SortFunc(want, func(a, b int) int { return cmp.Compare(ref.arr[a].lastUsed, ref.arr[b].lastUsed) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: set %d recency %v; reference stamps order %v", step, s, got, want)
		}
	}
}

// clone deep-copies the reference, LRU ticks included.
func (e *refEntrySet) clone() *refEntrySet {
	ne := *e
	ne.arr = append([]refWay(nil), e.arr...)
	return &ne
}

// oracleOp is one step of a random program: an operation code in
// [0, 100), its key and, for inserts, the frame.
type oracleOp struct {
	op    int
	key   refKey
	frame vmem.PhysAddr
}

// opCounts tallies what a program exercised: inserts that evicted, and
// per-ASID and full flushes that dropped at least one entry.
type opCounts struct {
	evictions, asidFlushes, fullFlushes int
}

// apply runs op on the reference and on e, fails on the first return
// value, occupancy or way that differs, and adds what op exercised to n.
func (op oracleOp) apply(t *testing.T, step int, ref *refEntrySet, e *entrySet, n *opCounts) {
	t.Helper()
	k := op.key
	tg := tagOf(k.ASID, k.VPN)
	switch {
	case op.op < 40:
		f1, ok1 := ref.lookup(k)
		f2, ok2 := e.lookup(tg)
		if f1 != f2 || ok1 != ok2 {
			t.Fatalf("step %d: lookup(%+v) = %v, %v; reference %v, %v", step, k, f2, ok2, f1, ok1)
		}
	case op.op < 50:
		if a, b := ref.probe(k), e.probe(tg); a != b {
			t.Fatalf("step %d: probe(%+v) = %v; reference %v", step, k, b, a)
		}
	case op.op < 88:
		a, b := ref.insert(k, op.frame), e.insert(tg, op.frame)
		if a != b {
			t.Fatalf("step %d: insert(%+v) evicted = %v; reference %v", step, k, b, a)
		}
		if a {
			n.evictions++
		}
	case op.op < 96:
		if a, b := ref.invalidate(k), e.invalidate(tg); a != b {
			t.Fatalf("step %d: invalidate(%+v) = %v; reference %v", step, k, b, a)
		}
	case op.op < 99:
		a, b := ref.invalidateASID(k.ASID), e.invalidateASID(k.ASID)
		if a != b {
			t.Fatalf("step %d: invalidateASID(%d) = %d; reference %d", step, k.ASID, b, a)
		}
		if a > 0 {
			n.asidFlushes++
		}
	default:
		a, b := ref.invalidateAll(), e.invalidateAll()
		if a != b {
			t.Fatalf("step %d: invalidateAll = %d; reference %d", step, b, a)
		}
		if a > 0 {
			n.fullFlushes++
		}
	}
	if a, b := ref.occupancy(), e.occupancy(); a != b {
		t.Fatalf("step %d: occupancy = %d; reference %d", step, b, a)
	}
	sameWays(t, step, ref, e)
}

// oracleSteps is the length of one random entrySet program.
const oracleSteps = 20000

// entrySetProgram drives a fresh entrySet and reference of the given
// geometry with one random program of oracleSteps steps from seed. Per-ASID
// and full flushes are 4 % of the steps, divided by flushDiv. At a random
// step both are cloned, and the program continues on the originals and
// on the clones alike. It returns what the program exercised before and
// after the clone.
func entrySetProgram(t *testing.T, seed int64, entries, ways, flushDiv int) (n, nClone opCounts) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, err := newEntrySet(entries, ways)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refEntrySet{sets: entries / ways, ways: ways, arr: make([]refWay, entries)}
	// Keys: a VPN window about twice the capacity, plus a few VPNs at
	// the top of the 36-bit range, over three ASIDs.
	key := func() refKey {
		vpn := uint64(rng.Intn(2*entries + 4))
		if rng.Intn(16) == 0 {
			vpn = 1<<36 - 1 - uint64(rng.Intn(4))
		}
		return refKey{ASID: vmem.ASID(1 + rng.Intn(3)), VPN: vpn}
	}
	cloneAt := oracleSteps/4 + rng.Intn(oracleSteps/2)
	var eClone *entrySet
	var refClone *refEntrySet
	for step := 0; step < oracleSteps; step++ {
		if step == cloneAt {
			eClone, refClone = e.clone(), ref.clone()
		}
		op := oracleOp{op: rng.Intn(100), key: key()}
		if op.op >= 96 && flushDiv > 1 && rng.Intn(flushDiv) != 0 {
			op.op = 60
		}
		op.frame = vmem.PhysAddr(rng.Intn(1<<20)) << vmem.BasePageShift
		op.apply(t, step, ref, e, &n)
		if eClone != nil {
			op.apply(t, step, refClone, eClone, &nClone)
		}
	}
	return n, nClone
}

// TestPackedEntrySetMatchesStructOfWays drives the packed-tag entrySet
// and the struct-of-ways reference with the same random programs of
// lookups, probes, inserts, single-entry, per-ASID and full flushes, on
// direct-mapped, set-associative and fully associative geometries
// (including the L1 and L2 large-page arrays). Every returned frame,
// hit, eviction and flush count and the occupancy must agree, and after
// every step each way must hold the same translation and each set's
// recency list must order its ways as the reference's LRU stamps do.
// Each geometry runs
// two programs: one at the full flush rate, which must drop entries in
// many per-ASID and full flushes, and one that flushes entries/4 times
// less often, so even the 256-entry array fills up and must replace. In
// both, a clone taken at a random step is driven alongside its source,
// so a clone that shares state with it diverges.
func TestPackedEntrySetMatchesStructOfWays(t *testing.T) {
	geoms := []struct {
		name          string
		entries, ways int
	}{
		{"1-way", 32, 1},
		{"4-way", 64, 4},
		{"16-way", 512, 16},
		{"fully-associative", 128, 128},
		{"fully-associative-16", 16, 16},
		{"fully-associative-256", 256, 256},
		{"single-entry", 1, 1},
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			seed := int64(g.entries*131 + g.ways)
			// Floors are a quarter of the expected flush counts.
			flush, _ := entrySetProgram(t, seed, g.entries, g.ways, 1)
			if minASID, minAll := oracleSteps*3/100/4, oracleSteps/100/4; flush.asidFlushes < minASID || flush.fullFlushes < minAll {
				t.Fatalf("%d per-ASID and %d full flushes dropped entries, want at least %d and %d", flush.asidFlushes, flush.fullFlushes, minASID, minAll)
			}
			fill, fillClone := entrySetProgram(t, seed+1, g.entries, g.ways, max(1, g.entries/4))
			if fill.evictions < oracleSteps/100 || fillClone.evictions < oracleSteps/100 {
				t.Fatalf("%d evictions before and %d after the clone; the program barely exercises replacement", fill.evictions, fillClone.evictions)
			}
			t.Logf("flush %+v, fill %+v, fill clone %+v", flush, fill, fillClone)
		})
	}
}
