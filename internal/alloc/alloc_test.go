package alloc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vmem"
)

func newPool(t *testing.T, frames int) *Pool {
	t.Helper()
	p, err := NewPool(0, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(4096, 4); err == nil {
		t.Error("misaligned base accepted")
	}
	if _, err := NewPool(0, 0); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestAddrRefRoundTrip(t *testing.T) {
	p := newPool(t, 8)
	prop := func(f, s uint16) bool {
		ref := PageRef{int(f) % 8, int(s) % vmem.BasePagesPerLarge}
		got, ok := p.RefOf(p.Addr(ref))
		return ok && got == ref
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if _, ok := p.RefOf(vmem.PhysAddr(8 * vmem.LargePageSize)); ok {
		t.Error("RefOf accepted out-of-pool address")
	}
}

func TestAllocFreeSlot(t *testing.T) {
	p := newPool(t, 2)
	ref := PageRef{0, 5}
	if err := p.AllocSlot(ref, 1, false); err != nil {
		t.Fatal(err)
	}
	if p.Frame(0).Owner != 1 || p.Frame(0).Count != 1 {
		t.Errorf("frame state = %+v", p.Frame(0))
	}
	if err := p.AllocSlot(ref, 1, false); err == nil {
		t.Error("double alloc accepted")
	}
	// Wrong owner without force.
	if err := p.AllocSlot(PageRef{0, 6}, 2, false); err == nil {
		t.Error("cross-owner alloc accepted without force")
	}
	// With force.
	if err := p.AllocSlot(PageRef{0, 6}, 2, true); err != nil {
		t.Errorf("forced cross-owner alloc rejected: %v", err)
	}
	if err := p.FreeSlot(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.FreeSlot(ref); err == nil {
		t.Error("double free accepted")
	}
	// Frame still owned: slot 6 allocated.
	if p.Frame(0).Owner == NoOwner {
		t.Error("ownership reset while pages remain")
	}
	if err := p.FreeSlot(PageRef{0, 6}); err != nil {
		t.Fatal(err)
	}
	if p.Frame(0).Owner != NoOwner {
		t.Error("ownership not reset when frame emptied")
	}
}

// TestFrameSlotIteratorsMatchBitScan checks the word-at-a-time slot
// iterators against a bit-by-bit scan from every start slot, on frames
// from empty to full with a random except set.
func TestFrameSlotIteratorsMatchBitScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	scan := func(from int, want func(slot int) bool) int {
		for slot := from; slot < vmem.BasePagesPerLarge; slot++ {
			if want(slot) {
				return slot
			}
		}
		return -1
	}
	for _, fill := range []int{0, 1, 63, 64, 256, 448, 511, 512} {
		p := newPool(t, 1)
		for _, slot := range rng.Perm(vmem.BasePagesPerLarge)[:fill] {
			if err := p.AllocSlot(PageRef{0, slot}, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		var except SlotSet
		for k := rng.Intn(128); k > 0; k-- {
			except.Add(rng.Intn(vmem.BasePagesPerLarge))
		}
		f := p.Frame(0)
		for from := 0; from <= vmem.BasePagesPerLarge; from++ {
			if got, want := f.NextFree(from), scan(from, func(s int) bool { return !f.Allocated(s) }); got != want {
				t.Fatalf("fill %d: NextFree(%d) = %d, want %d", fill, from, got, want)
			}
			if got, want := f.NextAllocated(from), scan(from, f.Allocated); got != want {
				t.Fatalf("fill %d: NextAllocated(%d) = %d, want %d", fill, from, got, want)
			}
			wantExcept := scan(from, func(s int) bool { return !f.Allocated(s) && !except.Has(s) })
			if got := f.NextFreeExcept(from, &except); got != wantExcept {
				t.Fatalf("fill %d: NextFreeExcept(%d) = %d, want %d", fill, from, got, wantExcept)
			}
		}
	}
}

func TestBaselineInterleavesApplications(t *testing.T) {
	p := newPool(t, 4)
	b := NewBaseline(p)
	// Alternate allocations from two apps: they land in the same frame.
	a1, err := b.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.AllocBase(2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.LargeFrameBase() != a2.LargeFrameBase() {
		t.Error("baseline should interleave apps within one large frame")
	}
	if b.Stats().Violations != 1 {
		t.Errorf("Violations = %d, want 1", b.Stats().Violations)
	}
}

func TestBaselineExhaustion(t *testing.T) {
	p := newPool(t, 1)
	b := NewBaseline(p)
	for i := 0; i < vmem.BasePagesPerLarge; i++ {
		if _, err := b.AllocBase(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AllocBase(1); !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v, want ErrNoMemory", err)
	}
}

func TestBaselineFreeAndReuse(t *testing.T) {
	p := newPool(t, 1)
	b := NewBaseline(p)
	pa, _ := b.AllocBase(1)
	if err := b.Free(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(pa); err == nil {
		t.Error("double free accepted")
	}
	if _, err := b.AllocBase(2); err != nil {
		t.Errorf("reuse after free failed: %v", err)
	}
}

func TestCoCoARegionAllocation(t *testing.T) {
	p := newPool(t, 4)
	c := NewCoCoA(p)
	pa, err := c.AllocRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !pa.IsLargeAligned() {
		t.Errorf("region at %v not large-aligned", pa)
	}
	ref, _ := p.RefOf(pa)
	f := p.Frame(ref.Frame)
	if f.Count != vmem.BasePagesPerLarge || f.Owner != 1 {
		t.Errorf("frame state = count %d owner %d", f.Count, f.Owner)
	}
	if c.FreeFrameCount() != 3 {
		t.Errorf("free frames = %d, want 3", c.FreeFrameCount())
	}
}

func TestCoCoASoftGuarantee(t *testing.T) {
	p := newPool(t, 4)
	c := NewCoCoA(p)
	// Interleave base allocations from two apps; frames must never mix.
	for i := 0; i < 100; i++ {
		if _, err := c.AllocBase(1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AllocBase(2); err != nil {
			t.Fatal(err)
		}
	}
	owned := p.OwnedFrames()
	if owned[1] == 0 || owned[2] == 0 {
		t.Fatalf("owned = %v", owned)
	}
	for i := 0; i < p.NumFrames(); i++ {
		f := p.Frame(i)
		if f.Owner == NoOwner {
			continue
		}
		// All allocated pages in this frame belong to the single owner by
		// construction (AllocSlot without force enforces it); just assert
		// no violations were recorded.
	}
	if c.Stats().Violations != 0 {
		t.Errorf("soft guarantee violated %d times", c.Stats().Violations)
	}
}

func TestCoCoABaseAllocContiguityWithinFrame(t *testing.T) {
	p := newPool(t, 2)
	c := NewCoCoA(p)
	first, err := c.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	if first.LargeFrameBase() != second.LargeFrameBase() {
		t.Error("successive base allocs should fill one frame before starting another")
	}
}

func TestCoCoAExhaustionAndScavenge(t *testing.T) {
	p := newPool(t, 2)
	c := NewCoCoA(p)
	if _, err := c.AllocRegion(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocRegion(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocRegion(1); !errors.Is(err, ErrNoFreeFrames) {
		t.Error("expected ErrNoFreeFrames")
	}
	if _, err := c.AllocBase(1); !errors.Is(err, ErrNoFreeFrames) {
		t.Error("expected ErrNoFreeFrames from AllocBase")
	}
	if _, err := c.AllocScavenge(1); !errors.Is(err, ErrNoMemory) {
		t.Error("scavenge of full pool should report ErrNoMemory")
	}
}

func TestCoCoAScavengeBreaksSoftGuarantee(t *testing.T) {
	p := newPool(t, 1)
	c := NewCoCoA(p)
	if _, err := c.AllocBase(1); err != nil { // frame now owned by app 1
		t.Fatal(err)
	}
	pa, err := c.AllocScavenge(2)
	if err != nil {
		t.Fatal(err)
	}
	if pa.LargeFrameBase() != 0 {
		t.Errorf("scavenged page at %v", pa)
	}
	if c.Stats().Violations != 1 {
		t.Errorf("Violations = %d, want 1", c.Stats().Violations)
	}
}

func TestCoCoAFreeReturnsFrameToFreeList(t *testing.T) {
	p := newPool(t, 1)
	c := NewCoCoA(p)
	pa, _ := c.AllocBase(1)
	if c.FreeFrameCount() != 0 {
		t.Fatal("frame should be claimed")
	}
	if err := c.Free(pa); err != nil {
		t.Fatal(err)
	}
	if c.FreeFrameCount() != 1 {
		t.Errorf("free frames = %d, want 1", c.FreeFrameCount())
	}
	// The frame is reusable by another app; stale free-base refs for app 1
	// must not leak into app 2's allocations.
	if _, err := c.AllocRegion(2); err != nil {
		t.Errorf("region alloc after frame recycle failed: %v", err)
	}
	if _, err := c.AllocBase(1); !errors.Is(err, ErrNoFreeFrames) {
		t.Error("app 1 should be out of frames; stale refs must not serve")
	}
}

func TestCoCoADoubleFreeDetected(t *testing.T) {
	p := newPool(t, 2)
	c := NewCoCoA(p)
	pa, err := c.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(pa); err != nil {
		t.Fatal(err)
	}
	framesBefore := c.FreeFrameCount()
	freesBefore := c.Stats().Frees
	if err := c.Free(pa); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free returned %v, want ErrDoubleFree", err)
	}
	if c.FreeFrameCount() != framesBefore {
		t.Error("double free grew the free-frame list")
	}
	if c.Stats().Frees != freesBefore {
		t.Error("double free counted as a free")
	}
	// The allocator still works: exactly one frame's worth of pages can
	// be handed back out.
	if _, err := c.AllocRegion(2); err != nil {
		t.Fatalf("alloc after rejected double free failed: %v", err)
	}
}

func TestCoCoAReturnFrameRejectsMisuse(t *testing.T) {
	p := newPool(t, 2)
	c := NewCoCoA(p)
	pa, err := c.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.RefOf(pa)

	// Occupied frame: rejected.
	if err := c.ReturnFrame(ref.Frame); !errors.Is(err, ErrBadFrameReturn) {
		t.Errorf("return of occupied frame: %v, want ErrBadFrameReturn", err)
	}
	// Out-of-range index: rejected.
	if err := c.ReturnFrame(p.NumFrames()); !errors.Is(err, ErrBadFrameReturn) {
		t.Errorf("return of out-of-range frame: %v, want ErrBadFrameReturn", err)
	}
	if err := c.ReturnFrame(-1); !errors.Is(err, ErrBadFrameReturn) {
		t.Errorf("return of negative frame: %v, want ErrBadFrameReturn", err)
	}

	// Frame already on the list (never claimed): repeated return rejected.
	before := c.FreeFrameCount()
	other := (ref.Frame + 1) % p.NumFrames()
	if err := c.ReturnFrame(other); !errors.Is(err, ErrBadFrameReturn) {
		t.Errorf("return of still-listed frame: %v, want ErrBadFrameReturn", err)
	}
	if c.FreeFrameCount() != before {
		t.Error("rejected returns changed the free-frame list")
	}

	// A drained frame that Free already re-listed: the CAC-style explicit
	// return must be rejected as a repeat, not double-inserted.
	if err := c.Free(pa); err != nil {
		t.Fatal(err)
	}
	if err := c.ReturnFrame(ref.Frame); !errors.Is(err, ErrBadFrameReturn) {
		t.Errorf("re-return after Free re-listed: %v, want ErrBadFrameReturn", err)
	}
	// Both frames allocatable exactly once.
	if _, err := c.AllocRegion(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocRegion(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocRegion(1); !errors.Is(err, ErrNoFreeFrames) {
		t.Error("a duplicated free-list entry served a third region from two frames")
	}
}

func TestCoCoAFreedPageReusedBySameApp(t *testing.T) {
	p := newPool(t, 1)
	c := NewCoCoA(p)
	a, _ := c.AllocBase(1)
	b, _ := c.AllocBase(1)
	_ = b
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
	got, err := c.AllocBase(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		// Not required to be identical, but it must come from the same frame.
		if got.LargeFrameBase() != a.LargeFrameBase() {
			t.Error("freed page's frame not reused")
		}
	}
}

func TestPreFragment(t *testing.T) {
	p := newPool(t, 100)
	p.PreFragment(1, 0.5, 0.25)
	if got := p.FragmentedFrames(); got != 50 {
		t.Errorf("fragmented frames = %d, want 50", got)
	}
	wantPages := uint64(50 * 128) // 25% of 512
	if got := p.AllocatedBasePages(); got != wantPages {
		t.Errorf("allocated pages = %d, want %d", got, wantPages)
	}
	// CoCoA built on a pre-fragmented pool must exclude fragged frames.
	c := NewCoCoA(p)
	if c.FreeFrameCount() != 50 {
		t.Errorf("free frames = %d, want 50", c.FreeFrameCount())
	}
}

// permInto fills buf with the permutation rng.Perm(len(buf)) would
// return, by the same inside-out shuffle and the same draws, without
// allocating a new slice. It is how PreFragment drew slot orders before
// the draw stream, and refPreFragment's reference for it.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// refPreFragment is PreFragment as it was before the draw stream: every
// draw through rng, one set per planted page.
func refPreFragment(p *Pool, rng *rand.Rand, index, occupancy float64) {
	nFrag := int(index * float64(len(p.frames)))
	perm := rng.Perm(len(p.frames))
	pagesPer := int(occupancy * vmem.BasePagesPerLarge)
	if pagesPer < 1 && occupancy > 0 {
		pagesPer = 1
	}
	slots := make([]int, vmem.BasePagesPerLarge)
	for _, fi := range perm[:nFrag] {
		f := &p.frames[fi]
		f.Owner = FragOwner
		f.PreFrag = true
		permInto(rng, slots)
		for _, s := range slots[:pagesPer] {
			f.set(s)
		}
	}
}

// TestPreFragmentMatchesPermReference: PreFragment plants exactly the
// frames the rand.Rand reference does (owner, flag, bitmap, count) for
// fragmented fractions 0.3 and 1 and occupancies 0, 1/512, 0.9 and 1,
// and its not-full set holds exactly the frames with a free slot.
func TestPreFragmentMatchesPermReference(t *testing.T) {
	for _, seed := range []int64{1, 0x5f5f, 1 ^ 0x5f5f} {
		for _, index := range []float64{0.3, 1.0} {
			for _, occupancy := range []float64{0, 1.0 / 512, 0.9, 1} {
				got, want := newPool(t, 97), newPool(t, 97)
				got.PreFragment(seed, index, occupancy)
				refPreFragment(want, rand.New(rand.NewSource(seed)), index, occupancy)
				for fi := range want.frames {
					if *got.Frame(fi) != *want.Frame(fi) {
						t.Fatalf("seed %d index %g occupancy %g: frame %d = %+v, reference %+v",
							seed, index, occupancy, fi, *got.Frame(fi), *want.Frame(fi))
					}
					if full := got.Frame(fi).Count == vmem.BasePagesPerLarge; got.notFull.has(fi) == full {
						t.Fatalf("seed %d index %g occupancy %g: frame %d with %d pages in not-full set: %v",
							seed, index, occupancy, fi, got.Frame(fi).Count, !full)
					}
				}
			}
		}
	}
}

// TestDrawStreamMatchesRand: the draw stream continues a math/rand
// source draw for draw. Over several seeds, including the extremes,
// more than a million Int31n draws each, with divisors that are powers
// of two, that take the reciprocal table, and 1<<30+1, which rejects
// about half of its draws, then Uint64, then a million draws more
// through permInto, all match rand.New(rand.NewSource(seed)) consumed
// the same way.
func TestDrawStreamMatchesRand(t *testing.T) {
	ns := []int32{1, 2, 3, 7, 64, 100, 333, 460, 511, 512, 513, 1000, 1 << 20, 1<<30 + 1, 1 << 30, 1<<31 - 1}
	for _, seed := range []int64{0, 1, -1, 0x5f5f, 1 << 62, math.MinInt64} {
		want := rand.New(rand.NewSource(seed))
		src := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ { // the stream may start anywhere
			want.Uint64()
			src.Uint64()
		}
		got := newDrawStream(src)
		for i := 0; i < 1<<20; i++ {
			n := ns[i%len(ns)]
			if i%4096 >= 2048 {
				n = int32(1 + i%vmem.BasePagesPerLarge) // every divisor PreFragment uses
			}
			if a, b := got.int31n(n), want.Int31n(n); a != b {
				t.Fatalf("seed %d draw %d: int31n(%d) = %d, rand %d", seed, i, n, a, b)
			}
		}
		for i := 0; i < 2*rngLen; i++ {
			if a, b := got.uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: uint64 %d = %d, rand %d", seed, i, a, b)
			}
		}
		var buf [vmem.BasePagesPerLarge]uint16
		for round := 0; round < 2048; round++ {
			n := vmem.BasePagesPerLarge - round%3
			got.permInto(buf[:n])
			for i, v := range want.Perm(n) {
				if int(buf[i]) != v {
					t.Fatalf("seed %d round %d: Perm(%d)[%d] = %d, rand %d", seed, round, n, i, buf[i], v)
				}
			}
		}
		if a, b := got.uint64(), want.Uint64(); a != b {
			t.Fatalf("seed %d: uint64 after the permutations = %d, rand %d", seed, a, b)
		}
	}
}

// TestPermIntoMatchesPerm: the reference shuffle refPreFragment draws
// slot orders with yields rand.Perm's permutation and leaves the source
// at the same position, for several seeds and sizes, and with a buffer
// holding an earlier permutation.
func TestPermIntoMatchesPerm(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{0, 1, 2, 7, 64, vmem.BasePagesPerLarge} {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))
			buf := make([]int, n)
			for round := 0; round < 3; round++ {
				perm := want.Perm(n)
				permInto(got, buf)
				for i := range perm {
					if buf[i] != perm[i] {
						t.Fatalf("seed %d n %d round %d: buf[%d] = %d, Perm %d", seed, n, round, i, buf[i], perm[i])
					}
				}
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d n %d: next draw %d, after Perm %d", seed, n, a, b)
			}
		}
	}
}

func TestReturnFrame(t *testing.T) {
	p := newPool(t, 1)
	c := NewCoCoA(p)
	if _, err := c.AllocRegion(1); err != nil {
		t.Fatal(err)
	}
	// Manually free all slots at pool level (as CAC would), then return.
	for s := 0; s < vmem.BasePagesPerLarge; s++ {
		if err := p.FreeSlot(PageRef{0, s}); err != nil {
			t.Fatal(err)
		}
	}
	c.ReturnFrame(0)
	if _, err := c.AllocRegion(2); err != nil {
		t.Errorf("region alloc after ReturnFrame failed: %v", err)
	}
}

// Property: under arbitrary interleaved CoCoA alloc/free sequences from 3
// apps, no frame ever holds pages from two apps (soft guarantee) and
// counts stay consistent.
func TestCoCoAInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := NewPool(0, 6)
		c := NewCoCoA(p)
		live := map[vmem.ASID][]vmem.PhysAddr{}
		for op := 0; op < 400; op++ {
			asid := vmem.ASID(rng.Intn(3) + 1)
			if rng.Intn(3) > 0 || len(live[asid]) == 0 {
				pa, err := c.AllocBase(asid)
				if errors.Is(err, ErrNoFreeFrames) {
					continue
				}
				if err != nil {
					return false
				}
				live[asid] = append(live[asid], pa)
			} else {
				l := live[asid]
				i := rng.Intn(len(l))
				if err := c.Free(l[i]); err != nil {
					return false
				}
				live[asid] = append(l[:i], l[i+1:]...)
			}
		}
		if c.Stats().Violations != 0 {
			return false
		}
		// Every live page's frame must be owned by its app.
		for asid, pages := range live {
			for _, pa := range pages {
				ref, ok := p.RefOf(pa)
				if !ok || p.Frame(ref.Frame).Owner != asid || !p.Frame(ref.Frame).Allocated(ref.Slot) {
					return false
				}
			}
		}
		// Pool-level count equals the number of live pages.
		var total uint64
		for _, pages := range live {
			total += uint64(len(pages))
		}
		return p.AllocatedBasePages() == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
