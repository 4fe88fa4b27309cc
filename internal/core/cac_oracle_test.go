package core

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/vmem"
)

// refFragDst is the slot-by-slot reference for findFragDst: frames in
// index order, slots ascending, the first free slot in the source page's
// DRAM channel, else the first free slot anywhere.
func refFragDst(s *System, excludeFrame int, src vmem.PhysAddr) (alloc.PageRef, bool) {
	srcChan := s.mem.ChannelOf(src)
	var fallback alloc.PageRef
	haveFallback := false
	for fi := 0; fi < s.pool.NumFrames(); fi++ {
		f := s.pool.Frame(fi)
		if fi == excludeFrame || !f.PreFrag || f.Count == vmem.BasePagesPerLarge {
			continue
		}
		for slot := 0; slot < vmem.BasePagesPerLarge; slot++ {
			if f.Allocated(slot) {
				continue
			}
			ref := alloc.PageRef{Frame: fi, Slot: slot}
			if s.mem.ChannelOf(s.pool.Addr(ref)) == srcChan {
				return ref, true
			}
			if !haveFallback {
				fallback, haveFallback = ref, true
			}
		}
	}
	return fallback, haveFallback
}

// refCompactionDst is the slot-by-slot reference for findCompactionDst:
// the same search over frames owned by asid that are neither excluded nor
// coalesced, skipping slots already promised in taken.
func refCompactionDst(s *System, asid vmem.ASID, excludeFrame int, src vmem.PhysAddr, taken map[alloc.PageRef]bool) (alloc.PageRef, bool) {
	srcChan := s.mem.ChannelOf(src)
	var fallback alloc.PageRef
	haveFallback := false
	for fi := 0; fi < s.pool.NumFrames(); fi++ {
		if fi == excludeFrame || s.coalesced[fi] {
			continue
		}
		f := s.pool.Frame(fi)
		if f.Owner != asid || f.Count == vmem.BasePagesPerLarge {
			continue
		}
		for slot := 0; slot < vmem.BasePagesPerLarge; slot++ {
			ref := alloc.PageRef{Frame: fi, Slot: slot}
			if f.Allocated(slot) || taken[ref] {
				continue
			}
			if s.mem.ChannelOf(s.pool.Addr(ref)) == srcChan {
				return ref, true
			}
			if !haveFallback {
				fallback, haveFallback = ref, true
			}
		}
	}
	return fallback, haveFallback
}

// compactionDst calls findCompactionDst with the promised slots of taken
// as one set per frame.
func compactionDst(s *System, asid vmem.ASID, excludeFrame int, src vmem.PhysAddr, taken map[alloc.PageRef]bool) (alloc.PageRef, bool) {
	sets := make([]alloc.SlotSet, s.pool.NumFrames())
	for ref := range taken {
		sets[ref.Frame].Add(ref.Slot)
	}
	return s.findCompactionDst(asid, excludeFrame, src, sets)
}

// oracleOwners are the owners a random oracle frame is given: two
// applications and the stress-data owner.
var oracleOwners = []vmem.ASID{1, 2, alloc.FragOwner}

// randomOraclePool replaces s's pool with n frames in random states:
// empty, full, sparse, dense (the §6.4 0.9 occupancy) and anything in
// between, each with a random owner, pre-fragmented flag and coalesced
// flag. The pool is built as NewSystem builds it, channel sets included.
// Pre-fragmented frames are built directly, as PreFragment would leave
// them. A tight pool holds only full frames and frames with a few free
// slots, so searches often find none in the source's channel.
func randomOraclePool(t *testing.T, s *System, rng *rand.Rand, n int, tight bool) {
	t.Helper()
	pool, err := newPool(n, s.cfg.MemoryPartitons)
	if err != nil {
		t.Fatal(err)
	}
	s.pool = pool
	s.coalesced = make(map[int]bool)
	for fi := 0; fi < n; fi++ {
		var fill int
		kind := rng.Intn(6)
		if tight {
			kind = 1 + 3*rng.Intn(2)
		}
		switch kind {
		case 0: // empty
		case 1:
			fill = vmem.BasePagesPerLarge
		case 2:
			fill = rng.Intn(8)
		case 3:
			fill = vmem.BasePagesPerLarge - 1 - rng.Intn(64)
		case 4: // a few free slots, often none in the source's channel
			fill = vmem.BasePagesPerLarge - 1 - rng.Intn(4)
		default:
			fill = rng.Intn(vmem.BasePagesPerLarge + 1)
		}
		owner := oracleOwners[rng.Intn(len(oracleOwners))]
		for _, slot := range rng.Perm(vmem.BasePagesPerLarge)[:fill] {
			if err := pool.AllocSlot(alloc.PageRef{Frame: fi, Slot: slot}, owner, true); err != nil {
				t.Fatal(err)
			}
		}
		f := pool.Frame(fi)
		if fill > 0 {
			f.PreFrag = owner == alloc.FragOwner || rng.Intn(4) == 0
		}
		s.coalesced[fi] = rng.Intn(5) == 0
	}
}

// randomOracleStep allocates or frees one random slot, as the simulator
// does between compactions.
func randomOracleStep(t *testing.T, s *System, rng *rand.Rand) {
	t.Helper()
	ref := alloc.PageRef{Frame: rng.Intn(s.pool.NumFrames()), Slot: rng.Intn(vmem.BasePagesPerLarge)}
	f := s.pool.Frame(ref.Frame)
	if f.Allocated(ref.Slot) {
		if err := s.pool.FreeSlot(ref); err != nil {
			t.Fatal(err)
		}
		return
	}
	owner := f.Owner
	if owner == alloc.NoOwner {
		owner = oracleOwners[rng.Intn(len(oracleOwners))]
	}
	if err := s.pool.AllocSlot(ref, owner, true); err != nil {
		t.Fatal(err)
	}
	if owner == alloc.FragOwner {
		f.PreFrag = true
	}
}

// freeInChannel frees one allocated slot in DRAM channel ch of a frame,
// picked at random among those eligible accepts, and reports whether
// there was one. After a search that found no free slot in ch, the freed
// slot is what the next search must find.
func freeInChannel(t *testing.T, s *System, rng *rand.Rand, ch int, eligible func(fi int, f *alloc.Frame) bool) bool {
	t.Helper()
	for _, fi := range rng.Perm(s.pool.NumFrames()) {
		f := s.pool.Frame(fi)
		if !eligible(fi, f) {
			continue
		}
		for slot := f.NextAllocated(0); slot >= 0; slot = f.NextAllocated(slot + 1) {
			ref := alloc.PageRef{Frame: fi, Slot: slot}
			if s.mem.ChannelOf(s.pool.Addr(ref)) == ch {
				if err := s.pool.FreeSlot(ref); err != nil {
					t.Fatal(err)
				}
				return true
			}
		}
	}
	return false
}

// oracleSources returns, for every DRAM channel, a pool address in it,
// preferring one inside frame (where the migrated page really lives).
func oracleSources(s *System, rng *rand.Rand, frame int) []vmem.PhysAddr {
	nch := s.cfg.MemoryPartitons
	srcs := make([]vmem.PhysAddr, nch)
	found := make([]bool, nch)
	left := nch
	try := func(ref alloc.PageRef) {
		pa := s.pool.Addr(ref)
		if ch := s.mem.ChannelOf(pa); !found[ch] {
			srcs[ch], found[ch] = pa, true
			left--
		}
	}
	for _, slot := range rng.Perm(vmem.BasePagesPerLarge) {
		try(alloc.PageRef{Frame: frame, Slot: slot})
		if left == 0 {
			return srcs
		}
	}
	for fi := 0; left > 0; fi++ {
		for slot := 0; slot < vmem.BasePagesPerLarge && left > 0; slot++ {
			try(alloc.PageRef{Frame: fi % s.pool.NumFrames(), Slot: slot})
		}
	}
	return srcs
}

// TestCACFreeSlotSearchMatchesSlotScan checks CAC's two free-slot
// searches against the slot-by-slot scans above on random pools of 1–64
// frames: full, empty, excluded and coalesced frames, random owners and
// pre-fragmented flags, random promised-slot sets, source addresses in
// every DRAM channel, and random allocations and frees between queries.
// A search that finds no free slot in the source's channel drops frames
// from that channel's set; a slot freed in one of them right after must
// be found by the next search.
func TestCACFreeSlotSearchMatchesSlotScan(t *testing.T) {
	s := newRig(t, Mosaic, nil).sys
	rng := rand.New(rand.NewSource(22))
	queries, fallbacks, misses, refrees := 0, 0, 0, 0
	tally := func(ref alloc.PageRef, ok bool, ch int) bool {
		queries++
		switch {
		case !ok:
			misses++
		case s.mem.ChannelOf(s.pool.Addr(ref)) != ch:
			fallbacks++
		default:
			return true
		}
		return false
	}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(64)
		randomOraclePool(t, s, rng, n, trial%3 == 0)
		for round := 0; round < 12; round++ {
			for k := rng.Intn(40); k > 0; k-- {
				randomOracleStep(t, s, rng)
			}
			exclude := rng.Intn(n)
			if rng.Intn(8) == 0 {
				exclude = n // no frame excluded
			}
			taken := make(map[alloc.PageRef]bool)
			for k := rng.Intn(48); k > 0; k-- {
				taken[alloc.PageRef{Frame: rng.Intn(n), Slot: rng.Intn(vmem.BasePagesPerLarge)}] = true
			}
			if rng.Intn(2) == 0 {
				// Promise a run of free slots of one frame, as a planned
				// compaction does.
				fi := rng.Intn(n)
				f := s.pool.Frame(fi)
				for slot, k := 0, rng.Intn(300); slot < vmem.BasePagesPerLarge && k > 0; slot++ {
					if !f.Allocated(slot) {
						taken[alloc.PageRef{Frame: fi, Slot: slot}] = true
						k--
					}
				}
			}
			srcFrame := exclude % n
			fragDst := func(ch int, src vmem.PhysAddr) bool {
				got, gotOK := s.findFragDst(exclude, src)
				want, wantOK := refFragDst(s, exclude, src)
				if got != want || gotOK != wantOK {
					t.Fatalf("trial %d round %d channel %d: findFragDst(%d, %v) = %+v, %v; reference %+v, %v",
						trial, round, ch, exclude, src, got, gotOK, want, wantOK)
				}
				return tally(want, wantOK, ch)
			}
			compDst := func(ch int, asid vmem.ASID, src vmem.PhysAddr) bool {
				got, gotOK := compactionDst(s, asid, exclude, src, taken)
				want, wantOK := refCompactionDst(s, asid, exclude, src, taken)
				if got != want || gotOK != wantOK {
					t.Fatalf("trial %d round %d channel %d: findCompactionDst(asid %d, %d, %v) = %+v, %v; reference %+v, %v",
						trial, round, ch, asid, exclude, src, got, gotOK, want, wantOK)
				}
				return tally(want, wantOK, ch)
			}
			for ch, src := range oracleSources(s, rng, srcFrame) {
				if !fragDst(ch, src) && freeInChannel(t, s, rng, ch, func(fi int, f *alloc.Frame) bool {
					return fi != exclude && f.PreFrag && f.Count > 1
				}) {
					refrees++
					fragDst(ch, src)
				}
				for _, asid := range oracleOwners {
					if !compDst(ch, asid, src) && freeInChannel(t, s, rng, ch, func(fi int, f *alloc.Frame) bool {
						return fi != exclude && !s.coalesced[fi] && f.Owner == asid && f.Count > 1
					}) {
						refrees++
						compDst(ch, asid, src)
					}
				}
			}
		}
	}
	// Every outcome must be exercised: same-channel hits, cross-channel
	// fallbacks, no slot at all, and frees after a failed search.
	if queries < 20000 || fallbacks < 100 || misses < 100 || refrees < 100 {
		t.Fatalf("weak coverage: %d queries, %d cross-channel fallbacks, %d misses, %d frees after a failed search",
			queries, fallbacks, misses, refrees)
	}
	t.Logf("%d queries, %d cross-channel fallbacks, %d misses, %d frees after a failed search", queries, fallbacks, misses, refrees)
}
