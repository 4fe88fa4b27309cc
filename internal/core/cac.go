package core

import (
	"repro/internal/alloc"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// splinterAndCompact implements CAC's main path (§4.4): the coalesced
// region at regionVA has dropped below the occupancy threshold, so it is
// splintered and its surviving base pages are migrated into other
// (uncoalesced) large frames of the same application, freeing the source
// frame for CoCoA.
//
// Migration respects the paper's channel restriction: pages move within
// their DRAM channel when possible; CAC-BC then uses the in-DRAM bulk
// copy, the baseline CAC a narrow 64-bit copy. Following the evaluation
// methodology (§5), the GPU is stalled conservatively until the last copy
// completes (except under Ideal CAC).
func (s *System) splinterAndCompact(now uint64, a *appState, asid vmem.ASID, regionVA vmem.VirtAddr, frameIdx int) {
	// Plan destinations for every surviving page before mutating
	// anything; if the application has nowhere to put them, fall back to
	// a plain splinter that at least unlocks the free slots.
	mappings := a.table.RegionMappings(regionVA)
	type move struct {
		slot int // source slot == region page index
		src  vmem.PhysAddr
		dst  alloc.PageRef
	}
	var moves []move
	taken := make(map[alloc.PageRef]bool)
	for i := range mappings {
		if !mappings[i].Valid {
			continue
		}
		dst, ok := s.findCompactionDst(asid, frameIdx, mappings[i].Frame, taken)
		if !ok {
			s.splinterRegion(now, a, asid, regionVA, frameIdx)
			s.releaseFreeSlots(asid, frameIdx)
			return
		}
		taken[dst] = true
		moves = append(moves, move{slot: i, src: mappings[i].Frame, dst: dst})
	}

	s.splinterRegion(now, a, asid, regionVA, frameIdx)

	last := now
	for _, mv := range moves {
		va := regionVA + vmem.VirtAddr(mv.slot*vmem.BasePageSize)
		dstPA := s.pool.Addr(mv.dst)
		if err := s.pool.AllocSlot(mv.dst, asid, false); err != nil {
			continue
		}
		srcRef, _ := s.pool.RefOf(mv.src)
		if err := s.pool.FreeSlot(srcRef); err != nil {
			continue
		}
		if err := a.table.Remap(va, dstPA); err != nil {
			continue
		}
		a.pagesPerFrame[srcRef.Frame]--
		if a.pagesPerFrame[srcRef.Frame] == 0 {
			delete(a.pagesPerFrame, srcRef.Frame)
		}
		a.pagesPerFrame[mv.dst.Frame]++
		s.flushBaseEntry(asid, va)
		s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvMigration, ASID: asid, VA: va, Size: vmem.BasePageSize})
		last = s.migratePage(now, last, mv.src, dstPA)
	}
	s.endCompaction(last)
	s.trace.Record(trace.Event{Cycle: now, Kind: trace.EvCompaction, ASID: asid, VA: regionVA})

	if s.pool.Frame(frameIdx).Count == 0 {
		s.mustReturnFrame(frameIdx)
	}
}

// compactFragmented consolidates fragmented frames that hold stress data
// (§6.4): it picks the least-occupied fragmented frame, migrates its base
// pages into free slots of other fragmented frames (same-channel moves
// preferred so CAC-BC can bulk-copy), and returns the emptied frame to
// CoCoA. It reports whether a frame was recovered.
func (s *System) compactFragmented(now uint64) bool {
	if s.cocoa == nil {
		return false
	}
	// Pick the source: fragmented frame with the fewest allocated pages.
	src := -1
	for fi := 0; fi < s.pool.NumFrames(); fi++ {
		f := s.pool.Frame(fi)
		if !f.PreFrag || f.Count == 0 {
			continue
		}
		if src == -1 || f.Count < s.pool.Frame(src).Count {
			src = fi
		}
	}
	if src == -1 {
		return false
	}
	// Check capacity in the other fragmented frames.
	need := s.pool.Frame(src).Count
	capacity := 0
	for fi := 0; fi < s.pool.NumFrames(); fi++ {
		f := s.pool.Frame(fi)
		if fi == src || !f.PreFrag {
			continue
		}
		capacity += vmem.BasePagesPerLarge - f.Count
	}
	if capacity < need {
		return false
	}

	last := now
	for slot := 0; slot < vmem.BasePagesPerLarge && s.pool.Frame(src).Count > 0; slot++ {
		if !s.pool.Frame(src).Allocated(slot) {
			continue
		}
		srcRef := alloc.PageRef{Frame: src, Slot: slot}
		srcPA := s.pool.Addr(srcRef)
		dst, ok := s.findFragDst(src, srcPA)
		if !ok {
			return false // capacity raced away; shouldn't happen single-threaded
		}
		if err := s.pool.AllocSlot(dst, alloc.FragOwner, false); err != nil {
			return false
		}
		if err := s.pool.FreeSlot(srcRef); err != nil {
			return false
		}
		last = s.migratePage(now, last, srcPA, s.pool.Addr(dst))
	}
	s.endCompaction(last)
	s.mustReturnFrame(src)
	return true
}

// migratePage copies one compacted page's data from src to dst at cycle
// now, counts it, and returns the later of last and the copy's
// completion cycle.
func (s *System) migratePage(now, last uint64, src, dst vmem.PhysAddr) uint64 {
	s.stats.MigratedPages++
	fin, bulk := s.copyPage(now, src, dst)
	if bulk {
		s.stats.BulkCopies++
	}
	return max(last, fin)
}

// copyPage performs one base-page copy under the configured CAC variant
// and reports its completion cycle and whether it was an in-DRAM bulk
// copy. Ideal CAC moves nothing; CAC-BC bulk-copies (RowClone/LISA)
// within a channel and copies narrow across channels; CAC copies narrow.
func (s *System) copyPage(now uint64, src, dst vmem.PhysAddr) (fin uint64, bulk bool) {
	switch s.opt.CAC {
	case CACIdeal:
		return now, false
	case CACBulkCopy:
		if fin, err := s.mem.CopyPageBulk(now, src, dst, nil); err == nil {
			return fin, true
		}
	}
	return s.mem.CopyPageNarrow(now, src, dst, nil), false
}

// endCompaction closes one compaction whose last copy completes at cycle
// last: every CAC variant but Ideal CAC stalls the GPU until then (the
// paper's conservative §5 model).
func (s *System) endCompaction(last uint64) {
	if s.opt.CAC != CACIdeal {
		s.stall(last)
	}
	s.stats.Compactions++
}

// findFragDst locates a free slot in another fragmented frame, preferring
// the source page's DRAM channel.
func (s *System) findFragDst(excludeFrame int, src vmem.PhysAddr) (alloc.PageRef, bool) {
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

// findCompactionDst picks a free slot for a migrated page: a frame owned
// by the same application, not the source frame, not currently backing a
// coalesced region, preferring a slot in the same DRAM channel as the
// source page (so CAC-BC can bulk-copy). taken excludes slots already
// promised to earlier pages of the same compaction.
func (s *System) findCompactionDst(asid vmem.ASID, excludeFrame int, src vmem.PhysAddr, taken map[alloc.PageRef]bool) (alloc.PageRef, bool) {
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
