package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pagetable"
	"repro/internal/trace"
	"repro/internal/vmem"
	"repro/internal/workload"
)

// TestWarpJitterRange pins the jitter distribution the golden results
// depend on: values span 0..4 (the doc used to claim 0..2 while the code
// produced 0..4; the code's behavior is the pinned one) and every value
// in the range occurs.
func TestWarpJitterRange(t *testing.T) {
	warpIdx := uint64(7) // same seeding shape as setupApps
	w := &warp{jitterState: warpIdx*0x9E3779B97F4A7C15 + 1}
	var seen [5]bool
	for i := 0; i < 1000; i++ {
		j := w.jitter()
		if j < 0 || j > 4 {
			t.Fatalf("jitter() = %d, want 0..4", j)
		}
		seen[j] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("jitter value %d never produced in 1000 draws", v)
		}
	}
}

// TestJitterIndependentOfPolicy checks the documented invariant that
// jitter depends only on the warp's identity, not the memory manager:
// warp jitter streams must be seeded identically under every policy so
// cross-policy comparisons stay instruction-identical.
func TestJitterIndependentOfPolicy(t *testing.T) {
	a := benchSim(t, core.GPUMMU4K)
	b := benchSim(t, core.Mosaic)
	if len(a.sms) != len(b.sms) {
		t.Fatalf("SM counts differ: %d vs %d", len(a.sms), len(b.sms))
	}
	for i := range a.sms {
		for j := range a.sms[i].warps {
			wa, wb := a.sms[i].warps[j], b.sms[i].warps[j]
			if wa.jitterState != wb.jitterState {
				t.Fatalf("SM %d warp %d jitter seeds differ across policies: %#x vs %#x",
					i, j, wa.jitterState, wb.jitterState)
			}
		}
	}
}

// TestDeallocFiresThroughFastForward is the regression test for the
// starved dealloc poll: the trigger used to key off s.cycle&0x1FFF == 0,
// which idle fast-forward could jump straight over — a paging-heavy run
// spends most wall-cycles fast-forwarding between DRAM/IO events, so the
// poll could be delayed long past the app's halfway point or skipped
// entirely. Driven from the event queue, a DeallocFraction > 0 run must
// always reach the dealloc (deallocDone on every app, with the EvFree in
// the trace).
func TestDeallocFiresThroughFastForward(t *testing.T) {
	spec, err := workload.ByName("CONS")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.FastTest()
	wl := workload.Workload{Name: "CONS", Apps: []workload.Spec{spec}}
	s, err := New(cfg, wl, Options{
		Policy: core.Mosaic, Seed: 9, DeallocFraction: 0.5, TraceLimit: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Apps[0].Completed {
		t.Fatal("app incomplete; cannot judge dealloc")
	}
	for _, app := range s.apps {
		if !app.deallocDone {
			t.Errorf("app %d never deallocated under DeallocFraction=0.5", app.asid)
		}
	}
	freed := false
	for _, ev := range r.Trace.Events() {
		if ev.Kind == trace.EvFree {
			freed = true
			break
		}
	}
	if !freed {
		t.Error("no EvFree in trace: dealloc poll never freed the scratch buffer")
	}
}

// TestMemAccessPathAllocFree guards the tentpole's allocation-free claim:
// a warm translate+data access (L1 TLB hit, L1 cache hit) must not
// allocate — the pooled request path reuses one memReq per lane.
func TestMemAccessPathAllocFree(t *testing.T) {
	s := benchSim(t, core.GPUMMU4K)
	m := s.sms[0]
	w := m.warps[0]
	w.outstanding = 1 << 30 // never completes the warp; isolates the access path
	va := m.app.buffers[0].va
	// Warm the TLBs, caches, and pools for va.
	s.memInstr(m, w, va)
	drain(s)
	if avg := testing.AllocsPerRun(200, func() {
		s.memInstr(m, w, va)
		drain(s)
	}); avg != 0 {
		t.Fatalf("warm memory access allocates %.1f objects/op, want 0", avg)
	}
}

// missRig is a warmed simulator with one lane address va, resident and
// translated, whose physical line is pa. Warp w never completes, so the
// guards below isolate the memory path.
type missRig struct {
	s    *Simulator
	m    *sm
	w    *warp
	va   vmem.VirtAddr
	pa   vmem.PhysAddr
	asid vmem.ASID
}

func newMissRig(t *testing.T, cfg config.Config) *missRig {
	t.Helper()
	spec, err := workload.ByName("CONS")
	if err != nil {
		t.Fatal(err)
	}
	cfg.IOBusEnabled = false
	wl := workload.Workload{Name: "CONS", Apps: []workload.Spec{spec}}
	s, err := New(cfg, wl, Options{Policy: core.GPUMMU4K, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := s.sms[0]
	r := &missRig{s: s, m: m, w: m.warps[0], va: m.app.buffers[0].va, asid: m.app.asid}
	r.w.outstanding = 1 << 30
	s.memInstr(m, r.w, r.va) // fault in and translate the page
	drain(s)
	tr, ok := s.mgr.Translate(r.asid, r.va)
	if !ok {
		t.Fatal("warm-up access left the page unmapped")
	}
	r.pa = tr.PhysOf(r.va)
	return r
}

// access runs one lane access for va to completion after dropping the
// data line from both caches, so it misses to DRAM.
func (r *missRig) access() {
	r.m.l1cache.Invalidate(r.pa)
	r.s.l2c.Invalidate(r.pa)
	r.s.memInstr(r.m, r.w, r.va)
	drain(r.s)
}

// flushTranslation drops va's entries from both TLB levels and its PTE
// lines from the page-walk cache, so the next access walks the page
// table and every walk read misses the PWC.
func (r *missRig) flushTranslation() {
	r.m.l1tlb.FlushBaseEntry(r.asid, r.va)
	r.m.l1tlb.FlushLargeEntry(r.asid, r.va)
	r.s.l2tlb.FlushBaseEntry(r.asid, r.va)
	r.s.l2tlb.FlushLargeEntry(r.asid, r.va)
	if r.s.pwc != nil {
		var buf [pagetable.Levels]vmem.PhysAddr
		for _, a := range r.s.mgr.WalkAddrs(buf[:0], r.asid, r.va) {
			r.s.pwc.Invalidate(a)
		}
	}
}

// TestCacheMissPathAllocFree guards the data miss path: an L1 TLB hit
// whose line misses the L1 and L2 caches, goes to DRAM and fills both
// levels must not allocate once the pools and queues are warm.
func TestCacheMissPathAllocFree(t *testing.T) {
	r := newMissRig(t, config.FastTest())
	for i := 0; i < 64; i++ { // grow the pools and queues
		r.access()
	}
	hits, dramAcc := r.s.l1Hit, r.s.mem.Stats().Accesses
	r.access()
	if r.s.l1Hit != hits+1 {
		t.Fatal("access missed the L1 TLB; the guard would not isolate the cache miss path")
	}
	if got := r.s.mem.Stats().Accesses; got != dramAcc+1 {
		t.Fatalf("access made %d DRAM accesses, want 1", got-dramAcc)
	}
	if avg := testing.AllocsPerRun(200, r.access); avg != 0 {
		t.Fatalf("L2 miss -> DRAM -> fill allocates %.1f objects/op, want 0", avg)
	}
}

// TestWalkPathAllocFree guards the translation miss path: an access that
// misses both TLB levels, walks all four page-table levels and fills the
// TLBs must not allocate once warm, with and without a page-walk cache.
func TestWalkPathAllocFree(t *testing.T) {
	pwcCfg := config.FastTest()
	pwcCfg.PageWalkCacheEntries = 64
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"l2", config.FastTest()},
		{"pwc", pwcCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMissRig(t, tc.cfg)
			walk := func() {
				r.flushTranslation()
				r.access()
			}
			for i := 0; i < 64; i++ {
				walk()
			}
			walks, reads := r.s.walker.Stats().Walks, r.s.walker.Stats().MemoryAccesses
			walk()
			if got := r.s.walker.Stats().Walks; got != walks+1 {
				t.Fatalf("access made %d walks, want 1", got-walks)
			}
			if got := r.s.walker.Stats().MemoryAccesses; got != reads+pagetable.Levels {
				t.Fatalf("walk made %d PTE reads, want %d", got-reads, pagetable.Levels)
			}
			if avg := testing.AllocsPerRun(200, walk); avg != 0 {
				t.Fatalf("TLB miss -> walk -> fill allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}
