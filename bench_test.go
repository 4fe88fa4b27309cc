// Benchmarks: one per table/figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// benchmark regenerates its experiment on a reduced (but shape-preserving)
// configuration and reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. The full-suite, full-fidelity versions run
// through cmd/mosaic-bench.
package mosaic_test

import (
	"fmt"
	"testing"

	mosaic "repro"
)

// benchConfig is a reduced evaluation configuration: Table-1 TLB geometry
// with smaller working sets and fewer warps, so each figure regenerates
// in benchmark time while preserving orderings.
func benchConfig() mosaic.Config {
	cfg := mosaic.EvalConfig()
	cfg.NumSMs = 12
	cfg.WarpsPerSM = 32
	cfg.WorkloadScale = 8
	cfg.MaxWarpInstructions = 128
	return cfg
}

func benchHarness() *mosaic.Harness {
	h := mosaic.NewQuickHarness(benchConfig())
	h.AppNames = []string{"CONS", "NW", "HISTO"}
	h.HetPerLevel = 3
	return h
}

func BenchmarkFig3PageSizeTranslation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig3()
		b.ReportMetric(r.Mean4K, "norm4K")
		b.ReportMetric(r.Mean2M, "norm2M")
	}
}

func BenchmarkFig4DemandPagingConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig4(1, 3)
		b.ReportMetric(r.Paging4K[len(r.Paging4K)-1], "norm4Kpaging")
		b.ReportMetric(r.Paging2M[len(r.Paging2M)-1], "norm2Mpaging")
	}
}

func BenchmarkMemoryBloat2MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.MemoryBloat2MB()
		b.ReportMetric(r.Mean2M, "bloat2M%")
		b.ReportMetric(r.MeanMosaic, "bloatMosaic%")
	}
}

func BenchmarkFig8HomogeneousSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig8(1, 2)
		b.ReportMetric(r.MosaicOverGPUMMUPct, "mosaicGain%")
		b.ReportMetric(r.MosaicUnderIdealPct, "underIdeal%")
	}
}

func BenchmarkFig9HeterogeneousSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig9(2)
		b.ReportMetric(r.MosaicOverGPUMMUPct, "mosaicGain%")
		b.ReportMetric(r.MosaicUnderIdealPct, "underIdeal%")
	}
}

func BenchmarkFig10SelectedPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig10([2]string{"HS", "CONS"}, [2]string{"NW", "HISTO"})
		b.ReportMetric(r.Mosaic[0], "wsHS-CONS")
		b.ReportMetric(r.Mosaic[1], "wsNW-HISTO")
	}
}

func BenchmarkFig11PerAppIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig11(h.Fig9(2))
		b.ReportMetric(r.ImprovedFrac*100, "improved%")
	}
}

func BenchmarkFig12PagingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig12()
		b.ReportMetric(r.MosaicPaging[0], "mosaicVsNoPaging")
	}
}

func BenchmarkFig13TLBHitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		r := h.Fig13(1, 2)
		b.ReportMetric(r.L1Mosaic[1]*100, "mosaicL1%")
		b.ReportMetric(r.L1GPUMMU[1]*100, "gpummuL1%")
	}
}

func BenchmarkFig14BaseEntrySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		h.AppNames = []string{"NW"}
		r := h.Fig14L1(2, 16, 128)
		b.ReportMetric(r.GPUMMU[1]-r.GPUMMU[0], "gpummuDelta")
		b.ReportMetric(r.Mosaic[1]-r.Mosaic[0], "mosaicDelta")
	}
}

func BenchmarkFig15LargeEntrySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		h.AppNames = []string{"NW"}
		r := h.Fig15L1(2, 4, 64)
		b.ReportMetric(r.Mosaic[1]-r.Mosaic[0], "mosaicDelta")
		b.ReportMetric(r.GPUMMU[1]-r.GPUMMU[0], "gpummuDelta")
	}
}

func BenchmarkFig16CACFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		h.AppNames = []string{"CONS"}
		r := h.Fig16a(0, 1.0)
		b.ReportMetric(r.Perf["CAC"][1], "cacAtFullFrag")
		b.ReportMetric(r.Perf["no CAC"][1], "noCacAtFullFrag")
	}
}

func BenchmarkTable2BloatVsOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		h.AppNames = []string{"CONS"}
		r := h.Table2(0.25, 0.75)
		b.ReportMetric(r.BloatPct[0], "bloatLowOcc%")
		b.ReportMetric(r.BloatPct[1], "bloatHighOcc%")
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

func runOnce(b *testing.B, cfg mosaic.Config, wl mosaic.Workload, policy mosaic.Policy, mut func(*mosaic.ManagerOptions)) mosaic.Results {
	b.Helper()
	r, err := mosaic.Run(cfg, wl, mosaic.SimOptions{Policy: policy, Seed: 11, MutateManager: mut})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchWorkload(b *testing.B, names ...string) mosaic.Workload {
	b.Helper()
	var apps []mosaic.AppSpec
	nm := ""
	for _, n := range names {
		s, err := mosaic.AppByName(n)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, s)
		nm += n + "."
	}
	return mosaic.Workload{Name: nm, Apps: apps}
}

// BenchmarkAblationCoalesceCost compares Mosaic's in-place (PTE-only)
// coalescing against the conventional migrate-then-coalesce design of
// Fig. 6a.
func BenchmarkAblationCoalesceCost(b *testing.B) {
	cfg := benchConfig()
	cfg.IOBusEnabled = false
	wl := benchWorkload(b, "NW", "NW")
	for i := 0; i < b.N; i++ {
		inPlace := runOnce(b, cfg, wl, mosaic.Mosaic, nil)
		migrate := runOnce(b, cfg, wl, mosaic.Mosaic, func(o *mosaic.ManagerOptions) {
			o.Coalesce = mosaic.CoalesceMigrate
		})
		b.ReportMetric(float64(migrate.Cycles)/float64(inPlace.Cycles), "migrateSlowdown")
		b.ReportMetric(float64(migrate.Manager.MigratedPages), "migratedPages")
	}
}

// BenchmarkAblationSoftGuarantee shows coalescing opportunity collapsing
// when CoCoA's single-application-per-frame guarantee is dropped (the
// baseline allocator mixes applications inside large frames).
func BenchmarkAblationSoftGuarantee(b *testing.B) {
	cfg := benchConfig()
	cfg.IOBusEnabled = false
	wl := benchWorkload(b, "NW", "HISTO")
	for i := 0; i < b.N; i++ {
		with := runOnce(b, cfg, wl, mosaic.Mosaic, nil)
		without := runOnce(b, cfg, wl, mosaic.Mosaic, func(o *mosaic.ManagerOptions) {
			o.Allocator = mosaic.AllocBaseline // interleaves applications
		})
		b.ReportMetric(float64(with.Manager.Coalesces), "coalescesWith")
		b.ReportMetric(float64(without.Manager.Coalesces), "coalescesWithout")
	}
}

// BenchmarkAblationFlushOnCoalesce quantifies the paper's flush-free
// coalescing transition (§4.3) against a forced full TLB flush.
func BenchmarkAblationFlushOnCoalesce(b *testing.B) {
	cfg := benchConfig()
	cfg.IOBusEnabled = false
	wl := benchWorkload(b, "NW", "NW")
	for i := 0; i < b.N; i++ {
		noFlush := runOnce(b, cfg, wl, mosaic.Mosaic, nil)
		flush := runOnce(b, cfg, wl, mosaic.Mosaic, func(o *mosaic.ManagerOptions) {
			o.FlushOnCoalesce = true
		})
		b.ReportMetric(float64(flush.Cycles)/float64(noFlush.Cycles), "flushSlowdown")
	}
}

// BenchmarkAblationCACThreshold sweeps the occupancy threshold below
// which CAC splinters and compacts a shrunken coalesced frame.
func BenchmarkAblationCACThreshold(b *testing.B) {
	cfg := benchConfig()
	wl := benchWorkload(b, "CONS")
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.25, 0.5, 0.75} {
			th := th
			r, err := mosaic.Run(cfg, wl, mosaic.SimOptions{
				Policy: mosaic.Mosaic, Seed: 11, DeallocFraction: 0.6,
				MutateManager: func(o *mosaic.ManagerOptions) { o.CACThreshold = th },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.Manager.Compactions), fmt.Sprintf("compactions@%.0f%%", th*100))
		}
	}
}

// BenchmarkAblationWalkerConcurrency sweeps the shared walker's slot
// count (the paper uses 64).
func BenchmarkAblationWalkerConcurrency(b *testing.B) {
	wl := benchWorkload(b, "NW", "NW")
	for i := 0; i < b.N; i++ {
		var base float64
		for _, slots := range []int{8, 64} {
			cfg := benchConfig()
			cfg.IOBusEnabled = false
			cfg.WalkerConcurrency = slots
			r := runOnce(b, cfg, wl, mosaic.GPUMMU4K, nil)
			if slots == 8 {
				base = r.TotalIPC()
			} else if base > 0 {
				b.ReportMetric(r.TotalIPC()/base, "ipc64slotsVs8")
			}
		}
	}
}

// BenchmarkAblationPageWalkCache compares the paper's shared-L2-TLB
// baseline against adding Power et al.'s dedicated page-walk cache in
// front of the walker (§3.1 discusses this design trade-off).
func BenchmarkAblationPageWalkCache(b *testing.B) {
	wl := benchWorkload(b, "NW", "NW")
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.IOBusEnabled = false
		noCache := runOnce(b, cfg, wl, mosaic.GPUMMU4K, nil)
		cfg2 := cfg
		cfg2.PageWalkCacheEntries = 64
		cached := runOnce(b, cfg2, wl, mosaic.GPUMMU4K, nil)
		b.ReportMetric(cached.TotalIPC()/noCache.TotalIPC(), "walkCacheGain")
		b.ReportMetric(cached.PageWalkCache.HitRate()*100, "pwcHit%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles
// simulated per wall-second) — useful when tuning the engine itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchConfig()
	wl := benchWorkload(b, "CONS")
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := runOnce(b, cfg, wl, mosaic.Mosaic, nil)
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// ---- Sim-core microbenchmarks ----
//
// The BenchmarkSimCore* family isolates the simulated-cycle hot paths:
// the per-cycle warp issue loop, the TLB/cache translate+data path, and
// demand-paging event-queue churn. They are for measuring while working
// on one path; measured end-to-end and per-layer numbers come from the
// repository benchmark, perfbench/ (`bash perfbench/run.sh --workload W
// --steady N --against DIR` for an interleaved before/after on one host).
// The pure event-queue micro lives in internal/event
// (BenchmarkSimCoreEventQueue*) and the allocation-counting access-path
// micro in internal/sim (BenchmarkSimCoreMemAccess).

// BenchmarkSimCoreIssueLoop stresses the warp scheduler: the ideal TLB
// bypasses translation and demand paging is off, so nearly all time goes
// to the per-cycle issue/wake machinery.
func BenchmarkSimCoreIssueLoop(b *testing.B) {
	cfg := benchConfig()
	cfg.IOBusEnabled = false
	wl := benchWorkload(b, "CONS")
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := runOnce(b, cfg, wl, mosaic.IdealTLB, nil)
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkSimCoreTranslate stresses the translation path: a strided,
// TLB-hostile application under the 4KB baseline drives L1/L2 TLB
// lookups, port gates, and page walks with demand paging off.
func BenchmarkSimCoreTranslate(b *testing.B) {
	cfg := benchConfig()
	cfg.IOBusEnabled = false
	wl := benchWorkload(b, "NW")
	b.ResetTimer()
	var walks uint64
	for i := 0; i < b.N; i++ {
		r := runOnce(b, cfg, wl, mosaic.GPUMMU4K, nil)
		walks += r.Walker.Walks
	}
	b.ReportMetric(float64(walks)/float64(b.N), "walks/run")
}

// BenchmarkSimCorePaging stresses event-queue churn at the system level:
// demand paging floods the future-event queue with transfer completions
// and far-fault wakeups.
func BenchmarkSimCorePaging(b *testing.B) {
	cfg := benchConfig()
	wl := benchWorkload(b, "HS", "CONS")
	b.ResetTimer()
	var transfers uint64
	for i := 0; i < b.N; i++ {
		r := runOnce(b, cfg, wl, mosaic.Mosaic, nil)
		transfers += r.Bus.TotalTransfers()
	}
	b.ReportMetric(float64(transfers)/float64(b.N), "transfers/run")
}
