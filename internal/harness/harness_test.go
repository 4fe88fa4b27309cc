package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
)

// tiny returns a harness small enough for unit tests: FastTest hardware,
// three applications covering the pattern classes, and two heterogeneous
// mixes per level.
func tiny(t *testing.T) *Harness {
	t.Helper()
	cfg := config.FastTest()
	cfg.WorkloadScale = 24 // multi-region working sets (2MB paging hurts)
	cfg.WarpsPerSM = 24    // enough TLP to hide 4KB faults
	cfg.MaxWarpInstructions = 96
	h := New(cfg)
	h.AppNames = []string{"CONS", "NW", "HISTO"}
	h.HetPerLevel = 2
	return h
}

func TestFig3Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig3()
	if len(r.Apps) != 3 || len(r.Norm4K) != 3 || len(r.Norm2M) != 3 {
		t.Fatalf("result shape: %+v", r)
	}
	for i, app := range r.Apps {
		if r.Norm4K[i] <= 0 || r.Norm4K[i] > 1.1 {
			t.Errorf("%s: 4KB normalized perf %.3f outside (0, 1.1]", app, r.Norm4K[i])
		}
		if r.Norm2M[i] <= 0 || r.Norm2M[i] > 1.1 {
			t.Errorf("%s: 2MB normalized perf %.3f outside (0, 1.1]", app, r.Norm2M[i])
		}
	}
	// Paper shape: 2MB pages recover most of the ideal-TLB gap.
	if r.Mean2M < r.Mean4K {
		t.Errorf("2MB mean %.3f below 4KB mean %.3f; large pages should help", r.Mean2M, r.Mean4K)
	}
	var b strings.Builder
	if err := r.Table.Render(&b); err != nil || !strings.Contains(b.String(), "MEAN") {
		t.Errorf("table render failed: %v\n%s", err, b.String())
	}
}

func TestFig4Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig4(1, 3)
	if len(r.Paging4K) != 2 || len(r.Paging2M) != 2 {
		t.Fatalf("result shape: %+v", r)
	}
	// Paging always costs something.
	for i := range r.Paging4K {
		if r.Paging4K[i] > 1.05 || r.Paging2M[i] > 1.05 {
			t.Errorf("level %d: paging faster than no paging (%.3f / %.3f)",
				r.Levels[i], r.Paging4K[i], r.Paging2M[i])
		}
	}
	// Paper shape: at higher concurrency, 2MB paging collapses relative
	// to 4KB paging (bus contention on 2MB occupancies).
	last := len(r.Levels) - 1
	if r.Paging2M[last] >= r.Paging4K[last] {
		t.Errorf("at %d apps, 2MB paging (%.3f) should be worse than 4KB (%.3f)",
			r.Levels[last], r.Paging2M[last], r.Paging4K[last])
	}
}

func TestMemoryBloatShape(t *testing.T) {
	h := tiny(t)
	// Bloat needs uneven buffer sizes; scale so working sets stay
	// multi-buffer (>= 8MB scaled).
	h.Cfg.WorkloadScale = 8
	r := h.MemoryBloat2MB()
	if r.Mean2M <= r.MeanMosaic {
		t.Errorf("2MB bloat %.1f%% should exceed Mosaic bloat %.1f%%", r.Mean2M, r.MeanMosaic)
	}
	if r.Mean2M <= 0 {
		t.Errorf("2MB-only management should bloat memory, got %.2f%%", r.Mean2M)
	}
	if r.Max2M < r.Mean2M {
		t.Errorf("max %.1f%% below mean %.1f%%", r.Max2M, r.Mean2M)
	}
}

func TestFig8Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig8(1, 2)
	if len(r.GPUMMU) != 2 || len(r.Mosaic) != 2 || len(r.Ideal) != 2 {
		t.Fatalf("result shape: %+v", r)
	}
	for i := range r.Levels {
		if r.GPUMMU[i] <= 0 || r.Mosaic[i] <= 0 || r.Ideal[i] <= 0 {
			t.Errorf("level %d: non-positive weighted speedup", r.Levels[i])
		}
		// Weighted speedup of n apps is bounded by ~n (plus small wiggle
		// because alone runs use the baseline manager).
		if r.Ideal[i] > float64(r.Levels[i])*1.6 {
			t.Errorf("level %d: ideal WS %.2f implausibly high", r.Levels[i], r.Ideal[i])
		}
		// The ideal TLB bounds both real managers from above (tolerance
		// for timing noise at tiny scale).
		if r.Mosaic[i] > r.Ideal[i]*1.05 {
			t.Errorf("level %d: Mosaic %.3f above ideal %.3f", r.Levels[i], r.Mosaic[i], r.Ideal[i])
		}
	}
	if len(r.Workloads) != 6 { // 3 apps x 2 levels
		t.Errorf("%d workload details, want 6", len(r.Workloads))
	}
}

func TestFig9AndFig11(t *testing.T) {
	h := tiny(t)
	r9 := h.Fig9(2)
	if len(r9.GPUMMU) != 1 {
		t.Fatalf("fig9 shape: %+v", r9)
	}
	if len(r9.Workloads) != h.HetPerLevel {
		t.Errorf("%d workloads, want %d", len(r9.Workloads), h.HetPerLevel)
	}
	r11 := h.Fig11(r9)
	xs := r11.SortedMosaic[2]
	if len(xs) != 2*h.HetPerLevel {
		t.Fatalf("fig11 has %d app points, want %d", len(xs), 2*h.HetPerLevel)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Error("fig11 points not sorted")
		}
	}
	if r11.ImprovedFrac < 0 || r11.ImprovedFrac > 1 {
		t.Errorf("ImprovedFrac = %f", r11.ImprovedFrac)
	}
}

func TestFig10Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig10([2]string{"HS", "CONS"}, [2]string{"NW", "HISTO"}, [2]string{"CONS", "SC"})
	if len(r.Pairs) != 3 {
		t.Fatalf("%d pairs", len(r.Pairs))
	}
	if !r.Sensitive[0] || !r.Sensitive[1] {
		t.Error("HS-CONS and NW-HISTO should be TLB-sensitive")
	}
	if r.Sensitive[2] {
		t.Error("CONS-SC should be TLB-friendly (SC's hot set is small)")
	}
}

func TestFig12Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig12()
	if len(r.Classes) != 2 {
		t.Fatalf("classes: %v", r.Classes)
	}
	for i, class := range r.Classes {
		if r.GPUMMUPaging[i] <= 0 || r.MosaicPaging[i] <= 0 {
			t.Errorf("%s: non-positive normalized speedup", class)
		}
		// Paper shape: Mosaic with paging beats GPU-MMU with paging.
		if r.MosaicPaging[i] <= r.GPUMMUPaging[i]*0.95 {
			t.Errorf("%s: Mosaic paging %.3f should be at least GPU-MMU paging %.3f",
				class, r.MosaicPaging[i], r.GPUMMUPaging[i])
		}
	}
}

func TestFig13Shape(t *testing.T) {
	h := tiny(t)
	r := h.Fig13(1, 2)
	for i := range r.Levels {
		for _, v := range []float64{r.L1GPUMMU[i], r.L2GPUMMU[i], r.L1Mosaic[i], r.L2Mosaic[i]} {
			if v < 0 || v > 1 {
				t.Errorf("hit rate %f outside [0,1]", v)
			}
		}
		// Mosaic's large pages must not lower the L1 hit rate.
		if r.L1Mosaic[i] < r.L1GPUMMU[i]-0.02 {
			t.Errorf("level %d: Mosaic L1 %.3f below GPU-MMU %.3f",
				r.Levels[i], r.L1Mosaic[i], r.L1GPUMMU[i])
		}
	}
}

func TestFig14Fig15Shape(t *testing.T) {
	h := tiny(t)
	h.AppNames = []string{"NW"} // one TLB-sensitive app keeps this fast
	r := h.Fig14L1(2, 16, 128)
	if len(r.GPUMMU) != 2 || len(r.Mosaic) != 2 {
		t.Fatalf("sweep shape: %+v", r)
	}
	// Paper shape: GPU-MMU is sensitive to L1 base entries; Mosaic is not.
	gpuDelta := r.GPUMMU[1] - r.GPUMMU[0]
	mosDelta := r.Mosaic[1] - r.Mosaic[0]
	if mosDelta > gpuDelta+0.05 {
		t.Errorf("Mosaic more sensitive (+%.3f) to L1 base entries than GPU-MMU (+%.3f)", mosDelta, gpuDelta)
	}

	r15 := h.Fig15L2(2, 32, 512)
	if len(r15.Mosaic) != 2 {
		t.Fatalf("fig15 shape: %+v", r15)
	}
	// GPU-MMU never uses large entries: sweep must not change it much.
	if d := r15.GPUMMU[1] - r15.GPUMMU[0]; d > 0.1 || d < -0.1 {
		t.Errorf("GPU-MMU sensitive to large entries (%.3f delta)", d)
	}
}

func TestFig16AndTable2(t *testing.T) {
	h := tiny(t)
	h.AppNames = []string{"CONS"}
	r := h.Fig16a(0, 1.0)
	for _, mode := range []string{"no CAC", "CAC", "CAC-BC", "Ideal CAC"} {
		if len(r.Perf[mode]) != 2 {
			t.Fatalf("mode %s has %d points", mode, len(r.Perf[mode]))
		}
		for _, v := range r.Perf[mode] {
			if v <= 0 {
				t.Errorf("%s: non-positive performance", mode)
			}
		}
	}
	// At 100% fragmentation, CAC should not be slower than no-CAC, and
	// Ideal CAC bounds the real variants from above.
	if r.Perf["Ideal CAC"][1] < r.Perf["CAC"][1]*0.95 {
		t.Errorf("ideal CAC %.3f below real CAC %.3f", r.Perf["Ideal CAC"][1], r.Perf["CAC"][1])
	}

	t2 := h.Table2(0.25, 0.75)
	if len(t2.BloatPct) != 2 {
		t.Fatalf("table2 shape: %+v", t2)
	}
	for _, b := range t2.BloatPct {
		if b < 0 {
			t.Errorf("negative bloat %f", b)
		}
	}
}

// TestAloneIPCCaching: an alone run shared by several weighted speedups
// is simulated once, and a repeated plan simulates nothing.
func TestAloneIPCCaching(t *testing.T) {
	h := tiny(t)
	var progress strings.Builder
	h.Progress = &progress
	wl := h.homogeneous(1)[0]
	var p plan
	p.addWS(h.cell(wl, h.Cfg, core.GPUMMU4K), h.Cfg)
	p.addWS(h.cell(wl, h.Cfg, core.Mosaic), h.Cfg)
	_, ws1 := h.execute(p)
	_, ws2 := h.execute(p)
	if !slices.Equal(ws1, ws2) {
		t.Errorf("weighted speedups changed on a memo hit: %v vs %v", ws1, ws2)
	}
	if n := strings.Count(progress.String(), "ran "); n != 3 {
		t.Errorf("simulated %d cells, want 3 (two shared, one alone):\n%s", n, progress.String())
	}
	if n := strings.Count(progress.String(), "alone-"); n != 1 {
		t.Errorf("alone run simulated %d times, want 1", n)
	}
	if len(h.memo) != 3 {
		t.Errorf("memo has %d entries, want 3", len(h.memo))
	}
}

// TestRepeatedFigureServedFromMemo: a second collected figure over the
// same experiment simulates nothing, and its report equals the first
// one's without the alone records (those stay with the figure that
// simulated them).
func TestRepeatedFigureServedFromMemo(t *testing.T) {
	h := tiny(t)
	var progress strings.Builder
	h.Progress = &progress
	body := func() metrics.Table { return h.Fig8(1, 2).Table }
	first := h.CollectFigure("fig8", body)
	ran := strings.Count(progress.String(), "ran ")
	second := h.CollectFigure("fig8", body)
	if n := strings.Count(progress.String(), "ran ") - ran; n != 0 {
		t.Errorf("repeated figure simulated %d cells, want 0", n)
	}
	var shared []metrics.RunRecord
	for _, r := range first.Runs {
		if !strings.HasPrefix(r.Workload, "alone-") {
			shared = append(shared, r)
		}
	}
	if len(shared) == len(first.Runs) {
		t.Fatal("first figure recorded no alone runs")
	}
	first.Runs = shared
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated figure differs beyond its alone records:\n%+v\n%+v", first, second)
	}
}

func TestRestrictedHeterogeneousBuilder(t *testing.T) {
	h := tiny(t)
	ws := h.heterogeneous(2)
	if len(ws) != h.HetPerLevel {
		t.Fatalf("%d workloads, want %d", len(ws), h.HetPerLevel)
	}
	for _, w := range ws {
		if len(w.Apps) != 2 {
			t.Errorf("%s has %d apps", w.Name, len(w.Apps))
		}
		for _, a := range w.Apps {
			found := false
			for _, n := range h.AppNames {
				if a.Name == n {
					found = true
				}
			}
			if !found {
				t.Errorf("%s uses %s, outside the restricted suite", w.Name, a.Name)
			}
		}
	}
	// Deterministic.
	ws2 := tiny(t).heterogeneous(2)
	for i := range ws {
		if ws[i].Name != ws2[i].Name {
			t.Fatal("restricted heterogeneous builder not deterministic")
		}
	}
	// Level capped at suite size.
	big := h.heterogeneous(10)
	for _, w := range big {
		if len(w.Apps) > len(h.AppNames) {
			t.Errorf("workload %s larger than suite", w.Name)
		}
	}
}

func TestUnrestrictedSuiteIsFull(t *testing.T) {
	h := New(config.FastTest())
	if len(h.suite()) != 27 {
		t.Errorf("unrestricted suite has %d apps", len(h.suite()))
	}
	if len(h.heterogeneous(3)[0].Apps) != 3 {
		t.Error("unrestricted heterogeneous workload malformed")
	}
}
