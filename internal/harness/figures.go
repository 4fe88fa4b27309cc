package harness

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Every experiment below follows the same shape: plan every simulation
// up front, run the plan with execute, then reduce the results in plan
// order. All cross-run arithmetic happens in the reduction, which is
// what keeps the output byte-identical for any worker count.

// ---------------------------------------------------------------- Fig. 3

// Fig3Result reproduces Figure 3: single-application performance of the
// GPU-MMU with 4KB pages and with 2MB pages, both without demand-paging
// overhead, normalized to an ideal TLB.
type Fig3Result struct {
	Apps           []string
	Norm4K, Norm2M []float64
	Mean4K, Mean2M float64
	Table          metrics.Table
}

// Fig3 regenerates Figure 3.
func (h *Harness) Fig3() Fig3Result {
	suite := h.suite()
	var p plan
	for _, spec := range suite {
		for _, pol := range []core.Policy{core.IdealTLB, core.GPUMMU4K, core.GPUMMU2M} {
			p.add(h.cell(single(spec.Name, spec), noPaging(h.Cfg), pol))
		}
	}
	runs, _ := h.execute(p)

	res := Fig3Result{Table: metrics.Table{
		Title:   "Fig. 3: GPU-MMU 4KB vs 2MB, no demand paging, normalized to Ideal TLB",
		Columns: []string{"app", "4KB/ideal", "2MB/ideal"},
	}}
	for i, spec := range suite {
		ideal := runs[3*i].TotalIPC()
		n4, n2 := runs[3*i+1].TotalIPC()/ideal, runs[3*i+2].TotalIPC()/ideal
		res.Apps = append(res.Apps, spec.Name)
		res.Norm4K = append(res.Norm4K, n4)
		res.Norm2M = append(res.Norm2M, n2)
		res.Table.AddRowF(spec.Name, n4, n2)
	}
	res.Mean4K = metrics.Mean(res.Norm4K)
	res.Mean2M = metrics.Mean(res.Norm2M)
	res.Table.AddRowF("MEAN", res.Mean4K, res.Mean2M)
	return res
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Result reproduces Figure 4: the demand-paging cost of 4KB vs 2MB
// pages as concurrency grows, normalized to 4KB with no paging overhead.
type Fig4Result struct {
	Levels             []int
	Paging4K, Paging2M []float64 // mean normalized performance per level
	Table              metrics.Table
}

// Fig4 regenerates Figure 4 for the given concurrency levels (paper: 1-5).
func (h *Harness) Fig4(levels ...int) Fig4Result {
	if len(levels) == 0 {
		levels = []int{1, 2, 3, 4, 5}
	}
	byLevel := make([][]workload.Workload, len(levels))
	var p plan
	for li, n := range levels {
		byLevel[li] = h.homogeneous(n)
		for _, wl := range byLevel[li] {
			p.add(h.cell(wl, noPaging(h.Cfg), core.GPUMMU4K))
			p.add(h.cell(wl, h.Cfg, core.GPUMMU4K))
			p.add(h.cell(wl, h.Cfg, core.GPUMMU2M))
		}
	}
	runs, _ := h.execute(p)

	res := Fig4Result{Levels: levels, Table: metrics.Table{
		Title:   "Fig. 4: demand paging impact vs concurrency (normalized to 4KB, no paging)",
		Columns: []string{"apps", "4KB no-paging", "4KB paging", "2MB paging"},
	}}
	for li, n := range levels {
		var p4, p2 []float64
		for range byLevel[li] {
			base := runs[0].TotalIPC()
			p4 = append(p4, runs[1].TotalIPC()/base)
			p2 = append(p2, runs[2].TotalIPC()/base)
			runs = runs[3:]
		}
		m4, m2 := metrics.Mean(p4), metrics.Mean(p2)
		res.Paging4K = append(res.Paging4K, m4)
		res.Paging2M = append(res.Paging2M, m2)
		res.Table.AddRowF(fmt.Sprintf("%d", n), 1, m4, m2)
	}
	return res
}

// ------------------------------------------------------- §3.2 memory bloat

// BloatResult reproduces the §3.2 memory-bloat study: physical memory
// inflation when managing memory exclusively with 2MB pages, with
// Mosaic's bloat for contrast.
type BloatResult struct {
	Apps              []string
	Bloat2M, BloatMos []float64
	Mean2M, Max2M     float64
	MeanMosaic        float64
	Table             metrics.Table
}

// MemoryBloat2MB regenerates the §3.2 bloat numbers.
func (h *Harness) MemoryBloat2MB() BloatResult {
	suite := h.suite()
	var p plan
	for _, spec := range suite {
		p.add(h.cell(single(spec.Name, spec), noPaging(h.Cfg), core.GPUMMU2M))
		p.add(h.cell(single(spec.Name, spec), noPaging(h.Cfg), core.Mosaic))
	}
	runs, _ := h.execute(p)

	res := BloatResult{Table: metrics.Table{
		Title:   "§3.2: memory bloat of 2MB-only management (and Mosaic) vs 4KB needs",
		Columns: []string{"app", "2MB bloat %", "Mosaic bloat %"},
	}}
	for i, spec := range suite {
		b2, bm := runs[2*i].Apps[0].BloatPct, runs[2*i+1].Apps[0].BloatPct
		res.Apps = append(res.Apps, spec.Name)
		res.Bloat2M = append(res.Bloat2M, b2)
		res.BloatMos = append(res.BloatMos, bm)
		if b2 > res.Max2M {
			res.Max2M = b2
		}
		res.Table.AddRowF(spec.Name, b2, bm)
	}
	res.Mean2M = metrics.Mean(res.Bloat2M)
	res.MeanMosaic = metrics.Mean(res.BloatMos)
	res.Table.AddRowF("MEAN", res.Mean2M, res.MeanMosaic)
	return res
}

// ------------------------------------------------------------ Figs. 8 & 9

// SpeedupResult holds a weighted-speedup comparison across concurrency
// levels (Figures 8 and 9).
type SpeedupResult struct {
	Levels                []int
	GPUMMU, Mosaic, Ideal []float64 // mean weighted speedup per level
	// Per-workload details, for Fig. 10/11-style analyses.
	Workloads []WorkloadDetail
	// MosaicOverGPUMMUPct is the mean improvement of Mosaic over GPU-MMU
	// across every workload; MosaicUnderIdealPct the mean shortfall
	// against the ideal TLB.
	MosaicOverGPUMMUPct float64
	MosaicUnderIdealPct float64
	Table               metrics.Table
}

// WorkloadDetail is one workload's outcome under the three managers.
type WorkloadDetail struct {
	Name                  string
	Level                 int
	GPUMMU, Mosaic, Ideal float64 // weighted speedups
	// Per-app IPCs for Fig. 11.
	AppIPCsGPUMMU, AppIPCsMosaic, AppIPCsIdeal []float64
	TLBSensitive                               bool
}

// speedupPolicies are the three managers of every weighted-speedup
// comparison, in reduction order.
var speedupPolicies = []core.Policy{core.GPUMMU4K, core.Mosaic, core.IdealTLB}

// planSpeedups adds one weighted-speedup cell per speedupPolicies entry
// for each workload.
func (h *Harness) planSpeedups(p *plan, wls []workload.Workload) {
	for _, wl := range wls {
		for _, pol := range speedupPolicies {
			p.addWS(h.cell(wl, h.Cfg, pol), h.Cfg)
		}
	}
}

func (h *Harness) speedupStudy(title string, workloadsByLevel map[int][]workload.Workload, levels []int) SpeedupResult {
	var p plan
	for _, n := range levels {
		h.planSpeedups(&p, workloadsByLevel[n])
	}
	runs, ws := h.execute(p)

	res := SpeedupResult{Levels: levels, Table: metrics.Table{
		Title:   title,
		Columns: []string{"apps", "GPU-MMU", "Mosaic", "Ideal-TLB"},
	}}
	var improvements, shortfalls []float64
	for _, n := range levels {
		var g, m, ideal []float64
		for _, wl := range workloadsByLevel[n] {
			rg, rm, ri := runs[0], runs[1], runs[2]
			d := WorkloadDetail{Name: wl.Name, Level: n, GPUMMU: ws[0], Mosaic: ws[1], Ideal: ws[2]}
			runs, ws = runs[3:], ws[3:]
			for k := range rg.Apps {
				d.AppIPCsGPUMMU = append(d.AppIPCsGPUMMU, rg.Apps[k].IPC)
				d.AppIPCsMosaic = append(d.AppIPCsMosaic, rm.Apps[k].IPC)
				d.AppIPCsIdeal = append(d.AppIPCsIdeal, ri.Apps[k].IPC)
			}
			for _, a := range wl.Apps {
				if a.TLBSensitive() {
					d.TLBSensitive = true
				}
			}
			g = append(g, d.GPUMMU)
			m = append(m, d.Mosaic)
			ideal = append(ideal, d.Ideal)
			if d.GPUMMU > 0 {
				improvements = append(improvements, (d.Mosaic/d.GPUMMU-1)*100)
			}
			if d.Ideal > 0 {
				shortfalls = append(shortfalls, (1-d.Mosaic/d.Ideal)*100)
			}
			res.Workloads = append(res.Workloads, d)
		}
		mg, mm, mi := metrics.Mean(g), metrics.Mean(m), metrics.Mean(ideal)
		res.GPUMMU = append(res.GPUMMU, mg)
		res.Mosaic = append(res.Mosaic, mm)
		res.Ideal = append(res.Ideal, mi)
		res.Table.AddRowF(fmt.Sprintf("%d", n), mg, mm, mi)
	}
	res.MosaicOverGPUMMUPct = metrics.Mean(improvements)
	res.MosaicUnderIdealPct = metrics.Mean(shortfalls)
	res.Table.AddRow("Mosaic vs GPU-MMU",
		fmt.Sprintf("+%.1f%%", res.MosaicOverGPUMMUPct), "", "")
	res.Table.AddRow("Mosaic vs Ideal",
		fmt.Sprintf("-%.1f%%", res.MosaicUnderIdealPct), "", "")
	return res
}

// Fig8 regenerates Figure 8: homogeneous workloads, weighted speedup of
// GPU-MMU vs Mosaic vs Ideal TLB across 1-5 concurrent applications.
func (h *Harness) Fig8(levels ...int) SpeedupResult {
	if len(levels) == 0 {
		levels = []int{1, 2, 3, 4, 5}
	}
	byLevel := map[int][]workload.Workload{}
	for _, n := range levels {
		byLevel[n] = h.homogeneous(n)
	}
	return h.speedupStudy("Fig. 8: homogeneous workloads (weighted speedup)", byLevel, levels)
}

// Fig9 regenerates Figure 9: heterogeneous workloads across 2-5
// concurrent applications.
func (h *Harness) Fig9(levels ...int) SpeedupResult {
	if len(levels) == 0 {
		levels = []int{2, 3, 4, 5}
	}
	byLevel := map[int][]workload.Workload{}
	for _, n := range levels {
		byLevel[n] = h.heterogeneous(n)
	}
	return h.speedupStudy("Fig. 9: heterogeneous workloads (weighted speedup)", byLevel, levels)
}

// heterogeneous builds the harness's heterogeneous workloads at level n,
// restricted to the configured suite.
func (h *Harness) heterogeneous(n int) []workload.Workload {
	suite := h.suite()
	if n > len(suite) {
		n = len(suite)
	}
	all := workload.Heterogeneous(n, h.HetPerLevel, h.Seed)
	if len(h.AppNames) == 0 {
		return all
	}
	// Restricted suite: recompose deterministically from the subset.
	var out []workload.Workload
	for w := 0; w < h.HetPerLevel; w++ {
		apps := make([]workload.Spec, n)
		name := ""
		for i := 0; i < n; i++ {
			apps[i] = suite[(w+i*3)%len(suite)]
			if i > 0 {
				name += "-"
			}
			name += apps[i].Name
		}
		out = append(out, workload.Workload{Name: name, Apps: apps})
	}
	return out
}

// --------------------------------------------------------------- Fig. 10

// Fig10Result reproduces Figure 10: selected two-application workloads,
// split into TLB-friendly and TLB-sensitive classes.
type Fig10Result struct {
	Pairs                 []string
	Sensitive             []bool
	GPUMMU, Mosaic, Ideal []float64
	Table                 metrics.Table
}

// Fig10Pairs is the default pair list, including the paper's named
// examples HS-CONS and NW-HISTO.
var Fig10Pairs = [][2]string{
	{"CONS", "BLK"}, {"SCAN", "RED"}, {"JPEG", "NN"}, {"SCP", "CONS"},
	{"3DS", "SAD"}, {"LPS", "SCAN"}, {"BLK", "RED"}, {"HISTO", "LIB"},
	{"RAY", "SC"}, {"BFS2", "CONS"}, {"MUM", "SCAN"}, {"GUPS", "RED"},
	{"HS", "CONS"}, {"NW", "HISTO"}, {"FFT", "SRAD"},
}

// Fig10 regenerates Figure 10 over the given pairs (defaults to
// Fig10Pairs).
func (h *Harness) Fig10(pairs ...[2]string) Fig10Result {
	if len(pairs) == 0 {
		pairs = Fig10Pairs
	}
	wls := make([]workload.Workload, len(pairs))
	for i, p := range pairs {
		wl, err := workload.Pair(p[0], p[1])
		if err != nil {
			panic(err)
		}
		wls[i] = wl
	}
	var p plan
	h.planSpeedups(&p, wls)
	_, ws := h.execute(p)

	res := Fig10Result{Table: metrics.Table{
		Title:   "Fig. 10: selected two-application workloads (weighted speedup)",
		Columns: []string{"pair", "class", "GPU-MMU", "Mosaic", "Ideal-TLB"},
	}}
	for i, wl := range wls {
		sensitive := wl.Apps[0].TLBSensitive() || wl.Apps[1].TLBSensitive()
		class := "TLB-friendly"
		if sensitive {
			class = "TLB-sensitive"
		}
		res.Pairs = append(res.Pairs, wl.Name)
		res.Sensitive = append(res.Sensitive, sensitive)
		wg, wm, wi := ws[3*i], ws[3*i+1], ws[3*i+2]
		res.GPUMMU = append(res.GPUMMU, wg)
		res.Mosaic = append(res.Mosaic, wm)
		res.Ideal = append(res.Ideal, wi)
		res.Table.AddRow(wl.Name, class,
			metrics.FormatFloat(wg), metrics.FormatFloat(wm), metrics.FormatFloat(wi))
	}
	return res
}

// --------------------------------------------------------------- Fig. 11

// Fig11Result reproduces Figure 11: sorted per-application IPC under
// Mosaic and Ideal TLB, normalized to the application's IPC under the
// shared GPU-MMU run.
type Fig11Result struct {
	// SortedMosaic/SortedIdeal map concurrency level to ascending
	// normalized per-app IPCs.
	SortedMosaic, SortedIdeal map[int][]float64
	// ImprovedFrac is the fraction of applications Mosaic speeds up.
	ImprovedFrac float64
	Table        metrics.Table
}

// Fig11 regenerates Figure 11 from a heterogeneous speedup study (run
// Fig9 first and pass its result to avoid duplicate simulations).
func (h *Harness) Fig11(fig9 SpeedupResult) Fig11Result {
	res := Fig11Result{
		SortedMosaic: map[int][]float64{},
		SortedIdeal:  map[int][]float64{},
		Table: metrics.Table{
			Title:   "Fig. 11: per-application IPC normalized to GPU-MMU (summary)",
			Columns: []string{"apps", "min", "mean", "max", "improved"},
		},
	}
	improved, total := 0, 0
	for _, d := range fig9.Workloads {
		for k := range d.AppIPCsGPUMMU {
			if d.AppIPCsGPUMMU[k] <= 0 {
				continue
			}
			nm := d.AppIPCsMosaic[k] / d.AppIPCsGPUMMU[k]
			ni := d.AppIPCsIdeal[k] / d.AppIPCsGPUMMU[k]
			res.SortedMosaic[d.Level] = append(res.SortedMosaic[d.Level], nm)
			res.SortedIdeal[d.Level] = append(res.SortedIdeal[d.Level], ni)
			total++
			if nm > 1 {
				improved++
			}
		}
	}
	for _, level := range fig9.Levels {
		xs := res.SortedMosaic[level]
		slices.Sort(xs)
		slices.Sort(res.SortedIdeal[level])
		if len(xs) == 0 {
			continue
		}
		nImp := 0
		for _, x := range xs {
			if x > 1 {
				nImp++
			}
		}
		res.Table.AddRow(fmt.Sprintf("%d", level),
			metrics.FormatFloat(xs[0]),
			metrics.FormatFloat(metrics.Mean(xs)),
			metrics.FormatFloat(xs[len(xs)-1]),
			fmt.Sprintf("%d/%d", nImp, len(xs)))
	}
	if total > 0 {
		res.ImprovedFrac = float64(improved) / float64(total)
	}
	res.Table.AddRow("overall improved", fmt.Sprintf("%.1f%%", res.ImprovedFrac*100), "", "", "")
	return res
}

// --------------------------------------------------------------- Fig. 12

// Fig12Result reproduces Figure 12: GPU-MMU with and without demand
// paging and Mosaic with paging, normalized to GPU-MMU without paging.
type Fig12Result struct {
	Classes      []string // "homogeneous", "heterogeneous"
	GPUMMUPaging []float64
	MosaicPaging []float64
	Table        metrics.Table
}

// Fig12 regenerates Figure 12 using 2-application workloads of each class.
func (h *Harness) Fig12() Fig12Result {
	classNames := []string{"homogeneous", "heterogeneous"}
	classes := [][]workload.Workload{h.homogeneous(2), h.heterogeneous(2)}
	// Every weighted speedup divides by alone runs with paging on, the
	// no-paging baseline's included.
	var p plan
	for _, wls := range classes {
		for _, wl := range wls {
			p.addWS(h.cell(wl, noPaging(h.Cfg), core.GPUMMU4K), h.Cfg)
			p.addWS(h.cell(wl, h.Cfg, core.GPUMMU4K), h.Cfg)
			p.addWS(h.cell(wl, h.Cfg, core.Mosaic), h.Cfg)
		}
	}
	_, ws := h.execute(p)

	res := Fig12Result{Table: metrics.Table{
		Title:   "Fig. 12: effect of demand paging (normalized to GPU-MMU without paging)",
		Columns: []string{"class", "GPU-MMU no-paging", "GPU-MMU paging", "Mosaic paging"},
	}}
	for ci, class := range classNames {
		var gp, mp []float64
		for range classes[ci] {
			if base := ws[0]; base > 0 {
				gp = append(gp, ws[1]/base)
				mp = append(mp, ws[2]/base)
			}
			ws = ws[3:]
		}
		g, m := metrics.Mean(gp), metrics.Mean(mp)
		res.Classes = append(res.Classes, class)
		res.GPUMMUPaging = append(res.GPUMMUPaging, g)
		res.MosaicPaging = append(res.MosaicPaging, m)
		res.Table.AddRowF(class, 1, g, m)
	}
	return res
}

// --------------------------------------------------------------- Fig. 13

// Fig13Result reproduces Figure 13: L1 and L2 TLB hit rates of GPU-MMU
// vs Mosaic across concurrency levels.
type Fig13Result struct {
	Levels             []int
	L1GPUMMU, L2GPUMMU []float64
	L1Mosaic, L2Mosaic []float64
	Table              metrics.Table
}

// Fig13 regenerates Figure 13.
func (h *Harness) Fig13(levels ...int) Fig13Result {
	if len(levels) == 0 {
		levels = []int{1, 2, 3, 4, 5}
	}
	byLevel := make([][]workload.Workload, len(levels))
	var p plan
	for li, n := range levels {
		byLevel[li] = h.homogeneous(n)
		for _, wl := range byLevel[li] {
			p.add(h.cell(wl, h.Cfg, core.GPUMMU4K))
			p.add(h.cell(wl, h.Cfg, core.Mosaic))
		}
	}
	runs, _ := h.execute(p)

	res := Fig13Result{Levels: levels, Table: metrics.Table{
		Title:   "Fig. 13: TLB hit rates (request granularity)",
		Columns: []string{"apps", "GPU-MMU L1", "GPU-MMU L2", "Mosaic L1", "Mosaic L2"},
	}}
	for li, n := range levels {
		var g1, g2, m1, m2 []float64
		for range byLevel[li] {
			rg, rm := runs[0], runs[1]
			runs = runs[2:]
			g1 = append(g1, rg.L1TLBHitRate())
			g2 = append(g2, rg.L2TLBHitRate())
			m1 = append(m1, rm.L1TLBHitRate())
			m2 = append(m2, rm.L2TLBHitRate())
		}
		res.L1GPUMMU = append(res.L1GPUMMU, metrics.Mean(g1))
		res.L2GPUMMU = append(res.L2GPUMMU, metrics.Mean(g2))
		res.L1Mosaic = append(res.L1Mosaic, metrics.Mean(m1))
		res.L2Mosaic = append(res.L2Mosaic, metrics.Mean(m2))
		res.Table.AddRowF(fmt.Sprintf("%d", n),
			metrics.Mean(g1), metrics.Mean(g2), metrics.Mean(m1), metrics.Mean(m2))
	}
	return res
}

// ---------------------------------------------------------- Figs. 14 & 15

// SweepResult holds a TLB-size sensitivity study (Figures 14 and 15):
// mean weighted speedup of GPU-MMU and Mosaic at each size, normalized to
// GPU-MMU at the default size.
type SweepResult struct {
	Sizes          []int
	GPUMMU, Mosaic []float64
	Table          metrics.Table
}

// sweep runs a TLB-geometry sweep of dimension dim at concurrency level
// n. Every cell goes through ApplySweepDim, whose way clamp keeps an
// entry count below an associativity from producing invalid geometry.
//
// With SweepWarmup set (and every cell reconfigurable from the base
// configuration) each (workload, policy) family warms once and forks
// per cell. The baseline column then reconfigures to the base
// configuration itself, so every cell's digest chains the same way.
func (h *Harness) sweep(title string, n int, sizes []int, dim string) SweepResult {
	d := mustSweepDim(dim)
	wls := h.homogeneous(n)
	nBase := len(wls)
	// cells holds the GPU-MMU baseline of every workload, then for each
	// size and workload a GPU-MMU and a Mosaic cell.
	var cells []Cell
	for _, wl := range wls {
		cells = append(cells, h.cell(wl, h.Cfg, core.GPUMMU4K))
	}
	for _, size := range sizes {
		for _, wl := range wls {
			cfg := h.Cfg
			ApplySweepDim(&cfg, wl, d, size)
			cells = append(cells, h.cell(wl, cfg, core.GPUMMU4K), h.cell(wl, cfg, core.Mosaic))
		}
	}
	var p plan
	if h.SweepWarmup > 0 {
		if Forkable(h.Cfg, cells) {
			p.warmup = h.SweepWarmup
		} else if h.Progress != nil {
			fmt.Fprintf(h.Progress, "sweep %q: SweepWarmup ignored (cells change non-TLB knobs)\n", title)
		}
	}
	// Alone-run denominators deliberately use the base configuration for
	// every cell: the sweep reports shared-run movement against a fixed
	// reference, and forked and plain cells normalize identically.
	for _, c := range cells {
		p.addWS(c, h.Cfg)
	}
	_, ws := h.execute(p)

	res := SweepResult{Sizes: sizes, Table: metrics.Table{
		Title:   title,
		Columns: []string{"entries", "GPU-MMU", "Mosaic"},
	}}
	baseline := metrics.Mean(ws[:nBase])
	for si, size := range sizes {
		var g, m []float64
		for w := 0; w < nBase; w++ {
			c := nBase + (si*nBase+w)*2
			g = append(g, ws[c])
			m = append(m, ws[c+1])
		}
		ng, nm := metrics.Mean(g)/baseline, metrics.Mean(m)/baseline
		res.GPUMMU = append(res.GPUMMU, ng)
		res.Mosaic = append(res.Mosaic, nm)
		res.Table.AddRowF(fmt.Sprintf("%d", size), ng, nm)
	}
	return res
}

// Fig14L1 sweeps per-SM L1 TLB base-page entries (paper: 8-256).
func (h *Harness) Fig14L1(n int, sizes ...int) SweepResult {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128, 256}
	}
	return h.sweep("Fig. 14a: L1 TLB base-page entries", n, sizes, "l1base")
}

// Fig14L2 sweeps shared L2 TLB base-page entries (paper: 64-4096).
func (h *Harness) Fig14L2(n int, sizes ...int) SweepResult {
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256, 512, 1024, 4096}
	}
	return h.sweep("Fig. 14b: L2 TLB base-page entries", n, sizes, "l2base")
}

// Fig15L1 sweeps per-SM L1 TLB large-page entries (paper: 4-64).
func (h *Harness) Fig15L1(n int, sizes ...int) SweepResult {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64}
	}
	return h.sweep("Fig. 15a: L1 TLB large-page entries", n, sizes, "l1large")
}

// Fig15L2 sweeps shared L2 TLB large-page entries (paper: 32-512).
func (h *Harness) Fig15L2(n int, sizes ...int) SweepResult {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128, 256, 512}
	}
	return h.sweep("Fig. 15b: L2 TLB large-page entries", n, sizes, "l2large")
}

// --------------------------------------------------------- Fig. 16 & Tab. 2

// fragDRAM sizes cfg's DRAM so fragmentation creates genuine frame
// pressure for spec: ~3x its working set plus the PT reserve.
func fragDRAM(cfg config.Config, spec workload.Spec) config.Config {
	cfg.TotalDRAMBytes = 3*spec.ScaledWorkingSet(cfg) + (96 << 20)
	return cfg
}

// CACMode labels for Fig. 16.
var cacModes = []struct {
	name string
	mut  func(*core.Options)
}{
	{"no CAC", func(o *core.Options) { o.CAC = core.CACOff }},
	{"CAC", func(o *core.Options) { o.CAC = core.CACOn }},
	{"CAC-BC", func(o *core.Options) { o.CAC = core.CACBulkCopy }},
	{"Ideal CAC", func(o *core.Options) { o.CAC = core.CACIdeal }},
}

// Fig16Result holds a CAC stress study: normalized performance of the
// four compaction variants across a fragmentation sweep.
type Fig16Result struct {
	XLabel string
	Xs     []float64
	// Perf maps mode name to normalized performance per X.
	Perf  map[string][]float64
	Table metrics.Table
}

// fig16 runs the CAC stress suite at the given fragmentation points. The
// whole (point, mode, application) grid runs as one batch; the baseline
// is the "no CAC" cell at the first point.
func (h *Harness) fig16(title, xlabel string, points []float64, frag func(x float64) (index, occupancy float64)) Fig16Result {
	suite := h.suite()
	nSuite := len(suite)
	nModes := len(cacModes)
	var p plan
	for _, x := range points {
		index, occ := frag(x)
		for _, mode := range cacModes {
			for _, spec := range suite {
				cfg := fragDRAM(h.Cfg, spec)
				// Run longer than the default cap: compaction is a
				// one-time cost that must amortize over execution, as
				// it does in the paper's full-length runs.
				if cfg.MaxWarpInstructions > 0 {
					cfg.MaxWarpInstructions *= 2
				}
				c := h.cell(single(spec.Name, spec), cfg, core.Mosaic)
				c.Options.FragIndex = index
				c.Options.FragOccupancy = occ
				c.Options.DeallocFraction = 0.6
				c.Options.MutateManager = mode.mut
				p.add(c)
			}
		}
	}
	runs, _ := h.execute(p)
	perfs := make([]float64, len(runs))
	for i, r := range runs {
		perfs[i] = r.TotalIPC()
	}

	cellMean := func(pi, mi int) float64 {
		start := (pi*nModes + mi) * nSuite
		return metrics.Mean(perfs[start : start+nSuite])
	}
	res := Fig16Result{XLabel: xlabel, Xs: points, Perf: map[string][]float64{}}
	res.Table = metrics.Table{Title: title, Columns: []string{xlabel, "no CAC", "CAC", "CAC-BC", "Ideal CAC"}}
	baseline := cellMean(0, 0)
	for pi, x := range points {
		row := []float64{x}
		for mi, mode := range cacModes {
			p := cellMean(pi, mi) / baseline
			res.Perf[mode.name] = append(res.Perf[mode.name], p)
			row = append(row, p)
		}
		res.Table.AddRowF(metrics.FormatFloat(x), row[1:]...)
	}
	return res
}

// Fig16a regenerates Figure 16a: performance vs fragmentation index at
// 50% large-frame occupancy.
func (h *Harness) Fig16a(points ...float64) Fig16Result {
	if len(points) == 0 {
		points = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}
	}
	return h.fig16("Fig. 16a: CAC vs fragmentation index (occupancy 50%)",
		"index", points, func(x float64) (float64, float64) { return x, 0.5 })
}

// Fig16b regenerates Figure 16b: performance vs large-frame occupancy at
// 100% fragmentation index.
func (h *Harness) Fig16b(points ...float64) Fig16Result {
	if len(points) == 0 {
		points = []float64{0.01, 0.1, 0.25, 0.35, 0.5, 0.75}
	}
	return h.fig16("Fig. 16b: CAC vs large-frame occupancy (index 100%)",
		"occupancy", points, func(x float64) (float64, float64) { return 1.0, x })
}

// Table2Result reproduces Table 2: Mosaic's memory bloat vs large-frame
// occupancy at 100% fragmentation.
type Table2Result struct {
	Occupancies []float64
	BloatPct    []float64
	Table       metrics.Table
}

// Table2 regenerates Table 2.
func (h *Harness) Table2(occupancies ...float64) Table2Result {
	if len(occupancies) == 0 {
		occupancies = []float64{0.01, 0.1, 0.25, 0.35, 0.5, 0.75}
	}
	suite := h.suite()
	nSuite := len(suite)
	var p plan
	for _, occ := range occupancies {
		for _, spec := range suite {
			c := h.cell(single(spec.Name, spec), fragDRAM(h.Cfg, spec), core.Mosaic)
			c.Options.FragIndex = 1.0
			c.Options.FragOccupancy = occ
			// Mid-run deallocation creates the partially-freed
			// coalesced frames whose locked slots are the bloat the
			// paper measures.
			c.Options.DeallocFraction = 0.4
			p.add(c)
		}
	}
	runs, _ := h.execute(p)
	bloats := make([]float64, len(runs))
	for i, r := range runs {
		bloats[i] = r.Apps[0].BloatPct
	}

	res := Table2Result{Occupancies: occupancies, Table: metrics.Table{
		Title:   "Table 2: Mosaic memory bloat vs large-frame occupancy (index 100%)",
		Columns: []string{"occupancy", "bloat %"},
	}}
	for oi, occ := range occupancies {
		b := metrics.Mean(bloats[oi*nSuite : (oi+1)*nSuite])
		res.BloatPct = append(res.BloatPct, b)
		res.Table.AddRowF(fmt.Sprintf("%.0f%%", occ*100), b)
	}
	return res
}

// ------------------------------------------------------- Oversubscription

// OversubResult compares the four managers under GPU memory
// oversubscription: the workload's footprint is ratio times the resident
// budget, so pages demand-page in and out over the I/O bus for the whole
// run. Values are IPC normalized to the same manager with residency
// unbounded, i.e. a retained fraction (1.0 = oversubscription costs
// nothing). Eviction granularity is what separates the managers: the
// 2MB-only manager pages half a megabyte of amplification per miss, while
// Mosaic's coalesced frames evict whole but refault at 4KB.
type OversubResult struct {
	Ratios                          []float64
	GPUMMU, GPUMMU2M, Mosaic, Ideal []float64
	Table                           metrics.Table
}

// Oversub runs the oversubscription study on the residency-hostile sweep
// workload at the given footprint-to-memory ratios (default 1.2x-4x).
func (h *Harness) Oversub(ratios ...float64) OversubResult {
	if len(ratios) == 0 {
		ratios = []float64{1.2, 1.5, 2, 3, 4}
	}
	specs := workload.OversubSuite()
	name := ""
	for i, s := range specs {
		if i > 0 {
			name += "-"
		}
		name += s.Name
	}
	wl := workload.Workload{Name: name, Apps: specs}
	policies := []core.Policy{core.GPUMMU4K, core.GPUMMU2M, core.Mosaic, core.IdealTLB}

	// The unbounded baselines first, then ratio-major cells.
	var p plan
	for _, pol := range policies {
		p.add(h.cell(wl, h.Cfg, pol))
	}
	for _, ratio := range ratios {
		cfg := h.Cfg
		cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, ratio)
		for _, pol := range policies {
			p.add(h.cell(wl, cfg, pol))
		}
	}
	runs, _ := h.execute(p)
	base, cells := runs[:len(policies)], runs[len(policies):]

	res := OversubResult{Ratios: ratios, Table: metrics.Table{
		Title:   "Oversubscription: IPC retained under a bounded page pool (vs unbounded)",
		Columns: []string{"ratio", "GPU-MMU", "GPU-MMU-2MB", "Mosaic", "Ideal-TLB"},
	}}
	for ri, ratio := range ratios {
		row := make([]float64, len(policies))
		for pi := range policies {
			row[pi] = cells[ri*len(policies)+pi].TotalIPC() / base[pi].TotalIPC()
		}
		res.GPUMMU = append(res.GPUMMU, row[0])
		res.GPUMMU2M = append(res.GPUMMU2M, row[1])
		res.Mosaic = append(res.Mosaic, row[2])
		res.Ideal = append(res.Ideal, row[3])
		res.Table.AddRowF(metrics.FormatFloat(ratio), row...)
	}
	return res
}
