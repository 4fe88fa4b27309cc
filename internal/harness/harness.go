// Package harness regenerates every table and figure of the paper's
// evaluation (§6 plus the motivating studies of §3). Each FigN function
// returns both structured results (for tests and benches) and a
// rendered metrics.Table.
//
// Weighted speedup follows §5: IPC_alone is measured by running each
// application by itself on the same number of SMs it gets in the shared
// run, under the state-of-the-art GPU-MMU baseline configuration.
//
// Every figure is a planner plus a reducer. The planner lists the cells
// the figure simulates — its shared runs and the alone runs their
// weighted speedups divide by — and execute runs them: it keys each cell
// by (workload, policy, config digest), simulates every key once per
// harness across a worker pool (sized by Jobs), and serves repeats,
// within a figure or from an earlier one, from a result memo. The
// reducer then assembles means and tables from the results in plan
// order, so the output is byte-identical regardless of the worker count.
package harness

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Harness drives the evaluation. It runs one figure at a time: its
// methods must not be called concurrently.
type Harness struct {
	// Cfg is the base configuration; experiments copy and mutate it.
	Cfg config.Config
	// Seed drives workload composition and access streams.
	Seed int64
	// AppNames restricts the benchmark suite for quick runs; empty = all 27.
	AppNames []string
	// HetPerLevel is the number of heterogeneous workloads per
	// concurrency level (25 in the paper).
	HetPerLevel int
	// Progress, when non-nil, receives one line per simulated cell, in
	// plan order once a figure's simulations have finished. Cells served
	// from the result memo print nothing.
	Progress io.Writer
	// Jobs is the number of simulations run concurrently: 0 (default)
	// means GOMAXPROCS, 1 runs strictly sequentially. Results and
	// rendered tables are identical for every value.
	Jobs int
	// Collect, when non-nil, receives a RunRecord for every shared cell
	// a figure plans, whether simulated or served from the memo (a
	// repeat increments Count), and for every alone run in the figure
	// that simulated it, plus the weighted speedups computed from them.
	// The collected set is identical for every Jobs value; swap in a
	// fresh collector per experiment (or use CollectFigure) to group
	// records by figure.
	Collect *metrics.Collector
	// SweepWarmup, when positive, turns the TLB sweeps (Fig14*/Fig15*)
	// into two-phase plans amortized across cells (see RunCells): every
	// cell of one (workload, policy) family forks a warmup prefix of this
	// many cycles, run once under the base configuration, with the cell's
	// TLB geometry applied via sim.Reconfigure. Results are byte-identical
	// to running each cell's two-phase plan cold, at every Jobs value.
	// Sweeps whose cells change non-TLB knobs ignore the setting (with a
	// Progress warning) and run plain. Zero (the default) keeps the
	// single-phase sweep behavior and digests.
	SweepWarmup uint64

	// memo holds every result this harness simulated.
	memo map[cellKey]sim.Results
}

// New returns a harness over cfg with paper-default workload counts.
func New(cfg config.Config) *Harness {
	return &Harness{Cfg: cfg, Seed: 42, HetPerLevel: 25}
}

// NewQuick returns a harness sized for smoke tests and benches: a
// representative subset of applications (covering every pattern class)
// and fewer heterogeneous mixes.
func NewQuick(cfg config.Config) *Harness {
	h := New(cfg)
	h.AppNames = []string{"CONS", "NW", "HS", "BFS2", "HISTO", "LPS"}
	h.HetPerLevel = 5
	return h
}

// workers resolves the effective worker count.
func (h *Harness) workers() int {
	if h.Jobs > 0 {
		return h.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// suite returns the (possibly restricted) application list.
func (h *Harness) suite() []workload.Spec {
	if len(h.AppNames) == 0 {
		return workload.Suite()
	}
	var out []workload.Spec
	for _, n := range h.AppNames {
		s, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// homogeneous builds n-copy workloads over the harness's suite.
func (h *Harness) homogeneous(n int) []workload.Workload {
	var out []workload.Workload
	for _, s := range h.suite() {
		apps := make([]workload.Spec, n)
		for i := range apps {
			apps[i] = s
		}
		out = append(out, workload.Workload{Name: fmt.Sprintf("%dx%s", n, s.Name), Apps: apps})
	}
	return out
}

// single is the workload of one application by itself.
func single(name string, spec workload.Spec) workload.Workload {
	return workload.Workload{Name: name, Apps: []workload.Spec{spec}}
}

// cell is a shared cell of wl under policy on cfg.
func (h *Harness) cell(wl workload.Workload, cfg config.Config, policy core.Policy) Cell {
	return Cell{wl, cfg, sim.Options{Policy: policy, Seed: h.Seed}}
}

// noPaging is cfg without the I/O bus: no demand-paging overhead.
func noPaging(cfg config.Config) config.Config {
	cfg.IOBusEnabled = false
	return cfg
}

// A plan is the cells one figure simulates. cells are its shared runs,
// in the order its reducer reads them; alone[i] lists the alone runs
// behind cells[i]'s weighted speedup (nil: it has none).
type plan struct {
	cells []Cell
	alone [][]Cell
	// warmup, when positive, forks every shared cell from a warmup
	// snapshot of this many cycles (see RunCells); the planner must have
	// checked that the shared cells are Forkable from the base config.
	warmup uint64
}

// add appends a shared cell.
func (p *plan) add(c Cell) {
	p.cells = append(p.cells, c)
	p.alone = append(p.alone, nil)
}

// addWS appends a shared cell whose weighted speedup (Eq. 1) divides by
// alone runs on ref: each application by itself on its share of ref's
// SMs, under the GPU-MMU baseline.
func (p *plan) addWS(c Cell, ref config.Config) {
	ref.NumSMs = max(1, ref.NumSMs/len(c.Workload.Apps))
	alone := make([]Cell, len(c.Workload.Apps))
	for i, spec := range c.Workload.Apps {
		alone[i] = Cell{single("alone-"+spec.Name, spec), ref, sim.Options{Policy: core.GPUMMU4K, Seed: c.Options.Seed}}
	}
	p.cells = append(p.cells, c)
	p.alone = append(p.alone, alone)
}

// cellKey identifies one simulation: equal keys run byte-identical
// simulations.
type cellKey struct {
	workload string
	policy   core.Policy
	digest   string
}

// execute runs a plan and returns its shared cells' results and
// weighted speedups (zero where none was planned), in plan order. Each
// distinct key is simulated once per harness: repeats within the plan
// and keys an earlier plan simulated come from the memo. Shared cells
// fork from p.warmup snapshots when it is set; alone runs always run
// single-phase. Records go to Collect as its documentation describes.
func (h *Harness) execute(p plan) ([]sim.Results, []float64) {
	if h.memo == nil {
		h.memo = make(map[cellKey]sim.Results)
	}
	// Misses queue in batches by warmup: a warmed plan forks its shared
	// cells in their own batch. fresh holds the keys this plan
	// simulates, until recorded.
	type batch struct {
		warmup uint64
		cells  []Cell
		keys   []cellKey
	}
	plain := &batch{}
	forked, batches := plain, []*batch{plain}
	if p.warmup > 0 {
		forked = &batch{warmup: p.warmup}
		batches = []*batch{forked, plain}
	}
	fresh := map[cellKey]bool{}
	queue := func(b *batch, c Cell) cellKey {
		opt := c.Options
		if b.warmup > 0 {
			opt = twoPhase(opt, b.warmup)
		}
		k := cellKey{c.Workload.Name, opt.Policy, sim.Digest(c.Config, opt)}
		if _, ok := h.memo[k]; !ok && !fresh[k] {
			fresh[k] = true
			b.cells = append(b.cells, c)
			b.keys = append(b.keys, k)
		}
		return k
	}
	shared := make([]cellKey, len(p.cells))
	alone := make([][]cellKey, len(p.cells))
	for i, c := range p.cells {
		shared[i] = queue(forked, c)
		for _, a := range p.alone[i] {
			alone[i] = append(alone[i], queue(plain, a))
		}
	}
	for _, b := range batches {
		if len(b.cells) == 0 {
			continue
		}
		results, err := RunCells(h.workers(), h.Cfg, b.warmup, b.cells)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		for i, r := range results {
			h.memo[b.keys[i]] = r
			if h.Progress != nil {
				fmt.Fprintf(h.Progress, "ran %-24s %-12s %9d cycles\n", r.Workload, r.Policy, r.Cycles)
			}
		}
	}

	res := make([]sim.Results, len(p.cells))
	ws := make([]float64, len(p.cells))
	for i, k := range shared {
		r := h.memo[k]
		res[i] = r
		if h.Collect != nil {
			h.Collect.Add(r)
		}
		if alone[i] == nil {
			continue
		}
		ipcs := make([]float64, len(r.Apps))
		aloneIPCs := make([]float64, len(r.Apps))
		for j, ak := range alone[i] {
			ipcs[j] = r.Apps[j].IPC
			aloneIPCs[j] = h.memo[ak].Apps[0].IPC
			if fresh[ak] && h.Collect != nil {
				h.Collect.Add(h.memo[ak])
			}
			delete(fresh, ak) // an alone run is recorded once
		}
		w, err := metrics.WeightedSpeedup(ipcs, aloneIPCs)
		if err != nil {
			panic(err)
		}
		ws[i] = w
		if h.Collect != nil {
			h.Collect.SetWeightedSpeedup(r.Workload, r.Policy, r.ConfigDigest, w)
		}
	}
	return res, ws
}

// CollectFigure runs one experiment body under a fresh collector and
// packages its table and run records as an exportable Figure. The body
// typically calls one FigN method and returns its Table. The returned
// figure is byte-identical (after JSON/CSV serialization) for every
// Jobs value. Alone runs land in the figure that simulated them; later
// figures read them from the memo without re-recording.
func (h *Harness) CollectFigure(id string, body func() metrics.Table) metrics.Figure {
	prev := h.Collect
	col := metrics.NewCollector()
	h.Collect = col
	tbl := body()
	h.Collect = prev
	return metrics.Figure{
		ID:      id,
		Title:   tbl.Title,
		Columns: tbl.Columns,
		Rows:    tbl.Rows,
		Runs:    col.Records(),
	}
}
