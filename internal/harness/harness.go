// Package harness regenerates every table and figure of the paper's
// evaluation (§6 plus the motivating studies of §3). Each FigN function
// runs the required simulations and returns both structured results (for
// tests and benches) and a rendered metrics.Table.
//
// Weighted speedup follows §5: IPC_alone is measured by running each
// application by itself on the same number of SMs it gets in the shared
// run, under the state-of-the-art GPU-MMU baseline configuration; alone
// runs are cached across experiments.
//
// Every experiment first enumerates its full set of independent
// simulations, submits them to a worker-pool Runner (sized by Jobs), and
// assembles tables from the completed results in submission order, so the
// output is byte-identical regardless of the worker count.
package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Harness drives the evaluation.
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
	// Progress, when non-nil, receives one line per completed run. With
	// Jobs != 1 the line order follows run completion, not submission.
	Progress io.Writer
	// Jobs is the number of simulations run concurrently: 0 (default)
	// means GOMAXPROCS, 1 runs strictly sequentially. Results and
	// rendered tables are identical for every value.
	Jobs int
	// Collect, when non-nil, receives a RunRecord for every simulation
	// the harness executes (including cache-miss alone runs) plus the
	// weighted speedups computed from them. The collected set is
	// identical for every Jobs value; swap in a fresh collector per
	// experiment (or use CollectFigure) to group records by figure.
	Collect *metrics.Collector
	// SweepWarmup, when positive, turns the TLB sweeps (Fig14*/Fig15*)
	// into two-phase plans amortized across cells: every cell of one
	// (workload, policy) family shares a warmup prefix of this many cycles
	// executed once under the base configuration, snapshotted at its
	// quiesce point, and forked per cell with the cell's TLB geometry
	// applied via sim.Reconfigure. Results are byte-identical to running
	// each cell's two-phase plan cold (see SweepColdstart) at every Jobs
	// value. Sweeps whose cells change non-TLB knobs ignore the setting
	// (with a Progress warning) and run plain. Zero (the default) keeps
	// the pre-existing single-phase sweep behavior and digests.
	SweepWarmup uint64
	// SweepColdstart forces SweepWarmup-mode sweeps to run each cell's
	// two-phase plan from scratch instead of forking the shared snapshot —
	// the comparison arm for validating fork determinism and for
	// measuring the warmup amortization win. Ignored when SweepWarmup is 0.
	SweepColdstart bool

	progressMu sync.Mutex

	aloneMu sync.Mutex
	alone   map[aloneKey]*aloneCell
}

// aloneKey identifies one alone-run simulation: the application plus a
// digest of the fully mutated configuration it runs under. Keying by the
// whole config (rather than a few fields) keeps experiments with
// different mutate functions from sharing stale alone IPCs.
type aloneKey struct {
	app    string
	digest uint64
}

// aloneCell is a single-flight cache slot: concurrent requests for the
// same alone IPC block on once while exactly one of them simulates.
type aloneCell struct {
	once sync.Once
	val  float64
}

// configDigest hashes every field of a configuration. The printed form
// of the flat struct is deterministic, so equal configs always collide
// and differing configs practically never do.
func configDigest(c config.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
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

// forEach runs fn(0..n-1) across the harness's worker pool and returns
// once all calls completed, re-raising the first panic. With one worker
// (or n == 1) it runs inline in index order, exactly like the old
// sequential harness. fn must write results only into its own index's
// slot; callers assemble in index order afterwards.
func (h *Harness) forEach(n int, fn func(i int)) {
	w := h.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := NewRunner(w)
	defer r.Close()
	for i := 0; i < n; i++ {
		i := i
		r.Submit(func() { fn(i) })
	}
	r.Wait()
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

// run executes one simulation.
func (h *Harness) run(wl workload.Workload, policy core.Policy, mutate func(*config.Config), simMut func(*sim.Options)) (sim.Results, error) {
	cfg := h.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	opt := sim.Options{Policy: policy, Seed: h.Seed}
	if simMut != nil {
		simMut(&opt)
	}
	s, err := sim.New(cfg, wl, opt)
	if err != nil {
		return sim.Results{}, err
	}
	r, err := s.Run()
	if err != nil {
		return sim.Results{}, err
	}
	h.record(r)
	return r, nil
}

// record feeds one completed simulation to Collect and Progress.
func (h *Harness) record(r sim.Results) {
	if h.Collect != nil {
		h.Collect.Add(r)
	}
	if h.Progress != nil {
		h.progressMu.Lock()
		fmt.Fprintf(h.Progress, "ran %-24s %-12s %9d cycles\n", r.Workload, r.Policy, r.Cycles)
		h.progressMu.Unlock()
	}
}

// CollectFigure runs one experiment body under a fresh collector and
// packages its table and run records as an exportable Figure. The body
// typically calls one FigN method and returns its Table. The returned
// figure is byte-identical (after JSON/CSV serialization) for every
// Jobs value. Alone-run simulations land in the figure that first
// needed them; later figures reuse the cached IPC without re-recording.
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

// mustRun is run with panic-on-error; experiment workloads are
// constructed by the harness itself, so failures are programming errors.
func (h *Harness) mustRun(wl workload.Workload, policy core.Policy, mutate func(*config.Config), simMut func(*sim.Options)) sim.Results {
	r, err := h.run(wl, policy, mutate, simMut)
	if err != nil {
		panic(fmt.Sprintf("harness: %s/%v: %v", wl.Name, policy, err))
	}
	return r
}

// twoPhaseOptions is the plan of a SweepWarmup-mode sweep family.
func (h *Harness) twoPhaseOptions(policy core.Policy) sim.Options {
	return sim.Options{Policy: policy, Seed: h.Seed, SnapshotWarmup: h.SweepWarmup}
}

// warmupSnapshot runs the shared warmup prefix of one (policy, workload)
// sweep family under the base configuration and freezes it for forking.
// Like mustRun, failures panic: the harness constructs its own plans.
func (h *Harness) warmupSnapshot(policy core.Policy, wl workload.Workload) *sim.Snapshot {
	snap, err := sim.WarmSnapshot(h.Cfg, wl, h.twoPhaseOptions(policy))
	if err != nil {
		panic(fmt.Sprintf("harness: warmup %s/%v: %v", wl.Name, policy, err))
	}
	return snap
}

// twoPhaseRun executes one sweep cell of a SweepWarmup-mode sweep via
// sim.RunTwoPhase — forked from snap, or cold when snap is nil, with
// byte-identical Results either way — and feeds Collect and Progress
// exactly like run does.
func (h *Harness) twoPhaseRun(snap *sim.Snapshot, policy core.Policy, wl workload.Workload, cell config.Config) sim.Results {
	r, err := sim.RunTwoPhase(snap, h.Cfg, wl, h.twoPhaseOptions(policy), cell)
	if err != nil {
		panic(fmt.Sprintf("harness: %s/%v: %v", wl.Name, policy, err))
	}
	h.record(r)
	return r
}

// aloneIPC returns the cached alone-run IPC of one application on smCount
// SMs under the GPU-MMU baseline (§5's IPC_alone definition). The cache
// is keyed by a digest of the fully mutated configuration and is
// single-flight: concurrent workers requesting the same alone IPC
// compute it exactly once, the rest block until the value is ready.
func (h *Harness) aloneIPC(spec workload.Spec, smCount int, mutate func(*config.Config)) float64 {
	aloneMut := func(c *config.Config) {
		if mutate != nil {
			mutate(c)
		}
		c.NumSMs = smCount
	}
	cfg := h.Cfg
	aloneMut(&cfg)
	key := aloneKey{app: spec.Name, digest: configDigest(cfg)}

	h.aloneMu.Lock()
	if h.alone == nil {
		h.alone = make(map[aloneKey]*aloneCell)
	}
	cell := h.alone[key]
	if cell == nil {
		cell = &aloneCell{}
		h.alone[key] = cell
	}
	h.aloneMu.Unlock()

	cell.once.Do(func() {
		r := h.mustRun(workload.Workload{Name: "alone-" + spec.Name, Apps: []workload.Spec{spec}},
			core.GPUMMU4K, aloneMut, nil)
		cell.val = r.Apps[0].IPC
	})
	return cell.val
}

// weightedSpeedup computes Eq. 1 for one shared run. The per-application
// SM share comes from the mutated configuration, so experiments that
// change NumSMs get alone runs on the SM count the shared run actually
// used.
func (h *Harness) weightedSpeedup(r sim.Results, wl workload.Workload, mutate func(*config.Config)) float64 {
	cfg := h.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	smPer := cfg.NumSMs / len(wl.Apps)
	if smPer == 0 {
		smPer = 1
	}
	shared := make([]float64, len(r.Apps))
	alone := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		shared[i] = a.IPC
		alone[i] = h.aloneIPC(wl.Apps[i], smPer, mutate)
	}
	ws, err := metrics.WeightedSpeedup(shared, alone)
	if err != nil {
		panic(err)
	}
	if h.Collect != nil {
		h.Collect.SetWeightedSpeedup(r.Workload, r.Policy, r.ConfigDigest, ws)
	}
	return ws
}

func noPaging(c *config.Config) { c.IOBusEnabled = false }
