package harness

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one simulation of a grid: sim.New(Config, Workload, Options).
type Cell struct {
	Workload workload.Workload
	Config   config.Config
	Options  sim.Options
}

// run simulates the cell as given.
func (c Cell) run() (sim.Results, error) {
	s, err := sim.New(c.Config, c.Workload, c.Options)
	if err != nil {
		return sim.Results{}, err
	}
	return s.Run()
}

// Forkable reports whether every cell differs from base only in the
// knobs sim.Reconfigure accepts, so that RunCells can fork the cells
// from snapshots warmed under base.
func Forkable(base config.Config, cells []Cell) bool {
	for _, c := range cells {
		if !sim.CanReconfigure(base, c.Config) {
			return false
		}
	}
	return true
}

// RunCells runs every cell on a Runner of jobs workers (<= 0 means
// GOMAXPROCS) and returns the results in cell order, identical for
// every jobs value. It is the one local executor of sweep grids.
//
// With warmup > 0 and Forkable(base, cells), each cell runs as a
// two-phase plan (Options.SnapshotWarmup = warmup): the warmup prefix
// runs once per (workload, policy) family under base, and each cell of
// the family forks that snapshot and reconfigures to its own Config.
// The results are byte-identical to running each cell's plan cold with
// sim.RunTwoPhase(nil, ...). Cells of one family must agree on every
// other Options field. Otherwise every cell runs as given.
//
// The error is the first failing cell's, in cell order.
func RunCells(jobs int, base config.Config, warmup uint64, cells []Cell) ([]sim.Results, error) {
	r := NewRunner(jobs)
	defer r.Close()
	errs := make([]error, len(cells))

	// With forking on, owner[i] is the first cell of cell i's family,
	// whose warmup snaps[owner[i]] holds.
	var owner []int
	snaps := make([]*sim.Snapshot, len(cells))
	if warmup > 0 && Forkable(base, cells) {
		type family struct {
			workload string
			policy   core.Policy
		}
		first := map[family]int{}
		owner = make([]int, len(cells))
		for i, c := range cells {
			f := family{c.Workload.Name, c.Options.Policy}
			j, ok := first[f]
			if !ok {
				j, first[f] = i, i
				i, c := i, c
				r.Submit(func() {
					snaps[i], errs[i] = sim.WarmSnapshot(base, c.Workload, twoPhase(c.Options, warmup))
				})
			}
			owner[i] = j
		}
		// The barrier is inherent: every cell forks one of these.
		r.Wait()
		if err := firstErr(errs); err != nil {
			return nil, err
		}
	}

	results := make([]sim.Results, len(cells))
	for i, c := range cells {
		i, c := i, c
		r.Submit(func() {
			if owner == nil {
				results[i], errs[i] = c.run()
			} else {
				results[i], errs[i] = sim.RunTwoPhase(snaps[owner[i]], base, c.Workload, twoPhase(c.Options, warmup), c.Config)
			}
		})
	}
	r.Wait()
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// twoPhase is a cell's options with the warmup prefix turned on.
func twoPhase(opt sim.Options, warmup uint64) sim.Options {
	opt.SnapshotWarmup = warmup
	return opt
}

// firstErr returns the first non-nil error in cell order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
