package harness

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/workload"
)

// SweepDim is one sweepable hardware dimension — a named configuration
// knob a sweep varies across a grid of values. server.Resolve applies
// it to every sweep-cell request, local (mosaic-sweep) or remote
// (campaigns), so a cell of the same (dim, value) lands on the same
// ConfigDigest wherever it runs.
type SweepDim struct {
	// Name is the wire and -dim spelling ("l1base", "oversub", ...).
	Name string
	// Desc is the one-line human description shown by -dims.
	Desc string
	// Apply mutates the configuration for one swept value. It is nil
	// for workload-dependent dimensions (oversub), which ApplySweepDim
	// resolves against the workload instead.
	Apply func(*config.Config, int)
}

// sweepDims is the dimension registry, keyed by Name.
var sweepDims = map[string]SweepDim{
	"l1base":  {"l1base", "per-SM L1 TLB base-page entries", func(c *config.Config, v int) { c.L1TLBBaseEntries = v }},
	"l1large": {"l1large", "per-SM L1 TLB large-page entries", func(c *config.Config, v int) { c.L1TLBLargeEntries = v }},
	"l2base":  {"l2base", "shared L2 TLB base-page entries", func(c *config.Config, v int) { c.L2TLBBaseEntries = v }},
	"l2large": {"l2large", "shared L2 TLB large-page entries", func(c *config.Config, v int) { c.L2TLBLargeEntries = v }},
	"walker":  {"walker", "page table walker concurrency", func(c *config.Config, v int) { c.WalkerConcurrency = v }},
	"warps":   {"warps", "warps per SM", func(c *config.Config, v int) { c.WarpsPerSM = v }},
	"scale":   {"scale", "working-set scale divisor", func(c *config.Config, v int) { c.WorkloadScale = v }},
	"pwc":     {"pwc", "page-walk cache entries (0 = off)", func(c *config.Config, v int) { c.PageWalkCacheEntries = v }},
	"oversub": {"oversub", "oversubscription ratio in percent (workload footprint vs GPU memory; 120 = 1.2x, 0 = unbounded)", nil},
}

// mustSweepDim resolves a compile-time-known dimension name for
// internal callers (the figure sweeps); a miss is a programming error.
func mustSweepDim(name string) SweepDim {
	d, err := SweepDimByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// SweepDimByName resolves a dimension name, with an error naming the
// alternatives on a miss.
func SweepDimByName(name string) (SweepDim, error) {
	d, ok := sweepDims[name]
	if !ok {
		return SweepDim{}, fmt.Errorf("unknown dimension %q (want one of %v)", name, SweepDimNames())
	}
	return d, nil
}

// SweepDimNames lists every registered dimension name, sorted.
func SweepDimNames() []string {
	names := make([]string, 0, len(sweepDims))
	for n := range sweepDims {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SweepDims returns every registered dimension sorted by name (for
// -dims listings).
func SweepDims() []SweepDim {
	dims := make([]SweepDim, 0, len(sweepDims))
	for _, n := range SweepDimNames() {
		dims = append(dims, sweepDims[n])
	}
	return dims
}

// ApplySweepDim materializes one swept value on cfg: the dimension's
// mutation (resolved against wl for workload-dependent dimensions like
// oversub), then the TLB-way clamp every sweep cell gets. server.Resolve
// applies it to every sweep-cell request, after the request's other
// mutations; that order is part of every swept digest.
func ApplySweepDim(cfg *config.Config, wl workload.Workload, d SweepDim, v int) {
	if d.Apply != nil {
		d.Apply(cfg, v)
	} else if v > 0 { // oversub: percent ratio -> residency budget
		cfg.MaxResidentPages = workload.ResidentBudget(*cfg, wl, float64(v)/100)
	}
	cfg.ClampTLBWays()
}
