package server

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Plan is a RunRequest resolved into a ready-to-run simulation: the
// workload, configuration and simulation options it runs, and the
// (workload, policy, config digest) identity its result is cached and
// stored under. Resolve is the only place a request becomes a Plan, so
// mosaicd, campaigns, mosaic-sim and mosaic-sweep all simulate (and
// file) the same request identically.
type Plan struct {
	// Req is the request the plan was resolved from.
	Req RunRequest
	// Cell is what the simulation runs: sim.New(Config, Workload,
	// Options), or a sweep grid's cell in harness.RunCells.
	harness.Cell
	// Key is the result identity triple; Key.ConfigDigest is the digest
	// Run stamps into the Results.
	Key store.Key
}

// Resolve validates a request and resolves it against a base
// configuration (nil means config.Eval, the service default) without
// running anything. Application names are trimmed and the workload is
// named by joining them with commas; the request's Scale, NoPaging,
// Oversub and Dim/DimValue mutations apply in that order; the result is
// validated with the same checks sim.New applies.
func Resolve(base func() config.Config, req RunRequest) (Plan, error) {
	if len(req.Apps) == 0 {
		return Plan{}, fmt.Errorf("apps required (see mosaic-sim -list for the suite)")
	}
	if req.TimeoutMS < 0 {
		return Plan{}, fmt.Errorf("timeoutMS must be non-negative")
	}
	// Shards is deprecated and otherwise ignored, but it is still
	// outside input: reject what was always rejected.
	if req.Shards < 0 {
		return Plan{}, fmt.Errorf("shards must be non-negative")
	}
	// NaN compares false both ways and would leave residency unbounded;
	// +Inf would shrink the budget to its floor.
	if req.Oversub < 0 || math.IsNaN(req.Oversub) || math.IsInf(req.Oversub, 0) {
		return Plan{}, fmt.Errorf("oversub must be a finite non-negative ratio, got %g", req.Oversub)
	}
	if req.Scale < 0 {
		return Plan{}, fmt.Errorf("scale must be non-negative")
	}
	specs := make([]workload.Spec, 0, len(req.Apps))
	names := make([]string, 0, len(req.Apps))
	for _, name := range req.Apps {
		spec, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return Plan{}, err
		}
		specs = append(specs, spec)
		names = append(names, spec.Name)
	}
	wl := workload.Workload{Name: strings.Join(names, ","), Apps: specs}

	policy, err := ParsePolicy(req.Policy)
	if err != nil {
		return Plan{}, err
	}
	opt := sim.Options{
		Policy:          policy,
		Seed:            req.Seed,
		FragIndex:       req.FragIndex,
		FragOccupancy:   req.FragOccupancy,
		DeallocFraction: req.DeallocFraction,
		SnapshotWarmup:  req.SnapshotWarmupCycles,
	}
	if err := opt.Validate(); err != nil {
		return Plan{}, err
	}

	if base == nil {
		base = config.Eval
	}
	cfg := base()
	if req.Scale > 0 {
		cfg.WorkloadScale = req.Scale
	}
	if req.NoPaging {
		cfg.IOBusEnabled = false
	}
	if req.Oversub > 0 {
		// Resolved against the scaled workload here so the budget lands in
		// the config digest — oversubscribed and unbounded runs of the same
		// workload never share a cache entry.
		cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, req.Oversub)
	}
	if req.Dim != "" {
		// A sweep cell: the registered dimension mutation plus the
		// TLB-way clamp on top of every other mutation.
		d, err := harness.SweepDimByName(req.Dim)
		if err != nil {
			return Plan{}, err
		}
		// ApplySweepDim reads any oversub percentage <= 0 as unbounded.
		if d.Name == "oversub" && req.DimValue < 0 {
			return Plan{}, fmt.Errorf("oversub dimension value must be non-negative (percent, 0 = unbounded), got %d", req.DimValue)
		}
		harness.ApplySweepDim(&cfg, wl, d, req.DimValue)
	}
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	if len(wl.Apps) > cfg.NumSMs {
		return Plan{}, fmt.Errorf("%d apps exceed %d SMs", len(wl.Apps), cfg.NumSMs)
	}
	return Plan{
		Req:  req,
		Cell: harness.Cell{Workload: wl, Config: cfg, Options: opt},
		Key:  store.Key{Workload: wl.Name, Policy: policy.String(), ConfigDigest: sim.Digest(cfg, opt)},
	}, nil
}

// ParsePolicy maps a wire policy name (the mosaic-sim -policy values) to
// the memory manager it selects, resolving against the core policy
// table, so fifo-mmu is accepted too. Empty selects Mosaic. Unknown names return an error wrapping
// core.ErrUnknownPolicy.
func ParsePolicy(name string) (core.Policy, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return core.Mosaic, nil
	}
	return core.ParsePolicy(name)
}
