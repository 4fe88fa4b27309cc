// Package difftest is the differential golden harness for the policy
// table: it replays pinned RunRecord fixtures through the table-resolved
// managers across the {policy × oversub × snapshot-fork × jobs} matrix
// and fails on the first non-identical byte. Two sets of fixtures are
// ground truth. The mixed and oversubscribed workloads under
// internal/metrics/testdata were recorded before the policy table
// existed; this package must never regenerate them. Its own testdata
// holds the FIFO-MMU cell and the §6.4 ablation cells (CAC-BC, Ideal
// CAC, the migrating coalescer, flush-on-coalesce), each recorded before
// the code that runs it was last restructured; `go test -update`
// rewrites only those. A diff here means a refactor (or a later policy
// change) altered simulation behavior.
package difftest

import (
	"encoding/json"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fixture is one cell of the differential matrix: a pinned workload,
// policy, and config whose RunRecord bytes are frozen in a golden file.
type Fixture struct {
	// Slug names the golden file: runrecord-<Slug>.golden.json.
	Slug string
	// Policy is the manager under test.
	Policy core.Policy
	// Apps are the workload application names.
	Apps []string
	// MaxWarpInstructions overrides config.FastTest's instruction bound.
	MaxWarpInstructions int
	// Oversub, when positive, bounds the GPU page pool to the workload's
	// scaled footprint divided by this ratio.
	Oversub float64
	// Mutate (an ablation of the manager options) and the §6.4 stress
	// knobs pass through to sim.Options unchanged.
	Mutate                                    func(*core.Options)
	FragIndex, FragOccupancy, DeallocFraction float64
}

// Seed is the fixed seed every fixture runs under (matching the recorded
// goldens in internal/metrics/testdata).
const Seed = 21

// MetricsFixtures returns the matrix cells whose goldens live in
// internal/metrics/testdata: the original two-app mix, the four-app mix
// under every compared policy, and the oversubscribed sweep workload at
// 1.2x and 2x under every compared policy.
func MetricsFixtures() []Fixture {
	var out []Fixture
	for _, p := range []struct {
		policy core.Policy
		slug   string
	}{
		{core.GPUMMU4K, "gpummu4k"},
		{core.Mosaic, "mosaic"},
		{core.IdealTLB, "ideal"},
	} {
		out = append(out, Fixture{
			Slug: p.slug, Policy: p.policy,
			Apps: []string{"HS", "CONS"}, MaxWarpInstructions: 128,
		})
	}
	for _, p := range []struct {
		policy core.Policy
		slug   string
	}{
		{core.GPUMMU4K, "mix4-gpummu4k"},
		{core.GPUMMU2M, "mix4-gpummu2m"},
		{core.Mosaic, "mix4-mosaic"},
		{core.IdealTLB, "mix4-ideal"},
	} {
		out = append(out, Fixture{
			Slug: p.slug, Policy: p.policy,
			Apps: []string{"HS", "CONS", "BFS2", "RED"}, MaxWarpInstructions: 128,
		})
	}
	for _, ratio := range []struct {
		r    float64
		slug string
	}{
		{1.2, "12x"},
		{2, "2x"},
	} {
		for _, p := range []struct {
			policy core.Policy
			slug   string
		}{
			{core.GPUMMU4K, "gpummu4k"},
			{core.GPUMMU2M, "gpummu2m"},
			{core.Mosaic, "mosaic"},
			{core.IdealTLB, "ideal"},
		} {
			out = append(out, Fixture{
				Slug: "oversub-" + ratio.slug + "-" + p.slug, Policy: p.policy,
				Apps: []string{"SWP-S", "SWP-D"}, MaxWarpInstructions: 1024,
				Oversub: ratio.r,
			})
		}
	}
	return out
}

// SimOptions returns the simulator options the fixture runs under.
func (fx Fixture) SimOptions() sim.Options {
	return sim.Options{
		Policy: fx.Policy, Seed: Seed, MutateManager: fx.Mutate,
		FragIndex: fx.FragIndex, FragOccupancy: fx.FragOccupancy, DeallocFraction: fx.DeallocFraction,
	}
}

// Build resolves a fixture to its exact run inputs: the FastTest config
// with the fixture's overrides applied, and the workload.
func (fx Fixture) Build() (config.Config, workload.Workload, error) {
	cfg := config.FastTest()
	cfg.MaxWarpInstructions = fx.MaxWarpInstructions
	specs := make([]workload.Spec, 0, len(fx.Apps))
	for _, name := range fx.Apps {
		spec, err := workload.ByName(name)
		if err != nil {
			return config.Config{}, workload.Workload{}, err
		}
		specs = append(specs, spec)
	}
	wl := workload.Workload{Name: strings.Join(fx.Apps, "-"), Apps: specs}
	if fx.Oversub > 0 {
		cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, fx.Oversub)
	}
	return cfg, wl, nil
}

// RecordBytes runs one simulation and serializes its RunRecord exactly
// as the golden fixtures are stored (indented JSON plus a trailing
// newline), so callers can compare byte-for-byte.
func RecordBytes(cfg config.Config, wl workload.Workload, opt sim.Options) ([]byte, error) {
	s, err := sim.New(cfg, wl, opt)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	return marshalRecord(metrics.NewRunRecord(res))
}

// ForkRecordBytes runs a two-phase plan (opt.SnapshotWarmup must be set)
// by warming one engine, snapshotting it, and forking the measurement
// phase from the snapshot — the bytes a cold two-phase run of the same
// plan must match exactly.
func ForkRecordBytes(cfg config.Config, wl workload.Workload, opt sim.Options) ([]byte, error) {
	s, err := sim.New(cfg, wl, opt)
	if err != nil {
		return nil, err
	}
	if err := s.RunWarmup(); err != nil {
		return nil, err
	}
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	res, err := snap.Fork().Run()
	if err != nil {
		return nil, err
	}
	return marshalRecord(metrics.NewRunRecord(res))
}

func marshalRecord(rec metrics.RunRecord) ([]byte, error) {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
