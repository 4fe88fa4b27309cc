package sim_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sweep-warmup benchmarks measure the tentpole win: a 20-cell TLB
// sensitivity sweep where every cell shares an 80,000-cycle warmup
// prefix (~74% of the ~109k-cycle run). The Cold variant re-simulates
// the prefix for every cell, the Forked variant simulates it once and
// forks the snapshot per cell. Both produce byte-identical RunRecords
// (TestForkMatchesColdTwoPhase); only the wall-clock cost differs.
//
// Run it with:
//
//	go test ./internal/sim -run '^$' -bench BenchmarkSweepWarmup -benchtime 3x

const benchWarmupCycles = 80_000

// benchSweepCells builds a 20-cell grid over L1 and L2 base-page TLB
// entries — the Figure 14 axes — every cell reconfigurable from base.
func benchSweepCells(base config.Config) []config.Config {
	var cells []config.Config
	for _, l1 := range []int{16, 32, 64, 128, 256} {
		for _, l2 := range []int{128, 256, 512, 1024} {
			c := base
			c.L1TLBBaseEntries = l1
			c.L2TLBBaseEntries = l2
			c.ClampTLBWays()
			cells = append(cells, c)
		}
	}
	return cells
}

func benchSweepBase(tb testing.TB) (config.Config, workload.Workload) {
	tb.Helper()
	cfg := config.FastTest()
	cfg.IOBusEnabled = false
	spec, err := workload.ByName("CONS")
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, workload.Workload{Name: "CONS", Apps: []workload.Spec{spec}}
}

// BenchmarkSweepWarmupCold runs the 20-cell sweep as independent
// two-phase plans: every cell pays the shared warmup prefix again.
func BenchmarkSweepWarmupCold(b *testing.B) {
	base, wl := benchSweepBase(b)
	cells := benchSweepCells(base)
	opt := sim.Options{Policy: core.GPUMMU4K, Seed: 42, SnapshotWarmup: benchWarmupCycles}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		for _, cell := range cells {
			s, err := sim.New(base, wl, opt)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunWarmup(); err != nil {
				b.Fatal(err)
			}
			if err := s.Reconfigure(cell); err != nil {
				b.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				b.Fatal(err)
			}
			cycles += r.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/sweep")
}

// BenchmarkSweepWarmupForked runs the same sweep off one snapshot: the
// warmup prefix simulates once, then each cell forks and diverges.
func BenchmarkSweepWarmupForked(b *testing.B) {
	base, wl := benchSweepBase(b)
	cells := benchSweepCells(base)
	opt := sim.Options{Policy: core.GPUMMU4K, Seed: 42, SnapshotWarmup: benchWarmupCycles}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		s, err := sim.New(base, wl, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunWarmup(); err != nil {
			b.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		for _, cell := range cells {
			f := snap.Fork()
			if err := f.Reconfigure(cell); err != nil {
				b.Fatal(err)
			}
			r, err := f.Run()
			if err != nil {
				b.Fatal(err)
			}
			cycles += r.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/sweep")
}
