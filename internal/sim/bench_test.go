package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// benchSim builds a one-app simulator for white-box hot-path benchmarks
// and tests.
func benchSim(tb testing.TB, policy core.Policy) *Simulator {
	tb.Helper()
	cfg := config.FastTest()
	cfg.IOBusEnabled = false
	spec, err := workload.ByName("CONS")
	if err != nil {
		tb.Fatal(err)
	}
	wl := workload.Workload{Name: "CONS", Apps: []workload.Spec{spec}}
	s, err := New(cfg, wl, Options{Policy: policy, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// drain runs every pending event, advancing the simulated clock.
func drain(s *Simulator) {
	for {
		c, ok := s.q.NextCycle()
		if !ok {
			return
		}
		if c > s.cycle {
			s.cycle = c
		}
		s.q.RunDue(s.cycle)
	}
}

// BenchmarkSimCoreMemAccess measures one warm memory access through the
// translate+data path: L1 TLB hit, L1 cache hit, synchronous completion.
// This is the steady-state per-access cost the pooled request path must
// keep allocation-free.
func BenchmarkSimCoreMemAccess(b *testing.B) {
	s := benchSim(b, core.GPUMMU4K)
	m := s.sms[0]
	w := m.warps[0]
	w.outstanding = 1 << 30 // never completes the warp; isolates the access path
	va := m.app.buffers[0].va
	// Warm the TLBs and caches for va, then drain the event queue.
	s.memInstr(m, w, va)
	drain(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.memInstr(m, w, va)
		drain(s)
	}
}

// BenchmarkSimCoreNewFragmented measures the set-up of one simulator on
// perfbench's oversub cell: SWP-S,SWP-D on the Eval configuration at
// 1.5x oversubscription, memory pre-fragmented to 90 % in every frame,
// seed 1. Under Mosaic, sim.New also compacts the fragmented frames
// before the applications allocate.
func BenchmarkSimCoreNewFragmented(b *testing.B) {
	var apps []workload.Spec
	for _, name := range []string{"SWP-S", "SWP-D"} {
		spec, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, spec)
	}
	wl := workload.Workload{Name: "SWP-S,SWP-D", Apps: apps}
	cfg := config.Eval()
	cfg.MaxResidentPages = workload.ResidentBudget(cfg, wl, 1.5)
	for _, policy := range []core.Policy{core.GPUMMU4K, core.Mosaic} {
		b.Run(policy.String(), func(b *testing.B) {
			opt := Options{Policy: policy, Seed: 1, FragIndex: 1.0, FragOccupancy: 0.9, DeallocFraction: 0.5}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, wl, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
