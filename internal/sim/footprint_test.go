package sim

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// newBytes returns the bytes New allocates building wl under cfg.
func newBytes(t *testing.T, cfg config.Config, wl workload.Workload, opt Options) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg, wl, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	return after.TotalAlloc - before.TotalAlloc
}

// newFootprintBound caps what New may allocate for Eval NW,NW (30 SMs ×
// 48 warps). Building it takes about 1.7 MB; when every warp stream
// seeded its own ~5 KB pseudo-random source up front it took 9.5 MB,
// though NW's strided pattern never draws a random number.
const newFootprintBound = 3 << 20

// TestNewSimulatorFootprint bounds the bytes New allocates for Eval
// NW,NW under GPU-MMU and Mosaic.
func TestNewSimulatorFootprint(t *testing.T) {
	spec, err := workload.ByName("NW")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Workload{Name: "NW,NW", Apps: []workload.Spec{spec, spec}}
	for _, p := range []core.Policy{core.GPUMMU4K, core.Mosaic} {
		b := newBytes(t, config.Eval().WithoutDemandPaging(), wl, Options{Policy: p, Seed: 1})
		t.Logf("%v: New allocated %d bytes", p, b)
		if b > newFootprintBound {
			t.Errorf("%v: New allocated %d bytes for Eval NW,NW, bound %d", p, b, newFootprintBound)
		}
	}
}
