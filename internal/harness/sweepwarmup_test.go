package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// sweepHarness builds a tiny harness configured for SweepWarmup studies.
func sweepHarness(t *testing.T, jobs int, warmup uint64) *Harness {
	t.Helper()
	h := tiny(t)
	h.AppNames = []string{"NW"}
	h.Jobs = jobs
	h.SweepWarmup = warmup
	return h
}

// sweepGrid is a TLB sweep grid over two workloads and two policies —
// four (workload, policy) families — with dim applied at each size.
func sweepGrid(t *testing.T, dim string, sizes ...int) (config.Config, []Cell) {
	t.Helper()
	h := tiny(t)
	h.AppNames = []string{"NW", "CONS"}
	var cells []Cell
	for _, size := range sizes {
		for _, wl := range h.homogeneous(2) {
			cfg := h.Cfg
			ApplySweepDim(&cfg, wl, mustSweepDim(dim), size)
			for _, p := range []core.Policy{core.GPUMMU4K, core.Mosaic} {
				cells = append(cells, Cell{wl, cfg, sim.Options{Policy: p, Seed: h.Seed}})
			}
		}
	}
	return h.Cfg, cells
}

// coldCells runs every cell's two-phase plan from scratch — the
// reference a forked grid must reproduce.
func coldCells(t *testing.T, base config.Config, warmup uint64, cells []Cell) []sim.Results {
	t.Helper()
	out := make([]sim.Results, len(cells))
	for i, c := range cells {
		r, err := sim.RunTwoPhase(nil, base, c.Workload, twoPhase(c.Options, warmup), c.Config)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestSweepWarmupForkedMatchesCold: RunCells forks every cell of a
// forkable grid from one snapshot per family, and each forked result
// equals the cell's cold two-phase run, at Jobs=1 and Jobs=8.
func TestSweepWarmupForkedMatchesCold(t *testing.T) {
	const warmup = 10_000
	base, cells := sweepGrid(t, "l1base", 16, 128)
	cold := coldCells(t, base, warmup, cells)
	for _, jobs := range []int{1, 8} {
		forked, err := RunCells(jobs, base, warmup, cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(forked[i], cold[i]) {
				t.Errorf("jobs=%d cell %d (%s/%v): forked result differs from cold two-phase run:\n%+v\n%+v",
					jobs, i, cells[i].Workload.Name, cells[i].Options.Policy, forked[i], cold[i])
			}
		}
	}
}

// TestSweepWarmupRecordsMatch extends the forked-vs-cold guarantee to
// the exported RunRecords, compared as the serialized bytes CI diffs.
func TestSweepWarmupRecordsMatch(t *testing.T) {
	const warmup = 10_000
	base, cells := sweepGrid(t, "l1large", 4, 64)
	records := func(results []sim.Results) []byte {
		recs := make([]metrics.RunRecord, len(results))
		for i, r := range results {
			recs[i] = metrics.NewRunRecord(r)
		}
		b, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold := records(coldCells(t, base, warmup, cells))
	for _, jobs := range []int{1, 8} {
		forked, err := RunCells(jobs, base, warmup, cells)
		if err != nil {
			t.Fatal(err)
		}
		if got := records(forked); !bytes.Equal(got, cold) {
			t.Errorf("jobs=%d: forked records differ from cold two-phase records:\nforked:\n%s\ncold:\n%s", jobs, got, cold)
		}
	}
}

// TestSweepWarmupChangesDigests pins the digest contract: a two-phase
// sweep (warmup > 0) is a different run plan than a plain sweep, so
// their records must not collide in digest-keyed caches.
func TestSweepWarmupChangesDigests(t *testing.T) {
	warm := sweepHarness(t, 0, 10_000)
	figWarm := warm.CollectFigure("fig15a", func() metrics.Table {
		return warm.Fig15L1(2, 4).Table
	})
	plain := sweepHarness(t, 0, 0)
	figPlain := plain.CollectFigure("fig15a", func() metrics.Table {
		return plain.Fig15L1(2, 4).Table
	})
	if len(figWarm.Runs) == 0 || len(figWarm.Runs) != len(figPlain.Runs) {
		t.Fatalf("unexpected record counts: warm %d plain %d", len(figWarm.Runs), len(figPlain.Runs))
	}
	for i := range figWarm.Runs {
		w, p := figWarm.Runs[i], figPlain.Runs[i]
		// Alone runs (weighted-speedup denominators) stay single-phase
		// in both modes, so their digests legitimately agree.
		if strings.HasPrefix(w.Workload, "alone-") {
			if w.ConfigDigest != p.ConfigDigest {
				t.Errorf("run %d (%s): alone run digest changed under SweepWarmup", i, w.Workload)
			}
			continue
		}
		if w.ConfigDigest == p.ConfigDigest {
			t.Errorf("run %d (%s): two-phase digest %s collides with plain digest", i, w.Workload, w.ConfigDigest)
		}
	}
}
