package harness

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestExportByteDeterminism is the export layer's hard gate: serializing
// the same experiment from a sequential harness and an 8-worker harness
// produces byte-identical JSON, even though run completion (and hence
// collection) order differs.
func TestExportByteDeterminism(t *testing.T) {
	render := func(jobs int) string {
		h := tiny(t)
		h.Jobs = jobs
		rep := metrics.Report{
			SchemaVersion: metrics.SchemaVersion,
			Generator:     "test",
			Seed:          h.Seed,
			Apps:          h.AppNames,
		}
		rep.Figures = append(rep.Figures,
			h.CollectFigure("fig8", func() metrics.Table { return h.Fig8(1, 2).Table }))
		var b strings.Builder
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if h.Collect != nil {
			t.Fatal("CollectFigure did not restore the previous collector")
		}
		return b.String()
	}
	j1 := render(1)
	j8 := render(8)
	if j1 != j8 {
		t.Errorf("JSON export differs between Jobs=1 and Jobs=8:\n%s\n---\n%s", j1, j8)
	}

	// The export also survives a read/diff round trip with zero diffs.
	r1, err := metrics.ReadReport(strings.NewReader(j1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := metrics.ReadReport(strings.NewReader(j8))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := metrics.DiffReports(r1, r8, metrics.DiffOptions{}); len(diffs) != 0 {
		t.Errorf("round-trip diff not empty: %v", diffs)
	}
}

// TestCollectFigureCapturesRuns checks that a collected figure carries
// one record per distinct simulation — shared, ideal, and the alone runs
// behind weighted speedup — with speedups attached to the shared runs.
func TestCollectFigureCapturesRuns(t *testing.T) {
	h := tiny(t)
	fig := h.CollectFigure("fig8", func() metrics.Table { return h.Fig8(1).Table })
	if fig.ID != "fig8" || len(fig.Rows) == 0 {
		t.Fatalf("figure shape: ID=%q rows=%d", fig.ID, len(fig.Rows))
	}
	if len(fig.Runs) == 0 {
		t.Fatal("collected figure has no run records")
	}
	alone, withWS := 0, 0
	for _, r := range fig.Runs {
		if r.Cycles == 0 || r.ConfigDigest == "" {
			t.Errorf("run %s/%s missing cycles or digest", r.Workload, r.Policy)
		}
		if strings.HasPrefix(r.Workload, "alone-") {
			alone++
		}
		if r.WeightedSpeedup > 0 {
			withWS++
		}
	}
	if alone == 0 {
		t.Error("alone runs were not recorded")
	}
	if withWS == 0 {
		t.Error("no record carries a weighted speedup")
	}

	// A second collected figure over the same experiment reads the alone
	// runs from the memo: its records must not include them again.
	fig2 := h.CollectFigure("fig8-again", func() metrics.Table { return h.Fig8(1).Table })
	for _, r := range fig2.Runs {
		if strings.HasPrefix(r.Workload, "alone-") {
			t.Errorf("memoized alone run %s re-recorded in a later figure", r.Workload)
		}
	}
}
