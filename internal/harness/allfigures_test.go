package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the harness's all-figure golden report")

// allFigures runs every figure of the evaluation once on h, in
// mosaic-bench's order, with argument lists trimmed for unit-test time,
// and returns the exported report.
func allFigures(h *Harness) metrics.Report {
	rep := metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     "harness-test",
		Seed:          h.Seed,
		Apps:          h.AppNames,
	}
	add := func(id string, body func() metrics.Table) {
		rep.Figures = append(rep.Figures, h.CollectFigure(id, body))
	}
	add("fig3", func() metrics.Table { return h.Fig3().Table })
	add("fig4", func() metrics.Table { return h.Fig4(1, 2).Table })
	add("bloat", func() metrics.Table { return h.MemoryBloat2MB().Table })
	add("fig8", func() metrics.Table { return h.Fig8(1, 2).Table })
	var fig9 SpeedupResult
	add("fig9", func() metrics.Table { fig9 = h.Fig9(2); return fig9.Table })
	add("fig10", func() metrics.Table { return h.Fig10([2]string{"HS", "CONS"}, [2]string{"NW", "HISTO"}).Table })
	add("fig11", func() metrics.Table { return h.Fig11(fig9).Table })
	add("fig12", func() metrics.Table { return h.Fig12().Table })
	add("fig13", func() metrics.Table { return h.Fig13(2).Table })
	// Fig14a/15a/15b include the default size, so their base cells run
	// twice; 8 L2 base entries are fewer than the default associativity.
	add("fig14a", func() metrics.Table { return h.Fig14L1(2, 16, 128).Table })
	add("fig14b", func() metrics.Table { return h.Fig14L2(2, 8).Table })
	add("fig15a", func() metrics.Table { return h.Fig15L1(2, 16).Table })
	add("fig15b", func() metrics.Table { return h.Fig15L2(2, 256).Table })
	add("fig16a", func() metrics.Table { return h.Fig16a(1).Table })
	add("fig16b", func() metrics.Table { return h.Fig16b(0.5).Table })
	add("oversub", func() metrics.Table { return h.Oversub(2).Table })
	add("table2", func() metrics.Table { return h.Table2(0.5).Table })
	return rep
}

// TestAllFiguresGolden pins the exported bytes of every figure, run in
// sequence on one harness, against testdata/all-figures.json, and
// checks that the harness simulated each distinct (workload, policy,
// digest) key of the report exactly once. Regenerate intentionally with
//
//	go test ./internal/harness -run TestAllFiguresGolden -update
func TestAllFiguresGolden(t *testing.T) {
	h := tiny(t)
	h.AppNames = []string{"CONS", "NW"}
	var progress strings.Builder
	h.Progress = &progress
	rep := allFigures(h)
	keys := map[[3]string]bool{}
	for _, fig := range rep.Figures {
		for _, r := range fig.Runs {
			keys[[3]string{r.Workload, r.Policy, r.ConfigDigest}] = true
		}
	}
	if ran := strings.Count(progress.String(), "ran "); ran != len(keys) {
		t.Errorf("simulated %d cells for %d distinct keys", ran, len(keys))
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all-figures.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("all-figure report differs from %s (%d bytes, want %d); compare with mosaic-report",
			path, got.Len(), len(want))
	}
}
