// Command mosaic-bench regenerates the paper's evaluation: one experiment
// per table and figure of §3 and §6. By default it runs a quick subset of
// applications; -full runs the complete 27-application suite (slower).
//
// Output defaults to plain-text tables; -format json or -format csv
// exports the same figures as a versioned, deterministic document (see
// docs/RESULTS_SCHEMA.md) that cmd/mosaic-report can diff.
//
// Examples:
//
//	mosaic-bench                            # quick pass over every figure
//	mosaic-bench -fig 8,9                   # only Figures 8 and 9
//	mosaic-bench -full -fig 16              # full-suite CAC stress study
//	mosaic-bench -fig 8 -jobs 8             # same bytes, 8 simulations in flight
//	mosaic-bench -fig 8 -format json -out r.json   # structured export
//	mosaic-bench -fig 16,t2 -cpuprofile cpu.pprof  # profile a figure (go tool pprof)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	mosaic "repro"
	"repro/internal/cliutil"
	"repro/internal/metrics"
)

// figNames lists every -fig name.
var figNames = []string{"3", "4", "bloat", "8", "9", "10", "11", "12", "13", "14", "15", "16", "t2", "oversub"}

func main() {
	var (
		full     = flag.Bool("full", false, "run the complete 27-application suite")
		figs     = flag.String("fig", "all", "comma-separated figure list: "+strings.Join(figNames, ",")+" or 'all'")
		scale    = flag.Int("scale", 0, "working-set scale divisor (0 = harness default)")
		csvDir   = flag.String("csv", "", "also write each experiment's table as CSV into this directory")
		chart    = flag.Bool("chart", false, "also draw each experiment as an ASCII bar chart (text format only)")
		verbose  = flag.Bool("v", false, "print one line per simulation run")
		jobs     = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
		snapWarm = flag.Uint64("snapshot-warmup", 0, "amortize the TLB sweeps (figs 14/15): warm each (workload, policy) family for this many cycles under the base config once, then fork it and reconfigure it per cell (0 = off; changes sweep digests). Unlike mosaic-sim's flag of the same name, this is a whole-sweep plan")
		format   = flag.String("format", "text", "output format: text | json | csv")
		outPath  = flag.String("out", "", "write output to this file instead of stdout")
		prof     = cliutil.ProfileFlags(flag.CommandLine)
	)
	flag.Parse()

	if *format != "text" && *format != "json" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json, or csv)\n", *format)
		os.Exit(1)
	}

	if *scale < 0 {
		fmt.Fprintln(os.Stderr, "-scale must be non-negative")
		os.Exit(1)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		f = strings.TrimSpace(f)
		if f != "all" && !slices.Contains(figNames, f) {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want one of %s or all)\n", f, strings.Join(figNames, ", "))
			os.Exit(1)
		}
		want[f] = true
	}

	cfg := mosaic.EvalConfig()
	if *scale > 0 {
		cfg.WorkloadScale = *scale
	}
	var h *mosaic.Harness
	if *full {
		h = mosaic.NewHarness(cfg)
	} else {
		h = mosaic.NewQuickHarness(cfg)
	}
	h.Jobs = *jobs
	h.SweepWarmup = *snapWarm
	if *verbose {
		h.Progress = os.Stderr
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// All output flows through an error-recording Output: write failures
	// anywhere (including the unchecked fmt writes of text rendering)
	// surface at the final Close and exit non-zero.
	out, err := cliutil.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	text := *format == "text"

	report := metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     "mosaic-bench",
		Seed:          h.Seed,
		Apps:          h.AppNames,
	}

	// emit appends one finished figure to the report and (in text mode)
	// renders it immediately; -csv additionally writes the table alone.
	emit := func(fig metrics.Figure) {
		report.Figures = append(report.Figures, fig)
		if text {
			tbl := fig.Table()
			tbl.Render(out)
			if *chart {
				c := metrics.ChartFromTable(tbl)
				c.Render(out)
			}
			for _, n := range fig.Notes {
				fmt.Fprintln(out, n)
			}
			if len(fig.Notes) > 0 {
				fmt.Fprintln(out)
			}
		}
		if *csvDir != "" {
			tbl := fig.Table()
			err := cliutil.WriteFile(filepath.Join(*csvDir, fig.ID+".csv"), func(w io.Writer) error {
				return tbl.CSV(w)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	// collect runs one experiment under a per-figure collector and emits
	// the resulting Figure. notes are computed after the body so they
	// can quote measured values.
	collect := func(id string, body func() metrics.Table, notes func() []string) {
		fig := h.CollectFigure(id, body)
		if notes != nil {
			fig.Notes = notes()
		}
		emit(fig)
	}

	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	if sel("3") {
		var r mosaic.Fig3Result
		collect("fig3", func() metrics.Table { r = h.Fig3(); return r.Table }, func() []string {
			return []string{
				"paper: 4KB loses 48.1% vs ideal; 2MB comes within 2%.",
				fmt.Sprintf("measured: 4KB %.1f%% below ideal; 2MB %.1f%% below ideal.",
					(1-r.Mean4K)*100, (1-r.Mean2M)*100),
			}
		})
	}
	if sel("4") {
		collect("fig4", func() metrics.Table { return h.Fig4().Table }, func() []string {
			return []string{"paper: 2MB paging degrades -92.5%..-99.8% as apps grow 1..5."}
		})
	}
	if sel("bloat") {
		var r mosaic.BloatResult
		collect("bloat", func() metrics.Table { r = h.MemoryBloat2MB(); return r.Table }, func() []string {
			return []string{
				"paper: 2MB-only bloat 40.2% avg, up to 367%.",
				fmt.Sprintf("measured: %.1f%% avg, up to %.1f%%; Mosaic %.1f%%.", r.Mean2M, r.Max2M, r.MeanMosaic),
			}
		})
	}
	if sel("8") {
		var r mosaic.SpeedupResult
		collect("fig8", func() metrics.Table { r = h.Fig8(); return r.Table }, func() []string {
			return []string{
				"paper: Mosaic +55.5% over GPU-MMU, within 6.8% of ideal.",
				fmt.Sprintf("measured: Mosaic %+.1f%% over GPU-MMU, %.1f%% below ideal.",
					r.MosaicOverGPUMMUPct, r.MosaicUnderIdealPct),
			}
		})
	}
	var fig9 *mosaic.SpeedupResult
	if sel("9") || sel("11") {
		fig := h.CollectFigure("fig9", func() metrics.Table {
			r := h.Fig9()
			fig9 = &r
			return r.Table
		})
		if sel("9") {
			fig.Notes = []string{
				"paper: Mosaic +29.7% over GPU-MMU, within 15.4% of ideal.",
				fmt.Sprintf("measured: Mosaic %+.1f%% over GPU-MMU, %.1f%% below ideal.",
					fig9.MosaicOverGPUMMUPct, fig9.MosaicUnderIdealPct),
			}
			emit(fig)
		}
	}
	if sel("10") {
		collect("fig10", func() metrics.Table { return h.Fig10().Table }, nil)
	}
	if sel("11") {
		var r mosaic.Fig11Result
		collect("fig11", func() metrics.Table { r = h.Fig11(*fig9); return r.Table }, func() []string {
			return []string{
				"paper: Mosaic improves 93.6% of individual applications.",
				fmt.Sprintf("measured: %.1f%% improved.", r.ImprovedFrac*100),
			}
		})
	}
	if sel("12") {
		collect("fig12", func() metrics.Table { return h.Fig12().Table }, func() []string {
			return []string{"paper: Mosaic with paging beats GPU-MMU without paging by 58.5%/47.5%."}
		})
	}
	if sel("13") {
		collect("fig13", func() metrics.Table { return h.Fig13().Table }, func() []string {
			return []string{"paper: Mosaic drives both TLB miss rates below 1%; GPU-MMU L2 falls 81%->62% from 2 to 5 apps."}
		})
	}
	if sel("14") {
		// Quick mode sweeps three sizes per dimension; -full sweeps the
		// paper's whole range.
		l1 := []int{16, 64, 256}
		l2 := []int{64, 512, 4096}
		if *full {
			l1 = []int{8, 16, 32, 64, 128, 256}
			l2 = []int{64, 128, 256, 512, 1024, 4096}
		}
		collect("fig14a", func() metrics.Table { return h.Fig14L1(2, l1...).Table }, nil)
		collect("fig14b", func() metrics.Table { return h.Fig14L2(2, l2...).Table }, func() []string {
			return []string{"paper: GPU-MMU sensitive to L1 base entries, Mosaic flat; both gain from L2 entries."}
		})
	}
	if sel("15") {
		l1 := []int{4, 16, 64}
		l2 := []int{32, 128, 512}
		if *full {
			l1 = []int{4, 8, 16, 32, 64}
			l2 = []int{32, 64, 128, 256, 512}
		}
		collect("fig15a", func() metrics.Table { return h.Fig15L1(2, l1...).Table }, nil)
		collect("fig15b", func() metrics.Table { return h.Fig15L2(2, l2...).Table }, func() []string {
			return []string{"paper: Mosaic sensitive to large-page entries; GPU-MMU flat (never coalesces)."}
		})
	}
	if sel("16") {
		a := []float64{0, 0.9, 1.0}
		bpts := []float64{0.1, 0.5}
		if *full {
			a = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}
			bpts = []float64{0.01, 0.1, 0.25, 0.35, 0.5, 0.75}
		}
		collect("fig16a", func() metrics.Table { return h.Fig16a(a...).Table }, nil)
		collect("fig16b", func() metrics.Table { return h.Fig16b(bpts...).Table }, func() []string {
			return []string{"paper: CAC helps beyond ~90% fragmentation; CAC-BC helps at low occupancy."}
		})
	}
	if sel("oversub") {
		ratios := []float64{1.2, 2}
		if *full {
			ratios = []float64{1.2, 1.5, 2, 3, 4}
		}
		var r mosaic.OversubResult
		collect("oversub", func() metrics.Table { r = h.Oversub(ratios...); return r.Table }, func() []string {
			last := len(r.Ratios) - 1
			return []string{
				"2MB-only eviction amplifies every miss by 512 pages; Mosaic evicts coalesced frames whole but refaults at 4KB.",
				fmt.Sprintf("measured at %gx: GPU-MMU retains %.0f%%, 2MB-only %.1f%%, Mosaic %.0f%%, ideal %.0f%%.",
					r.Ratios[last], r.GPUMMU[last]*100, r.GPUMMU2M[last]*100, r.Mosaic[last]*100, r.Ideal[last]*100),
			}
		})
	}
	if sel("t2") {
		occ := []float64{0.1, 0.5, 0.75}
		if *full {
			occ = []float64{0.01, 0.1, 0.25, 0.35, 0.5, 0.75}
		}
		collect("table2", func() metrics.Table { return h.Table2(occ...).Table }, func() []string {
			return []string{"paper: bloat falls from 10.66% (1% occupancy) to 2.22% (75%)."}
		})
	}

	switch *format {
	case "json":
		err = report.WriteJSON(out)
	case "csv":
		err = report.WriteCSV(out)
	}
	if err == nil {
		err = out.Close()
	}
	if err == nil {
		err = prof.Stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
