// Command mosaic-sweep sweeps one hardware parameter across a range of
// values and reports each memory manager's throughput — a generalization
// of the paper's Figure 14/15 sensitivity studies to any knob. With
// -server the whole grid is submitted as one campaign to a mosaicd
// instead of simulating locally; the reassembled output is
// byte-identical to the local run.
//
// Examples:
//
//	mosaic-sweep -dim l1base -values 16,32,64,128,256 -apps NW,NW
//	mosaic-sweep -dim walker -values 8,16,32,64,128 -apps GUPS
//	mosaic-sweep -dim pwc -values 0,32,64,128 -apps NW -policies gpummu
//	mosaic-sweep -dim l2base -values 64,4096 -format json -out sweep.json
//	mosaic-sweep -dim oversub -values 120,150,200,400 -apps SWP-S,SWP-D -policies gpummu,gpummu-2mb,mosaic
//	mosaic-sweep -server http://127.0.0.1:8641 -dim l1base -values 16,64,256 -apps NW,NW
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	mosaic "repro"
	"repro/internal/cliutil"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		dim       = flag.String("dim", "l1base", "dimension to sweep (see -dims)")
		values    = flag.String("values", "16,64,128,256", "comma-separated values")
		apps      = flag.String("apps", "NW,NW", "comma-separated application names")
		policies  = flag.String("policies", "gpummu,mosaic,ideal", "managers to compare")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		nopaging  = flag.Bool("nopaging", false, "disable demand paging")
		listDims  = flag.Bool("dims", false, "list sweepable dimensions and exit")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
		snapWarm  = flag.Uint64("snapshot-warmup", 0, "amortize warmup across cells (local runs, TLB dimensions only): warm each policy for this many cycles under the base config once, then fork it and reconfigure it per swept value (0 = off; changes the config digests). Unlike mosaic-sim's flag of the same name, this is a whole-sweep plan")
		serverURL = flag.String("server", "", "submit the grid as one campaign to this mosaicd URL instead of simulating locally (see docs/SERVICE.md)")
		format    = flag.String("format", "text", "output format: text | json | csv")
		outPath   = flag.String("out", "", "write output to this file instead of stdout")
	)
	flag.Parse()

	if *format != "text" && *format != "json" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json, or csv)\n", *format)
		os.Exit(1)
	}

	if *listDims {
		for _, d := range harness.SweepDims() {
			fmt.Printf("%-8s %s\n", d.Name, d.Desc)
		}
		return
	}
	d, err := harness.SweepDimByName(*dim)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	parsed, err := mosaic.ParsePolicyList(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var polNames, wireNames []string
	for _, p := range parsed {
		polNames = append(polNames, p.Policy.String())
		wireNames = append(wireNames, p.Wire)
	}

	valStrs := strings.Split(*values, ",")
	vals := make([]int, len(valStrs))
	for i, vs := range valStrs {
		v, err := strconv.Atoi(strings.TrimSpace(vs))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		vals[i] = v
	}

	// The grid is one campaign request whether it runs here or on a
	// daemon: a local sweep plans it with the daemon's PlanCampaign, so
	// both resolve every cell through server.Resolve. Each cell yields
	// one RunRecord, in grid order (value-major), so every output format
	// is byte-identical either way.
	creq := mosaic.CampaignRequest{
		Base:     mosaic.RunRequest{Apps: strings.Split(*apps, ","), Seed: *seed, NoPaging: *nopaging},
		Policies: wireNames,
		Dim:      *dim,
		Values:   vals,
	}
	var recs []metrics.RunRecord
	if *serverURL != "" {
		if *snapWarm > 0 {
			fmt.Fprintln(os.Stderr, "-snapshot-warmup is local-only: a sweep warms under the base config and reconfigures each cell, which a campaign's RunRequest cells cannot express")
			os.Exit(1)
		}
		recs, err = mosaic.NewServiceClient(*serverURL).RunCampaignRecords(context.Background(), creq)
	} else {
		recs, err = runLocal(creq, d, *jobs, *snapWarm)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tbl := metrics.Table{
		Title:   fmt.Sprintf("sweep of %s (%s) — total IPC", *dim, d.Desc),
		Columns: append([]string{*dim}, polNames...),
	}
	var runs []metrics.RunRecord
	for vi, v := range vals {
		row := []float64{}
		for pi := range polNames {
			rec := recs[vi*len(polNames)+pi]
			row = append(row, rec.TotalIPC)
			rec.Workload = fmt.Sprintf("%s=%d/%s", *dim, v, rec.Workload)
			runs = append(runs, rec)
		}
		tbl.AddRowF(strconv.Itoa(v), row...)
	}

	// Output flows through an error-recording writer so render/export
	// failures exit non-zero even where renderers drop errors.
	out, err := cliutil.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *format == "text" {
		tbl.Render(out)
		c := metrics.ChartFromTable(tbl)
		c.Render(out)
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	report := metrics.Report{
		SchemaVersion: metrics.SchemaVersion,
		Generator:     "mosaic-sweep",
		Seed:          *seed,
		Apps:          strings.Split(*apps, ","),
		Figures: []metrics.Figure{{
			ID:      "sweep-" + *dim,
			Title:   tbl.Title,
			Columns: tbl.Columns,
			Rows:    tbl.Rows,
			Runs:    runs,
		}},
	}
	if *format == "json" {
		err = report.WriteJSON(out)
	} else {
		err = report.WriteCSV(out)
	}
	if err == nil {
		err = out.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runLocal runs the campaign's grid here through harness.RunCells and
// returns the per-cell records in grid order, so the output matches a
// sequential run for every jobs value. With warmup > 0 (and every cell
// differing from the resolved base request only in TLB knobs) each
// (workload, policy) family warms once under the base and forks per cell.
func runLocal(creq mosaic.CampaignRequest, d harness.SweepDim, jobs int, warmup uint64) ([]metrics.RunRecord, error) {
	planned, err := server.PlanCampaign(config.Eval, creq)
	if err != nil {
		return nil, err
	}
	cells := make([]harness.Cell, len(planned))
	for i, c := range planned {
		cells[i] = c.Cell
	}
	var base server.Plan
	if warmup > 0 {
		if base, err = server.Resolve(config.Eval, creq.Base); err != nil {
			return nil, err
		}
		// A workload-dependent dimension (oversub) is never forked, even
		// where its values leave the config unchanged.
		if d.Apply == nil || !harness.Forkable(base.Config, cells) {
			fmt.Fprintf(os.Stderr, "-snapshot-warmup ignored: dimension %q changes non-TLB knobs\n", creq.Dim)
			warmup = 0
		}
	}
	results, err := harness.RunCells(jobs, base.Config, warmup, cells)
	if err != nil {
		return nil, err
	}
	recs := make([]metrics.RunRecord, len(results))
	for i, res := range results {
		recs[i] = metrics.NewRunRecord(res)
	}
	return recs, nil
}
