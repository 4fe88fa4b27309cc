// Command mosaic-sweep sweeps one hardware parameter across a range of
// values and reports each memory manager's throughput — a generalization
// of the paper's Figure 14/15 sensitivity studies to any knob. With
// -server the whole grid is submitted as one campaign to a mosaicd
// worker or coordinator fleet instead of simulating locally; the
// reassembled output is byte-identical to the local run.
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
	"bytes"
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
	"repro/internal/sim"

	// Linking a policy package registers it; FIFO-MMU is the out-of-tree
	// proof policy, selectable via -policies fifo-mmu.
	_ "repro/internal/policies/fifoevict"
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
		snapWarm  = flag.Uint64("snapshot-warmup", 0, "amortize warmup across cells: run each policy's warmup prefix of this many cycles once, snapshot it, and fork it per swept value (TLB dimensions only; 0 = off; changes the config digests)")
		snapCold  = flag.Bool("snapshot-cold", false, "with -snapshot-warmup: run each cell's two-phase plan cold instead of forking the shared snapshot; output must be byte-identical to the forked run (the determinism comparison arm)")
		serverURL = flag.String("server", "", "submit the grid as one campaign to this mosaicd or coordinator URL instead of simulating locally (see docs/SERVICE.md)")
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

	// The registry parser accepts every linked-in policy, so a manager
	// registered outside internal/core sweeps like a built-in.
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
	// fleet: a local sweep plans it with the daemon's PlanCampaign, so
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
		if *snapWarm > 0 || *snapCold {
			fmt.Fprintln(os.Stderr, "-snapshot-warmup/-snapshot-cold are local-only: a campaign's cells are single-phase runs (the fleet's store amortizes repeat cells instead)")
			os.Exit(1)
		}
		recs = runCampaign(*serverURL, creq)
	} else {
		recs, err = runLocal(creq, d, *jobs, *snapWarm, *snapCold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	tbl := metrics.Table{
		Title:   fmt.Sprintf("sweep of %s (%s) — total IPC", *dim, d.Desc),
		Columns: append([]string{*dim}, polNames...),
	}
	var runs []metrics.RunRecord
	for vi, vs := range valStrs {
		row := []float64{}
		for pi := range polNames {
			rec := recs[vi*len(polNames)+pi]
			row = append(row, rec.TotalIPC)
			rec.Workload = fmt.Sprintf("%s=%s/%s", *dim, vs, rec.Workload)
			runs = append(runs, rec)
		}
		tbl.AddRowF(vs, row...)
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

// runCampaign submits the grid as one campaign and returns the per-cell
// records in grid order. Cell events arrive with the full result report
// of each cell; a failed or canceled cell aborts the sweep.
func runCampaign(url string, req mosaic.CampaignRequest) []metrics.RunRecord {
	client := mosaic.NewServiceClient(url)
	events, err := client.RunCampaign(context.Background(), req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	recs := make([]metrics.RunRecord, len(events))
	for i, ev := range events {
		if ev.State != mosaic.JobDone {
			fmt.Fprintf(os.Stderr, "cell %d (%s, %s): %s %s\n", i, ev.Workload, ev.Policy, ev.State, ev.Error)
			os.Exit(1)
		}
		rep, err := metrics.ReadReport(bytes.NewReader(ev.Result))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cell %d: parsing result: %v\n", i, err)
			os.Exit(1)
		}
		if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
			fmt.Fprintf(os.Stderr, "cell %d: malformed result report\n", i)
			os.Exit(1)
		}
		recs[i] = rep.Figures[0].Runs[0]
	}
	return recs
}

// runLocal runs the campaign's grid here on a pool of jobs workers and
// returns the per-cell records in grid order, so the output matches a
// sequential run for every jobs value. With warmup > 0 (and every cell
// differing from the base request only in TLB knobs) each cell runs as
// a two-phase plan warmed under the resolved base: forked from one
// warmed snapshot per policy, or cold — byte-identical output.
func runLocal(creq mosaic.CampaignRequest, d harness.SweepDim, jobs int, warmup uint64, cold bool) ([]metrics.RunRecord, error) {
	cells, err := server.PlanCampaign(config.Eval, creq)
	if err != nil {
		return nil, err
	}
	nPol := len(creq.Policies)
	var base server.Plan
	if warmup > 0 {
		if base, err = server.Resolve(config.Eval, creq.Base); err != nil {
			return nil, err
		}
		eligible := d.Apply != nil
		for _, c := range cells {
			eligible = eligible && mosaic.CanReconfigure(base.Config, c.Config)
		}
		if !eligible {
			fmt.Fprintf(os.Stderr, "-snapshot-warmup ignored: dimension %q changes non-TLB knobs\n", creq.Dim)
			warmup = 0
		}
	}
	// twoPhase is a cell's plan with the warmup prefix turned on.
	twoPhase := func(c server.PlannedCell) mosaic.SimOptions {
		opt := c.Options
		opt.SnapshotWarmup = warmup
		return opt
	}

	r := mosaic.NewRunner(jobs)
	defer r.Close()
	errs := make([]error, len(cells))
	var snaps []*mosaic.SimSnapshot
	if warmup > 0 && !cold {
		// Row 0 holds one cell per policy; its options are every row's.
		snaps = make([]*mosaic.SimSnapshot, nPol)
		for pi := range snaps {
			pi := pi
			r.Submit(func() {
				snaps[pi], errs[pi] = sim.WarmSnapshot(base.Config, base.Workload, twoPhase(cells[pi]))
			})
		}
		r.Wait()
		if err := firstErr(errs); err != nil {
			return nil, err
		}
	}
	results := make([]mosaic.Results, len(cells))
	for i, c := range cells {
		i, c := i, c
		r.Submit(func() {
			if warmup == 0 {
				results[i], errs[i] = mosaic.Run(c.Config, c.Workload, c.Options)
				return
			}
			var snap *mosaic.SimSnapshot
			if snaps != nil {
				snap = snaps[i%nPol]
			}
			results[i], errs[i] = sim.RunTwoPhase(snap, base.Config, c.Workload, twoPhase(c), c.Config)
		})
	}
	r.Wait()
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	recs := make([]metrics.RunRecord, len(cells))
	for i, res := range results {
		recs[i] = metrics.NewRunRecord(res)
	}
	return recs, nil
}

// firstErr returns the first non-nil error in grid order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
