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
	"repro/internal/harness"
	"repro/internal/metrics"

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

	var specs []mosaic.AppSpec
	var appNames []string
	for _, name := range strings.Split(*apps, ",") {
		s, err := mosaic.AppByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		specs = append(specs, s)
		appNames = append(appNames, strings.TrimSpace(name))
	}
	wl := mosaic.Workload{Name: *apps, Apps: specs}

	// The registry parser accepts every linked-in policy, so a manager
	// registered outside internal/core sweeps like a built-in.
	parsed, err := mosaic.ParsePolicyList(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var pols []mosaic.Policy
	var polNames, wireNames []string
	for _, p := range parsed {
		pols = append(pols, p.Policy)
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

	// Each cell resolves to one RunRecord; recs is in grid order
	// (value-major, the campaign cell order) whether the grid ran here
	// or on a fleet, so every output format is byte-identical either way.
	var recs []metrics.RunRecord
	if *serverURL != "" {
		if *snapWarm > 0 || *snapCold {
			fmt.Fprintln(os.Stderr, "-snapshot-warmup/-snapshot-cold are local-only: a campaign's cells are single-phase runs (the fleet's store amortizes repeat cells instead)")
			os.Exit(1)
		}
		recs = runCampaign(*serverURL, mosaic.CampaignRequest{
			Base:     mosaic.RunRequest{Apps: appNames, Seed: *seed, NoPaging: *nopaging},
			Policies: wireNames,
			Dim:      *dim,
			Values:   vals,
		})
	} else {
		recs = runLocal(d, wl, pols, vals, localOptions{
			seed: *seed, nopaging: *nopaging, jobs: *jobs,
			warmup: *snapWarm, cold: *snapCold, dimName: *dim,
		})
	}

	tbl := metrics.Table{
		Title:   fmt.Sprintf("sweep of %s (%s) — total IPC", *dim, d.Desc),
		Columns: append([]string{*dim}, polNames...),
	}
	var runs []metrics.RunRecord
	for vi, vs := range valStrs {
		row := []float64{}
		for pi := range pols {
			rec := recs[vi*len(pols)+pi]
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

// localOptions carries the local-execution knobs of the sweep.
type localOptions struct {
	seed     int64
	nopaging bool
	jobs     int
	warmup   uint64
	cold     bool
	dimName  string
}

// runLocal runs the whole value x policy grid on a worker pool and
// returns the per-cell records in grid order, so the output matches a
// sequential run for every -jobs value. In snapshot-warmup mode a first
// round runs one warmup prefix per policy; the grid round then forks
// each cell from its policy's snapshot (or, with -snapshot-cold,
// re-runs the two-phase plan from scratch — byte-identical output).
func runLocal(d harness.SweepDim, wl mosaic.Workload, pols []mosaic.Policy, vals []int, opt localOptions) []metrics.RunRecord {
	// The base configuration is the shared prefix of every cell; cellCfg
	// materializes one swept value on top of it via the shared dimension
	// registry — the same mutation a campaign cell applies server-side.
	baseCfg := mosaic.EvalConfig()
	if opt.nopaging {
		baseCfg.IOBusEnabled = false
	}
	cellCfg := func(v int) mosaic.Config {
		cfg := baseCfg
		harness.ApplySweepDim(&cfg, wl, d, v)
		return cfg
	}

	// Snapshot-warmup mode applies only when every cell differs from the
	// base configuration in reconfigurable (TLB) knobs alone — otherwise
	// the cells share no warmup prefix and the flag is ignored.
	warmup := opt.warmup
	if warmup > 0 {
		eligible := d.Apply != nil
		for _, v := range vals {
			if eligible && !mosaic.CanReconfigure(baseCfg, cellCfg(v)) {
				eligible = false
			}
		}
		if !eligible {
			fmt.Fprintf(os.Stderr, "-snapshot-warmup ignored: dimension %q changes non-TLB knobs\n", opt.dimName)
			warmup = 0
		}
	}

	type cell struct {
		res mosaic.Results
		err error
	}
	cells := make([]cell, len(vals)*len(pols))
	r := mosaic.NewRunner(opt.jobs)
	var snaps []*mosaic.SimSnapshot
	if warmup > 0 && !opt.cold {
		snaps = make([]*mosaic.SimSnapshot, len(pols))
		warmErrs := make([]error, len(pols))
		for pi := range pols {
			pi := pi
			r.Submit(func() {
				s, err := mosaic.NewSimulator(baseCfg, wl,
					mosaic.SimOptions{Policy: pols[pi], Seed: opt.seed, SnapshotWarmup: warmup})
				if err == nil {
					err = s.RunWarmup()
				}
				if err == nil {
					snaps[pi], err = s.Snapshot()
				}
				warmErrs[pi] = err
			})
		}
		r.Wait()
		for _, err := range warmErrs {
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	for i := range cells {
		i := i
		r.Submit(func() {
			v := vals[i/len(pols)]
			pol := pols[i%len(pols)]
			if warmup > 0 {
				var s *mosaic.Simulator
				var err error
				if snaps != nil {
					s = snaps[i%len(pols)].Fork()
				} else {
					s, err = mosaic.NewSimulator(baseCfg, wl,
						mosaic.SimOptions{Policy: pol, Seed: opt.seed, SnapshotWarmup: warmup})
					if err == nil {
						err = s.RunWarmup()
					}
				}
				if err == nil {
					err = s.Reconfigure(cellCfg(v))
				}
				var res mosaic.Results
				if err == nil {
					res, err = s.Run()
				}
				cells[i] = cell{res: res, err: err}
				return
			}
			res, err := mosaic.Run(cellCfg(v), wl, mosaic.SimOptions{Policy: pol, Seed: opt.seed})
			cells[i] = cell{res: res, err: err}
		})
	}
	r.Wait()
	r.Close()

	recs := make([]metrics.RunRecord, len(cells))
	for i, c := range cells {
		if c.err != nil {
			fmt.Fprintln(os.Stderr, c.err)
			os.Exit(1)
		}
		recs[i] = metrics.NewRunRecord(c.res)
	}
	return recs
}
