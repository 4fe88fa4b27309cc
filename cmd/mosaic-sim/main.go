// Command mosaic-sim runs one multi-application workload on the simulated
// GPU under a chosen memory manager and prints detailed results. With
// -server it submits the same runs to a mosaicd instance instead of
// simulating locally: a single policy is one queued job, several
// policies ("-policy all") go up as one campaign whose cells the
// service deduplicates against its digest-keyed cache and result store
// — the printed results and -record exports are byte-identical either
// way. With -record-store a local run also files its records into a
// result store on disk, prewarming the store a daemon reads.
//
// Examples:
//
//	mosaic-sim -apps HS,CONS -policy mosaic
//	mosaic-sim -apps NW -policy gpummu-2mb -nopaging
//	mosaic-sim -apps BFS2,SCAN,RED -policy all -scale 32
//	mosaic-sim -apps HS,CONS -policy all -record runs.json
//	mosaic-sim -server http://127.0.0.1:8641 -apps HS,CONS -policy mosaic
//	mosaic-sim -apps HS,CONS -policy all -record-store /var/lib/mosaic/store
//	mosaic-sim -apps SWP-S,SWP-D -oversub 1.5 -frag 1 -cpuprofile cpu.pprof
//	mosaic-sim -apps SWP-S,SWP-D -policy fifo-mmu -oversub 2   # Mosaic, FIFO eviction
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	mosaic "repro"
	"repro/internal/cliutil"
	"repro/internal/config"
	"repro/internal/server"
)

func main() {
	var (
		apps      = flag.String("apps", "HS,CONS", "comma-separated application names (see -list)")
		policy    = flag.String("policy", "mosaic", "memory manager: "+strings.Join(mosaic.PolicyNames(), " | ")+" | all")
		scale     = flag.Int("scale", 0, "working-set scale divisor (0 = config default)")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		nopaging  = flag.Bool("nopaging", false, "disable demand paging (all data resident)")
		oversub   = flag.Float64("oversub", 0, "oversubscription ratio: bound GPU memory to workingset/ratio pages (0 = unbounded)")
		frag      = flag.Float64("frag", 0, "pre-fragmentation index [0,1] (§6.4 stress)")
		fragOcc   = flag.Float64("frag-occupancy", 0.5, "pre-fragmented frame occupancy [0,1]")
		dealloc   = flag.Float64("dealloc", 0, "fraction of a scratch buffer freed mid-run (splinters coalesced regions; CAC compacts only with -frag)")
		snapWarm  = flag.Uint64("snapshot-warmup", 0, "run as a two-phase plan: warm up to this cycle, quiesce, then measure (0 = single-phase; changes the config digest)")
		traceOut  = flag.String("trace", "", "write a JSON event trace to this file (local runs only)")
		recordOut = flag.String("record", "", "write the runs' structured records as a JSON report to this file (see docs/RESULTS_SCHEMA.md)")
		storeDir  = flag.String("record-store", "", "also file each run's record into the result store rooted at this directory, under the same key a mosaicd would use (local runs only; prewarms a daemon's store)")
		serverURL = flag.String("server", "", "submit to this mosaicd URL instead of simulating locally (see docs/SERVICE.md)")
		timeout   = flag.Duration("timeout", 0, "with -server: per-job deadline covering queue wait and run (0 = server default)")
		list      = flag.Bool("list", false, "list the 27 suite applications and exit")
		prof      = cliutil.ProfileFlags(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-6s %-8s %10s %8s %8s\n", "name", "pattern", "workingset", "cpm", "diverg")
		for _, s := range append(mosaic.Suite(), mosaic.OversubSuite()...) {
			fmt.Printf("%-6s %-8s %8dMB %8d %8d\n",
				s.Name, s.Pattern, s.WorkingSetBytes>>20, s.ComputePerMem, s.Divergence)
		}
		return
	}

	policies, err := mosaic.ParsePolicyList(*policy)
	if err != nil {
		fatal(err)
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must be non-negative"))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()
	// One request carries every run option: -server sends it as is, and
	// a local run resolves it through server.Resolve exactly as mosaicd
	// would, so both modes run, print and file the same simulation.
	req := mosaic.RunRequest{
		Apps:                 strings.Split(*apps, ","),
		Seed:                 *seed,
		Scale:                *scale,
		NoPaging:             *nopaging,
		FragIndex:            *frag,
		FragOccupancy:        *fragOcc,
		DeallocFraction:      *dealloc,
		Oversub:              *oversub,
		SnapshotWarmupCycles: *snapWarm,
		TimeoutMS:            timeout.Milliseconds(),
	}

	if *serverURL != "" {
		if *traceOut != "" {
			fatal(fmt.Errorf("-trace is not supported with -server (traces never leave the service)"))
		}
		if *storeDir != "" {
			fatal(fmt.Errorf("-record-store is local-only: with -server the service persists results into its own store"))
		}
		var recs []mosaic.RunRecord
		client := mosaic.NewServiceClient(*serverURL)
		if len(policies) == 1 {
			req.Policy = policies[0].Wire
			rep, err := client.Run(context.Background(), req)
			if err != nil {
				fatal(err)
			}
			for _, fig := range rep.Figures {
				recs = append(recs, fig.Runs...)
			}
		} else {
			// Several policies are one campaign over the policy axis:
			// the service plans and runs the cells, and their records
			// come back in grid (= policy) order, so the printed reports
			// come back in the same order a local run prints.
			names := make([]string, len(policies))
			for i, p := range policies {
				names[i] = p.Wire
			}
			recs, err = client.RunCampaignRecords(context.Background(),
				mosaic.CampaignRequest{Base: req, Policies: names})
			if err != nil {
				fatal(err)
			}
		}
		for _, rec := range recs {
			reportRecord(rec)
		}
		writeRecordsIfAsked(*recordOut, *apps, *seed, recs)
		return
	}

	var resultStore *mosaic.DiskStore
	if *storeDir != "" {
		if resultStore, err = mosaic.NewDiskStore(*storeDir); err != nil {
			fatal(err)
		}
	}
	var recs []mosaic.RunRecord
	for _, p := range policies {
		req.Policy = p.Wire
		plan, err := server.Resolve(config.Eval, req)
		if err != nil {
			fatal(err)
		}
		opt := plan.Options
		if *traceOut != "" {
			opt.TraceLimit = 1 << 20 // digest-exempt: tracing never changes a result
		}
		res, err := mosaic.Run(plan.Config, plan.Workload, opt)
		if err != nil {
			fatal(err)
		}
		rec := mosaic.NewRunRecord(res)
		reportRecord(rec)
		recs = append(recs, rec)
		if resultStore != nil {
			if err := fileRecord(resultStore, plan.Key, rec); err != nil {
				fatal(err)
			}
		}
		if *traceOut != "" && res.Trace != nil {
			if err := writeTrace(*traceOut, res); err != nil {
				fatal(err)
			}
		}
	}
	writeRecordsIfAsked(*recordOut, *apps, *seed, recs)
}

// fileRecord puts one run's record into the result store under its
// plan's key — the key a daemon files the same request under — so the
// store can later serve that request without re-simulating. A duplicate
// write of identical bytes is a no-op; divergent bytes are an error the
// store refuses (and quarantines), surfaced here.
func fileRecord(st *mosaic.DiskStore, key mosaic.ResultKey, rec mosaic.RunRecord) error {
	payload, err := mosaic.RunRecordPayload(rec)
	if err != nil {
		return fmt.Errorf("record-store: encoding record: %w", err)
	}
	if err := st.Put(key, payload); err != nil {
		return fmt.Errorf("record-store: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func writeRecordsIfAsked(path, apps string, seed int64, recs []mosaic.RunRecord) {
	if path == "" {
		return
	}
	if err := writeRecords(path, apps, seed, recs); err != nil {
		fatal(err)
	}
}

// writeRecords exports the runs as a one-figure report, diffable with
// mosaic-report like any mosaic-bench export. Local and -server runs of
// the same flags export identical reports.
func writeRecords(path, apps string, seed int64, recs []mosaic.RunRecord) error {
	rep := mosaic.Report{
		SchemaVersion: mosaic.SchemaVersion,
		Generator:     "mosaic-sim",
		Seed:          seed,
		Apps:          strings.Split(apps, ","),
		Figures: []mosaic.ReportFigure{{
			ID:    "sim",
			Title: "mosaic-sim " + apps,
			Runs:  recs,
		}},
	}
	return cliutil.WriteFile(path, rep.WriteJSON)
}

// writeTrace dumps the run's event trace as JSON (one file per policy
// when several run: the policy name is appended).
func writeTrace(path string, res mosaic.Results) error {
	name := path + "." + res.Policy + ".json"
	if err := cliutil.WriteFile(name, func(w io.Writer) error {
		return res.Trace.WriteJSON(w)
	}); err != nil {
		return err
	}
	sum := mosaic.SummarizeTrace(res.Trace.Events())
	fmt.Printf("trace: %d events (%d dropped) -> %s; walks avg %.0f cyc, faults avg %.0f cyc\n",
		res.Trace.Len(), res.Trace.Dropped(), name, sum.AvgWalkLat, sum.AvgFaultLat)
	return nil
}

// reportRecord prints one run's record; local runs and -server fetches
// both print through it, so their output is identical.
func reportRecord(r mosaic.RunRecord) {
	fmt.Printf("=== %s on %s ===\n", r.Policy, r.Workload)
	fmt.Printf("cycles: %d   total IPC: %.3f\n", r.Cycles, r.TotalIPC)
	for i, a := range r.Apps {
		fmt.Printf("  app %d %-6s  IPC %.3f  instrs %d  finish @%d  bloat %.1f%%  (%s)\n",
			i+1, a.Name, a.IPC, a.Instructions, a.FinishCycle, a.BloatPct, appStatus(a.Completed))
	}
	fmt.Printf("TLB: L1 %.1f%%  L2 %.1f%%  | walks %d (avg %.0f cyc)  walk faults %d\n",
		r.L1TLBHitRate*100, r.L2TLBHitRate*100,
		r.Walker.Walks, r.Walker.AvgLatency(), r.TranslationFaults)
	m, b, d := r.Manager, r.Bus, r.DRAM
	fmt.Printf("manager: coalesces %d  splinters %d  compactions %d  migrated %d  far-faults %d\n",
		m.Coalesces, m.Splinters, m.Compactions, m.MigratedPages, m.FarFaults)
	if m.Evictions > 0 || m.Refaults > 0 {
		fmt.Printf("paging: evictions %d (%d pages)  write-backs %d  clean drops %d  refaults %d  peak resident %d\n",
			m.Evictions, m.EvictedPages, m.WriteBacks, m.CleanDrops, m.Refaults, m.PeakResidentPages)
	}
	fmt.Printf("I/O bus: 4KB transfers %d  2MB transfers %d  busy %d cyc  queue delay %d cyc\n",
		b.BaseTransfers, b.LargeTransfers, b.BusyCycles, b.TotalQueueDelay)
	fmt.Printf("DRAM: accesses %d  row hits %.1f%%\n\n",
		d.Accesses, pct(d.RowHits, d.Accesses))
}

func appStatus(completed bool) string {
	if completed {
		return "completed"
	}
	return "TIMED OUT"
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
