package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	mosaic "repro"
	"repro/internal/harness"
	"repro/internal/store"
)

// simSpec is the generated input of a simulation workload: one pass is
// every cell of a policy x value grid, run to completion.
type simSpec struct {
	wl       mosaic.Workload
	base     mosaic.Config
	opt      mosaic.SimOptions // Policy is set per cell
	policies []mosaic.NamedPolicy
	// dim/values are the swept TLB dimension (tlb-sweep); oversub has a
	// single cell per policy.
	dim    string
	values []int
	// warmup, when positive, runs each policy's warmup prefix once per
	// pass, snapshots it and forks every cell of that policy from it.
	warmup uint64
	jobs   int
}

// cell is one simulation of a pass.
type cell struct {
	pi    int // index into simSpec.policies
	value int
	cfg   mosaic.Config
}

// cellOut is one cell's outcome.
type cellOut struct {
	rec     mosaic.RunRecord
	payload []byte // canonical bytes (the form the result store keeps)
	err     error
}

// tlbSweepSpec is a Figure-14-style L1 TLB sweep of GPU-MMU against
// Mosaic on two copies of NW, a strided app whose footprint overwhelms
// the base-page TLBs, with every page resident (no demand paging, so
// no GPU memory bound) and snapshot-fork on.
func tlbSweepSpec(seed int64) simSpec {
	return simSpec{
		wl:       mustWorkload("NW", "NW"),
		base:     mosaic.EvalConfig().WithoutDemandPaging(),
		opt:      mosaic.SimOptions{Seed: seed, SnapshotWarmup: 200_000},
		policies: mustPolicies("gpummu,mosaic"),
		dim:      "l1base",
		values:   []int{16, 32, 64, 128},
		warmup:   200_000,
		jobs:     runtime.NumCPU(),
	}
}

// oversubSpec runs GPU-MMU and Mosaic one at a time on two cyclic-sweep
// apps at 1.5x oversubscription, with pre-fragmented memory and a
// mid-run deallocation so CAC compacts.
func oversubSpec(seed int64) simSpec {
	wl := mustWorkload("SWP-S", "SWP-D")
	cfg := mosaic.EvalConfig()
	cfg.MaxResidentPages = mosaic.ResidentBudget(cfg, wl, 1.5)
	return simSpec{
		wl:   wl,
		base: cfg,
		opt: mosaic.SimOptions{Seed: seed, FragIndex: 1.0, FragOccupancy: 0.9,
			DeallocFraction: 0.5},
		policies: mustPolicies("gpummu,mosaic"),
		values:   []int{0},
		jobs:     1,
	}
}

func mustWorkload(apps ...string) mosaic.Workload {
	wl := mosaic.Workload{}
	for i, a := range apps {
		s, err := mosaic.AppByName(a)
		if err != nil {
			panic(err)
		}
		wl.Apps = append(wl.Apps, s)
		if i > 0 {
			wl.Name += ","
		}
		wl.Name += a
	}
	return wl
}

func mustPolicies(s string) []mosaic.NamedPolicy {
	p, err := mosaic.ParsePolicyList(s)
	if err != nil {
		panic(err)
	}
	return p
}

// cells enumerates a pass in grid order: value-major, policy-minor.
func (sp simSpec) cells() []cell {
	var out []cell
	for _, v := range sp.values {
		for pi := range sp.policies {
			cfg := sp.base
			if sp.dim != "" {
				d, err := harness.SweepDimByName(sp.dim)
				if err != nil {
					panic(err)
				}
				harness.ApplySweepDim(&cfg, sp.wl, d, v)
			}
			out = append(out, cell{pi: pi, value: v, cfg: cfg})
		}
	}
	return out
}

func (sp simSpec) simOptions(pi int) mosaic.SimOptions {
	o := sp.opt
	o.Policy = sp.policies[pi].Policy
	return o
}

// prepareSim is the set-up of a simulation workload: it generates the
// inputs and constructs every simulator of one pass once, so input
// errors surface before timing and the construction paths are warm.
func prepareSim(b *bench, sp simSpec) (any, error) {
	for _, c := range sp.cells() {
		if sp.warmup > 0 && !mosaic.CanReconfigure(sp.base, c.cfg) {
			return nil, fmt.Errorf("%s: cell %d cannot fork from the base configuration", b.workload, c.value)
		}
		cfg := c.cfg
		if sp.warmup > 0 {
			cfg = sp.base
		}
		if _, err := mosaic.NewSimulator(cfg, sp.wl, sp.simOptions(c.pi)); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// runPass runs every cell of the grid once and returns the outcomes in
// grid order.
func runPass(b *bench, sp simSpec) []cellOut {
	cells := sp.cells()
	out := make([]cellOut, len(cells))
	r := mosaic.NewRunner(sp.jobs)
	defer r.Close()
	tr := b.tr

	var snaps []*mosaic.SimSnapshot
	if sp.warmup > 0 {
		snaps = make([]*mosaic.SimSnapshot, len(sp.policies))
		errs := make([]error, len(sp.policies))
		for pi := range sp.policies {
			pi := pi
			r.Submit(func() {
				id, end := tr.begin("harness.cell", 0)
				defer end()
				wid, wend := tr.begin("sim.warmup", id)
				_, nend := tr.begin("sim.new", wid)
				s, err := mosaic.NewSimulator(sp.base, sp.wl, sp.simOptions(pi))
				nend()
				if err == nil {
					err = s.RunWarmup()
				}
				if err == nil {
					snaps[pi], err = s.Snapshot()
				}
				wend()
				errs[pi] = err
			})
		}
		r.Wait()
		for _, err := range errs {
			if !b.op(err) {
				return nil
			}
		}
	}
	for i, c := range cells {
		i, c := i, c
		r.Submit(func() {
			id, end := tr.begin("harness.cell", 0)
			defer end()
			var s *mosaic.Simulator
			var err error
			if snaps != nil {
				_, fend := tr.begin("sim.fork", id)
				s = snaps[c.pi].Fork()
				err = s.Reconfigure(c.cfg)
				fend()
			} else {
				_, nend := tr.begin("sim.new", id)
				s, err = mosaic.NewSimulator(c.cfg, sp.wl, sp.simOptions(c.pi))
				nend()
			}
			if err != nil {
				out[i].err = err
				return
			}
			_, rend := tr.begin("sim.run", id)
			res, err := s.Run()
			rend()
			if err != nil {
				out[i].err = err
				return
			}
			out[i] = encodeRecord(tr, id, res)
		})
	}
	r.Wait()
	return out
}

// mallocs returns the heap allocations made so far, in the traced run
// only: reading them stops the world.
func mallocs(b *bench) float64 {
	if b.tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// encodeRecord converts a result to its RunRecord and canonical bytes.
func encodeRecord(tr *tracer, parent int, res mosaic.Results) cellOut {
	_, end := tr.begin("metrics.record", parent)
	defer end()
	rec := mosaic.NewRunRecord(res)
	payload, err := mosaic.RunRecordPayload(rec)
	return cellOut{rec: rec, payload: payload, err: err}
}

// measureSim runs whole passes until most of the budget is spent, checks
// everything they produced, then reads the results back for the rest of
// the budget.
func measureSim(b *bench, state any, budget time.Duration) {
	sp := state.(simSpec)
	simBudget := budget * 80 / 100

	var first []cellOut
	passes := 0
	mallocs0 := mallocs(b)
	cpu0, t0 := cpuSeconds(), time.Now()
	// Run another pass only while one more of average length still fits.
	for passes == 0 || time.Since(t0)+time.Since(t0)/time.Duration(passes) <= simBudget {
		outs := runPass(b, sp)
		if outs == nil {
			return
		}
		for i, o := range outs {
			err := o.err
			if err == nil && first != nil && !bytes.Equal(o.payload, first[i].payload) {
				err = fmt.Errorf("pass %d cell %d differs from pass 1 (nondeterminism)", passes+1, i)
			}
			b.op(err)
		}
		if first == nil {
			first = outs
		}
		passes++
	}
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	allocated := mallocs(b) - mallocs0
	for _, o := range first {
		if o.err != nil {
			return
		}
	}

	var instr, cycles float64
	for _, o := range first {
		cycles += float64(o.rec.Cycles)
		for _, a := range o.rec.Apps {
			instr += float64(a.Instructions)
		}
	}
	total := instr * float64(passes)
	b.e2e["minstr_per_s"], _ = perSecond(total/1e6, wall)
	b.e2e["minstr_per_cpu_s"], _ = perSecond(total/1e6, cpu)
	b.e2e["sim_mcycles"] = cycles / 1e6
	b.e2e["cold_cells_per_s"], _ = perSecond(float64(passes*len(first)), wall)
	if v, err := speedup(recordsOf(first), len(sp.policies)); b.op(err) {
		b.e2e["mosaic_speedup"] = v
	}
	b.keepRecords(first)

	if b.endProfile != nil {
		b.endProfile()
	}
	checkSimOutputs(b, sp, first)
	readback(b, first, budget-simBudget)

	if b.tr != nil {
		b.layer["runtime.mallocs_per_kinstr"] = allocated / (total / 1e3)
		simLayers(b, sp, first, wall)
		counterLayers(b, recordsOf(first))
	}
}

func recordsOf(outs []cellOut) []mosaic.RunRecord {
	recs := make([]mosaic.RunRecord, len(outs))
	for i, o := range outs {
		recs[i] = o.rec
	}
	return recs
}

// speedup is the geometric mean, over the grid's values, of Mosaic's
// total IPC over GPU-MMU's for the same cell. recs are in grid order
// with the policies gpummu, mosaic as the minor axis.
func speedup(recs []mosaic.RunRecord, nPolicies int) (float64, error) {
	if nPolicies != 2 || len(recs)%2 != 0 {
		return 0, fmt.Errorf("speedup needs gpummu,mosaic pairs, have %d records of %d policies", len(recs), nPolicies)
	}
	var ratios []float64
	for i := 0; i < len(recs); i += 2 {
		g, m := recs[i], recs[i+1]
		if g.TotalIPC <= 0 {
			return 0, fmt.Errorf("cell %d: GPU-MMU total IPC %v", i/2, g.TotalIPC)
		}
		ratios = append(ratios, m.TotalIPC/g.TotalIPC)
	}
	return geomean(ratios)
}

// keepRecords files a pass's canonical payloads for the golden check.
func (b *bench) keepRecords(outs []cellOut) {
	b.records = map[string][]byte{}
	for _, o := range outs {
		b.records[o.rec.Workload+"|"+o.rec.Policy+"|"+o.rec.ConfigDigest] = o.payload
	}
}

// checkSimOutputs asserts the invariants every simulation must hold and
// the traffic mix the workload exists to produce.
func checkSimOutputs(b *bench, sp simSpec, outs []cellOut) {
	cells := sp.cells()
	var ev, wb, refault, compact, migrated uint64
	for i, o := range outs {
		r := o.rec
		b.check(r.TranslationFaults == 0, "%s %s: %d translation faults", r.Workload, r.Policy, r.TranslationFaults)
		for _, a := range r.Apps {
			b.check(a.Completed, "%s %s: app %s did not complete", r.Workload, r.Policy, a.Name)
		}
		if max := cells[i].cfg.MaxResidentPages; max > 0 {
			b.check(r.Manager.PeakResidentPages <= max, "%s %s: peak resident %d pages over the budget %d",
				r.Workload, r.Policy, r.Manager.PeakResidentPages, max)
		}
		ev += r.Manager.Evictions
		wb += r.Manager.WriteBacks + r.Bus.TotalWriteBacks()
		refault += r.Manager.Refaults
		compact += r.Manager.Compactions
		migrated += r.Manager.MigratedPages
	}
	switch b.workload {
	case "tlb-sweep":
		b.check(ev == 0 && wb == 0 && compact == 0,
			"tlb-sweep traffic drifted: %d evictions, %d write-backs, %d compactions (want none)", ev, wb, compact)
		// A forked cell must equal the same two-phase plan run cold.
		i := int(uint64(b.seed) % uint64(len(cells)))
		c := cells[i]
		s, err := mosaic.NewSimulator(sp.base, sp.wl, sp.simOptions(c.pi))
		if err == nil {
			err = s.RunWarmup()
		}
		if err == nil {
			err = s.Reconfigure(c.cfg)
		}
		var res mosaic.Results
		if err == nil {
			res, err = s.Run()
		}
		if b.op(err) {
			cold := encodeRecord(nil, 0, res)
			b.check(bytes.Equal(cold.payload, outs[i].payload), "forked cell %d differs from its cold two-phase run", i)
		}
	case "oversub":
		b.check(ev > 0 && wb > 0 && refault > 0 && compact > 0 && migrated > 0,
			"oversub traffic drifted: %d evictions, %d write-backs, %d refaults, %d compactions, %d migrated pages (want all > 0)",
			ev, wb, refault, compact, migrated)
	}
}

// readback serves the pass's results back the two ways a user reads
// them: from memory (a hit: the record wrapped in a Report, written and
// parsed) and from a result store on disk (a Get, then the same). Each
// read is checked against the bytes the simulation produced.
func readback(b *bench, outs []cellOut, budget time.Duration) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if !b.op(err) {
		return
	}
	defer os.RemoveAll(dir)
	disk, err := mosaic.NewDiskStore(dir)
	if !b.op(err) {
		return
	}
	var st store.ResultStore = disk
	if b.tr != nil {
		st = timedStore{ResultStore: disk, tr: b.tr}
	}
	keys := make([]store.Key, len(outs))
	for i, o := range outs {
		keys[i] = store.Key{Workload: o.rec.Workload, Policy: o.rec.Policy, ConfigDigest: o.rec.ConfigDigest}
		b.op(st.Put(keys[i], o.payload))
	}

	serve := func(i int, payload []byte) error {
		rep := mosaic.Report{SchemaVersion: mosaic.SchemaVersion, Generator: "perfbench", Seed: b.seed,
			Figures: []mosaic.ReportFigure{{ID: "run", Runs: []mosaic.RunRecord{outs[i].rec}}}}
		if payload != nil {
			var rec mosaic.RunRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return err
			}
			rep.Figures[0].Runs[0] = rec
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
		_, end := b.tr.begin("metrics.decode", 0)
		got, err := mosaic.ReadReport(&buf)
		end()
		if err != nil {
			return err
		}
		return sameRecord(got, outs[i].payload)
	}
	runtime.GC() // start each phase without the previous phase's garbage
	hits := loop(b, budget/2, len(outs), func(i int) error { return serve(i, nil) })
	runtime.GC()
	stores := loop(b, budget/2, len(outs), func(i int) error {
		p, err := st.Get(keys[i])
		if err != nil {
			return err
		}
		return serve(i, p)
	})
	latencyMetrics(b, hits, stores)
	if b.tr != nil {
		storeLayers(b, st)
	}
}

// loop calls fn round-robin over n keys until budget has passed and at
// least enough samples for a p90 with minTailSamples beyond it exist,
// and returns each call's latency in milliseconds. A failed call counts
// as a failed operation and contributes no latency.
func loop(b *bench, budget time.Duration, n int, fn func(i int) error) []float64 {
	minN := 10 * (minTailSamples + 1) // enough for the p90
	var lat []float64
	t0 := time.Now()
	for i := 0; len(lat) < minN || time.Since(t0) < budget; i++ {
		s := time.Now()
		err := fn(i % n)
		d := time.Since(s)
		if b.op(err) {
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
		if b.failed > 100 {
			break
		}
	}
	return lat
}

// latencyMetrics sets hit_ms_p50/p90 and store_ms_p50. The hit tail is
// read at p90: on a shared two-vCPU host p99 moved by a quarter between
// runs of the same code, p90 by about a tenth.
func latencyMetrics(b *bench, hits, stores []float64) {
	if v, err := percentile(hits, 0.5, minTailSamples); b.op(err) {
		b.e2e["hit_ms_p50"] = v
	}
	if v, err := percentile(hits, 0.9, minTailSamples); b.op(err) {
		b.e2e["hit_ms_p90"] = v
	}
	if v, err := percentile(stores, 0.5, minTailSamples); b.op(err) {
		b.e2e["store_ms_p50"] = v
	}
}

// sameRecord checks that a served report holds exactly one run whose
// canonical bytes equal want.
func sameRecord(rep mosaic.Report, want []byte) error {
	if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
		return fmt.Errorf("served report has %d figures, want 1 with 1 run", len(rep.Figures))
	}
	got, err := mosaic.RunRecordPayload(rep.Figures[0].Runs[0])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served record %s/%s differs from the simulated one", rep.Figures[0].Runs[0].Workload, rep.Figures[0].Runs[0].Policy)
	}
	return nil
}

// simLayers sets the span-derived sim and harness metrics of a pass.
func simLayers(b *bench, sp simSpec, first []cellOut, wall float64) {
	tr := b.tr
	b.layer["sim.new_ms"] = median(tr.durations("sim.new"))
	b.layer["sim.run_ms_p50"] = median(tr.durations("sim.run"))
	b.layer["sim.warmup_ms"] = median(tr.durations("sim.warmup"))
	b.layer["sim.fork_ms"] = median(tr.durations("sim.fork"))
	// Host time per simulated cycle of Run; a forked Run simulates only
	// the cycles after the shared warmup.
	var cyc float64
	for _, o := range first {
		cyc += float64(o.rec.Cycles - sp.warmup)
	}
	runs := tr.durations("sim.run")
	if passes := float64(len(runs)) / float64(len(first)); cyc > 0 && passes > 0 {
		b.layer["sim.ns_per_cycle"] = sum(runs) * 1e6 / (cyc * passes)
	}
	b.layer["harness.parallel_eff"] = sum(tr.durations("harness.cell")) / 1e3 / (wall * float64(sp.jobs))
	b.layer["metrics.record_us"] = median(tr.durations("metrics.record")) * 1e3
	b.layer["metrics.decode_us"] = median(tr.durations("metrics.decode")) * 1e3
}

// storeLayers sets the store metrics from the decorator's spans and the
// store's own counters.
func storeLayers(b *bench, st store.ResultStore) {
	b.layer["store.get_us_p50"] = median(b.tr.durations("store.get")) * 1e3
	b.layer["store.put_us_p50"] = median(b.tr.durations("store.put")) * 1e3
	c := st.Counters()
	b.layer["store.gets"] += float64(c.Gets)
	b.layer["store.puts"] += float64(c.Puts)
}

// counterLayers sums the simulator's own counters over one pass; the
// TLB hit rates (request granularity) are averaged over its cells.
func counterLayers(b *bench, recs []mosaic.RunRecord) {
	var l1, l2, walkLat, rowHits float64
	add := func(k string, v float64) { b.layer[k] += v }
	for _, r := range recs {
		l1 += r.L1TLBHitRate
		l2 += r.L2TLBHitRate
		add("tlb.lookups", float64(r.L1TLB.Lookups()+r.L2TLB.Lookups()))
		add("walker.walks", float64(r.Walker.Walks))
		add("walker.coalesced", float64(r.Walker.Coalesced))
		walkLat += float64(r.Walker.TotalLatency)
		add("dram.accesses", float64(r.DRAM.Accesses))
		rowHits += float64(r.DRAM.RowHits)
		add("dram.bulk_copies", float64(r.DRAM.BulkCopies))
		add("iobus.transfers", float64(r.Bus.TotalTransfers()))
		add("iobus.write_backs", float64(r.Bus.TotalWriteBacks()))
		add("iobus.busy_mcycles", float64(r.Bus.BusyCycles)/1e6)
		add("iobus.queue_delay_mcycles", float64(r.Bus.TotalQueueDelay)/1e6)
		m := r.Manager
		add("core.far_faults", float64(m.FarFaults))
		add("core.evictions", float64(m.Evictions))
		add("core.write_backs", float64(m.WriteBacks))
		add("core.refaults", float64(m.Refaults))
		add("core.coalesces", float64(m.Coalesces))
		add("core.compactions", float64(m.Compactions))
		add("core.migrated_pages", float64(m.MigratedPages))
		add("core.stall_mcycles", float64(m.StallCycles)/1e6)
		a := r.Allocator
		add("alloc.region_allocs", float64(a.RegionAllocs))
		add("alloc.base_allocs", float64(a.BaseAllocs))
		add("alloc.frees", float64(a.Frees))
		add("alloc.free_fallbacks", float64(a.FreeFallbacks))
	}
	if n := float64(len(recs)); n > 0 {
		b.layer["tlb.l1_hit_rate"] = l1 / n
		b.layer["tlb.l2_hit_rate"] = l2 / n
	}
	if w := b.layer["walker.walks"]; w > 0 {
		b.layer["walker.avg_cycles"] = walkLat / w
	}
	if a := b.layer["dram.accesses"]; a > 0 {
		b.layer["dram.row_hit_rate"] = rowHits / a
	}
}
