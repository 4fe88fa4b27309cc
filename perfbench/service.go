package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	mosaic "repro"
	"repro/internal/harness"
	"repro/internal/store"
)

// serviceSpec is the generated input of the service workload: campaigns
// over a policy x l1base grid, each with its own seed so every cell of
// every campaign is cold.
type serviceSpec struct {
	apps     []string
	policies []string
	dim      string
	values   []int
	scale    int
	seed     int64
	workers  int
}

func serviceSpecFor(seed int64) serviceSpec {
	return serviceSpec{
		apps:     []string{"NW", "HS"},
		policies: []string{"gpummu", "mosaic"},
		dim:      "l1base",
		values:   []int{16, 64},
		scale:    64,
		seed:     seed,
		workers:  runtime.NumCPU(),
	}
}

// campaign returns the k-th campaign of the run.
func (sp serviceSpec) campaign(k int) mosaic.CampaignRequest {
	return mosaic.CampaignRequest{
		Base:     mosaic.RunRequest{Apps: sp.apps, Seed: sp.seed*1000 + int64(k), Scale: sp.scale},
		Policies: sp.policies,
		Dim:      sp.dim,
		Values:   sp.values,
	}
}

// cellRequest is the single-run request equal to cell i of a campaign.
func cellRequest(c mosaic.CampaignRequest, i int) mosaic.RunRequest {
	r := c.Base
	r.Policy = c.Policies[i%len(c.Policies)]
	r.Dim = c.Dim
	r.DimValue = c.Values[i/len(c.Policies)]
	return r
}

// serviceState is what the service set-up builds: a result store in a
// fresh directory and a daemon over it with one client.
type serviceState struct {
	spec   serviceSpec
	dir    string
	store  store.ResultStore
	d      *daemon
	client *mosaic.ServiceClient
}

func (s *serviceState) close() {
	if s.d != nil {
		s.d.stop()
	}
	os.RemoveAll(s.dir)
}

// prepareService is the set-up of the service workload: it resolves the
// first campaign's cells to their result identities, constructs each
// cell's simulator once, opens a disk store in a fresh directory and
// starts a daemon with one client over it.
func prepareService(b *bench) (any, error) {
	sp := serviceSpecFor(b.seed)
	c := sp.campaign(0)
	for i := 0; i < len(sp.values)*len(sp.policies); i++ {
		req := cellRequest(c, i)
		if _, err := mosaic.RunStoreKey(req); err != nil {
			return nil, err
		}
		cfg, wl, opt, err := localRun(req)
		if err != nil {
			return nil, err
		}
		if _, err := mosaic.NewSimulator(cfg, wl, opt); err != nil {
			return nil, err
		}
	}
	st := &serviceState{spec: sp}
	var err error
	if st.dir, err = os.MkdirTemp(workDir, "service-"); err != nil {
		return nil, err
	}
	disk, err := mosaic.NewDiskStore(st.dir)
	if err != nil {
		st.close()
		return nil, err
	}
	st.store = disk
	if b.tr != nil {
		st.store = timedStore{ResultStore: disk, tr: b.tr}
	}
	if st.d, err = startDaemon(st.store, 0, sp.workers, b.tr); err != nil {
		st.close()
		return nil, err
	}
	st.client = newClient(st.d.url, b.tr)
	if err := st.client.Health(context.Background()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// localRun resolves a request the way the daemon does, for a local run
// of the same simulation.
func localRun(req mosaic.RunRequest) (mosaic.Config, mosaic.Workload, mosaic.SimOptions, error) {
	cfg := mosaic.EvalConfig()
	if req.Scale > 0 {
		cfg.WorkloadScale = req.Scale
	}
	wl := mustWorkload(req.Apps...)
	d, err := harness.SweepDimByName(req.Dim)
	if err != nil {
		return cfg, wl, mosaic.SimOptions{}, err
	}
	harness.ApplySweepDim(&cfg, wl, d, req.DimValue)
	p, err := mosaic.ParsePolicy(req.Policy)
	return cfg, wl, mosaic.SimOptions{Policy: p, Seed: req.Seed}, err
}

// servedKey is one completed result the client asks for again, with the
// canonical bytes the answer must carry.
type servedKey struct {
	req  mosaic.RunRequest
	want []byte
}

// measureService runs the three phases: (a) cold campaigns streamed
// back, (b) cache hits round-robin over every completed cell, and (c)
// the same requests against a daemon restarted on the same store with a
// cache too small to hold them, so every answer comes from the store.
func measureService(b *bench, state any, budget time.Duration) {
	st := state.(*serviceState)
	defer st.close()
	sp := st.spec

	// (a) cold campaigns.
	var keys []servedKey
	var firstRecs []mosaic.RunRecord
	var instr float64
	cells := 0
	mallocs0 := mallocs(b)
	cpu0, t0 := cpuSeconds(), time.Now()
	for k := 0; k == 0 || time.Since(t0) < budget/2; k++ {
		recs, ks, ok := coldCampaign(b, st.client, sp.campaign(k))
		if !ok {
			return
		}
		if k == 0 {
			firstRecs = recs
		}
		keys = append(keys, ks...)
		cells += len(recs)
		for _, r := range recs {
			for _, a := range r.Apps {
				instr += float64(a.Instructions)
			}
		}
	}
	wallA, cpuA := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	allocated := mallocs(b) - mallocs0
	b.e2e["minstr_per_s"], _ = perSecond(instr/1e6, wallA)
	b.e2e["minstr_per_cpu_s"], _ = perSecond(instr/1e6, cpuA)
	b.e2e["cold_cells_per_s"], _ = perSecond(float64(cells), wallA)
	var cycles float64
	for _, r := range firstRecs {
		cycles += float64(r.Cycles)
	}
	b.e2e["sim_mcycles"] = cycles / 1e6
	if v, err := speedup(firstRecs, len(sp.policies)); b.op(err) {
		b.e2e["mosaic_speedup"] = v
	}
	outs := make([]cellOut, len(firstRecs))
	for i, r := range firstRecs {
		outs[i].rec, outs[i].payload = r, keys[i].want
	}
	b.keepRecords(outs)

	// (b) cache hits on the daemon that ran the campaigns.
	runtime.GC() // start each phase without the previous phase's garbage
	m0 := scrape(b, st.client)
	hits, rttB := serveLoop(b, st.client, keys, budget/4)
	m1 := scrape(b, st.client)
	n := float64(len(hits))
	b.check(delta(m0, m1, "mosaicd_cache_hits_total") == n && delta(m0, m1, "mosaicd_runs_completed_total") == 0 &&
		delta(m0, m1, "mosaicd_store_serves_total") == 0,
		"phase (b) traffic drifted: %v cache hits, %v simulations, %v store serves for %v requests (want all cache hits)",
		delta(m0, m1, "mosaicd_cache_hits_total"), delta(m0, m1, "mosaicd_runs_completed_total"),
		delta(m0, m1, "mosaicd_store_serves_total"), n)
	rejected := delta(nil, m1, "mosaicd_jobs_rejected_total")
	serverTotals := map[string]float64{}
	addTotals(serverTotals, m1)

	// (c) store serves on a restarted daemon whose cache holds a quarter
	// of the keys, so round-robin requests always miss it.
	err := st.d.stop()
	st.d = nil
	if !b.op(err) {
		return
	}
	if st.d, err = startDaemon(st.store, max(1, len(keys)/4), sp.workers, b.tr); !b.op(err) {
		return
	}
	st.client = newClient(st.d.url, b.tr)
	runtime.GC()
	m2 := scrape(b, st.client)
	stores, rttC := serveLoop(b, st.client, keys, budget/4)
	m3 := scrape(b, st.client)
	n = float64(len(stores))
	b.check(delta(m2, m3, "mosaicd_store_serves_total") == n && delta(m2, m3, "mosaicd_cache_hits_total") == 0 &&
		delta(m2, m3, "mosaicd_runs_completed_total") == 0,
		"phase (c) traffic drifted: %v store serves, %v cache hits, %v simulations for %v requests (want all from the store)",
		delta(m2, m3, "mosaicd_store_serves_total"), delta(m2, m3, "mosaicd_cache_hits_total"),
		delta(m2, m3, "mosaicd_runs_completed_total"), n)
	rejected += delta(nil, m3, "mosaicd_jobs_rejected_total")
	addTotals(serverTotals, m3)
	// A 429 is retried inside Client.Run; count each as a failed operation.
	for i := 0; i < int(rejected); i++ {
		b.op(errors.New("daemon rejected a submission (HTTP 429)"))
	}
	latencyMetrics(b, hits, stores)

	// Output check: one sampled cell equals a local run of its request.
	i := int(uint64(b.seed) % uint64(len(firstRecs)))
	req := cellRequest(sp.campaign(0), i)
	cfg, wl, opt, err := localRun(req)
	var local cellOut
	if b.op(err) {
		id, end := b.tr.begin("harness.cell", 0)
		_, nend := b.tr.begin("sim.new", id)
		s, err := mosaic.NewSimulator(cfg, wl, opt)
		nend()
		var res mosaic.Results
		if err == nil {
			_, rend := b.tr.begin("sim.run", id)
			res, err = s.Run()
			rend()
		}
		end()
		if b.op(err) {
			local = encodeRecord(b.tr, id, res)
			b.check(bytes.Equal(local.payload, keys[i].want), "service cell %d differs from a local run of its request", i)
		}
	}

	if b.tr != nil {
		b.layer["runtime.mallocs_per_kinstr"] = allocated / (instr / 1e3)
		counterLayers(b, firstRecs)
		tr := b.tr
		runs := tr.durations("sim.run")
		b.layer["sim.new_ms"] = median(tr.durations("sim.new"))
		b.layer["sim.run_ms_p50"] = median(runs)
		if local.rec.Cycles > 0 {
			b.layer["sim.ns_per_cycle"] = median(runs) * 1e6 / float64(local.rec.Cycles)
		}
		// The daemon's simulations are not visible from outside; the
		// local run's time stands in for each cell's.
		b.layer["harness.parallel_eff"] = float64(cells) * median(runs) / 1e3 / (wallA * float64(sp.workers))
		b.layer["metrics.record_us"] = median(tr.durations("metrics.record")) * 1e3
		b.layer["metrics.decode_us"] = median(tr.durations("metrics.decode")) * 1e3
		for _, r := range []string{"submit", "status", "result", "campaign_submit"} {
			b.layer["server.handle_us_p50."+r] = median(tr.durations("server."+r)) * 1e3
		}
		b.layer["server.cache_hits"] = serverTotals["mosaicd_cache_hits_total"]
		b.layer["server.store_serves"] = serverTotals["mosaicd_store_serves_total"]
		b.layer["server.runs_completed"] = serverTotals["mosaicd_runs_completed_total"]
		b.layer["serviceclient.rtt_us"] = median(append(rttB, rttC...)) * 1e3
		storeLayers(b, st.store)
	}
}

// coldCampaign submits one campaign, follows its event stream to the
// end and returns the cells' records in grid order with the requests
// that name them. Every cell is one operation.
func coldCampaign(b *bench, c *mosaic.ServiceClient, req mosaic.CampaignRequest) ([]mosaic.RunRecord, []servedKey, bool) {
	ctx := context.Background()
	cs, err := c.SubmitCampaign(ctx, req)
	if !b.op(err) {
		return nil, nil, false
	}
	events := make([]mosaic.CellEvent, cs.Cells)
	got := 0
	err = c.StreamCampaign(ctx, cs.ID, func(ev mosaic.CellEvent) error {
		if ev.Index < 0 || ev.Index >= cs.Cells {
			return fmt.Errorf("event for cell %d of %d", ev.Index, cs.Cells)
		}
		events[ev.Index] = ev
		got++
		return nil
	})
	if err == nil && got != cs.Cells {
		err = fmt.Errorf("campaign %s streamed %d of %d cells", cs.ID, got, cs.Cells)
	}
	if !b.op(err) {
		return nil, nil, false
	}
	recs := make([]mosaic.RunRecord, cs.Cells)
	keys := make([]servedKey, cs.Cells)
	for i, ev := range events {
		err := cellResult(b, req, i, ev, &recs[i], &keys[i])
		if !b.op(err) {
			return nil, nil, false
		}
	}
	return recs, keys, true
}

// cellResult decodes one cell event and checks that it is done and
// carries the result its request names.
func cellResult(b *bench, c mosaic.CampaignRequest, i int, ev mosaic.CellEvent, rec *mosaic.RunRecord, key *servedKey) error {
	if ev.State != mosaic.JobDone {
		return fmt.Errorf("cell %d: %s %s", i, ev.State, ev.Error)
	}
	_, end := b.tr.begin("metrics.decode", 0)
	rep, err := mosaic.ReadReport(bytes.NewReader(ev.Result))
	end()
	if err != nil {
		return fmt.Errorf("cell %d: %w", i, err)
	}
	if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
		return fmt.Errorf("cell %d: report has %d figures, want 1 with 1 run", i, len(rep.Figures))
	}
	*rec = rep.Figures[0].Runs[0]
	req := cellRequest(c, i)
	k, err := mosaic.RunStoreKey(req)
	if err != nil {
		return err
	}
	if k.Workload != rec.Workload || k.Policy != rec.Policy || k.ConfigDigest != rec.ConfigDigest {
		return fmt.Errorf("cell %d: result %s/%s/%s answers request %s/%s/%s", i,
			rec.Workload, rec.Policy, rec.ConfigDigest, k.Workload, k.Policy, k.ConfigDigest)
	}
	payload, err := mosaic.RunRecordPayload(*rec)
	*key = servedKey{req: req, want: payload}
	return err
}

// serveLoop asks for the keys round-robin through Client.Run, one
// request at a time, and checks each answer. It returns every request's
// latency and, in the traced run, its client-side share (latency minus
// the time the daemon's handlers spent on it), both in milliseconds.
func serveLoop(b *bench, c *mosaic.ServiceClient, keys []servedKey, budget time.Duration) (lat, rtt []float64) {
	ctx := context.Background()
	tr := b.tr
	lat = loop(b, budget, len(keys), func(i int) error {
		k := keys[i]
		id, end := tr.begin("serviceclient.run", 0)
		var h0 int64
		if tr != nil {
			tr.client.Store(int64(id))
			h0 = tr.handlerNanos.Load()
		}
		t0 := time.Now()
		rep, err := c.Run(ctx, k.req)
		d := time.Since(t0)
		end()
		if tr != nil {
			rtt = append(rtt, float64(d-time.Duration(tr.handlerNanos.Load()-h0))/float64(time.Millisecond))
		}
		if err != nil {
			return err
		}
		if rep.Seed != k.req.Seed {
			return fmt.Errorf("served report has seed %d, want %d", rep.Seed, k.req.Seed)
		}
		return sameRecord(rep, k.want)
	})
	return lat, rtt
}

// daemon is an in-process mosaicd serving HTTP on a loopback port.
type daemon struct {
	svc    *mosaic.Service
	srv    *http.Server
	served chan error
	url    string
}

func startDaemon(st store.ResultStore, cacheEntries, workers int, tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := mosaic.NewService(mosaic.ServiceOptions{Workers: workers, Store: st, CacheEntries: cacheEntries})
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = timedHandler{next: h, tr: tr}
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: h}, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, waits for the server
// goroutine, then drains the daemon's workers.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// newClient returns a client with its own keep-alive transport; in the
// traced run the transport forwards the client's request span.
func newClient(url string, tr *tracer) *mosaic.ServiceClient {
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if tr != nil {
		rt = spanTransport{base: rt, tr: tr}
	}
	c := mosaic.NewServiceClient(url)
	c.HTTPClient = &http.Client{Transport: rt}
	return c
}

// scrape reads the daemon's /metrics counters; a failed scrape is a
// failed operation and reads as no counters.
func scrape(b *bench, c *mosaic.ServiceClient) map[string]float64 {
	text, err := c.Metrics(context.Background())
	if !b.op(err) {
		return nil
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m
}

// delta is a counter's growth between two scrapes (nil reads as zero).
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// addTotals adds a daemon's final counters to the run's totals.
func addTotals(into, m map[string]float64) {
	for k, v := range m {
		into[k] += v
	}
}
