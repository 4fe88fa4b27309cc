package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// run executes one FastTest-size simulation and fails the test on error.
func run(t *testing.T, policy core.Policy, wl workload.Workload, mutate func(*config.Config), opt Options) Results {
	t.Helper()
	cfg := config.FastTest()
	cfg.MaxWarpInstructions = 128 // keep unit tests quick
	if mutate != nil {
		mutate(&cfg)
	}
	opt.Policy = policy
	s, err := New(cfg, wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func singleApp(t *testing.T, name string) workload.Workload {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Workload{Name: name, Apps: []workload.Spec{spec}}
}

func TestValidation(t *testing.T) {
	cfg := config.FastTest()
	if _, err := New(cfg, workload.Workload{}, Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	many := workload.Workload{Apps: make([]workload.Spec, cfg.NumSMs+1)}
	if _, err := New(cfg, many, Options{}); err == nil {
		t.Error("more apps than SMs accepted")
	}
}

// TestOutOfRangeFractionsRejected pins that New — and so every entry
// point built on it — rejects each §6.4 stress fraction outside [0, 1]
// with an error wrapping ErrOutOfRange that names the field, instead of
// panicking while pre-fragmenting or running a meaningless experiment.
func TestOutOfRangeFractionsRejected(t *testing.T) {
	wl := singleApp(t, "SCP")
	for _, field := range []string{"FragIndex", "FragOccupancy", "DeallocFraction"} {
		for _, v := range []float64{-0.5, 1.5} {
			t.Run(fmt.Sprintf("%s=%g", field, v), func(t *testing.T) {
				opt := Options{Policy: core.Mosaic, FragIndex: 0.5, FragOccupancy: 0.5}
				switch field {
				case "FragIndex":
					opt.FragIndex = v
				case "FragOccupancy":
					opt.FragOccupancy = v
				case "DeallocFraction":
					opt.DeallocFraction = v
				}
				_, err := New(config.FastTest(), wl, opt)
				if !errors.Is(err, ErrOutOfRange) || !strings.Contains(err.Error(), field) {
					t.Fatalf("New: %v, want an ErrOutOfRange naming %s", err, field)
				}
			})
		}
	}
}

func TestSingleAppCompletes(t *testing.T) {
	r := run(t, core.Mosaic, singleApp(t, "SCP"), nil, Options{Seed: 1})
	if len(r.Apps) != 1 {
		t.Fatalf("%d app results", len(r.Apps))
	}
	a := r.Apps[0]
	if !a.Completed {
		t.Fatalf("app did not complete in %d cycles", r.Cycles)
	}
	if a.Instructions == 0 || a.IPC <= 0 {
		t.Errorf("app result = %+v", a)
	}
	if r.TranslationFaults != 0 {
		t.Errorf("%d translation faults (unmapped pages touched)", r.TranslationFaults)
	}
	if r.L1TLBRequests == 0 {
		t.Error("no TLB activity recorded")
	}
}

func TestAllPoliciesRun(t *testing.T) {
	for _, p := range []core.Policy{core.GPUMMU4K, core.GPUMMU2M, core.Mosaic, core.IdealTLB} {
		r := run(t, p, singleApp(t, "LPS"), nil, Options{Seed: 2})
		if !r.Apps[0].Completed {
			t.Errorf("%v: app incomplete", p)
		}
		if r.TranslationFaults != 0 {
			t.Errorf("%v: %d translation faults", p, r.TranslationFaults)
		}
	}
}

func TestDeterminism(t *testing.T) {
	r1 := run(t, core.Mosaic, singleApp(t, "HS"), nil, Options{Seed: 3})
	r2 := run(t, core.Mosaic, singleApp(t, "HS"), nil, Options{Seed: 3})
	if r1.Cycles != r2.Cycles || r1.Apps[0].Instructions != r2.Apps[0].Instructions {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/instr",
			r1.Cycles, r1.Apps[0].Instructions, r2.Cycles, r2.Apps[0].Instructions)
	}
	if r1.L1TLBHits != r2.L1TLBHits || r1.Bus.TotalTransfers() != r2.Bus.TotalTransfers() {
		t.Error("nondeterministic component stats")
	}
}

func TestIdealTLBIsFastest(t *testing.T) {
	wl := singleApp(t, "NW") // strided, TLB-sensitive
	noPage := func(c *config.Config) { c.IOBusEnabled = false }
	ideal := run(t, core.IdealTLB, wl, noPage, Options{Seed: 4})
	mmu := run(t, core.GPUMMU4K, wl, noPage, Options{Seed: 4})
	if ideal.Apps[0].IPC < mmu.Apps[0].IPC {
		t.Errorf("ideal TLB (%f IPC) slower than GPU-MMU (%f IPC)", ideal.Apps[0].IPC, mmu.Apps[0].IPC)
	}
	if ideal.L1TLBHitRate() != 1.0 {
		t.Errorf("ideal TLB hit rate = %f", ideal.L1TLBHitRate())
	}
}

func TestMosaicBeatsBaselineOnTLBSensitive(t *testing.T) {
	// Two copies of a strided app stress the shared TLB; Mosaic's large
	// pages should win (the paper's core claim). A constrained walker
	// amplifies the serialized-walk penalty the paper measures at full
	// scale (48 warps/SM, multi-app L2-cache pressure).
	spec, _ := workload.ByName("NW")
	wl := workload.Workload{Name: "2xNW", Apps: []workload.Spec{spec, spec}}
	noPage := func(c *config.Config) {
		c.IOBusEnabled = false
		c.WalkerConcurrency = 4
		c.WorkloadScale = 64
	}
	mosaic := run(t, core.Mosaic, wl, noPage, Options{Seed: 5})
	mmu := run(t, core.GPUMMU4K, wl, noPage, Options{Seed: 5})
	if mosaic.TotalIPC() <= mmu.TotalIPC() {
		t.Errorf("Mosaic IPC %f <= GPU-MMU IPC %f", mosaic.TotalIPC(), mmu.TotalIPC())
	}
	if mosaic.Manager.Coalesces == 0 {
		t.Error("Mosaic coalesced nothing")
	}
	if mmu.Manager.Coalesces != 0 {
		t.Error("baseline coalesced")
	}
	// Mosaic's L1 TLB hit rate should be higher.
	if mosaic.L1TLBHitRate() <= mmu.L1TLBHitRate() {
		t.Errorf("Mosaic L1 TLB rate %f <= baseline %f", mosaic.L1TLBHitRate(), mmu.L1TLBHitRate())
	}
}

func TestDemandPagingCostsTime(t *testing.T) {
	wl := singleApp(t, "LPS")
	withPage := run(t, core.Mosaic, wl, nil, Options{Seed: 6})
	noPage := run(t, core.Mosaic, wl, func(c *config.Config) { c.IOBusEnabled = false }, Options{Seed: 6})
	if withPage.Cycles <= noPage.Cycles {
		t.Errorf("demand paging (%d cycles) not slower than resident (%d)", withPage.Cycles, noPage.Cycles)
	}
	if withPage.Bus.TotalTransfers() == 0 {
		t.Error("no I/O transfers under demand paging")
	}
	if noPage.Bus.TotalTransfers() != 0 {
		t.Error("I/O transfers without demand paging")
	}
}

func TestLargePageFaultsSlowerThanBase(t *testing.T) {
	// The page-size trade-off (Fig. 4): demand paging hurts the 2MB
	// manager proportionally more than the 4KB manager, because 2MB
	// faults transfer data a sparse application never touches and occupy
	// the I/O bus ~500x longer per fault. Compare each manager's paging
	// slowdown relative to itself to isolate the paging cost from the
	// 2MB manager's translation benefit.
	// 4KB fault latencies hide behind TLP (many warps, few stalled at a
	// time, tiny bus occupancy); 2MB faults occupy the bus ~500x longer
	// each, so concurrent applications queue behind each other — the
	// effect that grows from -92.5% to -99.8% in Fig. 4.
	spec, _ := workload.ByName("NW")
	wl := workload.Workload{Name: "3xNW", Apps: []workload.Spec{spec, spec, spec}}
	scale := func(c *config.Config) { c.WorkloadScale = 16; c.WarpsPerSM = 32 }
	noPage := func(c *config.Config) { c.WorkloadScale = 16; c.WarpsPerSM = 32; c.IOBusEnabled = false }

	base := run(t, core.GPUMMU4K, wl, scale, Options{Seed: 7})
	baseNP := run(t, core.GPUMMU4K, wl, noPage, Options{Seed: 7})
	large := run(t, core.GPUMMU2M, wl, scale, Options{Seed: 7})
	largeNP := run(t, core.GPUMMU2M, wl, noPage, Options{Seed: 7})

	slow4K := float64(base.Cycles) / float64(baseNP.Cycles)
	slow2M := float64(large.Cycles) / float64(largeNP.Cycles)
	if slow2M <= slow4K {
		t.Errorf("2MB paging slowdown %.2fx not worse than 4KB %.2fx", slow2M, slow4K)
	}
	if large.Bus.LargeTransfers == 0 || large.Bus.BaseTransfers != 0 {
		t.Errorf("2MB manager transfers = %+v", large.Bus)
	}
	if base.Bus.BaseTransfers == 0 || base.Bus.LargeTransfers != 0 {
		t.Errorf("4KB manager transfers = %+v", base.Bus)
	}
	// The 2MB manager moves far more data than the app touches.
	if large.Bus.BusyCycles <= base.Bus.BusyCycles {
		t.Errorf("2MB bus occupancy %d not above 4KB %d", large.Bus.BusyCycles, base.Bus.BusyCycles)
	}
}

func TestMultiAppIsolation(t *testing.T) {
	a, _ := workload.ByName("HS")
	b, _ := workload.ByName("CONS")
	wl := workload.Workload{Name: "HS-CONS", Apps: []workload.Spec{a, b}}
	r := run(t, core.Mosaic, wl, nil, Options{Seed: 8})
	if len(r.Apps) != 2 {
		t.Fatalf("%d app results", len(r.Apps))
	}
	for _, app := range r.Apps {
		if !app.Completed {
			t.Errorf("%s incomplete", app.Name)
		}
	}
	if r.Allocator.Violations != 0 {
		t.Errorf("soft guarantee violated %d times", r.Allocator.Violations)
	}
	if r.TranslationFaults != 0 {
		t.Errorf("%d cross-app translation faults", r.TranslationFaults)
	}
}

func TestDeallocationExercisesCAC(t *testing.T) {
	r := run(t, core.Mosaic, singleApp(t, "LPS"), nil,
		Options{Seed: 9, DeallocFraction: 0.9})
	m := r.Manager
	if m.Splinters == 0 && m.Compactions == 0 && m.EmergencyAdds == 0 {
		t.Errorf("dealloc exercised no CAC paths: %+v", m)
	}
}

func TestFragmentationStressRuns(t *testing.T) {
	r := run(t, core.Mosaic, singleApp(t, "SCP"), func(c *config.Config) {
		c.TotalDRAMBytes = 192 << 20
	}, Options{Seed: 10, FragIndex: 0.95, FragOccupancy: 0.5})
	if !r.Apps[0].Completed {
		t.Error("app incomplete under fragmentation")
	}
	if r.TranslationFaults != 0 {
		t.Errorf("%d translation faults", r.TranslationFaults)
	}
}

func TestWalkerActivityOnlyWithoutBypass(t *testing.T) {
	wl := singleApp(t, "NW")
	noPage := func(c *config.Config) { c.IOBusEnabled = false }
	mmu := run(t, core.GPUMMU4K, wl, noPage, Options{Seed: 11})
	ideal := run(t, core.IdealTLB, wl, noPage, Options{Seed: 11})
	if mmu.Walker.Walks == 0 {
		t.Error("GPU-MMU performed no page walks")
	}
	if ideal.Walker.Walks != 0 {
		t.Errorf("ideal TLB performed %d walks", ideal.Walker.Walks)
	}
}

func TestMigratingCoalescerSlower(t *testing.T) {
	wl := singleApp(t, "LPS")
	noPage := func(c *config.Config) { c.IOBusEnabled = false }
	inPlace := run(t, core.Mosaic, wl, noPage, Options{Seed: 12})
	migrate := run(t, core.Mosaic, wl, noPage, Options{
		Seed:          12,
		MutateManager: func(o *core.Options) { o.Coalesce = core.CoalesceMigrate },
	})
	if migrate.Cycles <= inPlace.Cycles {
		t.Errorf("migrating coalescer (%d) not slower than in-place (%d)", migrate.Cycles, inPlace.Cycles)
	}
	if migrate.Manager.MigratedPages == 0 {
		t.Error("migrating coalescer moved no pages")
	}
	if inPlace.Manager.MigratedPages != 0 {
		t.Error("in-place coalescer moved pages")
	}
}

func TestPageWalkCacheReducesWalkLatency(t *testing.T) {
	wl := singleApp(t, "NW")
	noPage := func(c *config.Config) { c.IOBusEnabled = false }
	withPWC := func(c *config.Config) {
		c.IOBusEnabled = false
		c.PageWalkCacheEntries = 128
	}
	plain := run(t, core.GPUMMU4K, wl, noPage, Options{Seed: 20})
	cached := run(t, core.GPUMMU4K, wl, withPWC, Options{Seed: 20})
	if cached.PageWalkCache.Hits == 0 {
		t.Fatal("page-walk cache never hit")
	}
	if plain.PageWalkCache.Hits != 0 {
		t.Error("walk-cache stats present without a walk cache")
	}
	if cached.Walker.AvgLatency() >= plain.Walker.AvgLatency() {
		t.Errorf("walk cache did not reduce walk latency: %.0f vs %.0f",
			cached.Walker.AvgLatency(), plain.Walker.AvgLatency())
	}
}
