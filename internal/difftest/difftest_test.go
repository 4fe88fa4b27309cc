package difftest

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/policies/fifoevict"
	"repro/internal/server"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the difftest-owned golden fixtures (never touches internal/metrics/testdata)")

// metricsGolden reads a pinned fixture from internal/metrics/testdata —
// the pre-refactor ground truth this package never rewrites.
func metricsGolden(t *testing.T, slug string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "metrics", "testdata", "runrecord-"+slug+".golden.json"))
	if err != nil {
		t.Fatalf("reading metrics golden: %v", err)
	}
	return b
}

// fifoFixture is the difftest-owned matrix cell for the out-of-tree
// FIFO-MMU policy: the same oversubscribed workload as the pinned
// oversub-2x cells, so its victim schedule is directly comparable to
// Mosaic's LRU one.
func fifoFixture() Fixture {
	return Fixture{
		Slug: "oversub-2x-fifo", Policy: fifoevict.PolicyID,
		Apps: []string{"SWP-S", "SWP-D"}, MaxWarpInstructions: 1024,
		Oversub: 2,
	}
}

// ablationFixtures returns the difftest-owned cells that pin the §6.4
// manager ablations: Mosaic and four single-knob variants of it (CAC-BC,
// Ideal CAC, the migrating coalescer, and a TLB flush after every
// in-place promotion) on a fully pre-fragmented pool with a late
// deallocation, so every cell runs compaction.
func ablationFixtures() []Fixture {
	var out []Fixture
	for _, a := range []struct {
		slug   string
		mutate func(*core.Options)
	}{
		{"mosaic", nil},
		{"cac-bc", func(o *core.Options) { o.CAC = core.CACBulkCopy }},
		{"cac-ideal", func(o *core.Options) { o.CAC = core.CACIdeal }},
		{"coalesce-migrate", func(o *core.Options) { o.Coalesce = core.CoalesceMigrate }},
		{"flush-on-coalesce", func(o *core.Options) { o.FlushOnCoalesce = true }},
	} {
		out = append(out, Fixture{
			Slug: "ablation-" + a.slug, Policy: core.Mosaic, Mutate: a.mutate,
			Apps: []string{"HS", "CONS"}, MaxWarpInstructions: 128,
			FragIndex: 1, FragOccupancy: 0.5, DeallocFraction: 0.9,
		})
	}
	return out
}

// ownedGolden reads (or, under -update, records) a difftest-owned
// golden: the FIFO-MMU cell and the ablation cells.
func ownedGolden(t *testing.T, fx Fixture) []byte {
	t.Helper()
	path := filepath.Join("testdata", "runrecord-"+fx.Slug+".golden.json")
	if *update {
		cfg, wl, err := fx.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecordBytes(cfg, wl, fx.SimOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s golden (run with -update to create): %v", fx.Slug, err)
	}
	return b
}

// TestDifferentialMatrix replays every pinned fixture through the
// registry-dispatched policies and demands the RunRecord bytes match the
// pre-refactor goldens exactly. This is the headline proof that
// resolving managers through the registry changed nothing: same
// schedule, same counters, same digest, byte for byte. Its shards=1 and shards=4
// subtests check that a request carrying the deprecated Shards field
// (the values older clients sent) still maps to that golden.
func TestDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long under -short")
	}
	for _, fx := range MetricsFixtures() {
		fx, want := fx, metricsGolden(t, fx.Slug)
		t.Run(fx.Slug, func(t *testing.T) {
			t.Parallel()
			cfg, wl, err := fx.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := RecordBytes(cfg, wl, fx.SimOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("registry-dispatched %s is not byte-identical to the pinned golden;\n"+
					"the policy pipeline no longer reproduces pre-refactor behavior.\ngot:\n%s", fx.Slug, got)
			}
			for _, shards := range []int{1, 4} {
				shards := shards
				t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
					checkLegacyShards(t, fx, want, shards)
				})
			}
		})
	}
}

// checkLegacyShards pins wire compatibility for the removed sharded
// cycle loop against a fixture's golden: the fixture submitted as a
// RunRequest that still carries the deprecated Shards value resolves
// to the golden's policy and ConfigDigest — the store identity its
// result is filed under — and to the same key as the request without
// Shards, so an older client is answered with the golden's bytes.
func checkLegacyShards(t *testing.T, fx Fixture, golden []byte, shards int) {
	t.Helper()
	var rec struct{ Policy, ConfigDigest string }
	if err := json.Unmarshal(golden, &rec); err != nil {
		t.Fatal(err)
	}
	spec, ok := core.LookupPolicy(fx.Policy)
	if !ok {
		t.Fatalf("policy %v is not registered", fx.Policy)
	}
	base := func() config.Config {
		cfg := config.FastTest()
		cfg.MaxWarpInstructions = fx.MaxWarpInstructions
		return cfg
	}
	req := server.RunRequest{Apps: fx.Apps, Policy: spec.Wire, Seed: Seed, Oversub: fx.Oversub}
	plain, err := server.StoreKey(base, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Shards = shards
	legacy, err := server.StoreKey(base, req)
	if err != nil {
		t.Fatalf("request with Shards=%d rejected: %v", shards, err)
	}
	if legacy != plain {
		t.Errorf("Shards=%d changes the store key: %+v, want %+v", shards, legacy, plain)
	}
	if legacy.Policy != rec.Policy || legacy.ConfigDigest != rec.ConfigDigest {
		t.Errorf("Shards=%d resolves to policy %q digest %s, want the golden's %q %s",
			shards, legacy.Policy, legacy.ConfigDigest, rec.Policy, rec.ConfigDigest)
	}
}

// TestDifferentialMatrixJobs runs the whole fixture matrix concurrently
// through the harness worker pool (the -jobs axis) and demands each
// record still matches its golden: policy dispatch state must be
// per-simulator, never shared across concurrent runs.
func TestDifferentialMatrixJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long under -short")
	}
	fixtures := MetricsFixtures()
	wants := make([][]byte, 0, len(fixtures))
	for _, fx := range fixtures {
		wants = append(wants, metricsGolden(t, fx.Slug))
	}
	for _, fx := range append(ablationFixtures(), fifoFixture()) {
		fixtures = append(fixtures, fx)
		wants = append(wants, ownedGolden(t, fx))
	}
	got := make([][]byte, len(fixtures))
	errs := make([]error, len(fixtures))
	r := harness.NewRunner(8)
	defer r.Close()
	for i, fx := range fixtures {
		i, fx := i, fx
		r.Submit(func() {
			cfg, wl, err := fx.Build()
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = RecordBytes(cfg, wl, fx.SimOptions())
		})
	}
	r.Wait()
	for i, fx := range fixtures {
		if errs[i] != nil {
			t.Errorf("%s: %v", fx.Slug, errs[i])
			continue
		}
		if !bytes.Equal(got[i], wants[i]) {
			t.Errorf("%s under jobs=8 deviates from its golden", fx.Slug)
		}
	}
}

// TestSnapshotForkDifferential pins the snapshot-fork axis: a two-phase
// plan run cold must be byte-identical to the same plan forked from a
// warmed snapshot, for built-ins and for the out-of-tree FIFO policy
// (whose ResidencyPolicy.Clone participates in the fork).
func TestSnapshotForkDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long under -short")
	}
	cells := []Fixture{
		{Slug: "mix4-mosaic", Policy: core.Mosaic, Apps: []string{"HS", "CONS", "BFS2", "RED"}, MaxWarpInstructions: 128},
		{Slug: "mix4-gpummu2m", Policy: core.GPUMMU2M, Apps: []string{"HS", "CONS", "BFS2", "RED"}, MaxWarpInstructions: 128},
		{Slug: "oversub-2x-mosaic", Policy: core.Mosaic, Apps: []string{"SWP-S", "SWP-D"}, MaxWarpInstructions: 1024, Oversub: 2},
		fifoFixture(),
		ablationFixtures()[1],
	}
	for _, fx := range cells {
		fx := fx
		t.Run(fx.Slug, func(t *testing.T) {
			t.Parallel()
			cfg, wl, err := fx.Build()
			if err != nil {
				t.Fatal(err)
			}
			opt := fx.SimOptions()
			opt.SnapshotWarmup = 20000
			cold, err := RecordBytes(cfg, wl, opt)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := ForkRecordBytes(cfg, wl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, forked) {
				t.Errorf("forked two-phase run of %s deviates from the cold run:\ncold:\n%s\nforked:\n%s", fx.Slug, cold, forked)
			}
		})
	}
}

// TestAblationGoldens pins the §6.4 ablations Mosaic's options express
// — CAC-BC, Ideal CAC, the migrating coalescer and flush-on-coalesce —
// byte for byte, and checks each golden exercises what it pins:
// compaction runs in every cell, CAC-BC bulk-copies, Ideal CAC never
// stalls while CAC does, and the coalescer variants change the run.
func TestAblationGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long under -short")
	}
	type managerStats struct {
		Cycles  uint64
		Manager core.Stats
	}
	stats := make(map[string]managerStats)
	for _, fx := range ablationFixtures() {
		want := ownedGolden(t, fx)
		cfg, wl, err := fx.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecordBytes(cfg, wl, fx.SimOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s deviates from its golden:\n%s", fx.Slug, got)
		}
		var st managerStats
		if err := json.Unmarshal(want, &st); err != nil {
			t.Fatal(err)
		}
		if st.Manager.Compactions == 0 {
			t.Errorf("%s golden ran no compaction: %+v", fx.Slug, st.Manager)
		}
		stats[fx.Slug] = st
	}
	cac, bc, ideal := stats["ablation-mosaic"], stats["ablation-cac-bc"], stats["ablation-cac-ideal"]
	if bc.Manager.BulkCopies == 0 {
		t.Errorf("CAC-BC golden made no bulk copies: %+v", bc.Manager)
	}
	if cac.Manager.BulkCopies != 0 || cac.Manager.StallCycles == 0 {
		t.Errorf("CAC golden bulk-copied or never stalled: %+v", cac.Manager)
	}
	if ideal.Manager.StallCycles != 0 || ideal.Manager.StallCycles == cac.Manager.StallCycles {
		t.Errorf("Ideal CAC stalled %d cycles, CAC %d: want 0 and nonzero",
			ideal.Manager.StallCycles, cac.Manager.StallCycles)
	}
	if mig := stats["ablation-coalesce-migrate"]; mig.Manager.MigratedPages <= cac.Manager.MigratedPages {
		t.Errorf("migrating coalescer moved %d pages, CAC alone %d", mig.Manager.MigratedPages, cac.Manager.MigratedPages)
	}
	if flush := stats["ablation-flush-on-coalesce"]; flush.Cycles == cac.Cycles {
		t.Errorf("flush-on-coalesce ran the same %d cycles as Mosaic", cac.Cycles)
	}
}

// TestFIFOPolicyDiffers pins the out-of-tree policy's own golden and
// proves it is a genuinely different manager: its record must differ
// from Mosaic's on the identical workload, and its digest identity must
// be distinct.
func TestFIFOPolicyDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long under -short")
	}
	fx := fifoFixture()
	want := ownedGolden(t, fx)
	cfg, wl, err := fx.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecordBytes(cfg, wl, fx.SimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("FIFO-MMU record deviates from its golden:\n%s", got)
	}
	if mosaicGolden := metricsGolden(t, "oversub-2x-mosaic"); bytes.Equal(want, mosaicGolden) {
		t.Error("FIFO-MMU record is identical to Mosaic's: the residency seam is not being dispatched")
	}
	if dFifo, dMosaic := sim.Digest(cfg, fx.SimOptions()),
		sim.Digest(cfg, sim.Options{Policy: core.Mosaic, Seed: Seed}); dFifo == dMosaic {
		t.Errorf("FIFO-MMU shares Mosaic's config digest %s; policy identity must key the digest", dFifo)
	}
}

// TestDigestsDistinctAcrossPolicies proves every registered policy keeps
// a distinct ConfigDigest under one configuration — registry names feed
// the digest exactly like the old enum's String() did.
func TestDigestsDistinctAcrossPolicies(t *testing.T) {
	fx := fifoFixture()
	cfg, _, err := fx.Build()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]core.Policy)
	for _, wire := range core.PolicyNames() {
		p, err := core.ParsePolicy(wire)
		if err != nil {
			t.Fatalf("registry lists %q but ParsePolicy rejects it: %v", wire, err)
		}
		d := sim.Digest(cfg, sim.Options{Policy: p, Seed: Seed})
		if prev, dup := seen[d]; dup {
			t.Errorf("policies %v and %v share digest %s", prev, p, d)
		}
		seen[d] = p
	}
}

// TestUnknownPolicyIsTypedError pins the error contract: an unregistered
// policy id surfaces core.ErrUnknownPolicy from the simulator
// constructor instead of silently running baseline-like options (or
// panicking).
func TestUnknownPolicyIsTypedError(t *testing.T) {
	fx := MetricsFixtures()[0]
	cfg, wl, err := fx.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(cfg, wl, sim.Options{Policy: core.Policy(97), Seed: Seed})
	if !errors.Is(err, core.ErrUnknownPolicy) {
		t.Fatalf("sim.New with unregistered policy: got %v, want core.ErrUnknownPolicy", err)
	}
}
