package clitest

// Local runs and the service resolve a request through the same
// server.Resolve. These tests pin that at the binary boundary: a local
// run must fail on input the daemon rejects, file prewarmed records the
// daemon serves byte-identically, and print what a -server run prints.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/serviceclient"
	"repro/internal/sim"
	"repro/internal/store"
)

// runCLIOut executes one built binary, fails the test on a non-zero
// exit, and returns its stdout.
func runCLIOut(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.String())
	}
	return stdout.Bytes()
}

// startServer runs an in-process mosaicd over st (nil = in-memory) and
// returns its URL.
func startServer(t *testing.T, st store.ResultStore) string {
	t.Helper()
	srv := server.New(server.Options{Workers: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts.URL
}

func TestSimOutOfRangeFractionsFailWithoutPanic(t *testing.T) {
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"FragIndex", []string{"-frag", "2"}},
		{"FragIndex", []string{"-frag", "-1"}},
		{"FragOccupancy", []string{"-frag-occupancy", "2", "-frag", "0.5"}},
		{"DeallocFraction", []string{"-dealloc", "1.5"}},
		{"scale", []string{"-scale", "-5"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := append([]string{"-apps", "HS", "-policy", "ideal", "-scale", "512"}, tc.args...)
			code, stderr := runCLI(t, "mosaic-sim", args...)
			if code == 0 {
				t.Fatal("exited 0")
			}
			if !strings.Contains(stderr, tc.field) || strings.Contains(stderr, "panic") {
				t.Fatalf("stderr %q: want a message naming %s and no panic", stderr, tc.field)
			}
		})
	}
}

// TestSimRecordStorePrewarmServesFreshBytes files a record with spaces
// in -apps, then asks a daemon over that store for the same run: the
// store must answer it (no simulation), with the bytes a daemon with an
// empty store computes fresh.
func TestSimRecordStorePrewarmServesFreshBytes(t *testing.T) {
	dir := t.TempDir()
	runCLIOut(t, "mosaic-sim", "-apps", "HS, CONS", "-policy", "ideal", "-scale", "512", "-record-store", dir)

	// mosaic-sim's defaults for the flags left unset above.
	req := server.RunRequest{Apps: []string{"HS", "CONS"}, Policy: "ideal", Scale: 512, Seed: 42, FragOccupancy: 0.5}
	serve := func(url string) []byte {
		t.Helper()
		ctx := context.Background()
		c := serviceclient.New(url)
		st, err := c.Submit(ctx, req)
		if err == nil {
			st, err = c.Wait(ctx, st.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	disk, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	prewarmed := startServer(t, disk)
	fromStore := serve(prewarmed)
	fresh := serve(startServer(t, nil))
	if !bytes.Equal(fromStore, fresh) {
		t.Fatalf("prewarmed store serves different bytes than a fresh run:\n%s\nvs\n%s", fromStore, fresh)
	}
	m, err := serviceclient.New(prewarmed).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "mosaicd_runs_completed_total 0\n") {
		t.Fatalf("prewarmed daemon simulated instead of serving the store:\n%s", m)
	}
}

func TestSweepLocalMatchesServer(t *testing.T) {
	args := []string{"-dim", "scale", "-values", "512, 1024", "-apps", "HS, HS", "-policies", "ideal", "-format", "json"}
	local := runCLIOut(t, "mosaic-sweep", args...)
	remote := runCLIOut(t, "mosaic-sweep", append(args, "-server", startServer(t, nil))...)
	if !bytes.Equal(local, remote) {
		t.Fatalf("local and -server sweeps differ:\n%s\nvs\n%s", local, remote)
	}
	// A spaced value labels its row and record by the parsed integer.
	rep, err := metrics.ReadReport(bytes.NewReader(local))
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	if label, wl := fig.Rows[1][0], fig.Runs[1].Workload; label != "1024" || wl != "scale=1024/HS,HS" {
		t.Fatalf("row label %q, workload %q: want 1024 and scale=1024/HS,HS", label, wl)
	}
}

// TestSweepForkedMatchesColdReference runs a forked mosaic-sweep grid
// and checks every record against the cell's cold two-phase run,
// resolved and simulated here from the same campaign request.
func TestSweepForkedMatchesColdReference(t *testing.T) {
	const warmup = 50_000
	out := runCLIOut(t, "mosaic-sweep", "-dim", "l1base", "-values", "16,256", "-apps", "NW,NW",
		"-policies", "gpummu,mosaic", "-snapshot-warmup", "50000", "-format", "json")
	rep, err := metrics.ReadReport(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Figures[0].Runs

	// mosaic-sweep's defaults for the flags left unset above.
	creq := server.CampaignRequest{
		Base:     server.RunRequest{Apps: []string{"NW", "NW"}, Seed: 42},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 256},
	}
	base, err := server.Resolve(config.Eval, creq.Base)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := server.PlanCampaign(config.Eval, creq)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("%d records, want %d", len(got), len(cells))
	}
	for i, c := range cells {
		opt := c.Options
		opt.SnapshotWarmup = warmup
		res, err := sim.RunTwoPhase(nil, base.Config, c.Workload, opt, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		want := metrics.NewRunRecord(res)
		want.Workload = fmt.Sprintf("l1base=%d/%s", c.Req.DimValue, want.Workload)
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("cell %d: forked record differs from cold reference:\n%s\nvs\n%s", i, gb, wb)
		}
	}
}
