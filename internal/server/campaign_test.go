package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/store"
)

func postCampaign(t *testing.T, ts *httptest.Server, req CampaignRequest) (int, CampaignStatus, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("parsing %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, string(raw)
}

// streamEvents follows the campaign's NDJSON stream to its end and
// returns every event.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []CellEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var evs []CellEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev CellEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		evs = append(evs, ev)
	}
}

func campaignStatus(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	code, body := getJSON(t, ts.URL+"/v1/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("campaign status: HTTP %d: %s", code, body)
	}
	var st CampaignStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCampaignGrid submits a 2-value x 2-policy sweep grid and checks
// the stream delivers exactly one done event per cell, replayable on
// reconnect, with the grid's identity triples.
func TestCampaignGrid(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 2})
	close(release)

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 3},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64},
	}
	code, st, raw := postCampaign(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, raw)
	}
	if st.Cells != 4 || st.State != CampaignRunning {
		t.Fatalf("accepted status: %+v", st)
	}

	evs := streamEvents(t, ts, st.ID)
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	seen := make(map[int]CellEvent)
	for _, ev := range evs {
		if ev.State != JobDone {
			t.Fatalf("cell %d: state %s (%s)", ev.Index, ev.State, ev.Error)
		}
		if len(ev.Result) == 0 {
			t.Fatalf("cell %d: no result payload", ev.Index)
		}
		if _, dup := seen[ev.Index]; dup {
			t.Fatalf("cell %d emitted twice", ev.Index)
		}
		seen[ev.Index] = ev
	}
	// Grid order: index = value*len(policies) + policy.
	if seen[0].Policy == seen[1].Policy {
		t.Fatalf("cells 0/1 share policy %q", seen[0].Policy)
	}
	if seen[0].DimValue != 16 || seen[2].DimValue != 64 {
		t.Fatalf("dim values: cell0=%d cell2=%d", seen[0].DimValue, seen[2].DimValue)
	}
	if seen[0].ConfigDigest == seen[2].ConfigDigest {
		t.Fatal("different swept values share a config digest")
	}
	if execs.Load() != 4 {
		t.Fatalf("%d simulations for 4 distinct cells", execs.Load())
	}

	// Reconnect: the stream replays every event, identically.
	replay := streamEvents(t, ts, st.ID)
	if len(replay) != 4 {
		t.Fatalf("replay: %d events, want 4", len(replay))
	}
	for i := range replay {
		a, _ := json.Marshal(evs[i])
		b, _ := json.Marshal(replay[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("replay event %d differs:\n%s\nvs\n%s", i, a, b)
		}
	}

	final := campaignStatus(t, ts, st.ID)
	if final.State != CampaignDone || final.Done != 4 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
}

// TestCampaignDedup: a resubmitted campaign is answered entirely from
// the cache — zero new simulations, counted per cell.
func TestCampaignDedup(t *testing.T) {
	_, ts, release, execs := newStubServer(t, Options{Workers: 2})
	close(release)

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64},
	}
	_, st1, _ := postCampaign(t, ts, req)
	first := streamEvents(t, ts, st1.ID)

	_, st2, _ := postCampaign(t, ts, req)
	second := streamEvents(t, ts, st2.ID)
	if len(second) != 4 {
		t.Fatalf("%d events on resubmission", len(second))
	}
	for _, ev := range second {
		if ev.State != JobDone || !ev.Cached {
			t.Fatalf("cell %d: state=%s cached=%v", ev.Index, ev.State, ev.Cached)
		}
	}
	if execs.Load() != 4 {
		t.Fatalf("resubmission re-simulated: %d execs", execs.Load())
	}
	final := campaignStatus(t, ts, st2.ID)
	if final.FromCache != 4 || final.FromStore != 0 {
		t.Fatalf("resubmission sources: %+v", final)
	}
	// Byte-identical results cell for cell.
	byIdx := func(evs []CellEvent) map[int]string {
		m := make(map[int]string)
		for _, ev := range evs {
			m[ev.Index] = string(ev.Result)
		}
		return m
	}
	f, s := byIdx(first), byIdx(second)
	for i := 0; i < 4; i++ {
		if f[i] != s[i] {
			t.Fatalf("cell %d bytes differ between campaigns", i)
		}
	}
}

// TestCampaignFromStore: a fresh daemon over a warmed store answers a
// campaign without simulating at all.
func TestCampaignFromStore(t *testing.T) {
	shared := store.NewMem()
	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"gpummu", "mosaic"},
	}

	_, ts1, release1, _ := newStubServer(t, Options{Workers: 2, Store: shared})
	close(release1)
	_, st1, _ := postCampaign(t, ts1, req)
	streamEvents(t, ts1, st1.ID)

	_, ts2, _, execs2 := newStubServer(t, Options{Workers: 2, Store: shared})
	_, st2, _ := postCampaign(t, ts2, req)
	evs := streamEvents(t, ts2, st2.ID)
	if len(evs) != 2 {
		t.Fatalf("%d events", len(evs))
	}
	for _, ev := range evs {
		if ev.State != JobDone || !ev.Cached {
			t.Fatalf("cell %d: state=%s cached=%v (%s)", ev.Index, ev.State, ev.Cached, ev.Error)
		}
	}
	if execs2.Load() != 0 {
		t.Fatalf("second daemon simulated %d cells", execs2.Load())
	}
	if final := campaignStatus(t, ts2, st2.ID); final.FromStore != 2 {
		t.Fatalf("sources: %+v", final)
	}
}

// TestCampaignCancel: canceling mid-flight marks unfinished cells
// canceled, closes the stream, and leaves the campaign canceled.
func TestCampaignCancel(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1})
	defer close(release) // free the blocked simulations at test end

	req := CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}},
		Policies: []string{"gpummu", "gpummu-2mb", "mosaic", "ideal"},
	}
	_, st, _ := postCampaign(t, ts, req)

	// Cancel while every simulation is still blocked on release.
	resp, err := http.Post(ts.URL+"/v1/campaigns/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	evs := streamEvents(t, ts, st.ID)
	if len(evs) != 4 {
		t.Fatalf("%d events after cancel, want 4", len(evs))
	}
	for _, ev := range evs {
		if ev.State != JobCanceled {
			t.Fatalf("cell %d: state %s after cancel", ev.Index, ev.State)
		}
	}
	final := campaignStatus(t, ts, st.ID)
	if final.State != CampaignCanceled || final.Canceled != 4 {
		t.Fatalf("final status: %+v", final)
	}
}

// TestCampaignValidation pins the 400 paths of campaign planning.
func TestCampaignValidation(t *testing.T) {
	_, ts, release, _ := newStubServer(t, Options{Workers: 1})
	close(release)
	// One cell over the HTTP bound: rejected as outside input, yet a
	// plannable grid (local sweeps plan it with PlanCampaign).
	overBound := CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"ideal"}, Dim: "l1base",
		Values: make([]int, maxCampaignCells+1)}
	for i := range overBound.Values {
		overBound.Values[i] = 16 + i
	}
	if _, err := PlanCampaign(config.FastTest, overBound); err != nil {
		t.Fatalf("PlanCampaign over the HTTP bound: %v", err)
	}
	cases := []struct {
		name string
		req  CampaignRequest
	}{
		{"no policies", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}}},
		{"base policy set", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}, Policy: "mosaic"}, Policies: []string{"mosaic"}}},
		{"base dim set", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}, Dim: "l1base", DimValue: 16}, Policies: []string{"mosaic"}}},
		{"dim without values", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Dim: "l1base"}},
		{"values without dim", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Values: []int{16}}},
		{"unknown dim", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"mosaic"}, Dim: "bogus", Values: []int{1}}},
		{"unknown policy", CampaignRequest{Base: RunRequest{Apps: []string{"SCP"}}, Policies: []string{"vax"}, Dim: "l1base", Values: []int{16}}},
		{"no apps", CampaignRequest{Policies: []string{"mosaic"}}},
		{"over the cell bound", overBound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postCampaign(t, ts, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d: %s", code, raw)
			}
		})
	}
	if code, body := getJSON(t, ts.URL+"/v1/campaigns/c999999"); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: HTTP %d: %s", code, body)
	}
}

// TestCampaignDigestsMatchSweep pins the configuration sequence Resolve
// applies to a sweep cell against a literal copy of it. Resolve is the
// single place a request becomes a simulation — mosaic-sweep plans its
// local grids with PlanCampaign too — so a change here changes every
// swept digest and orphans every stored sweep cell.
func TestCampaignDigestsMatchSweep(t *testing.T) {
	base := config.FastTest
	cells, err := PlanCampaign(base, CampaignRequest{
		Base:     RunRequest{Apps: []string{"SCP"}, Seed: 42, NoPaging: true},
		Policies: []string{"gpummu", "mosaic"},
		Dim:      "l1base",
		Values:   []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	pols := []string{"gpummu", "mosaic"}
	vals := []int{16, 64}
	for vi, v := range vals {
		for pi := range pols {
			// The exact sequence cmd/mosaic-sweep applies.
			cfg := base()
			cfg.IOBusEnabled = false
			cfg.L1TLBBaseEntries = v
			cfg.ClampTLBWays()
			pol, err := ParsePolicy(pols[pi])
			if err != nil {
				t.Fatal(err)
			}
			want := sim.Digest(cfg, sim.Options{Policy: pol, Seed: 42})
			cell := cells[vi*len(pols)+pi]
			if cell.Key.ConfigDigest != want {
				t.Errorf("cell %d digest %s, want %s", cell.Index, cell.Key.ConfigDigest, want)
			}
		}
	}
}
