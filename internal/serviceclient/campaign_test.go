package serviceclient

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/server"
)

// TestRunCampaignRecords: a grid of done cells decodes to exactly one
// record per cell, in grid order; a failed cell, or a done cell whose
// report does not hold exactly one run, is an error naming that cell's
// index, workload and policy.
func TestRunCampaignRecords(t *testing.T) {
	report := func(runs ...metrics.RunRecord) json.RawMessage {
		var b bytes.Buffer
		rep := metrics.Report{SchemaVersion: metrics.SchemaVersion, Figures: []metrics.Figure{{ID: "run", Runs: runs}}}
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	done := func(i int, policy string) server.CellEvent {
		rec := metrics.RunRecord{Workload: "SCP", Policy: policy, ConfigDigest: "d-" + policy}
		return server.CellEvent{Index: i, Workload: "SCP", Policy: policy, State: server.JobDone, Result: report(rec)}
	}
	// serve answers a campaign whose stream carries events, in the
	// order given.
	serve := func(events ...server.CellEvent) *Client {
		st := server.CampaignStatus{ID: "c000001", State: server.CampaignDone, Cells: len(events)}
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(st)
		})
		mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
			enc := json.NewEncoder(w)
			for _, ev := range events {
				enc.Encode(ev)
			}
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return New(ts.URL)
	}
	req := server.CampaignRequest{Base: server.RunRequest{Apps: []string{"SCP"}}, Policies: []string{"a", "b"}}

	recs, err := serve(done(1, "b"), done(0, "a")).RunCampaignRecords(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Policy != "a" || recs[1].Policy != "b" {
		t.Fatalf("records %+v, want one per cell in grid order", recs)
	}

	for name, bad := range map[string]server.CellEvent{
		"failed":   {Index: 1, Workload: "SCP", Policy: "b", State: server.JobFailed, Error: "boom"},
		"no runs":  {Index: 1, Workload: "SCP", Policy: "b", State: server.JobDone, Result: report()},
		"not JSON": {Index: 1, Workload: "SCP", Policy: "b", State: server.JobDone, Result: json.RawMessage(`"x"`)},
		"two runs": {Index: 1, Workload: "SCP", Policy: "b", State: server.JobDone, Result: report(metrics.RunRecord{}, metrics.RunRecord{})},
		"canceled": {Index: 1, Workload: "SCP", Policy: "b", State: server.JobCanceled},
	} {
		_, err := serve(done(0, "a"), bad).RunCampaignRecords(context.Background(), req)
		if err == nil || !strings.Contains(err.Error(), "cell 1 (SCP, b)") {
			t.Errorf("%s: %v, want an error naming cell 1 (SCP, b)", name, err)
		}
	}
}
