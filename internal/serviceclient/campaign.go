package serviceclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// SubmitCampaign posts a whole sweep grid (POST /v1/campaigns) and
// returns its accepted status — the ID to stream, and Cells, the grid
// size the events will cover. A draining server returns ErrDraining.
func (c *Client) SubmitCampaign(ctx context.Context, req server.CampaignRequest) (server.CampaignStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.CampaignStatus{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return server.CampaignStatus{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return server.CampaignStatus{}, translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		var st server.CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return server.CampaignStatus{}, fmt.Errorf("serviceclient: parsing campaign response: %w", err)
		}
		return st, nil
	case http.StatusServiceUnavailable:
		return server.CampaignStatus{}, ErrDraining
	default:
		return server.CampaignStatus{}, apiError("campaign submit", resp)
	}
}

// CampaignStatus fetches a campaign's lifecycle state and cell counts.
func (c *Client) CampaignStatus(ctx context.Context, id string) (server.CampaignStatus, error) {
	var st server.CampaignStatus
	body, err := c.get(ctx, "/v1/campaigns/"+id, "campaign status")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("serviceclient: parsing campaign status: %w", err)
	}
	return st, nil
}

// CancelCampaign stops a running campaign (POST
// /v1/campaigns/{id}/cancel): unfinished cells emit canceled events and
// the stream closes. Canceling a terminal campaign is a no-op.
func (c *Client) CancelCampaign(ctx context.Context, id string) (server.CampaignStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/campaigns/"+id+"/cancel", nil)
	if err != nil {
		return server.CampaignStatus{}, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return server.CampaignStatus{}, translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.CampaignStatus{}, apiError("campaign cancel", resp)
	}
	var st server.CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.CampaignStatus{}, fmt.Errorf("serviceclient: parsing cancel response: %w", err)
	}
	return st, nil
}

// StreamCampaign follows a campaign's NDJSON event stream, invoking fn
// for every event (replayed from the campaign's start), until the
// stream ends — the campaign is terminal and fully delivered — or fn
// returns an error, which aborts the stream and is returned verbatim.
func (c *Client) StreamCampaign(ctx context.Context, id string, fn func(server.CellEvent) error) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/campaigns/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError("campaign stream", resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev server.CellEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			return translateCtxErr(ctx, fmt.Errorf("serviceclient: campaign stream: %w", err))
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// RunCampaign is the full campaign round trip: submit the grid, then
// stream cell events — reconnecting on transport failures; the replayed
// stream makes reconnects lossless — until every cell has its terminal
// event. The returned slice is in grid order (index i is cell i), one
// event per cell regardless of completion or delivery order. Cell
// failures are the caller's to inspect via the events; RunCampaign only
// errors when the campaign itself cannot be completed: a 4xx from the
// stream or status endpoint (a restarted daemon no longer knows the
// campaign) ends it at once, and when ctx has no deadline, failed
// reconnects give up after Client.WaitTimeout (DefaultWaitTimeout when
// zero) with ErrTimeout, so a dead daemon never hangs the caller.
func (c *Client) RunCampaign(ctx context.Context, req server.CampaignRequest) ([]server.CellEvent, error) {
	st, err := c.SubmitCampaign(ctx, req)
	if err != nil {
		return nil, err
	}
	events := make([]server.CellEvent, st.Cells)
	got := make([]bool, st.Cells)
	count := 0
	collect := func(ev server.CellEvent) error {
		if ev.Index < 0 || ev.Index >= st.Cells || got[ev.Index] {
			return nil // replayed duplicate on reconnect
		}
		got[ev.Index] = true
		events[ev.Index] = ev
		count++
		return nil
	}
	budget, bounded := c.waitBudget(ctx)
	var failingSince time.Time // first failure since the last progress
	for count < st.Cells {
		before := count
		err := c.StreamCampaign(ctx, st.ID, collect)
		if count >= st.Cells {
			break
		}
		if ctx.Err() != nil {
			return events, typedCtxErr(ctx.Err())
		}
		if err == nil {
			// The stream only closes cleanly once the campaign is
			// terminal; missing cells mean it ended early (canceled).
			var cst server.CampaignStatus
			if cst, err = c.CampaignStatus(ctx, st.ID); err == nil && cst.State.Terminal() {
				return events, fmt.Errorf("serviceclient: campaign %s %s with %d of %d cell events",
					st.ID, cst.State, count, st.Cells)
			}
		}
		if err == nil || count > before {
			failingSince = time.Time{}
		}
		if err != nil {
			if isClientError(err) {
				return events, fmt.Errorf("serviceclient: campaign %s: %w", st.ID, err)
			}
			if failingSince.IsZero() {
				failingSince = time.Now()
			}
			if bounded && time.Since(failingSince) >= budget {
				return events, fmt.Errorf("serviceclient: campaign %s: %w: reconnecting for %v: %v",
					st.ID, ErrTimeout, budget, err)
			}
		}
		// Transport hiccup (or a not-yet-terminal early close): back off
		// briefly and reconnect; the replay re-delivers everything.
		select {
		case <-ctx.Done():
			return events, typedCtxErr(ctx.Err())
		case <-time.After(200 * time.Millisecond):
		}
	}
	return events, nil
}

// RunCampaignRecords runs a campaign through RunCampaign and returns its
// RunRecords, exactly one per cell, in grid order. A cell that is not
// done, or whose result is not a one-run report, is an error naming the
// cell's index, workload and policy.
func (c *Client) RunCampaignRecords(ctx context.Context, req server.CampaignRequest) ([]metrics.RunRecord, error) {
	events, err := c.RunCampaign(ctx, req)
	if err != nil {
		return nil, err
	}
	recs := make([]metrics.RunRecord, len(events))
	for i, ev := range events {
		cell := fmt.Sprintf("serviceclient: cell %d (%s, %s)", i, ev.Workload, ev.Policy)
		if ev.State != server.JobDone {
			return nil, fmt.Errorf("%s: %s %s", cell, ev.State, ev.Error)
		}
		rep, err := metrics.ReadReport(bytes.NewReader(ev.Result))
		if err != nil {
			return nil, fmt.Errorf("%s: parsing result: %w", cell, err)
		}
		if len(rep.Figures) != 1 || len(rep.Figures[0].Runs) != 1 {
			return nil, fmt.Errorf("%s: malformed result report", cell)
		}
		recs[i] = rep.Figures[0].Runs[0]
	}
	return recs, nil
}
