// Package serviceclient is the Go client for mosaicd (internal/server):
// submit simulations, poll their lifecycle, and fetch schema-versioned
// result reports. The package speaks only the service's HTTP API, so a
// client and server from the same module version always agree on wire
// types.
package serviceclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// ErrQueueFull marks an HTTP 429: the service's bounded job queue is
// full. Submit surfaces it untouched so callers can apply their own
// backoff; Run retries it internally.
var ErrQueueFull = errors.New("serviceclient: job queue full (HTTP 429)")

// ErrDraining marks an HTTP 503: the service is shutting down and
// rejects new submissions while in-flight jobs finish.
var ErrDraining = errors.New("serviceclient: server draining (HTTP 503)")

// ErrTimeout marks a deadline expiry on the client side: the context
// (or Wait's default deadline) ran out before the job reached a
// terminal state. The job may still be running server-side; Cancel it
// if the result is no longer wanted.
var ErrTimeout = errors.New("serviceclient: deadline exceeded")

// ErrCanceled marks a cancellation: either the caller's context was
// canceled mid-call, or the job itself was canceled server-side (its
// state reports canceled).
var ErrCanceled = errors.New("serviceclient: canceled")

// DefaultWaitTimeout bounds Wait when neither the context nor
// Client.WaitTimeout provides a deadline, so a lost job can never hang
// a caller forever.
const DefaultWaitTimeout = 10 * time.Minute

// Client talks to one mosaicd instance. The zero value is unusable;
// create with New.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8641".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval spaces Wait's status polls (default 200ms).
	PollInterval time.Duration
	// WaitTimeout bounds Wait's polling, and RunCampaign's run of
	// failed reconnects, when the caller's context has no deadline of
	// its own (0 = DefaultWaitTimeout; negative = unbounded). A context
	// deadline always takes precedence.
	WaitTimeout time.Duration
	// Jitter overrides the jitter samples (uniform [0, 1)) of Wait's
	// poll backoff; nil (the default) uses math/rand. Set it only to
	// make backoff schedules deterministic in tests.
	Jitter func() float64
}

// New returns a client for the service at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Submit posts one RunRequest. The returned status carries the job ID
// to poll; Cached is set when the service deduplicated the submission
// onto an existing identical job. A full queue returns ErrQueueFull, a
// draining server ErrDraining.
func (c *Client) Submit(ctx context.Context, req server.RunRequest) (server.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return server.JobStatus{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return server.JobStatus{}, translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var st server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return server.JobStatus{}, fmt.Errorf("serviceclient: parsing submit response: %w", err)
		}
		return st, nil
	case http.StatusTooManyRequests:
		return server.JobStatus{}, ErrQueueFull
	case http.StatusServiceUnavailable:
		return server.JobStatus{}, ErrDraining
	default:
		return server.JobStatus{}, apiError("submit", resp)
	}
}

// Status fetches a job's lifecycle state.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	body, err := c.get(ctx, "/v1/runs/"+id, "status")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("serviceclient: parsing status: %w", err)
	}
	return st, nil
}

// waitBackoffCap bounds Wait's poll spacing: delays double from
// PollInterval up to here (or to PollInterval itself when it is
// larger), so a long-running job costs O(log) polls early and a steady
// ~0.5 Hz after.
const waitBackoffCap = 2 * time.Second

// pollDelay returns Wait's nth (1-based) inter-poll delay: PollInterval
// doubling per poll up to waitBackoffCap, jittered uniformly into
// [base/2, base] by rnd ∈ [0, 1). The first poll happens before any
// delay, so first-result latency is exactly one PollInterval-free round
// trip; the jitter desynchronizes the hundreds of waiters a campaign
// fans out so they never form a poll storm against one daemon.
//
// The returned delay never exceeds max(waitBackoffCap, interval) — the
// documented ceiling — and the function terminates in O(log(cap /
// interval)) steps for every input: a non-positive interval (which
// could never reach the cap by doubling) snaps straight to the cap, and
// the doubling stops the step before it would pass (or overflow past)
// the cap, so a huge n costs no extra iterations.
func pollDelay(interval time.Duration, n int, rnd float64) time.Duration {
	cap := waitBackoffCap
	if interval > cap {
		cap = interval
	}
	if interval <= 0 {
		interval = cap
	}
	base := interval
	for i := 1; i < n && base < cap; i++ {
		if base > cap/2 {
			base = cap
			break
		}
		base *= 2
	}
	half := base / 2
	return half + time.Duration(rnd*float64(half))
}

// Wait polls until the job reaches a terminal state and returns the
// terminal status. A failed job is reported as an error carrying the
// job's failure message; a canceled job wraps ErrCanceled. Polls space
// out with jittered exponential backoff (PollInterval doubling to
// ~2s); the first poll is immediate. Wait never polls unboundedly:
// when ctx has no deadline, it applies Client.WaitTimeout (default
// DefaultWaitTimeout) and reports expiry as ErrTimeout — so a lost job
// ID or a wedged server surfaces as a typed error instead of a hang.
func (c *Client) Wait(ctx context.Context, id string) (server.JobStatus, error) {
	if timeout, ok := c.waitBudget(ctx); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	interval := c.PollInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	for n := 1; ; n++ {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, translateCtxErr(ctx, err)
		}
		switch {
		case st.State == server.JobFailed:
			return st, fmt.Errorf("serviceclient: run %s failed: %s", id, st.Error)
		case st.State == server.JobCanceled:
			return st, fmt.Errorf("serviceclient: run %s canceled: %s: %w", id, st.Error, ErrCanceled)
		case st.State.Terminal():
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, typedCtxErr(ctx.Err())
		case <-time.After(pollDelay(interval, n, c.rand())):
		}
	}
}

// waitBudget is how long Wait may poll, and RunCampaign may keep
// failing to reconnect, when ctx has no deadline of its own:
// Client.WaitTimeout, or DefaultWaitTimeout when that is zero. ok is
// false when ctx's deadline bounds the wait instead, or when
// WaitTimeout is negative (unbounded).
func (c *Client) waitBudget(ctx context.Context) (time.Duration, bool) {
	if _, ok := ctx.Deadline(); ok || c.WaitTimeout < 0 {
		return 0, false
	}
	if c.WaitTimeout == 0 {
		return DefaultWaitTimeout, true
	}
	return c.WaitTimeout, true
}

// rand returns one jitter sample in [0, 1): the Jitter hook when set
// (deterministic tests), math/rand otherwise.
func (c *Client) rand() float64 {
	if c.Jitter != nil {
		return c.Jitter()
	}
	return mrand.Float64()
}

// Cancel asks the service to cancel a queued or running job (POST
// /v1/runs/{id}/cancel) and returns the job's status afterwards.
// Canceling a terminal job is a no-op that reports its terminal state.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/runs/"+id+"/cancel", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return server.JobStatus{}, translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, apiError("cancel", resp)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, fmt.Errorf("serviceclient: parsing cancel response: %w", err)
	}
	return st, nil
}

// translateCtxErr maps transport errors caused by the context ending
// (net/http wraps them in *url.Error) onto the typed sentinels, leaving
// all other errors untouched.
func translateCtxErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return typedCtxErr(ctxErr)
	}
	return err
}

// typedCtxErr converts a context's terminal error into the package's
// typed sentinels.
func typedCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %s", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %s", ErrCanceled, err)
	default:
		return err
	}
}

// ResultBytes fetches a done job's report verbatim — the exact bytes
// the service serialized, byte-identical across identical submissions.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	return c.get(ctx, "/v1/runs/"+id+"/result", "result")
}

// Result fetches and parses a done job's schema-versioned Report.
func (c *Client) Result(ctx context.Context, id string) (metrics.Report, error) {
	body, err := c.ResultBytes(ctx, id)
	if err != nil {
		return metrics.Report{}, err
	}
	return metrics.ReadReport(bytes.NewReader(body))
}

// Run is the full round trip: submit, wait, fetch. ErrQueueFull is
// retried with backoff until the context expires, so callers can treat
// a busy service like a slow one. When the request carries a TimeoutMS
// and the caller's context has no deadline of its own, Run bounds the
// whole trip by the job deadline plus grace — the server will fail the
// job at TimeoutMS anyway, so waiting much longer can only ever observe
// that failure.
func (c *Client) Run(ctx context.Context, req server.RunRequest) (metrics.Report, error) {
	if _, ok := ctx.Deadline(); !ok && req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond+30*time.Second)
		defer cancel()
	}
	backoff := 100 * time.Millisecond
	var st server.JobStatus
	for {
		var err error
		st, err = c.Submit(ctx, req)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return metrics.Report{}, err
		}
		select {
		case <-ctx.Done():
			return metrics.Report{}, fmt.Errorf("serviceclient: giving up on full queue: %w", typedCtxErr(ctx.Err()))
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		return metrics.Report{}, err
	}
	return c.Result(ctx, st.ID)
}

// Health checks /healthz; nil means the service accepts submissions.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz", "health")
	return err
}

// Metrics fetches the text-format service counters.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, err := c.get(ctx, "/metrics", "metrics")
	return string(body), err
}

func (c *Client) get(ctx context.Context, path, what string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, translateCtxErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(what, resp)
	}
	return io.ReadAll(resp.Body)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// httpError is a non-2xx answer from the service.
type httpError struct {
	code int
	msg  string
}

// Error returns the message apiError composed, status code included.
func (e *httpError) Error() string { return e.msg }

// isClientError reports whether err is a 4xx answer from the service:
// the request is wrong for this server, so repeating it cannot help.
func isClientError(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.code >= 400 && he.code < 500
}

// apiError converts a non-2xx response into a descriptive error,
// preferring the service's JSON error body.
func apiError(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var ae struct{ Error string }
	msg := fmt.Sprintf("serviceclient: %s: HTTP %d", what, resp.StatusCode)
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		msg = fmt.Sprintf("serviceclient: %s: %s (HTTP %d)", what, ae.Error, resp.StatusCode)
	}
	return &httpError{code: resp.StatusCode, msg: msg}
}
