// Wire types of the mosaicd HTTP API. These are part of the service's
// compatibility surface (see docs/SERVICE.md): fields may be added, but
// not removed or renamed, without a protocol discussion.
package server

import "encoding/json"

// RunRequest is the body of POST /v1/runs: one simulation to execute.
// It is also the one run-options surface of the CLIs: mosaic-sim and
// mosaic-sweep build a RunRequest from their flags, and Resolve is the
// single place any RunRequest becomes a simulation, so a remote
// submission and a local run of the same flags produce byte-identical
// reports. The zero value of every optional field means "the default".
type RunRequest struct {
	// Apps is the workload: suite application names, in order (the
	// order is part of the workload identity). Required.
	Apps []string
	// Policy selects the memory manager: gpummu | gpummu-2mb | mosaic |
	// ideal. Empty means mosaic.
	Policy string `json:",omitempty"`
	// Seed is the deterministic seed (same meaning as mosaic-sim -seed).
	Seed int64 `json:",omitempty"`
	// Scale overrides the working-set scale divisor when positive.
	Scale int `json:",omitempty"`
	// NoPaging disables demand paging (all data resident).
	NoPaging bool `json:",omitempty"`
	// FragIndex/FragOccupancy pre-fragment physical memory (§6.4).
	FragIndex     float64 `json:",omitempty"`
	FragOccupancy float64 `json:",omitempty"`
	// DeallocFraction frees part of a scratch buffer mid-run.
	DeallocFraction float64 `json:",omitempty"`
	// Oversub bounds GPU memory to workingset/Oversub resident pages,
	// forcing demand-paged eviction (same meaning as mosaic-sim -oversub:
	// 2 means the workload's footprint is twice GPU memory). 0 leaves
	// residency unbounded. Incompatible with NoPaging.
	Oversub float64 `json:",omitempty"`
	// SnapshotWarmupCycles runs the simulation as a two-phase plan (same
	// meaning as mosaic-sim -snapshot-warmup): a warmup prefix to this
	// cycle, a quiesce, then the measured remainder. It participates in
	// the config digest — a two-phase run is a distinct experiment — and
	// a server-side run produces the same ConfigDigest identity as a
	// client-side run forked from a warmed snapshot of the same plan.
	// 0 (the default) runs single-phase, exactly as before the field
	// existed.
	SnapshotWarmupCycles uint64 `json:",omitempty"`
	// Deprecated: Shards once selected a sharded cycle loop, which has
	// been removed. The field stays so requests from older clients that
	// still send it decode (the wire decoders reject unknown fields);
	// a negative value is still rejected, any other value is ignored,
	// and it is not part of the job's cache identity.
	Shards int `json:",omitempty"`
	// TimeoutMS bounds the job's whole life — queue wait plus run — in
	// milliseconds; on expiry the job fails with "job deadline
	// exceeded" and releases its worker. 0 defers to the server's
	// default (mosaicd -job-timeout; unbounded unless set). TimeoutMS
	// is not part of the job's cache identity.
	TimeoutMS int64 `json:",omitempty"`
	// Dim/DimValue make the request one cell of a parameter sweep: the
	// named dimension (the mosaic-sweep -dim registry) is applied at
	// DimValue on top of every other mutation, then the TLB-way clamp.
	// Local sweeps plan their cells as these requests too, so the
	// digests (and therefore the cache and store identities) match a
	// local sweep's. Empty Dim (the default) leaves the configuration
	// untouched, exactly as before the fields existed.
	Dim      string `json:",omitempty"`
	DimValue int    `json:",omitempty"`
}

// CampaignRequest is the body of POST /v1/campaigns: a whole sweep
// grid — every (value, policy) cell of Base swept along Dim — submitted
// as one schedulable unit. PlanCampaign expands it (cell i is value
// i/len(P), policy i%len(P)) for the server and mosaic-sweep's local
// mode alike; the server answers already-known cells from its cache and
// store, and enqueues only the rest.
type CampaignRequest struct {
	// Base is the request every cell starts from. Its Policy and
	// Dim/DimValue fields must be empty — the campaign grid supplies
	// them per cell.
	Base RunRequest
	// Policies is the grid's policy axis, in column order. Required.
	Policies []string
	// Dim/Values are the swept axis, in row order. An empty Dim with no
	// Values degenerates to a one-row grid over Policies alone.
	Dim    string `json:",omitempty"`
	Values []int  `json:",omitempty"`
}

// CampaignState is one step of the campaign lifecycle: running until
// every cell has a terminal event, then done (individual cell failures
// are counted, not fatal) or canceled.
type CampaignState string

// Campaign lifecycle states.
const (
	CampaignRunning  CampaignState = "running"
	CampaignDone     CampaignState = "done"
	CampaignCanceled CampaignState = "canceled"
)

// Terminal reports whether the campaign state is done or canceled.
func (s CampaignState) Terminal() bool {
	return s == CampaignDone || s == CampaignCanceled
}

// CampaignStatus is the response of POST /v1/campaigns and
// GET /v1/campaigns/{id}.
type CampaignStatus struct {
	// ID addresses the campaign in GET /v1/campaigns/{id}, .../stream,
	// and .../cancel.
	ID    string
	State CampaignState
	// Cells is the grid size; Done/Failed/Canceled partition the cells
	// with terminal results so far.
	Cells    int
	Done     int
	Failed   int
	Canceled int
	// FromCache/FromStore count cells answered without simulating, from
	// the in-memory cache and the persistent store respectively.
	FromCache int
	FromStore int
}

// CellEvent is one line of the campaign's NDJSON stream: a cell
// reaching a terminal state. Events stream in completion order — Index
// places the cell in the grid (value-major, the mosaic-sweep order) so
// clients reassemble deterministically. The stream replays from the
// first event on every (re)connect.
type CellEvent struct {
	// Index is the cell's grid position: value index * len(policies) +
	// policy index.
	Index int
	// Workload/Policy/ConfigDigest identify the cell's simulation (the
	// result identity triple).
	Workload     string
	Policy       string
	ConfigDigest string
	// DimValue is the cell's swept value (0 when the campaign has no
	// swept dimension).
	DimValue int `json:",omitempty"`
	// State is the cell's terminal state: done, failed, or canceled.
	State JobState
	// Cached is set when the cell was answered without simulating.
	Cached bool `json:",omitempty"`
	// Error carries the failure message of a failed cell.
	Error string `json:",omitempty"`
	// Result is the cell's full Report JSON (done cells only).
	Result json.RawMessage `json:",omitempty"`
}

// JobState is one step of the job lifecycle.
type JobState string

// The lifecycle is queued → running → done | failed | canceled. States
// never move backwards; done, failed, and canceled are terminal. A
// per-job deadline expiry reads as failed (with a "job deadline
// exceeded" error); an explicit POST /v1/runs/{id}/cancel reads as
// canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is done, failed, or canceled.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is the response of POST /v1/runs and GET /v1/runs/{id}.
type JobStatus struct {
	// ID addresses the job in GET /v1/runs/{id} and .../result.
	ID    string
	State JobState
	// Workload/Policy/ConfigDigest identify the simulation exactly:
	// equal triples mean byte-identical results (the cache key).
	Workload     string
	Policy       string
	ConfigDigest string
	// Cached is set on submission responses when the request was
	// deduplicated onto an existing job instead of enqueueing a new one.
	Cached bool `json:",omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:",omitempty"`
}

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	Error string
}
