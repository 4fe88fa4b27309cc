// Package mosaic is a from-scratch Go reproduction of "Mosaic: A GPU
// Memory Manager with Application-Transparent Support for Multiple Page
// Sizes" (Ausavarungnirun et al., MICRO-50, 2017).
//
// It bundles a cycle-approximate multi-application GPU simulator (SIMT
// warps, two-level TLBs, a highly-threaded page table walker, caches,
// FR-FCFS DRAM, and a PCIe-like demand-paging bus) together with the four
// memory managers the paper evaluates:
//
//   - GPUMMU4K — the state-of-the-art baseline with 4KB pages only;
//   - gpummu-2mb — memory managed exclusively at 2MB granularity
//     (selected by name through ParsePolicy);
//   - Mosaic   — CoCoA + the In-Place Coalescer + CAC (the paper's
//     contribution);
//   - IdealTLB — an upper bound where every translation hits.
//
// A fifth row of the same policy table, fifo-mmu, is Mosaic whose bounded
// page pool evicts in first-fault order instead of least recently used
// (selected by name through ParsePolicy).
//
// # Quick start
//
//	cfg := mosaic.EvalConfig()
//	wl, _ := mosaic.Pair("HS", "CONS")
//	res, err := mosaic.Run(cfg, wl, mosaic.SimOptions{Policy: mosaic.Mosaic})
//
// For whole-paper reproductions use the Harness, which has one method per
// evaluation figure/table (Fig3 … Fig16b, Table2); see EXPERIMENTS.md for
// the recorded paper-vs-measured comparison.
package mosaic

import (
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/iobus"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/serviceclient"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
	"repro/internal/workload"
)

// Config describes the simulated GPU (paper Table 1 by default).
type Config = config.Config

// DefaultConfig returns the paper's Table-1 system configuration.
func DefaultConfig() Config { return config.Default() }

// EvalConfig returns the configuration the experiment harness uses:
// Table-1 geometry with reduced warp counts and scaled working sets so
// the full suite completes in minutes.
func EvalConfig() Config { return config.Eval() }

// FastTestConfig returns a small configuration for smoke tests.
func FastTestConfig() Config { return config.FastTest() }

// Policy selects a memory manager.
type Policy = core.Policy

// Three of the four evaluated memory managers; the 2MB-only manager is
// ParsePolicy("gpummu-2mb").
const (
	GPUMMU4K = core.GPUMMU4K
	Mosaic   = core.Mosaic
	IdealTLB = core.IdealTLB
)

// NamedPolicy pairs a resolved Policy with the wire name it was
// requested under (the ParsePolicyList result element).
type NamedPolicy = harness.NamedPolicy

// ErrUnknownPolicy is wrapped by every policy-name resolution failure
// (ParsePolicy, ParsePolicyList, NewSimulator with an id outside the
// policy table); test with errors.Is.
var ErrUnknownPolicy = core.ErrUnknownPolicy

// ParsePolicy resolves one wire policy name against the policy table:
// the four paper managers plus "fifo-mmu", Mosaic evicting in
// first-fault order under a bounded page pool.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// ParsePolicyList parses a comma-separated -policy flag value ("all" =
// the four paper managers) against the policy table.
func ParsePolicyList(s string) ([]NamedPolicy, error) { return harness.ParsePolicies(s) }

// PolicyNames returns the wire names in policy-table order.
func PolicyNames() []string { return core.PolicyNames() }

// ManagerOptions exposes the full memory-manager option set, including
// the ablation knobs (migrating coalescer, forced TLB flush on coalesce,
// CAC variants). Use SimOptions.MutateManager to adjust them per run.
type ManagerOptions = core.Options

// CAC (Contiguity-Aware Compaction) variants (§6.4).
const (
	CACOff      = core.CACOff
	CACBulkCopy = core.CACBulkCopy
	CACIdeal    = core.CACIdeal
)

// Coalescing modes, including the migrate-then-coalesce ablation of the
// conventional design (Fig. 6a).
const (
	CoalesceInPlace = core.CoalesceInPlace
	CoalesceMigrate = core.CoalesceMigrate
)

// Workload is a set of applications to execute concurrently.
type Workload = workload.Workload

// AppSpec is one synthetic application model.
type AppSpec = workload.Spec

// Suite returns the 27 application models of the paper's evaluation.
func Suite() []AppSpec { return workload.Suite() }

// AppByName looks up one suite application (main or oversubscription
// suite).
func AppByName(name string) (AppSpec, error) { return workload.ByName(name) }

// OversubSuite returns the demand-paging stress applications used by the
// oversubscription experiments (cyclic sweeps that defeat LRU residency).
func OversubSuite() []AppSpec { return workload.OversubSuite() }

// ResidentBudget converts an oversubscription ratio into a
// Config.MaxResidentPages bound for wl: total scaled footprint in base
// pages divided by ratio (2 = working sets are twice GPU memory), floored
// at one 2MB frame. Ratios <= 0 return 0, the unbounded value.
func ResidentBudget(cfg Config, wl Workload, ratio float64) uint64 {
	return workload.ResidentBudget(cfg, wl, ratio)
}

// Homogeneous builds the paper's homogeneous workloads: n copies of each
// suite application.
func Homogeneous(n int) []Workload { return workload.Homogeneous(n) }

// Heterogeneous builds count workloads of n distinct random applications.
// Composition is a pure function of (n, count, seed): the same arguments
// always return the same workloads.
func Heterogeneous(n, count int, seed int64) []Workload {
	return workload.Heterogeneous(n, count, seed)
}

// Pair builds a named two-application workload.
func Pair(a, b string) (Workload, error) { return workload.Pair(a, b) }

// SimOptions configures one simulation run: the memory-manager Policy,
// the deterministic Seed driving the synthetic access streams, the
// fragmentation/deallocation stress knobs of §6.4 (fractions in [0, 1]),
// and optional trace recording.
type SimOptions = sim.Options

// Results reports one simulation run: total Cycles (the simulated clock
// at finish), per-application outcomes, request-granularity TLB hit
// rates in [0, 1], every component's counters, and a ConfigDigest
// identifying exactly which configuration produced them.
type Results = sim.Results

// Run executes one workload under the given policy and returns the
// results (cycles, per-app IPC, TLB hit rates, component statistics).
// The simulation is deterministic: the same configuration, workload, and
// options always produce identical Results, independent of host, time,
// or concurrency around the call.
func Run(cfg Config, wl Workload, opt SimOptions) (Results, error) {
	s, err := sim.New(cfg, wl, opt)
	if err != nil {
		return Results{}, err
	}
	return s.Run()
}

// Simulator is one configured simulation engine. Most callers use Run;
// the explicit form exists for the snapshot/fork sweep workflow: build
// with NewSimulator and SimOptions.SnapshotWarmup set, RunWarmup, then
// either Run (a cold two-phase run) or Snapshot and Fork each sweep
// cell from the shared warmed state.
type Simulator = sim.Simulator

// SimSnapshot is a frozen, warmed simulator captured at its quiesce
// point; Fork creates independent engines that resume from it. Forked
// runs are byte-identical to cold two-phase runs of the same plan.
type SimSnapshot = sim.Snapshot

// NewSimulator builds a simulation engine without running it — the entry
// point for snapshot/fork sweeps (see Simulator).
func NewSimulator(cfg Config, wl Workload, opt SimOptions) (*Simulator, error) {
	return sim.New(cfg, wl, opt)
}

// CanReconfigure reports whether cell differs from base only in the
// knobs Simulator.Reconfigure accepts between warmup and measurement
// (TLB geometry and latencies). Sweep drivers use it to decide whether
// a grid's cells can share a warmup prefix.
func CanReconfigure(base, cell Config) bool { return sim.CanReconfigure(base, cell) }

// Harness regenerates the paper's evaluation figures and tables. Its
// Jobs field bounds how many simulations run concurrently (0 =
// GOMAXPROCS, 1 = sequential); structured results, rendered tables, and
// JSON/CSV exports are byte-identical for every value. Set its Collect
// field (or use CollectFigure) to capture a RunRecord for every
// simulation an experiment executes.
type Harness = harness.Harness

// Runner is a fixed-size worker pool for executing independent
// simulations concurrently — the engine behind Harness.Jobs, exported so
// tools like mosaic-sweep can parallelize their own run grids. Submit
// never blocks on job execution; Wait returns when every submitted job
// finished, re-raising the first panic. Determinism is the caller's
// side of the contract: write each job's result into its own
// pre-assigned slot and assemble in submission order after Wait.
type Runner = harness.Runner

// NewRunner starts a Runner with the given worker count (<= 0 means
// GOMAXPROCS). Call Close to release the workers.
func NewRunner(workers int) *Runner { return harness.NewRunner(workers) }

// NewHarness returns a harness over the full 27-application suite with
// the paper's workload counts.
func NewHarness(cfg Config) *Harness { return harness.New(cfg) }

// NewQuickHarness returns a harness over a representative application
// subset, for smoke runs and benchmarks.
func NewQuickHarness(cfg Config) *Harness { return harness.NewQuick(cfg) }

// Per-experiment result types (one per paper figure/table).
type (
	// Fig3Result is the page-size translation study of Figure 3.
	Fig3Result = harness.Fig3Result
	// BloatResult is the §3.2 memory-bloat study.
	BloatResult = harness.BloatResult
	// SpeedupResult is a weighted-speedup study (Figures 8 and 9).
	SpeedupResult = harness.SpeedupResult
	// Fig11Result is the per-application IPC distribution of Figure 11.
	Fig11Result = harness.Fig11Result
	// OversubResult is the memory-oversubscription study: IPC retained
	// by each manager under a bounded resident page pool.
	OversubResult = harness.OversubResult
)

// AllocBaseline is the shared-cursor allocator of Fig. 1a that mixes
// applications within large frames (for ablations via ManagerOptions).
const AllocBaseline = core.AllocBaseline

// Structured export layer: run records, versioned reports, and report
// diffing. See docs/RESULTS_SCHEMA.md for the serialized schema and its
// compatibility policy.
type (
	// RunRecord is the structured outcome of one deterministic
	// simulation: identity (workload, policy, config digest),
	// throughput, and per-component counters. Cycle counts are in
	// simulated cycles, IPC in instructions per cycle, rates in [0, 1].
	RunRecord = metrics.RunRecord
	// AppRecord is one application's outcome inside a RunRecord.
	AppRecord = metrics.AppRecord
	// ReportFigure is one exported experiment: the rendered table plus
	// the run records behind it.
	ReportFigure = metrics.Figure
	// Report is a versioned bundle of exported figures. WriteJSON and
	// WriteCSV are byte-deterministic: the same experiment serializes
	// to identical bytes for every Harness.Jobs value.
	Report = metrics.Report
	// DiffOptions tunes report comparison; Tol is a relative tolerance
	// for numeric cells and derived floats (counters compare exactly).
	DiffOptions = metrics.DiffOptions
)

// SchemaVersion is the version stamped into every exported Report; it
// increments only when a field is removed, renamed, or changes meaning.
const SchemaVersion = metrics.SchemaVersion

// NewRunRecord converts one simulation result into its export record.
func NewRunRecord(res Results) RunRecord { return metrics.NewRunRecord(res) }

// ReadReport parses a JSON report produced by Report.WriteJSON (or the
// -format json flag of mosaic-bench/mosaic-sweep) and validates its
// schema version.
func ReadReport(r io.Reader) (Report, error) { return metrics.ReadReport(r) }

// DiffReports compares two reports figure by figure and returns one
// human-readable line per difference; an empty result means the reports
// agree. Diffing a report against itself always returns nothing.
func DiffReports(a, b Report, opt DiffOptions) []string {
	return metrics.DiffReports(a, b, opt)
}

// Per-component counter types, as embedded in Results and RunRecord.
type (
	// TLBStats counts lookups, hits, and evictions per TLB array.
	TLBStats = tlb.Stats
	// WalkerStats counts page walks and their latency distribution.
	WalkerStats = walker.Stats
	// DRAMStats counts DRAM accesses and row-buffer behavior.
	DRAMStats = dram.Stats
	// BusStats counts demand-paging transfers over the system I/O bus.
	BusStats = iobus.Stats
	// ManagerStats counts memory-manager events (coalesces, splinters,
	// compactions, migrations, far-faults).
	ManagerStats = core.Stats
)

// Simulation service layer: mosaicd (cmd/mosaicd) serves the simulator
// over HTTP with a bounded job queue and a digest-keyed result cache,
// and ServiceClient is its Go client. See docs/SERVICE.md.
type (
	// Service is an embeddable mosaicd instance: create with
	// NewService, mount Handler on an HTTP server, stop with Shutdown
	// (which drains in-flight runs).
	Service = server.Server
	// ServiceOptions sizes a Service: worker pool, queue bound, base
	// configuration, default per-job deadline, and (for tests) a fault
	// injection registry.
	ServiceOptions = server.Options
	// RunRequest is one simulation submission (POST /v1/runs).
	RunRequest = server.RunRequest
	// JobStatus reports a submitted run's lifecycle state.
	JobStatus = server.JobStatus
	// ServiceClient submits, polls, cancels, and fetches runs from a
	// mosaicd instance.
	ServiceClient = serviceclient.Client
)

// JobDone is the terminal state of a run that finished and has a result.
const JobDone = server.JobDone

// Typed service-client errors, for errors.Is against ServiceClient
// results.
var (
	// ErrQueueFull marks an HTTP 429: the service's bounded job queue
	// is full (Run retries it internally; Submit surfaces it).
	ErrQueueFull = serviceclient.ErrQueueFull
	// ErrDraining marks an HTTP 503: the service is shutting down.
	ErrDraining = serviceclient.ErrDraining
	// ErrTimeout marks a client-side deadline expiry before the job
	// reached a terminal state.
	ErrTimeout = serviceclient.ErrTimeout
	// ErrCanceled marks a canceled context or a server-side job
	// cancellation.
	ErrCanceled = serviceclient.ErrCanceled
)

// NewService starts an in-process simulation service (the engine of
// cmd/mosaicd). Its worker pool runs until Shutdown.
func NewService(opt ServiceOptions) *Service { return server.New(opt) }

// NewServiceClient returns a client for the mosaicd instance at baseURL.
func NewServiceClient(baseURL string) *ServiceClient { return serviceclient.New(baseURL) }

// Campaign layer (POST /v1/campaigns): a whole sweep grid as one
// schedulable unit, streamed back cell by cell. The daemon answers
// known cells from its cache and result store and simulates only the
// rest on its worker pool. See docs/SERVICE.md.
type (
	// CampaignRequest is a sweep grid: a base request crossed with a
	// policy axis and an optional (dimension, values) axis.
	CampaignRequest = server.CampaignRequest
	// CampaignStatus reports a campaign's lifecycle state and cell
	// counts.
	CampaignStatus = server.CampaignStatus
	// CellEvent is one cell's terminal event on the campaign stream,
	// carrying the full result report on success.
	CellEvent = server.CellEvent
)

// Persistent result store: the durable tier under a daemon's in-memory
// cache, keyed by the (workload, policy, config digest) identity triple
// of docs/RESULTS_SCHEMA.md. Daemons pointed at one disk root share
// results; see docs/SERVICE.md for the on-disk format.
type (
	// ResultKey is the identity triple a stored result files under.
	ResultKey = store.Key
	// DiskStore is the content-addressed on-disk store daemons share.
	DiskStore = store.Disk
)

// NewDiskStore opens (creating if needed) a disk-backed result store
// rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) { return store.NewDisk(dir) }

// RunStoreKey resolves the store identity a daemon with the default
// base configuration would file this request's result under, without
// running anything — the hook for prewarming a store from local runs
// (mosaic-sim -record-store).
func RunStoreKey(req RunRequest) (ResultKey, error) { return server.StoreKey(nil, req) }

// RunRecordPayload serializes a run record exactly as daemons persist
// results, so prewarmed entries are byte-identical to daemon-written
// ones.
func RunRecordPayload(rec RunRecord) ([]byte, error) { return server.RecordPayload(rec) }

// TraceEvent is one recorded memory-management event (far-fault, walk,
// coalesce, splinter, compaction, migration, alloc, free). Enable
// recording with SimOptions.TraceLimit; the events land in Results.Trace.
type TraceEvent = trace.Event

// TraceSummary aggregates a trace (event counts, average latencies).
type TraceSummary = trace.Summary

// SummarizeTrace aggregates recorded events into a TraceSummary.
func SummarizeTrace(evs []TraceEvent) TraceSummary { return trace.Summarize(evs) }

// ReplaySpec builds an application model that replays recorded working-set
// byte offsets instead of a synthetic pattern — the hook for driving the
// simulator with real application traces.
func ReplaySpec(name string, offsets []uint64, computePerMem int) (AppSpec, error) {
	return workload.ReplaySpec(name, offsets, computePerMem)
}

// LoadOffsetsJSON reads a JSON array of byte offsets for ReplaySpec.
func LoadOffsetsJSON(r io.Reader) ([]uint64, error) { return workload.LoadOffsetsJSON(r) }
