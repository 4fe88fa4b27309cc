// Command perfbench is the repository's benchmark: one command that runs
// one of three named workloads (tlb-sweep, oversub, service) for a fixed
// time, checks every output, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it holds the end-to-end metrics; with -trace 1 the
// per-layer metrics of a separate traced run. -steady runs a workload
// several times (interleaved with another checkout's build when
// -against names one) and prints each metric's median, quartiles and
// spread. See README.md in this directory for the workloads, metrics and
// the layer-to-end-to-end map.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload tlb-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose RunRecord digests are recorded in
// golden/; runs with it check every record against them.
const defaultSeed = 1

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// minTailSamples is the number of samples a latency percentile needs
// beyond it before it is reported.
const minTailSamples = 10

// workDir holds everything the benchmark writes while it runs: result
// stores, spans and profiles. It sits inside the checkout, beside the
// build output, and is ignored by git.
const workDir = ".bench_build/perfbench-work"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: tlb-sweep | oversub | service")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; the program receives only the inputs generated from it")
		seconds = flag.Float64("seconds", 25, "how long the timed phase measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
		against = flag.String("against", "", "with -steady: another checkout whose build runs interleaved with this one")
		golden  = flag.Bool("write-golden", false, "record this run's RunRecord digests as the golden values (use with the default seed)")
	)
	flag.Parse()
	if *steady > 0 {
		return steadyMode(*name, *seed, *seconds, *traced, *steady, *against)
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, e2e: map[string]float64{}, layer: map[string]float64{}}
	if *traced == 1 {
		if err := tracedRun(b, w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		setupS, state := setupSeconds(b, w)
		if state != nil {
			w.measure(b, state, time.Duration(*seconds*float64(time.Second)))
		}
		b.e2e["setup_s"] = setupS
		b.e2e["peak_rss_mb"] = peakRSSMB()
	}
	if *golden {
		if err := writeGolden(b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		checkGolden(b)
	}

	stamp, _ := json.Marshal(hostStamp(*seed))
	fmt.Printf("host %s\n", stamp)
	res := result{Correct: b.failed == 0 && len(b.checkFailures) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	names, units := e2eMetrics, e2eUnits
	vals := b.e2e
	if *traced == 1 {
		names, units, vals = layerMetrics, layerUnits, b.layer
	}
	for _, n := range names {
		v, ok := vals[n]
		if !ok && *traced == 0 {
			b.check(false, "end-to-end metric %s was not measured", n)
			res.Correct = false
		}
		res.Metrics[n] = metricValue{Value: v, Unit: units[n]}
	}
	for _, msg := range b.checkFailures {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	printTable(res)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// workload is one named benchmark input: a set-up step (timed, repeated)
// and a timed phase that measures, checks and fills the metrics. Why
// each workload exists is in README.md and BENCHMARK.json.
type workload struct {
	prepare func(b *bench) (any, error)
	measure func(b *bench, state any, budget time.Duration)
}

var workloads = map[string]workload{
	"tlb-sweep": {prepare: func(b *bench) (any, error) { return prepareSim(b, tlbSweepSpec(b.seed)) }, measure: measureSim},
	"oversub":   {prepare: func(b *bench) (any, error) { return prepareSim(b, oversubSpec(b.seed)) }, measure: measureSim},
	"service":   {prepare: prepareService, measure: measureService},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// bench is the state of one run: its inputs, operation counts, check
// results and the metrics it has measured so far.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	// tr records spans in the traced run and is nil otherwise.
	tr *tracer
	// endProfile, set in the traced run, stops the CPU profile; a
	// workload calls it where the phases it profiles end.
	endProfile func()

	attempted, failed int
	checkFailures     []string
	// records are the canonical RunRecord payloads of one pass, keyed by
	// identity, for the golden check.
	records map[string][]byte

	e2e, layer map[string]float64
}

// op counts one attempted operation and, when err is non-nil, one
// failed operation. It reports whether the operation succeeded.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintln(os.Stderr, "failed operation:", err)
		}
		return false
	}
	return true
}

// check records a failed output check or traffic assertion.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.checkFailures = append(b.checkFailures, fmt.Sprintf(format, args...))
	}
}

// setupSeconds sets the workload up setupRepeats times and returns the
// median wall time of one set-up and the last set-up's state; earlier
// states are closed.
func setupSeconds(b *bench, w workload) (float64, any) {
	var times []float64
	var state any
	for i := 0; i < setupRepeats; i++ {
		closeState(state)
		t0 := time.Now()
		st, err := w.prepare(b)
		times = append(times, time.Since(t0).Seconds())
		if !b.op(err) {
			return median(times), nil
		}
		state = st
	}
	return median(times), state
}

// closeState releases what a set-up holds (the service workload's daemon
// and store directory); other states hold nothing.
func closeState(state any) {
	if c, ok := state.(interface{ close() }); ok {
		c.close()
	}
}

// tracedRun measures the workload twice on the same inputs, each for
// half the time: untraced, then with spans, the store and handler
// decorators and a CPU profile (of the simulations only, on the
// simulation workloads). The per-layer metrics come from the second
// half; the difference between the halves is the tracing overhead.
func tracedRun(b *bench, w workload) error {
	half := time.Duration(b.seconds / 2 * float64(time.Second))
	_, state := setupSeconds(b, w)
	if state == nil {
		return errors.New("set-up failed")
	}
	w.measure(b, state, half)
	untraced := b.e2e[overheadMetric(b.workload)]

	b.e2e = map[string]float64{}
	b.tr = newTracer()
	st, err := w.prepare(b)
	if !b.op(err) {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		closeState(st)
		return err
	}
	profiling := true
	b.endProfile = func() {
		if profiling {
			pprof.StopCPUProfile()
			profiling = false
		}
	}
	w.measure(b, st, half)
	b.endProfile()

	traced := b.e2e[overheadMetric(b.workload)]
	if untraced > 0 && traced > 0 {
		if b.workload == "service" { // a latency: higher is worse
			b.layer["trace.overhead_pct"] = (traced/untraced - 1) * 100
		} else { // a throughput: lower is worse
			b.layer["trace.overhead_pct"] = (untraced/traced - 1) * 100
		}
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	attr := attribute(samples)
	for _, m := range profiledModules {
		b.layer[m+".self_pct"] = attr.self[m] * 100
	}
	b.layer["runtime.gc_pct"] = attr.gc * 100

	base := filepath.Join(workDir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := b.tr.write(base + "-spans.json"); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", prof.Bytes(), 0o644)
}

// overheadMetric is the end-to-end metric the tracing overhead is
// computed from: the one the traced layers would slow most directly.
func overheadMetric(workload string) string {
	if workload == "service" {
		return "hit_ms_p50"
	}
	return "minstr_per_cpu_s"
}

// profiledModules are the layers whose self share of CPU samples the
// traced run reports.
var profiledModules = []string{"sim", "event", "tlb", "walker", "cache", "pagetable", "dram", "iobus", "core", "alloc", "workload"}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable prints the metrics one per line for a human reader, before
// the JSON line.
func printTable(r result) {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}
