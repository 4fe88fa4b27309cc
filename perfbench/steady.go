package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMode runs the workload n times with seeds seed, seed+1, ... and
// prints, for each metric, the median, the quartiles, the interquartile
// range and (max-min) as shares of the median. With against set, the
// other checkout's build runs the same seeds interleaved with this one,
// alternating which side goes first, and the shift of its median against
// this checkout's is printed too. Each run is a child process started
// through the wrapper in its checkout, exactly as a single run is.
func steadyMode(name string, seed int64, seconds float64, traced, n int, against string) int {
	if _, ok := workloads[name]; !ok {
		fmt.Fprintf(os.Stderr, "steadiness mode needs --workload %s\n", workloadNames())
		return 2
	}
	sides := []string{"."}
	if against != "" {
		sides = append(sides, against)
	}
	values := make([]map[string][]float64, len(sides))
	units := map[string]string{}
	for i := range values {
		values[i] = map[string][]float64{}
	}
	bad := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		for j := range sides {
			side := j
			if i%2 == 1 {
				side = len(sides) - 1 - j
			}
			res, err := runChild(sides[side], name, s, seconds, traced)
			if err != nil || !res.Correct || res.Failed > 0 {
				bad++
				fmt.Fprintf(os.Stderr, "%s seed %d: error %v, correct %v, failed %d\n", sides[side], s, err, res.Correct, res.Failed)
				if err != nil {
					continue
				}
			}
			for m, v := range res.Metrics {
				values[side][m] = append(values[side][m], v.Value)
				units[m] = v.Unit
			}
		}
	}

	stamp, _ := json.Marshal(hostStamp(seed))
	fmt.Printf("host %s\n", stamp)
	fmt.Printf("workload %s, %d runs per side, %gs each, trace %d, seeds %d..%d\n", name, n, seconds, traced, seed, seed+int64(n)-1)
	var names []string
	for m := range units {
		names = append(names, m)
	}
	sort.Strings(names)
	for si, side := range sides {
		fmt.Printf("\n%s\n  %-36s %14s %14s %14s %9s %9s %9s\n", side, "metric", "q1", "median", "q3", "iqr%", "range%", "vs .%")
		for _, m := range names {
			xs := values[si][m]
			q1, q2, q3, err := quartiles(xs)
			if err != nil {
				fmt.Printf("  %-36s %v\n", m, err)
				continue
			}
			lo, hi := minMax(xs)
			shift := ""
			if si > 0 {
				shift = pct(q2/median(values[0][m]) - 1)
			}
			fmt.Printf("  %-36s %14.6g %14.6g %14.6g %9s %9s %9s  %s\n", m, q1, q2, q3,
				pct((q3-q1)/q2), pct((hi-lo)/q2), shift, units[m])
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d runs failed or were incorrect\n", bad)
		return 1
	}
	return 0
}

// runChild runs one benchmark invocation through the wrapper of the
// checkout at dir and parses its last line.
func runChild(dir, name string, seed int64, seconds float64, traced int) (result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("parsing the result line: %w", err)
	}
	return res, nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func pct(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return "-"
	}
	return strconv.FormatFloat(x*100, 'f', 2, 64)
}
