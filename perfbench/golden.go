package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// goldenPath holds the digests of every RunRecord one pass of the
// workload produces with the default seed.
func goldenPath(workload string) string {
	return filepath.Join("perfbench", "golden", workload+".json")
}

// golden is the file format: record identity -> SHA-256 of its
// canonical bytes.
type golden struct {
	Seed    int64
	Records map[string]string
}

func digests(records map[string][]byte) map[string]string {
	out := map[string]string{}
	for k, p := range records {
		sum := sha256.Sum256(p)
		out[k] = hex.EncodeToString(sum[:])
	}
	return out
}

// checkGolden compares the run's records with the recorded digests when
// the run used the default seed.
func checkGolden(b *bench) {
	if b.seed != defaultSeed {
		return
	}
	data, err := os.ReadFile(goldenPath(b.workload))
	if err != nil {
		b.check(false, "golden digests: %v", err)
		return
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		b.check(false, "golden digests: %v", err)
		return
	}
	got := digests(b.records)
	b.check(len(got) == len(g.Records), "golden: %d records, want %d", len(got), len(g.Records))
	for k, want := range g.Records {
		b.check(got[k] == want, "golden: record %q digest %s, want %s", k, got[k], want)
	}
}

// writeGolden records the run's digests as the golden values.
func writeGolden(b *bench) error {
	if b.seed != defaultSeed {
		return fmt.Errorf("golden digests are recorded for seed %d only", defaultSeed)
	}
	data, err := json.MarshalIndent(golden{Seed: b.seed, Records: digests(b.records)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(b.workload), append(data, '\n'), 0o644)
}

// stamp identifies the host, toolchain and source a run measured, so
// numbers from different hosts or trees are never mixed.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision the binary was built from, when the
	// checkout is a repository; Source hashes the Go sources either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Seed   int64  `json:"seed"`
}

func hostStamp(seed int64) stamp {
	s := stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Source: sourceHash(), Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s.Commit += "+modified"
				}
			}
		}
	}
	return s
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash is the SHA-256 over the paths and contents of every .go
// and go.mod file of the checkout, hidden directories excluded.
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
