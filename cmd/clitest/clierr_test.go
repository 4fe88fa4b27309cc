// Package clitest holds CLI-level regression tests: it builds the real
// binaries and checks their exit codes and stderr, which unit tests of
// main packages cannot see. The pinned contract here is satellite-sized
// but load-bearing for CI: an -out/-record destination that cannot be
// created or written must fail the command with a non-zero exit and a
// message on stderr — never a silent success.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mosaic-clitest-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir,
		"./cmd/mosaic-bench", "./cmd/mosaic-sweep", "./cmd/mosaic-sim")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building CLIs: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes one built binary and returns exit code and stderr.
func runCLI(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var stderr bytes.Buffer
	cmd.Stdout = nil
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

func missingDirPath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "no-such-dir", "out.json")
}

func TestBenchOutCreateFailureExitsNonZero(t *testing.T) {
	// The -out target is opened before any simulation runs, so this is
	// fast despite naming a figure.
	code, stderr := runCLI(t, "mosaic-bench", "-fig", "8", "-format", "json", "-out", missingDirPath(t))
	if code == 0 {
		t.Fatal("mosaic-bench with uncreatable -out exited 0")
	}
	if stderr == "" {
		t.Fatal("no message on stderr")
	}
}

func TestBenchUnknownFigureFails(t *testing.T) {
	code, stderr := runCLI(t, "mosaic-bench", "-fig", "17", "-format", "json")
	if code == 0 || !strings.Contains(stderr, `"17"`) || !strings.Contains(stderr, "oversub") {
		t.Fatalf("exit %d, stderr %q: want a non-zero exit naming 17 and the valid figures", code, stderr)
	}
}

func TestSweepOutFailuresExitNonZero(t *testing.T) {
	fast := []string{"-dim", "scale", "-values", "512", "-apps", "HS", "-policies", "ideal"}

	t.Run("create", func(t *testing.T) {
		code, stderr := runCLI(t, "mosaic-sweep", append(fast, "-format", "json", "-out", missingDirPath(t))...)
		if code == 0 || stderr == "" {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
	})
	// /dev/full accepts the open but fails every write — the deferred
	// failure mode that used to be swallowed in text mode.
	if _, err := os.Stat("/dev/full"); err == nil {
		for _, format := range []string{"text", "json"} {
			format := format
			t.Run("write-"+format, func(t *testing.T) {
				code, stderr := runCLI(t, "mosaic-sweep", append(fast, "-format", format, "-out", "/dev/full")...)
				if code == 0 || stderr == "" {
					t.Fatalf("exit %d, stderr %q", code, stderr)
				}
			})
		}
	}
}

func TestSimRecordFailureExitsNonZero(t *testing.T) {
	code, stderr := runCLI(t, "mosaic-sim",
		"-apps", "HS", "-policy", "ideal", "-scale", "512", "-record", missingDirPath(t))
	if code == 0 || stderr == "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestSimRecordSuccessStillExitsZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	code, stderr := runCLI(t, "mosaic-sim",
		"-apps", "HS", "-policy", "ideal", "-scale", "512", "-record", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("record file missing or empty: %v", err)
	}
}
