package clitest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsLeaveOutputUnchanged runs mosaic-sim and mosaic-bench
// with and without -cpuprofile and -memprofile: both profiles must be
// written and non-empty, and stdout and the -record / -out file must be
// byte-identical to the run without them.
func TestProfileFlagsLeaveOutputUnchanged(t *testing.T) {
	cases := []struct {
		cli, outFlag string
		args         []string
	}{
		{"mosaic-sim", "-record", []string{"-apps", "HS", "-policy", "mosaic", "-scale", "512", "-nopaging"}},
		{"mosaic-bench", "-out", []string{"-fig", "bloat", "-scale", "512", "-format", "json"}},
	}
	for _, c := range cases {
		t.Run(c.cli, func(t *testing.T) {
			dir := t.TempDir()
			plain, profiled := filepath.Join(dir, "plain.json"), filepath.Join(dir, "profiled.json")
			cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
			wantStdout := runCLIOut(t, c.cli, append(c.args, c.outFlag, plain)...)
			gotStdout := runCLIOut(t, c.cli, append(c.args, c.outFlag, profiled, "-cpuprofile", cpu, "-memprofile", mem)...)
			if !bytes.Equal(gotStdout, wantStdout) {
				t.Errorf("stdout differs with profiling on:\n%s\nwithout:\n%s", gotStdout, wantStdout)
			}
			want, err := os.ReadFile(plain)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(profiled)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Errorf("%s file differs with profiling on (%d bytes, %d without)", c.outFlag, len(got), len(want))
			}
			for _, p := range []string{cpu, mem} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("profile %s missing or empty (err %v)", filepath.Base(p), err)
				}
			}
		})
	}
}
