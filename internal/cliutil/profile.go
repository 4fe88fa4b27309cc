package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is a CLI's -cpuprofile and -memprofile pair: Start begins the
// CPU profile after flag parsing, Stop ends it and writes the heap
// profile. Profiling reads the process from outside the simulation, so
// stdout and every output file stay byte-identical with it on.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to this file (read it with go tool pprof)")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to this file when the command finishes")
	return p
}

// Start begins the CPU profile, when -cpuprofile names a file.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and writes the heap profile, each when asked
// for, and reports the first failure. A command that exits early on an
// error leaves its profiles unwritten.
func (p *Profiles) Stop() error {
	var first error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			first = fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = nil
	}
	if p.memPath != "" {
		runtime.GC() // the heap profile shows live data as of the last GC
		err := WriteFile(p.memPath, func(w io.Writer) error { return pprof.WriteHeapProfile(w) })
		if err != nil && first == nil {
			first = fmt.Errorf("memprofile: %w", err)
		}
	}
	return first
}
