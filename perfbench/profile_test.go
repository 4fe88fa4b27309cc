package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/tlb.(*TLB).Lookup":                     "tlb",
		"repro/internal/event.(*Queue[go.shape.uint64]).Pop":   "event",
		"repro/internal/sim.(*Simulator).issueWarp.func1":      "sim",
		"repro/internal/policies/fifoevict.init":               "policies/fifoevict",
		"repro.Run":                                            "mosaic",
		"runtime.mallocgc":                                     "runtime",
		"net/http.(*conn).serve":                               "net/http",
		"encoding/json.Marshal":                                "encoding/json",
		"main.spin":                                            "main",
		"repro/internal/core.(*System[go.shape.*repro/x.T]).F": "core",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeBySelfFrame(t *testing.T) {
	a := attribute([]sample{
		{stack: []string{"repro/internal/tlb.(*TLB).Lookup", "repro/internal/sim.(*Simulator).memInstr"}, value: 30},
		{stack: []string{"repro/internal/sim.(*Simulator).issueWarp"}, value: 50},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, value: 15},
		{stack: []string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, value: 5},
		{stack: nil, value: 100},                             // no frames: ignored
		{stack: []string{"repro/internal/dram.F"}, value: 0}, // no weight: ignored
	})
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-12 }
	if a.total != 100 {
		t.Fatalf("total = %d, want 100", a.total)
	}
	// Self time goes to the leaf only: sim's caller frame under tlb
	// does not count for sim.
	for m, want := range map[string]float64{"tlb": 0.3, "sim": 0.5, "runtime": 0.2, "dram": 0} {
		if !near(a.self[m], want) {
			t.Errorf("self[%s] = %v, want %v", m, a.self[m], want)
		}
	}
	if !near(a.gc, 0.2) {
		t.Errorf("gc = %v, want 0.2", a.gc)
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.uvarint(uint64(field)<<3 | 0)
	p.uvarint(v)
}

func (p *pb) bytesField(field int, b []byte) {
	p.uvarint(uint64(field)<<3 | 2)
	p.uvarint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	p.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func TestParseProfileSynthetic(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "repro/internal/tlb.F", "repro/internal/sim.G", "runtime.H"} {
		prof.bytesField(6, []byte(s))
	}
	fn := func(id, name uint64) {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		prof.bytesField(5, f.Bytes())
	}
	fn(1, 3)
	fn(2, 4)
	fn(3, 5)
	// Location 10 has tlb.F inlined into sim.G; location 11 is runtime.H.
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		for _, f := range fns {
			var line pb
			line.varint(1, f)
			l.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, l.Bytes())
	}
	loc(10, 1, 2)
	loc(11, 3)
	// One sample with packed fields, one with unpacked ones.
	var s1 pb
	var packed pb
	packed.uvarint(10)
	packed.uvarint(11)
	s1.bytesField(1, packed.Bytes())
	var vals pb
	vals.uvarint(7)
	vals.uvarint(70)
	s1.bytesField(2, vals.Bytes())
	prof.bytesField(2, s1.Bytes())
	var s2 pb
	s2.varint(1, 11)
	s2.varint(2, 3)
	s2.varint(2, 30)
	prof.bytesField(2, s2.Bytes())

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	want0 := []string{"repro/internal/tlb.F", "repro/internal/sim.G", "runtime.H"}
	if got := samples[0].stack; len(got) != 3 || got[0] != want0[0] || got[1] != want0[1] || got[2] != want0[2] {
		t.Errorf("sample 0 stack %v, want %v", got, want0)
	}
	if samples[0].value != 70 || samples[1].value != 30 {
		t.Errorf("values %d, %d; want the last value of each sample, 70 and 30", samples[0].value, samples[1].value)
	}
	a := attribute(samples)
	if a.self["tlb"] != 0.7 || a.self["runtime"] != 0.3 {
		t.Errorf("self shares %v, want tlb 0.7 runtime 0.3", a.self)
	}
	if _, err := parseProfile(prof.Bytes()[:prof.Len()-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

var sink float64

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

// TestParseProfileRuntimePprof reads a profile written by runtime/pprof,
// the producer the benchmark relies on.
func TestParseProfileRuntimePprof(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 {
		t.Skip("no CPU samples were taken")
	}
	// The busy loop's own frames may be instrumented (-race) or inlined,
	// and race-detector samples can lose their Go callers, so look for it
	// anywhere on the stack and ask only for a good share of samples.
	if share := float64(inSpin) / float64(total); share < 0.2 {
		t.Errorf("busy loop is on %.2f of sampled stacks, want at least 0.2", share)
	}
}
