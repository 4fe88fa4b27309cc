package server

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestResolveRejectsUnboundedOversub: an oversubscription request that
// would silently run unbounded, or at the floor budget, is an error.
func TestResolveRejectsUnboundedOversub(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{"NaN ratio", RunRequest{Apps: []string{"HS"}, Oversub: math.NaN()}, "oversub must be a finite"},
		{"+Inf ratio", RunRequest{Apps: []string{"HS"}, Oversub: math.Inf(1)}, "oversub must be a finite"},
		{"-Inf ratio", RunRequest{Apps: []string{"HS"}, Oversub: math.Inf(-1)}, "oversub must be a finite"},
		{"negative ratio", RunRequest{Apps: []string{"HS"}, Oversub: -1}, "oversub must be a finite"},
		{"negative oversub dim", RunRequest{Apps: []string{"HS"}, Dim: "oversub", DimValue: -150}, "oversub dimension value"},
	}
	for _, tc := range cases {
		_, err := Resolve(config.FastTest, tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The boundary values still resolve: 0 is unbounded on purpose.
	for _, req := range []RunRequest{
		{Apps: []string{"HS"}, Dim: "oversub", DimValue: 0},
		{Apps: []string{"HS"}, Dim: "oversub", DimValue: 150},
		{Apps: []string{"HS"}, Oversub: 1.5},
	} {
		if _, err := Resolve(config.FastTest, req); err != nil {
			t.Errorf("%+v rejected: %v", req, err)
		}
	}
}

// FuzzResolve decodes arbitrary bytes into a RunRequest and resolves
// it. Resolve must never panic, and an accepted plan must be runnable
// (Config.Validate, no more apps than SMs) and keyed by the digest its
// run stamps. JSON cannot carry a non-finite float, which mosaic-sim's
// -oversub flag can, so the fuzzed oversub ratio replaces a decoded
// zero.
func FuzzResolve(f *testing.F) {
	for _, seed := range []struct {
		req     string
		oversub float64
	}{
		{`{"Apps":["HS"]}`, math.NaN()},
		{`{"Apps":["HS"]}`, math.Inf(1)},
		{`{"Apps":["HS"],"Dim":"oversub","DimValue":-150}`, 0},
		{`{"Apps":["HS"],"Dim":"oversub","DimValue":150}`, 0},
		{`{"Apps":["HS","CONS"],"Policy":"gpummu","Scale":96}`, 2},
		{`{"Apps":["NW"],"Dim":"l2base","DimValue":8,"SnapshotWarmupCycles":1000}`, 0},
		{`{"Apps":["HS"],"Dim":"pwc","DimValue":12}`, 0},
		{`{"Apps":["HS"],"FragIndex":1,"FragOccupancy":0.5,"DeallocFraction":0.9}`, 0},
	} {
		f.Add([]byte(seed.req), seed.oversub)
	}
	f.Fuzz(func(t *testing.T, data []byte, oversub float64) {
		var req RunRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		if req.Oversub == 0 {
			req.Oversub = oversub
		}
		p, err := Resolve(config.FastTest, req)
		if err != nil {
			return
		}
		if err := p.Config.Validate(); err != nil {
			t.Fatalf("accepted plan fails Config.Validate: %v", err)
		}
		if len(p.Workload.Apps) > p.Config.NumSMs {
			t.Fatalf("accepted plan runs %d apps on %d SMs", len(p.Workload.Apps), p.Config.NumSMs)
		}
		if d := sim.Digest(p.Config, p.Options); p.Key.ConfigDigest != d {
			t.Fatalf("plan key digest %s, run digest %s", p.Key.ConfigDigest, d)
		}
	})
}
