package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/config"
)

// TestPolicyTableRoundTrip is the single-table proof: wire name →
// Policy → display name and wire name all round-trip through the one
// table, the ids match the exported constants (the digest-compatibility
// contract), only FIFO-MMU evicts in first-fault order, and the table
// order is the -policy help order.
func TestPolicyTableRoundTrip(t *testing.T) {
	rows := []struct {
		id   Policy
		name string
		wire string
		fifo bool
	}{
		{GPUMMU4K, "GPU-MMU", "gpummu", false},
		{GPUMMU2M, "GPU-MMU-2MB", "gpummu-2mb", false},
		{Mosaic, "Mosaic", "mosaic", false},
		{IdealTLB, "Ideal-TLB", "ideal", false},
		{FIFOMMU, "FIFO-MMU", "fifo-mmu", true},
	}
	if FIFOMMU != 4 {
		t.Errorf("FIFOMMU = %d, want 4 (the id stored FIFO-MMU results were run under)", FIFOMMU)
	}
	var wires []string
	for _, b := range rows {
		wires = append(wires, b.wire)
		t.Run(b.name, func(t *testing.T) {
			p, err := ParsePolicy(b.wire)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", b.wire, err)
			}
			if p != b.id {
				t.Errorf("ParsePolicy(%q) = %v, want %v", b.wire, p, b.id)
			}
			if got := p.String(); got != b.name {
				t.Errorf("%q.String() = %q, want %q (digest identity)", b.wire, got, b.name)
			}
			if got := p.Wire(); got != b.wire {
				t.Errorf("%v.Wire() = %q, want %q", p, got, b.wire)
			}
			if got := p.row().fifo; got != b.fifo {
				t.Errorf("%v evicts FIFO = %v, want %v", p, got, b.fifo)
			}
			if _, err := ResolveOptions(p, config.FastTest()); err != nil {
				t.Errorf("ResolveOptions(%v): %v", p, err)
			}
		})
	}
	if got := PolicyNames(); !slices.Equal(got, wires) {
		t.Errorf("PolicyNames() = %q, want %q", got, wires)
	}
	if _, err := ParsePolicy("fifo-mmu-nope"); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("near-miss wire name parsed: %v", err)
	}
}

// TestPolicyUnknownFallbacks pins the behavior off the table's edge: an
// id outside the table stringifies as "unknown" (the legacy enum
// fallback) and resolves to a typed error; an unknown wire name lists
// the known ones, sorted.
func TestPolicyUnknownFallbacks(t *testing.T) {
	for _, p := range []Policy{-1, Policy(len(policies)), 99} {
		if got := p.String(); got != "unknown" {
			t.Errorf("Policy(%d).String() = %q, want unknown", int(p), got)
		}
		if got := p.Wire(); got != "unknown" {
			t.Errorf("Policy(%d).Wire() = %q, want unknown", int(p), got)
		}
		if _, err := ResolveOptions(p, config.Default()); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("ResolveOptions(%d) error = %v, want ErrUnknownPolicy", int(p), err)
		}
	}
	// A MutateManager may stamp such an id on resolved options; the
	// System still builds, and its bounded pager evicts LRU.
	r := newRig(t, Mosaic, func(cfg *config.Config, opt *Options) {
		cfg.MaxResidentPages = 512
		opt.Policy = 99
	})
	if r.sys.pager == nil || r.sys.pager.fifo {
		t.Errorf("id 99 pager = %+v, want an LRU pager", r.sys.pager)
	}
	_, err := ParsePolicy("bogus")
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("ParsePolicy(bogus) error = %v, want ErrUnknownPolicy", err)
	}
	const want = `core: unknown policy "bogus" (known: fifo-mmu, gpummu, gpummu-2mb, ideal, mosaic)`
	if err.Error() != want {
		t.Errorf("unknown-policy error = %q, want %q", err, want)
	}
}
