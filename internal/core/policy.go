package core

// This file is the memory-manager policy table: one static row per
// manager the paper compares (plus FIFO-MMU, Mosaic with first-fault
// eviction), mapping a Policy id to its display name, its wire name, the
// Options it runs under and its eviction order. Every manager decision
// (allocator, coalescing, CAC variant, fault granularity, translation
// bypass) is an Options field the System reads directly; the eviction
// order is the row's fifo bit, which the pager reads.
//
// Identity contract: a policy's display name is what Options.Policy's
// String() returns, and that string feeds the ConfigDigest (the digest
// hashes Options with %+v, which invokes String). The names are
// therefore frozen — changing one would silently re-key every stored
// result — and each row's distinct name gives its runs a distinct digest.

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/config"
)

// ErrUnknownPolicy is returned (wrapped, with the offending name) when a
// policy name or id has no row in the table.
var ErrUnknownPolicy = errors.New("core: unknown policy")

// policyRow is one manager of the policy table.
type policyRow struct {
	// name is the display name: Policy.String(), the Policy field of
	// exported RunRecords and, through Options' %+v hash, part of every
	// ConfigDigest.
	name string
	// wire is the flag/API name (-policy values, RunRequest.Policy).
	wire string
	// options derives the manager option set under a configuration;
	// ResolveOptions stamps the Policy field.
	options func(cfg config.Config) Options
	// fifo makes a bounded page pool evict in first-fault order: a touch
	// never requeues a resident page. Otherwise it evicts least recently
	// used.
	fifo bool
}

// policies is the table, indexed by Policy; its order is the -policy
// help order.
var policies = [...]policyRow{
	GPUMMU4K: {name: "GPU-MMU", wire: "gpummu", options: gpummu4kOptions},
	GPUMMU2M: {name: "GPU-MMU-2MB", wire: "gpummu-2mb", options: gpummu2mOptions},
	Mosaic:   {name: "Mosaic", wire: "mosaic", options: mosaicOptions},
	IdealTLB: {name: "Ideal-TLB", wire: "ideal", options: idealOptions},
	FIFOMMU:  {name: "FIFO-MMU", wire: "fifo-mmu", options: mosaicOptions, fifo: true},
}

// row returns p's table row, or nil for an id the table does not hold.
func (p Policy) row() *policyRow {
	if p < 0 || int(p) >= len(policies) {
		return nil
	}
	return &policies[p]
}

// Wire returns p's flag/API name ("mosaic", "fifo-mmu", ...), or
// "unknown" for ids outside the table.
func (p Policy) Wire() string {
	if r := p.row(); r != nil {
		return r.wire
	}
	return "unknown"
}

// ParsePolicy resolves a wire name (a -policy flag or RunRequest.Policy
// value) to its policy id. Unknown names return an error wrapping
// ErrUnknownPolicy that lists the known ones, sorted.
func ParsePolicy(wire string) (Policy, error) {
	for i, r := range policies {
		if r.wire == wire {
			return Policy(i), nil
		}
	}
	names := PolicyNames()
	slices.Sort(names)
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownPolicy, wire, strings.Join(names, ", "))
}

// PolicyNames returns the wire names in table order (the four paper
// managers first).
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, r := range policies {
		names[i] = r.wire
	}
	return names
}

// ResolveOptions derives the manager Options policy p uses under cfg,
// with the Policy id stamped. Unknown ids return an error wrapping
// ErrUnknownPolicy.
func ResolveOptions(p Policy, cfg config.Config) (Options, error) {
	r := p.row()
	if r == nil {
		return Options{}, fmt.Errorf("%w id %d", ErrUnknownPolicy, int(p))
	}
	o := r.options(cfg)
	o.Policy = p
	return o, nil
}

func gpummu4kOptions(cfg config.Config) Options {
	return Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocBaseline,
		Coalesce:     CoalesceOff,
		CAC:          CACOff,
		Fault:        FaultBase,
	}
}

func gpummu2mOptions(cfg config.Config) Options {
	return Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocCoCoA, // 2MB-only management needs whole frames
		Coalesce:     CoalesceInPlace,
		CAC:          CACOff,
		Fault:        FaultLarge,
	}
}

func mosaicOptions(cfg config.Config) Options {
	o := Options{
		CACThreshold: cfg.CACOccupancyThreshold,
		Allocator:    AllocCoCoA,
		Coalesce:     CoalesceInPlace,
		CAC:          CACOn,
		Fault:        FaultBase,
	}
	if cfg.CACUseBulkCopy {
		o.CAC = CACBulkCopy
	}
	return o
}

func idealOptions(cfg config.Config) Options {
	o := mosaicOptions(cfg)
	o.CAC = CACOn // the ideal TLB does not inherit the CAC-BC knob switch
	o.Bypass = true
	return o
}
