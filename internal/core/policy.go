package core

// This file is the memory-manager policy registry: the name-keyed table
// that maps policy names (wire and display) to the Options a manager
// runs under, plus the one behavior seam Options cannot express — the
// residency order a bounded page pool evicts by (LRU built in, FIFO out
// of tree in internal/policies/fifoevict). Every other manager decision
// (allocator, coalescing, CAC variant, fault granularity, translation
// bypass) is an Options field the System reads directly. The residency
// policy is boxed once per pager, so steady-state dispatch allocates
// nothing (pinned by AllocsPerRun guards).
//
// Identity contract: a policy's display Name is what Options.Policy's
// String() returns, and that string feeds the ConfigDigest (the digest
// hashes Options with %+v, which invokes String). The four built-in names
// are therefore frozen — changing one would silently re-key every stored
// result — and a third-party policy's distinct name automatically gives
// its runs a distinct digest identity.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
)

// ErrUnknownPolicy is returned (wrapped, with the offending name) when a
// policy name or id has no registration.
var ErrUnknownPolicy = errors.New("core: unknown policy")

// ---- residency seam ----

// ResidencyPolicy orders resident pages for victim selection under a
// bounded GPU page pool. The pager calls Insert when a page becomes
// resident, Touch on every access to a resident page, Remove when a page
// leaves residency (eviction or free), and Victim to pick the next page
// to evict. Implementations must be deterministic and must tolerate
// Remove on entries that were never inserted.
//
// Snapshot/fork contract: Clone must return an independent copy whose
// victim order is identical to the source's, with every tracked entry
// translated through remap (entries are duplicated by the pager clone;
// remap resolves a source entry to its copy). A policy that keeps no
// per-entry state still must preserve order. Implementations are boxed
// once at pager construction, so Touch/Victim must not allocate — the
// difftest AllocsPerRun guards enforce this.
type ResidencyPolicy interface {
	// Insert adds a newly resident entry.
	Insert(e *PageEntry)
	// Touch records an access to a resident entry.
	Touch(e *PageEntry)
	// Remove drops an entry (tolerates entries not currently tracked).
	Remove(e *PageEntry)
	// Victim returns the next eviction candidate, or nil when nothing is
	// tracked. The pager removes the victim itself (via Remove).
	Victim() *PageEntry
	// Clone deep-copies the policy state for a forked pager, translating
	// each tracked entry through remap.
	Clone(remap func(*PageEntry) *PageEntry) ResidencyPolicy
}

// ---- residency building blocks ----

// ResidencyQueue is an intrusive doubly linked list of PageEntry values,
// the building block residency policies order victims with (entries carry
// their own links, so queue operations never allocate). The zero value is
// ready to use; a queue must not be copied after first use.
type ResidencyQueue struct {
	sent PageEntry
}

func (q *ResidencyQueue) lazyInit() {
	if q.sent.next == nil {
		q.sent.next = &q.sent
		q.sent.prev = &q.sent
	}
}

// PushFront links e at the front of the queue.
func (q *ResidencyQueue) PushFront(e *PageEntry) {
	q.lazyInit()
	e.prev = &q.sent
	e.next = q.sent.next
	e.prev.next = e
	e.next.prev = e
}

// PushBack links e at the back of the queue.
func (q *ResidencyQueue) PushBack(e *PageEntry) {
	q.lazyInit()
	e.next = &q.sent
	e.prev = q.sent.prev
	e.prev.next = e
	e.next.prev = e
}

// Remove unlinks e; entries that are not linked are ignored.
func (q *ResidencyQueue) Remove(e *PageEntry) {
	if e.prev == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Front returns the first entry, or nil when the queue is empty.
func (q *ResidencyQueue) Front() *PageEntry {
	q.lazyInit()
	if q.sent.next == &q.sent {
		return nil
	}
	return q.sent.next
}

// Back returns the last entry, or nil when the queue is empty.
func (q *ResidencyQueue) Back() *PageEntry {
	q.lazyInit()
	if q.sent.prev == &q.sent {
		return nil
	}
	return q.sent.prev
}

// Next returns the entry after e, or nil at the end of the queue.
func (q *ResidencyQueue) Next(e *PageEntry) *PageEntry {
	if e.next == nil || e.next == &q.sent {
		return nil
	}
	return e.next
}

// lruResidency is the default victim order: least recently used. MRU at
// the queue front, victim at the back.
type lruResidency struct{ q ResidencyQueue }

// NewLRUResidency returns the default least-recently-used residency
// policy (victim = least recently touched resident page).
func NewLRUResidency() ResidencyPolicy { return &lruResidency{} }

// Insert implements ResidencyPolicy.
func (l *lruResidency) Insert(e *PageEntry) { l.q.PushFront(e) }

// Touch implements ResidencyPolicy.
func (l *lruResidency) Touch(e *PageEntry) {
	l.q.Remove(e)
	l.q.PushFront(e)
}

// Remove implements ResidencyPolicy.
func (l *lruResidency) Remove(e *PageEntry) { l.q.Remove(e) }

// Victim implements ResidencyPolicy.
func (l *lruResidency) Victim() *PageEntry { return l.q.Back() }

// Clone implements ResidencyPolicy: the copy preserves recency order by
// walking MRU to LRU and appending each remapped entry at the tail.
func (l *lruResidency) Clone(remap func(*PageEntry) *PageEntry) ResidencyPolicy {
	nl := &lruResidency{}
	for e := l.q.Front(); e != nil; e = l.q.Next(e) {
		nl.q.PushBack(remap(e))
	}
	return nl
}

// ---- registry ----

// PolicySpec describes one registered memory-manager policy.
type PolicySpec struct {
	// Name is the display name — the value Policy.String() returns, the
	// Policy field of exported RunRecords, and (via Options' %+v hash)
	// part of every ConfigDigest. It must be unique and must never change
	// once results have been recorded under it.
	Name string
	// Wire is the flag/API name (-policy values, RunRequest.Policy).
	// Unique, conventionally lowercase.
	Wire string
	// Options derives the manager option set under a configuration. The
	// registry stamps the returned Options' Policy field; implementations
	// leave it zero.
	Options func(cfg config.Config) Options
	// Residency constructs the victim order for a bounded page pool,
	// once per pager (a factory, because the order is mutable per-run
	// state). Nil means least recently used (NewLRUResidency).
	Residency func() ResidencyPolicy
}

var policyReg = struct {
	sync.RWMutex
	specs  []PolicySpec
	byWire map[string]Policy
	byName map[string]Policy
}{
	byWire: make(map[string]Policy),
	byName: make(map[string]Policy),
}

// RegisterPolicy adds a policy to the registry and returns its id. It
// fails on a duplicate display or wire name and on a spec without an
// Options function. Registration is typically done from an init function
// or a package-level variable; ids are assigned in registration order,
// so a given build resolves a given name to the same id every run.
func RegisterPolicy(spec PolicySpec) (Policy, error) {
	if spec.Name == "" || spec.Wire == "" {
		return 0, errors.New("core: policy spec needs both Name and Wire")
	}
	if spec.Options == nil {
		return 0, errors.New("core: policy spec needs an Options function")
	}
	policyReg.Lock()
	defer policyReg.Unlock()
	if _, dup := policyReg.byName[spec.Name]; dup {
		return 0, fmt.Errorf("core: policy name %q already registered", spec.Name)
	}
	if _, dup := policyReg.byWire[spec.Wire]; dup {
		return 0, fmt.Errorf("core: policy wire name %q already registered", spec.Wire)
	}
	p := Policy(len(policyReg.specs))
	policyReg.specs = append(policyReg.specs, spec)
	policyReg.byName[spec.Name] = p
	policyReg.byWire[spec.Wire] = p
	return p, nil
}

// MustRegisterPolicy is RegisterPolicy, panicking on error — for use in
// package init blocks.
func MustRegisterPolicy(spec PolicySpec) Policy {
	p, err := RegisterPolicy(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// LookupPolicy returns the registered spec for an id.
func LookupPolicy(p Policy) (PolicySpec, bool) {
	policyReg.RLock()
	defer policyReg.RUnlock()
	if p < 0 || int(p) >= len(policyReg.specs) {
		return PolicySpec{}, false
	}
	return policyReg.specs[p], true
}

// ParsePolicy resolves a wire name (a -policy flag or RunRequest.Policy
// value) to its policy id. Unknown names return an error wrapping
// ErrUnknownPolicy.
func ParsePolicy(wire string) (Policy, error) {
	policyReg.RLock()
	defer policyReg.RUnlock()
	if p, ok := policyReg.byWire[wire]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("%w %q (known: %s)", ErrUnknownPolicy, wire, knownWiresLocked())
}

// knownWiresLocked renders the registered wire names for error messages;
// callers hold at least the read lock.
func knownWiresLocked() string {
	names := make([]string, 0, len(policyReg.byWire))
	for w := range policyReg.byWire {
		names = append(names, w)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// PolicyNames returns the registered wire names in registration order
// (the four paper managers first, third-party policies after).
func PolicyNames() []string {
	policyReg.RLock()
	defer policyReg.RUnlock()
	names := make([]string, len(policyReg.specs))
	for i, s := range policyReg.specs {
		names[i] = s.Wire
	}
	return names
}

// ResolveOptions derives the manager Options a registered policy uses
// under cfg, with the Policy id stamped. Unknown ids return an error
// wrapping ErrUnknownPolicy.
func ResolveOptions(p Policy, cfg config.Config) (Options, error) {
	spec, ok := LookupPolicy(p)
	if !ok {
		return Options{}, fmt.Errorf("%w id %d", ErrUnknownPolicy, int(p))
	}
	o := spec.Options(cfg)
	o.Policy = p
	return o, nil
}

// residencyFor returns the residency factory a policy registered, or
// NewLRUResidency when it registered none (or is not registered).
func residencyFor(p Policy) func() ResidencyPolicy {
	if spec, ok := LookupPolicy(p); ok && spec.Residency != nil {
		return spec.Residency
	}
	return NewLRUResidency
}

// ---- built-in registrations ----

// The four paper managers register at ids 0–3, matching the Policy
// constants; init asserts the correspondence so the constants stay valid
// (and mosaic.go can keep re-exporting them as constants).
func init() {
	for _, b := range []struct {
		p    Policy
		spec PolicySpec
	}{
		{GPUMMU4K, PolicySpec{Name: "GPU-MMU", Wire: "gpummu", Options: gpummu4kOptions}},
		{GPUMMU2M, PolicySpec{Name: "GPU-MMU-2MB", Wire: "gpummu-2mb", Options: gpummu2mOptions}},
		{Mosaic, PolicySpec{Name: "Mosaic", Wire: "mosaic", Options: mosaicOptions}},
		{IdealTLB, PolicySpec{Name: "Ideal-TLB", Wire: "ideal", Options: idealOptions}},
	} {
		got := MustRegisterPolicy(b.spec)
		if got != b.p {
			panic(fmt.Sprintf("core: built-in policy %q registered as id %d, want %d", b.spec.Name, got, b.p))
		}
	}
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
