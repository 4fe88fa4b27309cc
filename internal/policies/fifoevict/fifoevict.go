// Package fifoevict registers FIFO-MMU, a proof-of-pluggability memory
// manager defined entirely outside internal/core: Mosaic's allocation,
// coalescing, and compaction behavior, but with the bounded residency
// pool evicting pages in strict first-fault (FIFO) order instead of LRU
// — touches never reorder the victim queue. Linking this package (a
// blank import does it) registers the policy; it then works everywhere a
// built-in manager does: mosaic-sim/mosaic-sweep -policy fifo-mmu,
// RunRequest.Policy "fifo-mmu", campaigns, and snapshot forks. Its
// distinct display name gives its runs a distinct ConfigDigest identity
// automatically.
package fifoevict

import (
	"repro/internal/config"
	"repro/internal/core"
)

// PolicyID is the registry id FIFO-MMU received in this build (ids are
// assigned in registration order; the four paper managers hold 0–3).
var PolicyID = core.MustRegisterPolicy(core.PolicySpec{
	Name: "FIFO-MMU",
	Wire: "fifo-mmu",
	Options: func(cfg config.Config) core.Options {
		// Mosaic's full option set; only the residency seam differs.
		return core.OptionsFor(core.Mosaic, cfg)
	},
	Components: func(core.Options, config.Config) core.Components {
		return core.Components{Residency: NewResidency}
	},
})

// fifoResidency orders victims by first fault: Insert pushes at the
// front, Victim takes from the back, and Touch deliberately does nothing,
// so a page's position is fixed the moment it lands.
type fifoResidency struct{ q core.ResidencyQueue }

// NewResidency returns a FIFO eviction order for one pager instance.
func NewResidency() core.ResidencyPolicy { return &fifoResidency{} }

// Insert implements core.ResidencyPolicy.
func (f *fifoResidency) Insert(e *core.PageEntry) { f.q.PushFront(e) }

// Touch implements core.ResidencyPolicy: FIFO ignores recency.
func (f *fifoResidency) Touch(*core.PageEntry) {}

// Remove implements core.ResidencyPolicy.
func (f *fifoResidency) Remove(e *core.PageEntry) { f.q.Remove(e) }

// Victim implements core.ResidencyPolicy: the oldest fault still
// resident.
func (f *fifoResidency) Victim() *core.PageEntry { return f.q.Back() }

// Clone implements core.ResidencyPolicy, preserving fault order for
// snapshot forks.
func (f *fifoResidency) Clone(remap func(*core.PageEntry) *core.PageEntry) core.ResidencyPolicy {
	nf := &fifoResidency{}
	for e := f.q.Front(); e != nil; e = f.q.Next(e) {
		nf.q.PushBack(remap(e))
	}
	return nf
}
