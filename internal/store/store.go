// Package store provides the persistent result tier of mosaicd: a
// pluggable ResultStore keyed by the same (workload, policy,
// ConfigDigest) identity triple that names a metrics.RunRecord. The
// simulator is deterministic, so the triple is a content address — any
// two daemons (or a daemon and a local CLI) that compute the same key
// hold byte-identical payloads, which makes the store safely
// shareable: mosaicd serves hits out of it across restarts, several
// daemons point at one root, and mosaic-sim -record-store prewarms it
// from local runs. See docs/SERVICE.md for
// the on-disk format and sharing semantics.
package store

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a Get of a key the store has no (valid) entry
// for. Corrupt disk entries read as ErrNotFound after quarantine, so
// callers always fall back to simulating.
var ErrNotFound = errors.New("store: result not found")

// ErrDivergent reports a Put whose bytes differ from an existing entry
// under the same key. Deterministic simulations make identical-key
// payloads identical, so divergence means corruption or a
// configuration-digest collision and is never silently resolved.
var ErrDivergent = errors.New("store: divergent bytes for existing key")

// Key is the identity triple addressing one stored result — the same
// triple that identifies a RunRecord (docs/RESULTS_SCHEMA.md) and keys
// the mosaicd single-flight cache.
type Key struct {
	Workload     string
	Policy       string
	ConfigDigest string
}

// Valid reports whether every component is non-empty; stores reject
// invalid keys so a zero Key can never alias a real entry.
func (k Key) Valid() bool {
	return k.Workload != "" && k.Policy != "" && k.ConfigDigest != ""
}

// String renders the canonical NUL-joined form the content address is
// derived from (the same join the mosaicd cache key uses).
func (k Key) String() string {
	return k.Workload + "\x00" + k.Policy + "\x00" + k.ConfigDigest
}

// less orders keys canonically, matching the RunRecord sort.
func (k Key) less(o Key) bool { return k.String() < o.String() }

// Counters is a snapshot of a store's activity since creation.
type Counters struct {
	// Gets/Hits count lookups and the subset that returned a payload.
	Gets, Hits uint64
	// Puts counts writes that created an entry; DupPuts counts writes
	// that found an identical entry already present (a harmless race
	// between two producers of the same deterministic result).
	Puts, DupPuts uint64
	// Quarantined counts corrupt disk entries moved aside instead of
	// served (always zero for the in-memory store). Only successful
	// renames count — an entry that had to be removed outright does not.
	Quarantined uint64
	// QuarantinePruned counts quarantined files deleted by the per-shard
	// retention bound (Disk.SetQuarantineKeep).
	QuarantinePruned uint64
}

// ResultStore is the persistence seam under the mosaicd result cache:
// content-addressed payloads under the RunRecord identity triple.
// Implementations must be safe for concurrent use — and the disk store
// also for concurrent use by multiple processes sharing one root.
type ResultStore interface {
	// Get returns the stored payload for key, or ErrNotFound.
	Get(key Key) ([]byte, error)
	// Put stores the payload under key. Re-putting identical bytes is a
	// no-op; differing bytes return ErrDivergent.
	Put(key Key, payload []byte) error
	// Has reports whether a (valid) entry exists without reading its
	// payload.
	Has(key Key) bool
	// List returns every stored key in canonical order.
	List() ([]Key, error)
	// Counters snapshots the store's activity counters.
	Counters() Counters
}

// counters is the shared atomic counter block of the implementations.
type counters struct {
	gets, hits, puts, dupPuts, quarantined, pruned atomic.Uint64
}

// snapshot materializes the atomic block as a Counters value.
func (c *counters) snapshot() Counters {
	return Counters{
		Gets:             c.gets.Load(),
		Hits:             c.hits.Load(),
		Puts:             c.puts.Load(),
		DupPuts:          c.dupPuts.Load(),
		Quarantined:      c.quarantined.Load(),
		QuarantinePruned: c.pruned.Load(),
	}
}

// Mem is the in-memory ResultStore: a mutex-guarded map, used as the
// default store for tests and for daemons run without -store. Entries
// live for the lifetime of the process.
type Mem struct {
	mu sync.Mutex
	m  map[Key][]byte
	counters
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[Key][]byte)}
}

// Get returns the stored payload for key, or ErrNotFound.
func (s *Mem) Get(key Key) ([]byte, error) {
	s.gets.Add(1)
	s.mu.Lock()
	b, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	s.hits.Add(1)
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Put stores the payload under key; identical re-puts are no-ops and
// divergent bytes return ErrDivergent.
func (s *Mem) Put(key Key, payload []byte) error {
	if !key.Valid() {
		return errors.New("store: invalid key (empty component)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[key]; ok {
		if string(prev) == string(payload) {
			s.dupPuts.Add(1)
			return nil
		}
		return ErrDivergent
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.m[key] = cp
	s.puts.Add(1)
	return nil
}

// Has reports whether an entry exists for key.
func (s *Mem) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok
}

// List returns every stored key in canonical order.
func (s *Mem) List() ([]Key, error) {
	s.mu.Lock()
	keys := make([]Key, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys, nil
}

// Counters snapshots the store's activity counters.
func (s *Mem) Counters() Counters { return s.snapshot() }
