// Package slotidx maps uint64 keys to int32 slot numbers. It is the
// lookup half of the simulator's miss-tracking tables: the cache MSHRs key
// it by line address and the page-table walker by packed (VPN, ASID), and
// each keeps the per-slot waiter lists in its own slab.
//
// The table is open-addressed with linear probing and backward-shift
// deletion, so a lookup hashes once and scans a short run of adjacent
// entries, and a delete leaves no tombstone behind. It replaces Go maps
// whose hashing and bucket walks cost about 10 % of a TLB-sweep run.
// Nothing iterates the table, so its internal order never reaches a
// simulated result.
package slotidx

import "math/bits"

// entry is one table cell; slot < 0 marks it empty.
type entry struct {
	key  uint64
	slot int32
}

// minCap is the table size allocated on the first Put.
const minCap = 16

// Index is a uint64 → int32 map for non-negative values. The zero value
// is an empty index that allocates on first Put. Not safe for concurrent
// use.
type Index struct {
	tab   []entry
	n     int
	shift uint // 64 - log2(len(tab))
}

// home returns the cell a key's probe sequence starts at (Fibonacci
// hashing: the top bits of key × 2^64/φ).
func (x *Index) home(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> x.shift }

// Len returns the number of keys held.
func (x *Index) Len() int { return x.n }

// Get returns the slot stored for k.
func (x *Index) Get(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.tab) - 1)
	for i := x.home(k); ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.slot < 0 {
			return 0, false
		}
		if e.key == k {
			return e.slot, true
		}
	}
}

// Put stores slot (which must be >= 0) for k, replacing any previous
// value. The table doubles whenever it would become more than half full.
func (x *Index) Put(k uint64, slot int32) {
	if slot < 0 {
		panic("slotidx: negative slot")
	}
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
	}
	mask := uint64(len(x.tab) - 1)
	for i := x.home(k); ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.slot < 0 {
			*e = entry{key: k, slot: slot}
			x.n++
			return
		}
		if e.key == k {
			e.slot = slot
			return
		}
	}
}

// Take removes k and returns the slot it held.
func (x *Index) Take(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.tab) - 1)
	i := x.home(k)
	for ; ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.slot < 0 {
			return 0, false
		}
		if e.key == k {
			break
		}
	}
	slot := x.tab[i].slot
	// Backward shift: walk the run after the hole and move back every
	// entry whose probe may start at or before the hole, so later lookups
	// still reach it without crossing an empty cell.
	for j := (i + 1) & mask; x.tab[j].slot >= 0; j = (j + 1) & mask {
		if (j-x.home(x.tab[j].key))&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = entry{slot: -1}
	x.n--
	return slot, true
}

// grow doubles the table (or allocates the first one) and reinserts
// every entry.
func (x *Index) grow() {
	size := max(minCap, 2*len(x.tab))
	old := x.tab
	x.tab = make([]entry, size)
	for i := range x.tab {
		x.tab[i].slot = -1
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.n = 0
	for _, e := range old {
		if e.slot >= 0 {
			x.Put(e.key, e.slot)
		}
	}
}
