package sim

import "math/bits"

// Ready-set warp scheduling.
//
// The issue loop used to scan every warp of every SM each cycle to find
// the oldest ready warp, and the idle fast-forward scanned them all again
// to find the next wake-up cycle. Both are now incremental: each SM keeps
//
//   - ready: a bitmask of issuable warps (state==warpReady and readyAt
//     has passed), lowest set bit == oldest ready warp, so GTO's
//     fallback pick is a TrailingZeros scan over a word or two;
//   - soon + soonAt: a bitmask of ready warps all waking at the single
//     cycle soonAt — the overwhelmingly common "ready again next cycle"
//     case after a compute issue or a memory completion, promoted with
//     one OR per word;
//   - wake: a small monomorphic min-heap (keyed by wake cycle) for the
//     leftover wake-ups that don't share soonAt (start staggering,
//     memory completions landing on a different cycle).
//
// Warps move between these sets only at their existing state transitions
// (issue, block, complete, finish), so maintaining them is O(1)-ish per
// transition. The decisions produced are bit-identical to the full
// scans: a warp is promoted to `ready` exactly when the old
// `state == warpReady && readyAt <= cycle` predicate would have accepted
// it, and `wakeMin` reproduces the old next-wake scan's "earliest readyAt
// not yet reached" answer.
//
// One level up, the Simulator keeps an active-SM set: a bitmask with one
// bit per SM that has a ready, soon or wake entry. wakeAdd sets the bit
// (every entry enters through it), and the issue loop clears it once
// the SM it just visited holds no entry. The issue loop and nextWarpWake
// visit only set bits, in SM index order, so a cycle costs O(active
// SMs), not O(SMs). Skipping an SM outside the set is exact: with no
// entry, issueSM would issue nothing and change nothing; and a wake
// added while the loop runs is for cycle+1 or later, so an SM that gains
// its bit mid-loop would issue nothing this cycle either.

type wakeEnt struct {
	at  uint64
	idx int
}

// initSched sizes the scheduling sets for n warps.
func (m *sm) initSched(n int) {
	words := (n + 63) / 64
	m.ready = make([]uint64, words)
	m.soon = make([]uint64, words)
}

// bindActive points the SM's wakeAdd at bit id of the simulator's
// active-SM set.
func (m *sm) bindActive(active []uint64) {
	m.active = &active[m.id>>6]
	m.activeBit = 1 << (uint(m.id) & 63)
}

// idle reports whether the SM has no ready, soon or wake entry, i.e.
// whether it may leave the active-SM set.
func (m *sm) idle() bool {
	if m.soonN != 0 || len(m.wake) != 0 {
		return false
	}
	for _, w := range m.ready {
		if w != 0 {
			return false
		}
	}
	return true
}

func (m *sm) markIssuable(idx int)  { m.ready[idx>>6] |= 1 << (uint(idx) & 63) }
func (m *sm) clearIssuable(idx int) { m.ready[idx>>6] &^= 1 << (uint(idx) & 63) }
func (m *sm) issuable(idx int) bool { return m.ready[idx>>6]&(1<<(uint(idx)&63)) != 0 }

// firstIssuable returns the lowest-index issuable warp (GTO's "oldest"),
// or -1 when none is.
func (m *sm) firstIssuable() int {
	for wi, word := range m.ready {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// wakeAdd registers a ready warp to become issuable at cycle at and puts
// the SM in the active-SM set. The warp must not already be in a wake set
// (warps wait on at most one cycle).
func (m *sm) wakeAdd(idx int, at uint64) {
	*m.active |= m.activeBit
	if m.soonN == 0 {
		m.soonAt = at
		m.soon[idx>>6] |= 1 << (uint(idx) & 63)
		m.soonN = 1
		return
	}
	if at == m.soonAt {
		m.soon[idx>>6] |= 1 << (uint(idx) & 63)
		m.soonN++
		return
	}
	m.wakePush(wakeEnt{at: at, idx: idx})
}

// drainBefore promotes every waiting warp with wake cycle < bound into
// the issuable set. Calling it with bound = cycle+1 before issuing
// reproduces the old readyAt <= cycle check; calling it with bound =
// cycle keeps warps waking exactly at `cycle` visible to wakeMin, which
// is what the old next-wake scan reported.
func (m *sm) drainBefore(bound uint64) {
	if m.soonN > 0 && m.soonAt < bound {
		for i, w := range m.soon {
			m.ready[i] |= w
			m.soon[i] = 0
		}
		m.soonN = 0
	}
	for len(m.wake) > 0 && m.wake[0].at < bound {
		e := m.wakePop()
		m.markIssuable(e.idx)
	}
}

// wakeMin promotes overdue warps (wake cycle < cycle) and returns the
// earliest pending wake cycle >= cycle, or 0 when none is pending.
func (m *sm) wakeMin(cycle uint64) uint64 {
	m.drainBefore(cycle)
	var min uint64
	if m.soonN > 0 {
		min = m.soonAt
	}
	if len(m.wake) > 0 && (min == 0 || m.wake[0].at < min) {
		min = m.wake[0].at
	}
	return min
}

// wakePush / wakePop implement a plain monomorphic binary min-heap keyed
// by wake cycle. Tie order among equal cycles is irrelevant: equal-cycle
// entries are always promoted together before any scheduling decision
// reads the set.
func (m *sm) wakePush(e wakeEnt) {
	m.wake = append(m.wake, e)
	i := len(m.wake) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if m.wake[parent].at <= m.wake[i].at {
			break
		}
		m.wake[i], m.wake[parent] = m.wake[parent], m.wake[i]
		i = parent
	}
}

func (m *sm) wakePop() wakeEnt {
	top := m.wake[0]
	n := len(m.wake) - 1
	m.wake[0] = m.wake[n]
	m.wake = m.wake[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && m.wake[right].at < m.wake[left].at {
			child = right
		}
		if m.wake[child].at >= m.wake[i].at {
			break
		}
		m.wake[i], m.wake[child] = m.wake[child], m.wake[i]
		i = child
	}
	return top
}
