package sim

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// The scheduler oracle: a linear GTO scan over every warp of every SM,
// the way the issue loop picked warps before the ready sets and the
// active-SM set existed. Each warp is ready, blocked or done, and a
// ready warp may issue once its readyAt cycle has come.

type refWarp struct {
	state   warpState
	readyAt uint64
}

type refSM struct {
	warps   []refWarp
	lastIdx int
	live    int
}

// pick returns the warp GTO issues on m at cycle, or -1: the last warp
// while it stays issuable, else the oldest (lowest-index) issuable one.
func (m *refSM) pick(cycle uint64) int {
	ok := func(i int) bool { return m.warps[i].state == warpReady && m.warps[i].readyAt <= cycle }
	if m.live == 0 {
		return -1
	}
	if ok(m.lastIdx) {
		return m.lastIdx
	}
	for i := range m.warps {
		if ok(i) {
			m.lastIdx = i
			return i
		}
	}
	return -1
}

// nextWake is the old next-wake scan: the earliest readyAt not yet
// reached among ready warps, or 0.
func refNextWake(sms []*refSM, cycle uint64) uint64 {
	var min uint64
	for _, m := range sms {
		if m.live == 0 {
			continue
		}
		for _, w := range m.warps {
			if w.state == warpReady && w.readyAt >= cycle && (min == 0 || w.readyAt < min) {
				min = w.readyAt
			}
		}
	}
	return min
}

// Actions a scripted issue takes. Compute and finish run the real
// issueWarp; the others mirror the memory path (block the warp, wake it
// from a completion).
const (
	actCompute   = iota // one compute instruction; ready again next cycle
	actBlock            // memory instruction completing at a later cycle
	actSyncBlock        // memory instruction completing inside the issue (an L1 hit)
	actWakeOther        // compute, and a pending completion of any SM fires now
	actFinish           // the warp's program ends
)

type issueStep struct {
	sm, warp int
	act      int
	at       uint64 // completion cycle for actBlock / actSyncBlock
	other    int    // index into pending for actWakeOther, or -1
}

type completion struct {
	sm, warp int
	at       uint64
}

// TestActiveSMSetMatchesLinearGTO drives the real issue loop (issueActive
// over the active-SM set, issueSM, nextWarpWake) and the linear-scan
// oracle with the same random multi-SM programs of compute issues,
// memory blocks with completions at later cycles or inside the issue,
// cross-SM wakes during the loop, warp finishes, issue stalls and idle
// fast-forwards. At every step the issued (SM, warp) sequence and the
// next-wake answer must match, and an SM must be outside the active set
// exactly when it has no ready, soon or wake entry.
func TestActiveSMSetMatchesLinearGTO(t *testing.T) {
	spec := workload.Spec{Name: "T", WorkingSetBytes: 2 << 20, Pattern: workload.Stream, Divergence: 1}
	done := spec.NewStream(config.FastTest(), 0, 1, 1) // AccessesPerWarp 0: exhausted
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 24; trial++ {
		nSM := 1 + rng.Intn(130)
		s := &Simulator{cycle: 1, liveApps: 1}
		s.active = make([]uint64, (nSM+63)/64)
		app := &appRun{liveSMs: nSM}
		ref := make([]*refSM, nSM)
		for i := 0; i < nSM; i++ {
			nW := 1 + rng.Intn(100)
			m := &sm{id: i, app: app, live: nW}
			m.initSched(nW)
			m.bindActive(s.active)
			r := &refSM{warps: make([]refWarp, nW), live: nW}
			for j := 0; j < nW; j++ {
				m.warps = append(m.warps, &warp{idx: j, gen: done})
				at := 1 + uint64(rng.Intn(40))
				m.wakeAdd(j, at)
				r.warps[j].readyAt = at
			}
			s.sms = append(s.sms, m)
			app.sms = append(app.sms, m)
			ref[i] = r
		}

		var pending []completion
		var script []issueStep
		next := 0
		s.issue = func(m *sm, w *warp) {
			if next >= len(script) {
				t.Fatalf("trial %d cycle %d: issue loop issued SM %d warp %d; oracle issued nothing more", trial, s.cycle, m.id, w.idx)
			}
			st := script[next]
			next++
			if st.sm != m.id || st.warp != w.idx {
				t.Fatalf("trial %d cycle %d: issue loop issued SM %d warp %d; oracle SM %d warp %d",
					trial, s.cycle, m.id, w.idx, st.sm, st.warp)
			}
			switch st.act {
			case actCompute, actWakeOther:
				w.computeLeft = 1
				s.issueWarp(m, w)
				if st.other >= 0 {
					c := pending[st.other]
					o := s.sms[c.sm]
					o.warps[c.warp].state = warpReady
					o.wakeAdd(c.warp, s.cycle+1)
				}
			case actFinish:
				w.computeLeft = 0
				s.issueWarp(m, w)
			case actBlock, actSyncBlock:
				w.state = warpBlocked
				m.clearIssuable(w.idx)
				if st.act == actSyncBlock {
					w.state = warpReady
					m.wakeAdd(w.idx, st.at+1)
				}
			}
		}

		for step := 0; step < 1500 && s.liveApps > 0; step++ {
			cycle := s.cycle
			// Completions due by now fire before issue, as the event queue
			// runs before the issue loop.
			kept := pending[:0]
			for _, c := range pending {
				if c.at > cycle {
					kept = append(kept, c)
					continue
				}
				s.sms[c.sm].warps[c.warp].state = warpReady
				s.sms[c.sm].wakeAdd(c.warp, c.at+1)
				ref[c.sm].warps[c.warp] = refWarp{state: warpReady, readyAt: c.at + 1}
			}
			pending = kept

			// The oracle picks and acts first, writing the script the
			// scripted issue replays inside the real loop.
			script, next = script[:0], 0
			stalled := rng.Intn(10) == 0
			var woken []int // pending completions fired early by actWakeOther
			if !stalled {
				for i, r := range ref {
					idx := r.pick(cycle)
					if idx < 0 {
						continue
					}
					st := issueStep{sm: i, warp: idx, other: -1}
					switch p := rng.Intn(100); {
					case p < 55:
						st.act = actCompute
					case p < 80:
						st.act, st.at = actBlock, cycle+1+uint64(rng.Intn(30))
					case p < 88:
						st.act, st.at = actSyncBlock, cycle+uint64(rng.Intn(4))
					case p < 96:
						st.act = actWakeOther
					default:
						st.act = actFinish
					}
					if st.act == actWakeOther {
						for k := range pending {
							if c := pending[k]; !(c.sm == i && c.warp == idx) && !contains(woken, k) {
								st.other = k
								woken = append(woken, k)
								break
							}
						}
					}
					w := &r.warps[idx]
					switch st.act {
					case actCompute, actWakeOther:
						w.readyAt = cycle + 1
						if st.other >= 0 {
							c := pending[st.other]
							ref[c.sm].warps[c.warp] = refWarp{state: warpReady, readyAt: cycle + 1}
						}
					case actBlock:
						w.state = warpBlocked
						pending = append(pending, completion{sm: i, warp: idx, at: st.at})
					case actSyncBlock:
						w.readyAt = st.at + 1
					case actFinish:
						w.state = warpDone
						r.live--
					}
					script = append(script, st)
				}
			}

			issued := false
			if !stalled {
				issued = s.issueActive()
			}
			if next != len(script) {
				st := script[next]
				t.Fatalf("trial %d cycle %d: oracle issued SM %d warp %d; issue loop issued %d of %d",
					trial, cycle, st.sm, st.warp, next, len(script))
			}
			if issued != (len(script) > 0) {
				t.Fatalf("trial %d cycle %d: issueActive reported %v with %d issues", trial, cycle, issued, len(script))
			}
			if len(woken) > 0 {
				kept := pending[:0]
				for k, c := range pending {
					if !contains(woken, k) {
						kept = append(kept, c)
					}
				}
				pending = kept
			}
			checkActiveSet(t, s, trial, cycle)

			s.cycle++
			got, want := s.nextWarpWake(), refNextWake(ref, s.cycle)
			if got != want {
				t.Fatalf("trial %d cycle %d: nextWarpWake = %d, oracle = %d", trial, s.cycle, got, want)
			}
			checkActiveSet(t, s, trial, s.cycle)
			if issued {
				continue
			}
			// Idle: fast-forward to the next wake or completion, sometimes
			// overshooting it as a GPU-wide stall would.
			target := want
			for _, c := range pending {
				if target == 0 || c.at < target {
					target = c.at
				}
			}
			if rng.Intn(4) == 0 {
				target += uint64(rng.Intn(6))
			}
			if target > s.cycle {
				s.cycle = target
			}
		}
	}
}

// checkActiveSet asserts that an SM is in the active set exactly when it
// holds a ready, soon or wake entry.
func checkActiveSet(t *testing.T, s *Simulator, trial int, cycle uint64) {
	t.Helper()
	for i, m := range s.sms {
		in := s.active[i>>6]&(1<<(uint(i)&63)) != 0
		if in == m.idle() {
			t.Fatalf("trial %d cycle %d: SM %d in active set = %v, idle = %v", trial, cycle, i, in, m.idle())
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
