package iobus

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// refBus is the prune-and-append reference for the bus's accounting: on
// every arrival it rescans all in-flight completion cycles, drops those
// at or before the arrival, appends the new one and takes the depth.
type refBus struct {
	lat, occ  map[vmem.PageSize]uint64
	busyUntil uint64
	inflight  []uint64
	stats     Stats
}

func newRefBus(cfg config.Config) *refBus {
	return &refBus{
		lat: map[vmem.PageSize]uint64{vmem.Base: cfg.IOBaseFaultCycles, vmem.Large: cfg.IOLargeFaultCycles},
		occ: map[vmem.PageSize]uint64{vmem.Base: cfg.IOBaseOccupancyCycles, vmem.Large: cfg.IOLargeOccupancyCycles},
	}
}

func (r *refBus) admit(now, occ uint64) uint64 {
	start := now
	if r.busyUntil > start {
		r.stats.TotalQueueDelay += r.busyUntil - start
		start = r.busyUntil
	}
	r.busyUntil = start + occ
	r.stats.BusyCycles += occ
	return start
}

func (r *refBus) track(now, finish uint64) {
	live := r.inflight[:0]
	for _, f := range r.inflight {
		if f > now {
			live = append(live, f)
		}
	}
	r.inflight = append(live, finish)
	if d := len(r.inflight); d > r.stats.MaxQueueDepth {
		r.stats.MaxQueueDepth = d
	}
}

func (r *refBus) transfer(now uint64, size vmem.PageSize) uint64 {
	finish := r.admit(now, r.occ[size]) + r.lat[size]
	if size == vmem.Large {
		r.stats.LargeTransfers++
	} else {
		r.stats.BaseTransfers++
	}
	r.track(now, finish)
	return finish
}

func (r *refBus) writeBack(now uint64, size vmem.PageSize) uint64 {
	finish := r.admit(now, r.occ[size]) + r.occ[size]
	if size == vmem.Large {
		r.stats.WriteBackLarge++
	} else {
		r.stats.WriteBackBase++
	}
	r.track(now, finish)
	return finish
}

// TestQueueDepthMatchesPruneReference drives random page-in and
// write-back sequences of both page sizes through the bus and the
// reference and compares the returned completion cycle and Stats after
// every call. Arrivals repeat cycles, land exactly on earlier completion
// cycles (which count as already delivered), and sometimes continue on a
// Clone, which must carry the in-flight set over.
func TestQueueDepthMatchesPruneReference(t *testing.T) {
	// A narrow link makes 4KB occupancy a quarter of its latency, so
	// completions leave the in-flight set in a different order.
	narrow := config.Default()
	narrow.IOBaseOccupancyCycles = narrow.IOBaseFaultCycles / 4
	cfgs := map[string]config.Config{"default": config.Default(), "narrow": narrow}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			maxDepth := 0
			for trial := 0; trial < 40; trial++ {
				b := New(cfg, &event.Queue{})
				ref := newRefBus(cfg)
				var finishes []uint64
				now := uint64(rng.Intn(1000))
				for step := 0; step < 600; step++ {
					switch r := rng.Intn(10); {
					case r < 3: // same cycle
					case r < 6 && len(finishes) > 0:
						// Exactly at an earlier completion, when not in the past.
						now = max(now, finishes[rng.Intn(len(finishes))])
					case r < 9:
						now += uint64(rng.Int63n(int64(cfg.IOBaseFaultCycles)))
					default:
						now += uint64(rng.Int63n(int64(cfg.IOLargeFaultCycles) * 2))
					}
					size := vmem.Base
					if rng.Intn(4) == 0 {
						size = vmem.Large
					}
					var got, want uint64
					if rng.Intn(3) == 0 {
						got, want = b.WriteBack(now, size, nil), ref.writeBack(now, size)
					} else {
						got, want = b.Transfer(now, size, nil), ref.transfer(now, size)
					}
					finishes = append(finishes, want)
					if got != want || b.Stats() != ref.stats {
						t.Fatalf("trial %d step %d at cycle %d: finish %d, stats %+v; reference finish %d, stats %+v",
							trial, step, now, got, b.Stats(), want, ref.stats)
					}
					if rng.Intn(50) == 0 {
						b = b.Clone(&event.Queue{})
					}
				}
				maxDepth = max(maxDepth, ref.stats.MaxQueueDepth)
			}
			if maxDepth < 8 {
				t.Fatalf("sequences reached queue depth %d only", maxDepth)
			}
		})
	}
}
