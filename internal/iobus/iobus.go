// Package iobus models the system I/O (PCIe) bus between CPU and discrete
// GPU memory. Demand-paging far-faults transfer page data over this bus;
// the bus is a single serialized resource, so concurrent faults from
// multiple applications queue behind each other — the effect that makes
// 2MB-granularity demand paging catastrophic in the paper (§3.2, Fig. 4).
// Under a bounded residency budget the same link also carries write-backs
// of dirty evicted pages to the host tier.
//
// Transfer latencies default to the paper's measurements on a GTX 1080:
// 55 µs load-to-use for a 4KB page and 318 µs for a 2MB page.
package iobus

import (
	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// Stats aggregates bus activity.
type Stats struct {
	BaseTransfers  uint64
	LargeTransfers uint64
	BusyCycles     uint64
	// TotalQueueDelay accumulates cycles transfers spent waiting for the
	// bus behind earlier transfers.
	TotalQueueDelay uint64
	MaxQueueDepth   int
	// WriteBackBase / WriteBackLarge count eviction write-backs of dirty
	// pages to the host tier. They are not included in BaseTransfers /
	// LargeTransfers, which count fault-path page-in transfers only.
	WriteBackBase  uint64 `json:",omitempty"`
	WriteBackLarge uint64 `json:",omitempty"`
}

// TotalTransfers returns the number of page transfers of either size.
func (s Stats) TotalTransfers() uint64 { return s.BaseTransfers + s.LargeTransfers }

// TotalWriteBacks returns the number of eviction write-backs of either size.
func (s Stats) TotalWriteBacks() uint64 { return s.WriteBackBase + s.WriteBackLarge }

// Bus is the serialized system I/O link. Transfers pipeline: each
// occupies the link for its occupancy (bandwidth-bound), while the
// requesting warp observes the full load-to-use latency (fault handling +
// transfer). Not safe for concurrent use.
type Bus struct {
	q        *event.Queue
	baseLat  uint64
	largeLat uint64
	baseOcc  uint64
	largeOcc uint64

	busyUntil uint64
	// inflight[head:] holds, in ascending order, the completion cycles of
	// transfers that have been issued but not yet delivered. Queue depth
	// is derived from it at issue time rather than from event-queue
	// callbacks, so same-cycle ordering between completions and new
	// arrivals is well defined: a transfer completing exactly at cycle c
	// does not count toward the depth seen by a transfer arriving at c.
	inflight []uint64
	head     int
	stats    Stats
}

// New builds a bus wired to the simulator's event queue using the
// configuration's fault latencies and occupancies.
func New(cfg config.Config, q *event.Queue) *Bus {
	return &Bus{
		q:        q,
		baseLat:  cfg.IOBaseFaultCycles,
		largeLat: cfg.IOLargeFaultCycles,
		baseOcc:  cfg.IOBaseOccupancyCycles,
		largeOcc: cfg.IOLargeOccupancyCycles,
	}
}

// Clone returns a deep copy of the bus wired to q (a forked simulator's
// event queue). All timing state — busyUntil, the in-flight completion
// cycles used for queue-depth accounting, and stats — is duplicated, so a
// fork sees the same future bus availability a cold run would. Completion
// callbacks of transfers still in flight live on the source's event queue,
// not in the Bus, so callers must quiesce (drain all transfers) before
// snapshotting; the inflight cycle list itself is history-only and safe to
// copy.
func (b *Bus) Clone(q *event.Queue) *Bus {
	nb := *b
	nb.q = q
	nb.inflight = append([]uint64(nil), b.inflight[b.head:]...)
	nb.head = 0
	return &nb
}

// LoadToUseCycles returns the load-to-use latency of a fault of the given
// page size (55 us for 4KB, 318 us for 2MB on the paper's GTX 1080).
func (b *Bus) LoadToUseCycles(size vmem.PageSize) uint64 {
	if size == vmem.Large {
		return b.largeLat
	}
	return b.baseLat
}

// OccupancyCycles returns the link occupancy of one transfer.
func (b *Bus) OccupancyCycles(size vmem.PageSize) uint64 {
	if size == vmem.Large {
		return b.largeOcc
	}
	return b.baseOcc
}

// admit claims the link for one transfer arriving at now with the given
// occupancy, updating queue-delay and busy accounting, and returns the
// cycle the transfer starts moving data.
func (b *Bus) admit(now, occ uint64) uint64 {
	start := now
	if b.busyUntil > start {
		b.stats.TotalQueueDelay += b.busyUntil - start
		start = b.busyUntil
	}
	b.busyUntil = start + occ
	b.stats.BusyCycles += occ
	return start
}

// track records an in-flight transfer completing at finish for a request
// arriving at now and updates MaxQueueDepth. A transfer whose completion
// cycle equals now has already delivered by the time the new arrival is
// observed. Admission is FIFO, so completions arrive nearly in order:
// delivered ones leave from the front, and a new one is inserted by
// shifting the few later completions up.
func (b *Bus) track(now, finish uint64) {
	for b.head < len(b.inflight) && b.inflight[b.head] <= now {
		b.head++
	}
	if b.head == len(b.inflight) || b.head > len(b.inflight)/2 {
		n := copy(b.inflight, b.inflight[b.head:])
		b.inflight, b.head = b.inflight[:n], 0
	}
	i := len(b.inflight)
	b.inflight = append(b.inflight, finish)
	for ; i > b.head && b.inflight[i-1] > finish; i-- {
		b.inflight[i] = b.inflight[i-1]
	}
	b.inflight[i] = finish
	if d := len(b.inflight) - b.head; d > b.stats.MaxQueueDepth {
		b.stats.MaxQueueDepth = d
	}
}

// Transfer queues a page transfer of the given size starting no earlier
// than now. done fires at the cycle the page is fully resident in GPU
// memory (queue delay + load-to-use latency). It returns that cycle.
func (b *Bus) Transfer(now uint64, size vmem.PageSize, done func(cycle uint64)) uint64 {
	start := b.admit(now, b.OccupancyCycles(size))
	finish := start + b.LoadToUseCycles(size)
	if size == vmem.Large {
		b.stats.LargeTransfers++
	} else {
		b.stats.BaseTransfers++
	}
	b.track(now, finish)
	if done != nil {
		b.q.Schedule(finish, done)
	}
	return finish
}

// WriteBack queues an eviction write-back of a dirty page to the host
// tier. The link is held for the transfer's occupancy exactly as for a
// page-in, but there is no fault-handling latency on top: done fires (and
// the returned cycle is) when the data has left GPU memory, after which
// the frame may be reused. Because the bus is FIFO, any page-in issued
// after this write-back queues behind it.
func (b *Bus) WriteBack(now uint64, size vmem.PageSize, done func(cycle uint64)) uint64 {
	occ := b.OccupancyCycles(size)
	start := b.admit(now, occ)
	finish := start + occ
	if size == vmem.Large {
		b.stats.WriteBackLarge++
	} else {
		b.stats.WriteBackBase++
	}
	b.track(now, finish)
	if done != nil {
		b.q.Schedule(finish, done)
	}
	return finish
}

// BusyUntil reports the cycle at which the bus next becomes free.
func (b *Bus) BusyUntil() uint64 { return b.busyUntil }

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats { return b.stats }
