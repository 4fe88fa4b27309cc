package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/event"
	"repro/internal/vmem"
)

// scanDRAM is the whole-channel-scan FR-FCFS scheduler the per-bank
// queues replaced, kept as a test oracle: one queue per channel in
// arrival order, scanned once per bank for the oldest row hit, else the
// oldest request, with fresh closures per event. It borrows a real
// DRAM's configuration, event queue, stats and address mapping, and
// keeps its own bank and bus state, so it models the visit-every-bank
// scan whatever layout the real scheduler uses.
type scanDRAM struct {
	*DRAM
	queues  [][]*scanReq
	banks   [][]scanBank
	busFree []uint64
}

type scanBank struct {
	openRow     uint64
	busyUntil   uint64
	retryQueued bool
}

type scanReq struct {
	done func(cycle uint64)
	bank int
	row  uint64
}

func newScanDRAM(cfg config.Config, q *event.Queue) *scanDRAM {
	d := &scanDRAM{
		DRAM:    New(cfg, q),
		queues:  make([][]*scanReq, cfg.MemoryPartitons),
		banks:   make([][]scanBank, cfg.MemoryPartitons),
		busFree: make([]uint64, cfg.MemoryPartitons),
	}
	for ci := range d.banks {
		d.banks[ci] = make([]scanBank, cfg.DRAMBanksPerChannel)
		for bi := range d.banks[ci] {
			d.banks[ci][bi].openRow = noOpenRow
		}
	}
	return d
}

func (d *scanDRAM) Enqueue(now uint64, r Request) {
	ci, bi, row := d.decompose(r.Addr)
	d.queues[ci] = append(d.queues[ci], &scanReq{done: r.Done, bank: bi, row: row})
	if len(d.queues[ci]) > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = len(d.queues[ci])
	}
	d.dispatch(ci, now)
}

func (d *scanDRAM) dispatch(ci int, now uint64) {
	for bi := range d.banks[ci] {
		b := &d.banks[ci][bi]
		if b.busyUntil > now {
			if !b.retryQueued && d.hasWork(ci, bi) {
				b.retryQueued = true
				d.q.Schedule(b.busyUntil, func(cycle uint64) {
					b.retryQueued = false
					d.dispatch(ci, cycle)
				})
			}
			continue
		}
		pos := d.pick(ci, bi, b.openRow)
		if pos < 0 {
			continue
		}
		r := d.queues[ci][pos]
		d.queues[ci] = append(d.queues[ci][:pos], d.queues[ci][pos+1:]...)
		d.service(ci, bi, r, now)
	}
}

func (d *scanDRAM) hasWork(ci, bi int) bool {
	for _, r := range d.queues[ci] {
		if r.bank == bi {
			return true
		}
	}
	return false
}

func (d *scanDRAM) pick(ci, bi int, openRow uint64) int {
	oldest := -1
	for i, r := range d.queues[ci] {
		if r.bank != bi {
			continue
		}
		if openRow != noOpenRow && r.row == openRow {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (d *scanDRAM) service(ci, bi int, r *scanReq, now uint64) {
	b := &d.banks[ci][bi]
	lat, busy := uint64(d.cfg.DRAMRowMissCycles), uint64(d.cfg.DRAMRowMissBusy)
	if b.openRow == r.row {
		lat, busy = uint64(d.cfg.DRAMRowHitCycles), uint64(d.cfg.DRAMRowHitBusy)
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		b.openRow = r.row
	}
	d.stats.Accesses++
	d.stats.ChannelAccesses[ci]++
	ready := now + lat
	burst := uint64(d.cfg.DRAMBusCycles)
	done := max64(ready, d.busFree[ci]) + burst
	d.busFree[ci] = done
	b.busyUntil = now + busy
	d.stats.BusyCycles += burst
	dn := r.done
	d.q.Schedule(done, func(cycle uint64) {
		if dn != nil {
			dn(cycle)
		}
	})
	d.q.Schedule(ready, func(cycle uint64) { d.dispatch(ci, cycle) })
}

func (d *scanDRAM) PendingRequests() int {
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}

type enqueuer interface {
	Enqueue(now uint64, r Request)
	Stats() Stats
	PendingRequests() int
}

// runStream feeds n random requests to d through q, arriving in bursts
// at random cycles, and returns each request's completion cycle (0 for
// requests issued without a Done callback). Addresses come from a few
// pages so that row hits, row conflicts and bank queues all occur.
func runStream(seed int64, n int, d enqueuer, q *event.Queue) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	pages := make([]uint64, 2+rng.Intn(40))
	for i := range pages {
		pages[i] = uint64(rng.Intn(1 << 18))
	}
	doneAt := make([]uint64, n)
	var at uint64
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			at += uint64(rng.Intn(300))
		}
		addr := vmem.PhysAddr(pages[rng.Intn(len(pages))]*vmem.BasePageSize + uint64(rng.Intn(vmem.BasePageSize)))
		r := Request{Addr: addr}
		if rng.Intn(8) != 0 {
			i := i
			r.Done = func(c uint64) { doneAt[i] = c }
		}
		q.Schedule(at, func(c uint64) { d.Enqueue(c, r) })
	}
	drain(q)
	return doneAt
}

// TestPerBankMatchesChannelScan checks the per-bank FR-FCFS scheduler
// against the whole-channel-scan oracle on random request streams: every
// request must complete at the same cycle, with the same Stats and the
// same number of scheduled events.
func TestPerBankMatchesChannelScan(t *testing.T) {
	cfgs := map[string]config.Config{"default": config.Default()}
	small := config.Default()
	small.MemoryPartitons, small.DRAMBanksPerChannel = 2, 4
	cfgs["2ch-4bank"] = small
	for name, cfg := range cfgs {
		for seed := int64(1); seed <= 30; seed++ {
			n := 50 + int(seed)*20
			q1, q2 := &event.Queue{}, &event.Queue{}
			d := New(cfg, q1)
			oracle := newScanDRAM(cfg, q2)
			got := runStream(seed, n, d, q1)
			want := runStream(seed, n, oracle, q2)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: request %d done at %d, oracle %d", name, seed, i, got[i], want[i])
				}
			}
			if gs, ws := d.Stats(), oracle.Stats(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s seed %d: stats %+v, oracle %+v", name, seed, gs, ws)
			}
			if q1.Seq() != q2.Seq() {
				t.Fatalf("%s seed %d: %d events scheduled, oracle %d", name, seed, q1.Seq(), q2.Seq())
			}
			if d.PendingRequests() != 0 {
				t.Fatalf("%s seed %d: %d requests left queued", name, seed, d.PendingRequests())
			}
		}
	}
}

// TestEnqueueAllocFree guards the DRAM request path: once the bank
// queues and the event queue are warm, enqueueing requests and draining
// them to completion allocates nothing.
func TestEnqueueAllocFree(t *testing.T) {
	d, q := newTestDRAM()
	done := func(uint64) {}
	var now uint64
	burst := func() {
		for i := 0; i < 32; i++ {
			// Two rows per bank in a few pages: hits, conflicts and
			// queueing behind busy banks.
			addr := vmem.PhysAddr(uint64(i%4)*vmem.BasePageSize + uint64(i%8)*512)
			if i%5 == 0 {
				d.Enqueue(now, Request{Addr: addr}) // nil Done
			} else {
				d.Enqueue(now, Request{Addr: addr, Done: done})
			}
		}
		now = drain(q)
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("Enqueue + drain allocates %.1f objects per burst, want 0", avg)
	}
}
