package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/vmem"
)

// unitKey names one paged unit: a base page, or a large page under 2MB
// fault granularity.
type unitKey struct {
	asid vmem.ASID
	key  uint64
}

// mapPaging is the reference for demand paging without a residency
// bound: the map-based fault path System.EnsureResident used for every
// unbounded run before the pager took them over. A unit is resident once
// its transfer lands; faults on a unit with a transfer in flight join its
// waiter list; a freed unit forgets its residency.
type mapPaging struct {
	bus       *iobus.Bus
	large     bool
	resident  map[unitKey]bool
	pending   map[unitKey][]func(uint64)
	farFaults uint64
	coalesced uint64
}

func newMapPaging(cfg config.Config, q *event.Queue, large bool) *mapPaging {
	return &mapPaging{
		bus:      iobus.New(cfg, q),
		large:    large,
		resident: make(map[unitKey]bool),
		pending:  make(map[unitKey][]func(uint64)),
	}
}

func (m *mapPaging) unit(asid vmem.ASID, va vmem.VirtAddr) unitKey {
	if m.large {
		return unitKey{asid, va.LargePageNumber()}
	}
	return unitKey{asid, va.BasePageNumber()}
}

func (m *mapPaging) ensureResident(now uint64, asid vmem.ASID, va vmem.VirtAddr, done func(uint64)) bool {
	k := m.unit(asid, va)
	if m.resident[k] {
		return true
	}
	if waiters, inflight := m.pending[k]; inflight {
		m.pending[k] = append(waiters, done)
		m.coalesced++
		return false
	}
	m.pending[k] = []func(uint64){done}
	m.farFaults++
	size := vmem.Base
	if m.large {
		size = vmem.Large
	}
	m.bus.Transfer(now, size, func(cycle uint64) {
		m.resident[k] = true
		waiters := m.pending[k]
		delete(m.pending, k)
		for _, w := range waiters {
			w(cycle)
		}
	})
	return false
}

// landed is one fault completion: which request it answered and when.
type landed struct {
	id    int
	cycle uint64
}

// TestUnboundedPagingMatchesMapReference drives random fault, free and
// re-allocation programs through a System with no residency bound and
// through the map reference, two apps at once, under 4KB faults
// (GPU-MMU) and 2MB faults (GPU-MMU-2MB). Several faults often share a
// cycle and a unit, so transfers coalesce. After every operation the
// return value, the order and cycles of completions, FarFaults,
// CoalescedFaults and the touched unit's residency must agree.
//
// A range is freed only when none of its units has a transfer in
// flight: the simulator frees only buffers no warp touches, and there
// the pager's rule (a freed unit's landing does not make it resident)
// and the map path's (it did) never meet.
func TestUnboundedPagingMatchesMapReference(t *testing.T) {
	for _, policy := range []core.Policy{core.GPUMMU4K, core.GPUMMU2M} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkUnboundedProgram(t, policy, seed)
			}
		})
	}
}

func checkUnboundedProgram(t *testing.T, policy core.Policy, seed int64) {
	t.Helper()
	cfg := config.Default()
	cfg.TotalDRAMBytes = 256 << 20
	opt, err := core.ResolveOptions(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	large := opt.Fault == core.FaultLarge
	q := &event.Queue{}
	sys, err := core.NewSystem(cfg, opt, q, iobus.New(cfg, q), dram.New(cfg, q))
	if err != nil {
		t.Fatal(err)
	}
	refQ := &event.Queue{}
	ref := newMapPaging(cfg, refQ, large)

	// Two apps: one at the simulator's per-app base, one at zero.
	const regions = 4
	const pages = regions * vmem.BasePagesPerLarge
	bases := []vmem.VirtAddr{1 << 30, 0}
	for i, base := range bases {
		asid := vmem.ASID(i + 1)
		if err := sys.RegisterApp(asid); err != nil {
			t.Fatal(err)
		}
		if err := sys.AllocVirtual(0, asid, base, pages*vmem.BasePageSize); err != nil {
			t.Fatal(err)
		}
	}

	var got, want []landed
	next, waiting := 0, 0
	now := uint64(1)
	advance := func(to uint64) {
		for _, qq := range []*event.Queue{q, refQ} {
			for {
				c, ok := qq.NextCycle()
				if !ok || c > to {
					break
				}
				qq.RunDue(c)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 4000; step++ {
		asid := vmem.ASID(rng.Intn(len(bases)) + 1)
		base := bases[asid-1]
		pn := uint64(rng.Intn(pages))
		if rng.Intn(3) > 0 {
			pn = uint64(rng.Intn(64)) // a hot set, so faults pile onto units in flight
		}
		va := base + vmem.VirtAddr(pn*vmem.BasePageSize+uint64(rng.Intn(vmem.BasePageSize)))
		what := fmt.Sprintf("seed %d step %d", seed, step)
		switch op := rng.Intn(40); {
		case op == 0:
			// Free a run of pages (a whole region under 2MB faults, so
			// the large unit is released too), unless a unit in it is in
			// flight.
			start, n := va.BasePageBase(), uint64(rng.Intn(8)+1)
			if large {
				start, n = va.LargePageBase(), vmem.BasePagesPerLarge
			}
			busy := false
			for i := uint64(0); i < n; i++ {
				if _, inflight := ref.pending[ref.unit(asid, start+vmem.VirtAddr(i*vmem.BasePageSize))]; inflight {
					busy = true
				}
			}
			if busy {
				continue
			}
			refFree(t, sys, ref, now, asid, start, n)
		case op == 1:
			// Re-allocate a page (its whole region under 2MB faults,
			// matching the 2MB-only manager's allocation unit).
			start, size := va.BasePageBase(), uint64(vmem.BasePageSize)
			if large {
				start, size = va.LargePageBase(), vmem.LargePageSize
			}
			if _, mapped := sys.Translate(asid, start); !mapped {
				if err := sys.AllocVirtual(now, asid, start, size); err != nil {
					t.Fatalf("%s: realloc: %v", what, err)
				}
			}
		default:
			id := next
			next++
			g := sys.EnsureResident(now, asid, va, func(c uint64) { got = append(got, landed{id, c}) })
			w := ref.ensureResident(now, asid, va, func(c uint64) { want = append(want, landed{id, c}) })
			if g != w {
				t.Fatalf("%s: EnsureResident = %v, reference %v", what, g, w)
			}
			if !g {
				waiting++
			}
		}
		if rng.Intn(3) > 0 {
			now += uint64(rng.Intn(3000))
			advance(now)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: completions %v, reference %v", what, got, want)
		}
		st := sys.Stats()
		if st.FarFaults != ref.farFaults || st.CoalescedFaults != ref.coalesced {
			t.Fatalf("%s: FarFaults/CoalescedFaults = %d/%d, reference %d/%d",
				what, st.FarFaults, st.CoalescedFaults, ref.farFaults, ref.coalesced)
		}
		if g, w := sys.IsResident(asid, va), ref.resident[ref.unit(asid, va)]; g != w {
			t.Fatalf("%s: IsResident(%d, %v) = %v, reference %v", what, asid, va, g, w)
		}
	}
	advance(^uint64(0))
	if !slices.Equal(got, want) || len(got) != waiting {
		t.Fatalf("seed %d: %d completions, reference %d, faults waiting %d", seed, len(got), len(want), waiting)
	}
	st := sys.Stats()
	if st.FarFaults == 0 || st.CoalescedFaults == 0 {
		t.Fatalf("seed %d: program never exercised coalescing: %+v", seed, st)
	}
	for i, base := range bases {
		asid := vmem.ASID(i + 1)
		for pn := uint64(0); pn < pages; pn++ {
			va := base + vmem.VirtAddr(pn*vmem.BasePageSize)
			if g, w := sys.IsResident(asid, va), ref.resident[ref.unit(asid, va)]; g != w {
				t.Fatalf("seed %d: final IsResident(%d, %v) = %v, reference %v", seed, asid, va, g, w)
			}
		}
	}
}

// refFree frees n pages from start on the System and applies the map
// path's release rule to the reference: a base unit is forgotten when its
// mapped page is freed; a large unit when its region was coalesced and no
// page of it stays mapped.
func refFree(t *testing.T, sys *core.System, ref *mapPaging, now uint64, asid vmem.ASID, start vmem.VirtAddr, n uint64) {
	t.Helper()
	var freed []vmem.VirtAddr
	coalesced := make(map[vmem.VirtAddr]bool)
	for i := uint64(0); i < n; i++ {
		va := start + vmem.VirtAddr(i*vmem.BasePageSize)
		if tr, ok := sys.Translate(asid, va); ok {
			freed = append(freed, va)
			if tr.Size == vmem.Large {
				coalesced[va.LargePageBase()] = true
			}
		}
	}
	if err := sys.FreeVirtual(now, asid, start, n*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	if !ref.large {
		for _, va := range freed {
			delete(ref.resident, ref.unit(asid, va))
		}
		return
	}
	for region := range coalesced {
		empty := true
		for i := uint64(0); i < vmem.BasePagesPerLarge && empty; i++ {
			_, mapped := sys.Translate(asid, region+vmem.VirtAddr(i*vmem.BasePageSize))
			empty = !mapped
		}
		if empty {
			delete(ref.resident, ref.unit(asid, region))
		}
	}
}
