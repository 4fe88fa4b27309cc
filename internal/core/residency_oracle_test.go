package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/vmem"
)

// refResidency is the naive reference victim order, after the list-based
// page_manager of gpgpu-sim: a slice whose front is the next victim. New
// pages join the back; under LRU a touch moves the page to the back,
// under FIFO a touch changes nothing.
type refResidency[T comparable] struct {
	order []T
	fifo  bool
}

func (r *refResidency[T]) insert(e T) { r.order = append(r.order, e) }

func (r *refResidency[T]) touch(e T) {
	if r.fifo {
		return
	}
	if i := slices.Index(r.order, e); i >= 0 {
		r.order = append(slices.Delete(r.order, i, i+1), e)
	}
}

func (r *refResidency[T]) remove(e T) {
	if i := slices.Index(r.order, e); i >= 0 {
		r.order = slices.Delete(r.order, i, i+1)
	}
}

func (r *refResidency[T]) victim() (T, bool) {
	if len(r.order) == 0 {
		var zero T
		return zero, false
	}
	return r.order[0], true
}

// residencyOrders are the pager's two victim orders, each with the
// reference behavior it must match.
var residencyOrders = []struct {
	name string
	fifo bool
}{
	{"lru", false},
	{"fifo", true},
}

// TestResidencyMatchesSliceReference drives random insert, touch,
// remove, victim and clone sequences through a pager's residency queue,
// in each order, and through the slice reference, and demands the same
// victim after every operation. Operations go through the pager's own
// calls: pushFront on landing, touch on a resident hit, remove, back for
// the victim (popped as the pager pops it) and cloneInto, which switches
// both sides to fresh entries mid-sequence.
func TestResidencyMatchesSliceReference(t *testing.T) {
	for _, ord := range residencyOrders {
		t.Run(ord.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				checkResidencyProgram(t, seed, ord.fifo)
			}
		})
	}
}

func checkResidencyProgram(t *testing.T, seed int64, fifo bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := &pager{fifo: fifo}
	entries := make([]*pageEntry, 24)
	for i := range entries {
		entries[i] = &pageEntry{}
	}
	tracked := make(map[*pageEntry]bool)
	ref := &refResidency[*pageEntry]{fifo: fifo}
	pops := 0
	for step := 0; step < 4000; step++ {
		e := entries[rng.Intn(len(entries))]
		switch op := rng.Intn(20); {
		case op < 6:
			if !tracked[e] {
				p.res.pushFront(e)
				ref.insert(e)
				tracked[e] = true
			}
		case op < 13:
			if tracked[e] {
				p.touch(e)
				ref.touch(e)
			}
		case op < 15:
			// remove tolerates untracked entries.
			p.res.remove(e)
			ref.remove(e)
			delete(tracked, e)
		case op < 19:
			if v, ok := ref.victim(); ok {
				p.res.remove(v)
				ref.remove(v)
				delete(tracked, v)
				pops++
			}
		default:
			copies := make(map[*pageEntry]*pageEntry, len(entries))
			for i, old := range entries {
				entries[i] = &pageEntry{}
				copies[old] = entries[i]
			}
			np := &pager{fifo: p.fifo}
			p.res.cloneInto(&np.res, func(old *pageEntry) *pageEntry { return copies[old] })
			p = np
			remapped := make(map[*pageEntry]bool, len(tracked))
			for old := range tracked {
				remapped[copies[old]] = true
			}
			tracked = remapped
			for i, old := range ref.order {
				ref.order[i] = copies[old]
			}
		}
		want, _ := ref.victim()
		if got := p.res.back(); got != want {
			t.Fatalf("seed %d step %d: victim %p, reference %p", seed, step, got, want)
		}
	}
	if pops == 0 {
		t.Fatalf("seed %d: program evicted nothing", seed)
	}
}

// TestFIFOOrder pins FIFO-MMU's order: victims come out in insertion
// order and a touch changes nothing (unlike LRU, a re-referenced page
// stays first in line for eviction).
func TestFIFOOrder(t *testing.T) {
	p := &pager{fifo: FIFOMMU.row().fifo}
	a, b, c := &pageEntry{}, &pageEntry{}, &pageEntry{}
	p.res.pushFront(a)
	p.res.pushFront(b)
	p.res.pushFront(c)
	p.touch(a) // must NOT move a out of the victim slot
	for _, want := range []*pageEntry{a, b, c} {
		v := p.res.back()
		if v != want {
			t.Fatalf("victim order broke FIFO: got %p, want %p", v, want)
		}
		p.res.remove(v)
	}
	if p.res.back() != nil {
		t.Fatal("drained queue still yields a victim")
	}
}

// TestCloneOrder pins the fork contract of both orders: a cloned queue
// replays the source's victim order over remapped entries, and draining
// it leaves the source untouched.
func TestCloneOrder(t *testing.T) {
	for _, ord := range residencyOrders {
		p := &pager{fifo: ord.fifo}
		src := []*pageEntry{{key: 0}, {key: 1}, {key: 2}, {key: 3}}
		remap := map[*pageEntry]*pageEntry{}
		for _, e := range src {
			p.res.pushFront(e)
			remap[e] = &pageEntry{key: e.key}
		}
		p.touch(src[0])
		want := []*pageEntry{src[1], src[2], src[3], src[0]} // LRU
		if ord.fifo {
			want = src
		}
		var cl residencyQueue
		p.res.cloneInto(&cl, func(e *pageEntry) *pageEntry { return remap[e] })
		for _, w := range want {
			if v := cl.back(); v != remap[w] {
				t.Fatalf("%s: clone victim %+v, want the copy of key %d", ord.name, v, w.key)
			}
			cl.remove(cl.back())
		}
		if v := cl.back(); v != nil {
			t.Fatalf("%s: drained clone still yields key %d", ord.name, v.key)
		}
		if v := p.res.back(); v != want[0] {
			t.Fatalf("%s: source disturbed by clone drain: victim %+v, want key %d", ord.name, v, want[0].key)
		}
	}
}

// TestPagerVictimsMatchSliceReference drives random fault and free
// programs through a bounded GPU-MMU System (4KB faults, no coalescing,
// so every eviction moves exactly one page) and through the slice
// reference under the same budget, and demands identical victim orders
// and resident sets after every operation. Each fault lands before the
// next operation, so the pager's resident set is exactly the reference's
// list.
func TestPagerVictimsMatchSliceReference(t *testing.T) {
	sequences := checkPagerPrograms(t, GPUMMU4K)
	if slices.Equal(sequences[0], sequences[1]) {
		t.Error("LRU and FIFO evicted the same pages: the programs never exercise recency")
	}
}

// TestPagerGroupEvictionMatchesSliceReference runs the same programs
// under Mosaic (4KB faults, but a victim inside a coalesced region takes
// its whole 2MB frame). The working set is whole 2MB regions, which
// coalesce, and the reference applies the group rule: when Translate
// reports a large mapping for the victim, its resident siblings leave
// with it.
func TestPagerGroupEvictionMatchesSliceReference(t *testing.T) {
	checkPagerPrograms(t, Mosaic)
}

// checkPagerPrograms runs three seeds of the pager program for each
// residency order under manager m's options, and returns each order's
// victims for seed 1. The programs set the order on the pager directly,
// because the table pairs FIFO only with Mosaic's options. Whole-frame
// group evictions must occur exactly when the manager coalesces.
func checkPagerPrograms(t *testing.T, m Policy) [][]uint64 {
	const budget = vmem.BasePagesPerLarge // the smallest legal bound
	const pages = 3 * budget
	sequences := make([][]uint64, len(residencyOrders))
	for o, ord := range residencyOrders {
		t.Run(ord.name, func(t *testing.T) {
			groups := 0
			for seed := int64(1); seed <= 3; seed++ {
				victims, g := runPagerProgram(t, seed, m, ord.fifo, budget, pages)
				if len(victims) == 0 {
					t.Fatalf("seed %d: program evicted nothing", seed)
				}
				groups += g
				if seed == 1 {
					sequences[o] = victims
				}
			}
			if coalescing := m == Mosaic; (groups > 0) != coalescing {
				t.Errorf("%d whole-frame group evictions under %v", groups, m)
			}
		})
	}
	return sequences
}

// runPagerProgram runs one random program on a one-app System bounded
// to budget pages, checking it against the reference after every
// operation, and returns the reference's victim keys and how many
// evictions took more than one page. Touches favor a small hot set so
// recency matters; frees and re-allocations of single pages exercise
// remove. The pager's whole victim order must equal the reference's
// after every operation, so each victim it takes is the reference's.
//
// The resident set is checked by induction: each operation can only add
// the touched page and remove what the reference evicted or freed, so
// equal resident counts, the touched page resident and every removed
// page gone mean equal sets. A full comparison every 256 steps backs it.
func runPagerProgram(t *testing.T, seed int64, policy Policy, fifo bool, budget, pages uint64) (victims []uint64, groups int) {
	t.Helper()
	cfg := config.Default()
	cfg.TotalDRAMBytes = 256 << 20
	cfg.MaxResidentPages = budget
	opt, err := ResolveOptions(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &event.Queue{}
	sys, err := NewSystem(cfg, opt, q, iobus.New(cfg, q), dram.New(cfg, q))
	if err != nil {
		t.Fatal(err)
	}
	sys.pager.fifo = fifo
	const asid = 1
	if err := sys.RegisterApp(asid); err != nil {
		t.Fatal(err)
	}
	if err := sys.AllocVirtual(0, asid, 0, pages*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ref := &refResidency[uint64]{fifo: fifo}
	resident := make([]bool, pages)
	live := make([]bool, pages)
	for i := range live {
		live[i] = true
	}
	vaOf := func(pn uint64) vmem.VirtAddr { return vmem.VirtAddr(pn * vmem.BasePageSize) }
	var gone []uint64 // pages the reference removed this step
	evict := func(pn uint64) {
		ref.remove(pn)
		resident[pn] = false
		gone = append(gone, pn)
	}
	now := uint64(1)
	hot := budget / 2
	for step := 0; step < 12000; step++ {
		gone = gone[:0]
		pn := uint64(rng.Int63n(int64(pages)))
		if rng.Intn(3) > 0 {
			pn = uint64(rng.Int63n(int64(hot)))
		}
		va := vaOf(pn)
		switch op := rng.Intn(50); {
		case op == 0 && live[pn]:
			if err := sys.FreeVirtual(now, asid, va, vmem.BasePageSize); err != nil {
				t.Fatal(err)
			}
			evict(pn)
			live[pn] = false
		case !live[pn]:
			if err := sys.AllocVirtual(now, asid, va, vmem.BasePageSize); err != nil {
				t.Fatal(err)
			}
			live[pn] = true
		default:
			sys.EnsureResident(now, asid, va, nil)
			if resident[pn] {
				ref.touch(pn)
				break
			}
			for uint64(len(ref.order)) >= budget {
				v, _ := ref.victim()
				victims = append(victims, v)
				before := len(gone)
				evict(v)
				if tr, ok := sys.Translate(asid, vaOf(v)); ok && tr.Size == vmem.Large {
					first := vaOf(v).LargePageBase().BasePageNumber()
					for sib := first; sib < first+vmem.BasePagesPerLarge; sib++ {
						if resident[sib] {
							evict(sib)
						}
					}
				}
				if len(gone)-before > 1 {
					groups++
				}
			}
			ref.insert(pn)
			resident[pn] = true
		}
		for {
			c, ok := q.NextCycle()
			if !ok {
				break
			}
			q.RunDue(c)
			now = max(now, c)
		}
		now++

		if !victimOrderIs(sys.pager, ref.order) {
			t.Fatalf("seed %d step %d: pager victim order diverges from the reference (after %d reference victims)",
				seed, step, len(victims))
		}
		if got := sys.ResidentPages(); got != uint64(len(ref.order)) {
			t.Fatalf("seed %d step %d: %d pages resident, reference %d", seed, step, got, len(ref.order))
		}
		if got := sys.IsResident(asid, va); got != resident[pn] {
			t.Fatalf("seed %d step %d: touched page %d resident %v, reference %v", seed, step, pn, got, resident[pn])
		}
		for _, g := range gone {
			if sys.IsResident(asid, vaOf(g)) {
				t.Fatalf("seed %d step %d: page %d still resident after the reference removed it", seed, step, g)
			}
		}
		if step%256 == 0 {
			for p := uint64(0); p < pages; p++ {
				if got := sys.IsResident(asid, vaOf(p)); got != resident[p] {
					t.Fatalf("seed %d step %d: page %d resident %v, reference %v", seed, step, p, got, resident[p])
				}
			}
		}
	}
	return victims, groups
}

// victimOrderIs reports whether p's residency queue, victim first, holds
// exactly the entries keyed by order.
func victimOrderIs(p *pager, order []uint64) bool {
	e := p.res.back()
	for _, k := range order {
		if e == nil || e == &p.res.sent || e.key != k {
			return false
		}
		e = e.prev
	}
	return e == nil || e == &p.res.sent
}
