package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/policies/fifoevict"
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

// residencyOrders are the residency policies in the tree, each with the
// reference behavior it must match.
var residencyOrders = []struct {
	name string
	fifo bool
	make func() core.ResidencyPolicy
}{
	{"lru", false, core.NewLRUResidency},
	{"fifo", true, fifoevict.NewResidency},
}

// TestResidencyMatchesSliceReference drives random Insert, Touch,
// Remove, Victim and Clone sequences through each residency policy and
// through the slice reference, and demands the same victim after every
// operation. Victims are popped the way the pager pops them (Victim then
// Remove), and Clone switches both sides to fresh entries mid-sequence.
func TestResidencyMatchesSliceReference(t *testing.T) {
	for _, ord := range residencyOrders {
		t.Run(ord.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				checkResidencyProgram(t, seed, ord.fifo, ord.make())
			}
		})
	}
}

func checkResidencyProgram(t *testing.T, seed int64, fifo bool, impl core.ResidencyPolicy) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]*core.PageEntry, 24)
	for i := range entries {
		entries[i] = &core.PageEntry{}
	}
	tracked := make(map[*core.PageEntry]bool)
	ref := &refResidency[*core.PageEntry]{fifo: fifo}
	pops := 0
	for step := 0; step < 4000; step++ {
		e := entries[rng.Intn(len(entries))]
		switch op := rng.Intn(20); {
		case op < 6:
			if !tracked[e] {
				impl.Insert(e)
				ref.insert(e)
				tracked[e] = true
			}
		case op < 13:
			if tracked[e] {
				impl.Touch(e)
				ref.touch(e)
			}
		case op < 15:
			// Remove tolerates untracked entries.
			impl.Remove(e)
			ref.remove(e)
			delete(tracked, e)
		case op < 19:
			if v, ok := ref.victim(); ok {
				impl.Remove(v)
				ref.remove(v)
				delete(tracked, v)
				pops++
			}
		default:
			copies := make(map[*core.PageEntry]*core.PageEntry, len(entries))
			for i, old := range entries {
				entries[i] = &core.PageEntry{}
				copies[old] = entries[i]
			}
			impl = impl.Clone(func(old *core.PageEntry) *core.PageEntry { return copies[old] })
			remapped := make(map[*core.PageEntry]bool, len(tracked))
			for old := range tracked {
				remapped[copies[old]] = true
			}
			tracked = remapped
			for i, old := range ref.order {
				ref.order[i] = copies[old]
			}
		}
		want, _ := ref.victim()
		if got := impl.Victim(); got != want {
			t.Fatalf("seed %d step %d: victim %p, reference %p", seed, step, got, want)
		}
	}
	if pops == 0 {
		t.Fatalf("seed %d: program evicted nothing", seed)
	}
}

// victimLog wraps a residency policy and records the key of every victim
// the pager asks for; the pager evicts each one it is given.
type victimLog struct {
	core.ResidencyPolicy
	keys *[]uint64
}

func (v victimLog) Victim() *core.PageEntry {
	e := v.ResidencyPolicy.Victim()
	if e != nil {
		*v.keys = append(*v.keys, e.Key())
	}
	return e
}

// pagerVictims collects the victim keys of the current pager program.
var pagerVictims []uint64

// oraclePolicies registers GPU-MMU's options (4KB faults, no coalescing,
// so every eviction moves exactly one page) once per residency order,
// with the order wrapped in a victimLog.
var oraclePolicies = func() []core.Policy {
	var ids []core.Policy
	for _, ord := range residencyOrders {
		ord := ord
		ids = append(ids, core.MustRegisterPolicy(core.PolicySpec{
			Name: "oracle-" + ord.name, Wire: "oracle-" + ord.name,
			Options: func(cfg config.Config) core.Options { return core.OptionsFor(core.GPUMMU4K, cfg) },
			Residency: func() core.ResidencyPolicy {
				return victimLog{ResidencyPolicy: ord.make(), keys: &pagerVictims}
			},
		}))
	}
	return ids
}()

// TestPagerVictimsMatchSliceReference drives random fault and free
// programs through a bounded System and through the slice reference
// under the same budget, and demands identical victim sequences. Each
// fault lands before the next operation, so the pager's resident set is
// exactly the reference's list.
func TestPagerVictimsMatchSliceReference(t *testing.T) {
	const budget = vmem.BasePagesPerLarge // the smallest legal bound
	const pages = 3 * budget
	sequences := make([][]uint64, len(residencyOrders))
	for i, ord := range residencyOrders {
		t.Run(ord.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				got, want := runPagerProgram(t, seed, oraclePolicies[i], budget, pages, ord.fifo)
				if len(want) == 0 {
					t.Fatalf("seed %d: program evicted nothing", seed)
				}
				if !slices.Equal(got, want) {
					n := 0
					for n < min(len(got), len(want)) && got[n] == want[n] {
						n++
					}
					t.Fatalf("seed %d: pager victims diverge from the reference at eviction %d of %d (pager %d, reference %d)",
						seed, n, len(want), len(got), len(want))
				}
				if seed == 1 {
					sequences[i] = got
				}
			}
		})
	}
	if slices.Equal(sequences[0], sequences[1]) {
		t.Error("LRU and FIFO evicted the same pages: the programs never exercise recency")
	}
}

// runPagerProgram runs one random program on a one-app System bounded
// to budget pages and returns the pager's victim keys and the
// reference's. Touches favor a small hot set so recency matters; frees
// and re-allocations of single pages exercise Remove.
func runPagerProgram(t *testing.T, seed int64, policy core.Policy, budget, pages uint64, fifo bool) (got, want []uint64) {
	t.Helper()
	cfg := config.Default()
	cfg.TotalDRAMBytes = 256 << 20
	cfg.MaxResidentPages = budget
	opt, err := core.ResolveOptions(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &event.Queue{}
	sys, err := core.NewSystem(cfg, opt, q, iobus.New(cfg, q), dram.New(cfg, q))
	if err != nil {
		t.Fatal(err)
	}
	const asid = 1
	if err := sys.RegisterApp(asid); err != nil {
		t.Fatal(err)
	}
	if err := sys.AllocVirtual(0, asid, 0, pages*vmem.BasePageSize); err != nil {
		t.Fatal(err)
	}
	pagerVictims = pagerVictims[:0]
	rng := rand.New(rand.NewSource(seed))
	ref := &refResidency[uint64]{fifo: fifo}
	live := make([]bool, pages)
	for i := range live {
		live[i] = true
	}
	now := uint64(1)
	hot := budget / 2
	for step := 0; step < 12000; step++ {
		pn := uint64(rng.Int63n(int64(pages)))
		if rng.Intn(3) > 0 {
			pn = uint64(rng.Int63n(int64(hot)))
		}
		va := vmem.VirtAddr(pn * vmem.BasePageSize)
		switch op := rng.Intn(50); {
		case op == 0 && live[pn]:
			if err := sys.FreeVirtual(now, asid, va, vmem.BasePageSize); err != nil {
				t.Fatal(err)
			}
			ref.remove(pn)
			live[pn] = false
		case !live[pn]:
			if err := sys.AllocVirtual(now, asid, va, vmem.BasePageSize); err != nil {
				t.Fatal(err)
			}
			live[pn] = true
		default:
			sys.EnsureResident(now, asid, va, nil)
			if slices.Contains(ref.order, pn) {
				ref.touch(pn)
			} else {
				for uint64(len(ref.order)) >= budget {
					v, _ := ref.victim()
					want = append(want, v)
					ref.remove(v)
				}
				ref.insert(pn)
			}
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
	}
	return slices.Clone(pagerVictims), want
}
