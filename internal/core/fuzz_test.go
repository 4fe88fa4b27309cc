package core

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/iobus"
	"repro/internal/vmem"
)

// FuzzPolicyConfig fuzzes policy resolution against arbitrary wire names
// and config knobs: every combination must yield either a working System
// (which is then driven through allocation, demand paging under a
// bounded pool, and deallocation) or a typed error — never a panic. This
// pins the registry's error contract (unknown names wrap
// ErrUnknownPolicy) and the policy pipeline's robustness to hostile
// configurations (zero/huge residency budgets, out-of-range compaction
// thresholds, paging disabled).
func FuzzPolicyConfig(f *testing.F) {
	f.Add("mosaic", uint64(768), 0.5, false, true, uint(600), byte(128))
	f.Add("gpummu", uint64(0), 0.5, false, true, uint(64), byte(0))
	f.Add("gpummu-2mb", uint64(1024), 0.5, true, true, uint(1024), byte(255))
	f.Add("ideal", uint64(512), 0.3, false, false, uint(300), byte(64))
	f.Add("no-such-policy", uint64(1), 2.5, true, true, uint(1), byte(1))
	f.Add("", uint64(100), -1.0, false, true, uint(513), byte(200))

	f.Fuzz(func(t *testing.T, name string, maxResident uint64, threshold float64, bulk, iobus2 bool, allocPages uint, freeFrac byte) {
		p, err := ParsePolicy(name)
		if err != nil {
			if !errors.Is(err, ErrUnknownPolicy) {
				t.Fatalf("ParsePolicy(%q) error is not typed: %v", name, err)
			}
			// Unknown names must also fail closed at option resolution.
			if _, err := ResolveOptions(Policy(1<<20), config.FastTest()); !errors.Is(err, ErrUnknownPolicy) {
				t.Fatalf("ResolveOptions on wild id is not typed: %v", err)
			}
			return
		}
		cfg := config.FastTest()
		cfg.TotalDRAMBytes = 64 << 20
		cfg.MaxResidentPages = maxResident % 8192
		cfg.CACOccupancyThreshold = threshold
		cfg.CACUseBulkCopy = bulk
		cfg.IOBusEnabled = iobus2
		opt, err := ResolveOptions(p, cfg)
		if err != nil {
			t.Fatalf("ResolveOptions(%v) on a registered policy: %v", p, err)
		}
		q := &event.Queue{}
		sys, err := NewSystem(cfg, opt, q, iobus.New(cfg, q), dram.New(cfg, q))
		if err != nil {
			return // typed rejection of a hostile config is a valid outcome
		}

		// Drive the pipeline: allocate, fault more pages than the budget
		// holds, free a prefix, reallocate. Any panic fails the fuzz run.
		drain := func() {
			for {
				c, ok := q.NextCycle()
				if !ok {
					return
				}
				q.RunDue(c)
			}
		}
		const asid = vmem.ASID(1)
		if err := sys.RegisterApp(asid); err != nil {
			t.Fatalf("RegisterApp: %v", err)
		}
		pages := uint64(allocPages%4096) + 1
		if err := sys.AllocVirtual(0, asid, 0, pages*vmem.BasePageSize); err != nil {
			return // pool exhaustion is a typed error, not a failure
		}
		now := uint64(1)
		for pg := uint64(0); pg < pages; pg += 7 {
			sys.EnsureResident(now, asid, vmem.VirtAddr(pg*vmem.BasePageSize), nil)
			now += 50
			if pg%64 == 0 {
				drain()
			}
			if cfg.MaxResidentPages > 0 && sys.ResidentPages() > cfg.MaxResidentPages {
				t.Fatalf("residency %d exceeds budget %d", sys.ResidentPages(), cfg.MaxResidentPages)
			}
		}
		drain()
		freePages := pages * uint64(freeFrac) / 255
		if freePages > 0 {
			if err := sys.FreeVirtual(now, asid, 0, freePages*vmem.BasePageSize); err != nil {
				t.Fatalf("FreeVirtual: %v", err)
			}
		}
		drain()
		if err := sys.AllocVirtual(now, asid, vmem.VirtAddr(pages*vmem.BasePageSize), vmem.LargePageSize); err != nil {
			return
		}
		drain()
	})
}
