package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestFastTestIsValid(t *testing.T) {
	if err := FastTest().Validate(); err != nil {
		t.Fatalf("FastTest() invalid: %v", err)
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.NumSMs != 30 {
		t.Errorf("NumSMs = %d, want 30", c.NumSMs)
	}
	if c.CoreClockMHz != 1020 {
		t.Errorf("CoreClockMHz = %d, want 1020", c.CoreClockMHz)
	}
	if c.L1TLBBaseEntries != 128 || c.L1TLBLargeEntries != 16 {
		t.Errorf("L1 TLB = %d/%d, want 128/16", c.L1TLBBaseEntries, c.L1TLBLargeEntries)
	}
	if c.L2TLBBaseEntries != 512 || c.L2TLBLargeEntries != 256 {
		t.Errorf("L2 TLB = %d/%d, want 512/256", c.L2TLBBaseEntries, c.L2TLBLargeEntries)
	}
	if c.L2TLBBaseWays != 16 {
		t.Errorf("L2TLBBaseWays = %d, want 16", c.L2TLBBaseWays)
	}
	if c.WalkerConcurrency != 64 {
		t.Errorf("WalkerConcurrency = %d, want 64", c.WalkerConcurrency)
	}
	if c.L2CacheBytes != 2<<20 {
		t.Errorf("L2CacheBytes = %d, want 2MiB", c.L2CacheBytes)
	}
	if c.MemoryPartitons != 6 {
		t.Errorf("MemoryPartitons = %d, want 6", c.MemoryPartitons)
	}
	if c.DRAMBanksPerChannel != 8 {
		t.Errorf("DRAMBanksPerChannel = %d, want 8", c.DRAMBanksPerChannel)
	}
	if c.TotalDRAMBytes != 3<<30 {
		t.Errorf("TotalDRAMBytes = %d, want 3GiB", c.TotalDRAMBytes)
	}
}

func TestIOLatenciesMatchGTX1080Measurements(t *testing.T) {
	c := Default()
	// 55 us and 318 us at 1020 MHz.
	if c.IOBaseFaultCycles != 55*1020 {
		t.Errorf("IOBaseFaultCycles = %d, want %d", c.IOBaseFaultCycles, 55*1020)
	}
	if c.IOLargeFaultCycles != 318*1020 {
		t.Errorf("IOLargeFaultCycles = %d, want %d", c.IOLargeFaultCycles, 318*1020)
	}
	// The paper reports the 2MB fault is ~6x the 4KB fault.
	ratio := float64(c.IOLargeFaultCycles) / float64(c.IOBaseFaultCycles)
	if ratio < 5.5 || ratio > 6.0 {
		t.Errorf("large/base fault ratio = %.2f, want ~5.8", ratio)
	}
}

func TestMicrosToCycles(t *testing.T) {
	c := Default()
	if got := c.MicrosToCycles(1); got != 1020 {
		t.Errorf("MicrosToCycles(1) = %d, want 1020", got)
	}
	if got := c.MicrosToCycles(0); got != 0 {
		t.Errorf("MicrosToCycles(0) = %d, want 0", got)
	}
}

func TestWithoutDemandPaging(t *testing.T) {
	c := Default()
	c.MaxResidentPages = 4096
	nc := c.WithoutDemandPaging()
	if nc.IOBusEnabled {
		t.Error("WithoutDemandPaging left IOBusEnabled true")
	}
	if nc.MaxResidentPages != 0 {
		t.Error("WithoutDemandPaging left the residency bound set")
	}
	if !c.IOBusEnabled || c.MaxResidentPages != 4096 {
		t.Error("WithoutDemandPaging mutated the receiver")
	}
	if err := nc.Validate(); err != nil {
		t.Errorf("WithoutDemandPaging produced an invalid config: %v", err)
	}
}

func TestDigestStringStableWithoutResidencyBound(t *testing.T) {
	c := Default()
	if s := c.DigestString(); strings.Contains(s, "MaxResidentPages") {
		t.Errorf("DigestString leaks the unset residency knob: %q", s)
	}
	c.MaxResidentPages = 1024
	s := c.DigestString()
	if !strings.Contains(s, "MaxResidentPages:1024") {
		t.Errorf("DigestString omits the set residency knob: %q", s)
	}
	if c2 := Default(); c.DigestString() == c2.DigestString() {
		t.Error("bounded and unbounded configs share a digest string")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero clock", func(c *Config) { c.CoreClockMHz = 0 }},
		{"zero warps", func(c *Config) { c.WarpsPerSM = 0 }},
		{"zero warp width", func(c *Config) { c.WarpWidth = 0 }},
		{"zero L1 TLB", func(c *Config) { c.L1TLBBaseEntries = 0 }},
		{"zero L1 TLB large", func(c *Config) { c.L1TLBLargeEntries = 0 }},
		{"zero L2 TLB", func(c *Config) { c.L2TLBBaseEntries = 0 }},
		{"uneven L2 ways", func(c *Config) { c.L2TLBBaseWays = 7 }},
		{"zero walker", func(c *Config) { c.WalkerConcurrency = 0 }},
		{"bad levels", func(c *Config) { c.PageTableLevels = 3 }},
		{"bad L1 cache", func(c *Config) { c.L1CacheBytes = 100 }},
		{"bad L2 cache", func(c *Config) { c.L2CacheBytes = 100 }},
		{"zero L2 cache line", func(c *Config) { c.L2CacheLineSz = 0 }},
		{"zero L2 cache ways", func(c *Config) { c.L2CacheWays = 0 }},
		{"L1 cache sets not a power of two", func(c *Config) { c.L1CacheBytes = 3 * c.L1CacheLineSz * c.L1CacheWays }},
		{"L2 cache sets not a power of two", func(c *Config) { c.L2CacheBytes = 3 * c.L2CacheLineSz * c.L2CacheWays }},
		{"L1 cache line not a power of two", func(c *Config) {
			c.L1CacheLineSz = 96
			c.L1CacheBytes = 96 * c.L1CacheWays * 64
		}},
		{"L2 cache line not a power of two", func(c *Config) {
			c.L2CacheLineSz = 96
			c.L2CacheBytes = 96 * c.L2CacheWays * 64
		}},
		{"page-walk cache sets not a power of two", func(c *Config) { c.PageWalkCacheEntries = 12 }},
		{"direct-mapped page-walk cache sets not a power of two", func(c *Config) { c.PageWalkCacheEntries = 6 }},
		{"SMs above ceiling", func(c *Config) { c.NumSMs = MaxSMs + 1 }},
		{"warps above ceiling", func(c *Config) { c.WarpsPerSM = 1 << 30 }},
		{"L1 TLB above ceiling", func(c *Config) { c.L1TLBBaseEntries = MaxL1TLBEntries + 1 }},
		{"L1 TLB large above ceiling", func(c *Config) { c.L1TLBLargeEntries = MaxL1TLBEntries + 1 }},
		{"L2 TLB above ceiling", func(c *Config) { c.L2TLBBaseEntries, c.L2TLBBaseWays = MaxL2TLBEntries*2, 16 }},
		{"L2 TLB large above ceiling", func(c *Config) { c.L2TLBLargeEntries = MaxL2TLBEntries + 1 }},
		{"page-walk cache above ceiling", func(c *Config) { c.PageWalkCacheEntries = MaxPageWalkCacheEntries + 1 }},
		{"L1 cache above ceiling", func(c *Config) { c.L1CacheBytes = 2 * MaxL1CacheLines * c.L1CacheLineSz }},
		{"L2 cache above ceiling", func(c *Config) { c.L2CacheBytes = 2 * MaxL2CacheLines * c.L2CacheLineSz }},
		{"L2 cache line above ceiling", func(c *Config) {
			c.L2CacheLineSz = 2 * MaxCacheLineBytes
			c.L2CacheBytes = c.L2CacheLineSz * c.L2CacheWays
		}},
		{"partitions above ceiling", func(c *Config) { c.MemoryPartitons = MaxMemoryPartitions + 1 }},
		{"banks above ceiling", func(c *Config) { c.DRAMBanksPerChannel = MaxDRAMBanksPerChannel + 1 }},
		{"DRAM above ceiling", func(c *Config) { c.TotalDRAMBytes = 2 * MaxTotalDRAMBytes }},
		{"zero partitions", func(c *Config) { c.MemoryPartitons = 0 }},
		{"zero banks", func(c *Config) { c.DRAMBanksPerChannel = 0 }},
		{"row miss < hit", func(c *Config) { c.DRAMRowMissCycles = c.DRAMRowHitCycles - 1 }},
		{"zero dram", func(c *Config) { c.TotalDRAMBytes = 0 }},
		{"bad threshold", func(c *Config) { c.CACOccupancyThreshold = 1.5 }},
		{"negative threshold", func(c *Config) { c.CACOccupancyThreshold = -0.1 }},
		{"zero scale", func(c *Config) { c.WorkloadScale = 0 }},
		{"zero max cycles", func(c *Config) { c.MaxCycles = 0 }},
		{"zero base occupancy", func(c *Config) { c.IOBaseOccupancyCycles = 0 }},
		{"zero large occupancy", func(c *Config) { c.IOLargeOccupancyCycles = 0 }},
		{"zero base fault latency", func(c *Config) { c.IOBaseFaultCycles = 0 }},
		{"zero large fault latency", func(c *Config) { c.IOLargeFaultCycles = 0 }},
		{"base occupancy > load-to-use", func(c *Config) { c.IOBaseOccupancyCycles = c.IOBaseFaultCycles + 1 }},
		{"large occupancy > load-to-use", func(c *Config) { c.IOLargeOccupancyCycles = c.IOLargeFaultCycles + 1 }},
		{"residency bound below one 2MB frame", func(c *Config) { c.MaxResidentPages = BasePagesPerLargeFrame - 1 }},
		{"residency bound without I/O bus", func(c *Config) {
			c.IOBusEnabled = false
			c.MaxResidentPages = 4 * BasePagesPerLargeFrame
		}},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", m.name)
		}
	}

	// Paging knobs are only policed while the bus is on: the "no demand
	// paging overhead" configurations zero nothing else out.
	c := Default().WithoutDemandPaging()
	c.IOBaseOccupancyCycles = 0
	if err := c.Validate(); err != nil {
		t.Errorf("bus-off config rejected for dormant paging knobs: %v", err)
	}

	// Every ceiling admits its own value.
	c = Default()
	c.NumSMs, c.WarpsPerSM = MaxSMs, MaxWarpsPerSM
	c.L1TLBBaseEntries, c.L1TLBLargeEntries = MaxL1TLBEntries, MaxL1TLBEntries
	c.L2TLBBaseEntries, c.L2TLBLargeEntries = MaxL2TLBEntries, MaxL2TLBEntries
	c.PageWalkCacheEntries = MaxPageWalkCacheEntries
	c.MemoryPartitons, c.DRAMBanksPerChannel = MaxMemoryPartitions, MaxDRAMBanksPerChannel
	c.TotalDRAMBytes = MaxTotalDRAMBytes
	c.L1CacheLineSz, c.L2CacheLineSz = MaxCacheLineBytes, MaxCacheLineBytes
	c.L1CacheBytes = c.L1CacheLineSz * c.L1CacheWays
	c.L2CacheBytes = c.L2CacheLineSz * c.L2CacheWays
	if err := c.Validate(); err != nil {
		t.Errorf("config at the ceilings rejected: %v", err)
	}

	// Every page-walk cache size in use builds.
	for _, n := range []int{0, 2, 32, 64, 128, MaxPageWalkCacheEntries} {
		c = Default()
		c.PageWalkCacheEntries = n
		if err := c.Validate(); err != nil {
			t.Errorf("page-walk cache of %d entries rejected: %v", n, err)
		}
	}

	// A sane residency bound passes.
	c = Default()
	c.MaxResidentPages = 4 * BasePagesPerLargeFrame
	if err := c.Validate(); err != nil {
		t.Errorf("valid bounded config rejected: %v", err)
	}
}

func TestClampTLBWays(t *testing.T) {
	// Fewer entries than ways: degrade to fully associative.
	c := Default()
	c.L2TLBBaseEntries = 8
	c.ClampTLBWays()
	if c.L2TLBBaseWays != 8 {
		t.Errorf("ways = %d after clamping 8 entries, want 8", c.L2TLBBaseWays)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clamped config invalid: %v", err)
	}

	// Entries not a multiple of ways: also fully associative.
	c = Default()
	c.L2TLBBaseEntries = 24
	c.ClampTLBWays()
	if c.L2TLBBaseWays != 24 {
		t.Errorf("ways = %d after clamping 24 entries, want 24", c.L2TLBBaseWays)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clamped config invalid: %v", err)
	}

	// Valid geometry is untouched.
	c = Default()
	c.L2TLBBaseEntries = 4096
	c.ClampTLBWays()
	if c.L2TLBBaseWays != 16 {
		t.Errorf("ways = %d for a valid geometry, want 16 untouched", c.L2TLBBaseWays)
	}
}
