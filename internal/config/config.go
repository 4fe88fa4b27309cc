// Package config holds the simulated-system configuration. Default values
// reproduce Table 1 of the paper: a 30-SM GPU at 1020 MHz with per-SM L1
// caches and TLBs, a shared two-level TLB hierarchy, a highly-threaded page
// table walker, a banked shared L2 cache across six memory partitions, and
// GDDR5-like DRAM timing, plus the PCIe transfer latencies measured on a
// GTX 1080 that drive the demand-paging experiments.
package config

import (
	"errors"
	"fmt"
	"strings"
)

// BasePagesPerLargeFrame is the number of 4KB base pages in one 2MB large
// frame (mirrors vmem.BasePagesPerLarge; config stays dependency-free).
const BasePagesPerLargeFrame = 512

// Ceilings on the sizes a simulator allocates up front. Each sits well
// above every value the paper's figures and sweeps use, so it only turns
// a configuration (or request) that would exhaust host memory into an
// error.
const (
	MaxSMs                  = 256
	MaxWarpsPerSM           = 256
	MaxL1TLBEntries         = 1 << 13 // per SM, per page size
	MaxL2TLBEntries         = 1 << 16 // per page size
	MaxPageWalkCacheEntries = 1 << 16
	MaxL1CacheLines         = 1 << 14 // per SM
	MaxL2CacheLines         = 1 << 20
	MaxCacheLineBytes       = 1 << 12 // also keeps the page-walk cache's bytes (a line per entry) in range
	MaxMemoryPartitions     = 64
	MaxDRAMBanksPerChannel  = 256
	MaxTotalDRAMBytes       = 1 << 40
)

// Config describes one simulated GPU system. The zero value is not usable;
// start from Default and adjust.
type Config struct {
	// ---- GPU core (Table 1, "GPU Core Configuration") ----

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// CoreClockMHz is the shader core clock; latencies quoted in
	// microseconds are converted to cycles with it.
	CoreClockMHz int
	// WarpsPerSM is how many warps each SM can keep in flight.
	WarpsPerSM int
	// WarpWidth is the number of threads per warp (SIMT lockstep width).
	WarpWidth int

	// ---- Private L1 data cache ----

	L1CacheBytes   int // total capacity per SM
	L1CacheWays    int
	L1CacheLineSz  int
	L1CacheLatency int // cycles

	// ---- Private L1 TLB (per SM) ----

	L1TLBBaseEntries  int
	L1TLBLargeEntries int
	L1TLBLatency      int // cycles

	// ---- Shared L2 TLB ----

	L2TLBBaseEntries  int
	L2TLBLargeEntries int
	L2TLBBaseWays     int // associativity of the base-page array
	L2TLBLatency      int // cycles
	L2TLBPorts        int // lookups accepted per cycle

	// ---- Page table walker ----

	// WalkerConcurrency is the number of page table walks the shared
	// highly-threaded walker can have in flight (64 in the paper).
	WalkerConcurrency int
	// PageTableLevels is the radix-tree depth (4, x86-64 style).
	PageTableLevels int
	// PTWalkCached lets page-table reads allocate in (and hit) the
	// shared L2 cache. When false (default), leaf PTE reads go to DRAM:
	// under unscaled working sets the page tables do not stay resident
	// in the thrashed L2, and scaled-down tables would otherwise be
	// unrealistically hot (see DESIGN.md §5).
	PTWalkCached bool
	// PageWalkCacheEntries enables a dedicated page-walk cache of that
	// many PTE lines in front of the walker's memory path — the design
	// of Power et al. that the paper's baseline replaces with the shared
	// L2 TLB (§3.1, a 14% win in their experiments). 0 disables it.
	PageWalkCacheEntries int
	// PageWalkCacheLatency is the walk-cache hit latency in cycles.
	PageWalkCacheLatency int

	// ---- Shared L2 cache / memory partitions ----

	L2CacheBytes   int
	L2CacheWays    int
	L2CacheLineSz  int
	L2CacheLatency int // cycles
	// L2CachePorts is the total L2 lookup throughput per cycle
	// (Table 1: 2 ports per memory partition).
	L2CachePorts    int
	MemoryPartitons int // number of memory partitions / DRAM channels

	// ---- DRAM ----

	DRAMBanksPerChannel int
	DRAMRowHitCycles    int // access latency on a row-buffer hit
	DRAMRowMissCycles   int // access latency on a row-buffer conflict
	// DRAMRowHitBusy / DRAMRowMissBusy are how long the bank is occupied
	// per access (column cycle vs full row cycle tRC). Occupancy is much
	// shorter than the load-to-use latency: banks pipeline requests.
	DRAMRowHitBusy  int
	DRAMRowMissBusy int
	DRAMRowBytes    int // row-buffer size per bank
	DRAMBusCycles   int // data-burst occupancy per access
	// DRAMBulkCopyCycles is the latency of one RowClone/LISA-style
	// in-DRAM base-page copy (80 ns in the paper).
	DRAMBulkCopyCycles int
	// TotalDRAMBytes is the physical GPU memory capacity.
	TotalDRAMBytes uint64

	// ---- System I/O (PCIe) bus / demand paging ----

	// IOBusEnabled turns demand paging on. When false every page is
	// resident up front ("no demand paging overhead" configurations).
	IOBusEnabled bool
	// IOBaseFaultCycles is the load-to-use latency of a 4KB far-fault
	// (fault handling + transfer). Default: 55 us at 1020 MHz, the
	// paper's GTX 1080 measurement.
	IOBaseFaultCycles uint64
	// IOLargeFaultCycles is the load-to-use latency of a 2MB far-fault.
	// Default: 318 us at 1020 MHz.
	IOLargeFaultCycles uint64
	// IOBaseOccupancyCycles is how long a 4KB transfer occupies the bus
	// (PCIe 3.0 x16 bandwidth); faults pipeline behind this, not behind
	// the full load-to-use latency. Default: ~0.34 us.
	IOBaseOccupancyCycles uint64
	// IOLargeOccupancyCycles is the bus occupancy of a 2MB transfer.
	// Default: ~175 us.
	IOLargeOccupancyCycles uint64
	// MaxResidentPages bounds how many 4KB base pages may be resident in
	// GPU memory at once. 0 (the default) means unbounded: pages fault in
	// on first touch and never leave, which is the paper's in-memory
	// regime. A nonzero budget turns on oversubscription: faults and
	// allocations beyond the budget evict victims to a host/CXL remote
	// tier over the I/O bus, and evicted pages fault back in at bus
	// latency. Must cover at least one 2MB frame (512 base pages) and
	// requires IOBusEnabled.
	MaxResidentPages uint64

	// ---- Mosaic policy knobs ----

	// CACOccupancyThreshold: when the fraction of still-allocated base
	// pages in a coalesced frame drops below this after a deallocation,
	// CAC splinters and compacts the frame.
	CACOccupancyThreshold float64
	// CACUseBulkCopy selects the CAC-BC variant (in-DRAM bulk copy for
	// compaction migrations).
	CACUseBulkCopy bool

	// ---- Workload scaling ----

	// WorkloadScale divides the paper's application working-set sizes so
	// the suite runs in reasonable wall-clock time. TLB sizes are NOT
	// scaled; see DESIGN.md §1. A scale of 1 uses paper-size working sets.
	WorkloadScale int
	// MaxWarpInstructions caps per-warp instruction counts; 0 = app default.
	MaxWarpInstructions int
	// MaxCycles is a safety stop for a single simulation run.
	MaxCycles uint64
}

// Default returns the Table-1 configuration of the paper.
func Default() Config {
	const clockMHz = 1020
	return Config{
		NumSMs:       30,
		CoreClockMHz: clockMHz,
		WarpsPerSM:   48,
		WarpWidth:    32,

		L1CacheBytes:   16 << 10,
		L1CacheWays:    4,
		L1CacheLineSz:  128,
		L1CacheLatency: 1,

		L1TLBBaseEntries:  128,
		L1TLBLargeEntries: 16,
		L1TLBLatency:      1,

		L2TLBBaseEntries:  512,
		L2TLBLargeEntries: 256,
		L2TLBBaseWays:     16,
		L2TLBLatency:      10,
		L2TLBPorts:        2,

		WalkerConcurrency:    64,
		PageTableLevels:      4,
		PageWalkCacheEntries: 0, // baseline uses the shared L2 TLB instead
		PageWalkCacheLatency: 2,

		L2CacheBytes:    2 << 20,
		L2CacheWays:     16,
		L2CacheLineSz:   128,
		L2CacheLatency:  10,
		L2CachePorts:    12,
		MemoryPartitons: 6,

		DRAMBanksPerChannel: 8,
		DRAMRowHitCycles:    100,
		DRAMRowMissCycles:   200,
		DRAMRowHitBusy:      4,
		DRAMRowMissBusy:     40,
		DRAMRowBytes:        2 << 10,
		DRAMBusCycles:       4,
		DRAMBulkCopyCycles:  microsToCycles(0.08, clockMHz), // 80 ns
		TotalDRAMBytes:      3 << 30,

		IOBusEnabled:           true,
		IOBaseFaultCycles:      uint64(microsToCycles(55, clockMHz)),
		IOLargeFaultCycles:     uint64(microsToCycles(318, clockMHz)),
		IOBaseOccupancyCycles:  uint64(microsToCycles(0.34, clockMHz)),
		IOLargeOccupancyCycles: uint64(microsToCycles(175, clockMHz)),

		CACOccupancyThreshold: 0.5,
		CACUseBulkCopy:        false,

		WorkloadScale:       16,
		MaxWarpInstructions: 0,
		MaxCycles:           40_000_000,
	}
}

// FastTest returns a configuration small enough for unit and integration
// tests: fewer SMs and warps, shrunken working sets, shortened I/O
// latencies. TLB geometry stays at paper values so reach effects survive.
func FastTest() Config {
	c := Default()
	c.NumSMs = 6
	c.WarpsPerSM = 8
	c.WorkloadScale = 256
	c.IOBaseFaultCycles /= 16
	c.IOLargeFaultCycles /= 16
	c.IOBaseOccupancyCycles /= 16
	if c.IOBaseOccupancyCycles == 0 {
		c.IOBaseOccupancyCycles = 1
	}
	c.IOLargeOccupancyCycles /= 16
	c.MaxCycles = 4_000_000
	return c
}

// Eval returns the configuration the experiment harness uses by default:
// full Table-1 TLB/cache/DRAM geometry and all 30 SMs, but fewer warps and
// capped per-warp instruction counts so the whole evaluation suite runs in
// minutes. I/O latencies scale with the working sets so the fault-to-
// compute ratio matches the paper's.
func Eval() Config {
	c := Default()
	c.WorkloadScale = 4
	c.MaxWarpInstructions = 256
	c.IOBaseFaultCycles /= 8
	c.IOLargeFaultCycles /= 8
	c.IOBaseOccupancyCycles /= 8
	if c.IOBaseOccupancyCycles == 0 {
		c.IOBaseOccupancyCycles = 1
	}
	c.IOLargeOccupancyCycles /= 8
	c.MaxCycles = 80_000_000
	return c
}

func microsToCycles(us float64, clockMHz int) int {
	return int(us * float64(clockMHz))
}

// MicrosToCycles converts a microsecond latency to core cycles under this
// configuration's clock.
func (c Config) MicrosToCycles(us float64) uint64 {
	return uint64(microsToCycles(us, c.CoreClockMHz))
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.CoreClockMHz <= 0:
		return errors.New("config: CoreClockMHz must be positive")
	case c.WarpsPerSM <= 0:
		return errors.New("config: WarpsPerSM must be positive")
	case c.WarpWidth <= 0:
		return errors.New("config: WarpWidth must be positive")
	case c.L1TLBBaseEntries <= 0 || c.L1TLBLargeEntries <= 0:
		return errors.New("config: L1 TLB entry counts must be positive")
	case c.L2TLBBaseEntries <= 0 || c.L2TLBLargeEntries <= 0:
		return errors.New("config: L2 TLB entry counts must be positive")
	case c.L2TLBBaseWays <= 0 || c.L2TLBBaseEntries%c.L2TLBBaseWays != 0:
		return fmt.Errorf("config: L2 TLB base entries (%d) must divide evenly into %d ways",
			c.L2TLBBaseEntries, c.L2TLBBaseWays)
	case c.WalkerConcurrency <= 0:
		return errors.New("config: WalkerConcurrency must be positive")
	case c.PageTableLevels != 4:
		return errors.New("config: only 4-level page tables are supported")
	case c.PageWalkCacheEntries < 0 || (c.PageWalkCacheEntries > 0 && c.PageWalkCacheLatency <= 0):
		return errors.New("config: page-walk cache needs a positive latency")
	case c.PageWalkCacheEntries > 0 && !isPow2(c.PageWalkCacheEntries/c.PageWalkCacheWays()):
		return errors.New("config: page-walk cache entries must make a power-of-two number of sets")
	case !cacheBuilds(c.L1CacheBytes, c.L1CacheLineSz, c.L1CacheWays):
		return errors.New("config: L1 cache needs positive sizes, bytes dividing into ways*lines, and power-of-two line size and set count")
	case !cacheBuilds(c.L2CacheBytes, c.L2CacheLineSz, c.L2CacheWays):
		return errors.New("config: L2 cache needs positive sizes, bytes dividing into ways*lines, and power-of-two line size and set count")
	case c.L2CachePorts <= 0:
		return errors.New("config: L2CachePorts must be positive")
	case c.MemoryPartitons <= 0:
		return errors.New("config: MemoryPartitons must be positive")
	case c.DRAMBanksPerChannel <= 0:
		return errors.New("config: DRAMBanksPerChannel must be positive")
	case c.DRAMRowHitCycles <= 0 || c.DRAMRowMissCycles < c.DRAMRowHitCycles:
		return errors.New("config: DRAM row timings invalid (miss must be >= hit > 0)")
	case c.DRAMRowHitBusy <= 0 || c.DRAMRowMissBusy < c.DRAMRowHitBusy:
		return errors.New("config: DRAM bank occupancies invalid (miss must be >= hit > 0)")
	case c.DRAMRowHitBusy > c.DRAMRowHitCycles || c.DRAMRowMissBusy > c.DRAMRowMissCycles:
		return errors.New("config: DRAM bank occupancy cannot exceed access latency")
	case c.TotalDRAMBytes == 0:
		return errors.New("config: TotalDRAMBytes must be positive")
	case c.IOBusEnabled && (c.IOBaseFaultCycles == 0 || c.IOLargeFaultCycles == 0):
		return errors.New("config: I/O fault load-to-use latencies must be positive")
	case c.IOBusEnabled && (c.IOBaseOccupancyCycles == 0 || c.IOLargeOccupancyCycles == 0):
		return errors.New("config: I/O bus occupancies must be positive")
	case c.IOBusEnabled && (c.IOBaseOccupancyCycles > c.IOBaseFaultCycles ||
		c.IOLargeOccupancyCycles > c.IOLargeFaultCycles):
		return errors.New("config: I/O bus occupancy cannot exceed load-to-use latency")
	case c.MaxResidentPages != 0 && c.MaxResidentPages < BasePagesPerLargeFrame:
		return fmt.Errorf("config: MaxResidentPages (%d) must cover at least one 2MB frame (%d base pages)",
			c.MaxResidentPages, BasePagesPerLargeFrame)
	case c.MaxResidentPages != 0 && !c.IOBusEnabled:
		return errors.New("config: MaxResidentPages requires IOBusEnabled (the remote tier lives across the I/O bus)")
	case c.CACOccupancyThreshold < 0 || c.CACOccupancyThreshold > 1:
		return errors.New("config: CACOccupancyThreshold must be in [0,1]")
	case c.WorkloadScale <= 0:
		return errors.New("config: WorkloadScale must be positive")
	case c.MaxCycles == 0:
		return errors.New("config: MaxCycles must be positive")
	}
	return c.validateCeilings()
}

// cacheBuilds reports whether the cache model can build a geometry: the
// bytes divide into ways of whole lines, and the line size and the set
// count are powers of two.
func cacheBuilds(bytes, line, ways int) bool {
	return bytes > 0 && isPow2(line) && ways > 0 && bytes%line == 0 &&
		bytes/line%ways == 0 && isPow2(bytes/line/ways)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// PageWalkCacheWays is the page-walk cache's associativity (one L2-sized
// line per entry): four ways when the entries divide into them, else one.
func (c Config) PageWalkCacheWays() int {
	if c.PageWalkCacheEntries < 4 || c.PageWalkCacheEntries%4 != 0 {
		return 1
	}
	return 4
}

// validateCeilings rejects sizes above the ceilings. Validate calls it
// after the geometry checks, so every divisor here is positive.
func (c Config) validateCeilings() error {
	for _, b := range []struct {
		name       string
		value, max uint64
	}{
		{"NumSMs", uint64(c.NumSMs), MaxSMs},
		{"WarpsPerSM", uint64(c.WarpsPerSM), MaxWarpsPerSM},
		{"L1TLBBaseEntries", uint64(c.L1TLBBaseEntries), MaxL1TLBEntries},
		{"L1TLBLargeEntries", uint64(c.L1TLBLargeEntries), MaxL1TLBEntries},
		{"L2TLBBaseEntries", uint64(c.L2TLBBaseEntries), MaxL2TLBEntries},
		{"L2TLBLargeEntries", uint64(c.L2TLBLargeEntries), MaxL2TLBEntries},
		{"PageWalkCacheEntries", uint64(c.PageWalkCacheEntries), MaxPageWalkCacheEntries},
		{"L1 cache lines", uint64(c.L1CacheBytes / c.L1CacheLineSz), MaxL1CacheLines},
		{"L2 cache lines", uint64(c.L2CacheBytes / c.L2CacheLineSz), MaxL2CacheLines},
		{"L1CacheLineSz", uint64(c.L1CacheLineSz), MaxCacheLineBytes},
		{"L2CacheLineSz", uint64(c.L2CacheLineSz), MaxCacheLineBytes},
		{"MemoryPartitons", uint64(c.MemoryPartitons), MaxMemoryPartitions},
		{"DRAMBanksPerChannel", uint64(c.DRAMBanksPerChannel), MaxDRAMBanksPerChannel},
		{"TotalDRAMBytes", c.TotalDRAMBytes, MaxTotalDRAMBytes},
	} {
		if b.value > b.max {
			return fmt.Errorf("config: %s (%d) exceeds the ceiling %d", b.name, b.value, b.max)
		}
	}
	return nil
}

// WithoutDemandPaging returns a copy with the I/O bus disabled (every page
// resident up front), used by the "no demand paging overhead" experiments.
// A residency bound is meaningless without the bus, so it is cleared too.
func (c Config) WithoutDemandPaging() Config {
	c.IOBusEnabled = false
	c.MaxResidentPages = 0
	return c
}

// DigestString renders the configuration for hashing into result digests.
// It is the %+v form of the struct with zero-valued fields added after the
// digest scheme shipped stripped out, so that configurations which do not
// use a newer knob keep the digest they had before the knob existed.
// Fields listed here must never be repurposed.
func (c Config) DigestString() string {
	s := fmt.Sprintf("%+v", c)
	if c.MaxResidentPages == 0 {
		s = strings.Replace(s, " MaxResidentPages:0", "", 1)
	}
	return s
}

// ClampTLBWays shrinks TLB associativities that no longer fit their
// (possibly swept-down) entry counts. Sweep helpers call it after
// mutating entry counts so that a swept size below the default way count
// cannot violate the entries%ways == 0 set geometry. A non-divisible
// combination degrades to fully associative.
func (c *Config) ClampTLBWays() {
	if c.L2TLBBaseWays > c.L2TLBBaseEntries || c.L2TLBBaseEntries%c.L2TLBBaseWays != 0 {
		c.L2TLBBaseWays = c.L2TLBBaseEntries
	}
}
