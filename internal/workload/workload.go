// Package workload models the 27 GPGPU applications the paper evaluates
// (drawn from Parboil, SHOC, LULESH, Rodinia and the CUDA SDK) as
// parameterized synthetic memory-access generators, and composes them into
// the homogeneous and heterogeneous multi-application workloads of §5.
//
// Each application is characterized by the properties that drive the
// paper's results: working-set size (10–362MB before scaling), spatial
// locality pattern, compute-to-memory ratio, and access divergence. The
// paper's qualitative classes survive scaling because TLB reach is held at
// Table-1 values while working sets shrink uniformly.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/config"
	"repro/internal/vmem"
)

// Pattern is the qualitative spatial-locality class of an application.
type Pattern int

const (
	// Stream walks memory sequentially at cache-line granularity
	// (high spatial locality, TLB-friendly).
	Stream Pattern = iota
	// Strided jumps a fixed number of pages between accesses
	// (low TLB locality, the TLB-sensitive class).
	Strided
	// RandomAccess touches uniformly random pages (TLB and cache
	// thrashing; GUPS-like).
	RandomAccess
	// Stencil is mostly sequential with near-neighbor re-reads.
	Stencil
	// Gather reads randomly within a hot subset of the working set.
	Gather
	// CyclicSweep walks the working set page by page and wraps around,
	// endlessly re-touching pages in strict cyclic order. Under a bounded
	// residency budget this is the LRU adversary: by the time the sweep
	// returns to a page it is always the least recently used and already
	// evicted, so every pass refaults the whole footprint.
	CyclicSweep
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case RandomAccess:
		return "random"
	case Stencil:
		return "stencil"
	case Gather:
		return "gather"
	case CyclicSweep:
		return "sweep"
	}
	return "unknown"
}

// Spec describes one application model.
type Spec struct {
	Name string
	// WorkingSetBytes is the unscaled (paper-sized) footprint.
	WorkingSetBytes uint64
	// Pattern is the access-locality class.
	Pattern Pattern
	// StridePages applies to Strided (pages skipped between accesses).
	StridePages int
	// ComputePerMem is the number of 1-cycle compute instructions issued
	// between memory instructions.
	ComputePerMem int
	// AccessesPerWarp is the number of memory instructions each warp
	// executes.
	AccessesPerWarp int
	// Divergence is the number of distinct cache lines one memory
	// instruction touches (SIMT lanes hitting different lines).
	Divergence int
	// HotFraction applies to Gather: the fraction of the working set
	// that is hot.
	HotFraction float64
	// PageRun is how many consecutive memory instructions touch the
	// same page (at successive cache lines) before the pattern jumps to
	// its next page. 0/1 means every instruction lands on a new page.
	// Real kernels touch several elements per page even when their page
	// stride is large.
	PageRun int

	// replay, when set (via ReplaySpec), overrides the synthetic pattern
	// with a recorded offset trace.
	replay []uint64
}

// TLBSensitive reports whether the app's pattern makes its performance
// dominated by TLB reach (used to label Fig. 10): page-strided and random
// patterns always are; gathers are when their hot set still spans many
// more pages than the TLBs cover.
func (s Spec) TLBSensitive() bool {
	switch s.Pattern {
	case Strided, RandomAccess, CyclicSweep:
		return true
	case Gather:
		return s.HotFraction <= 0.25
	}
	return false
}

// Suite returns the 27 application models, named after the benchmarks in
// the MAFIA/Mosaic evaluation. Working-set sizes span the paper's 10MB to
// 362MB range; patterns follow each benchmark's published character.
func Suite() []Spec {
	return []Spec{
		{Name: "3DS", WorkingSetBytes: 64 << 20, Pattern: Stencil, ComputePerMem: 6, AccessesPerWarp: 640, Divergence: 1},
		{Name: "BFS2", WorkingSetBytes: 96 << 20, Pattern: RandomAccess, ComputePerMem: 3, AccessesPerWarp: 512, Divergence: 2, PageRun: 2},
		{Name: "BLK", WorkingSetBytes: 48 << 20, Pattern: Stream, ComputePerMem: 10, AccessesPerWarp: 768, Divergence: 1},
		{Name: "CFD", WorkingSetBytes: 128 << 20, Pattern: Stencil, ComputePerMem: 5, AccessesPerWarp: 640, Divergence: 1},
		{Name: "CONS", WorkingSetBytes: 160 << 20, Pattern: Stream, ComputePerMem: 2, AccessesPerWarp: 1024, Divergence: 1},
		{Name: "FFT", WorkingSetBytes: 80 << 20, Pattern: Strided, StridePages: 4, ComputePerMem: 6, AccessesPerWarp: 640, Divergence: 1, PageRun: 8},
		{Name: "FWT", WorkingSetBytes: 64 << 20, Pattern: Strided, StridePages: 2, ComputePerMem: 4, AccessesPerWarp: 640, Divergence: 1, PageRun: 4},
		{Name: "GUPS", WorkingSetBytes: 256 << 20, Pattern: RandomAccess, ComputePerMem: 1, AccessesPerWarp: 512, Divergence: 4},
		{Name: "HISTO", WorkingSetBytes: 112 << 20, Pattern: Gather, HotFraction: 0.1, ComputePerMem: 3, AccessesPerWarp: 640, Divergence: 2, PageRun: 4},
		{Name: "HS", WorkingSetBytes: 72 << 20, Pattern: Strided, StridePages: 8, ComputePerMem: 4, AccessesPerWarp: 640, Divergence: 1, PageRun: 8},
		{Name: "JPEG", WorkingSetBytes: 40 << 20, Pattern: Stream, ComputePerMem: 8, AccessesPerWarp: 768, Divergence: 1},
		{Name: "LIB", WorkingSetBytes: 56 << 20, Pattern: Gather, HotFraction: 0.25, ComputePerMem: 5, AccessesPerWarp: 640, Divergence: 1, PageRun: 4},
		{Name: "LPS", WorkingSetBytes: 32 << 20, Pattern: Stencil, ComputePerMem: 6, AccessesPerWarp: 640, Divergence: 1},
		{Name: "LUD", WorkingSetBytes: 24 << 20, Pattern: Strided, StridePages: 2, ComputePerMem: 5, AccessesPerWarp: 512, Divergence: 1, PageRun: 4},
		{Name: "LUH", WorkingSetBytes: 362 << 20, Pattern: Stencil, ComputePerMem: 4, AccessesPerWarp: 768, Divergence: 2},
		{Name: "MM", WorkingSetBytes: 96 << 20, Pattern: Strided, StridePages: 16, ComputePerMem: 8, AccessesPerWarp: 768, Divergence: 1, PageRun: 8},
		{Name: "MUM", WorkingSetBytes: 144 << 20, Pattern: RandomAccess, ComputePerMem: 2, AccessesPerWarp: 512, Divergence: 2, PageRun: 2},
		{Name: "NN", WorkingSetBytes: 20 << 20, Pattern: Stream, ComputePerMem: 12, AccessesPerWarp: 768, Divergence: 1},
		{Name: "NW", WorkingSetBytes: 128 << 20, Pattern: Strided, StridePages: 32, ComputePerMem: 2, AccessesPerWarp: 512, Divergence: 1, PageRun: 4},
		{Name: "QTC", WorkingSetBytes: 88 << 20, Pattern: RandomAccess, ComputePerMem: 4, AccessesPerWarp: 512, Divergence: 2, PageRun: 2},
		{Name: "RAY", WorkingSetBytes: 48 << 20, Pattern: Gather, HotFraction: 0.2, ComputePerMem: 7, AccessesPerWarp: 640, Divergence: 2, PageRun: 4},
		{Name: "RED", WorkingSetBytes: 104 << 20, Pattern: Stream, ComputePerMem: 2, AccessesPerWarp: 1024, Divergence: 1},
		{Name: "SAD", WorkingSetBytes: 80 << 20, Pattern: Stencil, ComputePerMem: 5, AccessesPerWarp: 640, Divergence: 1},
		{Name: "SC", WorkingSetBytes: 36 << 20, Pattern: Gather, HotFraction: 0.3, ComputePerMem: 4, AccessesPerWarp: 640, Divergence: 1, PageRun: 4},
		{Name: "SCAN", WorkingSetBytes: 120 << 20, Pattern: Stream, ComputePerMem: 3, AccessesPerWarp: 1024, Divergence: 1},
		{Name: "SCP", WorkingSetBytes: 10 << 20, Pattern: Stream, ComputePerMem: 6, AccessesPerWarp: 768, Divergence: 1},
		{Name: "SRAD", WorkingSetBytes: 192 << 20, Pattern: Strided, StridePages: 4, ComputePerMem: 4, AccessesPerWarp: 640, Divergence: 1, PageRun: 8},
	}
}

// OversubSuite returns the demand-paging stress applications used by the
// oversubscription experiments. They live outside Suite() so the
// heterogeneous workload draws (which permute Suite() by index) are
// unchanged. All are residency-hostile: cyclic sweeps defeat LRU by
// construction, at footprints that put them well past typical budgets.
func OversubSuite() []Spec {
	return []Spec{
		{Name: "SWP-S", WorkingSetBytes: 48 << 20, Pattern: CyclicSweep, ComputePerMem: 4, AccessesPerWarp: 640, Divergence: 1, PageRun: 8},
		{Name: "SWP-L", WorkingSetBytes: 160 << 20, Pattern: CyclicSweep, ComputePerMem: 2, AccessesPerWarp: 768, Divergence: 1, PageRun: 4},
		{Name: "SWP-D", WorkingSetBytes: 96 << 20, Pattern: CyclicSweep, ComputePerMem: 3, AccessesPerWarp: 640, Divergence: 2, PageRun: 2},
	}
}

// ByName returns the spec with the given name from the main suite or the
// oversubscription suite.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range OversubSuite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q", name)
}

// ResidentBudget converts an oversubscription ratio into a residency bound
// for wl: the workload's total scaled footprint in base pages divided by
// ratio, floored at one 2MB frame (the minimum the config accepts) and
// saturated at math.MaxUint64 for ratios so small the quotient leaves
// uint64's range (Go leaves that conversion implementation-defined). A
// ratio of 2 means the combined working sets are twice GPU memory. Ratios
// <= 0 mean "unbounded" and return 0, the config's disabled value.
func ResidentBudget(cfg config.Config, wl Workload, ratio float64) uint64 {
	if ratio <= 0 {
		return 0
	}
	var pages uint64
	for _, s := range wl.Apps {
		pages += s.ScaledWorkingSet(cfg) / vmem.BasePageSize
	}
	quot := float64(pages) / ratio
	if quot >= math.MaxUint64 {
		return math.MaxUint64
	}
	return max(uint64(quot), vmem.BasePagesPerLarge)
}

// ScaledWorkingSet returns the working set under cfg's scaling knob,
// rounded up to a whole base page and at least one large page so aligned
// allocations remain possible.
func (s Spec) ScaledWorkingSet(cfg config.Config) uint64 {
	if s.IsReplay() {
		return s.WorkingSetBytes // trace offsets are absolute
	}
	ws := s.WorkingSetBytes / uint64(cfg.WorkloadScale)
	ws = vmem.AlignUp(ws, vmem.BasePageSize)
	if ws < vmem.LargePageSize {
		ws = vmem.LargePageSize
	}
	return ws
}

// StreamGen generates one warp's memory-access offsets deterministically.
// Offsets are within [0, ScaledWorkingSet); the simulator maps them onto
// the application's (possibly multi-buffer) virtual address layout.
type StreamGen struct {
	spec     Spec
	ws       uint64 // scaled working-set bytes
	sliceOff uint64 // this warp's starting offset (stream/stencil)
	pos      uint64
	// Strided pattern state: each warp loops over a private slice of
	// pages (sliceStart..sliceStart+slicePages), so warps never contend
	// on each other's pages — like the block-partitioned matrices real
	// strided kernels walk. TLB hostility comes from the per-SM and
	// GPU-wide page footprints exceeding TLB reach.
	slicePages uint64
	sliceStart uint64
	pagePos    uint64
	runLeft    int // remaining same-page accesses before the next jump
	runOff     uint64
	remaining  int
	// rng is built from rngSeed on the first draw, so streams whose
	// pattern never draws (stream, strided, stencil, sweep) never pay for
	// a source (about 5 KB each).
	rng *rand.Rand
	// rngSeed and rngDraws record how to reconstruct rng: the source seed
	// and how many Int63 values have been drawn. Clone replays the draw
	// count against a fresh source so a forked stream continues the exact
	// pseudo-random sequence the original would have produced.
	rngSeed  int64
	rngDraws uint64
	lineSize uint64

	// Replay state: position and stride within the recorded trace.
	replayPos    int
	replayStride int
}

// NewStream builds the access stream for one warp. warpIndex and
// warpCount slice the working set so warps collectively cover it, as
// GPGPU kernels do; seed makes the stream deterministic.
func (s Spec) NewStream(cfg config.Config, warpIndex, warpCount int, seed int64) *StreamGen {
	ws := s.ScaledWorkingSet(cfg)
	slice := ws / uint64(warpCount)
	slice = vmem.AlignDown(slice, 64)
	if slice == 0 {
		slice = 64
	}
	// Page-align each warp's start so warps sharing a page issue the same
	// line sequence (coalescing-friendly, as real blocked kernels are).
	sliceOff := vmem.AlignDown((uint64(warpIndex)*slice)%ws, vmem.BasePageSize)
	totalPages := ws / vmem.BasePageSize
	slicePages := totalPages / uint64(warpCount)
	// Floor the per-warp page footprint: when warps outnumber pages the
	// slices overlap instead of degenerating to single-page loops (a
	// warp with one page would be unrealistically TLB- and cache-local).
	minSlice := uint64(s.StridePages)*2 + 8
	if slicePages < minSlice {
		slicePages = minSlice
		if slicePages > totalPages {
			slicePages = totalPages
		}
	}
	if s.Pattern == CyclicSweep {
		// The sweep addresses pages via sliceStart directly; a byte-level
		// slice offset on top would shift every slice by its own width,
		// aliasing slices mod the working set and leaving half the pages
		// untouched.
		sliceOff = 0
	}
	rngSeed := seed ^ int64(warpIndex)*0x9E3779B9
	g := &StreamGen{
		spec:         s,
		ws:           ws,
		sliceOff:     sliceOff,
		slicePages:   slicePages,
		sliceStart:   (uint64(warpIndex) * totalPages / uint64(warpCount)) % totalPages,
		remaining:    s.AccessesPerWarp,
		rngSeed:      rngSeed,
		lineSize:     uint64(cfg.L1CacheLineSz),
		replayPos:    warpIndex,
		replayStride: warpCount,
	}
	return g
}

// randInt63 draws the next pseudo-random value, seeding the source on the
// first draw and counting draws so Clone can fast-forward a reconstructed
// source to the same position.
func (g *StreamGen) randInt63() int64 {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.rngSeed))
	}
	g.rngDraws++
	return g.rng.Int63()
}

// Clone returns an independent copy of the generator that will produce
// exactly the access stream the receiver would have produced from this
// point on. The Spec (including any replay trace) is shared read-only;
// all mutable state — position, run state, and the pseudo-random source,
// reconstructed from its seed and fast-forwarded by the recorded draw
// count — is private to the clone. A stream that has never drawn has no
// source yet, and neither has its clone.
func (g *StreamGen) Clone() *StreamGen {
	ng := *g
	if g.rng != nil {
		ng.rng = rand.New(rand.NewSource(g.rngSeed))
		for i := uint64(0); i < g.rngDraws; i++ {
			ng.rng.Int63()
		}
	}
	return &ng
}

// Remaining returns how many memory instructions the warp has left.
func (g *StreamGen) Remaining() int { return g.remaining }

// Spec returns the generating application model.
func (g *StreamGen) Spec() Spec { return g.spec }

// Next produces the working-set offsets of the warp's next memory
// instruction into buf (up to Divergence entries) and reports how many
// were written. It returns 0 when the warp's program is exhausted.
func (g *StreamGen) Next(buf []uint64) int {
	if g.remaining <= 0 {
		return 0
	}
	if g.spec.IsReplay() {
		return g.replayNext(buf)
	}
	g.remaining--
	n := g.spec.Divergence
	if n < 1 {
		n = 1
	}
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = (g.sliceOff + g.step(i)) % g.ws
	}
	return n
}

// step advances the warp's position and returns the offset of lane-group
// i's access within the working set.
func (g *StreamGen) step(i int) uint64 {
	switch g.spec.Pattern {
	case Stream:
		if i == 0 {
			g.pos += g.lineSize
		}
		return g.pos + uint64(i)*g.lineSize
	case Strided:
		if i == 0 && !g.continueRun() {
			// Jump StridePages forward within the warp's private slice,
			// drifting one page on wrap so successive passes touch fresh
			// pages (a column-major matrix sweep).
			g.pagePos += uint64(g.spec.StridePages)
			if g.pagePos >= g.slicePages {
				g.pagePos = g.pagePos%g.slicePages + 1
				if g.pagePos >= g.slicePages {
					g.pagePos = 0
				}
			}
		}
		page := g.sliceStart + g.pagePos
		return page*vmem.BasePageSize + g.runOff + uint64(i)*g.lineSize
	case RandomAccess:
		if i == 0 && !g.continueRun() {
			g.pos = uint64(g.randInt63()) % g.ws
		}
		return g.pos + g.runOff + uint64(i)*g.lineSize
	case Stencil:
		if i == 0 {
			g.pos += g.lineSize
		}
		if i%2 == 1 {
			// Neighbor row: one page away.
			return g.pos + vmem.BasePageSize
		}
		return g.pos
	case CyclicSweep:
		if i == 0 && !g.continueRun() {
			g.pagePos++
			if g.pagePos >= g.slicePages {
				g.pagePos = 0
			}
		}
		page := g.sliceStart + g.pagePos
		return page*vmem.BasePageSize + g.runOff + uint64(i)*g.lineSize
	case Gather:
		hot := uint64(float64(g.ws) * g.spec.HotFraction)
		hot = vmem.AlignUp(hot, g.lineSize)
		if hot == 0 {
			hot = g.lineSize
		}
		if i == 0 && !g.continueRun() {
			g.pos = uint64(g.randInt63()) % hot
		}
		return g.pos + g.runOff + uint64(i)*g.lineSize
	}
	return 0
}

// continueRun advances the intra-page run state and reports whether the
// current memory instruction stays on the current page.
func (g *StreamGen) continueRun() bool {
	if g.spec.PageRun <= 1 {
		return false
	}
	if g.runLeft > 0 {
		g.runLeft--
		g.runOff += g.lineSize
		if g.runOff >= vmem.BasePageSize {
			g.runOff = 0
		}
		return true
	}
	g.runLeft = g.spec.PageRun - 1
	g.runOff = 0
	return false
}

// Workload is a set of applications to run concurrently.
type Workload struct {
	Name string
	Apps []Spec
}

// Homogeneous builds the paper's homogeneous workloads: n copies of each
// suite application (27 workloads per concurrency level).
func Homogeneous(n int) []Workload {
	var out []Workload
	for _, s := range Suite() {
		apps := make([]Spec, n)
		for i := range apps {
			apps[i] = s
		}
		out = append(out, Workload{Name: fmt.Sprintf("%dx%s", n, s.Name), Apps: apps})
	}
	return out
}

// Heterogeneous builds `count` workloads of n distinct randomly chosen
// applications each, deterministically from seed (25 per level in §5).
func Heterogeneous(n, count int, seed int64) []Workload {
	rng := rand.New(rand.NewSource(seed))
	suite := Suite()
	var out []Workload
	for w := 0; w < count; w++ {
		perm := rng.Perm(len(suite))
		apps := make([]Spec, n)
		name := ""
		for i := 0; i < n; i++ {
			apps[i] = suite[perm[i]]
			if i > 0 {
				name += "-"
			}
			name += apps[i].Name
		}
		out = append(out, Workload{Name: name, Apps: apps})
	}
	return out
}

// Pair builds a named two-application workload (Fig. 10).
func Pair(a, b string) (Workload, error) {
	sa, err := ByName(a)
	if err != nil {
		return Workload{}, err
	}
	sb, err := ByName(b)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: a + "-" + b, Apps: []Spec{sa, sb}}, nil
}
