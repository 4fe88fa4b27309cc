package workload

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/vmem"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 27 {
		t.Fatalf("suite has %d apps, want 27 (paper §5)", len(suite))
	}
	seen := map[string]bool{}
	var minWS, maxWS uint64 = ^uint64(0), 0
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate app name %q", s.Name)
		}
		seen[s.Name] = true
		if s.WorkingSetBytes < minWS {
			minWS = s.WorkingSetBytes
		}
		if s.WorkingSetBytes > maxWS {
			maxWS = s.WorkingSetBytes
		}
		if s.AccessesPerWarp <= 0 || s.ComputePerMem < 0 || s.Divergence < 1 {
			t.Errorf("%s: bad parameters %+v", s.Name, s)
		}
		if s.Pattern == Strided && s.StridePages <= 0 {
			t.Errorf("%s: strided app without stride", s.Name)
		}
		if s.Pattern == Gather && (s.HotFraction <= 0 || s.HotFraction > 1) {
			t.Errorf("%s: gather app with bad hot fraction", s.Name)
		}
	}
	// Paper: working sets range from 10MB to 362MB.
	if minWS != 10<<20 {
		t.Errorf("min working set = %dMB, want 10MB", minWS>>20)
	}
	if maxWS != 362<<20 {
		t.Errorf("max working set = %dMB, want 362MB", maxWS>>20)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("HS")
	if err != nil || s.Name != "HS" {
		t.Errorf("ByName(HS) = %+v, %v", s, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestScaledWorkingSet(t *testing.T) {
	cfg := config.Default() // scale 16
	s, _ := ByName("LUH")   // 362MB
	ws := s.ScaledWorkingSet(cfg)
	if ws != vmem.AlignUp(362<<20/16, vmem.BasePageSize) {
		t.Errorf("scaled WS = %d", ws)
	}
	// Tiny app never scales below one large page.
	tiny := Spec{WorkingSetBytes: 1 << 20}
	if tiny.ScaledWorkingSet(cfg) != vmem.LargePageSize {
		t.Error("scaled WS below one large page")
	}
}

func TestStreamDeterminism(t *testing.T) {
	cfg := config.FastTest()
	s, _ := ByName("BFS2")
	g1 := s.NewStream(cfg, 3, 16, 42)
	g2 := s.NewStream(cfg, 3, 16, 42)
	buf1 := make([]uint64, 8)
	buf2 := make([]uint64, 8)
	for i := 0; i < 100; i++ {
		n1 := g1.Next(buf1)
		n2 := g2.Next(buf2)
		if n1 != n2 {
			t.Fatalf("divergent counts at %d", i)
		}
		for j := 0; j < n1; j++ {
			if buf1[j] != buf2[j] {
				t.Fatalf("divergent addresses at instr %d lane %d", i, j)
			}
		}
	}
}

func TestStreamStaysInWorkingSet(t *testing.T) {
	cfg := config.FastTest()
	for _, s := range Suite() {
		ws := s.ScaledWorkingSet(cfg)
		g := s.NewStream(cfg, 0, 8, 7)
		buf := make([]uint64, 8)
		for {
			n := g.Next(buf)
			if n == 0 {
				break
			}
			for j := 0; j < n; j++ {
				if buf[j] >= ws {
					t.Fatalf("%s: offset %d outside working set %d", s.Name, buf[j], ws)
				}
			}
		}
	}
}

func TestStreamExhausts(t *testing.T) {
	cfg := config.FastTest()
	s, _ := ByName("SCP")
	g := s.NewStream(cfg, 0, 1, 1)
	buf := make([]uint64, 4)
	count := 0
	for g.Next(buf) > 0 {
		count++
	}
	if count != s.AccessesPerWarp {
		t.Errorf("stream yielded %d instrs, want %d", count, s.AccessesPerWarp)
	}
	if g.Next(buf) != 0 {
		t.Error("exhausted stream yielded more")
	}
	if g.Remaining() != 0 {
		t.Errorf("Remaining = %d", g.Remaining())
	}
}

func TestPatternCharacter(t *testing.T) {
	cfg := config.FastTest()
	buf := make([]uint64, 4)

	// Stream: consecutive accesses mostly within one page.
	str, _ := ByName("CONS")
	g := str.NewStream(cfg, 0, 1, 1)
	pageChanges := 0
	var lastPage uint64
	for i := 0; i < 200; i++ {
		g.Next(buf)
		p := buf[0] >> vmem.BasePageShift
		if i > 0 && p != lastPage {
			pageChanges++
		}
		lastPage = p
	}
	if pageChanges > 20 {
		t.Errorf("stream pattern changed pages %d/200 times", pageChanges)
	}

	// Strided: a page jump after every PageRun accesses.
	st, _ := ByName("NW")
	g2 := st.NewStream(cfg, 0, 1, 1)
	pageChanges = 0
	for i := 0; i < 200; i++ {
		g2.Next(buf)
		p := buf[0] >> vmem.BasePageShift
		if i > 0 && p != lastPage {
			pageChanges++
		}
		lastPage = p
	}
	want := 200 / st.PageRun
	if pageChanges < want-10 || pageChanges > want+10 {
		t.Errorf("strided pattern changed pages %d/200 times, want ~%d (PageRun %d)",
			pageChanges, want, st.PageRun)
	}
}

func TestTLBSensitiveClassification(t *testing.T) {
	hs, _ := ByName("HS")
	if !hs.TLBSensitive() {
		t.Error("HS (strided) should be TLB-sensitive")
	}
	cons, _ := ByName("CONS")
	if cons.TLBSensitive() {
		t.Error("CONS (stream) should not be TLB-sensitive")
	}
}

func TestHomogeneous(t *testing.T) {
	ws := Homogeneous(3)
	if len(ws) != 27 {
		t.Fatalf("%d homogeneous workloads, want 27", len(ws))
	}
	for _, w := range ws {
		if len(w.Apps) != 3 {
			t.Errorf("%s has %d apps", w.Name, len(w.Apps))
		}
		for _, a := range w.Apps {
			if a.Name != w.Apps[0].Name {
				t.Errorf("%s is not homogeneous", w.Name)
			}
		}
	}
}

func TestHeterogeneous(t *testing.T) {
	ws := Heterogeneous(4, 25, 1)
	if len(ws) != 25 {
		t.Fatalf("%d workloads, want 25", len(ws))
	}
	for _, w := range ws {
		if len(w.Apps) != 4 {
			t.Errorf("%s has %d apps", w.Name, len(w.Apps))
		}
		names := map[string]bool{}
		for _, a := range w.Apps {
			if names[a.Name] {
				t.Errorf("%s repeats %s", w.Name, a.Name)
			}
			names[a.Name] = true
		}
	}
	// Deterministic.
	ws2 := Heterogeneous(4, 25, 1)
	for i := range ws {
		if ws[i].Name != ws2[i].Name {
			t.Fatal("heterogeneous generation not deterministic")
		}
	}
	ws3 := Heterogeneous(4, 25, 2)
	same := true
	for i := range ws {
		if ws[i].Name != ws3[i].Name {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestOversubSuite(t *testing.T) {
	main := map[string]bool{}
	for _, s := range Suite() {
		main[s.Name] = true
	}
	for _, s := range OversubSuite() {
		if main[s.Name] {
			t.Errorf("%s collides with the main suite (would perturb Heterogeneous draws)", s.Name)
		}
		if s.Pattern != CyclicSweep {
			t.Errorf("%s: oversub suite app is not a cyclic sweep", s.Name)
		}
		if s.AccessesPerWarp <= 0 || s.Divergence < 1 {
			t.Errorf("%s: bad parameters %+v", s.Name, s)
		}
		got, err := ByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Errorf("ByName(%s) = %+v, %v", s.Name, got, err)
		}
	}
}

func TestCyclicSweepWrapsWorkingSet(t *testing.T) {
	cfg := config.FastTest()
	s, _ := ByName("SWP-S")
	ws := s.ScaledWorkingSet(cfg)
	// 64 warps give each a slice small enough that 640 accesses sweep it
	// several times over.
	g := s.NewStream(cfg, 0, 64, 1)
	buf := make([]uint64, 4)
	pages := map[uint64]int{}
	var prev uint64
	wrapped := false
	for i := 0; g.Next(buf) > 0; i++ {
		p := buf[0] >> vmem.BasePageShift
		if buf[0] >= ws {
			t.Fatalf("offset %d outside working set %d", buf[0], ws)
		}
		if i > 0 && p < prev {
			wrapped = true
		}
		pages[p]++
		prev = p
	}
	if !wrapped {
		t.Error("sweep never wrapped back to the start")
	}
	// Strict cyclic order revisits every page of the slice evenly.
	min, max := 1<<30, 0
	for _, n := range pages {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > s.PageRun {
		t.Errorf("uneven sweep: page touch counts range %d..%d", min, max)
	}
}

func TestResidentBudget(t *testing.T) {
	cfg := config.Default()
	wl, err := Pair("SWP-S", "SWP-D")
	if err != nil {
		t.Fatal(err)
	}
	var pages uint64
	for _, a := range wl.Apps {
		pages += a.ScaledWorkingSet(cfg) / vmem.BasePageSize
	}
	if got := ResidentBudget(cfg, wl, 2); got != pages/2 {
		t.Errorf("ResidentBudget(2x) = %d, want %d", got, pages/2)
	}
	if got := ResidentBudget(cfg, wl, 0); got != 0 {
		t.Errorf("ResidentBudget(0) = %d, want 0 (unbounded)", got)
	}
	if got := ResidentBudget(cfg, wl, -1); got != 0 {
		t.Errorf("ResidentBudget(-1) = %d, want 0 (unbounded)", got)
	}
	// Extreme ratios floor at one large frame so the config validates.
	if got := ResidentBudget(cfg, wl, 1e9); got != vmem.BasePagesPerLarge {
		t.Errorf("ResidentBudget(1e9) = %d, want floor %d", got, vmem.BasePagesPerLarge)
	}
	// A vanishing ratio saturates rather than overflowing the conversion.
	if got := ResidentBudget(cfg, wl, 1e-300); got != math.MaxUint64 {
		t.Errorf("ResidentBudget(1e-300) = %d, want saturation at %d", got, uint64(math.MaxUint64))
	}
	// The budget must satisfy config validation when installed.
	c := cfg
	c.MaxResidentPages = ResidentBudget(cfg, wl, 1.2)
	if err := c.Validate(); err != nil {
		t.Errorf("installed budget fails validation: %v", err)
	}
}

func TestPair(t *testing.T) {
	w, err := Pair("HS", "CONS")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "HS-CONS" || len(w.Apps) != 2 {
		t.Errorf("pair = %+v", w)
	}
	if _, err := Pair("HS", "NOPE"); err == nil {
		t.Error("bad pair accepted")
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[Pattern]string{
		Stream: "stream", Strided: "strided", RandomAccess: "random",
		Stencil: "stencil", Gather: "gather", CyclicSweep: "sweep",
		Pattern(99): "unknown",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}
