package workload

import (
	"testing"

	"repro/internal/config"
)

// drain returns every offset g still produces, lane by lane.
func drain(g *StreamGen) []uint64 {
	var out []uint64
	buf := make([]uint64, 8)
	for n := g.Next(buf); n > 0; n = g.Next(buf) {
		out = append(out, buf[:n]...)
	}
	return out
}

// TestCloneContinuesRandomStreams: a clone of a RandomAccess (GUPS) or
// Gather (HISTO) stream taken before any draw, or after k instructions,
// produces exactly the offsets the original goes on to produce.
func TestCloneContinuesRandomStreams(t *testing.T) {
	cfg := config.FastTest()
	for _, name := range []string{"GUPS", "HISTO"} {
		for _, k := range []int{0, 1, 7, 100} {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := s.NewStream(cfg, 5, 32, 99)
			buf := make([]uint64, 8)
			for i := 0; i < k; i++ {
				g.Next(buf)
			}
			if k == 0 && g.rng != nil {
				t.Fatalf("%s: stream built a source before its first draw", name)
			}
			c := g.Clone()
			if k == 0 && c.rng != nil {
				t.Fatalf("%s: clone of an undrawn stream built a source", name)
			}
			want, got := drain(g), drain(c)
			if len(want) == 0 || len(want) != len(got) {
				t.Fatalf("%s after %d: clone produced %d offsets, original %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s after %d: offset %d = %d, original %d", name, k, i, got[i], want[i])
				}
			}
			if g.rngDraws == 0 {
				t.Fatalf("%s: stream never drew a random number", name)
			}
		}
	}
}

// TestStridedStreamNeverSeeds: a pattern that draws no random numbers
// (Strided, as NW and HS are) runs to exhaustion, and forks, without
// ever building a pseudo-random source.
func TestStridedStreamNeverSeeds(t *testing.T) {
	s, err := ByName("NW")
	if err != nil {
		t.Fatal(err)
	}
	g := s.NewStream(config.FastTest(), 2, 8, 1)
	buf := make([]uint64, 8)
	g.Next(buf)
	c := g.Clone()
	if len(drain(g)) == 0 || len(drain(c)) == 0 {
		t.Fatal("strided stream produced no offsets")
	}
	if g.rng != nil || c.rng != nil || g.rngDraws != 0 {
		t.Fatalf("strided stream built a source (draws %d)", g.rngDraws)
	}
}
