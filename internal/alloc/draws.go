package alloc

import (
	"math/bits"
	"math/rand"

	"repro/internal/vmem"
)

// The lags of math/rand's source (rand.NewSource): an additive lagged
// Fibonacci generator whose output n is output n-rngLen plus output
// n-rngTap, mod 2^64.
const (
	rngLen = 607
	rngTap = 273
)

// drawStream yields exactly the outputs a math/rand source would yield
// next, without the interface call rand.Rand makes per draw. It starts
// from rngLen consecutive outputs taken from the source, so it needs
// neither the source's seeding nor its table of cooked values: every
// later output follows from the recurrence.
type drawStream struct {
	vec [rngLen]uint64 // the current block of outputs, in order
	pos int            // index in vec of the next output to hand out
}

// newDrawStream takes the next rngLen outputs of rng. The stream hands
// those out first, then continues the recurrence; rng itself must not
// be used for draws that matter afterwards.
func newDrawStream(rng *rand.Rand) *drawStream {
	s := &drawStream{}
	for i := range s.vec {
		s.vec[i] = rng.Uint64()
	}
	return s
}

// uint64 returns the next output of the source.
func (s *drawStream) uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// refill replaces the block with the next rngLen outputs. Output k of
// the new block is output k of the old one plus output k+334 of the old
// one (k < 273) or output k-273 of the new one (k >= 273).
func (s *drawStream) refill() {
	v := &s.vec
	for k := 0; k < rngTap; k++ {
		v[k] += v[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		v[k] += v[k-rngTap]
	}
	s.pos = 0
}

// int31 is rand.Rand.Int31: the top 31 bits of the source's 63-bit
// Int63.
func (s *drawStream) int31() int32 { return int32(s.uint64() << 1 >> 33) }

// int31n is rand.Rand.Int31n, rejection loop included, for n > 0. For
// n up to 512 the rejection bound and the remainder come from modTable,
// with the same results.
func (s *drawStream) int31n(n int32) int32 {
	if n <= vmem.BasePagesPerLarge {
		m := &modTable[n]
		v := s.int31()
		for v > m.max {
			v = s.int31()
		}
		hi, _ := bits.Mul64(m.recip*uint64(v), uint64(n))
		return int32(hi)
	}
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// modConst holds, for one divisor n, rand.Rand.Int31n's rejection bound
// (none for a power of two, which Int31n masks) and ceil(2^64/n) mod
// 2^64, with which the high word of (ceil(2^64/n)*v mod 2^64) * n is
// v % n for every 32-bit v (Lemire, Kaser and Kurz, "Faster remainder
// by direct computation", 2019). For n = 1 the reciprocal wraps to 0,
// which still gives the remainder 0.
type modConst struct {
	max   int32
	recip uint64
}

// modTable holds the constants of every divisor from 1 to 512.
var modTable = func() (t [vmem.BasePagesPerLarge + 1]modConst) {
	for n := uint32(1); n <= vmem.BasePagesPerLarge; n++ {
		t[n] = modConst{max: (1 << 31) - 1, recip: ^uint64(0)/uint64(n) + 1}
		if n&(n-1) != 0 {
			t[n].max -= int32((1 << 31) % n)
		}
	}
	return t
}()

// permInto fills buf with the permutation rand.Rand.Perm(len(buf))
// would return, by the same inside-out shuffle and the same draws.
// len(buf) must not exceed 512. Each draw is int31n(i+1) written out,
// so the loop keeps the block position in a register; PreFragment makes
// 512 of them per frame.
func (s *drawStream) permInto(buf []uint16) {
	pos := s.pos
	for i := range buf {
		n := uint32(i + 1)
		m := &modTable[n]
		var v int32
		for {
			if pos == rngLen {
				s.refill()
				pos = 0
			}
			v = int32(s.vec[pos] << 1 >> 33)
			pos++
			if v <= m.max {
				break
			}
		}
		j, _ := bits.Mul64(m.recip*uint64(v), uint64(n))
		buf[i] = buf[j]
		buf[j] = uint16(i)
	}
	s.pos = pos
}
