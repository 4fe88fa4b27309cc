package harness

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunnerExecutesAllJobs(t *testing.T) {
	r := NewRunner(4)
	defer r.Close()
	var n int64
	for i := 0; i < 100; i++ {
		r.Submit(func() { atomic.AddInt64(&n, 1) })
	}
	r.Wait()
	if n != 100 {
		t.Fatalf("ran %d jobs, want 100", n)
	}
}

func TestRunnerPropagatesPanic(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	r.Submit(func() { panic("boom") })
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("Wait did not re-raise the job panic")
			}
		}()
		r.Wait()
	}()
	// The pool survives a panicked batch.
	var n int64
	r.Submit(func() { atomic.AddInt64(&n, 1) })
	r.Wait()
	if n != 1 {
		t.Error("runner unusable after a panicked job")
	}
}

// TestParallelDeterminism is the engine's core guarantee: structured
// results and rendered tables from a sequential harness and an
// 8-worker harness are identical.
func TestParallelDeterminism(t *testing.T) {
	h1 := tiny(t)
	h1.Jobs = 1
	h8 := tiny(t)
	h8.Jobs = 8

	r1 := h1.Fig8(1, 2)
	r8 := h8.Fig8(1, 2)
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("Fig8 results differ between Jobs=1 and Jobs=8:\n%+v\n%+v", r1, r8)
	}
	var b1, b8 strings.Builder
	if err := r1.Table.Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r8.Table.Render(&b8); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b8.String() {
		t.Errorf("Fig8 tables differ:\n%s\n---\n%s", b1.String(), b8.String())
	}

	s1h := tiny(t)
	s1h.Jobs = 1
	s1h.AppNames = []string{"NW"}
	s8h := tiny(t)
	s8h.Jobs = 8
	s8h.AppNames = []string{"NW"}
	s1 := s1h.Fig14L1(2, 16, 128)
	s8 := s8h.Fig14L1(2, 16, 128)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("Fig14L1 results differ between Jobs=1 and Jobs=8:\n%+v\n%+v", s1, s8)
	}
}

// TestOversubDeterminism extends the Jobs=1 vs Jobs=8 guarantee to the
// oversubscription figure, whose runs mutate the residency budget per
// cell and exercise the demand-paging path.
func TestOversubDeterminism(t *testing.T) {
	o1 := tiny(t)
	o1.Jobs = 1
	o8 := tiny(t)
	o8.Jobs = 8
	r1 := o1.Oversub(2)
	r8 := o8.Oversub(2)
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("Oversub results differ between Jobs=1 and Jobs=8:\n%+v\n%+v", r1, r8)
	}
}

// aloneKeys returns the memo's alone-run keys.
func aloneKeys(h *Harness) []cellKey {
	var out []cellKey
	for k := range h.memo {
		if strings.HasPrefix(k.workload, "alone-") {
			out = append(out, k)
		}
	}
	return out
}

// TestAloneCacheDistinguishesMutatedConfigs is the regression test for
// the old (app, sms, paging) cache key: alone runs on two different
// configurations get two memo entries, not one stale alone IPC.
func TestAloneCacheDistinguishesMutatedConfigs(t *testing.T) {
	h := tiny(t)
	wl := h.homogeneous(2)[0]
	walk1 := h.Cfg
	walk1.WalkerConcurrency = 1
	var p plan
	p.addWS(h.cell(wl, h.Cfg, core.GPUMMU4K), h.Cfg)
	p.addWS(h.cell(wl, h.Cfg, core.GPUMMU4K), walk1)
	h.execute(p)
	if n := len(aloneKeys(h)); n != 2 {
		t.Fatalf("memo has %d alone runs; different configs must not share an alone IPC", n)
	}
	// The same config again hits the memo instead of adding an entry.
	var again plan
	again.addWS(h.cell(wl, h.Cfg, core.GPUMMU4K), walk1)
	h.execute(again)
	if n := len(aloneKeys(h)); n != 2 {
		t.Errorf("repeat lookup grew the memo to %d alone runs", n)
	}
}

// TestWeightedSpeedupUsesMutatedSMCount checks that the per-application
// SM share behind IPC_alone comes from the mutated configuration, not
// the harness base config.
func TestWeightedSpeedupUsesMutatedSMCount(t *testing.T) {
	h := tiny(t) // FastTest base: 6 SMs
	spec, err := workload.ByName("CONS")
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Workload{Name: "2xCONS", Apps: []workload.Spec{spec, spec}}
	cfg := h.Cfg
	cfg.NumSMs = 2
	var p plan
	p.addWS(h.cell(wl, cfg, core.GPUMMU4K), cfg)
	h.execute(p)

	alone := func(sms int) cellKey {
		c := cfg
		c.NumSMs = sms
		opt := sim.Options{Policy: core.GPUMMU4K, Seed: h.Seed}
		return cellKey{"alone-CONS", core.GPUMMU4K, sim.Digest(c, opt)}
	}
	// The alone runs must use 2/2 = 1 SM of the mutated config...
	if _, ok := h.memo[alone(1)]; !ok {
		t.Error("alone run not keyed by the mutated config's SM share")
	}
	// ...not 6/2 = 3 SMs derived from the un-mutated base config.
	if _, ok := h.memo[alone(3)]; ok {
		t.Error("alone run derived its SM share from the un-mutated base config")
	}
}

// TestSweepClampsWaysBelowDefault sweeps an L2 base size below the
// default 16-way associativity; without clamping this panics on TLB
// geometry validation.
func TestSweepClampsWaysBelowDefault(t *testing.T) {
	h := tiny(t)
	h.AppNames = []string{"NW"}
	r := h.Fig14L2(1, 8)
	if len(r.Mosaic) != 1 || r.Mosaic[0] <= 0 {
		t.Fatalf("clamped sweep produced no result: %+v", r)
	}
}
