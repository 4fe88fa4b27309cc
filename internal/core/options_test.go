package core

import (
	"testing"

	"repro/internal/config"
)

// resolve is ResolveOptions for a policy the table must hold.
func resolve(t *testing.T, p Policy, cfg config.Config) Options {
	t.Helper()
	o, err := ResolveOptions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOptionsForPresets(t *testing.T) {
	cfg := config.Default()

	o := resolve(t, GPUMMU4K, cfg)
	if o.Allocator != AllocBaseline || o.Coalesce != CoalesceOff ||
		o.CAC != CACOff || o.Fault != FaultBase || o.Bypass {
		t.Errorf("GPU-MMU preset = %+v", o)
	}

	o = resolve(t, GPUMMU2M, cfg)
	if o.Allocator != AllocCoCoA || o.Coalesce != CoalesceInPlace ||
		o.Fault != FaultLarge || o.Bypass {
		t.Errorf("GPU-MMU-2MB preset = %+v", o)
	}

	o = resolve(t, Mosaic, cfg)
	if o.Allocator != AllocCoCoA || o.Coalesce != CoalesceInPlace ||
		o.CAC != CACOn || o.Fault != FaultBase || o.Bypass {
		t.Errorf("Mosaic preset = %+v", o)
	}
	if o.CACThreshold != cfg.CACOccupancyThreshold {
		t.Errorf("Mosaic threshold = %f", o.CACThreshold)
	}

	o = resolve(t, IdealTLB, cfg)
	if !o.Bypass || o.Allocator != AllocCoCoA || o.Fault != FaultBase {
		t.Errorf("Ideal preset = %+v", o)
	}

	// FIFO-MMU runs Mosaic's options under its own id.
	o = resolve(t, FIFOMMU, cfg)
	mo := resolve(t, Mosaic, cfg)
	if o.Policy != FIFOMMU || mo.Policy != Mosaic {
		t.Errorf("stamped ids: FIFO-MMU %v, Mosaic %v", o.Policy, mo.Policy)
	}
	if o.Policy = Mosaic; o != mo {
		t.Errorf("FIFO-MMU preset = %+v, want Mosaic's %+v", o, mo)
	}

	// The bulk-copy config knob selects CAC-BC for Mosaic.
	cfg.CACUseBulkCopy = true
	if o := resolve(t, Mosaic, cfg); o.CAC != CACBulkCopy {
		t.Errorf("CACUseBulkCopy ignored: %+v", o)
	}
}
