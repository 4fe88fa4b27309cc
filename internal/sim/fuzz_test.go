package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzConfigValidate varies the cache, page-walk cache and TLB geometry
// of config.FastTest and checks the contract between config.Validate and
// New: a configuration Validate accepts must build a simulator without a
// panic. It never runs the simulator, so each iteration stays cheap.
func FuzzConfigValidate(f *testing.F) {
	seed := func(mut func(*config.Config)) {
		c := config.FastTest()
		mut(&c)
		f.Add(c.L1CacheBytes, c.L1CacheLineSz, c.L1CacheWays,
			c.L2CacheBytes, c.L2CacheLineSz, c.L2CacheWays, c.PageWalkCacheEntries,
			c.L1TLBBaseEntries, c.L1TLBLargeEntries, c.L2TLBBaseEntries, c.L2TLBBaseWays, c.L2TLBLargeEntries)
	}
	seed(func(*config.Config) {})
	// Geometries that used to pass Validate and panic in New: a 12-entry
	// page-walk cache (3 sets of 4 ways), and L1/L2 caches of 3 sets.
	seed(func(c *config.Config) { c.PageWalkCacheEntries = 12 })
	seed(func(c *config.Config) { c.L1CacheBytes = 3 * c.L1CacheLineSz * c.L1CacheWays })
	seed(func(c *config.Config) { c.L2CacheBytes = 3 * c.L2CacheLineSz * c.L2CacheWays })

	spec, err := workload.ByName("HS")
	if err != nil {
		f.Fatal(err)
	}
	wl := workload.Workload{Name: "HS", Apps: []workload.Spec{spec}}
	f.Fuzz(func(t *testing.T, l1Bytes, l1Line, l1Ways, l2Bytes, l2Line, l2Ways, pwc,
		l1Base, l1Large, l2Base, l2BaseWays, l2Large int) {
		cfg := config.FastTest()
		cfg.L1CacheBytes, cfg.L1CacheLineSz, cfg.L1CacheWays = l1Bytes, l1Line, l1Ways
		cfg.L2CacheBytes, cfg.L2CacheLineSz, cfg.L2CacheWays = l2Bytes, l2Line, l2Ways
		cfg.PageWalkCacheEntries = pwc
		cfg.L1TLBBaseEntries, cfg.L1TLBLargeEntries = l1Base, l1Large
		cfg.L2TLBBaseEntries, cfg.L2TLBBaseWays, cfg.L2TLBLargeEntries = l2Base, l2BaseWays, l2Large
		if cfg.Validate() != nil {
			return
		}
		// A panic here fails the fuzz run; an error is a typed rejection.
		_, _ = New(cfg, wl, Options{Policy: core.Mosaic})
	})
}
