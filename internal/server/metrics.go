package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// handleMetrics renders the service counters in the Prometheus text
// exposition format (gauges and counters only, no labels), so both
// humans with curl and standard scrapers can read queue pressure, cache
// effectiveness, and worker utilization.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	busy := s.busyWorkers.Load()
	util := float64(busy) / float64(s.workers)
	s.mu.Lock()
	cacheSize := len(s.cache)
	s.mu.Unlock()
	sc := s.store.Counters()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type metric struct {
		name, help, typ, val string
	}
	for _, m := range []metric{
		{"mosaicd_queue_depth", "Jobs accepted and waiting for a worker.", "gauge", strconv.Itoa(len(s.queue))},
		{"mosaicd_queue_capacity", "Bounded queue size; submissions beyond it get 429.", "gauge", strconv.Itoa(cap(s.queue))},
		{"mosaicd_workers", "Size of the simulation worker pool.", "gauge", strconv.Itoa(s.workers)},
		{"mosaicd_workers_busy", "Workers currently executing a simulation.", "gauge", strconv.FormatInt(busy, 10)},
		{"mosaicd_worker_utilization", "Busy workers / pool size, in [0, 1].", "gauge", formatFloat(util)},
		{"mosaicd_jobs_accepted_total", "Submissions enqueued as new jobs.", "counter", strconv.FormatUint(s.accepted.Load(), 10)},
		{"mosaicd_jobs_rejected_total", "Submissions rejected with 429 (queue full).", "counter", strconv.FormatUint(s.rejected.Load(), 10)},
		{"mosaicd_runs_completed_total", "Simulations finished successfully.", "counter", strconv.FormatUint(s.runsCompleted.Load(), 10)},
		{"mosaicd_runs_failed_total", "Simulations that errored, panicked, or hit their deadline.", "counter", strconv.FormatUint(s.runsFailed.Load(), 10)},
		{"mosaicd_runs_canceled_total", "Jobs canceled by request before completing.", "counter", strconv.FormatUint(s.runsCanceled.Load(), 10)},
		{"mosaicd_cache_hits_total", "Submissions served by an existing identical job.", "counter", strconv.FormatUint(hits, 10)},
		{"mosaicd_cache_misses_total", "Submissions that required a new simulation.", "counter", strconv.FormatUint(misses, 10)},
		{"mosaicd_cache_hit_rate", "Hits / (hits + misses), in [0, 1].", "gauge", formatFloat(hitRate)},
		{"mosaicd_cache_evictions_total", "Failed/canceled jobs evicted so retries run fresh.", "counter", strconv.FormatUint(s.cacheEvictions.Load(), 10)},
		{"mosaicd_cache_size", "Jobs currently in the in-memory result cache.", "gauge", strconv.Itoa(cacheSize)},
		{"mosaicd_cache_capacity", "Bound on cached done results (0 = unbounded).", "gauge", strconv.Itoa(s.cacheCap)},
		{"mosaicd_cache_lru_evictions_total", "Done results evicted by the LRU bound (still served from the store).", "counter", strconv.FormatUint(s.cacheLRUEvictions.Load(), 10)},
		{"mosaicd_store_serves_total", "Submissions answered from the persistent store without simulating.", "counter", strconv.FormatUint(s.storeServes.Load(), 10)},
		{"mosaicd_results_inline_total", "Submissions answered with the report inline (Prefer: return=representation).", "counter", strconv.FormatUint(s.resultsInline.Load(), 10)},
		{"mosaicd_store_put_errors_total", "Completed results that failed to persist to the store.", "counter", strconv.FormatUint(s.storePutErrors.Load(), 10)},
		{"mosaicd_store_gets_total", "Store lookups.", "counter", strconv.FormatUint(sc.Gets, 10)},
		{"mosaicd_store_hits_total", "Store lookups that returned a payload.", "counter", strconv.FormatUint(sc.Hits, 10)},
		{"mosaicd_store_puts_total", "Results persisted to the store.", "counter", strconv.FormatUint(sc.Puts, 10)},
		{"mosaicd_store_dup_puts_total", "Identical re-puts deduplicated by the store.", "counter", strconv.FormatUint(sc.DupPuts, 10)},
		{"mosaicd_store_quarantined_total", "Corrupt store entries quarantined instead of served.", "counter", strconv.FormatUint(sc.Quarantined, 10)},
		{"mosaicd_store_quarantine_pruned_total", "Quarantined files deleted by the per-shard retention bound.", "counter", strconv.FormatUint(sc.QuarantinePruned, 10)},
		{"mosaicd_campaigns_total", "Campaigns accepted.", "counter", strconv.FormatUint(s.campaignsTotal.Load(), 10)},
		{"mosaicd_campaigns_active", "Campaigns currently running.", "gauge", strconv.FormatInt(s.campaignsActive.Load(), 10)},
		{"mosaicd_campaign_cells_total", "Cells across all accepted campaigns.", "counter", strconv.FormatUint(s.campaignCells.Load(), 10)},
		{"mosaicd_campaign_cells_cached_total", "Campaign cells answered from the cache or store.", "counter", strconv.FormatUint(s.campaignCellsCached.Load(), 10)},
		{"mosaicd_campaign_cells_failed_total", "Campaign cells that ended failed.", "counter", strconv.FormatUint(s.campaignCellsFailed.Load(), 10)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.name, m.help, m.name, m.typ, m.name, m.val)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
