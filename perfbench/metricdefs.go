package main

// The metric names and units printed by the benchmark. BENCHMARK.json at
// the repository root lists the same names and units; a test keeps the
// two in step.

// e2eMetrics are the end-to-end metrics of an untraced run (-trace 0).
var e2eMetrics = []string{
	"setup_s", "peak_rss_mb", "minstr_per_s", "minstr_per_cpu_s", "sim_mcycles",
	"mosaic_speedup", "cold_cells_per_s", "hit_ms_p50", "hit_ms_p90", "store_ms_p50",
}

var e2eUnits = map[string]string{
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"minstr_per_s":     "Minstr/s",
	"minstr_per_cpu_s": "Minstr/CPU-s",
	"sim_mcycles":      "Mcycles",
	"mosaic_speedup":   "ratio",
	"cold_cells_per_s": "cells/s",
	"hit_ms_p50":       "ms",
	"hit_ms_p90":       "ms",
	"store_ms_p50":     "ms",
}

// layerMetrics are the per-layer metrics of a traced run (-trace 1),
// named <module>.<metric>.
var layerMetrics = []string{
	"sim.self_pct", "sim.ns_per_cycle", "sim.new_ms", "sim.run_ms_p50", "sim.warmup_ms", "sim.fork_ms",
	"event.self_pct",
	"tlb.self_pct", "tlb.l1_hit_rate", "tlb.l2_hit_rate", "tlb.lookups",
	"walker.walks", "walker.avg_cycles", "walker.coalesced", "walker.self_pct",
	"cache.self_pct", "pagetable.self_pct",
	"dram.accesses", "dram.row_hit_rate", "dram.bulk_copies", "dram.self_pct",
	"iobus.transfers", "iobus.write_backs", "iobus.busy_mcycles", "iobus.queue_delay_mcycles", "iobus.self_pct",
	"core.far_faults", "core.evictions", "core.write_backs", "core.refaults", "core.coalesces",
	"core.compactions", "core.migrated_pages", "core.stall_mcycles", "core.self_pct",
	"alloc.region_allocs", "alloc.base_allocs", "alloc.frees", "alloc.free_fallbacks", "alloc.self_pct",
	"workload.self_pct",
	"harness.parallel_eff",
	"metrics.record_us", "metrics.decode_us",
	"store.get_us_p50", "store.put_us_p50", "store.gets", "store.puts",
	"server.handle_us_p50.submit", "server.handle_us_p50.status", "server.handle_us_p50.result",
	"server.handle_us_p50.campaign_submit",
	"server.cache_hits", "server.store_serves", "server.runs_completed",
	"serviceclient.rtt_us",
	"runtime.gc_pct", "runtime.mallocs_per_kinstr",
	"trace.overhead_pct",
}

var layerUnits = map[string]string{
	"sim.self_pct": "%", "sim.ns_per_cycle": "ns/cycle", "sim.new_ms": "ms", "sim.run_ms_p50": "ms",
	"sim.warmup_ms": "ms", "sim.fork_ms": "ms",
	"event.self_pct": "%",
	"tlb.self_pct":   "%", "tlb.l1_hit_rate": "ratio", "tlb.l2_hit_rate": "ratio", "tlb.lookups": "count",
	"walker.walks": "count", "walker.avg_cycles": "cycles", "walker.coalesced": "count", "walker.self_pct": "%",
	"cache.self_pct": "%", "pagetable.self_pct": "%",
	"dram.accesses": "count", "dram.row_hit_rate": "ratio", "dram.bulk_copies": "count", "dram.self_pct": "%",
	"iobus.transfers": "count", "iobus.write_backs": "count", "iobus.busy_mcycles": "Mcycles",
	"iobus.queue_delay_mcycles": "Mcycles", "iobus.self_pct": "%",
	"core.far_faults": "count", "core.evictions": "count", "core.write_backs": "count", "core.refaults": "count",
	"core.coalesces": "count", "core.compactions": "count", "core.migrated_pages": "count",
	"core.stall_mcycles": "Mcycles", "core.self_pct": "%",
	"alloc.region_allocs": "count", "alloc.base_allocs": "count", "alloc.frees": "count",
	"alloc.free_fallbacks": "count", "alloc.self_pct": "%",
	"workload.self_pct":    "%",
	"harness.parallel_eff": "ratio",
	"metrics.record_us":    "us", "metrics.decode_us": "us",
	"store.get_us_p50": "us", "store.put_us_p50": "us", "store.gets": "count", "store.puts": "count",
	"server.handle_us_p50.submit": "us", "server.handle_us_p50.status": "us", "server.handle_us_p50.result": "us",
	"server.handle_us_p50.campaign_submit": "us",
	"server.cache_hits":                    "count", "server.store_serves": "count", "server.runs_completed": "count",
	"serviceclient.rtt_us": "us",
	"runtime.gc_pct":       "%", "runtime.mallocs_per_kinstr": "mallocs/kinstr",
	"trace.overhead_pct": "%",
}
