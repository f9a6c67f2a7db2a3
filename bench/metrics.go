package main

// metricDef names a metric as BENCHMARK.json does; bench_test.go holds the
// two lists to each other.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Timed ones are in
// nominal seconds (host.go); peak_rss_mb is the process's VmHWM when the last
// slice has ended. The bounds are wider than 10 % because between identical
// sets of runs solve_s spread up to 9 % (service_mix) and peak_rss_mb up to
// 5 % (README.md), and a benchmark whose own spread reaches its bound is
// refused. setup_s carries the widest bound: it is a few milliseconds, so a
// fixed timing error is a larger share of it.
var endToEnd = []metricDef{
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the single-layer metrics of the traced run, in the order the
// report prints them. Which end-to-end metric each should move, and on
// which workload, is tabulated in README.md.
var perLayer = []metricDef{
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_cv", Unit: "ratio", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "host.solve_wall_s", Unit: "s", Better: "lower"},
	{Name: "host.setup_wall_s", Unit: "s", Better: "lower"},

	{Name: "catalog.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "catalog.hash_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "catalog.bytes", Unit: "count", Better: "lower"},

	{Name: "kdtree.build_s", Unit: "s", Better: "lower"},
	{Name: "kdtree.build_mpts_per_s", Unit: "Mpts/s", Better: "higher"},
	{Name: "kdtree.query_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "kdtree.nbrs_per_query", Unit: "count", Better: "lower"},
	{Name: "grid.build_s", Unit: "s", Better: "lower"},
	{Name: "grid.query_ns_per_nbr", Unit: "ns", Better: "lower"},

	{Name: "sphharm.tile_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "sphharm.tile_gflops", Unit: "GF/s", Better: "higher"},
	{Name: "sphharm.flops_per_pair", Unit: "count", Better: "lower"},
	{Name: "sphharm.alm_ns_per_bin", Unit: "ns", Better: "lower"},
	{Name: "sphharm.zeta_batch_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "sphharm.zeta_iso_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "sphharm.reduce_ns", Unit: "ns", Better: "lower"},
	{Name: "sphharm.dispatch_vector", Unit: "count", Better: "higher"},

	{Name: "core.compute_s", Unit: "s", Better: "lower"},
	{Name: "core.mpairs_per_s", Unit: "Mpairs/s", Better: "higher"},
	{Name: "core.pairs", Unit: "count", Better: "lower"},
	{Name: "core.pairs_per_primary", Unit: "count", Better: "lower"},
	{Name: "core.share_build", Unit: "ratio", Better: "lower"},
	{Name: "core.share_gather", Unit: "ratio", Better: "lower"},
	{Name: "core.share_consume", Unit: "ratio", Better: "lower"},
	{Name: "core.share_almzeta", Unit: "ratio", Better: "lower"},
	{Name: "core.share_selfcount", Unit: "ratio", Better: "lower"},
	{Name: "core.share_other", Unit: "ratio", Better: "lower"},
	{Name: "core.share_engine", Unit: "ratio", Better: "higher"},
	{Name: "core.parallel_eff_w2", Unit: "ratio", Better: "higher"},
	{Name: "core.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.result_bytes", Unit: "count", Better: "lower"},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fingerprint_us", Unit: "us", Better: "lower"},

	{Name: "exec.overhead_s", Unit: "s", Better: "lower"},

	{Name: "partition.split_s", Unit: "s", Better: "lower"},
	{Name: "partition.halo_frac", Unit: "ratio", Better: "lower"},
	{Name: "shard.overhead_s", Unit: "s", Better: "lower"},
	{Name: "shard.halo_dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "shard.spill_bytes", Unit: "count", Better: "lower"},
	{Name: "shard.resume_s", Unit: "s", Better: "lower"},

	{Name: "journal.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.append_us_p95", Unit: "us", Better: "lower"},
	{Name: "journal.replay_ms_per_1k", Unit: "ms", Better: "lower"},
	{Name: "journal.bytes_per_record", Unit: "count", Better: "lower"},

	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.result_fetch_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "client.sse_events", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadWhy records why each workload exists (also in BENCHMARK.json).
var workloadWhy = map[string]string{
	"aniso_box":      "the paper's performance configuration: periodic box, full anisotropic ladder, ~1000 pairs per primary, so the sphharm kernels and ZetaBatch carry the run and kdtree almost nothing",
	"iso_survey":     "the science defaults the other way round: open boundaries, radial line of sight, isotropic-only ladder, self-count on, so a ladder gain that costs the iso or self-pair path shows",
	"stream_sharded": "sparse, large and out of core: a catalog file streamed through 8 checkpointed shards at ~40 pairs per primary, so kdtree, catalog and shard do their work here",
	"service_mix":    "one closed-loop client against galactosd over loopback: cold jobs beside cache hits on a durable state dir, so service, journal, result codec, disk cache and client carry the slice",
}

var workloadOrder = []string{"aniso_box", "iso_survey", "stream_sharded", "service_mix"}
