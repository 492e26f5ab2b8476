//! The published names of the workloads and metrics. `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps the two in
//! step.

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "design-4x",
    "serve-replay",
    "sweep-perworker",
    "serve-restore",
];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_s", "s"),
    ("items_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("ingest.ms", "ms"),
    ("ingest.bytes", "bytes"),
    ("detect.ms", "ms"),
    ("detect.suspected", "count"),
    ("detect.communities", "count"),
    ("fit.ms", "ms"),
    ("fit.subproblems", "count"),
    ("fit.distinct_keys", "count"),
    ("solve.ms", "ms"),
    ("solve.us_per_subproblem", "us"),
    ("construct.ms", "ms"),
    ("construct.agents", "count"),
    ("simulate.ms", "ms"),
    ("simulate.ms_per_round", "ms"),
    ("engine.overhead_ms", "ms"),
    ("ingest.exp", "1"),
    ("detect.exp", "1"),
    ("fit.exp", "1"),
    ("solve.exp", "1"),
    ("construct.exp", "1"),
    ("simulate.exp", "1"),
    ("serve.parse_ms", "ms"),
    ("serve.apply_us.p50", "us"),
    ("serve.apply_us.p99", "us"),
    ("serve.round0_ms", "ms"),
    ("serve.round_ms.p50", "ms"),
    ("serve.round_ms.max", "ms"),
    ("serve.solve_resolved", "count"),
    ("serve.solve_reused", "count"),
    ("serve.incremental_base", "count"),
    ("serve.incremental_ratio", "ratio"),
    ("serve.fit_refits", "count"),
    ("serve.fit_reused", "count"),
    ("serve.dirty_workers", "count"),
    ("serve.dirty_products", "count"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.bytes.at25", "bytes"),
    ("ckpt.bytes.at50", "bytes"),
    ("ckpt.bytes.at75", "bytes"),
    ("ckpt.load_ms.at25", "ms"),
    ("ckpt.load_ms.at50", "ms"),
    ("ckpt.load_ms.at75", "ms"),
    ("restore.apply_ms.at75", "ms"),
    ("ckpt.load_exp", "1"),
    ("batch.memo.trace.hits", "count"),
    ("batch.memo.trace.misses", "count"),
    ("batch.memo.detect.hits", "count"),
    ("batch.memo.detect.misses", "count"),
    ("batch.memo.fit.hits", "count"),
    ("batch.memo.fit.misses", "count"),
    ("batch.memo.solve.hits", "count"),
    ("batch.memo.solve.misses", "count"),
    ("batch.scenario_ms.p50", "ms"),
    ("batch.scenario_ms.max", "ms"),
    ("batch.pool_busy", "ratio"),
    ("tracing_overhead_pct", "%"),
];
