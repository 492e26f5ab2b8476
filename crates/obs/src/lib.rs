//! # dcc-obs — observability for the contract pipeline
//!
//! A lightweight, dependency-free tracing/metrics layer (std only):
//!
//! - **Spans** — named, attributed, monotonically timed intervals kept in
//!   a stack so nesting is recorded (`engine.run` → `stage` →
//!   `solve.subproblem`).
//! - **Counters** — monotone `u64` accumulators (`solve.degraded`, fault
//!   hits, …).
//! - **Gauges** — last-write-wins `f64` readings (`solve.pool`,
//!   `design.total_requester_utility`).
//! - **Histograms** — `count/sum/min/max` aggregates of `f64`
//!   observations (`solve.subproblem_us`).
//! - **Events** — untimed, attributed point records (`sim.round`,
//!   `design.degraded`).
//!
//! Everything funnels through the [`Recorder`] trait. Two
//! implementations ship: [`NoopRecorder`] (the default — every method is
//! an empty inline body, so an instrumented hot path costs one
//! `enabled()` check) and [`JsonRecorder`] (an in-memory store rendered
//! as deterministic JSON, schema [`SCHEMA_VERSION`]).
//!
//! Call sites hold a cheap clonable [`Metrics`] handle. The intended
//! pattern for zero overhead when disabled:
//!
//! ```
//! use dcc_obs::{AttrValue, JsonRecorder, Metrics};
//! use std::sync::Arc;
//!
//! fn solve(metrics: &Metrics) {
//!     if !metrics.enabled() {
//!         return; // take the uninstrumented path: no clocks, no attrs
//!     }
//!     let span = metrics.span("stage", &[("stage", AttrValue::from("solve"))]);
//!     metrics.add("solve.subproblems", 3);
//!     drop(span); // records the elapsed time
//! }
//!
//! let recorder = Arc::new(JsonRecorder::new());
//! let metrics = Metrics::new(recorder.clone());
//! solve(&metrics);
//! assert!(recorder.to_json().contains("\"solve.subproblems\":3"));
//! solve(&Metrics::noop()); // records nothing, costs (almost) nothing
//! ```
//!
//! ## Determinism
//!
//! [`JsonRecorder`] renders in **insertion order**, so a deterministic
//! call sequence yields byte-identical JSON — except wall-clock timings.
//! [`JsonRecorder::to_json_redacted`] zeroes every `elapsed_us` field and
//! every histogram whose name ends in `_us`, which is the redaction pass
//! the engine's metrics-determinism property tests compare under.
//!
//! Multi-threaded producers should **not** record from worker threads:
//! measure there, merge deterministically, then emit from one thread (see
//! `solve_subproblems` in `dcc-core` for the pattern, and
//! [`Metrics::span_at`] for recording a pre-measured duration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod recorder;

pub use json::{JsonRecorder, SCHEMA_VERSION};
pub use recorder::{AttrValue, Metrics, NoopRecorder, Recorder, Span};

/// Canonical metric and span names emitted by the `dcc` pipeline.
///
/// Kept in one place (and dependency-free) so producers (`dcc-core`,
/// `dcc-engine`) and consumers (`dcc metrics summarize`, tests) cannot
/// drift apart. See `docs/observability.md` for the full table.
pub mod names {
    /// Span: one full `Engine::run_to` invocation.
    pub const SPAN_ENGINE_RUN: &str = "engine.run";
    /// Span: one pipeline stage (attrs: `stage`, `cached`, `cause`).
    pub const SPAN_STAGE: &str = "stage";
    /// Span: one §IV-B subproblem solve (attrs: `id`, `iterations`,
    /// `degraded`), recorded post-merge with the worker-measured time.
    pub const SPAN_SUBPROBLEM: &str = "solve.subproblem";
    /// Span: materializing the trace from its configured source (attrs:
    /// `source`), recorded post-load with the measured time.
    pub const SPAN_TRACE_LOAD: &str = "trace.load";

    /// Event: one simulated round (attrs: `round`, `benefit`, `payment`,
    /// `u_req`).
    pub const EVENT_SIM_ROUND: &str = "sim.round";
    /// Event: one degraded subproblem in the assembled design (attrs:
    /// `subproblem`, `action`, `utility_delta`).
    pub const EVENT_DESIGN_DEGRADED: &str = "design.degraded";

    /// Counter: reviews ingested.
    pub const COUNTER_TRACE_REVIEWS: &str = "trace.reviews";
    /// Counter: reviewers ingested.
    pub const COUNTER_TRACE_REVIEWERS: &str = "trace.reviewers";
    /// Counter: workers the §IV detection suspects.
    pub const COUNTER_DETECT_SUSPECTED: &str = "detect.suspected";
    /// Counter: collusive communities found.
    pub const COUNTER_DETECT_COMMUNITIES: &str = "detect.communities";
    /// Counter: subproblems in the fitted decomposition.
    pub const COUNTER_FIT_SUBPROBLEMS: &str = "fit.subproblems";
    /// Counter: subproblems solved (degraded ones included).
    pub const COUNTER_SOLVE_SUBPROBLEMS: &str = "solve.subproblems";
    /// Counter: subproblems that degraded (any action).
    pub const COUNTER_SOLVE_DEGRADED: &str = "solve.degraded";
    /// Counter: degradations that fell back to a fixed payment.
    pub const COUNTER_SOLVE_DEGRADED_FALLBACK: &str = "solve.degraded.fallback";
    /// Counter: degradations that excluded the worker.
    pub const COUNTER_SOLVE_DEGRADED_SKIPPED: &str = "solve.degraded.skipped";
    /// Counter: per-worker contracts in the assembled design.
    pub const COUNTER_DESIGN_AGENTS: &str = "design.agents";
    /// Counter: rounds the simulate stage stepped this run.
    pub const COUNTER_SIM_ROUNDS: &str = "sim.rounds";
    /// Counter: fault events that fired (all kinds).
    pub const COUNTER_FAULTS_FIRED: &str = "sim.faults.fired";
    /// Counter: agent-dropout rounds that fired.
    pub const COUNTER_FAULTS_DROPPED: &str = "sim.faults.dropped";
    /// Counter: lost-feedback events that fired.
    pub const COUNTER_FAULTS_LOST: &str = "sim.faults.lost_feedback";
    /// Counter: corrupted-feedback events that fired.
    pub const COUNTER_FAULTS_CORRUPTED: &str = "sim.faults.corrupted_feedback";
    /// Counter: delayed-payment events that fired.
    pub const COUNTER_FAULTS_DELAYED: &str = "sim.faults.delayed_payment";

    /// Gauge: resolved worker-pool size of the solve stage.
    pub const GAUGE_SOLVE_POOL: &str = "solve.pool";
    /// Gauge: reviewers (workers) in the materialized trace.
    pub const GAUGE_TRACE_WORKERS: &str = "trace.workers";
    /// Gauge: the solved `Σ (w_i q_i − μ c_i)` (Eq. 7 objective).
    pub const GAUGE_DESIGN_UTILITY: &str = "design.total_requester_utility";
    /// Gauge: events in the configured fault plan.
    pub const GAUGE_FAULTS_SCHEDULED: &str = "sim.faults.scheduled";

    /// Histogram: per-subproblem solve time, microseconds (redacted by
    /// the determinism pass — the `_us` suffix marks it as a timing).
    pub const HIST_SUBPROBLEM_US: &str = "solve.subproblem_us";

    /// Span: one batch scenario (attrs: `id`, `trace`, `mu`,
    /// `budget_fraction`, `strategy`, `detect_cached`, `fit_cached`,
    /// `solve_cached`, `ok`), recorded post-merge with the
    /// worker-measured time.
    pub const SPAN_BATCH_SCENARIO: &str = "batch.scenario";
    /// Counter: scenarios the batch runner executed (failed included).
    pub const COUNTER_BATCH_SCENARIOS: &str = "batch.scenarios";
    /// Counter: scenarios that ended in an error record.
    pub const COUNTER_BATCH_FAILED: &str = "batch.scenarios.failed";
    /// Counter: trace materializations answered from the stage memo.
    pub const COUNTER_BATCH_TRACE_HIT: &str = "batch.cache.trace.hit";
    /// Counter: trace materializations that had to run.
    pub const COUNTER_BATCH_TRACE_MISS: &str = "batch.cache.trace.miss";
    /// Counter: scenarios whose detection came from the stage memo.
    pub const COUNTER_BATCH_DETECT_HIT: &str = "batch.cache.detect.hit";
    /// Counter: scenarios that had to run the detection pipeline.
    pub const COUNTER_BATCH_DETECT_MISS: &str = "batch.cache.detect.miss";
    /// Counter: scenarios whose fit came from the stage memo.
    pub const COUNTER_BATCH_FIT_HIT: &str = "batch.cache.fit.hit";
    /// Counter: scenarios that had to run the fit stage.
    pub const COUNTER_BATCH_FIT_MISS: &str = "batch.cache.fit.miss";
    /// Counter: scenarios whose solved design came from the stage memo.
    pub const COUNTER_BATCH_SOLVE_HIT: &str = "batch.cache.solve.hit";
    /// Counter: scenarios that had to run the solve/construct stages.
    pub const COUNTER_BATCH_SOLVE_MISS: &str = "batch.cache.solve.miss";
    /// Gauge: resolved scenario-level worker-pool size of the batch run.
    pub const GAUGE_BATCH_POOL: &str = "batch.pool";
    /// Gauge: scenario throughput of the batch run (redacted by the
    /// determinism pass — the `_per_sec` suffix marks it as a timing).
    pub const GAUGE_BATCH_SCENARIOS_PER_SEC: &str = "batch.scenarios_per_sec";
    /// Histogram: per-scenario wall time, microseconds (redacted by the
    /// determinism pass — the `_us` suffix marks it as a timing).
    pub const HIST_BATCH_SCENARIO_US: &str = "batch.scenario_us";

    /// Counter: supervised retry attempts beyond each scenario's first
    /// try, summed over the batch (recorded post-merge).
    pub const COUNTER_BATCH_RETRY_ATTEMPTS: &str = "batch.retry.attempts";
    /// Counter: scenarios that failed at least once and then succeeded
    /// on a supervised retry.
    pub const COUNTER_BATCH_RETRY_RECOVERED: &str = "batch.retry.recovered";
    /// Counter: scenarios quarantined after exhausting retries (all
    /// failure kinds).
    pub const COUNTER_BATCH_QUARANTINE_SCENARIOS: &str = "batch.quarantine.scenarios";
    /// Counter: quarantined scenarios whose final failure was a caught
    /// panic.
    pub const COUNTER_BATCH_QUARANTINE_PANICS: &str = "batch.quarantine.panics";
    /// Counter: quarantined scenarios that exhausted their logical
    /// work budget.
    pub const COUNTER_BATCH_QUARANTINE_BUDGET: &str = "batch.quarantine.budget_exhausted";
    /// Counter: scenarios restored from a `dcc-batch-ckpt/1` checkpoint
    /// instead of recomputed (0 for a fresh run).
    pub const COUNTER_BATCH_RESTORED: &str = "batch.checkpoint.restored";

    /// Span: one streaming round boundary recompute (attrs: `round`,
    /// `dirty_workers`, `dirty_products`).
    pub const SPAN_SERVE_ROUND: &str = "serve.round";
    /// Counter: events the streaming service ingested (all kinds).
    pub const COUNTER_SERVE_EVENTS: &str = "serve.events";
    /// Counter: round boundaries the streaming service recomputed at.
    pub const COUNTER_SERVE_ROUNDS: &str = "serve.rounds";
    /// Counter: workers marked dirty across all round recomputes.
    pub const COUNTER_SERVE_DIRTY_WORKERS: &str = "serve.dirty.workers";
    /// Counter: products marked dirty across all round recomputes.
    pub const COUNTER_SERVE_DIRTY_PRODUCTS: &str = "serve.dirty.products";
    /// Counter: §IV-C candidate tables built, one per distinct
    /// (ω, ψ, Δ) subproblem key of a round.
    pub const COUNTER_SERVE_SOLVE_RESOLVED: &str = "serve.solve.resolved";
    /// Counter: subproblems that selected from a table another
    /// subproblem of the same round built (subproblems − tables).
    pub const COUNTER_SERVE_SOLVE_REUSED: &str = "serve.solve.reused";
    /// Counter: class effort-function refits forced by changed points.
    pub const COUNTER_SERVE_FIT_REFITS: &str = "serve.fit.refits";
    /// Counter: class effort-function fits reused from the last round.
    pub const COUNTER_SERVE_FIT_REUSED: &str = "serve.fit.reused";
    /// Counter: checkpoints the streaming service wrote.
    pub const COUNTER_SERVE_CKPT_SAVED: &str = "serve.checkpoint.saved";
    /// Counter: runs restored from a `dcc-serve-ckpt/1` checkpoint
    /// (0 or 1 per process).
    pub const COUNTER_SERVE_CKPT_RESTORED: &str = "serve.checkpoint.restored";
    /// Gauge: reused / (resolved + reused) over the run so far — the
    /// share of subproblems that shared a candidate table.
    pub const GAUGE_SERVE_INCREMENTAL_RATIO: &str = "serve.incremental_ratio";

    /// Counter: adversary plans applied to generated traces.
    pub const COUNTER_ADVERSARY_PLANS: &str = "adversary.plans";
    /// Counter: sybil workers injected across applied adversary plans.
    pub const COUNTER_ADVERSARY_SYBILS: &str = "adversary.sybils";
    /// Counter: community splits applied across adversary plans.
    pub const COUNTER_ADVERSARY_SPLITS: &str = "adversary.splits";
    /// Counter: community merges applied across adversary plans.
    pub const COUNTER_ADVERSARY_MERGES: &str = "adversary.merges";
    /// Counter: under-reporting windows applied across adversary plans.
    pub const COUNTER_ADVERSARY_UNDERREPORTS: &str = "adversary.underreports";
}
