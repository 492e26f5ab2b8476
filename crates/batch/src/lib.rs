//! # dcc-batch
//!
//! Deterministic multi-scenario batch scheduler for the dyncontract
//! engine — the first scale-out layer of the codebase.
//!
//! A [`ScenarioGrid`] describes a cartesian sweep (traces × μ values ×
//! budget fractions × strategies) plus the shared detection, design,
//! and simulation configuration. The [`BatchRunner`] fans the expanded
//! scenario list across a bounded `std::thread::scope` worker pool and
//! merges results back **in input order**, so batched output is
//! bit-identical to running every scenario serially through the
//! `dcc-engine` pipeline — the property `tests/differential.rs` proves
//! across pool sizes 1–16. Each scenario calls the detect, fit, solve,
//! construct and simulate functions that the engine's default stages
//! wrap, directly and in the same order.
//!
//! The throughput win comes from the [`StageMemo`]: a content-addressed
//! cache for the expensive Detect and Fit stage outputs, keyed on a
//! trace fingerprint plus the stage configuration. A 16-point μ-sweep
//! detects and fits once and re-solves 16 times, exactly like a serial
//! μ-sweep on one engine context — but the memo is shared
//! *across* scenarios, traces, and runner invocations (warm reruns skip
//! straight to the solve).
//!
//! Every scenario executes under **supervision**
//! ([`BatchRunner::run_supervised`]): panics are caught and isolated
//! (a poisoned scenario can neither wedge nor contaminate the shared
//! memo), panics and transient failures are re-attempted up to
//! `max_retries` times, an optional logical work-budget
//! bounds each scenario, and terminal failures are quarantined into a
//! typed [`QuarantineReport`]. With a [`CheckpointConfig`] the runner
//! writes versioned `dcc-batch-ckpt/1` snapshots and can resume an
//! interrupted sweep with output byte-identical to an uninterrupted
//! run at every pool size — see `docs/batch.md` and
//! `docs/robustness.md`.
//!
//! ```
//! use dcc_batch::{BatchRunner, ScenarioGrid};
//! use dcc_trace::SyntheticConfig;
//!
//! # fn main() -> Result<(), dcc_batch::BatchError> {
//! let mut cfg = SyntheticConfig::small(7);
//! cfg.n_honest = 12;
//! cfg.n_ncm = 4;
//! cfg.n_cm_target = 4;
//! cfg.n_products = 80;
//! cfg.n_rounds = 2;
//! let grid = ScenarioGrid::for_trace(cfg.generate(), &[1.5, 1.0]);
//! let report = BatchRunner::new().run(&grid)?;
//! assert_eq!(report.records.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod grid;
mod memo;
mod runner;
mod supervisor;

pub use ckpt::{AgentSummary, ScenarioSummary, SimSummary, CKPT_SCHEMA};
pub use grid::{parse_strategy, strategy_label, Scenario, ScenarioGrid, TraceSpec, GRID_SCHEMA};
pub use memo::{CacheStats, MemoStats, StageMemo};
pub use runner::{
    BatchError, BatchOptions, BatchReport, BatchRunner, ScenarioOutcome, ScenarioRecord,
    ScenarioResult,
};
pub use supervisor::{
    BatchFaultPlan, BatchOutcome, CheckpointConfig, FailureKind, FaultMode, FaultPoint,
    QuarantineEntry, QuarantineReport, ScenarioFailure, ScenarioFault, SupervisorOptions,
};
