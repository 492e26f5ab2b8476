//! End-to-end benchmark of the dyncontract pipeline.
//!
//! Four workloads drive the public APIs of `dcc-engine`, `dcc-serve`
//! and `dcc-batch` on inputs generated from a seed:
//!
//! - [`design`] — `design-4x`: one cold `Engine::run` over a 4×
//!   paper-scale columnar trace;
//! - [`serve`] — `serve-replay`: the paper-scale event stream fed as
//!   JSON lines into one `ServeService`, closed loop;
//! - [`sweep`] — `sweep-perworker`: one `BatchRunner::run` over a
//!   24-scenario grid with per-worker effort fits;
//! - [`restore`] — `serve-restore`: the small-scale stream with a
//!   checkpoint after every round, killed and restored at 25/50/75%.
//!
//! Every workload checks its outputs, and a traced run times the calls
//! into each layer from this crate's own code. `README.md` in this
//! directory defines every metric.

pub mod catalog;
pub mod common;
pub mod design;
pub mod restore;
pub mod serve;
pub mod sweep;
