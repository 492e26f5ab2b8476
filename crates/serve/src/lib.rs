//! # dcc-serve
//!
//! Incremental streaming contract service for the `dyncontract`
//! workspace: the long-running counterpart of the one-shot batch
//! pipeline (`dcc_detect::run_pipeline` → `dcc_core::design_contracts`).
//!
//! The service ingests worker-feedback events ([`ServeEvent`]: products
//! appearing, workers joining, reviews arriving, round boundaries) as
//! JSON lines — from stdin, an events file, or derived from an existing
//! trace by [`events_from_trace`] (`dcc serve --replay`). At every round
//! boundary it recomputes the full §IV detection + contract design, but
//! **only the parts whose inputs changed**:
//!
//! - consensus slots only for products with new reviews,
//! - `e_mal` / Eq. 5 weights only for workers whose dependencies moved,
//! - collusive communities via a streaming union-find instead of DFS,
//! - class ψ refits through the batch fit functions, only for classes
//!   whose observation points changed,
//! - one §IV-C candidate table per distinct (ω, ψ, discretization)
//!   key, shared by every subproblem with that key (the batch solve).
//!
//! **Correctness contract**: after *any* prefix of the event stream,
//! the incrementally maintained design is bit-identical
//! (`f64::to_bits`) to a cold batch recompute over the same prefix, at
//! every pool size. `tests/serve_differential.rs` enforces this
//! property over random streams; `--verify` enforces it in production
//! at every round.
//!
//! Crash recovery reuses the `dcc-faults` atomic-write machinery: the
//! service checkpoints its event log ([`save_checkpoint`]) and a
//! resumed run re-applies the log silently, making the concatenated
//! output of a killed + resumed run byte-identical to an uninterrupted
//! one (exercised by `make chaos-serve`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
mod event;
mod service;
mod state;

pub use ckpt::{load_checkpoint, save_checkpoint, CKPT_FORMAT};
pub use event::{events_from_trace, ServeEvent};
pub use service::{fold_digest, ServeService};
pub use state::{design_digest, RoundOutput, ServeState, ServeStats};
