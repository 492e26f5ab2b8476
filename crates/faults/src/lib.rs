//! # dcc-faults
//!
//! Fault injection and checkpoint/resume for the dyncontract simulation
//! pipeline.
//!
//! Crowdsourcing platforms are distributed systems: workers drop out and
//! rejoin, feedback reports get lost or corrupted in flight, and payments
//! land late. This crate makes all of that *reproducible*:
//!
//! - [`FaultPlan`] / [`FaultPlanConfig`] — a fully materialized,
//!   JSON-serializable schedule of faults. All randomness is spent at
//!   plan-generation time, so a `(simulation seed, plan)` pair pins down
//!   the entire faulty run.
//! - [`FaultInjector`] — implements [`dcc_core::RoundFaults`] from a
//!   plan; pure in `(agent, round)` apart from a log of fired faults.
//! - [`checkpoint`] — serializes the complete mid-run state of
//!   [`dcc_core::Simulation`] and [`dcc_core::AdaptiveSimulation`] to
//!   JSON and restores it bit-exactly (shortest-round-trip floats,
//!   string-encoded non-finite values and RNG words).
//!
//! ## Example: a reproducible faulty run with mid-run checkpoints
//!
//! ```
//! use dcc_faults::{checkpoint, FaultInjector, FaultPlanConfig};
//! use dcc_core::{ModelParams, Simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), dcc_core::CoreError> {
//! let plan = FaultPlanConfig { agents: 0, rounds: 8, seed: 5, ..Default::default() }
//!     .generate()?;
//! let sim = Simulation::new(ModelParams::default(), SimulationConfig {
//!     rounds: 8, feedback_noise_sd: 0.0, seed: 1,
//! });
//! let mut injector = FaultInjector::new(&plan);
//! let mut state = sim.start(&[])?;
//! while sim.step(&[], &mut state, &mut injector) {
//!     // A real caller would persist this each round:
//!     let snapshot = checkpoint::sim_state_to_json(&state).to_string();
//!     assert_eq!(checkpoint::sim_state_from_json(
//!         &dcc_faults::Json::parse(&snapshot)?)?, state);
//! }
//! assert_eq!(sim.outcome_of(&state)?.rounds.len(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod injector;
mod plan;

pub use checkpoint::{
    adaptive_state_from_json, adaptive_state_to_json, load_adaptive_state, load_sim_state,
    save_adaptive_state, save_bytes_atomic, save_json_atomic, save_sim_state, sim_state_from_json,
    sim_state_to_json, CHECKPOINT_VERSION,
};
pub use injector::{FaultHitCounts, FaultInjector, FiredFault};
// The JSON value moved to the bottom of the workspace (`dcc-numerics`)
// so `dcc-trace` can serialize adversary plans; the re-export keeps
// every existing `dcc_faults::Json` call site working.
pub use dcc_numerics::{Json, JsonError};
pub use plan::{
    Corruption, CorruptFeedback, DropoutWindow, FaultPlan, FaultPlanConfig, MissingFeedback,
    PaymentDelay,
};
