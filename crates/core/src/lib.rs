//! # dcc-core
//!
//! The paper's contribution: dynamic contract design for heterogeneous
//! crowdsourcing workers (ICDCS 2017).
//!
//! A task requester repeatedly posts tasks to a pool of honest,
//! non-collusive malicious, and collusive malicious workers. Each round it
//! offers every worker a *contract* — a monotone piecewise-linear map from
//! the worker's previous-round feedback to this round's compensation
//! (Eq. 1, 6) — and each worker best-responds with an effort level
//! maximizing its own utility (Eq. 11 honest, Eq. 14 malicious). The
//! requester wants contracts maximizing
//! `U_req = Σ w_i·q_i − μ·Σ c_i` (Eq. 7), a bilevel program that this
//! crate solves per §IV:
//!
//! - [`ContractBuilder`] — the candidate-contract algorithm of §IV-C:
//!   for every target effort interval `[(k−1)δ, kδ)` construct a
//!   candidate `ξ^(k)` whose slopes follow the Eq. (39)–(40) recurrence
//!   inside the Case-III window of Lemma 4.1, then keep the candidate
//!   with the highest requester utility. The two steps are separate, so
//!   workers that share ω, ψ and the discretization share one set of
//!   candidates.
//! - [`bounds`] — Lemma 4.2 / 4.3 compensation bounds and the
//!   Theorem 4.1 requester-utility bracket.
//! - [`best_response`] — a worker's exact best response to an arbitrary
//!   contract (used to *verify* incentives rather than assume them).
//! - [`solve_subproblems`] / [`design_contracts`] — the §IV-B
//!   decomposition into per-worker / per-community subproblems, solved
//!   one candidate table per key on a pool of scoped threads.
//! - [`Simulation`] — the repeated Stackelberg game over `T` rounds with
//!   lagged payments and stochastic feedback, plus the exclusion and
//!   fixed-payment baselines of §V.
//!
//! ## Example
//!
//! ```
//! use dcc_core::{ContractBuilder, Discretization, ModelParams};
//! use dcc_numerics::Quadratic;
//!
//! # fn main() -> Result<(), dcc_core::CoreError> {
//! let psi = Quadratic::new(-0.05, 2.0, 0.5);
//! let built = ContractBuilder::new(ModelParams::default(), Discretization::new(20, 0.5)?, psi)
//!     .honest()
//!     .weight(1.0)
//!     .build()?;
//! assert!(built.contract().is_monotone());
//! assert!(built.requester_utility().is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod bandit;
mod baseline;
mod budget;
mod behavior;
mod bip;
pub mod bounds;
mod builder;
mod candidate;
mod cases;
mod contract;
mod design;
mod effort;
mod error;
mod optimal;
mod params;
pub mod proofness;
mod replay;
mod response;
mod risk;
mod sim;
pub mod utilities;

pub use adaptive::{AdaptiveAgent, AdaptiveConfig, AdaptiveOutcome, AdaptiveSimulation, AdaptiveState};
pub use bandit::{BanditOutcome, LinearPricingBandit};
pub use budget::{select_within_budget, BudgetedSelection};
pub use baseline::{BaselineStrategy, StrategyKind};
pub use behavior::ConductModel;
pub use bip::{
    solve_subproblems, BipSolution, DegradationAction, DegradationReport, DegradedSubproblem,
    FailurePolicy, Subproblem, SubproblemSolution,
};
pub use builder::{BuiltContract, ContractBuilder};
pub use candidate::{build_candidate, build_candidate_with_margin, Candidate};
pub use cases::{case_of_slope, interval_optimum, SlopeCase};
pub use contract::Contract;
pub use design::{
    assemble_design, collect_class_points, decompose_design, design_contracts, fit_class_models,
    fit_cm_model, fit_honest_model, fit_ncm_model, prepare_design, worker_observation_point,
    AgentContract, ClassModel, ClassModels, ClassPoints, ContractDesign, DesignConfig, DesignPrep,
};
pub use effort::{
    fit_class_effort, fit_effort_function, nor_table, validate_effort_function, EffortFit,
};
pub use error::{CoreError, IoSource};
pub use optimal::{exhaustive_best_utility, first_best_utility, incentive_cost};
pub use params::{Discretization, ModelParams};
pub use proofness::{
    best_effort, coalition_payment, coalition_utility, compliant_utility, member_utility,
    worker_bias, CoalitionMember, CollusionProofParams, Deviation,
};
pub use replay::{replay_trace, ReplayOutcome};
pub use response::{best_response, BestResponse};
pub use risk::{best_response_risk_averse, risk_effort_drop, RiskProfile};
pub use sim::{
    AgentSpec, NoFaults, RoundFaults, RoundRecord, SimState, Simulation, SimulationConfig,
    SimulationOutcome,
};
