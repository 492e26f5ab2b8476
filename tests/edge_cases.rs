//! Edge-case and failure-injection integration tests.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

// Tests assert exact sentinel values (a zero contract pays exactly 0.0);
// clippy.toml's in-tests switches do not cover float_cmp.
#![allow(clippy::float_cmp)]

use dyncontract::core::{
    design_contracts, AgentSpec, ContractBuilder, DesignConfig, Discretization, ModelParams,
    Simulation, SimulationConfig,
};
use dyncontract::detect::{run_pipeline, PipelineConfig};
use dyncontract::numerics::Quadratic;
use dyncontract::trace::SyntheticConfig;

fn params() -> ModelParams {
    ModelParams {
        mu: 1.0,
        ..ModelParams::default()
    }
}

#[test]
fn single_interval_discretization_works() {
    // m = 1 is the degenerate partition: one candidate plus the zero
    // contract.
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let built = ContractBuilder::new(params(), Discretization::new(1, 5.0).unwrap(), psi)
        .honest()
        .weight(1.5)
        .build()
        .unwrap();
    assert!(built.contract().is_monotone());
    assert!(built.requester_utility().is_finite());
    assert!(matches!(built.k_opt(), None | Some(1)), "{:?}", built.k_opt());
}

#[test]
fn all_honest_trace_designs_without_malicious_machinery() {
    let mut cfg = SyntheticConfig::small(55);
    cfg.n_honest = 80;
    cfg.n_ncm = 0;
    cfg.n_cm_target = 0;
    cfg.n_products = 400;
    let trace = cfg.generate();
    assert!(trace.campaigns().is_empty());

    let detection = run_pipeline(&trace, PipelineConfig::default());
    assert!(detection.suspected.is_empty());
    assert!(detection.collusion.communities.is_empty());

    let design = design_contracts(&trace, &detection, &DesignConfig::default()).unwrap();
    assert_eq!(
        design.agents.len(),
        trace
            .reviewers()
            .iter()
            .filter(|r| !trace.reviews_by(r.id).is_empty())
            .count()
    );
    assert!(design.agents.iter().all(|a| !a.suspected));
}

#[test]
fn almost_all_malicious_trace_still_designs() {
    let mut cfg = SyntheticConfig::small(56);
    cfg.n_honest = 20;
    cfg.n_ncm = 40;
    cfg.n_cm_target = 30;
    cfg.n_products = 800;
    let trace = cfg.generate();
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let design = design_contracts(&trace, &detection, &DesignConfig::default()).unwrap();
    assert!(design.total_requester_utility.is_finite());
    // Suspected agents outnumber honest ones.
    let suspected = design.agents.iter().filter(|a| a.suspected).count();
    assert!(suspected > design.agents.len() / 2);
}

#[test]
fn community_meta_agent_simulates() {
    // A 3-member community simulated as one meta-agent.
    let psi = Quadratic::new(-0.1, 2.2, 0.8);
    let built = ContractBuilder::new(params(), Discretization::covering(10, 8.0).unwrap(), psi)
        .malicious(0.4)
        .weight(0.9)
        .build()
        .unwrap();
    let agent = AgentSpec {
        id: 0,
        members: 3,
        omega: 0.4,
        weight: 0.9,
        psi,
        contract: built.contract().clone(),
        in_system: true,
    };
    let outcome = Simulation::new(
        params(),
        SimulationConfig {
            rounds: 6,
            feedback_noise_sd: 0.0,
            seed: 1,
        },
    )
    .run(&[agent])
    .unwrap();
    assert_eq!(outcome.rounds.len(), 6);
    assert!(outcome.agent_effort[0] >= 0.0);
}

#[test]
fn extreme_parameters_do_not_break_the_builder() {
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let disc = Discretization::covering(20, 7.0).unwrap();
    // Huge mu: requester never pays -> zero contract.
    let stingy = ContractBuilder::new(
        ModelParams {
            mu: 1e6,
            ..params()
        },
        disc,
        psi,
    )
    .honest()
    .weight(1.0)
    .build()
    .unwrap();
    assert_eq!(stingy.k_opt(), None);
    assert_eq!(stingy.compensation(), 0.0);

    // Tiny mu: requester pushes to the top interval.
    let generous = ContractBuilder::new(
        ModelParams {
            mu: 1e-6,
            ..params()
        },
        disc,
        psi,
    )
    .honest()
    .weight(1.0)
    .build()
    .unwrap();
    assert_eq!(generous.k_opt(), Some(20));

    // Enormous weight behaves like tiny mu.
    let keen = ContractBuilder::new(params(), disc, psi)
        .honest()
        .weight(1e9)
        .build()
        .unwrap();
    assert_eq!(keen.k_opt(), Some(20));
}

#[test]
fn near_linear_psi_is_accepted_up_to_validity() {
    // Very small curvature is still a valid model effort function as long
    // as the region stays below the (far) peak.
    let psi = Quadratic::new(-1e-6, 1.0, 0.0);
    let disc = Discretization::covering(8, 10.0).unwrap();
    let built = ContractBuilder::new(params(), disc, psi)
        .honest()
        .weight(2.0)
        .build()
        .unwrap();
    assert!(built.requester_utility().is_finite());
}

#[test]
fn empty_population_design_runs() {
    let mut cfg = SyntheticConfig::small(57);
    cfg.n_honest = 5;
    cfg.n_ncm = 0;
    cfg.n_cm_target = 0;
    cfg.n_products = 300;
    let trace = cfg.generate();
    let detection = run_pipeline(&trace, PipelineConfig::default());
    // Five honest workers is enough for a fit (>= 3 points) and a design.
    let design = design_contracts(&trace, &detection, &DesignConfig::default()).unwrap();
    assert_eq!(design.agents.len(), 5);
}
