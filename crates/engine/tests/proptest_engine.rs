//! Determinism properties of the parallel solve stage: for any seed and
//! any worker-pool size — including under degraded subproblems with
//! `FailurePolicy::FallbackBaseline` and under an injected fault plan —
//! the pooled solve and the full engine run must be **bit-identical** to
//! the sequential path, and the keyed solve (one candidate table per
//! (ω, ψ, Δ) key) must be bit-identical to building every subproblem on
//! its own with `ContractBuilder::build`.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::{
    prepare_design, solve_subproblems, ContractBuilder, CoreError, DesignConfig, DesignPrep,
    Discretization, FailurePolicy, ModelParams, Subproblem,
};
use dcc_detect::{run_pipeline, DetectionResult, PipelineConfig};
use dcc_engine::{Engine, EngineConfig, EngineSimOutcome, PoolSize, RoundContext, SimOptions};
use dcc_faults::FaultPlanConfig;
use dcc_numerics::Quadratic;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_trace::{SyntheticConfig, TraceDataset};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SEEDS: [u64; 3] = [11, 52, 97];

/// Per-seed fixture, built once: a deliberately small trace (the chaos
/// run elevates the case count, so per-case work must stay cheap) with
/// its detection result, fitted decomposition, and sequential reference
/// outputs.
struct Fixture {
    trace: TraceDataset,
    detection: DetectionResult,
    config: DesignConfig,
    prep: DesignPrep,
    reference: EngineSimOutcome,
}

fn design_config() -> DesignConfig {
    DesignConfig {
        intervals: 8,
        failure_policy: FailurePolicy::FallbackBaseline { amount: 0.5 },
        ..DesignConfig::default()
    }
}

fn engine_config(fx: &Fixture, pool: PoolSize) -> EngineConfig {
    let mut config = EngineConfig::for_trace(fx.trace.clone());
    config.design = fx.config;
    config.pool = pool;
    config.sim.rounds = 10;
    config.sim_options = SimOptions {
        fault_plan: FaultPlanConfig {
            agents: fx.trace.reviewers().len(),
            rounds: 10,
            seed: fx.trace.reviewers().len() as u64,
            ..FaultPlanConfig::default()
        }
        .generate()
        .expect("default probabilities are valid"),
        ..SimOptions::default()
    };
    config
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let mut synth = SyntheticConfig::small(seed);
                synth.n_honest = 14;
                synth.n_ncm = 5;
                synth.n_cm_target = 6;
                synth.n_rounds = 2;
                synth.n_products = 160;
                let trace = synth.generate();
                let detection = run_pipeline(&trace, PipelineConfig::default());
                let config = design_config();
                let prep = prepare_design(&trace, &detection, &config).expect("fixture fits");
                let mut fx = Fixture {
                    trace,
                    detection,
                    config,
                    prep,
                    reference: EngineSimOutcome::Killed {
                        at_round: 0,
                        total_rounds: 0,
                        checkpoint: Default::default(),
                    },
                };
                let mut ctx =
                    RoundContext::new(engine_config(&fx, PoolSize::Sequential));
                Engine::new().run(&mut ctx).expect("reference engine run");
                fx.reference = ctx.sim_outcome().expect("simulated").clone();
                fx
            })
            .collect()
    })
}

/// `prep` with one subproblem's ψ made unsolvable, forcing the fallback
/// path through the degradation machinery.
fn corrupted(prep: &DesignPrep, victim: usize) -> Vec<dcc_core::Subproblem> {
    let mut subproblems = prep.subproblems.clone();
    let n = subproblems.len();
    subproblems[victim % n].psi = Quadratic::new(f64::NAN, 1.0, 0.0);
    subproblems
}

/// The pool of key components the keyed-solve property draws from: ω,
/// ψ (the last one convex, so its table fails validation) and the
/// discretization.
const OMEGAS: [f64; 3] = [0.0, 0.3, 0.6];

fn key_psi(i: usize) -> Quadratic {
    [
        Quadratic::new(-0.05, 2.0, 0.5),
        Quadratic::new(-0.08, 1.6, 0.2),
        Quadratic::new(0.1, 1.0, 0.0),
    ][i]
}

fn key_disc(i: usize) -> Discretization {
    [(8, 0.75), (5, 1.2)]
        .map(|(m, delta)| Discretization::new(m, delta).expect("valid discretization"))[i]
}

/// Weights including the ones a table must never be consulted for.
fn any_weight() -> impl Strategy<Value = f64> {
    (0usize..10, -1.0f64..3.0).prop_map(|(tag, weight)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -0.5,
        3 => 0.0,
        _ => weight,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Subproblems drawn from a few (ω, ψ, Δ) keys, so most share a
    /// table, solve bit-identically to a per-subproblem
    /// `ContractBuilder::build`, under every policy and pool size: the
    /// same contracts, the same degraded set and reasons, the same Abort
    /// error (the first failure in input order) and the same total bits.
    #[test]
    fn keyed_solve_matches_per_subproblem_builder(
        keys in proptest::collection::vec((0usize..3, 0usize..3, 0usize..2), 1..4),
        picks in proptest::collection::vec((0usize..16, any_weight()), 1..48),
        policy_idx in 0usize..3,
        pool in 1usize..=16,
    ) {
        let params = ModelParams { mu: 1.5, ..ModelParams::default() };
        let policy = [
            FailurePolicy::Abort,
            FailurePolicy::FallbackBaseline { amount: 0.5 },
            FailurePolicy::Skip,
        ][policy_idx];
        let subproblems: Vec<Subproblem> = picks
            .iter()
            .enumerate()
            .map(|(id, &(pick, weight))| {
                let (omega, psi, disc) = keys[pick % keys.len()];
                Subproblem {
                    id,
                    members: vec![id],
                    omega: OMEGAS[omega],
                    weight,
                    psi: key_psi(psi),
                    disc: key_disc(disc),
                }
            })
            .collect();
        let reference: Vec<_> = subproblems
            .iter()
            .map(|sp| {
                ContractBuilder::new(params, sp.disc, sp.psi)
                    .malicious(sp.omega)
                    .weight(sp.weight)
                    .build()
                    .map_err(|e| {
                        CoreError::InvalidInput(format!("subproblem {} failed: {e}", sp.id))
                            .to_string()
                    })
            })
            .collect();
        let solved = solve_subproblems(&subproblems, &params, pool, policy, &Metrics::noop());
        let first_error = reference.iter().find_map(|r| r.as_ref().err());
        let (solution, report) = match (policy, first_error) {
            (FailurePolicy::Abort, Some(want)) => {
                prop_assert_eq!(&solved.unwrap_err().to_string(), want);
                return Ok(());
            }
            _ => solved.unwrap(),
        };
        let degraded: Vec<(usize, &str)> = report
            .degraded
            .iter()
            .map(|d| (d.subproblem, d.reason.as_str()))
            .collect();
        let failed: Vec<(usize, &str)> = reference
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_ref().err().map(|e| (id, e.as_str())))
            .collect();
        prop_assert_eq!(degraded, failed);
        let mut total = 0.0f64;
        for (got, want) in solution.solutions.iter().zip(&reference) {
            let utility = match want {
                Ok(want) => {
                    prop_assert_eq!(&got.built, want);
                    prop_assert_eq!(
                        got.built.requester_utility().to_bits(),
                        want.requester_utility().to_bits()
                    );
                    want.requester_utility()
                }
                Err(_) => got.built.requester_utility(),
            };
            total += utility;
        }
        prop_assert_eq!(solution.total_requester_utility.to_bits(), total.to_bits());
    }

    /// The §IV-B solve is bit-identical at every pool size.
    #[test]
    fn pooled_solve_is_bit_identical_to_sequential(
        seed_idx in 0..SEEDS.len(),
        pool in 2usize..=16,
    ) {
        let fx = &fixtures()[seed_idx];
        let (seq, seq_deg) = solve_subproblems(
            &fx.prep.subproblems, &fx.config.params, 1, FailurePolicy::Abort, &Metrics::noop(),
        ).unwrap();
        let (par, par_deg) = solve_subproblems(
            &fx.prep.subproblems, &fx.config.params, pool, FailurePolicy::Abort, &Metrics::noop(),
        ).unwrap();
        prop_assert_eq!(&par, &seq);
        prop_assert_eq!(
            par.total_requester_utility.to_bits(),
            seq.total_requester_utility.to_bits()
        );
        prop_assert_eq!(par_deg, seq_deg);
    }

    /// Bit-identity survives degraded subproblems under
    /// `FallbackBaseline`: the same subproblem degrades to the same
    /// fallback on every pool size, itemized identically.
    #[test]
    fn fallback_degradation_is_bit_identical_across_pools(
        seed_idx in 0..SEEDS.len(),
        pool in 2usize..=16,
        victim in 0usize..64,
        amount in 0.1f64..2.0,
    ) {
        let fx = &fixtures()[seed_idx];
        let subproblems = corrupted(&fx.prep, victim);
        let policy = FailurePolicy::FallbackBaseline { amount };
        let (seq, seq_deg) = solve_subproblems(
            &subproblems, &fx.config.params, 1, policy, &Metrics::noop(),
        ).unwrap();
        let (par, par_deg) = solve_subproblems(
            &subproblems, &fx.config.params, pool, policy, &Metrics::noop(),
        ).unwrap();
        prop_assert_eq!(seq_deg.len(), 1, "exactly the victim degrades");
        prop_assert_eq!(&par, &seq);
        prop_assert_eq!(par_deg, seq_deg);
    }

    /// The full engine — detection, fit, pooled solve, construction, and
    /// a simulation under an injected fault plan — reproduces the
    /// sequential run's outcome exactly at any pool size.
    #[test]
    fn engine_outcome_with_fault_plan_is_pool_invariant(
        seed_idx in 0..SEEDS.len(),
        pool in 2usize..=8,
    ) {
        let fx = &fixtures()[seed_idx];
        let mut ctx = RoundContext::new(engine_config(fx, PoolSize::Fixed(pool)));
        Engine::new().run(&mut ctx).unwrap();
        prop_assert_eq!(ctx.sim_outcome().unwrap(), &fx.reference);
        prop_assert_eq!(
            ctx.detection().unwrap().suspected.len(),
            fx.detection.suspected.len()
        );
    }

    /// The metrics stream is (seed, plan, pool)-deterministic: two
    /// identical engine runs — same trace seed, same fault plan, same
    /// pool — render **byte-identical** `JsonRecorder` documents once
    /// the timing redaction pass zeroes the wall-clock fields.
    #[test]
    fn json_recorder_metrics_are_run_deterministic(
        seed_idx in 0..SEEDS.len(),
        pool in 1usize..=8,
    ) {
        let fx = &fixtures()[seed_idx];
        let render = || {
            let recorder = Arc::new(JsonRecorder::new());
            let mut ctx = RoundContext::new(engine_config(fx, PoolSize::Fixed(pool)));
            ctx.set_metrics(Metrics::new(recorder.clone()));
            Engine::new().run(&mut ctx).unwrap();
            recorder.to_json_redacted()
        };
        let first = render();
        prop_assert!(!first.is_empty());
        prop_assert_eq!(first, render());
    }
}
