//! Determinism properties of the parallel solve stage: for any seed and
//! any worker-pool size — including under degraded subproblems with
//! `FailurePolicy::FallbackBaseline` and under an injected fault plan —
//! the pooled solve and the full engine run must be **bit-identical** to
//! the sequential path.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::{prepare_design, solve_subproblems, DesignConfig, DesignPrep, FailurePolicy};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
