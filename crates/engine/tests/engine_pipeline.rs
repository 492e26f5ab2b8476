//! Integration tests: the staged engine must reproduce the hand-wired
//! `run_pipeline → design_contracts → Simulation` chain bit-exactly,
//! cache stage outputs with precise invalidation, accept swapped-in
//! custom stages, and thread the checkpoint/kill/resume protocol
//! through unchanged.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]
#![allow(clippy::float_cmp)]

use dcc_core::{
    design_contracts, BaselineStrategy, DesignConfig, NoFaults, Simulation, SimulationConfig,
    StrategyKind,
};
use dcc_detect::{
    run_pipeline, CollusionReport, DetectionResult, FeedbackWeights, PipelineConfig, WeightParams,
};
use dcc_engine::{
    Engine, EngineConfig, EngineError, EngineSimOutcome, PoolSize, RoundContext, SimOptions,
    Stage, StageKind,
};
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::collections::BTreeSet;

fn trace() -> TraceDataset {
    SyntheticConfig::small(2024).generate()
}

fn context(trace: TraceDataset) -> RoundContext {
    RoundContext::new(EngineConfig::for_trace(trace))
}

#[test]
fn engine_matches_hand_wired_chain_bit_exactly() {
    let trace = trace();

    // Hand-wired reference chain (the pre-engine consumer idiom).
    let detection = run_pipeline(&trace, PipelineConfig::default());
    let config = DesignConfig::default();
    let design = design_contracts(&trace, &detection, &config).unwrap();
    let suspected: BTreeSet<_> = detection.suspected.iter().copied().collect();
    let agents = BaselineStrategy::new(StrategyKind::DynamicContract)
        .assemble(&design, config.params.omega, &suspected, &trace)
        .unwrap();
    let reference = Simulation::new(config.params, SimulationConfig::default())
        .run_with_faults(&agents, &mut NoFaults)
        .unwrap();

    // Engine over the same trace and defaults.
    let mut ctx = context(trace);
    Engine::new().run(&mut ctx).unwrap();

    let engine_design = ctx.design().unwrap();
    assert_eq!(engine_design.agents.len(), design.agents.len());
    assert_eq!(
        engine_design.total_requester_utility.to_bits(),
        design.total_requester_utility.to_bits()
    );
    match ctx.sim_outcome().unwrap() {
        EngineSimOutcome::Completed { outcome, .. } => assert_eq!(*outcome, reference),
        other => panic!("expected a completed simulation, got {other:?}"),
    }
}

#[test]
fn stage_outputs_are_cached_and_mu_sweep_keeps_fits() {
    let mut ctx = context(trace());
    let engine = Engine::new();

    let first = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(first.stages.iter().all(|s| !s.cached));

    // Second run: everything up to the requested stage is served from
    // cache.
    let second = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(second.stages.iter().all(|s| s.cached));

    // A μ change re-solves but keeps ingest, detection, and the ψ-fits.
    let baseline_utility = ctx.design().unwrap().total_requester_utility;
    ctx.set_mu(6.0);
    let swept = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(swept.was_cached(StageKind::Ingest));
    assert!(swept.was_cached(StageKind::Detect));
    assert!(swept.was_cached(StageKind::FitEffort));
    assert!(!swept.was_cached(StageKind::SolveSubproblems));
    assert!(!swept.was_cached(StageKind::ConstructContracts));
    assert_ne!(
        ctx.design().unwrap().total_requester_utility,
        baseline_utility,
        "a 4x μ change must alter the designed utility"
    );

    // A fit-relevant change (intervals) discards the fits too.
    let mut design = ctx.config().design;
    design.intervals += 5;
    ctx.set_design_config(design);
    let refit = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(refit.was_cached(StageKind::Detect));
    assert!(!refit.was_cached(StageKind::FitEffort));
}

#[test]
fn pool_size_changes_never_invalidate_and_stay_bit_identical() {
    let mut ctx = context(trace());
    let engine = Engine::new();
    ctx.set_pool(PoolSize::Sequential);
    engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    let sequential = ctx.design().unwrap().clone();

    // Changing the pool must not discard the cache…
    ctx.set_pool(PoolSize::Fixed(8));
    let report = engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(report.was_cached(StageKind::SolveSubproblems));

    // …and a forced re-solve at pool 8 is bit-identical anyway.
    ctx.invalidate_from(StageKind::SolveSubproblems);
    engine
        .run_to(&mut ctx, StageKind::ConstructContracts)
        .unwrap();
    let pooled = ctx.design().unwrap();
    assert_eq!(pooled.solution, sequential.solution);
    assert_eq!(
        pooled.total_requester_utility.to_bits(),
        sequential.total_requester_utility.to_bits()
    );
}

/// A collusion-blind detect stage: keeps the default pipeline's suspect
/// set but dissolves every community into singletons (the
/// collusion-ablation experiment's counterfactual).
struct BlindDetect;

impl Stage for BlindDetect {
    fn kind(&self) -> StageKind {
        StageKind::Detect
    }

    fn name(&self) -> &'static str {
        "blind-detect"
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let aware = run_pipeline(ctx.trace()?, ctx.config().pipeline);
        let collusion = CollusionReport {
            communities: Vec::new(),
            singletons: aware.suspected.clone(),
        };
        let weights = FeedbackWeights::compute(
            ctx.trace()?,
            &aware.consensus,
            &aware.estimates,
            &collusion,
            WeightParams::default(),
        );
        ctx.set_detection(DetectionResult {
            consensus: aware.consensus,
            estimates: aware.estimates,
            suspected: aware.suspected,
            collusion,
            weights,
        });
        Ok(())
    }
}

#[test]
fn swapped_detect_stage_changes_the_design() {
    let trace = trace();

    let mut default_ctx = context(trace.clone());
    Engine::new()
        .run_to(&mut default_ctx, StageKind::ConstructContracts)
        .unwrap();

    let blind_engine = Engine::new().with_stage(Box::new(BlindDetect));
    assert!(blind_engine.stage_names().contains(&"blind-detect"));
    let mut blind_ctx = context(trace);
    let report = blind_engine
        .run_to(&mut blind_ctx, StageKind::ConstructContracts)
        .unwrap();
    assert!(report.stages.iter().any(|s| s.name == "blind-detect"));

    let aware = default_ctx.design().unwrap();
    let blind = blind_ctx.design().unwrap();
    assert!(
        blind_ctx.detection().unwrap().collusion.communities.is_empty(),
        "the blind detector must not see communities"
    );
    assert!(
        !aware.solution.solutions.is_empty() && !blind.solution.solutions.is_empty()
    );
    assert_ne!(
        aware.solution.solutions.len(),
        blind.solution.solutions.len(),
        "dissolving communities must change the decomposition"
    );
}

#[test]
fn kill_and_resume_through_engine_matches_uninterrupted_run() {
    let trace = trace();
    let dir = std::env::temp_dir().join(format!("dcc_engine_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("state.json");

    // Uninterrupted reference.
    let mut ctx = context(trace.clone());
    Engine::new().run(&mut ctx).unwrap();
    let reference = match ctx.sim_outcome().unwrap() {
        EngineSimOutcome::Completed { outcome, .. } => outcome.clone(),
        other => panic!("expected completion, got {other:?}"),
    };

    // Killed at round 4…
    let mut killed_ctx = context(trace.clone());
    killed_ctx.set_sim_options(SimOptions {
        checkpoint: Some(checkpoint.clone()),
        kill_at: Some(4),
        ..SimOptions::default()
    });
    Engine::new().run(&mut killed_ctx).unwrap();
    match killed_ctx.sim_outcome().unwrap() {
        EngineSimOutcome::Killed {
            at_round,
            total_rounds,
            checkpoint: cp,
        } => {
            assert_eq!(*at_round, 4);
            assert_eq!(*total_rounds, 20);
            assert_eq!(cp, &checkpoint);
        }
        other => panic!("expected a kill, got {other:?}"),
    }

    // …then resumed: the outcome must match the reference bit-exactly.
    let mut resumed_ctx = context(trace);
    resumed_ctx.set_sim_options(SimOptions {
        checkpoint: Some(checkpoint.clone()),
        resume: true,
        ..SimOptions::default()
    });
    Engine::new().run(&mut resumed_ctx).unwrap();
    match resumed_ctx.sim_outcome().unwrap() {
        EngineSimOutcome::Completed { outcome, .. } => assert_eq!(*outcome, reference),
        other => panic!("expected completion, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_flag_misuse_is_a_config_error() {
    for options in [
        SimOptions {
            resume: true,
            ..SimOptions::default()
        },
        SimOptions {
            kill_at: Some(3),
            ..SimOptions::default()
        },
    ] {
        let mut ctx = context(trace());
        ctx.set_sim_options(options);
        let err = Engine::new().run(&mut ctx).unwrap_err();
        assert!(
            matches!(err, EngineError::Config(ref msg) if msg.contains("--checkpoint")),
            "expected a config error naming --checkpoint, got {err:?}"
        );
    }
}

#[test]
fn missing_output_is_a_typed_error() {
    let ctx = context(trace());
    let err = ctx.design().unwrap_err();
    assert!(matches!(
        err,
        EngineError::MissingOutput {
            stage: StageKind::ConstructContracts
        }
    ));
    let msg = err.to_string();
    assert!(msg.contains("construct-contracts"), "got: {msg}");
}
