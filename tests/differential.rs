//! Differential harness: three independent executions of the same
//! μ-sweep — a fresh serial engine run per scenario, a pooled engine
//! solve, and the batch runner — must agree **byte-for-byte** on every
//! deterministic output (all floats compared via `to_bits`).
//!
//! This is the external check backing `dcc-batch`'s central claim: the
//! batch scheduler is an optimization, never a semantic change. CI runs
//! this suite at `PROPTEST_CASES=256` (`.github/workflows/ci.yml`,
//! `batch` job); the in-file default keeps local runs quick.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dyncontract::batch::{
    BatchFaultPlan, BatchOptions, BatchOutcome, BatchReport, BatchRunner, CheckpointConfig,
    FailureKind, FaultMode, FaultPoint, ScenarioFault, ScenarioGrid, SupervisorOptions,
};
use dyncontract::core::{
    solve_subproblems, BipSolution, ContractDesign, FailurePolicy, ModelParams, Subproblem,
};
use dyncontract::engine::{Engine, EngineConfig, PoolSize, RoundContext, StageKind};
use dyncontract::obs::Metrics;
use dyncontract::trace::{SyntheticConfig, TraceDataset};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The μ-sweep all three executions run.
const MUS: [f64; 3] = [1.5, 1.0, 0.6];
/// Distinct trace shapes (seeds) the property quantifies over.
const SEEDS: [u64; 3] = [5, 23, 71];

fn trace(seed: u64) -> TraceDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 14;
    cfg.n_ncm = 5;
    cfg.n_cm_target = 6;
    cfg.n_rounds = 2;
    cfg.n_products = 160;
    cfg.generate()
}

/// Byte-exact encoding of one design: per-worker contract knots,
/// payments, compensation, and induced effort, plus the total, all via
/// `to_bits` so any 1-ulp drift fails the comparison.
fn encode(out: &mut String, design: &ContractDesign) {
    let _ = write!(out, "U={:016x}", design.total_requester_utility.to_bits());
    for a in &design.agents {
        let _ = write!(
            out,
            " [{} c={:016x} y={:016x} k=",
            a.worker.0,
            a.compensation.to_bits(),
            a.induced_effort.to_bits(),
        );
        for (d, x) in a
            .contract
            .feedback_knots()
            .iter()
            .zip(a.contract.payments())
        {
            let _ = write!(out, "{:016x}:{:016x},", d.to_bits(), x.to_bits());
        }
        let _ = write!(out, "]");
    }
    let _ = writeln!(out);
}

/// The sweep through the staged engine: one fresh context per μ, solve
/// pool as given.
fn engine_sweep(seed: u64, pool: PoolSize) -> String {
    let trace = trace(seed);
    let mut out = String::new();
    for &mu in &MUS {
        let mut config = EngineConfig::for_trace(trace.clone());
        config.design.params.mu = mu;
        config.pool = pool;
        let mut ctx = RoundContext::new(config);
        Engine::new()
            .run_to(&mut ctx, StageKind::ConstructContracts)
            .expect("engine design");
        encode(&mut out, ctx.design().expect("design ran"));
    }
    out
}

/// The same sweep through the batch runner.
fn batch_sweep(seed: u64, pool: PoolSize, policy: FailurePolicy) -> String {
    let grid = ScenarioGrid::for_trace(trace(seed), &MUS);
    let runner = BatchRunner::with_options(BatchOptions {
        pool,
        policy,
        ..BatchOptions::default()
    });
    let report = runner.run(&grid).expect("batch run");
    let mut out = String::new();
    for record in &report.records {
        encode(&mut out, &record.outcome().expect("scenario ok").design);
    }
    out
}

/// The serial-engine reference, computed once per seed.
fn reference(seed_idx: usize) -> &'static str {
    static REFS: OnceLock<Vec<String>> = OnceLock::new();
    &REFS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| engine_sweep(seed, PoolSize::Sequential))
            .collect()
    })[seed_idx]
}

/// The fitted §IV-B decomposition for one seed, computed once: run the
/// engine through `FitEffort` and take the prepared subproblems.
fn subproblems(seed_idx: usize) -> &'static [Subproblem] {
    static PREPS: OnceLock<Vec<Vec<Subproblem>>> = OnceLock::new();
    &PREPS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let mut ctx = RoundContext::new(EngineConfig::for_trace(trace(seed)));
                Engine::new()
                    .run_to(&mut ctx, StageKind::FitEffort)
                    .expect("engine prep");
                ctx.prep().expect("prep ran").subproblems.clone()
            })
            .collect()
    })[seed_idx]
}

/// Byte-exact encoding of a raw `BipSolution` (pre-contract-construction):
/// ids, membership, and every solved quantity via `to_bits`.
fn encode_bip(solution: &BipSolution) -> String {
    let mut out = String::new();
    let _ = write!(out, "U={:016x}", solution.total_requester_utility.to_bits());
    for s in &solution.solutions {
        let _ = write!(
            out,
            " [{} m={:?} c={:016x} y={:016x} u={:016x} k=",
            s.id,
            s.members,
            s.built.compensation().to_bits(),
            s.built.induced_effort().to_bits(),
            s.built.requester_utility().to_bits(),
        );
        for (d, x) in s
            .built
            .contract()
            .feedback_knots()
            .iter()
            .zip(s.built.contract().payments())
        {
            let _ = write!(out, "{:016x}:{:016x},", d.to_bits(), x.to_bits());
        }
        let _ = write!(out, "]");
    }
    out
}

fn policy(idx: usize) -> FailurePolicy {
    match idx {
        0 => FailurePolicy::Abort,
        1 => FailurePolicy::Skip,
        _ => FailurePolicy::FallbackBaseline { amount: 0.5 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's pooled subproblem solve is byte-identical to its
    /// sequential solve at every pool size.
    #[test]
    fn pooled_engine_solve_matches_serial(seed_idx in 0usize..SEEDS.len(), pool in 1usize..=16) {
        let swept = engine_sweep(SEEDS[seed_idx], PoolSize::Fixed(pool));
        prop_assert_eq!(swept.as_str(), reference(seed_idx));
    }

    /// The pooled subproblem solve is byte-identical to the serial
    /// (`pool = 1`) solve on the same decomposition, at every pool size
    /// and μ.
    #[test]
    fn pooled_solve_matches_serial_solve(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        mu_idx in 0usize..MUS.len(),
    ) {
        let sps = subproblems(seed_idx);
        let params = ModelParams { mu: MUS[mu_idx], ..ModelParams::default() };
        let solve = |pool| {
            solve_subproblems(sps, &params, pool, FailurePolicy::Abort, &Metrics::noop())
                .expect("solve")
        };
        let (serial, serial_deg) = solve(1);
        let (pooled, pooled_deg) = solve(pool);
        prop_assert_eq!(encode_bip(&pooled), encode_bip(&serial));
        prop_assert_eq!(format!("{pooled_deg:?}"), format!("{serial_deg:?}"));
    }

    /// The batch runner — any scenario-pool size, any failure policy —
    /// is byte-identical to the fresh serial engine loop.
    #[test]
    fn batch_runner_matches_serial_engine(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        policy_idx in 0usize..3,
    ) {
        let swept = batch_sweep(SEEDS[seed_idx], PoolSize::Fixed(pool), policy(policy_idx));
        prop_assert_eq!(swept.as_str(), reference(seed_idx));
    }

    /// A warm memo is invisible in the output: rerunning the grid on
    /// the same runner reproduces the cold bytes even though every
    /// stage is answered from cache.
    #[test]
    fn warm_batch_rerun_matches_serial_engine(seed_idx in 0usize..SEEDS.len(), pool in 1usize..=8) {
        let grid = ScenarioGrid::for_trace(trace(SEEDS[seed_idx]), &MUS);
        let runner = BatchRunner::with_options(BatchOptions {
            pool: PoolSize::Fixed(pool),
            ..BatchOptions::default()
        });
        runner.run(&grid).expect("cold run");
        let warm = runner.run(&grid).expect("warm run");
        let mut out = String::new();
        for record in &warm.records {
            encode(&mut out, &record.outcome().expect("scenario ok").design);
        }
        prop_assert_eq!(out.as_str(), reference(seed_idx));
    }
}

/// Byte-exact encoding of a *supervised* report's deterministic
/// surface: cache stats, attempts, cache flags, canonical summaries
/// (every float via `to_bits`), failures, and the quarantine — the
/// parts an interrupted-and-resumed run must reproduce exactly.
fn encode_supervised(report: &BatchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "stats {:?}", report.stats);
    for r in &report.records {
        let _ = write!(
            out,
            "#{} a{} d{} f{} s{} ",
            r.scenario.id,
            r.attempts,
            u8::from(r.detect_cached),
            u8::from(r.fit_cached),
            u8::from(r.solve_cached),
        );
        match (r.summary(), r.failure()) {
            (Some(s), _) => {
                let _ = write!(
                    out,
                    "u={:016x} full={:016x} budget={:016x} spend={:016x} bu={:016x} deg={} funded={:?} ",
                    s.total_requester_utility.to_bits(),
                    s.full_spend.to_bits(),
                    s.budget.to_bits(),
                    s.spend.to_bits(),
                    s.budget_utility.to_bits(),
                    s.degraded,
                    s.funded,
                );
                for a in &s.agents {
                    let _ = write!(
                        out,
                        "[{} p{} c={:016x} y={:016x}]",
                        a.worker,
                        a.subproblem,
                        a.compensation.to_bits(),
                        a.induced_effort.to_bits(),
                    );
                }
                match &s.sim {
                    Some(sim) => {
                        let _ = writeln!(
                            out,
                            " sim r{} cum={:016x} mean={:016x}",
                            sim.rounds,
                            sim.cumulative_requester_utility.to_bits(),
                            sim.mean_round_utility.to_bits(),
                        );
                    }
                    None => {
                        let _ = writeln!(out, " sim=none");
                    }
                }
            }
            (None, Some(f)) => {
                let _ = writeln!(out, "err={f}");
            }
            (None, None) => {
                let _ = writeln!(out, "lost");
            }
        }
    }
    for q in &report.quarantine.entries {
        let _ = writeln!(
            out,
            "quarantine #{} {} a{} {}",
            q.scenario,
            q.kind.label(),
            q.attempts,
            q.message
        );
    }
    out
}

/// A 6-scenario grid (3 μ × 2 budget fractions) for the kill/resume
/// properties.
fn supervised_grid(seed: u64) -> ScenarioGrid {
    let mut grid = ScenarioGrid::for_trace(trace(seed), &MUS);
    grid.budget_fractions = vec![0.5, 1.0];
    grid
}

fn options(pool: PoolSize, policy: FailurePolicy) -> BatchOptions {
    BatchOptions {
        pool,
        policy,
        ..BatchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash-recovery differential: killing a checkpointed run after k
    /// fresh scenarios and resuming it — at any pool size, under every
    /// failure policy — reproduces the uninterrupted report
    /// byte-for-byte (floats via `to_bits`, quarantine included).
    #[test]
    fn killed_and_resumed_batch_matches_uninterrupted(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
        policy_idx in 0usize..3,
        kill_at in 1usize..=5,
    ) {
        let seed = SEEDS[seed_idx];
        let grid = supervised_grid(seed);
        let scenarios = grid.scenarios();
        let full = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run(&grid)
            .expect("uninterrupted run");
        let path = std::env::temp_dir().join(format!(
            "dcc-diff-resume-{}-s{seed}-p{pool}-f{policy_idx}-k{kill_at}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let killed = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run_supervised(&grid, &scenarios, &SupervisorOptions {
                kill_after: Some(kill_at),
                checkpoint: Some(CheckpointConfig::new(&path)),
                ..SupervisorOptions::default()
            })
            .expect("killed run");
        let was_killed = matches!(killed, BatchOutcome::Killed { .. });
        prop_assert!(was_killed, "run must stop at the kill threshold");
        let resumed = BatchRunner::with_options(options(PoolSize::Fixed(pool), policy(policy_idx)))
            .run_supervised(&grid, &scenarios, &SupervisorOptions {
                checkpoint: Some(CheckpointConfig::new(&path)),
                resume: true,
                ..SupervisorOptions::default()
            })
            .expect("resumed run")
            .into_report()
            .expect("resume completes");
        let _ = std::fs::remove_file(&path);
        prop_assert!(resumed.restored >= kill_at.min(scenarios.len()));
        prop_assert_eq!(encode_supervised(&resumed), encode_supervised(&full));
    }

    /// Panic containment differential: a scenario that panics mid-batch
    /// is quarantined deterministically while every sibling still
    /// matches the fresh serial-engine reference byte-for-byte — at
    /// every pool size.
    #[test]
    fn injected_panic_leaves_siblings_byte_identical(
        seed_idx in 0usize..SEEDS.len(),
        pool in 1usize..=16,
    ) {
        let seed = SEEDS[seed_idx];
        let grid = ScenarioGrid::for_trace(trace(seed), &MUS);
        let sup = SupervisorOptions {
            faults: BatchFaultPlan::new().with_fault(1, ScenarioFault {
                point: FaultPoint::Solve,
                mode: FaultMode::Panic,
                fails_before: usize::MAX,
            }),
            ..SupervisorOptions::default()
        };
        let report = BatchRunner::with_options(options(PoolSize::Fixed(pool), FailurePolicy::Skip))
            .run_supervised(&grid, &grid.scenarios(), &sup)
            .expect("supervised run")
            .into_report()
            .expect("completes");
        let mut out = String::new();
        for (i, record) in report.records.iter().enumerate() {
            if i == 1 {
                let f = record.failure().expect("scenario 1 quarantined");
                prop_assert_eq!(f.kind, FailureKind::Panic);
                prop_assert!(f.message.contains("injected fault"), "{}", f.message);
                // Splice in the reference line so the remaining lines
                // line up with the serial sweep.
                let mut ctx = RoundContext::new({
                    let mut config = EngineConfig::for_trace(trace(seed));
                    config.design.params.mu = MUS[1];
                    config
                });
                Engine::new()
                    .run_to(&mut ctx, StageKind::ConstructContracts)
                    .expect("engine design");
                encode(&mut out, ctx.design().expect("design ran"));
            } else {
                encode(&mut out, &record.outcome().expect("sibling ok").design);
            }
        }
        prop_assert_eq!(out.as_str(), reference(seed_idx));
        prop_assert_eq!(report.quarantine.len(), 1);
        prop_assert_eq!(report.quarantine.entries[0].scenario, 1);
    }
}
