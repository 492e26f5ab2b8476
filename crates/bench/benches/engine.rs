//! Engine bench: sequential vs pooled subproblem solving, and the value
//! of the engine's stage cache on a μ sweep.
//!
//! The pooled solve is required to be **bit-identical** to the
//! sequential one (see `dcc-engine`'s property tests), so the only
//! question this bench answers is wall-clock cost. Besides the criterion
//! groups, `main` prints a direct speedup report for `make engine-bench`;
//! on a single-CPU host the pool degenerates to the sequential path and
//! the honest answer is ~1.0×, which the report states rather than hides.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use criterion::{criterion_group, BenchmarkId, Criterion};
use dcc_core::{
    solve_subproblems, BuiltContract, ContractBuilder, DesignConfig, FailurePolicy, ModelParams,
    Subproblem,
};
use dcc_engine::{Engine, EngineConfig, RoundContext, StageKind};
use dcc_numerics::Quadratic;
use dcc_obs::{JsonRecorder, Metrics};
use dcc_trace::{SyntheticConfig, TraceDataset};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Pool scales the ISSUE calls for: sequential, one-socket, oversubscribed.
const POOLS: [usize; 3] = [1, 4, 16];

fn trace() -> TraceDataset {
    SyntheticConfig::small(2024).generate()
}

/// A design config with a fine effort grid, so each subproblem carries
/// enough solve work for the pool split to be measurable.
fn design_config() -> DesignConfig {
    DesignConfig {
        intervals: 80,
        ..DesignConfig::default()
    }
}

fn prepared_context(trace: &TraceDataset) -> RoundContext {
    let mut config = EngineConfig::for_trace(trace.clone());
    config.design = design_config();
    let mut ctx = RoundContext::new(config);
    Engine::new()
        .run_to(&mut ctx, StageKind::FitEffort)
        .expect("fit stage succeeds on a synthetic trace");
    ctx
}

/// Synthetic subproblems for the scale sweep, mirroring the shape the
/// fit stage produces without paying detection cost at every size.
fn synthetic_subproblems(n: usize, m: usize) -> Vec<Subproblem> {
    let disc = dcc_core::Discretization::covering(m, 7.0).unwrap();
    (0..n)
        .map(|i| Subproblem {
            id: i,
            members: vec![i],
            omega: if i % 4 == 0 { 0.5 } else { 0.0 },
            weight: 0.3 + (i % 7) as f64 * 0.5,
            psi: Quadratic::new(-0.15, 2.5, 1.0),
            disc,
        })
        .collect()
}

fn params() -> ModelParams {
    design_config().params
}

/// Unrecorded solve at `pool` under `FailurePolicy::Abort`.
fn solve(sps: &[Subproblem], params: &ModelParams, pool: usize) -> dcc_core::BipSolution {
    solve_subproblems(sps, params, pool, FailurePolicy::Abort, &Metrics::noop())
        .expect("solve")
        .0
}

/// The bare §IV-C builder chain over every subproblem, with no fan-out,
/// no result assembly and no recorder: the floor the overhead gate
/// measures `solve_subproblems` against.
fn bare_builder_loop(sps: &[Subproblem], params: &ModelParams) -> Vec<BuiltContract> {
    sps.iter()
        .map(|sp| {
            ContractBuilder::new(*params, sp.disc, sp.psi)
                .malicious(sp.omega)
                .weight(sp.weight)
                .build()
                .expect("build")
        })
        .collect()
}

fn bench_pooled_solve(c: &mut Criterion) {
    let trace = trace();
    let ctx = prepared_context(&trace);
    let sps = ctx.prep().expect("prep stage ran").subproblems.clone();
    let params = params();

    let mut group = c.benchmark_group("engine_solve_trace");
    group.sample_size(10);
    for pool in POOLS {
        group.bench_with_input(BenchmarkId::new("pool", pool), &pool, |b, &pool| {
            b.iter(|| solve(black_box(&sps), &params, pool));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("engine_solve_scale");
    group.sample_size(10);
    for n in [256usize, 2048] {
        let sps = synthetic_subproblems(n, 80);
        for pool in POOLS {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}_pool"), pool),
                &pool,
                |b, &pool| {
                    b.iter(|| solve(black_box(&sps), &params, pool));
                },
            );
        }
    }
    group.finish();
}

fn bench_stage_cache(c: &mut Criterion) {
    let trace = trace();
    let engine = Engine::new();
    let mut group = c.benchmark_group("engine_cache");
    group.sample_size(10);

    // Cold: every μ rebuilds the context, so detection and ψ-fits rerun.
    group.bench_function("mu_sweep_cold", |b| {
        b.iter(|| {
            for mu in [1.0, 1.5, 2.0] {
                let mut config = EngineConfig::for_trace(trace.clone());
                config.design = design_config();
                config.design.params.mu = mu;
                let mut ctx = RoundContext::new(config);
                engine
                    .run_to(&mut ctx, StageKind::ConstructContracts)
                    .expect("design");
                black_box(ctx.design().unwrap().total_requester_utility);
            }
        });
    });

    // Warm: one context; μ invalidates solve-onward only.
    group.bench_function("mu_sweep_warm", |b| {
        b.iter(|| {
            let mut ctx = prepared_context(&trace);
            for mu in [1.0, 1.5, 2.0] {
                ctx.set_mu(mu);
                engine
                    .run_to(&mut ctx, StageKind::ConstructContracts)
                    .expect("design");
                black_box(ctx.design().unwrap().total_requester_utility);
            }
        });
    });
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let sps = synthetic_subproblems(256, 80);
    let params = params();
    let mut group = c.benchmark_group("engine_obs");
    group.sample_size(10);
    group.bench_function("bare_builder_loop", |b| {
        b.iter(|| bare_builder_loop(black_box(&sps), &params));
    });
    group.bench_function("solve_noop_recorder", |b| {
        b.iter(|| solve(black_box(&sps), &params, 1));
    });
    group.bench_function("solve_json_recorder", |b| {
        b.iter(|| {
            let metrics = Metrics::new(Arc::new(JsonRecorder::new()));
            solve_subproblems(black_box(&sps), &params, 1, FailurePolicy::Abort, &metrics)
                .expect("solve")
        });
    });
    group.finish();
}

criterion_group!(
    engine_benches,
    bench_pooled_solve,
    bench_stage_cache,
    bench_obs_overhead
);

/// Times `f` over `reps` runs and returns the best (least noisy) run.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The direct speedup report consumed by `make engine-bench`.
fn speedup_report() {
    let sps = synthetic_subproblems(2048, 80);
    let params = params();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n== pooled solve speedup (2048 subproblems, m=80, {host} CPU(s) visible) ==");

    let seq = best_secs(3, || {
        black_box(solve(&sps, &params, 1));
    });
    let reference = solve(&sps, &params, 1);
    println!("pool=1 (sequential): {:.3}s", seq);

    for pool in [4usize, 16] {
        let pooled = best_secs(3, || {
            black_box(solve(&sps, &params, pool));
        });
        let out = solve(&sps, &params, pool);
        let identical = out
            .solutions
            .iter()
            .zip(&reference.solutions)
            .all(|(a, b)| {
                a.built.requester_utility().to_bits() == b.built.requester_utility().to_bits()
            });
        println!(
            "speedup at pool={pool}: {:.2}x ({:.3}s, bit-identical to sequential: {identical})",
            seq / pooled,
            pooled
        );
    }
    if host == 1 {
        println!("note: only 1 CPU visible — pooled threads serialize, expect ~1.0x here.");
    }
}

/// The disabled-recorder overhead gate: `solve_subproblems` with a
/// `NoopRecorder` at pool 1 must cost the same as a bare loop of the
/// same `ContractBuilder` chain (it branches once on `Metrics::enabled`,
/// and at pool 1 the fan-out runs on the calling thread), so any
/// regression beyond noise means instrumentation or fan-out overhead
/// leaked into the hot path. Panics — and thereby fails
/// `make engine-bench` — above 2%.
fn obs_overhead_report() {
    let sps = synthetic_subproblems(2048, 80);
    let params = params();
    println!("\n== observability overhead (2048 subproblems, m=80, pool=1) ==");

    let bare = best_secs(5, || {
        black_box(bare_builder_loop(&sps, &params));
    });
    let with_noop = best_secs(5, || {
        black_box(solve(&sps, &params, 1));
    });
    let with_json = best_secs(5, || {
        let metrics = Metrics::new(Arc::new(JsonRecorder::new()));
        black_box(
            solve_subproblems(&sps, &params, 1, FailurePolicy::Abort, &metrics).expect("solve"),
        );
    });

    let overhead_pct = 100.0 * (with_noop / bare - 1.0);
    println!("bare builder loop:    {bare:.3}s");
    println!("noop recorder:        {with_noop:.3}s ({overhead_pct:+.2}% vs bare)");
    println!(
        "json recorder:        {with_json:.3}s ({:+.2}% vs bare)",
        100.0 * (with_json / bare - 1.0)
    );
    assert!(
        overhead_pct < 2.0,
        "disabled recorder must stay within 2% of the bare builder loop, measured {overhead_pct:+.2}%"
    );
    println!("noop overhead within the 2% budget");
}

fn main() {
    engine_benches();
    speedup_report();
    obs_overhead_report();
}
