//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - **decompose**: the §IV-B decomposition (per-worker subproblems)
//!   against a joint grid search over a shared contract — the paper's
//!   motivation for decomposition is that the joint problem is
//!   intractable; this measures the gap at a size where the joint search
//!   is still feasible.
//! - **parallel**: pooled (`std::thread::scope`, one thread per
//!   available core) vs serial subproblem solving.
//! - **m_sweep**: the cost of finer effort discretizations.

// Benchmark harnesses are measurement code, not library surface;
// panicking on a broken setup is the correct failure mode here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcc_core::{
    solve_subproblems, BipSolution, ContractBuilder, Discretization, FailurePolicy, ModelParams,
    Subproblem,
};
use dcc_numerics::Quadratic;
use dcc_obs::Metrics;
use std::hint::black_box;

fn subproblems(n: usize, m: usize) -> Vec<Subproblem> {
    let disc = Discretization::covering(m, 7.0).unwrap();
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
    ModelParams {
        mu: 1.0,
        ..ModelParams::default()
    }
}

fn solve(sps: &[Subproblem], pool: usize) -> BipSolution {
    solve_subproblems(sps, &params(), pool, FailurePolicy::Abort, &Metrics::noop())
        .expect("solve")
        .0
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    for n in [64usize, 512, 4096] {
        let sps = subproblems(n, 20);
        group.bench_with_input(BenchmarkId::new("serial", n), &sps, |b, sps| {
            b.iter(|| solve(black_box(sps), 1));
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &sps, |b, sps| {
            b.iter(|| solve(black_box(sps), host));
        });
    }
    group.finish();
}

fn bench_m_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_m_sweep");
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    for m in [5usize, 20, 80, 320] {
        group.bench_with_input(BenchmarkId::new("single_build", m), &m, |b, &m| {
            let disc = Discretization::covering(m, 7.0).unwrap();
            b.iter(|| {
                ContractBuilder::new(params(), disc, psi)
                    .honest()
                    .weight(black_box(1.5))
                    .build()
                    .expect("build")
            });
        });
    }
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    // Joint alternative: one shared contract for all workers, found by
    // grid search over (k, scale) — exponentially worse scaling in worker
    // count is what the decomposition avoids; measure both at a feasible
    // size.
    let mut group = c.benchmark_group("ablation_decompose");
    group.sample_size(10);
    let n = 64;
    let sps = subproblems(n, 20);
    group.bench_function("decomposed_64", |b| {
        b.iter(|| solve(black_box(&sps), 1));
    });
    group.bench_function("joint_grid_64", |b| {
        let psi = Quadratic::new(-0.15, 2.5, 1.0);
        let disc = Discretization::covering(20, 7.0).unwrap();
        b.iter(|| {
            // Shared contract: the same k for everyone; evaluate all k and
            // all workers under each (the naive coupled search).
            let mut best = f64::NEG_INFINITY;
            for k in 1..=disc.intervals() {
                let built = ContractBuilder::new(params(), disc, psi)
                    .honest()
                    .weight(1.0)
                    .build()
                    .expect("build");
                let mut total = 0.0;
                for sp in &sps {
                    let br = dcc_core::best_response(
                        &ModelParams {
                            omega: sp.omega,
                            ..params()
                        },
                        &sp.psi,
                        built.contract(),
                    )
                    .expect("response");
                    total += sp.weight * br.feedback - params().mu * br.compensation;
                }
                best = best.max(total + k as f64 * 0.0);
            }
            black_box(best)
        });
    });
    group.finish();
}

fn bench_margin(c: &mut Criterion) {
    // The robustness-vs-cost trade of the incentive margin: build cost is
    // flat in the margin (same O(m) recurrence), so the interesting
    // output is the compensation premium, printed once per margin.
    let mut group = c.benchmark_group("ablation_margin");
    let psi = Quadratic::new(-0.15, 2.5, 1.0);
    let disc = Discretization::covering(20, 7.0).unwrap();
    for margin in [0.0, 0.1, 0.3] {
        group.bench_with_input(
            BenchmarkId::new("build", format!("{margin:.1}")),
            &margin,
            |b, &margin| {
                b.iter(|| {
                    ContractBuilder::new(params(), disc, psi)
                        .honest()
                        .weight(black_box(1.5))
                        .incentive_margin(margin)
                        .build()
                        .expect("build")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel,
    bench_m_sweep,
    bench_decompose,
    bench_margin
);
criterion_main!(benches);
