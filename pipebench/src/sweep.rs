//! `sweep-perworker`: one `BatchRunner::run` over 24 scenarios on the
//! 1× trace — μ {2.0, 1.5, 1.2, 1.0} × budget {0.5, 1.0} × {dynamic,
//! exclude, fixed} — each simulating 20 rounds with per-worker effort
//! fits for workers with at least 3 reviews.
//!
//! Solve and construct go through the batch memo (4 solve misses, 20
//! hits) and simulate runs in all 24 scenarios. Per-worker fits leave
//! one (ω, ψ, Δ) key per worker, so work shared per key is absent here.

use crate::common::{
    ctx, distinct_keys, list_secs, max, median, nproc, overhead_pct, paper_times, repeat_passes,
    repeat_setup, BenchError, Report, Timer, WorkDir,
};
use crate::design::write_trace;
use dcc_batch::{BatchOptions, BatchReport, BatchRunner, CacheStats, MemoStats, ScenarioGrid};
use dcc_core::FailurePolicy;
use dcc_engine::{PoolSize, TraceSource};
use dcc_obs::{AttrValue, Metrics, Recorder};
use dcc_trace::SyntheticConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The grid's μ axis.
pub const MUS: [f64; 4] = [2.0, 1.5, 1.2, 1.0];

/// Writes `config`'s trace as a columnar file and a `dcc-batch/1` grid
/// over it; returns the grid path.
pub fn write_inputs(dir: &WorkDir, config: &SyntheticConfig) -> Result<PathBuf, BenchError> {
    let trace = write_trace(dir, "trace.col", config)?;
    let trace_path = trace.path.to_str().ok_or("work dir path is not UTF-8")?;
    let mus: Vec<String> = MUS.iter().map(|m| format!("{m:?}")).collect();
    let grid = format!(
        r#"{{"schema": "dcc-batch/1",
 "traces": [{{"col": "{trace_path}", "label": "paper-1x"}}],
 "mus": [{}],
 "budget_fractions": [0.5, 1.0],
 "strategies": ["dynamic", "exclude", "fixed:0.75"],
 "sim": {{"rounds": 20}},
 "design": {{"per_worker_fit_min_reviews": 3}}}}
"#,
        mus.join(", ")
    );
    let path = dir.file("grid.json");
    std::fs::write(&path, grid).map_err(ctx("write grid"))?;
    Ok(path)
}

/// Reads and parses the grid.
pub fn read_grid(path: &Path) -> Result<ScenarioGrid, BenchError> {
    let text = std::fs::read_to_string(path).map_err(ctx("read grid"))?;
    ScenarioGrid::parse(&text).map_err(ctx("parse grid"))
}

/// Keeps the duration of every `batch.scenario` span the runner
/// records; ignores everything else.
#[derive(Debug, Default)]
struct ScenarioSpans {
    open: Mutex<Vec<bool>>,
    elapsed: Mutex<Vec<Duration>>,
}

impl Recorder for ScenarioSpans {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str, _attrs: &[(&'static str, AttrValue)]) -> u64 {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        open.push(name == dcc_obs::names::SPAN_BATCH_SCENARIO);
        open.len() as u64 - 1
    }

    fn span_end(&self, id: u64, elapsed: Duration) {
        let open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        if open.get(id as usize).copied().unwrap_or(false) {
            self.elapsed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(elapsed);
        }
    }

    fn event(&self, _name: &str, _attrs: &[(&'static str, AttrValue)]) {}
    fn add(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
}

/// What one batch run produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of `BatchRunner::run`.
    pub secs: f64,
    /// The merged report.
    pub report: BatchReport,
}

/// Runs the grid on a cold memo.
pub fn run_pass(grid: &ScenarioGrid, pool: usize, metrics: Metrics) -> Result<Pass, BenchError> {
    let runner = BatchRunner::with_options(BatchOptions {
        pool: PoolSize::Fixed(pool),
        policy: FailurePolicy::Skip,
        metrics,
    });
    let timer = Timer::started();
    let report = runner.run(grid).map_err(ctx("batch run"))?;
    Ok(Pass {
        secs: timer.secs(),
        report,
    })
}

/// The memo accounting a cold run of `grid` must report: each trace,
/// detection and fit computed once per trace, each solve once per
/// (trace, μ), everything else a hit.
pub fn expected_stats(grid: &ScenarioGrid) -> MemoStats {
    let traces = grid.traces.len() as u64;
    let scenarios = grid.scenarios().len() as u64;
    let solves = traces * grid.mus.len() as u64;
    let per_scenario = CacheStats {
        hits: scenarios - traces,
        misses: traces,
    };
    MemoStats {
        trace: CacheStats {
            hits: 0,
            misses: traces,
        },
        detect: per_scenario,
        fit: per_scenario,
        solve: CacheStats {
            hits: scenarios - solves,
            misses: solves,
        },
    }
}

/// Counts a pass's scenarios and checks its accounting.
fn check_pass(report: &mut Report, pass: &Pass, expected: &MemoStats) {
    let batch = &pass.report;
    let failed = batch.failed() + batch.quarantine.len();
    report.ops(batch.records.len() as u64, failed as u64);
    report.check(batch.stats == *expected, "MemoStats are exact");
    report.check(batch.quarantine.is_empty(), "no scenario is quarantined");
    let simulated = batch
        .records
        .iter()
        .all(|r| r.outcome().is_some_and(|o| o.sim.is_some()));
    report.check(simulated, "every scenario simulated");
}

/// The `MemoStats` counters under their metric names.
pub fn memo_metrics(stats: &MemoStats) -> [(&'static str, f64); 8] {
    let c = |s: &CacheStats| (s.hits as f64, s.misses as f64);
    let (trace, detect, fit, solve) = (
        c(&stats.trace),
        c(&stats.detect),
        c(&stats.fit),
        c(&stats.solve),
    );
    [
        ("batch.memo.trace.hits", trace.0),
        ("batch.memo.trace.misses", trace.1),
        ("batch.memo.detect.hits", detect.0),
        ("batch.memo.detect.misses", detect.1),
        ("batch.memo.fit.hits", fit.0),
        ("batch.memo.fit.misses", fit.1),
        ("batch.memo.solve.hits", solve.0),
        ("batch.memo.solve.misses", solve.1),
    ]
}

/// Distinct (ω, ψ, Δ) keys of the grid's per-worker-fit decomposition.
pub fn sweep_distinct_keys(grid: &ScenarioGrid) -> Result<usize, BenchError> {
    let trace = match &grid.traces[0].source {
        TraceSource::Columnar(path) => dcc_trace::read_trace_columnar(path)
            .and_then(|col| col.to_dataset())
            .map_err(ctx("read trace"))?,
        _ => return Err("the sweep grid must name a columnar trace".into()),
    };
    let detection = dcc_detect::run_pipeline(&trace, grid.pipeline);
    let prep = dcc_core::prepare_design(&trace, &detection, &grid.design)
        .map_err(ctx("prepare design"))?;
    Ok(distinct_keys(&prep))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, BenchError> {
    let pool = nproc();
    let dir = WorkDir::new("sweep-perworker")?;
    let config = paper_times(1, seed);
    let (path, setup_s) = repeat_setup(|| write_inputs(&dir, &config))?;
    let grid = read_grid(&path)?;
    let expected = expected_stats(&grid);
    let scenarios = grid.scenarios().len();
    let mut report = Report::default();
    report.note(format!(
        "sweep-perworker: {scenarios} scenarios, pool {pool}"
    ));

    if !traced {
        let passes = repeat_passes(seconds, || {
            let pass = run_pass(&grid, pool, Metrics::noop())?;
            check_pass(&mut report, &pass, &expected);
            Ok(pass.secs)
        })?;
        let sweep_s = median(&passes.results);
        let scenarios_per_s = scenarios as f64 / sweep_s;
        report.note(format!("passes {}", list_secs(&passes.results)));
        report.note(format!(
            "sweep {sweep_s:.4} s, scenarios_per_s = {scenarios_per_s:.4} 1/s"
        ));
        report.note(format!("failed_ratio = {}", report.failed_ratio()));
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mib", passes.peak_rss_mib, "MiB");
        report.metric("op_s", sweep_s, "s");
        report.metric("items_per_s", scenarios_per_s, "1/s");
        return Ok(report);
    }

    let plain = run_pass(&grid, pool, Metrics::noop())?;
    check_pass(&mut report, &plain, &expected);
    let plain_secs = plain.secs;
    drop(plain);
    let spans = Arc::new(ScenarioSpans::default());
    let pass = run_pass(&grid, pool, Metrics::new(spans.clone()))?;
    check_pass(&mut report, &pass, &expected);
    let scenario_ms: Vec<f64> = spans
        .elapsed
        .lock()
        .map_err(ctx("span log"))?
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    report.check(
        scenario_ms.len() == scenarios,
        "one batch.scenario span per scenario",
    );
    for (name, value) in memo_metrics(&pass.report.stats) {
        report.metric(name, value, "count");
    }
    report.metric("batch.scenario_ms.p50", median(&scenario_ms), "ms");
    report.metric("batch.scenario_ms.max", max(&scenario_ms), "ms");
    let busy = scenario_ms.iter().sum::<f64>() / (pool as f64 * pass.secs * 1e3);
    report.metric("batch.pool_busy", busy, "ratio");
    report.metric(
        "fit.distinct_keys",
        sweep_distinct_keys(&grid)? as f64,
        "count",
    );
    report.metric(
        "tracing_overhead_pct",
        overhead_pct(plain_secs, pass.secs),
        "%",
    );
    report.note(format!(
        "sweep untraced {:.4} s, traced {:.4} s",
        plain_secs, pass.secs
    ));
    Ok(report)
}
