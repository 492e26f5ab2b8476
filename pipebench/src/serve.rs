//! `serve-replay`: the paper-scale event stream (≈218k events, 24
//! rounds) fed as JSON lines into one `ServeService`, closed loop — one
//! caller waits for each `apply`, like `dcc serve --events -`. No
//! checkpoints are taken.
//!
//! This is steady-state incremental serving, and the workload that
//! bypasses the checkpoint layer.

use crate::common::{
    ctx, distinct_keys, list_secs, max, median, nproc, overhead_pct, paper_times, quantile,
    repeat_passes, repeat_setup, write_event_lines, BenchError, Report, Timer, WorkDir,
};
use dcc_core::DesignConfig;
use dcc_detect::PipelineConfig;
use dcc_obs::Metrics;
use dcc_serve::{
    design_digest, events_from_trace, fold_digest, RoundOutput, ServeEvent, ServeService,
    ServeStats,
};
use dcc_trace::SyntheticConfig;
use std::path::{Path, PathBuf};

/// Generates `config`'s trace, linearises it into serve events and
/// writes them as JSON lines to `dir/name`.
pub fn write_events(
    dir: &WorkDir,
    name: &str,
    config: &SyntheticConfig,
) -> Result<PathBuf, BenchError> {
    let events = events_from_trace(&config.generate());
    let path = dir.file(name);
    write_event_lines(&path, &events)?;
    Ok(path)
}

/// Reads an event-lines file back.
pub fn read_lines(path: &Path) -> Result<Vec<String>, BenchError> {
    let text = std::fs::read_to_string(path).map_err(ctx("read event lines"))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// A fresh service with the default configuration.
pub fn new_service(pool: usize) -> Result<ServeService, BenchError> {
    ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        pool,
        false,
        Metrics::noop(),
    )
    .map_err(ctx("create service"))
}

/// What one replay produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the whole replay.
    pub secs: f64,
    /// Wall time of each round-boundary `apply`, in ms.
    pub round_ms: Vec<f64>,
    /// Summed `ServeEvent::parse_line` time in ms (traced passes only).
    pub parse_ms: f64,
    /// `apply` time of every other event in µs (traced passes only).
    pub apply_us: Vec<f64>,
    /// Lines that failed to parse or apply.
    pub rejected: usize,
    /// Folded digest of the last round's design, if it succeeded.
    pub last_digest: Option<u64>,
    /// The service after the replay.
    pub service: ServeService,
}

/// Feeds every line through `parse_line` and `apply`, waiting for each,
/// and times every round-boundary `apply`. A traced pass also times
/// each `parse_line` and each other `apply`.
pub fn replay(lines: &[String], pool: usize, traced: bool) -> Result<Pass, BenchError> {
    let mut service = new_service(pool)?;
    let mut round_ms = Vec::new();
    let mut parse_ms = 0.0;
    let mut apply_us = Vec::with_capacity(if traced { lines.len() } else { 0 });
    let mut rejected = 0;
    let mut last_round = None;
    let start = Timer::started();
    for line in lines {
        let parse_start = traced.then(Timer::started);
        let Ok(event) = ServeEvent::parse_line(line) else {
            rejected += 1;
            continue;
        };
        if let Some(t) = parse_start {
            parse_ms += t.ms();
        }
        let is_round = matches!(event, ServeEvent::Round);
        let apply_start = (traced || is_round).then(Timer::started);
        let result = service.apply(&event);
        let elapsed_ms = apply_start.map(Timer::ms);
        match result {
            Ok(Some(out)) => {
                round_ms.extend(elapsed_ms);
                last_round = Some(out);
            }
            Ok(None) => apply_us.extend(elapsed_ms.map(|t| t * 1e3)),
            Err(_) => rejected += 1,
        }
    }
    let secs = start.secs();
    let last_digest = last_round.and_then(round_digest);
    Ok(Pass {
        secs,
        round_ms,
        parse_ms,
        apply_us,
        rejected,
        last_digest,
        service,
    })
}

/// Folded digest of a round's design, if it succeeded. Kept apart from
/// the timers so that no clock reading is in scope of the digest.
fn round_digest(out: RoundOutput) -> Option<u64> {
    out.design
        .ok()
        .map(|design| fold_digest(&design_digest(&design)))
}

/// Counts a pass's events and checks the final design against a cold
/// batch recompute over the same trace.
fn check_pass(report: &mut Report, pass: &Pass, lines: usize) -> Result<(), BenchError> {
    report.ops(lines as u64, pass.rejected as u64);
    let cold = pass
        .service
        .state()
        .cold_design()
        .map_err(ctx("cold design"))?;
    report.check(
        pass.last_digest == Some(fold_digest(&design_digest(&cold))),
        "final round design equals ServeState::cold_design",
    );
    Ok(())
}

/// The `ServeStats` counters under their metric names.
pub fn stats_metrics(stats: &ServeStats) -> [(&'static str, f64); 7] {
    [
        ("serve.solve_resolved", stats.solve_resolved as f64),
        ("serve.solve_reused", stats.solve_reused as f64),
        (
            "serve.incremental_base",
            (stats.solve_resolved + stats.solve_reused) as f64,
        ),
        ("serve.fit_refits", stats.fit_refits as f64),
        ("serve.fit_reused", stats.fit_reused as f64),
        ("serve.dirty_workers", stats.dirty_workers as f64),
        ("serve.dirty_products", stats.dirty_products as f64),
    ]
}

/// Distinct (ω, ψ, Δ) keys of the cold design over the service's trace.
pub fn serve_distinct_keys(service: &ServeService) -> Result<usize, BenchError> {
    let state = service.state();
    let detection = state.cold_detection();
    let prep = dcc_core::prepare_design(state.trace(), &detection, state.design_config())
        .map_err(ctx("prepare design"))?;
    Ok(distinct_keys(&prep))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, BenchError> {
    let pool = nproc();
    let dir = WorkDir::new("serve-replay")?;
    let config = paper_times(1, seed);
    let (path, setup_s) = repeat_setup(|| write_events(&dir, "events.jsonl", &config))?;
    let lines = read_lines(&path)?;
    let mut report = Report::default();
    report.note(format!("serve-replay: {} events, pool {pool}", lines.len()));

    if !traced {
        let mut rounds = Vec::new();
        let mut first_digest = None;
        let passes = repeat_passes(seconds, || {
            let pass = replay(&lines, pool, false)?;
            // The cold recompute takes seconds, so it checks the first
            // pass only; every later pass must repeat that digest.
            match first_digest {
                None => {
                    check_pass(&mut report, &pass, lines.len())?;
                    first_digest = Some(pass.last_digest);
                }
                Some(first) => {
                    report.ops(lines.len() as u64, pass.rejected as u64);
                    report.check(
                        pass.last_digest == first,
                        "final round design repeats across passes",
                    );
                }
            }
            rounds.extend_from_slice(&pass.round_ms);
            Ok(pass.secs)
        })?;
        let replay_s = median(&passes.results);
        let events_per_s = lines.len() as f64 / replay_s;
        report.note(format!("passes {}", list_secs(&passes.results)));
        report.note(format!("replay {replay_s:.4} s"));
        report.note(format!("events_per_s = {events_per_s:.1} 1/s"));
        report.note(format!(
            "round_p50_ms = {:.3} ms (n = {})",
            median(&rounds),
            rounds.len()
        ));
        report.note(format!("failed_ratio = {}", report.failed_ratio()));
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mib", passes.peak_rss_mib, "MiB");
        report.metric("op_s", replay_s, "s");
        report.metric("items_per_s", events_per_s, "1/s");
        return Ok(report);
    }

    let plain = replay(&lines, pool, false)?;
    check_pass(&mut report, &plain, lines.len())?;
    let plain_secs = plain.secs;
    drop(plain);
    let pass = replay(&lines, pool, true)?;
    check_pass(&mut report, &pass, lines.len())?;
    let stats = pass.service.stats();
    report.metric("serve.parse_ms", pass.parse_ms, "ms");
    report.metric("serve.apply_us.p50", median(&pass.apply_us), "us");
    report.metric("serve.apply_us.p99", quantile(&pass.apply_us, 0.99), "us");
    report.metric(
        "serve.round0_ms",
        pass.round_ms.first().copied().unwrap_or(0.0),
        "ms",
    );
    report.metric("serve.round_ms.p50", median(&pass.round_ms), "ms");
    report.metric("serve.round_ms.max", max(&pass.round_ms), "ms");
    for (name, value) in stats_metrics(&stats) {
        report.metric(name, value, "count");
    }
    report.metric(
        "serve.incremental_ratio",
        stats.incremental_ratio(),
        "ratio",
    );
    report.metric(
        "fit.distinct_keys",
        serve_distinct_keys(&pass.service)? as f64,
        "count",
    );
    report.metric(
        "tracing_overhead_pct",
        overhead_pct(plain_secs, pass.secs),
        "%",
    );
    report.note(format!(
        "replay untraced {:.4} s, traced {:.4} s; {} non-round applies timed",
        plain_secs,
        pass.secs,
        pass.apply_us.len()
    ));
    Ok(report)
}
