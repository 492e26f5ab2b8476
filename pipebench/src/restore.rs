//! `serve-restore`: the `dcc gen --scale small` event stream (≈11k
//! events, 8 rounds) with a checkpoint after every round, as `dcc serve
//! --checkpoint` does. The service is killed at 25%, 50% and 75% of the
//! events (saving its log first, like `dcc serve --kill-at`), restored
//! with `load_checkpoint` + `ServeService::restore`, and finishes the
//! stream.
//!
//! It is the only workload that uses the checkpoint/restore layer
//! (`dcc-serve::ckpt` over `dcc_numerics::json`). The kill points stay
//! at fixed shares of the stream: moving them earlier would hide how
//! restore cost grows with the checkpoint.

use crate::common::{
    ctx, list_secs, median, nproc, overhead_pct, repeat_passes, repeat_setup, BenchError, Report,
    Timer, WorkDir,
};
use crate::serve::{new_service, read_lines, write_events};
use dcc_core::DesignConfig;
use dcc_detect::PipelineConfig;
use dcc_experiments::ExperimentScale;
use dcc_obs::Metrics;
use dcc_serve::{load_checkpoint, save_checkpoint, ServeEvent, ServeService};
use std::path::Path;

/// Where the service is killed, as shares of the event stream.
pub const KILL_SHARES: [f64; 3] = [0.25, 0.5, 0.75];

/// Metric-name suffixes of the kill points.
pub const KILL_LABELS: [&str; 3] = ["at25", "at50", "at75"];

/// Event indices at which the service is killed.
pub fn kill_points(events: usize) -> [usize; 3] {
    KILL_SHARES.map(|share| (events as f64 * share).round() as usize)
}

/// Lines fed to a live service, and what came out.
#[derive(Debug, Default)]
struct Feed {
    /// Rendered round lines.
    outputs: Vec<String>,
    /// Time of each `save_checkpoint`, in ms (traced passes only).
    save_ms: Vec<f64>,
    /// Lines that failed to parse or apply.
    rejected: usize,
}

/// Parses and applies `lines`, saving a checkpoint after every round.
fn feed(
    service: &mut ServeService,
    lines: &[String],
    ckpt: &Path,
    traced: bool,
    out: &mut Feed,
) -> Result<(), BenchError> {
    for line in lines {
        let Ok(event) = ServeEvent::parse_line(line) else {
            out.rejected += 1;
            continue;
        };
        match service.apply(&event) {
            Ok(Some(round)) => {
                out.outputs.push(ServeService::output_line(&round));
                let timer = Timer::started();
                // dcc-lint: allow(determinism-taint, reason = "the timer only measures this save; the log saved is the service's own")
                save_checkpoint(ckpt, service.log()).map_err(ctx("save checkpoint"))?;
                if traced {
                    out.save_ms.push(timer.ms());
                }
            }
            Ok(None) => {}
            Err(_) => out.rejected += 1,
        }
    }
    Ok(())
}

/// One restore after a kill.
#[derive(Debug, Clone, Copy)]
pub struct Restore {
    /// Checkpoint size in bytes.
    pub bytes: u64,
    /// `load_checkpoint` time in ms.
    pub load_ms: f64,
    /// `ServeService::restore` time in ms.
    pub apply_ms: f64,
}

/// What one killed-and-restored replay produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the whole replay, restores included.
    pub secs: f64,
    /// One entry per kill point.
    pub restores: Vec<Restore>,
    /// Summed `save_checkpoint` time in ms (traced passes only).
    pub save_ms: f64,
    /// The resumed run's output: the restored rounds re-emitted, the
    /// remaining rounds, and the summary line.
    pub outputs: Vec<String>,
    /// Lines that failed to parse or apply.
    pub rejected: usize,
}

/// The uninterrupted run with a checkpoint after every round: the
/// output the resumed runs must reproduce byte for byte.
pub fn uninterrupted(
    lines: &[String],
    pool: usize,
    ckpt: &Path,
) -> Result<Vec<String>, BenchError> {
    let _ = std::fs::remove_file(ckpt);
    let mut service = new_service(pool)?;
    let mut feed_out = Feed::default();
    feed(&mut service, lines, ckpt, false, &mut feed_out)?;
    feed_out.outputs.push(service.summary_line());
    Ok(feed_out.outputs)
}

/// Kills the service as `dcc serve --kill-at` does: saves its log to
/// `ckpt`, then loses the in-memory state.
fn kill(service: ServeService, ckpt: &Path) -> Result<(), BenchError> {
    save_checkpoint(ckpt, service.log()).map_err(ctx("save checkpoint"))
}

/// Restores a service from the checkpoint at `ckpt` with
/// `load_checkpoint` + `ServeService::restore`, timing each step.
/// Returns the service, the restored rounds' output lines and the
/// timings.
fn restore_from(
    ckpt: &Path,
    pool: usize,
) -> Result<(ServeService, Vec<String>, Restore), BenchError> {
    let bytes = std::fs::metadata(ckpt)
        .map_err(ctx("checkpoint size"))?
        .len();
    let load_start = Timer::started();
    let log = load_checkpoint(ckpt).map_err(ctx("load checkpoint"))?;
    let load_ms = load_start.ms();
    let apply_start = Timer::started();
    let (service, rounds) = ServeService::restore(
        PipelineConfig::default(),
        DesignConfig::default(),
        pool,
        false,
        Metrics::noop(),
        &log,
    )
    .map_err(ctx("restore"))?;
    let restore = Restore {
        bytes,
        load_ms,
        apply_ms: apply_start.ms(),
    };
    let outputs = rounds.iter().map(ServeService::output_line).collect();
    Ok((service, outputs, restore))
}

/// Replays `lines`, killing the service at each kill point and
/// restoring it from the last checkpoint.
pub fn killed_replay(
    lines: &[String],
    pool: usize,
    ckpt: &Path,
    traced: bool,
) -> Result<Pass, BenchError> {
    let _ = std::fs::remove_file(ckpt);
    let mut feed_out = Feed::default();
    let mut restores = Vec::with_capacity(KILL_SHARES.len());
    let start = Timer::started();
    let mut service = new_service(pool)?;
    let mut next = 0;
    for kill_at in kill_points(lines.len()) {
        feed(
            &mut service,
            &lines[next..kill_at],
            ckpt,
            traced,
            &mut feed_out,
        )?;
        kill(service, ckpt)?;
        let (restored, outputs, restore) = restore_from(ckpt, pool)?;
        restores.push(restore);
        service = restored;
        next = service.events_applied();
        feed_out.outputs = outputs;
    }
    feed(&mut service, &lines[next..], ckpt, traced, &mut feed_out)?;
    feed_out.outputs.push(service.summary_line());
    Ok(Pass {
        secs: start.secs(),
        restores,
        save_ms: feed_out.save_ms.iter().sum(),
        outputs: feed_out.outputs,
        rejected: feed_out.rejected,
    })
}

/// Feeds `lines` into a fresh service, saving after every round, and
/// kills it at the end, leaving its checkpoint at `ckpt`.
pub fn run_until_kill(lines: &[String], pool: usize, ckpt: &Path) -> Result<(), BenchError> {
    let _ = std::fs::remove_file(ckpt);
    let mut service = new_service(pool)?;
    feed(&mut service, lines, ckpt, false, &mut Feed::default())?;
    kill(service, ckpt)
}

/// One restore from `killed` (a checkpoint [`run_until_kill`] left)
/// that then finishes the stream, saving to `ckpt` after every round.
/// Returns the timings and the resumed run's output.
pub fn resume(
    lines: &[String],
    pool: usize,
    killed: &Path,
    ckpt: &Path,
) -> Result<(Restore, Vec<String>, usize), BenchError> {
    let (mut service, outputs, restore) = restore_from(killed, pool)?;
    let mut feed_out = Feed {
        outputs,
        ..Feed::default()
    };
    let next = service.events_applied();
    feed(&mut service, &lines[next..], ckpt, false, &mut feed_out)?;
    feed_out.outputs.push(service.summary_line());
    Ok((restore, feed_out.outputs, feed_out.rejected))
}

/// Load plus restore time at the last kill point, in seconds.
pub fn restore_s(pass: &Pass) -> f64 {
    pass.restores
        .last()
        .map_or(0.0, |r| (r.load_ms + r.apply_ms) / 1e3)
}

/// Counts a pass's events and restores and checks its output.
fn check_pass(report: &mut Report, pass: &Pass, lines: usize, reference: &[String]) {
    report.ops((lines + pass.restores.len()) as u64, pass.rejected as u64);
    report.check(
        pass.outputs == reference,
        "resumed output is byte-identical to the uninterrupted run",
    );
}

/// Least-squares slope of ln(load time) against ln(checkpoint bytes).
pub fn load_exponent(restores: &[Restore]) -> f64 {
    let points: Vec<(f64, f64)> = restores
        .iter()
        .map(|r| ((r.bytes as f64).ln(), r.load_ms.ln()))
        .collect();
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    sxy / sxx
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, BenchError> {
    let pool = nproc();
    let dir = WorkDir::new("serve-restore")?;
    let config = ExperimentScale::Small.trace_config(seed);
    let (path, setup_s) = repeat_setup(|| write_events(&dir, "events.jsonl", &config))?;
    let lines = read_lines(&path)?;
    let ckpt = dir.file("serve.ckpt.json");
    let mut report = Report::default();
    report.note(format!(
        "serve-restore: {} events, kills at {:?}, pool {pool}",
        lines.len(),
        kill_points(lines.len())
    ));
    let start = Timer::started();
    let reference = uninterrupted(&lines, pool, &ckpt)?;
    report.note(format!(
        "uninterrupted replay with saves {:.4} s",
        start.secs()
    ));

    if !traced {
        // Every sample restores from the same checkpoint, taken at the
        // last kill point, then finishes the stream and checks the
        // output: one restore per sample instead of a whole killed
        // replay gives more samples in a run.
        let kill_at = kill_points(lines.len())[KILL_SHARES.len() - 1];
        let killed = dir.file("killed.ckpt.json");
        run_until_kill(&lines[..kill_at], pool, &killed)?;
        let passes = repeat_passes(seconds, || {
            let (restore, outputs, rejected) = resume(&lines, pool, &killed, &ckpt)?;
            report.ops((lines.len() - kill_at + 1) as u64, rejected as u64);
            report.check(
                outputs == reference,
                "resumed output is byte-identical to the uninterrupted run",
            );
            Ok((restore.load_ms + restore.apply_ms) / 1e3)
        })?;
        let restore_s = median(&passes.results);
        let events_per_s = kill_at as f64 / restore_s;
        report.note(format!("restores {}", list_secs(&passes.results)));
        report.note(format!(
            "restore_s = {restore_s:.4} s, {events_per_s:.1} restored events/s"
        ));
        report.note(format!("failed_ratio = {}", report.failed_ratio()));
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mib", passes.peak_rss_mib, "MiB");
        report.metric("op_s", restore_s, "s");
        report.metric("items_per_s", events_per_s, "1/s");
        return Ok(report);
    }

    let plain = killed_replay(&lines, pool, &ckpt, false)?;
    check_pass(&mut report, &plain, lines.len(), &reference);
    let pass = killed_replay(&lines, pool, &ckpt, true)?;
    check_pass(&mut report, &pass, lines.len(), &reference);
    report.metric("ckpt.save_ms", pass.save_ms, "ms");
    for (label, r) in KILL_LABELS.iter().zip(&pass.restores) {
        report.metric(&format!("ckpt.bytes.{label}"), r.bytes as f64, "bytes");
    }
    for (label, r) in KILL_LABELS.iter().zip(&pass.restores) {
        report.metric(&format!("ckpt.load_ms.{label}"), r.load_ms, "ms");
    }
    let last = pass.restores.last().copied().ok_or("no restore ran")?;
    report.metric("restore.apply_ms.at75", last.apply_ms, "ms");
    report.metric("ckpt.load_exp", load_exponent(&pass.restores), "1");
    report.metric(
        "tracing_overhead_pct",
        overhead_pct(plain.secs, pass.secs),
        "%",
    );
    report.note(format!(
        "restore_s untraced {:.4} s, traced {:.4} s",
        restore_s(&plain),
        restore_s(&pass)
    ));
    Ok(report)
}
