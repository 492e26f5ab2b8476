//! Command-line entry point:
//!
//! ```text
//! dcc-pipebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints human-readable lines, then one JSON result line with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits 1 on an error
//! or a failed output check, 2 on a usage error.

use dcc_pipebench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use dcc_pipebench::common::Report;
use dcc_pipebench::{design, restore, serve, sweep};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a nonnegative number".into());
    }
    Ok(args)
}

/// Puts the reported metrics into the published order; a per-layer
/// metric of a layer the workload does not exercise reads 0.
fn publish(report: &mut Report, traced: bool) -> Result<(), String> {
    let published: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    if let Some((name, ..)) = report
        .metrics
        .iter()
        .find(|m| !published.iter().any(|p| p.0 == m.0))
    {
        return Err(format!("workload reported unpublished metric {name}"));
    }
    let mut ordered = Vec::with_capacity(published.len());
    for &(name, unit) in published {
        match report.metrics.iter().find(|m| m.0 == name) {
            Some(m) if m.2 != unit => {
                return Err(format!("{name} reported in {} instead of {unit}", m.2))
            }
            // A NaN or infinity is not a JSON number.
            Some(m) if !m.1.is_finite() => return Err(format!("{name} is {}", m.1)),
            Some(m) => ordered.push(m.clone()),
            None if traced => ordered.push((name.to_string(), 0.0, unit)),
            None => return Err(format!("workload did not report {name}")),
        }
    }
    report.metrics = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dcc-pipebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "design-4x" => design::run,
        "serve-replay" => serve::run,
        "sweep-perworker" => sweep::run,
        _ => restore::run,
    };
    let mut report = match run(args.seed, args.seconds, args.traced) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = publish(&mut report, args.traced) {
        eprintln!("error: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
