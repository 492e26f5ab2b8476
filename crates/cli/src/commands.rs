//! Subcommand implementations. Each returns its report as a `String` so
//! the logic is unit-testable without capturing stdout.

use crate::args::ParsedArgs;
use crate::error::CliError;
use dcc_batch::{BatchError, BatchOptions, BatchRunner, ScenarioGrid};
use dcc_core::{
    CollusionProofParams, DesignConfig, FailurePolicy, ModelParams, SimulationConfig, StrategyKind,
};
use dcc_detect::{run_pipeline, PipelineConfig, SuspectSource};
use dcc_engine::{
    Engine, EngineConfig, EngineSimOutcome, PoolSize, RoundContext, SimOptions, StageKind,
    TraceSource,
};
use dcc_experiments::ExperimentScale;
use dcc_faults::{FaultPlan, FaultPlanConfig, Json};
use dcc_label::{LabelMarket, MarketConfig};
use dcc_obs::{JsonRecorder, Metrics};
use dcc_serve::{events_from_trace, ServeEvent, ServeService};
use dcc_trace::{
    read_trace_columnar, write_trace_columnar, write_trace_csv, AdversarialConfig, AdversaryPlan,
    AdversaryPlanConfig, ColumnarTrace, TraceDataset, TraceSummary, WorkerClass, COLUMNAR_VERSION,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Top-level result type for the CLI; `main` maps the error variant to
/// an exit code and never panics on user input.
pub type CliResult = Result<String, CliError>;

/// `dcc gen --seed N --scale small|paper --out DIR`
pub fn cmd_gen(args: &ParsedArgs) -> CliResult {
    let seed: u64 = args.num_flag("seed", 42)?;
    let scale = ExperimentScale::parse(&args.str_flag("scale", "small"))
        .ok_or_else(|| "flag --scale: expected small|paper".to_string())?;
    let out = args.str_flag("out", "trace_out");
    let trace = scale.generate(seed);
    write_trace_csv(&trace, Path::new(&out))
        .map_err(|e| CliError::Failed(format!("cannot write trace {out}: {e}")))?;
    Ok(format!(
        "wrote {} reviews / {} reviewers / {} products to {out}/",
        trace.reviews().len(),
        trace.reviewers().len(),
        trace.products().len()
    ))
}

/// A plain file is a `dcc-trace-col/1` columnar trace; a directory is a
/// CSV trace. Every TRACE-taking command accepts either.
fn trace_source_of(path: &str) -> TraceSource {
    if Path::new(path).is_file() {
        TraceSource::Columnar(PathBuf::from(path))
    } else {
        TraceSource::CsvDir(PathBuf::from(path))
    }
}

fn read_any_trace(path: &str) -> Result<TraceDataset, CliError> {
    Ok(trace_source_of(path).load()?)
}

fn load_trace(args: &ParsedArgs) -> Result<TraceDataset, CliError> {
    let dir = args
        .positional
        .first()
        .cloned()
        .or_else(|| args.flags.get("trace").cloned())
        .ok_or_else(|| {
            CliError::Usage("expected a trace directory (positional or --trace DIR)".into())
        })?;
    read_any_trace(&dir)
}

/// `dcc summary TRACE_DIR`
pub fn cmd_summary(args: &ParsedArgs) -> CliResult {
    let trace = load_trace(args)?;
    Ok(TraceSummary::of(&trace).to_string())
}

/// `dcc detect TRACE_DIR [--estimated THRESHOLD]`
pub fn cmd_detect(args: &ParsedArgs) -> CliResult {
    let trace = load_trace(args)?;
    let mut config = PipelineConfig::default();
    if args.bool_flag("estimated") || args.flags.contains_key("threshold") {
        config.suspects = SuspectSource::Estimated {
            threshold: args.num_flag("threshold", 0.5)?,
        };
    }
    let result = run_pipeline(&trace, config);
    let mut out = String::new();
    writeln!(
        out,
        "suspected malicious workers: {} ({} communities, {} singletons)",
        result.suspected.len(),
        result.collusion.communities.len(),
        result.collusion.singletons.len()
    )
    .ok();
    for (label, pct) in result.collusion.size_percentages() {
        writeln!(out, "  community size {label:>4}: {pct:5.1}%").ok();
    }
    for class in WorkerClass::ALL {
        let ids = trace.workers_of_class(class);
        if let Some(mean) = result.weights.mean_over(&ids) {
            writeln!(out, "mean Eq.5 weight, {class}: {mean:.4}").ok();
        }
    }
    Ok(out)
}

fn failure_policy(args: &ParsedArgs) -> Result<FailurePolicy, CliError> {
    match args.str_flag("policy", "abort").as_str() {
        "abort" => Ok(FailurePolicy::Abort),
        "fallback" => Ok(FailurePolicy::FallbackBaseline {
            amount: args.num_flag("fallback-amount", 0.5)?,
        }),
        "skip" => Ok(FailurePolicy::Skip),
        other => Err(CliError::Usage(format!(
            "flag --policy: expected abort|fallback|skip, got {other:?}"
        ))),
    }
}

fn design_config(args: &ParsedArgs) -> Result<DesignConfig, CliError> {
    Ok(DesignConfig {
        params: ModelParams {
            mu: args.num_flag("mu", 1.5)?,
            omega: args.num_flag("omega", 1.0)?,
            beta: args.num_flag("beta", 1.0)?,
            ..ModelParams::default()
        },
        intervals: args.num_flag("intervals", 20)?,
        effort_quantile: 95.0,
        per_worker_fit_min_reviews: if args.flags.contains_key("per-worker") {
            Some(args.num_flag("per-worker", 20)?)
        } else {
            None
        },
        failure_policy: failure_policy(args)?,
    })
}

/// Resolves the worker-pool size for the parallel solve: `--pool N`
/// pins an exact thread count, `--serial` forces the sequential path,
/// and otherwise the engine sizes the pool from the machine. Every
/// choice produces bit-identical contracts.
fn pool_size(args: &ParsedArgs) -> Result<PoolSize, CliError> {
    if args.flags.contains_key("pool") {
        Ok(PoolSize::Fixed(args.num_flag("pool", 1usize)?))
    } else if args.bool_flag("serial") {
        Ok(PoolSize::Sequential)
    } else {
        Ok(PoolSize::Auto)
    }
}

/// A pending `--metrics FILE` request: the recorder installed in the
/// engine context plus the path the rendered JSON document goes to once
/// the command's engine runs are over.
struct MetricsSink {
    recorder: Arc<JsonRecorder>,
    path: PathBuf,
}

impl MetricsSink {
    /// Renders the recorder and writes the metrics document, appending a
    /// confirmation line to the command's report.
    fn flush(&self, out: &mut String) -> Result<(), CliError> {
        let json = self.recorder.to_json();
        std::fs::write(&self.path, &json).map_err(|e| {
            CliError::Failed(format!("cannot write metrics {}: {e}", self.path.display()))
        })?;
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        writeln!(out, "wrote metrics to {}", self.path.display()).ok();
        Ok(())
    }
}

/// Builds the staged-engine context shared by `run`, `design`,
/// `simulate`, and `replay` from the command-line flags, plus the
/// metrics sink when `--metrics FILE` was given.
fn engine_context(args: &ParsedArgs) -> Result<(RoundContext, Option<MetricsSink>), CliError> {
    let dir = args
        .positional
        .first()
        .cloned()
        .or_else(|| args.flags.get("trace").cloned())
        .ok_or_else(|| {
            CliError::Usage("expected a trace directory (positional or --trace DIR)".into())
        })?;
    let strategy = match args.str_flag("strategy", "dynamic").as_str() {
        "dynamic" => StrategyKind::DynamicContract,
        "exclude" => StrategyKind::ExcludeMalicious,
        "fixed" => StrategyKind::FixedPayment {
            amount: args.num_flag("amount", 1.0)?,
        },
        "collusion-proof" => StrategyKind::CollusionProof {
            params: CollusionProofParams::default(),
        },
        other => {
            return Err(CliError::Usage(format!(
                "flag --strategy: unknown strategy {other:?}"
            )))
        }
    };
    let fault_plan = match args.flags.get("fault-plan") {
        Some(file) => FaultPlan::load(Path::new(file))?,
        None => FaultPlan::default(),
    };
    let kill_at = if args.flags.contains_key("kill-at") {
        Some(args.num_flag("kill-at", 0usize)?)
    } else {
        None
    };
    let mut config = EngineConfig::for_source(trace_source_of(&dir));
    config.design = design_config(args)?;
    config.pool = pool_size(args)?;
    config.strategy = strategy;
    config.sim = SimulationConfig {
        rounds: args.num_flag("rounds", 20)?,
        feedback_noise_sd: args.num_flag("noise", 0.5)?,
        seed: args.num_flag("seed", 7)?,
    };
    config.sim_options = SimOptions {
        fault_plan,
        checkpoint: args.flags.get("checkpoint").map(PathBuf::from),
        kill_at,
        resume: args.bool_flag("resume"),
    };
    let sink = args.flags.get("metrics").map(|file| {
        let recorder = Arc::new(JsonRecorder::new());
        config.metrics = Metrics::new(recorder.clone());
        MetricsSink {
            recorder,
            path: PathBuf::from(file),
        }
    });
    Ok((RoundContext::new(config), sink))
}

/// Appends the degraded-subproblem report (if any) to a command's output.
fn report_degradation(out: &mut String, degradation: &dcc_core::DegradationReport) {
    if degradation.is_empty() {
        return;
    }
    writeln!(out, "degraded subproblems: {}", degradation.len()).ok();
    for d in &degradation.degraded {
        writeln!(
            out,
            "  subproblem {} ({} workers): {}",
            d.subproblem,
            d.members.len(),
            d.reason
        )
        .ok();
    }
}

/// `dcc design TRACE_DIR [--mu F] [--omega F] [--intervals N] [--serial]
///  [--budget F]`
pub fn cmd_design(args: &ParsedArgs) -> CliResult {
    let (mut ctx, sink) = engine_context(args)?;
    Engine::new().run_to(&mut ctx, StageKind::ConstructContracts)?;
    let trace = ctx.trace()?;
    let design = ctx.design()?;
    let mut out = String::new();
    writeln!(
        out,
        "designed {} contracts; requester per-round utility {:.3}",
        design.agents.len(),
        design.total_requester_utility
    )
    .ok();
    report_degradation(&mut out, &design.degradation);
    if args.flags.contains_key("budget") {
        let budget: f64 = args.num_flag("budget", 0.0)?;
        let selection = dcc_core::select_within_budget(&design.solution, budget)?;
        writeln!(
            out,
            "budget {budget:.2}: funded {} contracts, spend {:.2}, utility {:.3}",
            selection.funded.len(),
            selection.spend,
            selection.utility
        )
        .ok();
    }
    if let Some(dump_dir) = args.flags.get("dump") {
        let path = std::path::Path::new(dump_dir);
        std::fs::create_dir_all(path)
            .map_err(|e| CliError::Failed(format!("cannot create {dump_dir}: {e}")))?;
        let mut csv = String::from("worker,k_opt,compensation,effort,knots,payments\n");
        for a in &design.agents {
            let knots: Vec<String> = a
                .contract
                .feedback_knots()
                .iter()
                .map(|v| format!("{v:.6}"))
                .collect();
            let pays: Vec<String> = a
                .contract
                .payments()
                .iter()
                .map(|v| format!("{v:.6}"))
                .collect();
            writeln!(
                csv,
                "{},{},{:.6},{:.6},{},{}",
                a.worker.index(),
                a.k_opt.map(|k| k.to_string()).unwrap_or_default(),
                a.compensation,
                a.induced_effort,
                knots.join(";"),
                pays.join(";")
            )
            .ok();
        }
        let file = path.join("contracts.csv");
        std::fs::write(&file, csv)
            .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", file.display())))?;
        writeln!(out, "wrote {} contracts to {}", design.agents.len(), file.display()).ok();
    }
    for class in WorkerClass::ALL {
        let comps = design.compensations_of(&trace.workers_of_class(class));
        if comps.is_empty() {
            continue;
        }
        let mean = comps.iter().sum::<f64>() / comps.len() as f64;
        let paid = comps.iter().filter(|&&c| c > 1e-9).count();
        writeln!(
            out,
            "  {class:<24} mean pay {mean:8.4}  paid {paid}/{}",
            comps.len()
        )
        .ok();
    }
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

/// `dcc simulate TRACE_DIR [--rounds N] [--strategy dynamic|exclude|fixed|collusion-proof]
///  [--amount F] [--noise F] [--mu F] [--fault-plan FILE]
///  [--checkpoint FILE [--kill-at N | --resume]]
///  [--policy abort|fallback|skip [--fallback-amount F]]`
///
/// With `--checkpoint` the complete simulation state is persisted after
/// every round; `--kill-at N` stops the run before round `N` (simulating
/// a crash), and `--resume` continues from the checkpoint instead of
/// starting over. Because the fault plan is deterministic in `(agent,
/// round)`, a killed-and-resumed run reproduces the uninterrupted
/// outcome bit-exactly.
pub fn cmd_simulate(args: &ParsedArgs) -> CliResult {
    let (mut ctx, sink) = engine_context(args)?;
    Engine::new().run(&mut ctx)?;
    let mut out = match ctx.sim_outcome()? {
        EngineSimOutcome::Killed {
            at_round,
            total_rounds,
            checkpoint,
        } => format!(
            "killed at round {} of {}; checkpoint saved to {} (continue with --resume)",
            at_round,
            total_rounds,
            checkpoint.display()
        ),
        EngineSimOutcome::Completed {
            outcome,
            faults_scheduled,
            faults_fired,
        } => {
            let mut out = format!(
                "strategy {:?}: mean round utility {:.3}, cumulative {:.3} over {} rounds",
                args.str_flag("strategy", "dynamic"),
                outcome.mean_round_utility,
                outcome.cumulative_requester_utility,
                outcome.rounds.len()
            );
            if *faults_scheduled > 0 {
                write!(
                    out,
                    "\nfault plan: {faults_scheduled} scheduled events, {faults_fired} fired this invocation"
                )
                .ok();
            }
            let mut degraded = String::new();
            report_degradation(&mut degraded, &ctx.design()?.degradation);
            if !degraded.is_empty() {
                out.push('\n');
                out.push_str(degraded.trim_end());
            }
            out
        }
    };
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

/// `dcc run TRACE_DIR [design flags] [simulate flags] [--pool N]` — the
/// full staged pipeline end to end (ingest, detect, fit, solve,
/// construct, simulate) with a per-stage timing report.
pub fn cmd_run(args: &ParsedArgs) -> CliResult {
    let (mut ctx, sink) = engine_context(args)?;
    let report = Engine::new().run(&mut ctx)?;
    let mut out = String::from("pipeline stages:\n");
    write!(out, "{report}").ok();
    let design = ctx.design()?;
    writeln!(
        out,
        "designed {} contracts; requester per-round utility {:.3}",
        design.agents.len(),
        design.total_requester_utility
    )
    .ok();
    report_degradation(&mut out, &design.degradation);
    match ctx.sim_outcome()? {
        EngineSimOutcome::Killed {
            at_round,
            total_rounds,
            checkpoint,
        } => {
            writeln!(
                out,
                "killed at round {} of {}; checkpoint saved to {} (continue with --resume)",
                at_round,
                total_rounds,
                checkpoint.display()
            )
            .ok();
        }
        EngineSimOutcome::Completed {
            outcome,
            faults_scheduled,
            faults_fired,
        } => {
            writeln!(
                out,
                "strategy {:?}: mean round utility {:.3}, cumulative {:.3} over {} rounds",
                args.str_flag("strategy", "dynamic"),
                outcome.mean_round_utility,
                outcome.cumulative_requester_utility,
                outcome.rounds.len()
            )
            .ok();
            if *faults_scheduled > 0 {
                writeln!(
                    out,
                    "fault plan: {faults_scheduled} scheduled events, {faults_fired} fired this invocation"
                )
                .ok();
            }
        }
    }
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

/// `dcc faults gen [--agents N --rounds N --seed N --dropout F --missing F
///  --corrupt F --nan F --delay F --out FILE]` — sample a deterministic
/// fault plan; `dcc faults show FILE` — summarize one.
pub fn cmd_faults(args: &ParsedArgs) -> CliResult {
    match args.positional.first().map(String::as_str) {
        Some("gen") => {
            let config = FaultPlanConfig {
                agents: args.num_flag("agents", 10)?,
                rounds: args.num_flag("rounds", 20)?,
                dropout_prob: args.num_flag("dropout", 0.02)?,
                max_dropout_len: args.num_flag("max-dropout-len", 3)?,
                missing_prob: args.num_flag("missing", 0.03)?,
                corrupt_prob: args.num_flag("corrupt", 0.03)?,
                nan_prob: args.num_flag("nan", 0.01)?,
                delay_prob: args.num_flag("delay", 0.03)?,
                max_delay: args.num_flag("max-delay", 3)?,
                outlier_scale: args.num_flag("outlier-scale", 10.0)?,
                seed: args.num_flag("seed", 42)?,
            };
            let plan = config.generate()?;
            let out = args.str_flag("out", "fault_plan.json");
            plan.save(Path::new(&out))?;
            Ok(format!(
                "wrote fault plan to {out}: {} events ({} dropouts, {} missing, {} corrupt, {} delays)",
                plan.len(),
                plan.dropouts.len(),
                plan.missing.len(),
                plan.corrupt.len(),
                plan.delays.len()
            ))
        }
        Some("show") => {
            let file = args.positional.get(1).ok_or_else(|| {
                CliError::Usage("usage: dcc faults show PLAN_FILE".into())
            })?;
            let plan = FaultPlan::load(Path::new(file))?;
            let mut out = format!(
                "fault plan {file}: {} events\n  dropouts: {}\n  missing feedback: {}\n  corrupted feedback: {}\n  payment delays: {}\n",
                plan.len(),
                plan.dropouts.len(),
                plan.missing.len(),
                plan.corrupt.len(),
                plan.delays.len()
            );
            for d in plan.dropouts.iter().take(10) {
                writeln!(out, "  agent {} absent rounds {}..{}", d.agent, d.from, d.until).ok();
            }
            Ok(out)
        }
        _ => Err(CliError::Usage(
            "usage: dcc faults gen [FLAGS] | dcc faults show PLAN_FILE".into(),
        )),
    }
}

/// `dcc adversary gen [--seed N --campaigns N --rounds N --split-prob F
///  --merge-prob F --sybil-prob F --max-sybils N --underreport-prob F
///  --min-factor F --out FILE]` — sample a deterministic adversary plan;
/// `dcc adversary show FILE` — summarize one; `dcc adversary apply
///  --plan FILE [--seed N --scale small|paper --out DIR]` — generate the
/// base trace and write the attacked variant as a CSV trace directory.
pub fn cmd_adversary(args: &ParsedArgs) -> CliResult {
    const USAGE: &str =
        "usage: dcc adversary gen [FLAGS] | dcc adversary show PLAN_FILE | \
         dcc adversary apply --plan PLAN_FILE [--seed N --scale small|paper --out DIR]";
    match args.positional.first().map(String::as_str) {
        Some("gen") => {
            let config = AdversaryPlanConfig {
                seed: args.num_flag("seed", 42)?,
                n_campaigns: args.num_flag("campaigns", 8)?,
                n_rounds: args.num_flag("rounds", 8)?,
                split_prob: args.num_flag("split-prob", 0.25)?,
                merge_prob: args.num_flag("merge-prob", 0.25)?,
                sybil_prob: args.num_flag("sybil-prob", 0.25)?,
                max_sybils: args.num_flag("max-sybils", 4)?,
                underreport_prob: args.num_flag("underreport-prob", 0.25)?,
                min_factor: args.num_flag("min-factor", 0.2)?,
            };
            let plan = config
                .generate()
                .map_err(|e| CliError::Failed(format!("cannot sample adversary plan: {e}")))?;
            let out = args.str_flag("out", "adversary_plan.json");
            plan.save(Path::new(&out))
                .map_err(|e| CliError::Failed(format!("cannot write plan {out}: {e}")))?;
            Ok(format!(
                "wrote adversary plan to {out}: {} events ({} sybil influxes, {} splits, {} merges, {} under-report windows)",
                plan.len(),
                plan.sybils.len(),
                plan.splits.len(),
                plan.merges.len(),
                plan.underreports.len()
            ))
        }
        Some("show") => {
            let file = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage("usage: dcc adversary show PLAN_FILE".into()))?;
            let plan = AdversaryPlan::load(Path::new(file))
                .map_err(|e| CliError::Failed(format!("cannot read plan {file}: {e}")))?;
            let mut out = format!(
                "adversary plan {file}: {} events (seed {})\n  sybil influxes: {}\n  community splits: {}\n  community merges: {}\n  under-report windows: {}\n",
                plan.len(),
                plan.seed,
                plan.sybils.len(),
                plan.splits.len(),
                plan.merges.len(),
                plan.underreports.len()
            );
            for s in plan.sybils.iter().take(10) {
                writeln!(
                    out,
                    "  {} sybils join campaign {} at round {}",
                    s.count, s.campaign, s.round
                )
                .ok();
            }
            for s in plan.splits.iter().take(10) {
                writeln!(out, "  campaign {} splits at round {}", s.campaign, s.round).ok();
            }
            for m in plan.merges.iter().take(10) {
                writeln!(
                    out,
                    "  campaigns {} and {} merge at round {}",
                    m.first, m.second, m.round
                )
                .ok();
            }
            for u in plan.underreports.iter().take(10) {
                writeln!(
                    out,
                    "  campaign {} damps feedback by {:.2} from round {}",
                    u.campaign, u.factor, u.from_round
                )
                .ok();
            }
            Ok(out)
        }
        Some("apply") => {
            let file = args
                .flags
                .get("plan")
                .cloned()
                .ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let plan = AdversaryPlan::load(Path::new(&file))
                .map_err(|e| CliError::Failed(format!("cannot read plan {file}: {e}")))?;
            let seed: u64 = args.num_flag("seed", 42)?;
            let scale = ExperimentScale::parse(&args.str_flag("scale", "small"))
                .ok_or_else(|| "flag --scale: expected small|paper".to_string())?;
            let out = args.str_flag("out", "adversarial_trace_out");
            let base = scale.trace_config(seed);
            let events = plan.len();
            let trace = AdversarialConfig { base, plan }
                .generate()
                .map_err(|e| CliError::Failed(format!("cannot apply plan {file}: {e}")))?;
            write_trace_csv(&trace, Path::new(&out))
                .map_err(|e| CliError::Failed(format!("cannot write trace {out}: {e}")))?;
            Ok(format!(
                "applied {events} adversarial events; wrote {} reviews / {} reviewers / {} products ({} campaigns) to {out}/",
                trace.reviews().len(),
                trace.reviewers().len(),
                trace.products().len(),
                trace.campaigns().len()
            ))
        }
        _ => Err(CliError::Usage(USAGE.into())),
    }
}

/// `dcc trace convert SRC DEST` — convert a CSV trace directory to a
/// `dcc-trace-col/1` columnar file, or a columnar file back to a CSV
/// directory (direction inferred from whether SRC is a file or a
/// directory); `dcc trace info FILE` — header report for a columnar
/// trace without materializing any rows.
pub fn cmd_trace(args: &ParsedArgs) -> CliResult {
    const USAGE: &str = "usage: dcc trace convert SRC DEST | dcc trace info FILE";
    match args.positional.first().map(String::as_str) {
        Some("convert") => {
            let src = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let dest = args
                .positional
                .get(2)
                .cloned()
                .or_else(|| args.flags.get("out").cloned())
                .ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let trace = read_any_trace(src)?;
            if Path::new(src).is_file() {
                write_trace_csv(&trace, Path::new(&dest))
                    .map_err(|e| CliError::Failed(format!("cannot write trace {dest}: {e}")))?;
                Ok(format!(
                    "wrote {} reviews / {} reviewers / {} products to {dest}/ (CSV)",
                    trace.reviews().len(),
                    trace.reviewers().len(),
                    trace.products().len()
                ))
            } else {
                write_trace_columnar(&trace, Path::new(&dest))
                    .map_err(|e| CliError::Failed(format!("cannot write trace {dest}: {e}")))?;
                let col = ColumnarTrace::from_dataset(&trace);
                Ok(format!(
                    "wrote {} reviews / {} reviewers / {} products to {dest} \
                     (dcc-trace-col/{COLUMNAR_VERSION}, {} bytes, checksum {:016x})",
                    trace.reviews().len(),
                    trace.reviewers().len(),
                    trace.products().len(),
                    col.as_bytes().len(),
                    col.checksum()
                ))
            }
        }
        Some("info") => {
            let file = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let col = read_trace_columnar(Path::new(file))
                .map_err(|e| CliError::Failed(format!("cannot read trace {file}: {e}")))?;
            Ok(format!(
                "{file}: dcc-trace-col/{COLUMNAR_VERSION}\n  products:  {}\n  reviewers: {}\n  reviews:   {}\n  campaigns: {}\n  bytes:     {}\n  checksum:  {:016x}\n",
                col.n_products(),
                col.n_reviewers(),
                col.n_reviews(),
                col.n_campaigns(),
                col.as_bytes().len(),
                col.checksum()
            ))
        }
        _ => Err(CliError::Usage(USAGE.into())),
    }
}

/// Validates a parsed metrics document against the `dcc-obs/1` schema
/// (see `docs/observability.md`): schema tag, spans with
/// `id`/`parent`/`name`/`attrs`/`elapsed_us`, events with
/// `name`/`attrs`, numeric counters, gauges, and histograms carrying
/// `count`/`sum`/`min`/`max`.
fn validate_metrics_doc(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field \"schema\"")?;
    if schema != dcc_obs::SCHEMA_VERSION {
        return Err(format!(
            "schema {schema:?} is not {:?}",
            dcc_obs::SCHEMA_VERSION
        ));
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing array \"spans\"")?;
    for (i, span) in spans.iter().enumerate() {
        span.get("id")
            .and_then(Json::as_idx)
            .ok_or(format!("spans[{i}]: missing numeric \"id\""))?;
        match span.get("parent") {
            Some(Json::Null) => {}
            Some(p) if p.as_idx().is_some() => {}
            _ => return Err(format!("spans[{i}]: \"parent\" must be null or a span id")),
        }
        span.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("spans[{i}]: missing string \"name\""))?;
        if !matches!(span.get("attrs"), Some(Json::Obj(_))) {
            return Err(format!("spans[{i}]: missing object \"attrs\""));
        }
        match span.get("elapsed_us") {
            Some(Json::Null) | Some(Json::Num(_)) => {}
            _ => return Err(format!("spans[{i}]: \"elapsed_us\" must be null or a number")),
        }
    }
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing array \"events\"")?;
    for (i, event) in events.iter().enumerate() {
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("events[{i}]: missing string \"name\""))?;
        if !matches!(event.get("attrs"), Some(Json::Obj(_))) {
            return Err(format!("events[{i}]: missing object \"attrs\""));
        }
    }
    let Some(Json::Obj(counters)) = doc.get("counters") else {
        return Err("missing object \"counters\"".into());
    };
    for (name, value) in counters {
        if value.as_idx().is_none() {
            return Err(format!("counter {name:?} is not a non-negative integer"));
        }
    }
    let Some(Json::Obj(gauges)) = doc.get("gauges") else {
        return Err("missing object \"gauges\"".into());
    };
    for (name, value) in gauges {
        if value.as_f64().is_none() {
            return Err(format!("gauge {name:?} is not a number"));
        }
    }
    let Some(Json::Obj(histograms)) = doc.get("histograms") else {
        return Err("missing object \"histograms\"".into());
    };
    for (name, hist) in histograms {
        for field in ["count", "sum", "min", "max"] {
            if hist.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("histogram {name:?}: missing numeric {field:?}"));
            }
        }
    }
    Ok(())
}

/// Renders the per-stage latency table plus solve/counter summaries from
/// a validated metrics document.
fn render_metrics_summary(doc: &Json) -> String {
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
    let events = doc.get("events").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out = String::new();
    writeln!(
        out,
        "metrics document ({}): {} spans, {} events",
        dcc_obs::SCHEMA_VERSION,
        spans.len(),
        events.len()
    )
    .ok();
    writeln!(out, "\nper-stage latency:").ok();
    writeln!(
        out,
        "  {:<22} {:>12} {:>8}  cause",
        "stage", "elapsed_us", "cached"
    )
    .ok();
    for span in spans {
        if span.get("name").and_then(Json::as_str) != Some(dcc_obs::names::SPAN_STAGE) {
            continue;
        }
        let attrs = span.get("attrs");
        let get = |key: &str| attrs.and_then(|a| a.get(key));
        writeln!(
            out,
            "  {:<22} {:>12} {:>8}  {}",
            get("stage").and_then(Json::as_str).unwrap_or("?"),
            span.get("elapsed_us")
                .and_then(Json::as_f64)
                .map_or_else(|| "open".to_string(), |us| format!("{us:.0}")),
            get("cached").and_then(Json::as_bool).unwrap_or(false),
            get("cause").and_then(Json::as_str).unwrap_or("-"),
        )
        .ok();
    }
    if let Some(hist) = doc
        .get("histograms")
        .and_then(|h| h.get(dcc_obs::names::HIST_SUBPROBLEM_US))
    {
        let field = |name| hist.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "\nsubproblem solves: {} in {:.0} us total (min {:.0}, max {:.0})",
            field("count"),
            field("sum"),
            field("min"),
            field("max")
        )
        .ok();
    }
    if let Some(Json::Obj(counters)) = doc.get("counters") {
        if !counters.is_empty() {
            writeln!(out, "\ncounters:").ok();
            for (name, value) in counters {
                writeln!(out, "  {:<32} {}", name, value.as_idx().unwrap_or(0)).ok();
            }
        }
    }
    out
}

/// `dcc metrics summarize FILE` — validate a `--metrics` document
/// against the dcc-obs/1 schema and render its per-stage latency table.
pub fn cmd_metrics(args: &ParsedArgs) -> CliResult {
    match args.positional.first().map(String::as_str) {
        Some("summarize") => {
            let file = args.positional.get(1).ok_or_else(|| {
                CliError::Usage("usage: dcc metrics summarize METRICS_FILE".into())
            })?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError::Failed(format!("cannot read metrics {file}: {e}")))?;
            let doc = Json::parse(&text)
                .map_err(|e| CliError::Failed(format!("{file}: invalid JSON: {e}")))?;
            validate_metrics_doc(&doc)
                .map_err(|e| CliError::Failed(format!("{file}: schema violation: {e}")))?;
            Ok(render_metrics_summary(&doc))
        }
        _ => Err(CliError::Usage(
            "usage: dcc metrics summarize METRICS_FILE".into(),
        )),
    }
}

/// `dcc batch GRID.json [--pool N | --serial]
///  [--policy abort|fallback|skip] [--metrics FILE]
///  [--max-retries N] [--scenario-budget UNITS]
///  [--checkpoint FILE [--checkpoint-every N] [--kill-at K | --resume]]`
/// — expand a `dcc-batch/1` scenario grid (traces × μ × budget
/// fraction × strategy) and run it on the supervised deterministic
/// batch scheduler.
///
/// A structurally invalid spec or flag combination is a usage error
/// (exit 2, naming the offending field); a scenario failing mid-batch
/// under `--policy abort` and an unreadable/mismatched checkpoint are
/// runtime failures (exit 1). The other policies itemize quarantined
/// failures in the report and exit 0. A `--kill-at` run that stops at
/// its threshold exits 0 and names the checkpoint to `--resume` from;
/// the resumed report is byte-identical to an uninterrupted run.
pub fn cmd_batch(args: &ParsedArgs) -> CliResult {
    let spec = args
        .positional
        .first()
        .cloned()
        .or_else(|| args.flags.get("grid").cloned())
        .ok_or_else(|| {
            CliError::Usage("expected a grid spec file (positional or --grid FILE)".into())
        })?;
    let text = std::fs::read_to_string(&spec)
        .map_err(|e| CliError::Failed(format!("cannot read grid spec {spec}: {e}")))?;
    let grid = ScenarioGrid::parse(&text).map_err(|e| CliError::Usage(format!("{spec}: {e}")))?;

    let checkpoint = match args.flags.get("checkpoint") {
        Some(path) => {
            let mut config = dcc_batch::CheckpointConfig::new(PathBuf::from(path));
            config.every = args.num_flag("checkpoint-every", 1usize)?.max(1);
            Some(config)
        }
        None => None,
    };
    let resume = args.bool_flag("resume");
    let kill_after = if args.flags.contains_key("kill-at") {
        Some(args.num_flag("kill-at", 1usize)?)
    } else {
        None
    };
    if (resume || kill_after.is_some()) && checkpoint.is_none() {
        return Err(CliError::Usage(
            "--kill-at and --resume require --checkpoint FILE".into(),
        ));
    }
    if resume && kill_after.is_some() {
        return Err(CliError::Usage(
            "--kill-at and --resume are mutually exclusive".into(),
        ));
    }
    let sup = dcc_batch::SupervisorOptions {
        max_retries: args.num_flag("max-retries", 0usize)?,
        scenario_budget: if args.flags.contains_key("scenario-budget") {
            Some(args.num_flag("scenario-budget", 0u64)?)
        } else {
            None
        },
        kill_after,
        checkpoint,
        resume,
        ..dcc_batch::SupervisorOptions::default()
    };

    let sink = args.flags.get("metrics").map(|file| MetricsSink {
        recorder: Arc::new(JsonRecorder::new()),
        path: PathBuf::from(file),
    });
    let runner = BatchRunner::with_options(BatchOptions {
        pool: pool_size(args)?,
        policy: failure_policy(args)?,
        metrics: sink
            .as_ref()
            .map(|s| Metrics::new(s.recorder.clone()))
            .unwrap_or_default(),
    });
    let outcome = runner
        .run_supervised(&grid, &grid.scenarios(), &sup)
        .map_err(|e| match e {
            BatchError::Spec(m) => CliError::Usage(format!("{spec}: {m}")),
            failed => CliError::Failed(failed.to_string()),
        })?;
    let report = match outcome {
        dcc_batch::BatchOutcome::Completed(report) => report,
        dcc_batch::BatchOutcome::Killed {
            completed,
            total,
            checkpoint,
        } => {
            let mut out = format!(
                "batch: killed after {completed} of {total} scenarios; \
                 checkpoint saved to {} (continue with --resume)\n",
                checkpoint.display()
            );
            if let Some(sink) = &sink {
                sink.flush(&mut out)?;
            }
            return Ok(out);
        }
    };

    let mut out = String::new();
    writeln!(
        out,
        "batch: {} scenarios, {} failed",
        report.records.len(),
        report.failed()
    )
    .ok();
    for r in &report.records {
        let s = &r.scenario;
        let label = grid
            .traces
            .get(s.trace)
            .map(|t| t.label.as_str())
            .unwrap_or("?");
        write!(
            out,
            "  #{:<3} {label} mu={:.3} budget={:.0}% {} [detect:{} fit:{} solve:{}] ",
            s.id,
            s.mu,
            100.0 * s.budget_fraction,
            dcc_batch::strategy_label(s.strategy),
            if r.detect_cached { "hit" } else { "miss" },
            if r.fit_cached { "hit" } else { "miss" },
            if r.solve_cached { "hit" } else { "miss" },
        )
        .ok();
        // Render from the canonical summary so a checkpoint-restored
        // record prints byte-identically to a freshly computed one.
        match (r.summary(), r.failure()) {
            (Some(o), _) => {
                write!(
                    out,
                    "utility {:.3} funded {}/{} spend {:.2}",
                    o.total_requester_utility,
                    o.funded.len(),
                    o.agents.len(),
                    o.spend,
                )
                .ok();
                if let Some(sim) = &o.sim {
                    write!(out, " sim-utility {:.3}", sim.mean_round_utility).ok();
                }
                writeln!(out).ok();
            }
            (None, Some(e)) => {
                writeln!(out, "ERROR: {e}").ok();
            }
            (None, None) => {
                writeln!(out, "ERROR: scenario produced no record").ok();
            }
        }
    }
    let st = &report.stats;
    writeln!(
        out,
        "cache: trace {}h/{}m, detect {}h/{}m, fit {}h/{}m, solve {}h/{}m",
        st.trace.hits, st.trace.misses, st.detect.hits, st.detect.misses, st.fit.hits,
        st.fit.misses, st.solve.hits, st.solve.misses
    )
    .ok();
    if !report.quarantine.is_empty() {
        writeln!(out, "quarantine: {} scenarios", report.quarantine.len()).ok();
        for q in &report.quarantine.entries {
            writeln!(
                out,
                "  #{:<3} {} after {} attempt{}: {}",
                q.scenario,
                q.kind.label(),
                q.attempts,
                if q.attempts == 1 { "" } else { "s" },
                q.message
            )
            .ok();
        }
    }
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

/// `dcc experiment <fig6|fig7|fig8a|fig8b|fig8c|table2|table3|adaptive|all>
///  [--scale small|paper] [--seed N]`
pub fn cmd_experiment(args: &ParsedArgs) -> CliResult {
    let which = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let scale = ExperimentScale::parse(&args.str_flag("scale", "small"))
        .ok_or_else(|| "flag --scale: expected small|paper".to_string())?;
    let seed: u64 = args.num_flag("seed", dcc_experiments::DEFAULT_SEED)?;
    let err = CliError::Core;

    let out = match which.as_str() {
        "fig6" => dcc_experiments::fig6::run(&dcc_experiments::fig6::DEFAULT_MS)
            .map_err(err)?
            .table()
            .to_string(),
        "fig7" => dcc_experiments::fig7::run(scale, seed).table().to_string(),
        "fig8a" => dcc_experiments::fig8a::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "fig8b" => dcc_experiments::fig8b::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "fig8c" => dcc_experiments::fig8c::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "table2" => dcc_experiments::table2::run(scale, seed)
            .map_err(CliError::from)?
            .table()
            .to_string(),
        "table3" => dcc_experiments::table3::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "adaptive" => dcc_experiments::adaptive_ext::run(seed)
            .map_err(err)?
            .table()
            .to_string(),
        "sensitivity" => dcc_experiments::sensitivity::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "detection" => dcc_experiments::detection_quality::run(scale, seed)
            .table()
            .to_string(),
        "collusion" => dcc_experiments::collusion_ablation::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "baselines" => dcc_experiments::baselines_ext::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "budget" => dcc_experiments::budget_ext::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "risk" => dcc_experiments::risk_ext::run(&dcc_experiments::risk_ext::DEFAULT_EXPONENTS)
            .map_err(err)?
            .table()
            .to_string(),
        "adversarial" => dcc_experiments::adversarial::run(scale, seed)
            .map_err(err)?
            .table()
            .to_string(),
        "all" => {
            let trace = scale.generate(seed);
            let mut s = String::new();
            writeln!(s, "--- Fig. 6 ---").ok();
            s += &dcc_experiments::fig6::run(&dcc_experiments::fig6::DEFAULT_MS)
                .map_err(err)?
                .table()
                .to_string();
            writeln!(s, "--- Table II ---").ok();
            s += &dcc_experiments::table2::run_on(&trace)
                .map_err(CliError::from)?
                .table()
                .to_string();
            writeln!(s, "--- Fig. 7 ---").ok();
            s += &dcc_experiments::fig7::run_on(&trace).table().to_string();
            writeln!(s, "--- Table III ---").ok();
            s += &dcc_experiments::table3::run_on(&trace)
                .map_err(err)?
                .table()
                .to_string();
            writeln!(s, "--- Fig. 8(a) ---").ok();
            s += &dcc_experiments::fig8a::run_on(&trace, &dcc_experiments::fig8a::DEFAULT_MS)
                .map_err(err)?
                .table()
                .to_string();
            writeln!(s, "--- Fig. 8(b) ---").ok();
            s += &dcc_experiments::fig8b::run_on(&trace, &dcc_experiments::fig8b::DEFAULT_MUS)
                .map_err(err)?
                .table()
                .to_string();
            writeln!(s, "--- Fig. 8(c) ---").ok();
            s += &dcc_experiments::fig8c::run_on(&trace, &dcc_experiments::fig8b::DEFAULT_MUS)
                .map_err(err)?
                .table()
                .to_string();
            s
        }
        other => return Err(CliError::Usage(format!("unknown experiment {other:?}"))),
    };
    Ok(out)
}

/// `dcc replay TRACE_DIR [--mu F]` — trace-driven evaluation: design
/// contracts, then replay the recorded per-round feedback through them
/// (Eq. 1 accounting) instead of simulating best responses.
pub fn cmd_replay(args: &ParsedArgs) -> CliResult {
    let (mut ctx, sink) = engine_context(args)?;
    Engine::new().run_to(&mut ctx, StageKind::ConstructContracts)?;
    let outcome = dcc_core::replay_trace(
        ctx.trace()?,
        ctx.detection()?,
        ctx.design()?,
        &ctx.config().design.params,
    )?;
    let mut out = String::new();
    writeln!(
        out,
        "replayed {} (worker, round) observations over {} rounds",
        outcome.observations,
        outcome.rounds.len()
    )
    .ok();
    writeln!(out, "mean round utility {:.3}", outcome.mean_round_utility).ok();
    for r in outcome.rounds.iter().take(8) {
        writeln!(
            out,
            "  round {:>2}: benefit {:>12.2}  payment {:>10.2}  utility {:>12.2}",
            r.round, r.benefit, r.payment, r.requester_utility
        )
        .ok();
    }
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

/// `dcc label [--workers N] [--items N] [--mu F]`
pub fn cmd_label(args: &ParsedArgs) -> CliResult {
    let mut config = MarketConfig::default();
    config.n_workers = args.num_flag("workers", config.n_workers)?;
    config.n_items = args.num_flag("items", config.n_items)?;
    config.params.mu = args.num_flag("mu", config.params.mu)?;
    config.seed = args.num_flag("seed", config.seed)?;
    let report = LabelMarket::new(config)
        .run()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(format!(
        "labeling market: contract accuracy {:.1}% (effort {:.2}, spend {:.2}) vs fixed-payment accuracy {:.1}%",
        100.0 * report.contract_accuracy,
        report.mean_effort,
        report.contract_spend,
        100.0 * report.fixed_accuracy
    ))
}

/// `dcc lint [PATHS...] [--root DIR] [--json] [--sarif FILE]
///  [--policy FILE] [--baseline FILE] [--update-baseline]` — runs the
/// dcc-lint determinism & numeric-safety analyzer. With no paths the
/// whole workspace under `--root` (default `.`) is walked, the
/// `metric-registry` cross-check runs, and the interprocedural
/// `determinism-taint` pass analyzes the call graph (laundering points
/// come from `--policy`, default `dcc-lint.policy` at the root when
/// present); with explicit paths only those files/directories are
/// checked with the token rules. `--sarif FILE` additionally writes a
/// SARIF 2.1.0 document for code scanning. `--baseline FILE` applies
/// the ratchet: the run fails on findings *not* in the baseline and on
/// baseline entries that no longer fire; `--update-baseline`
/// regenerates the file from current findings, preserving
/// justifications. Exit 0 when clean; exit 1 with the findings (text
/// or `--json`) otherwise.
pub fn cmd_lint(args: &ParsedArgs) -> CliResult {
    let root = PathBuf::from(args.str_flag("root", "."));
    let mut cfg = if args.positional.is_empty() {
        dcc_lint::Config::workspace(root)
    } else {
        dcc_lint::Config::explicit(
            root,
            args.positional.iter().map(PathBuf::from).collect(),
        )
    };
    let policy_flag = args.str_flag("policy", "");
    if !policy_flag.is_empty() {
        cfg.policy = Some(PathBuf::from(&policy_flag));
    }
    let report = dcc_lint::run(&cfg).map_err(CliError::Usage)?;

    let baseline_flag = args.str_flag("baseline", "");
    if args.bool_flag("update-baseline") {
        if baseline_flag.is_empty() {
            return Err(CliError::Usage(
                "--update-baseline requires --baseline FILE".to_string(),
            ));
        }
        let bpath = cfg.root.join(&baseline_flag);
        // A missing file is an empty baseline: every finding gets a
        // TODO justification to fill in.
        let prev_src = std::fs::read_to_string(&bpath).unwrap_or_default();
        let prev = dcc_lint::baseline::Baseline::parse(&baseline_flag, &prev_src)
            .map_err(CliError::Usage)?;
        let rendered = dcc_lint::baseline::render(&report.findings, &prev);
        std::fs::write(&bpath, &rendered)
            .map_err(|e| CliError::Failed(format!("write {}: {e}", bpath.display())))?;
        return Ok(format!(
            "dcc-lint: wrote {} with {} entr{}",
            baseline_flag,
            report.findings.len(),
            if report.findings.len() == 1 { "y" } else { "ies" }
        ));
    }

    let outcome = if baseline_flag.is_empty() {
        None
    } else {
        let bpath = cfg.root.join(&baseline_flag);
        // Unlike --update-baseline, ratchet mode refuses a missing
        // file: silently treating it as empty would flip every
        // baselined finding to fresh (or hide a typo'd path).
        let prev_src = std::fs::read_to_string(&bpath).map_err(|e| {
            CliError::Usage(format!("--baseline {}: {e}", bpath.display()))
        })?;
        let prev = dcc_lint::baseline::Baseline::parse(&baseline_flag, &prev_src)
            .map_err(CliError::Usage)?;
        Some(prev.apply(report.findings.clone()))
    };

    let sarif_flag = args.str_flag("sarif", "");
    if !sarif_flag.is_empty() {
        let doc = match &outcome {
            None => report.to_sarif(),
            Some(out) => {
                // Fresh findings are open results; baselined ones carry
                // an external suppression. Merge back into the global
                // (path, line, rule) order for determinism.
                let mut merged: Vec<dcc_lint::sarif::SarifResult<'_>> = out
                    .fresh
                    .iter()
                    .map(|f| dcc_lint::sarif::SarifResult {
                        finding: f,
                        justification: None,
                    })
                    .chain(out.suppressed.iter().map(|(f, j)| {
                        dcc_lint::sarif::SarifResult {
                            finding: f,
                            justification: Some(j.as_str()),
                        }
                    }))
                    .collect();
                merged.sort_by(|a, b| {
                    (a.finding.path.as_str(), a.finding.line, a.finding.rule)
                        .cmp(&(b.finding.path.as_str(), b.finding.line, b.finding.rule))
                });
                dcc_lint::sarif::render(&merged)
            }
        };
        std::fs::write(&sarif_flag, &doc)
            .map_err(|e| CliError::Failed(format!("write {sarif_flag}: {e}")))?;
    }

    match outcome {
        None => {
            let rendered = if args.bool_flag("json") {
                report.to_json()
            } else {
                report.to_text()
            };
            if report.findings.is_empty() {
                Ok(rendered)
            } else {
                Err(CliError::Failed(rendered))
            }
        }
        Some(out) => {
            let mut rendered = if args.bool_flag("json") {
                dcc_lint::report::render_json(&out.fresh, report.files_scanned)
            } else {
                // render_text appends its own summary line; strip it —
                // the ratchet summary below replaces it.
                let mut text = dcc_lint::report::render_text(&out.fresh, 0);
                if let Some(pos) = text.rfind("dcc-lint:") {
                    text.truncate(pos);
                }
                text
            };
            if !args.bool_flag("json") {
                for e in &out.stale {
                    rendered.push_str(&format!(
                        "{}:{}: [baseline] entry no longer fires: {} {}:{} — delete it\n",
                        baseline_flag, e.file_line, e.rule, e.path, e.line
                    ));
                }
                rendered.push_str(&format!(
                    "dcc-lint: {} files, {} fresh finding{}, {} baselined, {} stale baseline entr{}\n",
                    report.files_scanned,
                    out.fresh.len(),
                    if out.fresh.len() == 1 { "" } else { "s" },
                    out.suppressed.len(),
                    out.stale.len(),
                    if out.stale.len() == 1 { "y" } else { "ies" }
                ));
            }
            if out.clean() {
                Ok(rendered)
            } else {
                Err(CliError::Failed(rendered))
            }
        }
    }
}

/// `dcc check [--r2 F --r1 F --r0 F --mu F --omega F --weight F
///  --intervals N --ymax F]` — builds a contract for the given parameters
/// and verifies the §IV-C theory at runtime: best-response interval
/// membership, the Lemma 4.2/4.3 compensation bracket, and the
/// Theorem 4.1 utility bracket.
pub fn cmd_check(args: &ParsedArgs) -> CliResult {
    use dcc_core::{best_response, bounds, ContractBuilder, Discretization};
    use dcc_numerics::Quadratic;

    let psi = Quadratic::new(
        args.num_flag("r2", -0.15)?,
        args.num_flag("r1", 2.5)?,
        args.num_flag("r0", 1.0)?,
    );
    let params = ModelParams {
        mu: args.num_flag("mu", 1.0)?,
        omega: args.num_flag("omega", 0.0)?,
        beta: args.num_flag("beta", 1.0)?,
        ..ModelParams::default()
    };
    let weight: f64 = args.num_flag("weight", 1.5)?;
    let intervals: usize = args.num_flag("intervals", 20)?;
    let y_max: f64 = args.num_flag("ymax", {
        psi.peak().map(|p| 0.9 * p).unwrap_or(10.0)
    })?;
    let disc = Discretization::covering(intervals, y_max)?;

    let built = ContractBuilder::new(params, disc, psi)
        .malicious(params.omega)
        .weight(weight)
        .build()?;
    let mut out = String::new();
    writeln!(out, "psi = {psi}; region [0, {y_max:.3}) in {intervals} intervals").ok();
    writeln!(
        out,
        "k_opt = {:?}; induced effort {:.4}; compensation {:.4}; requester utility {:.4}",
        built.k_opt(),
        built.induced_effort(),
        built.compensation(),
        built.requester_utility()
    )
    .ok();

    // Runtime verification.
    let response = best_response(&params, &psi, built.contract())?;
    let mut checks = Vec::new();
    if let Some(k) = built.k_opt() {
        let in_interval = response.effort >= disc.knot(k - 1) - 1e-9
            && response.effort <= disc.knot(k) + 1e-9;
        checks.push(("best response in target interval", in_interval));
        let c_lo = bounds::compensation_lower_bound(&params, &disc, k);
        let c_hi = bounds::compensation_upper_bound(&params, &disc, &psi, k);
        if dcc_numerics::exact_eq(params.omega, 0.0) {
            checks.push((
                "Lemma 4.2/4.3 compensation bracket",
                built.compensation() >= c_lo - 1e-9 && built.compensation() <= c_hi + 1e-9,
            ));
        }
        writeln!(out, "compensation bracket: [{c_lo:.4}, {c_hi:.4}]").ok();
    }
    if let Some((lo, hi)) = built.utility_bounds() {
        checks.push((
            "Theorem 4.1 utility bracket",
            built.requester_utility() >= lo - 1e-9 && built.requester_utility() <= hi + 1e-9,
        ));
        writeln!(out, "Theorem 4.1 bracket: [{lo:.4}, {hi:.4}]").ok();
    }
    checks.push(("contract monotone", built.contract().is_monotone()));
    checks.push(("worker individually rational", built.worker_utility() >= -1e-9));

    let mut all_ok = true;
    for (name, ok) in checks {
        writeln!(out, "  [{}] {name}", if ok { "ok" } else { "FAIL" }).ok();
        all_ok &= ok;
    }

    if args.bool_flag("plot") {
        writeln!(out, "\ncontract (pay vs feedback):").ok();
        out.push_str(&ascii_plot(built.contract(), 60, 12));
    }

    if all_ok {
        writeln!(out, "all checks passed").ok();
        Ok(out)
    } else {
        Err(CliError::Failed(out))
    }
}

/// Renders a contract as a small ASCII chart: feedback on the x-axis,
/// payment on the y-axis.
fn ascii_plot(contract: &dcc_core::Contract, width: usize, height: usize) -> String {
    let knots = contract.feedback_knots();
    let (q_lo, q_hi) = match (knots.first(), knots.last()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => return "(contract has no knots)\n".to_string(),
    };
    let pay_max = contract.max_payment().max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    for (col, q) in (0..width)
        .map(|c| q_lo + (q_hi - q_lo) * c as f64 / (width - 1).max(1) as f64)
        .enumerate()
    {
        let pay = contract.compensation(q);
        let row = ((1.0 - pay / pay_max) * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][col] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{pay_max:>8.2} |")
        } else if i == height - 1 {
            format!("{:>8.2} |", 0.0)
        } else {
            "         |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "          +{}\n           {:<.2}{}{:>.2}\n",
        "-".repeat(width),
        q_lo,
        " ".repeat(width.saturating_sub(10)),
        q_hi
    ));
    out
}

/// The help text.
/// `dcc serve --replay TRACE | --events FILE [--pool N] [--verify]
///  [--checkpoint FILE [--kill-at N | --resume]] [--metrics FILE]
///  [design flags]`
///
/// The incremental streaming service: ingests `{"ev": ...}` JSON-line
/// events (or derives them from an existing trace with `--replay`) and
/// emits one JSON line per round boundary, recomputing only what
/// changed while staying bit-identical to the batch pipeline over the
/// same prefix (`--verify` asserts that at every round). With
/// `--checkpoint FILE` the event log is checkpointed atomically at
/// every round boundary; `--kill-at N` stops after `N` events
/// (simulating a crash) and `--resume` re-applies the checkpointed log
/// — the resumed run re-emits the restored rounds, so its full output
/// is byte-identical to an uninterrupted run (`make chaos-serve`).
pub fn cmd_serve(args: &ParsedArgs) -> CliResult {
    let design = design_config(args)?;
    let pipeline = PipelineConfig::default();
    let pool: usize = args.num_flag("pool", 1usize)?;
    let verify = args.bool_flag("verify");

    let events: Vec<ServeEvent> = if let Some(file) = args.flags.get("events") {
        let text = if file == "-" {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| CliError::Failed(format!("cannot read events from stdin: {e}")))?;
            buf
        } else {
            std::fs::read_to_string(file)
                .map_err(|e| CliError::Failed(format!("cannot read events {file}: {e}")))?
        };
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(ServeEvent::parse_line)
            .collect::<Result<_, _>>()?
    } else if args.flags.contains_key("replay")
        || args.flags.contains_key("trace")
        || !args.positional.is_empty()
    {
        let path = args
            .flags
            .get("replay")
            .cloned()
            .or_else(|| args.flags.get("trace").cloned())
            .or_else(|| args.positional.first().cloned())
            .unwrap_or_default();
        events_from_trace(&read_any_trace(&path)?)
    } else {
        return Err(CliError::Usage(
            "serve needs an event source: --replay TRACE or --events FILE (\"-\" for stdin)"
                .into(),
        ));
    };

    let checkpoint = args.flags.get("checkpoint").map(PathBuf::from);
    let kill_at = if args.flags.contains_key("kill-at") {
        Some(args.num_flag("kill-at", 0usize)?)
    } else {
        None
    };
    let resume = args.bool_flag("resume");
    if (kill_at.is_some() || resume) && checkpoint.is_none() {
        return Err(CliError::Usage(
            "--kill-at/--resume require --checkpoint FILE".into(),
        ));
    }

    let sink = args.flags.get("metrics").map(|file| {
        let recorder = Arc::new(JsonRecorder::new());
        MetricsSink {
            recorder,
            path: PathBuf::from(file),
        }
    });
    let metrics = sink
        .as_ref()
        .map(|s| Metrics::new(s.recorder.clone()))
        .unwrap_or_default();

    let mut out = String::new();
    let (mut service, restored) = match &checkpoint {
        Some(path) if resume && path.is_file() => {
            let log = dcc_serve::load_checkpoint(path)?;
            ServeService::restore(pipeline, design, pool, verify, metrics.clone(), &log)?
        }
        _ => (
            ServeService::new(pipeline, design, pool, verify, metrics.clone())?,
            Vec::new(),
        ),
    };
    for round in &restored {
        writeln!(out, "{}", ServeService::output_line(round)).ok();
    }

    let skip = service.events_applied();
    let mut killed = false;
    for event in events.iter().skip(skip) {
        if let Some(n) = kill_at {
            if service.events_applied() >= n {
                killed = true;
                break;
            }
        }
        if let Some(round) = service.apply(event)? {
            writeln!(out, "{}", ServeService::output_line(&round)).ok();
            if let Some(path) = &checkpoint {
                dcc_serve::save_checkpoint(path, service.log())?;
                metrics.add(dcc_obs::names::COUNTER_SERVE_CKPT_SAVED, 1);
            }
        }
    }

    if killed {
        if let Some(path) = &checkpoint {
            dcc_serve::save_checkpoint(path, service.log())?;
            metrics.add(dcc_obs::names::COUNTER_SERVE_CKPT_SAVED, 1);
            writeln!(
                out,
                "serve: killed after {} events; checkpoint saved to {} (continue with --resume)",
                service.events_applied(),
                path.display()
            )
            .ok();
        }
    } else {
        writeln!(out, "{}", service.summary_line()).ok();
    }
    if let Some(sink) = &sink {
        sink.flush(&mut out)?;
    }
    Ok(out)
}

pub fn help() -> String {
    "dcc — dynamic contract design for heterogeneous crowdsourcing workers (ICDCS 2017)

USAGE: dcc <COMMAND> [ARGS]

COMMANDS:
  gen        --seed N --scale small|paper --out DIR    generate a synthetic trace
  summary    TRACE_DIR                                 dataset statistics
  detect     TRACE_DIR [--estimated --threshold F]     detection + clustering report
  design     TRACE_DIR [--mu F --omega F --intervals N --serial --pool N]
                                                       design all contracts
  simulate   TRACE_DIR [--strategy dynamic|exclude|fixed|collusion-proof --rounds N --noise F]
             [--fault-plan FILE] [--checkpoint FILE [--kill-at N | --resume]]
             [--policy abort|fallback|skip [--fallback-amount F]]
                                                       run the repeated game
  run        TRACE_DIR [design + simulate flags] [--pool N] [--metrics FILE]
                                                       full staged pipeline with
                                                       per-stage timings
  faults     gen [--agents N --rounds N --seed N --dropout F --missing F
             --corrupt F --nan F --delay F --out FILE] | show FILE
                                                       deterministic fault plans
  adversary  gen [--seed N --campaigns N --rounds N --split-prob F
             --merge-prob F --sybil-prob F --max-sybils N
             --underreport-prob F --min-factor F --out FILE] | show FILE |
             apply --plan FILE [--seed N --scale small|paper --out DIR]
                                                       deterministic adversary
                                                       plans (sybils, community
                                                       splits/merges,
                                                       under-reporting)
  trace      convert SRC DEST | info FILE              CSV dir <-> dcc-trace-col/1
                                                       columnar file; every TRACE
                                                       below accepts either form
  metrics    summarize FILE                            validate + summarize a
                                                       --metrics JSON document
  batch      GRID.json [--pool N | --serial] [--policy abort|fallback|skip]
             [--metrics FILE] [--max-retries N] [--scenario-budget UNITS]
             [--checkpoint FILE [--checkpoint-every N] [--kill-at K | --resume]]
                                                       run a dcc-batch/1 scenario
                                                       grid on the supervised
                                                       batch scheduler
  serve      --replay TRACE | --events FILE [--pool N] [--verify]
             [--checkpoint FILE [--kill-at N | --resume]] [--metrics FILE]
                                                       incremental streaming
                                                       service: one JSON line per
                                                       round, bit-identical to the
                                                       batch pipeline
  replay     TRACE_DIR [--mu F]                        trace-driven evaluation
  check      [--r2 F --r1 F --r0 F --mu F --omega F --weight F --intervals N]
                                                       verify the theory at runtime
  experiment fig6|fig7|fig8a|fig8b|fig8c|table2|table3|adaptive|sensitivity|
             detection|collusion|adversarial|all [--scale small|paper --seed N]
                                                       regenerate paper artifacts
  label      [--workers N --items N --mu F]            classification extension
  lint       [PATHS...] [--root DIR --json] [--sarif FILE] [--policy FILE]
             [--baseline FILE [--update-baseline]]     determinism & numeric-safety
                                                       static analysis with the
                                                       taint pass, SARIF output,
                                                       and the baseline ratchet
  help                                                 this text
"
    .to_string()
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &ParsedArgs) -> CliResult {
    match args.command.as_deref() {
        Some("gen") => cmd_gen(args),
        Some("summary") => cmd_summary(args),
        Some("detect") => cmd_detect(args),
        Some("design") => cmd_design(args),
        Some("simulate") => cmd_simulate(args),
        Some("run") => cmd_run(args),
        Some("faults") => cmd_faults(args),
        Some("adversary") => cmd_adversary(args),
        Some("trace") => cmd_trace(args),
        Some("metrics") => cmd_metrics(args),
        Some("batch") => cmd_batch(args),
        Some("serve") => cmd_serve(args),
        Some("replay") => cmd_replay(args),
        Some("check") => cmd_check(args),
        Some("experiment") => cmd_experiment(args),
        Some("label") => cmd_label(args),
        Some("lint") => cmd_lint(args),
        Some("help") | None => Ok(help()),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{}",
            help()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ParsedArgs {
        ParsedArgs::parse(s.split_whitespace().map(String::from))
    }

    fn temp_dir(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("dcc_cli_{tag}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn gen_summary_detect_design_simulate_roundtrip() {
        let dir = temp_dir("rt");
        let out = dispatch(&parse(&format!("gen --seed 5 --scale small --out {dir}"))).unwrap();
        assert!(out.contains("reviews"));

        let summary = dispatch(&parse(&format!("summary {dir}"))).unwrap();
        assert!(summary.contains("honest"));

        let detect = dispatch(&parse(&format!("detect {dir}"))).unwrap();
        assert!(detect.contains("communities"));

        let design = dispatch(&parse(&format!("design {dir} --mu 1.2"))).unwrap();
        assert!(design.contains("designed"));

        let budgeted =
            dispatch(&parse(&format!("design {dir} --mu 1.2 --budget 100"))).unwrap();
        assert!(budgeted.contains("funded"));

        let sim =
            dispatch(&parse(&format!("simulate {dir} --rounds 5 --strategy exclude"))).unwrap();
        assert!(sim.contains("mean round utility"));

        let replay = dispatch(&parse(&format!("replay {dir}"))).unwrap();
        assert!(replay.contains("replayed"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_convert_info_and_columnar_commands_roundtrip() {
        let dir = temp_dir("col");
        dispatch(&parse(&format!("gen --seed 9 --scale small --out {dir}/csv"))).unwrap();

        let col = format!("{dir}/trace.dcol");
        let out = dispatch(&parse(&format!("trace convert {dir}/csv {col}"))).unwrap();
        assert!(out.contains("dcc-trace-col/1"), "{out}");
        assert!(out.contains("checksum"), "{out}");

        let info = dispatch(&parse(&format!("trace info {col}"))).unwrap();
        assert!(info.contains("dcc-trace-col/1"), "{info}");
        assert!(info.contains("reviewers"), "{info}");

        // Every TRACE-taking command accepts the columnar file, and the
        // designs from the two formats agree word for word.
        let from_csv = dispatch(&parse(&format!("design {dir}/csv --mu 1.2"))).unwrap();
        let from_col = dispatch(&parse(&format!("design {col} --mu 1.2"))).unwrap();
        assert_eq!(from_csv, from_col);
        let summary = dispatch(&parse(&format!("summary {col}"))).unwrap();
        assert!(summary.contains("honest"));

        // Converting back to CSV reproduces the dataset bit-exactly.
        let back = format!("{dir}/csv2");
        dispatch(&parse(&format!("trace convert {col} {back}"))).unwrap();
        let a = dcc_trace::read_trace_csv(Path::new(&format!("{dir}/csv"))).unwrap();
        let b = dcc_trace::read_trace_csv(Path::new(&back)).unwrap();
        // The columnar encoding is deterministic, so byte equality of the
        // re-encodings is bit-exact dataset equality.
        assert_eq!(
            ColumnarTrace::from_dataset(&a).as_bytes(),
            ColumnarTrace::from_dataset(&b).as_bytes()
        );

        assert!(dispatch(&parse("trace")).is_err());
        assert!(dispatch(&parse("trace info /nonexistent.dcol")).is_err());
        assert!(dispatch(&parse("trace convert onlysrc")).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_command_reports_stages_and_outcome() {
        let dir = temp_dir("run");
        dispatch(&parse(&format!("gen --seed 6 --scale small --out {dir}"))).unwrap();

        let out = dispatch(&parse(&format!("run {dir} --rounds 5 --pool 4"))).unwrap();
        for stage in [
            "ingest",
            "detect",
            "fit-effort",
            "solve-subproblems",
            "construct-contracts",
            "simulate",
        ] {
            assert!(out.contains(stage), "missing stage {stage} in:\n{out}");
        }
        assert!(out.contains("designed"));
        assert!(out.contains("mean round utility"));

        // The pooled design is bit-identical to the sequential one: the
        // printed reports must agree word for word.
        let pooled = dispatch(&parse(&format!("design {dir} --pool 7"))).unwrap();
        let serial = dispatch(&parse(&format!("design {dir} --serial"))).unwrap();
        assert_eq!(pooled, serial);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_metrics_writes_a_valid_document_and_summarize_renders_it() {
        let dir = temp_dir("metrics");
        dispatch(&parse(&format!("gen --seed 8 --scale small --out {dir}"))).unwrap();
        let file = format!("{dir}/metrics.json");

        let out =
            dispatch(&parse(&format!("run {dir} --rounds 4 --pool 2 --metrics {file}"))).unwrap();
        assert!(out.contains("wrote metrics to"), "{out}");
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.contains("\"schema\":\"dcc-obs/1\""));

        let summary = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap();
        for stage in [
            "ingest",
            "detect",
            "fit-effort",
            "solve-subproblems",
            "construct-contracts",
            "simulate",
        ] {
            assert!(summary.contains(stage), "missing stage {stage} in:\n{summary}");
        }
        assert!(summary.contains("per-stage latency"));
        assert!(summary.contains("subproblem solves"));
        assert!(summary.contains("sim.rounds"));

        // The other engine commands accept --metrics too.
        let design =
            dispatch(&parse(&format!("design {dir} --metrics {file}"))).unwrap();
        assert!(design.contains("wrote metrics to"));
        let summary = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap();
        assert!(summary.contains("construct-contracts"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_summarize_rejects_missing_files_bad_json_and_schema_violations() {
        assert!(dispatch(&parse("metrics summarize /nonexistent/metrics.json")).is_err());
        assert!(dispatch(&parse("metrics bogus")).is_err());
        assert_eq!(dispatch(&parse("metrics")).unwrap_err().exit_code(), 2);

        let dir = temp_dir("badmetrics");
        std::fs::create_dir_all(&dir).unwrap();
        let file = format!("{dir}/m.json");

        std::fs::write(&file, "{not json").unwrap();
        let err = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap_err();
        assert!(err.to_string().contains("invalid JSON"), "{err}");

        std::fs::write(
            &file,
            "{\"schema\":\"dcc-obs/0\",\"spans\":[],\"events\":[],\
             \"counters\":{},\"gauges\":{},\"histograms\":{}}",
        )
        .unwrap();
        let err = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap_err();
        assert!(err.to_string().contains("schema violation"), "{err}");

        std::fs::write(
            &file,
            "{\"schema\":\"dcc-obs/1\",\"spans\":[{\"id\":1}],\"events\":[],\
             \"counters\":{},\"gauges\":{},\"histograms\":{}}",
        )
        .unwrap();
        let err = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap_err();
        assert!(err.to_string().contains("parent"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_nested_past_the_cap_is_an_error_not_a_stack_overflow() {
        let dir = temp_dir("deepjson");
        std::fs::create_dir_all(&dir).unwrap();
        let file = format!("{dir}/deep.json");
        // Just over the 128-level cap, and far past it: before the cap,
        // the second aborted the process with a stack overflow.
        let just_over = "[".repeat(129) + &"]".repeat(129);
        for text in [just_over, "[".repeat(50_000)] {
            std::fs::write(&file, &text).unwrap();
            for (command, exit_code) in [
                (format!("metrics summarize {file}"), 1),
                (format!("serve --events {file}"), 1),
                // docs/batch.md: a malformed grid spec is a usage error.
                (format!("batch {file}"), 2),
            ] {
                let err = dispatch(&parse(&command)).unwrap_err();
                assert_eq!(err.exit_code(), exit_code, "{command}: {err}");
                assert!(
                    err.to_string().contains("nested deeper than 128"),
                    "{command}: {err}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiment_fig6_runs() {
        let out = dispatch(&parse("experiment fig6")).unwrap();
        assert!(out.contains("upper bound"));
    }

    #[test]
    fn label_command_runs() {
        let out = dispatch(&parse("label --workers 9 --items 51")).unwrap();
        assert!(out.contains("accuracy"));
    }

    #[test]
    fn check_command_verifies_theory() {
        let out = dispatch(&parse("check --mu 1.2 --weight 2.0")).unwrap();
        assert!(out.contains("all checks passed"));
        let plotted = dispatch(&parse("check --mu 1.2 --weight 2.0 --plot")).unwrap();
        assert!(plotted.contains('*'), "plot should draw the contract");
        let malicious = dispatch(&parse("check --omega 0.5 --weight 1.0")).unwrap();
        assert!(malicious.contains("all checks passed"));
        // A convex psi must be rejected upstream.
        assert!(dispatch(&parse("check --r2 0.1")).is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(dispatch(&parse("bogus")).is_err());
        assert!(dispatch(&parse("help")).unwrap().contains("USAGE"));
        assert!(dispatch(&ParsedArgs::default()).unwrap().contains("USAGE"));
    }

    #[test]
    fn missing_trace_is_an_error() {
        let err = dispatch(&parse("summary /nonexistent/dcc")).unwrap_err();
        assert!(err.to_string().contains("cannot read trace"));
        assert_eq!(err.exit_code(), 1);
        let err = dispatch(&parse("summary")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing argument is a usage error");
    }

    #[test]
    fn faults_gen_and_show_round_trip() {
        let dir = temp_dir("faultplan");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = format!("{dir}/plan.json");
        let out = dispatch(&parse(&format!(
            "faults gen --agents 5 --rounds 10 --missing 0.2 --seed 3 --out {plan}"
        )))
        .unwrap();
        assert!(out.contains("wrote fault plan"));
        let shown = dispatch(&parse(&format!("faults show {plan}"))).unwrap();
        assert!(shown.contains("events"));
        assert!(dispatch(&parse("faults show /nonexistent/plan.json")).is_err());
        assert!(dispatch(&parse("faults bogus")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adversary_gen_show_apply_round_trip() {
        let dir = temp_dir("advplan");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = format!("{dir}/adversary.json");
        let out = dispatch(&parse(&format!(
            "adversary gen --campaigns 3 --rounds 6 --sybil-prob 1.0 --split-prob 0.5 --seed 11 --out {plan}"
        )))
        .unwrap();
        assert!(out.contains("wrote adversary plan"));
        let shown = dispatch(&parse(&format!("adversary show {plan}"))).unwrap();
        assert!(shown.contains("sybil influxes"));

        let trace_dir = format!("{dir}/trace");
        let applied = dispatch(&parse(&format!(
            "adversary apply --plan {plan} --seed 11 --scale small --out {trace_dir}"
        )))
        .unwrap();
        assert!(applied.contains("adversarial events"));
        let summary = dispatch(&parse(&format!("summary {trace_dir}"))).unwrap();
        assert!(summary.contains("honest"));

        assert!(dispatch(&parse("adversary show /nonexistent/plan.json")).is_err());
        assert!(dispatch(&parse("adversary apply")).is_err());
        assert!(dispatch(&parse("adversary bogus")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_kill_then_resume_matches_uninterrupted_run() {
        let dir = temp_dir("killresume");
        dispatch(&parse(&format!("gen --seed 9 --scale small --out {dir}"))).unwrap();
        let plan = format!("{dir}/plan.json");
        dispatch(&parse(&format!(
            "faults gen --agents 400 --rounds 8 --dropout 0.05 --missing 0.1 --corrupt 0.1 \
             --delay 0.1 --seed 4 --out {plan}"
        )))
        .unwrap();

        let base = format!("simulate {dir} --rounds 8 --fault-plan {plan}");
        let uninterrupted = dispatch(&parse(&base)).unwrap();

        let cp = format!("{dir}/sim.ckpt.json");
        let killed = dispatch(&parse(&format!("{base} --checkpoint {cp} --kill-at 4"))).unwrap();
        assert!(killed.contains("killed at round 4"), "{killed}");
        let resumed =
            dispatch(&parse(&format!("{base} --checkpoint {cp} --resume"))).unwrap();

        // The accounting line must agree exactly with the uninterrupted
        // run; only the per-invocation fired-fault count may differ.
        assert_eq!(
            uninterrupted.lines().next().unwrap(),
            resumed.lines().next().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_checkpoint_flag_misuse_is_a_usage_error() {
        let dir = temp_dir("ckptmisuse");
        dispatch(&parse(&format!("gen --seed 9 --scale small --out {dir}"))).unwrap();
        let err =
            dispatch(&parse(&format!("simulate {dir} --rounds 4 --kill-at 2"))).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err =
            dispatch(&parse(&format!("simulate {dir} --rounds 4 --resume"))).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_flags_parse_and_bogus_policy_is_rejected() {
        let p = parse("design x --policy fallback --fallback-amount 0.7");
        assert_eq!(
            failure_policy(&p).unwrap(),
            FailurePolicy::FallbackBaseline { amount: 0.7 }
        );
        assert_eq!(
            failure_policy(&parse("design x --policy skip")).unwrap(),
            FailurePolicy::Skip
        );
        assert_eq!(
            failure_policy(&parse("design x")).unwrap(),
            FailurePolicy::Abort
        );
        assert!(failure_policy(&parse("design x --policy sometimes")).is_err());
    }

    /// Writes a small CSV trace for the batch tests (much smaller than
    /// `dcc gen --scale small`, so the grid runs fast).
    fn tiny_trace_dir(tag: &str) -> String {
        let dir = temp_dir(tag);
        let mut cfg = dcc_trace::SyntheticConfig::small(7);
        cfg.n_honest = 14;
        cfg.n_ncm = 5;
        cfg.n_cm_target = 6;
        cfg.n_rounds = 2;
        cfg.n_products = 160;
        write_trace_csv(&cfg.generate(), Path::new(&dir)).unwrap();
        dir
    }

    #[test]
    fn batch_command_runs_a_grid_end_to_end() {
        let dir = tiny_trace_dir("batchrun");
        let spec = format!("{dir}/grid.json");
        std::fs::write(
            &spec,
            format!(
                r#"{{"schema": "dcc-batch/1",
                    "traces": [{{"csv": "{dir}", "label": "t"}}],
                    "mus": [1.5, 1.2],
                    "budget_fractions": [0.5, 1.0],
                    "strategies": ["dynamic", "fixed:0.75"],
                    "sim": {{"rounds": 3, "noise": 0.25, "seed": 9}}}}"#
            ),
        )
        .unwrap();

        let out = dispatch(&parse(&format!("batch {spec} --pool 4"))).unwrap();
        assert!(out.contains("batch: 8 scenarios, 0 failed"), "{out}");
        assert!(out.contains("sim-utility"), "{out}");
        assert!(out.contains("detect:miss"), "{out}");
        assert!(out.contains("detect:hit"), "{out}");
        // 4 scenarios per μ (2 fractions × 2 strategies) share one solve.
        assert!(out.contains("solve:miss"), "{out}");
        assert!(out.contains("solve:hit"), "{out}");
        assert!(out.contains("cache: trace"), "{out}");

        // Pool choice never changes the deterministic report.
        let serial = dispatch(&parse(&format!("batch {spec} --serial"))).unwrap();
        assert_eq!(out, serial);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_bad_grid_spec_is_a_usage_error_naming_the_field() {
        let dir = temp_dir("batchspec");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = format!("{dir}/grid.json");

        // Unknown field, DesignConfig-style naming, exit code 2.
        std::fs::write(&spec, r#"{"traces": [{"scale": "small"}], "mu": [1.0]}"#).unwrap();
        let err = dispatch(&parse(&format!("batch {spec}"))).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().contains("GridSpec has unknown field \"mu\""),
            "{err}"
        );

        // Invalid value inside a nested block is also named.
        std::fs::write(
            &spec,
            r#"{"traces": [{"scale": "small"}], "mus": [1.0], "sim": {"rounds": 0}}"#,
        )
        .unwrap();
        let err = dispatch(&parse(&format!("batch {spec}"))).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("GridSpec.sim.rounds"), "{err}");

        // Missing file is a runtime failure, missing argument a usage one.
        let err = dispatch(&parse("batch /nonexistent/grid.json")).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert_eq!(dispatch(&parse("batch")).unwrap_err().exit_code(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_abort_policy_fails_mid_batch_and_skip_itemizes() {
        let dir = tiny_trace_dir("batchpolicy");
        let spec = format!("{dir}/grid.json");
        // μ = -1 passes the spec but fails design validation at runtime.
        std::fs::write(
            &spec,
            format!(
                r#"{{"traces": [{{"csv": "{dir}"}}], "mus": [1.5, -1.0, 1.2]}}"#
            ),
        )
        .unwrap();

        let err = dispatch(&parse(&format!("batch {spec} --policy abort"))).unwrap_err();
        assert_eq!(err.exit_code(), 1, "mid-batch abort is a runtime failure");
        assert!(err.to_string().contains("scenario 1 failed"), "{err}");
        assert!(err.to_string().contains("mu must be positive"), "{err}");

        let out = dispatch(&parse(&format!("batch {spec} --policy skip"))).unwrap();
        assert!(out.contains("batch: 3 scenarios, 1 failed"), "{out}");
        assert!(out.contains("ERROR: "), "{out}");
        assert!(out.contains("mu must be positive"), "{out}");
        // Terminal failures are itemized in the quarantine section.
        assert!(out.contains("quarantine: 1 scenarios"), "{out}");
        assert!(out.contains("error after 1 attempt:"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_supervision_flag_misuse_is_a_usage_error() {
        let dir = tiny_trace_dir("batchsupmisuse");
        let spec = format!("{dir}/grid.json");
        std::fs::write(
            &spec,
            format!(r#"{{"traces": [{{"csv": "{dir}"}}], "mus": [1.5]}}"#),
        )
        .unwrap();
        for flags in [
            "--kill-at 1".to_string(),
            "--resume".to_string(),
            format!("--checkpoint {dir}/b.ckpt --kill-at 1 --resume"),
        ] {
            let err = dispatch(&parse(&format!("batch {spec} {flags}"))).unwrap_err();
            assert_eq!(err.exit_code(), 2, "batch {flags}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_kill_and_resume_reproduce_the_uninterrupted_output() {
        let dir = tiny_trace_dir("batchkill");
        let spec = format!("{dir}/grid.json");
        let ckpt = format!("{dir}/batch.ckpt");
        std::fs::write(
            &spec,
            format!(
                r#"{{"traces": [{{"csv": "{dir}"}}],
                    "mus": [1.5, 1.2, 1.0],
                    "budget_fractions": [0.5, 1.0]}}"#
            ),
        )
        .unwrap();

        let full = dispatch(&parse(&format!("batch {spec} --serial"))).unwrap();

        let killed = dispatch(&parse(&format!(
            "batch {spec} --serial --checkpoint {ckpt} --kill-at 2"
        )))
        .unwrap();
        assert!(killed.contains("killed after"), "{killed}");
        assert!(killed.contains("continue with --resume"), "{killed}");

        let resumed = dispatch(&parse(&format!(
            "batch {spec} --serial --checkpoint {ckpt} --resume"
        )))
        .unwrap();
        assert_eq!(resumed, full, "resumed output must be byte-identical");

        // A checkpoint written by a different grid is refused (exit 1).
        let other = format!("{dir}/other.json");
        std::fs::write(
            &other,
            format!(r#"{{"traces": [{{"csv": "{dir}"}}], "mus": [2.0]}}"#),
        )
        .unwrap();
        let err = dispatch(&parse(&format!(
            "batch {other} --checkpoint {ckpt} --resume"
        )))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_metrics_document_validates_against_the_obs_schema() {
        let dir = tiny_trace_dir("batchmetrics");
        let spec = format!("{dir}/grid.json");
        let file = format!("{dir}/metrics.json");
        std::fs::write(
            &spec,
            format!(r#"{{"traces": [{{"csv": "{dir}"}}], "mus": [1.5, 1.2]}}"#),
        )
        .unwrap();

        let out =
            dispatch(&parse(&format!("batch {spec} --pool 2 --metrics {file}"))).unwrap();
        assert!(out.contains("wrote metrics to"), "{out}");

        let text = std::fs::read_to_string(&file).unwrap();
        let doc = Json::parse(&text).expect("metrics document parses");
        validate_metrics_doc(&doc).expect("metrics document matches dcc-obs/1");
        for name in [
            dcc_obs::names::COUNTER_BATCH_SCENARIOS,
            dcc_obs::names::COUNTER_BATCH_DETECT_HIT,
            dcc_obs::names::COUNTER_BATCH_SOLVE_MISS,
            dcc_obs::names::GAUGE_BATCH_POOL,
            dcc_obs::names::HIST_BATCH_SCENARIO_US,
            dcc_obs::names::SPAN_BATCH_SCENARIO,
        ] {
            assert!(text.contains(name), "metrics document lacks {name}:\n{text}");
        }
        // And the generic summarizer accepts it.
        let summary = dispatch(&parse(&format!("metrics summarize {file}"))).unwrap();
        assert!(summary.contains("batch.scenarios"), "{summary}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(dispatch(&parse("gen --scale huge")).is_err());
        assert!(dispatch(&parse("experiment bogus")).is_err());
        let dir = temp_dir("badflags");
        dispatch(&parse(&format!("gen --out {dir}"))).unwrap();
        assert!(dispatch(&parse(&format!("simulate {dir} --strategy nope"))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
