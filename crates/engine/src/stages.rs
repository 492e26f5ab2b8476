//! The six default stage implementations — each a thin, swappable
//! wrapper over the corresponding `dcc-detect` / `dcc-core` entry point.

use crate::context::{EngineSimOutcome, RoundContext, TraceSource};
use crate::error::EngineError;
use crate::stage::{Stage, StageKind};
use dcc_core::{assemble_design, prepare_design, solve_subproblems, BaselineStrategy, Simulation};
use dcc_detect::run_pipeline;
use dcc_faults::{load_sim_state, save_sim_state, FaultInjector};
use dcc_obs::{names as obs, AttrValue};
use std::collections::BTreeSet;
// dcc-lint: allow(wall-clock, reason = "trace-load timing is measured here and routed into dcc-obs via span_at")
use std::time::Instant;

/// Materializes the trace from the configured [`TraceSource`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultIngest;

impl Stage for DefaultIngest {
    fn kind(&self) -> StageKind {
        StageKind::Ingest
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        // dcc-lint: allow(wall-clock, reason = "trace-load timing fed to metrics.span_at below")
        let started = ctx.config().metrics.enabled().then(Instant::now);
        let source = &ctx.config().source;
        let trace = source.load()?;
        let source_kind = match source {
            TraceSource::Provided(_) => "provided",
            TraceSource::CsvDir(_) => "csv",
            TraceSource::Columnar(_) => "columnar",
            TraceSource::Synthetic(_) => "synthetic",
        };
        let metrics = &ctx.config().metrics;
        if metrics.enabled() {
            if let Some(started) = started {
                metrics.span_at(
                    obs::SPAN_TRACE_LOAD,
                    &[("source", AttrValue::from(source_kind))],
                    started.elapsed(),
                );
            }
            metrics.add(obs::COUNTER_TRACE_REVIEWS, trace.reviews().len() as u64);
            metrics.add(obs::COUNTER_TRACE_REVIEWERS, trace.reviewers().len() as u64);
            metrics.gauge(obs::GAUGE_TRACE_WORKERS, trace.reviewers().len() as f64);
        }
        ctx.set_trace(trace);
        Ok(())
    }
}

/// Runs the two-pass §IV detection pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultDetect;

impl Stage for DefaultDetect {
    fn kind(&self) -> StageKind {
        StageKind::Detect
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let detection = run_pipeline(ctx.trace()?, ctx.config().pipeline);
        let metrics = &ctx.config().metrics;
        if metrics.enabled() {
            metrics.add(obs::COUNTER_DETECT_SUSPECTED, detection.suspected.len() as u64);
            metrics.add(
                obs::COUNTER_DETECT_COMMUNITIES,
                detection.collusion.communities.len() as u64,
            );
        }
        ctx.set_detection(detection);
        Ok(())
    }
}

/// Fits effort functions and decomposes into §IV-B subproblems.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultFitEffort;

impl Stage for DefaultFitEffort {
    fn kind(&self) -> StageKind {
        StageKind::FitEffort
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let prep = prepare_design(ctx.trace()?, ctx.detection()?, &ctx.config().design)?;
        let metrics = &ctx.config().metrics;
        if metrics.enabled() {
            metrics.add(obs::COUNTER_FIT_SUBPROBLEMS, prep.subproblems.len() as u64);
        }
        ctx.set_prep(prep);
        Ok(())
    }
}

/// Solves the decomposition across the configured worker pool.
///
/// Results are bit-identical for every pool size (deterministic chunked
/// fan-out, see [`solve_subproblems`]), so the engine treats the
/// pool as a pure throughput knob.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSolve;

impl Stage for DefaultSolve {
    fn kind(&self) -> StageKind {
        StageKind::SolveSubproblems
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let config = ctx.config();
        let (solution, degradation) = solve_subproblems(
            &ctx.prep()?.subproblems,
            &config.design.params,
            config.pool.resolve(),
            config.design.failure_policy,
            &config.metrics,
        )?;
        ctx.set_solution(solution, degradation);
        Ok(())
    }
}

/// Assembles the solved decomposition into per-worker contracts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultConstruct;

impl Stage for DefaultConstruct {
    fn kind(&self) -> StageKind {
        StageKind::ConstructContracts
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let (solution, degradation) = ctx.solved()?.clone();
        let design = assemble_design(ctx.detection()?, ctx.prep()?, solution, degradation);
        let metrics = &ctx.config().metrics;
        if metrics.enabled() {
            metrics.add(obs::COUNTER_DESIGN_AGENTS, design.agents.len() as u64);
            metrics.gauge(obs::GAUGE_DESIGN_UTILITY, design.total_requester_utility);
            for d in &design.degradation.degraded {
                metrics.event(
                    obs::EVENT_DESIGN_DEGRADED,
                    &[
                        ("subproblem", d.subproblem.into()),
                        (
                            "action",
                            AttrValue::from(match d.action {
                                dcc_core::DegradationAction::Fallback { .. } => "fallback",
                                dcc_core::DegradationAction::Skipped => "skipped",
                            }),
                        ),
                        (
                            "utility_delta",
                            d.utility_delta.map_or(AttrValue::from("unknown"), AttrValue::from),
                        ),
                    ],
                );
            }
        }
        ctx.set_design(design);
        Ok(())
    }
}

/// Plays the repeated game under the configured strategy, fault plan,
/// and checkpoint options — the same round loop as `dcc simulate`, so a
/// kill-at/resume pair through the engine reproduces the uninterrupted
/// outcome bit-exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSimulate;

impl Stage for DefaultSimulate {
    fn kind(&self) -> StageKind {
        StageKind::Simulate
    }

    fn run(&self, ctx: &mut RoundContext) -> Result<(), EngineError> {
        let config = ctx.config();
        let options = &config.sim_options;
        if options.resume && options.checkpoint.is_none() {
            return Err(EngineError::Config(
                "--resume requires --checkpoint FILE".into(),
            ));
        }
        if options.kill_at.is_some() && options.checkpoint.is_none() {
            return Err(EngineError::Config(
                "--kill-at requires --checkpoint FILE".into(),
            ));
        }

        let design = ctx.design()?;
        let suspected: BTreeSet<_> = ctx.detection()?.suspected.iter().copied().collect();
        let agents = BaselineStrategy::new(config.strategy).assemble(
            design,
            config.design.params.omega,
            &suspected,
            ctx.trace()?,
        )?;
        let sim = Simulation::new(config.design.params, config.sim);
        let mut injector = FaultInjector::new(&options.fault_plan);
        let checkpoint = options.checkpoint.clone();
        let kill_at = options.kill_at;
        let sim_config = config.sim;
        let faults_scheduled = options.fault_plan.len();
        let metrics = config.metrics.clone();

        let mut state = match (&checkpoint, options.resume) {
            (Some(cp), true) => load_sim_state(cp)?,
            _ => sim.start(&agents)?,
        };

        let outcome = loop {
            if !state.is_complete(&sim_config) {
                if let Some(k) = kill_at {
                    if state.next_round >= k {
                        // `kill_at` implies `checkpoint`, validated above.
                        if let Some(cp) = &checkpoint {
                            save_sim_state(cp, &state)?;
                            break EngineSimOutcome::Killed {
                                at_round: state.next_round,
                                total_rounds: sim_config.rounds,
                                checkpoint: cp.clone(),
                            };
                        }
                    }
                }
            }
            if !sim.step(&agents, &mut state, &mut injector) {
                break EngineSimOutcome::Completed {
                    outcome: sim.outcome_of(&state)?,
                    faults_scheduled,
                    faults_fired: injector.log().len(),
                };
            }
            if metrics.enabled() {
                metrics.add(obs::COUNTER_SIM_ROUNDS, 1);
                if let Some(rec) = state.rounds.last() {
                    metrics.event(
                        obs::EVENT_SIM_ROUND,
                        &[
                            ("round", rec.round.into()),
                            ("benefit", rec.benefit.into()),
                            ("payment", rec.payment.into()),
                            ("u_req", rec.requester_utility.into()),
                        ],
                    );
                }
            }
            if let Some(cp) = &checkpoint {
                save_sim_state(cp, &state)?;
            }
        };
        if metrics.enabled() {
            metrics.gauge(obs::GAUGE_FAULTS_SCHEDULED, faults_scheduled as f64);
            let counts = injector.hit_counts();
            metrics.add(obs::COUNTER_FAULTS_FIRED, counts.total() as u64);
            metrics.add(obs::COUNTER_FAULTS_DROPPED, counts.dropped as u64);
            metrics.add(obs::COUNTER_FAULTS_LOST, counts.lost_feedback as u64);
            metrics.add(obs::COUNTER_FAULTS_CORRUPTED, counts.corrupted_feedback as u64);
            metrics.add(obs::COUNTER_FAULTS_DELAYED, counts.delayed_payments as u64);
        }
        ctx.set_outcome(outcome);
        Ok(())
    }
}
