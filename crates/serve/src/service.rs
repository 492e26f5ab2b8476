//! The service wrapper around [`ServeState`]: event logging (for
//! checkpoints), `serve.*` metrics, `--verify` cross-checks, and the
//! JSON-lines output rendering the CLI prints.

use dcc_core::CoreError;
use dcc_detect::PipelineConfig;
use dcc_faults::Json;
use dcc_obs::{names, AttrValue, Metrics};

use crate::event::ServeEvent;
use crate::state::{design_digest, RoundOutput, ServeState, ServeStats};

/// The streaming contract service: wraps the incremental
/// [`ServeState`] with an event log (the checkpoint payload), metrics,
/// and deterministic JSON-lines rendering.
///
/// The service is a deterministic state machine over its event log:
/// re-applying the same log from empty reproduces the same state *and*
/// the same counters, which is what makes checkpoint resume
/// byte-identical (see [`crate::ckpt`]).
#[derive(Debug)]
pub struct ServeService {
    state: ServeState,
    metrics: Metrics,
    log: Vec<ServeEvent>,
    /// Round outputs suppressed during a checkpoint restore.
    restored_rounds: usize,
    verify: bool,
}

impl ServeService {
    /// A fresh service over an empty state.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (see [`ServeState::new`]).
    pub fn new(
        pipeline: PipelineConfig,
        design: dcc_core::DesignConfig,
        pool: usize,
        verify: bool,
        metrics: Metrics,
    ) -> Result<Self, CoreError> {
        Ok(ServeService {
            state: ServeState::new(pipeline, design, pool)?,
            metrics,
            log: Vec::new(),
            restored_rounds: 0,
            verify,
        })
    }

    /// Rebuilds a service from a checkpointed event log by re-applying
    /// every event from an empty state, returning the round outputs the
    /// replay reproduces. The service is a deterministic state machine,
    /// so the rebuilt state, counters, and outputs are identical to the
    /// killed run's — a resumed run re-emits the restored rounds and
    /// its full output is byte-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Propagates configuration and event-protocol errors; a log that
    /// fails to re-apply means the checkpoint does not belong to this
    /// configuration.
    pub fn restore(
        pipeline: PipelineConfig,
        design: dcc_core::DesignConfig,
        pool: usize,
        verify: bool,
        metrics: Metrics,
        log: &[ServeEvent],
    ) -> Result<(Self, Vec<RoundOutput>), CoreError> {
        let mut service = ServeService::new(pipeline, design, pool, verify, metrics)?;
        let mut outputs = Vec::new();
        for event in log {
            if let Some(out) = service.apply(event)? {
                outputs.push(out);
            }
        }
        service.restored_rounds = service.state.rounds_seen();
        service.metrics.add(names::COUNTER_SERVE_CKPT_RESTORED, 1);
        Ok((service, outputs))
    }

    /// Ingests one event, returning the rendered output for a round
    /// boundary.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from [`ServeState::apply`] and, under
    /// `--verify`, any bitwise mismatch against the cold batch
    /// recompute.
    pub fn apply(&mut self, event: &ServeEvent) -> Result<Option<RoundOutput>, CoreError> {
        let out = if matches!(event, ServeEvent::Round) {
            let (dirty_workers, dirty_products) = self.state.pending_dirty();
            let span = self.metrics.span(
                names::SPAN_SERVE_ROUND,
                &[
                    ("round", AttrValue::U64(self.state.rounds_seen() as u64)),
                    ("dirty_workers", AttrValue::U64(dirty_workers as u64)),
                    ("dirty_products", AttrValue::U64(dirty_products as u64)),
                ],
            );
            let out = self.state.apply(event)?;
            span.end();
            out
        } else {
            self.state.apply(event)?
        };
        self.log.push(event.clone());
        self.metrics.add(names::COUNTER_SERVE_EVENTS, 1);
        if let Some(out) = &out {
            self.record_round(out);
            if self.verify {
                self.verify_round(out)?;
            }
        }
        Ok(out)
    }

    fn record_round(&self, out: &RoundOutput) {
        let m = &self.metrics;
        if !m.enabled() {
            return;
        }
        m.add(names::COUNTER_SERVE_ROUNDS, 1);
        m.add(names::COUNTER_SERVE_DIRTY_WORKERS, out.dirty_workers as u64);
        m.add(names::COUNTER_SERVE_DIRTY_PRODUCTS, out.dirty_products as u64);
        m.add(names::COUNTER_SERVE_SOLVE_RESOLVED, out.resolved as u64);
        m.add(names::COUNTER_SERVE_SOLVE_REUSED, out.reused as u64);
        m.add(names::COUNTER_SERVE_FIT_REFITS, out.fit_refits as u64);
        m.add(names::COUNTER_SERVE_FIT_REUSED, out.fit_reused as u64);
        m.gauge(
            names::GAUGE_SERVE_INCREMENTAL_RATIO,
            self.state.stats().incremental_ratio(),
        );
    }

    /// Cross-checks one round output against a cold batch recompute
    /// over the same prefix — the `--verify` mode's bit-exactness
    /// guard.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] naming the round on any
    /// divergence (digest mismatch, error-text mismatch, or one path
    /// erring while the other succeeds).
    pub fn verify_round(&self, out: &RoundOutput) -> Result<(), CoreError> {
        let cold = self.state.cold_design();
        match (&out.design, &cold) {
            (Ok(inc), Ok(batch)) => {
                if design_digest(inc) != design_digest(batch) {
                    return Err(CoreError::InvalidInput(format!(
                        "serve --verify: round {} incremental design diverges bitwise from \
                         the batch recompute",
                        out.round
                    )));
                }
            }
            (Err(inc), Err(batch)) => {
                let batch = batch.to_string();
                if inc != &batch {
                    return Err(CoreError::InvalidInput(format!(
                        "serve --verify: round {} error mismatch: incremental {inc:?} vs \
                         batch {batch:?}",
                        out.round
                    )));
                }
            }
            (Ok(_), Err(batch)) => {
                return Err(CoreError::InvalidInput(format!(
                    "serve --verify: round {} incremental succeeded but batch failed: {batch}",
                    out.round
                )));
            }
            (Err(inc), Ok(_)) => {
                return Err(CoreError::InvalidInput(format!(
                    "serve --verify: round {} batch succeeded but incremental failed: {inc}",
                    out.round
                )));
            }
        }
        Ok(())
    }

    /// Renders one round boundary as a JSON line (no trailing newline):
    /// work deltas plus either the design's agent count, total utility,
    /// and bitwise digest, or the rendered design error.
    pub fn output_line(out: &RoundOutput) -> String {
        let mut obj = vec![
            ("round".to_string(), Json::idx(out.round)),
            ("events".to_string(), Json::idx(out.events)),
            ("dirty_workers".to_string(), Json::idx(out.dirty_workers)),
            ("dirty_products".to_string(), Json::idx(out.dirty_products)),
            ("resolved".to_string(), Json::idx(out.resolved)),
            ("reused".to_string(), Json::idx(out.reused)),
        ];
        match &out.design {
            Ok(design) => {
                obj.push(("ok".to_string(), Json::Bool(true)));
                obj.push(("agents".to_string(), Json::idx(design.agents.len())));
                obj.push((
                    "total_utility".to_string(),
                    Json::num(design.total_requester_utility),
                ));
                obj.push((
                    "digest".to_string(),
                    Json::Str(format!("{:016x}", fold_digest(&design_digest(design)))),
                ));
            }
            Err(e) => {
                obj.push(("ok".to_string(), Json::Bool(false)));
                obj.push(("error".to_string(), Json::Str(e.clone())));
            }
        }
        Json::Obj(obj).to_string()
    }

    /// Renders the end-of-run summary as a JSON line. Built purely from
    /// the deterministic counters, so a resumed run's summary is
    /// byte-identical to an uninterrupted run's.
    pub fn summary_line(&self) -> String {
        let s = self.state.stats();
        Json::Obj(vec![
            ("summary".to_string(), Json::Str("serve".to_string())),
            ("events".to_string(), Json::idx(s.events)),
            ("rounds".to_string(), Json::idx(s.rounds)),
            ("dirty_workers".to_string(), Json::idx(s.dirty_workers)),
            ("dirty_products".to_string(), Json::idx(s.dirty_products)),
            ("fit_refits".to_string(), Json::idx(s.fit_refits)),
            ("fit_reused".to_string(), Json::idx(s.fit_reused)),
            ("solve_resolved".to_string(), Json::idx(s.solve_resolved)),
            ("solve_reused".to_string(), Json::idx(s.solve_reused)),
            (
                "incremental_ratio".to_string(),
                Json::num(s.incremental_ratio()),
            ),
        ])
        .to_string()
    }

    /// The event log since process start (the checkpoint payload).
    pub fn log(&self) -> &[ServeEvent] {
        &self.log
    }

    /// Total events applied, including any restored from a checkpoint.
    pub fn events_applied(&self) -> usize {
        self.log.len()
    }

    /// Rounds that were replayed silently during a checkpoint restore.
    pub fn restored_rounds(&self) -> usize {
        self.restored_rounds
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> ServeStats {
        self.state.stats()
    }

    /// The underlying incremental state.
    pub fn state(&self) -> &ServeState {
        &self.state
    }
}

/// Folds a bitwise design digest into one `u64` (FNV-1a over the raw
/// words) — the compact fingerprint printed on every output line.
pub fn fold_digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
