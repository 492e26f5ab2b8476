//! The `dcc-batch-ckpt/1` checkpoint: a periodic partial-results
//! snapshot of a supervised batch run, keyed by the grid fingerprint.
//!
//! A checkpoint stores, per completed scenario, either a
//! [`ScenarioSummary`] (the canonical deterministic outputs of a
//! successful scenario) or the terminal [`ScenarioFailure`] — plus the
//! attempt count either way. Floats round-trip bit-exactly through
//! [`dcc_faults::Json`]'s shortest-round-trip rendering, which is what
//! makes a resumed run's output byte-identical to an uninterrupted one.
//!
//! The file is written atomically (temp file + rename) every
//! [`crate::CheckpointConfig::every`] fresh completions, and validated
//! on load against the schema string, the grid fingerprint, and the
//! scenario count — a checkpoint from a different grid (or a different
//! trace seed) is rejected instead of silently mixing results.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use dcc_faults::{save_bytes_atomic, Json};

use crate::runner::ScenarioOutcome;
use crate::supervisor::{FailureKind, ScenarioFailure};

/// Schema tag of the batch checkpoint format.
pub const CKPT_SCHEMA: &str = "dcc-batch-ckpt/1";

/// The canonical per-agent outputs of a designed scenario — everything
/// the batch CLI and the differential suites derive per agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSummary {
    /// Worker index within the trace.
    pub worker: usize,
    /// Subproblem the worker was assigned to.
    pub subproblem: usize,
    /// Designed per-round compensation.
    pub compensation: f64,
    /// Effort level the contract induces.
    pub induced_effort: f64,
}

/// The canonical outputs of a simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Rounds simulated.
    pub rounds: usize,
    /// Cumulative requester utility over the run.
    pub cumulative_requester_utility: f64,
    /// Mean per-round requester utility.
    pub mean_round_utility: f64,
}

/// The deterministic, checkpoint-serializable outputs of one
/// successful scenario. This is the *canonical output surface* of a
/// batch scenario: everything `dcc batch` renders and everything the
/// byte-identity differential tests compare is derivable from it,
/// whether the scenario was computed this run or restored from a
/// `dcc-batch-ckpt/1` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// The designed `Σ (w q − μ c)` requester utility.
    pub total_requester_utility: f64,
    /// Per-agent design outputs, in design order.
    pub agents: Vec<AgentSummary>,
    /// Subproblems the failure policy degraded.
    pub degraded: usize,
    /// Funded subproblem ids, in funding order.
    pub funded: Vec<usize>,
    /// Total compensation committed within budget.
    pub spend: f64,
    /// The budget that was available.
    pub budget: f64,
    /// Requester utility of the funded set.
    pub budget_utility: f64,
    /// Unbudgeted total spend of the full design.
    pub full_spend: f64,
    /// Simulation outputs, when the grid simulates.
    pub sim: Option<SimSummary>,
}

impl ScenarioSummary {
    /// Derives the canonical summary of a computed outcome.
    pub fn of(outcome: &ScenarioOutcome) -> Self {
        ScenarioSummary {
            total_requester_utility: outcome.design.total_requester_utility,
            agents: outcome
                .design
                .agents
                .iter()
                .map(|a| AgentSummary {
                    worker: a.worker.index(),
                    subproblem: a.subproblem,
                    compensation: a.compensation,
                    induced_effort: a.induced_effort,
                })
                .collect(),
            degraded: outcome.design.degradation.len(),
            funded: outcome.budget.funded.clone(),
            spend: outcome.budget.spend,
            budget: outcome.budget.budget,
            budget_utility: outcome.budget.utility,
            full_spend: outcome.full_spend,
            sim: outcome.sim.as_ref().map(|sim| SimSummary {
                rounds: sim.rounds.len(),
                cumulative_requester_utility: sim.cumulative_requester_utility,
                mean_round_utility: sim.mean_round_utility,
            }),
        }
    }
}

/// One checkpointed scenario result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CkptEntry {
    /// Attempts the supervisor performed.
    pub attempts: usize,
    /// Success summary or terminal failure.
    pub payload: CkptPayload,
}

/// Success or failure payload of a checkpoint entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CkptPayload {
    Summary(ScenarioSummary),
    Failure(ScenarioFailure),
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn summary_to_json(s: &ScenarioSummary) -> Json {
    let mut fields = vec![
        ("utility", Json::num(s.total_requester_utility)),
        (
            "agents",
            Json::Arr(
                s.agents
                    .iter()
                    .map(|a| {
                        obj(vec![
                            ("worker", Json::idx(a.worker)),
                            ("subproblem", Json::idx(a.subproblem)),
                            ("compensation", Json::num(a.compensation)),
                            ("induced_effort", Json::num(a.induced_effort)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("degraded", Json::idx(s.degraded)),
        ("funded", Json::Arr(s.funded.iter().map(|&f| Json::idx(f)).collect())),
        ("spend", Json::num(s.spend)),
        ("budget", Json::num(s.budget)),
        ("budget_utility", Json::num(s.budget_utility)),
        ("full_spend", Json::num(s.full_spend)),
    ];
    if let Some(sim) = &s.sim {
        fields.push((
            "sim",
            obj(vec![
                ("rounds", Json::idx(sim.rounds)),
                ("cumulative_utility", Json::num(sim.cumulative_requester_utility)),
                ("mean_round_utility", Json::num(sim.mean_round_utility)),
            ]),
        ));
    }
    obj(fields)
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    json.get(name).ok_or_else(|| format!("missing field {name}"))
}

fn as_f64(json: &Json, name: &str) -> Result<f64, String> {
    field(json, name)?
        .as_f64()
        .ok_or_else(|| format!("field {name} is not a number"))
}

fn as_idx(json: &Json, name: &str) -> Result<usize, String> {
    field(json, name)?
        .as_idx()
        .ok_or_else(|| format!("field {name} is not an index"))
}

fn as_str<'a>(json: &'a Json, name: &str) -> Result<&'a str, String> {
    field(json, name)?
        .as_str()
        .ok_or_else(|| format!("field {name} is not a string"))
}

fn as_arr<'a>(json: &'a Json, name: &str) -> Result<&'a [Json], String> {
    field(json, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name} is not an array"))
}

fn summary_from_json(json: &Json) -> Result<ScenarioSummary, String> {
    let agents = as_arr(json, "agents")?
        .iter()
        .map(|a| {
            Ok(AgentSummary {
                worker: as_idx(a, "worker")?,
                subproblem: as_idx(a, "subproblem")?,
                compensation: as_f64(a, "compensation")?,
                induced_effort: as_f64(a, "induced_effort")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let funded = as_arr(json, "funded")?
        .iter()
        .map(|f| f.as_idx().ok_or_else(|| "funded entry is not an index".to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let sim = match json.get("sim") {
        None => None,
        Some(sim) => Some(SimSummary {
            rounds: as_idx(sim, "rounds")?,
            cumulative_requester_utility: as_f64(sim, "cumulative_utility")?,
            mean_round_utility: as_f64(sim, "mean_round_utility")?,
        }),
    };
    Ok(ScenarioSummary {
        total_requester_utility: as_f64(json, "utility")?,
        agents,
        degraded: as_idx(json, "degraded")?,
        funded,
        spend: as_f64(json, "spend")?,
        budget: as_f64(json, "budget")?,
        budget_utility: as_f64(json, "budget_utility")?,
        full_spend: as_f64(json, "full_spend")?,
        sim,
    })
}

fn entry_to_json(id: usize, entry: &CkptEntry) -> Json {
    let mut fields = vec![("id", Json::idx(id)), ("attempts", Json::idx(entry.attempts))];
    match &entry.payload {
        CkptPayload::Summary(summary) => fields.push(("summary", summary_to_json(summary))),
        CkptPayload::Failure(failure) => fields.push((
            "failure",
            obj(vec![
                ("kind", Json::Str(failure.kind.label().to_string())),
                ("message", Json::Str(failure.message.clone())),
            ]),
        )),
    }
    obj(fields)
}

fn entry_from_json(json: &Json, total: usize) -> Result<(usize, CkptEntry), String> {
    let id = as_idx(json, "id")?;
    if id >= total {
        return Err(format!("scenario id {id} out of range (grid has {total})"));
    }
    let attempts = as_idx(json, "attempts")?;
    let payload = match (json.get("summary"), json.get("failure")) {
        (Some(summary), None) => CkptPayload::Summary(summary_from_json(summary)?),
        (None, Some(failure)) => {
            let kind_label = as_str(failure, "kind")?;
            let kind = FailureKind::parse(kind_label)
                .ok_or_else(|| format!("unknown failure kind {kind_label:?}"))?;
            CkptPayload::Failure(ScenarioFailure {
                kind,
                message: as_str(failure, "message")?.to_string(),
                attempts,
            })
        }
        _ => return Err(format!("record {id} needs exactly one of summary/failure")),
    };
    Ok((id, CkptEntry { attempts, payload }))
}

/// Renders a checkpoint document. Entries are keyed (and rendered) in
/// scenario-id order, so the bytes are a pure function of the results.
pub(crate) fn render_checkpoint(
    grid_fp: u64,
    total: usize,
    entries: &BTreeMap<usize, CkptEntry>,
) -> String {
    let doc = obj(vec![
        ("schema", Json::Str(CKPT_SCHEMA.to_string())),
        ("grid_fingerprint", Json::Str(format!("{grid_fp:016x}"))),
        ("scenarios", Json::idx(total)),
        (
            "records",
            Json::Arr(entries.iter().map(|(&id, e)| entry_to_json(id, e)).collect()),
        ),
    ]);
    doc.to_string()
}

/// Parses and validates a checkpoint document against the running
/// grid's fingerprint and scenario count.
///
/// # Errors
///
/// A diagnostic string on malformed JSON, schema mismatch, fingerprint
/// mismatch (the checkpoint belongs to a different grid), scenario
/// count mismatch, or out-of-range ids.
pub(crate) fn parse_checkpoint(
    text: &str,
    grid_fp: u64,
    total: usize,
) -> Result<BTreeMap<usize, CkptEntry>, String> {
    let doc = Json::parse(text).map_err(|e| format!("malformed checkpoint: {e}"))?;
    let schema = as_str(&doc, "schema")?;
    if schema != CKPT_SCHEMA {
        return Err(format!("checkpoint schema {schema:?} is not {CKPT_SCHEMA:?}"));
    }
    let fp = as_str(&doc, "grid_fingerprint")?;
    let expected = format!("{grid_fp:016x}");
    if fp != expected {
        return Err(format!(
            "checkpoint grid fingerprint {fp} does not match this grid ({expected}); \
             refusing to mix results across grids"
        ));
    }
    let count = as_idx(&doc, "scenarios")?;
    if count != total {
        return Err(format!(
            "checkpoint covers {count} scenarios but the grid has {total}"
        ));
    }
    let mut entries = BTreeMap::new();
    for record in as_arr(&doc, "records")? {
        let (id, entry) = entry_from_json(record, total)?;
        if entries.insert(id, entry).is_some() {
            return Err(format!("duplicate checkpoint record for scenario {id}"));
        }
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct WriterState {
    entries: BTreeMap<usize, CkptEntry>,
    /// Fresh completions since the last flush.
    pending: usize,
    /// First I/O error, surfaced after the run (worker threads must
    /// not abort mid-scenario on a full disk).
    error: Option<String>,
}

/// Thread-safe periodic checkpoint writer. `record` is called from
/// worker threads as scenarios complete; the file is rewritten (whole,
/// atomically) every `every` fresh completions and on [`CkptWriter::flush`].
pub(crate) struct CkptWriter {
    path: PathBuf,
    every: usize,
    grid_fp: u64,
    total: usize,
    state: Mutex<WriterState>,
}

impl CkptWriter {
    pub(crate) fn new(
        path: &Path,
        every: usize,
        grid_fp: u64,
        total: usize,
        restored: BTreeMap<usize, CkptEntry>,
    ) -> Self {
        CkptWriter {
            path: path.to_path_buf(),
            every: every.max(1),
            grid_fp,
            total,
            state: Mutex::new(WriterState {
                entries: restored,
                pending: 0,
                error: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one fresh completion; flushes when `every` accumulate.
    pub(crate) fn record(&self, id: usize, entry: CkptEntry) {
        let mut state = self.lock();
        state.entries.insert(id, entry);
        state.pending += 1;
        if state.pending >= self.every {
            Self::write(&self.path, self.grid_fp, self.total, &mut state);
        }
    }

    /// Forces a write of the current entries.
    pub(crate) fn flush(&self) {
        let mut state = self.lock();
        Self::write(&self.path, self.grid_fp, self.total, &mut state);
    }

    /// Scenarios with checkpointed results.
    pub(crate) fn completed(&self) -> usize {
        self.lock().entries.len()
    }

    /// The first I/O error hit while writing, if any.
    pub(crate) fn take_error(&self) -> Option<String> {
        self.lock().error.take()
    }

    fn write(path: &Path, grid_fp: u64, total: usize, state: &mut WriterState) {
        state.pending = 0;
        let text = render_checkpoint(grid_fp, total, &state.entries);
        let result = save_bytes_atomic(path, text.as_bytes());
        if let (Err(e), None) = (result, &state.error) {
            state.error = Some(format!("cannot write checkpoint {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(sim: bool) -> ScenarioSummary {
        ScenarioSummary {
            total_requester_utility: 12.345_678_901_234_567,
            agents: vec![
                AgentSummary {
                    worker: 0,
                    subproblem: 1,
                    compensation: 0.1 + 0.2, // deliberately non-representable
                    induced_effort: 1e-17,
                },
                AgentSummary {
                    worker: 7,
                    subproblem: 0,
                    compensation: f64::MIN_POSITIVE,
                    induced_effort: 0.0,
                },
            ],
            degraded: 1,
            funded: vec![1, 0],
            spend: 2.5,
            budget: 3.0,
            budget_utility: 1.75,
            full_spend: 4.0,
            sim: sim.then(|| SimSummary {
                rounds: 16,
                cumulative_requester_utility: -3.25,
                mean_round_utility: -0.203_125,
            }),
        }
    }

    #[test]
    fn summaries_round_trip_bit_exactly() {
        for sim in [false, true] {
            let summary = sample_summary(sim);
            let json = summary_to_json(&summary);
            let reparsed = Json::parse(&json.to_string()).unwrap();
            let back = summary_from_json(&reparsed).unwrap();
            assert_eq!(back, summary);
            // PartialEq on f64 treats -0.0 == 0.0; check bits too.
            assert_eq!(
                back.total_requester_utility.to_bits(),
                summary.total_requester_utility.to_bits()
            );
            for (a, b) in back.agents.iter().zip(&summary.agents) {
                assert_eq!(a.compensation.to_bits(), b.compensation.to_bits());
                assert_eq!(a.induced_effort.to_bits(), b.induced_effort.to_bits());
            }
        }
    }

    #[test]
    fn documents_round_trip_and_validate() {
        let mut entries = BTreeMap::new();
        entries.insert(
            0,
            CkptEntry { attempts: 1, payload: CkptPayload::Summary(sample_summary(true)) },
        );
        entries.insert(
            3,
            CkptEntry {
                attempts: 2,
                payload: CkptPayload::Failure(ScenarioFailure {
                    kind: FailureKind::Panic,
                    message: "injected fault: scenario 3 panics at Solve (attempt 1)".into(),
                    attempts: 2,
                }),
            },
        );
        let text = render_checkpoint(0xdead_beef, 6, &entries);
        let back = parse_checkpoint(&text, 0xdead_beef, 6).unwrap();
        assert_eq!(back, entries);
        // Rendering is canonical: a round-trip reproduces the bytes.
        assert_eq!(render_checkpoint(0xdead_beef, 6, &back), text);

        let fp_err = parse_checkpoint(&text, 0xdead_beee, 6).unwrap_err();
        assert!(fp_err.contains("fingerprint"), "{fp_err}");
        let count_err = parse_checkpoint(&text, 0xdead_beef, 5).unwrap_err();
        assert!(count_err.contains("5"), "{count_err}");
        let schema_err =
            parse_checkpoint(&text.replace("dcc-batch-ckpt/1", "bogus/9"), 0xdead_beef, 6)
                .unwrap_err();
        assert!(schema_err.contains("schema"), "{schema_err}");
    }

    #[test]
    fn out_of_range_and_duplicate_ids_are_rejected() {
        let mut entries = BTreeMap::new();
        entries.insert(
            5,
            CkptEntry { attempts: 1, payload: CkptPayload::Summary(sample_summary(false)) },
        );
        let text = render_checkpoint(1, 6, &entries);
        assert!(parse_checkpoint(&text, 1, 6).is_ok());
        // Same document declared over a 5-scenario grid: id 5 overflows
        // (count check fires first, so patch the count too).
        let shrunk = text.replace("\"scenarios\":6", "\"scenarios\":5");
        let err = parse_checkpoint(&shrunk, 1, 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn writer_batches_flushes_and_renames_atomically() {
        let dir =
            std::env::temp_dir().join(format!("dcc-ckpt-writer-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.ckpt");
        let writer = CkptWriter::new(&path, 2, 9, 4, BTreeMap::new());
        writer.record(
            1,
            CkptEntry { attempts: 1, payload: CkptPayload::Summary(sample_summary(false)) },
        );
        assert!(!path.exists(), "below the flush threshold");
        writer.record(
            0,
            CkptEntry { attempts: 3, payload: CkptPayload::Summary(sample_summary(true)) },
        );
        assert!(path.exists(), "threshold reached");
        assert_eq!(writer.completed(), 2);
        let loaded =
            parse_checkpoint(&std::fs::read_to_string(&path).unwrap(), 9, 4).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(writer.take_error().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rename_reports_the_first_error_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dcc-ckpt-rename-test-{}", std::process::id()));
        // The checkpoint path is an existing directory, so the write to
        // the sibling temp file succeeds and the rename onto it fails.
        let path = dir.join("batch.ckpt");
        std::fs::create_dir_all(&path).unwrap();
        let writer = CkptWriter::new(&path, 1, 9, 4, BTreeMap::new());
        let entry = || CkptEntry {
            attempts: 1,
            payload: CkptPayload::Summary(sample_summary(false)),
        };
        writer.record(0, entry());
        writer.record(1, entry());
        let err = writer.take_error().expect("the failed rename is reported");
        assert!(
            err.starts_with(&format!("cannot write checkpoint {}: ", path.display())),
            "{err}"
        );
        assert!(
            writer.take_error().is_none(),
            "only the first error is kept"
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "the temp file is removed"
        );
        assert!(path.is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
