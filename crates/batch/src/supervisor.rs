//! Scenario supervision: panic isolation, bounded retry,
//! work-budget enforcement, and quarantine.
//!
//! The batch runner executes untrusted-ish scenario pipelines on shared
//! worker threads over a shared [`crate::StageMemo`]. This module
//! provides the machinery that keeps one poisoned scenario from taking
//! the sweep down with it:
//!
//! - [`Slot`] — a compute-once cell like `OnceLock`, except a panicking
//!   initializer *resets* the cell instead of wedging it, so a waiting
//!   sibling retries the computation itself and a panic can never leave
//!   a partial value behind (memo-poisoning guarantee).
//! - [`supervise_attempts`] — a plain attempt loop around scenario
//!   execution: panics and injected transient errors retry, deterministic
//!   pipeline errors and budget exhaustion fail fast.
//! - [`WorkBudget`] — a *logical* per-scenario timeout: stages charge
//!   data-derived work units up front, so the budget is deterministic
//!   and pool-invariant (a wall-clock timeout would be neither, and the
//!   workspace lint forbids wall clocks outside `dcc-obs` anyway).
//! - [`BatchFaultPlan`] — deterministic fault injection for tests and
//!   chaos runs: panic, transient error, or in-stage panic at a chosen
//!   pipeline point of a chosen scenario, for its first *k* attempts.
//! - [`QuarantineReport`] — the typed record of scenarios that
//!   exhausted their retries, surfaced through
//!   [`crate::BatchReport::quarantine`].

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::runner::BatchReport;

/// Options of a supervised batch run (see
/// [`crate::BatchRunner::run_supervised`]).
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Retries granted to each scenario beyond its first attempt. Only
    /// panics and injected transient errors retry; deterministic
    /// pipeline errors fail fast.
    pub max_retries: usize,
    /// Logical work-budget per scenario attempt, in data-derived work
    /// units (reviews for detect/fit, subproblems × intervals for
    /// solve, rounds × agents for simulate). `None` disables the check.
    pub scenario_budget: Option<u64>,
    /// Stop pulling new scenarios once this many *fresh* (non-restored)
    /// scenarios completed, flush the checkpoint, and return
    /// [`BatchOutcome::Killed`]. Requires [`SupervisorOptions::checkpoint`].
    pub kill_after: Option<usize>,
    /// Periodic partial-results checkpointing (`dcc-batch-ckpt/1`).
    pub checkpoint: Option<CheckpointConfig>,
    /// Restore completed scenarios from the checkpoint file before
    /// running; restored scenarios are not recomputed. Requires
    /// [`SupervisorOptions::checkpoint`].
    pub resume: bool,
    /// Deterministic fault injection (tests and chaos runs only).
    pub faults: BatchFaultPlan,
}

/// Where and how often a supervised run snapshots partial results.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically: temp file + rename).
    pub path: PathBuf,
    /// Flush after this many fresh scenario completions (min 1).
    pub every: usize,
}

impl CheckpointConfig {
    /// A checkpoint at `path` flushed after every completion.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig { path: path.into(), every: 1 }
    }
}

/// What a supervised batch run produced.
#[derive(Debug)]
pub enum BatchOutcome {
    /// Every scenario ran (or was restored); the full report.
    Completed(BatchReport),
    /// The run stopped early at the configured kill threshold.
    Killed {
        /// Scenarios with results in the checkpoint (restored included;
        /// may exceed the threshold by in-flight completions).
        completed: usize,
        /// Scenarios in the grid.
        total: usize,
        /// Where the partial results were saved.
        checkpoint: PathBuf,
    },
}

impl BatchOutcome {
    /// The completed report, if the run was not killed.
    pub fn into_report(self) -> Option<BatchReport> {
        match self {
            BatchOutcome::Completed(report) => Some(report),
            BatchOutcome::Killed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Failures and quarantine
// ---------------------------------------------------------------------------

/// Why a quarantined scenario failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The final attempt panicked (caught by the supervisor).
    Panic,
    /// The final attempt returned a pipeline error.
    Error,
    /// The attempt exceeded its logical work budget.
    BudgetExhausted,
}

impl FailureKind {
    /// Stable label used by the checkpoint format and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
            FailureKind::BudgetExhausted => "budget-exhausted",
        }
    }

    /// Parses a [`FailureKind::label`].
    pub(crate) fn parse(label: &str) -> Option<FailureKind> {
        match label {
            "panic" => Some(FailureKind::Panic),
            "error" => Some(FailureKind::Error),
            "budget-exhausted" => Some(FailureKind::BudgetExhausted),
            _ => None,
        }
    }
}

/// The terminal failure of a supervised scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// What went wrong on the final attempt.
    pub kind: FailureKind,
    /// The pipeline error, panic message, or budget diagnostic.
    pub message: String,
    /// Attempts performed (1 = failed on the first try with no retry
    /// budget left).
    pub attempts: usize,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FailureKind::Panic => write!(f, "panicked: {}", self.message)?,
            FailureKind::Error | FailureKind::BudgetExhausted => {
                write!(f, "{}", self.message)?;
            }
        }
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

/// One quarantined scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Scenario id within the grid.
    pub scenario: usize,
    /// Final failure kind.
    pub kind: FailureKind,
    /// Attempts performed before quarantine.
    pub attempts: usize,
    /// Final failure message.
    pub message: String,
}

/// Scenarios that exhausted supervision and were isolated from the
/// rest of the sweep, in input (scenario-id) order — deterministic at
/// every pool size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Quarantined scenarios in scenario-id order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// Number of quarantined scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Quarantined scenarios whose final failure was the given kind.
    pub fn count_of(&self, kind: FailureKind) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }
}

// ---------------------------------------------------------------------------
// Attempt plumbing
// ---------------------------------------------------------------------------

/// What one supervised attempt can report. Panics and transients are
/// retryable; pipeline errors and budget exhaustion are terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AttemptError {
    /// The attempt panicked; the supervisor caught it at the scenario
    /// boundary (or a [`Slot`] caught it at a stage boundary).
    Panic(String),
    /// An injected transient failure (chaos/testing only).
    Transient(String),
    /// A deterministic pipeline error — retrying cannot help.
    Error(String),
    /// The logical work budget ran out before the named stage.
    Budget {
        /// Work units the attempt had consumed including the stage
        /// that tripped the budget.
        needed: u64,
        /// The configured budget.
        budget: u64,
        /// The stage whose admission charge tripped the budget.
        stage: &'static str,
    },
}

impl AttemptError {
    pub(crate) fn retryable(e: &AttemptError) -> bool {
        matches!(e, AttemptError::Panic(_) | AttemptError::Transient(_))
    }

    fn into_failure(self, attempts: usize) -> ScenarioFailure {
        match self {
            AttemptError::Panic(message) => ScenarioFailure {
                kind: FailureKind::Panic,
                message,
                attempts,
            },
            AttemptError::Transient(message) | AttemptError::Error(message) => ScenarioFailure {
                kind: FailureKind::Error,
                message,
                attempts,
            },
            AttemptError::Budget { needed, budget, stage } => ScenarioFailure {
                kind: FailureKind::BudgetExhausted,
                message: format!(
                    "work budget exhausted before {stage}: \
                     needs {needed} logical units, budget {budget}"
                ),
                attempts,
            },
        }
    }
}

/// Runs `attempt(0)`, `attempt(1)`, … until one succeeds, one fails
/// with a non-retryable error, or `max_retries + 1` attempts (saturating)
/// have run. Only panics and transient errors retry. Returns the result
/// plus the attempts performed, a pure function of the attempt results:
/// the scenario id names the caller's scenario but never changes the
/// retry behaviour.
pub(crate) fn supervise_attempts<T>(
    _scenario_id: usize,
    max_retries: usize,
    mut attempt: impl FnMut(usize) -> Result<T, AttemptError>,
) -> (Result<T, ScenarioFailure>, usize) {
    let max_attempts = max_retries.saturating_add(1);
    let mut attempts = 0;
    loop {
        let result = attempt(attempts);
        attempts += 1;
        match result {
            Ok(value) => return (Ok(value), attempts),
            Err(e) if AttemptError::retryable(&e) && attempts < max_attempts => {}
            Err(e) => return (Err(e.into_failure(attempts)), attempts),
        }
    }
}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// `catch_unwind`) as a human-readable message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

// ---------------------------------------------------------------------------
// Logical work budget
// ---------------------------------------------------------------------------

/// A logical per-attempt work meter. Stages charge *data-derived* costs
/// before running (regardless of memo state), so exhaustion is
/// deterministic, pool-invariant, and resume-invariant — unlike any
/// wall-clock timeout.
#[derive(Debug)]
pub(crate) struct WorkBudget {
    budget: Option<u64>,
    used: u64,
}

impl WorkBudget {
    pub(crate) fn new(budget: Option<u64>) -> Self {
        WorkBudget { budget, used: 0 }
    }

    /// Charges `units` for the named stage; errs with
    /// [`AttemptError::Budget`] once the running total exceeds the
    /// budget.
    pub(crate) fn charge(&mut self, stage: &'static str, units: u64) -> Result<(), AttemptError> {
        self.used = self.used.saturating_add(units);
        match self.budget {
            Some(budget) if self.used > budget => Err(AttemptError::Budget {
                needed: self.used,
                budget,
                stage,
            }),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Pipeline point a scenario fault fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before/inside the detection stage.
    Detect,
    /// Before/inside the ψ-fit stage.
    Fit,
    /// Before/inside the solve/construct stage.
    Solve,
    /// Before the simulation stage.
    Simulate,
}

/// How an injected scenario fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic at the scenario level, *before* consulting the shared
    /// stage slot — deterministic and pool-invariant.
    Panic,
    /// Return a retryable transient error at the scenario level.
    TransientError,
    /// Panic *inside* the shared stage computation, exercising the
    /// [`Slot`] recovery path. Deterministic only when the faulted
    /// scenario's stage key is unique in the grid (otherwise a sibling
    /// may compute the stage first and the fault never fires).
    PanicInStage,
}

/// One scheduled fault: scenario attempts `0..fails_before` fail at
/// `point` with `mode`; later attempts run clean (so retries recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFault {
    /// Where in the pipeline the fault fires.
    pub point: FaultPoint,
    /// How the fault manifests.
    pub mode: FaultMode,
    /// Attempts that fail (e.g. `1` = first attempt only; `usize::MAX`
    /// = every attempt, forcing quarantine).
    pub fails_before: usize,
}

/// A deterministic schedule of per-scenario faults for tests and chaos
/// runs. All targeting is by scenario id, so the schedule is a pure
/// function of the grid — never of thread timing.
#[derive(Debug, Clone, Default)]
pub struct BatchFaultPlan {
    faults: BTreeMap<usize, ScenarioFault>,
}

impl BatchFaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        BatchFaultPlan::default()
    }

    /// Schedules `fault` for the scenario with the given id.
    #[must_use]
    pub fn with_fault(mut self, scenario: usize, fault: ScenarioFault) -> Self {
        self.faults.insert(scenario, fault);
        self
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn armed(&self, scenario: usize, attempt: usize, point: FaultPoint) -> Option<&ScenarioFault> {
        self.faults
            .get(&scenario)
            .filter(|f| f.point == point && attempt < f.fails_before)
    }

    /// Fires scenario-level faults ([`FaultMode::Panic`] panics right
    /// here — the supervisor's `catch_unwind` catches it —
    /// [`FaultMode::TransientError`] returns the retryable error).
    /// Called before the stage consults its shared slot, so injection
    /// is pool-invariant.
    // Panicking is this function's contract: it exists to exercise the
    // supervisor's catch_unwind isolation.
    #[allow(clippy::panic)]
    pub(crate) fn fire_at(
        &self,
        scenario: usize,
        attempt: usize,
        point: FaultPoint,
    ) -> Result<(), AttemptError> {
        match self.armed(scenario, attempt, point).map(|f| f.mode) {
            Some(FaultMode::Panic) => std::panic::panic_any(format!(
                "injected fault: scenario {scenario} panics at {point:?} (attempt {attempt})"
            )),
            Some(FaultMode::TransientError) => Err(AttemptError::Transient(format!(
                "injected fault: scenario {scenario} transient at {point:?} (attempt {attempt})"
            ))),
            Some(FaultMode::PanicInStage) | None => Ok(()),
        }
    }

    /// Fires [`FaultMode::PanicInStage`] faults from inside a shared
    /// stage computation (the [`Slot`] closure).
    // Panicking is this function's contract: it exercises the Slot's
    // panic-safety and the supervisor's catch_unwind isolation.
    #[allow(clippy::panic)]
    pub(crate) fn fire_in_stage(&self, scenario: usize, attempt: usize, point: FaultPoint) {
        if let Some(ScenarioFault { mode: FaultMode::PanicInStage, .. }) =
            self.armed(scenario, attempt, point)
        {
            std::panic::panic_any(format!(
                "injected fault: scenario {scenario} panics inside {point:?} (attempt {attempt})"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Panic-safe compute slot
// ---------------------------------------------------------------------------

enum SlotState<T> {
    /// Nothing computed yet; the next caller claims the computation.
    Empty,
    /// A thread is computing; callers wait on the condvar.
    Busy,
    /// The computed value; cloned out to every caller.
    Ready(T),
}

/// A compute-once cell that survives panicking initializers.
///
/// Like `OnceLock::get_or_init`, except: when the initializer panics,
/// the slot resets to `Empty` (instead of wedging forever), wakes every
/// waiter, and reports the panic message to the computing caller only.
/// Woken waiters *re-claim the computation themselves*, so one
/// scenario's panic never manifests as a sibling failure — and a panic
/// can never store a partial value, which is what keeps the shared
/// [`crate::StageMemo`] poison-free (values are published to the memo
/// only from `Ready` slots).
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
        }
    }

    /// A slot pre-filled with a memoized value.
    pub(crate) fn seeded(value: T) -> Self {
        Slot {
            state: Mutex::new(SlotState::Ready(value)),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<T>> {
        // A poisoned mutex is unreachable: every state transition
        // happens with the value moved in/out before unlocking, and
        // the computing closure runs outside the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, if computed.
    pub(crate) fn peek(&self) -> Option<T> {
        match &*self.lock() {
            SlotState::Ready(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Returns the value, computing it (outside the lock) if this
    /// caller wins the claim; waits for — or takes over from — other
    /// computers otherwise.
    ///
    /// # Errors
    ///
    /// The panic message, when *this caller's own* `compute` panicked.
    /// A sibling's panic is invisible here: the waiter is woken, finds
    /// the slot `Empty` again, and computes with its own closure.
    pub(crate) fn get_or_compute(&self, compute: impl FnOnce() -> T) -> Result<T, String> {
        let mut guard = self.lock();
        loop {
            match &*guard {
                SlotState::Ready(value) => return Ok(value.clone()),
                SlotState::Busy => {
                    guard = self
                        .ready
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Empty => {
                    *guard = SlotState::Busy;
                    break;
                }
            }
        }
        drop(guard);
        match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(value) => {
                *self.lock() = SlotState::Ready(value.clone());
                self.ready.notify_all();
                Ok(value)
            }
            Err(payload) => {
                *self.lock() = SlotState::Empty;
                self.ready.notify_all();
                Err(panic_message(payload.as_ref()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn slot_computes_once_and_clones_out() {
        let slot = Slot::new();
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            7usize
        };
        assert_eq!(slot.get_or_compute(compute).unwrap(), 7);
        assert_eq!(slot.get_or_compute(|| 9usize).unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(slot.peek(), Some(7));
    }

    #[test]
    fn seeded_slot_never_computes() {
        let slot = Slot::seeded(3usize);
        assert_eq!(slot.get_or_compute(|| 5usize).unwrap(), 3);
    }

    #[test]
    fn panicking_initializer_resets_the_slot() {
        let slot: Slot<usize> = Slot::new();
        let err = slot
            .get_or_compute(|| std::panic::panic_any("stage exploded".to_string()))
            .unwrap_err();
        assert!(err.contains("stage exploded"), "{err}");
        // The slot is Empty again, not wedged and not poisoned:
        assert_eq!(slot.peek(), None);
        assert_eq!(slot.get_or_compute(|| 11usize).unwrap(), 11);
    }

    #[test]
    fn waiting_sibling_takes_over_after_a_panic() {
        // One thread panics while computing; concurrent siblings must
        // all end up with the (their own) computed value.
        for _ in 0..16 {
            let slot: Slot<usize> = Slot::new();
            std::thread::scope(|scope| {
                let panicker = scope.spawn(|| {
                    slot.get_or_compute(|| std::panic::panic_any("boom".to_string()))
                });
                let siblings: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| slot.get_or_compute(|| 42usize)))
                    .collect();
                let err = panicker.join().expect("panicker thread caught its panic");
                assert!(err.is_err() || err == Ok(42), "{err:?}");
                for s in siblings {
                    assert_eq!(s.join().expect("sibling"), Ok(42));
                }
            });
            assert_eq!(slot.peek(), Some(42));
        }
    }

    #[test]
    fn supervise_recovers_from_transient_failures() {
        let (result, attempts) = supervise_attempts(3, 2, |attempt| {
            if attempt < 2 {
                Err(AttemptError::Transient("flaky".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result, Ok(2));
        assert_eq!(attempts, 3);
    }

    #[test]
    fn supervise_quarantines_on_exhaustion() {
        let (result, attempts) =
            supervise_attempts(0, 1, |_| Err::<(), _>(AttemptError::Panic("boom".into())));
        assert_eq!(attempts, 2);
        let failure = result.unwrap_err();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.attempts, 2);
        assert!(failure.to_string().contains("after 2 attempts"));
    }

    #[test]
    fn supervise_fails_fast_on_pipeline_errors() {
        let mut calls = 0;
        let (result, attempts) = supervise_attempts(0, 5, |_| {
            calls += 1;
            Err::<(), _>(AttemptError::Error("mu must be positive".into()))
        });
        assert_eq!(calls, 1, "deterministic errors must not retry");
        assert_eq!(attempts, 1);
        let failure = result.unwrap_err();
        assert_eq!(failure.kind, FailureKind::Error);
        assert_eq!(failure.to_string(), "mu must be positive");
    }

    #[test]
    fn supervise_allocates_nothing_for_a_huge_retry_budget() {
        let (result, attempts) = supervise_attempts(0, usize::MAX, Ok::<_, AttemptError>);
        assert_eq!((result, attempts), (Ok(0), 1));

        let (result, attempts) = supervise_attempts(0, usize::MAX, |attempt| {
            if attempt < 2 {
                Err(AttemptError::Transient("flaky".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!((result, attempts), (Ok(2), 3));
    }

    #[test]
    fn budget_exhaustion_is_terminal_and_descriptive() {
        let mut budget = WorkBudget::new(Some(100));
        assert!(budget.charge("detect", 60).is_ok());
        let err = budget.charge("solve", 50).unwrap_err();
        match &err {
            AttemptError::Budget { needed, budget, stage } => {
                assert_eq!((*needed, *budget, *stage), (110, 100, "solve"));
            }
            other => panic!("expected Budget, got {other:?}"),
        }
        assert!(!AttemptError::retryable(&err));
        let failure = err.into_failure(1);
        assert_eq!(failure.kind, FailureKind::BudgetExhausted);
        assert!(failure.message.contains("before solve"), "{}", failure.message);
        assert!(WorkBudget::new(None).charge("solve", u64::MAX).is_ok());
    }

    #[test]
    fn fault_plan_fires_only_at_armed_attempts() {
        let plan = BatchFaultPlan::new().with_fault(
            2,
            ScenarioFault {
                point: FaultPoint::Solve,
                mode: FaultMode::TransientError,
                fails_before: 2,
            },
        );
        assert!(plan.fire_at(2, 0, FaultPoint::Solve).is_err());
        assert!(plan.fire_at(2, 1, FaultPoint::Solve).is_err());
        assert!(plan.fire_at(2, 2, FaultPoint::Solve).is_ok(), "recovers at attempt 2");
        assert!(plan.fire_at(2, 0, FaultPoint::Fit).is_ok(), "wrong point");
        assert!(plan.fire_at(1, 0, FaultPoint::Solve).is_ok(), "wrong scenario");
    }

    #[test]
    fn injected_panics_are_catchable() {
        let plan = BatchFaultPlan::new().with_fault(
            0,
            ScenarioFault {
                point: FaultPoint::Detect,
                mode: FaultMode::Panic,
                fails_before: usize::MAX,
            },
        );
        let caught = catch_unwind(AssertUnwindSafe(|| plan.fire_at(0, 0, FaultPoint::Detect)));
        let payload = caught.unwrap_err();
        assert!(panic_message(payload.as_ref()).contains("injected fault"));
    }
}
