use crate::builder::{check_weight, CandidateTable};
use crate::{
    bounds, BestResponse, BuiltContract, Contract, CoreError, Discretization, ModelParams,
};
use dcc_numerics::Quadratic;
use dcc_obs::{names, Metrics};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
// dcc-lint: allow(wall-clock, reason = "subproblem timings are measured here and routed into dcc-obs via span_at")
use std::time::Instant;

/// What to do when a single subproblem's contract construction fails
/// (corrupted weight, degenerate ψ fit, numeric breakdown).
///
/// The decomposition of §IV-B makes subproblems independent, so a
/// failure can be isolated to the worker (or community) it belongs to
/// instead of aborting the whole design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailurePolicy {
    /// Propagate the first failure (the strict pre-existing behaviour).
    #[default]
    Abort,
    /// Give the failing subproblem's workers a fixed-payment contract —
    /// the platform-status-quo baseline of §I — paying `amount` per
    /// round (clamped into the Lemma 4.2/4.3 compensation bracket when
    /// the subproblem's ψ still supports evaluating it).
    FallbackBaseline {
        /// Requested per-round payment before clamping.
        amount: f64,
    },
    /// Exclude the failing subproblem's workers from the system (the
    /// Fig. 8c exclusion baseline): zero contract, no pay, no benefit.
    Skip,
}

/// How one degraded subproblem was handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationAction {
    /// Replaced by a fixed-payment baseline at the (clamped) amount.
    Fallback {
        /// The per-round payment actually written into the contract.
        amount: f64,
    },
    /// Excluded from the system under the zero contract.
    Skipped,
}

/// One subproblem the solver could not design optimally. Each
/// subproblem is solved exactly once: its candidates are built in closed
/// form, so a re-solve would fail the same way, and the failure goes
/// straight to the [`FailurePolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSubproblem {
    /// The failing subproblem's id.
    pub subproblem: usize,
    /// Worker indices it covers.
    pub members: Vec<usize>,
    /// The original solver error, rendered.
    pub reason: String,
    /// What the policy substituted.
    pub action: DegradationAction,
    /// The substituted requester utility minus the Theorem 4.1 upper
    /// bound for this subproblem — how much was given up relative to the
    /// best any contract could have achieved. `None` when the bound
    /// itself is not computable (e.g. a non-finite weight or ψ).
    pub utility_delta: Option<f64>,
}

/// Per-subproblem record of every degradation a solve performed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// The degraded subproblems, in input order.
    pub degraded: Vec<DegradedSubproblem>,
}

impl DegradationReport {
    /// Whether every subproblem was solved optimally.
    pub fn is_empty(&self) -> bool {
        self.degraded.is_empty()
    }

    /// Number of degraded subproblems.
    pub fn len(&self) -> usize {
        self.degraded.len()
    }

    /// The record for one subproblem id, if it degraded.
    pub fn for_subproblem(&self, id: usize) -> Option<&DegradedSubproblem> {
        self.degraded.iter().find(|d| d.subproblem == id)
    }
}

/// One subproblem of the §IV-B decomposition: the contract design for a
/// single worker, or for a collusive community treated as one
/// "meta-worker" (Eq. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Subproblem {
    /// Caller-chosen identifier (e.g. a worker id or community id).
    pub id: usize,
    /// Worker indices covered by this subproblem (singleton for
    /// individual workers; all members for a community).
    pub members: Vec<usize>,
    /// The feedback weight ω in the follower's utility: 0 for honest
    /// workers, `params.omega` for malicious ones.
    pub omega: f64,
    /// The requester's feedback weight `w` for this subproblem (Eq. 5;
    /// communities use their members' mean).
    pub weight: f64,
    /// The (fitted) effort function — the community's aggregate response
    /// for meta-workers.
    pub psi: Quadratic,
    /// The effort-region discretization for this subproblem.
    pub disc: Discretization,
}

impl Subproblem {
    /// The bits that decide this subproblem's §IV-C candidate table under
    /// fixed model parameters: ω, ψ's coefficients and the
    /// discretization `(m, δ)`. Subproblems with equal keys share one
    /// table and differ only in the weight `w` of the selection.
    pub fn candidate_key(&self) -> [u64; 6] {
        [
            self.omega.to_bits(),
            self.psi.r2().to_bits(),
            self.psi.r1().to_bits(),
            self.psi.r0().to_bits(),
            self.disc.intervals() as u64,
            self.disc.delta().to_bits(),
        ]
    }
}

/// The solved contract for one subproblem.
#[derive(Debug, Clone, PartialEq)]
pub struct SubproblemSolution {
    /// The subproblem's identifier.
    pub id: usize,
    /// Worker indices covered.
    pub members: Vec<usize>,
    /// The §IV-C result.
    pub built: BuiltContract,
}

/// The assembled solution of the decomposed bilevel program.
#[derive(Debug, Clone, PartialEq)]
pub struct BipSolution {
    /// Per-subproblem solutions, in input order.
    pub solutions: Vec<SubproblemSolution>,
    /// The requester's total per-round utility `Σ (w_i q_i − μ c_i)`.
    pub total_requester_utility: f64,
}

impl BipSolution {
    /// The solution covering worker `worker_index`, if any.
    pub fn for_worker(&self, worker_index: usize) -> Option<&SubproblemSolution> {
        self.solutions
            .iter()
            .find(|s| s.members.contains(&worker_index))
    }
}

/// Solves every subproblem of the decomposition (§IV-B) and assembles the
/// requester's total utility.
///
/// The §IV-C candidates depend only on [`Subproblem::candidate_key`], so
/// each group of subproblems sharing a key builds one candidate table
/// and selects from it for every member by the member's own weight. The
/// groups are fanned out across `pool` scoped threads
/// (`std::thread::scope`); a thread takes whole groups and holds one
/// table at a time. Each subproblem's arithmetic is that of
/// [`crate::ContractBuilder::build`] and results return in input order,
/// so the output is **bit-identical** to the sequential path (`pool = 1`)
/// for every pool size. `pool` is clamped to `[1, subproblems.len()]`;
/// `pool <= 1` solves on the calling thread without spawning.
///
/// `policy` decides what happens when an individual subproblem cannot be
/// designed: abort everything, fall back to a fixed-payment baseline for
/// that worker, or exclude the worker. Degradations are itemized in the
/// returned [`DegradationReport`] (empty when every subproblem solved
/// optimally).
///
/// Per-subproblem solve time (the first member of a group also carries
/// its table build), candidate-evaluation counts and degradation events
/// flow into `metrics` (see `dcc_obs::names`). Worker threads only
/// *measure*; all recording happens post-merge on the calling thread, in
/// input order, so the metric stream is identical for every pool size.
/// When `metrics` is disabled the solve takes a branch with no clock
/// reads and no attribute construction, so the hot path stays zero-cost
/// with a `NoopRecorder`.
///
/// # Errors
///
/// Under [`FailurePolicy::Abort`], the first per-subproblem error in
/// input order (invalid ψ, parameters, …, identified by the subproblem id
/// in the message), and nothing is recorded; under the other policies,
/// solver errors are absorbed into the report and only panics in the
/// worker threads propagate.
pub fn solve_subproblems(
    subproblems: &[Subproblem],
    params: &ModelParams,
    pool: usize,
    policy: FailurePolicy,
    metrics: &Metrics,
) -> Result<(BipSolution, DegradationReport), CoreError> {
    let workers = clamp_pool(pool, subproblems.len());
    // Group by candidate key; the stable sort keeps each group's members
    // in input order.
    let mut order: Vec<usize> = (0..subproblems.len()).collect();
    order.sort_by_cached_key(|&i| subproblems[i].candidate_key());
    let groups: Vec<&[usize]> = order
        .chunk_by(|&a, &b| subproblems[a].candidate_key() == subproblems[b].candidate_key())
        .collect();
    // dcc-lint: allow(wall-clock, reason = "per-subproblem timing fed to metrics.span_at below")
    let clock = || metrics.enabled().then(Instant::now);
    let solved = fan_out(subproblems.len(), &groups, workers, |group| {
        let mut start = clock();
        let key = &subproblems[group[0]];
        let mut key_params = *params;
        key_params.omega = key.omega;
        let table = CandidateTable::new(key_params, key.disc, key.psi, 0.0);
        group
            .iter()
            .map(|&i| {
                let result = solve_one(&subproblems[i], &table);
                let end = clock();
                let elapsed = end.zip(start).map(|(end, start)| end - start);
                start = end;
                (result, elapsed)
            })
            .collect()
    });
    let (results, times): (Vec<_>, Vec<_>) = solved.into_iter().flatten().unzip();
    let degraded: Vec<bool> = results.iter().map(Result::is_err).collect();
    let (solution, report) = assemble_solutions(subproblems, results, params, policy)?;
    if !metrics.enabled() {
        return Ok((solution, report));
    }

    metrics.gauge(names::GAUGE_SOLVE_POOL, workers as f64);
    metrics.add(names::COUNTER_SOLVE_SUBPROBLEMS, subproblems.len() as u64);
    for ((sp, elapsed), &degraded) in subproblems.iter().zip(times).zip(&degraded) {
        let elapsed = elapsed.unwrap_or_default();
        // A built contract evaluated the zero contract and one candidate
        // per interval; a degraded one evaluated none.
        let iterations = if degraded { 0 } else { sp.disc.intervals() + 1 };
        metrics.span_at(
            names::SPAN_SUBPROBLEM,
            &[
                ("id", sp.id.into()),
                ("iterations", iterations.into()),
                ("degraded", degraded.into()),
            ],
            elapsed,
        );
        metrics.observe(names::HIST_SUBPROBLEM_US, elapsed.as_secs_f64() * 1e6);
    }
    for d in &report.degraded {
        metrics.add(names::COUNTER_SOLVE_DEGRADED, 1);
        let by_action = match d.action {
            DegradationAction::Fallback { .. } => names::COUNTER_SOLVE_DEGRADED_FALLBACK,
            DegradationAction::Skipped => names::COUNTER_SOLVE_DEGRADED_SKIPPED,
        };
        metrics.add(by_action, 1);
    }
    Ok((solution, report))
}

/// Solves one subproblem by selecting from its key's table. A non-finite
/// weight is reported before any table error, as
/// [`crate::ContractBuilder::build`] does.
fn solve_one(
    sp: &Subproblem,
    table: &Result<CandidateTable, CoreError>,
) -> Result<SubproblemSolution, CoreError> {
    let built = check_weight(sp.weight)
        .and_then(|()| table.as_ref().map_err(CoreError::clone))
        .and_then(|table| table.select(sp.weight))
        .map_err(|e| CoreError::InvalidInput(format!("subproblem {} failed: {e}", sp.id)))?;
    Ok(SubproblemSolution {
        id: sp.id,
        // dcc-lint: allow(hot-loop-alloc, reason = "the solution owns its member list; singleton for individual workers")
        members: sp.members.clone(),
        built,
    })
}

/// `pool` clamped to `[1, n]` (with `n = 0` treated as 1).
fn clamp_pool(pool: usize, n: usize) -> usize {
    pool.max(1).min(n.max(1))
}

/// The fan-out of [`solve_subproblems`]: up to `workers` scoped threads
/// take whole groups off a shared counter, and each group's results
/// (one per member, in group order) are scattered into their input
/// positions. The groups partition `0..n`, so every slot is filled.
fn fan_out<T, F>(n: usize, groups: &[&[usize]], workers: usize, per_group: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(&[usize]) -> Vec<T> + Sync,
{
    let slots: Mutex<Vec<Option<T>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n).collect());
    let next = AtomicUsize::new(0);
    let take_groups = || {
        while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
            let results = per_group(group);
            let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
            for (&i, result) in group.iter().zip(results) {
                slots[i] = Some(result);
            }
        }
    };
    let threads = workers.min(groups.len());
    if threads > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(take_groups)).collect();
            for handle in handles {
                handle.join().unwrap_or_else(|panic| resume_unwind(panic));
            }
        });
    } else {
        take_groups();
    }
    slots.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Applies the failure policy to the per-subproblem results (in input
/// order, so Abort reports the first failure) and sums the requester's
/// objective.
fn assemble_solutions(
    subproblems: &[Subproblem],
    results: Vec<Result<SubproblemSolution, CoreError>>,
    params: &ModelParams,
    policy: FailurePolicy,
) -> Result<(BipSolution, DegradationReport), CoreError> {
    let mut solutions = Vec::with_capacity(subproblems.len());
    let mut report = DegradationReport::default();
    for (sp, result) in subproblems.iter().zip(results) {
        match result {
            Ok(solution) => solutions.push(solution),
            Err(err) => match policy {
                FailurePolicy::Abort => return Err(err),
                FailurePolicy::FallbackBaseline { amount } => {
                    let (solution, paid) = fallback_solution(sp, params, amount);
                    report.degraded.push(DegradedSubproblem {
                        subproblem: sp.id,
                        // dcc-lint: allow(hot-loop-alloc, reason = "cold degraded path; the report owns its member list")
                        members: sp.members.clone(),
                        reason: err.to_string(),
                        action: DegradationAction::Fallback { amount: paid },
                        utility_delta: utility_delta(sp, params, solution.built.requester_utility()),
                    });
                    solutions.push(solution);
                }
                FailurePolicy::Skip => {
                    let solution = skip_solution(sp);
                    report.degraded.push(DegradedSubproblem {
                        subproblem: sp.id,
                        // dcc-lint: allow(hot-loop-alloc, reason = "cold degraded path; the report owns its member list")
                        members: sp.members.clone(),
                        reason: err.to_string(),
                        action: DegradationAction::Skipped,
                        utility_delta: utility_delta(sp, params, 0.0),
                    });
                    solutions.push(solution);
                }
            },
        }
    }

    let total = solutions
        .iter()
        .map(|s| s.built.requester_utility())
        .sum();
    Ok((
        BipSolution {
            solutions,
            total_requester_utility: total,
        },
        report,
    ))
}

/// The feedback domain `[ψ(0), ψ(y_max)]` of a subproblem's contract,
/// with a safe unit fallback when ψ is too corrupted to evaluate.
fn feedback_domain(sp: &Subproblem) -> (f64, f64) {
    let d_lo = sp.psi.eval(0.0);
    let d_hi = sp.psi.eval(sp.disc.y_max());
    if d_lo.is_finite() && d_hi.is_finite() && d_lo < d_hi {
        (d_lo, d_hi)
    } else {
        (0.0, 1.0)
    }
}

/// Builds the fixed-payment fallback for a failed subproblem.
///
/// The payment is clamped into the Lemma 4.2/4.3 compensation bracket
/// `[0, C_ub(m)]` when the subproblem's ψ still yields a finite cap.
/// Accounting is the model's own prediction for a fixed payment: a
/// worker with no marginal incentive best-responds with zero effort, so
/// the requester books `w·ψ(0) − μ·amount` (with non-finite `w` or ψ(0)
/// conservatively treated as 0).
fn fallback_solution(
    sp: &Subproblem,
    params: &ModelParams,
    amount: f64,
) -> (SubproblemSolution, f64) {
    let cap = bounds::compensation_upper_bound(params, &sp.disc, &sp.psi, sp.disc.intervals());
    let pay = if cap.is_finite() && cap >= 0.0 {
        amount.clamp(0.0, cap)
    } else {
        amount.max(0.0)
    };
    let (d_lo, d_hi) = feedback_domain(sp);
    #[allow(clippy::expect_used)] // unit-domain fallback cannot fail: pay is clamped nonnegative
    let contract = Contract::fixed(d_lo, d_hi, pay)
        .or_else(|_| Contract::fixed(0.0, 1.0, pay))
        // dcc-lint: allow(unwrap-in-lib, reason = "unit-domain fixed contract with nonnegative pay is infallible by construction")
        .expect("unit-domain fixed contract is always valid");

    let zero_effort_feedback = {
        let f = sp.psi.eval(0.0);
        if f.is_finite() {
            f.max(0.0)
        } else {
            0.0
        }
    };
    let weight = if sp.weight.is_finite() { sp.weight } else { 0.0 };
    let requester_utility = weight * zero_effort_feedback - params.mu * pay;
    let response = BestResponse {
        effort: 0.0,
        feedback: zero_effort_feedback,
        compensation: pay,
        utility: pay,
    };
    (
        SubproblemSolution {
            id: sp.id,
            // dcc-lint: allow(hot-loop-alloc, reason = "cold degraded path; the fallback solution owns its member list")
            members: sp.members.clone(),
            built: BuiltContract::degraded(contract, response, requester_utility, weight),
        },
        pay,
    )
}

/// Builds the exclusion (zero-contract) substitute for a failed
/// subproblem: the worker is out of the system — no pay, no benefit.
fn skip_solution(sp: &Subproblem) -> SubproblemSolution {
    let (d_lo, d_hi) = feedback_domain(sp);
    #[allow(clippy::expect_used)] // unit-domain zero contract has no failing input
    let contract = Contract::zero(d_lo, d_hi)
        .or_else(|_| Contract::zero(0.0, 1.0))
        // dcc-lint: allow(unwrap-in-lib, reason = "unit-domain zero contract is infallible by construction")
        .expect("unit-domain zero contract is always valid");
    let weight = if sp.weight.is_finite() { sp.weight } else { 0.0 };
    let response = BestResponse {
        effort: 0.0,
        feedback: 0.0,
        compensation: 0.0,
        utility: 0.0,
    };
    SubproblemSolution {
        id: sp.id,
        // dcc-lint: allow(hot-loop-alloc, reason = "cold degraded path; the skip solution owns its member list")
        members: sp.members.clone(),
        built: BuiltContract::degraded(contract, response, 0.0, weight),
    }
}

/// The degraded utility minus the Theorem 4.1 upper bound, when the
/// bound is computable for this subproblem.
fn utility_delta(sp: &Subproblem, params: &ModelParams, achieved: f64) -> Option<f64> {
    if !sp.weight.is_finite() {
        return None;
    }
    let upper =
        bounds::requester_utility_upper_bound(sp.weight, params, &sp.disc, &sp.psi);
    if upper.is_finite() {
        Some(achieved - upper)
    } else {
        None
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample_subproblems(n: usize) -> Vec<Subproblem> {
        let disc = Discretization::new(12, 0.75).unwrap();
        (0..n)
            .map(|i| Subproblem {
                id: i,
                members: vec![i],
                omega: if i % 3 == 0 { 0.0 } else { 0.4 },
                weight: 0.5 + (i % 5) as f64 * 0.4,
                psi: Quadratic::new(-0.05, 2.0, 0.5),
                disc,
            })
            .collect()
    }

    fn params() -> ModelParams {
        ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        }
    }

    /// Unrecorded solve at `pool` under `policy`.
    fn solve(
        sps: &[Subproblem],
        p: &ModelParams,
        pool: usize,
        policy: FailurePolicy,
    ) -> Result<(BipSolution, DegradationReport), CoreError> {
        solve_subproblems(sps, p, pool, policy, &Metrics::noop())
    }

    /// Unrecorded strict (`Abort`) solve at `pool`.
    fn solve_strict(
        sps: &[Subproblem],
        p: &ModelParams,
        pool: usize,
    ) -> Result<BipSolution, CoreError> {
        solve(sps, p, pool, FailurePolicy::Abort).map(|(solution, _)| solution)
    }

    #[test]
    fn serial_and_parallel_agree() {
        let sps = sample_subproblems(23);
        let p = params();
        let serial = solve_strict(&sps, &p, 1).unwrap();
        let parallel = solve_strict(&sps, &p, 4).unwrap();
        assert_eq!(serial.solutions.len(), parallel.solutions.len());
        assert!(
            (serial.total_requester_utility - parallel.total_requester_utility).abs() < 1e-9
        );
        for (s, q) in serial.solutions.iter().zip(&parallel.solutions) {
            assert_eq!(s.id, q.id);
            assert!((s.built.requester_utility() - q.built.requester_utility()).abs() < 1e-9);
        }
    }

    #[test]
    fn total_is_sum_of_parts() {
        let sps = sample_subproblems(7);
        let sol = solve_strict(&sps, &params(), 1).unwrap();
        let sum: f64 = sol
            .solutions
            .iter()
            .map(|s| s.built.requester_utility())
            .sum();
        assert!((sol.total_requester_utility - sum).abs() < 1e-12);
    }

    #[test]
    fn worker_lookup() {
        let mut sps = sample_subproblems(3);
        sps[2].members = vec![2, 9, 11];
        let sol = solve_strict(&sps, &params(), 1).unwrap();
        assert_eq!(sol.for_worker(9).unwrap().id, 2);
        assert_eq!(sol.for_worker(0).unwrap().id, 0);
        assert!(sol.for_worker(99).is_none());
    }

    #[test]
    fn empty_input_is_empty_solution() {
        for pool in [1, 4] {
            let (sol, report) = solve(&[], &params(), pool, FailurePolicy::Abort).unwrap();
            assert!(sol.solutions.is_empty());
            assert_eq!(sol.total_requester_utility, 0.0);
            assert!(report.is_empty());
        }
    }

    #[test]
    fn error_identifies_subproblem() {
        let mut sps = sample_subproblems(2);
        sps[1].psi = Quadratic::new(0.1, 1.0, 0.0); // convex: invalid
        let err = solve_strict(&sps, &params(), 1).unwrap_err();
        assert!(err.to_string().contains("subproblem 1"));
    }

    #[test]
    fn abort_reports_the_first_error_at_every_pool() {
        let mut sps = sample_subproblems(23);
        sps[7].weight = f64::NAN;
        sps[15].weight = f64::NAN;
        let p = params();
        for pool in [1, 2, 3, 4, 16, 64] {
            let err = solve_strict(&sps, &p, pool).unwrap_err();
            assert!(
                err.to_string().contains("subproblem 7"),
                "pool {pool}: {err}"
            );
        }
    }

    fn corrupted(n: usize, bad: usize) -> Vec<Subproblem> {
        let mut sps = sample_subproblems(n);
        sps[bad].weight = f64::NAN; // rejected by ContractBuilder::build
        sps
    }

    #[test]
    fn fallback_policy_isolates_the_failure() {
        let sps = corrupted(6, 2);
        let p = params();
        assert!(solve_strict(&sps, &p, 1).is_err(), "abort fails");
        let (sol, report) =
            solve(&sps, &p, 1, FailurePolicy::FallbackBaseline { amount: 0.5 }).unwrap();
        assert_eq!(sol.solutions.len(), 6, "every subproblem gets a contract");
        assert_eq!(report.len(), 1);
        let d = report.for_subproblem(2).expect("subproblem 2 degraded");
        assert_eq!(d.members, vec![2]);
        assert!(d.reason.contains("subproblem 2"));
        assert!(matches!(d.action, DegradationAction::Fallback { amount } if amount >= 0.0));
        // The healthy subproblems match the clean solve exactly.
        let clean = solve_strict(&sample_subproblems(6), &p, 1).unwrap();
        for (got, want) in sol.solutions.iter().zip(&clean.solutions) {
            if got.id != 2 {
                assert_eq!(got.built.contract(), want.built.contract());
            }
        }
    }

    #[test]
    fn fallback_contract_is_monotone_fixed_pay_within_bounds() {
        let sps = corrupted(3, 1);
        let p = params();
        let (sol, _) = solve(
            &sps,
            &p,
            1,
            FailurePolicy::FallbackBaseline { amount: 1_000.0 },
        )
        .unwrap();
        let built = &sol.solutions[1].built;
        assert!(built.contract().is_monotone());
        let cap = bounds::compensation_upper_bound(
            &p,
            &sps[1].disc,
            &sps[1].psi,
            sps[1].disc.intervals(),
        );
        // The huge requested amount was clamped into the Lemma 4.2 cap.
        assert!(built.compensation() <= cap + 1e-9);
        assert!(built.compensation() >= 0.0);
        // Fixed payment: same pay at every feedback level.
        let pays: Vec<f64> = built.contract().payments().to_vec();
        assert!(pays.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    }

    #[test]
    fn skip_policy_excludes_the_worker() {
        let sps = corrupted(4, 3);
        let (sol, report) = solve(&sps, &params(), 1, FailurePolicy::Skip).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(
            report.degraded[0].action,
            DegradationAction::Skipped
        );
        let built = &sol.solutions[3].built;
        assert_eq!(built.compensation(), 0.0);
        assert_eq!(built.requester_utility(), 0.0);
        assert_eq!(built.k_opt(), None);
    }

    #[test]
    fn degraded_parallel_and_serial_agree() {
        let sps = corrupted(23, 7);
        let p = params();
        let policy = FailurePolicy::FallbackBaseline { amount: 0.25 };
        let (serial, rs) = solve(&sps, &p, 1, policy).unwrap();
        let (parallel, rp) = solve(&sps, &p, 4, policy).unwrap();
        assert_eq!(rs, rp);
        assert_eq!(serial.solutions.len(), parallel.solutions.len());
        assert!(
            (serial.total_requester_utility - parallel.total_requester_utility).abs() < 1e-9
        );
    }

    #[test]
    fn pooled_solve_is_bit_identical_across_pool_sizes() {
        let sps = sample_subproblems(37);
        let p = params();
        let (reference, _) = solve(&sps, &p, 1, FailurePolicy::Abort).unwrap();
        for pool in [2, 3, 4, 16, 64] {
            let (pooled, _) = solve(&sps, &p, pool, FailurePolicy::Abort).unwrap();
            assert_eq!(reference, pooled, "pool {pool} diverged");
            assert_eq!(
                reference.total_requester_utility.to_bits(),
                pooled.total_requester_utility.to_bits(),
                "pool {pool} total differs in bits"
            );
        }
    }

    #[test]
    fn clean_solve_has_empty_report() {
        let sps = sample_subproblems(5);
        let (_, report) = solve(&sps, &params(), 1, FailurePolicy::Skip).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
    }

    #[test]
    fn fallback_utility_delta_reports_the_gap() {
        // A convex psi fails validation but still evaluates, so the
        // Theorem 4.1 bound is computable and the fallback's shortfall is
        // reported as a nonpositive delta.
        let mut sps = sample_subproblems(2);
        sps[0].psi = Quadratic::new(0.1, 1.0, 0.0);
        let (_, report) = solve(
            &sps,
            &params(),
            1,
            FailurePolicy::FallbackBaseline { amount: 0.5 },
        )
        .unwrap();
        assert_eq!(report.len(), 1);
        let delta = report.degraded[0]
            .utility_delta
            .expect("bound computable for a finite psi and weight");
        assert!(delta <= 1e-9, "fallback cannot beat the upper bound: {delta}");

        // A NaN weight makes the bound itself meaningless.
        let (_, report2) = solve(
            &corrupted(2, 0),
            &params(),
            1,
            FailurePolicy::FallbackBaseline { amount: 0.5 },
        )
        .unwrap();
        assert!(report2.degraded[0].utility_delta.is_none(), "NaN weight");
    }

    #[test]
    fn recorded_solve_is_bit_identical_to_plain() {
        use dcc_obs::JsonRecorder;
        use std::sync::Arc;
        let sps = corrupted(19, 4);
        let p = params();
        let policy = FailurePolicy::FallbackBaseline { amount: 0.4 };
        let (plain, plain_report) = solve(&sps, &p, 3, policy).unwrap();
        for metrics in [Metrics::noop(), Metrics::new(Arc::new(JsonRecorder::new()))] {
            let (recorded, report) = solve_subproblems(&sps, &p, 3, policy, &metrics).unwrap();
            assert_eq!(recorded, plain);
            assert_eq!(report, plain_report);
            assert_eq!(
                recorded.total_requester_utility.to_bits(),
                plain.total_requester_utility.to_bits()
            );
        }
    }

    #[test]
    fn recorded_solve_emits_per_subproblem_spans_and_degradation_counters() {
        use dcc_obs::{names, JsonRecorder};
        use std::sync::Arc;
        let sps = corrupted(9, 2);
        let recorder = Arc::new(JsonRecorder::new());
        let metrics = Metrics::new(recorder.clone());
        let (_, report) = solve_subproblems(
            &sps,
            &params(),
            4,
            FailurePolicy::FallbackBaseline { amount: 0.5 },
            &metrics,
        )
        .unwrap();
        assert_eq!(recorder.span_count(names::SPAN_SUBPROBLEM), 9);
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_SUBPROBLEMS), 9);
        assert_eq!(
            recorder.counter(names::COUNTER_SOLVE_DEGRADED),
            report.len() as u64
        );
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_FALLBACK), 1);
        assert_eq!(recorder.counter(names::COUNTER_SOLVE_DEGRADED_SKIPPED), 0);
        let json = recorder.to_json();
        assert!(json.contains("\"degraded\":true"), "victim span flagged");
        assert!(json.contains("\"iterations\":"), "candidate counts attached");
    }

    #[test]
    fn recorded_solve_metric_stream_is_pool_invariant() {
        use dcc_obs::JsonRecorder;
        use std::sync::Arc;
        let sps = sample_subproblems(17);
        let p = params();
        let render = |pool: usize| {
            let recorder = Arc::new(JsonRecorder::new());
            let metrics = Metrics::new(recorder.clone());
            solve_subproblems(&sps, &p, pool, FailurePolicy::Abort, &metrics).unwrap();
            // The pool gauge legitimately differs; compare everything else.
            recorder
                .to_json_redacted()
                .replace(&format!("\"solve.pool\":{pool}"), "\"solve.pool\":_")
        };
        let reference = render(1);
        for pool in [2, 5, 16] {
            assert_eq!(render(pool), reference, "pool {pool} metric stream diverged");
        }
    }
}
