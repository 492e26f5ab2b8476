use crate::{
    best_response, bounds, BestResponse, Contract, CoreError, Discretization, ModelParams,
};
use dcc_numerics::Quadratic;

/// The outcome of the §IV-C contract construction for one worker (or one
/// collusive community treated as a meta-worker).
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltContract {
    contract: Contract,
    k_opt: Option<usize>,
    response: BestResponse,
    requester_utility: f64,
    weight: f64,
    utility_bounds: Option<(f64, f64)>,
}

impl BuiltContract {
    /// The selected contract.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// The selected target interval `k_opt` (Eq. 43), or `None` when the
    /// zero contract won (the requester declines to incentivize).
    pub fn k_opt(&self) -> Option<usize> {
        self.k_opt
    }

    /// The worker's verified best response to the selected contract.
    pub fn response(&self) -> &BestResponse {
        &self.response
    }

    /// The effort level the contract induces.
    pub fn induced_effort(&self) -> f64 {
        self.response.effort
    }

    /// The compensation paid at the induced effort.
    pub fn compensation(&self) -> f64 {
        self.response.compensation
    }

    /// The worker's utility at the induced effort.
    pub fn worker_utility(&self) -> f64 {
        self.response.utility
    }

    /// The requester's per-round utility from this worker,
    /// `w·q − μ·c`.
    pub fn requester_utility(&self) -> f64 {
        self.requester_utility
    }

    /// The feedback weight the contract was designed for.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The Theorem 4.1 bracket `(lower, upper)` on the requester utility,
    /// when a non-zero candidate was selected for an honest worker
    /// (`ω = 0`); `None` for the zero contract (the theorem speaks about
    /// induced intervals).
    pub fn utility_bounds(&self) -> Option<(f64, f64)> {
        self.utility_bounds
    }

    /// Internal constructor for degraded-mode results: a contract that
    /// did *not* come out of the §IV-C search (a fixed-payment fallback
    /// or an exclusion) with caller-supplied conservative accounting. No
    /// `k_opt`, no Theorem 4.1 bracket.
    pub(crate) fn degraded(
        contract: Contract,
        response: BestResponse,
        requester_utility: f64,
        weight: f64,
    ) -> Self {
        BuiltContract {
            contract,
            k_opt: None,
            response,
            requester_utility,
            weight,
            utility_bounds: None,
        }
    }
}

/// Builder implementing the full §IV-C algorithm for a single subproblem:
/// construct candidate contracts `ξ^(1)…ξ^(m)` (plus the zero contract),
/// verify each by computing the worker's exact best response, and select
/// the candidate maximizing the requester's utility `w·q − μ·c`.
///
/// # Example
///
/// ```
/// use dcc_core::{ContractBuilder, Discretization, ModelParams};
/// use dcc_numerics::Quadratic;
///
/// # fn main() -> Result<(), dcc_core::CoreError> {
/// let psi = Quadratic::new(-0.05, 2.0, 0.5);
/// let params = ModelParams { mu: 1.5, ..ModelParams::default() };
/// let built = ContractBuilder::new(params, Discretization::new(16, 0.625)?, psi)
///     .malicious(0.5)
///     .weight(0.8)
///     .build()?;
/// assert!(built.requester_utility().is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ContractBuilder {
    params: ModelParams,
    disc: Discretization,
    psi: Quadratic,
    weight: f64,
    margin: f64,
}

impl ContractBuilder {
    /// Starts a builder for a worker with effort function `psi` under the
    /// given model parameters and discretization. The worker's ω is taken
    /// from `params.omega` unless overridden by [`ContractBuilder::honest`]
    /// or [`ContractBuilder::malicious`].
    pub fn new(params: ModelParams, disc: Discretization, psi: Quadratic) -> Self {
        ContractBuilder {
            params,
            disc,
            psi,
            weight: 1.0,
            margin: 0.0,
        }
    }

    /// Sets the incentive margin `∈ [0, 1)` — how far into each Case-III
    /// window the slopes sit above the paper's cost-minimal recurrence.
    /// `0` (the default) is the paper's construction; positive values pay
    /// more but tolerate unmodelled drift in the worker's productivity
    /// (see [`crate::build_candidate_with_margin`]).
    pub fn incentive_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Designs for an honest worker (`ω = 0`, Eq. 11).
    pub fn honest(mut self) -> Self {
        self.params.omega = 0.0;
        self
    }

    /// Designs for a malicious worker with feedback weight `omega` in its
    /// utility (Eq. 14). A collusive community is the same with the
    /// community's aggregate effort function.
    pub fn malicious(mut self, omega: f64) -> Self {
        self.params.omega = omega;
        self
    }

    /// Sets the requester's feedback weight `w_i` for this worker (Eq. 5).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Runs the search and returns the best contract: a candidate table
    /// of one worker type, then its selection for this weight.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite weight first; then propagates parameter,
    /// effort-function and numeric errors.
    pub fn build(self) -> Result<BuiltContract, CoreError> {
        check_weight(self.weight)?;
        CandidateTable::new(self.params, self.disc, self.psi, self.margin)?.select(self.weight)
    }
}

/// Rejects a non-finite requester weight.
pub(crate) fn check_weight(weight: f64) -> Result<(), CoreError> {
    if weight.is_finite() {
        Ok(())
    } else {
        Err(CoreError::InvalidInput(format!(
            "weight must be finite, got {weight}"
        )))
    }
}

/// The §IV-C candidate set of one worker type: the zero contract and
/// `ξ^(1)…ξ^(m)` (Eqs. 39–40), each with the worker's verified best
/// response. The candidates depend only on `(β, ω, ψ, δ, m)`; the
/// requester's weight `w` enters only [`CandidateTable::select`], so one
/// table serves every worker that shares ω, ψ and the discretization.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTable {
    params: ModelParams,
    disc: Discretization,
    psi: Quadratic,
    /// The zero contract at index 0, then `ξ^(k)` at index `k`.
    entries: Vec<(Contract, BestResponse)>,
}

impl CandidateTable {
    /// Builds the table for a worker of effort function `psi` under
    /// `params` (whose `omega` is the worker's) and `disc`, with the
    /// given incentive margin (see [`ContractBuilder::incentive_margin`]).
    ///
    /// # Errors
    ///
    /// Propagates parameter, effort-function and numeric errors.
    pub(crate) fn new(
        params: ModelParams,
        disc: Discretization,
        psi: Quadratic,
        margin: f64,
    ) -> Result<Self, CoreError> {
        params.validate()?;
        crate::effort::validate_effort_function(&psi, &disc)?;
        let mut entries = Vec::with_capacity(disc.intervals() + 1);
        // The zero contract (paying nothing) is always a candidate, so a
        // worker is never incentivized at a loss.
        let zero = Contract::zero(psi.eval(0.0), psi.eval(disc.y_max()))?;
        let response = best_response(&params, &psi, &zero)?;
        entries.push((zero, response));
        for k in 1..=disc.intervals() {
            let cand = crate::build_candidate_with_margin(&params, &disc, &psi, k, margin)?;
            let response = best_response(&params, &psi, &cand.contract)?;
            entries.push((cand.contract, response));
        }
        Ok(CandidateTable {
            params,
            disc,
            psi,
            entries,
        })
    }

    /// Selects the candidate maximizing the requester's utility
    /// `w·q − μ·c` (Eq. 43) for a worker of weight `weight`: an ordered
    /// scan where a later candidate wins by more than 1e-12, or ties
    /// within 1e-12 and costs more than 1e-12 less.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite weight.
    pub(crate) fn select(&self, weight: f64) -> Result<BuiltContract, CoreError> {
        check_weight(weight)?;
        let utility = |r: &BestResponse| weight * r.feedback - self.params.mu * r.compensation;
        let mut k_opt = None;
        let (mut contract, mut response) = (&self.entries[0].0, &self.entries[0].1);
        let mut requester_utility = utility(response);
        for (k, (c, r)) in self.entries.iter().enumerate().skip(1) {
            let u = utility(r);
            if u > requester_utility + 1e-12
                || (u > requester_utility - 1e-12 && r.compensation < response.compensation - 1e-12)
            {
                (k_opt, contract, response, requester_utility) = (Some(k), c, r, u);
            }
        }
        let utility_bounds = match k_opt {
            Some(k) if dcc_numerics::exact_eq(self.params.omega, 0.0) => Some((
                bounds::requester_utility_lower_bound(
                    weight,
                    &self.params,
                    &self.disc,
                    &self.psi,
                    k,
                ),
                bounds::requester_utility_upper_bound(weight, &self.params, &self.disc, &self.psi),
            )),
            _ => None,
        };

        Ok(BuiltContract {
            contract: contract.clone(),
            k_opt,
            response: *response,
            requester_utility,
            weight,
            utility_bounds,
        })
    }
}

#[cfg(test)]
// Tests may compare floats exactly; clippy.toml's in-tests switches
// exist only for unwrap/expect/panic, so allow float_cmp explicitly.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn setup() -> (ModelParams, Discretization, Quadratic) {
        let params = ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        };
        let disc = Discretization::new(16, 0.625).unwrap();
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        (params, disc, psi)
    }

    #[test]
    fn honest_build_selects_interior_interval() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        // With mu = 1.5, w = 1: marginal value w*psi'(y) crosses mu*beta
        // at psi'(y*) = 1.5 -> y* = 5. Expect an interior k near 5/0.625 = 8.
        let k = built.k_opt().expect("non-zero contract expected");
        assert!((6..=10).contains(&k), "k_opt = {k} not near the interior optimum");
        assert!(built.induced_effort() > 3.0 && built.induced_effort() < 7.0);
        assert!(built.requester_utility() > 0.0);
        let (lo, hi) = built.utility_bounds().unwrap();
        assert!(lo <= built.requester_utility() + 1e-9);
        assert!(built.requester_utility() <= hi + 1e-9);
    }

    #[test]
    fn selection_is_the_best_of_all_candidates() {
        // Evaluate the zero contract and every ξ^(k) independently: the
        // builder must select the maximum requester utility among them.
        let (params, disc, psi) = setup();
        let params = ModelParams { omega: 0.0, ..params };
        let built = ContractBuilder::new(params, disc, psi).honest().build().unwrap();
        let utility = |contract: &Contract| {
            let r = best_response(&params, &psi, contract).unwrap();
            r.feedback - params.mu * r.compensation
        };
        let zero = Contract::zero(psi.eval(0.0), psi.eval(disc.y_max())).unwrap();
        let best = (1..=disc.intervals())
            .map(|k| utility(&crate::build_candidate(&params, &disc, &psi, k).unwrap().contract))
            .fold(utility(&zero), f64::max);
        assert!((best - built.requester_utility()).abs() < 1e-9);
    }

    #[test]
    fn negative_weight_selects_zero_contract() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(-0.5)
            .build()
            .unwrap();
        assert_eq!(built.k_opt(), None, "never pay a harmful worker");
        assert_eq!(built.compensation(), 0.0);
        assert_eq!(built.induced_effort(), 0.0);
    }

    #[test]
    fn zero_weight_malicious_still_self_motivates() {
        let (params, disc, psi) = setup();
        let built = ContractBuilder::new(params, disc, psi)
            .malicious(1.0)
            .weight(0.0)
            .build()
            .unwrap();
        assert_eq!(built.k_opt(), None);
        assert!(built.induced_effort() > 0.0, "autonomous effort expected");
        assert_eq!(built.compensation(), 0.0);
    }

    #[test]
    fn higher_weight_never_lowers_requester_utility() {
        let (params, disc, psi) = setup();
        let mut prev = f64::NEG_INFINITY;
        for w in [0.2, 0.5, 1.0, 2.0, 4.0] {
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(w)
                .build()
                .unwrap();
            assert!(built.requester_utility() >= prev - 1e-9);
            prev = built.requester_utility();
        }
    }

    #[test]
    fn higher_weight_weakly_raises_induced_effort() {
        let (params, disc, psi) = setup();
        let mut prev = 0.0;
        for w in [0.5, 1.0, 2.0, 4.0] {
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(w)
                .build()
                .unwrap();
            assert!(
                built.induced_effort() >= prev - 1e-9,
                "effort should rise with weight"
            );
            prev = built.induced_effort();
        }
    }

    #[test]
    fn utility_improves_or_holds_with_finer_partition() {
        // The Fig. 6 convergence property: refining the partition gives
        // the algorithm strictly more candidates near the continuum
        // optimum, so the achieved utility approaches the upper bound.
        let (params, _, psi) = setup();
        let mut last = f64::NEG_INFINITY;
        for m in [4, 8, 16, 32, 64] {
            let disc = Discretization::covering(m, 10.0).unwrap();
            let built = ContractBuilder::new(params, disc, psi)
                .honest()
                .weight(1.0)
                .build()
                .unwrap();
            assert!(
                built.requester_utility() >= last - 0.05,
                "m={m}: utility regressed from {last} to {}",
                built.requester_utility()
            );
            last = built.requester_utility();
        }
        // At m = 64 the utility must be close to its upper bound.
        let disc = Discretization::covering(64, 10.0).unwrap();
        let built = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        let (_, hi) = built.utility_bounds().unwrap();
        assert!(
            built.requester_utility() > 0.8 * hi,
            "utility {} far from upper bound {hi}",
            built.requester_utility()
        );
    }

    #[test]
    fn malicious_worker_cheaper_than_honest() {
        let (params, disc, psi) = setup();
        let honest = ContractBuilder::new(params, disc, psi)
            .honest()
            .weight(1.0)
            .build()
            .unwrap();
        let malicious = ContractBuilder::new(params, disc, psi)
            .malicious(0.5)
            .weight(1.0)
            .build()
            .unwrap();
        assert!(
            malicious.requester_utility() >= honest.requester_utility() - 1e-9,
            "self-motivated worker should be no worse for the requester at equal weight"
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (params, disc, psi) = setup();
        assert!(ContractBuilder::new(params, disc, psi)
            .weight(f64::NAN)
            .build()
            .is_err());
        let bad = Quadratic::new(0.1, 1.0, 0.0);
        assert!(ContractBuilder::new(params, disc, bad).build().is_err());
    }
}
