//! Checkpoint/resume for the simulation loops: serializes the complete
//! mid-run state of a [`dcc_core::Simulation`] ([`SimState`]) or an
//! [`dcc_core::AdaptiveSimulation`] ([`AdaptiveState`]) to JSON and
//! restores it bit-exactly.
//!
//! Bit-exactness rests on three encoding choices (see [`crate::json`]):
//! finite `f64`s use Rust's shortest-round-trip formatting, non-finite
//! values are string-encoded, and the RNG's four `u64` words are written
//! as decimal strings (plain JSON numbers lose bits above `2^53`).

use dcc_numerics::Json;
use dcc_core::{AdaptiveState, Contract, CoreError, RoundRecord, SimState};
use dcc_numerics::Quadratic;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::Path;

/// Format version written into every checkpoint document.
pub const CHECKPOINT_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Shared encoding helpers
// ---------------------------------------------------------------------

fn f64_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::num(x)).collect())
}

fn f64_vec(doc: &Json, name: &str) -> Result<Vec<f64>, CoreError> {
    arr_of(doc, name)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| malformed(name)))
        .collect()
}

fn rng_to_json(rng: &StdRng) -> Json {
    Json::Arr(rng.state().iter().map(|&w| Json::u64(w)).collect())
}

fn rng_from_json(doc: &Json, name: &str) -> Result<StdRng, CoreError> {
    let words = arr_of(doc, name)?;
    if words.len() != 4 {
        return Err(malformed(name));
    }
    let mut s = [0u64; 4];
    for (slot, w) in s.iter_mut().zip(words) {
        *slot = w.as_u64().ok_or_else(|| malformed(name))?;
    }
    Ok(StdRng::from_state(s))
}

fn rounds_to_json(rounds: &[RoundRecord]) -> Json {
    Json::Arr(
        rounds
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("round".into(), Json::idx(r.round)),
                    ("benefit".into(), Json::num(r.benefit)),
                    ("payment".into(), Json::num(r.payment)),
                    ("requester_utility".into(), Json::num(r.requester_utility)),
                ])
            })
            .collect(),
    )
}

fn rounds_from_json(doc: &Json, name: &str) -> Result<Vec<RoundRecord>, CoreError> {
    arr_of(doc, name)?
        .iter()
        .map(|r| {
            Ok(RoundRecord {
                round: r.get("round").and_then(Json::as_idx).ok_or_else(|| malformed(name))?,
                benefit: r
                    .get("benefit")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed(name))?,
                payment: r
                    .get("payment")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed(name))?,
                requester_utility: r
                    .get("requester_utility")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed(name))?,
            })
        })
        .collect()
}

fn contract_to_json(contract: &Contract) -> Json {
    Json::Obj(vec![
        ("knots".into(), f64_arr(contract.feedback_knots())),
        ("payments".into(), f64_arr(contract.payments())),
    ])
}

fn contract_from_json(doc: &Json) -> Result<Contract, CoreError> {
    let knots = f64_vec(doc, "knots")?;
    let payments = f64_vec(doc, "payments")?;
    Contract::new(knots, payments)
}

fn quadratic_to_json(psi: &Quadratic) -> Json {
    Json::Arr(vec![
        Json::num(psi.r2()),
        Json::num(psi.r1()),
        Json::num(psi.r0()),
    ])
}

fn quadratic_from_json(doc: &Json, name: &str) -> Result<Quadratic, CoreError> {
    let coeffs = doc.as_arr().ok_or_else(|| malformed(name))?;
    if coeffs.len() != 3 {
        return Err(malformed(name));
    }
    let mut c = [0.0f64; 3];
    for (slot, x) in c.iter_mut().zip(coeffs) {
        *slot = x.as_f64().ok_or_else(|| malformed(name))?;
    }
    Ok(Quadratic::new(c[0], c[1], c[2]))
}

fn malformed(name: &str) -> CoreError {
    CoreError::InvalidInput(format!("checkpoint field {name:?} is missing or malformed"))
}

fn arr_of<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], CoreError> {
    doc.get(name).and_then(Json::as_arr).ok_or_else(|| malformed(name))
}

fn check_header(doc: &Json, kind: &str) -> Result<(), CoreError> {
    let version = doc.get("version").and_then(Json::as_u64);
    if version != Some(CHECKPOINT_VERSION) {
        return Err(CoreError::InvalidInput(format!(
            "unsupported checkpoint version {version:?} (expected {CHECKPOINT_VERSION})"
        )));
    }
    let found = doc.get("kind").and_then(Json::as_str);
    if found != Some(kind) {
        return Err(CoreError::InvalidInput(format!(
            "checkpoint kind {found:?} does not match expected {kind:?}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// SimState
// ---------------------------------------------------------------------

/// Serializes a [`SimState`] to a JSON document.
pub fn sim_state_to_json(state: &SimState) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::u64(CHECKPOINT_VERSION)),
        ("kind".into(), Json::Str("sim".into())),
        ("next_round".into(), Json::idx(state.next_round)),
        ("rng".into(), rng_to_json(&state.rng)),
        ("efforts".into(), f64_arr(&state.efforts)),
        ("pending_payment".into(), f64_arr(&state.pending_payment)),
        (
            "delayed_payments".into(),
            Json::Arr(
                state
                    .delayed_payments
                    .iter()
                    .map(|per_agent| {
                        Json::Arr(
                            per_agent
                                .iter()
                                .map(|&(due, amount)| {
                                    Json::Arr(vec![Json::idx(due), Json::num(amount)])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("agent_compensation".into(), f64_arr(&state.agent_compensation)),
        ("rounds".into(), rounds_to_json(&state.rounds)),
    ])
}

/// Restores a [`SimState`] from a JSON document.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on a malformed document, a wrong
/// `kind`, or an unsupported `version`.
pub fn sim_state_from_json(doc: &Json) -> Result<SimState, CoreError> {
    check_header(doc, "sim")?;
    let delayed_payments = arr_of(doc, "delayed_payments")?
        .iter()
        .map(|per_agent| {
            per_agent
                .as_arr()
                .ok_or_else(|| malformed("delayed_payments"))?
                .iter()
                .map(|entry| {
                    let pair = entry.as_arr().ok_or_else(|| malformed("delayed_payments"))?;
                    match pair {
                        [due, amount] => Ok((
                            due.as_idx().ok_or_else(|| malformed("delayed_payments"))?,
                            amount.as_f64().ok_or_else(|| malformed("delayed_payments"))?,
                        )),
                        _ => Err(malformed("delayed_payments")),
                    }
                })
                .collect::<Result<Vec<_>, CoreError>>()
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(SimState {
        next_round: doc
            .get("next_round")
            .and_then(Json::as_idx)
            .ok_or_else(|| malformed("next_round"))?,
        rng: rng_from_json(doc, "rng")?,
        efforts: f64_vec(doc, "efforts")?,
        pending_payment: f64_vec(doc, "pending_payment")?,
        delayed_payments,
        agent_compensation: f64_vec(doc, "agent_compensation")?,
        rounds: rounds_from_json(doc, "rounds")?,
    })
}

/// Writes `bytes` to `path` atomically: they go to a sibling `.tmp`
/// file first and are renamed into place, so a crash mid-write can
/// never leave a truncated checkpoint where a valid one used to be. The
/// shared persistence primitive of every crash-safe checkpoint writer
/// (simulation, batch scheduler, streaming service).
///
/// # Errors
///
/// Returns the underlying I/O error on filesystem failure; the temp
/// file is removed on a failed write or rename.
pub fn save_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`save_bytes_atomic`] over a JSON document's text.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure; the temp file is
/// removed on a failed rename.
pub fn save_json_atomic(path: &Path, doc: &Json) -> Result<(), CoreError> {
    save_bytes_atomic(path, doc.to_string().as_bytes())
        .map_err(|e| CoreError::io(format!("write checkpoint {}", path.display()), e))
}

/// Writes a [`SimState`] checkpoint file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure.
pub fn save_sim_state(path: &Path, state: &SimState) -> Result<(), CoreError> {
    save_json_atomic(path, &sim_state_to_json(state))
}

/// Reads a [`SimState`] checkpoint file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure and
/// [`CoreError::InvalidInput`] on malformed content.
pub fn load_sim_state(path: &Path) -> Result<SimState, CoreError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CoreError::io(format!("read checkpoint {}", path.display()), e))?;
    sim_state_from_json(&Json::parse(&text)?)
}

// ---------------------------------------------------------------------
// AdaptiveState
// ---------------------------------------------------------------------

/// Serializes an [`AdaptiveState`] to a JSON document.
///
/// HashMap-backed fields are written with sorted keys, so serializing the
/// same state twice produces identical bytes.
pub fn adaptive_state_to_json(state: &AdaptiveState) -> Json {
    let mut psi_keys: Vec<usize> = state.group_psis.keys().copied().collect();
    psi_keys.sort_unstable();
    let group_psis = Json::Obj(
        psi_keys
            .iter()
            .map(|k| (k.to_string(), quadratic_to_json(&state.group_psis[k])))
            .collect(),
    );
    let mut obs_keys: Vec<usize> = state.group_obs.keys().copied().collect();
    obs_keys.sort_unstable();
    let group_obs = Json::Obj(
        obs_keys
            .iter()
            .map(|k| {
                let entries = Json::Arr(
                    state.group_obs[k]
                        .iter()
                        .map(|&(t, effort, feedback)| {
                            Json::Arr(vec![
                                Json::idx(t),
                                Json::num(effort),
                                Json::num(feedback),
                            ])
                        })
                        .collect(),
                );
                (k.to_string(), entries)
            })
            .collect(),
    );
    Json::Obj(vec![
        ("version".into(), Json::u64(CHECKPOINT_VERSION)),
        ("kind".into(), Json::Str("adaptive".into())),
        ("next_round".into(), Json::idx(state.next_round)),
        ("rng".into(), rng_to_json(&state.rng)),
        ("group_psis".into(), group_psis),
        ("est_weights".into(), f64_arr(&state.est_weights)),
        ("group_obs".into(), group_obs),
        (
            "audit_obs".into(),
            Json::Arr(
                state
                    .audit_obs
                    .iter()
                    .map(|per_agent| {
                        Json::Arr(
                            per_agent
                                .iter()
                                .map(|&(t, w)| Json::Arr(vec![Json::idx(t), Json::num(w)]))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "contracts".into(),
            Json::Arr(state.contracts.iter().map(contract_to_json).collect()),
        ),
        (
            "recontract_rounds".into(),
            Json::Arr(state.recontract_rounds.iter().map(|&r| Json::idx(r)).collect()),
        ),
        ("pending_payment".into(), f64_arr(&state.pending_payment)),
        ("agent_compensation".into(), f64_arr(&state.agent_compensation)),
        ("rounds".into(), rounds_to_json(&state.rounds)),
    ])
}

/// Restores an [`AdaptiveState`] from a JSON document.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on a malformed document, a wrong
/// `kind`, an unsupported `version`, or an invalid embedded contract.
pub fn adaptive_state_from_json(doc: &Json) -> Result<AdaptiveState, CoreError> {
    check_header(doc, "adaptive")?;
    let parse_key = |key: &str| -> Result<usize, CoreError> {
        key.parse::<usize>()
            .map_err(|_| CoreError::InvalidInput(format!("bad group key {key:?} in checkpoint")))
    };

    let psis_doc = match doc.get("group_psis") {
        Some(Json::Obj(entries)) => entries,
        _ => return Err(malformed("group_psis")),
    };
    let mut group_psis = BTreeMap::new();
    for (key, value) in psis_doc {
        group_psis.insert(parse_key(key)?, quadratic_from_json(value, "group_psis")?);
    }

    let obs_doc = match doc.get("group_obs") {
        Some(Json::Obj(entries)) => entries,
        _ => return Err(malformed("group_obs")),
    };
    let mut group_obs = BTreeMap::new();
    for (key, value) in obs_doc {
        let entries = value
            .as_arr()
            .ok_or_else(|| malformed("group_obs"))?
            .iter()
            .map(|entry| {
                let triple = entry.as_arr().ok_or_else(|| malformed("group_obs"))?;
                match triple {
                    [t, effort, feedback] => Ok((
                        t.as_idx().ok_or_else(|| malformed("group_obs"))?,
                        effort.as_f64().ok_or_else(|| malformed("group_obs"))?,
                        feedback.as_f64().ok_or_else(|| malformed("group_obs"))?,
                    )),
                    _ => Err(malformed("group_obs")),
                }
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        group_obs.insert(parse_key(key)?, entries);
    }

    let audit_obs = arr_of(doc, "audit_obs")?
        .iter()
        .map(|per_agent| {
            per_agent
                .as_arr()
                .ok_or_else(|| malformed("audit_obs"))?
                .iter()
                .map(|entry| {
                    let pair = entry.as_arr().ok_or_else(|| malformed("audit_obs"))?;
                    match pair {
                        [t, w] => Ok((
                            t.as_idx().ok_or_else(|| malformed("audit_obs"))?,
                            w.as_f64().ok_or_else(|| malformed("audit_obs"))?,
                        )),
                        _ => Err(malformed("audit_obs")),
                    }
                })
                .collect::<Result<Vec<_>, CoreError>>()
        })
        .collect::<Result<Vec<_>, CoreError>>()?;

    let contracts = arr_of(doc, "contracts")?
        .iter()
        .map(contract_from_json)
        .collect::<Result<Vec<_>, CoreError>>()?;

    let recontract_rounds = arr_of(doc, "recontract_rounds")?
        .iter()
        .map(|r| r.as_idx().ok_or_else(|| malformed("recontract_rounds")))
        .collect::<Result<Vec<_>, CoreError>>()?;

    Ok(AdaptiveState {
        next_round: doc
            .get("next_round")
            .and_then(Json::as_idx)
            .ok_or_else(|| malformed("next_round"))?,
        rng: rng_from_json(doc, "rng")?,
        group_psis,
        est_weights: f64_vec(doc, "est_weights")?,
        group_obs,
        audit_obs,
        contracts,
        recontract_rounds,
        pending_payment: f64_vec(doc, "pending_payment")?,
        agent_compensation: f64_vec(doc, "agent_compensation")?,
        rounds: rounds_from_json(doc, "rounds")?,
    })
}

/// Writes an [`AdaptiveState`] checkpoint file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure.
pub fn save_adaptive_state(path: &Path, state: &AdaptiveState) -> Result<(), CoreError> {
    save_json_atomic(path, &adaptive_state_to_json(state))
}

/// Reads an [`AdaptiveState`] checkpoint file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure and
/// [`CoreError::InvalidInput`] on malformed content.
pub fn load_adaptive_state(path: &Path) -> Result<AdaptiveState, CoreError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CoreError::io(format!("read checkpoint {}", path.display()), e))?;
    adaptive_state_from_json(&Json::parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultInjector;
    use crate::plan::FaultPlanConfig;
    use dcc_core::{
        AdaptiveAgent, AdaptiveConfig, AdaptiveSimulation, AgentSpec, ConductModel,
        ContractBuilder, Discretization, ModelParams, Simulation, SimulationConfig,
    };

    fn params() -> ModelParams {
        ModelParams {
            mu: 1.5,
            ..ModelParams::default()
        }
    }

    fn agent(id: usize, omega: f64, weight: f64) -> AgentSpec {
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        let disc = Discretization::new(16, 0.625).unwrap();
        let built = ContractBuilder::new(params(), disc, psi)
            .malicious(omega)
            .weight(weight)
            .build()
            .unwrap();
        AgentSpec {
            id,
            members: 1,
            omega,
            weight,
            psi,
            contract: built.contract().clone(),
            in_system: true,
        }
    }

    #[test]
    fn sim_state_round_trip_is_exact_mid_run_with_faults() {
        let agents =
            vec![agent(0, 0.0, 1.0), agent(1, 0.5, 0.6), agent(2, 0.3, 0.8)];
        let plan = FaultPlanConfig {
            agents: 3,
            rounds: 30,
            dropout_prob: 0.05,
            missing_prob: 0.1,
            corrupt_prob: 0.1,
            nan_prob: 0.05,
            delay_prob: 0.1,
            seed: 91,
            ..FaultPlanConfig::default()
        }
        .generate()
        .unwrap();
        let sim = Simulation::new(
            params(),
            SimulationConfig {
                rounds: 30,
                feedback_noise_sd: 0.5,
                seed: 23,
            },
        );

        // Uninterrupted run under the plan.
        let mut injector = FaultInjector::new(&plan);
        let direct = sim.run_with_faults(&agents, &mut injector).unwrap();

        // Interrupted run: stop at round 11, serialize, restore, resume
        // with a *fresh* injector built from the same plan.
        let mut injector = FaultInjector::new(&plan);
        let mut state = sim.start(&agents).unwrap();
        for _ in 0..11 {
            assert!(sim.step(&agents, &mut state, &mut injector));
        }
        let text = sim_state_to_json(&state).to_string();
        let mut restored = sim_state_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(state, restored);

        let mut fresh_injector = FaultInjector::new(&plan);
        while sim.step(&agents, &mut restored, &mut fresh_injector) {}
        assert_eq!(direct, sim.outcome_of(&restored).unwrap());
    }

    #[test]
    fn adaptive_state_round_trip_is_exact_mid_run() {
        let agents: Vec<AdaptiveAgent> = (0..6)
            .map(|i| AdaptiveAgent {
                id: i,
                group: i % 2,
                base_omega: 0.0,
                base_weight: 1.0 + 0.1 * (i % 3) as f64,
                true_psi: Quadratic::new(-0.15, 2.5, 1.0),
                conduct: ConductModel::Stationary,
            })
            .collect();
        let sim = AdaptiveSimulation::new(
            ModelParams {
                mu: 1.0,
                ..ModelParams::default()
            },
            AdaptiveConfig {
                rounds: 30,
                recontract_every: 5,
                seed: 19,
                ..AdaptiveConfig::default()
            },
        );
        let direct = sim.run(&agents).unwrap();

        let mut state = sim.start(&agents).unwrap();
        for _ in 0..13 {
            assert!(sim.step(&agents, &mut state).unwrap());
        }
        let text = adaptive_state_to_json(&state).to_string();
        let mut restored = adaptive_state_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(state, restored);

        while sim.step(&agents, &mut restored).unwrap() {}
        assert_eq!(direct, sim.outcome_of(&restored).unwrap());
    }

    #[test]
    fn serialization_is_deterministic() {
        let agents = vec![agent(0, 0.0, 1.0), agent(1, 0.4, 0.7)];
        let sim = Simulation::new(
            params(),
            SimulationConfig {
                rounds: 10,
                feedback_noise_sd: 0.5,
                seed: 5,
            },
        );
        let mut state = sim.start(&agents).unwrap();
        let mut faults = dcc_core::NoFaults;
        for _ in 0..4 {
            sim.step(&agents, &mut state, &mut faults);
        }
        assert_eq!(
            sim_state_to_json(&state).to_string(),
            sim_state_to_json(&state).to_string()
        );
    }

    #[test]
    fn file_round_trip_and_error_paths() {
        let agents = vec![agent(0, 0.0, 1.0)];
        let sim = Simulation::new(
            params(),
            SimulationConfig {
                rounds: 6,
                feedback_noise_sd: 0.3,
                seed: 2,
            },
        );
        let mut state = sim.start(&agents).unwrap();
        let mut faults = dcc_core::NoFaults;
        for _ in 0..3 {
            sim.step(&agents, &mut state, &mut faults);
        }
        let dir = std::env::temp_dir().join("dcc-faults-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.json");
        save_sim_state(&path, &state).unwrap();
        assert_eq!(load_sim_state(&path).unwrap(), state);

        // Kind mismatch: a sim checkpoint is not an adaptive one.
        let err = load_adaptive_state(&path).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");

        // The adaptive writer goes through the same atomic primitive.
        let agents = [AdaptiveAgent {
            id: 0,
            group: 0,
            base_omega: 0.0,
            base_weight: 1.0,
            true_psi: Quadratic::new(-0.15, 2.5, 1.0),
            conduct: ConductModel::Stationary,
        }];
        let adaptive = AdaptiveSimulation::new(
            params(),
            AdaptiveConfig {
                rounds: 6,
                recontract_every: 2,
                seed: 4,
                ..AdaptiveConfig::default()
            },
        );
        let mut adaptive_state = adaptive.start(&agents).unwrap();
        for _ in 0..3 {
            adaptive.step(&agents, &mut adaptive_state).unwrap();
        }
        let adaptive_path = dir.join("adaptive.json");
        save_adaptive_state(&adaptive_path, &adaptive_state).unwrap();
        assert!(!adaptive_path.with_extension("tmp").exists());
        assert_eq!(load_adaptive_state(&adaptive_path).unwrap(), adaptive_state);
        let err = load_sim_state(&adaptive_path).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");

        // Missing file surfaces as an io error.
        let err = load_sim_state(&dir.join("nope.json")).unwrap_err();
        assert!(matches!(err, CoreError::Io { .. }), "{err}");

        // Version gate.
        std::fs::write(dir.join("bad.json"), "{\"version\":\"9\",\"kind\":\"sim\"}").unwrap();
        let err = load_sim_state(&dir.join("bad.json")).unwrap_err();
        assert!(format!("{err}").contains("version"), "{err}");
    }

    #[test]
    fn failed_rename_is_reported_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("dcc-faults-rename-test-{}", std::process::id()));
        // An existing directory at the target path makes the rename fail
        // after the temp file was written.
        let path = dir.join("state.json");
        std::fs::create_dir_all(&path).unwrap();
        assert!(save_bytes_atomic(&path, b"{}").is_err());
        assert!(!path.with_extension("tmp").exists());
        let err = save_json_atomic(&path, &Json::Obj(Vec::new())).unwrap_err();
        assert!(matches!(err, CoreError::Io { .. }), "{err}");
        assert!(!path.with_extension("tmp").exists());
        assert!(path.is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
