//! Replay-based equivalence: streaming a synthetic trace through the
//! service with `verify` on cross-checks every round boundary bitwise
//! against the cold batch pipeline. The randomized version (arbitrary
//! event streams, pools 1–8) lives in the workspace-level
//! `tests/serve_differential.rs`.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_core::DesignConfig;
use dcc_detect::{PipelineConfig, SuspectSource};
use dcc_obs::Metrics;
use dcc_serve::{events_from_trace, ServeService, ServeState};
use dcc_trace::SyntheticConfig;

fn replay_verified(seed: u64, pool: usize) -> ServeService {
    let trace = SyntheticConfig::small(seed).generate();
    let events = events_from_trace(&trace);
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        pool,
        true,
        Metrics::noop(),
    )
    .expect("config is valid");
    for event in &events {
        service.apply(event).expect("verified round");
    }
    service
}

#[test]
fn replay_matches_batch_at_every_round() {
    for seed in [3, 11, 29] {
        let service = replay_verified(seed, 1);
        assert!(service.stats().rounds >= 2, "seed {seed} produced too few rounds");
    }
}

#[test]
fn pool_size_does_not_change_the_stream() {
    let base = replay_verified(7, 1);
    for pool in [2, 5, 8] {
        let other = replay_verified(7, pool);
        assert_eq!(base.stats(), other.stats(), "pool {pool} diverged");
    }
}

#[test]
fn quiet_rounds_reuse_everything() {
    // A round boundary with no intervening events changes no input, so
    // the incremental path must re-solve nothing and re-fit nothing —
    // and still emit a design identical to the busy round before it.
    let mut service = replay_verified(13, 4);
    let busy = service.stats();
    let mut digests = Vec::new();
    for _ in 0..3 {
        let out = service
            .apply(&dcc_serve::ServeEvent::Round)
            .expect("quiet round")
            .expect("round output");
        assert_eq!(out.dirty_workers, 0);
        assert_eq!(out.dirty_products, 0);
        assert_eq!(out.resolved, 0, "a quiet round must re-solve nothing");
        assert!(out.reused > 0);
        digests.push(dcc_serve::design_digest(
            out.design.as_ref().expect("design"),
        ));
    }
    let quiet = service.stats();
    assert_eq!(quiet.solve_resolved, busy.solve_resolved);
    assert_eq!(quiet.fit_refits, busy.fit_refits);
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn rejected_event_changes_nothing_and_restores_equal() {
    let mut service = replay_verified(5, 2);
    let stats = service.stats();
    let digest = |service: &ServeService| {
        dcc_serve::design_digest(&service.state().cold_design().expect("design"))
    };
    let before = digest(&service);
    let log_len = service.log().len();
    let unknown = service.state().trace().reviewers().len() + 7;
    let err = service
        .apply(&dcc_serve::ServeEvent::Review {
            worker: unknown,
            product: 0,
            round: service.state().rounds_seen(),
            stars: 3.0,
            length: 10,
            upvotes: 0.0,
        })
        .expect_err("a review naming an unknown worker is rejected");
    assert!(
        err.to_string()
            .contains(&format!("references reviewer {unknown}")),
        "{err}"
    );
    assert_eq!(service.stats(), stats, "a rejected event is not counted");
    assert_eq!(
        service.log().len(),
        log_len,
        "a rejected event is not logged"
    );
    assert_eq!(digest(&service), before);

    let (restored, _) = ServeService::restore(
        PipelineConfig::default(),
        DesignConfig::default(),
        2,
        false,
        Metrics::noop(),
        service.log(),
    )
    .expect("restore");
    assert_eq!(restored.stats(), service.stats());
}

#[test]
fn estimated_suspect_source_is_rejected() {
    let err = ServeState::new(
        PipelineConfig {
            suspects: SuspectSource::Estimated { threshold: 0.5 },
            ..PipelineConfig::default()
        },
        DesignConfig::default(),
        1,
    )
    .expect_err("estimated mode must be rejected");
    assert!(err.to_string().contains("GroundTruth"), "{err}");
}
