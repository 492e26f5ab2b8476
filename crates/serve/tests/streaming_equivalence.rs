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

/// `(rounds, solve_resolved, solve_reused)` after replaying the small
/// seed-13 stream.
const PINNED_ROUNDS: usize = 8;
const PINNED_RESOLVED: usize = 24;
const PINNED_REUSED: usize = 2952;

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
fn serve_counters_equal_stats_after_every_round() {
    use dcc_obs::{names, JsonRecorder};
    let recorder = std::sync::Arc::new(JsonRecorder::new());
    let mut service = ServeService::new(
        PipelineConfig::default(),
        DesignConfig::default(),
        2,
        false,
        Metrics::new(recorder.clone()),
    )
    .expect("config is valid");
    let trace = SyntheticConfig::small(17).generate();
    let mut rounds = 0;
    for event in &events_from_trace(&trace) {
        if service.apply(event).expect("replay applies").is_none() {
            continue;
        }
        rounds += 1;
        let s = service.stats();
        for (counter, stat) in [
            (names::COUNTER_SERVE_EVENTS, s.events),
            (names::COUNTER_SERVE_ROUNDS, s.rounds),
            (names::COUNTER_SERVE_DIRTY_WORKERS, s.dirty_workers),
            (names::COUNTER_SERVE_DIRTY_PRODUCTS, s.dirty_products),
            (names::COUNTER_SERVE_SOLVE_RESOLVED, s.solve_resolved),
            (names::COUNTER_SERVE_SOLVE_REUSED, s.solve_reused),
            (names::COUNTER_SERVE_FIT_REFITS, s.fit_refits),
            (names::COUNTER_SERVE_FIT_REUSED, s.fit_reused),
        ] {
            assert_eq!(
                recorder.counter(counter),
                stat as u64,
                "{counter} after round {rounds}"
            );
        }
    }
    assert!(rounds >= 2, "the stream produced too few rounds");
}

#[test]
fn quiet_rounds_build_one_table_per_key_and_repeat_the_design() {
    // A round boundary with no intervening events changes no input, so
    // the incremental path re-fits nothing, builds exactly one candidate
    // table per distinct subproblem key, and emits a design identical
    // to the busy round before it.
    let mut service = replay_verified(13, 4);
    let busy = service.stats();
    // The small stream's table counts: pinned so that a change in solve
    // work fails here and has to be explained.
    assert_eq!(
        (busy.rounds, busy.solve_resolved, busy.solve_reused),
        (PINNED_ROUNDS, PINNED_RESOLVED, PINNED_REUSED)
    );
    let state = service.state();
    let prep = dcc_core::prepare_design(
        state.trace(),
        &state.cold_detection(),
        &DesignConfig::default(),
    )
    .expect("the replayed trace fits");
    let keys = prep
        .subproblems
        .iter()
        .map(dcc_core::Subproblem::candidate_key)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(keys < prep.subproblems.len(), "subproblems share keys");
    let mut previous = dcc_serve::design_digest(&state.cold_design().expect("design"));
    for _ in 0..3 {
        let out = service
            .apply(&dcc_serve::ServeEvent::Round)
            .expect("quiet round")
            .expect("round output");
        assert_eq!(out.dirty_workers, 0);
        assert_eq!(out.dirty_products, 0);
        assert_eq!(out.fit_refits, 0);
        assert_eq!(out.resolved, keys, "one table per distinct key");
        assert_eq!(out.resolved + out.reused, prep.subproblems.len());
        let digest = dcc_serve::design_digest(out.design.as_ref().expect("design"));
        assert_eq!(digest, previous, "a quiet round repeats the design");
        previous = digest;
    }
    let quiet = service.stats();
    assert_eq!(quiet.fit_refits, busy.fit_refits);
    assert_eq!(quiet.solve_resolved, busy.solve_resolved + 3 * keys);
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

/// A hand-scripted stream that walks the class-fit branches the paper
/// trace never reaches: the ncm fallback (fewer than 3 suspects outside
/// communities), the cm member-point fit (fewer than 3 communities but
/// at least 3 member points) refitted, reused and then crossing to 3
/// communities and back, and an existing worker's point changing
/// mid-vector. Every round must match the cold batch design, with the
/// exact per-round `(fit_refits, fit_reused)` deltas.
#[test]
fn scripted_fit_branches_match_batch_with_exact_fit_counters() {
    use dcc_serve::ServeEvent::{self, Join, Product, Review, Round};
    use dcc_trace::WorkerClass::{
        self, CollusiveMalicious as Cm, Honest, NonCollusiveMalicious as Ncm,
    };

    let review = |worker, product, length, upvotes| Review {
        worker,
        product,
        round: 0,
        stars: 3.0,
        length,
        upvotes,
    };
    // Worker `id` joins and writes one review.
    let join = |id, class: WorkerClass, campaign, product, length, upvotes| {
        vec![
            Join { id, class, campaign, expert: false },
            review(id, product, length, upvotes),
        ]
    };
    // One round: (label, events, communities, (fit_refits, fit_reused)).
    type Step = (&'static str, Vec<ServeEvent>, usize, (usize, usize));
    let steps: Vec<Step> = vec![
        (
            "5 honest, 2 ncm (fallback), one 3-member community (member fit)",
            [
                join(0, Honest, None, 0, 120, 2.0),
                join(1, Honest, None, 1, 160, 3.0),
                join(2, Honest, None, 2, 200, 5.0),
                join(3, Honest, None, 3, 240, 6.0),
                join(4, Honest, None, 4, 280, 8.0),
                join(5, Ncm, None, 15, 150, 1.0),
                join(6, Ncm, None, 16, 210, 2.0),
                join(7, Cm, Some(0), 10, 100, 4.0),
                join(8, Cm, Some(0), 10, 180, 6.0),
                join(9, Cm, Some(0), 10, 260, 9.0),
            ]
            .concat(),
            1,
            (2, 1),
        ),
        (
            "a new honest worker: member fit reused",
            join(10, Honest, None, 5, 300, 7.0),
            1,
            (1, 2),
        ),
        (
            "a second community: member fit refitted",
            [join(11, Cm, Some(1), 11, 140, 5.0), join(12, Cm, Some(1), 11, 220, 7.0)].concat(),
            2,
            (1, 2),
        ),
        (
            "a third community: aggregate fit",
            [join(13, Cm, Some(2), 12, 130, 3.0), join(14, Cm, Some(2), 12, 230, 8.0)].concat(),
            3,
            (1, 2),
        ),
        (
            "a third ncm worker leaves the fallback",
            join(15, Ncm, None, 17, 190, 3.0),
            3,
            (1, 2),
        ),
        (
            "honest worker 1's point changes mid-vector",
            vec![review(1, 6, 90, 1.0)],
            3,
            (1, 2),
        ),
        (
            "worker 13 merges two communities, its point unchanged: back to the member fit",
            vec![review(13, 11, 130, 3.0)],
            2,
            (1, 2),
        ),
    ];

    let mut state =
        ServeState::new(PipelineConfig::default(), DesignConfig::default(), 2).expect("config");
    for id in 0..20 {
        state.apply(&Product { id, quality: 3.0 }).expect("product");
    }
    for (label, events, communities, fit_deltas) in steps {
        for event in &events {
            assert!(state.apply(event).expect("protocol-valid event").is_none());
        }
        let before = state.stats();
        let out = state.apply(&Round).expect("round").expect("round output");
        let after = state.stats();
        assert_eq!(
            state.cold_detection().collusion.communities.len(),
            communities,
            "{label}: community count"
        );
        let design = out.design.unwrap_or_else(|e| panic!("{label}: {e}"));
        let cold = state.cold_design().expect("cold design");
        assert_eq!(
            dcc_serve::design_digest(&design),
            dcc_serve::design_digest(&cold),
            "{label}: serve diverged from batch"
        );
        assert_eq!(
            (after.fit_refits - before.fit_refits, after.fit_reused - before.fit_reused),
            fit_deltas,
            "{label}: fit counters"
        );
    }
}
