//! The exact work counters the traced runs report must repeat across
//! runs and across pool sizes, so a later change can cite them as
//! counts rather than timings. Run with
//! `cargo test --release --manifest-path pipebench/Cargo.toml`.

use dcc_engine::{Engine, EngineConfig, PoolSize, RoundContext, StageKind, TraceSource};
use dcc_experiments::ExperimentScale;
use dcc_numerics::Json;
use dcc_obs::Metrics;
use dcc_pipebench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use dcc_pipebench::common::{distinct_keys, nproc, paper_times, WorkDir};
use dcc_pipebench::{design, restore, serve, sweep};
use std::fmt::Debug;

/// Evaluates `count` twice at pool `nproc` and once at pool 1, asserts
/// the three results are equal, and returns them.
fn repeats<T: PartialEq + Debug>(what: &str, count: impl Fn(usize) -> T) -> T {
    let first = count(nproc());
    assert_eq!(count(nproc()), first, "{what} differs between two runs");
    assert_eq!(
        count(1),
        first,
        "{what} differs between pool {} and pool 1",
        nproc()
    );
    first
}

fn design_distinct_keys(dir: &WorkDir) {
    let config = paper_times(design::SCALE, 42);
    let input = design::write_trace(dir, "trace-4x.col", &config).expect("write trace");
    let keys = repeats("design-4x fit.distinct_keys", |pool| {
        let mut config = EngineConfig::for_source(TraceSource::Columnar(input.path.clone()));
        config.pool = PoolSize::Fixed(pool);
        let mut rc = RoundContext::new(config);
        Engine::new()
            .run_to(&mut rc, StageKind::FitEffort)
            .expect("fit");
        distinct_keys(rc.prep().expect("prep"))
    });
    assert_eq!(keys, 3, "class-level fits give one key per class");
}

/// `ServeStats` over the `serve-restore` stream: the same replay code
/// as `serve-replay`, on an input small enough to repeat three times.
fn serve_stats(lines: &[String]) {
    let stats = repeats("ServeStats", |pool| {
        serve::replay(lines, pool, false)
            .expect("replay")
            .service
            .stats()
    });
    assert_eq!(stats.events, lines.len());
}

fn memo_stats(dir: &WorkDir) {
    let config = ExperimentScale::Small.trace_config(42);
    let path = sweep::write_inputs(dir, &config).expect("write grid");
    let grid = sweep::read_grid(&path).expect("grid");
    let stats = repeats("MemoStats", |pool| {
        sweep::run_pass(&grid, pool, Metrics::noop())
            .expect("batch")
            .report
            .stats
    });
    assert_eq!(stats, sweep::expected_stats(&grid));
    repeats("sweep fit.distinct_keys", |_| {
        sweep::sweep_distinct_keys(&grid).expect("keys")
    });
}

fn checkpoint_bytes(dir: &WorkDir, lines: &[String]) {
    let ckpt = dir.file("serve.ckpt.json");
    let bytes = repeats("ckpt.bytes", |pool| {
        let pass = restore::killed_replay(lines, pool, &ckpt, false).expect("killed replay");
        pass.restores.iter().map(|r| r.bytes).collect::<Vec<_>>()
    });
    assert!(
        bytes.windows(2).all(|w| w[0] < w[1]),
        "checkpoints grow: {bytes:?}"
    );
}

#[test]
fn work_counters_repeat_across_runs_and_pools() {
    let dir = WorkDir::new("counters-test").expect("work dir");
    let small = ExperimentScale::Small.trace_config(42);
    let path = serve::write_events(&dir, "events.jsonl", &small).expect("write events");
    let lines = serve::read_lines(&path).expect("read events");
    design_distinct_keys(&dir);
    serve_stats(&lines);
    memo_stats(&dir);
    checkpoint_bytes(&dir, &lines);
}

#[test]
fn benchmark_json_lists_the_published_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let names = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(list("end_to_end"), names(&END_TO_END));
    assert_eq!(list("per_layer"), names(&PER_LAYER));
}
