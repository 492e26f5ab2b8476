//! Fixture-driven end-to-end tests: one known violation per rule, a
//! clean fixture with zero findings, and the registry cross-check over
//! a fixture doc table.

// Test helpers outside `#[test]` fns miss clippy.toml's in-tests exemption.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_lint::{run, Config};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn one_violation(file: &str, rule: &str, line: u32) {
    let cfg = Config::explicit(fixture_root(), vec![PathBuf::from(file)]);
    let report = run(&cfg).expect("fixture lint runs");
    assert_eq!(
        report.findings.len(),
        1,
        "{file}: expected exactly one finding, got {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, rule);
    assert_eq!(f.line, line);
    assert!(f.path.ends_with(file), "path {} should end with {file}", f.path);
}

#[test]
fn float_eq_fixture() {
    one_violation("violations/float_eq.rs", "float-eq", 4);
}

#[test]
fn unwrap_in_lib_fixture() {
    one_violation("violations/unwrap_in_lib.rs", "unwrap-in-lib", 4);
}

#[test]
fn nondet_iter_fixture() {
    one_violation("violations/nondet_iter.rs", "nondet-iter", 4);
}

#[test]
fn wall_clock_fixture() {
    one_violation("violations/wall_clock.rs", "wall-clock", 4);
}

#[test]
fn thread_sleep_fixture() {
    one_violation("violations/thread_sleep.rs", "wall-clock", 4);
}

#[test]
fn hot_loop_alloc_fixture() {
    let src = std::fs::read_to_string(fixture_root().join("violations/hot_loop_alloc.rs"))
        .expect("fixture reads");
    // The rule only applies inside the subproblem solve kernel, so the
    // fixture is linted under that path…
    let findings = dcc_lint::lint_source("crates/core/src/bip.rs", &src);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "hot-loop-alloc");
    assert_eq!(findings[0].line, 7);
    // …and stays silent everywhere else.
    assert!(dcc_lint::lint_source("crates/x/src/lib.rs", &src).is_empty());
}

#[test]
fn metric_registry_fixture() {
    let cfg = Config {
        root: fixture_root().join("registry"),
        paths: Vec::new(),
        registry_module: None,
        registry_doc: Some(PathBuf::from("registry.md")),
        policy: None,
    };
    let report = run(&cfg).expect("registry fixture lint runs");
    // One per-name finding at the call site plus the aggregate drift
    // summary on the doc file.
    assert_eq!(
        report.findings.len(),
        2,
        "expected per-name finding + drift summary, got {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, "metric-registry");
    assert_eq!(f.path, "emit.rs");
    assert_eq!(f.line, 6);
    assert!(f.message.contains("lint.fixture.undocumented"));
    let s = &report.findings[1];
    assert_eq!(s.path, "registry.md");
    assert!(s.message.contains("registry drift"), "{}", s.message);
    assert!(
        s.message.contains("missing from registry.md: lint.fixture.undocumented"),
        "{}",
        s.message
    );
    assert!(s.message.contains("not in code: none"), "{}", s.message);
}

#[test]
fn clean_fixture_has_zero_findings() {
    let cfg = Config {
        root: fixture_root().join("clean"),
        paths: Vec::new(),
        registry_module: None,
        registry_doc: None,
        policy: None,
    };
    let report = run(&cfg).expect("clean fixture lint runs");
    assert!(
        report.findings.is_empty(),
        "clean fixture must have zero findings, got {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn violations_dir_walk_finds_every_rule_once() {
    let cfg = Config {
        root: fixture_root().join("violations"),
        paths: Vec::new(),
        registry_module: None,
        registry_doc: None,
        policy: None,
    };
    let report = run(&cfg).expect("violations walk runs");
    let mut rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["float-eq", "nondet-iter", "unwrap-in-lib", "wall-clock", "wall-clock"]
    );
}

#[test]
fn json_output_is_machine_readable() {
    let cfg = Config::explicit(
        fixture_root(),
        vec![PathBuf::from("violations/float_eq.rs")],
    );
    let report = run(&cfg).expect("fixture lint runs");
    let json = report.to_json();
    assert!(json.starts_with("{\"schema\":\"dcc-lint/2\""));
    assert!(json.contains("\"rule\":\"float-eq\""));
    assert!(json.contains("\"line\":4"));
    assert!(json.contains("\"counts\":{\"float-eq\":1}"));
}
