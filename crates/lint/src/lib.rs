//! `dcc-lint` — a workspace-specific determinism and numeric-safety
//! static analyzer.
//!
//! The pipeline's headline guarantees (bit-exact checkpoint/resume,
//! pool-invariant parallel solves, byte-deterministic `dcc-obs/1`
//! output) are enforced by tests that *sample* behavior. This crate
//! checks the *source*: a small Rust lexer plus a rule engine walk
//! every workspace file and enforce rules clippy cannot express:
//!
//! | rule | enforces |
//! |---|---|
//! | `float-eq` | no visibly-float `==`/`!=`; use `dcc_numerics` helpers |
//! | `unwrap-in-lib` | no `.unwrap()`/`.expect(…)`/`panic!` in non-test code |
//! | `nondet-iter` | no `HashMap`/`HashSet` (iteration order is nondeterministic) |
//! | `wall-clock` | no `Instant`/`SystemTime` outside `dcc-obs` |
//! | `hot-loop-alloc` | no per-element allocation in the subproblem solve kernel |
//! | `metric-registry` | metric names in code ↔ `docs/observability.md` stay in sync |
//! | `determinism-taint` | no source→sink nondeterminism flow through the call graph |
//! | `taint-policy` | the taint policy file contains no stale entries |
//!
//! The `determinism-taint` rule is semantic: an item-level parser
//! ([`parse`]) builds a cross-crate call graph and the taint engine
//! ([`taint`]) propagates nondeterminism from sources (wall clock,
//! unseeded RNG, `std::env`, thread IDs, unordered iteration) to sinks
//! (digest folds, checkpoint writers, metric emission), modulo
//! sanctioned laundering points declared in a checked-in [`policy`]
//! file.
//!
//! Findings are suppressible inline with
//! `// dcc-lint: allow(<rule>, reason = "…")` — the reason is
//! mandatory, and unused suppressions are themselves findings — or
//! ratcheted via a committed [`baseline`] file. Output formats: text,
//! `dcc-lint/2` JSON, and SARIF 2.1.0 ([`sarif`]). See
//! `docs/static-analysis.md` for the full rule catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod classify;
pub mod lexer;
pub mod parse;
pub mod policy;
pub mod registry;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod suppress;
pub mod taint;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One step of a taint trace: where the flow passes and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What happens at this step (source, hop, or sink).
    pub note: String,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Source→…→sink steps for `determinism-taint` findings; empty for
    /// token-rule findings.
    pub trace: Vec<TraceStep>,
}

impl Finding {
    /// Builds a finding; `rule` must be a known id.
    pub fn new(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            trace: Vec::new(),
        }
    }

    /// Builds a finding carrying a taint trace.
    pub fn with_trace(
        rule: &'static str,
        path: &str,
        line: u32,
        message: String,
        trace: Vec<TraceStep>,
    ) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            trace,
        }
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; findings are reported relative to it.
    pub root: PathBuf,
    /// Explicit files/directories to lint (workspace-walk when empty).
    /// Explicit mode runs the token rules only — the `metric-registry`
    /// cross-check needs the whole workspace to be meaningful.
    pub paths: Vec<PathBuf>,
    /// Root-relative path of the file holding the `pub mod names`
    /// metric registry (direction 2 of `metric-registry`).
    pub registry_module: Option<PathBuf>,
    /// Root-relative path of the metric documentation table.
    pub registry_doc: Option<PathBuf>,
    /// Root-relative path of the taint policy file (launder/sink
    /// declarations for `determinism-taint`). The taint pass runs in
    /// workspace mode regardless; without a policy nothing is
    /// sanctioned.
    pub policy: Option<PathBuf>,
}

impl Config {
    /// The standard workspace configuration rooted at `root`: full
    /// walk, with the registry cross-check wired to
    /// `crates/obs/src/lib.rs` ↔ `docs/observability.md` when both
    /// exist.
    pub fn workspace(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        let module = PathBuf::from("crates/obs/src/lib.rs");
        let doc = PathBuf::from("docs/observability.md");
        let both = root.join(&module).is_file() && root.join(&doc).is_file();
        let policy = PathBuf::from("dcc-lint.policy");
        let policy = root.join(&policy).is_file().then_some(policy);
        Config {
            root,
            paths: Vec::new(),
            registry_module: both.then(|| module.clone()),
            registry_doc: both.then_some(doc),
            policy,
        }
    }

    /// Lints only `paths` (files or directories), token rules only.
    pub fn explicit(root: impl Into<PathBuf>, paths: Vec<PathBuf>) -> Config {
        Config {
            root: root.into(),
            paths,
            registry_module: None,
            registry_doc: None,
            policy: None,
        }
    }
}

/// Analyzer output.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        report::render_text(&self.findings, self.files_scanned)
    }

    /// Machine-readable `dcc-lint/2` JSON.
    pub fn to_json(&self) -> String {
        report::render_json(&self.findings, self.files_scanned)
    }

    /// SARIF 2.1.0 document with no baseline applied (every finding is
    /// an open result). For ratchet-aware emission build
    /// [`sarif::SarifResult`]s from a [`baseline::Outcome`].
    pub fn to_sarif(&self) -> String {
        let results: Vec<sarif::SarifResult<'_>> = self
            .findings
            .iter()
            .map(|f| sarif::SarifResult {
                finding: f,
                justification: None,
            })
            .collect();
        sarif::render(&results)
    }
}

/// Directory names never descended into. `fixtures` holds this crate's
/// deliberately-violating test inputs; `shims` is vendored third-party
/// API surface that keeps upstream idiom.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures"];

/// Runs the analyzer.
///
/// # Errors
///
/// Returns a message when the root or an explicit path cannot be read.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    if cfg.paths.is_empty() {
        walk(&cfg.root, &mut files).map_err(|e| format!("walk {}: {e}", cfg.root.display()))?;
    } else {
        for p in &cfg.paths {
            let abs = if p.is_absolute() { p.clone() } else { cfg.root.join(p) };
            if abs.is_dir() {
                walk(&abs, &mut files).map_err(|e| format!("walk {}: {e}", abs.display()))?;
            } else if abs.is_file() {
                files.push(abs);
            } else {
                return Err(format!("no such file or directory: {}", p.display()));
            }
        }
    }
    files.sort();
    files.dedup();

    let mut per_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut suppressions: BTreeMap<String, Vec<suppress::Suppression>> = BTreeMap::new();
    let mut code_names: Vec<registry::CodeName> = Vec::new();
    let mut const_refs: Vec<registry::ConstRef> = Vec::new();
    let mut reg_consts: BTreeMap<String, String> = BTreeMap::new();
    let mut files_scanned = 0usize;
    // Parsed files retained for the interprocedural taint pass (runs in
    // workspace-walk mode only — explicit paths cannot see the graph).
    let taint_mode = cfg.paths.is_empty();
    struct TaintUnit {
        parsed: parse::ParsedFile,
        tokens: Vec<lexer::Tok>,
        regions: classify::TestRegions,
    }
    let mut taint_units: Vec<TaintUnit> = Vec::new();

    for file in &files {
        let rel = rel_path(&cfg.root, file);
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        files_scanned += 1;
        if classify::is_test_path(&rel) {
            continue;
        }
        let lexed = lexer::lex(&source);
        let regions = classify::test_regions(&lexed.tokens);
        let findings = per_file.entry(rel.clone()).or_default();
        let sup = suppress::parse(&rel, &lexed.comments, findings);
        suppressions.insert(rel.clone(), sup);

        let ctx = rules::FileCtx {
            path: &rel,
            tokens: &lexed.tokens,
            test_regions: &regions,
            wall_clock_exempt: wall_clock_exempt(&rel),
            hot_loop_scope: hot_loop_scope(&rel),
        };
        rules::run_token_rules(&ctx, findings);

        if cfg.registry_doc.is_some() {
            registry::collect_emissions(
                &rel,
                &lexed.tokens,
                &regions,
                &mut code_names,
                &mut const_refs,
            );
            if cfg
                .registry_module
                .as_ref()
                .is_some_and(|m| m.as_path() == Path::new(&rel))
            {
                registry::collect_registry_consts(&rel, &lexed.tokens, &mut code_names);
                reg_consts = registry::const_map(&lexed.tokens);
            }
        }

        if taint_mode {
            taint_units.push(TaintUnit {
                parsed: parse::parse_file(&rel, &lexed.tokens),
                tokens: lexed.tokens,
                regions,
            });
        }
    }

    if taint_mode {
        let mut pol = match &cfg.policy {
            Some(rel) => {
                let abs = cfg.root.join(rel);
                let src = std::fs::read_to_string(&abs)
                    .map_err(|e| format!("read {}: {e}", abs.display()))?;
                policy::Policy::parse(&rel.to_string_lossy().replace('\\', "/"), &src)?
            }
            None => policy::Policy::default(),
        };
        let units: Vec<taint::Unit<'_>> = taint_units
            .iter()
            .map(|u| taint::Unit {
                parsed: &u.parsed,
                tokens: &u.tokens,
                test_regions: &u.regions,
            })
            .collect();
        for f in taint::analyze(&units, &mut pol) {
            per_file.entry(f.path.clone()).or_default().push(f);
        }
    }

    if let Some(doc_rel) = &cfg.registry_doc {
        let doc_path = cfg.root.join(doc_rel);
        let doc_src = std::fs::read_to_string(&doc_path)
            .map_err(|e| format!("read {}: {e}", doc_path.display()))?;
        let doc = registry::doc_names(&doc_src);
        let doc_rel_str = doc_rel.to_string_lossy().replace('\\', "/");
        let mut reg_findings = Vec::new();
        registry::resolve_const_refs(&const_refs, &reg_consts, &mut code_names, &mut reg_findings);
        registry::cross_check(&code_names, &doc, &doc_rel_str, &mut reg_findings);
        for f in reg_findings {
            per_file.entry(f.path.clone()).or_default().push(f);
        }
    }

    let mut all = Vec::new();
    for (rel, findings) in per_file {
        match suppressions.get_mut(&rel) {
            Some(sup) => all.extend(suppress::apply(&rel, sup, findings)),
            None => all.extend(findings),
        }
    }
    all.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(Report {
        findings: all,
        files_scanned,
    })
}

/// Lints a single in-memory source under a synthetic path (test and
/// property-test entry point; token rules only).
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let regions = classify::test_regions(&lexed.tokens);
    let mut findings = Vec::new();
    let mut sup = suppress::parse(rel_path, &lexed.comments, &mut findings);
    if classify::is_test_path(rel_path) {
        return Vec::new();
    }
    let ctx = rules::FileCtx {
        path: rel_path,
        tokens: &lexed.tokens,
        test_regions: &regions,
        wall_clock_exempt: wall_clock_exempt(rel_path),
        hot_loop_scope: hot_loop_scope(rel_path),
    };
    rules::run_token_rules(&ctx, &mut findings);
    let mut kept = suppress::apply(rel_path, &mut sup, findings);
    kept.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    kept
}

/// Files the `wall-clock` rule exempts wholesale: the `dcc-obs` timing
/// layer itself, and the `dcc-faults` retry module (the sanctioned home
/// for backoff logic — its schedule is logical, and any future real
/// sleep belongs there, visible to review).
fn wall_clock_exempt(rel: &str) -> bool {
    rel.starts_with("crates/obs/") || rel == "crates/faults/src/retry.rs"
}

/// Files where the advisory `hot-loop-alloc` rule applies: the
/// subproblem solve kernel, whose per-subproblem path must not grow
/// allocations beyond the member list each solution owns.
fn hot_loop_scope(rel: &str) -> bool {
    rel == "crates/core/src/bip.rs"
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.as_deref().unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end_with_suppression() {
        let src = "\
use std::collections::HashMap; // dcc-lint: allow(nondet-iter, reason = \"test harness\")
fn f(x: f64) -> bool { x == 0.0 }
";
        let findings = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "float-eq");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn test_paths_produce_no_findings() {
        let findings = lint_source("crates/x/tests/t.rs", "fn f() { o.unwrap(); }\n");
        assert!(findings.is_empty());
    }

    #[test]
    fn workspace_config_wires_registry_only_when_present() {
        let cfg = Config::workspace("/nonexistent");
        assert!(cfg.registry_doc.is_none());
        assert!(cfg.registry_module.is_none());
    }
}
