//! The project-specific rules. Each rule walks the token stream of one
//! file; `metric-registry` additionally aggregates across files (see
//! [`crate::registry`]).

use crate::classify::TestRegions;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Every enforceable rule id, including the two meta rules produced by
/// suppression handling.
pub const RULE_IDS: &[&str] = &[
    "float-eq",
    "unwrap-in-lib",
    "nondet-iter",
    "wall-clock",
    "hot-loop-alloc",
    "metric-registry",
    "determinism-taint",
    "taint-policy",
    "bad-suppression",
    "unused-suppression",
];

/// Per-file context shared by the token rules.
pub struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// `#[cfg(test)]` / `#[test]` line ranges.
    pub test_regions: &'a TestRegions,
    /// Whether the wall-clock rule exempts this file (the `dcc-obs`
    /// timing layer itself).
    pub wall_clock_exempt: bool,
    /// Whether this file is the subproblem solve kernel,
    /// where the advisory `hot-loop-alloc` rule applies.
    pub hot_loop_scope: bool,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions.contains(line)
    }
}

/// Runs all single-file token rules, appending to `findings`.
pub fn run_token_rules(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    float_eq(ctx, findings);
    unwrap_in_lib(ctx, findings);
    nondet_iter(ctx, findings);
    wall_clock(ctx, findings);
    hot_loop_alloc(ctx, findings);
}

/// Identifiers that make a `==`/`!=` operand float-typed on its face.
const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON", "MAX", "MIN"];

/// `float-eq`: flags `==`/`!=` whose neighborhood is visibly
/// float-typed — a float literal on either side, a `… as f64`/`f32`
/// cast on the left, or an `f64::NAN`-style constant path. Type-aware
/// coverage (two float *variables* compared) is `clippy::float_cmp`'s
/// job; this rule is the fast source-level complement that also runs
/// on code clippy has been allowed to skip.
fn float_eq(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let prev2 = i.checked_sub(2).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        let next2 = toks.get(i + 2);
        let next3 = toks.get(i + 3);

        let lhs_float = matches!(prev, Some(p) if p.kind == TokKind::Float)
            || matches!((prev2, prev), (Some(a), Some(c))
                if a.text == "as" && (c.text == "f64" || c.text == "f32"))
            || matches!((prev2, prev), (Some(sep), Some(c))
                if sep.text == "::" && FLOAT_CONSTS.contains(&c.text.as_str()));
        let rhs_float = matches!(next, Some(n) if n.kind == TokKind::Float)
            || matches!((next, next2), (Some(m), Some(n))
                if m.text == "-" && n.kind == TokKind::Float)
            || matches!((next, next2, next3), (Some(a), Some(sep), Some(c))
                if (a.text == "f64" || a.text == "f32")
                    && sep.text == "::"
                    && FLOAT_CONSTS.contains(&c.text.as_str()));

        if lhs_float || rhs_float {
            findings.push(Finding::new(
                "float-eq",
                ctx.path,
                t.line,
                format!(
                    "float `{}` comparison; use dcc_numerics::{{approx_eq, exact_eq}} \
                     (or exact_ne) instead",
                    t.text
                ),
            ));
        }
    }
}

/// `unwrap-in-lib`: no `.unwrap()`, `.expect(…)`, or `panic!` in
/// non-test library/binary code. Libraries surface `CoreError` (or the
/// crate's typed error); the CLI surfaces `CliError`.
fn unwrap_in_lib(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        let method_call = |name: &str| {
            t.text == name
                && matches!(prev, Some(p) if p.text == ".")
                && matches!(next, Some(n) if n.text == "(")
        };
        let msg = if method_call("unwrap") {
            Some("`.unwrap()` in library code; return a typed error instead")
        } else if method_call("expect") {
            Some("`.expect(…)` in library code; return a typed error instead")
        } else if t.text == "panic" && matches!(next, Some(n) if n.text == "!") {
            Some("`panic!` in library code; return a typed error instead")
        } else {
            None
        };
        if let Some(msg) = msg {
            findings.push(Finding::new("unwrap-in-lib", ctx.path, t.line, msg.to_string()));
        }
    }
}

/// `nondet-iter`: no `HashMap`/`HashSet` in non-test code. Their
/// iteration order is a per-process coin flip, and hash containers have
/// repeatedly been the source of nondeterministic serialization, metric,
/// and contract output. `BTreeMap`/`BTreeSet` are order-deterministic by
/// construction; a reasoned suppression is required where hashing is
/// genuinely needed.
fn nondet_iter(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for t in ctx.tokens {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            findings.push(Finding::new(
                "nondet-iter",
                ctx.path,
                t.line,
                format!(
                    "`{}` has nondeterministic iteration order; use BTree{} or \
                     suppress with a reason",
                    t.text,
                    if t.text == "HashMap" { "Map" } else { "Set" }
                ),
            ));
        }
    }
}

/// `wall-clock`: no `Instant`/`SystemTime` — and no `thread::sleep` —
/// outside the sanctioned timing modules (`dcc-obs`, whose recorders
/// redact timing from deterministic output, and the `dcc-faults` retry
/// module, whose backoff is a deterministic *logical* schedule). A
/// clock read anywhere else is either dead weight or a determinism
/// leak, and a sleep stalls a worker on wall time the supervised batch
/// scheduler budgets logically.
fn wall_clock(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if ctx.wall_clock_exempt {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            findings.push(Finding::new(
                "wall-clock",
                ctx.path,
                t.line,
                format!(
                    "`{}` outside dcc-obs; route timing through the metrics layer \
                     or suppress with a reason",
                    t.text
                ),
            ));
            continue;
        }
        // `thread::sleep(...)` (std or scoped-import spelling).
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let prev2 = i.checked_sub(2).and_then(|j| toks.get(j));
        if t.text == "sleep"
            && matches!(prev, Some(p) if p.text == "::")
            && matches!(prev2, Some(p) if p.text == "thread")
        {
            findings.push(Finding::new(
                "wall-clock",
                ctx.path,
                t.line,
                "`thread::sleep` outside the sanctioned timing modules; \
                 use the deterministic dcc-faults backoff schedule or suppress \
                 with a reason"
                    .to_string(),
            ));
        }
    }
}

/// `hot-loop-alloc`: advisory — in the subproblem solve kernel (which
/// runs once per subproblem, up to millions of times per design), flags
/// the per-element allocators `Vec::new(…)`, `vec![…]`, `.to_vec()`,
/// and `.clone()`. These are exactly the calls that silently add
/// per-subproblem heap traffic; each surviving use must carry a
/// reasoned suppression (e.g. a degraded-path materialization that runs
/// at most once per failure).
fn hot_loop_alloc(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    if !ctx.hot_loop_scope {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        let next2 = toks.get(i + 2);
        let next3 = toks.get(i + 3);
        let method_call = |name: &str| {
            t.text == name
                && matches!(prev, Some(p) if p.text == ".")
                && matches!(next, Some(n) if n.text == "(")
        };
        let what = if t.text == "Vec"
            && matches!(next, Some(n) if n.text == "::")
            && matches!(next2, Some(n) if n.text == "new")
            && matches!(next3, Some(n) if n.text == "(")
        {
            Some("`Vec::new()`")
        } else if t.text == "vec" && matches!(next, Some(n) if n.text == "!") {
            Some("`vec![…]`")
        } else if method_call("to_vec") {
            Some("`.to_vec()`")
        } else if method_call("clone") {
            Some("`.clone()`")
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding::new(
                "hot-loop-alloc",
                ctx.path,
                t.line,
                format!(
                    "{what} in the subproblem solve kernel; borrow from the \
                     input or hoist the buffer, or suppress with a reason"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::test_regions;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        run_with(src, false, false)
    }

    fn run_on(src: &str, wall_clock_exempt: bool) -> Vec<Finding> {
        run_with(src, wall_clock_exempt, false)
    }

    fn run_hot(src: &str) -> Vec<Finding> {
        run_with(src, false, true)
    }

    fn run_with(src: &str, wall_clock_exempt: bool, hot_loop_scope: bool) -> Vec<Finding> {
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let ctx = FileCtx {
            path: "crates/x/src/lib.rs",
            tokens: &lexed.tokens,
            test_regions: &regions,
            wall_clock_exempt,
            hot_loop_scope,
        };
        let mut findings = Vec::new();
        run_token_rules(&ctx, &mut findings);
        findings
    }

    #[test]
    fn float_eq_catches_literals_casts_and_consts() {
        let f = run("fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "float-eq");
        assert_eq!(run("fn f(x: f64) { if x != -1.0 {} }\n").len(), 1);
        assert_eq!(run("fn f(n: usize, x: f64) { let _ = n as f64 == x; }\n").len(), 1);
        assert_eq!(run("fn f(x: f64) { let _ = x == f64::INFINITY; }\n").len(), 1);
    }

    #[test]
    fn float_eq_ignores_ints_and_tests() {
        assert!(run("fn f(n: usize) { let _ = n == 0; }\n").is_empty());
        assert!(run("#[cfg(test)]\nmod tests {\n fn t(x: f64) { assert!(x == 1.0); }\n}\n")
            .is_empty());
    }

    #[test]
    fn unwrap_in_lib_catches_all_three_forms() {
        let f = run("fn f() { o.unwrap(); r.expect(\"m\"); panic!(\"boom\"); }\n");
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.rule == "unwrap-in-lib"));
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        assert!(run("fn f() { o.unwrap_or(1); o.unwrap_or_else(g); o.unwrap_or_default(); }\n")
            .is_empty());
        // `expect` as a plain identifier (not a method call) is fine.
        assert!(run("fn expect() {}\n").is_empty());
    }

    #[test]
    fn nondet_iter_and_wall_clock() {
        let f = run("use std::collections::HashMap;\nfn f() { let t = Instant::now(); }\n");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "nondet-iter");
        assert_eq!(f[1].rule, "wall-clock");
        assert!(run_on("fn f() { let t = Instant::now(); }\n", true).is_empty());
    }

    #[test]
    fn wall_clock_catches_thread_sleep() {
        let f = run("fn f() { std::thread::sleep(d); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(f[0].message.contains("thread::sleep"), "{}", f[0].message);
        // Scoped-import spelling is the same call.
        assert_eq!(run("fn f() { thread::sleep(d); }\n").len(), 1);
        // Sanctioned modules and test regions are exempt.
        assert!(run_on("fn f() { std::thread::sleep(d); }\n", true).is_empty());
        assert!(run("#[test]\nfn t() { std::thread::sleep(d); }\n").is_empty());
        // Other `sleep` identifiers are not wall-clock reads.
        assert!(run("fn f() { scheduler.sleep(); }\n").is_empty());
        assert!(run("fn sleep() {}\n").is_empty());
    }

    #[test]
    fn hot_loop_alloc_flags_all_four_forms_only_in_scope() {
        let src = "fn f(xs: &[u64]) { let a = Vec::new(); let b = vec![0]; \
                   let c = xs.to_vec(); let d = xs.clone(); }\n";
        let f = run_hot(src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "hot-loop-alloc"));
        // Outside the sanctioned kernels the rule is silent.
        assert!(run(src).is_empty());
        // Non-allocating lookalikes are fine even in scope.
        assert!(run_hot("fn f() { let v = Vec::with_capacity(4); m.clone_from(&n); }\n")
            .is_empty());
        // Test regions are exempt, as with every token rule.
        assert!(run_hot("#[test]\nfn t(xs: &[u64]) { let _ = xs.to_vec(); }\n").is_empty());
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[test]\nfn t() { o.unwrap(); }\nfn lib() { o.unwrap(); }\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }
}
