//! The checked-in taint policy: sanctioned laundering points and
//! project-specific sinks for the determinism-taint pass.
//!
//! The policy lives in a plain-text file (`dcc-lint.policy` at the
//! workspace root) so that every exception to the taint rule is
//! reviewable in one place, with a mandatory reason per entry:
//!
//! ```text
//! # comment
//! launder path:crates/obs/ -- timing redaction strips wall-clock values
//! launder fn:crates/engine/src/stages.rs#DefaultIngest::run -- span timing only
//! launder call:seed_from_u64 -- seeded RNG construction is sanctioned
//! sink fn:FaultPlan::save -- plan serialization must stay deterministic
//! ```
//!
//! Entry kinds:
//!
//! - `launder <pattern> -- <reason>` — functions matching the pattern
//!   never become tainted (their wall-clock/env/… reads are sanctioned
//!   because a downstream pass provably removes the nondeterminism,
//!   e.g. the `dcc-obs` timing redaction), and `call:` patterns mark
//!   sanctioned *callees* (calling them never taints the caller).
//! - `sink <pattern> -- <reason>` — additional sink functions beyond
//!   the built-in catalogue (digest folds, checkpoint writers, metric
//!   emitters).
//!
//! Patterns:
//!
//! - `path:<prefix>` — every function in files under the prefix;
//! - `fn:<file>#<qual>` — the function with qualified name `<qual>`
//!   (`Type::name` for methods, bare name otherwise) in `<file>`;
//! - `fn:<qual>` — any function with that qualified or bare name;
//! - `call:<name>` — call sites whose callee identifier is `<name>`.
//!
//! Every entry must match something in the workspace; stale entries are
//! reported as `taint-policy` findings so the file cannot rot.

use crate::Finding;

/// What a policy entry declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A sanctioned laundering point.
    Launder,
    /// A project-declared sink.
    Sink,
}

/// How a policy pattern selects functions or call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `path:<prefix>` — file-path prefix.
    PathPrefix(String),
    /// `fn:<file>#<qual>` — exact file and qualified name.
    FileFn(String, String),
    /// `fn:<qual>` — qualified or bare name anywhere.
    AnyFn(String),
    /// `call:<name>` — callee identifier at call sites.
    CallName(String),
}

/// One parsed policy entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Launder or sink.
    pub kind: EntryKind,
    /// The selection pattern.
    pub pattern: Pattern,
    /// Mandatory human-readable justification.
    pub reason: String,
    /// 1-based line in the policy file.
    pub line: u32,
    /// Whether the taint pass found anything matching this entry.
    pub used: bool,
}

/// The parsed policy file.
#[derive(Debug, Default)]
pub struct Policy {
    /// All entries, in file order.
    pub entries: Vec<Entry>,
    /// Workspace-relative path of the policy file (for findings).
    pub path: String,
}

impl Policy {
    /// Parses policy `source` read from `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input —
    /// a broken policy must fail the run loudly, not silently sanction
    /// nothing.
    pub fn parse(path: &str, source: &str) -> Result<Policy, String> {
        let mut entries = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let line = u32::try_from(i + 1).unwrap_or(u32::MAX);
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let (kind, rest) = if let Some(r) = text.strip_prefix("launder ") {
                (EntryKind::Launder, r)
            } else if let Some(r) = text.strip_prefix("sink ") {
                (EntryKind::Sink, r)
            } else {
                return Err(format!(
                    "{path}:{line}: policy entries start with `launder` or `sink`"
                ));
            };
            let Some((pat, reason)) = rest.split_once(" -- ") else {
                return Err(format!(
                    "{path}:{line}: missing mandatory ` -- <reason>` on policy entry"
                ));
            };
            let reason = reason.trim();
            if reason.is_empty() {
                return Err(format!("{path}:{line}: empty reason on policy entry"));
            }
            let pattern = Pattern::parse(pat.trim())
                .ok_or_else(|| format!("{path}:{line}: unknown policy pattern {:?}", pat.trim()))?;
            if kind == EntryKind::Sink && matches!(pattern, Pattern::PathPrefix(_)) {
                return Err(format!(
                    "{path}:{line}: `sink` entries must name a function (`fn:`) or call (`call:`)"
                ));
            }
            entries.push(Entry {
                kind,
                pattern,
                reason: reason.to_string(),
                line,
                used: false,
            });
        }
        Ok(Policy {
            entries,
            path: path.to_string(),
        })
    }

    /// Findings for entries nothing matched: a policy exception that
    /// sanctions nothing is rot, exactly like an unused suppression.
    pub fn stale_entries(&self, findings: &mut Vec<Finding>) {
        for e in self.entries.iter().filter(|e| !e.used) {
            findings.push(Finding::new(
                "taint-policy",
                &self.path,
                e.line,
                format!(
                    "policy {} entry matches nothing in the workspace; remove it or fix the pattern",
                    match e.kind {
                        EntryKind::Launder => "launder",
                        EntryKind::Sink => "sink",
                    }
                ),
            ));
        }
    }
}

impl Pattern {
    fn parse(s: &str) -> Option<Pattern> {
        if let Some(p) = s.strip_prefix("path:") {
            (!p.is_empty()).then(|| Pattern::PathPrefix(p.to_string()))
        } else if let Some(f) = s.strip_prefix("fn:") {
            match f.split_once('#') {
                Some((file, qual)) if !file.is_empty() && !qual.is_empty() => {
                    Some(Pattern::FileFn(file.to_string(), qual.to_string()))
                }
                Some(_) => None,
                None => (!f.is_empty()).then(|| Pattern::AnyFn(f.to_string())),
            }
        } else if let Some(c) = s.strip_prefix("call:") {
            (!c.is_empty()).then(|| Pattern::CallName(c.to_string()))
        } else {
            None
        }
    }

    /// Whether this pattern selects the function `(path, qual, name)`.
    pub fn matches_fn(&self, path: &str, qual: &str, name: &str) -> bool {
        match self {
            Pattern::PathPrefix(p) => path.starts_with(p.as_str()),
            Pattern::FileFn(f, q) => path == f && (qual == q || name == q),
            Pattern::AnyFn(q) => qual == q || name == q,
            Pattern::CallName(_) => false,
        }
    }

    /// Whether this pattern selects call sites with callee `name`.
    pub fn matches_call(&self, name: &str) -> bool {
        matches!(self, Pattern::CallName(c) if c == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_entry_and_pattern_kinds() {
        let src = "\
# header comment
launder path:crates/obs/ -- redacted downstream

launder fn:crates/engine/src/stages.rs#DefaultIngest::run -- span timing
launder fn:solve_subproblems -- fixed-order merge
launder call:seed_from_u64 -- seeded construction
sink fn:FaultPlan::save -- deterministic serialization
";
        let p = Policy::parse("dcc-lint.policy", src).expect("parses");
        assert_eq!(p.entries.len(), 5);
        assert_eq!(p.entries[0].kind, EntryKind::Launder);
        assert!(p.entries[0]
            .pattern
            .matches_fn("crates/obs/src/recorder.rs", "JsonRecorder::span", "span"));
        assert!(p.entries[1].pattern.matches_fn(
            "crates/engine/src/stages.rs",
            "DefaultIngest::run",
            "run"
        ));
        assert!(!p.entries[1].pattern.matches_fn(
            "crates/engine/src/engine.rs",
            "DefaultIngest::run",
            "run"
        ));
        assert!(p.entries[2].pattern.matches_fn(
            "crates/core/src/bip.rs",
            "solve_subproblems",
            "solve_subproblems"
        ));
        assert!(p.entries[3].pattern.matches_call("seed_from_u64"));
        assert_eq!(p.entries[4].kind, EntryKind::Sink);
    }

    #[test]
    fn malformed_entries_are_hard_errors() {
        for bad in [
            "launder path:crates/obs/",              // no reason
            "launder path:crates/obs/ -- ",          // empty reason
            "allow fn:x -- y",                        // unknown verb
            "launder glob:x -- y",                    // unknown pattern
            "sink path:crates/obs/ -- not a fn",      // path sink
            "launder fn:#q -- y",                     // empty file part
        ] {
            assert!(Policy::parse("p", bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn stale_entries_become_findings() {
        let mut p = Policy::parse("dcc-lint.policy", "launder fn:ghost -- gone\n").expect("parses");
        p.entries[0].used = false;
        let mut findings = Vec::new();
        p.stale_entries(&mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "taint-policy");
        assert_eq!(findings[0].line, 1);
    }
}
