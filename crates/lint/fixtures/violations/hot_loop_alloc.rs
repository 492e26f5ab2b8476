//! hot-loop-alloc fixture: a per-subproblem allocation in a solve
//! kernel. The rule is scoped to the subproblem solve kernel's file,
//! so the test lints this source under
//! `crates/core/src/bip.rs`.

fn members_of(xs: &[u64]) -> Vec<u64> {
    xs.to_vec()
}
