//! The content-addressed stage memo: cross-scenario (and cross-run)
//! reuse of the Detect, Fit, and Solve/Construct stage outputs.
//!
//! Keys are FNV-1a 64 fingerprints:
//!
//! - a **trace fingerprint** covers every field of every product,
//!   reviewer, review, and campaign in the dataset, so two traces share
//!   detection results only if they are content-identical;
//! - a **pipeline fingerprint** covers the full `PipelineConfig`
//!   (via its `Debug` form — the config is a flat `Copy` struct, so the
//!   form is total);
//! - a **fit fingerprint** covers exactly
//!   [`dcc_core::DesignConfig::fit_key`] (ω, intervals, effort
//!   quantile, per-worker fit threshold) — the same key the engine's
//!   fit-stage invalidation uses, and deliberately *not* μ, which only
//!   the solve stage consumes;
//! - a **solve fingerprint** covers the full `DesignConfig` including
//!   μ and the failure policy (the pool size lives outside it and is
//!   bit-identity-neutral by the solver's own contract) — so a grid
//!   that varies only the budget fraction or the strategy solves each
//!   distinct design exactly once, and a warm rerun solves nothing.
//!
//! Every stage — trace, detect, fit, solve — is one [`MemoTable`];
//! within a run, [`RunSlots`] puts one in-flight [`Slot`] per distinct
//! key in front of a table: it seeds the slot from the memo, derives
//! each scenario's serial-schedule cache flag, and publishes computed
//! values back. Memoized values are stored behind `Arc`, so cache hits
//! clone a pointer, not a detection result. The memo never evicts: a
//! batch sweep touches a handful of (trace, config) pairs, and the
//! caller controls lifetime by dropping the [`StageMemo`].

use crate::supervisor::Slot;
use dcc_core::{ContractDesign, DesignConfig, DesignPrep};
use dcc_detect::{DetectionResult, PipelineConfig};
use dcc_trace::TraceDataset;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Hit/miss counts for one memoized stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo (or from a lower-id scenario in
    /// the same run).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
}

impl CacheStats {
    /// Records `hit` into the appropriate counter.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Per-stage cache statistics for one batch run.
///
/// Trace stats count distinct trace *specs* resolved; detect and fit
/// stats count *scenarios* (hits + misses = scenario count), mirroring
/// what a serial engine sweep would recompute per scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Trace materialization (synthetic generation / CSV ingest).
    pub trace: CacheStats,
    /// Detection-pipeline runs.
    pub detect: CacheStats,
    /// Effort-fit / subproblem-decomposition runs.
    pub fit: CacheStats,
    /// Subproblem-solve + contract-construction runs (per distinct
    /// design configuration, μ included).
    pub solve: CacheStats,
}

/// Key of a memoized detection result: (trace, pipeline) fingerprints.
pub(crate) type DetectKey = (u64, u64);
/// Key of a memoized fit: (trace, pipeline, fit-config) fingerprints.
pub(crate) type FitKey = (u64, u64, u64);
/// Key of a memoized solved design: (trace, pipeline, fit-config,
/// solve-config) fingerprints.
pub(crate) type SolveKey = (u64, u64, u64, u64);

/// One memoized stage: key → value under its own lock.
#[derive(Debug)]
pub(crate) struct MemoTable<K, V> {
    map: Mutex<BTreeMap<K, V>>,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable { map: Mutex::new(BTreeMap::new()) }
    }
}

impl<K: Ord + Clone, V: Clone> MemoTable<K, V> {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    pub(crate) fn insert(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// One memoized stage within a run: each scenario's key and cache flag,
/// and one in-flight [`Slot`] per distinct key, seeded from the memo.
pub(crate) struct RunSlots<'m, K, V> {
    table: &'m MemoTable<K, V>,
    slots: BTreeMap<K, Slot<V>>,
    /// Per scenario index: its key and whether the serial schedule
    /// reuses it; `None` for a scenario never claimed.
    scenarios: Vec<Option<(K, bool)>>,
}

impl<'m, K: Ord + Clone, V: Clone> RunSlots<'m, K, V> {
    pub(crate) fn new(table: &'m MemoTable<K, V>, scenarios: usize) -> Self {
        RunSlots { table, slots: BTreeMap::new(), scenarios: vec![None; scenarios] }
    }

    /// Registers scenario `i`'s key and returns its cache flag. Claims
    /// must come in scenario order: a scenario is cached when the memo
    /// already held the key or a lower-id scenario claimed it.
    pub(crate) fn claim(&mut self, i: usize, key: K) -> bool {
        let cached = match self.slots.entry(key.clone()) {
            Entry::Occupied(_) => true,
            Entry::Vacant(vacant) => {
                let seeded = self.table.get(vacant.key());
                let cached = seeded.is_some();
                vacant.insert(seeded.map_or_else(Slot::new, Slot::seeded));
                cached
            }
        };
        if let Some(entry) = self.scenarios.get_mut(i) {
            *entry = Some((key, cached));
        }
        cached
    }

    /// Scenario `i`'s cache flag (`false` if never claimed).
    pub(crate) fn cached(&self, i: usize) -> bool {
        matches!(self.scenarios.get(i), Some(Some((_, true))))
    }

    /// The slot scenario `i` computes or reads its value through.
    pub(crate) fn slot(&self, i: usize) -> Option<&Slot<V>> {
        let (key, _) = self.scenarios.get(i)?.as_ref()?;
        self.slots.get(key)
    }

    /// Publishes every computed value the memo does not hold yet, so a
    /// later run (or a shared runner) starts warm. Only `Ready` slots
    /// publish — a slot whose computation panicked is `Empty` again, so
    /// a poisoned scenario can never reach the memo.
    pub(crate) fn publish(&self) {
        let mut map = self.table.lock();
        for (key, slot) in &self.slots {
            if let Some(value) = slot.peek() {
                map.entry(key.clone()).or_insert(value);
            }
        }
    }
}

/// Shared, thread-safe memo for the trace, Detect, Fit, and Solve stage
/// outputs.
///
/// Clone the surrounding `Arc<StageMemo>` into several
/// [`crate::BatchRunner`]s to share warm caches across runs; a fresh
/// memo reproduces cold-start behavior.
#[derive(Debug, Default)]
pub struct StageMemo {
    /// Source key → materialized trace + its content fingerprint.
    pub(crate) traces: MemoTable<String, (Arc<TraceDataset>, u64)>,
    pub(crate) detect: MemoTable<DetectKey, Arc<DetectionResult>>,
    /// Fit outcomes are memoized *including* deterministic failures, so
    /// a warm rerun replays the same error without re-fitting.
    pub(crate) fit: MemoTable<FitKey, Result<Arc<DesignPrep>, String>>,
    /// Solved designs, memoized including deterministic failures for
    /// the same reason as fits.
    pub(crate) solve: MemoTable<SolveKey, Result<Arc<ContractDesign>, String>>,
}

impl StageMemo {
    /// An empty (cold) memo.
    pub fn new() -> Self {
        StageMemo::default()
    }

    /// Number of memoized (trace, detection, fit, solve) entries.
    pub fn len(&self) -> (usize, usize, usize, usize) {
        (self.traces.len(), self.detect.len(), self.fit.len(), self.solve.len())
    }

    /// `true` when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        let (t, d, f, s) = self.len();
        t == 0 && d == 0 && f == 0 && s == 0
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, deterministic across runs
/// and platforms (unlike `DefaultHasher`, whose seed is randomized).
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    pub(crate) fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    pub(crate) fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Content fingerprint of a trace: every field of every product,
/// reviewer, review, and campaign, plus section lengths (so e.g. an
/// empty-reviews trace cannot collide with an empty-products one).
pub(crate) fn trace_fingerprint(trace: &TraceDataset) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(trace.products().len());
    for p in trace.products() {
        h.write_usize(p.id.0);
        h.write_f64(p.true_quality);
    }
    h.write_usize(trace.reviewers().len());
    for r in trace.reviewers() {
        h.write_usize(r.id.0);
        h.write_bytes(r.class.code().as_bytes());
        match r.campaign {
            Some(c) => {
                h.write_u64(1);
                h.write_usize(c);
            }
            None => h.write_u64(0),
        }
        h.write_u64(u64::from(r.is_expert));
    }
    h.write_usize(trace.reviews().len());
    for r in trace.reviews() {
        h.write_usize(r.reviewer.0);
        h.write_usize(r.product.0);
        h.write_usize(r.round);
        h.write_f64(r.stars);
        h.write_usize(r.length_chars);
        h.write_f64(r.upvotes);
    }
    h.write_usize(trace.campaigns().len());
    for c in trace.campaigns() {
        h.write_usize(c.id);
        h.write_usize(c.members.len());
        for m in &c.members {
            h.write_usize(m.0);
        }
        h.write_usize(c.targets.len());
        for t in &c.targets {
            h.write_usize(t.0);
        }
    }
    h.finish()
}

/// Fingerprint of the detection-pipeline configuration.
///
/// `PipelineConfig` is a flat `Copy` struct of enums and floats, so its
/// `Debug` form is a total, deterministic encoding.
pub(crate) fn pipeline_fingerprint(pipeline: &PipelineConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{pipeline:?}").as_bytes());
    h.finish()
}

/// Fingerprint of [`DesignConfig::fit_key`], the fields the fit stage
/// depends on. μ and the failure policy are deliberately excluded; they
/// only affect the solve stage.
pub(crate) fn fit_fingerprint(design: &DesignConfig) -> u64 {
    let (omega, intervals, effort_quantile, per_worker_fit_min_reviews) = design.fit_key();
    let mut h = Fnv::new();
    h.write_u64(omega);
    h.write_usize(intervals);
    h.write_u64(effort_quantile);
    match per_worker_fit_min_reviews {
        Some(n) => {
            h.write_u64(1);
            h.write_usize(n);
        }
        None => h.write_u64(0),
    }
    h.finish()
}

/// Fingerprint of the solve-relevant design fields: the whole
/// `DesignConfig` (a flat `Copy` struct, so its `Debug` form is total).
/// μ and the failure policy *are* covered: they change the solved
/// contracts.
pub(crate) fn solve_fingerprint(design: &DesignConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(format!("{design:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

    use super::*;
    use dcc_trace::SyntheticConfig;

    fn tiny(seed: u64) -> TraceDataset {
        let mut cfg = SyntheticConfig::small(seed);
        cfg.n_honest = 10;
        cfg.n_ncm = 3;
        cfg.n_cm_target = 4;
        cfg.n_products = 60;
        cfg.n_rounds = 2;
        cfg.generate()
    }

    #[test]
    fn trace_fingerprint_is_content_addressed() {
        let a = tiny(1);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&tiny(1)));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&tiny(2)));
    }

    #[test]
    fn fit_fingerprint_ignores_mu_and_policy() {
        let base = dcc_core::DesignConfig::default();
        let mut mu = base;
        mu.params.mu = 0.25;
        let mut policy = base;
        policy.failure_policy = dcc_core::FailurePolicy::Skip;
        assert_eq!(fit_fingerprint(&base), fit_fingerprint(&mu));
        assert_eq!(fit_fingerprint(&base), fit_fingerprint(&policy));
        let mut intervals = base;
        intervals.intervals += 1;
        assert_ne!(fit_fingerprint(&base), fit_fingerprint(&intervals));
    }

    #[test]
    fn solve_fingerprint_tracks_mu_and_policy() {
        let base = dcc_core::DesignConfig::default();
        let mut mu = base;
        mu.params.mu = 0.25;
        assert_ne!(solve_fingerprint(&base), solve_fingerprint(&mu));
        let mut policy = base;
        policy.failure_policy = dcc_core::FailurePolicy::Skip;
        assert_ne!(solve_fingerprint(&base), solve_fingerprint(&policy));
    }

    #[test]
    fn fingerprints_of_the_default_config_are_pinned() {
        // A `dcc-batch-ckpt/1` file hashes these values into its grid
        // fingerprint, so changing them refuses every existing file.
        let base = dcc_core::DesignConfig::default();
        assert_eq!(fit_fingerprint(&base), 0x65059f9ba25a17b3);
        assert_eq!(solve_fingerprint(&base), 0x238b1b8f2e5d9847);
        let mut per_worker = base;
        per_worker.per_worker_fit_min_reviews = Some(3);
        assert_eq!(fit_fingerprint(&per_worker), 0x2aecc480f88f69b1);
    }

    #[test]
    fn memo_roundtrips_entries() {
        let memo = StageMemo::new();
        assert!(memo.is_empty());
        let trace = Arc::new(tiny(1));
        let fp = trace_fingerprint(&trace);
        memo.traces.insert("synthetic:x".to_string(), (Arc::clone(&trace), fp));
        let (got, got_fp) = memo.traces.get(&"synthetic:x".to_string()).expect("trace entry");
        assert_eq!(got_fp, fp);
        assert_eq!(got.reviews().len(), trace.reviews().len());
        assert_eq!(memo.len(), (1, 0, 0, 0));
    }
}
