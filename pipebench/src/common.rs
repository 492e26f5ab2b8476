//! Pieces every workload shares: the result record, order statistics,
//! the scratch directory, and set-up/pass timing.

use dcc_core::DesignPrep;
use dcc_trace::SyntheticConfig;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
// dcc-lint: allow(wall-clock, reason = "a benchmark measures wall time; readings are only reported")
use std::time::Instant;

/// Error type of the benchmark: a message for the operator.
pub type BenchError = String;

/// Converts any displayable error into a [`BenchError`] naming `what`.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| format!("{what}: {e}")
}

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: subproblems, events, scenarios, restores
    /// and output checks, as each workload defines them.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in the order they are printed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one output check; a failed one also leaves a note.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The worker pool used everywhere: one thread per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's §V workload with every population multiplied by `scale`.
pub fn paper_times(scale: usize, seed: u64) -> SyntheticConfig {
    let mut config = SyntheticConfig::paper_scale(seed);
    config.n_honest *= scale;
    config.n_ncm *= scale;
    config.n_cm_target *= scale;
    config.n_products *= scale;
    config
}

/// Number of distinct (ω, ψ, Δ) subproblem keys: the solve work a
/// per-key candidate table would leave.
pub fn distinct_keys(prep: &DesignPrep) -> usize {
    prep.subproblems
        .iter()
        .map(|s| {
            (
                s.omega.to_bits(),
                s.psi.r2().to_bits(),
                s.psi.r1().to_bits(),
                s.psi.r0().to_bits(),
                s.disc.intervals(),
                s.disc.delta().to_bits(),
            )
        })
        .collect::<BTreeSet<_>>()
        .len()
}

/// Median of `values` (midpoint of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Maximum of `values`; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// A running wall-clock timer: the benchmark's only clock. Its readings
/// are reported and never fed back into the program.
#[derive(Debug, Clone, Copy)]
// dcc-lint: allow(wall-clock, reason = "a benchmark measures wall time; readings are only reported")
pub struct Timer(Instant);

impl Timer {
    /// Starts a timer.
    pub fn started() -> Self {
        // dcc-lint: allow(wall-clock, reason = "a benchmark measures wall time; readings are only reported")
        Timer(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Milliseconds since the start.
    pub fn ms(self) -> f64 {
        self.secs() * 1e3
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(ctx("/proc/self/status"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Set-up runs at least this many times in one invocation…
pub const SETUP_MIN_REPEATS: usize = 5;

/// …and repeats while less than this many seconds have elapsed, up to
/// [`SETUP_MAX_REPEATS`]: a set-up takes milliseconds to a few hundred
/// milliseconds, so one sample is too noisy to compare across runs.
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// Upper bound on set-up repetitions.
pub const SETUP_MAX_REPEATS: usize = 200;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPEATS`]) and returns the
/// last result with the median wall time of one set-up in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, BenchError>,
) -> Result<(T, f64), BenchError> {
    let first = Timer::started();
    let mut times = Vec::new();
    loop {
        let timer = Timer::started();
        let value = setup()?;
        times.push(timer.secs());
        let enough = times.len() >= SETUP_MIN_REPEATS && first.secs() >= SETUP_MIN_SECONDS;
        if enough || times.len() >= SETUP_MAX_REPEATS {
            return Ok((value, median(&times)));
        }
    }
}

/// What [`repeat_passes`] measured.
#[derive(Debug)]
pub struct Passes<T> {
    /// One result per pass, in order.
    pub results: Vec<T>,
    /// Peak resident set in MiB once the first pass has ended. Later
    /// passes reuse that memory, and how many of them fit in a run
    /// varies with the box's speed, so the peak is taken here.
    pub peak_rss_mib: f64,
}

/// Runs `pass` once, then again while one more pass of the median
/// length so far would still end within `seconds` of the start.
/// Stopping before the budget rather than after it keeps a run's wall
/// time near `seconds` whatever one pass takes.
/// No pass is dropped as a warm-up: the first pass in a process grows
/// the heap and runs up to 15% slower, which one-shot users pay too, and
/// from three passes on the median leaves it out anyway.
pub fn repeat_passes<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<T, BenchError>,
) -> Result<Passes<T>, BenchError> {
    let start = Timer::started();
    let mut results = Vec::new();
    let mut lengths = Vec::new();
    let mut peak = 0.0;
    loop {
        let timer = Timer::started();
        results.push(pass()?);
        lengths.push(timer.secs());
        if results.len() == 1 {
            peak = peak_rss_mib()?;
        }
        if start.secs() + median(&lengths) > seconds {
            return Ok(Passes {
                results,
                peak_rss_mib: peak,
            });
        }
    }
}

/// `values` in seconds, for a human-readable line.
pub fn list_secs(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}] s", items.join(", "))
}

/// `(traced − untraced) / untraced` in percent.
pub fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s * 100.0
}

/// A scratch directory inside the current directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.pipebench-work/<label>-<pid>` under the current
    /// directory.
    pub fn new(label: &str) -> Result<Self, BenchError> {
        let path = Path::new(".pipebench-work").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(ctx("create work dir"))?;
        Ok(WorkDir { path })
    }

    /// A file name inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent in place when another run still uses it.
        let _ = std::fs::remove_dir(".pipebench-work");
    }
}

/// Writes `events` as JSON lines, the input format of `dcc serve
/// --events`.
pub fn write_event_lines(path: &Path, events: &[dcc_serve::ServeEvent]) -> Result<(), BenchError> {
    let mut text = String::with_capacity(events.len() * 96);
    for event in events {
        text.push_str(&event.to_line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(ctx("write event lines"))
}
