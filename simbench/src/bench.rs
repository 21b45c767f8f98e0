//! Types and helpers shared by every workload: options, metrics, checks,
//! statistics, seeded randomness, and reading `Measurement` counters by
//! field name.

use std::path::PathBuf;
use std::time::Instant;

use hbm_core::batch::GridPoint;
use hbm_core::experiment::Fidelity;
use hbm_core::Measurement;
use serde_json::Value;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, one set-up, for the smoke test.
    pub smoke: bool,
}

impl Opts {
    /// How many times set-up is repeated; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    /// Adds `value` when present: counters read from JSON may be absent.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|m| m.name == name)
    }

    /// Appends every metric of `other` whose name is not present yet.
    pub fn fill_from(&mut self, other: Metrics) {
        for m in other.0 {
            if !self.has(&m.name) {
                self.0.push(m);
            }
        }
    }
}

/// One correctness check; a failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.into(), ok, detail: detail.into() }
    }
}

/// The timed part of a run.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Grid points or served rows attempted.
    pub ops: u64,
    /// Operations that failed: not `Done`, or not byte-identical.
    pub failed: u64,
    /// Points over `busy_s` is the reported throughput.
    pub points: u64,
    pub busy_s: f64,
    /// Job latencies in ms: one per job, or for repeated jobs one median
    /// per job.
    pub job_ms: Vec<f64>,
    /// Closed loop: longest gap between one job's end and the next job's
    /// start. Open loop: how late the generator sent its latest job.
    pub max_gap_ms: f64,
}

impl Window {
    pub fn points_per_s(&self) -> f64 {
        self.points as f64 / self.busy_s.max(1e-9)
    }

    pub fn job_p(&self, q: f64) -> f64 {
        quantile(&self.job_ms, q)
    }
}

/// What the layer probes need from a workload: the grids it submits, the
/// points it answered with their rows, and cycle-accurate rows to score
/// the analytical model against.
pub struct Sample {
    pub fidelity: Fidelity,
    pub grids: Vec<Vec<GridPoint>>,
    pub rows: Vec<(GridPoint, Measurement)>,
    pub truth: Vec<(GridPoint, Measurement)>,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub setup_s: f64,
    /// The untraced window; end-to-end metrics come from it.
    pub plain: Window,
    /// The traced window (trace runs only).
    pub traced: Option<Window>,
    pub checks: Vec<Check>,
    /// Per-layer metrics the workload measured itself.
    pub layers: Metrics,
    /// Printed for the reader, not part of the result line.
    pub info: Metrics,
    pub sample: Sample,
    pub peak_rss_mb: f64,
}

/// Runs `setup` `n` times and returns the last state with the median
/// set-up time. Each earlier state is dropped before the next set-up, so
/// servers and directories from it are gone.
pub fn repeat_setup<S>(n: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..n.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up ran"), quantile(&times, 0.5))
}

/// Linear-interpolated quantile, `q` in `[0, 1]`; NaN for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Deterministic generator for benchmark inputs (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct indices of `0..len`, in ascending order.
    pub fn pick(&mut self, len: usize, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..len).collect();
        self.shuffle(&mut idx);
        idx.truncate(n.min(len));
        idx.sort_unstable();
        idx
    }
}

/// Serialised row: byte identity is judged on this string.
pub fn row_json(m: &Measurement) -> String {
    serde_json::to_string(m).expect("a measurement serialises")
}

/// A number at `path` inside a JSON value, whatever its numeric type.
pub fn num_at(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    match cur {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Peak resident set size of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where runs write traces and scratch cache directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty scratch directory under [`out_dir`], unique to this
/// process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
