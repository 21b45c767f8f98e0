//! Workspace-wide metrics registry with Prometheus text exposition.
//!
//! Every layer of the stack — the result cache, the adaptive sweeps, the
//! serve scheduler, the kernel phase profiler — publishes its telemetry
//! through this one registry so any two views of the same quantity are
//! reads of the *same atomic* and can never disagree. Three primitive
//! instruments:
//!
//! * [`Counter`] — a monotone `AtomicU64`.
//! * [`Gauge`] — a settable `AtomicI64` (depths, levels, 0/1 flags).
//! * [`Histo`] — the lock-free recorder of [`hbm_axi::Hist`], the
//!   workspace's one histogram: it fills the same buckets through
//!   [`hbm_axi::hist::bucket`], and [`Histo::snapshot`] returns a `Hist`.
//!
//! ## Cost contract
//!
//! The hot path is **lock-free**: recording is a handful of relaxed
//! atomic RMWs on a pre-registered handle; registration (the only
//! locking operation) happens once per series, at setup time. Nothing in
//! this module is called from the per-cycle simulation loop — kernel
//! telemetry is either derived from statistics the simulator already
//! keeps (recorded once per *measurement*, see `measure::measure`) or
//! produced by the separately-gated phase profiler (`crate::profile`).
//! When the registry is disabled ([`enabled`] is `false`, the default
//! outside the serve daemon), those per-measurement call sites skip
//! entirely, so a run with metrics off executes the exact same kernel
//! instructions as before this module existed. The telemetry ON≡OFF
//! byte-identity proptests (`tests/telemetry_equivalence.rs`) hold
//! either way because no instrument can feed back into the simulation.
//!
//! ## Exposition
//!
//! [`Registry::render`] produces Prometheus text exposition format
//! (version 0.0.4): `# HELP`/`# TYPE` headers, one sample line per
//! series, histograms as cumulative `_bucket{le="..."}` lines plus
//! `_sum`/`_count`. Families render in name order and series in label
//! order, so output is deterministic — pinned by the
//! `tests/metrics_golden.rs` golden file. The serve daemon exposes this
//! via the `metrics` wire verb and an optional standalone HTTP listener
//! (`repro serve --metrics-addr`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hbm_axi::hist::{bucket, HIST_BUCKETS};
use hbm_axi::Hist;

// ------------------------------------------------------------- global gate

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry call sites should record. Off by default, so
/// library users and one-shot runs pay nothing; the serve daemon and
/// `repro profile`'s observer pairs turn it on via [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off process-wide. Instrument
/// *handles* are unaffected — only gated call sites check this.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ------------------------------------------------------------ instruments

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A settable level.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// The lock-free recorder of a [`Hist`]: one atomic per field, filled
/// through the same [`bucket`] rule, so a [`snapshot`] is the `Hist` the
/// same samples would have recorded.
///
/// [`snapshot`]: Histo::snapshot
#[derive(Debug)]
pub struct Histo {
    n: AtomicU64,
    sum: AtomicU64,
    sum_sq: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histo {
    fn default() -> Histo {
        Histo {
            n: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sum_sq: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histo {
    /// Records one sample. Lock-free: relaxed RMWs, Σv² a saturating
    /// compare-and-swap.
    #[inline]
    pub fn record(&self, v: u64) {
        self.n.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let sq = v.saturating_mul(v);
        let _ = self
            .sum_sq
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(sq)));
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-value copy, for summaries and rendering. Not a cross-field
    /// atomic snapshot — concurrent `record`s may straddle it — but every
    /// field is individually consistent and monotone.
    pub fn snapshot(&self) -> Hist {
        let n = self.n.load(Ordering::Relaxed);
        Hist {
            n,
            sum: self.sum.load(Ordering::Relaxed),
            sum_sq: self.sum_sq.load(Ordering::Relaxed),
            min: if n == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| {
                u32::try_from(self.buckets[i].load(Ordering::Relaxed)).unwrap_or(u32::MAX)
            }),
        }
    }
}

// --------------------------------------------------------------- registry

/// Metric kinds, for the `# TYPE` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One registered series: a shared instrument handle, or a collector
/// closure evaluated at render time (for values another subsystem
/// already maintains — e.g. the result cache's own counters — so the
/// exposition reads the source of truth instead of a second copy).
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histo(Arc<Histo>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
}

struct Family {
    help: &'static str,
    kind: Kind,
    /// Label-set → series, ordered for deterministic rendering.
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// The metric registry. One process-wide instance ([`Registry::global`])
/// backs the whole workspace; fresh instances exist for tests.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses
    /// [`global`](Registry::global)).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry. First use installs the built-in
    /// collector series (result cache, adaptive sweeps, kernel phases) so
    /// an exposition is complete even before any activity.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let reg = Registry::new();
            install_builtin(&reg);
            reg
        })
    }

    fn family(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        f: impl FnOnce(&mut Family),
    ) {
        let mut fams = self.families.lock().unwrap();
        let fam =
            fams.entry(name).or_insert_with(|| Family { help, kind, series: BTreeMap::new() });
        assert!(fam.kind == kind, "metric `{name}` registered twice with different kinds");
        f(fam);
    }

    /// Registers (or retrieves) the counter `name{labels}`. Idempotent:
    /// the same name and label set always returns the same handle.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let key = label_key(labels);
        let mut out = None;
        self.family(name, help, Kind::Counter, |fam| {
            let s = fam
                .series
                .entry(key)
                .or_insert_with(|| Series::Counter(Arc::new(Counter::default())));
            if let Series::Counter(c) = s {
                out = Some(c.clone());
            }
        });
        out.unwrap_or_else(|| panic!("metric `{name}` is not a counter"))
    }

    /// Registers a *fresh* counter under `name{labels}`, replacing any
    /// existing series. Used by per-instance owners (the serve
    /// scheduler): the newest instance's handles are what the exposition
    /// reads, so `stats` and `metrics` stay views of one atomic.
    pub fn counter_owned(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        let key = label_key(labels);
        let handle = c.clone();
        self.family(name, help, Kind::Counter, move |fam| {
            fam.series.insert(key, Series::Counter(handle));
        });
        c
    }

    /// Registers (or retrieves) the gauge `name{labels}`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let key = label_key(labels);
        let mut out = None;
        self.family(name, help, Kind::Gauge, |fam| {
            let s =
                fam.series.entry(key).or_insert_with(|| Series::Gauge(Arc::new(Gauge::default())));
            if let Series::Gauge(g) = s {
                out = Some(g.clone());
            }
        });
        out.unwrap_or_else(|| panic!("metric `{name}` is not a gauge"))
    }

    /// Registers (or retrieves) the histogram `name{labels}`.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histo> {
        let key = label_key(labels);
        let mut out = None;
        self.family(name, help, Kind::Histogram, |fam| {
            let s =
                fam.series.entry(key).or_insert_with(|| Series::Histo(Arc::new(Histo::default())));
            if let Series::Histo(h) = s {
                out = Some(h.clone());
            }
        });
        out.unwrap_or_else(|| panic!("metric `{name}` is not a histogram"))
    }

    /// Registers a *fresh* histogram, replacing any existing series (see
    /// [`counter_owned`](Registry::counter_owned)).
    pub fn histogram_owned(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histo> {
        let h = Arc::new(Histo::default());
        let key = label_key(labels);
        let handle = h.clone();
        self.family(name, help, Kind::Histogram, move |fam| {
            fam.series.insert(key, Series::Histo(handle));
        });
        h
    }

    /// Registers a counter whose value is computed at render time,
    /// replacing any existing series under the same labels.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let key = label_key(labels);
        self.family(name, help, Kind::Counter, move |fam| {
            fam.series.insert(key, Series::CounterFn(Box::new(f)));
        });
    }

    /// Registers a gauge whose value is computed at render time,
    /// replacing any existing series under the same labels.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        let key = label_key(labels);
        self.family(name, help, Kind::Gauge, move |fam| {
            fam.series.insert(key, Series::GaugeFn(Box::new(f)));
        });
    }

    /// Renders the whole registry as Prometheus text exposition format.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(fam.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(fam.kind.as_str());
            out.push('\n');
            for (labels, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => sample(&mut out, name, "", labels, &[], c.get()),
                    Series::CounterFn(f) => sample(&mut out, name, "", labels, &[], f()),
                    Series::Gauge(g) => {
                        sample_i(&mut out, name, labels, g.get());
                    }
                    Series::GaugeFn(f) => {
                        sample_i(&mut out, name, labels, f());
                    }
                    Series::Histo(h) => render_hist(&mut out, name, labels, &h.snapshot()),
                }
            }
        }
        out
    }
}

/// Appends one `name_suffix{labels,extra} value` sample line.
fn sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: u64,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn sample_i(out: &mut String, name: &str, labels: &[(String, String)], value: i64) {
    if value >= 0 {
        sample(out, name, "", labels, &[], value as u64);
    } else {
        // Rare (gauges are depths); format negatives directly.
        out.push_str(name);
        if !labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(v);
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
}

/// Renders one histogram in Prometheus cumulative-bucket form. Bucket
/// `i ≥ 1` holds values up to `2^i − 1`, its `le` edge. Lines run from
/// `le="1"` to the highest non-empty finite bucket: bucket 0 has no line
/// of its own, its zeros count in every line, and the open top bucket
/// counts only in `+Inf`.
fn render_hist(out: &mut String, name: &str, labels: &[(String, String)], h: &Hist) {
    let end =
        h.buckets[..HIST_BUCKETS - 1].iter().rposition(|&c| c > 0).map_or(1, |i| (i + 1).max(2));
    let mut cum = u64::from(h.buckets[0]);
    for (i, &c) in h.buckets.iter().enumerate().take(end).skip(1) {
        cum += u64::from(c);
        sample(out, name, "_bucket", labels, &[("le", &((1u64 << i) - 1).to_string())], cum);
    }
    sample(out, name, "_bucket", labels, &[("le", "+Inf")], h.n);
    sample(out, name, "_sum", labels, &[], h.sum);
    sample(out, name, "_count", labels, &[], h.n);
}

// ------------------------------------------------------------- built-ins

/// Installs the collector-backed series every process exposes: the
/// result cache (reading [`crate::cache::ResultCache::global`]'s own
/// atomics — the exposition and the `cache` verb can never disagree),
/// the adaptive-sweep and run-occupancy series, and the kernel phase
/// counters (zero until a profiled run publishes).
fn install_builtin(reg: &Registry) {
    reg.counter_fn(
        "hbm_cache_hits_total",
        "Result-cache lookups answered from memory",
        &[],
        || crate::cache::ResultCache::global().snapshot().hits,
    );
    reg.counter_fn(
        "hbm_cache_misses_total",
        "Result-cache lookups that led a computation",
        &[],
        || crate::cache::ResultCache::global().snapshot().misses,
    );
    reg.counter_fn(
        "hbm_cache_coalesced_total",
        "Result-cache lookups coalesced onto an in-flight computation",
        &[],
        || crate::cache::ResultCache::global().snapshot().coalesced,
    );
    reg.counter_fn("hbm_cache_inserts_total", "Result-cache entries inserted", &[], || {
        crate::cache::ResultCache::global().snapshot().inserts
    });
    reg.counter_fn(
        "hbm_cache_evictions_total",
        "Result-cache entries evicted by the LRU bound",
        &[],
        || crate::cache::ResultCache::global().snapshot().evictions,
    );
    reg.gauge_fn("hbm_cache_entries", "Live result-cache memory-tier entries", &[], || {
        crate::cache::ResultCache::global().snapshot().entries as i64
    });
    reg.gauge_fn("hbm_cache_enabled", "Whether the result cache is active (0/1)", &[], || {
        i64::from(crate::cache::ResultCache::global().is_enabled())
    });
    crate::profile::install_phase_series(reg);
    crate::batch::install_adaptive_series(reg);
    crate::measure::install_run_series(reg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "help", &[("k", "a")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent registration returns the same handle.
        let c2 = reg.counter("t_total", "help", &[("k", "a")]);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("t_depth", "help", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    proptest! {
        /// (c) A registry histogram fed the same samples as a `Hist`
        /// snapshots to that `Hist`, zeros, the open top bucket and a
        /// saturated Σv² included.
        #[test]
        fn histo_snapshot_equals_the_hist(
            v in prop::collection::vec(
                (0u32..50, any::<u64>()).prop_map(|(bits, r)| r.checked_shr(64 - bits).unwrap_or(0)),
                0..64,
            ),
        ) {
            let h = Histo::default();
            let mut reference = Hist::default();
            for &x in &v {
                h.record(x);
                reference.record(x);
            }
            prop_assert_eq!(h.snapshot(), reference);
        }
    }

    /// The open top bucket renders only in `+Inf`: no finite `le` line
    /// is ever exceeded by the values it counts.
    #[test]
    fn the_open_top_bucket_renders_only_as_inf() {
        let reg = Registry::new();
        let h = reg.histogram("t_us", "help", &[]);
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1 << 50);
        }
        let text = reg.render();
        let finite: Vec<&str> =
            text.lines().filter(|l| l.contains("le=") && !l.contains("+Inf")).collect();
        assert_eq!(finite.last(), Some(&"t_us_bucket{le=\"127\"} 90"), "{text}");
        assert!(text.contains("t_us_bucket{le=\"+Inf\"} 100"));
        // Zeros have no line of their own; they count from `le="1"` on.
        let zeros = Registry::new();
        zeros.histogram("z_pct", "help", &[]).record(0);
        assert!(zeros.render().contains("z_pct_bucket{le=\"1\"} 1\nz_pct_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn render_is_deterministic_and_well_formed() {
        let reg = Registry::new();
        reg.counter("b_total", "second", &[]).add(2);
        reg.counter("a_total", "first", &[("x", "1")]).inc();
        reg.gauge("a_depth", "depth", &[]).set(3);
        reg.histogram("a_us", "hist", &[]).record(5);
        let one = reg.render();
        let two = reg.render();
        assert_eq!(one, two);
        // Families in name order; histogram has +Inf, sum, count.
        let a_depth = one.find("a_depth").unwrap();
        let b_total = one.find("b_total").unwrap();
        assert!(a_depth < b_total);
        assert!(one.contains("a_us_bucket{le=\"+Inf\"} 1"));
        assert!(one.contains("a_us_sum 5"));
        assert!(one.contains("a_us_count 1"));
        assert!(one.contains("a_total{x=\"1\"} 1"));
    }

    #[test]
    fn owned_registration_replaces() {
        let reg = Registry::new();
        let first = reg.counter_owned("o_total", "help", &[]);
        first.add(10);
        let second = reg.counter_owned("o_total", "help", &[]);
        second.add(1);
        assert!(reg.render().contains("o_total 1"));
    }

    #[test]
    fn collector_reads_at_render_time() {
        let reg = Registry::new();
        let v = Arc::new(AtomicU64::new(0));
        let v2 = v.clone();
        reg.counter_fn("c_total", "help", &[], move || v2.load(Ordering::Relaxed));
        assert!(reg.render().contains("c_total 0"));
        v.store(9, Ordering::Relaxed);
        assert!(reg.render().contains("c_total 9"));
    }
}
