//! Parallel execution of measurement grids.
//!
//! Parameter sweeps (Fig. 3's 4 patterns × 5 burst lengths × 3 mixes,
//! Fig. 4's rotations) are embarrassingly parallel: every run is
//! an independent deterministic simulation. [`par_map`] fans any such
//! work-list out over OS threads with `std::thread::scope` — no extra
//! dependencies — while preserving result order; [`run_grid`] is its
//! measurement-grid specialisation. The process-wide worker budget is
//! settable once (e.g. from a `--jobs` flag) via [`set_sweep_jobs`] and
//! consulted everywhere through [`sweep_jobs`].
//!
//! Worker panics are contained: [`try_par_map`] catches the unwind of
//! each item and returns a per-item `Result`, so one poisoned grid point
//! cannot abort a thousand-point sweep (the serving layer surfaces such
//! rows as `Failed`). [`par_map`] keeps its infallible signature by
//! completing every healthy item first and only then re-raising the
//! first captured panic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hbm_traffic::Workload;

use crate::cache::ResultCache;
use crate::experiment::Fidelity;
use crate::measure::Measurement;
use crate::metrics::{self, Counter, Registry};
use crate::system::SystemConfig;

/// One grid point: a system configuration and a workload.
pub type GridPoint = (SystemConfig, Workload);

/// Process-wide sweep worker budget; 0 means "not set explicitly".
static SWEEP_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide sweep worker budget (e.g. from `--jobs N`).
/// `0` clears the override, falling back to `HBM_JOBS` / core count.
pub fn set_sweep_jobs(jobs: usize) {
    SWEEP_JOBS.store(jobs, Ordering::Relaxed);
}

/// Parses a worker-thread count from a `--jobs` flag or the `HBM_JOBS`
/// environment variable. Rejects everything that is not a positive
/// integer — including `0`, which used to be silently reinterpreted as
/// "use the default" and is exactly the kind of typo (`--jobs 0` for
/// `--jobs 10`) that should fail loudly.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err(format!("invalid jobs value {s:?}: must be a positive integer")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("invalid jobs value {s:?}: must be a positive integer")),
    }
}

/// The sweep worker budget: an explicit [`set_sweep_jobs`] value if one
/// was given, else the `HBM_JOBS` environment variable, else every
/// available core. Always at least 1.
///
/// An `HBM_JOBS` value that is present but not a positive integer is a
/// configuration error, not a hint: the process exits non-zero with a
/// usage message rather than silently running on a fallback thread
/// count (which made typos like `HBM_JOBS=al1` invisible).
pub fn sweep_jobs() -> usize {
    let set = SWEEP_JOBS.load(Ordering::Relaxed);
    if set >= 1 {
        return set;
    }
    if let Ok(v) = std::env::var("HBM_JOBS") {
        match parse_jobs(&v) {
            Ok(n) => return n,
            Err(e) => {
                eprintln!("HBM_JOBS: {e}\nusage: HBM_JOBS=<positive integer> (worker threads for sweep farming)");
                std::process::exit(2);
            }
        }
    }
    default_threads()
}

/// Order-preserving parallel map: applies `f` to every item on up to
/// `jobs` OS threads and returns results in input order. `jobs == 1`
/// (or a single item) degenerates to a plain sequential loop with no
/// thread-spawn overhead. Workers claim indices from a shared counter,
/// so an expensive item never serialises the cheap ones behind it.
///
/// A panicking item does not abort the sweep: every other item still
/// completes, and the first captured panic is re-raised afterwards.
/// Callers that want per-item outcomes instead use [`try_par_map`].
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut first_panic = None;
    let results: Vec<Option<R>> = try_par_map(items, jobs, &f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => Some(v),
            Err(p) => {
                first_panic.get_or_insert(p);
                None
            }
        })
        .collect();
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    results.into_iter().map(|r| r.expect("no panic was recorded")).collect()
}

/// The payload of a caught worker panic.
pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Renders a caught panic payload as the human-readable message most
/// panics carry (`&str` or `String`), falling back to a fixed tag.
pub fn panic_message(p: &PanicPayload) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// [`par_map`] with per-item panic containment: each item's unwind is
/// caught and returned as `Err(payload)` in that item's slot, while the
/// remaining items keep running to completion on their workers.
pub fn try_par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, PanicPayload>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(jobs >= 1);
    let guarded = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
    if jobs == 1 || items.len() <= 1 {
        return items.iter().map(guarded).collect();
    }
    let mut results: Vec<Option<Result<R, PanicPayload>>> =
        (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    // Results are deposited through the mutex (coarse, but each work
    // item dwarfs the lock).
    let slots = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = guarded(&items[i]);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results.into_iter().map(|r| r.expect("every item was claimed by a worker")).collect()
}

/// Measures every grid point, using up to `threads` OS threads, and
/// returns results in input order. Consults the process-wide
/// [`ResultCache::global`] — disabled by default, so this is a plain
/// re-simulation unless `--cache-dir`/`HBM_CACHE_DIR` turned caching on.
pub fn run_grid(
    points: &[GridPoint],
    warmup: u64,
    cycles: u64,
    threads: usize,
) -> Vec<Measurement> {
    grid(points, Fidelity::cycle(warmup, cycles), threads, ResultCache::global())
}

/// [`run_grid`] against an explicit cache: each point is answered from
/// the cache when possible, computed (and inserted) otherwise, with
/// identical concurrent points single-flighted.
pub fn run_grid_with_cache(
    points: &[GridPoint],
    warmup: u64,
    cycles: u64,
    threads: usize,
    cache: &ResultCache,
) -> Vec<Measurement> {
    grid(points, Fidelity::cycle(warmup, cycles), threads, cache)
}

/// [`run_grid`] generalised over the fidelity *tier*: analytical
/// fidelities evaluate the calibrated closed-form model per point, and
/// are never cached.
pub fn run_grid_fid(points: &[GridPoint], fid: Fidelity, threads: usize) -> Vec<Measurement> {
    grid(points, fid, threads, ResultCache::global())
}

/// The one grid body: every point through
/// [`ResultCache::measure_cached`], then any buffered disk-tier writes
/// flushed once, so a completed sweep is durable as one crash-safe
/// segment.
fn grid(
    points: &[GridPoint],
    fid: Fidelity,
    threads: usize,
    cache: &ResultCache,
) -> Vec<Measurement> {
    let out = par_map(points, threads, |(cfg, wl)| cache.measure_cached(cfg, wl, fid));
    if let Err(e) = cache.flush() {
        eprintln!("hbm-cache: flush failed: {e}");
    }
    out
}

/// Outcome counters of one adaptive grid (also published through the
/// metric registry as `hbm_adaptive_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveReport {
    /// Points answered by the calibrated analytical model.
    pub analytical: usize,
    /// Points escalated to cycle accuracy.
    pub escalated: usize,
}

impl AdaptiveReport {
    /// Fraction of the grid that needed cycle accuracy.
    pub fn escalation_fraction(&self) -> f64 {
        let total = self.analytical + self.escalated;
        if total == 0 {
            0.0
        } else {
            self.escalated as f64 / total as f64
        }
    }
}

/// Adaptive-sweep counters, published through the workspace metric
/// registry: grids swept adaptively, and per-point routing outcomes.
struct AdaptiveMetrics {
    grids: Arc<Counter>,
    points_analytical: Arc<Counter>,
    points_escalated: Arc<Counter>,
}

fn build_adaptive_metrics(reg: &Registry) -> AdaptiveMetrics {
    let points = "Adaptive-sweep grid points by final route";
    AdaptiveMetrics {
        grids: reg.counter(
            "hbm_adaptive_grids_total",
            "Grids swept adaptively (analytical first, escalate interesting regions)",
            &[],
        ),
        points_analytical: reg.counter(
            "hbm_adaptive_points_total",
            points,
            &[("route", "analytical")],
        ),
        points_escalated: reg.counter("hbm_adaptive_points_total", points, &[("route", "cycle")]),
    }
}

fn adaptive_metrics() -> &'static AdaptiveMetrics {
    static M: OnceLock<AdaptiveMetrics> = OnceLock::new();
    M.get_or_init(|| build_adaptive_metrics(Registry::global()))
}

/// Pre-registers the adaptive series (all zero) so expositions are
/// complete before the first adaptive grid. Called by the registry's
/// built-in installer.
pub(crate) fn install_adaptive_series(reg: &Registry) {
    build_adaptive_metrics(reg);
}

/// Records one adaptively-swept grid's routing outcome into the metric
/// registry (no-op while metrics are disabled). Called by
/// [`run_grid_adaptive`] and by the serve scheduler's adaptive
/// admission, so both surface escalation fractions through the same
/// `hbm_adaptive_*` series.
pub fn record_adaptive_grid(analytical: usize, escalated: usize) {
    if !metrics::enabled() {
        return;
    }
    let m = adaptive_metrics();
    m.grids.inc();
    m.points_analytical.add(analytical as u64);
    m.points_escalated.add(escalated as u64);
}

/// Multi-fidelity adaptive sweep (DESIGN.md §3.9): follows
/// [`crate::analytic::adaptive_plan`], which predicts the whole grid
/// through the calibrated analytical model and marks the points that
/// deserve cycle accuracy (knees, bandwidth collapses, envelope-untrusted
/// families), and re-measures exactly those through the ordinary cycle
/// path of [`run_grid`] — so an escalated row is **byte-identical** to
/// what a direct cycle sweep of that point returns (same code path, same
/// cache fingerprint). `fid` gives the cycle windows escalations run at.
pub fn run_grid_adaptive(
    points: &[GridPoint],
    fid: Fidelity,
    threads: usize,
) -> (Vec<Measurement>, AdaptiveReport) {
    let (mut rows, mask) = crate::analytic::adaptive_plan(points, fid);
    let escalate: Vec<usize> = (0..points.len()).filter(|&i| mask[i]).collect();
    let subgrid: Vec<GridPoint> = escalate.iter().map(|&i| points[i].clone()).collect();
    let cycle_rows = run_grid(&subgrid, fid.warmup, fid.cycles, threads);
    for (&i, m) in escalate.iter().zip(cycle_rows) {
        rows[i] = m;
    }
    let report =
        AdaptiveReport { analytical: points.len() - escalate.len(), escalated: escalate.len() };
    record_adaptive_grid(report.analytical, report.escalated);
    (rows, report)
}

/// A reasonable thread count for sweeps on this machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traffic::RwRatio;

    fn points() -> Vec<GridPoint> {
        vec![
            (SystemConfig::xilinx(), Workload::scs()),
            (SystemConfig::mao(), Workload::ccs()),
            (SystemConfig::xilinx(), Workload { rw: RwRatio::READ_ONLY, ..Workload::scs() }),
        ]
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run_grid(&points(), 500, 1_500, 1);
        let par = run_grid(&points(), 500, 1_500, 4);
        assert_eq!(seq.len(), 3);
        for (a, b) in seq.iter().zip(par.iter()) {
            // Determinism: identical results regardless of scheduling.
            assert_eq!(a.gen.total_bytes(), b.gen.total_bytes());
            assert_eq!(a.total_gbps(), b.total_gbps());
        }
    }

    #[test]
    fn results_keep_input_order() {
        let par = run_grid(&points(), 500, 1_500, 2);
        // Point 1 is MAO CCS — far faster than the XLNX hot-spot would
        // be; order confirms the mapping.
        assert!(par[1].total_gbps() > 100.0);
        // Point 2 is read-only: no write bytes.
        assert_eq!(par[2].gen.bytes_written, 0);
    }

    #[test]
    fn par_map_preserves_order_for_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        // Odd items spin longer, so claim order ≠ completion order.
        let out = par_map(&items, 4, |&i| {
            if i % 2 == 1 {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            }
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_contains_panics_to_their_item() {
        let items: Vec<u64> = (0..16).collect();
        let out = try_par_map(&items, 4, |&i| {
            if i % 5 == 2 {
                panic!("poisoned item {i}");
            }
            i + 100
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 2 {
                let p = r.as_ref().expect_err("poisoned item must fail");
                assert_eq!(panic_message(p), format!("poisoned item {i}"));
            } else {
                assert_eq!(*r.as_ref().expect("healthy item must succeed"), i as u64 + 100);
            }
        }
    }

    #[test]
    fn try_par_map_contains_panics_sequentially_too() {
        let items = vec![1u64, 2, 3];
        let out = try_par_map(&items, 1, |&i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn par_map_reraises_after_completing_healthy_items() {
        let done = AtomicUsize::new(0);
        let items: Vec<u64> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 2, |&i| {
                if i == 3 {
                    panic!("item 3 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let p = caught.expect_err("panic must propagate");
        assert_eq!(panic_message(&p), "item 3 exploded");
        // Every healthy item still ran despite the mid-sweep panic.
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("al1").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("2.5").is_err());
    }

    #[test]
    fn sweep_jobs_override_wins() {
        set_sweep_jobs(3);
        assert_eq!(sweep_jobs(), 3);
        set_sweep_jobs(0);
        assert!(sweep_jobs() >= 1);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn empty_grid() {
        assert!(run_grid(&[], 10, 10, 4).is_empty());
    }
}
