//! `repro profile` — per-phase wall-time attribution of the cycle kernel.
//!
//! Wraps [`hbm_core::measure::measure`] in a [`hbm_core::profile`]
//! window and reports where the loop time went: gens-tick, fabric-tick,
//! MC-tick, horizon-compute, and queue-ops. The telescoping-lap design
//! guarantees the phase sums equal the measured window to the
//! nanosecond ([`PhaseReport::consistent`]); `--smoke` asserts it.
//!
//! The kernel is also timed *unprofiled* (best-of-N, same warm-up
//! discipline as `simspeed`) so the report carries an honest
//! `observer_overhead_pct` — the cost of the `Instant::now()` stamps
//! themselves. A metrics-overhead pair (same grid with the registry
//! enabled vs disabled) rides along for the CI regression gate.

use std::time::Instant;

use hbm_core::profile::{self, Kernel, PhaseReport, PHASES};
use hbm_core::{metrics, SystemConfig};
use hbm_traffic::Workload;
use serde_json::Value;

/// The kernel's profiled window plus the unprofiled reference timing.
#[derive(Debug, Clone)]
pub struct ProfiledKernel {
    /// The phase attribution (self-consistent by construction).
    pub report: PhaseReport,
    /// Best-of-N wall time with the profiler off, in seconds.
    pub plain_wall_s: f64,
    /// Wall time of the profiled window, in seconds.
    pub profiled_wall_s: f64,
    /// `profiled_wall_s / plain_wall_s − 1`, in percent — the stamp
    /// cost. Budget in DESIGN.md §3.7.
    pub observer_overhead_pct: f64,
}

/// The registry-overhead pair: the same sweep with metrics recording on
/// vs off.
#[derive(Debug, Clone)]
pub struct MetricsOverhead {
    /// Best-of-N wall time with `metrics::enabled()` false, in seconds.
    pub plain_wall_s: f64,
    /// Best-of-N wall time with the registry enabled, in seconds.
    pub metrics_wall_s: f64,
    /// `metrics_wall_s / plain_wall_s − 1`, in percent. The CI smoke
    /// leg asserts this below 5 %; the true cost is a handful of atomic
    /// adds per *measurement* (never per cycle), so the headroom is
    /// enormous.
    pub overhead_pct: f64,
}

/// Everything `repro profile` measures.
#[derive(Debug, Clone)]
pub struct ProfileOut {
    /// The cycle kernel (`measure`, i.e. `HbmSystem::run`) window.
    pub scalar: ProfiledKernel,
    /// Registry on/off cost over a sweep grid.
    pub metrics: MetricsOverhead,
}

/// Best-of-`repeats` wall time of `f`, with one untimed warm-up call.
fn wall_best_of<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Profiles the kernel: unprofiled best-of-N reference, then one
/// profiled window on the same thread.
fn profile_kernel<F: FnMut()>(kernel: Kernel, repeats: usize, mut run: F) -> ProfiledKernel {
    let plain_wall_s = wall_best_of(repeats, &mut run);
    // One profiled window. A single pass (not best-of) keeps the
    // attribution and the reported wall time the same measurement; the
    // reference above already absorbed warm-up effects.
    profile::begin(kernel);
    let t0 = Instant::now();
    run();
    let profiled_wall_s = t0.elapsed().as_secs_f64();
    let report = profile::end();
    assert_eq!(report.kernel, kernel);
    ProfiledKernel {
        report,
        plain_wall_s,
        profiled_wall_s,
        observer_overhead_pct: 100.0 * (profiled_wall_s / plain_wall_s.max(1e-12) - 1.0),
    }
}

/// Runs the full profile suite. `quick` shrinks the windows ~4× for CI.
pub fn run_profile(quick: bool) -> ProfileOut {
    let (warmup, cycles) = if quick { (500, 2_000) } else { (2_000, 8_000) };
    let repeats = if quick { 1 } else { 3 };
    let cfg = SystemConfig::xilinx();
    let wl = Workload::scs();

    let scalar = profile_kernel(Kernel::Scalar, repeats, || {
        let _ = hbm_core::measure::measure(&cfg, wl, warmup, cycles);
    });
    ProfileOut { scalar, metrics: metrics_overhead(quick) }
}

/// Times the Fig. 4 grid with the metric registry enabled vs disabled
/// (cache pinned off, one worker). The true cost is a handful of atomic adds per
/// *measurement* — far below timing noise on a short run — so the
/// rounds interleave the two sides in ABBA order with best-of-N on each
/// (the `run_serve_overhead` discipline) to cancel clock drift rather
/// than report it as overhead. Restores the registry to its prior
/// enabled state.
pub fn metrics_overhead(quick: bool) -> MetricsOverhead {
    let (warmup, cycles) = if quick { (500, 1_500) } else { (2_000, 8_000) };
    let rounds = if quick { 4 } else { 6 };
    let grid = hbm_core::experiment::fig4_grid();
    let no_cache = hbm_core::ResultCache::disabled();
    let was_enabled = metrics::enabled();

    let run = |on: bool| {
        metrics::set_enabled(on);
        let out = hbm_core::batch::run_grid_with_cache(&grid, warmup, cycles, 1, &no_cache);
        assert_eq!(out.len(), grid.len());
    };
    let time = |on: bool, best: &mut f64| {
        let t0 = Instant::now();
        run(on);
        *best = best.min(t0.elapsed().as_secs_f64());
    };
    // Untimed warm-up of both sides (allocator growth, lazy metric
    // registration).
    run(false);
    run(true);
    let mut plain_wall_s = f64::INFINITY;
    let mut metrics_wall_s = f64::INFINITY;
    for round in 0..rounds {
        if round % 2 == 0 {
            time(false, &mut plain_wall_s);
            time(true, &mut metrics_wall_s);
        } else {
            time(true, &mut metrics_wall_s);
            time(false, &mut plain_wall_s);
        }
    }
    metrics::set_enabled(was_enabled);

    MetricsOverhead {
        plain_wall_s,
        metrics_wall_s,
        overhead_pct: 100.0 * (metrics_wall_s / plain_wall_s.max(1e-12) - 1.0),
    }
}

/// One kernel's JSON object: the [`PhaseReport`] fields plus the wall
/// timings and observer overhead.
fn kernel_json(k: &ProfiledKernel) -> Value {
    let Value::Map(mut fields) = k.report.to_json() else {
        unreachable!("PhaseReport::to_json returns a map");
    };
    fields.push(("plain_wall_s".to_string(), serde::value::to_value(&k.plain_wall_s)));
    fields.push(("profiled_wall_s".to_string(), serde::value::to_value(&k.profiled_wall_s)));
    fields.push((
        "observer_overhead_pct".to_string(),
        serde::value::to_value(&k.observer_overhead_pct),
    ));
    Value::Map(fields)
}

/// The whole suite as one JSON value (for `--json` and the
/// `BENCH_simspeed.json` fold-in).
pub fn to_json(out: &ProfileOut) -> Value {
    serde_json::json!({
        "scalar": kernel_json(&out.scalar),
        "metrics_overhead_pct": out.metrics.overhead_pct,
        "metrics_plain_wall_s": out.metrics.plain_wall_s,
        "metrics_wall_s": out.metrics.metrics_wall_s,
    })
}

/// Renders one kernel's attribution as an aligned text table.
fn render_kernel(k: &ProfiledKernel) -> String {
    let r = &k.report;
    let mut out = format!(
        "{} kernel: {:.6} s profiled ({} laps, observer overhead {:+.1}%)\n\
         phase                        ns    share\n",
        r.kernel.name(),
        k.profiled_wall_s,
        r.laps,
        k.observer_overhead_pct,
    );
    for p in PHASES {
        out.push_str(&format!(
            "  {:<18} {:>12} {:>7.1}%\n",
            p.name(),
            r.ns(p),
            100.0 * r.fraction(p)
        ));
    }
    out.push_str(&format!(
        "  {:<18} {:>12}   100.0%   (sum == total: {})\n",
        "total",
        r.total_ns,
        r.consistent()
    ));
    out
}

/// Renders the full suite as text.
pub fn render(out: &ProfileOut) -> String {
    format!(
        "Kernel phase profile (telescoping laps: phase sums equal measured\n\
         loop time exactly; see DESIGN.md §3.7)\n\n\
         {}\n\
         Metrics registry overhead (fig4 grid, registry on vs off):\n\
         {:.6} s off, {:.6} s on ({:+.2}%)\n",
        render_kernel(&out.scalar),
        out.metrics.plain_wall_s,
        out.metrics.metrics_wall_s,
        out.metrics.overhead_pct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_consistent() {
        let out = run_profile(true);
        assert!(out.scalar.report.consistent());
        assert_eq!(out.scalar.report.kernel, Kernel::Scalar);
        assert!(out.scalar.report.laps > 0);
        for p in PHASES {
            assert!(out.scalar.report.ns(p) > 0, "phase {} recorded no time", p.name());
        }
    }

    #[test]
    fn json_carries_walls_and_overhead() {
        let out = run_profile(true);
        let v = to_json(&out);
        let scalar = v.get("scalar").expect("scalar section");
        assert!(matches!(scalar.get("kernel"), Some(Value::Str(s)) if s == "scalar"));
        assert!(scalar.get("plain_wall_s").is_some());
        assert!(scalar.get("observer_overhead_pct").is_some());
        assert!(v.get("metrics_overhead_pct").is_some());
    }
}
