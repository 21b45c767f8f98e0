//! `repro profile` — where the cycle kernel's time goes (the phase
//! profiler's attribution of `measure`, summed over its windows and
//! still telescoping exactly; `--smoke` asserts it), and what each
//! observer costs, timed on against off by [`alternating_pairs`]: the
//! profiler, the metric registry (the Fig. 4 grid) and the lifecycle
//! tracer (DESIGN.md §3.2's nine busy scenarios, record cap 2^14).

use std::time::Instant;

use hbm_core::profile::{self, Kernel, PhaseReport, PHASES};
use hbm_core::{metrics, HbmSystem, SystemConfig};
use hbm_traffic::Workload;
use serde::Serialize;
use serde_json::Value;

/// Timed pairs per observer (after one untimed run of each side).
pub const PAIRS: usize = 10;

/// One observer's cost, from [`alternating_pairs`].
#[derive(Debug, Clone, Serialize)]
pub struct Overhead {
    /// Timed pairs.
    pub pairs: usize,
    /// Median wall time with the observer off, in seconds.
    pub off_wall_s: f64,
    /// Median wall time with the observer on, in seconds.
    pub on_wall_s: f64,
    /// Median over the pairs of `on / off − 1`, in percent.
    pub median_pct: f64,
    /// First quartile of the same per-pair ratios, in percent.
    pub q1_pct: f64,
    /// Third quartile of the same per-pair ratios, in percent.
    pub q3_pct: f64,
}

/// The `q`-quantile of sorted `xs`, interpolating between neighbours.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Times `run(false)` (observer off) against `run(true)` (observer on)
/// in `pairs` pairs, after one untimed run of each. The sides take
/// turns at running first, so neither always inherits the other's cache
/// state; a ratio within one pair cancels the drift of a shared host,
/// and the interquartile range says how far one pair can be trusted.
pub fn alternating_pairs(pairs: usize, mut run: impl FnMut(bool)) -> Overhead {
    run(false);
    run(true);
    let mut wall = |on: bool| {
        let t0 = Instant::now();
        run(on);
        t0.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            off.push(wall(false));
            on.push(wall(true));
        } else {
            on.push(wall(true));
            off.push(wall(false));
        }
    }
    let mut ratios: Vec<f64> = off.iter().zip(&on).map(|(a, b)| 100.0 * (b / a - 1.0)).collect();
    for xs in [&mut off, &mut on, &mut ratios] {
        xs.sort_by(f64::total_cmp);
    }
    Overhead {
        pairs,
        off_wall_s: quantile(&off, 0.5),
        on_wall_s: quantile(&on, 0.5),
        median_pct: quantile(&ratios, 0.5),
        q1_pct: quantile(&ratios, 0.25),
        q3_pct: quantile(&ratios, 0.75),
    }
}

/// One busy tracer scenario, untraced vs traced.
#[derive(Debug, Clone, Serialize)]
pub struct TracerRow {
    /// Fabric name (`xilinx`, `mao`, `direct`).
    pub fabric: &'static str,
    /// Scenario name.
    pub scenario: &'static str,
    /// Simulated cycles of one run, identical traced and untraced.
    pub sim_cycles: u64,
    /// Untraced vs traced run.
    pub overhead: Overhead,
}

/// Everything `repro profile` measures.
#[derive(Debug, Clone)]
pub struct ProfileOut {
    /// The attribution of `measure` (Xilinx SCS), summed over the timed
    /// profiled windows.
    pub report: PhaseReport,
    /// The phase profiler: plain vs profiled `measure`.
    pub profiler: Overhead,
    /// The metric registry over the Fig. 4 grid (cache off, one worker).
    pub metrics: Overhead,
    /// The lifecycle tracer on the nine busy scenarios.
    pub tracer: Vec<TracerRow>,
}

/// Runs the whole suite. `quick` shortens every window (CI size).
pub fn run_profile(quick: bool) -> ProfileOut {
    let (warmup, cycles) = if quick { (500, 2_000) } else { (2_000, 8_000) };
    let mut windows = Vec::new();
    let profiler = alternating_pairs(PAIRS, |on| {
        if on {
            profile::begin(Kernel::Scalar);
        }
        let _ =
            hbm_core::measure::measure(&SystemConfig::xilinx(), Workload::scs(), warmup, cycles);
        if on {
            windows.push(profile::end());
        }
    });
    // The first window is the untimed warm-up.
    let mut report = windows[1];
    for w in &windows[2..] {
        report.merge(w);
    }

    // The registry records per measurement, never per cycle, so its true
    // cost is a handful of atomic adds per point.
    let (warmup, cycles) = if quick { (500, 1_500) } else { (2_000, 8_000) };
    let grid = hbm_core::experiment::fig4_grid();
    let no_cache = hbm_core::ResultCache::disabled();
    let was_enabled = metrics::enabled();
    let registry = alternating_pairs(PAIRS, |on| {
        metrics::set_enabled(on);
        let out = hbm_core::batch::run_grid_with_cache(&grid, warmup, cycles, 1, &no_cache);
        assert_eq!(out.len(), grid.len());
    });
    metrics::set_enabled(was_enabled);

    ProfileOut { report, profiler, metrics: registry, tracer: tracer_rows(quick) }
}

/// The nine busy scenarios of DESIGN.md §3.2's tracer table, tracing
/// off vs on: 40 000 cycles, or for a drain tail 2 048 SCS transactions
/// per master run until drained (an eighth of each at `quick`).
fn tracer_rows(quick: bool) -> Vec<TracerRow> {
    let scale = if quick { 8 } else { 1 };
    let (cycles, per_master) = (40_000 / scale, 2_048 / scale);
    let (xilinx, mao, direct) =
        (SystemConfig::xilinx(), SystemConfig::mao(), SystemConfig::direct());
    let (scs, ccra) = (Workload::scs(), Workload::ccra());
    let rotated = Workload { rotation: 4, ..scs };
    let scenarios = [
        ("xilinx", &xilinx, "saturated_scs", scs, false),
        ("xilinx", &xilinx, "saturated_ccra", ccra, false),
        ("xilinx", &xilinx, "scs_rotation_4", rotated, false),
        ("xilinx", &xilinx, "drain_tail", scs, true),
        ("mao", &mao, "saturated_scs", scs, false),
        ("mao", &mao, "saturated_ccra", ccra, false),
        ("mao", &mao, "drain_tail", scs, true),
        ("direct", &direct, "saturated_scs", scs, false),
        ("direct", &direct, "drain_tail", scs, true),
    ];
    scenarios
        .into_iter()
        .map(|(fabric, cfg, scenario, wl, drain)| {
            let mut sim_cycles = [0; 2];
            let overhead = alternating_pairs(PAIRS, |traced| {
                let mut sys = HbmSystem::new(cfg, wl, drain.then_some(per_master));
                if traced {
                    sys.enable_tracing(1 << 14);
                }
                if drain {
                    assert!(sys.run_until_drained(100_000_000), "tail did not drain");
                } else {
                    sys.run(cycles);
                }
                sim_cycles[usize::from(traced)] = sys.now();
            });
            assert_eq!(sim_cycles[0], sim_cycles[1], "{fabric} {scenario}: tracing moved time");
            TracerRow { fabric, scenario, sim_cycles: sim_cycles[0], overhead }
        })
        .collect()
}

/// The whole suite as one JSON value (for `--json`). The kernel's
/// phase attribution sits at `scalar.*`.
pub fn to_json(out: &ProfileOut) -> Value {
    let Value::Map(mut scalar) = out.report.to_json() else {
        unreachable!("PhaseReport::to_json returns a map");
    };
    scalar.push(("overhead".to_string(), serde::value::to_value(&out.profiler)));
    serde_json::json!({ "scalar": Value::Map(scalar), "metrics": out.metrics, "tracer": out.tracer })
}

/// Renders the full suite as text.
pub fn render(out: &ProfileOut) -> String {
    let r = &out.report;
    let mut s = format!(
        "Kernel phase profile, {PAIRS} windows summed (telescoping laps: phase\n\
         sums equal measured loop time exactly; see DESIGN.md §3.7)\n\
         phase                        ns    share        laps\n"
    );
    for p in PHASES {
        let (ns, share, laps) = (r.ns(p), 100.0 * r.fraction(p), r.phase_laps(p));
        s += &format!("  {:<18} {ns:>12} {share:>7.1}% {laps:>11}\n", p.name());
    }
    let (total, laps, consistent) = (r.total_ns, r.laps, r.consistent());
    s += &format!(
        "  total              {total:>12}   100.0% {laps:>11}   (sum == total: {consistent})\n\n\
         Observer overhead, on vs off: median of the per-pair ratios over {PAIRS}\n\
         alternating pairs [interquartile range]; walls are per-side medians.\n\
         Tracer target < 15 % on every row (DESIGN.md §3.2).\n\
         observer                       sim_cycles      off_s       on_s    median\n"
    );
    let tracer = out.tracer.iter().map(|t| {
        (format!("tracer {} {}", t.fabric, t.scenario), t.sim_cycles.to_string(), &t.overhead)
    });
    let lines = [
        ("phase profiler (measure)".to_string(), "-".to_string(), &out.profiler),
        ("metric registry (fig4 grid)".to_string(), "-".to_string(), &out.metrics),
    ];
    for (name, cycles, o) in lines.into_iter().chain(tracer) {
        s += &format!(
            "  {name:<28} {cycles:>10} {:>10.6} {:>10.6} {:>+8.1}%  [{:+.1}, {:+.1}]\n",
            o.off_wall_s, o.on_wall_s, o.median_pct, o.q1_pct, o.q3_pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_consistent_and_reports_every_observer() {
        let out = run_profile(true);
        let r = &out.report;
        assert!(r.consistent());
        assert_eq!(r.laps, r.phase_laps.iter().sum::<u64>());
        for p in PHASES {
            assert!(r.ns(p) > 0, "phase {} recorded no time", p.name());
        }
        assert!(out.tracer.iter().all(|row| row.sim_cycles > 0 && row.overhead.pairs == PAIRS));
        for o in out.tracer.iter().map(|t| &t.overhead).chain([&out.metrics]) {
            assert!(o.q1_pct <= o.median_pct && o.median_pct <= o.q3_pct, "{o:?}");
        }

        let v = to_json(&out);
        let scalar = v.get("scalar").expect("scalar section");
        assert!(matches!(scalar.get("kernel"), Some(Value::Str(s)) if s == "scalar"));
        assert!(scalar.get("phase_ns").is_some() && scalar.get("total_ns").is_some());
        assert!(scalar.get("overhead").and_then(|o| o.get("median_pct")).is_some());
        assert!(matches!(v.get("tracer"), Some(Value::Seq(rows)) if rows.len() == 9));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }
}
