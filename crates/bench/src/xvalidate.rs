//! `repro xvalidate` — calibrates and cross-validates the analytical
//! tier against the cycle simulator (DESIGN.md §3.9).
//!
//! The command runs the pinned [`hbm_core::analytic::scenario_lattice`]
//! through the cycle-accurate simulator, fits fresh per-family residual
//! scales with [`hbm_core::analytic::fit_calibration`], and reports the
//! per-family error envelopes (mean/p95/max relative bandwidth error of
//! the *calibrated* model). `--out PATH` persists the fitted artifact as
//! versioned JSON (loadable back through `HBM_CALIBRATION`); `--smoke`
//! is the CI gate: it asserts every fitted family's p95 stays within the
//! builtin calibration's shipped envelope plus a drift allowance, so the
//! numbers baked into [`Calibration::builtin`] cannot rot silently.
//! It also walls the pinned 10 000-point [`analytical_grid`] at every
//! tier, which `--smoke` gates too ([`SPEEDUP_FLOOR`]).

use std::time::Instant;

use hbm_axi::BurstLen;
use hbm_core::analytic::{self, Calibration, FabricClass, XvalRow};
use hbm_core::batch;
use hbm_core::experiment::Fidelity;
use hbm_core::SystemConfig;
use hbm_traffic::{Pattern, Workload};
use serde::Serialize;

/// Drift allowance for the smoke gate: a family's freshly fitted p95
/// may exceed the builtin envelope's p95 by this much (absolute, in
/// relative-error units) before the gate trips. Covers window-length
/// jitter between the baking run and the CI machine.
pub const SMOKE_P95_SLACK: f64 = 0.03;

/// The smoke gate's floor on the analytical tier's speed-up over QUICK
/// cycle runs of the pinned grid.
pub const SPEEDUP_FLOOR: f64 = 100.0;

/// Everything one `repro xvalidate` run produced.
pub struct XvalOutput {
    /// The freshly fitted artifact.
    pub calibration: Calibration,
    /// Per-scenario comparison rows under the fitted scales.
    pub rows: Vec<XvalRow>,
    /// Wall time of the cycle-simulated lattice, in seconds.
    pub cycle_wall_s: f64,
    /// Wall time of the analytical evaluations (model + fit), in
    /// seconds.
    pub model_wall_s: f64,
    /// The analytical tier's speed on the pinned grid.
    pub floor: AnalyticalRow,
}

/// Runs the lattice at `fid` cycle windows and fits a calibration, then
/// walls the pinned grid (`quick` shrinks its cycle subsamples).
pub fn run_xvalidate(fid: Fidelity, quick: bool) -> XvalOutput {
    let scenarios = analytic::scenario_lattice();
    let points: Vec<_> = scenarios.iter().map(|s| s.point.clone()).collect();
    let threads = batch::sweep_jobs();
    let t0 = Instant::now();
    let cycle_rows = batch::run_grid(&points, fid.warmup, fid.cycles, threads);
    let cycle_wall_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (calibration, rows) = analytic::fit_calibration(&scenarios, &cycle_rows);
    let model_wall_s = t1.elapsed().as_secs_f64();
    let floor = run_analytical_matrix(quick);
    XvalOutput { calibration, rows, cycle_wall_s, model_wall_s, floor }
}

/// The smoke gate: every freshly fitted family's p95 must stay within
/// the builtin envelope's p95 plus [`SMOKE_P95_SLACK`], the analytical
/// tier must be at least [`SPEEDUP_FLOOR`]× faster than QUICK, and the
/// adaptive sub-sweep must escalate some points but not all. Returns
/// the violations (empty means the gate passes).
pub fn smoke_violations(out: &XvalOutput) -> Vec<String> {
    let builtin = Calibration::builtin();
    let mut violations = Vec::new();
    let floor = &out.floor;
    if floor.speedup_vs_quick < SPEEDUP_FLOOR {
        violations.push(format!(
            "analytical tier {:.1}x faster than QUICK, below the {SPEEDUP_FLOOR}x floor",
            floor.speedup_vs_quick
        ));
    }
    let frac = floor.adaptive_escalation_fraction;
    if frac <= 0.0 || frac >= 1.0 || frac.is_nan() {
        violations.push(format!("adaptive escalation fraction {frac} is not a real split"));
    }
    for fitted in &out.calibration.families {
        let shipped = builtin.family(fitted.fabric, fitted.pattern);
        let budget = shipped.envelope.p95 + SMOKE_P95_SLACK;
        if fitted.envelope.p95 > budget {
            violations.push(format!(
                "{}/{:?}: fitted p95 {:.4} exceeds shipped p95 {:.4} + {:.2} slack",
                fitted.fabric,
                fitted.pattern,
                fitted.envelope.p95,
                shipped.envelope.p95,
                SMOKE_P95_SLACK
            ));
        }
    }
    violations
}

/// Renders the per-family calibration table plus the worst scenarios.
pub fn render(out: &XvalOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Cross-validation: analytical tier vs cycle simulator\n\
         ({} scenarios, cycle lattice {:.2}s, model+fit {:.4}s)\n",
        out.rows.len(),
        out.cycle_wall_s,
        out.model_wall_s
    );
    let _ = writeln!(
        s,
        "{:<14} {:<6} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "fabric", "family", "bw-scale", "lat-scale", "mean", "p95", "max"
    );
    for f in &out.calibration.families {
        let _ = writeln!(
            s,
            "{:<14} {:<6} {:>9.4} {:>9.4} {:>7.2}% {:>7.2}% {:>7.2}%",
            f.fabric.to_string(),
            format!("{:?}", f.pattern),
            f.bw_scale,
            f.lat_scale,
            100.0 * f.envelope.mean,
            100.0 * f.envelope.p95,
            100.0 * f.envelope.max,
        );
    }
    let mut worst: Vec<&XvalRow> = out.rows.iter().collect();
    worst.sort_by(|a, b| b.rel_err.partial_cmp(&a.rel_err).unwrap());
    let _ = writeln!(s, "\nworst scenarios (calibrated):");
    for r in worst.iter().take(5) {
        let _ = writeln!(
            s,
            "  {:<14} {:<6} {:<14} cycle {:>7.1} GB/s  model {:>7.1} GB/s  err {:>6.2}%",
            r.fabric.to_string(),
            format!("{:?}", r.pattern),
            r.setting,
            r.cycle_gbps,
            r.model_gbps,
            100.0 * r.rel_err,
        );
    }
    let _ = write!(s, "\n{}", render_analytical(&out.floor));
    s
}

/// The machine-readable payload (also written to `BENCH_xvalidate.json`).
pub fn to_json(out: &XvalOutput) -> serde_json::Value {
    serde_json::json!({
        "experiment": "xvalidate",
        "calibration_version": analytic::CALIBRATION_VERSION,
        "scenarios": out.rows.len(),
        "cycle_wall_s": out.cycle_wall_s,
        "model_wall_s": out.model_wall_s,
        "families": out.calibration.families,
        "rows": out.rows,
        "analytical": out.floor,
    })
}

/// Source-code lines for re-baking [`Calibration::builtin`] from a
/// fresh fit — printed so the shipped table can be updated by pasting.
pub fn render_builtin_rows(cal: &Calibration) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("builtin table (paste into Calibration::builtin):\n");
    for f in &cal.families {
        let fabric = match f.fabric {
            FabricClass::Xilinx => "Xilinx",
            FabricClass::Mao => "Mao",
            FabricClass::FullCrossbar => "FullCrossbar",
            FabricClass::Direct => "Direct",
        };
        let pattern = match f.pattern {
            Pattern::Scs => "Scs",
            Pattern::Ccs => "Ccs",
            Pattern::Scra => "Scra",
            Pattern::Ccra => "Ccra",
        };
        let _ = writeln!(
            s,
            "f({fabric}, {pattern}, {:.4}, {:.4}, {:.4}, {:.4}, {:.4}),",
            f.bw_scale, f.lat_scale, f.envelope.mean, f.envelope.p95, f.envelope.max
        );
    }
    s
}

/// The analytical-tier speed matrix: one pinned 10 000-point sweep grid
/// walled at each fidelity tier (DESIGN.md §3.9). The cycle tiers are
/// measured on honest subsamples — recorded as `*_measured_points` —
/// and extrapolated linearly, because a 10 000-point FULL sweep would
/// take hours and `run_grid` cost is linear in points by construction.
#[derive(Debug, Clone, Serialize)]
pub struct AnalyticalRow {
    /// Grid points in the sweep (pinned at 10 000).
    pub points: usize,
    /// Worker threads on every run.
    pub jobs: usize,
    /// Wall time of the analytical tier over all `points`, in seconds.
    pub analytical_wall_s: f64,
    /// Points actually cycle-simulated for the QUICK estimate.
    pub quick_measured_points: usize,
    /// QUICK wall extrapolated to `points`, in seconds.
    pub quick_wall_s: f64,
    /// Points actually cycle-simulated for the FULL estimate.
    pub full_measured_points: usize,
    /// FULL wall extrapolated to `points`, in seconds.
    pub full_wall_s: f64,
    /// `quick_wall_s / analytical_wall_s`, gated at
    /// [`SPEEDUP_FLOOR`] by `--smoke`.
    pub speedup_vs_quick: f64,
    /// `full_wall_s / analytical_wall_s`.
    pub speedup_vs_full: f64,
    /// Points in the adaptive sub-sweep (`--adaptive` mode).
    pub adaptive_points: usize,
    /// Wall time of the adaptive sub-sweep, in seconds.
    pub adaptive_wall_s: f64,
    /// Points the adaptive sweep escalated to cycle accuracy.
    pub adaptive_escalated: usize,
    /// `adaptive_escalated / adaptive_points`.
    pub adaptive_escalation_fraction: f64,
}

/// The pinned 10 000-point sweep grid: every fabric × workload family
/// the analytical model covers, crossed with burst length, outstanding
/// depth, rotation, working-set size, and ID count. The cross product
/// slightly overshoots and is truncated, so the grid size — and with it
/// the speedup denominators — never drifts as the axes evolve.
pub fn analytical_grid() -> Vec<batch::GridPoint> {
    use hbm_core::FabricKind;

    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    let fabrics = [SystemConfig::xilinx(), SystemConfig::mao(), xbar, SystemConfig::direct()];
    let bursts: [u8; 4] = [2, 4, 8, 16];
    let outstanding = [1usize, 2, 4, 8, 32];
    let num_ids = [8usize, 16, 32];

    let mut all = Vec::new();
    for cfg in &fabrics {
        // The direct fabric hard-partitions masters to channels: the
        // cross-channel families are not meaningful there (matching the
        // family coverage of `Calibration::builtin`), rotation would
        // violate its single-channel locality invariant, and working
        // sets must stay inside one pseudo-channel partition.
        let direct = cfg.fabric == FabricKind::Direct;
        let patterns: &[Pattern] = if direct {
            &[Pattern::Scs, Pattern::Scra]
        } else {
            &[Pattern::Scs, Pattern::Ccs, Pattern::Scra, Pattern::Ccra]
        };
        let rotations: &[usize] = if direct { &[0] } else { &[0, 2, 4, 8] };
        let working_sets: &[u64] = if direct {
            &[16 << 20, 64 << 20]
        } else {
            &[16 << 20, 64 << 20, 192 << 20, 256 << 20]
        };
        for &pattern in patterns {
            for &beats in &bursts {
                for &out in &outstanding {
                    for &rotation in rotations {
                        for &working_set in working_sets {
                            for &ids in &num_ids {
                                let base = match pattern {
                                    Pattern::Scs => Workload::scs(),
                                    Pattern::Ccs => Workload::ccs(),
                                    Pattern::Scra => Workload::scra(),
                                    Pattern::Ccra => Workload::ccra(),
                                };
                                let burst = BurstLen::of(beats);
                                let stride = match pattern {
                                    Pattern::Scs | Pattern::Ccs => burst.bytes(),
                                    Pattern::Scra | Pattern::Ccra => burst.bytes().max(512),
                                };
                                let wl = Workload {
                                    burst,
                                    outstanding: out,
                                    num_ids: ids,
                                    stride,
                                    rotation,
                                    working_set,
                                    ..base
                                };
                                wl.validate().expect("analytical_grid point must validate");
                                all.push((cfg.clone(), wl));
                            }
                        }
                    }
                }
            }
        }
    }
    // Downsample the full cross product to exactly 10 000 points with
    // evenly spaced indices, so every fabric × family stripe keeps its
    // proportional share instead of the tail fabric losing whole
    // families to a blunt truncation.
    assert!(all.len() >= 10_000, "cross product shrank below the pinned grid size");
    let total = all.len();
    let grid: Vec<_> = (0..10_000).map(|i| all[i * total / 10_000].clone()).collect();
    assert_eq!(grid.len(), 10_000, "analytical grid is pinned at 10 000 points");
    grid
}

/// Walls the pinned grid at every fidelity tier plus the adaptive mode.
/// `quick` shrinks the cycle-tier subsamples (CI budget), never the
/// analytical sweep itself — the headline number always covers the full
/// 10 000 points.
pub fn run_analytical_matrix(quick: bool) -> AnalyticalRow {
    let grid = analytical_grid();
    let jobs = batch::sweep_jobs();

    // Untimed pass first so allocator growth and the one-time
    // calibration load don't bill to the measured wall.
    let _ = batch::run_grid_fid(&grid, Fidelity::ANALYTICAL, jobs);
    let t0 = Instant::now();
    let rows = batch::run_grid_fid(&grid, Fidelity::ANALYTICAL, jobs);
    let analytical_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(rows.len(), grid.len());

    // Evenly-strided subsample of `n` points, so every fabric × family
    // stripe of the grid contributes to the extrapolation base.
    let sub = |n: usize| -> Vec<batch::GridPoint> {
        let step = (grid.len() / n).max(1);
        grid.iter().step_by(step).take(n).cloned().collect()
    };
    let extrapolate = |wall: f64, measured: usize| wall * grid.len() as f64 / measured as f64;

    let quick_pts = sub(if quick { 200 } else { 1_000 });
    let t0 = Instant::now();
    let _ = batch::run_grid_fid(&quick_pts, Fidelity::QUICK, jobs);
    let quick_wall_s = extrapolate(t0.elapsed().as_secs_f64(), quick_pts.len());

    let full_pts = sub(if quick { 25 } else { 100 });
    let t0 = Instant::now();
    let _ = batch::run_grid_fid(&full_pts, Fidelity::FULL, jobs);
    let full_wall_s = extrapolate(t0.elapsed().as_secs_f64(), full_pts.len());

    // Adaptive mode on a sub-sweep: analytical first, then only the
    // knees/collapses/untrusted-family points escalate to cycle runs.
    // Uses a contiguous prefix — a coherent axis-ordered sweep — rather
    // than the strided subsample: the knee detector compares grid
    // neighbours, and a shuffled sample would make every pair a knee.
    let adaptive_pts: Vec<batch::GridPoint> =
        grid.iter().take(if quick { 200 } else { 1_000 }).cloned().collect();
    let t0 = Instant::now();
    let (adaptive_rows, report) = batch::run_grid_adaptive(&adaptive_pts, Fidelity::QUICK, jobs);
    let adaptive_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(adaptive_rows.len(), adaptive_pts.len());

    AnalyticalRow {
        points: grid.len(),
        jobs,
        analytical_wall_s,
        quick_measured_points: quick_pts.len(),
        quick_wall_s,
        full_measured_points: full_pts.len(),
        full_wall_s,
        speedup_vs_quick: quick_wall_s / analytical_wall_s.max(1e-12),
        speedup_vs_full: full_wall_s / analytical_wall_s.max(1e-12),
        adaptive_points: adaptive_pts.len(),
        adaptive_wall_s,
        adaptive_escalated: report.escalated,
        adaptive_escalation_fraction: report.escalation_fraction(),
    }
}

/// Renders the analytical-tier section as an aligned text table.
pub fn render_analytical(row: &AnalyticalRow) -> String {
    format!(
        "Analytical tier (pinned 10 000-point sweep grid; cycle walls\n\
         extrapolated from {} QUICK / {} FULL measured points)\n\
         points  jobs  analytical_s     quick_s      full_s  vs quick   vs full\n\
         {:>6} {:>5} {:>13.6} {:>11.3} {:>11.3} {:>8.0}x {:>8.0}x\n\
         adaptive sub-sweep: {} points in {:.3}s, {} escalated ({:.1}%)\n",
        row.quick_measured_points,
        row.full_measured_points,
        row.points,
        row.jobs,
        row.analytical_wall_s,
        row.quick_wall_s,
        row.full_wall_s,
        row.speedup_vs_quick,
        row.speedup_vs_full,
        row.adaptive_points,
        row.adaptive_wall_s,
        row.adaptive_escalated,
        100.0 * row.adaptive_escalation_fraction,
    )
}
