//! Sim-speed regression harness: simulated cycles per wall-clock second
//! for each fabric × traffic scenario.
//!
//! The `repro simspeed` subcommand runs these scenarios and writes the
//! results to `BENCH_simspeed.json` so successive commits can be compared
//! on the same machine. The scenarios deliberately cover both ends of the
//! kernel's duty cycle:
//!
//! * `saturated_*` — every generator busy every cycle; measures the raw
//!   per-step cost (arbitration, queues, DRAM model). Event-horizon
//!   skipping never fires here by construction.
//! * `latency_probe` — one outstanding single-beat transaction per
//!   master; the simulator is idle most cycles and the run is dominated
//!   by gaps the next-event fast-forward can skip.
//! * `drain_tail` — a bounded burst followed by `run_until_drained`,
//!   exercising the tail where traffic thins out.
//! * `idle` — a fully quiescent system; measures the cost of simulated
//!   time in which nothing happens at all.

use std::time::Instant;

use hbm_axi::BurstLen;
use hbm_core::probe::ProbeConfig;
use hbm_core::{HbmSystem, SystemConfig};
use hbm_traffic::{RwRatio, Workload};
use serde::Serialize;

/// Record capacity for the traced runs — small enough that a saturated
/// run cycles the side-table rather than growing without bound, which is
/// also the realistic steady-state cost.
const TRACE_CAP: usize = 1 << 14;

/// Probe cadence for the traced runs (the default reporting cadence).
const TRACE_PROBE: ProbeConfig = ProbeConfig { interval: 1024, capacity: 1 << 10 };

/// One measured (fabric, scenario) cell.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedRow {
    /// Fabric name (`xilinx`, `mao`, `direct`).
    pub fabric: &'static str,
    /// Scenario name (see module docs).
    pub scenario: &'static str,
    /// Simulated cycles covered by one run.
    pub sim_cycles: u64,
    /// Best-of-N wall time for one run, in seconds.
    pub wall_s: f64,
    /// Simulated cycles per wall-clock second (`sim_cycles / wall_s`).
    pub cycles_per_sec: f64,
    /// Best-of-N wall time with lifecycle tracing + windowed probe on.
    pub traced_wall_s: f64,
    /// Cycles per wall-second with instrumentation on.
    pub traced_cycles_per_sec: f64,
    /// Instrumentation overhead: `traced_wall_s / wall_s − 1`, in
    /// percent. Target < 15 % when on; exactly 0 cost when off (the
    /// off path is the plain run — no tracer means no stamp sites
    /// execute).
    pub overhead_pct: f64,
}

/// Single-outstanding, single-beat probe traffic: the latency-measurement
/// configuration of the paper's Table II, and the worst case for a naive
/// cycle-by-cycle kernel.
pub fn probe_workload() -> Workload {
    Workload {
        outstanding: 1,
        num_ids: 1,
        burst: BurstLen::of(1),
        stride: 32,
        rw: RwRatio::READ_ONLY,
        ..Workload::scs()
    }
}

fn wall_best_of<F: FnMut() -> u64>(repeats: usize, mut f: F) -> (u64, f64) {
    let mut cycles = f(); // warmup (and fixes the cycle count)
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        cycles = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (cycles, best)
}

/// Turns on the full instrumentation stack (lifecycle tracer + windowed
/// probe) for the traced variant of a scenario.
fn instrument(sys: &mut HbmSystem) {
    sys.enable_tracing(TRACE_CAP);
    sys.attach_probe(TRACE_PROBE);
}

/// Measures one scenario twice — plain and instrumented — and folds both
/// into a row. `build(traced)` constructs, runs, and returns `now()`.
fn measure_pair<F: FnMut(bool) -> u64>(
    fabric: &'static str,
    scenario: &'static str,
    repeats: usize,
    mut build: F,
) -> SpeedRow {
    let (sim_cycles, wall_s) = wall_best_of(repeats, || build(false));
    let (_, traced_wall_s) = wall_best_of(repeats, || build(true));
    row(fabric, scenario, sim_cycles, wall_s, traced_wall_s)
}

/// Runs the full scenario matrix. `quick` shortens every run ~8× for CI.
pub fn run_matrix(quick: bool) -> Vec<SpeedRow> {
    let scale = if quick { 8 } else { 1 };
    let saturated_cycles = 40_000 / scale;
    let probe_txns = 512 / scale;
    let drain_txns = 2_048 / scale;
    let idle_cycles = 4_000_000 / scale;
    let repeats = if quick { 1 } else { 3 };

    let fabrics: [(&'static str, SystemConfig); 3] = [
        ("xilinx", SystemConfig::xilinx()),
        ("mao", SystemConfig::mao()),
        ("direct", SystemConfig::direct()),
    ];

    let mut rows = Vec::new();
    for (fname, cfg) in &fabrics {
        for (sname, wl) in
            [("saturated_scs", Workload::scs()), ("saturated_ccra", Workload::ccra())]
        {
            if *fname == "direct" && sname == "saturated_ccra" {
                continue; // the direct fabric has no cross-channel path
            }
            rows.push(measure_pair(fname, sname, repeats, |traced| {
                let mut sys = HbmSystem::new(cfg, wl, None);
                if traced {
                    instrument(&mut sys);
                }
                sys.run(saturated_cycles);
                sys.now()
            }));
        }

        rows.push(measure_pair(fname, "latency_probe", repeats, |traced| {
            let mut sys = HbmSystem::new(cfg, probe_workload(), Some(probe_txns));
            if traced {
                instrument(&mut sys);
            }
            assert!(sys.run_until_drained(100_000_000), "probe did not drain");
            sys.now()
        }));

        rows.push(measure_pair(fname, "drain_tail", repeats, |traced| {
            let mut sys = HbmSystem::new(cfg, Workload::scs(), Some(drain_txns));
            if traced {
                instrument(&mut sys);
            }
            assert!(sys.run_until_drained(100_000_000), "burst did not drain");
            sys.now()
        }));

        rows.push(measure_pair(fname, "idle", repeats, |traced| {
            let mut sys = HbmSystem::new(cfg, Workload::scs(), Some(0));
            if traced {
                instrument(&mut sys);
            }
            sys.run(idle_cycles);
            sys.now()
        }));
    }
    rows
}

fn row(
    fabric: &'static str,
    scenario: &'static str,
    sim_cycles: u64,
    wall_s: f64,
    traced_wall_s: f64,
) -> SpeedRow {
    SpeedRow {
        fabric,
        scenario,
        sim_cycles,
        wall_s,
        cycles_per_sec: sim_cycles as f64 / wall_s.max(1e-12),
        traced_wall_s,
        traced_cycles_per_sec: sim_cycles as f64 / traced_wall_s.max(1e-12),
        overhead_pct: 100.0 * (traced_wall_s / wall_s.max(1e-12) - 1.0),
    }
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
    /// `quick_wall_s / analytical_wall_s` — the ≥ 100× acceptance
    /// number from ISSUE 9.
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
pub fn analytical_grid() -> Vec<hbm_core::batch::GridPoint> {
    use hbm_core::FabricKind;
    use hbm_traffic::Pattern;

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
    use hbm_core::batch;
    use hbm_core::experiment::Fidelity;

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

/// Renders the matrix as an aligned text table.
pub fn render(rows: &[SpeedRow]) -> String {
    let mut out = String::from(
        "Simulator speed (simulated cycles per wall-second; higher is better)\n\
         traced = lifecycle tracer + 1024-cycle probe on; overhead target < 15 %\n\
         on busy scenarios (`idle` is probe-bound: sampling every window\n\
         necessarily defeats the event-horizon fast-forward)\n\
         fabric   scenario         sim_cycles      wall_s    Mcycles/s  traced Mc/s  overhead\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<16} {:>10} {:>11.6} {:>12.3} {:>12.3} {:>+8.1}%\n",
            r.fabric,
            r.scenario,
            r.sim_cycles,
            r.wall_s,
            r.cycles_per_sec / 1e6,
            r.traced_cycles_per_sec / 1e6,
            r.overhead_pct,
        ));
    }
    out
}
