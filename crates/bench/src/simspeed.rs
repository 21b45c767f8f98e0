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
use hbm_core::{HbmSystem, RunPolicy, SystemConfig};
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

/// One measured sweep-farming cell: the same multi-point measurement
/// grid run with a given worker-thread count.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Grid points in the sweep.
    pub points: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall time for the whole grid, in seconds.
    pub wall_s: f64,
    /// Wall-clock speedup over the single-worker run of the same grid.
    pub speedup: f64,
}

/// Times a multi-point sweep — the Fig. 4 rotation grid — farmed over
/// 1, 2, and 4 worker threads with `hbm_core::batch::run_grid`. Every
/// point is an independent deterministic simulation, so on a multi-core
/// host the speedup approaches `min(jobs, cores, points)`; on a
/// single-core host it stays ≈ 1 (thread scheduling cannot create
/// cores). The recorded numbers are whatever the current host delivers.
pub fn run_sweep_matrix(quick: bool) -> Vec<SweepRow> {
    let (warmup, cycles) = if quick { (500, 1_500) } else { (2_000, 8_000) };
    let points: Vec<(SystemConfig, Workload)> = [0usize, 1, 2, 3, 4, 6, 8]
        .iter()
        .map(|&rotation| (SystemConfig::xilinx(), Workload { rotation, ..Workload::scs() }))
        .collect();
    let mut base = f64::NAN;
    [1usize, 2, 4]
        .iter()
        .map(|&jobs| {
            let t0 = Instant::now();
            let out = hbm_core::batch::run_grid(&points, warmup, cycles, jobs);
            let wall_s = t0.elapsed().as_secs_f64();
            assert_eq!(out.len(), points.len());
            if jobs == 1 {
                base = wall_s;
            }
            SweepRow { points: points.len(), jobs, wall_s, speedup: base / wall_s.max(1e-12) }
        })
        .collect()
}

/// One measured parallel-conductor cell: a single simulation advanced
/// under `RunPolicy::Parallel { jobs }` vs the sequential reference.
#[derive(Debug, Clone, Serialize)]
pub struct ConductorRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Worker threads (1 = the sequential reference path).
    pub jobs: usize,
    /// Simulated cycles covered by one run.
    pub sim_cycles: u64,
    /// Best-of-N wall time for one run, in seconds.
    pub wall_s: f64,
    /// Wall-clock speedup over the sequential run of the same scenario.
    pub speedup: f64,
}

/// Times a single saturated Xilinx simulation under the sharded
/// conductor at 1/2/4 worker threads. `scs_port_affine` never touches a
/// lateral bus, so the conductor sprints full-span windows — the
/// best case for in-run threading. `rotation4_lateral` saturates the
/// lateral boundaries, forcing a barrier every `sync_lag` cycles — the
/// worst case, expected at or below 1× (the result is still
/// bit-identical; the threading merely doesn't pay there).
pub fn run_conductor_matrix(quick: bool) -> Vec<ConductorRow> {
    let cycles = if quick { 5_000 } else { 40_000 };
    let repeats = if quick { 1 } else { 3 };
    let mut rows = Vec::new();
    for (scenario, wl) in [
        ("scs_port_affine", Workload::scs()),
        ("rotation4_lateral", Workload { rotation: 4, ..Workload::scs() }),
    ] {
        let mut base = f64::NAN;
        for jobs in [1usize, 2, 4] {
            let (sim_cycles, wall_s) = wall_best_of(repeats, || {
                let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, None);
                if jobs > 1 {
                    sys.set_run_policy(RunPolicy::Parallel { jobs });
                }
                sys.run(cycles);
                sys.now()
            });
            if jobs == 1 {
                base = wall_s;
            }
            rows.push(ConductorRow {
                scenario,
                jobs,
                sim_cycles,
                wall_s,
                speedup: base / wall_s.max(1e-12),
            });
        }
    }
    rows
}

/// The serving-layer overhead measurement: the same fig4 grid timed
/// through the direct `run_grid` path and through a full serve round
/// trip (submit over loopback TCP, stream the rows back, reassemble by
/// index).
#[derive(Debug, Clone, Serialize)]
pub struct ServeOverheadRow {
    /// Grid points in the job (the Fig. 4 rotation grid).
    pub points: usize,
    /// Worker threads on both paths.
    pub jobs: usize,
    /// Wall time of the direct `hbm_core::batch::run_grid` call, in
    /// seconds.
    pub direct_wall_s: f64,
    /// Wall time submit → last streamed row over loopback TCP, in
    /// seconds.
    pub served_wall_s: f64,
    /// Serving overhead: `served_wall_s / direct_wall_s − 1`, in
    /// percent. The scheduler + wire cost, since both paths run the
    /// same measurements on the same worker count.
    pub serve_overhead_pct: f64,
}

/// Times the Fig. 4 grid direct vs served and verifies along the way
/// that the streamed measurements are byte-identical to the direct ones
/// (the serving layer's core guarantee — a benchmark that silently
/// measured diverging work would be meaningless).
///
/// Both paths get one untimed warm-up pass (thread-pool spin-up, first
/// TCP accept, allocator growth), and the timed passes interleave the
/// two sides in ABBA order — direct-then-served one round,
/// served-then-direct the next — with best-of-N on each side. Warm-up
/// removes the cold-process penalty from whichever side runs first;
/// the alternation cancels monotonic clock-speed drift across the
/// measurement window. Together they make the reported overhead an
/// honest scheduler + wire cost rather than an artefact of run order
/// (a negative overhead is an impossibility — both sides simulate the
/// exact same points). The result cache is pinned *off* on both sides
/// — a warm cache on either would turn the comparison into a cache
/// benchmark.
pub fn run_serve_overhead(quick: bool) -> ServeOverheadRow {
    use hbm_serve::{Client, JobSpec, ResultCache, RowStatus, ServeConfig, Server, WireServer};

    let fid = if quick {
        hbm_core::experiment::Fidelity::cycle(500, 1_500)
    } else {
        hbm_core::experiment::Fidelity::cycle(2_000, 8_000)
    };
    let grid = hbm_core::experiment::fig4_grid();
    let jobs = hbm_core::batch::sweep_jobs();
    let rounds = if quick { 2 } else { 4 };
    let no_cache = ResultCache::disabled();

    let server = Server::spawn(ServeConfig {
        workers: jobs,
        cache: Some(ResultCache::disabled()),
        ..ServeConfig::default()
    });
    let wire = WireServer::bind("127.0.0.1:0", server.handle()).expect("bind loopback");
    let mut client = Client::connect(&wire.local_addr().to_string()).expect("connect loopback");

    let run_direct =
        || hbm_core::batch::run_grid_with_cache(&grid, fid.warmup, fid.cycles, jobs, &no_cache);
    let mut round_no = 0usize;
    let mut run_served = |client: &mut Client| {
        round_no += 1;
        let job = client
            .submit(&JobSpec::new(format!("fig4-overhead-{round_no}"), fid, grid.clone()))
            .expect("submit over wire")
            .expect("grid fits an empty queue");
        let (rows, _) = client.collect(job).expect("stream rows").expect("known job");
        rows
    };

    // Untimed warm-up of both paths; the direct pass doubles as the
    // byte-identity reference.
    let direct = run_direct();
    let _ = run_served(&mut client);

    let mut direct_wall_s = f64::INFINITY;
    let mut served_wall_s = f64::INFINITY;
    let mut rows = Vec::new();
    for round in 0..rounds {
        let time_direct = |direct_wall_s: &mut f64| {
            let t0 = Instant::now();
            let d = run_direct();
            *direct_wall_s = direct_wall_s.min(t0.elapsed().as_secs_f64());
            debug_assert_eq!(d.len(), direct.len());
        };
        let mut time_served = |served_wall_s: &mut f64, rows: &mut Vec<_>| {
            let t0 = Instant::now();
            *rows = run_served(&mut client);
            *served_wall_s = served_wall_s.min(t0.elapsed().as_secs_f64());
        };
        if round % 2 == 0 {
            time_direct(&mut direct_wall_s);
            time_served(&mut served_wall_s, &mut rows);
        } else {
            time_served(&mut served_wall_s, &mut rows);
            time_direct(&mut direct_wall_s);
        }
    }
    wire.stop();
    server.shutdown();

    assert_eq!(rows.len(), direct.len());
    for (row, want) in rows.iter().zip(&direct) {
        assert_eq!(row.status, RowStatus::Done, "served point must succeed");
        let got = row.measurement.as_ref().expect("Done row carries a measurement");
        assert_eq!(
            serde_json::to_string(got).unwrap(),
            serde_json::to_string(want).unwrap(),
            "served row {} diverged from the direct path",
            row.index
        );
    }

    ServeOverheadRow {
        points: grid.len(),
        jobs,
        direct_wall_s,
        served_wall_s,
        serve_overhead_pct: 100.0 * (served_wall_s / direct_wall_s.max(1e-12) - 1.0),
    }
}

/// One cold/warm pair through the result cache: the fig4 grid run twice
/// against the same (memory-tier) [`hbm_core::ResultCache`].
#[derive(Debug, Clone, Serialize)]
pub struct CacheRow {
    /// Grid points in the sweep (the Fig. 4 rotation grid).
    pub points: usize,
    /// Worker threads on both runs.
    pub jobs: usize,
    /// Wall time of the first (all-miss) run, in seconds.
    pub cold_wall_s: f64,
    /// Wall time of the second (all-hit) run, in seconds.
    pub warm_wall_s: f64,
    /// `cold_wall_s / warm_wall_s` — how much the cache buys on an
    /// exact rerun.
    pub speedup: f64,
    /// Cache hits observed on the warm run (must equal `points`).
    pub warm_hits: u64,
    /// Whether the warm rows serialised byte-identical to the cold ones
    /// (asserted — recorded here so the JSON artefact carries the
    /// proof).
    pub byte_identical: bool,
}

/// Runs the fig4 grid cold then warm through a private result cache and
/// proves the warm rows byte-identical to the cold ones. Uses a local
/// cache instance, so the benchmark neither reads nor pollutes whatever
/// `HBM_CACHE_DIR` the process was started with.
pub fn run_cache_matrix(quick: bool) -> CacheRow {
    use hbm_core::ResultCache;

    let (warmup, cycles) = if quick { (500, 1_500) } else { (2_000, 8_000) };
    let grid = hbm_core::experiment::fig4_grid();
    let jobs = hbm_core::batch::sweep_jobs();
    let cache = ResultCache::new();

    let t0 = Instant::now();
    let cold = hbm_core::batch::run_grid_with_cache(&grid, warmup, cycles, jobs, &cache);
    let cold_wall_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let warm = hbm_core::batch::run_grid_with_cache(&grid, warmup, cycles, jobs, &cache);
    let warm_wall_s = t0.elapsed().as_secs_f64();

    assert_eq!(warm.len(), cold.len());
    for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
        assert_eq!(
            serde_json::to_string(w).unwrap(),
            serde_json::to_string(c).unwrap(),
            "warm row {i} diverged from the cold run"
        );
    }
    let snap = cache.snapshot();
    assert_eq!(snap.hits, grid.len() as u64, "warm run must hit on every point");

    CacheRow {
        points: grid.len(),
        jobs,
        cold_wall_s,
        warm_wall_s,
        speedup: cold_wall_s / warm_wall_s.max(1e-12),
        warm_hits: snap.hits,
        byte_identical: true,
    }
}

/// Renders the cache cold/warm section as an aligned text table.
pub fn render_cache(row: &CacheRow) -> String {
    format!(
        "Result cache (fig4 grid, cold run vs exact warm rerun; warm rows\n\
         proven byte-identical to cold)\n\
         points  jobs      cold_s      warm_s   speedup  warm_hits\n\
         {:>6} {:>5} {:>11.6} {:>11.6} {:>8.1}x {:>10}\n",
        row.points, row.jobs, row.cold_wall_s, row.warm_wall_s, row.speedup, row.warm_hits
    )
}

/// Renders the serving-overhead section as an aligned text table.
pub fn render_serve(row: &ServeOverheadRow) -> String {
    format!(
        "Serving overhead (fig4 grid: direct run_grid vs full TCP serve round trip)\n\
         points  jobs    direct_s    served_s  overhead\n\
         {:>6} {:>5} {:>11.6} {:>11.6} {:>+8.1}%\n",
        row.points, row.jobs, row.direct_wall_s, row.served_wall_s, row.serve_overhead_pct
    )
}

/// Renders the sweep-farming section as an aligned text table.
pub fn render_sweeps(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "Sweep farming (same measurement grid, more worker threads)\n\
         points  jobs      wall_s   speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>5} {:>11.6} {:>8.2}x\n",
            r.points, r.jobs, r.wall_s, r.speedup
        ));
    }
    out
}

/// Renders the parallel-conductor section as an aligned text table.
pub fn render_conductor(rows: &[ConductorRow]) -> String {
    let mut out = String::from(
        "Parallel conductor (one simulation, sharded across threads;\n\
         bit-identical to sequential by construction)\n\
         scenario            jobs  sim_cycles      wall_s   speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>4} {:>11} {:>11.6} {:>8.2}x\n",
            r.scenario, r.jobs, r.sim_cycles, r.wall_s, r.speedup
        ));
    }
    out
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
