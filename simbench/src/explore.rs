//! `explore_adaptive`: adaptive multi-fidelity exploration of the
//! analytical design space against the process-wide result cache with a
//! fresh disk tier. Each job is one axis line (the knee detector compares
//! neighbours, so points stay in axis order) through `run_grid_adaptive`
//! at QUICK on one worker. Each pass explores every line cold (model,
//! escalations, inserts, flushes), then restarts the cache on the same
//! directory and explores again, reading every row back from disk.

use std::time::Instant;

use hbm_core::analytic::{predict, Calibration};
use hbm_core::batch::{run_grid_adaptive, GridPoint};
use hbm_core::cache::ResultCache;
use hbm_core::experiment::{Fidelity, FidelityTier};
use hbm_core::measure::measure;
use hbm_core::{FabricKind, Measurement, SystemConfig};
use hbm_traffic::{Pattern, RwRatio, Workload};

use crate::bench::{
    peak_rss_mb, quantile, repeat_setup, row_json, scratch_dir, Check, Metrics, Opts, Outcome, Rng,
    Sample, Window,
};
use crate::spans::Spans;
use crate::sweep::wl;

const FID: Fidelity = Fidelity::QUICK;

/// Axis lines over the analytical design space, in design order (the
/// first is the Xilinx SCS burst-length line): 29 lines, 109 points.
/// Every fabric × pattern stripe gets an AXI-ID line, where the model is
/// trusted and nothing escalates. The burst-length and depth lines,
/// whose knees escalate to cycle runs, cover the Xilinx and direct
/// stripes in full but only one stripe each of the MAO and the crossbar,
/// whose cycle runs cost four times as much: a pass stays near 1.5 s, so
/// a run repeats every line several times.
fn lines(seed: u64, smoke: bool) -> Vec<Vec<GridPoint>> {
    use Pattern::*;
    let mao = SystemConfig::mao();
    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    let base = |p| wl(p, 8, RwRatio::TWO_TO_ONE, 8);
    let line = |cfg: &SystemConfig, ws: &[Workload]| {
        ws.iter().map(|w| (cfg.clone(), *w)).collect::<Vec<_>>()
    };
    let bl = |p| [2u8, 4, 8, 16].map(|b| wl(p, b, RwRatio::TWO_TO_ONE, 8));
    let depth = |p| [1usize, 2, 4, 8, 32].map(|o| Workload { outstanding: o, ..base(p) });
    let ids = |p| [8usize, 16, 32].map(|n| Workload { num_ids: n, ..base(p) });
    let mut out = Vec::new();
    for (cfg, patterns) in [
        (SystemConfig::xilinx(), &[Scs, Ccs, Scra, Ccra][..]),
        (SystemConfig::direct(), &[Scs, Scra][..]),
    ] {
        for &p in patterns {
            out.push(line(&cfg, &bl(p)));
            out.push(line(&cfg, &depth(p)));
            out.push(line(&cfg, &ids(p)));
        }
    }
    out.push(line(
        &SystemConfig::xilinx(),
        &[0usize, 2, 4, 8].map(|r| Workload { rotation: r, ..base(Scs) }),
    ));
    for cfg in [&mao, &xbar] {
        for p in [Scs, Ccs, Scra, Ccra] {
            out.push(line(cfg, &ids(p)));
        }
    }
    out.push(line(&mao, &bl(Ccra)));
    out.push(line(&xbar, &depth(Ccs)));
    if smoke {
        out.truncate(3);
    }
    let mut rng = Rng::new(seed, 30);
    for line in &mut out {
        for (_, w) in line.iter_mut() {
            w.seed = rng.next();
        }
    }
    out
}

fn json_rows(rows: &[Vec<Measurement>]) -> Vec<String> {
    rows.iter().flatten().map(row_json).collect()
}

/// Restarts the global cache on `dir`: the memory tier is emptied and the
/// disk tier reloads lazily from the directory.
fn restart(cache: &ResultCache, dir: &std::path::Path) {
    cache.clear();
    cache.set_dir(dir);
}

/// One timed window of whole passes. Each line's latency is its median
/// cold time over the passes; throughput counts every point twice (cold
/// and warm) over the sum of those medians plus the median warm pass.
/// Returns the window, the first pass's cold rows, and warm-pass points
/// per second.
fn window(
    lines: &[Vec<GridPoint>],
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Vec<Check>,
) -> (Window, Vec<Vec<Measurement>>, f64) {
    let cache = ResultCache::global();
    let mut w = Window::default();
    let mut cold_ms = vec![Vec::new(); lines.len()];
    let mut warm_ms = Vec::new();
    let (mut first, mut first_json) = (Vec::new(), Vec::new());
    let (mut differ, mut warm_misses, mut passes, mut elapsed) = (0usize, 0u64, 0u64, 0.0);
    while elapsed < seconds {
        let dir = scratch_dir(&format!("explore-{passes}"));
        let t = Instant::now();
        restart(cache, &dir);
        let mut cold = Vec::new();
        let mut last_end = t;
        for (j, line) in lines.iter().enumerate() {
            let tj = Instant::now();
            w.max_gap_ms = w.max_gap_ms.max((tj - last_end).as_secs_f64() * 1e3);
            let span = spans.begin("batch.run_grid_adaptive", None, j as u64);
            let (rows, _) = run_grid_adaptive(line, FID, 1);
            spans.end(span);
            last_end = Instant::now();
            cold_ms[j].push((last_end - tj).as_secs_f64() * 1e3);
            cold.push(rows);
        }
        let before = cache.snapshot();
        let tw = Instant::now();
        let span = spans.begin("cache.warm_restart", None, passes);
        restart(cache, &dir);
        let warm: Vec<Vec<Measurement>> = lines
            .iter()
            .enumerate()
            .map(|(j, line)| {
                let s = spans.begin("batch.run_grid_adaptive", span, j as u64);
                let rows = run_grid_adaptive(line, FID, 1).0;
                spans.end(s);
                rows
            })
            .collect();
        spans.end(span);
        warm_ms.push(tw.elapsed().as_secs_f64() * 1e3);
        elapsed += t.elapsed().as_secs_f64();
        let after = cache.snapshot();
        w.ops += 2 * lines.iter().map(|l| l.len() as u64).sum::<u64>();

        // Off the clock: the warm pass must read back exactly the cold
        // rows, and every pass must reproduce the first.
        warm_misses += after.misses - before.misses;
        let cold_json = json_rows(&cold);
        let differing =
            |a: &[String], b: &[String]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        differ += differing(&cold_json, &json_rows(&warm));
        if passes == 0 {
            (first, first_json) = (cold, cold_json);
        } else {
            differ += differing(&first_json, &cold_json);
        }
        let _ = std::fs::remove_dir_all(&dir);
        passes += 1;
    }
    let n: u64 = lines.iter().map(|l| l.len() as u64).sum();
    let warm_s = quantile(&warm_ms, 0.5) / 1e3;
    w.job_ms = cold_ms.iter().map(|s| quantile(s, 0.5)).collect();
    w.busy_s = w.job_ms.iter().sum::<f64>() / 1e3 + warm_s;
    w.points = 2 * n;
    w.failed += differ as u64 + warm_misses;
    checks.push(Check::new(
        "warm_rows_identical",
        differ == 0,
        format!("{passes} passes, {differ} rows differ between cold, warm and first pass"),
    ));
    checks.push(Check::new(
        "warm_pass_all_hits",
        warm_misses == 0,
        format!("{warm_misses} warm-pass lookups missed"),
    ));
    (w, first, n as f64 / warm_s.max(1e-9))
}

pub fn run(opts: &Opts, spans: &mut Spans) -> Outcome {
    let cache = ResultCache::global();
    let (lines, setup_s) = repeat_setup(opts.setups(), || {
        let mut lines = lines(opts.seed, opts.smoke);
        Calibration::active();
        let dir = scratch_dir("explore-warmup");
        restart(cache, &dir);
        run_grid_adaptive(&lines[0], FID, 1);
        cache.clear();
        let _ = std::fs::remove_dir_all(&dir);
        Rng::new(opts.seed, 32).shuffle(&mut lines);
        lines
    });
    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut checks = Vec::new();
    let before = cache.snapshot();
    let (plain, first, warm_pps) = window(&lines, seconds, &mut Spans::new(false), &mut checks);
    let peak = peak_rss_mb();
    let (traced, warm_pps) = if opts.trace {
        let (w, _, pps) = window(&lines, seconds, spans, &mut checks);
        (Some(w), pps)
    } else {
        (None, warm_pps)
    };
    let after = cache.snapshot();
    cache.disable();

    let analytical = Fidelity { tier: FidelityTier::Analytical, ..FID };
    let cal = Calibration::active();
    let rows: Vec<(GridPoint, Measurement)> =
        lines.iter().flatten().cloned().zip(first.into_iter().flatten()).collect();
    let answered: Vec<usize> = (0..rows.len())
        .filter(|&i| {
            let ((cfg, w), m) = &rows[i];
            row_json(&predict(cfg, w, analytical, cal)) == row_json(m)
        })
        .collect();
    // Held-out truth for the model: analytically answered points re-run
    // at cycle accuracy. Only the traced run reports model error.
    let truth = if opts.trace {
        let mut rng = Rng::new(opts.seed, 31);
        rng.pick(answered.len(), if opts.smoke { 4 } else { 48 })
            .into_iter()
            .map(|i| {
                let ((cfg, w), _) = &rows[answered[i]];
                ((cfg.clone(), *w), measure(cfg, *w, FID.warmup, FID.cycles))
            })
            .collect()
    } else {
        Vec::new()
    };

    let lw = traced.as_ref().unwrap_or(&plain);
    let mut layers = Metrics::default();
    layers.put("batch.grid_ms", quantile(&lw.job_ms, 0.5), "ms");
    let lookups = (after.hits + after.misses + after.coalesced
        - before.hits
        - before.misses
        - before.coalesced)
        .max(1);
    layers.put("cache.hit_ratio", (after.hits - before.hits) as f64 / lookups as f64, "fraction");
    layers.put("cache.coalesced", (after.coalesced - before.coalesced) as f64, "count");
    layers.put("gen.late_ms_max", lw.max_gap_ms, "ms");
    let mut info = Metrics::default();
    info.put("escalated_frac", 1.0 - answered.len() as f64 / rows.len() as f64, "fraction");
    info.put("warm_points_per_s", warm_pps, "points/s");
    Outcome {
        setup_s,
        plain,
        traced,
        checks,
        layers,
        info,
        sample: Sample { fidelity: FID, grids: lines, rows, truth },
        peak_rss_mb: peak,
    }
}
