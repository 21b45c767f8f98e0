//! Per-layer probes run by traced runs after the timed windows, each on
//! the workload's own points: the kernel and the modelled components
//! (profiled subsample), the result cache (persist and reload the
//! workload's rows), and the analytical tier (predict and escalate the
//! workload's grids, score against cycle-accurate rows).

use std::sync::Arc;
use std::time::Instant;

use hbm_core::analytic::{escalation_mask, predict, Calibration, EscalationPolicy};
use hbm_core::batch::GridPoint;
use hbm_core::cache::{fingerprint, ResultCache};
use hbm_core::experiment::{Fidelity, FidelityTier};
use hbm_core::measure::{measure, snapshot};
use hbm_core::profile::{self, Kernel};
use hbm_core::{HbmSystem, Measurement};
use serde::value::to_value;
use serde_json::Value;

use crate::bench::{mean, num_at, row_json, scratch_dir, Check, Metrics};
use crate::spans::Spans;

/// Kernel phases by their profiler name, and the metric each feeds.
const PHASE_METRICS: [(&str, &str); 5] = [
    ("horizon_compute", "kernel.horizon_share"),
    ("mc_tick", "mem.mc_tick_share"),
    ("queue_ops", "axi.queue_ops_share"),
    ("fabric_tick", "fabric.tick_share"),
    ("gens_tick", "traffic.gens_share"),
];

/// Sum of a numeric field over rows; `None` if any row lacks it.
fn sum(rows: &[Value], path: &[&str]) -> Option<f64> {
    rows.iter().map(|r| num_at(r, path)).sum()
}

fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? / b?.max(1e-12))
}

/// Beats and grant switches summed over every lateral bus of a row, and
/// the busiest bus's beats.
fn lateral(row: &Value) -> Option<(f64, f64)> {
    let fabric = row.get("fabric")?;
    let mut max_beats: f64 = 0.0;
    let mut switches = 0.0;
    for side in ["lateral_right", "lateral_left"] {
        let Some(Value::Seq(bounds)) = fabric.get(side) else { return None };
        for b in bounds {
            let Value::Seq(buses) = b else { return None };
            for bus in buses {
                max_beats = max_beats.max(num_at(bus, &["beats"])?);
                switches += num_at(bus, &["grant_switches"])?;
            }
        }
    }
    Some((max_beats, switches))
}

/// Kernel, memory, AXI-queue, fabric and traffic metrics from `points`
/// at QUICK windows: each point is built and run once on this thread
/// (construction and run timed apart, queue high-water marks read from
/// the system), then once more through `measure` under the phase
/// profiler. The profiler roughly doubles the run time, so its numbers
/// are shares of the run, not speeds.
pub fn kernel(points: &[GridPoint], spans: &mut Spans, checks: &mut Vec<Check>) -> Metrics {
    let fid = Fidelity::QUICK;
    let (mut new_us, mut run_ns, mut sim_cycles, mut hwm) = (Vec::new(), 0.0, 0.0, 0usize);
    let mut phase_ns = vec![0.0; PHASE_METRICS.len()];
    let mut phase_seen = [true; PHASE_METRICS.len()];
    let (mut total_ns, mut differ) = (0.0, 0usize);
    let mut rows = Vec::new();
    let mut window_ns = 0.0;
    for (i, (cfg, w)) in points.iter().enumerate() {
        let id = i as u64;
        let s = spans.begin("kernel.new", None, id);
        let t = Instant::now();
        let mut sys = HbmSystem::new(cfg, *w, None);
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.end(s);
        let s = spans.begin("kernel.run", None, id);
        let t = Instant::now();
        sys.run(fid.warmup);
        sys.reset_stats();
        sys.run(fid.cycles);
        run_ns += t.elapsed().as_secs_f64() * 1e9;
        spans.end(s);
        sim_cycles += (fid.warmup + fid.cycles) as f64;
        sys.for_each_queue_hwm(&mut |_, h| hwm = hwm.max(h));
        let row = snapshot(&sys, fid.cycles);

        let s = spans.begin("kernel.profiled_measure", None, id);
        profile::begin(Kernel::Scalar);
        let profiled = measure(cfg, *w, fid.warmup, fid.cycles);
        let report = profile::end().to_json();
        spans.end(s);
        differ += usize::from(row_json(&profiled) != row_json(&row));
        total_ns += num_at(&report, &["total_ns"]).unwrap_or(0.0);
        for (k, (phase, _)) in PHASE_METRICS.iter().enumerate() {
            match num_at(&report, &["phase_ns", phase]) {
                Some(ns) => phase_ns[k] += ns,
                None => phase_seen[k] = false,
            }
        }
        let v = to_value(&row);
        let mhz = num_at(&v, &["clock", "freq_mhz"]).unwrap_or(f64::NAN);
        window_ns += fid.cycles as f64 * 1e3 / mhz * cfg.hbm.num_pch as f64;
        rows.push(v);
    }
    checks.push(Check::new(
        "profiled_runs_identical",
        differ == 0,
        format!("{} points, {differ} profiled rows differ from the unprofiled run", points.len()),
    ));

    let mut m = Metrics::default();
    m.put("kernel.ns_per_sim_cycle", run_ns / sim_cycles.max(1.0), "ns");
    m.put("kernel.new_us", mean(&new_us), "us");
    for (k, (_, name)) in PHASE_METRICS.iter().enumerate() {
        if phase_seen[k] {
            m.put(name, phase_ns[k] / total_ns.max(1.0), "fraction");
        }
    }
    let cycles = sum(&rows, &["cycles"]);
    let hits = sum(&rows, &["mem", "page_hits"]);
    let classified =
        [hits, sum(&rows, &["mem", "page_closed"]), sum(&rows, &["mem", "page_misses"])]
            .into_iter()
            .sum::<Option<f64>>();
    m.put_opt("mem.row_hit_ratio", ratio(hits, classified), "fraction");
    let per_kcycle = |v: Option<f64>| ratio(v.map(|x| x * 1e3), cycles);
    m.put_opt(
        "mem.turnarounds_per_kcycle",
        per_kcycle(sum(&rows, &["mem", "turnarounds"])),
        "1/kcycle",
    );
    m.put_opt("mem.busy_frac", ratio(sum(&rows, &["mem", "busy_ns"]), Some(window_ns)), "fraction");
    m.put_opt(
        "mem.stall_frac",
        ratio(sum(&rows, &["mem", "stall_ns"]), Some(window_ns)),
        "fraction",
    );
    m.put("axi.queue_hwm_max", hwm as f64, "count");
    let lat: Option<Vec<(f64, f64)>> = rows.iter().map(lateral).collect();
    if let (Some(lat), Some(c)) = (lat, cycles) {
        let occupancy: Vec<f64> =
            lat.iter().map(|(beats, _)| beats / (fid.cycles as f64)).collect();
        m.put("fabric.lateral_occupancy", mean(&occupancy), "fraction");
        let links = ["ingress", "egress", "mc_links"]
            .iter()
            .map(|l| sum(&rows, &["fabric", l, "grant_switches"]))
            .sum::<Option<f64>>();
        if let Some(links) = links {
            let lateral: f64 = lat.iter().map(|(_, s)| s).sum();
            m.put("fabric.grant_switches_per_kcycle", (links + lateral) * 1e3 / c, "1/kcycle");
        }
    }
    m.put_opt(
        "fabric.id_stall_per_kcycle",
        per_kcycle(sum(&rows, &["fabric", "id_stall_cycles"])),
        "1/kcycle",
    );
    m.put_opt(
        "traffic.completed_per_issued",
        ratio(sum(&rows, &["gen", "completed"]), sum(&rows, &["gen", "issued"])),
        "fraction",
    );
    m
}

/// Result-cache metrics on the workload's rows: insert and flush them
/// to a fresh disk tier, time memory lookups, then restart a cache on the
/// directory and answer every point from it.
pub fn cache(
    rows: &[(GridPoint, Measurement)],
    fid: Fidelity,
    spans: &mut Spans,
    checks: &mut Vec<Check>,
) -> Metrics {
    // Below the cache's auto-flush threshold, so one flush writes them all.
    let rows = &rows[..rows.len().min(255)];
    let dir = scratch_dir("probe-cache");
    let keys: Vec<_> = rows.iter().map(|((cfg, w), _)| fingerprint(cfg, w, fid)).collect();
    let c = ResultCache::with_dir(&dir);
    for (k, (_, row)) in keys.iter().zip(rows) {
        c.insert(*k, Arc::new(row.clone()));
    }
    let s = spans.begin("cache.flush", None, 0);
    let t = Instant::now();
    let flushed = c.flush();
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.end(s);
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .map(|es| es.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0);

    // The first lookup loads the directory; time memory hits only.
    c.peek(keys[0]);
    let s = spans.begin("cache.get", None, 0);
    let t = Instant::now();
    let found = keys.iter().filter(|k| std::hint::black_box(c.get(**k)).is_some()).count();
    let lookup_us = t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    spans.end(s);

    let restarted = ResultCache::with_dir(&dir);
    let s = spans.begin("cache.disk_load", None, 0);
    let t = Instant::now();
    restarted.peek(keys[0]);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.end(s);
    let s = spans.begin("cache.warm_points", None, 0);
    let t = Instant::now();
    let warm: Vec<Measurement> =
        rows.iter().map(|((cfg, w), _)| restarted.measure_cached(cfg, w, fid)).collect();
    let warm_s = t.elapsed().as_secs_f64();
    spans.end(s);
    let _ = std::fs::remove_dir_all(&dir);

    let differ = warm.iter().zip(rows).filter(|(a, (_, b))| row_json(a) != row_json(b)).count();
    let misses = restarted.snapshot().misses;
    checks.push(Check::new(
        "cache_probe_round_trip",
        flushed.is_ok() && found == rows.len() && differ == 0 && misses == 0,
        format!("{} rows: flush {flushed:?}, {found} found, {differ} differ after reload, {misses} misses", rows.len()),
    ));
    let mut m = Metrics::default();
    m.put("cache.lookup_us", lookup_us, "us");
    m.put("cache.flush_ms", flush_ms, "ms");
    m.put("cache.disk_load_ms", load_ms, "ms");
    m.put("cache.disk_mb", disk_bytes as f64 / 1e6, "MB");
    m.put("cache.warm_points_per_s", rows.len() as f64 / warm_s.max(1e-9), "points/s");
    m
}

/// Analytical-tier metrics: predict every point of each grid the
/// workload submits, run the escalation decision on each grid, and score
/// predictions against cycle-accurate `truth` rows.
pub fn analytic(
    grids: &[Vec<GridPoint>],
    truth: &[(GridPoint, Measurement)],
    fid: Fidelity,
    spans: &mut Spans,
) -> Metrics {
    let an = Fidelity { tier: FidelityTier::Analytical, ..fid };
    let cal = Calibration::active();
    let (mut predict_s, mut n, mut escalated) = (0.0, 0usize, 0usize);
    let mut mask_ms = Vec::new();
    for (g, grid) in grids.iter().enumerate() {
        let s = spans.begin("analytic.predict", None, g as u64);
        let t = Instant::now();
        let rows: Vec<Measurement> = grid.iter().map(|(cfg, w)| predict(cfg, w, an, cal)).collect();
        predict_s += t.elapsed().as_secs_f64();
        spans.end(s);
        let s = spans.begin("analytic.escalation_mask", None, g as u64);
        let t = Instant::now();
        let mask = escalation_mask(grid, &rows, cal, &EscalationPolicy::default());
        mask_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.end(s);
        n += grid.len();
        escalated += mask.iter().filter(|&&e| e).count();
    }
    let errs: Vec<f64> = truth
        .iter()
        .map(|((cfg, w), cycle)| {
            let model = predict(cfg, w, an, cal).total_gbps();
            100.0 * (model - cycle.total_gbps()).abs() / cycle.total_gbps().max(1.0)
        })
        .collect();
    let mut m = Metrics::default();
    m.put("analytic.predict_us", predict_s * 1e6 / n.max(1) as f64, "us");
    m.put("analytic.mask_ms", mean(&mask_ms), "ms");
    m.put("analytic.escalated_frac", escalated as f64 / n.max(1) as f64, "fraction");
    m.put("analytic.err_pct", mean(&errs), "%");
    m
}
