//! `sweep_xilinx` and `sweep_mao`: closed-loop batch sweeps on one
//! worker, each job one `run_grid_with_cache` call over one curve of a
//! figure (one axis varied, the rest fixed).
//!
//! The design (axes and levels) is frozen so that host cost is
//! comparable across seeds; the seed sets every point's traffic seed and
//! the job order. The timed window runs whole passes over the design, so
//! every run measures the same mix of points. Points run at the
//! 2 000 + 6 000-cycle window of `tests/calibration.rs`, so the anchor
//! ranges apply as tested and a pass is short enough for a run to repeat
//! every curve several times.

use std::time::Instant;

use hbm_axi::BurstLen;
use hbm_core::batch::{run_grid_with_cache, GridPoint};
use hbm_core::cache::ResultCache;
use hbm_core::experiment::{latency_probe, Fidelity};
use hbm_core::measure::measure;
use hbm_core::{FabricKind, Measurement, SystemConfig};
use hbm_mao::{InterleaveMode, MaoConfig};
use hbm_traffic::{Pattern, RwRatio, Workload};

use crate::bench::{
    mean, peak_rss_mb, quantile, repeat_setup, row_json, Check, Metrics, Opts, Outcome, Rng,
    Sample, Window,
};
use crate::spans::Spans;

/// One job: a named curve submitted as one grid.
pub struct Job {
    pub name: &'static str,
    pub points: Vec<GridPoint>,
}

const RD: RwRatio = RwRatio::READ_ONLY;
const WR: RwRatio = RwRatio::WRITE_ONLY;
const MIX: RwRatio = RwRatio::TWO_TO_ONE;
const HALF: RwRatio = RwRatio { reads: 1, writes: 1 };

/// A workload of `pattern` with `beats`-beat bursts, dense for the stride
/// patterns and 512 B-aligned chunks for the random ones.
pub fn wl(pattern: Pattern, beats: u8, rw: RwRatio, outstanding: usize) -> Workload {
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
    Workload { burst, stride, rw, outstanding, ..base }
}

fn job(name: &'static str, cfg: &SystemConfig, wls: impl IntoIterator<Item = Workload>) -> Job {
    Job { name, points: wls.into_iter().map(|w| (cfg.clone(), w)).collect() }
}

fn mao_with(f: impl FnOnce(&mut MaoConfig)) -> SystemConfig {
    let mut m = MaoConfig::default();
    f(&mut m);
    SystemConfig { fabric: FabricKind::Mao(m), ..SystemConfig::mao() }
}

/// Xilinx-fabric and direct-fabric curves: 31 points, 25 of them
/// single-channel, holding the paper's Xilinx anchors.
fn xilinx_design() -> Vec<Job> {
    use Pattern::*;
    let (x, d) = (SystemConfig::xilinx(), SystemConfig::direct());
    let bls = [1u8, 2, 4, 8, 16];
    vec![
        job("scs-bl", &x, bls.map(|b| wl(Scs, b, MIX, 32))),
        job("scra-bl-direct", &d, bls.map(|b| wl(Scra, b, HALF, 32))),
        job(
            "scs-rotation",
            &x,
            [0, 1, 2, 4, 8].map(|r| Workload { rotation: r, ..wl(Scs, 16, MIX, 32) }),
        ),
        job("scs-rw", &x, [RD, MIX, HALF, WR].map(|rw| wl(Scs, 16, rw, 32))),
        job("scs-ot-direct", &d, [1, 8, 32].map(|o| wl(Scs, 8, MIX, o))),
        job("scra-ot", &x, [1, 8, 32].map(|o| wl(Scra, 16, WR, o))),
        job("ccs-hotspot", &x, [RD, WR, MIX].map(|rw| wl(Ccs, 16, rw, 32))),
        job("ccra", &x, [RD, WR, MIX].map(|rw| wl(Ccra, 16, rw, 32))),
    ]
}

/// MAO and full-crossbar curves: 19 points, holding the MAO anchors and
/// the Fig. 6 reorder-depth curve.
fn mao_design() -> Vec<Job> {
    use Pattern::*;
    let mao = SystemConfig::mao();
    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    let reorder = [1usize, 4, 16, 32].map(|depth| {
        let cfg = mao_with(|m| m.reorder_depth = depth.max(2));
        (cfg, Workload { num_ids: depth, outstanding: depth, ..Workload::ccra() })
    });
    let stages_interleave = [(2u8, 512u64), (2, 4 << 10), (2, 64 << 10), (1, 512)].map(|(s, g)| {
        let cfg = mao_with(|m| {
            m.stages = s;
            m.interleave = InterleaveMode::XorFold { granularity: g };
        });
        (cfg, wl(Ccs, 16, MIX, 32))
    });
    vec![
        job("mao-ccs-rw", &mao, [RD, WR, MIX].map(|rw| wl(Ccs, 16, rw, 32))),
        job("mao-ccra-rw", &mao, [RD, WR, MIX].map(|rw| wl(Ccra, 16, rw, 32))),
        Job { name: "mao-reorder", points: reorder.to_vec() },
        Job { name: "mao-stages-interleave", points: stages_interleave.to_vec() },
        job("xbar-ccra-bl", &xbar, [2, 4, 16].map(|b| wl(Ccra, b, MIX, 32))),
        job("mao-scs-bl", &mao, [2, 16].map(|b| wl(Scs, b, HALF, 32))),
    ]
}

/// The frozen design with seeded traffic seeds and job order. The smoke
/// design keeps only the anchor curves.
pub fn design(mao: bool, smoke: bool, seed: u64) -> Vec<Job> {
    let mut jobs = if mao { mao_design() } else { xilinx_design() };
    if smoke {
        let keep = ["ccs-hotspot", "ccra", "mao-ccs-rw", "mao-reorder"];
        jobs.retain(|j| keep.contains(&j.name));
    }
    let mut rng = Rng::new(seed, 1);
    for j in &mut jobs {
        for (_, w) in &mut j.points {
            w.seed = rng.next();
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// One timed window: whole passes over `jobs` until `seconds` have gone
/// by. Each job's latency is its median over the passes, which keeps
/// one slow pass on a shared host from moving the result; throughput is
/// the design's points over the sum of those medians. Returns the window
/// and the first pass's rows; later passes must reproduce them byte for
/// byte (compared between jobs, off the clock).
fn window(
    jobs: &[Job],
    cache: &ResultCache,
    fid: Fidelity,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Vec<Check>,
) -> (Window, Vec<Vec<Measurement>>) {
    let mut w = Window::default();
    let mut samples = vec![Vec::new(); jobs.len()];
    let mut first: Vec<Vec<Measurement>> = Vec::new();
    let mut first_json: Vec<Vec<String>> = Vec::new();
    let (mut mismatches, mut pass, mut elapsed) = (0usize, 0u64, 0.0);
    while elapsed < seconds {
        let mut last_end: Option<Instant> = None;
        for (j, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            if let Some(prev) = last_end {
                w.max_gap_ms = w.max_gap_ms.max((t - prev).as_secs_f64() * 1e3);
            }
            let span = spans.begin("batch.run_grid_with_cache", None, j as u64);
            let rows = run_grid_with_cache(&job.points, fid.warmup, fid.cycles, 1, cache);
            spans.end(span);
            let end = Instant::now();
            elapsed += (end - t).as_secs_f64();
            samples[j].push((end - t).as_secs_f64() * 1e3);
            w.ops += rows.len() as u64;
            last_end = Some(end);
            if pass == 0 {
                first_json.push(rows.iter().map(row_json).collect());
                first.push(rows);
            } else {
                mismatches +=
                    rows.iter().zip(&first_json[j]).filter(|(m, s)| row_json(m) != **s).count();
            }
        }
        pass += 1;
    }
    w.job_ms = samples.iter().map(|s| quantile(s, 0.5)).collect();
    w.busy_s = w.job_ms.iter().sum::<f64>() / 1e3;
    w.points = jobs.iter().map(|j| j.points.len() as u64).sum();
    w.failed += mismatches as u64;
    checks.push(Check::new(
        "passes_byte_identical",
        mismatches == 0,
        format!("{pass} passes, {mismatches} rows differ from the first pass"),
    ));
    (w, first)
}

/// A paper anchor: measured against the paper value, and against the
/// range `tests/calibration.rs` accepts.
struct Anchor {
    name: &'static str,
    measured: f64,
    paper: Option<f64>,
    range: Option<(f64, f64)>,
}

fn anchors(mao: bool, rows: &dyn Fn(&str) -> Option<Vec<Measurement>>) -> Vec<Anchor> {
    let mut out = Vec::new();
    let mut add = |name, measured, paper, range| out.push(Anchor { name, measured, paper, range });
    let gbps =
        |name: &str| rows(name).map(|r| r.iter().map(Measurement::total_gbps).collect::<Vec<_>>());
    if !mao {
        if let Some(r) = gbps("scs-rotation") {
            add("scs_bl16_gbps", r[0], Some(416.7), Some((380.0, 461.0)));
            for (i, paper) in [(2, 0.749), (3, 0.498), (4, 0.125)] {
                add("rotation_rel", r[i] / r[1], Some(paper), None);
            }
        }
        if let Some(r) = rows("scs-rotation") {
            let pct: Vec<f64> = r.iter().map(Measurement::pct_of_device).collect();
            add("rotation1_pct", pct[1], None, Some((85.0, 101.0)));
            add("rotation2_pct", pct[2], None, Some((55.0, 85.0)));
            add("rotation4_pct", pct[3], None, Some((30.0, 60.0)));
            add("rotation8_pct", pct[4], None, Some((0.0, 25.0)));
            let monotone = pct[1] > pct[2] && pct[2] > pct[3] && pct[3] > pct[4];
            add("rotation_monotone", f64::from(u8::from(monotone)), None, Some((1.0, 2.0)));
        }
        if let Some(r) = gbps("scs-rw") {
            add("mixed_over_read_only", r[1] / r[0], None, Some((1.15, f64::INFINITY)));
        }
        if let Some(r) = gbps("ccs-hotspot") {
            add("ccs_rd_gbps", r[0], Some(9.6), Some((8.0, 10.5)));
            add("ccs_wr_gbps", r[1], Some(9.6), None);
            add("ccs_both_gbps", r[2], Some(13.0), Some((11.0, 16.0)));
        }
        if let Some(r) = gbps("ccra") {
            add("ccra_rd_gbps", r[0], Some(36.0), None);
            add("ccra_wr_gbps", r[1], Some(48.0), None);
            add("ccra_both_gbps", r[2], Some(70.4), Some((40.0, 130.0)));
        }
    } else {
        if let Some(r) = gbps("mao-ccs-rw") {
            add("mao_ccs_rd_gbps", r[0], Some(307.0), Some((270.0, 310.0)));
            add("mao_ccs_wr_gbps", r[1], Some(307.0), None);
            add("mao_ccs_both_gbps", r[2], Some(414.0), Some((380.0, 461.0)));
        }
        if let Some(r) = gbps("mao-ccra-rw") {
            add("mao_ccra_rd_gbps", r[0], Some(134.0), None);
            add("mao_ccra_wr_gbps", r[1], Some(144.0), None);
            add("mao_ccra_both_gbps", r[2], Some(266.0), None);
        }
        if let Some(r) = gbps("mao-reorder") {
            add("fig6_depth4_over_1", r[1] / r[0], None, Some((1.3, f64::INFINITY)));
            add("fig6_depth32_over_4", r[3] / r[1], None, Some((1.0, f64::INFINITY)));
            add("fig6_depth32_over_16", r[3] / r[2], None, Some((0.0, 1.5)));
        }
    }
    out
}

pub fn run(opts: &Opts, mao: bool, spans: &mut Spans) -> Outcome {
    let fid = if opts.smoke { Fidelity::QUICK } else { Fidelity::cycle(2_000, 6_000) };
    let ((jobs, cache), setup_s) = repeat_setup(opts.setups(), || {
        let jobs = design(mao, opts.smoke, opts.seed);
        // The result cache stays off: every point is simulated.
        let cache = ResultCache::disabled();
        let warm = jobs.iter().min_by_key(|j| (j.points.len(), j.name)).expect("design has jobs");
        run_grid_with_cache(&warm.points, fid.warmup, fid.cycles, 1, &cache);
        (jobs, cache)
    });
    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut checks = Vec::new();
    let (plain, first) = window(&jobs, &cache, fid, seconds, &mut Spans::new(false), &mut checks);
    let peak = peak_rss_mb();
    let traced = opts.trace.then(|| window(&jobs, &cache, fid, seconds, spans, &mut checks).0);

    // Re-run a seeded sample through `measure` directly, off the clock.
    let flat: Vec<(&GridPoint, &Measurement)> =
        jobs.iter().zip(&first).flat_map(|(j, rows)| j.points.iter().zip(rows)).collect();
    let mut rng = Rng::new(opts.seed, 2);
    let sample = rng.pick(flat.len(), if opts.smoke { 2 } else { 4 });
    let differ = sample
        .iter()
        .filter(|&&i| {
            let ((cfg, w), row) = flat[i];
            row_json(&measure(cfg, *w, fid.warmup, fid.cycles)) != row_json(row)
        })
        .count();
    checks.push(Check::new(
        "sample_matches_measure",
        differ == 0,
        format!("{} sampled points re-run through measure, {differ} differ", sample.len()),
    ));

    let by_name = |name: &str| jobs.iter().position(|j| j.name == name).map(|i| first[i].clone());
    let mut info = Metrics::default();
    let anchors = anchors(mao, &by_name);
    let mut errs = Vec::new();
    for a in &anchors {
        if let Some((lo, hi)) = a.range {
            let ok = (lo..hi).contains(&a.measured);
            checks.push(Check::new(
                format!("anchor.{}", a.name),
                ok,
                format!("{:.3} in [{lo}, {hi})", a.measured),
            ));
        }
        if let Some(p) = a.paper {
            errs.push(100.0 * (a.measured - p).abs() / p);
        }
    }
    if !mao && !opts.smoke {
        let p = latency_probe();
        let probes = [
            ("read_local", p.read_local, 48.0, (40.0, 58.0)),
            ("read_far", p.read_far, 72.0, (60.0, 90.0)),
            ("write_local", p.write_local, 17.0, (12.0, 26.0)),
            ("write_far", p.write_far, 41.0, (35.0, 60.0)),
        ];
        for (name, v, paper, (lo, hi)) in probes {
            checks.push(Check::new(
                format!("anchor.latency_{name}"),
                (lo..hi).contains(&v),
                format!("{v} in [{lo}, {hi})"),
            ));
            errs.push(100.0 * (v - paper).abs() / paper);
        }
    }
    if !errs.is_empty() {
        info.put("anchor_err_pct", mean(&errs), "%");
    }

    let layer_window = traced.as_ref().unwrap_or(&plain);
    let mut layers = Metrics::default();
    layers.put("batch.grid_ms", quantile(&layer_window.job_ms, 0.5), "ms");
    layers.put("cache.hit_ratio", 0.0, "fraction");
    layers.put("cache.coalesced", 0.0, "count");
    layers.put("gen.late_ms_max", layer_window.max_gap_ms, "ms");

    let rows: Vec<(GridPoint, Measurement)> =
        flat.iter().map(|(p, m)| ((*p).clone(), (*m).clone())).collect();
    let truth_idx = rng.pick(rows.len(), 48);
    Outcome {
        setup_s,
        plain,
        traced,
        checks,
        layers,
        info,
        sample: Sample {
            fidelity: fid,
            grids: jobs.iter().map(|j| j.points.clone()).collect(),
            truth: truth_idx.iter().map(|&i| rows[i].clone()).collect(),
            rows,
        },
        peak_rss_mb: peak,
    }
}
