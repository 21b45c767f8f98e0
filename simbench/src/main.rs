//! `simbench`: end-to-end and per-layer benchmark of the HBM simulator.
//!
//! ```text
//! simbench run <workload> [--seed N] [--seconds S] [--trace] [--smoke]
//! simbench --workload <workload> --seed N --seconds S --trace 0|1
//! simbench record --workload <workload|all> --runs N --seed S --out FILE [--seconds S] [--trace]
//! simbench compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, one check per line,
//! and as its last line one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (or, with `--trace`, the
//! per-layer metrics). It exits non-zero if a check fails.

mod bench;
mod compare;
mod explore;
mod layers;
mod serve;
mod spans;
mod sweep;

use std::process::ExitCode;

use hbm_core::export::validate_chrome_trace;
use serde_json::Value;

use bench::{mean, out_dir, Check, Metrics, Opts, Outcome, Rng};
use spans::Spans;

pub const WORKLOADS: [&str; 4] = ["sweep_xilinx", "sweep_mao", "serve_mix", "explore_adaptive"];

const USAGE: &str = "usage: simbench run <workload> [--seed N] [--seconds S] [--trace] [--smoke]\n\
       simbench --workload <workload> --seed N --seconds S --trace 0|1\n\
       simbench record --workload <workload|all> --runs N --seed S --out FILE [--seconds S] [--trace]\n\
       simbench compare A.json B.json\n\
workloads: sweep_xilinx sweep_mao serve_mix explore_adaptive";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 1, seconds: 20.0, trace: false, smoke: false };
    let mut it = args.iter().peekable();
    if it.peek().map(|a| a.as_str()) == Some("run") {
        it.next();
        opts.workload = it.next().ok_or("run needs a workload")?.clone();
    }
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => opts.workload = value(a)?,
            "--seed" => opts.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

/// Runs the per-layer probes a workload did not cover itself.
fn probe_layers(opts: &Opts, out: &mut Outcome, spans: &mut Spans) -> std::io::Result<Metrics> {
    let mut m = std::mem::take(&mut out.layers);
    let fid = out.sample.fidelity;
    let mut rng = Rng::new(opts.seed, 40);
    let k = if opts.smoke { 2 } else { 8 };
    let picked: Vec<_> = rng
        .pick(out.sample.rows.len(), k)
        .into_iter()
        .map(|i| out.sample.rows[i].0.clone())
        .collect();
    m.fill_from(layers::kernel(&picked, spans, &mut out.checks));
    m.fill_from(layers::cache(&out.sample.rows, fid, spans, &mut out.checks));
    m.fill_from(layers::analytic(&out.sample.grids, &out.sample.truth, fid, spans));
    if !m.has("wire.submit_rtt_ms") {
        m.fill_from(serve::probe(&picked, spans)?);
    }
    let traced = out.traced.as_ref().expect("traced runs have a traced window");
    let (plain_ms, traced_ms) = (mean(&out.plain.job_ms), mean(&traced.job_ms));
    m.put("trace.overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms, "%");
    Ok(m)
}

fn e2e(out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put("points_per_s", out.plain.points_per_s(), "points/s");
    m.put("job_p50_ms", out.plain.job_p(0.5), "ms");
    m.put("job_p95_ms", out.plain.job_p(0.95), "ms");
    m.put("setup_s", out.setup_s, "s");
    m.put("peak_rss_mb", out.peak_rss_mb, "MB");
    m
}

fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

fn print_metrics(kind: &str, m: &Metrics) {
    for x in &m.0 {
        println!("{kind} {} = {} {}", x.name, x.value, x.unit);
    }
}

fn run(opts: &Opts) -> std::io::Result<bool> {
    let mut spans = Spans::new(opts.trace);
    let mut out = match opts.workload.as_str() {
        "sweep_xilinx" => sweep::run(opts, false, &mut spans),
        "sweep_mao" => sweep::run(opts, true, &mut spans),
        "serve_mix" => serve::run(opts, &mut spans)?,
        _ => explore::run(opts, &mut spans),
    };
    let e2e = e2e(&out);
    let reported = if opts.trace {
        let m = probe_layers(opts, &mut out, &mut spans)?;
        std::fs::create_dir_all(out_dir())?;
        let path = out_dir().join(format!("{}.trace.json", opts.workload));
        let json = spans.chrome_json(&opts.workload);
        std::fs::write(&path, &json)?;
        let valid = validate_chrome_trace(&json);
        out.checks.push(Check::new(
            "trace_file_valid",
            valid.is_ok(),
            format!("{}: {valid:?}", path.display()),
        ));
        for (name, n, total, own) in spans.summary() {
            println!("span {name}: n={n} total_ms={total:.3} self_ms={own:.3}");
        }
        m
    } else {
        e2e.clone()
    };
    let non_finite: Vec<&str> =
        reported.0.iter().filter(|x| !x.value.is_finite()).map(|x| x.name.as_str()).collect();
    out.checks.push(Check::new(
        "metrics_finite",
        non_finite.is_empty(),
        format!("not finite: {non_finite:?}"),
    ));

    print_metrics("e2e", &e2e);
    if opts.trace {
        print_metrics("layer", &reported);
    }
    print_metrics("info", &out.info);
    println!("info jobs = {} count", out.plain.job_ms.len());
    for c in &out.checks {
        println!("check {}: {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }

    let windows = [Some(&out.plain), out.traced.as_ref()];
    let ops: u64 = windows.iter().flatten().map(|w| w.ops).sum();
    let failed_ops: u64 = windows.iter().flatten().map(|w| w.failed).sum();
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    let attempted = ops + out.checks.len() as u64;
    let failed = failed_ops + failed_checks;
    let correct = failed == 0;
    let metrics = Value::Map(
        reported
            .0
            .iter()
            .map(|x| {
                let v = Value::Map(vec![
                    ("value".into(), num(x.value)),
                    ("unit".into(), Value::Str(x.unit.into())),
                ]);
                (x.name.clone(), v)
            })
            .collect(),
    );
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("record") => compare::record(&args[1..]),
        _ => match parse(&args) {
            Err(e) => {
                eprintln!("simbench: {e}\n{USAGE}");
                2
            }
            Ok(opts) => match run(&opts) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("simbench: {} failed: {e}", opts.workload);
                    1
                }
            },
        },
    };
    ExitCode::from(code)
}
