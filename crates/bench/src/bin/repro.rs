//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--fidelity TIER] [--adaptive]
//!       [--json] [--smoke] [--jobs N] [--cache-dir DIR] [--no-cache]
//! repro serve [--addr HOST:PORT] [--queue N] [--jobs N] [--cache-dir DIR]
//!             [--no-cache] [--metrics-addr HOST:PORT] [--span-log FILE]
//! repro xvalidate [--quick] [--json] [--smoke] [--out PATH] [--jobs N]
//!
//! EXPERIMENT: fig2 fig3 fig4 fig5 fig6 fig7 table2 table3 table4 table5
//!             latency ablations trace profile xvalidate all
//!             (default: all; any other name exits 2 with this list)
//! Any flag the chosen command does not take (a typo such as `--quik`,
//! or an experiment flag given to `serve`) exits 2 with the usage.
//! --quick:    short simulation windows (CI-friendly)
//! --fidelity TIER: quick | full | analytical — the sweep fidelity.
//!             `analytical` answers every point from the calibrated
//!             closed-form model (DESIGN.md §3.9) instead of simulating;
//!             anything else exits 2 with usage. Overrides --quick.
//! --adaptive: multi-fidelity sweeps — evaluate each grid analytically
//!             first and escalate only the interesting regions (knees,
//!             collapses, envelope-untrusted families) to cycle
//!             accuracy. Escalated rows are byte-identical to a direct
//!             cycle run; the per-grid escalation report goes to stderr.
//! --json:     machine-readable output (one JSON object per experiment)
//! --smoke:    (trace/profile only) tiny run + validation, the CI gate
//! --jobs N:   worker threads for sweep farming (default: HBM_JOBS env
//!             var, else all cores). Results are bit-identical at any N.
//!             Must be a positive integer; anything else exits non-zero.
//! --cache-dir DIR: enable the content-addressed result cache with a
//!             disk tier under DIR (same as setting HBM_CACHE_DIR).
//!             Cached rows are byte-identical to fresh runs, so stdout
//!             diffs clean between a cold and a warm invocation; the
//!             hit/miss summary goes to stderr.
//! --no-cache: force the result cache off, overriding --cache-dir and
//!             HBM_CACHE_DIR. For `serve`, disables the memory-tier
//!             cache the daemon otherwise enables by default.
//! ```
//!
//! `trace`, `profile`, and `xvalidate` are not part of `all`: they
//! inspect the *simulator* rather than reproducing the paper.
//! `xvalidate` fits the analytical tier's calibration against the cycle
//! simulator on the pinned scenario lattice and reports the per-family
//! error envelopes, then walls the analytical tier on the pinned
//! 10 000-point grid against QUICK and FULL cycle runs; `--out PATH`
//! writes the versioned artifact (activate it with
//! `HBM_CALIBRATION=PATH`), `--smoke` gates every family's fitted p95
//! against the shipped envelope, the ≥ 100× speed-up over QUICK and a
//! real adaptive split (the CI leg), and it always writes
//! `BENCH_xvalidate.json`. `trace` writes `TRACE_events.json` (Chrome
//! trace-event JSON, loadable in Perfetto) and `TRACE_probes.jsonl`
//! (windowed time-series snapshots) and prints the latency-attribution
//! tables; `profile` prints the kernel phase-attribution table and the
//! cost of each observer (phase profiler, metric registry, lifecycle
//! tracer on nine busy scenarios) as the median on/off ratio over
//! alternating pairs with its interquartile range — `--smoke` asserts
//! the telescoping self-consistency invariant, that every phase lapped,
//! and the <5 % metrics-overhead budget.
//!
//! `serve` starts the long-running sweep-serving daemon (`hbm-serve`):
//! it binds `--addr` (default `127.0.0.1:7070`, port 0 for ephemeral),
//! prints one `{"serving":"HOST:PORT", ...}` ready line on stdout, and
//! accepts newline-delimited-JSON clients until one sends the
//! `shutdown` verb. `--queue` bounds the admission queue in grid points
//! (default 4096); submissions that would overflow it are rejected with
//! a `retry_after_ms` backpressure hint, and a grid with more points
//! than the whole queue is refused as too large, with `max_points` and
//! no hint. The daemon always enables the metric registry;
//! `--metrics-addr` additionally serves Prometheus text exposition over
//! plain HTTP (the ready line then carries a `"metrics"` field with the
//! bound address), and `--span-log FILE` appends one JSONL
//! job-lifecycle span per finished job. See
//! `examples/serve_client.rs` for a full client.

use hbm_bench::render;
use hbm_core::experiment::Fidelity;

/// Every experiment name `repro` accepts besides `serve`.
const EXPERIMENTS: &str = "fig2 fig3 fig4 fig5 fig6 fig7 table2 table3 table4 table5 latency \
                           ablations trace profile xvalidate all";

const USAGE: &str = "\
usage: repro [EXPERIMENT ...] [--quick] [--fidelity quick|full|analytical] [--adaptive]
             [--json] [--smoke] [--jobs N] [--cache-dir DIR] [--no-cache] [--out PATH]
       repro serve [--addr HOST:PORT] [--queue N] [--jobs N] [--cache-dir DIR]
             [--no-cache] [--metrics-addr HOST:PORT] [--span-log FILE]";

/// The flags the experiments take. A trailing `=` marks a flag that
/// takes a value, given as the next argument or after `=`.
const EXPERIMENT_FLAGS: [&str; 9] = [
    "--quick",
    "--json",
    "--smoke",
    "--adaptive",
    "--no-cache",
    "--fidelity=",
    "--jobs=",
    "--cache-dir=",
    "--out=",
];

/// The flags `serve` takes, marked as in [`EXPERIMENT_FLAGS`].
const SERVE_FLAGS: [&str; 7] = [
    "--no-cache",
    "--jobs=",
    "--cache-dir=",
    "--addr=",
    "--queue=",
    "--metrics-addr=",
    "--span-log=",
];

/// Prints `why`, the usage and the experiment names to stderr and exits 2.
fn usage_exit(why: &str) -> ! {
    eprintln!("repro: {why}");
    eprintln!("{USAGE}");
    eprintln!("EXPERIMENT: {EXPERIMENTS}");
    std::process::exit(2);
}

/// The command line split into positional arguments and flags. Each
/// flag is its [`EXPERIMENT_FLAGS`]/[`SERVE_FLAGS`] entry plus its value;
/// a flag given twice keeps its last value.
struct Cli<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Cli<'a> {
    /// Splits `args`, exiting 2 with the usage on a flag no command
    /// takes, a value flag without its value, or a value on a switch.
    /// The caller checks the flags against the chosen command.
    fn parse(args: &'a [String]) -> Cli<'a> {
        let mut cli = Cli { positional: Vec::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                cli.positional.push(a);
                continue;
            }
            let (name, inline) = match a.split_once('=') {
                Some((name, v)) => (name, Some(v)),
                None => (a.as_str(), None),
            };
            let Some(&spec) = EXPERIMENT_FLAGS
                .iter()
                .chain(&SERVE_FLAGS)
                .find(|f| f.trim_end_matches('=') == name)
            else {
                usage_exit(&format!("unknown flag {a:?}"));
            };
            let value = match (spec.ends_with('='), inline) {
                (true, Some(v)) => Some(v),
                (true, None) => match it.next() {
                    Some(v) => Some(v.as_str()),
                    None => usage_exit(&format!("{name} requires a value")),
                },
                (false, Some(_)) => usage_exit(&format!("{name} takes no value")),
                (false, None) => None,
            };
            cli.flags.push((spec, value));
        }
        cli
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.trim_end_matches('=') == name)
    }

    /// The last value given for the value flag `name`.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|(f, _)| f.trim_end_matches('=') == name).and_then(|(_, v)| *v)
    }
}

/// Profiles the cycle kernel and times every observer. `--smoke` is the
/// CI gate: it asserts the telescoping self-consistency invariant (phase
/// sums ≡ measured loop time), that every phase lapped, and the
/// metrics-registry overhead budget on the median of the pairs.
fn run_profile(quick: bool, json: bool, smoke: bool) {
    use hbm_bench::profilecmd;
    // Smoke always runs quick-sized windows — it gates CI, not numbers.
    let out = profilecmd::run_profile(quick || smoke);
    if smoke {
        let report = &out.report;
        assert!(report.consistent(), "phase attribution must telescope to the measured loop time");
        assert!(report.laps > 0, "kernel recorded no laps");
        for p in hbm_core::PHASES {
            assert!(report.ns(p) > 0, "phase {} recorded no time", p.name());
        }
        let m = &out.metrics;
        assert!(
            m.median_pct < 5.0,
            "metrics registry overhead {:.2}% [{:.2}, {:.2}] over {} pairs breaches the 5% budget",
            m.median_pct,
            m.q1_pct,
            m.q3_pct,
            m.pairs
        );
    }
    if json {
        println!(
            "{}",
            serde_json::json!({ "experiment": "profile", "profile": profilecmd::to_json(&out) })
        );
    } else {
        println!("{}", profilecmd::render(&out));
        if smoke {
            println!("profile smoke: OK (kernel consistent, metrics overhead in budget)");
        }
    }
}

/// Runs the sweep-serving daemon until a client sends `shutdown`.
fn run_serve(cli: &Cli) {
    use hbm_serve::{MetricsExposer, ServeConfig, Server, WireServer};

    let addr = cli.value("--addr").unwrap_or("127.0.0.1:7070");
    let queue_capacity = cli.value("--queue").map_or(4_096, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--queue: invalid point count {v:?}");
            std::process::exit(2);
        })
    });
    let metrics_addr = cli.value("--metrics-addr");
    let span_log = cli.value("--span-log").map(std::path::PathBuf::from);

    let workers = hbm_core::batch::sweep_jobs();
    let server =
        Server::spawn(ServeConfig { workers, queue_capacity, span_log, ..ServeConfig::default() });
    let wire = WireServer::bind(addr, server.handle()).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let exposer = metrics_addr.map(|a| {
        MetricsExposer::bind(a).unwrap_or_else(|e| {
            eprintln!("serve: cannot bind metrics listener {a}: {e}");
            std::process::exit(1);
        })
    });
    // One machine-readable ready line; the smoke script and clients key
    // off it. Flush explicitly — stdout is block-buffered under a pipe.
    let mut ready = serde_json::json!({
        "serving": wire.local_addr().to_string(),
        "workers": workers,
        "queue_capacity": queue_capacity,
    });
    if let (serde_json::Value::Map(fields), Some(e)) = (&mut ready, &exposer) {
        fields.push(("metrics".to_string(), serde_json::Value::Str(e.local_addr().to_string())));
    }
    println!("{ready}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    wire.run_until_shutdown();
    if let Some(e) = exposer {
        e.stop();
    }
    server.shutdown();
    report_cache();
    println!("serve: shut down");
}

/// Runs the traced scenario, writes `TRACE_events.json` and
/// `TRACE_probes.jsonl`, and prints the attribution report.
fn run_trace(smoke: bool, quick: bool, json: bool) {
    let out = hbm_bench::tracecmd::run_trace(smoke, quick);
    std::fs::write("TRACE_events.json", &out.trace_json).expect("write TRACE_events.json");
    std::fs::write("TRACE_probes.jsonl", &out.probes).expect("write TRACE_probes.jsonl");
    if json {
        println!("{}", serde_json::json!({ "experiment": "trace", "delivered": out.delivered }));
    } else {
        println!("{}", out.report);
        println!("wrote TRACE_events.json + TRACE_probes.jsonl");
    }
}

/// Parses a `--jobs` value through the one shared validator, exiting
/// loudly (and non-zero) on anything that is not a positive integer.
fn parse_jobs_or_die(v: &str) -> usize {
    hbm_core::batch::parse_jobs(v).unwrap_or_else(|e| {
        eprintln!("--jobs: {e}");
        eprintln!("usage: --jobs N (N a positive integer)");
        std::process::exit(2);
    })
}

/// Parses a `--fidelity` value, exiting 2 with usage on anything that is
/// not one of the three stable tier names.
fn parse_fidelity_or_die(v: &str) -> Fidelity {
    match v {
        "quick" => Fidelity::QUICK,
        "full" => Fidelity::FULL,
        "analytical" => Fidelity::ANALYTICAL,
        other => {
            eprintln!("--fidelity: unknown tier {other:?}");
            eprintln!("usage: --fidelity quick|full|analytical");
            std::process::exit(2);
        }
    }
}

/// Fits and cross-validates the analytical tier (`repro xvalidate`).
fn run_xvalidate(fid: Fidelity, quick: bool, json: bool, smoke: bool, out_path: Option<&str>) {
    use hbm_bench::xvalidate;
    // The calibration is fitted against cycle windows; an analytical
    // fidelity here would fit the model against itself.
    let fid = if fid.is_analytical() { Fidelity::QUICK } else { fid };
    let out = xvalidate::run_xvalidate(fid, quick);
    let payload = xvalidate::to_json(&out);
    std::fs::write("BENCH_xvalidate.json", format!("{payload}\n"))
        .expect("write BENCH_xvalidate.json");
    if let Some(path) = out_path {
        std::fs::write(path, format!("{}\n", out.calibration.to_json())).unwrap_or_else(|e| {
            eprintln!("xvalidate: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("xvalidate: wrote calibration artifact to {path}");
    }
    if json {
        println!("{payload}");
    } else {
        println!("{}", xvalidate::render(&out));
        eprintln!("{}", xvalidate::render_builtin_rows(&out.calibration));
        println!("wrote BENCH_xvalidate.json");
    }
    if smoke {
        let violations = xvalidate::smoke_violations(&out);
        if !violations.is_empty() {
            eprintln!("xvalidate smoke: gate FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        println!(
            "xvalidate smoke: OK ({} families within the shipped p95 envelope; \
             analytical tier {:.0}x faster than QUICK; {:.1}% of the adaptive \
             sub-sweep escalated)",
            out.calibration.families.len(),
            out.floor.speedup_vs_quick,
            100.0 * out.floor.adaptive_escalation_fraction
        );
    }
}

/// Flushes the global result cache and prints a one-line hit/miss
/// summary — to stderr only, so a cold and a warm invocation produce
/// byte-identical stdout.
fn report_cache() {
    let cache = hbm_core::ResultCache::global();
    if !cache.is_enabled() {
        return;
    }
    if let Err(e) = cache.flush() {
        eprintln!("hbm-cache: flush failed: {e}");
    }
    let s = cache.snapshot();
    eprintln!(
        "hbm-cache: {} hits, {} misses, {} coalesced; {} entries in memory{}",
        s.hits,
        s.misses,
        s.coalesced,
        s.entries,
        match &s.disk_dir {
            Some(d) => format!(", disk tier at {d}"),
            None => String::new(),
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args);
    let serve = cli.positional.first() == Some(&"serve");
    let (command, takes) = if serve {
        ("serve", &SERVE_FLAGS[..])
    } else {
        ("the experiments", &EXPERIMENT_FLAGS[..])
    };
    if let Some((flag, _)) = cli.flags.iter().find(|(f, _)| !takes.contains(f)) {
        usage_exit(&format!("{} is not a flag of {command}", flag.trim_end_matches('=')));
    }
    let quick = cli.has("--quick");
    let json = cli.has("--json");
    let smoke = cli.has("--smoke");
    let no_cache = cli.has("--no-cache");
    let jobs_value = cli.value("--jobs").map(parse_jobs_or_die);
    let fidelity_value = cli.value("--fidelity").map(parse_fidelity_or_die);
    let cache_dir = cli.value("--cache-dir");
    let out_path = cli.value("--out");
    // --fidelity wins over --quick; --adaptive turns every run_all grid
    // into an analytical-first multi-fidelity sweep.
    let fid = fidelity_value.unwrap_or(if quick { Fidelity::QUICK } else { Fidelity::FULL });
    if cli.has("--adaptive") {
        hbm_core::experiment::set_adaptive(true);
    }
    if let Some(jobs) = jobs_value {
        hbm_core::batch::set_sweep_jobs(jobs);
    }
    // Cache policy: --no-cache wins over everything; --cache-dir enables
    // the global cache with a disk tier (HBM_CACHE_DIR already did the
    // same at first use if it was set).
    let cache = hbm_core::ResultCache::global();
    if no_cache {
        cache.disable();
    } else if let Some(dir) = cache_dir {
        cache.set_dir(dir);
        cache.enable();
    }
    if serve {
        if let Some(extra) = cli.positional.get(1) {
            usage_exit(&format!("serve takes no experiment, got {extra:?}"));
        }
        // The daemon defaults the memory-tier cache on: repeated or
        // overlapping client grids are exactly what it exists to absorb.
        if !no_cache {
            cache.enable();
        }
        run_serve(&cli);
        return;
    }
    let mut wanted = cli.positional;
    if wanted.is_empty() {
        wanted.push("all");
    }
    if let Some(bad) = wanted.iter().find(|w| !EXPERIMENTS.split_whitespace().any(|e| e == **w)) {
        usage_exit(&format!("unknown experiment {bad:?}"));
    }
    let all = wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);

    // Tracing, profiling, and calibration cross-validation are opt-in
    // only (not part of `all`).
    if wanted.contains(&"xvalidate") {
        run_xvalidate(fid, quick, json, smoke, out_path);
        if wanted.len() == 1 {
            report_cache();
            return;
        }
    }
    if wanted.contains(&"trace") {
        run_trace(smoke, quick, json);
        if wanted.len() == 1 {
            report_cache();
            return;
        }
    }
    if wanted.contains(&"profile") {
        run_profile(quick, json, smoke);
        if wanted.len() == 1 {
            report_cache();
            return;
        }
    }

    if json {
        hbm_bench::json::run_json(fid, want, &mut std::io::stdout()).expect("write to stdout");
        report_cache();
        return;
    }

    println!(
        "Reproduction of \"Fast HBM Access with FPGAs: Analysis, Architectures,\n\
         and Applications\" (IPDPSW'21) — simulated XCVU37P HBM subsystem\n\
         fidelity: {}\n",
        if fid.is_analytical() {
            "analytical (calibrated closed-form model, DESIGN.md §3.9)".to_string()
        } else {
            format!("warmup {} + measure {} cycles @300 MHz", fid.warmup, fid.cycles)
        }
    );

    if want("fig2") {
        println!("{}", render::render_fig2(fid));
    }
    if want("fig3") {
        println!("{}", render::render_fig3(fid));
    }
    if want("fig4") {
        println!("{}", render::render_fig4(fid));
        println!("{}", render::render_fig4b(fid, 4));
    }
    if want("table2") {
        println!("{}", render::render_table2(fid));
    }
    if want("table3") {
        println!("{}", render::render_table3());
    }
    if want("table4") {
        println!("{}", render::render_table4(fid));
    }
    if want("fig5") {
        println!("{}", render::render_fig5(fid));
    }
    if want("fig6") {
        println!("{}", render::render_fig6(fid));
    }
    if want("fig7") || want("table5") {
        println!("{}", render::render_fig7_table5(fid));
    }
    if want("latency") {
        println!("{}", render::render_latency_probe());
    }
    if want("ablations") {
        println!("{}", render::render_ablations(fid));
        println!("{}", render::render_mixed(fid));
    }
    report_cache();
}
