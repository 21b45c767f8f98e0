//! Golden test for the Prometheus exposition: the *schema* of the
//! workspace registry — every `# HELP`/`# TYPE` line plus every distinct
//! `{name, labels}` series the built-in installers and a running serve
//! scheduler register — is pinned in `tests/golden/metrics_exposition.txt`.
//!
//! Values are deliberately not pinned (counters count, walls vary); the
//! schema is the contract a dashboard or scrape config is written
//! against, so a renamed series, a dropped label, or a type change shows
//! up as a diff here first. The test also structurally validates the
//! exposition (HELP-before-TYPE, cumulative `le` buckets ending in
//! `+Inf`, `_sum`/`_count` after every histogram) and drives the serve
//! `metrics` and `spans` wire verbs end to end.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test metrics_golden
//! ```

use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::SystemConfig;
use hbm_fpga::serve::{Client, JobSpec, ServeConfig, Server, WireServer};
use hbm_fpga::traffic::Workload;

const GOLDEN: &str = "tests/golden/metrics_exposition.txt";

/// Runs one tiny job through a wire server so every lazily-registered
/// series (serve owned counters, depth gauges, run/kernel-phase series)
/// exists, then returns the `metrics` verb's exposition and the
/// `spans` verb's entries.
fn scrape_after_session() -> (String, usize) {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_capacity: 64,
        cache: Some(hbm_fpga::serve::ResultCache::new()),
        ..ServeConfig::default()
    });
    let wire = WireServer::bind("127.0.0.1:0", server.handle()).expect("bind loopback");
    let mut client = Client::connect(&wire.local_addr().to_string()).expect("connect");

    let fid = Fidelity::cycle(100, 400);
    let spec = JobSpec::new("metrics-golden", fid, vec![(SystemConfig::xilinx(), Workload::scs())]);
    let job = client.submit(&spec).expect("submit").expect("admitted");
    let (rows, _) = client.collect(job).expect("stream").expect("known job");
    assert_eq!(rows.len(), 1);

    // Publish one profiled window so the phase counters carry the full
    // label space before the scrape.
    hbm_fpga::core::profile::begin(hbm_fpga::core::profile::Kernel::Scalar);
    hbm_fpga::core::profile::end();

    let exposition = client.metrics().expect("metrics verb");
    let spans = client.spans().expect("spans verb");
    let our_spans = spans.iter().filter(|s| s.name == "metrics-golden").count();
    assert!(our_spans >= 1, "finished job must leave a lifecycle span");

    wire.stop();
    server.shutdown();
    (exposition, our_spans)
}

/// Reduces an exposition to its schema: `#` lines verbatim, sample lines
/// to `name{labels}` with the value dropped. Finite-`le` bucket lines
/// are elided entirely — the renderer emits buckets up to the highest
/// observed value, so their edges depend on wall-clock latencies; the
/// `+Inf` line pins each histogram's label space instead.
fn schema_of(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
            if series.contains("le=\"") && !series.contains("le=\"+Inf\"") {
                continue;
            }
            out.push_str(series);
        }
        out.push('\n');
    }
    out
}

/// Structural validation of the text format itself.
fn validate(exposition: &str) {
    let mut current: Option<&str> = None; // family whose TYPE we've seen
    let mut last_help: Option<&str> = None;
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            last_help = rest.split(' ').next();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().expect("TYPE has a name");
            assert_eq!(last_help, Some(name), "HELP must precede TYPE for {name}");
            let kind = rest.split(' ').nth(1).expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind} for {name}"
            );
            current = Some(name);
        } else if !line.is_empty() {
            let fam = current.expect("sample line before any TYPE");
            let series = line.rsplit_once(' ').map(|(s, _)| s).expect("sample has a value");
            let base = series.split('{').next().unwrap();
            assert!(
                base == fam
                    || (base.strip_suffix("_bucket") == Some(fam)
                        || base.strip_suffix("_sum") == Some(fam)
                        || base.strip_suffix("_count") == Some(fam)),
                "sample {series} outside its family {fam}"
            );
            let value = line.rsplit_once(' ').unwrap().1;
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
    }
    // Histogram shape: every bucket run is cumulative and ends with +Inf
    // followed by _sum and _count.
    let lines: Vec<&str> = exposition.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.contains("le=\"+Inf\"") {
            let sum_line = lines.get(i + 1).unwrap_or(&"");
            let count_line = lines.get(i + 2).unwrap_or(&"");
            assert!(sum_line.contains("_sum"), "+Inf bucket not followed by _sum: {line}");
            assert!(count_line.contains("_count"), "_sum not followed by _count: {line}");
            let inf: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            let count: f64 = count_line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert_eq!(inf, count, "+Inf bucket must equal _count: {line}");
        }
    }
}

#[test]
fn exposition_schema_matches_golden() {
    let (exposition, _) = scrape_after_session();
    validate(&exposition);
    assert!(exposition.contains("# TYPE hbm_cache_hits_total counter"));
    assert!(exposition.contains("# TYPE hbm_kernel_phase_ns_total counter"));
    assert!(exposition.contains("# TYPE hbm_serve_queue_wait_us histogram"));
    assert!(exposition.contains("hbm_serve_jobs_total{state=\"submitted\"}"));

    let got = schema_of(&exposition);
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden schema");
        eprintln!("regenerated {GOLDEN}");
        return;
    }
    let want =
        std::fs::read_to_string(GOLDEN).expect("golden schema exists (REGEN_GOLDEN=1 to create)");
    assert_eq!(
        got, want,
        "exposition schema diverged from {GOLDEN}; if the series change is \
         intentional, regenerate with REGEN_GOLDEN=1"
    );
}
