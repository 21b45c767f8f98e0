//! Golden test for the serve wire protocol: a scripted NDJSON session —
//! submit, subscribe, status, cancel, error paths, stats — whose every
//! line is pinned in `tests/golden/serve_session.jsonl`.
//!
//! The golden file records the full conversation: `>` lines are what
//! the client sent, `<` lines are what the server answered, with
//! wall-clock-dependent fields (latencies, utilisation) normalised to
//! `null` so the transcript is stable across machines. Everything else
//! — verb grammar, field names and order, row payloads, measurement
//! bytes, error messages — must match exactly; any wire-format change
//! shows up as a diff here first.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test serve_golden
//! ```

use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::SystemConfig;
use hbm_fpga::serve::{Client, JobSpec, ServeConfig, Server, WireServer};
use hbm_fpga::traffic::Workload;
use serde::value::Value;

const GOLDEN: &str = "tests/golden/serve_session.jsonl";

/// Keys whose values depend on wall-clock time, normalised to `null`.
const VOLATILE_KEYS: &[&str] = &[
    "uptime_ms",
    "worker_utilisation",
    "queue_wait_ms",
    "run_ms",
    "mean_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "max_us",
];

fn normalise(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            for (k, val) in entries.iter_mut() {
                if VOLATILE_KEYS.contains(&k.as_str()) {
                    *val = Value::Null;
                } else {
                    normalise(val);
                }
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(normalise),
        _ => {}
    }
}

/// Normalises one received JSON line (non-JSON lines pass through).
fn normalise_line(line: &str) -> String {
    match serde_json::from_str::<Value>(line) {
        Ok(mut v) => {
            normalise(&mut v);
            v.to_string()
        }
        Err(_) => line.to_string(),
    }
}

/// The deterministic session script: a fixed 2-point job on a paused-
/// free single worker, driven through every verb and the error paths.
fn run_session() -> Vec<String> {
    // One worker → points complete in index order → a deterministic
    // event stream. A private enabled cache pins the `cache` verb's
    // grammar (and the cache section of `stats`) with live counters.
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_capacity: 64,
        cache: Some(hbm_fpga::serve::ResultCache::new()),
        ..ServeConfig::default()
    });
    let wire = WireServer::bind("127.0.0.1:0", server.handle()).expect("bind loopback");
    let mut client = Client::connect(&wire.local_addr().to_string()).expect("connect");

    let fid = Fidelity::cycle(100, 400);
    let points = vec![
        (SystemConfig::xilinx(), Workload::scs()),
        (
            SystemConfig::xilinx(),
            Workload { rotation: 2, burst: BurstLen::of(2), stride: 64, ..Workload::scs() },
        ),
    ];
    let spec = JobSpec::new("golden", fid, points);
    let spec_json = serde_json::to_string(&spec).unwrap();

    let mut transcript = Vec::new();
    fn exchange(transcript: &mut Vec<String>, client: &mut Client, send: String) {
        let reply = client.call_raw(&send).expect("protocol exchange");
        transcript.push(format!("> {send}"));
        transcript.push(format!("< {}", normalise_line(&reply)));
    }

    exchange(&mut transcript, &mut client, format!(r#"{{"verb":"submit","spec":{spec_json}}}"#));
    // Subscribe streams multiple lines: the ok, one row per point, the
    // end marker.
    let send = r#"{"verb":"subscribe","job":1}"#.to_string();
    let first = client.call_raw(&send).expect("subscribe reply");
    transcript.push(format!("> {send}"));
    transcript.push(format!("< {}", normalise_line(&first)));
    loop {
        let line = client.read_raw_line().expect("stream line");
        let is_end = line.contains(r#""event":"end""#);
        transcript.push(format!("< {}", normalise_line(&line)));
        if is_end {
            break;
        }
    }
    exchange(&mut transcript, &mut client, r#"{"verb":"status","job":1}"#.to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"cancel","job":1}"#.to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"status","job":999}"#.to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"warp"}"#.to_string());
    exchange(&mut transcript, &mut client, "this is not json".to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"stats"}"#.to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"cache"}"#.to_string());
    exchange(&mut transcript, &mut client, r#"{"verb":"cache","clear":true}"#.to_string());

    wire.stop();
    server.shutdown();
    transcript
}

#[test]
fn wire_session_matches_golden_transcript() {
    let got = run_session().join("\n") + "\n";
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden transcript");
        eprintln!("regenerated {GOLDEN}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden transcript exists (REGEN_GOLDEN=1 to create)");
    assert_eq!(
        got, want,
        "wire transcript diverged from {GOLDEN}; if the protocol change is \
         intentional, regenerate with REGEN_GOLDEN=1"
    );
}
