//! Runs every workload at smoke size, plain and traced, and holds the
//! result line to `BENCHMARK.json`: every metric named there is emitted
//! with its unit, no other metric is, and every check passes.

use std::process::Command;

use serde_json::Value;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = spec();
    for workload in seq(&spec, "workloads").iter().map(|w| str_field(w, "name")) {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
            let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert!(
                matches!(result.get("correct"), Some(Value::Bool(true))),
                "{workload}: {stdout}"
            );
            assert!(matches!(result.get("failed"), Some(Value::U64(0))), "{workload}: {stdout}");
            assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1));
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("no metrics: {stdout}")
            };
            let expected = seq(&spec, section);
            for m in expected {
                let name = str_field(m, "name");
                let got = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                let got =
                    got.unwrap_or_else(|| panic!("{workload} --trace {trace}: `{name}` missing"));
                assert_eq!(
                    str_field(got, "unit"),
                    str_field(m, "unit"),
                    "{workload}: unit of `{name}`"
                );
                assert!(
                    matches!(got.get("value"), Some(Value::F64(_))),
                    "{workload}: `{name}` has no number"
                );
            }
            assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}: extra metrics");
        }
    }
}
