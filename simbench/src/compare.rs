//! `record` collects the result lines of repeated runs into a file with
//! host information; `compare` judges two such files against each other
//! by alternating pairs.
//!
//! A gain is claimed only when the second file wins at least nine tenths
//! of the pairs and the medians differ by more than the first file's
//! interquartile range. A metric whose spread exceeds its bound is
//! reported as unresolved, unless every run of one side beats every run
//! of the other.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::bench::{num_at, quantile};
use crate::WORKLOADS;

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Map(vec![("nproc".into(), Value::U64(nproc)), ("cpu_model".into(), Value::Str(cpu))])
}

/// Writes `host` and `runs` with one run per line, so files diff well.
fn write_runs(path: &Path, host: &Value, runs: &[Value]) -> std::io::Result<()> {
    let body: Vec<String> = runs.iter().map(|r| format!("    {r}")).collect();
    std::fs::write(
        path,
        format!("{{\n  \"host\": {host},\n  \"runs\": [\n{}\n  ]\n}}\n", body.join(",\n")),
    )
}

pub fn record(args: &[String]) -> u8 {
    let (mut workload, mut runs, mut seed, mut seconds, mut trace, mut out) =
        (None, 10usize, 1u64, "20".to_string(), false, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = match a.as_str() {
            "--trace" => {
                trace = true;
                continue;
            }
            _ => it.next(),
        };
        let Some(v) = v else {
            eprintln!("simbench record: {a} needs a value");
            return 2;
        };
        let parsed = match a.as_str() {
            "--workload" => {
                workload = Some(v.clone());
                true
            }
            "--runs" => v.parse().map(|n| runs = n).is_ok(),
            "--seed" => v.parse().map(|n| seed = n).is_ok(),
            "--seconds" => v.parse::<f64>().map(|_| seconds = v.clone()).is_ok(),
            "--out" => {
                out = Some(PathBuf::from(v));
                true
            }
            _ => false,
        };
        if !parsed {
            eprintln!("simbench record: bad argument `{a} {v}`");
            return 2;
        }
    }
    let (Some(workload), Some(out)) = (workload, out) else {
        eprintln!("simbench record: --workload and --out are required");
        return 2;
    };
    let workloads: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    let (host, mut all) = match read_json(&out) {
        Ok(v) => match (v.get("host"), v.get("runs")) {
            (Some(h), Some(Value::Seq(r))) => (h.clone(), r.clone()),
            _ => {
                eprintln!("simbench record: {} is not a runs file", out.display());
                return 2;
            }
        },
        Err(_) => (host(), Vec::new()),
    };
    let exe = std::env::current_exe().expect("the running executable has a path");
    for i in 0..runs {
        for w in &workloads {
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string(), "--seconds", &seconds])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output();
            let line = output
                .ok()
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().last().map(str::to_string))
                .and_then(|l| serde_json::from_str::<Value>(&l).ok());
            let Some(result) = line else {
                eprintln!("simbench record: run {i} of {w} printed no result");
                return 1;
            };
            eprintln!("simbench record: {w} run {} of {runs}: {result}", i + 1);
            all.push(Value::Map(vec![
                ("workload".into(), Value::Str(w.to_string())),
                ("seed".into(), Value::U64(seed)),
                ("trace".into(), Value::Bool(trace)),
                ("result".into(), result),
            ]));
            if let Err(e) = write_runs(&out, &host, &all) {
                eprintln!("simbench record: {}: {e}", out.display());
                return 1;
            }
        }
    }
    0
}

/// Per workload and metric, the values of one file's runs in run order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series(file: &Value) -> Series {
    let mut out = Series::new();
    let Some(Value::Seq(runs)) = file.get("runs") else { return out };
    for run in runs {
        let (Some(Value::Str(w)), Some(Value::Map(metrics))) =
            (run.get("workload"), run.get("result").and_then(|r| r.get("metrics")))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = num_at(m, &["value"]) {
                out.entry((w.clone(), name.clone())).or_default().push(v);
            }
        }
    }
    out
}

/// Direction and bound of every metric named in `BENCHMARK.json`.
fn directions() -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let spec = read_json(&benchmark_json())?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        if let Some(Value::Seq(ms)) = spec.get(section) {
            for m in ms {
                if let (Some(Value::Str(name)), Some(Value::Str(better))) =
                    (m.get("name"), m.get("better"))
                {
                    out.insert(name.clone(), (better == "higher", num_at(m, &["bound"])));
                }
            }
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload, `a` the parent and `b` the
/// change, both in run order so that `a[i]` and `b[i]` form a pair.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: Option<f64>) -> String {
    let better = |x: f64, y: f64| if higher_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let iqr = |v: &[f64]| quantile(v, 0.75) - quantile(v, 0.25);
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    if pairs < 10 {
        return format!("too few pairs ({pairs} < 10)");
    }
    if let Some(bound) = bound {
        let spread = (iqr(a) / ma.abs()).max(iqr(b) / mb.abs());
        if spread > bound && !all_better && !all_worse {
            return format!(
                "unresolved (spread {:.1} % > bound {:.1} %)",
                100.0 * spread,
                100.0 * bound
            );
        }
        let worse_by = if higher_better { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
        if worse_by > bound {
            return format!(
                "REGRESSION ({:.1} % worse > bound {:.1} %)",
                100.0 * worse_by,
                100.0 * bound
            );
        }
    }
    if 10 * wins >= 9 * pairs && better(mb, ma) && (mb - ma).abs() > iqr(a) {
        return format!("gain ({wins}/{pairs} pairs won)");
    }
    if bound.is_some() {
        format!("no change within bound ({wins}/{pairs} pairs won)")
    } else {
        format!("no claim ({wins}/{pairs} pairs won)")
    }
}

pub fn compare(args: &[String]) -> u8 {
    let [a, b] = args else {
        eprintln!("usage: simbench compare A.json B.json");
        return 2;
    };
    let loaded =
        (|| Ok::<_, String>((read_json(Path::new(a))?, read_json(Path::new(b))?, directions()?)))();
    let (fa, fb, dirs) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("simbench compare: {e}");
            return 2;
        }
    };
    let (sa, sb) = (series(&fa), series(&fb));
    println!(
        "{:<17} {:<28} {:>30} {:>30}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    let mut regressed = false;
    for ((w, name), va) in &sa {
        let Some(vb) = sb.get(&(w.clone(), name.clone())) else { continue };
        let (higher, bound) = dirs.get(name).copied().unwrap_or((false, None));
        let v = verdict(va, vb, higher, bound);
        regressed |= v.starts_with("REGRESSION");
        let q = |s: &[f64]| {
            format!("{:.4} [{:.4}, {:.4}]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
        };
        println!("{w:<17} {name:<28} {:>30} {:>30}  {v}", q(va), q(vb));
    }
    u8::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn a_clear_win_is_a_gain() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert!(verdict(&a, &b, true, Some(0.1)).starts_with("gain"));
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let a = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0];
        let b = [100.0; 10];
        assert!(verdict(&a, &b, true, Some(0.05)).starts_with("unresolved"));
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let a = [10.0; 10];
        let b = [12.0; 10];
        assert!(verdict(&a, &b, false, Some(0.1)).starts_with("REGRESSION"));
    }

    #[test]
    fn fewer_than_ten_pairs_decide_nothing() {
        assert!(verdict(&[1.0; 5], &[2.0; 5], true, Some(0.1)).starts_with("too few"));
    }
}
