//! `repro` rejects any flag the chosen command does not take: a typo
//! such as `--quik` exits 2 with the usage instead of silently running
//! a FULL sweep, and `serve` rejects the experiments' flags. Every
//! documented flag still parses, for the experiments and for `serve`.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

use serde_json::Value;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs repro with `args`, returning (exit code, stderr).
fn run(args: &[&str]) -> (i32, String) {
    let out = repro().args(args).output().expect("spawn repro");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-flags-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for args in [
        &["table3", "--quik"][..],
        &["latency", "--jsn"],
        &["serve", "--adr", "127.0.0.1:0"],
        &["fig4", "--quick=1"],
        // The registry is the serve daemon's; no one-shot run reads it.
        &["table3", "--metrics"],
        &["serve", "--metrics"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "`repro {}` must exit 2; stderr: {stderr}", args.join(" "));
        assert!(stderr.contains(args[1].split('=').next().unwrap()), "name the flag: {stderr}");
        assert!(stderr.contains("usage"), "show usage: {stderr}");
    }
}

#[test]
fn each_command_rejects_the_other_commands_flags() {
    for args in [
        &["serve", "--quick"][..],
        &["serve", "--json"],
        &["serve", "--out", "x.json"],
        &["table3", "--addr", "127.0.0.1:0"],
        &["table3", "--span-log", "spans.jsonl"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "`repro {}` must exit 2; stderr: {stderr}", args.join(" "));
        assert!(stderr.contains(args[1]) && stderr.contains("usage"), "stderr: {stderr}");
    }
}

#[test]
fn every_documented_experiment_flag_parses() {
    let dir = scratch("experiments");
    let cache = dir.join("cache");
    let out = dir.join("cal.json");
    let (cache, out) = (cache.to_str().unwrap(), out.to_str().unwrap());
    // Table III is a static resource table: every flag is parsed and
    // applied, and no simulation runs.
    let spaced = [
        "table3",
        "--quick",
        "--json",
        "--smoke",
        "--adaptive",
        "--fidelity",
        "analytical",
        "--jobs",
        "1",
        "--cache-dir",
        cache,
        "--out",
        out,
    ];
    let (code, stderr) = run(&spaced);
    assert_eq!(code, 0, "stderr: {stderr}");
    let cache_eq = format!("--cache-dir={cache}");
    let out_eq = format!("--out={out}");
    let inline = ["table3", "--no-cache", "--fidelity=quick", "--jobs=2", &cache_eq, &out_eq];
    let (code, stderr) = run(&inline);
    assert_eq!(code, 0, "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_documented_serve_flag_parses() {
    let dir = scratch("serve");
    let spans = dir.join("spans.jsonl");
    let cache = dir.join("cache");
    let mut child = repro()
        .args(["serve", "--addr", "127.0.0.1:0", "--queue=8", "--jobs", "1"])
        .args(["--metrics-addr", "127.0.0.1:0", "--no-cache"])
        .arg(format!("--cache-dir={}", cache.display()))
        .arg("--span-log")
        .arg(&spans)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    // Held open to the end: the daemon prints its shut-down line last.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("ready line");
    let ready: Value = serde_json::from_str(&ready).unwrap_or_else(|e| {
        let _ = child.kill();
        panic!("no ready line ({e}): {ready:?}")
    });
    assert_eq!(ready.get("queue_capacity"), Some(&Value::U64(8)), "{ready}");
    assert_eq!(ready.get("workers"), Some(&Value::U64(1)), "{ready}");
    assert!(ready.get("metrics").is_some(), "--metrics-addr binds an exposer: {ready}");
    let Some(Value::Str(addr)) = ready.get("serving") else { panic!("no address: {ready}") };
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to the daemon");
    conn.write_all(b"{\"verb\":\"shutdown\"}\n").expect("send shutdown");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("daemon stdout");
    let status = child.wait().expect("daemon exits");
    assert!(status.success() && rest.contains("serve: shut down"), "{status}: {rest}");
    assert!(spans.exists(), "--span-log opens its file");
    let _ = std::fs::remove_dir_all(&dir);
}
