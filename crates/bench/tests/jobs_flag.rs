//! The worker-count knobs must fail loudly: `--jobs` and `HBM_JOBS`
//! values that are not positive integers exit non-zero with a usage
//! message instead of silently falling back to a default thread count
//! (`--jobs 0` used to clear the override without a word — exactly the
//! typo this locks out).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Runs repro with `args`, returning (exit code, stderr).
fn run(args: &[&str], env: &[(&str, &str)]) -> (i32, String) {
    let mut cmd = repro();
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn repro");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn jobs_flag_rejects_zero() {
    let (code, stderr) = run(&["fig4", "--json", "--quick", "--jobs", "0"], &[]);
    assert_eq!(code, 2, "--jobs 0 must exit non-zero; stderr: {stderr}");
    assert!(stderr.contains("positive integer"), "stderr must explain: {stderr}");
}

#[test]
fn jobs_flag_rejects_garbage() {
    for bad in ["al1", "-2", "2.5", ""] {
        let arg = format!("--jobs={bad}");
        let (code, stderr) = run(&["fig4", "--json", "--quick", &arg], &[]);
        assert_eq!(code, 2, "--jobs={bad:?} must exit non-zero; stderr: {stderr}");
        assert!(stderr.contains("positive integer"), "stderr must explain: {stderr}");
    }
}

#[test]
fn jobs_flag_requires_a_value() {
    let (code, stderr) = run(&["fig4", "--json", "--quick", "--jobs"], &[]);
    assert_eq!(code, 2, "bare --jobs must exit non-zero; stderr: {stderr}");
    assert!(stderr.contains("usage"), "stderr must show usage: {stderr}");
}

#[test]
fn hbm_jobs_env_rejects_garbage() {
    // `serve` consults the worker budget before binding, so a bad
    // HBM_JOBS kills it immediately — no simulation, no open port.
    let (code, stderr) = run(&["serve", "--addr", "127.0.0.1:0"], &[("HBM_JOBS", "al1")]);
    assert_eq!(code, 2, "bad HBM_JOBS must exit non-zero; stderr: {stderr}");
    assert!(stderr.contains("HBM_JOBS"), "stderr must name the variable: {stderr}");
    assert!(stderr.contains("positive integer"), "stderr must explain: {stderr}");
}

#[test]
fn hbm_jobs_env_rejects_zero() {
    let (code, stderr) = run(&["serve", "--addr", "127.0.0.1:0"], &[("HBM_JOBS", "0")]);
    assert_eq!(code, 2, "HBM_JOBS=0 must exit non-zero; stderr: {stderr}");
    assert!(stderr.contains("positive integer"), "stderr must explain: {stderr}");
}

#[test]
fn valid_jobs_values_are_accepted() {
    // Table III is a static resource table: the flag machinery runs, no
    // simulation does, and a valid value sails through.
    let (code, stderr) = run(&["table3", "--jobs", "2"], &[]);
    assert_eq!(code, 0, "valid --jobs must be accepted; stderr: {stderr}");
    let (code, stderr) = run(&["table3"], &[("HBM_JOBS", "2")]);
    assert_eq!(code, 0, "valid HBM_JOBS must be accepted; stderr: {stderr}");
}
