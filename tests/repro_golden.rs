//! Golden pin of every paper artefact at QUICK fidelity: the twenty
//! records `repro all --quick --json --no-cache` prints, emitted through
//! the same function the binary prints with.
//!
//! `fabric_rows` pins whole rows at one short window; this pins what
//! the figures and tables report, at the fidelity CI runs. A change that
//! must keep every reported number passes this file unmodified; one
//! that moves numbers on purpose shows up as a reviewed diff of it.
//!
//! Regenerate intentionally with
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test repro_golden
//! ```
//!
//! and review the diff of `tests/golden/repro_all_quick.json`.

use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::ResultCache;

const GOLDEN: &str = "tests/golden/repro_all_quick.json";

/// The experiment a record line names, for a readable failure.
fn name_of(line: &str) -> &str {
    line.split('"').nth(3).unwrap_or(line)
}

#[test]
fn repro_all_quick_matches_golden() {
    // `--no-cache`: every record is computed here, never read back.
    ResultCache::global().disable();
    let mut out = Vec::new();
    hbm_bench::json::run_json(Fidelity::QUICK, |_| true, &mut out).expect("write records");
    let got = String::from_utf8(out).expect("records are UTF-8");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with REGEN_GOLDEN=1");
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let names = |lines: &[&str]| lines.iter().map(|l| name_of(l).to_string()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "the set or order of records changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g,
            w,
            "record {:?} drifted from {GOLDEN}; if intentional, regenerate with \
             REGEN_GOLDEN=1 and review the diff",
            name_of(w)
        );
    }
}
