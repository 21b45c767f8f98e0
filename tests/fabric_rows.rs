//! Golden pin of MAO and full-crossbar rows.
//!
//! The equivalence suites compare execution paths *within* one build, so
//! a change to the fabrics' arbitration that moved every path the same
//! way would pass them all. This test pins a dozen-odd measurements —
//! Fig. 6 reorder depths, the Table IV MAO cells, a one-stage MAO, and
//! the full crossbar at two burst lengths — byte-for-byte at a short
//! window, so any change in which flit wins which grant shows up as a
//! diff. Regenerate intentionally with
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test fabric_rows
//! ```
//!
//! and review the diff of `tests/golden/fabric_rows.json`.

use hbm_fpga::core::prelude::*;
use hbm_fpga::mao::MaoConfig;

const GOLDEN: &str = "tests/golden/fabric_rows.json";
const WARMUP: u64 = 500;
const CYCLES: u64 = 3_000;

fn mao_with(cfg: MaoConfig) -> SystemConfig {
    SystemConfig { fabric: FabricKind::Mao(cfg), ..SystemConfig::mao() }
}

fn points() -> Vec<(String, SystemConfig, Workload)> {
    let mut pts = Vec::new();
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let cfg = mao_with(MaoConfig { reorder_depth: depth.max(2), ..MaoConfig::default() });
        let wl = Workload { num_ids: depth, outstanding: depth, ..Workload::ccra() };
        pts.push((format!("fig6/depth{depth}"), cfg, wl));
    }
    for (name, base) in [("ccs", Workload::ccs()), ("ccra", Workload::ccra())] {
        for (dir, rw) in
            [("rd", RwRatio::READ_ONLY), ("wr", RwRatio::WRITE_ONLY), ("both", RwRatio::TWO_TO_ONE)]
        {
            pts.push((
                format!("table4/mao/{name}/{dir}"),
                SystemConfig::mao(),
                Workload { rw, ..base },
            ));
        }
    }
    let one_stage = mao_with(MaoConfig { stages: 1, reorder_depth: 4, ..MaoConfig::default() });
    let wl = Workload { num_ids: 4, outstanding: 4, ..Workload::ccra() };
    pts.push(("mao/stages1/ccra".to_string(), one_stage, wl));
    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    for bl in [2u8, 16] {
        let wl = Workload { burst: BurstLen::of(bl), ..Workload::ccra() };
        pts.push((format!("xbar/ccra/bl{bl}"), xbar.clone(), wl));
    }
    pts
}

/// One JSON object per line: the point's name, its measurement
/// (aggregate generator stats with latency histograms, DRAM and fabric
/// counters), and each master's completed count in place of the full
/// per-master stats, which would multiply the file's size by 30.
fn rows() -> String {
    let lines: Vec<String> = points()
        .into_iter()
        .map(|(name, cfg, wl)| {
            let mut m = measure(&cfg, wl, WARMUP, CYCLES);
            let per_master: Vec<u64> = m.per_master.iter().map(|g| g.completed).collect();
            m.per_master.clear();
            format!(
                "{{\"point\":{},\"per_master_completed\":{},\"m\":{}}}",
                serde_json::to_string(&name).unwrap(),
                serde_json::to_string(&per_master).unwrap(),
                serde_json::to_string(&m).expect("measurement serialises"),
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn fabric_rows_match_golden() {
    let got = rows();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with REGEN_GOLDEN=1");
    assert_eq!(
        got, want,
        "MAO / full-crossbar rows drifted from {GOLDEN}; if intentional, \
         regenerate with REGEN_GOLDEN=1 and review the diff"
    );
}
