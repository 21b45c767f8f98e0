//! Golden pin of rows on every fabric.
//!
//! The equivalence suites compare execution paths *within* one build, so
//! a change to the fabrics' arbitration or to the reference step itself
//! that moved every path the same way would pass them all. Two tests pin
//! their measurements byte-for-byte at a short window, so any
//! change in which flit wins which grant shows up as a diff:
//!
//! - MAO and full crossbar: Fig. 6 reorder depths, the Table IV MAO
//!   cells, a one-stage MAO, and the full crossbar: CCRA at two burst
//!   lengths, then every pattern at each direction mix, dense bursts of
//!   1 and 16 beats, and 1 and 32 outstanding transactions.
//! - Xilinx switch and direct fabric: the points where most components
//!   sit blocked or idle — the CCS hot spot, CCRA, lateral rotations,
//!   SCRA at one outstanding transaction, SCS at burst length 1, and the
//!   direct fabric.
//!
//! Regenerate intentionally with
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test fabric_rows
//! ```
//!
//! and review the diff of `tests/golden/*_rows.json`.

use hbm_fpga::core::measure::{measured_system, snapshot};
use hbm_fpga::core::prelude::*;
use hbm_fpga::mao::MaoConfig;

const GOLDEN: &str = "tests/golden/fabric_rows.json";
const XILINX_GOLDEN: &str = "tests/golden/xilinx_rows.json";
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
    let patterns = [
        ("scs", Workload::scs()),
        ("ccs", Workload::ccs()),
        ("scra", Workload::scra()),
        ("ccra", Workload::ccra()),
    ];
    for (name, base) in patterns {
        for (dir, rw) in
            [("rd", RwRatio::READ_ONLY), ("wr", RwRatio::WRITE_ONLY), ("both", RwRatio::TWO_TO_ONE)]
        {
            for bl in [1u8, 16] {
                for outstanding in [1usize, 32] {
                    let burst = BurstLen::of(bl);
                    let wl = Workload { rw, burst, stride: burst.bytes(), outstanding, ..base };
                    let point = format!("xbar/{name}/{dir}/bl{bl}/out{outstanding}");
                    pts.push((point, xbar.clone(), wl));
                }
            }
        }
    }
    pts
}

fn xilinx_points() -> Vec<(String, SystemConfig, Workload)> {
    let xilinx = SystemConfig::xilinx();
    let mut pts = Vec::new();
    for (dir, rw) in
        [("rd", RwRatio::READ_ONLY), ("wr", RwRatio::WRITE_ONLY), ("both", RwRatio::TWO_TO_ONE)]
    {
        pts.push((format!("xilinx/ccs/{dir}"), xilinx.clone(), Workload { rw, ..Workload::ccs() }));
    }
    pts.push(("xilinx/ccra/both".to_string(), xilinx.clone(), Workload::ccra()));
    for rotation in [1usize, 2, 4, 8] {
        let wl = Workload { rotation, ..Workload::scs() };
        pts.push((format!("xilinx/scs/rot{rotation}"), xilinx.clone(), wl));
    }
    let wl = Workload { outstanding: 1, num_ids: 1, ..Workload::scra() };
    pts.push(("xilinx/scra/out1".to_string(), xilinx.clone(), wl));
    let wl = Workload { burst: BurstLen::of(1), ..Workload::scs() };
    pts.push(("xilinx/scs/bl1".to_string(), xilinx, wl));
    let direct = SystemConfig::direct();
    for bl in [1u8, 16] {
        let wl = Workload { burst: BurstLen::of(bl), ..Workload::scra() };
        pts.push((format!("direct/scra/bl{bl}"), direct.clone(), wl));
    }
    pts
}

/// One JSON object per line: the point's name, its measurement
/// (aggregate generator stats with latency histograms, DRAM and fabric
/// counters), and each master's completed count, read from the measured
/// system because a row carries aggregates only.
fn rows(points: Vec<(String, SystemConfig, Workload)>) -> String {
    let lines: Vec<String> = points
        .into_iter()
        .map(|(name, cfg, wl)| {
            let sys = measured_system(&cfg, wl, WARMUP, CYCLES);
            let m = snapshot(&sys, CYCLES);
            let per_master: Vec<u64> = sys.gen_stats().iter().map(|g| g.completed).collect();
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

fn check_golden(golden: &str, got: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with REGEN_GOLDEN=1");
    assert_eq!(
        got, want,
        "rows drifted from {golden}; if intentional, regenerate with \
         REGEN_GOLDEN=1 and review the diff"
    );
}

#[test]
fn fabric_rows_match_golden() {
    check_golden(GOLDEN, rows(points()));
}

#[test]
fn xilinx_and_direct_rows_match_golden() {
    check_golden(XILINX_GOLDEN, rows(xilinx_points()));
}
