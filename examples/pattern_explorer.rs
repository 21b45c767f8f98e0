//! Interactive-ish exploration of the access-pattern parameter space.
//!
//! ```text
//! cargo run --release --example pattern_explorer -- \
//!     [scs|ccs|scra|ccra] [xlnx|mao|direct] [BL] [outstanding] [ids]
//! ```
//!
//! Defaults: `ccs xlnx 16 32 16`. Prints throughput, latency, DRAM and
//! fabric statistics for the chosen configuration — the raw numbers
//! behind every figure of the paper.

use hbm_fpga::axi::BurstLen;
use hbm_fpga::core::measure::{measured_system, snapshot};
use hbm_fpga::core::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, d: &str| args.get(i).cloned().unwrap_or_else(|| d.to_string());

    let pattern = match arg(0, "ccs").as_str() {
        "scs" => Pattern::Scs,
        "ccs" => Pattern::Ccs,
        "scra" => Pattern::Scra,
        "ccra" => Pattern::Ccra,
        other => panic!("unknown pattern {other:?} (want scs|ccs|scra|ccra)"),
    };
    let cfg = match arg(1, "xlnx").as_str() {
        "xlnx" => SystemConfig::xilinx(),
        "mao" => SystemConfig::mao(),
        "direct" => SystemConfig::direct(),
        other => panic!("unknown fabric {other:?} (want xlnx|mao|direct)"),
    };
    let burst: u8 = arg(2, "16").parse().expect("burst length 1..=16");
    let outstanding: usize = arg(3, "32").parse().expect("outstanding >= 1");
    let num_ids: usize = arg(4, "16").parse().expect("ids 1..=256");

    let base = match pattern {
        Pattern::Scs => Workload::scs(),
        Pattern::Ccs => Workload::ccs(),
        Pattern::Scra => Workload::scra(),
        Pattern::Ccra => Workload::ccra(),
    };
    let wl = Workload {
        burst: BurstLen::of(burst),
        stride: BurstLen::of(burst).bytes(),
        outstanding,
        num_ids,
        ..base
    };

    println!(
        "pattern {pattern:?}, fabric {:?}, BL {burst}, N_ot {outstanding}, IDs {num_ids}\n",
        arg(1, "xlnx")
    );
    let sys = measured_system(&cfg, wl, 3_000, 12_000);
    let m = snapshot(&sys, 12_000);

    println!(
        "throughput : {:7.2} GB/s total ({:.1}% of device)",
        m.total_gbps(),
        m.pct_of_device()
    );
    println!("             {:7.2} GB/s read, {:.2} GB/s write", m.read_gbps(), m.write_gbps());
    if let (Some(rm), Some(rs)) = (m.read_latency_mean(), m.read_latency_std()) {
        let p50 = m.read_latency_percentile(0.5).unwrap_or(0);
        let p99 = m.read_latency_percentile(0.99).unwrap_or(0);
        println!("read  lat  : {rm:7.1} ± {rs:.1} cycles (p50 ≤{p50}, p99 ≤{p99})");
    }
    if let (Some(wm), Some(ws)) = (m.write_latency_mean(), m.write_latency_std()) {
        let p99 = m.write_latency_percentile(0.99).unwrap_or(0);
        println!("write lat  : {wm:7.1} ± {ws:.1} cycles (p99 ≤{p99})");
    }
    println!(
        "DRAM       : {:.1}% row hits, {} turnarounds, {} refreshes",
        100.0 * m.mem.hit_rate().unwrap_or(0.0),
        m.mem.turnarounds,
        m.mem.refreshes
    );
    println!(
        "fabric     : {} lateral beats (max single bus {}), {} ID-ordering stall cycles",
        m.fabric.lateral_beats(),
        m.fabric.max_lateral_beats(),
        m.fabric.id_stall_cycles
    );

    // Per-master fairness summary.
    let per: Vec<f64> = sys
        .gen_stats()
        .iter()
        .map(|g| m.clock.throughput_gbps(g.total_bytes(), m.cycles))
        .collect();
    let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per.iter().cloned().fold(0.0, f64::max);
    println!("fairness   : per-master throughput {min:.2}..{max:.2} GB/s");
}
