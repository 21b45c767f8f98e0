//! Cross-crate end-to-end integration tests: conservation, draining,
//! ordering, and fairness invariants on full system runs.

use hbm_fpga::core::measure::measured_system;
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::HbmSystem;

fn configs() -> Vec<(&'static str, SystemConfig)> {
    vec![("xilinx", SystemConfig::xilinx()), ("mao", SystemConfig::mao())]
}

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("scs", Workload::scs()),
        ("ccs", Workload::ccs()),
        ("scra", Workload::scra()),
        ("ccra", Workload::ccra()),
    ]
}

#[test]
fn every_transaction_completes_and_drains() {
    for (fname, cfg) in configs() {
        for (wname, wl) in workloads() {
            let per_master = 24;
            let mut sys = HbmSystem::new(&cfg, wl, Some(per_master));
            let ok = sys.run_until_drained(2_000_000);
            assert!(ok, "{fname}/{wname}: failed to drain");
            let total: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
            assert_eq!(total, 32 * per_master, "{fname}/{wname}: transactions lost");
        }
    }
}

#[test]
fn byte_conservation_masters_vs_dram() {
    // Every byte a master counts as completed must have been moved by
    // exactly one pseudo-channel.
    for (fname, cfg) in configs() {
        let mut sys = HbmSystem::new(&cfg, Workload::ccs(), Some(16));
        sys.run_until_drained(1_000_000);
        let gen_bytes: u64 = sys.gen_stats().iter().map(|g| g.total_bytes()).sum();
        let mem = sys.mem_stats();
        assert_eq!(gen_bytes, mem.total_bytes(), "{fname}: byte mismatch");
    }
}

#[test]
fn direct_fabric_runs_single_channel_patterns() {
    for wl in [Workload::scs(), Workload::scra()] {
        let mut sys = HbmSystem::new(&SystemConfig::direct(), wl, Some(16));
        assert!(sys.run_until_drained(1_000_000));
    }
}

#[test]
fn per_pch_distribution_matches_pattern() {
    // SCS: every PCH sees exactly its master's bytes. CCS on the
    // contiguous map: one PCH sees everything.
    let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(8));
    sys.run_until_drained(1_000_000);
    let per = sys.mem_stats_per_pch();
    let nonzero = per.iter().filter(|s| s.total_bytes() > 0).count();
    assert_eq!(nonzero, 32, "SCS touches every PCH");
    let first = per[0].total_bytes();
    assert!(per.iter().all(|s| s.total_bytes() == first), "SCS is perfectly balanced");

    let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::ccs(), Some(8));
    sys.run_until_drained(1_000_000);
    let per = sys.mem_stats_per_pch();
    let nonzero = per.iter().filter(|s| s.total_bytes() > 0).count();
    assert_eq!(nonzero, 1, "contiguous CCS hot-spots one PCH");

    let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccs(), Some(8));
    sys.run_until_drained(1_000_000);
    let per = sys.mem_stats_per_pch();
    let nonzero = per.iter().filter(|s| s.total_bytes() > 0).count();
    assert_eq!(nonzero, 32, "the MAO spreads CCS over every PCH");
}

#[test]
fn fairness_under_uniform_load() {
    // Under SCS and MAO-CCS every master should see nearly identical
    // throughput (the round-robin arbiters must not starve anyone).
    for (fname, cfg, wl) in [
        ("xilinx/scs", SystemConfig::xilinx(), Workload::scs()),
        ("mao/ccs", SystemConfig::mao(), Workload::ccs()),
    ] {
        let sys = measured_system(&cfg, wl, 2_000, 6_000);
        let per: Vec<u64> = sys.gen_stats().iter().map(|g| g.total_bytes()).collect();
        let min = *per.iter().min().unwrap() as f64;
        let max = *per.iter().max().unwrap() as f64;
        assert!(min > 0.0, "{fname}: a master starved");
        assert!(max / min < 1.35, "{fname}: unfair {min}..{max}");
    }
}

#[test]
fn measurement_scales_linearly_with_window() {
    // Doubling the measured window should roughly double the bytes but
    // keep the computed GB/s stable (steady state).
    let short = measure(&SystemConfig::mao(), Workload::ccs(), 3_000, 4_000);
    let long = measure(&SystemConfig::mao(), Workload::ccs(), 3_000, 8_000);
    let ratio = long.gen.total_bytes() as f64 / short.gen.total_bytes() as f64;
    assert!((1.7..2.3).contains(&ratio), "byte ratio {ratio}");
    let delta = (long.total_gbps() - short.total_gbps()).abs() / long.total_gbps();
    assert!(delta < 0.08, "throughput drifted {delta}");
}

#[test]
fn burst_length_variants_all_run() {
    use hbm_fpga::axi::BurstLen;
    for beats in [1u8, 2, 4, 8, 16] {
        let wl = Workload {
            burst: BurstLen::of(beats),
            stride: BurstLen::of(beats).bytes(),
            ..Workload::ccra()
        };
        let mut sys = HbmSystem::new(&SystemConfig::mao(), wl, Some(8));
        assert!(sys.run_until_drained(1_000_000), "BL {beats}");
    }
}

#[test]
fn odd_burst_lengths_are_legal_too() {
    // Non-power-of-two bursts exercise the 4 KiB legalisation path.
    use hbm_fpga::axi::BurstLen;
    for beats in [3u8, 5, 7, 11, 13] {
        let wl = Workload { burst: BurstLen::of(beats), stride: 512, ..Workload::scra() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(8));
        assert!(sys.run_until_drained(1_000_000), "BL {beats}");
    }
}

#[test]
fn four_fifty_mhz_clock_supported() {
    let cfg = SystemConfig::xilinx().at_clock(ClockDomain::ACC_450);
    let m = measure(&cfg, Workload { rw: RwRatio::READ_ONLY, ..Workload::scs() }, 2_000, 6_000);
    // At 450 MHz a port can carry 14.4 GB/s; unidirectional SCS should
    // exceed the 300 MHz port bound of 307 GB/s.
    assert!(m.total_gbps() > 320.0, "{}", m.total_gbps());
}
