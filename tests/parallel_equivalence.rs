//! The execution domains must be invisible: a system driven under the
//! default `RunPolicy::Wake` — per-switch execution domains advanced
//! independently, one after another, between lateral-synchronisation
//! barriers — must end in exactly the same state as the sequential
//! reference path. (The tests keep their `parallel_` names from when the
//! domains could also run on worker threads.)
//!
//! "Exactly" means bit-identical: final cycle count, every generator's
//! stats (including full latency histograms), every controller's
//! counters (including the `f64` bus-time accumulators), the fabric's
//! link counters, and — with instrumentation on — the exported Chrome
//! trace and probe time-series, byte for byte. See DESIGN.md §3.3 for
//! the lateral-port contract these tests enforce.

use hbm_fpga::core::export::chrome_trace_json;
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::{ProbeConfig, RunPolicy};
use hbm_fpga::fabric::FabricStats;
use hbm_fpga::mem::MemStats;
use hbm_fpga::traffic::GenStats;

/// Everything observable about a finished (or paused) system.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    now: u64,
    gens: Vec<GenStats>,
    mcs: Vec<MemStats>,
    fabric: FabricStats,
}

fn fingerprint(sys: &hbm_fpga::core::HbmSystem) -> Fingerprint {
    Fingerprint {
        now: sys.now(),
        gens: sys.gen_stats(),
        mcs: sys.mem_stats_per_pch(),
        fabric: sys.fabric_stats(),
    }
}

fn config_for(fabric_sel: usize) -> SystemConfig {
    match fabric_sel {
        0 => SystemConfig::xilinx(),
        1 => SystemConfig::mao(),
        2 => SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() },
        _ => SystemConfig::direct(),
    }
}

/// Workload picker mirroring `fastpath_equivalence`, plus a rotation
/// knob: rotated SCS on the Xilinx fabric is the workload that keeps
/// every lateral boundary busy, which is exactly where the conductor's
/// barrier discipline is earned. Rotation only applies where it is
/// meaningful (single-channel patterns on the sharded fabric); the
/// direct fabric only routes master *i* → port *i*.
fn workload_for(
    fabric_sel: usize,
    pattern_sel: usize,
    rotation: usize,
    outstanding: usize,
    num_ids: usize,
    seed: u64,
) -> Workload {
    let pattern = if fabric_sel == 3 {
        if pattern_sel.is_multiple_of(2) {
            Pattern::Scs
        } else {
            Pattern::Scra
        }
    } else {
        match pattern_sel {
            0 => Pattern::Scs,
            1 => Pattern::Ccs,
            2 => Pattern::Scra,
            _ => Pattern::Ccra,
        }
    };
    let rotation = if fabric_sel == 0 && pattern == Pattern::Scs { rotation } else { 0 };
    Workload { pattern, rotation, outstanding, num_ids, seed, ..Workload::scs() }
}

/// The execution domains (the default policy).
fn parallel(cfg: &SystemConfig, wl: Workload, per_master: u64) -> HbmSystem {
    HbmSystem::new(cfg, wl, Some(per_master))
}

/// The reference path.
fn sequential(cfg: &SystemConfig, wl: Workload, per_master: u64) -> HbmSystem {
    let mut sys = HbmSystem::new(cfg, wl, Some(per_master));
    sys.set_run_policy(RunPolicy::Sequential);
    sys
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The domains' `run_until_drained` lands on the same cycle with
        /// the same stats as the sequential path, for every fabric,
        /// pattern and rotation.
        #[test]
        fn parallel_drained_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            rotation in proptest::sample::select(vec![0usize, 1, 4]),
            outstanding in proptest::sample::select(vec![1usize, 8]),
            per_master in 1u64..7,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, rotation, outstanding, 4, seed);

            let mut par = parallel(&cfg, wl, per_master);
            let mut seq = sequential(&cfg, wl, per_master);

            let ok_par = par.run_until_drained(3_000_000);
            let ok_seq = seq.run_until_drained(3_000_000);

            prop_assert_eq!(ok_par, ok_seq);
            prop_assert!(ok_par, "workload failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&par), fingerprint(&seq));
        }

        /// The domains' windowed `run` matches the sequential path at
        /// every window boundary — including windows narrower than the
        /// synchronisation lag and windows that sit entirely in idle
        /// gaps.
        #[test]
        fn parallel_windowed_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            rotation in proptest::sample::select(vec![0usize, 4]),
            per_master in 1u64..5,
            window in proptest::sample::select(vec![1u64, 7, 100, 5_000]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, rotation, 4, 4, seed);

            let mut par = parallel(&cfg, wl, per_master);
            let mut seq = sequential(&cfg, wl, per_master);

            for _ in 0..6 {
                par.run(window);
                seq.run(window);
                prop_assert_eq!(fingerprint(&par), fingerprint(&seq));
            }
        }

        /// With the lifecycle tracer and the windowed probe attached,
        /// the *exports* must also agree byte for byte: the Chrome trace
        /// (the snapshot's delivery order) and every probe sample land
        /// identically whether the domains or the whole system stepped.
        #[test]
        fn parallel_trace_exports_are_byte_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            rotation in proptest::sample::select(vec![0usize, 4]),
            per_master in 1u64..5,
            interval in proptest::sample::select(vec![7u64, 256]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, rotation, 2, 4, seed);

            let run = |mut sys: HbmSystem| {
                sys.enable_tracing(1 << 12);
                sys.attach_probe(ProbeConfig { interval, capacity: 1 << 10 });
                assert!(sys.run_until_drained(3_000_000), "failed to drain");
                let tracer = sys.tracer().expect("tracing enabled").snapshot();
                (fingerprint(&sys), chrome_trace_json(&tracer, sys.probe(), sys.clock()))
            };
            let (fp_par, json_par) = run(parallel(&cfg, wl, per_master));
            let (fp_seq, json_seq) = run(sequential(&cfg, wl, per_master));

            prop_assert_eq!(fp_par, fp_seq);
            prop_assert_eq!(json_par, json_seq);
        }
    }
}

mod edge_cases {
    use super::*;

    /// Monolithic fabrics have no shard decomposition: the default
    /// policy runs them as one domain and matches the sequential path.
    #[test]
    fn parallel_policy_on_monolithic_fabric_falls_back() {
        let run = |policy| {
            let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccra(), Some(16));
            sys.set_run_policy(policy);
            assert!(sys.run_until_drained(1_000_000));
            fingerprint(&sys)
        };
        assert_eq!(run(RunPolicy::Sequential), run(RunPolicy::Wake));
    }

    /// A zero-cycle budget must report the truth about the current
    /// state without stepping, exactly like the sequential path.
    #[test]
    fn zero_budget_parallel_drain_is_a_no_op() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(4));
        assert!(sys.run_until_drained(1_000_000), "setup drain failed");
        let before = fingerprint(&sys);
        assert!(sys.run_until_drained(0), "already-drained system must report true");
        assert_eq!(fingerprint(&sys), before);
        sys.run(0);
        assert_eq!(fingerprint(&sys), before);
    }

    /// An exhausted budget stops exactly at the deadline, like the
    /// sequential path does.
    #[test]
    fn exhausted_parallel_budget_stops_at_the_deadline() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, None);
        let start = sys.now();
        assert!(!sys.run_until_drained(137), "unbounded workload cannot drain");
        assert_eq!(sys.now(), start + 137, "must stop exactly at the deadline");
    }

    /// Switching policies mid-run is safe: both paths agree at every
    /// cycle boundary, so a run that alternates must equal either pure
    /// policy.
    #[test]
    fn alternating_policies_match_pure_sequential() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut mixed = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(64));
        let mut seq = sequential(&SystemConfig::xilinx(), wl, 64);
        for i in 0..8 {
            let policy = if i % 2 == 0 { RunPolicy::Wake } else { RunPolicy::Sequential };
            mixed.set_run_policy(policy);
            mixed.run(500);
            seq.run(500);
            assert_eq!(fingerprint(&mixed), fingerprint(&seq));
        }
    }
}
