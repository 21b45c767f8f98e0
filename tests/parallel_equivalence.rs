//! The execution domains must be invisible: the wake-driven kernel
//! advances the Xilinx fabric's per-switch execution domains one after
//! another between lateral-synchronisation barriers, and it must end in
//! exactly the same state as the naive `HbmSystem::step` loop, the one
//! reference every equivalence suite compares against. (The tests keep
//! their `parallel_` names from when the domains could also run on worker
//! threads.)
//!
//! "Exactly" means bit-identical: final cycle count, every generator's
//! stats (including full latency histograms), every controller's
//! counters (including the `f64` bus-time accumulators), and the fabric's
//! link counters. Rotated workloads send flits across every lateral
//! boundary, which is where the barrier discipline is earned. See
//! DESIGN.md §3.3 for the lateral-port contract these tests enforce.

use hbm_fpga::core::prelude::*;
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

/// The reference drain: one `step()` per cycle, no skipping.
fn naive_drain(sys: &mut hbm_fpga::core::HbmSystem, max_cycles: u64) -> bool {
    let deadline = sys.now().saturating_add(max_cycles);
    loop {
        if sys.drained() {
            return true;
        }
        if sys.now() >= deadline {
            return false;
        }
        sys.step();
    }
}

/// The reference run: exactly one `step()` per cycle.
fn naive_run(sys: &mut hbm_fpga::core::HbmSystem, cycles: u64) {
    for _ in 0..cycles {
        sys.step();
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

/// A workload for the picked fabric. The direct fabric only routes
/// master *i* to port *i*, so cross-channel patterns and rotation are out
/// of its domain; it gets a local pattern and no rotation. Elsewhere the
/// rotation offsets SCS onto other switches' channels.
fn workload_for(
    fabric_sel: usize,
    pattern_sel: usize,
    rotation: usize,
    outstanding: usize,
    num_ids: usize,
    seed: u64,
) -> Workload {
    let direct = fabric_sel == 3;
    let pattern = if direct {
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
    let rotation = if direct { 0 } else { rotation };
    Workload { pattern, rotation, outstanding, num_ids, seed, ..Workload::scs() }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The domains' `run_until_drained` lands on the same cycle with
        /// the same stats as a `step()` loop, for every fabric, pattern
        /// and rotation.
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

            let mut kernel = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut stepped = HbmSystem::new(&cfg, wl, Some(per_master));

            let ok_kernel = kernel.run_until_drained(3_000_000);
            let ok_stepped = naive_drain(&mut stepped, 3_000_000);

            prop_assert_eq!(ok_kernel, ok_stepped);
            prop_assert!(ok_kernel, "workload failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&kernel), fingerprint(&stepped));
        }

        /// The domains' windowed `run` matches a `step()` loop at every
        /// window boundary — including windows narrower than the
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

            let mut kernel = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut stepped = HbmSystem::new(&cfg, wl, Some(per_master));

            for _ in 0..6 {
                kernel.run(window);
                naive_run(&mut stepped, window);
                prop_assert_eq!(fingerprint(&kernel), fingerprint(&stepped));
            }
        }
    }
}

mod edge_cases {
    use super::*;

    /// A zero-cycle budget must report the truth about the current
    /// state without stepping.
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

    /// An exhausted budget stops exactly at the deadline, even where the
    /// deadline cuts a barrier window of the lateral synchronisation
    /// short.
    #[test]
    fn exhausted_parallel_budget_stops_at_the_deadline() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, None);
        let start = sys.now();
        assert!(!sys.run_until_drained(137), "unbounded workload cannot drain");
        assert_eq!(sys.now(), start + 137, "must stop exactly at the deadline");
    }
}
