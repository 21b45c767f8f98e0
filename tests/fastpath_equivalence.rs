//! Fast-forwarding must be invisible: a system driven by `run` /
//! `run_until_drained` (the wake-driven kernel, which skips provably idle
//! cycles and components) must end in exactly the same state as one
//! stepped naively cycle by cycle.
//!
//! "Exactly" means bit-identical: final cycle count, every generator's
//! stats (including full latency histograms), every controller's counters
//! (including the `f64` bus-time accumulators), and the fabric's link
//! counters. See DESIGN.md §3 for the one-sided horizon contract these
//! tests enforce.

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

/// Reference semantics: the pre-fast-path `run_until_drained`, one
/// `step()` per cycle, no skipping.
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

/// Reference semantics: the pre-fast-path `run`, exactly one `step()` per
/// cycle.
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

fn workload_for(
    fabric_sel: usize,
    pattern_sel: usize,
    outstanding: usize,
    num_ids: usize,
    seed: u64,
) -> Workload {
    // The direct fabric only routes master i -> port i, so cross-channel
    // patterns are out of its domain; force a local pattern there.
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
    Workload { pattern, outstanding, num_ids, seed, ..Workload::scs() }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fast-forwarded `run_until_drained` lands on the same cycle with
        /// the same stats as the naive cycle-by-cycle reference, for every
        /// fabric, pattern, and a spread of concurrency shapes.
        #[test]
        fn drained_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in proptest::sample::select(vec![1usize, 2, 8]),
            ids_log2 in 0u32..5,
            per_master in 1u64..9,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, outstanding, 1 << ids_log2, seed);

            let mut fast = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut slow = HbmSystem::new(&cfg, wl, Some(per_master));

            let ok_fast = fast.run_until_drained(3_000_000);
            let ok_slow = naive_drain(&mut slow, 3_000_000);

            prop_assert_eq!(ok_fast, ok_slow);
            prop_assert!(ok_fast, "workload failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&fast), fingerprint(&slow));
        }

        /// Windowed `run` — including windows that start and end inside
        /// idle gaps — matches naive stepping at every window boundary.
        #[test]
        fn windowed_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in proptest::sample::select(vec![1usize, 4]),
            per_master in 1u64..6,
            window in proptest::sample::select(vec![1u64, 7, 100, 5_000]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, outstanding, 4, seed);

            let mut fast = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut slow = HbmSystem::new(&cfg, wl, Some(per_master));

            // Enough windows to drain the bounded workload and then sit
            // idle, so the comparison covers busy, draining, and
            // quiescent windows.
            for _ in 0..6 {
                fast.run(window);
                naive_run(&mut slow, window);
                prop_assert_eq!(fingerprint(&fast), fingerprint(&slow));
            }
        }
    }
}

/// The instrumentation layer's "zero cost when off / observation only
/// when on" contract (DESIGN.md §3.2): enabling the lifecycle tracer and
/// the windowed probe must not perturb the simulation in any observable
/// way — same final cycle, same stats, bit for bit — on every fabric.
/// The probe is the risky half: it splits `run`/`run_until_drained` into
/// sample-window spans, so these tests double as a check that
/// `run(a + b)` ≡ `run(a); run(b)`.
mod tracing_equivalence {
    use super::*;
    use hbm_fpga::core::ProbeConfig;
    use proptest::prelude::*;

    fn traced(cfg: &SystemConfig, wl: Workload, per_master: u64, interval: u64) -> HbmSystem {
        let mut sys = HbmSystem::new(cfg, wl, Some(per_master));
        sys.enable_tracing(1 << 12);
        sys.attach_probe(ProbeConfig { interval, capacity: 1 << 10 });
        sys
    }

    proptest! {
        /// Draining with tracing + probes ON matches OFF bit-identically,
        /// and every delivered record's component sum equals its recorded
        /// end-to-end latency (the attribution exactness invariant).
        #[test]
        fn traced_drained_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in proptest::sample::select(vec![1usize, 2, 8]),
            per_master in 1u64..9,
            interval in proptest::sample::select(vec![1u64, 7, 64, 1024]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, outstanding, 4, seed);

            let mut on = traced(&cfg, wl, per_master, interval);
            let mut off = HbmSystem::new(&cfg, wl, Some(per_master));

            let ok_on = on.run_until_drained(3_000_000);
            let ok_off = off.run_until_drained(3_000_000);

            prop_assert_eq!(ok_on, ok_off);
            prop_assert!(ok_on, "workload failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&on), fingerprint(&off));

            let tracer = on.tracer().expect("tracing enabled").snapshot();
            prop_assert!(tracer.delivered_count() > 0);
            for rec in tracer.records() {
                let attr = rec.attribution().expect("delivered record attributes");
                prop_assert_eq!(
                    attr.total(),
                    rec.end_to_end().expect("delivered record has e2e"),
                    "component sum deviates for master {} seq {}",
                    rec.master,
                    rec.seq
                );
            }
        }

        /// Windowed `run` with the probe attached — whose sampling chops
        /// every window into spans — matches the untraced system at every
        /// window boundary.
        #[test]
        fn traced_windowed_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            per_master in 1u64..6,
            window in proptest::sample::select(vec![1u64, 7, 100, 5_000]),
            interval in proptest::sample::select(vec![1u64, 3, 256]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, 4, 4, seed);

            let mut on = traced(&cfg, wl, per_master, interval);
            let mut off = HbmSystem::new(&cfg, wl, Some(per_master));

            for _ in 0..6 {
                on.run(window);
                naive_run(&mut off, window);
                prop_assert_eq!(fingerprint(&on), fingerprint(&off));
            }
        }
    }
}

/// `deadline == now` corners of `run_until_drained` (the off-by-one audit
/// from the fast-path change): a zero-cycle budget must report the truth
/// about the *current* state without stepping.
mod deadline_edge {
    use super::*;

    #[test]
    fn zero_budget_on_drained_system_returns_true() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(4));
        assert!(sys.run_until_drained(1_000_000), "setup drain failed");
        let before = fingerprint(&sys);
        assert!(sys.run_until_drained(0), "already-drained system must report true");
        assert_eq!(fingerprint(&sys), before, "zero-budget drain must not step");
    }

    #[test]
    fn zero_budget_on_busy_system_returns_false_without_stepping() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(4));
        sys.run(3); // put transactions in flight
        assert!(!sys.drained(), "expected in-flight work after 3 cycles");
        let before = fingerprint(&sys);
        assert!(!sys.run_until_drained(0), "busy system must report false");
        assert_eq!(fingerprint(&sys), before, "zero-budget call must not advance time");
    }

    #[test]
    fn zero_cycle_run_is_a_no_op() {
        let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccs(), Some(4));
        sys.run(2);
        let before = fingerprint(&sys);
        sys.run(0);
        assert_eq!(fingerprint(&sys), before);
    }

    #[test]
    fn exhausted_budget_stops_exactly_at_the_deadline() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), None);
        let start = sys.now();
        assert!(!sys.run_until_drained(137), "unbounded workload cannot drain");
        assert_eq!(sys.now(), start + 137, "must stop exactly at the deadline");
    }
}
