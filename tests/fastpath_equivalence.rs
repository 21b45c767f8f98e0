//! Fast-forwarding must be invisible: a system driven by `run` /
//! `run_until_drained` (the wake-driven kernel, which skips provably idle
//! cycles and components) must end in exactly the same state as one
//! stepped naively cycle by cycle through `HbmSystem::step`, the one
//! reference every equivalence suite compares against.
//!
//! "Exactly" means bit-identical: final cycle count, every generator's
//! stats (including full latency histograms), every controller's counters
//! (including the `f64` bus-time accumulators), the fabric's link
//! counters, and — with the tracer and the probe attached — the exported
//! Chrome trace and probe time-series, byte for byte. Inputs span the
//! four fabrics and four patterns, trace replays whose sources wake on
//! future timestamps, exports of rotated workloads, and runs that
//! interleave the kernel with the reference step. `parallel_equivalence`
//! drains and windows rotated workloads, whose flits cross every lateral
//! boundary of the switch network (DESIGN.md §3.3), against the same
//! reference. See DESIGN.md §3 for the one-sided horizon contract these
//! tests enforce.

use hbm_fpga::core::export::chrome_trace_json;
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::trace::replay_system;
use hbm_fpga::fabric::FabricStats;
use hbm_fpga::mem::MemStats;
use hbm_fpga::traffic::{GenStats, Trace};

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
            let wl = workload_for(fabric_sel, pattern_sel, 0, outstanding, 1 << ids_log2, seed);

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
            let wl = workload_for(fabric_sel, pattern_sel, 0, outstanding, 4, seed);

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

        /// A trace replay drains like the reference step. Replay sources
        /// are the only ones whose horizon reports future issue cycles
        /// (the trace's timestamps), so an event spaced apart from the
        /// last must still issue on exactly its recorded cycle.
        #[test]
        fn trace_replays_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            rotation in proptest::sample::select(vec![0usize, 4]),
            spacing in proptest::sample::select(vec![0u64, 7, 100]),
            outstanding in proptest::sample::select(vec![1usize, 16]),
            per_master in 1u64..6,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, rotation, 8, 4, seed);
            let trace =
                Trace::capture(wl, cfg.hbm.num_pch, cfg.hbm.pch_capacity, per_master, spacing);

            let mut fast = replay_system(&cfg, &trace, outstanding);
            let mut slow = replay_system(&cfg, &trace, outstanding);

            let ok_fast = fast.run_until_drained(3_000_000);
            let ok_slow = naive_drain(&mut slow, 3_000_000);

            prop_assert_eq!(ok_fast, ok_slow);
            prop_assert!(ok_fast, "replay failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&fast), fingerprint(&slow));
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
            let wl = workload_for(fabric_sel, pattern_sel, 0, outstanding, 4, seed);

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
            let wl = workload_for(fabric_sel, pattern_sel, 0, 4, 4, seed);

            let mut on = traced(&cfg, wl, per_master, interval);
            let mut off = HbmSystem::new(&cfg, wl, Some(per_master));

            for _ in 0..6 {
                on.run(window);
                naive_run(&mut off, window);
                prop_assert_eq!(fingerprint(&on), fingerprint(&off));
            }
        }

        /// With the tracer and the probe attached to both sides, the
        /// Chrome export — the snapshot's delivery-ordered records and
        /// every probe counter track — is byte-identical to that of a
        /// reference-step drain, whose last partial window `run(0)`
        /// closes.
        #[test]
        fn trace_exports_match_the_reference_step(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            rotation in proptest::sample::select(vec![0usize, 4]),
            per_master in 1u64..5,
            interval in proptest::sample::select(vec![7u64, 256]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, rotation, 2, 4, seed);

            let mut fast = traced(&cfg, wl, per_master, interval);
            let mut slow = traced(&cfg, wl, per_master, interval);

            prop_assert!(fast.run_until_drained(3_000_000), "failed to drain: {:?}", wl);
            prop_assert!(naive_drain(&mut slow, 3_000_000));
            slow.run(0);

            prop_assert_eq!(fingerprint(&fast), fingerprint(&slow));
            prop_assert!(slow.probe().is_some_and(|p| !p.is_empty()));
            prop_assert_eq!(export(&fast), export(&slow));
        }
    }

    fn export(sys: &HbmSystem) -> String {
        let tracer = sys.tracer().expect("tracing enabled").snapshot();
        chrome_trace_json(&tracer, sys.probe(), sys.clock())
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

/// The kernel and the reference step may drive one system by turns: the
/// kernel keeps per-component wakes between its own runs, and must
/// discard them on entry, because a `step` in between can change any
/// component's state.
mod interleaved {
    use super::*;

    #[test]
    fn interleaved_run_and_step_match_pure_stepping() {
        let cases = [
            Workload { rotation: 4, ..Workload::scs() },
            Workload { num_ids: 1, ..Workload::ccra() },
        ];
        for wl in cases {
            let mut mixed = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(32));
            let mut stepped = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(32));
            let mut windows = 0;
            while !stepped.drained() {
                assert!(windows < 10_000, "{wl:?} failed to drain");
                if windows % 2 == 0 {
                    mixed.run(7);
                } else {
                    naive_run(&mut mixed, 7);
                }
                naive_run(&mut stepped, 7);
                assert_eq!(fingerprint(&mixed), fingerprint(&stepped), "{wl:?}, window {windows}");
                windows += 1;
            }
        }
    }
}
