//! The telemetry layer's "observation only" contract (DESIGN.md §3.7):
//! neither the kernel phase profiler nor the workspace metric registry
//! may perturb the simulation in any observable way. A profiled run with
//! metrics recording enabled must end bit-identical — final cycle, every
//! generator/controller/fabric counter — to a bare run, on every fabric.
//!
//! The profiler additionally carries a self-consistency invariant: the
//! telescoping laps cover the window exactly, so the per-phase sums
//! equal the measured loop time to the nanosecond
//! ([`PhaseReport::consistent`]).

use hbm_fpga::core::prelude::*;
use hbm_fpga::core::profile::{self, Kernel, Phase};
use hbm_fpga::core::{measure, metrics, PHASES};
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

fn workload_for(fabric_sel: usize, pattern_sel: usize, seed: u64) -> Workload {
    // The direct fabric only routes master i -> port i; force a local
    // pattern there.
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
    Workload { pattern, outstanding: 4, num_ids: 4, seed, ..Workload::scs() }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Draining with the profiler active and metrics recording on
        /// matches a bare run bit-identically on every fabric, and the
        /// window's attribution telescopes exactly.
        #[test]
        fn profiled_drained_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            per_master in 1u64..9,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            metrics::set_enabled(true);
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, seed);

            let mut on = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut off = HbmSystem::new(&cfg, wl, Some(per_master));

            profile::begin(Kernel::Scalar);
            let ok_on = on.run_until_drained(3_000_000);
            let report = profile::end();
            let ok_off = off.run_until_drained(3_000_000);

            prop_assert_eq!(ok_on, ok_off);
            prop_assert!(ok_on, "workload failed to drain: {:?}", wl);
            prop_assert_eq!(fingerprint(&on), fingerprint(&off));
            prop_assert!(
                report.consistent(),
                "phase sum {} != total {}",
                report.attributed_ns(),
                report.total_ns
            );
            prop_assert!(report.laps > 0, "profiled drain recorded no laps");
        }

        /// Windowed `run` under the profiler matches the bare system at
        /// every window boundary (the profiler must not disturb the
        /// event-horizon fast path's span structure).
        #[test]
        fn profiled_windowed_runs_are_bit_identical(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            per_master in 1u64..6,
            window in proptest::sample::select(vec![1u64, 7, 100, 5_000]),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            metrics::set_enabled(true);
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, seed);

            let mut on = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut off = HbmSystem::new(&cfg, wl, Some(per_master));

            profile::begin(Kernel::Scalar);
            for _ in 0..6 {
                on.run(window);
            }
            let report = profile::end();
            for _ in 0..6 {
                off.run(window);
            }
            prop_assert_eq!(fingerprint(&on), fingerprint(&off));
            prop_assert!(report.consistent());
        }
    }
}

/// Metric recording happens at measurement boundaries, never inside the
/// cycle loop — so a measurement taken with the registry enabled must
/// serialise byte-identical to one taken with it disabled, on every
/// fabric.
#[test]
fn metrics_do_not_perturb_measurements() {
    for fabric_sel in 0..4 {
        let cfg = config_for(fabric_sel);
        let wl = workload_for(fabric_sel, fabric_sel, 7);
        metrics::set_enabled(false);
        let off = measure::measure(&cfg, wl, 300, 1_200);
        metrics::set_enabled(true);
        let on = measure::measure(&cfg, wl, 300, 1_200);
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&off).unwrap(),
            "metrics recording perturbed the measurement on fabric {fabric_sel}"
        );
    }
}

/// The acceptance invariant, pinned deterministically: `measure` under
/// the profiler laps every phase the benchmark reads by name, and the
/// phase sums equal the measured loop time exactly — on a sharded fabric
/// with lateral traffic (per-domain windows and boundary reconciles) and
/// on a monolithic one.
#[test]
fn phase_sums_equal_measured_loop_time() {
    let rotated = Workload { rotation: 4, ..Workload::scs() };
    for (cfg, wl) in [(SystemConfig::xilinx(), rotated), (SystemConfig::mao(), Workload::ccs())] {
        profile::begin(Kernel::Scalar);
        let _ = measure::measure(&cfg, wl, 500, 2_000);
        let report = profile::end();
        assert!(report.consistent(), "{} != {}", report.attributed_ns(), report.total_ns);
        assert!(report.laps > 0);
        for phase in PHASES {
            assert!(report.ns(phase) > 0, "{:?}: no time lapped to {}", cfg.fabric, phase.name());
        }
    }
    assert_eq!(
        PHASES.map(Phase::name),
        ["gens_tick", "fabric_tick", "mc_tick", "horizon_compute", "queue_ops"]
    );
}

/// The MC-tick gate as a count (DESIGN.md §3.10): ports visited per
/// domain step, 1.18 here; 2.39 without the controller's no-candidate
/// sleep hint, and 4 visiting every port on every step.
#[test]
fn port_visits_per_domain_step_stay_bounded() {
    let rotated = Workload { rotation: 4, ..Workload::scs() };
    profile::begin(Kernel::Scalar);
    let _ = measure::measure(&SystemConfig::xilinx(), rotated, 500, 2_000);
    let report = profile::end();
    let (visits, steps) = (report.phase_laps(Phase::McTick), report.phase_laps(Phase::GensTick));
    let per_step = visits as f64 / steps.max(1) as f64;
    assert!(per_step < 1.6, "{visits} port visits over {steps} domain steps ({per_step:.2})");
}

/// Port visits when a full link frees, as a count (DESIGN.md §3.12): a
/// fabric tick wakes the source or port behind a link only when it pops
/// that link while it is full, the one state in which an offer there
/// sleeps on `Cycle::MAX`. SCS over 500 + 2 000 cycles visits ports
/// 35 860 times on the stock fabric and on the full crossbar; waking on
/// every pop visited them 40 345 times on the stock fabric.
#[test]
fn ports_wake_only_when_a_full_link_frees() {
    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    for cfg in [SystemConfig::xilinx(), xbar] {
        profile::begin(Kernel::Scalar);
        let _ = measure::measure(&cfg, Workload::scs(), 500, 2_000);
        let visits = profile::end().phase_laps(Phase::McTick);
        assert!(visits <= 37_000, "{:?}: {visits} port visits", cfg.fabric);
    }
}
