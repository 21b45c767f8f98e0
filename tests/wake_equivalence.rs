//! The wake-driven kernel must be invisible. `HbmSystem::run` and
//! `run_until_drained` under the default policy skip every source, port
//! and switch whose wake lies in the future (DESIGN.md §3.12); the
//! reference step visits every component every cycle. Both must produce
//! the same bytes:
//!
//! * the serialised `Measurement` of a warm-up, `reset_stats`, measure
//!   run — including `fabric.id_stall_cycles`, which counts every
//!   rejected retry of an ID-ordering stall on both sides of the reset;
//! * the end cycle and every statistic of a bounded drain;
//! * with the lifecycle tracer on, the measurement and the exported
//!   Chrome trace.
//!
//! Inputs span the four fabrics, the four patterns, outstanding depths
//! 1/2/8/32, bursts of 1 and 16 beats and rotations 0/1/8: every cell of
//! that grid once at a short window, and random cells (with AXI ID
//! counts, seeds and tracing drawn too) at a longer one.

use hbm_fpga::core::export::chrome_trace_json;
use hbm_fpga::core::measure::snapshot;
use hbm_fpga::core::prelude::*;

const WARMUP: u64 = 400;
const CYCLES: u64 = 1_200;

fn config_for(fabric_sel: usize) -> SystemConfig {
    match fabric_sel {
        0 => SystemConfig::xilinx(),
        1 => SystemConfig::mao(),
        2 => SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() },
        _ => SystemConfig::direct(),
    }
}

/// A workload for the picked fabric. The direct fabric only routes
/// master *i* to port *i*, so it gets single-channel patterns and no
/// rotation; random patterns keep 512 B-aligned chunks.
fn workload_for(
    fabric_sel: usize,
    pattern_sel: usize,
    outstanding: usize,
    beats: u8,
    rotation: usize,
    num_ids: usize,
    seed: u64,
) -> Workload {
    let direct = fabric_sel == 3;
    let base = match (direct, pattern_sel) {
        (true, p) if p % 2 == 0 => Workload::scs(),
        (true, _) => Workload::scra(),
        (false, 0) => Workload::scs(),
        (false, 1) => Workload::ccs(),
        (false, 2) => Workload::scra(),
        _ => Workload::ccra(),
    };
    let pattern = base.pattern;
    let burst = BurstLen::of(beats);
    let stride = match pattern {
        Pattern::Scs | Pattern::Ccs => burst.bytes(),
        Pattern::Scra | Pattern::Ccra => burst.bytes().max(512),
    };
    let rotation = if direct { 0 } else { rotation };
    Workload { burst, stride, outstanding, num_ids, rotation, seed, ..base }
}

fn row_json(m: &Measurement) -> String {
    serde_json::to_string(m).expect("Measurement serialises")
}

/// The reference: `step` every cycle, with the statistics reset between
/// warm-up and the measured window.
fn reference_measure(cfg: &SystemConfig, wl: Workload, trace: bool) -> (String, Option<String>) {
    reference_measure_for(cfg, wl, trace, WARMUP, CYCLES)
}

fn reference_measure_for(
    cfg: &SystemConfig,
    wl: Workload,
    trace: bool,
    warmup: u64,
    cycles: u64,
) -> (String, Option<String>) {
    let mut sys = HbmSystem::new(cfg, wl, None);
    if trace {
        sys.enable_tracing(1 << 12);
    }
    for _ in 0..warmup {
        sys.step();
    }
    sys.reset_stats();
    for _ in 0..cycles {
        sys.step();
    }
    let export = sys.tracer().map(|t| chrome_trace_json(&t.snapshot(), None, sys.clock()));
    (row_json(&snapshot(&sys, cycles)), export)
}

/// The same run through the wake-driven kernel.
fn wake_measure(cfg: &SystemConfig, wl: Workload, trace: bool) -> (String, Option<String>) {
    wake_measure_for(cfg, wl, trace, WARMUP, CYCLES)
}

fn wake_measure_for(
    cfg: &SystemConfig,
    wl: Workload,
    trace: bool,
    warmup: u64,
    cycles: u64,
) -> (String, Option<String>) {
    let mut sys = HbmSystem::new(cfg, wl, None);
    if trace {
        sys.enable_tracing(1 << 12);
    }
    sys.run(warmup);
    sys.reset_stats();
    sys.run(cycles);
    let export = sys.tracer().map(|t| chrome_trace_json(&t.snapshot(), None, sys.clock()));
    (row_json(&snapshot(&sys, cycles)), export)
}

/// Every cell of the fabric × pattern × outstanding × burst × rotation
/// grid once, at a short window, with the AXI ID count cycling through
/// 1/4/16. The direct fabric maps patterns onto SCS/SCRA and ignores
/// rotation, so only its distinct cells run.
#[test]
fn every_grid_cell_matches_the_reference_step() {
    let mut cell = 0usize;
    for fabric_sel in 0..4 {
        let direct = fabric_sel == 3;
        let cfg = config_for(fabric_sel);
        for pattern_sel in 0..if direct { 2 } else { 4 } {
            for outstanding in [1usize, 2, 8, 32] {
                for beats in [1u8, 16] {
                    for rotation in if direct { &[0usize][..] } else { &[0, 1, 8][..] } {
                        let num_ids = [1usize, 4, 16][cell % 3];
                        let wl = workload_for(
                            fabric_sel,
                            pattern_sel,
                            outstanding,
                            beats,
                            *rotation,
                            num_ids,
                            cell as u64,
                        );
                        let reference = reference_measure_for(&cfg, wl, false, 150, 450).0;
                        let wake = wake_measure_for(&cfg, wl, false, 150, 450).0;
                        assert_eq!(wake, reference, "{wl:?} on {:?}", cfg.fabric);
                        cell += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cell, 3 * 4 * 4 * 2 * 3 + 2 * 4 * 2);
}

/// Drains through `step` alone, stopping where `run_until_drained`'s
/// contract says: at the first drained cycle, or at the budget.
fn reference_drain(sys: &mut HbmSystem, budget: u64) -> bool {
    let deadline = sys.now() + budget;
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

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Measurement bytes (ID-stall counts across the warm-up reset
        /// included) match the reference step, traced and untraced.
        #[test]
        fn measurements_match_the_reference_step(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in prop::sample::select(vec![1usize, 2, 8, 32]),
            beats in prop::sample::select(vec![1u8, 16]),
            rotation in prop::sample::select(vec![0usize, 1, 8]),
            num_ids in prop::sample::select(vec![1usize, 4, 16]),
            trace in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, outstanding, beats, rotation, num_ids, seed);
            let (reference, reference_trace) = reference_measure(&cfg, wl, trace);
            let (wake, wake_trace) = wake_measure(&cfg, wl, trace);
            prop_assert_eq!(&wake, &reference, "{:?} on {:?}", wl, cfg.fabric);
            prop_assert_eq!(wake_trace, reference_trace);
            if trace {
                // Tracing is observation only: the untraced kernel agrees.
                prop_assert_eq!(wake_measure(&cfg, wl, false).0, reference);
            }
        }

        /// A bounded drain ends on the reference's cycle with the
        /// reference's statistics.
        #[test]
        fn drains_end_on_the_reference_cycle(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in prop::sample::select(vec![1usize, 2, 8, 32]),
            beats in prop::sample::select(vec![1u8, 16]),
            rotation in prop::sample::select(vec![0usize, 1, 8]),
            per_master in 1u64..6,
            seed in any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, outstanding, beats, rotation, 4, seed);
            let mut wake = HbmSystem::new(&cfg, wl, Some(per_master));
            let mut reference = HbmSystem::new(&cfg, wl, Some(per_master));
            prop_assert!(wake.run_until_drained(3_000_000), "{:?} failed to drain", wl);
            prop_assert!(reference_drain(&mut reference, 3_000_000));
            prop_assert_eq!(wake.now(), reference.now());
            prop_assert_eq!(
                row_json(&snapshot(&wake, wake.now())),
                row_json(&snapshot(&reference, reference.now()))
            );
        }
    }
}

/// Pinned cases for the stall accounting: random cross-channel traffic
/// with one AXI ID stalls at ingress on the fabrics that keep the
/// same-ID rule, and the counts match the reference exactly.
#[test]
fn id_stall_counts_match_across_the_warmup_reset() {
    for fabric_sel in [0, 2] {
        let cfg = config_for(fabric_sel);
        let wl = workload_for(fabric_sel, 3, 8, 16, 0, 1, 11);
        let (reference, _) = reference_measure(&cfg, wl, false);
        let (wake, _) = wake_measure(&cfg, wl, false);
        assert_eq!(wake, reference);
        let m: Measurement = serde_json::from_str(&wake).expect("row parses");
        assert!(m.fabric.id_stall_cycles > 0, "fabric {fabric_sel} must stall on one ID");
    }
}
