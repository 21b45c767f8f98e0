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
//! * with the lifecycle tracer on, the measurement, the exported Chrome
//!   trace, and the snapshot's raw records and drop count.
//!
//! Inputs span the four fabrics, the four patterns, outstanding depths
//! 1/2/8/32, bursts of 1 and 16 beats and rotations 0/1/8: every cell of
//! that grid once at a short window, and random cells (with AXI ID
//! counts, read:write ratios, seeds, tracing and its record cap drawn
//! too) at a longer one.

use hbm_fpga::axi::TxnRecord;
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

/// What tracing leaves behind: the Chrome export, plus the raw records
/// and drop count the export does not show in full (hop and DRAM stamps,
/// records past the cap).
#[derive(Debug, PartialEq)]
struct Traced {
    export: String,
    records: Vec<TxnRecord>,
    dropped: u64,
}

fn traced(sys: &HbmSystem) -> Option<Traced> {
    sys.tracer().map(|t| {
        let snap = t.snapshot();
        Traced {
            export: chrome_trace_json(&snap, None, sys.clock()),
            records: snap.records().to_vec(),
            dropped: snap.dropped(),
        }
    })
}

/// The reference: `step` every cycle, with the statistics reset between
/// warm-up and the measured window. `cap` is the tracer's record cap,
/// `None` for an untraced run.
fn reference_measure(
    cfg: &SystemConfig,
    wl: Workload,
    cap: Option<usize>,
) -> (String, Option<Traced>) {
    reference_measure_for(cfg, wl, cap, WARMUP, CYCLES)
}

fn reference_measure_for(
    cfg: &SystemConfig,
    wl: Workload,
    cap: Option<usize>,
    warmup: u64,
    cycles: u64,
) -> (String, Option<Traced>) {
    let mut sys = HbmSystem::new(cfg, wl, None);
    if let Some(cap) = cap {
        sys.enable_tracing(cap);
    }
    for _ in 0..warmup {
        sys.step();
    }
    sys.reset_stats();
    for _ in 0..cycles {
        sys.step();
    }
    (row_json(&snapshot(&sys, cycles)), traced(&sys))
}

/// The same run through the wake-driven kernel.
fn wake_measure(cfg: &SystemConfig, wl: Workload, cap: Option<usize>) -> (String, Option<Traced>) {
    wake_measure_for(cfg, wl, cap, WARMUP, CYCLES)
}

fn wake_measure_for(
    cfg: &SystemConfig,
    wl: Workload,
    cap: Option<usize>,
    warmup: u64,
    cycles: u64,
) -> (String, Option<Traced>) {
    let mut sys = HbmSystem::new(cfg, wl, None);
    if let Some(cap) = cap {
        sys.enable_tracing(cap);
    }
    sys.run(warmup);
    sys.reset_stats();
    sys.run(cycles);
    (row_json(&snapshot(&sys, cycles)), traced(&sys))
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
                        let reference = reference_measure_for(&cfg, wl, None, 150, 450).0;
                        let wake = wake_measure_for(&cfg, wl, None, 150, 450).0;
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
        /// included) match the reference step, traced and untraced; a
        /// traced run also matches its export and raw records, with
        /// write-only traffic and a binding cap of 16 records per domain
        /// among the draws.
        #[test]
        fn measurements_match_the_reference_step(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            outstanding in prop::sample::select(vec![1usize, 2, 8, 32]),
            beats in prop::sample::select(vec![1u8, 16]),
            rotation in prop::sample::select(vec![0usize, 1, 8]),
            num_ids in prop::sample::select(vec![1usize, 4, 16]),
            rw in prop::sample::select(vec![RwRatio::TWO_TO_ONE, RwRatio::WRITE_ONLY]),
            trace in any::<bool>(),
            cap in prop::sample::select(vec![1usize << 12, 16]),
            seed in any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = Workload {
                rw,
                ..workload_for(fabric_sel, pattern_sel, outstanding, beats, rotation, num_ids, seed)
            };
            let cap = trace.then_some(cap);
            let (reference, reference_trace) = reference_measure(&cfg, wl, cap);
            let (wake, wake_trace) = wake_measure(&cfg, wl, cap);
            prop_assert_eq!(&wake, &reference, "{:?} on {:?}", wl, cfg.fabric);
            prop_assert_eq!(wake_trace, reference_trace, "{:?} on {:?}", wl, cfg.fabric);
            if trace {
                // Tracing is observation only: the untraced kernel agrees.
                prop_assert_eq!(wake_measure(&cfg, wl, None).0, reference);
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
        let (reference, _) = reference_measure(&cfg, wl, None);
        let (wake, _) = wake_measure(&cfg, wl, None);
        assert_eq!(wake, reference);
        let m: Measurement = serde_json::from_str(&wake).expect("row parses");
        assert!(m.fabric.id_stall_cycles > 0, "fabric {fabric_sel} must stall on one ID");
    }
}

/// Pinned traced cells the random draws may miss: write-only traffic
/// that crosses switches on the sharded fabric (a posted write's ack can
/// reach its master's domain before the port's domain issues the write
/// to DRAM), at the default cap and at one that binds per domain.
#[test]
fn traced_posted_writes_across_switches_match_the_reference_records() {
    let cfg = config_for(0);
    for (pattern_sel, rotation) in [(0, 1), (3, 0)] {
        for cap in [1 << 12, 16] {
            let wl = Workload {
                rw: RwRatio::WRITE_ONLY,
                ..workload_for(0, pattern_sel, 8, 16, rotation, 4, 7)
            };
            let (reference, reference_trace) = reference_measure(&cfg, wl, Some(cap));
            let (wake, wake_trace) = wake_measure(&cfg, wl, Some(cap));
            assert_eq!(wake, reference, "{wl:?}");
            let (wake_trace, reference_trace) = (wake_trace.unwrap(), reference_trace.unwrap());
            assert_eq!(wake_trace.dropped, reference_trace.dropped, "{wl:?} cap {cap}");
            assert!(wake_trace.records == reference_trace.records, "{wl:?} cap {cap}");
            assert_eq!(wake_trace.export, reference_trace.export, "{wl:?} cap {cap}");
            if cap == 16 {
                assert!(wake_trace.dropped > 0, "a cap of 16 must bind");
            }
        }
    }
}
