//! Harness: attach engines to a simulated HBM system and run to
//! completion.

use hbm_axi::Cycle;
use hbm_core::system::{HbmSystem, SystemConfig, TrafficSource};
use hbm_roofline::Roofline;
use serde::{Deserialize, Serialize};

use crate::engine::{DataflowEngine, IdleSource};

/// Result of one accelerator run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AccelReport {
    /// Cycles until the last engine finished.
    pub cycles: Cycle,
    /// Total operations performed.
    pub ops: u64,
    /// Total bytes moved (reads + writes).
    pub bytes: u64,
    /// Achieved performance in GOPS.
    pub gops: f64,
    /// Achieved memory throughput in GB/s.
    pub gbps: f64,
    /// Operational intensity actually exhibited (ops / bytes).
    pub op_intensity: f64,
}

impl AccelReport {
    /// The Roofline prediction for this run given a bandwidth ceiling
    /// and compute ceiling, in GOPS.
    pub fn predicted_gops(&self, comp_gops: f64, bw_gbps: f64) -> f64 {
        Roofline::new(comp_gops, bw_gbps).attainable(self.op_intensity)
    }

    /// Relative error of the prediction against the achieved GOPS.
    pub fn prediction_error(&self, comp_gops: f64, bw_gbps: f64) -> f64 {
        let p = self.predicted_gops(comp_gops, bw_gbps);
        (p - self.gops).abs() / self.gops
    }
}

/// Runs `engines` (masters `0..engines.len()`) on `cfg`, padding the
/// remaining master ports with idle sources. `total_ops` is the sum of
/// the engines' phase-script operation counts (the engines are consumed
/// into the system as trait objects, so the caller supplies it — for the
/// matmul builders it is simply `dims.total_ops()`).
///
/// Returns `None` if the run did not finish within `max_cycles`.
pub fn run_engines(
    cfg: &SystemConfig,
    engines: Vec<DataflowEngine>,
    total_ops: u64,
    max_cycles: Cycle,
) -> Option<AccelReport> {
    let n = cfg.hbm.num_pch;
    assert!(engines.len() <= n, "more engines than master ports");
    let used = engines.len();
    let mut sources: Vec<Box<dyn TrafficSource>> = Vec::with_capacity(n);
    for e in engines {
        sources.push(Box::new(e));
    }
    for _ in used..n {
        sources.push(Box::new(IdleSource::default()));
    }
    let mut sys = HbmSystem::with_sources(cfg, sources);
    if !sys.run_until_drained(max_cycles) {
        return None;
    }
    let cycles = sys.now();
    let bytes = sys.gen_stats_total().total_bytes();
    let ns = cfg.clock.cycles_to_ns(cycles);
    Some(AccelReport {
        cycles,
        ops: total_ops,
        bytes,
        gops: total_ops as f64 / ns,
        gbps: sys.clock().throughput_gbps(bytes, cycles),
        op_intensity: total_ops as f64 / bytes as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul_a::pe_array_engines;
    use crate::matmul_b::adder_tree_engines;
    use crate::phase::MatmulDims;
    use hbm_axi::BurstLen;
    use hbm_core::system::FabricKind;
    use hbm_mao::InterleaveMode;

    /// A MAO system whose interleave granularity matches small-matrix
    /// row bands (keeps the test matrices tiny).
    fn mao_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::mao();
        if let FabricKind::Mao(ref mut m) = cfg.fabric {
            m.interleave = InterleaveMode::XorFold { granularity: 512 };
        }
        cfg
    }

    fn a_engines(dims: &MatmulDims, p: usize, opc: f64) -> (Vec<DataflowEngine>, u64) {
        let engines = pe_array_engines(dims, p, 32, opc, BurstLen::of(16), 16, 8);
        (engines, dims.total_ops())
    }

    #[test]
    fn pe_array_completes_on_mao() {
        let dims = MatmulDims::square(128);
        let (engines, ops) = a_engines(&dims, 8, 1e5);
        let r =
            run_engines(&mao_cfg(), engines, ops, 3_000_000).expect("accelerator did not finish");
        assert_eq!(r.ops, dims.total_ops());
        assert!(r.gops > 0.0 && r.gbps > 0.0);
        // 2·128³ ops over ≥ |A|+|B|+|C| bytes.
        assert!(r.bytes >= 3 * 128 * 128 * 4);
    }

    #[test]
    fn adder_tree_completes_on_mao() {
        let dims = MatmulDims::square(128);
        let engines = adder_tree_engines(&dims, 8, 1e5, BurstLen::of(16), 16, 8);
        let r = run_engines(&mao_cfg(), engines, dims.total_ops(), 3_000_000)
            .expect("accelerator did not finish");
        // B re-streamed by every master: ≥ 8 × |B| read traffic.
        assert!(r.bytes as f64 >= 8.0 * (128.0 * 128.0 * 4.0));
    }

    #[test]
    fn compute_bound_run_matches_compute_ceiling() {
        // Tiny compute rate: the run must take ≈ ops / rate cycles and
        // achieve ≈ the compute ceiling in GOPS.
        let dims = MatmulDims::square(64);
        let total_opc = 64.0; // ops per cycle over all engines
        let (engines, ops) = a_engines(&dims, 4, total_opc);
        let r = run_engines(&mao_cfg(), engines, ops, 3_000_000).unwrap();
        let ideal_cycles = ops as f64 / total_opc;
        assert!(
            (r.cycles as f64) < 1.4 * ideal_cycles,
            "compute-bound run took {} vs ideal {ideal_cycles}",
            r.cycles
        );
        // GOPS ≈ rate × clock.
        let ceiling = total_opc * 0.3; // 300 MHz → GOPS
        assert!(r.gops > 0.7 * ceiling, "gops {} vs ceiling {ceiling}", r.gops);
    }

    #[test]
    fn memory_bound_run_tracks_bandwidth() {
        // Infinite compute: the run is bounded by memory, and the
        // Roofline with the achieved bandwidth predicts the achieved
        // GOPS almost exactly (the paper's §V model-accuracy claim).
        let dims = MatmulDims::square(128);
        let (engines, ops) = a_engines(&dims, 8, 1e9);
        let r = run_engines(&mao_cfg(), engines, ops, 3_000_000).unwrap();
        let err = r.prediction_error(1e12, r.gbps);
        assert!(err < 0.02, "roofline self-consistency error {err}");
    }

    #[test]
    fn mao_beats_xilinx_for_the_accelerator() {
        // The §V claim end-to-end: the same accelerator, same script, on
        // both interconnects.
        let dims = MatmulDims::square(96);
        let (e1, ops) = a_engines(&dims, 8, 1e9);
        let mao = run_engines(&mao_cfg(), e1, ops, 10_000_000).unwrap();
        let (e2, ops2) = a_engines(&dims, 8, 1e9);
        let xlnx = run_engines(&SystemConfig::xilinx(), e2, ops2, 10_000_000).unwrap();
        assert!(mao.gops > 3.0 * xlnx.gops, "MAO {} GOPS vs XLNX {} GOPS", mao.gops, xlnx.gops);
    }

    #[test]
    fn unfinished_run_returns_none() {
        let dims = MatmulDims::square(128);
        let (engines, ops) = a_engines(&dims, 8, 1.0); // would take ages
        assert!(run_engines(&mao_cfg(), engines, ops, 1_000).is_none());
    }
}
