//! Configuration of the HBM memory subsystem.
//!
//! Defaults model the two 4-Hi HBM2 stacks of a Xilinx XCVU37P: 32
//! pseudo-channels of 256 MiB each (8 GiB total), 14.4 GB/s raw per PCH.
//! Timing values are representative HBM2 datasheet numbers; the
//! reproduction targets the *shape* of the paper's results, and the
//! anchors (effective ≈ 13.0–13.3 GB/s per PCH, ~7 % refresh derate)
//! follow from these values rather than being hard-coded.

use serde::{Deserialize, Serialize};

/// DRAM timing parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Timings {
    /// Row-to-column delay: ACTIVATE → first READ/WRITE.
    pub t_rcd: f64,
    /// Row precharge time: PRECHARGE → next ACTIVATE.
    pub t_rp: f64,
    /// CAS latency: READ command → first data.
    pub t_cl: f64,
    /// Minimum row-active time: ACTIVATE → PRECHARGE.
    pub t_ras: f64,
    /// Data-bus time per 32-byte beat (64-bit DDR pseudo-channel at
    /// 900 MHz → 14.4 GB/s → 2.222 ns per 32 B).
    pub t_beat: f64,
    /// Bus turnaround when switching write→read.
    pub t_wtr: f64,
    /// Read/write-to-precharge delay: the open row may only be
    /// precharged once the last column access to it has completed.
    pub t_rtp: f64,
    /// Minimum delay between two ACTIVATE commands in the same
    /// pseudo-channel (different banks).
    pub t_rrd: f64,
    /// Four-activate window: at most four ACTIVATEs may issue within a
    /// rolling window of this length.
    pub t_faw: f64,
    /// Bus turnaround when switching read→write.
    pub t_rtw: f64,
    /// Average refresh interval (one REF command per tREFI).
    pub t_refi: f64,
    /// Refresh cycle time (bus blocked per REF).
    pub t_rfc: f64,
}

impl Default for Timings {
    fn default() -> Timings {
        Timings {
            t_rcd: 14.0,
            t_rp: 14.0,
            t_cl: 14.0,
            t_ras: 33.0,
            t_beat: 32.0 / 14.4, // ≈ 2.222 ns
            t_wtr: 8.0,
            t_rtw: 8.0,
            t_rtp: 7.5,
            t_rrd: 4.0,
            t_faw: 20.0,
            t_refi: 3900.0,
            t_rfc: 260.0,
        }
    }
}

impl Timings {
    /// Raw per-PCH bandwidth implied by the beat time, in GB/s.
    pub fn raw_bw_gbps(&self) -> f64 {
        32.0 / self.t_beat
    }

    /// Fraction of bus time lost to refresh (tRFC / tREFI).
    pub fn refresh_overhead(&self) -> f64 {
        self.t_rfc / self.t_refi
    }

    /// Effective per-PCH bandwidth after refresh derating, in GB/s.
    /// With the defaults this is ≈ 13.4 GB/s, bracketing the paper's
    /// quoted 7–9 % below 14.4 GB/s.
    pub fn effective_bw_gbps(&self) -> f64 {
        self.raw_bw_gbps() * (1.0 - self.refresh_overhead())
    }

    /// Closed-page access time: ACTIVATE → first data (tRCD + tCL).
    pub fn closed_page_ns(&self) -> f64 {
        self.t_rcd + self.t_cl
    }

    /// Worst-case row-miss overhead: PRECHARGE + ACTIVATE + CAS.
    pub fn row_miss_ns(&self) -> f64 {
        self.t_rp + self.t_rcd + self.t_cl
    }
}

/// How PCH-local addresses map onto (bank, row, column) — the DRAM
/// address-mapping axis Wang et al. (Shuhai) benchmark on the Xilinx
/// controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddressMapPolicy {
    /// Consecutive rows map to consecutive banks (default): a linear
    /// stream activates banks round-robin, hiding row opens.
    RowInterleaved,
    /// Each bank owns a contiguous slice of the channel: a linear stream
    /// stays in one bank and serialises on row cycles — the pathological
    /// corner the default exists to avoid.
    BankContiguous,
}

/// DRAM row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// Keep rows open after an access (default; rewards spatial
    /// locality, the policy Wang et al. found best and the paper
    /// adopts).
    Open,
    /// Auto-precharge after every access (uniform latency, no hits —
    /// available for the page-policy ablation).
    Closed,
}

/// Memory-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McConfig {
    /// Request-queue depth in transactions.
    pub queue_depth: usize,
    /// Scheduling window: how many queued requests the controller examines
    /// when picking the next DRAM job (1 = strict FIFO; larger windows
    /// enable FR-FCFS row-hit-first scheduling).
    pub window: usize,
    /// Maximum same-direction requests serviced in a row before the other
    /// direction is given priority (bounds turnaround amortisation against
    /// starvation).
    pub dir_batch: usize,
    /// Pipeline latency through the controller on the request path, in
    /// accelerator cycles (command decode, protocol conversion).
    pub req_latency: u64,
    /// Pipeline latency on the response path, in accelerator cycles.
    pub resp_latency: u64,
    /// Response-queue depth in completions (back-pressures the DRAM when
    /// the return network cannot drain data fast enough).
    pub resp_depth: usize,
    /// Additional read-data latency through the controller PHY and clock
    /// domain crossings, in nanoseconds. Pure pipeline offset: it delays
    /// read completions without occupying the DRAM bus. (Xilinx's HBM
    /// controller+PHY dominates the 160 ns closed-page read latency the
    /// paper measures; raw DRAM timing accounts for only ~28 ns.)
    pub phy_read_ns: f64,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// How far ahead of real time the controller may issue DRAM jobs, in
    /// nanoseconds of accumulated data-bus backlog. Issue-ahead is what
    /// lets row activates of later jobs overlap data transfer of earlier
    /// ones (bank-level parallelism); too large a value would decouple
    /// back-pressure from the DRAM.
    pub lookahead_ns: f64,
}

impl McConfig {
    /// The configuration Wang et al. (Shuhai, the paper's reference
    /// \[13\]) found best and the paper adopts: open page, deep FR-FCFS
    /// reordering, direction batching.
    pub fn throughput_optimised() -> McConfig {
        McConfig::default()
    }

    /// A latency-optimised controller: strict FIFO (no reordering),
    /// closed page for uniform access times, no issue-ahead. Trades
    /// throughput for predictability — the opposite corner of the
    /// configuration space Shuhai benchmarks.
    pub fn latency_optimised() -> McConfig {
        McConfig {
            window: 1,
            dir_batch: 1,
            page_policy: PagePolicy::Closed,
            lookahead_ns: 0.0,
            ..McConfig::default()
        }
    }
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            queue_depth: 32,
            window: 16,
            dir_batch: 8,
            req_latency: 13,
            resp_latency: 4,
            resp_depth: 16,
            phy_read_ns: 50.0,
            page_policy: PagePolicy::Open,
            lookahead_ns: 80.0,
        }
    }
}

/// The geometry one pseudo-channel's address decode needs: a small
/// `Copy` subset of [`HbmConfig`] kept inline in every [`crate::PchDram`]
/// so the hot path never chases a full config clone (32 PCHs would
/// otherwise each carry ~200 bytes of fabric-level fields they never
/// read).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PchGeometry {
    /// Capacity per pseudo-channel in bytes.
    pub pch_capacity: u64,
    /// Row (DRAM page) size in bytes.
    pub row_bytes: u64,
    /// Banks per pseudo-channel.
    pub banks_per_pch: usize,
    /// Bank/row/column address-mapping policy.
    pub addr_map: AddressMapPolicy,
}

impl PchGeometry {
    /// Rows per bank implied by the geometry.
    pub fn rows_per_bank(&self) -> u64 {
        self.pch_capacity / (self.row_bytes * self.banks_per_pch as u64)
    }
}

/// Full HBM subsystem geometry + timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmConfig {
    /// Number of pseudo-channels (32 on the XCVU37P's two stacks).
    pub num_pch: usize,
    /// Capacity per pseudo-channel in bytes (256 MiB on the XCVU37P).
    pub pch_capacity: u64,
    /// Banks per pseudo-channel.
    pub banks_per_pch: usize,
    /// Row (DRAM page) size in bytes per pseudo-channel.
    pub row_bytes: u64,
    /// Bank/row/column address-mapping policy.
    pub addr_map: AddressMapPolicy,
    /// DRAM timing set.
    pub timings: Timings,
    /// Memory-controller configuration.
    pub mc: McConfig,
}

impl Default for HbmConfig {
    fn default() -> HbmConfig {
        HbmConfig {
            num_pch: 32,
            pch_capacity: 256 << 20,
            banks_per_pch: 16,
            row_bytes: 1024,
            addr_map: AddressMapPolicy::RowInterleaved,
            timings: Timings::default(),
            mc: McConfig::default(),
        }
    }
}

impl HbmConfig {
    /// A device with `stacks` 4-Hi HBM2 stacks (16 pseudo-channels and
    /// 4 GiB each; the XCVU37P has 2). Supports the paper's future-work
    /// scaling study ("future FPGAs with more HBM stacks … would make it
    /// possible to increase Ccomp even further").
    pub fn with_stacks(stacks: usize) -> HbmConfig {
        assert!(stacks >= 1);
        HbmConfig { num_pch: 16 * stacks, ..HbmConfig::default() }
    }

    /// Total device capacity in bytes (8 GiB with the defaults).
    pub fn total_capacity(&self) -> u64 {
        self.num_pch as u64 * self.pch_capacity
    }

    /// Theoretical device bandwidth over all PCHs in GB/s
    /// (460.8 GB/s with the defaults — the paper's "460 GB/s").
    pub fn theoretical_bw_gbps(&self) -> f64 {
        self.num_pch as f64 * self.timings.raw_bw_gbps()
    }

    /// Effective device bandwidth after refresh derating in GB/s.
    pub fn effective_bw_gbps(&self) -> f64 {
        self.num_pch as f64 * self.timings.effective_bw_gbps()
    }

    /// Rows per bank implied by geometry.
    pub fn rows_per_bank(&self) -> u64 {
        self.pch_capacity / (self.row_bytes * self.banks_per_pch as u64)
    }

    /// The per-PCH address-decode geometry as a small `Copy` value.
    pub fn geom(&self) -> PchGeometry {
        PchGeometry {
            pch_capacity: self.pch_capacity,
            row_bytes: self.row_bytes,
            banks_per_pch: self.banks_per_pch,
            addr_map: self.addr_map,
        }
    }

    /// The refresh-phase offset (in nanoseconds) of pseudo-channel
    /// `port`: refresh windows are staggered evenly across the device so
    /// all channels never pause simultaneously. Every system assembly —
    /// scalar or batched — must derive controller phases from this one
    /// formula, or their measurements diverge.
    pub fn refresh_phase(&self, port: usize) -> f64 {
        port as f64 / self.num_pch as f64 * self.timings.t_refi
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_pch == 0 {
            return Err("num_pch must be > 0".into());
        }
        if self.banks_per_pch == 0 {
            return Err("banks_per_pch must be > 0".into());
        }
        if !self.row_bytes.is_power_of_two() || self.row_bytes < 64 {
            return Err(format!("row_bytes {} must be a power of two ≥ 64", self.row_bytes));
        }
        if !self.pch_capacity.is_multiple_of(self.row_bytes * self.banks_per_pch as u64) {
            return Err("pch_capacity must be a whole number of rows per bank".into());
        }
        if self.mc.window == 0 || self.mc.queue_depth == 0 || self.mc.resp_depth == 0 {
            return Err("controller queue sizes must be > 0".into());
        }
        if self.mc.window > self.mc.queue_depth {
            return Err("scheduling window cannot exceed queue depth".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_device() {
        let c = HbmConfig::default();
        c.validate().unwrap();
        assert_eq!(c.num_pch, 32);
        assert_eq!(c.total_capacity(), 8 << 30);
        let raw = c.theoretical_bw_gbps();
        assert!((raw - 460.8).abs() < 0.1, "raw {raw}");
    }

    #[test]
    fn refresh_derate_in_paper_band() {
        // Xilinx states effective throughput 7–9 % below theoretical.
        let t = Timings::default();
        let ov = t.refresh_overhead();
        assert!(ov > 0.05 && ov < 0.09, "refresh overhead {ov}");
        let eff = t.effective_bw_gbps();
        assert!(eff > 13.0 && eff < 13.6, "effective {eff}");
    }

    #[test]
    fn closed_page_and_row_miss_times() {
        let t = Timings::default();
        assert!((t.closed_page_ns() - 28.0).abs() < 1e-9);
        assert!((t.row_miss_ns() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn rows_per_bank_consistent() {
        let c = HbmConfig::default();
        assert_eq!(c.rows_per_bank() * c.row_bytes * c.banks_per_pch as u64, c.pch_capacity);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let c = HbmConfig { num_pch: 0, ..HbmConfig::default() };
        assert!(c.validate().is_err());

        // 1000 is not a power of two.
        let c = HbmConfig { row_bytes: 1000, ..HbmConfig::default() };
        assert!(c.validate().is_err());

        let mut c = HbmConfig::default();
        c.mc.window = c.mc.queue_depth + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mc_presets() {
        let t = McConfig::throughput_optimised();
        assert_eq!(t.page_policy, PagePolicy::Open);
        assert!(t.window > 1);
        let l = McConfig::latency_optimised();
        assert_eq!(l.page_policy, PagePolicy::Closed);
        assert_eq!(l.window, 1);
        let c = HbmConfig { mc: l, ..HbmConfig::default() };
        c.validate().unwrap();
    }

    #[test]
    fn stack_scaling_geometry() {
        let one = HbmConfig::with_stacks(1);
        assert_eq!(one.num_pch, 16);
        assert_eq!(one.total_capacity(), 4 << 30);
        let four = HbmConfig::with_stacks(4);
        assert_eq!(four.num_pch, 64);
        assert!((four.theoretical_bw_gbps() - 2.0 * 460.8).abs() < 0.1);
        four.validate().unwrap();
    }

    #[test]
    fn clone_equality() {
        let c = HbmConfig::default();
        let cloned = c.clone();
        assert_eq!(c, cloned);
    }
}
