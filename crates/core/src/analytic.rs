//! Closed-form throughput/latency model — the `Fidelity::Analytical`
//! tier (DESIGN.md §3.9).
//!
//! The paper's curves are dominated by a handful of closed-form effects:
//! port clocking, lateral-bus hops, burst efficiency, page-hit ratio,
//! and the outstanding-transaction (Little's-law) bound. This module
//! evaluates those effects directly — microseconds per point instead of
//! milliseconds of cycle simulation — and synthesises rows in the same
//! [`Measurement`] shape the simulator emits, so every renderer, cache
//! tier, and serve client consumes them unchanged.
//!
//! There is exactly **one** implementation of the closed-form rules:
//! [`ceilings`] holds the paper's §IV estimator (the
//! [`crate::estimate`] module delegates here), and [`model`] extends it
//! with the rotation-aware lateral ceiling, the demand (Little's-law)
//! ceiling, and the latency model. Residual error against the cycle
//! simulator is absorbed by a versioned [`Calibration`] artifact fitted
//! per *scenario family* (fabric class × pattern) by the `repro
//! xvalidate` harness, which also reports the per-family error envelope
//! (mean/p95/max relative error). Analytical rows are never cached
//! ([`crate::cache::ResultCache::measure_cached`] predicts them before
//! any fingerprint is taken), so a row always reflects the active
//! calibration, builtin or loaded from `HBM_CALIBRATION`.
//!
//! Accuracy contract: the *calibrated* bandwidth prediction stays inside
//! the per-family envelope on the pinned scenario lattice
//! ([`scenario_lattice`]); CI gates the p95. Latencies are best-effort
//! (reported by `xvalidate`, not gated): the synthetic latency
//! statistics carry the model's mean as a single sample per direction,
//! which keeps `mean()` exact and the row cheap to build.

use std::sync::OnceLock;

use hbm_traffic::{GenStats, Pattern, Workload};
use serde::{Deserialize, Serialize};

use crate::batch::GridPoint;
use crate::experiment::{Fidelity, FidelityTier};
use crate::measure::Measurement;
use crate::system::{FabricKind, SystemConfig};

/// Version of the calibration artifact format *and* of the model
/// equations it was fitted against. Bump whenever either changes:
/// stale artifacts are rejected loudly and the builtin calibration
/// takes over.
pub const CALIBRATION_VERSION: u32 = 1;

// ------------------------------------------------------------ families

/// The fabric equivalence class a calibration family is keyed by.
/// `XilinxTweaked` shares the `Xilinx` class: the tweaks change
/// parameters the model reads directly (bus count, rate, dead beats),
/// not the residual structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricClass {
    /// 1:1 direct port mapping.
    Direct,
    /// The full crossbar: the stock switch model as one 32×32 switch.
    FullCrossbar,
    /// Segmented Xilinx switch network (stock or tweaked).
    Xilinx,
    /// Memory Access Optimizer.
    Mao,
}

impl FabricClass {
    /// The class of a concrete fabric configuration.
    pub fn of(fabric: &FabricKind) -> FabricClass {
        match fabric {
            FabricKind::Direct => FabricClass::Direct,
            FabricKind::FullCrossbar => FabricClass::FullCrossbar,
            FabricKind::Xilinx | FabricKind::XilinxTweaked(_) => FabricClass::Xilinx,
            FabricKind::Mao(_) => FabricClass::Mao,
        }
    }

    /// Short lowercase name, stable for reports and JSON keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            FabricClass::Direct => "direct",
            FabricClass::FullCrossbar => "crossbar",
            FabricClass::Xilinx => "xilinx",
            FabricClass::Mao => "mao",
        }
    }
}

impl std::fmt::Display for FabricClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ------------------------------------------------------------ calibration

/// Relative-error envelope of one scenario family, over the pinned
/// cross-validation lattice: `|calibrated − cycle| / cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// Mean relative error.
    pub mean: f64,
    /// 95th-percentile relative error (the CI-gated figure).
    pub p95: f64,
    /// Worst relative error.
    pub max: f64,
}

impl ErrorEnvelope {
    /// An envelope that trusts nothing — used for families the lattice
    /// never exercised, so adaptive sweeps always escalate them.
    pub const UNTRUSTED: ErrorEnvelope = ErrorEnvelope { mean: 1.0, p95: 1.0, max: 1.0 };
}

/// Fitted residuals and error envelope for one scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FamilyCalibration {
    /// Fabric class of the family.
    pub fabric: FabricClass,
    /// Workload pattern of the family.
    pub pattern: Pattern,
    /// Multiplicative residual on the model's bandwidth (geometric mean
    /// of cycle/model over the lattice).
    pub bw_scale: f64,
    /// Multiplicative residual on the model's latencies.
    pub lat_scale: f64,
    /// Error envelope of the *calibrated* bandwidth.
    pub envelope: ErrorEnvelope,
}

impl FamilyCalibration {
    /// The identity calibration for an unfitted family: raw model
    /// output, untrusted envelope.
    pub fn identity(fabric: FabricClass, pattern: Pattern) -> FamilyCalibration {
        FamilyCalibration {
            fabric,
            pattern,
            bw_scale: 1.0,
            lat_scale: 1.0,
            envelope: ErrorEnvelope::UNTRUSTED,
        }
    }
}

/// The versioned calibration artifact: one [`FamilyCalibration`] per
/// fitted scenario family. Round-trips through serde; artifacts written
/// under a different [`CALIBRATION_VERSION`] are rejected loudly (the
/// model equations they were fitted against no longer exist).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The [`CALIBRATION_VERSION`] this artifact was fitted under.
    pub version: u32,
    /// Per-family fitted residuals.
    pub families: Vec<FamilyCalibration>,
}

impl Calibration {
    /// The identity calibration: raw model output, every family
    /// untrusted.
    pub fn identity() -> Calibration {
        Calibration { version: CALIBRATION_VERSION, families: Vec::new() }
    }

    /// The builtin calibration, fitted with `repro xvalidate` against
    /// the cycle simulator on the pinned scenario lattice at QUICK
    /// windows (this repo's CI re-validates the envelope every run).
    pub fn builtin() -> Calibration {
        use FabricClass::*;
        use Pattern::*;
        let f = |fabric, pattern, bw_scale, lat_scale, mean, p95, max| FamilyCalibration {
            fabric,
            pattern,
            bw_scale,
            lat_scale,
            envelope: ErrorEnvelope { mean, p95, max },
        };
        Calibration {
            version: CALIBRATION_VERSION,
            families: vec![
                // Fitted by `repro xvalidate` (see BENCH_xvalidate.json).
                f(Xilinx, Scs, 0.9742, 1.2076, 0.0269, 0.0480, 0.0480),
                f(Xilinx, Ccs, 0.9980, 0.2290, 0.0040, 0.0081, 0.0081),
                f(Xilinx, Scra, 1.0759, 1.1768, 0.0519, 0.0759, 0.0759),
                f(Xilinx, Ccra, 0.9981, 0.4181, 0.0131, 0.0252, 0.0252),
                f(Mao, Scs, 0.9686, 1.2310, 0.0593, 0.1135, 0.1135),
                f(Mao, Ccs, 1.0168, 1.2076, 0.0529, 0.0837, 0.0837),
                f(Mao, Scra, 1.0201, 1.1512, 0.1002, 0.1102, 0.1102),
                f(Mao, Ccra, 1.0396, 1.1867, 0.0773, 0.1124, 0.1124),
                f(FullCrossbar, Scs, 0.9834, 1.2730, 0.0284, 0.0579, 0.0579),
                f(FullCrossbar, Ccs, 1.0454, 0.3860, 0.0475, 0.0520, 0.0520),
                f(FullCrossbar, Scra, 1.0592, 1.2115, 0.0412, 0.0798, 0.0798),
                f(FullCrossbar, Ccra, 0.7285, 0.7442, 0.0561, 0.0878, 0.0878),
                f(Direct, Scs, 0.9822, 1.2741, 0.0266, 0.0542, 0.0542),
                f(Direct, Scra, 1.0631, 1.2073, 0.0396, 0.0767, 0.0767),
            ],
        }
    }

    /// The fitted family, or the identity (untrusted) calibration when
    /// the family was never fitted.
    pub fn family(&self, fabric: FabricClass, pattern: Pattern) -> FamilyCalibration {
        self.families
            .iter()
            .copied()
            .find(|fc| fc.fabric == fabric && fc.pattern == pattern)
            .unwrap_or_else(|| FamilyCalibration::identity(fabric, pattern))
    }

    /// Serialises the artifact as canonical JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("calibration serialises")
    }

    /// Parses an artifact, rejecting stale versions loudly: a
    /// calibration fitted against older model equations must be
    /// re-fitted (`repro xvalidate --out <path>`), not reused.
    pub fn from_json(json: &str) -> Result<Calibration, String> {
        let cal: Calibration =
            serde_json::from_str(json).map_err(|e| format!("unparsable calibration: {e}"))?;
        if cal.version != CALIBRATION_VERSION {
            return Err(format!(
                "stale calibration artifact: version {} but the model is at version {} — \
                 re-fit it with `repro xvalidate --out <path>`",
                cal.version, CALIBRATION_VERSION
            ));
        }
        Ok(cal)
    }

    /// The process-wide active calibration: the artifact named by
    /// `HBM_CALIBRATION` when set and valid (stale or unreadable
    /// artifacts are reported on stderr and ignored), else the builtin.
    pub fn active() -> &'static Calibration {
        static ACTIVE: OnceLock<Calibration> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            if let Ok(path) = std::env::var("HBM_CALIBRATION") {
                let path = path.trim();
                if !path.is_empty() {
                    match std::fs::read_to_string(path)
                        .map_err(|e| e.to_string())
                        .and_then(|s| Calibration::from_json(&s))
                    {
                        Ok(cal) => return cal,
                        Err(e) => {
                            eprintln!(
                                "hbm-analytic: ignoring HBM_CALIBRATION={path}: {e}; \
                                 using the builtin calibration"
                            );
                        }
                    }
                }
            }
            Calibration::builtin()
        })
    }
}

// ------------------------------------------------------------ the model

/// The paper's §IV ceilings for one point (no calibration applied).
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Port-clock ceiling in GB/s.
    pub port: f64,
    /// DRAM ceiling over the effective channels in GB/s.
    pub dram: f64,
    /// Lateral-bus ceiling in GB/s (infinite when not applicable).
    pub lateral: f64,
    /// Effective number of channels.
    pub n_ch_eff: usize,
}

/// The paper's §IV estimation rules — the single implementation
/// [`crate::estimate::estimate_bandwidth`] and [`model`] both build on.
///
/// 1. **Port clock**: each AXI port moves ≤ `32 B × facc` per direction;
///    a read:write mix uses both directions in proportion.
/// 2. **Effective DRAM rate**: the per-PCH ceiling is the refresh-derated
///    raw rate, further derated for short bursts and random access.
/// 3. **Effective channels**: the contiguous map confines a buffer of
///    `working_set` bytes to `⌈ws / capacity⌉` channels; the MAO's
///    interleaving (or single-channel partitioning) uses all of them.
/// 4. **Lateral ceiling**: cross-channel random traffic on the segmented
///    fabric is additionally capped by the lateral buses.
pub fn ceilings(cfg: &SystemConfig, wl: &Workload) -> Ceilings {
    let n = cfg.hbm.num_pch;
    let port_bw = cfg.clock.port_bw_gbps(); // per port per direction
    let read_frac = wl.rw.read_fraction();

    // Rule 3: effective channels.
    let spread = match (&cfg.fabric, wl.pattern) {
        // Single-channel patterns are spread by construction.
        (_, Pattern::Scs | Pattern::Scra) => n,
        // The MAO interleaves everything.
        (FabricKind::Mao(_), _) => n,
        // Contiguous map: the buffer determines the channels touched.
        (_, Pattern::Ccs | Pattern::Ccra) => {
            (wl.working_set.div_ceil(cfg.hbm.pch_capacity) as usize).clamp(1, n)
        }
    };

    // Rule 1: port ceiling. For spread traffic each master's port is the
    // limit; for hot-spot traffic the *memory-side* port of the few
    // channels is.
    let ports = spread.min(n) as f64;
    let port_ceiling = if read_frac == 0.0 || read_frac == 1.0 {
        ports * port_bw
    } else {
        // Both directions active: each direction is capped at port_bw,
        // so the mix is limited by its larger component.
        let dominant = read_frac.max(1.0 - read_frac);
        ports * (port_bw / dominant)
    };

    // Rule 2: DRAM ceiling with burst/pattern derating.
    let t = &cfg.hbm.timings;
    let dram_eff = t.effective_bw_gbps();
    let bl_bytes = wl.burst.bytes() as f64;
    let pattern_eff = match wl.pattern {
        Pattern::Scs | Pattern::Ccs => {
            // Streams: short bursts cost scheduling slots, long ones are
            // free (the paper: BL 2 nearly saturates a stream).
            if wl.burst.beats() >= 2 {
                0.97
            } else {
                0.6
            }
        }
        Pattern::Scra | Pattern::Ccra => {
            // Random: every burst opens a row; the overhead that bank
            // parallelism cannot hide is roughly the unoverlapped
            // fraction of tRC per burst.
            let data_ns = bl_bytes / t.raw_bw_gbps();
            data_ns / (data_ns + 0.35 * (t.t_rp + t.t_rcd))
        }
    };
    // Mixed traffic pays turnarounds.
    let mix_eff = if read_frac > 0.0 && read_frac < 1.0 { 0.97 } else { 1.0 };
    let dram_ceiling = spread as f64 * dram_eff * pattern_eff * mix_eff;

    // Rule 4: lateral ceiling on the segmented fabric for cross-channel
    // random traffic. Transactions funnel over the boundary bus pairs,
    // pay grant-switch dead beats per burst (short bursts lose half the
    // bus), and load the two bus directions in proportion to the
    // read/write mix — a pure-direction stream strands the return
    // capacity. Cross-validated against the cycle simulator by `repro
    // xvalidate` (the 0.55 utilisation folds arbitration imbalance).
    let lateral_ceiling = match (&cfg.fabric, wl.pattern) {
        (FabricKind::Xilinx | FabricKind::XilinxTweaked(_), Pattern::Ccra) => {
            let boundaries = (n / 4).saturating_sub(1).max(1) as f64;
            let beats = wl.burst.beats() as f64;
            let burst_eff = beats / (beats + 2.5);
            let dominant = read_frac.max(1.0 - read_frac);
            let dir_eff = (2.0 - dominant) / 2.0;
            boundaries * 2.0 * 2.0 * port_bw * burst_eff * dir_eff * 0.55
        }
        _ => f64::INFINITY,
    };

    Ceilings { port: port_ceiling, dram: dram_ceiling, lateral: lateral_ceiling, n_ch_eff: spread }
}

/// Latency-model constants, anchored on the paper's §IV-A closed-page
/// probes (read 48 → 72 cycles local → far, write 17 → 41).
const RD_BASE_CYCLES: f64 = 39.0;
const WR_BASE_CYCLES: f64 = 17.0;
const HOP_ROUNDTRIP_CYCLES: f64 = 3.43;
const MAO_STAGE_CYCLES: f64 = 6.0;

/// Minimum per-transaction service cadence of a stream burst, in
/// beat-times: the binding scheduler starts at most one burst per
/// cadence, so short bursts idle the pipe (BL 2 reaches ~2/cadence of
/// the ceiling) while BL ≥ 8 hides the cadence entirely. Fitted per
/// binding resource by `repro xvalidate`: port arbitration is the
/// fastest, the hot-spot DRAM command scheduler slower, and the MAO's
/// per-burst interleave/reorder stages the slowest.
const STREAM_CADENCE_PORT: f64 = 3.15;
const STREAM_CADENCE_DRAM: f64 = 4.4;
const STREAM_CADENCE_MAO: f64 = 4.8;

/// Extra per-transaction recycle time of an outstanding slot on the MAO,
/// in nanoseconds: the interleave and reorder stages hand a slot back
/// later than the bare response arrival, which binds throughput at
/// shallow outstanding depths (fitted by `repro xvalidate`).
const MAO_RECYCLE_NS: f64 = 100.0;

/// The uncalibrated closed-form evaluation of one point.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Predicted combined throughput in GB/s.
    pub total_gbps: f64,
    /// The §IV ceilings.
    pub ceilings: Ceilings,
    /// Rotation-aware lateral ceiling in GB/s (infinite off the
    /// segmented fabric or at rotation 0).
    pub rotation_ceiling: f64,
    /// Outstanding-transaction (Little's-law) demand ceiling in GB/s.
    pub demand_ceiling: f64,
    /// Predicted mean read latency in accelerator cycles.
    pub read_lat_cycles: f64,
    /// Predicted mean write latency in accelerator cycles.
    pub write_lat_cycles: f64,
    /// Mean switch hops per transaction (Xilinx class only).
    pub mean_hops: f64,
}

/// Evaluates the closed-form model for one point — throughput from the
/// §IV ceilings extended with the rotation and demand bounds, latency
/// from the anchored base + hop + DRAM terms inflated by Little's law
/// under saturation.
pub fn model(cfg: &SystemConfig, wl: &Workload) -> Model {
    let c = ceilings(cfg, wl);
    let n = cfg.hbm.num_pch;
    let clock = cfg.clock;
    let t = &cfg.hbm.timings;
    let port_bw = clock.port_bw_gbps();
    let read_frac = wl.rw.read_fraction();
    let dominant =
        if read_frac == 0.0 || read_frac == 1.0 { 1.0 } else { read_frac.max(1.0 - read_frac) };
    let beats = wl.burst.beats() as f64;
    let txn_bytes = wl.burst.bytes() as f64;
    let class = FabricClass::of(&cfg.fabric);

    // Streams are further bound by the per-transaction cadence of the
    // binding scheduler: an effective throughput factor of
    // `min(1, beats/cadence)`. Random patterns carry their row-open
    // overhead in the §IV DRAM derate instead.
    let stream_eff = match (class, wl.pattern) {
        (FabricClass::Mao, Pattern::Scs | Pattern::Ccs) => (beats / STREAM_CADENCE_MAO).min(1.0),
        (_, Pattern::Ccs) => (beats / STREAM_CADENCE_DRAM).min(1.0),
        (_, Pattern::Scs) => (beats / STREAM_CADENCE_PORT).min(1.0),
        _ => 1.0,
    };

    // Rotation model (Fig. 4): with rotation r on the segmented fabric,
    // `min(1, r/4)` of the masters target a channel in another switch.
    // A crossing stream shares its boundary's data-bus pair with the
    // other crossers — grant switching costs `dead_beats` per burst —
    // and a stream hopping h switches occupies `2h − 1` bus segments'
    // worth of capacity. Non-crossing masters keep the full per-master
    // share of the §IV ceilings.
    let (lateral_buses, lateral_rate, dead_beats) = match &cfg.fabric {
        FabricKind::Xilinx => (2.0, 1.0, 2.0),
        FabricKind::XilinxTweaked(tw) => (tw.lateral_buses as f64, tw.lateral_rate, tw.dead_beats),
        _ => (0.0, 0.0, 0.0),
    };
    let rotation_ceiling = match (class, wl.pattern) {
        (FabricClass::Xilinx, Pattern::Scs) if !wl.rotation.is_multiple_of(n) => {
            let r = (wl.rotation % n) as f64;
            let f_cross = (r / 4.0).min(1.0);
            let hops = (r / 4.0).ceil().max(1.0);
            let burst_eff = beats / (beats + dead_beats);
            let per_bus = (lateral_buses / 2.0) * lateral_rate * port_bw * burst_eff;
            let b_cross = per_bus / (2.0 * dominant) / (2.0 * hops - 1.0);
            let free = c.port.min(c.dram) * stream_eff / n as f64;
            n as f64 * ((1.0 - f_cross) * free + f_cross * b_cross.min(free))
        }
        _ => f64::INFINITY,
    };

    // Mean switch hops per transaction (4 ports per switch).
    let switches = (n / 4).max(1) as f64;
    let mean_hops = match (class, wl.pattern) {
        (FabricClass::Xilinx, Pattern::Scs) => ((wl.rotation % n) as f64 / 4.0).min(switches - 1.0),
        (FabricClass::Xilinx, Pattern::Ccs) => {
            // Hot channels sit at one end; the mean master is half the
            // device away, scaled by how few channels the buffer spans.
            (switches - 1.0) / 2.0 * (1.0 - c.n_ch_eff as f64 / n as f64)
        }
        (FabricClass::Xilinx, Pattern::Scra | Pattern::Ccra) => {
            // Mean |i - j| over uniform switch pairs: (s² − 1) / 3s.
            (switches * switches - 1.0) / (3.0 * switches)
        }
        _ => 0.0,
    };

    // Unloaded latency: anchored base + hop round-trips + DRAM service +
    // burst serialisation (reads wait for the last beat).
    let dram_ns = match wl.pattern {
        Pattern::Scs | Pattern::Ccs => t.closed_page_ns() * 0.3 + beats * t.t_beat,
        Pattern::Scra | Pattern::Ccra => t.row_miss_ns() * 0.6 + beats * t.t_beat,
    };
    let stage = if class == FabricClass::Mao { MAO_STAGE_CYCLES } else { 0.0 };
    let unl_rd = RD_BASE_CYCLES
        + stage
        + HOP_ROUNDTRIP_CYCLES * mean_hops
        + clock.ns_to_cycles(dram_ns) as f64
        + (beats - 1.0);
    let unl_wr = WR_BASE_CYCLES + stage + HOP_ROUNDTRIP_CYCLES * mean_hops;

    // Demand ceiling (Little's law): n masters × outstanding slots, each
    // recycled every unloaded-latency interval (plus the MAO's slower
    // slot handback).
    let unl_mix_ns =
        clock.cycles_to_ns((read_frac * unl_rd + (1.0 - read_frac) * unl_wr).ceil() as u64);
    let slot_ns = unl_mix_ns + if class == FabricClass::Mao { MAO_RECYCLE_NS } else { 0.0 };
    let demand_ceiling = if slot_ns > 0.0 {
        n as f64 * wl.outstanding as f64 * txn_bytes / slot_ns
    } else {
        f64::INFINITY
    };
    // Shallow reordering throttles random traffic the same way: a master
    // can only overlap as many row-opens as it has independent IDs.
    let reorder_ceiling = match wl.pattern {
        Pattern::Scra | Pattern::Ccra => {
            let slots = (wl.num_ids.min(wl.outstanding)) as f64;
            let service_ns = t.row_miss_ns() * 0.6 + beats * t.t_beat;
            n as f64 * slots * txn_bytes / service_ns
        }
        _ => f64::INFINITY,
    };

    // The cadence derate applies to the static resource ceilings only:
    // the rotation model already carries it through `free`, and
    // demand-bound traffic is slot-limited, not slot-occupancy-limited.
    let resource_ceiling = (c.port.min(c.dram).min(c.lateral) * stream_eff).min(rotation_ceiling);
    let total_gbps = resource_ceiling.min(demand_ceiling).min(reorder_ceiling);

    // Saturated latency: when a resource (not demand) binds, every
    // outstanding slot is full and Little's law gives the mean wait.
    let (read_lat_cycles, write_lat_cycles) = if total_gbps < 0.98 * demand_ceiling {
        let bytes_per_cycle = total_gbps * clock.cycles_to_ns(1);
        let sat = n as f64 * wl.outstanding as f64 * txn_bytes / bytes_per_cycle.max(1e-9);
        (unl_rd.max(sat), unl_wr.max(0.6 * sat))
    } else {
        (unl_rd, unl_wr)
    };

    Model {
        total_gbps,
        ceilings: c,
        rotation_ceiling,
        demand_ceiling,
        read_lat_cycles,
        write_lat_cycles,
        mean_hops,
    }
}

// ------------------------------------------------------------ prediction

/// Evaluates the calibrated model and synthesises a [`Measurement`] row
/// over `fid.cycles` accelerator cycles — same shape, same normalising
/// window semantics as a cycle-simulated row. Deterministic and pure.
pub fn predict(cfg: &SystemConfig, wl: &Workload, fid: Fidelity, cal: &Calibration) -> Measurement {
    let m = model(cfg, wl);
    let fam = cal.family(FabricClass::of(&cfg.fabric), wl.pattern);
    let total_gbps = m.total_gbps * fam.bw_scale;
    let read_lat = (m.read_lat_cycles * fam.lat_scale).round().max(1.0) as u64;
    let write_lat = (m.write_lat_cycles * fam.lat_scale).round().max(1.0) as u64;

    let cycles = fid.cycles.max(1);
    let clock = cfg.clock;
    let window_ns = clock.cycles_to_ns(cycles);
    let read_frac = wl.rw.read_fraction();
    let txn_bytes = wl.burst.bytes().max(32);
    let n = cfg.hbm.num_pch.max(1);

    // Whole transactions per master, floored — the synthetic row's
    // counters stay mutually consistent (gen = n identical masters;
    // bytes are txn multiples) and deterministic.
    let total_bytes = total_gbps * window_ns;
    let rd_txns_pm = (total_bytes * read_frac / txn_bytes as f64 / n as f64).floor() as u64;
    let wr_txns_pm = (total_bytes * (1.0 - read_frac) / txn_bytes as f64 / n as f64).floor() as u64;

    let masters = n as u64;
    let mut gen = GenStats {
        issued: masters * (rd_txns_pm + wr_txns_pm),
        completed: masters * (rd_txns_pm + wr_txns_pm),
        bytes_read: masters * rd_txns_pm * txn_bytes,
        bytes_written: masters * wr_txns_pm * txn_bytes,
        ..GenStats::default()
    };
    // One sample per master and direction at the model's mean: `mean()`
    // is exact, and the row costs microseconds regardless of volume.
    for _ in 0..n {
        if rd_txns_pm > 0 {
            gen.read_lat.record(read_lat);
        }
        if wr_txns_pm > 0 {
            gen.write_lat.record(write_lat);
        }
    }

    // DRAM counters from the model's pattern terms.
    let total_txns = gen.completed;
    let hit_frac = match wl.pattern {
        Pattern::Scs | Pattern::Ccs => 0.9,
        Pattern::Scra | Pattern::Ccra => 0.1,
    };
    let page_hits = (total_txns as f64 * hit_frac).round() as u64;
    let t = &cfg.hbm.timings;
    let mem = hbm_mem::MemStats {
        bytes_read: gen.bytes_read,
        bytes_written: gen.bytes_written,
        page_hits,
        page_closed: total_txns.saturating_sub(page_hits) / 2,
        page_misses: total_txns.saturating_sub(page_hits).div_ceil(2),
        turnarounds: if read_frac > 0.0 && read_frac < 1.0 { total_txns / 4 } else { 0 },
        refreshes: (window_ns / t.t_refi).floor() as u64 * n as u64,
        busy_ns: gen.total_bytes() as f64 / t.raw_bw_gbps(),
        stall_ns: 0.0,
    };

    // Lateral traffic: bytes crossing switch boundaries, spread over the
    // buses, so Fig. 4-style renderers see a sensible contended link.
    let mut fabric = hbm_fabric::FabricStats::default();
    fabric.ingress.beats = gen.bytes_written / 32;
    fabric.egress.beats = gen.bytes_read / 32;
    fabric.mc_links.beats = gen.total_bytes() / 32;
    if FabricClass::of(&cfg.fabric) == FabricClass::Xilinx {
        let boundaries = (n / 4).saturating_sub(1).max(1);
        let crossing_streams = match wl.pattern {
            Pattern::Scs => (wl.rotation % n) as f64,
            Pattern::Ccs => (n - n.min(4 * m.ceilings.n_ch_eff)) as f64 / 2.0,
            Pattern::Scra | Pattern::Ccra => n as f64 / 2.0,
        };
        let per_master_bytes = gen.total_bytes() as f64 / n as f64;
        let bus_beats = (crossing_streams * per_master_bytes / 32.0 / 2.0).round() as u64;
        for _ in 0..boundaries {
            fabric.lateral_right.push([
                hbm_fabric::LinkStats { flits: bus_beats, beats: bus_beats, grant_switches: 0 },
                hbm_fabric::LinkStats { flits: bus_beats, beats: bus_beats, grant_switches: 0 },
            ]);
            fabric.lateral_left.push([
                hbm_fabric::LinkStats { flits: bus_beats, beats: bus_beats, grant_switches: 0 },
                hbm_fabric::LinkStats { flits: bus_beats, beats: bus_beats, grant_switches: 0 },
            ]);
        }
    }

    Measurement { cycles, clock, gen, mem, fabric, device_gbps: cfg.hbm.theoretical_bw_gbps() }
}

// ------------------------------------------------------------ escalation

/// When an adaptive sweep escalates an analytically-evaluated point to
/// cycle accuracy.
#[derive(Debug, Clone, Copy)]
pub struct EscalationPolicy {
    /// Escalate both sides of a knee: neighbouring points whose
    /// throughput differs by more than this relative fraction.
    pub knee_rel: f64,
    /// Escalate bandwidth collapses: points below this percentage of
    /// the device's theoretical bandwidth.
    pub collapse_pct: f64,
    /// Escalate points whose family envelope p95 exceeds this — the
    /// model says it cannot be trusted there.
    pub trust_p95: f64,
}

impl Default for EscalationPolicy {
    fn default() -> EscalationPolicy {
        EscalationPolicy { knee_rel: 0.25, collapse_pct: 8.0, trust_p95: 0.12 }
    }
}

/// Decides which points of an analytically-swept grid deserve cycle
/// accuracy: knees, collapses, and envelope-untrusted families. Its
/// caller is [`adaptive_plan`].
///
/// The knee detector compares adjacent points, so it only fires within
/// a contiguous stripe of one scenario family — same fabric class, same
/// pattern. A throughput step where the grid switches fabric or pattern
/// (the multi-fabric grids of `analytical_grid` and the experiment
/// sweeps) is a discontinuity between unrelated curves, not a knee, and
/// is never escalated for it. Within a stripe the comparison assumes
/// axis order: callers interleaving unrelated axes in one stripe get
/// conservative (extra) escalations, never missed collapses — the
/// collapse and envelope rules are per-point and order-independent.
pub fn escalation_mask(
    points: &[GridPoint],
    rows: &[Measurement],
    cal: &Calibration,
    policy: &EscalationPolicy,
) -> Vec<bool> {
    assert_eq!(points.len(), rows.len());
    let mut mask = vec![false; points.len()];
    for (i, ((cfg, wl), row)) in points.iter().zip(rows).enumerate() {
        let family = (FabricClass::of(&cfg.fabric), wl.pattern);
        let fam = cal.family(family.0, family.1);
        if fam.envelope.p95 > policy.trust_p95 {
            mask[i] = true;
        }
        if row.pct_of_device() < policy.collapse_pct {
            mask[i] = true;
        }
        if i > 0 {
            let (prev_cfg, prev_wl) = &points[i - 1];
            let same_stripe = (FabricClass::of(&prev_cfg.fabric), prev_wl.pattern) == family;
            let a = rows[i - 1].total_gbps();
            let b = row.total_gbps();
            let base = a.abs().max(b.abs()).max(1e-9);
            if same_stripe && (a - b).abs() / base > policy.knee_rel {
                mask[i - 1] = true;
                mask[i] = true;
            }
        }
    }
    mask
}

/// The adaptive plan of a grid (DESIGN.md §3.9), the one both
/// [`crate::batch::run_grid_adaptive`] and serve admission follow: every
/// point predicted at `fid`'s windows under the active calibration, in
/// grid order, and the mask of points the default
/// [`EscalationPolicy`] escalates to cycle accuracy.
pub fn adaptive_plan(points: &[GridPoint], fid: Fidelity) -> (Vec<Measurement>, Vec<bool>) {
    let cal = Calibration::active();
    let fid = Fidelity { tier: FidelityTier::Analytical, ..fid };
    let rows: Vec<Measurement> =
        points.iter().map(|(cfg, wl)| predict(cfg, wl, fid, cal)).collect();
    let mask = escalation_mask(points, &rows, cal, &EscalationPolicy::default());
    (rows, mask)
}

// ------------------------------------------------------------ xvalidate

/// One pinned cross-validation scenario: a grid point plus its family
/// key and a human-readable setting label.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fabric class of the scenario.
    pub fabric: FabricClass,
    /// Workload pattern of the scenario.
    pub pattern: Pattern,
    /// Axis-variation label ("base", "bl2", "read-only", …).
    pub setting: &'static str,
    /// The measurable point.
    pub point: GridPoint,
}

/// The pinned scenario lattice `repro xvalidate` fits and validates
/// against: every fabric class × regular pattern family (the direct
/// fabric only routes single-channel locality), each swept over burst
/// length, read/write mix, outstanding depth, and — on the segmented
/// fabric — rotation.
pub fn scenario_lattice() -> Vec<Scenario> {
    use hbm_axi::BurstLen;
    use hbm_traffic::RwRatio;
    let mut out = Vec::new();
    let fabrics: [(FabricClass, SystemConfig); 4] = [
        (FabricClass::Xilinx, SystemConfig::xilinx()),
        (FabricClass::Mao, SystemConfig::mao()),
        (
            FabricClass::FullCrossbar,
            SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() },
        ),
        (FabricClass::Direct, SystemConfig::direct()),
    ];
    for (class, cfg) in fabrics {
        let patterns: &[Pattern] = if class == FabricClass::Direct {
            &[Pattern::Scs, Pattern::Scra]
        } else {
            &[Pattern::Scs, Pattern::Ccs, Pattern::Scra, Pattern::Ccra]
        };
        for &pattern in patterns {
            let base = match pattern {
                Pattern::Scs => Workload::scs(),
                Pattern::Ccs => Workload::ccs(),
                Pattern::Scra => Workload::scra(),
                Pattern::Ccra => Workload::ccra(),
            };
            let variants: [(&'static str, Workload); 4] = [
                ("base", base),
                (
                    "bl2",
                    Workload { burst: BurstLen::of(2), stride: BurstLen::of(2).bytes(), ..base },
                ),
                ("read-only", Workload { rw: RwRatio::READ_ONLY, ..base }),
                ("outstanding-4", Workload { outstanding: 4, num_ids: 4, ..base }),
            ];
            for (setting, wl) in variants {
                out.push(Scenario { fabric: class, pattern, setting, point: (cfg.clone(), wl) });
            }
            if class == FabricClass::Xilinx && pattern == Pattern::Scs {
                for (setting, rotation) in
                    [("rotation-2", 2usize), ("rotation-4", 4), ("rotation-8", 8)]
                {
                    let wl = Workload { rotation, ..base };
                    out.push(Scenario {
                        fabric: class,
                        pattern,
                        setting,
                        point: (cfg.clone(), wl),
                    });
                }
            }
        }
    }
    out
}

/// One scenario's cross-validation outcome.
#[derive(Debug, Clone, Serialize)]
pub struct XvalRow {
    /// Fabric class.
    pub fabric: FabricClass,
    /// Pattern family.
    pub pattern: Pattern,
    /// Axis-variation label.
    pub setting: &'static str,
    /// Cycle-simulated bandwidth in GB/s.
    pub cycle_gbps: f64,
    /// Calibrated analytical bandwidth in GB/s.
    pub model_gbps: f64,
    /// Relative bandwidth error of the calibrated model.
    pub rel_err: f64,
    /// Cycle-simulated mean read latency in cycles (NaN when absent).
    pub cycle_read_lat: f64,
    /// Calibrated model mean read latency in cycles.
    pub model_read_lat: f64,
}

/// Fits a fresh [`Calibration`] from the lattice's cycle-simulated rows:
/// per family, the bandwidth/latency residual scales are the geometric
/// mean of cycle/model, and the envelope is the distribution of the
/// *calibrated* model's relative error. Returns the artifact plus the
/// per-scenario comparison rows (computed under the fitted scales).
pub fn fit_calibration(
    scenarios: &[Scenario],
    cycle_rows: &[Measurement],
) -> (Calibration, Vec<XvalRow>) {
    assert_eq!(scenarios.len(), cycle_rows.len());
    // Group scenario indices by family, preserving lattice order.
    let mut family_order: Vec<(FabricClass, Pattern)> = Vec::new();
    for s in scenarios {
        if !family_order.contains(&(s.fabric, s.pattern)) {
            family_order.push((s.fabric, s.pattern));
        }
    }
    let mut families = Vec::new();
    let mut rows: Vec<Option<XvalRow>> = (0..scenarios.len()).map(|_| None).collect();
    for (fabric, pattern) in family_order {
        let idxs: Vec<usize> = scenarios
            .iter()
            .enumerate()
            .filter(|(_, s)| s.fabric == fabric && s.pattern == pattern)
            .map(|(i, _)| i)
            .collect();
        // Raw model evaluations and residual fits.
        let mut bw_log_sum = 0.0;
        let mut lat_log_sum = 0.0;
        let mut lat_n = 0.0;
        let mut raw: Vec<(f64, f64, f64, f64)> = Vec::new(); // (cycle_bw, model_bw, cycle_lat, model_lat)
        for &i in &idxs {
            let (cfg, wl) = &scenarios[i].point;
            let m = model(cfg, wl);
            let cyc = &cycle_rows[i];
            let cycle_bw = cyc.total_gbps().max(1e-9);
            let model_bw = m.total_gbps.max(1e-9);
            bw_log_sum += (cycle_bw / model_bw).ln();
            let cycle_lat = cyc.read_latency_mean().unwrap_or(f64::NAN);
            if cycle_lat.is_finite() && cycle_lat > 0.0 && m.read_lat_cycles > 0.0 {
                lat_log_sum += (cycle_lat / m.read_lat_cycles).ln();
                lat_n += 1.0;
            }
            raw.push((cycle_bw, model_bw, cycle_lat, m.read_lat_cycles));
        }
        let bw_scale = (bw_log_sum / idxs.len() as f64).exp();
        let lat_scale = if lat_n > 0.0 { (lat_log_sum / lat_n).exp() } else { 1.0 };
        // Envelope of the calibrated model.
        let mut errs: Vec<f64> = Vec::with_capacity(idxs.len());
        for (&i, &(cycle_bw, model_bw, cycle_lat, model_lat)) in idxs.iter().zip(&raw) {
            let cal_bw = model_bw * bw_scale;
            let err = (cal_bw - cycle_bw).abs() / cycle_bw;
            errs.push(err);
            rows[i] = Some(XvalRow {
                fabric,
                pattern,
                setting: scenarios[i].setting,
                cycle_gbps: cycle_bw,
                model_gbps: cal_bw,
                rel_err: err,
                cycle_read_lat: cycle_lat,
                model_read_lat: model_lat * lat_scale,
            });
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let p95 = errs[((0.95 * errs.len() as f64).ceil() as usize).clamp(1, errs.len()) - 1];
        let max = *errs.last().unwrap();
        families.push(FamilyCalibration {
            fabric,
            pattern,
            bw_scale,
            lat_scale,
            envelope: ErrorEnvelope { mean, p95, max },
        });
    }
    let cal = Calibration { version: CALIBRATION_VERSION, families };
    (cal, rows.into_iter().map(|r| r.expect("every scenario produced a row")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_round_trips_through_json() {
        let cal = Calibration::builtin();
        let json = cal.to_json();
        let back = Calibration::from_json(&json).expect("fresh artifact parses");
        assert_eq!(back, cal);
    }

    #[test]
    fn stale_calibration_version_is_orphaned_loudly() {
        let mut cal = Calibration::builtin();
        cal.version = CALIBRATION_VERSION + 1;
        let err = Calibration::from_json(&cal.to_json()).expect_err("stale version must fail");
        assert!(err.contains("stale calibration artifact"), "{err}");
        assert!(err.contains("xvalidate"), "points at the re-fit path: {err}");
    }

    #[test]
    fn unfitted_family_is_untrusted_identity() {
        let cal = Calibration::identity();
        let fam = cal.family(FabricClass::Xilinx, Pattern::Ccs);
        assert_eq!(fam.bw_scale, 1.0);
        assert_eq!(fam.envelope, ErrorEnvelope::UNTRUSTED);
    }

    #[test]
    fn estimate_and_model_share_the_ceilings() {
        // The satellite guarantee: one closed-form implementation. The
        // estimate module's output must equal the model's ceilings.
        for (cfg, wl) in [
            (SystemConfig::xilinx(), Workload::ccs()),
            (SystemConfig::mao(), Workload::ccs()),
            (SystemConfig::xilinx(), Workload::ccra()),
        ] {
            let e = crate::estimate::estimate_bandwidth(&cfg, &wl);
            let c = ceilings(&cfg, &wl);
            assert_eq!(e.port_ceiling, c.port);
            assert_eq!(e.dram_ceiling, c.dram);
            assert_eq!(e.lateral_ceiling, c.lateral);
            assert_eq!(e.n_ch_eff, c.n_ch_eff);
        }
    }

    #[test]
    fn rotation_ceiling_reproduces_fig4_shape() {
        let mk = |rotation| Workload { rotation, ..Workload::scs() };
        let cfg = SystemConfig::xilinx();
        let r0 = model(&cfg, &mk(0)).total_gbps;
        let r4 = model(&cfg, &mk(4)).total_gbps;
        let r8 = model(&cfg, &mk(8)).total_gbps;
        assert!(r4 < 0.8 * r0, "rotation 4 must lose throughput: {r4} vs {r0}");
        assert!(r8 < r4, "rotation 8 below rotation 4: {r8} vs {r4}");
    }

    #[test]
    fn predicted_row_is_internally_consistent() {
        let cfg = SystemConfig::xilinx();
        let wl = Workload::scs();
        let m = predict(&cfg, &wl, Fidelity::ANALYTICAL, &Calibration::builtin());
        // The aggregate is n identical masters of whole transactions.
        let n = cfg.hbm.num_pch as u64;
        assert_eq!(m.gen.completed % n, 0);
        assert_eq!(m.gen.total_bytes() % (n * wl.burst.bytes()), 0);
        // The throughput accessor reproduces the model's prediction.
        assert!(m.total_gbps() > 100.0, "{}", m.total_gbps());
        assert!(m.total_gbps() <= m.device_gbps + 1e-9);
        // Latencies are present and ordered like the simulator's.
        assert!(m.write_latency_mean().unwrap() < m.read_latency_mean().unwrap());
        // Serde round-trip is byte-identical (cache invariant).
        let json = serde_json::to_string(&m).unwrap();
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn prediction_is_deterministic() {
        let cfg = SystemConfig::mao();
        let wl = Workload::ccra();
        let cal = Calibration::builtin();
        let a = serde_json::to_string(&predict(&cfg, &wl, Fidelity::ANALYTICAL, &cal)).unwrap();
        let b = serde_json::to_string(&predict(&cfg, &wl, Fidelity::ANALYTICAL, &cal)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn escalation_flags_knees_collapses_and_untrusted() {
        let cfg = SystemConfig::xilinx();
        let cal = Calibration::builtin();
        let points: Vec<GridPoint> = [0usize, 1, 2, 4, 8]
            .iter()
            .map(|&rotation| (cfg.clone(), Workload { rotation, ..Workload::scs() }))
            .collect();
        let rows: Vec<Measurement> =
            points.iter().map(|(c, w)| predict(c, w, Fidelity::ANALYTICAL, &cal)).collect();
        let mask = escalation_mask(&points, &rows, &cal, &EscalationPolicy::default());
        assert_eq!(mask.len(), points.len());
        // The rotation knee must catch at least one escalation.
        assert!(mask.iter().any(|&b| b), "{mask:?}");
        // A hot-spot collapse always escalates.
        let collapse = vec![(cfg.clone(), Workload::ccs())];
        let crow = vec![predict(&cfg, &Workload::ccs(), Fidelity::ANALYTICAL, &cal)];
        let cmask = escalation_mask(&collapse, &crow, &cal, &EscalationPolicy::default());
        assert!(cmask[0], "hot-spot CCS sits under the collapse threshold");
        // An untrusted family escalates even on a flat grid.
        let id = Calibration::identity();
        let umask = escalation_mask(&collapse, &crow, &id, &EscalationPolicy::default());
        assert!(umask[0]);
    }

    #[test]
    fn knee_detection_stops_at_family_boundaries() {
        let cfg = SystemConfig::xilinx();
        let cal = Calibration::builtin();
        let policy = EscalationPolicy::default();
        let a = predict(&cfg, &Workload::scs(), Fidelity::ANALYTICAL, &cal);
        // A synthetic neighbour at a third of the throughput: well past
        // the knee threshold, but still above the collapse floor.
        let mut b = a.clone();
        b.cycles *= 3;
        assert!(b.pct_of_device() >= policy.collapse_pct, "{}", b.pct_of_device());
        // Same family on both sides: the step is a knee, both escalate.
        let same = vec![
            (cfg.clone(), Workload::scs()),
            (cfg.clone(), Workload { seed: 1, ..Workload::scs() }),
        ];
        let mask = escalation_mask(&same, &[a.clone(), b.clone()], &cal, &policy);
        assert_eq!(mask, vec![true, true]);
        // The identical rows across an SCS/SCRA family boundary: a
        // discontinuity between unrelated curves, never a knee.
        let cross = vec![(cfg.clone(), Workload::scs()), (cfg.clone(), Workload::scra())];
        let mask = escalation_mask(&cross, &[a, b], &cal, &policy);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn lattice_covers_every_family_once_per_fabric() {
        let lattice = scenario_lattice();
        assert!(lattice.len() >= 50, "{}", lattice.len());
        for class in
            [FabricClass::Xilinx, FabricClass::Mao, FabricClass::FullCrossbar, FabricClass::Direct]
        {
            let patterns: &[Pattern] = if class == FabricClass::Direct {
                &[Pattern::Scs, Pattern::Scra]
            } else {
                &[Pattern::Scs, Pattern::Ccs, Pattern::Scra, Pattern::Ccra]
            };
            for &p in patterns {
                assert!(
                    lattice.iter().any(|s| s.fabric == class && s.pattern == p),
                    "missing {class}/{p:?}"
                );
            }
        }
        // Pinned: every workload validates.
        for s in &lattice {
            s.point.1.validate().expect("lattice workloads validate");
        }
    }
}
