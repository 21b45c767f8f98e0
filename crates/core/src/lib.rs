//! # hbm-core — system assembly, simulation engine, and experiments
//!
//! Glues the substrates together into a complete simulated HBM system:
//!
//! ```text
//! 32× BmTrafficGen ──► Interconnect (Xilinx | MAO | direct) ──► 32× MC+PCH
//!        ▲                                                          │
//!        └───────────────── completions ◄──────────────────────────┘
//! ```
//!
//! * [`system`] — the cycle-driven [`system::HbmSystem`] and its builder;
//! * [`measure`](mod@measure) — warm-up + fixed-horizon measurement harness producing
//!   throughput/latency [`measure::Measurement`]s;
//! * [`experiment`] — one function per figure/table of the paper,
//!   returning structured rows (the `repro` binary and the benches print
//!   them);
//! * [`cache`] — content-addressed memoisation of sweep-point
//!   measurements (memory + optional disk tier, single-flight dedup);
//! * [`metrics`] — workspace-wide metric registry (atomic counters,
//!   gauges, power-of-two histograms) with Prometheus text exposition;
//! * [`profile`] — sampled kernel phase profiler attributing cycle-loop
//!   wall time to gens/fabric/MC/horizon/queue phases (see
//!   `repro profile`);
//! * [`report`] — plain-text table and JSON rendering;
//! * [`probe`] — windowed time-series sampling of a running system;
//! * [`export`] — Chrome trace-event JSON and probe JSONL emission (see
//!   `repro trace`).
//!
//! ## Quick start
//!
//! ```
//! use hbm_core::prelude::*;
//!
//! // Throughput of the hot-spot CCS pattern on the stock Xilinx fabric:
//! let m = measure(
//!     &SystemConfig::xilinx(),
//!     Workload::ccs(),
//!     2_000,  // warm-up cycles
//!     8_000,  // measured cycles
//! );
//! assert!(m.total_gbps() < 30.0, "hot-spot collapse: {}", m.total_gbps());
//!
//! // The same pattern through the Memory Access Optimizer:
//! let opt = measure(&SystemConfig::mao(), Workload::ccs(), 2_000, 8_000);
//! assert!(opt.total_gbps() > 5.0 * m.total_gbps());
//! ```

pub mod analytic;
pub mod batch;
pub mod cache;
pub mod estimate;
pub mod experiment;
pub mod export;
pub mod measure;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod report;
pub mod system;
pub mod trace;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::measure::{measure, Measurement};
    pub use crate::system::{FabricKind, HbmSystem, SystemConfig};
    pub use hbm_axi::{BurstLen, ClockDomain, Dir, MasterId, PortId};
    pub use hbm_traffic::{Pattern, RwRatio, Workload};
}

pub use cache::{fingerprint, CacheSnapshot, Fingerprint, ResultCache, SIM_KERNEL_VERSION};
pub use measure::{measure, Measurement};
pub use metrics::Registry;
pub use probe::{Probe, ProbeConfig, Snapshot};
pub use profile::{PhaseReport, NUM_PHASES, PHASES};
pub use system::{FabricKind, HbmSystem, SystemConfig};
