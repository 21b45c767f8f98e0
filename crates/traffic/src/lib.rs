//! # hbm-traffic — workload substrate
//!
//! Implements the four basic access patterns of the paper's Table I —
//! the cross product of channel locality (Single-/Cross-Channel) and
//! ordering (Stride/Random Access):
//!
//! | pattern | locality | ordering |
//! |---------|----------|----------|
//! | SCS     | each master stays on its own pseudo-channel | linear stride |
//! | SCRA    | each master stays on its own pseudo-channel | random chunks |
//! | CCS     | masters share one globally contiguous buffer | round-robin stride |
//! | CCRA    | masters scatter over the whole space | random chunks |
//!
//! plus the paper's parameter axes: burst length, number of outstanding
//! transactions (`N_ot`), independent AXI IDs (reorder depth), read/write
//! ratio (`RW_rat`), stride length (Fig. 5), and SCS rotation offset
//! (Fig. 4).
//!
//! [`BmTrafficGen`] produces one master's transaction stream and collects
//! its latency statistics; the simulation loop in `hbm-core` connects 32
//! of them to an interconnect.
//!
//! ## Example
//!
//! ```
//! use hbm_traffic::{BmTrafficGen, Workload};
//! use hbm_axi::MasterId;
//!
//! // The hot-spot CCS workload of the paper's Table IV:
//! let mut gen = BmTrafficGen::new(MasterId(0), 32, 256 << 20, Workload::ccs(), Some(4));
//! let txn = gen.poll(0).unwrap();
//! assert!(txn.addr < 64 << 20, "CCS stays in one contiguous buffer");
//! ```

pub mod builder;
pub mod generator;
pub mod stats;
pub mod trace;
pub mod workload;

pub use builder::WorkloadBuilder;
pub use generator::BmTrafficGen;
pub use stats::GenStats;
pub use trace::{Trace, TraceEvent};
pub use workload::{Pattern, RwRatio, Workload};
