//! # hbm-axi — AXI3 protocol substrate
//!
//! Transaction-level model of the AXI3 bus protocol as used by the Xilinx
//! HBM memory subsystem on Virtex UltraScale+ devices: 256-bit data paths,
//! burst lengths of 1–16 beats, multiple outstanding transactions identified
//! by AXI IDs, independent read and write channels, and the 4 KiB burst
//! boundary rule.
//!
//! The crate provides:
//!
//! * [`Transaction`] — a validated AXI read or write burst,
//! * [`ClockDomain`] — cycle/time/bandwidth conversions for a clocked bus,
//! * [`DelayQueue`] — a finite-capacity pipelined stage (ready/valid link
//!   with fixed latency), the basic building block every simulated bus hop
//!   is made of,
//! * [`OutstandingTracker`] — per-ID in-flight accounting enforcing the
//!   AXI same-ID ordering rule,
//! * [`BeatCounter`] — burst payload accounting in 32-byte beats,
//! * [`Hist`] — the one latency histogram (rows, tracer, metric registry),
//! * [`instrument`] — opt-in per-transaction lifecycle tracing and latency
//!   attribution (per-master lists of stamp records found by
//!   `(master, seq)`; zero cost when tracing is off).
//!
//! All higher-level crates (`hbm-mem`, `hbm-fabric`, `hbm-mao`) move
//! [`Transaction`]s and beats through [`DelayQueue`]s, so timing semantics
//! are defined once, here.
//!
//! ## Example
//!
//! ```
//! use hbm_axi::{BurstLen, ClockDomain, Dir, MasterId, TxnBuilder, AxiId};
//!
//! // A BL-16 read burst from master 3 at 300 MHz:
//! let mut b = TxnBuilder::new(MasterId(3));
//! let txn = b.issue(AxiId(0), 0x1000, BurstLen::of(16), Dir::Read, 0).unwrap();
//! assert_eq!(txn.bytes(), 512);
//!
//! // One 256-bit port at 300 MHz carries 9.6 GB/s — the number behind
//! // the paper's hot-spot measurements.
//! assert!((ClockDomain::ACC_300.port_bw_gbps() - 9.6).abs() < 1e-9);
//! ```

pub mod clock;
pub mod hist;
pub mod instrument;
pub mod queue;
pub mod tracker;
pub mod transaction;
pub mod types;

pub use clock::ClockDomain;
pub use hist::Hist;
pub use instrument::{Attribution, Tracer, TxnRecord};
pub use queue::{DelayQueue, StampedRing};
pub use tracker::OutstandingTracker;
pub use transaction::{Completion, Transaction, TxnBuilder, TxnError};
pub use types::{Addr, AxiId, BeatCounter, BurstLen, Cycle, Dir, MasterId, PortId, BEAT_BYTES};
