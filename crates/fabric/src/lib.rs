//! # hbm-fabric — interconnect substrate
//!
//! Cycle-level model of the global-addressing interconnect between bus
//! masters and HBM pseudo-channels, in two flavours:
//!
//! * [`XilinxFabric`] — the segmented switch network of Xilinx Virtex
//!   UltraScale+ HBM devices (paper Fig. 1): eight local 4×4 crossbar
//!   switches, each serving four masters and four pseudo-channels, chained
//!   by **two lateral buses per direction**. Requests and responses share
//!   the lateral buses; arbitration is round-robin with dead cycles on
//!   grant switches; lateral-bus assignment is static. These properties
//!   produce the paper's headline pathologies: hot-spot collapse
//!   (Fig. 3b), rotation-offset throughput loss (Fig. 4), and
//!   high-variance latency under cross-channel traffic (Table II).
//! * [`DirectFabric`] — the 1:1 port mapping used by Single-Channel
//!   patterns (no global addressing, no interference).
//!
//! The Memory Access Optimizer (`hbm-mao`) implements the same
//! [`Interconnect`] trait with a hierarchical network instead.
//!
//! ## Clocking model
//!
//! Master-facing AXI ports and the per-PCH AXI front-ends move one
//! 32-byte beat per accelerator cycle (9.6 GB/s at 300 MHz) — this is the
//! empirically consistent reading of the paper's measurements (hot-spot
//! reads saturate at exactly 9.6 GB/s). Switch-internal and lateral buses
//! run at the 450 MHz HBM reference clock (14.4 GB/s), matching the
//! paper's rotation-saturation arithmetic (4 lateral paths ≈ 57.6 GB/s).
//!
//! ## Example
//!
//! ```
//! use hbm_fabric::{FabricConfig, Interconnect, XilinxFabric};
//! use hbm_axi::{AxiId, BurstLen, ClockDomain, Dir, MasterId, PortId, TxnBuilder};
//!
//! let mut fabric = XilinxFabric::new(FabricConfig::for_clock(ClockDomain::ACC_300));
//! let mut b = TxnBuilder::new(MasterId(0));
//! // Master 0 reads from PCH 4 — one switch to the right.
//! let txn = b.issue(AxiId(0), 4 * (256 << 20), BurstLen::of(1), Dir::Read, 0).unwrap();
//! fabric.offer_request(0, txn).unwrap();
//! for now in 0..100 {
//!     fabric.tick(now);
//!     if fabric.pop_request(now, PortId(4)).is_some() {
//!         // The request crossed a lateral bus to reach switch 1.
//!         assert!(fabric.stats().lateral_beats() > 0);
//!         return;
//!     }
//! }
//! panic!("request never arrived");
//! ```

pub mod addressmap;
pub mod arbiter;
pub mod difftest;
pub mod direct;
pub mod fullxbar;
mod idtrack;
pub mod link;
pub mod shard;
pub mod stats;
pub mod xilinx;

pub use addressmap::{AddressMap, ContiguousMap};
pub use arbiter::RequestMasks;
pub use direct::DirectFabric;
pub use fullxbar::FullCrossbarFabric;
pub use link::{horizon, Flit, SerialLink};
pub use shard::{LateralRx, LateralTx, SwitchShard};
pub use stats::{FabricStats, LinkStats};
pub use xilinx::{FabricConfig, XilinxFabric};

use hbm_axi::{Addr, Completion, Cycle, MasterId, PortId, SharedTracer, Transaction};

/// Geometry of a sharded fabric's execution domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// Number of independent execution domains (mini switches).
    pub shards: usize,
    /// Contiguous masters owned by each shard.
    pub masters_per_shard: usize,
    /// Contiguous pseudo-channel ports owned by each shard.
    pub ports_per_shard: usize,
    /// Minimum cycles before any state change in one shard can become
    /// visible to another (lateral data *and* credit delay). A conductor
    /// may advance shards independently for up to `sync_lag` cycles past
    /// the earliest shard event before reconciling boundaries.
    pub sync_lag: Cycle,
}

/// A fabric decomposed into independently advanceable execution domains.
///
/// Implementors guarantee the lateral-port contract (see
/// [`shard`]): shards communicate *only* through cycle-stamped channels
/// whose data and credits are delayed by at least
/// [`ShardLayout::sync_lag`] cycles, so advancing shards in any order —
/// or concurrently — between barriers no farther apart than the
/// lateral-synchronisation horizon is bit-identical to lock-step
/// sequential execution.
pub trait ShardedFabric {
    /// The shard geometry.
    fn layout(&self) -> ShardLayout;

    /// Mutable access to the execution domains, for a conductor to
    /// advance independently (each [`SwitchShard`] is `Send`).
    fn shards_mut(&mut self) -> &mut [SwitchShard];

    /// Delivers every boundary's pending flits and credits. Must be
    /// called at each synchronisation barrier after all shards reach it.
    fn reconcile(&mut self);

    /// `true` when the next [`reconcile`](ShardedFabric::reconcile)
    /// would actually move state — any sender outbox non-empty or any
    /// receiver pop awaiting credit return. When `false`, reconciling is
    /// a provable no-op and a conductor may skip the barrier walk. The
    /// default is the conservative `true` (always reconcile), which is
    /// always correct.
    fn pending_reconcile(&self) -> bool {
        true
    }
}

/// A routable interconnect between bus masters and pseudo-channel ports.
///
/// The simulation loop drives implementations as follows, once per cycle:
///
/// 1. masters call [`offer_request`](Interconnect::offer_request) (retrying
///    a rejected transaction next cycle — head-of-line stall),
/// 2. [`tick`](Interconnect::tick) moves flits internally,
/// 3. the memory side drains [`pop_request`](Interconnect::pop_request)
///    (gated on controller acceptance via
///    [`peek_request`](Interconnect::peek_request)) and feeds completions
///    back via [`offer_completion`](Interconnect::offer_completion),
/// 4. masters drain [`pop_completion`](Interconnect::pop_completion).
pub trait Interconnect {
    /// Number of master-side AXI ports.
    fn num_masters(&self) -> usize;

    /// Number of memory-side pseudo-channel ports.
    fn num_ports(&self) -> usize;

    /// The pseudo-channel port a global address routes to (after any
    /// internal remapping).
    fn port_of(&self, addr: Addr) -> PortId;

    /// Offers a transaction from its master's AXI port. Returns the
    /// transaction back when it cannot be accepted this cycle (port
    /// serialization, full ingress queue, or an AXI ID-ordering stall).
    fn offer_request(&mut self, now: Cycle, txn: Transaction) -> Result<(), Transaction>;

    /// The request waiting at a pseudo-channel port, if any is ready.
    fn peek_request(&self, now: Cycle, port: PortId) -> Option<&Transaction>;

    /// Removes the request waiting at a pseudo-channel port.
    fn pop_request(&mut self, now: Cycle, port: PortId) -> Option<Transaction>;

    /// Offers a completion (read data / write ack) from a pseudo-channel
    /// port for return routing. Returns it back when the port's return
    /// link cannot accept it this cycle.
    fn offer_completion(
        &mut self,
        now: Cycle,
        port: PortId,
        c: Completion,
    ) -> Result<(), Completion>;

    /// Delivers the next completion for a master, if one has arrived.
    fn pop_completion(&mut self, now: Cycle, master: MasterId) -> Option<Completion>;

    /// Advances internal state by one cycle.
    fn tick(&mut self, now: Cycle);

    /// A lower bound on the first cycle ≥ `now` at which this fabric
    /// could do observable work — move a flit, expose a request at a
    /// port, or deliver a completion — assuming no further offers arrive
    /// in the meantime. `None` means the fabric is quiescent forever
    /// without new input.
    ///
    /// The contract is one-sided: reporting *earlier* than the true next
    /// event merely costs the caller a no-op `tick`, while reporting
    /// later would skip real work and break cycle accuracy. The default
    /// is therefore the maximally conservative `Some(now)`; fabrics
    /// override it to enable the simulation loop's event-horizon
    /// fast-forward (see DESIGN.md §3).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// `true` when no flit is anywhere in flight inside the fabric.
    fn drained(&self) -> bool;

    /// Attaches a lifecycle tracer (see `hbm_axi::instrument`). Once
    /// attached, the fabric stamps ingress-accepts and lateral hops into
    /// the shared side-table. Stamping is observation only — it must not
    /// change timing, arbitration, or acceptance decisions. The default
    /// ignores the tracer, so custom fabrics stay correct (just unstamped)
    /// by omission.
    fn attach_tracer(&mut self, _tracer: SharedTracer) {}

    /// Flits currently in flight inside the fabric (requests and
    /// completions across all internal queues) — a coarse congestion
    /// gauge sampled by time-series probes. The default reports 0 for
    /// fabrics that do not track it.
    fn occupancy(&self) -> usize {
        0
    }

    /// The shard geometry when this fabric is decomposed into parallel
    /// execution domains, `None` for monolithic fabrics. A `Some` return
    /// promises that [`as_sharded_mut`](Interconnect::as_sharded_mut)
    /// also returns `Some`. The default is `None`: monolithic fabrics
    /// run on the sequential path regardless of the requested run
    /// policy.
    fn shard_layout(&self) -> Option<ShardLayout> {
        None
    }

    /// The fabric's [`ShardedFabric`] view, `None` for monolithic
    /// fabrics (the sequential fallback).
    fn as_sharded_mut(&mut self) -> Option<&mut dyn ShardedFabric> {
        None
    }

    /// Visits the peak occupancy (high-water mark) of every internal
    /// queue since construction, labeled by queue family (`"ingress"`,
    /// `"egress"`, `"mc_link"`, `"lateral"`, …). The marks are maintained
    /// by the queues themselves at push time, so visiting them costs
    /// nothing during simulation — callers sample once per measurement,
    /// never inside the cycle loop. The default visits nothing, keeping
    /// custom fabrics correct (just unreported) by omission.
    fn for_each_queue_hwm(&self, _visit: &mut dyn FnMut(&'static str, usize)) {}

    /// Aggregate statistics snapshot.
    fn stats(&self) -> FabricStats;

    /// Clears statistics counters (after warm-up).
    fn reset_stats(&mut self);
}
