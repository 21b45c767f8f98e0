//! Per-switch execution domains and the explicit lateral ports that
//! connect them.
//!
//! The segmented switch network is *structurally* parallel: each mini
//! switch is a self-contained 4×4 crossbar whose only coupling to its
//! neighbours is the lateral buses. This module makes that structure
//! explicit. A [`SwitchShard`] owns everything local to one mini switch —
//! its master ingress/egress links, its pseudo-channel links, the
//! round-robin arbitration state, and the per-master AXI ID tracker —
//! and communicates with adjacent shards *only* through typed
//! [`LateralTx`]/[`LateralRx`] port pairs. A fabric of one shard — the
//! full crossbar, one 32×32 switch — has no lateral port at all.
//!
//! ## The lateral-port contract
//!
//! A lateral port is a single-writer, single-reader channel of
//! cycle-stamped flits:
//!
//! * the **sender** ([`LateralTx`]) charges serialization and grant-switch
//!   dead beats exactly like a [`SerialLink`], stamps each flit with its
//!   delivery cycle `sent_at + hop_latency`, and appends it to a private
//!   outbox;
//! * the **receiver** ([`LateralRx`]) holds a ring of stamped flits and
//!   only surfaces a head whose stamp has matured (`ready_at <= now`);
//! * queue-capacity **credits** return to the sender with the same
//!   `hop_latency` delay: a slot popped at cycle `c` becomes reusable at
//!   `c + hop_latency` (credit signalling crosses the same boundary the
//!   data did).
//!
//! Because both data and credits are delayed by at least one hop, *no
//! same-cycle information flows between shards*. That is the property the
//! kernel's execution domains build on: between two synchronisation
//! barriers separated by at most `hop_latency` cycles past the earliest
//! shard event, every shard can be advanced on its own, one after another
//! in any order, and the result is bit-identical to the sequential
//! schedule (DESIGN.md §3.3).
//!
//! [`reconcile`] is the only cross-shard operation: it drains each
//! sender's outbox into the paired receiver ring and returns the
//! receiver's pop credits, preserving cycle stamps. The owning fabric
//! calls it at every synchronisation barrier (each cycle when stepping
//! sequentially).
//!
//! ## The self-scheduled tick
//!
//! A shard records the earliest cycle its crossbar can next grant
//! anything (its *wake*, DESIGN.md §3.12) and [`SwitchShard::tick`]
//! returns at once before it. A tick that grants sets the wake to the
//! next cycle; a tick that grants nothing sets it to the earliest of the
//! not-yet-arrived input heads' stamps and, for every arrived head, the
//! cycle its blocked output can next send (serialisation end, or the
//! lateral credit that must mature first). Everything that can unblock
//! earlier is an external call — an accepted offer, a pop at a port or
//! master, a reconcile that moves a flit or credit — and each lowers the
//! wake. The wake feeds [`SwitchShard::next_event`], so a conductor's
//! domain horizon skips the cycles in which heads sit blocked.
//!
//! ## Persistent masks
//!
//! The arbitration state lives from one tick to the next. An input whose
//! head has arrived sits in its output's candidate row until a grant
//! pops that head; a bit set records the non-empty rows. An input is
//! *waiting* while it holds flits but its head is in no row: from the
//! moment its queue turns non-empty (an accepted offer or completion
//! offer, a reconcile into an empty receiver ring) or a grant leaves
//! flits behind its head, until a tick routes the arrived head. A tick
//! therefore routes only waiting inputs, grants only non-empty rows,
//! and folds its wake from the waiting heads' stamps and the non-empty
//! rows' send-ready cycles: it costs O(waiting inputs + outputs holding
//! candidates), not O(inputs + outputs). A `debug_assert` compares the
//! masks with a fresh scan of every input on every tick that runs.

use hbm_axi::{Completion, Cycle, StampedRing, Tracer, Transaction};

use crate::addressmap::{AddressMap, ContiguousMap};
use crate::arbiter::{ones, BitSet, RequestMasks};
use crate::idtrack::IdTracker;
use crate::link::{Flit, SerialLink};
use crate::stats::LinkStats;
use crate::xilinx::{
    FabricConfig, HOP_LATENCY, INGRESS_CAPACITY, LATERAL_CAPACITY, OUT_CAPACITY, PORT_RATE,
};
use crate::Retry;

/// Sender endpoint of a lateral channel: one direction of one lateral bus
/// crossing one switch boundary (request and response channels are
/// separate [`LateralTx`] instances, as on the real fabric).
#[derive(Debug)]
pub struct LateralTx {
    rate: f64,
    dead_beats: f64,
    busy_until: f64,
    last_src: Option<u16>,
    capacity: usize,
    latency: Cycle,
    /// Flits sent but not yet credit-returned (channel + receiver ring).
    occupied: usize,
    /// Credit-return times of receiver pops, ascending. The credit
    /// protocol bounds outstanding credits by the channel capacity, so
    /// the ring is sized to it; the payload is zero-sized — only the
    /// flat deadline array exists.
    credits: StampedRing<()>,
    /// Outbox: `(ready_at, flit)` in send order, drained by [`reconcile`].
    /// At most `capacity` flits can be in flight, outbox included.
    outbox: StampedRing<Flit>,
    stats: LinkStats,
}

impl LateralTx {
    fn new(rate: f64, dead_beats: f64, capacity: usize, latency: Cycle) -> LateralTx {
        assert!(rate > 0.0, "lateral rate must be positive");
        assert!(latency >= 1, "lateral latency must be >= 1 (no same-cycle hops)");
        LateralTx {
            rate,
            dead_beats,
            busy_until: 0.0,
            last_src: None,
            capacity,
            latency,
            occupied: 0,
            credits: StampedRing::new(capacity),
            outbox: StampedRing::new(capacity),
            stats: LinkStats::default(),
        }
    }

    /// Applies matured credits, freeing channel slots popped at least
    /// `hop_latency` cycles ago.
    fn apply_credits(&mut self, now: Cycle) {
        while self.credits.pop(now).is_some() {
            self.occupied -= 1;
        }
    }

    /// `true` if a flit from any source could be sent at `now`.
    #[inline]
    pub fn can_send(&self, now: Cycle) -> bool {
        if (now as f64) < self.busy_until {
            return false;
        }
        let matured = self.credits.ready_len(now);
        self.occupied - matured < self.capacity
    }

    /// The first cycle ≥ `now` at which [`can_send`](Self::can_send)
    /// holds without further credits arriving: the serialisation end,
    /// pushed back to the maturity of the credit that frees a slot when
    /// the channel is full. `None` when the freeing credit has not been
    /// returned yet (the next [`reconcile`] brings it).
    #[inline]
    fn send_ready_at(&self, now: Cycle) -> Option<Cycle> {
        let free = now.max(self.busy_until.ceil() as Cycle);
        match self.occupied.checked_sub(self.capacity) {
            None => Some(free),
            Some(k) => self.credits.deadline_at(k).map(|t| free.max(t)),
        }
    }

    /// Sends a flit of `cost_beats` from local input `src`, charging
    /// serialization and any grant-switch penalty. Panics if `can_send`
    /// is false.
    pub fn send(&mut self, now: Cycle, src: u16, cost_beats: u64, flit: Flit) {
        self.apply_credits(now);
        assert!(self.can_send(now), "send on busy/full lateral channel");
        let mut busy = cost_beats as f64 / self.rate;
        if self.last_src.is_some_and(|s| s != src) {
            busy += self.dead_beats / self.rate;
            self.stats.grant_switches += 1;
        }
        self.busy_until = now as f64 + busy;
        self.last_src = Some(src);
        self.stats.flits += 1;
        self.stats.beats += cost_beats;
        self.occupied += 1;
        let pushed = self.outbox.push_at(now + self.latency, flit);
        debug_assert!(pushed.is_ok(), "credit protocol bounds the outbox by capacity");
    }

    /// Flits waiting in the outbox (empty at every synchronisation
    /// barrier).
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Peak outbox occupancy since construction — the most flits this
    /// channel ever held between two reconciles.
    pub fn high_water(&self) -> usize {
        self.outbox.high_water()
    }

    /// Traffic counters of this channel.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Clears traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }
}

/// Receiver endpoint of a lateral channel: a ring of cycle-stamped flits
/// plus the pop log that turns into sender credits at the next
/// [`reconcile`].
#[derive(Debug)]
pub struct LateralRx {
    /// `(ready_at, flit)` in arrival order; stamps are non-decreasing.
    /// The credit protocol bounds occupancy by the channel capacity.
    ring: StampedRing<Flit>,
    /// Cycles at which flits were popped since the last reconcile.
    pops: Vec<Cycle>,
}

impl LateralRx {
    /// Builds the receiver side of a channel of `capacity` flits.
    pub fn new(capacity: usize) -> LateralRx {
        LateralRx { ring: StampedRing::new(capacity), pops: Vec::new() }
    }

    /// The matured head, if any.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&Flit> {
        self.ring.peek(now)
    }

    /// Pops the matured head, logging the pop for credit return.
    pub fn pop(&mut self, now: Cycle) -> Option<Flit> {
        let flit = self.ring.pop(now);
        if flit.is_some() {
            self.pops.push(now);
        }
        flit
    }

    /// Delivery stamp of the oldest flit in the ring, if any.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.ring.next_ready_at()
    }

    /// Flits in the ring (matured or still in flight).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Peak ring occupancy since construction.
    pub fn high_water(&self) -> usize {
        self.ring.high_water()
    }
}

/// Moves a sender's outbox into the paired receiver's ring (preserving
/// cycle stamps and send order) and returns the receiver's pop credits to
/// the sender, delayed by the channel's `hop_latency`.
///
/// This is the *only* way state crosses a shard boundary. It is safe to
/// call at any barrier no finer than once per cycle and no coarser than
/// the lateral-horizon window: stamps guarantee nothing becomes visible
/// early, regardless of how often reconciliation runs.
///
/// Returns the earliest stamp delivered to the receiver and the earliest
/// credit returned to the sender (`Cycle::MAX` when none), the cycles
/// from which each side's crossbar may act on them.
pub fn reconcile(tx: &mut LateralTx, rx: &mut LateralRx) -> (Cycle, Cycle) {
    let delivered = tx.outbox.next_ready_at().unwrap_or(Cycle::MAX);
    while let Some((ready_at, flit)) = tx.outbox.pop_front() {
        let pushed = rx.ring.push_at(ready_at, flit);
        assert!(pushed.is_ok(), "credit protocol bounds the receiver ring by capacity");
    }
    let credited = rx.pops.first().map_or(Cycle::MAX, |&t| t + tx.latency);
    for &popped_at in &rx.pops {
        let pushed = tx.credits.push_at(popped_at + tx.latency, ());
        debug_assert!(pushed.is_ok(), "credit protocol bounds outstanding credits");
    }
    rx.pops.clear();
    (delivered, credited)
}

/// One mini switch of the segmented fabric as a self-contained execution
/// domain: four master ports, four pseudo-channel ports, the local 4×4
/// crossbar (round-robin arbitration with dead beats on grant switches),
/// the per-master AXI ID tracker, and the shard's endpoints of the
/// lateral channels towards each neighbour. The full crossbar is one
/// shard holding every master and port, with no lateral channel.
///
/// All port indices on the shard API are *local* (`0..masters_per_switch`
/// / `0..ports_per_switch`), except [`SwitchShard::offer_request`], which
/// derives the local master from the transaction itself.
#[derive(Debug)]
pub struct SwitchShard {
    /// This shard's switch index.
    s: usize,
    mps: usize,
    pps: usize,
    b: usize,
    map: ContiguousMap,
    /// Master request ingress, local master order.
    master_in: Vec<SerialLink<Flit>>,
    /// Completion ingress from the local controllers.
    mc_in: Vec<SerialLink<Flit>>,
    /// Request egress to the local controllers.
    mc_out: Vec<SerialLink<Flit>>,
    /// Completion egress to the local masters.
    master_out: Vec<SerialLink<Flit>>,
    /// Eastward senders (to switch `s+1`): `[2*bus]` carries the right
    /// bus's request channel, `[2*bus+1]` the left bus's response channel.
    east_tx: Vec<LateralTx>,
    /// Westward senders (to switch `s-1`): `[2*bus]` carries the left
    /// bus's request channel, `[2*bus+1]` the right bus's response channel.
    west_tx: Vec<LateralTx>,
    /// Receivers paired with the *left* neighbour's `east_tx`.
    west_rx: Vec<LateralRx>,
    /// Receivers paired with the *right* neighbour's `west_tx`.
    east_rx: Vec<LateralRx>,
    /// Round-robin pointer per output slot.
    rr: Vec<usize>,
    /// Per output slot: the input slots whose arrived head routes to it,
    /// kept until a grant pops that head (see the module docs).
    cand: RequestMasks,
    /// Output slots whose `cand` row holds an input.
    rows: BitSet,
    /// Input slots holding flits whose head is in no `cand` row yet.
    waiting: BitSet,
    /// The earliest cycle the crossbar can next grant (see the module
    /// docs); [`tick`](SwitchShard::tick) returns at once before it.
    wake: Cycle,
    /// Outstanding (local master, dir, id) → destination tracking.
    id_track: IdTracker,
    id_stall_cycles: u64,
}

impl SwitchShard {
    /// Builds shard `s` of a fabric with the given configuration.
    pub(crate) fn new(cfg: &FabricConfig, s: usize) -> SwitchShard {
        let mps = cfg.masters_per_switch;
        let pps = cfg.ports_per_switch;
        let b = cfg.lateral_buses;
        let mk_lat =
            || LateralTx::new(cfg.lateral_rate, cfg.dead_beats, LATERAL_CAPACITY, HOP_LATENCY);
        let mk_rx = || LateralRx::new(LATERAL_CAPACITY);
        let link = |dead: f64, capacity: usize, latency: Cycle| {
            SerialLink::new(PORT_RATE, dead, capacity, latency)
        };
        let has_east = s + 1 < cfg.num_switches;
        let has_west = s > 0;
        let lateral = |present: bool| if present { 2 * b } else { 0 };
        // As many outputs as inputs: one per master, port and lateral
        // channel end.
        let n_slots = mps + pps + lateral(has_west) + lateral(has_east);
        SwitchShard {
            s,
            mps,
            pps,
            b,
            map: ContiguousMap::new(cfg.num_ports(), cfg.port_capacity),
            master_in: (0..mps).map(|_| link(0.0, INGRESS_CAPACITY, cfg.ingress_latency)).collect(),
            mc_in: (0..pps).map(|_| link(0.0, OUT_CAPACITY, cfg.mc_completion_latency)).collect(),
            mc_out: (0..pps)
                .map(|_| link(cfg.dead_beats, OUT_CAPACITY, cfg.mc_request_latency))
                .collect(),
            master_out: (0..mps)
                .map(|_| link(cfg.dead_beats, OUT_CAPACITY, cfg.egress_latency))
                .collect(),
            east_tx: (0..lateral(has_east)).map(|_| mk_lat()).collect(),
            west_tx: (0..lateral(has_west)).map(|_| mk_lat()).collect(),
            west_rx: (0..lateral(has_west)).map(|_| mk_rx()).collect(),
            east_rx: (0..lateral(has_east)).map(|_| mk_rx()).collect(),
            rr: vec![0; n_slots],
            cand: RequestMasks::new(n_slots, n_slots),
            rows: BitSet::new(n_slots),
            waiting: BitSet::new(n_slots),
            wake: 0,
            id_track: IdTracker::new(mps),
            id_stall_cycles: 0,
        }
    }

    /// Number of input slots in arbitration-ring order: local masters,
    /// local controllers, then (when present) the west receivers and east
    /// receivers, each `[bus0 req, bus0 resp, bus1 req, bus1 resp]`.
    fn n_in(&self) -> usize {
        self.mps + self.pps + self.west_rx.len() + self.east_rx.len()
    }

    /// Number of output slots: local controllers, local masters, then the
    /// east senders and west senders.
    fn n_out(&self) -> usize {
        self.pps + self.mps + self.east_tx.len() + self.west_tx.len()
    }

    /// Input slot of the first west receiver; the east receivers follow
    /// the west ones.
    fn west_rx_base(&self) -> usize {
        self.mps + self.pps
    }

    /// First lateral output slot; grants to slots at or beyond it cross a
    /// shard boundary.
    fn lateral_out_base(&self) -> usize {
        self.pps + self.mps
    }

    fn in_peek(&self, slot: usize, now: Cycle) -> Option<&Flit> {
        let (mps, pps) = (self.mps, self.pps);
        if slot < mps {
            self.master_in[slot].peek(now)
        } else if slot < mps + pps {
            self.mc_in[slot - mps].peek(now)
        } else if slot < mps + pps + self.west_rx.len() {
            self.west_rx[slot - mps - pps].peek(now)
        } else {
            self.east_rx[slot - mps - pps - self.west_rx.len()].peek(now)
        }
    }

    fn in_pop(&mut self, slot: usize, now: Cycle) -> Option<Flit> {
        let (mps, pps) = (self.mps, self.pps);
        if slot < mps {
            self.master_in[slot].pop(now)
        } else if slot < mps + pps {
            self.mc_in[slot - mps].pop(now)
        } else if slot < mps + pps + self.west_rx.len() {
            self.west_rx[slot - mps - pps].pop(now)
        } else {
            self.east_rx[slot - mps - pps - self.west_rx.len()].pop(now)
        }
    }

    fn out_can_send(&self, slot: usize, now: Cycle) -> bool {
        let (mps, pps) = (self.mps, self.pps);
        if slot < pps {
            self.mc_out[slot].can_send(now)
        } else if slot < pps + mps {
            self.master_out[slot - pps].can_send(now)
        } else if slot < pps + mps + self.east_tx.len() {
            self.east_tx[slot - pps - mps].can_send(now)
        } else {
            self.west_tx[slot - pps - mps - self.east_tx.len()].can_send(now)
        }
    }

    /// Arrival stamp of input `slot`'s head, if it holds any flit.
    fn in_ready_at(&self, slot: usize) -> Option<Cycle> {
        let (mps, pps) = (self.mps, self.pps);
        if slot < mps {
            self.master_in[slot].next_ready_at()
        } else if slot < mps + pps {
            self.mc_in[slot - mps].next_ready_at()
        } else if slot < mps + pps + self.west_rx.len() {
            self.west_rx[slot - mps - pps].next_ready_at()
        } else {
            self.east_rx[slot - mps - pps - self.west_rx.len()].next_ready_at()
        }
    }

    /// The first cycle ≥ `now` at which output `slot` can send without
    /// an external pop or credit; `Cycle::MAX` when it needs one.
    fn out_ready_at(&self, slot: usize, now: Cycle) -> Cycle {
        let (mps, pps) = (self.mps, self.pps);
        let t = if slot < pps {
            self.mc_out[slot].send_ready_at(now)
        } else if slot < pps + mps {
            self.master_out[slot - pps].send_ready_at(now)
        } else if slot < pps + mps + self.east_tx.len() {
            self.east_tx[slot - pps - mps].send_ready_at(now)
        } else {
            self.west_tx[slot - pps - mps - self.east_tx.len()].send_ready_at(now)
        };
        t.unwrap_or(Cycle::MAX)
    }

    fn out_send(&mut self, slot: usize, now: Cycle, src: u16, cost: u64, flit: Flit) {
        let (mps, pps) = (self.mps, self.pps);
        if slot < pps {
            self.mc_out[slot].send(now, src, cost, flit);
        } else if slot < pps + mps {
            self.master_out[slot - pps].send(now, src, cost, flit);
        } else if slot < pps + mps + self.east_tx.len() {
            self.east_tx[slot - pps - mps].send(now, src, cost, flit);
        } else {
            self.west_tx[slot - pps - mps - self.east_tx.len()].send(now, src, cost, flit);
        }
    }

    /// Static lateral-bus assignment of the flit at input `slot` (see the
    /// fabric-level documentation): locally injected traffic maps
    /// proportionally onto the buses; pass-through traffic stays on the
    /// bus it arrived on.
    fn bus_of(&self, slot: usize) -> usize {
        let (mps, pps, b) = (self.mps, self.pps, self.b);
        if slot < mps {
            return (slot * b / mps).min(b - 1);
        }
        if slot < mps + pps {
            return ((slot - mps) * b / pps).min(b - 1);
        }
        // Lateral receivers are laid out `[2*bus + channel]` per group.
        let rel = slot - mps - pps;
        (rel % (2 * b)) / 2
    }

    /// Routes the flit at input `slot` to its output slot.
    fn route(&self, slot: usize, flit: &Flit) -> usize {
        let (dest_switch, local, is_req) = match flit {
            Flit::Req(t) => {
                let (switch, local) = div_rem(self.map.port_of(t.addr).idx(), self.pps);
                (switch, local, true)
            }
            Flit::Resp(c) => {
                let (switch, local) = div_rem(c.txn.master.idx(), self.mps);
                (switch, local, false)
            }
        };
        if dest_switch == self.s {
            return if is_req { local } else { self.pps + local };
        }
        let bus = self.bus_of(slot);
        let east_base = self.lateral_out_base();
        let west_base = east_base + self.east_tx.len();
        if is_req {
            // Requests ride the forward channel of their bus.
            if dest_switch > self.s {
                east_base + 2 * bus
            } else {
                west_base + 2 * bus
            }
        } else {
            // Responses ride the matching response channel: a flow that
            // went right returns on right_ret, one that went left on
            // left_ret.
            if dest_switch > self.s {
                east_base + 2 * bus + 1
            } else {
                west_base + 2 * bus + 1
            }
        }
    }

    /// Offers a transaction from one of this shard's masters. Mirrors the
    /// fabric-level contract: `Err` returns the transaction on port
    /// serialization, a full ingress queue, or an AXI ID-ordering stall,
    /// with a hint of when repeating the offer can next matter (see
    /// [`Retry`]). An ID-ordering stall lasts until a completion reaches
    /// the master; a busy ingress link frees when its serialisation ends;
    /// a full one gives `Retry::At(Cycle::MAX)`, because only this
    /// shard's tick frees it, and [`tick_and_wake`](Self::tick_and_wake)
    /// reports that.
    pub fn offer_request(
        &mut self,
        now: Cycle,
        txn: Transaction,
    ) -> Result<(), (Transaction, Retry)> {
        let lm = txn.master.idx() - self.s * self.mps;
        let port = self.map.port_of(txn.addr);
        if self.id_track.conflicts(lm, txn.dir, txn.id.0, port) {
            self.id_stall_cycles += 1;
            return Err((txn, Retry::UntilCompletion));
        }
        let link = &mut self.master_in[lm];
        if !link.can_send(now) {
            return Err((txn, Retry::At(link.send_ready_at(now).unwrap_or(Cycle::MAX))));
        }
        let cost = txn.fwd_link_cycles();
        let (dir, id) = (txn.dir, txn.id.0);
        let turned = link.is_empty();
        link.send(now, 0, cost, Flit::Req(txn));
        if turned {
            self.waiting.insert(lm);
        }
        self.id_track.issue(lm, dir, id, port);
        // The flit arrives at least one cycle out (latencies are ≥ 1).
        self.wake = self.wake.min(now + 1);
        Ok(())
    }

    /// The request ready at local pseudo-channel port `lp`, if any.
    pub fn peek_request(&self, now: Cycle, lp: usize) -> Option<&Transaction> {
        match self.mc_out[lp].peek(now) {
            Some(Flit::Req(t)) => Some(t),
            Some(Flit::Resp(_)) => unreachable!("response on a request link"),
            None => None,
        }
    }

    /// Removes the request ready at local port `lp`.
    pub fn pop_request(&mut self, now: Cycle, lp: usize) -> Option<Transaction> {
        match self.mc_out[lp].pop(now) {
            Some(Flit::Req(t)) => {
                // A freed slot may unblock a head routed to this port.
                self.wake = self.wake.min(now);
                Some(t)
            }
            Some(Flit::Resp(_)) => unreachable!("response on a request link"),
            None => None,
        }
    }

    /// Offers a completion from local port `lp` for return routing.
    /// `Err((c, t))` promises failure with no effect before cycle `t` —
    /// the end of the return link's serialisation, or `Cycle::MAX` while
    /// it is full (only this shard's tick frees it, and
    /// [`tick_and_wake`](Self::tick_and_wake) reports that).
    pub fn offer_completion(
        &mut self,
        now: Cycle,
        lp: usize,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)> {
        let link = &mut self.mc_in[lp];
        if !link.can_send(now) {
            return Err((c, link.send_ready_at(now).unwrap_or(Cycle::MAX)));
        }
        let cost = c.txn.ret_link_cycles();
        let turned = link.is_empty();
        link.send(now, 0, cost, Flit::Resp(c));
        if turned {
            self.waiting.insert(self.mps + lp);
        }
        self.wake = self.wake.min(now + 1);
        Ok(())
    }

    /// Delivers the next completion for local master `lm`, if any.
    pub fn pop_completion(&mut self, now: Cycle, lm: usize) -> Option<Completion> {
        match self.master_out[lm].pop(now) {
            Some(Flit::Resp(c)) => {
                self.id_track.retire(lm, c.txn.dir, c.txn.id.0);
                self.wake = self.wake.min(now);
                Some(c)
            }
            Some(Flit::Req(_)) => unreachable!("request on a completion link"),
            None => None,
        }
    }

    /// Advances the local crossbar by one cycle. Touches only shard-local
    /// state plus this shard's own lateral endpoints; cross-shard flits
    /// accumulate in the sender outboxes until the owning fabric
    /// reconciles the boundary. Returns at once before the wake.
    pub fn tick(&mut self, now: Cycle) {
        self.tick_and_wake(now, &mut [], &mut [], None);
    }

    /// [`tick`](Self::tick) that also lowers `masters[lm]` (`ports[lp]`)
    /// to `now` for every local master (port) whose ingress (completion)
    /// link it pops while that link is full: an offer rejected there
    /// with `Cycle::MAX` may succeed from this cycle on (see
    /// [`offer_request`](Self::offer_request) and
    /// [`offer_completion`](Self::offer_completion)); a pop from a link
    /// with room frees no sleeping offer. Each slice is empty or holds
    /// one entry per local master (port). A lent `tracer` takes a
    /// lateral-hop stamp for every grant onto a lateral bus.
    pub fn tick_and_wake(
        &mut self,
        now: Cycle,
        masters: &mut [Cycle],
        ports: &mut [Cycle],
        mut tracer: Option<&mut Tracer>,
    ) {
        if now < self.wake {
            return;
        }
        // Two passes over the kept masks: pass 1 routes each waiting
        // input whose head has arrived into its output's candidate row;
        // pass 2 grants each non-empty row, in output order, the first
        // candidate at or after its round-robin pointer. A head routes to
        // one output, so no input can win twice in a cycle.
        for w in 0..self.waiting.words() {
            for slot in ones(self.waiting.word(w), 64 * w) {
                if let Some(head) = self.in_peek(slot, now) {
                    let out_slot = self.route(slot, head);
                    self.cand.set(out_slot, slot);
                    self.rows.insert(out_slot);
                    self.waiting.remove(slot);
                }
            }
        }
        debug_assert!(self.masks_match_scan(now), "cycle {now}: kept masks differ from a scan");
        let mut granted = false;
        // A grant changes only its own row, so each word's copy stays
        // exact for the outputs after it.
        for w in 0..self.rows.words() {
            for out_slot in ones(self.rows.word(w), 64 * w) {
                if !self.out_can_send(out_slot, now) {
                    continue;
                }
                let slot = self.cand.pick(out_slot, self.rr[out_slot]).expect("non-empty row");
                // Each link has one sender, whose offer sleeps on
                // `Cycle::MAX` only while the link is full, so only a
                // pop from a full link frees it.
                let freed = if slot < self.mps {
                    masters.get_mut(slot).filter(|_| self.master_in[slot].is_full())
                } else if slot < self.mps + self.pps {
                    ports.get_mut(slot - self.mps).filter(|_| self.mc_in[slot - self.mps].is_full())
                } else {
                    None
                };
                self.grant(now, slot, out_slot, tracer.as_deref_mut());
                if let Some(wake) = freed {
                    *wake = (*wake).min(now);
                }
                granted = true;
            }
        }
        self.settle_wake(now, granted);
    }

    /// `true` when the kept masks equal what routing every arrived head
    /// afresh would build: each arrived head's input is in its route's
    /// row and nowhere else, every other input holding flits waits, and
    /// `rows` marks exactly the non-empty rows.
    fn masks_match_scan(&self, now: Cycle) -> bool {
        let mut arrived = 0;
        for slot in 0..self.n_in() {
            let kept = match self.in_peek(slot, now) {
                Some(head) => {
                    arrived += 1;
                    self.cand.contains(self.route(slot, head), slot) && !self.waiting.contains(slot)
                }
                None => self.waiting.contains(slot) == self.in_ready_at(slot).is_some(),
            };
            if !kept {
                return false;
            }
        }
        self.cand.count_ones() == arrived
            && (0..self.n_out()).all(|o| self.rows.contains(o) != self.cand.row_is_empty(o))
    }

    /// Moves the head of input `slot` onto output `out_slot`, takes it out
    /// of the output's row (the input waits again if flits remain
    /// behind it) and advances the output's round-robin pointer past it.
    fn grant(&mut self, now: Cycle, slot: usize, out_slot: usize, tracer: Option<&mut Tracer>) {
        let flit = self.in_pop(slot, now).expect("routed head vanished");
        self.cand.clear(out_slot, slot);
        if self.cand.row_is_empty(out_slot) {
            self.rows.remove(out_slot);
        }
        if self.in_ready_at(slot).is_some() {
            self.waiting.insert(slot);
        }
        let cost = flit.cost_beats();
        if let Some(tr) = tracer {
            if out_slot >= self.lateral_out_base() {
                let (m, seq) = match &flit {
                    Flit::Req(t) => (t.master.0, t.seq),
                    Flit::Resp(c) => (c.txn.master.0, c.txn.seq),
                };
                tr.lateral_hop(now, m, seq);
            }
        }
        self.out_send(out_slot, now, slot as u16, cost, flit);
        self.rr[out_slot] = (slot + 1) % self.n_in();
    }

    /// Sets the wake after a tick at `now`: the next cycle after a grant;
    /// otherwise every arrived head is blocked in a non-empty row and
    /// every other input holding flits waits for its head, so the
    /// earliest of the waiting heads' stamps and the non-empty rows'
    /// send-ready cycles.
    fn settle_wake(&mut self, now: Cycle, granted: bool) {
        self.wake = if granted {
            now + 1
        } else {
            let arrivals = self.waiting.iter().map(|slot| self.in_ready_at(slot).expect("waits"));
            let sends = self.rows.iter().map(|out_slot| self.out_ready_at(out_slot, now + 1));
            arrivals.chain(sends).fold(Cycle::MAX, Cycle::min)
        };
    }

    /// The shard's next-event horizon: the earliest cycle ≥ `now` at
    /// which the crossbar can grant (its wake) or a head becomes
    /// visible at a controller port or a master. Sender outboxes are
    /// empty at every barrier, so they never contribute.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let heads = self.mc_out.iter().chain(&self.master_out).filter_map(|l| l.next_ready_at());
        let t = heads.fold(self.wake, Cycle::min);
        (t != Cycle::MAX).then(|| t.max(now))
    }

    /// `true` when nothing is in flight anywhere in this shard, including
    /// its receiver rings and sender outboxes.
    pub fn drained(&self) -> bool {
        self.master_in
            .iter()
            .chain(&self.mc_in)
            .chain(&self.mc_out)
            .chain(&self.master_out)
            .all(|l| l.is_empty())
            && self.west_rx.iter().chain(&self.east_rx).all(|r| r.is_empty())
            && self.east_tx.iter().chain(&self.west_tx).all(|t| t.outbox.is_empty())
    }

    /// `true` when this shard's lateral boundaries carry nothing for the
    /// next reconcile: every sender outbox is empty and no receiver pop
    /// is awaiting credit return. Reconciling an idle boundary is a
    /// provable no-op, so a conductor may skip the barrier walk entirely
    /// when every shard reports idle (see
    /// [`ShardedFabric::pending_reconcile`](crate::ShardedFabric::pending_reconcile)).
    pub fn boundary_idle(&self) -> bool {
        self.east_tx.iter().chain(&self.west_tx).all(|t| t.outbox.is_empty())
            && self.west_rx.iter().chain(&self.east_rx).all(|r| r.pops.is_empty())
    }

    /// Flits in flight inside this shard (local queues, receiver rings,
    /// and unreconciled outboxes).
    pub fn occupancy(&self) -> usize {
        self.master_in
            .iter()
            .chain(&self.mc_in)
            .chain(&self.mc_out)
            .chain(&self.master_out)
            .map(|l| l.len())
            .sum::<usize>()
            + self.west_rx.iter().chain(&self.east_rx).map(|r| r.len()).sum::<usize>()
            + self.east_tx.iter().chain(&self.west_tx).map(|t| t.outbox.len()).sum::<usize>()
    }

    /// Cycles a master of this shard spent stalled on the AXI same-ID
    /// ordering rule.
    pub fn id_stall_cycles(&self) -> u64 {
        self.id_stall_cycles
    }

    /// Merged traffic counters of the local master ingress links.
    pub fn ingress_stats(&self) -> LinkStats {
        merged(self.master_in.iter().map(|l| l.stats()))
    }

    /// Merged traffic counters of the local master egress links.
    pub fn egress_stats(&self) -> LinkStats {
        merged(self.master_out.iter().map(|l| l.stats()))
    }

    /// Merged traffic counters of the local controller links (both
    /// directions).
    pub fn mc_link_stats(&self) -> LinkStats {
        merged(self.mc_in.iter().chain(&self.mc_out).map(|l| l.stats()))
    }

    /// Traffic counters of the eastward lateral channel `[2*bus + ch]`
    /// (`ch` 0 = right-bus requests, 1 = left-bus responses). `None` for
    /// the last switch.
    pub fn east_stats(&self, idx: usize) -> Option<&LinkStats> {
        self.east_tx.get(idx).map(|t| t.stats())
    }

    /// Traffic counters of the westward lateral channel `[2*bus + ch]`
    /// (`ch` 0 = left-bus requests, 1 = right-bus responses). `None` for
    /// switch 0.
    pub fn west_stats(&self, idx: usize) -> Option<&LinkStats> {
        self.west_tx.get(idx).map(|t| t.stats())
    }

    /// Visits the high-water mark of every queue in this shard, labeled
    /// by family. Lateral channels report the receiver ring's peak (the
    /// in-flight flits a boundary ever held); sender outboxes drain at
    /// every barrier and contribute their own pre-reconcile peak.
    pub fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        for l in &self.master_in {
            visit("ingress", l.high_water());
        }
        for l in &self.master_out {
            visit("egress", l.high_water());
        }
        for l in self.mc_in.iter().chain(&self.mc_out) {
            visit("mc_link", l.high_water());
        }
        for r in self.west_rx.iter().chain(&self.east_rx) {
            visit("lateral", r.high_water());
        }
        for t in self.east_tx.iter().chain(&self.west_tx) {
            visit("lateral", t.high_water());
        }
    }

    /// Clears all traffic counters and the ID-stall counter.
    pub fn reset_stats(&mut self) {
        for l in self
            .master_in
            .iter_mut()
            .chain(&mut self.mc_in)
            .chain(&mut self.mc_out)
            .chain(&mut self.master_out)
        {
            l.reset_stats();
        }
        for t in self.east_tx.iter_mut().chain(&mut self.west_tx) {
            t.reset_stats();
        }
        self.id_stall_cycles = 0;
    }

    /// Reconciles the boundary between `left` (shard `s`) and `right`
    /// (shard `s+1`): delivers both directions' outboxes and returns pop
    /// credits. A receiver ring that turns non-empty marks its input slot
    /// waiting.
    pub fn reconcile_boundary(left: &mut SwitchShard, right: &mut SwitchShard) {
        debug_assert_eq!(left.s + 1, right.s, "reconcile expects adjacent shards");
        let base = right.west_rx_base();
        for (i, (tx, rx)) in left.east_tx.iter_mut().zip(right.west_rx.iter_mut()).enumerate() {
            let turned = rx.is_empty();
            let (delivered, credited) = reconcile(tx, rx);
            if turned && !rx.is_empty() {
                right.waiting.insert(base + i);
            }
            right.wake = right.wake.min(delivered);
            left.wake = left.wake.min(credited);
        }
        let base = left.west_rx_base() + left.west_rx.len();
        for (i, (tx, rx)) in right.west_tx.iter_mut().zip(left.east_rx.iter_mut()).enumerate() {
            let turned = rx.is_empty();
            let (delivered, credited) = reconcile(tx, rx);
            if turned && !rx.is_empty() {
                left.waiting.insert(base + i);
            }
            left.wake = left.wake.min(delivered);
            right.wake = right.wake.min(credited);
        }
    }

    /// The linear round-robin scan the bitmask tick replaced, kept as the
    /// oracle for `tick_matches_reference_scan`. It keeps no masks: each
    /// cycle it reads every input's head afresh, and where
    /// [`tick`](Self::tick) would run it settles the wake by a scan of
    /// every input. It never skips, so a tick skipped while a grant was
    /// possible shows up as a divergence.
    #[cfg(test)]
    pub(crate) fn tick_reference(&mut self, now: Cycle) {
        let n_in = self.n_in();
        let mut routed = Vec::new();
        for slot in 0..n_in {
            if let Some(head) = self.in_peek(slot, now) {
                routed.push((self.route(slot, head), slot));
            }
        }
        let mut popped = vec![false; n_in];
        let mut granted = false;
        for out_slot in 0..self.n_out() {
            if routed.is_empty() || !self.out_can_send(out_slot, now) {
                continue;
            }
            let start = self.rr[out_slot];
            let mut chosen: Option<(usize, usize)> = None; // (rr distance, slot)
            for &(o, slot) in &routed {
                if o != out_slot || popped[slot] {
                    continue;
                }
                let dist = (slot + n_in - start) % n_in;
                if chosen.is_none_or(|(d, _)| dist < d) {
                    chosen = Some((dist, slot));
                }
            }
            if let Some((_, slot)) = chosen {
                // The old grant, spelled out so a slip in the shared
                // `grant` shows up as a divergence (the oracle takes no
                // stamps).
                popped[slot] = true;
                let flit = self.in_pop(slot, now).expect("peeked head vanished");
                self.out_send(out_slot, now, slot as u16, flit.cost_beats(), flit);
                self.rr[out_slot] = (slot + 1) % n_in;
                granted = true;
            }
        }
        if granted {
            self.wake = now + 1;
        } else if now >= self.wake {
            let mut wake = Cycle::MAX;
            for slot in 0..n_in {
                let Some(t) = self.in_ready_at(slot) else {
                    continue;
                };
                let t = if t > now {
                    t
                } else {
                    let head = self.in_peek(slot, now).expect("arrived head");
                    self.out_ready_at(self.route(slot, head), now + 1)
                };
                wake = wake.min(t);
            }
            self.wake = wake;
        }
    }
}

/// `(x / d, x % d)`, a shift and a mask for the stock power-of-two
/// switch widths.
#[inline]
fn div_rem(x: usize, d: usize) -> (usize, usize) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

fn merged<'a>(stats: impl Iterator<Item = &'a LinkStats>) -> LinkStats {
    let mut total = LinkStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, Dir, MasterId, TxnBuilder};

    fn flit(seq: u64) -> Flit {
        let t =
            hbm_axi::Transaction::new(MasterId(0), AxiId(0), 0, BurstLen::of(1), Dir::Read, 0, seq)
                .unwrap();
        Flit::Req(t)
    }

    fn seq_of(f: &Flit) -> u64 {
        match f {
            Flit::Req(t) => t.seq,
            Flit::Resp(c) => c.txn.seq,
        }
    }

    #[test]
    fn lateral_delivery_waits_hop_latency() {
        let mut tx = LateralTx::new(1.0, 0.0, 4, 2);
        let mut rx = LateralRx::new(4);
        tx.send(10, 0, 1, flit(7));
        reconcile(&mut tx, &mut rx);
        assert!(rx.peek(11).is_none());
        assert_eq!(rx.next_ready_at(), Some(12));
        assert_eq!(seq_of(&rx.pop(12).unwrap()), 7);
    }

    #[test]
    fn credits_return_with_hop_delay() {
        let mut tx = LateralTx::new(1.0, 0.0, 2, 2);
        let mut rx = LateralRx::new(2);
        tx.send(0, 0, 1, flit(0));
        tx.send(1, 0, 1, flit(1));
        assert!(!tx.can_send(2), "capacity 2 exhausted");
        reconcile(&mut tx, &mut rx);
        rx.pop(2).unwrap();
        reconcile(&mut tx, &mut rx);
        // The slot popped at 2 frees at 2 + hop_latency = 4.
        assert!(!tx.can_send(3));
        assert!(tx.can_send(4));
    }

    #[test]
    fn serialization_and_dead_beats_match_serial_link() {
        let mut tx = LateralTx::new(1.0, 2.0, 16, 1);
        tx.send(0, 0, 4, flit(0));
        assert!(!tx.can_send(3));
        assert!(tx.can_send(4));
        // Grant switch: 1 beat + 2 dead beats.
        tx.send(4, 1, 1, flit(1));
        assert!(!tx.can_send(6));
        assert!(tx.can_send(7));
        assert_eq!(tx.stats().grant_switches, 1);
        assert_eq!(tx.stats().beats, 5);
    }

    #[test]
    fn shard_local_round_trip() {
        let cfg = FabricConfig::xcvu37p();
        let mut sh = SwitchShard::new(&cfg, 0);
        let mut b = TxnBuilder::new(MasterId(1));
        let txn = b.issue(AxiId(0), 256 << 20, BurstLen::of(1), Dir::Read, 0).unwrap();
        sh.offer_request(0, txn).unwrap();
        let mut got = None;
        for now in 0..100 {
            sh.tick(now);
            if let Some(t) = sh.pop_request(now, 1) {
                got = Some(now);
                let c = Completion { txn: t, produced_at: now };
                sh.offer_completion(now, 1, c).unwrap();
            }
            if sh.pop_completion(now, 1).is_some() {
                assert!(sh.drained());
                return;
            }
        }
        panic!("no round trip (request seen: {got:?})");
    }

    #[test]
    fn remote_request_lands_in_east_outbox() {
        let cfg = FabricConfig::xcvu37p();
        let mut sh = SwitchShard::new(&cfg, 0);
        let mut b = TxnBuilder::new(MasterId(0));
        // Port 4 lives on switch 1 — must go east.
        let txn = b.issue(AxiId(0), 4 * (256u64 << 20), BurstLen::of(1), Dir::Read, 0).unwrap();
        sh.offer_request(0, txn).unwrap();
        for now in 0..20 {
            sh.tick(now);
        }
        assert_eq!(sh.east_tx.iter().map(|t| t.outbox_len()).sum::<usize>(), 1);
        assert!(!sh.drained());
        assert_eq!(sh.occupancy(), 1);
    }
}
