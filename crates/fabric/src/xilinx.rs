//! The Xilinx-style segmented switch network (paper Fig. 1).
//!
//! Eight 4×4 crossbar switches, each locally connecting four bus masters
//! and four pseudo-channels, chained by two lateral buses per direction.
//! Every lateral bus is a full AXI interface: its request channel (AR/AW/W)
//! and its response channel (R/B) are separate physical paths, and a flow
//! that crosses switches uses the matching response channel on the way
//! back. Bus assignment is **static**: masters 0–1 of a switch use bus 0,
//! masters 2–3 use bus 1 (and symmetrically for the memory side), while
//! pass-through traffic stays on the bus it arrived on. This static
//! assignment is what forces two masters onto the same lateral connection
//! at rotation offset 2 in the paper's Fig. 4 experiment.
//!
//! Arbitration at every output is round-robin; regranting to a different
//! source costs dead cycles (bus multiplexing), which is the mechanism
//! behind the paper's observation that short bursts lose a further ~17 %
//! on contended switches.
//!
//! Additionally, the fabric enforces the AXI rule that a master may not
//! have transactions with the same ID outstanding to *different*
//! destinations (responses could not be merged in order otherwise): such
//! requests stall at ingress. The MAO removes this stall with reorder
//! buffers — a large part of its random-access win (paper Fig. 6).
//!
//! Structurally, the fabric is a chain of [`SwitchShard`] execution
//! domains (see [`crate::shard`]): each mini switch owns all of its local
//! state and talks to its neighbours only through cycle-stamped lateral
//! ports, which is what lets the simulation core advance switches
//! independently between synchronisation horizons.
//!
//! Built as one switch holding every master and pseudo-channel
//! ([`FabricConfig::full_crossbar`]), the network is the full crossbar
//! of the MAO feature decomposition: no lateral bus exists, and the
//! contiguous map, the same-ID stall and the arbitration are the stock
//! switch's by construction.

use hbm_axi::{Addr, Completion, Cycle, MasterId, PortId, Tracer, Transaction};

use crate::addressmap::{AddressMap, ContiguousMap};
use crate::shard::SwitchShard;
use crate::stats::{FabricStats, LinkStats};
use crate::{Interconnect, Retry, ShardLayout, ShardedFabric};

/// Master and memory port rate in beats per accelerator cycle.
pub(crate) const PORT_RATE: f64 = 1.0;
/// Queue capacity of a master ingress link, in transactions.
pub(crate) const INGRESS_CAPACITY: usize = 8;
/// Queue capacity of a memory or master egress link, in flits.
pub(crate) const OUT_CAPACITY: usize = 8;
/// Queue capacity of a lateral channel, in flits.
pub(crate) const LATERAL_CAPACITY: usize = 4;
/// Pipeline latency of a lateral hop, in cycles: no state crosses a
/// switch boundary in fewer.
pub(crate) const HOP_LATENCY: Cycle = 2;

/// Geometry and timing of the segmented switch network.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Number of local crossbar switches (8 on the XCVU37P).
    pub num_switches: usize,
    /// Masters per switch (4).
    pub masters_per_switch: usize,
    /// Pseudo-channel ports per switch (4).
    pub ports_per_switch: usize,
    /// Lateral buses per direction between adjacent switches (2).
    pub lateral_buses: usize,
    /// Lateral-bus bandwidth in beats per accelerator cycle. The switch
    /// network is clocked at the HBM reference clock, but packing losses
    /// make ≈ one beat per accelerator cycle the faithful effective rate
    /// (see DESIGN.md §3).
    pub lateral_rate: f64,
    /// Pipeline latency of a master ingress, in cycles.
    pub ingress_latency: Cycle,
    /// Pipeline latency of completion delivery to a master.
    pub egress_latency: Cycle,
    /// Pipeline latency of a request from a switch to a local memory
    /// port.
    pub mc_request_latency: Cycle,
    /// Pipeline latency of a completion from a local memory port into
    /// its switch.
    pub mc_completion_latency: Cycle,
    /// Dead beats charged when an arbiter regrants to a new source.
    pub dead_beats: f64,
    /// Capacity per pseudo-channel in bytes (for the address map).
    pub port_capacity: u64,
}

impl FabricConfig {
    /// The stock XCVU37P switch fabric. Its rates are beats per
    /// accelerator cycle, so one configuration serves every clock.
    pub fn xcvu37p() -> FabricConfig {
        FabricConfig {
            num_switches: 8,
            masters_per_switch: 4,
            ports_per_switch: 4,
            lateral_buses: 2,
            lateral_rate: 1.0,
            ingress_latency: 4,
            egress_latency: 4,
            mc_request_latency: 3,
            mc_completion_latency: 3,
            dead_beats: 2.0,
            port_capacity: 256 << 20,
        }
    }

    /// The full-crossbar ablation: one switch joining all `num_pch`
    /// masters and pseudo-channels of `port_capacity` bytes, so no
    /// lateral bus exists, and everything else as on the stock switch:
    /// the contiguous map, the AXI same-ID stall, and round-robin grants
    /// with dead beats. A flat crossbar of this size needs a deeper
    /// pipeline: 6 cycles before each arbiter and 1 after it, on the
    /// request and the completion path alike.
    pub fn full_crossbar(num_pch: usize, port_capacity: u64) -> FabricConfig {
        FabricConfig {
            num_switches: 1,
            masters_per_switch: num_pch,
            ports_per_switch: num_pch,
            ingress_latency: 6,
            egress_latency: 1,
            mc_request_latency: 1,
            mc_completion_latency: 6,
            port_capacity,
            ..FabricConfig::xcvu37p()
        }
    }

    /// Total master-side ports.
    pub fn num_masters(&self) -> usize {
        self.num_switches * self.masters_per_switch
    }

    /// Total memory-side ports.
    pub fn num_ports(&self) -> usize {
        self.num_switches * self.ports_per_switch
    }

    fn validate(&self) {
        assert!(self.num_switches >= 1);
        assert!(self.lateral_buses >= 1);
        assert!(
            self.ingress_latency >= 1
                && self.egress_latency >= 1
                && self.mc_request_latency >= 1
                && self.mc_completion_latency >= 1,
            "all link latencies must be ≥ 1 cycle (prevents same-cycle multi-hop)"
        );
    }
}

/// The segmented switch network: a chain of per-switch execution domains
/// ([`SwitchShard`]) joined by explicit lateral ports.
///
/// Each shard owns its four masters' ingress/egress links, its four
/// pseudo-channel links, and the local crossbar's arbitration state;
/// shards exchange flits only through cycle-stamped
/// [`LateralTx`](crate::shard::LateralTx)/[`LateralRx`](crate::shard::LateralRx)
/// channel pairs whose data *and* queue credits are delayed by a lateral
/// hop's latency. Stepped sequentially, [`tick`](Interconnect::tick)
/// advances every shard and then [reconciles](ShardedFabric::reconcile)
/// all boundaries; the wake-driven kernel in `hbm-core` instead advances
/// each shard's execution domain on its own between
/// lateral-synchronisation horizons and reconciles at each barrier —
/// bit-identically, because no same-cycle information ever crosses a
/// boundary (DESIGN.md §3.3).
pub struct XilinxFabric {
    cfg: FabricConfig,
    map: ContiguousMap,
    shards: Vec<SwitchShard>,
}

impl XilinxFabric {
    /// Builds the fabric for a configuration.
    pub fn new(cfg: FabricConfig) -> XilinxFabric {
        cfg.validate();
        let shards = (0..cfg.num_switches).map(|s| SwitchShard::new(&cfg, s)).collect();
        XilinxFabric { map: ContiguousMap::new(cfg.num_ports(), cfg.port_capacity), shards, cfg }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    #[inline]
    fn master_shard(&self, m: usize) -> (usize, usize) {
        (m / self.cfg.masters_per_switch, m % self.cfg.masters_per_switch)
    }

    #[inline]
    fn port_shard(&self, p: usize) -> (usize, usize) {
        (p / self.cfg.ports_per_switch, p % self.cfg.ports_per_switch)
    }

    fn merged_stats<'a>(stats: impl Iterator<Item = LinkStats> + 'a) -> LinkStats {
        let mut total = LinkStats::default();
        for s in stats {
            total.merge(&s);
        }
        total
    }
}

impl ShardedFabric for XilinxFabric {
    fn layout(&self) -> ShardLayout {
        ShardLayout {
            shards: self.cfg.num_switches,
            masters_per_shard: self.cfg.masters_per_switch,
            ports_per_shard: self.cfg.ports_per_switch,
            sync_lag: HOP_LATENCY,
        }
    }

    fn shards_mut(&mut self) -> &mut [SwitchShard] {
        &mut self.shards
    }

    fn reconcile(&mut self) {
        for nb in 0..self.shards.len() - 1 {
            let (a, b) = self.shards.split_at_mut(nb + 1);
            SwitchShard::reconcile_boundary(&mut a[nb], &mut b[0]);
        }
    }

    fn pending_reconcile(&self) -> bool {
        self.shards.iter().any(|s| !s.boundary_idle())
    }
}

impl Interconnect for XilinxFabric {
    fn num_masters(&self) -> usize {
        self.cfg.num_masters()
    }

    fn num_ports(&self) -> usize {
        self.cfg.num_ports()
    }

    fn port_of(&self, addr: Addr) -> PortId {
        self.map.port_of(addr)
    }

    fn offer_request(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)> {
        let (s, _) = self.master_shard(txn.master.idx());
        self.shards[s].offer_request(now, txn)
    }

    fn peek_request(&self, now: Cycle, port: PortId) -> Option<&Transaction> {
        let (s, lp) = self.port_shard(port.idx());
        self.shards[s].peek_request(now, lp)
    }

    fn pop_request(&mut self, now: Cycle, port: PortId) -> Option<Transaction> {
        let (s, lp) = self.port_shard(port.idx());
        self.shards[s].pop_request(now, lp)
    }

    fn offer_completion(
        &mut self,
        now: Cycle,
        port: PortId,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)> {
        let (s, lp) = self.port_shard(port.idx());
        self.shards[s].offer_completion(now, lp, c)
    }

    fn pop_completion(&mut self, now: Cycle, master: MasterId) -> Option<Completion> {
        let (s, lm) = self.master_shard(master.idx());
        self.shards[s].pop_completion(now, lm)
    }

    fn tick(&mut self, now: Cycle, mut tracer: Option<&mut Tracer>) {
        for sh in &mut self.shards {
            sh.tick_and_wake(now, &mut [], &mut [], tracer.as_deref_mut());
        }
        // The reference step reconciles every boundary each cycle; the
        // cycle stamps on lateral flits and credits make this equivalent
        // to the execution domains' coarser barriers.
        ShardedFabric::reconcile(self);
    }

    fn drained(&self) -> bool {
        self.shards.iter().all(|s| s.drained())
    }

    fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy()).sum()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The fabric only does work when some link or lateral ring
        // delivers its head (see the shard-level horizon for the
        // argument); outboxes are empty between ticks.
        let mut best: Option<Cycle> = None;
        for sh in &self.shards {
            match sh.next_event(now) {
                Some(t) if t <= now => return Some(now),
                Some(t) => best = Some(best.map_or(t, |b: Cycle| b.min(t))),
                None => {}
            }
        }
        best
    }

    fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        for sh in &self.shards {
            sh.for_each_queue_hwm(visit);
        }
    }

    fn shard_layout(&self) -> Option<ShardLayout> {
        Some(ShardedFabric::layout(self))
    }

    fn as_sharded_mut(&mut self) -> Option<&mut dyn ShardedFabric> {
        Some(self)
    }

    fn stats(&self) -> FabricStats {
        let b = self.cfg.lateral_buses;
        let mut st = FabricStats {
            ingress: Self::merged_stats(self.shards.iter().map(|s| s.ingress_stats())),
            egress: Self::merged_stats(self.shards.iter().map(|s| s.egress_stats())),
            mc_links: Self::merged_stats(self.shards.iter().map(|s| s.mc_link_stats())),
            lateral_right: Vec::with_capacity(self.shards.len() - 1),
            lateral_left: Vec::with_capacity(self.shards.len() - 1),
            id_stall_cycles: self.shards.iter().map(|s| s.id_stall_cycles()).sum(),
        };
        for nb in 0..self.shards.len() - 1 {
            // Right-going beats: right bus requests + left bus responses
            // (both carried by shard nb's eastward senders); left-going
            // beats symmetrically by shard nb+1's westward senders.
            let mut right = [LinkStats::default(), LinkStats::default()];
            let mut left = [LinkStats::default(), LinkStats::default()];
            for bus in 0..b.min(2) {
                right[bus].merge(self.shards[nb].east_stats(2 * bus).expect("east channel"));
                right[bus].merge(self.shards[nb].east_stats(2 * bus + 1).expect("east channel"));
                left[bus].merge(self.shards[nb + 1].west_stats(2 * bus).expect("west channel"));
                left[bus].merge(self.shards[nb + 1].west_stats(2 * bus + 1).expect("west channel"));
            }
            st.lateral_right.push(right);
            st.lateral_left.push(left);
        }
        st
    }

    fn reset_stats(&mut self) {
        for sh in &mut self.shards {
            sh.reset_stats();
        }
    }
}

impl XilinxFabric {
    /// The shards' linear round-robin scans, kept as the oracle for
    /// `tick_matches_reference_scan`.
    #[cfg(test)]
    fn tick_reference(&mut self, now: Cycle) {
        for sh in &mut self.shards {
            sh.tick_reference(now);
        }
        ShardedFabric::reconcile(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::{run_pair, DiffTraffic};
    use hbm_axi::{AxiId, BurstLen, Dir, TxnBuilder};
    use proptest::prelude::*;

    fn fabric() -> XilinxFabric {
        XilinxFabric::new(FabricConfig::xcvu37p())
    }

    fn read_txn(b: &mut TxnBuilder, addr: u64, now: Cycle) -> Transaction {
        b.issue(AxiId(0), addr, BurstLen::of(1), Dir::Read, now).unwrap()
    }

    /// Drives the fabric alone (no memory): requests reaching an MC port
    /// are immediately turned into completions (retried under
    /// back-pressure like a real controller would).
    fn reflect_until_drained(
        f: &mut XilinxFabric,
        mut pending: Vec<Transaction>,
    ) -> Vec<(Cycle, Completion)> {
        let mut done = Vec::new();
        let expected = pending.len();
        let mut now = 0;
        let mut stuck: Vec<Option<Completion>> = vec![None; f.num_ports()];
        while done.len() < expected && now < 100_000 {
            let mut still = Vec::new();
            for t in pending.drain(..) {
                if let Err((t, _)) = f.offer_request(now, t) {
                    still.push(t);
                }
            }
            pending = still;
            f.tick(now, None);
            for (p, slot) in stuck.iter_mut().enumerate() {
                let port = PortId(p as u16);
                if let Some(c) = slot.take() {
                    if let Err((c, _)) = f.offer_completion(now, port, c) {
                        *slot = Some(c);
                    }
                }
                if slot.is_none() {
                    if let Some(t) = f.pop_request(now, port) {
                        let c = Completion { txn: t, produced_at: now };
                        if let Err((c, _)) = f.offer_completion(now, port, c) {
                            *slot = Some(c);
                        }
                    }
                }
            }
            for m in 0..f.num_masters() {
                while let Some(c) = f.pop_completion(now, MasterId(m as u16)) {
                    done.push((now, c));
                }
            }
            now += 1;
        }
        assert_eq!(done.len(), expected, "flits lost in the fabric");
        done
    }

    #[test]
    fn local_request_round_trip() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let done = reflect_until_drained(&mut f, vec![read_txn(&mut b, 0, 0)]);
        let (cycle, c) = done[0];
        assert_eq!(c.txn.master, MasterId(0));
        // ingress 4 + mc_link 3 + mc_link 3 + egress 4 + arbitration ≈ 15–20.
        assert!((14..=24).contains(&cycle), "local round trip {cycle}");
    }

    #[test]
    fn farthest_request_takes_longer_via_hops() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        // Port 31 is 7 switches to the right of master 0.
        let addr = 31 * (256u64 << 20);
        let done = reflect_until_drained(&mut f, vec![read_txn(&mut b, addr, 0)]);
        let (far, _) = done[0];

        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let done = reflect_until_drained(&mut f, vec![read_txn(&mut b, 0, 0)]);
        let (local, _) = done[0];
        // 7 hops each way at a hop latency of 2 ⇒ ≥ 28 cycles more.
        assert!(far >= local + 24, "far {far} local {local}");
    }

    #[test]
    fn routes_to_correct_port() {
        let mut f = fabric();
        for (m, addr, want_port) in
            [(0u16, 0u64, 0u16), (5, 256 << 20, 1), (31, 31 * (256u64 << 20), 31)]
        {
            assert_eq!(f.port_of(addr), PortId(want_port));
            let mut b = TxnBuilder::new(MasterId(m));
            let t = read_txn(&mut b, addr, 0);
            assert!(f.offer_request(0, t).is_ok());
        }
        // Run and check arrival ports.
        let mut seen = Vec::new();
        for now in 0..1000 {
            f.tick(now, None);
            for p in 0..f.num_ports() {
                if let Some(t) = f.pop_request(now, PortId(p as u16)) {
                    seen.push((t.master.0, p as u16));
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (5, 1), (31, 31)]);
    }

    #[test]
    fn same_id_different_destination_stalls() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = read_txn(&mut b, 0, 0);
        let t1 = read_txn(&mut b, 256 << 20, 0); // different port, same ID 0
        assert!(f.offer_request(0, t0).is_ok());
        let r = f.offer_request(0, t1);
        assert!(r.is_err(), "same-ID different-dest must stall");
        assert_eq!(f.stats().id_stall_cycles, 1);
    }

    #[test]
    fn same_id_same_destination_flows() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = read_txn(&mut b, 0, 0);
        let t1 = read_txn(&mut b, 4096, 0); // same port 0
        assert!(f.offer_request(0, t0).is_ok());
        assert!(f.offer_request(1, t1).is_ok());
    }

    #[test]
    fn different_ids_different_destinations_flow() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        let t1 = b.issue(AxiId(1), 256 << 20, BurstLen::of(1), Dir::Read, 1).unwrap();
        assert!(f.offer_request(0, t0).is_ok());
        // The AR channel carries one flit per cycle, so the second request
        // goes out the following cycle — no ID stall is involved.
        assert!(f.offer_request(1, t1).is_ok());
        assert_eq!(f.stats().id_stall_cycles, 0);
    }

    #[test]
    fn id_stall_clears_after_completion() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = read_txn(&mut b, 0, 0);
        assert!(f.offer_request(0, t0).is_ok());
        let done = {
            // Drain t0 through a reflector.
            let mut done = Vec::new();
            for now in 0..1000 {
                f.tick(now, None);
                for p in 0..f.num_ports() {
                    if let Some(t) = f.pop_request(now, PortId(p as u16)) {
                        let c = Completion { txn: t, produced_at: now };
                        f.offer_completion(now, PortId(p as u16), c).unwrap();
                    }
                }
                if let Some(c) = f.pop_completion(now, MasterId(0)) {
                    done.push((now, c));
                }
            }
            done
        };
        assert_eq!(done.len(), 1);
        // Now the same ID may target a different destination.
        let t1 = read_txn(&mut b, 256 << 20, 2000);
        assert!(f.offer_request(2000, t1).is_ok());
    }

    #[test]
    fn lateral_traffic_counted_only_for_remote_flows() {
        let mut f = fabric();
        // Local flow: master 0 → port 0.
        let mut b = TxnBuilder::new(MasterId(0));
        reflect_until_drained(&mut f, vec![read_txn(&mut b, 0, 0)]);
        assert_eq!(f.stats().lateral_beats(), 0);

        // Remote flow: master 0 → port 4 (next switch).
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        reflect_until_drained(&mut f, vec![read_txn(&mut b, 4 * (256u64 << 20), 0)]);
        let st = f.stats();
        assert!(st.lateral_beats() > 0);
        // Request crossed boundary 0 rightward on the right bus's request
        // channel; the response came back leftward on its response channel.
        assert!(st.lateral_right[0][0].beats > 0);
        let left_total: u64 = st.lateral_left[0].iter().map(|l| l.beats).sum();
        assert!(left_total > 0, "response must cross leftward");
    }

    #[test]
    fn many_masters_all_complete() {
        // One BL16 read+write pair from every master to its local port.
        let mut f = fabric();
        let mut txns = Vec::new();
        for m in 0..32u16 {
            let mut b = TxnBuilder::new(MasterId(m));
            let base = m as u64 * (256 << 20);
            txns.push(b.issue(AxiId(0), base, BurstLen::of(16), Dir::Read, 0).unwrap());
            txns.push(b.issue(AxiId(1), base + 512, BurstLen::of(16), Dir::Write, 0).unwrap());
        }
        let done = reflect_until_drained(&mut f, txns);
        assert_eq!(done.len(), 64);
        assert!(f.drained());
    }

    #[test]
    fn drained_initially_and_after_traffic() {
        let mut f = fabric();
        assert!(f.drained());
        let mut b = TxnBuilder::new(MasterId(3));
        reflect_until_drained(&mut f, vec![read_txn(&mut b, 0, 0)]);
        assert!(f.drained());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut f = fabric();
        let mut b = TxnBuilder::new(MasterId(0));
        reflect_until_drained(&mut f, vec![read_txn(&mut b, 4 * (256u64 << 20), 0)]);
        assert!(f.stats().lateral_beats() > 0);
        f.reset_stats();
        assert_eq!(f.stats().lateral_beats(), 0);
        assert_eq!(f.stats().ingress.flits, 0);
    }

    /// The full crossbar: one 32×32 switch.
    fn xbar() -> XilinxFabric {
        XilinxFabric::new(FabricConfig::full_crossbar(32, 256 << 20))
    }

    #[test]
    fn crossbar_routes_any_master_to_any_port() {
        let mut f = xbar();
        let mut b = TxnBuilder::new(MasterId(3));
        let t = read_txn(&mut b, 29 * (256u64 << 20), 0);
        assert!(f.offer_request(0, t).is_ok());
        let mut arrived = None;
        for now in 0..100 {
            f.tick(now, None);
            if let Some(t) = f.pop_request(now, PortId(29)) {
                arrived = Some((now, t));
                break;
            }
        }
        let (cycle, t) = arrived.expect("request never arrived");
        assert_eq!(t.master, MasterId(3));
        // Flat latency: no hop count, unlike the segmented network.
        assert!(cycle <= 10, "crossed in {cycle} cycles");
        assert_eq!(f.stats().lateral_beats(), 0);
    }

    #[test]
    fn crossbar_keeps_the_id_dest_stall() {
        let mut f = xbar();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = read_txn(&mut b, 0, 0);
        let t1 = read_txn(&mut b, 256 << 20, 0);
        assert!(f.offer_request(0, t0).is_ok());
        assert!(f.offer_request(0, t1).is_err(), "no reorder buffers here");
        assert_eq!(f.stats().id_stall_cycles, 1);
    }

    #[test]
    fn crossbar_contiguous_map_still_hotspots() {
        // The crossbar does not remap addresses: a 64 MiB buffer still
        // lives entirely in PCH 0.
        let f = xbar();
        for addr in [0u64, 1 << 20, 63 << 20] {
            assert_eq!(f.port_of(addr), PortId(0));
        }
    }

    #[test]
    fn crossbar_occupancy_follows_the_round_trip() {
        let mut f = xbar();
        assert_eq!(f.occupancy(), 0);
        let mut b = TxnBuilder::new(MasterId(5));
        let t = read_txn(&mut b, 20 * (256u64 << 20), 0);
        assert!(f.offer_request(0, t).is_ok());
        assert_eq!(f.occupancy(), 1, "request queued at ingress");
        for now in 0..200 {
            f.tick(now, None);
            if let Some(t) = f.pop_request(now, PortId(20)) {
                assert_eq!(f.occupancy(), 0, "request left, completion not yet offered");
                let c = Completion { txn: t, produced_at: now };
                f.offer_completion(now, PortId(20), c).unwrap();
                assert_eq!(f.occupancy(), 1, "completion in flight");
            }
            if f.pop_completion(now, MasterId(5)).is_some() {
                assert_eq!(f.occupancy(), 0, "drained after delivery");
                assert!(f.drained());
                return;
            }
            assert_eq!(f.occupancy(), 1, "exactly one flit in flight throughout");
        }
        panic!("round trip never completed");
    }

    proptest! {
        /// The bitmask tick and its wake make exactly the linear scan's
        /// grants: every offer result, pop, stats snapshot and horizon
        /// agrees cycle by cycle, on one switch (no lateral buses), two,
        /// and the stock eight, with one to three lateral buses; and on
        /// one n×n switch at the full crossbar's latencies, at sizes
        /// that need one and two mask words.
        #[test]
        fn tick_matches_reference_scan(
            switches in prop::sample::select(vec![1usize, 2, 8]),
            buses in 1usize..4,
            n in prop::sample::select(vec![1usize, 3, 32, 80]),
            seed in any::<u64>(),
            num_ids in 1u8..5,
            offer in 32u32..256,
            hot in prop::sample::select(vec![0u32, 64, 192]),
            reflect in 16u32..256,
            drain in 16u32..256,
        ) {
            let cap = 1 << 20;
            let stock = FabricConfig {
                num_switches: switches,
                lateral_buses: buses,
                port_capacity: cap,
                ..FabricConfig::xcvu37p()
            };
            let traffic = DiffTraffic {
                seed, cycles: 600, port_capacity: cap, num_ids, offer, hot, reflect, drain,
            };
            for cfg in [stock, FabricConfig::full_crossbar(n, cap)] {
                let mut fast = XilinxFabric::new(cfg);
                let mut reference = XilinxFabric::new(cfg);
                run_pair(&mut fast, &mut reference, XilinxFabric::tick_reference, &traffic);
            }
        }
    }
}
