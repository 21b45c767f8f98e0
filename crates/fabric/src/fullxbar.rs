//! A monolithic full crossbar — the "just remove the lateral buses"
//! what-if.
//!
//! Hypothetical hardware that connects every master to every
//! pseudo-channel through one non-blocking 32×32 crossbar, but keeps
//! everything else exactly like the stock fabric: the **contiguous**
//! address map and the AXI same-ID/different-destination ingress stall
//! (no reorder buffers). Comparing this against [`crate::XilinxFabric`]
//! and the MAO separates the paper's three adaptions: topology alone
//! fixes the rotation pathologies but *not* the CCS hot-spot (that needs
//! interleaving) and *not* the random-access ID stalls (that needs
//! reorder buffers).

use hbm_axi::{Addr, Completion, Cycle, MasterId, PortId, SharedTracer, Transaction};

use crate::addressmap::{AddressMap, ContiguousMap};
use crate::arbiter::RequestMasks;
use crate::idtrack::IdTracker;
use crate::link::{self, Flit, SerialLink};
use crate::stats::FabricStats;
use crate::Interconnect;

/// The monolithic crossbar fabric.
pub struct FullCrossbarFabric {
    map: ContiguousMap,
    ingress: Vec<SerialLink<Flit>>,
    port_out: Vec<SerialLink<Flit>>,
    ret_in: Vec<SerialLink<Flit>>,
    master_out: Vec<SerialLink<Flit>>,
    rr_port: Vec<usize>,
    rr_master: Vec<usize>,
    /// Per port: the masters whose ready ingress head routes to it.
    fwd_cand: RequestMasks,
    /// Per master: the ports whose ready return head is addressed to it.
    ret_cand: RequestMasks,
    id_track: IdTracker,
    id_stall_cycles: u64,
    n: usize,
    tracer: Option<SharedTracer>,
}

impl FullCrossbarFabric {
    /// A full crossbar over `n` master/port pairs of `port_capacity`
    /// bytes. `latency` is the one-way pipeline depth (a flat 32×32
    /// crossbar at this size would realistically need several register
    /// stages — pass ≥ the Xilinx local-path latency).
    pub fn new(
        n: usize,
        port_capacity: u64,
        latency: Cycle,
        capacity: usize,
    ) -> FullCrossbarFabric {
        let mk = |dead: f64, lat: Cycle| SerialLink::new(1.0, dead, capacity, lat);
        FullCrossbarFabric {
            map: ContiguousMap::new(n, port_capacity),
            ingress: (0..n).map(|_| mk(0.0, latency)).collect(),
            port_out: (0..n).map(|_| mk(2.0, 1)).collect(),
            ret_in: (0..n).map(|_| mk(0.0, latency)).collect(),
            master_out: (0..n).map(|_| mk(2.0, 1)).collect(),
            rr_port: vec![0; n],
            rr_master: vec![0; n],
            fwd_cand: RequestMasks::new(n, n),
            ret_cand: RequestMasks::new(n, n),
            id_track: IdTracker::new(n),
            id_stall_cycles: 0,
            n,
            tracer: None,
        }
    }
}

impl Interconnect for FullCrossbarFabric {
    fn num_masters(&self) -> usize {
        self.n
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn port_of(&self, addr: Addr) -> PortId {
        self.map.port_of(addr)
    }

    fn offer_request(&mut self, now: Cycle, txn: Transaction) -> Result<(), Transaction> {
        let m = txn.master.idx();
        let port = self.map.port_of(txn.addr);
        if self.id_track.conflicts(m, txn.dir, txn.id.0, port) {
            self.id_stall_cycles += 1;
            return Err(txn);
        }
        if !self.ingress[m].can_send(now) {
            return Err(txn);
        }
        let cost = txn.fwd_link_cycles();
        let (dir, id) = (txn.dir, txn.id.0);
        if let Some(tr) = &self.tracer {
            tr.ingress_accept(now, &txn);
        }
        self.ingress[m].send(now, 0, cost, Flit::Req(txn));
        self.id_track.issue(m, dir, id, port);
        Ok(())
    }

    fn peek_request(&self, now: Cycle, port: PortId) -> Option<&Transaction> {
        match self.port_out[port.idx()].peek(now) {
            Some(Flit::Req(t)) => Some(t),
            _ => None,
        }
    }

    fn pop_request(&mut self, now: Cycle, port: PortId) -> Option<Transaction> {
        match self.port_out[port.idx()].pop(now) {
            Some(Flit::Req(t)) => Some(t),
            _ => None,
        }
    }

    fn offer_completion(
        &mut self,
        now: Cycle,
        port: PortId,
        c: Completion,
    ) -> Result<(), Completion> {
        let link = &mut self.ret_in[port.idx()];
        if !link.can_send(now) {
            return Err(c);
        }
        let cost = c.txn.ret_link_cycles();
        link.send(now, 0, cost, Flit::Resp(c));
        Ok(())
    }

    fn pop_completion(&mut self, now: Cycle, master: MasterId) -> Option<Completion> {
        let m = master.idx();
        match self.master_out[m].pop(now) {
            Some(Flit::Resp(c)) => {
                self.id_track.retire(m, c.txn.dir, c.txn.id.0);
                Some(c)
            }
            _ => None,
        }
    }

    fn tick(&mut self, now: Cycle) {
        // Forward: each port grants one FIFO ingress head per cycle. Pass
        // 1 routes every ready head once; pass 2 grants round-robin from
        // each port's pointer. A head routes to exactly one port, so no
        // ingress can win twice in a cycle.
        self.fwd_cand.clear_all();
        for (m, link) in self.ingress.iter().enumerate() {
            if let Some(Flit::Req(t)) = link.peek(now) {
                self.fwd_cand.set(self.map.port_of(t.addr).idx(), m);
            }
        }
        for p in 0..self.n {
            if self.fwd_cand.row_is_empty(p) || !self.port_out[p].can_send(now) {
                continue;
            }
            let m = self.fwd_cand.pick(p, self.rr_port[p]).expect("non-empty row");
            let flit = self.ingress[m].pop(now).expect("routed head vanished");
            let cost = flit.cost_beats();
            self.port_out[p].send(now, m as u16, cost, flit);
            self.rr_port[p] = (m + 1) % self.n;
        }
        // Return: strict FIFO per port (no reorder buffers — head-of-line
        // blocking on the return path is part of what the MAO removes),
        // arbitrated the same two-pass way.
        self.ret_cand.clear_all();
        for (p, link) in self.ret_in.iter().enumerate() {
            if let Some(Flit::Resp(c)) = link.peek(now) {
                self.ret_cand.set(c.txn.master.idx(), p);
            }
        }
        for m in 0..self.n {
            if self.ret_cand.row_is_empty(m) || !self.master_out[m].can_send(now) {
                continue;
            }
            let p = self.ret_cand.pick(m, self.rr_master[m]).expect("non-empty row");
            let flit = self.ret_in[p].pop(now).expect("routed head vanished");
            let cost = flit.cost_beats();
            self.master_out[m].send(now, p as u16, cost, flit);
            self.rr_master[m] = (p + 1) % self.n;
        }
    }

    fn drained(&self) -> bool {
        self.ingress.iter().all(|l| l.is_empty())
            && self.port_out.iter().all(|l| l.is_empty())
            && self.ret_in.iter().all(|l| l.is_empty())
            && self.master_out.iter().all(|l| l.is_empty())
    }

    fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    fn occupancy(&self) -> usize {
        self.ingress
            .iter()
            .chain(&self.port_out)
            .chain(&self.ret_in)
            .chain(&self.master_out)
            .map(|l| l.len())
            .sum()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        link::horizon(
            self.ingress.iter().chain(&self.port_out).chain(&self.ret_in).chain(&self.master_out),
            now,
        )
    }

    fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        for l in &self.ingress {
            visit("ingress", l.high_water());
        }
        for l in &self.master_out {
            visit("egress", l.high_water());
        }
        for l in self.port_out.iter().chain(&self.ret_in) {
            visit("mc_link", l.high_water());
        }
    }

    fn stats(&self) -> FabricStats {
        let mut st = FabricStats { id_stall_cycles: self.id_stall_cycles, ..Default::default() };
        for l in &self.ingress {
            st.ingress.merge(l.stats());
        }
        for l in &self.master_out {
            st.egress.merge(l.stats());
        }
        for l in self.port_out.iter().chain(self.ret_in.iter()) {
            st.mc_links.merge(l.stats());
        }
        st
    }

    fn reset_stats(&mut self) {
        for l in self
            .ingress
            .iter_mut()
            .chain(self.port_out.iter_mut())
            .chain(self.ret_in.iter_mut())
            .chain(self.master_out.iter_mut())
        {
            l.reset_stats();
        }
        self.id_stall_cycles = 0;
    }
}

impl FullCrossbarFabric {
    /// The linear round-robin scan the bitmask tick replaced, kept as
    /// the oracle for `tick_matches_reference_scan`.
    #[cfg(test)]
    fn tick_reference(&mut self, now: Cycle) {
        let mut ingress_won = vec![false; self.n];
        for p in 0..self.n {
            if !self.port_out[p].can_send(now) {
                continue;
            }
            let start = self.rr_port[p];
            for j in 0..self.n {
                let m = (start + j) % self.n;
                if ingress_won[m] {
                    continue;
                }
                let Some(Flit::Req(t)) = self.ingress[m].peek(now) else {
                    continue;
                };
                if self.map.port_of(t.addr).idx() != p {
                    continue;
                }
                let flit = self.ingress[m].pop(now).expect("peeked head vanished");
                ingress_won[m] = true;
                let cost = flit.cost_beats();
                self.port_out[p].send(now, m as u16, cost, flit);
                self.rr_port[p] = (m + 1) % self.n;
                break;
            }
        }
        let mut ret_won = vec![false; self.n];
        for m in 0..self.n {
            if !self.master_out[m].can_send(now) {
                continue;
            }
            let start = self.rr_master[m];
            for j in 0..self.n {
                let p = (start + j) % self.n;
                if ret_won[p] {
                    continue;
                }
                let Some(Flit::Resp(c)) = self.ret_in[p].peek(now) else {
                    continue;
                };
                if c.txn.master.idx() != m {
                    continue;
                }
                let flit = self.ret_in[p].pop(now).expect("peeked head vanished");
                ret_won[p] = true;
                let cost = flit.cost_beats();
                self.master_out[m].send(now, p as u16, cost, flit);
                self.rr_master[m] = (p + 1) % self.n;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::{run_pair, DiffTraffic};
    use hbm_axi::{AxiId, BurstLen, Dir, TxnBuilder};
    use proptest::prelude::*;

    fn xbar() -> FullCrossbarFabric {
        FullCrossbarFabric::new(32, 256 << 20, 6, 8)
    }

    #[test]
    fn routes_any_master_to_any_port() {
        let mut f = xbar();
        let mut b = TxnBuilder::new(MasterId(3));
        let t = b.issue(AxiId(0), 29 * (256u64 << 20), BurstLen::of(1), Dir::Read, 0).unwrap();
        assert!(f.offer_request(0, t).is_ok());
        let mut arrived = None;
        for now in 0..100 {
            f.tick(now);
            if let Some(t) = f.pop_request(now, PortId(29)) {
                arrived = Some((now, t));
                break;
            }
        }
        let (cycle, t) = arrived.expect("request never arrived");
        assert_eq!(t.master, MasterId(3));
        // Flat latency: no hop count, unlike the segmented network.
        assert!(cycle <= 10, "crossed in {cycle} cycles");
    }

    #[test]
    fn keeps_the_id_dest_stall() {
        let mut f = xbar();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        let t1 = b.issue(AxiId(0), 256 << 20, BurstLen::of(1), Dir::Read, 0).unwrap();
        assert!(f.offer_request(0, t0).is_ok());
        assert!(f.offer_request(0, t1).is_err(), "no reorder buffers here");
        assert_eq!(f.stats().id_stall_cycles, 1);
    }

    #[test]
    fn contiguous_map_still_hotspots() {
        // The crossbar does not remap addresses: a 64 MiB buffer still
        // lives entirely in PCH 0.
        let f = xbar();
        for addr in [0u64, 1 << 20, 63 << 20] {
            assert_eq!(f.port_of(addr), PortId(0));
        }
    }

    #[test]
    fn occupancy_follows_the_round_trip() {
        let mut f = xbar();
        assert_eq!(f.occupancy(), 0);
        let mut b = TxnBuilder::new(MasterId(5));
        let t = b.issue(AxiId(0), 20 * (256u64 << 20), BurstLen::of(1), Dir::Read, 0).unwrap();
        assert!(f.offer_request(0, t).is_ok());
        assert_eq!(f.occupancy(), 1, "request queued at ingress");
        for now in 0..200 {
            f.tick(now);
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

    #[test]
    fn round_trip_completes() {
        let mut f = xbar();
        let mut b = TxnBuilder::new(MasterId(7));
        let t = b.issue(AxiId(0), 12 * (256u64 << 20), BurstLen::of(16), Dir::Write, 0).unwrap();
        assert!(f.offer_request(0, t).is_ok());
        let mut done = false;
        for now in 0..200 {
            f.tick(now);
            if let Some(t) = f.pop_request(now, PortId(12)) {
                let c = Completion { txn: t, produced_at: now };
                f.offer_completion(now, PortId(12), c).unwrap();
            }
            if f.pop_completion(now, MasterId(7)).is_some() {
                done = true;
                break;
            }
        }
        assert!(done);
        assert!(f.drained());
    }

    proptest! {
        /// The bitmask tick makes exactly the linear scan's grants: every
        /// pop, offer result, and stats snapshot agrees cycle by cycle,
        /// across sizes that need one and two mask words.
        #[test]
        fn tick_matches_reference_scan(
            n in prop::sample::select(vec![1usize, 3, 32, 80]),
            seed in any::<u64>(),
            num_ids in 1u8..5,
            offer in 32u32..256,
            hot in prop::sample::select(vec![0u32, 64, 192]),
            reflect in 64u32..256,
            drain in 32u32..256,
        ) {
            let cap = 1 << 20;
            let mut fast = FullCrossbarFabric::new(n, cap, 6, 8);
            let mut reference = FullCrossbarFabric::new(n, cap, 6, 8);
            let traffic = DiffTraffic {
                seed, cycles: 400, port_capacity: cap, num_ids, offer, hot, reflect, drain,
            };
            run_pair(&mut fast, &mut reference, FullCrossbarFabric::tick_reference, &traffic);
        }
    }
}
