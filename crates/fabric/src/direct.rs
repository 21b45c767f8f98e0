//! The 1:1 direct port mapping (Single-Channel mode).
//!
//! Each bus master talks exclusively to its own pseudo-channel — no
//! global addressing, no interference, no lateral routing. This is the
//! paper's SCS/SCRA baseline configuration: data must be pre-partitioned
//! so that master *m* only touches PCH *m*'s address range.

use hbm_axi::{Addr, Completion, Cycle, MasterId, PortId, Tracer, Transaction};

use crate::addressmap::{AddressMap, ContiguousMap};
use crate::link::{self, Flit, SerialLink};
use crate::stats::FabricStats;
use crate::{Interconnect, Retry};

/// A direct 1:1 master↔port connection.
pub struct DirectFabric {
    map: ContiguousMap,
    fwd: Vec<SerialLink<Flit>>,
    ret: Vec<SerialLink<Flit>>,
}

impl DirectFabric {
    /// A direct fabric with `n` master/port pairs of `port_capacity`
    /// bytes each; `latency` is the one-way pipeline latency and
    /// `capacity` the per-direction queue depth.
    pub fn new(n: usize, port_capacity: u64, latency: Cycle, capacity: usize) -> DirectFabric {
        DirectFabric {
            map: ContiguousMap::new(n, port_capacity),
            fwd: (0..n).map(|_| SerialLink::new(1.0, 0.0, capacity, latency)).collect(),
            ret: (0..n).map(|_| SerialLink::new(1.0, 0.0, capacity, latency)).collect(),
        }
    }
}

impl Interconnect for DirectFabric {
    fn num_masters(&self) -> usize {
        self.fwd.len()
    }

    fn num_ports(&self) -> usize {
        self.fwd.len()
    }

    fn port_of(&self, addr: Addr) -> PortId {
        self.map.port_of(addr)
    }

    fn offer_request(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)> {
        let m = txn.master.idx();
        assert_eq!(
            self.map.port_of(txn.addr).idx(),
            m,
            "DirectFabric requires single-channel locality: master {m} \
             addressed port {} (addr {:#x})",
            self.map.port_of(txn.addr).idx(),
            txn.addr,
        );
        let link = &mut self.fwd[m];
        if !link.can_send(now) {
            return Err((txn, Retry::At(link.retry_at(now))));
        }
        let cost = txn.fwd_link_cycles();
        link.send(now, 0, cost, Flit::Req(txn));
        Ok(())
    }

    fn peek_request(&self, now: Cycle, port: PortId) -> Option<&Transaction> {
        match self.fwd[port.idx()].peek(now) {
            Some(Flit::Req(t)) => Some(t),
            _ => None,
        }
    }

    fn pop_request(&mut self, now: Cycle, port: PortId) -> Option<Transaction> {
        match self.fwd[port.idx()].pop(now) {
            Some(Flit::Req(t)) => Some(t),
            _ => None,
        }
    }

    fn offer_completion(
        &mut self,
        now: Cycle,
        port: PortId,
        c: Completion,
    ) -> Result<(), (Completion, Cycle)> {
        let link = &mut self.ret[port.idx()];
        if !link.can_send(now) {
            return Err((c, link.retry_at(now)));
        }
        let cost = c.txn.ret_link_cycles();
        link.send(now, 0, cost, Flit::Resp(c));
        Ok(())
    }

    fn pop_completion(&mut self, now: Cycle, master: MasterId) -> Option<Completion> {
        match self.ret[master.idx()].pop(now) {
            Some(Flit::Resp(c)) => Some(c),
            _ => None,
        }
    }

    fn tick(&mut self, _now: Cycle, _tracer: Option<&mut Tracer>) {
        // Point-to-point: nothing to arbitrate.
    }

    fn drained(&self) -> bool {
        self.fwd.iter().all(|l| l.is_empty()) && self.ret.iter().all(|l| l.is_empty())
    }

    fn occupancy(&self) -> usize {
        self.fwd.iter().chain(&self.ret).map(|l| l.len()).sum()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        link::horizon(self.fwd.iter().chain(&self.ret), now)
    }

    fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        for l in &self.fwd {
            visit("ingress", l.high_water());
        }
        for l in &self.ret {
            visit("egress", l.high_water());
        }
    }

    fn stats(&self) -> FabricStats {
        let mut st = FabricStats::default();
        for l in &self.fwd {
            st.ingress.merge(l.stats());
        }
        for l in &self.ret {
            st.egress.merge(l.stats());
        }
        st
    }

    fn reset_stats(&mut self) {
        for l in self.fwd.iter_mut().chain(self.ret.iter_mut()) {
            l.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, Dir, TxnBuilder};

    fn direct() -> DirectFabric {
        DirectFabric::new(32, 256 << 20, 4, 8)
    }

    #[test]
    fn local_round_trip() {
        let mut f = direct();
        let mut b = TxnBuilder::new(MasterId(2));
        let t = b.issue(AxiId(0), 2 * (256u64 << 20), BurstLen::of(1), Dir::Read, 0).unwrap();
        assert!(f.offer_request(0, t).is_ok());
        let mut got = None;
        for now in 0..100 {
            f.tick(now, None);
            if let Some(t) = f.pop_request(now, PortId(2)) {
                let c = Completion { txn: t, produced_at: now };
                f.offer_completion(now, PortId(2), c).unwrap();
            }
            if let Some(c) = f.pop_completion(now, MasterId(2)) {
                got = Some((now, c));
                break;
            }
        }
        let (cycle, c) = got.expect("completion never arrived");
        assert_eq!(c.txn.master, MasterId(2));
        assert_eq!(cycle, 8, "two 4-cycle link traversals");
        assert!(f.drained());
    }

    #[test]
    fn occupancy_tracks_flits_in_flight() {
        let mut f = direct();
        assert_eq!(f.occupancy(), 0);
        let mut b = TxnBuilder::new(MasterId(1));
        let t = b.issue(AxiId(0), 256u64 << 20, BurstLen::of(1), Dir::Read, 0).unwrap();
        assert!(f.offer_request(0, t).is_ok());
        assert_eq!(f.occupancy(), 1, "one request in flight");
        for now in 0..100 {
            f.tick(now, None);
            if f.pop_request(now, PortId(1)).is_some() {
                assert_eq!(f.occupancy(), 0, "popped request leaves the fabric");
                return;
            }
            assert_eq!(f.occupancy(), 1);
        }
        panic!("request never arrived");
    }

    #[test]
    #[should_panic(expected = "single-channel locality")]
    fn cross_channel_access_panics() {
        let mut f = direct();
        let mut b = TxnBuilder::new(MasterId(0));
        let t = b.issue(AxiId(0), 256 << 20, BurstLen::of(1), Dir::Read, 0).unwrap();
        let _ = f.offer_request(0, t);
    }

    #[test]
    fn serialization_limits_port_rate() {
        // BL16 writes are 16 beats: at rate 1.0 only one can enter per 16
        // cycles.
        let mut f = direct();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = b.issue(AxiId(0), 0, BurstLen::of(16), Dir::Write, 0).unwrap();
        let t1 = b.issue(AxiId(1), 512, BurstLen::of(16), Dir::Write, 0).unwrap();
        assert!(f.offer_request(0, t0).is_ok());
        assert!(f.offer_request(1, t1).is_err());
        assert!(f.offer_request(15, t1).is_err());
        assert!(f.offer_request(16, t1).is_ok());
    }

    #[test]
    fn stats_reset() {
        let mut f = direct();
        let mut b = TxnBuilder::new(MasterId(0));
        let t = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        f.offer_request(0, t).unwrap();
        assert_eq!(f.stats().ingress.flits, 1);
        f.reset_stats();
        assert_eq!(f.stats().ingress.flits, 0);
    }
}
