//! The MAO's hierarchical distribution network (architectural adaption #1).
//!
//! Instead of routing over scarce lateral buses, the MAO fans every
//! master out to every pseudo-channel through a pipelined hierarchical
//! network sized to be non-blocking at full per-port throughput — that is
//! the design goal the paper pays chip area for (Table III). Contention
//! therefore only exists where it is physically unavoidable: at the
//! pseudo-channel ports themselves (and symmetric master ports on the
//! return path), arbitrated round-robin.
//!
//! The price is pipeline latency: 12 cycles round trip with one
//! hierarchical stage, 25 with two (Table III). The paper's Table II
//! shows exactly this trade: slightly higher MAO latency under light
//! traffic, drastically lower and far more uniform latency under load.
//!
//! Both arbiters are round-robin and run in two passes each cycle
//! (DESIGN.md §3.11), on masks kept from one cycle to the next. Every
//! arrived ingress head is routed once into its port's candidate
//! bitmask, where it stays until a grant pops it, and each port holding
//! candidates grants the first one at or after its pointer. On the
//! return path each master keeps a bitmask of the ports whose VOQ window
//! — the first `VOQ_WINDOW` queued completions — holds one for it. Each
//! port remembers how many leading entries it has marked, so a cycle
//! marks only the entries that arrived since the last; a pull re-marks
//! its port, because it shifts the window. A cycle therefore touches
//! only the heads and entries that arrive or leave and the outputs
//! holding candidates; a `debug_assert` compares the masks with a fresh
//! scan on every tick.

use hbm_axi::{Addr, Completion, Cycle, MasterId, PortId, Tracer, Transaction};
use hbm_fabric::arbiter::{ones, BitSet};
use hbm_fabric::{
    horizon, AddressMap, FabricStats, Flit, Interconnect, RequestMasks, Retry, SerialLink,
};

use crate::config::MaoConfig;
use crate::interleave::InterleavedMap;
use crate::reorder::ReorderBuffer;

/// How deep a master scans into a port's return queue for a completion
/// addressed to it (the MAO's buffered output stage).
const VOQ_WINDOW: usize = 8;

/// The Memory Access Optimizer as an [`Interconnect`].
pub struct MaoFabric {
    cfg: MaoConfig,
    map: InterleavedMap,
    /// Per master: request pipeline through the distribution network.
    ingress: Vec<SerialLink<Flit>>,
    /// Per port: arbitrated output stage feeding a memory controller.
    port_out: Vec<SerialLink<Flit>>,
    /// Per port: completion pipeline back through the network.
    ret_in: Vec<SerialLink<Flit>>,
    /// Per master: arbitrated delivery stage in front of the reorder
    /// buffer.
    master_ret: Vec<SerialLink<Flit>>,
    rob: Vec<ReorderBuffer>,
    rr_port: Vec<usize>,
    rr_master: Vec<usize>,
    /// `log2(port_capacity)`: a physical address's port is a shift away.
    port_shift: u32,
    /// Per port: the masters whose arrived ingress head routes to it,
    /// kept until a grant pops that head.
    fwd_cand: RequestMasks,
    /// Ports whose `fwd_cand` row holds a master.
    fwd_rows: BitSet,
    /// Masters whose ingress holds flits but whose head is in no
    /// `fwd_cand` row yet.
    fwd_waiting: BitSet,
    /// Per master: the ports whose marked return entries hold a
    /// completion for it.
    ret_cand: RequestMasks,
    /// Masters whose `ret_cand` row holds a port.
    ret_rows: BitSet,
    /// Per port: how many leading return-queue entries are marked in
    /// `ret_cand`, at most `VOQ_WINDOW`.
    marked: Box<[usize]>,
    /// Ports with an unmarked entry inside the VOQ window.
    ret_waiting: BitSet,
    rob_stall_cycles: u64,
}

impl MaoFabric {
    /// Builds the MAO for a configuration.
    pub fn new(cfg: MaoConfig) -> MaoFabric {
        cfg.validate().expect("invalid MAO configuration");
        let m = cfg.num_masters;
        let p = cfg.num_ports;
        let mk =
            |rate: f64, dead: f64, cap: usize, lat: Cycle| SerialLink::new(rate, dead, cap, lat);
        MaoFabric {
            map: InterleavedMap::new(cfg.interleave, p, cfg.port_capacity),
            ingress: (0..m).map(|_| mk(1.0, 0.0, cfg.link_capacity, cfg.req_latency())).collect(),
            port_out: (0..p).map(|_| mk(1.0, cfg.dead_beats, cfg.link_capacity, 1)).collect(),
            ret_in: (0..p).map(|_| mk(1.0, 0.0, cfg.link_capacity, cfg.ret_latency())).collect(),
            master_ret: (0..m).map(|_| mk(1.0, cfg.dead_beats, cfg.link_capacity, 1)).collect(),
            rob: (0..m).map(|_| ReorderBuffer::new(cfg.reorder_depth)).collect(),
            rr_port: vec![0; p],
            rr_master: vec![0; m],
            port_shift: cfg.port_capacity.trailing_zeros(),
            fwd_cand: RequestMasks::new(p, m),
            fwd_rows: BitSet::new(p),
            fwd_waiting: BitSet::new(m),
            ret_cand: RequestMasks::new(m, p),
            ret_rows: BitSet::new(m),
            marked: vec![0; p].into_boxed_slice(),
            ret_waiting: BitSet::new(p),
            rob_stall_cycles: 0,
            cfg,
        }
    }

    /// The configuration this MAO was built with.
    pub fn config(&self) -> &MaoConfig {
        &self.cfg
    }

    /// Cycles in which a request stalled because the master's reorder
    /// buffer was full.
    pub fn rob_stall_cycles(&self) -> u64 {
        self.rob_stall_cycles
    }

    fn phys_port(addr: Addr, cap: u64) -> usize {
        (addr / cap) as usize
    }

    /// The master a completion in port `p`'s return queue at `idx` is
    /// addressed to, if that entry has arrived.
    fn ret_master(&self, now: Cycle, p: usize, idx: usize) -> Option<usize> {
        match self.ret_in[p].peek_at(now, idx) {
            Some(Flit::Resp(c)) => Some(c.txn.master.idx()),
            _ => None,
        }
    }

    /// Marks port `p`'s return entries from its first unmarked one, while
    /// they have arrived and lie inside the VOQ window: sets bit `p` in
    /// their masters' return masks. Arrived entries form a prefix, so the
    /// first miss ends it; the port waits while an unmarked entry is
    /// left inside the window.
    fn extend_marks(&mut self, now: Cycle, p: usize) {
        let mut k = self.marked[p];
        while k < VOQ_WINDOW {
            let Some(m) = self.ret_master(now, p, k) else {
                break;
            };
            self.ret_cand.set(m, p);
            self.ret_rows.insert(m);
            k += 1;
        }
        self.marked[p] = k;
        if k < VOQ_WINDOW.min(self.ret_in[p].len()) {
            self.ret_waiting.insert(p);
        } else {
            self.ret_waiting.remove(p);
        }
    }

    /// Clears bit `p` from the return mask of every master with a marked
    /// entry at port `p`.
    fn clear_marks(&mut self, now: Cycle, p: usize) {
        for idx in 0..self.marked[p] {
            let m = self.ret_master(now, p, idx).expect("marked entries have arrived");
            self.ret_cand.clear(m, p);
            if self.ret_cand.row_is_empty(m) {
                self.ret_rows.remove(m);
            }
        }
        self.marked[p] = 0;
    }

    /// `true` when the kept masks equal what a fresh scan of every
    /// ingress head and every VOQ window at `now` would build.
    fn masks_match_scan(&self, now: Cycle) -> bool {
        let mut arrived = 0;
        for (m, link) in self.ingress.iter().enumerate() {
            let kept = match link.peek(now) {
                Some(Flit::Req(t)) => {
                    arrived += 1;
                    let p = (t.addr >> self.port_shift) as usize;
                    self.fwd_cand.contains(p, m) && !self.fwd_waiting.contains(m)
                }
                _ => self.fwd_waiting.contains(m) != link.is_empty(),
            };
            if !kept {
                return false;
            }
        }
        let rows_match = |cand: &RequestMasks, rows: &BitSet, n: usize| {
            (0..n).all(|r| rows.contains(r) != cand.row_is_empty(r))
        };
        let mut pairs = 0;
        for p in 0..self.cfg.num_ports {
            let mut window = [0; VOQ_WINDOW];
            let mut k = 0;
            while k < VOQ_WINDOW {
                let Some(m) = self.ret_master(now, p, k) else {
                    break;
                };
                window[k] = m;
                k += 1;
            }
            let window = &window[..k];
            if self.marked[p] != k
                || self.ret_waiting.contains(p) != (k < VOQ_WINDOW.min(self.ret_in[p].len()))
                || !window.iter().all(|&m| self.ret_cand.contains(m, p))
            {
                return false;
            }
            pairs += (0..k).filter(|&i| !window[..i].contains(&window[i])).count();
        }
        self.fwd_cand.count_ones() == arrived
            && self.ret_cand.count_ones() == pairs
            && rows_match(&self.fwd_cand, &self.fwd_rows, self.cfg.num_ports)
            && rows_match(&self.ret_cand, &self.ret_rows, self.cfg.num_masters)
    }
}

impl Interconnect for MaoFabric {
    fn num_masters(&self) -> usize {
        self.cfg.num_masters
    }

    fn num_ports(&self) -> usize {
        self.cfg.num_ports
    }

    fn port_of(&self, addr: Addr) -> PortId {
        self.map.port_of(addr)
    }

    /// A full reorder buffer frees only when an in-order completion is
    /// delivered to the master.
    fn offer_request(&mut self, now: Cycle, txn: Transaction) -> Result<(), (Transaction, Retry)> {
        let m = txn.master.idx();
        if !self.rob[m].can_reserve() {
            self.rob_stall_cycles += 1;
            return Err((txn, Retry::UntilCompletion));
        }
        if !self.ingress[m].can_send(now) {
            return Err((txn, Retry::At(self.ingress[m].retry_at(now))));
        }
        // Interleave: rewrite onto the physical (contiguous-per-port)
        // space so downstream components can use plain masked offsets.
        // Completions carry the physical address back.
        let mut phys = txn;
        phys.addr = self.map.remap(txn.addr);
        debug_assert_eq!(
            Self::phys_port(phys.addr, self.cfg.port_capacity),
            Self::phys_port(phys.addr + phys.bytes() - 1, self.cfg.port_capacity),
            "burst spans interleave blocks; align bursts to ≤ granularity"
        );
        self.rob[m].reserve(phys.dir, phys.id.0, phys.seq);
        let cost = phys.fwd_link_cycles();
        if self.ingress[m].is_empty() {
            self.fwd_waiting.insert(m);
        }
        self.ingress[m].send(now, 0, cost, Flit::Req(phys));
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
    ) -> Result<(), (Completion, Cycle)> {
        let p = port.idx();
        let link = &mut self.ret_in[p];
        if !link.can_send(now) {
            return Err((c, link.retry_at(now)));
        }
        let cost = c.txn.ret_link_cycles();
        link.send(now, 0, cost, Flit::Resp(c));
        // While the marked prefix is shorter than the window, the port
        // now holds an unmarked entry inside it.
        if self.marked[p] < VOQ_WINDOW {
            self.ret_waiting.insert(p);
        }
        Ok(())
    }

    fn pop_completion(&mut self, now: Cycle, master: MasterId) -> Option<Completion> {
        let m = master.idx();
        // Drain arrived completions into the reorder buffer, then deliver
        // the next in-order one.
        while let Some(Flit::Resp(c)) = self.master_ret[m].pop(now) {
            self.rob[m].arrive(c);
        }
        self.rob[m].pop_ready()
    }

    fn tick(&mut self, now: Cycle, _tracer: Option<&mut Tracer>) {
        let m_count = self.cfg.num_masters;
        // Pass 1 on both paths: route each waiting master's arrived
        // ingress head into its port's row, and mark each waiting port's
        // newly arrived return entries.
        for w in 0..self.fwd_waiting.words() {
            for m in ones(self.fwd_waiting.word(w), 64 * w) {
                if let Some(Flit::Req(t)) = self.ingress[m].peek(now) {
                    let p = (t.addr >> self.port_shift) as usize;
                    self.fwd_cand.set(p, m);
                    self.fwd_rows.insert(p);
                    self.fwd_waiting.remove(m);
                }
            }
        }
        for w in 0..self.ret_waiting.words() {
            for p in ones(self.ret_waiting.word(w), 64 * w) {
                self.extend_marks(now, p);
            }
        }
        debug_assert!(self.masks_match_scan(now), "cycle {now}: kept masks differ from a scan");
        // Forward: each port holding candidates grants one ingress head
        // per cycle, round-robin from its pointer, in port order. A head
        // routes to exactly one port, so no ingress can win twice in a
        // cycle, and a grant changes only its own row.
        for w in 0..self.fwd_rows.words() {
            for p in ones(self.fwd_rows.word(w), 64 * w) {
                if !self.port_out[p].can_send(now) {
                    continue;
                }
                let m = self.fwd_cand.pick(p, self.rr_port[p]).expect("non-empty row");
                let flit = self.ingress[m].pop(now).expect("routed head vanished");
                self.fwd_cand.clear(p, m);
                if self.fwd_cand.row_is_empty(p) {
                    self.fwd_rows.remove(p);
                }
                if !self.ingress[m].is_empty() {
                    self.fwd_waiting.insert(m);
                }
                let cost = flit.cost_beats();
                self.port_out[p].send(now, m as u16, cost, flit);
                self.rr_port[p] = (m + 1) % m_count;
            }
        }
        // Return: each master grants one completion per cycle. Unlike a
        // plain FIFO fabric, the MAO's buffered output stage lets a
        // master pull *any* queued completion addressed to it within the
        // first `VOQ_WINDOW` entries, not just queue heads — this
        // virtual-output-queue behaviour is exactly what the reorder
        // buffers buy ("accepting and storing out-of-order transactions
        // early frees the bus fabric", §IV-B). Physical link
        // serialization was already charged when the completion entered
        // `ret_in`.
        //
        // Several masters may pull from one port in the same cycle, and
        // each pull shifts that port's window. Masters are served in
        // index order, so after a pull the port's bits are recomputed
        // from the shifted window before the next master looks: every
        // master sees exactly the window a sequential scan would. A
        // shifted window can take in an entry for a later master whose
        // row was empty, so the walk reads the live row set.
        let mut from = 0;
        while let Some(m) = self.ret_rows.first_from(from) {
            from = m + 1;
            if !self.master_ret[m].can_send(now) {
                continue;
            }
            let p = self.ret_cand.pick(m, self.rr_master[m]).expect("non-empty row");
            let idx = (0..self.marked[p])
                .position(|i| self.ret_master(now, p, i) == Some(m))
                .expect("marked port holds a completion for this master");
            self.clear_marks(now, p);
            let flit = self.ret_in[p].pop_at(now, idx).expect("peeked entry vanished");
            self.extend_marks(now, p);
            let cost = flit.cost_beats();
            self.master_ret[m].send(now, p as u16, cost, flit);
            self.rr_master[m] = (p + 1) % self.cfg.num_ports;
        }
    }

    fn drained(&self) -> bool {
        self.ingress.iter().all(|l| l.is_empty())
            && self.port_out.iter().all(|l| l.is_empty())
            && self.ret_in.iter().all(|l| l.is_empty())
            && self.master_ret.iter().all(|l| l.is_empty())
            && self.rob.iter().all(|r| r.is_empty())
    }

    fn occupancy(&self) -> usize {
        // A reorder-buffer slot is reserved at ingress-accept and released
        // at delivery, so it already covers every flit in the links.
        self.rob.iter().map(|r| r.in_flight()).sum()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A reorder buffer holding deliverable completions is an
        // immediate event: the master-side drain pulls from it directly.
        if self.rob.iter().any(|r| r.has_ready()) {
            return Some(now);
        }
        horizon(
            self.ingress.iter().chain(&self.port_out).chain(&self.ret_in).chain(&self.master_ret),
            now,
        )
    }

    fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        for l in &self.ingress {
            visit("ingress", l.high_water());
        }
        for l in &self.master_ret {
            visit("egress", l.high_water());
        }
        for l in self.port_out.iter().chain(&self.ret_in) {
            visit("mc_link", l.high_water());
        }
    }

    fn stats(&self) -> FabricStats {
        let mut st = FabricStats { id_stall_cycles: self.rob_stall_cycles, ..Default::default() };
        for l in &self.ingress {
            st.ingress.merge(l.stats());
        }
        for l in &self.master_ret {
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
            .chain(self.master_ret.iter_mut())
        {
            l.reset_stats();
        }
        self.rob_stall_cycles = 0;
    }
}

impl MaoFabric {
    /// The linear round-robin scans the bitmask tick replaced, kept as
    /// the oracle for `tick_matches_reference_scan`.
    #[cfg(test)]
    fn tick_reference(&mut self, now: Cycle) {
        let cap = self.cfg.port_capacity;
        let m_count = self.cfg.num_masters;
        let p_count = self.cfg.num_ports;
        let mut ingress_won = vec![false; m_count];
        for p in 0..p_count {
            if !self.port_out[p].can_send(now) {
                continue;
            }
            let start = self.rr_port[p];
            for j in 0..m_count {
                let m = (start + j) % m_count;
                if ingress_won[m] {
                    continue;
                }
                let Some(Flit::Req(t)) = self.ingress[m].peek(now) else {
                    continue;
                };
                if Self::phys_port(t.addr, cap) != p {
                    continue;
                }
                let flit = self.ingress[m].pop(now).expect("peeked head vanished");
                ingress_won[m] = true;
                let cost = flit.cost_beats();
                self.port_out[p].send(now, m as u16, cost, flit);
                self.rr_port[p] = (m + 1) % m_count;
                break;
            }
        }
        for m in 0..m_count {
            if !self.master_ret[m].can_send(now) {
                continue;
            }
            let start = self.rr_master[m];
            'ports: for j in 0..p_count {
                let p = (start + j) % p_count;
                for idx in 0..VOQ_WINDOW {
                    let Some(Flit::Resp(c)) = self.ret_in[p].peek_at(now, idx) else {
                        break;
                    };
                    if c.txn.master.idx() != m {
                        continue;
                    }
                    let flit = self.ret_in[p].pop_at(now, idx).expect("peeked entry vanished");
                    let cost = flit.cost_beats();
                    self.master_ret[m].send(now, p as u16, cost, flit);
                    self.rr_master[m] = (p + 1) % p_count;
                    break 'ports;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterleaveMode;
    use hbm_axi::{AxiId, BurstLen, Dir, TxnBuilder};
    use hbm_fabric::difftest::{run_pair, DiffTraffic};
    use proptest::prelude::*;

    fn mao() -> MaoFabric {
        MaoFabric::new(MaoConfig::default())
    }

    /// Reflector harness: requests arriving at ports become completions.
    fn run(f: &mut MaoFabric, mut pending: Vec<Transaction>) -> Vec<(Cycle, Completion)> {
        let expected = pending.len();
        let mut done = Vec::new();
        let mut stuck: Vec<Option<Completion>> = vec![None; f.num_ports()];
        let mut now = 0;
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
        assert_eq!(done.len(), expected, "transactions lost in the MAO");
        done
    }

    #[test]
    fn round_trip_latency_reflects_stages() {
        let mut f2 = mao(); // two stages: 25-cycle round trip + arbitration
        let mut b = TxnBuilder::new(MasterId(0));
        let t = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        let done = run(&mut f2, vec![t]);
        let two_stage = done[0].0;

        let mut f1 = MaoFabric::new(MaoConfig { stages: 1, ..MaoConfig::default() });
        let mut b = TxnBuilder::new(MasterId(0));
        let t = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        let done = run(&mut f1, vec![t]);
        let one_stage = done[0].0;

        assert!(two_stage > one_stage, "two stages must cost more latency");
        assert_eq!(two_stage - one_stage, 13, "25 vs 12 cycle network delta");
    }

    #[test]
    fn interleaving_spreads_consecutive_chunks() {
        let f = mao();
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u64 {
            seen.insert(f.port_of(i * 512).0);
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn same_id_different_port_does_not_stall() {
        // The defining difference to the Xilinx fabric (see
        // `xilinx::tests::same_id_different_destination_stalls`).
        let mut f = mao();
        let mut b = TxnBuilder::new(MasterId(0));
        let t0 = b.issue(AxiId(0), 0, BurstLen::of(1), Dir::Read, 0).unwrap();
        let t1 = b.issue(AxiId(0), 512, BurstLen::of(1), Dir::Read, 1).unwrap();
        assert_ne!(f.port_of(0), f.port_of(512));
        assert!(f.offer_request(0, t0).is_ok());
        assert!(f.offer_request(1, t1).is_ok());
        assert_eq!(f.rob_stall_cycles(), 0);
    }

    #[test]
    fn completions_resequenced_per_id() {
        // Two same-ID reads to different ports; reflect the *second* one
        // first by delaying port responses is hard in this harness, so we
        // rely on the proptest in `reorder`; here we just check both
        // complete and arrive in seq order at the master.
        let mut f = mao();
        let mut b = TxnBuilder::new(MasterId(0));
        let txns: Vec<_> = (0..8)
            .map(|i| b.issue(AxiId(0), i * 512, BurstLen::of(1), Dir::Read, 0).unwrap())
            .collect();
        let done = run(&mut f, txns);
        let seqs: Vec<u64> = done.iter().map(|(_, c)| c.txn.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "same-ID completions must arrive in order");
    }

    #[test]
    fn rob_capacity_stalls_issue() {
        let mut f = MaoFabric::new(MaoConfig { reorder_depth: 2, ..MaoConfig::default() });
        let mut b = TxnBuilder::new(MasterId(0));
        let mk = |b: &mut TxnBuilder, i: u64, now| {
            b.issue(AxiId(0), i * 512, BurstLen::of(1), Dir::Read, now).unwrap()
        };
        assert!(f.offer_request(0, mk(&mut b, 0, 0)).is_ok());
        assert!(f.offer_request(1, mk(&mut b, 1, 1)).is_ok());
        assert!(f.offer_request(2, mk(&mut b, 2, 2)).is_err());
        assert_eq!(f.rob_stall_cycles(), 1);
    }

    #[test]
    fn all_masters_all_ports_complete() {
        let mut txns = Vec::new();
        for m in 0..32u16 {
            let mut b = TxnBuilder::new(MasterId(m));
            for i in 0..4u64 {
                let addr = (m as u64 * 4 + i) * 512;
                let dir = if i % 2 == 0 { Dir::Read } else { Dir::Write };
                txns.push(b.issue(AxiId(i as u8), addr, BurstLen::of(16), dir, 0).unwrap());
            }
        }
        let mut f = mao();
        let done = run(&mut f, txns);
        assert_eq!(done.len(), 128);
        assert!(f.drained());
    }

    #[test]
    fn contiguous_mode_behaves_like_plain_map() {
        let cfg = MaoConfig { interleave: InterleaveMode::Contiguous, ..MaoConfig::default() };
        let f = MaoFabric::new(cfg);
        assert_eq!(f.port_of(0), PortId(0));
        assert_eq!(f.port_of(256 << 20), PortId(1));
    }

    #[test]
    fn stats_track_traffic_and_reset() {
        let mut f = mao();
        let mut b = TxnBuilder::new(MasterId(0));
        let t = b.issue(AxiId(0), 0, BurstLen::of(16), Dir::Write, 0).unwrap();
        run(&mut f, vec![t]);
        assert_eq!(f.stats().ingress.beats, 16);
        f.reset_stats();
        assert_eq!(f.stats().ingress.beats, 0);
    }

    proptest! {
        /// The bitmask tick makes exactly the linear scans' grants —
        /// including several masters pulling from one port's VOQ window
        /// in a cycle — for both network depths, shallow to deep reorder
        /// buffers, and master/port counts that need one and two mask
        /// words. Slow master drains back the return stages up, so the
        /// windows fill (VOQ pressure).
        #[test]
        fn tick_matches_reference_scan(
            (masters, ports) in prop::sample::select(vec![(1usize, 1usize), (3, 2), (32, 32), (80, 128)]),
            stages in 1u8..3,
            reorder_depth in prop::sample::select(vec![1usize, 4, 32]),
            seed in any::<u64>(),
            num_ids in 1u8..9,
            offer in 64u32..256,
            hot in prop::sample::select(vec![0u32, 64, 192]),
            reflect in 64u32..256,
            drain in prop::sample::select(vec![8u32, 64, 256]),
        ) {
            // XOR folding needs at least one port bit.
            let interleave = if ports == 1 {
                InterleaveMode::Block { granularity: 512 }
            } else {
                InterleaveMode::XorFold { granularity: 512 }
            };
            let cfg = MaoConfig {
                stages, reorder_depth, interleave, num_masters: masters, num_ports: ports,
                port_capacity: 1 << 20, ..MaoConfig::default()
            };
            let mut fast = MaoFabric::new(cfg);
            let mut reference = MaoFabric::new(cfg);
            let traffic = DiffTraffic {
                seed, cycles: 400, port_capacity: cfg.port_capacity, num_ids, offer, hot, reflect, drain,
            };
            run_pair(&mut fast, &mut reference, MaoFabric::tick_reference, &traffic);
        }
    }
}
