//! Opt-in per-transaction lifecycle tracing and latency attribution.
//!
//! The simulator's default outputs are end-of-run aggregates; this module
//! adds the time-resolved layer: every transaction can be stamped at each
//! stage of its life —
//!
//! ```text
//! issue → fabric ingress-accept → lateral hop(s) → MC enqueue
//!       → first DRAM command → data-burst start → DRAM done → delivery
//! ```
//!
//! — and each completion decomposed into five latency components whose sum
//! is *exactly* the end-to-end latency the generators record:
//!
//! ```text
//! source-stall | fabric-transit | mc-queue | dram-service | return-path
//! ```
//!
//! Design constraints (the "overhead contract", see DESIGN.md §3.2):
//!
//! * **Zero cost when off.** [`Transaction`] is not grown; stamps live in
//!   per-master lists of records found by `(master, seq)`. The system
//!   owns an `Option<Tracer>` that is `None` by default and lends it by
//!   `&mut` to each call that takes a stamp, so the untraced hot path
//!   pays one never-taken branch per stamp site and nothing else.
//!   `tests/fastpath_equivalence.rs` enforces that runs with tracing ON and
//!   OFF are bit-identical in every statistic.
//! * **Observation only.** Stamping never changes timing, arbitration, or
//!   queue occupancy — the tracer has no way to feed back into the
//!   simulation.
//! * **Allocation-light when on.** [`TxnRecord`] is `Copy` with a fixed-size
//!   hop array; a master's live list grows to its outstanding limit once
//!   and is reused, and delivered records are retained up to a cap per
//!   execution domain (beyond it only the histograms keep growing).

use serde::{Deserialize, Serialize};

use crate::hist::Hist;
use crate::transaction::Transaction;
use crate::types::{Cycle, Dir};

/// Maximum lateral-hop stamps retained per transaction. The Xilinx fabric
/// routes at most 7 switch-to-switch hops end to end; anything beyond the
/// cap is counted but not time-stamped.
pub const MAX_HOPS: usize = 8;

/// All lifecycle stamps of one transaction. `issued_at` comes from the
/// transaction itself; every other stamp is `None` until the corresponding
/// stage is reached. A posted write never carries DRAM stamps: its B ack
/// does not wait for DRAM, so the controller stamps DRAM issue for reads
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Issuing master index.
    pub master: u16,
    /// Per-master sequence number.
    pub seq: u64,
    /// AXI ID.
    pub id: u8,
    /// Start address as seen at issue (pre-MAO-remap).
    pub addr: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Read or write.
    pub dir: Dir,
    /// Destination pseudo-channel port (set at MC enqueue).
    pub port: u16,
    /// Cycle the master issued the transaction (wanted to send it).
    pub issued_at: Cycle,
    /// Cycle the fabric accepted it at the ingress port.
    pub ingress_at: Option<Cycle>,
    /// Cycle the memory controller enqueued it.
    pub mc_enqueue_at: Option<Cycle>,
    /// Cycle the controller issued its first DRAM command.
    pub dram_cmd_at: Option<Cycle>,
    /// Cycle the first data beat moved on the DRAM bus.
    pub data_start_at: Option<Cycle>,
    /// Cycle the DRAM burst (plus PHY return for reads) finished.
    pub dram_done_at: Option<Cycle>,
    /// Cycle the completion reached the issuing master.
    pub delivered_at: Option<Cycle>,
    /// Number of lateral (switch-to-switch) hops taken, either direction.
    pub hops: u8,
    /// Stamp of each lateral hop, valid for `hop_at[..hops.min(MAX_HOPS)]`.
    pub hop_at: [Cycle; MAX_HOPS],
}

impl TxnRecord {
    fn new(txn: &Transaction) -> TxnRecord {
        TxnRecord {
            master: txn.master.0,
            seq: txn.seq,
            id: txn.id.0,
            addr: txn.addr,
            bytes: txn.bytes(),
            dir: txn.dir,
            port: 0,
            issued_at: txn.issued_at,
            ingress_at: None,
            mc_enqueue_at: None,
            dram_cmd_at: None,
            data_start_at: None,
            dram_done_at: None,
            delivered_at: None,
            hops: 0,
            hop_at: [0; MAX_HOPS],
        }
    }

    /// End-to-end latency (delivery − issue); `None` until delivered.
    pub fn end_to_end(&self) -> Option<Cycle> {
        self.delivered_at.map(|d| d.saturating_sub(self.issued_at))
    }

    /// Decomposes the end-to-end latency into the five components.
    ///
    /// Invariant: `attribution().total() == end_to_end()` *exactly*, for
    /// every delivered record. Missing stamps inherit the previous stage's
    /// time (their component is 0), and every stamp is clamped into
    /// `[previous stage, delivery]` so no component can be negative or
    /// overshoot. Posted writes attribute everything after MC acceptance
    /// to the return path: their B ack does not wait for DRAM service, so
    /// `mc_queue`/`dram_service` are 0 by construction, even for a record
    /// that carries DRAM stamps.
    pub fn attribution(&self) -> Option<Attribution> {
        let delivered = self.delivered_at?;
        let issued = self.issued_at.min(delivered);
        let clamp = |s: Option<Cycle>, lo: Cycle| s.unwrap_or(lo).clamp(lo, delivered);
        let ingress = clamp(self.ingress_at, issued);
        let enqueue = clamp(self.mc_enqueue_at, ingress);
        let (cmd, done) = match self.dir {
            Dir::Read => {
                let cmd = clamp(self.dram_cmd_at, enqueue);
                (cmd, clamp(self.dram_done_at, cmd))
            }
            // Posted write: the ack never waits for DRAM.
            Dir::Write => (enqueue, enqueue),
        };
        let e2e = delivered - issued;
        let source_stall = ingress - issued;
        let fabric_transit = enqueue - ingress;
        let mc_queue = cmd - enqueue;
        let dram_service = done - cmd;
        let return_path = e2e - source_stall - fabric_transit - mc_queue - dram_service;
        Some(Attribution { source_stall, fabric_transit, mc_queue, dram_service, return_path })
    }
}

/// The five-way latency decomposition of one completion, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Issue → fabric ingress-accept (back-pressure and ID stalls at the
    /// master's doorstep).
    pub source_stall: Cycle,
    /// Ingress-accept → MC enqueue (switch pipeline, lateral buses,
    /// arbitration).
    pub fabric_transit: Cycle,
    /// MC enqueue → first DRAM command (reorder-window queueing).
    pub mc_queue: Cycle,
    /// First DRAM command → data returned at the controller (bank timing,
    /// burst transfer, PHY).
    pub dram_service: Cycle,
    /// Everything after: response queue + return fabric to the master.
    pub return_path: Cycle,
}

impl Attribution {
    /// Sum of all components — equals the end-to-end latency exactly.
    pub fn total(&self) -> Cycle {
        self.source_stall
            + self.fabric_transit
            + self.mc_queue
            + self.dram_service
            + self.return_path
    }
}

/// Per-direction attribution histograms: one [`Hist`] per component plus
/// the end-to-end distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AttrHists {
    /// Issue → ingress-accept.
    pub source_stall: Hist,
    /// Ingress-accept → MC enqueue.
    pub fabric_transit: Hist,
    /// MC enqueue → first DRAM command.
    pub mc_queue: Hist,
    /// First DRAM command → data at the controller.
    pub dram_service: Hist,
    /// Response queue + return fabric.
    pub return_path: Hist,
    /// Issue → delivery.
    pub end_to_end: Hist,
}

impl AttrHists {
    fn record(&mut self, a: &Attribution) {
        self.source_stall.record(a.source_stall);
        self.fabric_transit.record(a.fabric_transit);
        self.mc_queue.record(a.mc_queue);
        self.dram_service.record(a.dram_service);
        self.return_path.record(a.return_path);
        self.end_to_end.record(a.total());
    }

    /// `(name, histogram)` pairs in pipeline order, for rendering.
    pub fn components(&self) -> [(&'static str, &Hist); 6] {
        [
            ("source-stall", &self.source_stall),
            ("fabric-transit", &self.fabric_transit),
            ("mc-queue", &self.mc_queue),
            ("dram-service", &self.dram_service),
            ("return-path", &self.return_path),
            ("end-to-end", &self.end_to_end),
        ]
    }
}

/// One master's records stamped at ingress and not yet delivered. Keys
/// and records are parallel arrays, so a lookup scans dense `seq`s; the
/// list is bounded by the master's outstanding limit.
#[derive(Debug, Clone, Default)]
struct LiveList {
    seqs: Vec<u64>,
    recs: Vec<TxnRecord>,
}

impl LiveList {
    fn find(&self, seq: u64) -> Option<usize> {
        self.seqs.iter().position(|&s| s == seq)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut TxnRecord> {
        self.find(seq).map(|i| &mut self.recs[i])
    }

    fn remove(&mut self, seq: u64) -> Option<TxnRecord> {
        let i = self.find(seq)?;
        self.seqs.swap_remove(i);
        Some(self.recs.swap_remove(i))
    }
}

/// The lifecycle tracer: per-master lists of live [`TxnRecord`]s, a
/// bounded log of delivered records, and the per-direction attribution
/// histograms.
///
/// A simulated system owns one tracer and lends it by `&mut` to each
/// call that takes a stamp, so stamps are plain method calls.
///
/// **Retention is per execution domain.** Masters form domains of
/// `masters_per_domain` consecutive indices (one per fabric shard), and
/// each domain keeps its first `record_cap` deliveries. The log holds
/// them in stamp order, so each domain's records stay in that domain's
/// delivery order however the kernel interleaves domains;
/// [`snapshot`](Tracer::snapshot) stable-sorts them by
/// `(delivered_at, master)` into the whole system's delivery order.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Indexed by master.
    live: Vec<LiveList>,
    done: Vec<TxnRecord>,
    /// Per domain: records retained in `done`.
    kept: Vec<usize>,
    masters_per_domain: usize,
    capacity: usize,
    dropped: u64,
    /// Attribution of delivered reads.
    pub read_attr: AttrHists,
    /// Attribution of delivered writes.
    pub write_attr: AttrHists,
}

/// Default cap on retained delivered records.
pub const DEFAULT_RECORD_CAP: usize = 1 << 16;

impl Tracer {
    /// A tracer retaining up to `record_cap` delivered records (histograms
    /// keep aggregating past the cap; `dropped()` counts the overflow).
    pub fn new(record_cap: usize) -> Tracer {
        Tracer::per_domain(record_cap, usize::MAX)
    }

    /// A tracer retaining up to `record_cap` delivered records per
    /// execution domain of `masters_per_domain` consecutive masters.
    pub fn per_domain(record_cap: usize, masters_per_domain: usize) -> Tracer {
        Tracer {
            live: Vec::new(),
            done: Vec::new(),
            kept: Vec::new(),
            masters_per_domain: masters_per_domain.max(1),
            capacity: record_cap,
            dropped: 0,
            read_attr: AttrHists::default(),
            write_attr: AttrHists::default(),
        }
    }

    fn live_mut(&mut self, master: u16, seq: u64) -> Option<&mut TxnRecord> {
        self.live.get_mut(master as usize)?.get_mut(seq)
    }

    /// Stamp: the fabric accepted `txn` at its ingress port. Creates the
    /// record (issue time is carried by the transaction itself).
    pub fn ingress_accept(&mut self, now: Cycle, txn: &Transaction) {
        let mut rec = TxnRecord::new(txn);
        rec.ingress_at = Some(now);
        let m = txn.master.idx();
        if m >= self.live.len() {
            self.live.resize_with(m + 1, LiveList::default);
        }
        self.live[m].seqs.push(txn.seq);
        self.live[m].recs.push(rec);
    }

    /// Stamp: the flit of `(master, seq)` was granted onto a lateral bus
    /// (either direction). Unknown keys are ignored — a hop can only
    /// follow an ingress-accept, so this tolerates tracing enabled
    /// mid-run.
    pub fn lateral_hop(&mut self, now: Cycle, master: u16, seq: u64) {
        if let Some(rec) = self.live_mut(master, seq) {
            if (rec.hops as usize) < MAX_HOPS {
                rec.hop_at[rec.hops as usize] = now;
            }
            rec.hops = rec.hops.saturating_add(1);
        }
    }

    /// Stamp: memory controller `port` enqueued `txn`.
    pub fn mc_enqueue(&mut self, now: Cycle, txn: &Transaction, port: u16) {
        if let Some(rec) = self.live_mut(txn.master.0, txn.seq) {
            rec.mc_enqueue_at = Some(now);
            rec.port = port;
        }
    }

    /// Stamp: the controller issued the first DRAM command at `cmd_at`;
    /// data moves at `data_start_at` and the service (including PHY return
    /// for reads) finishes at `done_at`.
    pub fn dram_issue(
        &mut self,
        txn: &Transaction,
        cmd_at: Cycle,
        data_start_at: Cycle,
        done_at: Cycle,
    ) {
        if let Some(rec) = self.live_mut(txn.master.0, txn.seq) {
            rec.dram_cmd_at = Some(cmd_at);
            rec.data_start_at = Some(data_start_at);
            rec.dram_done_at = Some(done_at);
        }
    }

    /// Stamp: the completion reached its master. Finalises the record,
    /// aggregates its attribution, and retires it from the live list.
    pub fn delivered(&mut self, now: Cycle, txn: &Transaction) {
        let m = txn.master.idx();
        let Some(mut rec) = self.live.get_mut(m).and_then(|l| l.remove(txn.seq)) else {
            return;
        };
        rec.delivered_at = Some(now);
        if let Some(attr) = rec.attribution() {
            match rec.dir {
                Dir::Read => self.read_attr.record(&attr),
                Dir::Write => self.write_attr.record(&attr),
            }
        }
        let d = m / self.masters_per_domain;
        if d >= self.kept.len() {
            self.kept.resize(d + 1, 0);
        }
        if self.kept[d] < self.capacity {
            self.kept[d] += 1;
            self.done.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// A copy whose delivered records are in the whole system's delivery
    /// order, `(delivered_at, master)`. Take it at a quiescent point
    /// (between runs); it clones the retained records.
    pub fn snapshot(&self) -> Tracer {
        let mut merged = self.clone();
        merged.done.sort_by_key(|r| (r.delivered_at, r.master));
        merged
    }

    /// Delivered records in stamp order (bounded by the record cap per
    /// domain); [`snapshot`](Tracer::snapshot) orders them by delivery.
    pub fn records(&self) -> &[TxnRecord] {
        &self.done
    }

    /// Delivered records beyond the cap (aggregated but not retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Transactions currently in flight (stamped but not delivered).
    pub fn live_len(&self) -> usize {
        self.live.iter().map(|l| l.seqs.len()).sum()
    }

    /// Attribution histograms for one direction.
    pub fn attr(&self, dir: Dir) -> &AttrHists {
        match dir {
            Dir::Read => &self.read_attr,
            Dir::Write => &self.write_attr,
        }
    }

    /// Total delivered transactions (retained + dropped).
    pub fn delivered_count(&self) -> u64 {
        self.done.len() as u64 + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AxiId, BurstLen, MasterId};

    fn txn(master: u16, seq: u64, dir: Dir, issued_at: Cycle) -> Transaction {
        Transaction::new(MasterId(master), AxiId(0), 0x1000, BurstLen::of(4), dir, issued_at, seq)
            .unwrap()
    }

    #[test]
    fn full_read_lifecycle_attribution_sums_to_e2e() {
        let mut t = Tracer::new(16);
        let x = txn(3, 7, Dir::Read, 10);
        t.ingress_accept(14, &x);
        t.lateral_hop(16, 3, 7);
        t.lateral_hop(18, 3, 7);
        t.mc_enqueue(25, &x, 12);
        t.dram_issue(&x, 30, 33, 48);
        t.delivered(60, &x);
        let rec = &t.records()[0];
        assert_eq!(rec.hops, 2);
        assert_eq!(rec.port, 12);
        let a = rec.attribution().unwrap();
        assert_eq!(a.source_stall, 4);
        assert_eq!(a.fabric_transit, 11);
        assert_eq!(a.mc_queue, 5);
        assert_eq!(a.dram_service, 18);
        assert_eq!(a.return_path, 12);
        assert_eq!(a.total(), rec.end_to_end().unwrap());
        assert_eq!(t.read_attr.end_to_end.n, 1);
        assert_eq!(t.live_len(), 0);
    }

    #[test]
    fn posted_write_attributes_nothing_to_dram() {
        let mut t = Tracer::new(16);
        let x = txn(0, 0, Dir::Write, 0);
        t.ingress_accept(2, &x);
        t.mc_enqueue(6, &x, 0);
        // The controller never stamps a write's DRAM issue; stamped
        // anyway, it must still be excluded.
        t.dram_issue(&x, 100, 103, 140);
        t.delivered(9, &x);
        let a = t.records()[0].attribution().unwrap();
        assert_eq!(a.mc_queue, 0);
        assert_eq!(a.dram_service, 0);
        assert_eq!(a.return_path, 3);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn missing_stamps_inherit_and_still_sum() {
        let mut t = Tracer::new(16);
        let x = txn(1, 1, Dir::Read, 5);
        t.ingress_accept(8, &x);
        // No MC or DRAM stamps at all (e.g. delivered from a cache-like
        // shortcut or a tracer attached mid-flight).
        t.delivered(20, &x);
        let a = t.records()[0].attribution().unwrap();
        assert_eq!(a.total(), 15);
        assert_eq!(a.source_stall, 3);
        assert_eq!(a.return_path, 12);
    }

    #[test]
    fn record_cap_counts_drops_but_keeps_aggregating() {
        let mut t = Tracer::new(1);
        for seq in 0..3 {
            let x = txn(0, seq, Dir::Read, 0);
            t.ingress_accept(1, &x);
            t.delivered(10, &x);
        }
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.delivered_count(), 3);
        assert_eq!(t.read_attr.end_to_end.n, 3);
    }

    #[test]
    fn record_cap_applies_per_domain_and_snapshot_merges() {
        // Two domains of two masters, one record each; the kernel stamps
        // domain 1's window before domain 0's.
        let mut t = Tracer::per_domain(1, 2);
        for (master, at) in [(2, 5), (3, 6), (0, 3), (1, 4)] {
            let x = txn(master, 0, Dir::Read, 0);
            t.ingress_accept(1, &x);
            t.delivered(at, &x);
        }
        assert_eq!(t.records().iter().map(|r| r.master).collect::<Vec<_>>(), [2, 0]);
        assert_eq!(t.dropped(), 2);
        let merged = t.snapshot();
        assert_eq!(merged.records().iter().map(|r| r.master).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(t.live_len(), 0);
    }

    #[test]
    fn hop_overflow_is_counted_not_stamped() {
        let mut t = Tracer::new(4);
        let x = txn(2, 2, Dir::Read, 0);
        t.ingress_accept(1, &x);
        for i in 0..(MAX_HOPS as u64 + 3) {
            t.lateral_hop(2 + i, 2, 2);
        }
        t.delivered(50, &x);
        let rec = &t.records()[0];
        assert_eq!(rec.hops as usize, MAX_HOPS + 3);
        assert_eq!(rec.hop_at[MAX_HOPS - 1], 1 + MAX_HOPS as u64);
    }
}
