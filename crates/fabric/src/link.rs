//! Serialized, pipelined bus links and the flits they carry.

use hbm_axi::{Completion, Cycle, DelayQueue, Transaction};

use crate::stats::LinkStats;

/// A unit of transfer through the fabric: a request (AR flit, or AW+W
/// data) moving towards memory, or a response (R data or B ack) moving
/// back. Requests and responses share physical lateral buses on the
/// Xilinx fabric, so a single flit type keeps arbitration honest.
#[derive(Debug, Clone, Copy)]
pub enum Flit {
    /// A transaction moving master → memory.
    Req(Transaction),
    /// A completion moving memory → master.
    Resp(Completion),
}

impl Flit {
    /// Bus occupancy of this flit in beats: 1 for an AR flit, burst-length
    /// beats for write data or read data, 1 for a B ack.
    #[inline]
    pub fn cost_beats(&self) -> u64 {
        match self {
            Flit::Req(t) => t.fwd_link_cycles(),
            Flit::Resp(c) => c.txn.ret_link_cycles(),
        }
    }

    /// `true` for request flits.
    #[inline]
    pub fn is_req(&self) -> bool {
        matches!(self, Flit::Req(_))
    }
}

/// A pipelined bus segment with finite rate, queue capacity, and latency.
///
/// * `rate` is the link's bandwidth in beats per accelerator cycle
///   (1.0 for `facc`-clocked ports, 450/facc for switch-internal buses);
/// * a flit of `c` beats makes the link busy for `c / rate` cycles
///   (serialization);
/// * switching the granted source costs `dead_beats / rate` extra cycles
///   (bus-multiplexing dead cycles, paper §IV-A);
/// * delivered flits appear in the downstream queue `latency` cycles
///   later and occupy one of `capacity` slots until consumed.
#[derive(Debug, Clone)]
pub struct SerialLink<T = Flit> {
    q: DelayQueue<T>,
    rate: f64,
    busy_until: f64,
    last_src: Option<u16>,
    dead_beats: f64,
    stats: LinkStats,
}

impl<T> SerialLink<T> {
    /// Creates a link. `rate` in beats/cycle, `dead_beats` charged on
    /// grant switches, queue `capacity` and pipeline `latency` as in
    /// [`DelayQueue`].
    pub fn new(rate: f64, dead_beats: f64, capacity: usize, latency: Cycle) -> SerialLink<T> {
        assert!(rate > 0.0, "link rate must be positive");
        SerialLink {
            q: DelayQueue::new(capacity, latency),
            rate,
            busy_until: 0.0,
            last_src: None,
            dead_beats,
            stats: LinkStats::default(),
        }
    }

    /// `true` if a flit from any source could be sent at `now`.
    #[inline]
    pub fn can_send(&self, now: Cycle) -> bool {
        (now as f64) >= self.busy_until && self.q.can_push()
    }

    /// The first cycle ≥ `now` at which [`can_send`](Self::can_send)
    /// holds if nothing is consumed from the queue meanwhile; `None`
    /// while the queue is full (only a pop frees a slot).
    #[inline]
    pub fn send_ready_at(&self, now: Cycle) -> Option<Cycle> {
        (!self.is_full()).then(|| now.max(self.busy_until.ceil() as Cycle))
    }

    /// `true` while every slot of the queue is taken, in flight or
    /// waiting: no send succeeds until a pop.
    #[inline]
    pub fn is_full(&self) -> bool {
        !self.q.can_push()
    }

    /// The retry hint for an offer this link just turned away at `now`:
    /// the end of its serialisation, or the next cycle while it is full
    /// (its consumer may pop at any time).
    #[inline]
    pub fn retry_at(&self, now: Cycle) -> Cycle {
        self.send_ready_at(now).unwrap_or(now + 1).max(now + 1)
    }

    /// Sends an item of `cost_beats` from `src`, charging serialization
    /// and any grant-switch penalty. Panics if `can_send` is false.
    pub fn send(&mut self, now: Cycle, src: u16, cost_beats: u64, item: T) {
        assert!(self.can_send(now), "send on busy/full link");
        let mut busy = cost_beats as f64 / self.rate;
        if self.last_src.is_some_and(|s| s != src) {
            busy += self.dead_beats / self.rate;
            self.stats.grant_switches += 1;
        }
        self.busy_until = now as f64 + busy;
        self.last_src = Some(src);
        self.stats.flits += 1;
        self.stats.beats += cost_beats;
        self.q.push(now, item).ok().expect("capacity checked in can_send");
    }

    /// The downstream queue's ready head.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        self.q.peek(now)
    }

    /// Pops the downstream queue's ready head.
    #[inline]
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        self.q.pop(now)
    }

    /// A reference to the `idx`-th downstream item if ready.
    #[inline]
    pub fn peek_at(&self, now: Cycle, idx: usize) -> Option<&T> {
        self.q.peek_at(now, idx)
    }

    /// Removes the `idx`-th downstream item if ready (out-of-order
    /// consumption by a buffered output stage).
    #[inline]
    pub fn pop_at(&mut self, now: Cycle, idx: usize) -> Option<T> {
        self.q.pop_at(now, idx)
    }

    /// Delivery time of the oldest in-flight item, if any — the earliest
    /// cycle at which `peek`/`pop` can succeed. A past time means the
    /// head is ready now.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.q.next_ready_at()
    }

    /// Items in flight or waiting downstream.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when nothing is in flight on this link.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Peak queue occupancy since construction (see
    /// [`DelayQueue::high_water`]). Maintained by the queue itself;
    /// reading it costs nothing during simulation.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.q.high_water()
    }

    /// Traffic counters for this link.
    #[inline]
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Clears traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }
}

/// Minimum head-delivery time over a set of links, clamped to `now` —
/// the links' joint contribution to a fabric's next-event horizon.
///
/// Returns `Some(now)` as soon as any head is already ready (callers can
/// step immediately), the earliest future delivery time otherwise, and
/// `None` when every link is empty (quiescent until new traffic is
/// offered).
pub fn horizon<'a, T: 'a>(
    links: impl IntoIterator<Item = &'a SerialLink<T>>,
    now: Cycle,
) -> Option<Cycle> {
    let mut best: Option<Cycle> = None;
    for l in links {
        if let Some(t) = l.next_ready_at() {
            if t <= now {
                return Some(now);
            }
            best = Some(best.map_or(t, |b: Cycle| b.min(t)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, Dir, MasterId, Transaction};

    fn txn(dir: Dir, beats: u8) -> Transaction {
        Transaction::new(MasterId(0), AxiId(0), 0, BurstLen::of(beats), dir, 0, 0).unwrap()
    }

    #[test]
    fn flit_costs() {
        assert_eq!(Flit::Req(txn(Dir::Read, 16)).cost_beats(), 1);
        assert_eq!(Flit::Req(txn(Dir::Write, 16)).cost_beats(), 16);
        let c = Completion { txn: txn(Dir::Read, 16), produced_at: 0 };
        assert_eq!(Flit::Resp(c).cost_beats(), 16);
        let c = Completion { txn: txn(Dir::Write, 16), produced_at: 0 };
        assert_eq!(Flit::Resp(c).cost_beats(), 1);
    }

    #[test]
    fn serialization_blocks_link() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 0);
        l.send(0, 0, 4, 1);
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
    }

    #[test]
    fn faster_rate_shortens_occupancy() {
        let mut l: SerialLink<u32> = SerialLink::new(1.5, 0.0, 16, 0);
        l.send(0, 0, 6, 1);
        // 6 beats at 1.5 beats/cycle = 4 cycles.
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
    }

    #[test]
    fn dead_cycles_on_grant_switch() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 2.0, 16, 0);
        l.send(0, 0, 1, 1);
        assert!(l.can_send(1));
        // Different source: 1 beat + 2 dead beats.
        l.send(1, 1, 1, 2);
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
        assert_eq!(l.stats().grant_switches, 1);
        // Same source again: no penalty.
        l.send(4, 1, 1, 3);
        assert!(l.can_send(5));
        assert_eq!(l.stats().grant_switches, 1);
    }

    #[test]
    fn latency_applies_to_delivery() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 5);
        l.send(0, 0, 1, 7);
        assert!(l.peek(4).is_none());
        assert_eq!(l.pop(5), Some(7));
    }

    #[test]
    fn send_ready_at_matches_can_send() {
        let mut l: SerialLink<u32> = SerialLink::new(1.5, 1.0, 2, 0);
        assert_eq!(l.send_ready_at(3), Some(3));
        l.send(0, 0, 2, 1);
        l.send(2, 1, 2, 2); // 2/1.5 + 1/1.5 = 2 cycles past 2
        assert_eq!(l.send_ready_at(2), None, "full");
        l.pop(10);
        let t = l.send_ready_at(2).unwrap();
        assert!(l.can_send(t) && !l.can_send(t - 1), "ready at {t}");
    }

    #[test]
    fn full_queue_blocks_send() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 2, 0);
        l.send(0, 0, 1, 1);
        l.send(1, 0, 1, 2);
        assert!(!l.can_send(10));
        l.pop(10);
        assert!(l.can_send(10));
    }

    #[test]
    fn stats_count_beats() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 0);
        l.send(0, 0, 16, 1);
        l.send(16, 0, 1, 2);
        assert_eq!(l.stats().flits, 2);
        assert_eq!(l.stats().beats, 17);
    }
}
