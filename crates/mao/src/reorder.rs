//! Bus-master-side reorder buffers (architectural adaption #3).
//!
//! With address interleaving, consecutive transactions of one master —
//! even on the same AXI ID — go to different pseudo-channels and their
//! completions can arrive out of order. AXI requires same-ID responses in
//! issue order, so a plain fabric must *stall* such requests at ingress
//! (as [`hbm_fabric::XilinxFabric`] does). The MAO instead reserves a
//! slot in a per-master reorder buffer at issue time, accepts completions
//! in whatever order the memory system produces them, and re-sequences
//! them per (direction, ID) before handing them to the master. The buffer
//! depth is the "number of consecutive AXI transactions that can be
//! reordered" swept in Fig. 6 of the paper.

use std::collections::VecDeque;

use hbm_axi::{Completion, Dir};

/// The (direction, ID) stream of a transaction: AXI orders completions
/// within a stream only.
fn stream(dir: Dir, id: u8) -> u16 {
    u16::from(id) << 1 | u16::from(dir == Dir::Write)
}

/// A per-master reorder buffer. Its lists are sized to the buffer's
/// depth when it is built, so it never allocates afterwards.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    capacity: usize,
    /// Reservations not yet re-sequenced, in issue order, as (stream,
    /// seq): the first entry of a stream is the completion it waits for.
    pending: VecDeque<(u16, u64)>,
    /// Early completions, waiting for their older same-stream peers.
    parked: Vec<Completion>,
    /// Completions in delivery order.
    ready: VecDeque<Completion>,
    /// Reserved slots: issued and not yet delivered to the master.
    in_flight: usize,
}

impl ReorderBuffer {
    /// A buffer with `capacity` slots (max outstanding per master).
    pub fn new(capacity: usize) -> ReorderBuffer {
        assert!(capacity >= 1, "reorder buffer needs at least one slot");
        ReorderBuffer {
            capacity,
            pending: VecDeque::with_capacity(capacity),
            parked: Vec::with_capacity(capacity),
            ready: VecDeque::with_capacity(capacity),
            in_flight: 0,
        }
    }

    /// `true` if a new transaction can reserve a slot.
    #[inline]
    pub fn can_reserve(&self) -> bool {
        self.in_flight < self.capacity
    }

    /// Slots currently reserved.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Reserves a slot for transaction `seq` on (dir, id). Panics when
    /// full — gate on [`ReorderBuffer::can_reserve`].
    pub fn reserve(&mut self, dir: Dir, id: u8, seq: u64) {
        assert!(self.can_reserve(), "reorder buffer overflow");
        self.in_flight += 1;
        self.pending.push_back((stream(dir, id), seq));
    }

    /// Accepts a completion from the fabric, in any order. It becomes
    /// deliverable once every older same-(dir, id) completion has been
    /// delivered or is already buffered ahead of it.
    pub fn arrive(&mut self, c: Completion) {
        let s = stream(c.txn.dir, c.txn.id.0);
        let first = self.pending.iter().position(|&(p, _)| p == s);
        let mut i = first.expect("completion without reservation");
        if self.pending[i].1 != c.txn.seq {
            debug_assert!(
                self.pending.contains(&(s, c.txn.seq)),
                "completion {} was never reserved on this (dir, id)",
                c.txn.seq
            );
            self.parked.push(c);
            return;
        }
        self.pending.remove(i);
        self.ready.push_back(c);
        // Cascade: earlier-arrived later completions may now be ready.
        // The stream's next entry lies at or after `i`.
        while let Some(j) = self.pending.range(i..).position(|&(p, _)| p == s) {
            i += j;
            let next = self.pending[i].1;
            let Some(k) = self.parked.iter().position(|p| p.txn.seq == next) else { break };
            self.pending.remove(i);
            self.ready.push_back(self.parked.swap_remove(k));
        }
    }

    /// Delivers the next in-order completion to the master, freeing its
    /// slot.
    pub fn pop_ready(&mut self) -> Option<Completion> {
        let c = self.ready.pop_front()?;
        self.in_flight -= 1;
        Some(c)
    }

    /// `true` when nothing is reserved, parked, or awaiting delivery.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0 && self.parked.is_empty() && self.ready.is_empty()
    }

    /// `true` when an in-order completion is waiting to be delivered.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, MasterId, Transaction};

    fn comp(id: u8, seq: u64, dir: Dir) -> Completion {
        let txn = Transaction::new(MasterId(0), AxiId(id), seq * 512, BurstLen::of(1), dir, 0, seq)
            .unwrap();
        Completion { txn, produced_at: 0 }
    }

    #[test]
    fn in_order_passes_straight_through() {
        let mut r = ReorderBuffer::new(4);
        for s in 0..3 {
            r.reserve(Dir::Read, 0, s);
        }
        for s in 0..3 {
            r.arrive(comp(0, s, Dir::Read));
            assert_eq!(r.pop_ready().unwrap().txn.seq, s);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn out_of_order_same_id_is_resequenced() {
        let mut r = ReorderBuffer::new(4);
        for s in 0..3 {
            r.reserve(Dir::Read, 0, s);
        }
        r.arrive(comp(0, 2, Dir::Read));
        r.arrive(comp(0, 1, Dir::Read));
        assert!(r.pop_ready().is_none(), "seq 0 still missing");
        r.arrive(comp(0, 0, Dir::Read));
        // Cascade releases all three in order.
        assert_eq!(r.pop_ready().unwrap().txn.seq, 0);
        assert_eq!(r.pop_ready().unwrap().txn.seq, 1);
        assert_eq!(r.pop_ready().unwrap().txn.seq, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn different_ids_deliver_independently() {
        let mut r = ReorderBuffer::new(4);
        r.reserve(Dir::Read, 0, 0);
        r.reserve(Dir::Read, 1, 1);
        // ID 1 completes first and is deliverable immediately.
        r.arrive(comp(1, 1, Dir::Read));
        assert_eq!(r.pop_ready().unwrap().txn.seq, 1);
        r.arrive(comp(0, 0, Dir::Read));
        assert_eq!(r.pop_ready().unwrap().txn.seq, 0);
    }

    #[test]
    fn reads_and_writes_are_independent_streams() {
        let mut r = ReorderBuffer::new(4);
        r.reserve(Dir::Read, 0, 0);
        r.reserve(Dir::Write, 0, 1);
        r.arrive(comp(0, 1, Dir::Write));
        assert_eq!(r.pop_ready().unwrap().txn.seq, 1);
        r.arrive(comp(0, 0, Dir::Read));
        assert_eq!(r.pop_ready().unwrap().txn.seq, 0);
    }

    #[test]
    fn capacity_limits_reservations() {
        let mut r = ReorderBuffer::new(2);
        r.reserve(Dir::Read, 0, 0);
        r.reserve(Dir::Read, 0, 1);
        assert!(!r.can_reserve());
        r.arrive(comp(0, 0, Dir::Read));
        // Still occupied until delivered.
        assert!(!r.can_reserve());
        r.pop_ready().unwrap();
        assert!(r.can_reserve());
    }

    #[test]
    #[should_panic(expected = "completion without reservation")]
    fn completion_on_a_drained_queue_panics() {
        let mut r = ReorderBuffer::new(2);
        r.reserve(Dir::Read, 0, 0);
        r.arrive(comp(0, 0, Dir::Read));
        r.pop_ready().unwrap();
        r.arrive(comp(0, 1, Dir::Read));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn reserve_over_capacity_panics() {
        let mut r = ReorderBuffer::new(1);
        r.reserve(Dir::Read, 0, 0);
        r.reserve(Dir::Read, 0, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, MasterId, Transaction};
    use proptest::prelude::*;

    proptest! {
        /// For any arrival permutation, deliveries preserve per-(dir, id)
        /// issue order and nothing is lost.
        #[test]
        fn delivery_order_is_per_id_issue_order(
            n in 1usize..24,
            ids in proptest::collection::vec(0u8..4, 1..24),
            seed in any::<u64>(),
        ) {
            let n = n.min(ids.len());
            let mut r = ReorderBuffer::new(n.max(1));
            // Issue n transactions round-robin over the given ids.
            let mut txns = Vec::new();
            for (seq, id) in ids.iter().take(n).enumerate() {
                let dir = if seq % 3 == 0 { Dir::Write } else { Dir::Read };
                r.reserve(dir, *id, seq as u64);
                let t = Transaction::new(
                    MasterId(0), AxiId(*id), seq as u64 * 512,
                    BurstLen::of(1), dir, 0, seq as u64).unwrap();
                txns.push(Completion { txn: t, produced_at: 0 });
            }
            // Shuffle arrivals deterministically from the seed.
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (s >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let mut delivered = Vec::new();
            for &i in &order {
                r.arrive(txns[i]);
                while let Some(c) = r.pop_ready() {
                    delivered.push(c);
                }
            }
            prop_assert_eq!(delivered.len(), n, "all completions delivered");
            // Per (dir, id): strictly increasing seq.
            let mut last: std::collections::HashMap<(bool, u8), u64> = Default::default();
            for c in &delivered {
                let key = (c.txn.dir == Dir::Read, c.txn.id.0);
                if let Some(&prev) = last.get(&key) {
                    prop_assert!(c.txn.seq > prev, "out of order on {key:?}");
                }
                last.insert(key, c.txn.seq);
            }
            prop_assert!(r.is_empty());
        }
    }
}
