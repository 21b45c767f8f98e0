//! [`DelayQueue`] — the basic pipelined-link building block.
//!
//! Every hop in the simulated memory system (bus pipeline registers,
//! switch ingress/egress, controller queues) is a finite-capacity FIFO
//! whose entries become visible `latency` cycles after insertion. This
//! models a pipelined ready/valid AXI link: back-pressure arises naturally
//! when the queue is full, and wire/pipeline delay from the latency.
//!
//! Internally both [`DelayQueue`] and the raw [`StampedRing`] it wraps
//! are flat power-of-two rings with SoA storage: the `deadlines` live in
//! one contiguous `Box<[Cycle]>` and the payloads in a parallel slot
//! array. Horizon scans (`next_ready_at`, `ready_len`) touch only the
//! deadline array — a dense, branch-predictable walk that never loads a
//! payload — and the full (rounded) capacity is allocated up front, so a
//! queue never reallocates mid-simulation (see DESIGN.md §3.8).

use std::fmt;
use std::mem::MaybeUninit;

use crate::types::Cycle;

/// A flat ring of `(deadline, payload)` entries with SoA storage.
///
/// The raw primitive under [`DelayQueue`]: deadlines are supplied
/// explicitly by the caller and must be pushed in non-decreasing order
/// (checked in debug builds). That monotonicity is what makes the head
/// deadline the queue's next-event horizon and lets `ready_len` binary
/// search the deadline array.
///
/// Physical storage is `capacity.next_power_of_two()` slots so index
/// arithmetic is a mask, while the *logical* capacity (back-pressure
/// threshold) stays exactly what the caller asked for.
pub struct StampedRing<T> {
    /// Delivery deadline per occupied slot; parallel to `slots`.
    deadlines: Box<[Cycle]>,
    /// Payload storage; slots `head..head+len` (mod mask+1) are live.
    slots: Box<[MaybeUninit<T>]>,
    head: usize,
    len: usize,
    /// `physical_size - 1`; physical size is a power of two.
    mask: usize,
    /// Logical capacity: `push_at` back-pressures at this occupancy.
    capacity: usize,
    /// Largest occupancy ever observed (high-water mark).
    hwm: usize,
}

impl<T> StampedRing<T> {
    /// Creates a ring holding at most `capacity` items. Allocates the
    /// full power-of-two-rounded storage immediately; the ring never
    /// grows or reallocates afterwards.
    pub fn new(capacity: usize) -> StampedRing<T> {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        let physical = capacity.next_power_of_two();
        StampedRing {
            deadlines: vec![0; physical].into_boxed_slice(),
            slots: (0..physical).map(|_| MaybeUninit::uninit()).collect(),
            head: 0,
            len: 0,
            mask: physical - 1,
            capacity,
            hwm: 0,
        }
    }

    /// Physical slot index of logical position `i` (0 = oldest).
    #[inline(always)]
    fn phys(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// `true` if another item can be pushed.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.len < self.capacity
    }

    /// Pushes an item that becomes poppable at `deadline`. Returns
    /// `Err(item)` when full so the caller can hold it (back-pressure)
    /// without cloning. Deadlines must be non-decreasing in push order.
    #[inline]
    pub fn push_at(&mut self, deadline: Cycle, item: T) -> Result<(), T> {
        if self.len >= self.capacity {
            return Err(item);
        }
        debug_assert!(
            self.len == 0 || deadline >= self.deadlines[self.phys(self.len - 1)],
            "StampedRing deadlines must be pushed in non-decreasing order"
        );
        let idx = self.phys(self.len);
        self.deadlines[idx] = deadline;
        self.slots[idx].write(item);
        self.len += 1;
        if self.len > self.hwm {
            self.hwm = self.len;
        }
        Ok(())
    }

    /// `true` if the head item's deadline has elapsed at `now`.
    #[inline]
    pub fn head_ready(&self, now: Cycle) -> bool {
        self.len > 0 && self.deadlines[self.head] <= now
    }

    /// The head entry's `(deadline, item)` regardless of readiness.
    #[inline]
    pub fn front(&self) -> Option<(Cycle, &T)> {
        if self.len == 0 {
            return None;
        }
        // SAFETY: `len > 0` means the head slot is initialized.
        Some((self.deadlines[self.head], unsafe { self.slots[self.head].assume_init_ref() }))
    }

    /// A reference to the head item if it is ready at `now`.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        if self.head_ready(now) {
            // SAFETY: `head_ready` implies `len > 0`, so head is live.
            Some(unsafe { self.slots[self.head].assume_init_ref() })
        } else {
            None
        }
    }

    /// Removes and returns the head item unconditionally (caller has
    /// already checked readiness, or doesn't care — e.g. `clear`).
    #[inline]
    fn take_head(&mut self) -> T {
        debug_assert!(self.len > 0);
        let idx = self.head;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        // SAFETY: the slot was live; advancing `head` marks it dead, so
        // this is the unique read of the value.
        unsafe { self.slots[idx].assume_init_read() }
    }

    /// Pops the head item if it is ready at `now`.
    #[inline]
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        if self.head_ready(now) {
            Some(self.take_head())
        } else {
            None
        }
    }

    /// Pops the head entry regardless of readiness, with its deadline.
    /// Used when draining one ring into another (e.g. lateral-boundary
    /// reconciliation) where the stamp must travel with the item.
    #[inline]
    pub fn pop_front(&mut self) -> Option<(Cycle, T)> {
        if self.len == 0 {
            return None;
        }
        let deadline = self.deadlines[self.head];
        Some((deadline, self.take_head()))
    }

    /// Number of items currently queued (ready or still in flight).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured (logical) capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest occupancy the ring has ever reached. Maintained by two
    /// ALU ops inside `push_at`; read once per measurement to feed the
    /// queue-depth gauges (never sampled inside the cycle loop).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.hwm
    }

    /// Iterates over `(deadline, item)` pairs, oldest first, regardless
    /// of readiness.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        (0..self.len).map(move |i| {
            let p = self.phys(i);
            // SAFETY: logical positions `0..len` are always live.
            (self.deadlines[p], unsafe { self.slots[p].assume_init_ref() })
        })
    }

    /// Delivery deadline of the oldest queued item, if any. Because
    /// deadlines are monotone this is the earliest cycle `pop` can
    /// succeed — the ring's contribution to a next-event horizon.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        if self.len == 0 {
            None
        } else {
            Some(self.deadlines[self.head])
        }
    }

    /// Number of leading items whose deadline has elapsed at `now`.
    /// Binary search over the deadline array alone (monotone order).
    pub fn ready_len(&self, now: Cycle) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.deadlines[self.phys(mid)] <= now {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// A reference to the `idx`-th queued item (oldest = 0) if it is
    /// ready at `now`.
    pub fn peek_at(&self, now: Cycle, idx: usize) -> Option<&T> {
        if idx < self.len && self.deadlines[self.phys(idx)] <= now {
            // SAFETY: `idx < len` means the slot is live.
            Some(unsafe { self.slots[self.phys(idx)].assume_init_ref() })
        } else {
            None
        }
    }

    /// Delivery deadline of the `idx`-th queued item (oldest = 0), ready
    /// or not. Because deadlines are monotone this is exactly the first
    /// cycle at which the item enters the ready window — the hint an
    /// incremental scheduler folds into its next-event horizon when every
    /// already-examined entry is ineligible.
    #[inline]
    pub fn deadline_at(&self, idx: usize) -> Option<Cycle> {
        if idx < self.len {
            Some(self.deadlines[self.phys(idx)])
        } else {
            None
        }
    }

    /// Removes and returns the `idx`-th queued item (oldest = 0) if it
    /// is ready at `now`, preserving the order of the rest. The `idx`
    /// leading entries shift one slot toward the tail — `idx` is bounded
    /// by the scheduler window (single digits), never the queue depth.
    pub fn pop_at(&mut self, now: Cycle, idx: usize) -> Option<T> {
        if idx >= self.len || self.deadlines[self.phys(idx)] > now {
            return None;
        }
        let hole = self.phys(idx);
        // SAFETY: `idx < len` means the slot is live; it is overwritten
        // or retired from the live range below, so this is the unique read.
        let item = unsafe { self.slots[hole].assume_init_read() };
        for i in (0..idx).rev() {
            let from = self.phys(i);
            let to = self.phys(i + 1);
            self.deadlines[to] = self.deadlines[from];
            // SAFETY: moving a live value into the hole left by the
            // previous iteration (or the popped slot); `from` becomes
            // the new hole.
            let v = unsafe { self.slots[from].assume_init_read() };
            self.slots[to].write(v);
        }
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(item)
    }

    /// Drops every queued item. The high-water mark is preserved.
    pub fn clear(&mut self) {
        if std::mem::needs_drop::<T>() {
            while self.len > 0 {
                drop(self.take_head());
            }
        } else {
            self.len = 0;
        }
        self.head = 0;
    }
}

impl<T> Drop for StampedRing<T> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T: Clone> Clone for StampedRing<T> {
    fn clone(&self) -> StampedRing<T> {
        let mut out = StampedRing::new(self.capacity);
        for (deadline, item) in self.iter() {
            let pushed = out.push_at(deadline, item.clone());
            debug_assert!(pushed.is_ok());
        }
        out.hwm = self.hwm;
        out
    }
}

impl<T: fmt::Debug> fmt::Debug for StampedRing<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StampedRing")
            .field("capacity", &self.capacity)
            .field("items", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// A fixed-latency, finite-capacity FIFO.
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    ring: StampedRing<T>,
    latency: Cycle,
}

impl<T> DelayQueue<T> {
    /// Creates a queue holding at most `capacity` items, each becoming
    /// poppable `latency` cycles after being pushed.
    ///
    /// `capacity` must be at least 1. A `latency` of 0 makes items
    /// available in the same cycle they were pushed (combinational path).
    pub fn new(capacity: usize, latency: Cycle) -> DelayQueue<T> {
        DelayQueue { ring: StampedRing::new(capacity), latency }
    }

    /// `true` if another item can be pushed this cycle.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.ring.can_push()
    }

    /// Pushes an item at cycle `now`. Returns `Err(item)` when full so the
    /// caller can hold it (back-pressure) without cloning.
    #[inline]
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), T> {
        self.ring.push_at(now + self.latency, item)
    }

    /// `true` if the head item is ready to pop at cycle `now`.
    #[inline]
    pub fn head_ready(&self, now: Cycle) -> bool {
        self.ring.head_ready(now)
    }

    /// A reference to the head item if it is ready at `now`.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        self.ring.peek(now)
    }

    /// Pops the head item if it is ready at `now`.
    #[inline]
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        self.ring.pop(now)
    }

    /// Number of items currently queued (ready or still in flight).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no items are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// The configured latency in cycles.
    #[inline]
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Largest occupancy the queue has ever reached (see
    /// [`StampedRing::high_water`]).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.ring.high_water()
    }

    /// Iterates over all queued items, oldest first, regardless of
    /// readiness. Used by schedulers that look ahead into a window.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter().map(|(_, item)| item)
    }

    /// Delivery time of the oldest queued item, if any.
    ///
    /// Because the latency is constant, ready times are monotone in queue
    /// order, so this is the earliest cycle at which `pop` can succeed —
    /// the queue's contribution to a next-event horizon.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.ring.next_ready_at()
    }

    /// Number of leading items whose delay has elapsed at `now`.
    ///
    /// Because the latency is constant, ready times are monotone in queue
    /// order, so the ready items are exactly the first `ready_len` ones.
    #[inline]
    pub fn ready_len(&self, now: Cycle) -> usize {
        self.ring.ready_len(now)
    }

    /// A reference to the `idx`-th queued item (oldest = 0) if it is
    /// ready at `now`.
    #[inline]
    pub fn peek_at(&self, now: Cycle, idx: usize) -> Option<&T> {
        self.ring.peek_at(now, idx)
    }

    /// Delivery time of the `idx`-th queued item (oldest = 0), ready or
    /// not — the first cycle at which it enters the ready window.
    #[inline]
    pub fn deadline_at(&self, idx: usize) -> Option<Cycle> {
        self.ring.deadline_at(idx)
    }

    /// Removes and returns the `idx`-th queued item (oldest = 0) if it is
    /// ready at `now`. Supports out-of-order service within a window
    /// (e.g. FR-FCFS memory scheduling); FIFO order is the `idx == 0` case.
    #[inline]
    pub fn pop_at(&mut self, now: Cycle, idx: usize) -> Option<T> {
        self.ring.pop_at(now, idx)
    }

    /// Drops every queued item.
    pub fn clear(&mut self) {
        self.ring.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_latency() {
        let mut q = DelayQueue::new(4, 3);
        q.push(10, "a").unwrap();
        assert!(q.pop(10).is_none());
        assert!(q.pop(12).is_none());
        assert_eq!(q.pop(13), Some("a"));
    }

    #[test]
    fn zero_latency_same_cycle() {
        let mut q = DelayQueue::new(2, 0);
        q.push(5, 42).unwrap();
        assert_eq!(q.pop(5), Some(42));
    }

    #[test]
    fn backpressure_when_full() {
        let mut q = DelayQueue::new(2, 0);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        assert!(!q.can_push());
        assert_eq!(q.push(0, 3), Err(3));
        q.pop(0);
        assert!(q.can_push());
        q.push(0, 3).unwrap();
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DelayQueue::new(8, 1);
        for i in 0..5 {
            q.push(i, i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(100), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = DelayQueue::new(2, 0);
        q.push(0, 9).unwrap();
        assert_eq!(q.peek(0), Some(&9));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(0), Some(9));
    }

    #[test]
    fn pop_at_out_of_order() {
        let mut q = DelayQueue::new(8, 0);
        q.push(0, "a").unwrap();
        q.push(0, "b").unwrap();
        q.push(0, "c").unwrap();
        assert_eq!(q.pop_at(0, 1), Some("b"));
        assert_eq!(q.pop(0), Some("a"));
        assert_eq!(q.pop(0), Some("c"));
    }

    #[test]
    fn pop_at_respects_readiness() {
        let mut q = DelayQueue::new(8, 5);
        q.push(0, "a").unwrap();
        assert_eq!(q.pop_at(3, 0), None);
        assert_eq!(q.pop_at(5, 0), Some("a"));
    }

    #[test]
    fn head_not_ready_blocks_later_items() {
        // FIFO semantics: a ready item behind an unready head is not
        // poppable via `pop` (only via `pop_at` with explicit index).
        let mut q = DelayQueue::new(8, 10);
        q.push(0, "slow").unwrap();
        q.push(0, "also-slow").unwrap();
        assert!(q.pop(5).is_none());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: DelayQueue<u8> = DelayQueue::new(0, 0);
    }

    #[test]
    fn non_power_of_two_capacity_enforced_exactly() {
        // Logical capacity 5 back-pressures at 5 even though physical
        // storage rounds up to 8.
        let mut q = DelayQueue::new(5, 0);
        for i in 0..5 {
            q.push(0, i).unwrap();
        }
        assert_eq!(q.push(0, 99), Err(99));
        assert_eq!(q.capacity(), 5);
    }

    #[test]
    fn wraparound_many_times() {
        let mut q = DelayQueue::new(3, 2);
        let mut expect = 0u64;
        for round in 0..50u64 {
            let now = round * 10;
            q.push(now, round * 2).unwrap();
            q.push(now, round * 2 + 1).unwrap();
            assert_eq!(q.pop(now + 2), Some(expect));
            assert_eq!(q.pop(now + 2), Some(expect + 1));
            expect += 2;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut q = DelayQueue::new(8, 0);
        assert_eq!(q.high_water(), 0);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        q.push(0, 3).unwrap();
        q.pop(0);
        q.pop(0);
        q.push(1, 4).unwrap();
        assert_eq!(q.high_water(), 3);
        q.clear();
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn clone_preserves_contents_and_drops_cleanly() {
        let mut q = DelayQueue::new(4, 1);
        q.push(0, String::from("x")).unwrap();
        q.push(1, String::from("y")).unwrap();
        q.pop(2);
        let mut c = q.clone();
        assert_eq!(c.len(), 1);
        assert_eq!(c.pop(10), Some(String::from("y")));
        assert_eq!(q.len(), 1); // original untouched
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn stamped_ring_explicit_deadlines() {
        let mut r: StampedRing<u32> = StampedRing::new(4);
        r.push_at(7, 1).unwrap();
        r.push_at(9, 2).unwrap();
        assert_eq!(r.next_ready_at(), Some(7));
        assert_eq!(r.front(), Some((7, &1)));
        assert!(r.pop(6).is_none());
        assert_eq!(r.pop(7), Some(1));
        assert_eq!(r.pop(9), Some(2));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Items come out in insertion order and never before
        /// `push_time + latency`, under arbitrary interleavings of pushes
        /// and pops.
        #[test]
        fn fifo_and_latency_invariants(
            latency in 0u64..8,
            capacity in 1usize..16,
            ops in proptest::collection::vec(0u8..4, 1..200),
        ) {
            let mut q = DelayQueue::new(capacity, latency);
            let mut now = 0u64;
            let mut pushed = 0u64; // value == push order
            let mut popped_expect = 0u64;
            let mut push_times = std::collections::HashMap::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        if q.push(now, pushed).is_ok() {
                            push_times.insert(pushed, now);
                            pushed += 1;
                        }
                        prop_assert!(q.len() <= capacity);
                    }
                    2 => {
                        if let Some(v) = q.pop(now) {
                            prop_assert_eq!(v, popped_expect);
                            let t = push_times[&v];
                            prop_assert!(now >= t + latency);
                            popped_expect += 1;
                        }
                    }
                    _ => now += 1,
                }
            }
        }
    }

    /// The pre-ring implementation, kept verbatim as the reference
    /// model: a `VecDeque<(Cycle, T)>` with the same contract.
    struct OracleQueue<T> {
        items: VecDeque<(Cycle, T)>,
        capacity: usize,
        latency: Cycle,
    }

    impl<T> OracleQueue<T> {
        fn new(capacity: usize, latency: Cycle) -> OracleQueue<T> {
            OracleQueue { items: VecDeque::new(), capacity, latency }
        }
        fn push(&mut self, now: Cycle, item: T) -> Result<(), T> {
            if self.items.len() >= self.capacity {
                return Err(item);
            }
            self.items.push_back((now + self.latency, item));
            Ok(())
        }
        fn peek(&self, now: Cycle) -> Option<&T> {
            match self.items.front() {
                Some((t, item)) if *t <= now => Some(item),
                _ => None,
            }
        }
        fn pop(&mut self, now: Cycle) -> Option<T> {
            match self.items.front() {
                Some((t, _)) if *t <= now => self.items.pop_front().map(|(_, i)| i),
                _ => None,
            }
        }
        fn peek_at(&self, now: Cycle, idx: usize) -> Option<&T> {
            match self.items.get(idx) {
                Some((t, item)) if *t <= now => Some(item),
                _ => None,
            }
        }
        fn pop_at(&mut self, now: Cycle, idx: usize) -> Option<T> {
            match self.items.get(idx) {
                Some((t, _)) if *t <= now => self.items.remove(idx).map(|(_, i)| i),
                _ => None,
            }
        }
        fn ready_len(&self, now: Cycle) -> usize {
            self.items.partition_point(|(t, _)| *t <= now)
        }
        fn next_ready_at(&self) -> Option<Cycle> {
            self.items.front().map(|(t, _)| *t)
        }
    }

    /// One scripted operation against both implementations.
    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Pop,
        Peek,
        PopAt(usize),
        PeekAt(usize),
        ReadyLen,
        Advance(u64),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // (op selector, index / advance argument) → Op. Push and pop
        // dominate; clear is rare so runs build real occupancy.
        (0u8..17, 0usize..20, 1u64..5).prop_map(|(sel, idx, d)| match sel {
            0..=4 => Op::Push,
            5..=8 => Op::Pop,
            9..=10 => Op::Peek,
            11..=12 => Op::PopAt(idx),
            13 => Op::PeekAt(idx),
            14 => Op::ReadyLen,
            15 => Op::Advance(d),
            _ => Op::Clear,
        })
    }

    proptest! {
        /// Ring vs. VecDeque oracle: every observable — push results
        /// (including the full-queue `Err(item)` back-pressure return),
        /// pop/peek values, indexed access, ready counts, horizons,
        /// lengths — agrees on arbitrary operation interleavings. Small
        /// capacities force many wraparounds; `latency == 0` exercises
        /// the combinational path.
        #[test]
        fn ring_matches_vecdeque_oracle(
            latency in 0u64..6,
            capacity in 1usize..12,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut ring = DelayQueue::new(capacity, latency);
            let mut oracle = OracleQueue::new(capacity, latency);
            let mut now = 0u64;
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Push => {
                        let (a, b) = (ring.push(now, next), oracle.push(now, next));
                        prop_assert_eq!(a, b, "push disagreement at {}", now);
                        next += 1;
                    }
                    Op::Pop => {
                        prop_assert_eq!(ring.pop(now), oracle.pop(now));
                    }
                    Op::Peek => {
                        prop_assert_eq!(ring.peek(now), oracle.peek(now));
                        prop_assert_eq!(ring.head_ready(now), oracle.peek(now).is_some());
                    }
                    Op::PopAt(idx) => {
                        prop_assert_eq!(ring.pop_at(now, idx), oracle.pop_at(now, idx));
                    }
                    Op::PeekAt(idx) => {
                        prop_assert_eq!(ring.peek_at(now, idx), oracle.peek_at(now, idx));
                    }
                    Op::ReadyLen => {
                        prop_assert_eq!(ring.ready_len(now), oracle.ready_len(now));
                    }
                    Op::Advance(d) => now += d,
                    Op::Clear => {
                        ring.clear();
                        oracle.items.clear();
                    }
                }
                prop_assert_eq!(ring.len(), oracle.items.len());
                prop_assert_eq!(ring.is_empty(), oracle.items.is_empty());
                prop_assert_eq!(ring.next_ready_at(), oracle.next_ready_at());
                prop_assert!(ring.iter().eq(oracle.items.iter().map(|(_, i)| i)));
            }
        }

        /// Same oracle comparison for the raw [`StampedRing`] with
        /// explicit (non-decreasing) deadlines — the lateral-channel use
        /// where the stamp is not `now + constant`.
        #[test]
        fn stamped_ring_matches_oracle(
            capacity in 1usize..10,
            ops in proptest::collection::vec((0u8..4, 0u64..4), 1..200),
        ) {
            let mut ring: StampedRing<u64> = StampedRing::new(capacity);
            let mut oracle: VecDeque<(u64, u64)> = VecDeque::new();
            let mut now = 0u64;
            let mut stamp = 0u64;
            let mut next = 0u64;
            for (op, arg) in ops {
                match op {
                    0 | 1 => {
                        stamp += arg; // non-decreasing, decoupled from `now`
                        let a = ring.push_at(stamp, next);
                        let b = if oracle.len() >= capacity {
                            Err(next)
                        } else {
                            oracle.push_back((stamp, next));
                            Ok(())
                        };
                        prop_assert_eq!(a, b);
                        next += 1;
                    }
                    2 => {
                        let expect = match oracle.front() {
                            Some((t, _)) if *t <= now => oracle.pop_front().map(|(_, i)| i),
                            _ => None,
                        };
                        prop_assert_eq!(ring.pop(now), expect);
                    }
                    _ => now += arg,
                }
                prop_assert_eq!(ring.len(), oracle.len());
                prop_assert_eq!(ring.next_ready_at(), oracle.front().map(|(t, _)| *t));
                prop_assert_eq!(
                    ring.front().map(|(t, i)| (t, *i)),
                    oracle.front().map(|(t, i)| (*t, *i))
                );
                prop_assert!(ring.iter().map(|(t, i)| (t, *i)).eq(oracle.iter().copied()));
            }
        }
    }
}
