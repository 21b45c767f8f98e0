//! Per-master transaction stream generator.

use hbm_axi::{Addr, Cycle, Dir, MasterId, OutstandingTracker, Transaction, TxnBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::GenStats;
use crate::workload::{Pattern, Workload};

/// Generates one bus master's transaction stream for a [`Workload`].
///
/// Protocol with the simulation loop, per cycle:
///
/// 1. [`poll`](BmTrafficGen::poll) returns the head-of-line transaction
///    (generating it if needed) — offer it to the interconnect;
/// 2. on acceptance call [`accepted`](BmTrafficGen::accepted), otherwise
///    re-offer the same transaction next cycle;
/// 3. for every delivered completion call
///    [`completed`](BmTrafficGen::completed).
#[derive(Debug)]
pub struct BmTrafficGen {
    master: MasterId,
    num_masters: usize,
    port_capacity: u64,
    wl: Workload,
    builder: TxnBuilder,
    tracker: OutstandingTracker,
    rng: SmallRng,
    pending: Option<Transaction>,
    /// Per-direction linear position counters (strided patterns).
    pos: [u64; 2],
    /// Transaction counter driving the read/write sequence.
    n: u64,
    max_txns: Option<u64>,
    stats: GenStats,
}

fn dir_idx(dir: Dir) -> usize {
    match dir {
        Dir::Read => 0,
        Dir::Write => 1,
    }
}

impl BmTrafficGen {
    /// A generator for `master` out of `num_masters`, over pseudo-channel
    /// partitions of `port_capacity` bytes. `max_txns` bounds the stream
    /// (`None` = unbounded, for fixed-horizon throughput runs).
    pub fn new(
        master: MasterId,
        num_masters: usize,
        port_capacity: u64,
        wl: Workload,
        max_txns: Option<u64>,
    ) -> BmTrafficGen {
        wl.validate().expect("invalid workload");
        match wl.pattern {
            Pattern::Scs | Pattern::Scra => assert!(
                wl.working_set <= port_capacity,
                "single-channel working set exceeds the partition"
            ),
            Pattern::Ccs | Pattern::Ccra => assert!(
                wl.working_set <= num_masters as u64 * port_capacity,
                "working set exceeds device capacity"
            ),
        }
        BmTrafficGen {
            builder: TxnBuilder::new(master),
            tracker: OutstandingTracker::new(wl.num_ids, wl.outstanding),
            rng: SmallRng::seed_from_u64(
                wl.seed ^ (master.0 as u64).wrapping_mul(0x9E3779B97F4A7C15),
            ),
            pending: None,
            pos: [0, 0],
            n: 0,
            stats: GenStats::default(),
            master,
            num_masters,
            port_capacity,
            wl,
            max_txns,
        }
    }

    /// The workload driving this generator.
    pub fn workload(&self) -> &Workload {
        &self.wl
    }

    /// `true` when every transaction this generator will *ever* issue
    /// stays inside its own pseudo-channel partition — a single-channel
    /// pattern with no effective rotation offset. The wake-driven kernel
    /// uses this hint to widen shard-synchronisation windows (such
    /// traffic can never cross a lateral bus); it must be conservative,
    /// so any cross-channel or rotated workload reports `false`.
    pub fn port_affine(&self) -> bool {
        matches!(self.wl.pattern, Pattern::Scs | Pattern::Scra)
            && self.wl.rotation.is_multiple_of(self.num_masters)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &GenStats {
        &self.stats
    }

    /// Clears statistics after a warm-up phase (in-flight transactions
    /// keep completing and are counted fresh).
    pub fn reset_stats(&mut self) {
        self.stats = GenStats::default();
    }

    /// `true` once the stream limit is reached and the head of line is
    /// clear.
    pub fn exhausted(&self) -> bool {
        self.pending.is_none() && self.max_txns.is_some_and(|m| self.n >= m)
    }

    /// `true` when additionally no transaction is in flight.
    pub fn drained(&self) -> bool {
        self.exhausted() && self.tracker.total_in_flight() == 0
    }

    /// Transactions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.tracker.total_in_flight()
    }

    /// A lower bound on the first cycle ≥ `now` at which
    /// [`poll`](Self::poll) could
    /// return a transaction, assuming no completion is delivered in the
    /// meantime: `Some(now)` whenever the head of line is occupied or a
    /// new transaction could be generated, `None` when the generator
    /// only wakes on a completion (outstanding limit) or never again
    /// (stream exhausted). Mirrors `poll`'s early-out conditions, which
    /// are side-effect free.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.pending.is_some() {
            return Some(now);
        }
        if self.max_txns.is_some_and(|m| self.n >= m) {
            return None;
        }
        let dir = if self.wl.rw.is_read(self.n) { Dir::Read } else { Dir::Write };
        if self.tracker.can_issue(dir) {
            Some(now)
        } else {
            None
        }
    }

    /// Returns the head-of-line transaction to offer this cycle, if the
    /// stream and the outstanding limit allow one.
    pub fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        if self.pending.is_none() {
            if self.max_txns.is_some_and(|m| self.n >= m) {
                return None;
            }
            let dir = if self.wl.rw.is_read(self.n) { Dir::Read } else { Dir::Write };
            if !self.tracker.can_issue(dir) {
                return None;
            }
            let addr = self.gen_addr(dir);
            let id = self.tracker.pick_id(self.builder.issued());
            let txn = self
                .builder
                .issue(id, addr, self.wl.burst, dir, now)
                .expect("generator produced an illegal burst");
            self.tracker.issue(dir, id, txn.seq);
            self.pos[dir_idx(dir)] += 1;
            self.n += 1;
            self.pending = Some(txn);
        }
        self.pending
    }

    /// Marks the pending transaction as accepted by the interconnect.
    pub fn accepted(&mut self) {
        assert!(self.pending.take().is_some(), "no pending transaction");
        self.stats.issued += 1;
    }

    /// Records a delivered completion, updating latency statistics and
    /// checking the AXI same-ID ordering rule.
    pub fn completed(
        &mut self,
        now: Cycle,
        txn: &Transaction,
    ) -> Result<(), hbm_axi::tracker::OrderViolation> {
        self.tracker.complete(txn.dir, txn.id, txn.seq)?;
        self.stats.record_completion(txn, now);
        Ok(())
    }

    /// Generates the next address for `dir` according to the pattern.
    ///
    /// Reads use the first half of the working set and writes the second,
    /// so mixed traffic reads and writes disjoint data (like a streaming
    /// kernel reading inputs and writing outputs).
    fn gen_addr(&mut self, dir: Dir) -> Addr {
        let chunk = self.wl.burst.bytes();
        // Strided patterns split the working set into a read region and a
        // write region (streaming kernels read inputs, write outputs).
        // Random patterns scatter both directions over the whole set —
        // the paper's RA definition has no layout structure to preserve.
        let random = matches!(self.wl.pattern, Pattern::Scra | Pattern::Ccra);
        let half = if random { self.wl.working_set } else { (self.wl.working_set / 2).max(chunk) };
        // Region sized in whole strides so positions wrap cleanly.
        let strides_in_region = (half / self.wl.stride).max(1);
        let region_base = match dir {
            Dir::Read => 0,
            Dir::Write if random => 0,
            Dir::Write => half,
        };
        let i = self.master.idx() as u64;
        let n = self.num_masters as u64;
        let raw = match self.wl.pattern {
            Pattern::Scs => {
                let pos = self.pos[dir_idx(dir)];
                (pos % strides_in_region) * self.wl.stride
            }
            Pattern::Ccs => {
                // Masters take globally consecutive chunks in turn.
                let pos = self.pos[dir_idx(dir)];
                ((pos * n + i) % strides_in_region) * self.wl.stride
            }
            Pattern::Scra | Pattern::Ccra => {
                self.rng.random_range(0..strides_in_region) * self.wl.stride
            }
        };
        let base = match self.wl.pattern {
            Pattern::Scs | Pattern::Scra => {
                let port = (self.master.idx() + self.wl.rotation) % self.num_masters;
                port as u64 * self.port_capacity
            }
            Pattern::Ccs | Pattern::Ccra => 0,
        };
        legalize(base + region_base + raw, chunk)
    }
}

/// Aligns `addr` down so a burst of `bytes` neither crosses a 4 KiB
/// boundary nor loses beat alignment. For power-of-two burst sizes this
/// is plain alignment; for odd burst lengths it additionally snaps away
/// from the page edge.
fn legalize(addr: Addr, bytes: u64) -> Addr {
    let mut a = addr - addr % 32;
    if a % 4096 + bytes > 4096 {
        a -= a % 4096 + bytes - 4096;
        a -= a % 32;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RwRatio;

    const CAP: u64 = 256 << 20;

    fn gen(wl: Workload, master: u16) -> BmTrafficGen {
        BmTrafficGen::new(MasterId(master), 32, CAP, wl, None)
    }

    #[test]
    fn scs_stays_in_own_partition() {
        let mut g = gen(Workload::scs(), 5);
        for _ in 0..100 {
            let t = g.poll(0).unwrap();
            g.accepted();
            g.completed(10, &t).unwrap();
            assert_eq!(t.addr / CAP, 5, "SCS must stay on its own channel");
        }
    }

    #[test]
    fn scs_rotation_targets_offset_channel() {
        let mut wl = Workload::scs();
        wl.rotation = 3;
        let mut g = gen(wl, 30);
        let t = g.poll(0).unwrap();
        assert_eq!(t.addr / CAP, (30 + 3) % 32);
    }

    #[test]
    fn scs_reads_stride_linearly() {
        let mut wl = Workload::scs();
        wl.rw = RwRatio::READ_ONLY;
        let mut g = gen(wl, 0);
        let mut last = None;
        for _ in 0..10 {
            let t = g.poll(0).unwrap();
            g.accepted();
            g.completed(1, &t).unwrap();
            if let Some(prev) = last {
                assert_eq!(t.addr, prev + 512, "dense stride");
            }
            last = Some(t.addr);
        }
    }

    #[test]
    fn ccs_masters_interleave_chunks() {
        let wl = Workload { rw: RwRatio::READ_ONLY, ..Workload::ccs() };
        let mut g0 = gen(wl, 0);
        let mut g1 = gen(wl, 1);
        let t0 = g0.poll(0).unwrap();
        let t1 = g1.poll(0).unwrap();
        assert_eq!(t0.addr, 0);
        assert_eq!(t1.addr, 512, "master 1 takes the globally next chunk");
    }

    #[test]
    fn ccs_hotspot_on_contiguous_map() {
        // All CCS addresses fall inside the 64 MiB buffer → one PCH under
        // the contiguous map.
        let wl = Workload::ccs();
        for m in [0u16, 7, 31] {
            let mut g = gen(wl, m);
            for _ in 0..50 {
                let t = g.poll(0).unwrap();
                g.accepted();
                g.completed(1, &t).unwrap();
                assert!(t.addr < 64 << 20);
            }
        }
    }

    #[test]
    fn reads_and_writes_use_disjoint_halves() {
        let mut g = gen(Workload::ccs(), 0);
        for _ in 0..60 {
            let t = g.poll(0).unwrap();
            g.accepted();
            g.completed(1, &t).unwrap();
            match t.dir {
                Dir::Read => assert!(t.addr < 32 << 20),
                Dir::Write => assert!(t.addr >= 32 << 20),
            }
        }
    }

    #[test]
    fn rw_sequence_follows_ratio() {
        let mut g = gen(Workload::ccs(), 0);
        let mut dirs = Vec::new();
        for _ in 0..6 {
            let t = g.poll(0).unwrap();
            g.accepted();
            g.completed(1, &t).unwrap();
            dirs.push(t.dir);
        }
        assert_eq!(dirs, [Dir::Read, Dir::Read, Dir::Write, Dir::Read, Dir::Read, Dir::Write]);
    }

    #[test]
    fn outstanding_limit_blocks_poll() {
        let mut wl = Workload::ccs();
        wl.outstanding = 2;
        wl.rw = RwRatio::READ_ONLY;
        let mut g = gen(wl, 0);
        let t0 = g.poll(0).unwrap();
        g.accepted();
        let _t1 = g.poll(1).unwrap();
        g.accepted();
        assert!(g.poll(2).is_none(), "limit 2 reached");
        g.completed(5, &t0).unwrap();
        assert!(g.poll(6).is_some());
    }

    #[test]
    fn pending_is_sticky_until_accepted() {
        let mut g = gen(Workload::ccs(), 0);
        let t0 = g.poll(0).unwrap();
        let t1 = g.poll(1).unwrap();
        assert_eq!(t0, t1, "head of line retried, not regenerated");
        g.accepted();
        let t2 = g.poll(2).unwrap();
        assert_ne!(t0.addr, t2.addr);
    }

    #[test]
    fn max_txns_limits_stream() {
        let mut g = BmTrafficGen::new(MasterId(0), 32, CAP, Workload::ccs(), Some(3));
        let mut seen = Vec::new();
        for now in 0..10 {
            if let Some(t) = g.poll(now) {
                g.accepted();
                seen.push(t);
            }
        }
        assert_eq!(seen.len(), 3);
        assert!(g.exhausted());
        assert!(!g.drained(), "completions still outstanding");
        for t in &seen {
            g.completed(20, t).unwrap();
        }
        assert!(g.drained());
    }

    #[test]
    fn latency_stats_recorded() {
        let mut g = gen(Workload::ccs(), 0);
        let t = g.poll(10).unwrap();
        g.accepted();
        g.completed(58, &t).unwrap();
        assert_eq!(g.stats().read_lat.mean(), Some(48.0));
        assert_eq!(g.stats().bytes_read, 512);
        g.reset_stats();
        assert_eq!(g.stats().completed, 0);
    }

    #[test]
    fn random_patterns_are_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut g = gen(Workload::ccra(), 3);
            (0..20)
                .map(|i| {
                    let t = g.poll(i).unwrap();
                    g.accepted();
                    g.completed(i + 1, &t).unwrap();
                    t.addr
                })
                .collect()
        };
        let b: Vec<u64> = {
            let mut g = gen(Workload::ccra(), 3);
            (0..20)
                .map(|i| {
                    let t = g.poll(i).unwrap();
                    g.accepted();
                    g.completed(i + 1, &t).unwrap();
                    t.addr
                })
                .collect()
        };
        assert_eq!(a, b);
        // And different masters see different streams.
        let c: Vec<u64> = {
            let mut g = gen(Workload::ccra(), 4);
            (0..20)
                .map(|i| {
                    let t = g.poll(i).unwrap();
                    g.accepted();
                    g.completed(i + 1, &t).unwrap();
                    t.addr
                })
                .collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn full_lap_rotation_is_port_affine() {
        let mut wl = Workload::scs();
        wl.rotation = 32;
        assert!(gen(wl, 9).port_affine());
        wl.rotation = 3;
        assert!(!gen(wl, 9).port_affine());
    }

    #[test]
    fn legalize_avoids_4k_crossing() {
        // 384 B burst near a page edge is snapped back.
        let a = legalize(4000, 384);
        assert!(a.is_multiple_of(32));
        assert!(a % 4096 + 384 <= 4096);
        // Aligned power-of-two bursts pass through.
        assert_eq!(legalize(512, 512), 512);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hbm_axi::BurstLen;
    use proptest::prelude::*;

    proptest! {
        /// Every generated transaction is legal (the TxnBuilder would
        /// panic otherwise) and inside the working region for its pattern.
        #[test]
        fn generated_streams_are_legal_and_in_range(
            pattern_sel in 0u8..4,
            beats in prop::sample::select(vec![1u8, 2, 4, 8, 16]),
            stride_mult in 1u64..16,
            rotation in 0usize..32,
            seed in any::<u64>(),
        ) {
            let pattern = match pattern_sel {
                0 => Pattern::Scs,
                1 => Pattern::Ccs,
                2 => Pattern::Scra,
                _ => Pattern::Ccra,
            };
            let burst = BurstLen::of(beats);
            let wl = Workload {
                pattern,
                burst,
                stride: burst.bytes() * stride_mult,
                rotation,
                seed,
                ..Workload::ccs()
            };
            let mut g = BmTrafficGen::new(MasterId(7), 32, 256 << 20, wl, None);
            for i in 0..200u64 {
                let t = g.poll(i).unwrap();
                g.accepted();
                g.completed(i + 1, &t).unwrap();
                // In range of the device.
                prop_assert!(t.end_addr() <= 32 * (256u64 << 20));
                match pattern {
                    Pattern::Scs | Pattern::Scra => {
                        let port = (7 + rotation) % 32;
                        prop_assert_eq!(t.addr / (256 << 20), port as u64);
                    }
                    Pattern::Ccs | Pattern::Ccra => {
                        prop_assert!(t.end_addr() <= 64 << 20);
                    }
                }
            }
        }

        /// legalize() output is always beat-aligned and 4 KiB safe.
        #[test]
        fn legalize_invariants(addr in 0u64..(1 << 30), beats in 1u8..=16) {
            let bytes = beats as u64 * 32;
            let a = legalize(addr, bytes);
            prop_assert_eq!(a % 32, 0);
            prop_assert!(a % 4096 + bytes <= 4096);
            prop_assert!(a <= addr);
        }
    }
}
