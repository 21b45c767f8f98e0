//! Memory controller: AXI→DDR conversion and request scheduling.
//!
//! One controller front-ends one pseudo-channel. Its scheduler implements
//! a bounded-window FR-FCFS policy with direction batching:
//!
//! * it examines up to `window` queued requests,
//! * a request is *eligible* only if no older queued request shares its
//!   (master, AXI ID, direction) — the AXI same-ID ordering rule; this is
//!   exactly the mechanism the paper varies in Fig. 6 (more independent
//!   IDs → more scheduling freedom),
//! * among eligible requests it prefers the current bus direction (up to
//!   `dir_batch` in a row, amortising turnarounds), then row hits
//!   (FR-FCFS), then age.
//!
//! Writes are *posted*: the B acknowledge is produced when the controller
//! accepts the transaction, which is why the paper measures a local write
//! latency of only 17 cycles against 48 for reads.
//!
//! # Incremental scheduling
//!
//! The pick is computed *incrementally*: the controller caches the best
//! candidate (plus how much of the window it has examined) and re-scans
//! only entries it has not seen yet. Everything the score depends on —
//! bank open rows, `last_dir`/`dir_run`, queue order — changes **only**
//! when a burst is issued, so the cache is invalidated at exactly two
//! points (see `SchedCache`). Between invalidations a tick costs O(new
//! entries), which is O(1) on the busy-idle ticks that dominate a
//! gate-limited stream; `debug_assert` cross-checks every pick against a
//! stateless re-scan, and `tests/mc_scheduler_equivalence.rs` does the
//! same under random interleavings in release mode.

use hbm_axi::{
    AxiId, ClockDomain, Completion, Cycle, DelayQueue, Dir, MasterId, Tracer, Transaction,
};

use crate::bank::BanksMut;
use crate::config::{HbmConfig, McConfig};
use crate::pch::PchDram;
use crate::stats::MemStats;

/// Cached FR-FCFS scan state. Valid while nothing that feeds the score
/// changes; the events that *can* change it, and how they are handled:
///
/// | event                      | effect on cache                        |
/// |----------------------------|----------------------------------------|
/// | burst issued (`tick`)      | cleared — queue shifted, bank/dir state mutated |
/// | read completion popped while the cache was computed with a full response queue | cleared — reads become eligible again |
/// | new request accepted       | kept — appended at index ≥ `examined`, scanned incrementally on the next pick |
/// | time passes                | kept — more entries become ready, same incremental re-scan |
/// | ack popped / refresh due   | kept — neither feeds the score (refresh is accounted lazily inside `execute_burst`) |
#[derive(Debug, Clone, Copy)]
struct SchedCache {
    /// Entries `0..examined` have been scanned; their `(master, id, dir)`
    /// keys are in `seen_keys`, in order.
    examined: usize,
    /// Whether reads were eligible when the scan ran (`resp_q.can_push()`
    /// at the time). A pick under a different read-eligibility regime
    /// cannot reuse the scan.
    allow_reads: bool,
    /// Best candidate so far: `(queue index, score)`.
    best: Option<(usize, u32)>,
}

/// Memory controller for one pseudo-channel.
#[derive(Debug)]
pub struct MemoryController {
    /// Controller knobs (small `Copy` struct — the controller does not
    /// retain the full [`HbmConfig`]; geometry and timing live in the
    /// [`PchDram`], bank rows in the system-owned `BankPool`).
    mc: McConfig,
    clock: ClockDomain,
    req_q: DelayQueue<Transaction>,
    resp_q: DelayQueue<Completion>,
    ack_q: DelayQueue<Completion>,
    dram: PchDram,
    last_dir: Dir,
    dir_run: usize,
    /// Scheduling scratch: `(master, id, dir)` keys of the window entries
    /// examined so far. Persists with [`SchedCache`] across ticks so an
    /// incremental re-scan can extend it; reused (never reallocated) to
    /// keep the per-cycle scheduler allocation-free.
    seen_keys: Vec<(MasterId, AxiId, Dir)>,
    /// Cached scan state; `None` after any invalidating event.
    sched: Option<SchedCache>,
    /// PCH-local base: global address minus this gives the PCH offset.
    /// The fabric's address map decides which controller sees a
    /// transaction; the controller only needs the local offset, so the
    /// mapping function is injected per transaction instead.
    offset_mask: u64,
}

impl MemoryController {
    /// A controller for one PCH. `refresh_phase` staggers refresh across
    /// channels (pass e.g. `pch_index as f64 / num_pch as f64 * tREFI`).
    pub fn new(cfg: &HbmConfig, clock: ClockDomain, refresh_phase: f64) -> MemoryController {
        MemoryController {
            req_q: DelayQueue::new(cfg.mc.queue_depth, cfg.mc.req_latency),
            resp_q: DelayQueue::new(cfg.mc.resp_depth, cfg.mc.resp_latency),
            ack_q: DelayQueue::new(cfg.mc.queue_depth, cfg.mc.resp_latency),
            dram: PchDram::new(cfg, refresh_phase),
            last_dir: Dir::Read,
            dir_run: 0,
            seen_keys: Vec::with_capacity(cfg.mc.window),
            sched: None,
            offset_mask: cfg.pch_capacity - 1,
            mc: cfg.mc,
            clock,
        }
    }

    /// `true` if a new transaction can be accepted this cycle.
    ///
    /// Writes additionally require space in the acknowledge queue, since
    /// accepting a posted write produces its B response immediately.
    pub fn can_accept(&self, dir: Dir) -> bool {
        self.req_q.can_push() && (dir == Dir::Read || self.ack_q.can_push())
    }

    /// Accepts a transaction whose *global* address the fabric has already
    /// routed here; only the PCH-local offset (low bits) is used.
    ///
    /// Does not invalidate the scheduling cache: the new entry lands at a
    /// queue index ≥ `examined` and is picked up by the incremental scan.
    ///
    /// Panics if `can_accept` is false — callers must gate on it.
    pub fn accept(&mut self, now: Cycle, txn: Transaction) {
        if txn.dir == Dir::Write {
            // Posted write: acknowledge on acceptance.
            self.ack_q
                .push(now, Completion { txn, produced_at: now })
                .expect("ack queue full; can_accept not honoured");
        }
        self.req_q.push(now, txn).expect("request queue full; can_accept not honoured");
    }

    /// Advances the controller by one cycle: possibly issues one DRAM job.
    /// `banks` is this channel's unit of the system-owned bank pool. A
    /// lent `tracer` takes the DRAM-issue stamp of an issued read; a
    /// posted write's ack never waits on DRAM, so writes take none.
    /// Stamping is observation only and never alters scheduling.
    pub fn tick(&mut self, now: Cycle, banks: &mut BanksMut, tracer: Option<&mut Tracer>) {
        let now_ns = self.clock.cycles_to_ns(now);
        // Issue-ahead gate: don't let the DRAM backlog grow unboundedly.
        if self.dram.bus_free_at() > now_ns + self.mc.lookahead_ns {
            return;
        }
        // Reads need a response slot reserved before issuing; when the
        // response queue is full only writes are considered.
        let allow_reads = self.resp_q.can_push();
        let pick = self.pick_candidate(now, allow_reads, banks);
        debug_assert_eq!(
            pick,
            self.pick_reference(now, allow_reads, banks),
            "incremental pick diverged from stateless re-scan"
        );
        let Some(idx) = pick else {
            return;
        };
        // Issuing shifts the queue and mutates bank/direction state — the
        // one event that invalidates everything the cached scan saw.
        self.sched = None;
        let txn = self.req_q.pop_at(now, idx).expect("candidate vanished");
        let offset = txn.addr & self.offset_mask;
        let timing = self.dram.execute_burst(banks, now_ns, txn.dir, offset, txn.bytes());
        if txn.dir == self.last_dir {
            self.dir_run += 1;
        } else {
            self.last_dir = txn.dir;
            self.dir_run = 1;
        }
        if txn.dir == Dir::Read {
            let finish_cycle = self.clock.ns_to_cycles(timing.finish_ns + self.mc.phy_read_ns);
            if let Some(tr) = tracer {
                // The service time includes the PHY return, matching
                // `produced_at`.
                let data_start = self.clock.ns_to_cycles(timing.first_data_ns);
                tr.dram_issue(&txn, now, data_start.max(now), finish_cycle.max(now));
            }
            self.resp_q
                .push(finish_cycle.max(now), Completion { txn, produced_at: finish_cycle.max(now) })
                .expect("response slot reserved above");
        }
    }

    /// FR-FCFS candidate selection within the window, resuming from the
    /// cached scan when valid. Returns a queue index, or `None` when
    /// nothing is eligible this cycle.
    fn pick_candidate(&mut self, now: Cycle, allow_reads: bool, banks: &BanksMut) -> Option<usize> {
        // Resume where the last scan stopped if its premises still hold:
        // same read eligibility, and the window has only grown (entries
        // already examined kept their indices — only `tick` removes, and
        // it clears the cache). A *later-ready* entry can outscore an
        // earlier one only on a strictly greater score, which the resumed
        // loop handles identically to a full scan.
        let (mut best, start) = match self.sched {
            Some(c) if c.allow_reads == allow_reads => {
                if c.examined == self.mc.window {
                    // The full window was already scanned and entries only
                    // leave through `tick` (which clears the cache), so
                    // there is nothing new to examine: the cached answer
                    // is the answer, without touching the queue at all.
                    return c.best.map(|(i, _)| i);
                }
                (c.best, c.examined)
            }
            _ => {
                self.seen_keys.clear();
                (None, 0)
            }
        };
        // Ready times are monotone in queue order (constant insertion
        // latency), so scanning until the first not-yet-ready entry covers
        // exactly `min(window, ready_len)` — without the binary search a
        // `ready_len` call would cost on every gate-open tick.
        let mut i = start;
        while i < self.mc.window {
            let Some(txn) = self.req_q.peek_at(now, i) else {
                break;
            };
            // AXI same-ID ordering: an older queued request with the same
            // (master, id, dir) must go first. `seen_keys` holds the keys of
            // entries 0..i, so one contiguous scan replaces re-walking the
            // queue per candidate.
            let key = (txn.master, txn.id, txn.dir);
            let blocked = self.seen_keys.contains(&key);
            self.seen_keys.push(key);
            let eligible = !blocked && (allow_reads || txn.dir != Dir::Read);
            if eligible {
                let same_dir = txn.dir == self.last_dir;
                let prefer_dir = if self.dir_run < self.mc.dir_batch {
                    same_dir
                } else {
                    // Batch exhausted: prefer the other direction if present.
                    !same_dir
                };
                let offset = txn.addr & self.offset_mask;
                let hit = self.dram.would_hit(banks, offset);
                // Score: direction preference (4) > row hit (2) > age.
                let score = (prefer_dir as u32) * 4 + (hit as u32) * 2;
                match best {
                    Some((_, s)) if s >= score => {}
                    _ => best = Some((i, score)),
                }
            }
            i += 1;
        }
        self.sched = Some(SchedCache { examined: i, allow_reads, best });
        best.map(|(i, _)| i)
    }

    /// Stateless FR-FCFS re-scan — the scheduling policy written as one
    /// self-contained O(window²) pass with no cache and no scratch state.
    /// `pick_candidate` must agree with this on every call; `tick` checks
    /// it under `debug_assert` and the scheduler-equivalence proptest
    /// checks it in release builds via [`scheduler_picks`](Self::scheduler_picks).
    fn pick_reference(&self, now: Cycle, allow_reads: bool, banks: &BanksMut) -> Option<usize> {
        let window = self.mc.window.min(self.req_q.ready_len(now));
        let mut best: Option<(usize, u32)> = None;
        for (i, txn) in self.req_q.iter().take(window).enumerate() {
            let blocked = self
                .req_q
                .iter()
                .take(i)
                .any(|t| t.master == txn.master && t.id == txn.id && t.dir == txn.dir);
            if blocked || (!allow_reads && txn.dir == Dir::Read) {
                continue;
            }
            let same_dir = txn.dir == self.last_dir;
            let prefer_dir = if self.dir_run < self.mc.dir_batch { same_dir } else { !same_dir };
            let hit = self.dram.would_hit(banks, txn.addr & self.offset_mask);
            let score = (prefer_dir as u32) * 4 + (hit as u32) * 2;
            match best {
                Some((_, s)) if s >= score => {}
                _ => best = Some((i, score)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Test hook: runs both the incremental and the reference scheduler
    /// for the current cycle and returns `(incremental, reference)`
    /// picks, bypassing the issue-ahead gate. Issues nothing; the cache
    /// this primes is exactly the one a real `tick` would have primed.
    #[doc(hidden)]
    pub fn scheduler_picks(
        &mut self,
        now: Cycle,
        banks: &BanksMut,
    ) -> (Option<usize>, Option<usize>) {
        let allow_reads = self.resp_q.can_push();
        let incremental = self.pick_candidate(now, allow_reads, banks);
        let reference = self.pick_reference(now, allow_reads, banks);
        (incremental, reference)
    }

    /// A completion ready to enter the return network, oldest first across
    /// read data and write acknowledges. `None` if nothing is ready.
    pub fn peek_completion(&self, now: Cycle) -> Option<&Completion> {
        match (self.resp_q.peek(now), self.ack_q.peek(now)) {
            (Some(r), Some(a)) => Some(if r.produced_at <= a.produced_at { r } else { a }),
            (Some(r), None) => Some(r),
            (None, Some(a)) => Some(a),
            (None, None) => None,
        }
    }

    /// Pops the completion returned by `peek_completion`.
    pub fn pop_completion(&mut self, now: Cycle) -> Option<Completion> {
        match (self.resp_q.peek(now), self.ack_q.peek(now)) {
            (Some(r), Some(a)) => {
                if r.produced_at <= a.produced_at {
                    self.pop_resp(now)
                } else {
                    self.ack_q.pop(now)
                }
            }
            (Some(_), None) => self.pop_resp(now),
            (None, Some(_)) => self.ack_q.pop(now),
            (None, None) => None,
        }
    }

    /// Pops from the response queue, invalidating the scheduling cache if
    /// it was computed while the queue was full: freeing a slot flips
    /// `allow_reads`, so blocked reads become candidates again (and the
    /// cached no-candidate sleep hint stops applying).
    fn pop_resp(&mut self, now: Cycle) -> Option<Completion> {
        if matches!(self.sched, Some(c) if !c.allow_reads) {
            self.sched = None;
        }
        self.resp_q.pop(now)
    }

    /// `true` once every queue is empty (used to drain simulations).
    pub fn drained(&self) -> bool {
        self.req_q.is_empty() && self.resp_q.is_empty() && self.ack_q.is_empty()
    }

    /// A lower bound on the first cycle ≥ `now` at which
    /// [`tick`](Self::tick) could issue a DRAM job or
    /// [`pop_completion`](Self::pop_completion) could return a completion,
    /// assuming nothing new is accepted in the meantime. `None` when
    /// every queue is empty: a drained controller stays idle forever
    /// without input (DRAM refresh is accounted lazily inside
    /// [`PchDram::execute_burst`], so it creates no spontaneous events).
    ///
    /// When a completed scan found no candidate, the cached state sharpens
    /// the request-side bound: nothing already examined can become
    /// eligible without an invalidating event (which re-arms the hint), so
    /// the next request-side opportunity is the first *unexamined* entry
    /// becoming ready — not `next_ready_at`, which would wake the sleeper
    /// every cycle a blocked head entry sits ready.
    ///
    /// See DESIGN.md §3 for the one-sided contract: waking early is a
    /// harmless no-op, waking late would break cycle accuracy.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let responses = self.resp_q.next_ready_at().into_iter().chain(self.ack_q.next_ready_at());
        let first = responses.min().map(|t| t.max(now));
        first.into_iter().chain(self.next_tick_event(now)).min()
    }

    /// The request side of [`next_event`](Self::next_event) alone: a lower
    /// bound on the first cycle ≥ `now` at which [`tick`](Self::tick)
    /// could issue a DRAM job, assuming nothing is accepted *and no
    /// completion is popped* in the meantime (a kernel holding a
    /// completion it cannot forward uses it: it pops nothing until the
    /// completion leaves).
    pub fn next_tick_event(&self, now: Cycle) -> Option<Cycle> {
        let req_hint = match self.sched {
            // A full no-candidate scan: entries 0..examined stay
            // ineligible until an invalidation (issue clears the cache;
            // resp-pop with `!allow_reads` clears it in `pop_resp` — and
            // any such block implies the response queue is non-empty, so
            // `next_event`'s response bound already covers that wake-up).
            Some(c) if c.best.is_none() => {
                if c.examined < self.mc.window {
                    // Next unexamined entry's visibility time, if any.
                    // Looked up live so requests accepted after the scan
                    // are seen without invalidating anything.
                    self.req_q.deadline_at(c.examined)
                } else {
                    // Window exhausted: only an invalidating event can
                    // unblock the request side.
                    None
                }
            }
            _ => self.req_q.next_ready_at(),
        };
        // A queued request can only be scheduled once it is visible *and*
        // the issue-ahead gate has cleared.
        req_hint.map(|t| t.max(self.dram.gate_opens_at(self.clock, self.mc.lookahead_ns)).max(now))
    }

    /// Number of requests waiting in the input queue.
    pub fn queue_len(&self) -> usize {
        self.req_q.len()
    }

    /// Peak occupancy of the request, response, and acknowledge queues
    /// since construction, in that order. Maintained by the rings
    /// themselves (two ALU ops per push); reading is free, so the
    /// measurement harness samples it once per window — never inside
    /// the cycle loop.
    pub fn queue_high_waters(&self) -> [usize; 3] {
        [self.req_q.high_water(), self.resp_q.high_water(), self.ack_q.high_water()]
    }

    /// DRAM statistics for this channel.
    pub fn stats(&self) -> &MemStats {
        self.dram.stats()
    }

    /// Clears DRAM statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.dram.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankPool;
    use hbm_axi::{AxiId, BurstLen, MasterId, TxnBuilder};

    fn mc() -> (MemoryController, BankPool) {
        mc_with(&HbmConfig::default())
    }

    fn mc_with(cfg: &HbmConfig) -> (MemoryController, BankPool) {
        (MemoryController::new(cfg, ClockDomain::ACC_300, 0.0), BankPool::new(1, cfg.banks_per_pch))
    }

    fn txn(b: &mut TxnBuilder, id: u8, addr: u64, beats: u8, dir: Dir, now: Cycle) -> Transaction {
        b.issue(AxiId(id), addr, BurstLen::of(beats), dir, now).unwrap()
    }

    /// Runs the controller until drained, returning completions with their
    /// pop cycle.
    fn run_to_drain(
        m: &mut MemoryController,
        pool: &mut BankPool,
        start: Cycle,
    ) -> Vec<(Cycle, Completion)> {
        let mut banks = pool.unit_mut(0);
        let mut out = Vec::new();
        let mut now = start;
        let deadline = start + 1_000_000;
        while !m.drained() && now < deadline {
            m.tick(now, &mut banks, None);
            while let Some(c) = m.pop_completion(now) {
                out.push((now, c));
            }
            now += 1;
        }
        assert!(m.drained(), "controller failed to drain");
        out
    }

    #[test]
    fn read_produces_completion_with_dram_latency() {
        let (mut m, mut pool) = mc();
        let mut b = TxnBuilder::new(MasterId(0));
        m.accept(0, txn(&mut b, 0, 0, 1, Dir::Read, 0));
        let done = run_to_drain(&mut m, &mut pool, 0);
        assert_eq!(done.len(), 1);
        let (cycle, c) = done[0];
        assert_eq!(c.txn.dir, Dir::Read);
        // req_latency (13) + closed-page (28 ns ≈ 9 cycles) + PHY (50 ns
        // ≈ 15 cycles) + beat + resp_latency (4).
        assert!((30..=50).contains(&cycle), "read completion at {cycle}");
    }

    #[test]
    fn write_acked_at_acceptance_not_dram() {
        let (mut m, mut pool) = mc();
        let mut b = TxnBuilder::new(MasterId(0));
        m.accept(0, txn(&mut b, 0, 0, 16, Dir::Write, 0));
        let done = run_to_drain(&mut m, &mut pool, 0);
        assert_eq!(done.len(), 1);
        let (cycle, c) = done[0];
        assert_eq!(c.txn.dir, Dir::Write);
        // Ack passes only resp_latency, far below DRAM time.
        assert!(cycle <= 8, "write ack at {cycle}");
        // The DRAM still performed the write.
        assert_eq!(m.stats().bytes_written, 512);
    }

    #[test]
    fn same_id_reads_complete_in_order() {
        let (mut m, mut pool) = mc();
        let mut b = TxnBuilder::new(MasterId(0));
        // Same ID, second one is a row hit for the first's row — FR-FCFS
        // must NOT reorder them (same id).
        m.accept(0, txn(&mut b, 0, 1024 * 64, 1, Dir::Read, 0)); // row X
        m.accept(0, txn(&mut b, 0, 0, 1, Dir::Read, 0)); // row 0
        let done = run_to_drain(&mut m, &mut pool, 0);
        let seqs: Vec<u64> = done.iter().map(|(_, c)| c.txn.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn different_ids_allow_row_hit_first_scheduling() {
        let cfg = HbmConfig::default();
        let (mut m, mut pool) = mc_with(&cfg);
        let mut b = TxnBuilder::new(MasterId(0));
        // Open row 0 with a first read (id 0), then queue a far-row read
        // (id 1) and a row-0 hit (id 2) behind it. FR-FCFS should service
        // the hit before the miss.
        m.accept(0, txn(&mut b, 0, 0, 1, Dir::Read, 0));
        m.accept(0, txn(&mut b, 1, cfg.row_bytes * cfg.banks_per_pch as u64 * 8, 1, Dir::Read, 0));
        m.accept(0, txn(&mut b, 2, 32, 1, Dir::Read, 0));
        let done = run_to_drain(&mut m, &mut pool, 0);
        let seqs: Vec<u64> = done.iter().map(|(_, c)| c.txn.seq).collect();
        assert_eq!(seqs[0], 0);
        assert_eq!(seqs[1], 2, "row hit (seq 2) should be scheduled before miss (seq 1)");
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = HbmConfig::default();
        let (mut m, _pool) = mc_with(&cfg);
        let mut b = TxnBuilder::new(MasterId(0));
        for i in 0..cfg.mc.queue_depth {
            assert!(m.can_accept(Dir::Read));
            m.accept(0, txn(&mut b, 0, (i as u64) * 32, 1, Dir::Read, 0));
        }
        assert!(!m.can_accept(Dir::Read));
    }

    #[test]
    fn direction_batching_groups_same_direction() {
        // Interleave R/W accepts; the schedule should produce runs rather
        // than strict alternation, keeping turnarounds well below the
        // worst case (one per transaction).
        let (mut m, mut pool) = mc();
        let mut b = TxnBuilder::new(MasterId(0));
        let n = 16;
        for i in 0..n {
            let dir = if i % 2 == 0 { Dir::Read } else { Dir::Write };
            // Distinct IDs so the scheduler is free to reorder.
            m.accept(0, txn(&mut b, (i % 16) as u8, i * 512, 16, dir, 0));
        }
        run_to_drain(&mut m, &mut pool, 0);
        let turns = m.stats().turnarounds;
        assert!(turns < n / 2, "turnarounds {turns} not batched (n={n})");
    }

    #[test]
    fn throughput_sequential_reads_near_effective_bw() {
        // Keep the controller fed with sequential BL16 reads for a while;
        // achieved bandwidth should approach the DRAM effective rate
        // (the queue/window machinery must not add systematic bubbles).
        let cfg = HbmConfig::default();
        let clock = ClockDomain::ACC_450; // port faster than a single PCH
        let mut m = MemoryController::new(&cfg, clock, 0.0);
        let mut pool = BankPool::new(1, cfg.banks_per_pch);
        let mut banks = pool.unit_mut(0);
        let mut b = TxnBuilder::new(MasterId(0));
        let mut addr = 0u64;
        let mut bytes = 0u64;
        let horizon = 100_000; // cycles @450 MHz ≈ 222 µs
        for now in 0..horizon {
            while m.can_accept(Dir::Read) && bytes < (1 << 30) {
                m.accept(now, txn(&mut b, (addr / 512 % 16) as u8, addr, 16, Dir::Read, now));
                addr += 512;
                bytes += 512;
            }
            m.tick(now, &mut banks, None);
            while m.pop_completion(now).is_some() {}
        }
        let delivered = m.stats().bytes_read as f64;
        let gbps = delivered / clock.cycles_to_ns(horizon);
        let eff = cfg.timings.effective_bw_gbps();
        assert!(gbps > eff * 0.93, "sequential read bandwidth {gbps} GB/s vs effective {eff}");
    }

    #[test]
    fn drained_reports_correctly() {
        let (mut m, mut pool) = mc();
        assert!(m.drained());
        let mut b = TxnBuilder::new(MasterId(0));
        m.accept(0, txn(&mut b, 0, 0, 1, Dir::Read, 0));
        assert!(!m.drained());
        run_to_drain(&mut m, &mut pool, 0);
        assert!(m.drained());
    }

    #[test]
    fn no_candidate_sleep_hint_waits_for_unexamined_entry() {
        // One read with a blocked twin behind it: after the first issues,
        // the remaining same-ID pair means a completed scan of the head
        // entry alone yields a candidate; but with the response queue
        // drained slowly we can observe the sharpened hint. Simpler
        // observable: next_event never exceeds the true next action cycle.
        let (mut m, mut pool) = mc();
        let mut banks = pool.unit_mut(0);
        let mut b = TxnBuilder::new(MasterId(0));
        for i in 0..4u64 {
            m.accept(0, txn(&mut b, 0, i * 32, 1, Dir::Read, 0)); // same ID chain
        }
        let mut now = 0;
        let mut popped = 0;
        let deadline = 10_000;
        while !m.drained() && now < deadline {
            let hint = m.next_event(now).expect("not drained → next event exists");
            assert!(hint >= now);
            // Jump straight to the hint: if the hint were late, the drain
            // below would deadlock or produce out-of-order completions.
            now = hint.max(now);
            m.tick(now, &mut banks, None);
            while m.pop_completion(now).is_some() {
                popped += 1;
            }
            now += 1;
        }
        assert!(m.drained(), "sleep-hint-driven drain stalled");
        assert_eq!(popped, 4);
    }
}
