//! The dataflow engine: executes a phase script against the memory
//! system.

use std::collections::HashMap;

use hbm_axi::{BurstLen, Cycle, Dir, MasterId, OutstandingTracker, Transaction, TxnBuilder};
use hbm_core::system::TrafficSource;
use hbm_traffic::GenStats;

use crate::phase::Phase;

/// How many phases ahead reads may be prefetched (double buffering).
const PREFETCH_PHASES: usize = 2;

/// Per-phase execution state.
#[derive(Debug)]
struct PhaseState {
    read_chunks: Vec<(u64, BurstLen)>,
    write_chunks: Vec<(u64, BurstLen)>,
    next_read: usize,
    next_write: usize,
    reads_outstanding: usize,
    writes_outstanding: usize,
    reads_issued_all: bool,
    reads_done_at: Option<Cycle>,
    compute_done_at: Option<Cycle>,
    ops: u64,
}

impl PhaseState {
    fn reads_complete(&self) -> bool {
        self.reads_issued_all && self.reads_outstanding == 0
    }

    fn writes_complete(&self) -> bool {
        self.next_write == self.write_chunks.len() && self.writes_outstanding == 0
    }
}

/// A timed accelerator engine on one master port.
///
/// Executes its [`Phase`] script with:
///
/// * bounded outstanding transactions (the paper's `N_ot`),
/// * read prefetch up to `PREFETCH_PHASES` ahead (double buffering),
/// * one compute unit of `ops_per_cycle` throughput — compute of phase
///   *p* starts when its reads have arrived *and* phase *p−1* has
///   finished computing,
/// * writes of phase *p* issued only after its compute completes.
#[derive(Debug)]
pub struct DataflowEngine {
    builder: TxnBuilder,
    tracker: OutstandingTracker,
    phases: Vec<PhaseState>,
    /// Oldest phase whose writes are not yet fully issued+completed.
    exec_head: usize,
    /// Next phase to be granted the compute unit.
    next_compute: usize,
    last_compute_end: Cycle,
    ops_per_cycle: f64,
    pending: Option<Transaction>,
    /// seq → (phase index, is_read) for completion routing.
    in_flight: HashMap<u64, (usize, bool)>,
    stats: GenStats,
    ops_done: u64,
    started_at: Option<Cycle>,
    finished_at: Option<Cycle>,
}

impl DataflowEngine {
    /// Builds an engine for `master` executing `phases` with the given
    /// compute rate, burst length and outstanding/ID limits.
    pub fn new(
        master: MasterId,
        phases: Vec<Phase>,
        ops_per_cycle: f64,
        burst: BurstLen,
        outstanding: usize,
        num_ids: usize,
    ) -> DataflowEngine {
        assert!(ops_per_cycle > 0.0, "compute rate must be positive");
        let states = phases
            .iter()
            .map(|p| PhaseState {
                read_chunks: Phase::chunks(&p.reads, burst),
                write_chunks: Phase::chunks(&p.writes, burst),
                next_read: 0,
                next_write: 0,
                reads_outstanding: 0,
                writes_outstanding: 0,
                reads_issued_all: p.reads.is_empty(),
                reads_done_at: None,
                compute_done_at: None,
                ops: p.ops,
            })
            .collect();
        DataflowEngine {
            builder: TxnBuilder::new(master),
            tracker: OutstandingTracker::new(num_ids, outstanding),
            phases: states,
            exec_head: 0,
            next_compute: 0,
            last_compute_end: 0,
            ops_per_cycle,
            pending: None,
            in_flight: HashMap::new(),
            stats: GenStats::default(),
            ops_done: 0,
            started_at: None,
            finished_at: None,
        }
    }

    /// Total operations completed so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Cycle at which the engine finished all phases, if it has.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// `true` once every phase has completed.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Marks phases whose reads are complete as computed, in order,
    /// respecting the single compute unit.
    fn schedule_compute(&mut self, now: Cycle) {
        while self.next_compute < self.phases.len() {
            let p = self.next_compute;
            // Empty-read phases become computable immediately.
            if self.phases[p].reads_chunks_empty() && self.phases[p].reads_done_at.is_none() {
                self.phases[p].reads_done_at = Some(now);
            }
            let Some(ready) = self.phases[p].reads_done_at else {
                break;
            };
            let dur = (self.phases[p].ops as f64 / self.ops_per_cycle).ceil() as Cycle;
            let start = ready.max(self.last_compute_end);
            let done = start + dur;
            self.phases[p].compute_done_at = Some(done);
            self.last_compute_end = done;
            self.ops_done += self.phases[p].ops;
            self.next_compute += 1;
        }
    }

    /// Advances `exec_head` past fully retired phases and detects
    /// completion.
    fn retire(&mut self, now: Cycle) {
        while self.exec_head < self.phases.len() {
            let ps = &self.phases[self.exec_head];
            let computed = ps.compute_done_at.is_some_and(|c| c <= now);
            if ps.reads_complete() && computed && ps.writes_complete() {
                self.exec_head += 1;
            } else {
                break;
            }
        }
        if self.exec_head == self.phases.len() && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }

    /// The next transaction the dataflow wants to issue, if any.
    fn next_work(&mut self, now: Cycle) -> Option<Transaction> {
        self.schedule_compute(now);
        self.retire(now);
        // 1. Writes of the oldest computed phases, in order.
        for p in self.exec_head..self.next_compute {
            let computed = self.phases[p].compute_done_at.is_some_and(|c| c <= now);
            if !computed {
                break; // writes stay in phase order
            }
            let ps = &mut self.phases[p];
            if ps.next_write < ps.write_chunks.len() && self.tracker.can_issue(Dir::Write) {
                let (addr, burst) = ps.write_chunks[ps.next_write];
                ps.next_write += 1;
                ps.writes_outstanding += 1;
                let id = self.tracker.pick_id(self.builder.issued());
                let txn = self
                    .builder
                    .issue(id, addr, burst, Dir::Write, now)
                    .expect("builder produced illegal write");
                self.tracker.issue(Dir::Write, id, txn.seq);
                self.in_flight.insert(txn.seq, (p, false));
                return Some(txn);
            }
        }
        // 2. Reads within the prefetch window.
        let window_end = (self.exec_head + PREFETCH_PHASES + 1).min(self.phases.len());
        for p in self.exec_head..window_end {
            let ps = &mut self.phases[p];
            if ps.next_read < ps.read_chunks.len() && self.tracker.can_issue(Dir::Read) {
                let (addr, burst) = ps.read_chunks[ps.next_read];
                ps.next_read += 1;
                ps.reads_outstanding += 1;
                if ps.next_read == ps.read_chunks.len() {
                    ps.reads_issued_all = true;
                }
                let id = self.tracker.pick_id(self.builder.issued());
                let txn = self
                    .builder
                    .issue(id, addr, burst, Dir::Read, now)
                    .expect("builder produced illegal read");
                self.tracker.issue(Dir::Read, id, txn.seq);
                self.in_flight.insert(txn.seq, (p, true));
                return Some(txn);
            }
        }
        None
    }
}

impl PhaseState {
    fn reads_chunks_empty(&self) -> bool {
        self.read_chunks.is_empty()
    }
}

impl TrafficSource for DataflowEngine {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        if self.pending.is_none() {
            self.pending = self.next_work(now);
            if self.pending.is_some() && self.started_at.is_none() {
                self.started_at = Some(now);
            }
        }
        self.pending
    }

    fn accepted(&mut self) {
        assert!(self.pending.take().is_some(), "no pending transaction");
        self.stats.issued += 1;
    }

    fn completed(&mut self, now: Cycle, txn: &Transaction) {
        self.tracker
            .complete(txn.dir, txn.id, txn.seq)
            .expect("AXI ordering violated — simulator bug");
        let (phase, is_read) =
            self.in_flight.remove(&txn.seq).expect("completion for unknown transaction");
        let ps = &mut self.phases[phase];
        self.stats.record_completion(txn, now);
        if is_read {
            ps.reads_outstanding -= 1;
            if ps.reads_complete() && ps.reads_done_at.is_none() {
                ps.reads_done_at = Some(now);
            }
        } else {
            ps.writes_outstanding -= 1;
        }
        self.schedule_compute(now);
        self.retire(now);
    }

    fn stats(&self) -> &GenStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = GenStats::default();
    }

    fn drained(&self) -> bool {
        self.pending.is_none() && self.tracker.total_in_flight() == 0 && self.finished()
    }
}

/// A source that never issues anything (fills unused master ports when
/// an accelerator uses fewer than 32 masters).
#[derive(Debug, Default)]
pub struct IdleSource {
    stats: GenStats,
}

impl TrafficSource for IdleSource {
    fn poll(&mut self, _now: Cycle) -> Option<Transaction> {
        None
    }

    fn accepted(&mut self) {
        unreachable!("idle source never issues");
    }

    fn completed(&mut self, _now: Cycle, _txn: &Transaction) {
        unreachable!("idle source never receives completions");
    }

    fn stats(&self) -> &GenStats {
        &self.stats
    }

    fn reset_stats(&mut self) {}

    fn drained(&self) -> bool {
        true
    }

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None // never issues anything
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(reads: Vec<(u64, u64)>, writes: Vec<(u64, u64)>, ops: u64) -> Phase {
        Phase { reads, writes, ops }
    }

    fn engine(phases: Vec<Phase>, opc: f64) -> DataflowEngine {
        DataflowEngine::new(MasterId(0), phases, opc, BurstLen::of(16), 8, 4)
    }

    /// Drives an engine against an ideal zero-latency memory that
    /// completes transactions `lat` cycles after acceptance.
    fn run_ideal(e: &mut DataflowEngine, lat: Cycle, max: Cycle) -> Cycle {
        let mut in_flight: Vec<(Cycle, Transaction)> = Vec::new();
        for now in 0..max {
            if let Some(t) = e.poll(now) {
                e.accepted();
                in_flight.push((now + lat, t));
            }
            let (done, rest): (Vec<_>, Vec<_>) = in_flight.drain(..).partition(|(c, _)| *c <= now);
            in_flight = rest;
            for (_, t) in done {
                e.completed(now, &t);
            }
            if e.finished() && e.drained() {
                return now;
            }
        }
        panic!("engine did not finish in {max} cycles");
    }

    #[test]
    fn single_phase_read_compute_write() {
        let mut e = engine(vec![phase(vec![(0, 512)], vec![(4096, 512)], 100)], 10.0);
        run_ideal(&mut e, 5, 10_000);
        assert_eq!(e.ops_done(), 100);
        assert_eq!(e.stats().bytes_read, 512);
        assert_eq!(e.stats().bytes_written, 512);
    }

    #[test]
    fn writes_wait_for_compute() {
        // Huge ops at a tiny rate: the write must come long after reads.
        let mut e = engine(vec![phase(vec![(0, 32)], vec![(4096, 32)], 1_000)], 1.0);
        let mut write_issue = None;
        let mut read_done = None;
        let mut in_flight: Vec<(Cycle, Transaction)> = Vec::new();
        for now in 0..20_000 {
            if let Some(t) = e.poll(now) {
                e.accepted();
                if t.dir == Dir::Write {
                    write_issue = Some(now);
                }
                in_flight.push((now + 3, t));
            }
            let (done, rest): (Vec<_>, Vec<_>) = in_flight.drain(..).partition(|(c, _)| *c <= now);
            in_flight = rest;
            for (_, t) in done {
                if t.dir == Dir::Read {
                    read_done = Some(now);
                }
                e.completed(now, &t);
            }
            if e.finished() && e.drained() {
                break;
            }
        }
        let (r, w) = (read_done.unwrap(), write_issue.unwrap());
        assert!(w >= r + 1_000, "write at {w}, reads done at {r}: compute not respected");
    }

    #[test]
    fn phases_compute_in_order() {
        // Three phases; compute durations chain even if later reads
        // finish early (single compute unit).
        let phases = vec![
            phase(vec![(0, 32)], vec![], 500),
            phase(vec![(64, 32)], vec![], 500),
            phase(vec![(128, 32)], vec![(4096, 32)], 500),
        ];
        let mut e = engine(phases, 1.0);
        let end = run_ideal(&mut e, 2, 50_000);
        // Total compute 1500 cycles, serialised.
        assert!(end >= 1_500, "finished at {end}, compute cannot overlap itself");
        assert_eq!(e.ops_done(), 1_500);
    }

    #[test]
    fn prefetch_overlaps_reads_with_compute() {
        // With prefetch, phase 2's reads are issued while phase 1
        // computes; total time ≈ compute-bound, not read+compute serial.
        let phases: Vec<Phase> =
            (0..8).map(|i| phase(vec![(i as u64 * 512, 512)], vec![], 160)).collect();
        let mut e = engine(phases, 1.0);
        let end = run_ideal(&mut e, 50, 50_000);
        // Compute: 8 × 160 = 1280. Serial read+compute would be ≥
        // 8 × (50 + 160) = 1680. Prefetch keeps us near compute-bound.
        assert!(end < 1_500, "finished at {end}: prefetch not overlapping");
    }

    #[test]
    fn compute_bound_vs_memory_bound_rates() {
        // Same script at very different compute rates: fast compute →
        // memory dominates; slow compute → total time ≈ ops / rate.
        let mk = || vec![phase(vec![(0, 4096)], vec![(8192, 512)], 10_000)];
        let mut fast = engine(mk(), 1e9);
        let t_fast = run_ideal(&mut fast, 40, 100_000);
        let mut slow = engine(mk(), 1.0);
        let t_slow = run_ideal(&mut slow, 40, 100_000);
        assert!(t_slow >= 10_000, "slow engine must be compute bound: {t_slow}");
        assert!(t_fast < 1_000, "fast engine must be memory bound: {t_fast}");
    }

    #[test]
    fn idle_source_is_always_drained() {
        let mut s = IdleSource::default();
        assert!(s.poll(0).is_none());
        assert!(TrafficSource::drained(&s));
    }

    #[test]
    fn empty_phase_script_finishes_immediately() {
        let mut e = engine(vec![], 1.0);
        assert!(e.poll(0).is_none());
        // next_work ran retire(): an empty script is instantly finished.
        assert!(e.finished());
    }
}
