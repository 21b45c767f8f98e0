//! Trace replay: drive the simulated system from a captured
//! [`hbm_traffic::Trace`] instead of live generators.
//!
//! Replay preserves each master's transaction order and relative pacing
//! (an event is not issued before its recorded cycle) while the
//! interconnect and memory under test provide the timing — so the same
//! address stream can be compared across fabric configurations.

use hbm_axi::{AxiId, Cycle, MasterId, OutstandingTracker, Transaction, TxnBuilder};
use hbm_traffic::{GenStats, Trace, TraceEvent};

use crate::system::{HbmSystem, SystemConfig, TrafficSource};

/// Replays one master's slice of a trace.
#[derive(Debug)]
pub struct TraceSource {
    events: Vec<TraceEvent>,
    next: usize,
    builder: TxnBuilder,
    tracker: OutstandingTracker,
    pending: Option<Transaction>,
    stats: GenStats,
}

impl TraceSource {
    /// A source replaying `master`'s events from the trace, with the
    /// given outstanding-transaction limit.
    pub fn new(trace: &Trace, master: MasterId, outstanding: usize) -> TraceSource {
        TraceSource {
            events: trace.for_master(master.0).copied().collect(),
            next: 0,
            builder: TxnBuilder::new(master),
            tracker: OutstandingTracker::new(256, outstanding),
            pending: None,
            stats: GenStats::default(),
        }
    }

    /// Events remaining to issue.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl TrafficSource for TraceSource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        if self.pending.is_none() {
            let e = self.events.get(self.next)?;
            if e.at > now || !self.tracker.can_issue(e.dir()) {
                return None;
            }
            let txn = self
                .builder
                .issue(AxiId(e.id), e.addr, e.burst(), e.dir(), now)
                .expect("trace contained an illegal transaction");
            self.tracker.issue(e.dir(), txn.id, txn.seq);
            self.next += 1;
            self.pending = Some(txn);
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
        self.stats.record_completion(txn, now);
    }

    fn stats(&self) -> &GenStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = GenStats::default();
    }

    fn drained(&self) -> bool {
        self.pending.is_none()
            && self.next == self.events.len()
            && self.tracker.total_in_flight() == 0
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.pending.is_some() {
            return Some(now);
        }
        let e = self.events.get(self.next)?;
        if !self.tracker.can_issue(e.dir()) {
            return None; // wakes on a completion
        }
        // The trace timestamp is the one source of *future* events.
        Some(e.at.max(now))
    }
}

/// Builds a system that replays `trace` on `cfg` with the given
/// per-master outstanding limit.
pub fn replay_system(cfg: &SystemConfig, trace: &Trace, outstanding: usize) -> HbmSystem {
    assert_eq!(
        trace.num_masters, cfg.hbm.num_pch,
        "trace was captured for a different master count"
    );
    let sources = (0..cfg.hbm.num_pch)
        .map(|m| {
            Box::new(TraceSource::new(trace, MasterId(m as u16), outstanding))
                as Box<dyn TrafficSource>
        })
        .collect();
    HbmSystem::with_sources(cfg, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traffic::Workload;

    fn small_trace() -> Trace {
        Trace::capture(Workload::ccs(), 32, 256 << 20, 8, 2)
    }

    #[test]
    fn replay_completes_every_event() {
        let trace = small_trace();
        let mut sys = replay_system(&SystemConfig::mao(), &trace, 16);
        assert!(sys.run_until_drained(1_000_000), "replay did not drain");
        let done: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
        assert_eq!(done, trace.events.len() as u64);
    }

    #[test]
    fn replay_moves_the_traced_bytes() {
        let trace = small_trace();
        let mut sys = replay_system(&SystemConfig::xilinx(), &trace, 16);
        sys.run_until_drained(1_000_000);
        let bytes: u64 = sys.gen_stats().iter().map(|g| g.total_bytes()).sum();
        assert_eq!(bytes, trace.total_bytes());
    }

    #[test]
    fn replay_respects_event_times() {
        // Space events far apart; the run must take at least that long.
        let trace = Trace::capture(Workload::ccs(), 32, 256 << 20, 4, 100);
        let mut sys = replay_system(&SystemConfig::mao(), &trace, 16);
        sys.run_until_drained(1_000_000);
        assert!(sys.now() >= 300, "finished at {} despite 100-cycle pacing", sys.now());
    }

    #[test]
    fn same_trace_compares_fabrics() {
        // The point of traces: identical stimulus on both interconnects.
        let trace = small_trace();
        let run = |cfg: &SystemConfig| {
            let mut sys = replay_system(cfg, &trace, 16);
            sys.run_until_drained(1_000_000);
            sys.now()
        };
        let t_mao = run(&SystemConfig::mao());
        let t_xlnx = run(&SystemConfig::xilinx());
        // CCS hot-spots on the stock fabric → replay takes far longer.
        assert!(
            t_xlnx > 2 * t_mao,
            "XLNX replay {t_xlnx} vs MAO {t_mao} — hot-spot should dominate"
        );
    }

    #[test]
    #[should_panic(expected = "different master count")]
    fn master_count_mismatch_rejected() {
        let trace = Trace::capture(
            Workload { working_set: 8 * (256 << 20), ..Workload::ccs() },
            8,
            256 << 20,
            2,
            1,
        );
        let _ = replay_system(&SystemConfig::mao(), &trace, 16);
    }
}
