//! Windowed time-series probes: periodic snapshots of system state.
//!
//! A [`Probe`] is attached to an [`crate::system::HbmSystem`] and sampled
//! every `interval` cycles while the system runs. Each [`Snapshot`]
//! captures what happened *in the window since the previous sample* —
//! per-PCH throughput, in-flight occupancy, fabric queue depth, windowed
//! row-hit rate — into a bounded ring, so a long run keeps the most
//! recent `capacity` windows.
//!
//! Sampling is read-only: the probe looks at statistics counters and
//! occupancy gauges and never feeds back into the simulation, so a probed
//! run is bit-identical to an unprobed one (enforced by the tracing
//! equivalence proptest). The system drives sampling by ending a barrier
//! window of its `run`/`run_until_drained` kernel at each window
//! boundary; the kernel still skips idle stretches *within* each window.
//! The reference `HbmSystem::step` samples at the same points.

use std::collections::VecDeque;

use hbm_axi::Cycle;
use hbm_mem::MemStats;
use serde::{Deserialize, Serialize};

/// Probe parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Cycles between samples.
    pub interval: Cycle,
    /// Snapshots retained (older windows are evicted, oldest first).
    pub capacity: usize,
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig { interval: 1_024, capacity: 4_096 }
    }
}

/// One sampled window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Cycle at which the sample was taken (window end).
    pub at: Cycle,
    /// Window length in cycles (usually the probe interval; the first or
    /// last window of a run may be shorter).
    pub window: Cycle,
    /// Bytes moved by the DRAM in this window, summed over channels.
    pub bytes: u64,
    /// Bytes per pseudo-channel in this window.
    pub per_pch_bytes: Vec<u64>,
    /// Transactions in flight at the sample instant (issued by a source,
    /// completion not yet delivered), summed over masters.
    pub in_flight: u64,
    /// Flits queued inside the interconnect at the sample instant.
    pub fabric_occupancy: u64,
    /// Requests waiting in memory-controller input queues at the sample
    /// instant, summed over channels.
    pub mc_queued: u64,
    /// Row-hit rate over the accesses of this window, `None` when the
    /// window had no classified DRAM access.
    pub row_hit_rate: Option<f64>,
}

impl Snapshot {
    /// Window throughput in GB/s for a clock `period_ns` per cycle.
    pub fn gbps(&self, period_ns: f64) -> f64 {
        if self.window == 0 {
            return 0.0;
        }
        self.bytes as f64 / (self.window as f64 * period_ns)
    }
}

/// The sampler: window bookkeeping plus the snapshot ring.
#[derive(Debug)]
pub struct Probe {
    interval: Cycle,
    capacity: usize,
    ring: VecDeque<Snapshot>,
    evicted: u64,
    next_at: Cycle,
    last_at: Cycle,
    prev_pch_bytes: Vec<u64>,
    prev_hits: u64,
    prev_classified: u64,
}

impl Probe {
    /// A probe starting its first window at `start` for `num_pch`
    /// channels.
    pub fn new(cfg: ProbeConfig, start: Cycle, num_pch: usize) -> Probe {
        assert!(cfg.interval >= 1, "probe interval must be ≥ 1 cycle");
        assert!(cfg.capacity >= 1, "probe ring needs at least one slot");
        Probe {
            interval: cfg.interval,
            capacity: cfg.capacity,
            ring: VecDeque::with_capacity(cfg.capacity.min(1 << 16)),
            evicted: 0,
            next_at: start + cfg.interval,
            last_at: start,
            prev_pch_bytes: vec![0; num_pch],
            prev_hits: 0,
            prev_classified: 0,
        }
    }

    /// The cycle at which the next sample is due.
    pub fn next_sample_at(&self) -> Cycle {
        self.next_at
    }

    /// The cycle of the most recent sample (the probe's start cycle when
    /// nothing has been sampled yet).
    pub fn last_sample_at(&self) -> Cycle {
        self.last_at
    }

    /// The sampling interval.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Takes a sample at `now` from current statistics and occupancy
    /// gauges. Counter deltas use saturating arithmetic so a statistics
    /// reset (end of warm-up) yields one empty-looking window instead of
    /// an underflow.
    pub fn sample(
        &mut self,
        now: Cycle,
        per_pch: &[MemStats],
        in_flight: u64,
        fabric_occupancy: u64,
        mc_queued: u64,
    ) {
        let mut per_pch_bytes = Vec::with_capacity(per_pch.len());
        let mut bytes = 0u64;
        let mut hits = 0u64;
        let mut classified = 0u64;
        for (i, st) in per_pch.iter().enumerate() {
            let total = st.total_bytes();
            let prev = self.prev_pch_bytes.get(i).copied().unwrap_or(0);
            let delta = total.saturating_sub(prev);
            if let Some(p) = self.prev_pch_bytes.get_mut(i) {
                *p = total;
            }
            per_pch_bytes.push(delta);
            bytes += delta;
            hits += st.page_hits;
            classified += st.page_hits + st.page_closed + st.page_misses;
        }
        let win_hits = hits.saturating_sub(self.prev_hits);
        let win_classified = classified.saturating_sub(self.prev_classified);
        self.prev_hits = hits;
        self.prev_classified = classified;
        let snap = Snapshot {
            at: now,
            window: now.saturating_sub(self.last_at),
            bytes,
            per_pch_bytes,
            in_flight,
            fabric_occupancy,
            mc_queued,
            row_hit_rate: (win_classified > 0).then(|| win_hits as f64 / win_classified as f64),
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(snap);
        self.last_at = now;
        // Monotone even if sampling ran late (e.g. attached mid-run).
        self.next_at = now + self.interval;
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &Snapshot> {
        self.ring.iter()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no window has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Snapshots evicted from the ring (total sampled = `len + evicted`).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(bytes_read: u64, hits: u64, misses: u64) -> MemStats {
        MemStats { bytes_read, page_hits: hits, page_misses: misses, ..Default::default() }
    }

    #[test]
    fn windows_are_deltas_not_totals() {
        let mut p = Probe::new(ProbeConfig { interval: 100, capacity: 8 }, 0, 2);
        p.sample(100, &[mem(512, 1, 1), mem(0, 0, 0)], 3, 2, 1);
        p.sample(200, &[mem(1024, 3, 1), mem(256, 1, 0)], 0, 0, 0);
        let snaps: Vec<_> = p.snapshots().collect();
        assert_eq!(snaps[0].bytes, 512);
        assert_eq!(snaps[0].per_pch_bytes, vec![512, 0]);
        assert_eq!(snaps[0].row_hit_rate, Some(0.5));
        assert_eq!(snaps[1].bytes, 768);
        assert_eq!(snaps[1].per_pch_bytes, vec![512, 256]);
        // Window 2: 3 new classified accesses, all hits → 3/3.
        assert_eq!(snaps[1].row_hit_rate, Some(1.0));
        assert_eq!(snaps[1].window, 100);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut p = Probe::new(ProbeConfig { interval: 10, capacity: 2 }, 0, 1);
        for i in 1..=4u64 {
            p.sample(i * 10, &[mem(i * 100, 0, 0)], 0, 0, 0);
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.evicted(), 2);
        let first = p.snapshots().next().unwrap();
        assert_eq!(first.at, 30);
    }

    #[test]
    fn stats_reset_gives_empty_window_not_underflow() {
        let mut p = Probe::new(ProbeConfig { interval: 10, capacity: 8 }, 0, 1);
        p.sample(10, &[mem(1000, 5, 0)], 0, 0, 0);
        // Warm-up reset: counters go back to near zero.
        p.sample(20, &[mem(32, 1, 0)], 0, 0, 0);
        let last = p.snapshots().last().unwrap();
        assert_eq!(last.bytes, 0);
        assert_eq!(last.row_hit_rate, None);
        // The window after the reset is correct again.
        p.sample(30, &[mem(96, 2, 0)], 0, 0, 0);
        assert_eq!(p.snapshots().last().unwrap().bytes, 64);
    }

    #[test]
    fn gbps_uses_window_and_period() {
        let s = Snapshot {
            at: 100,
            window: 100,
            bytes: 3200,
            per_pch_bytes: vec![],
            in_flight: 0,
            fabric_occupancy: 0,
            mc_queued: 0,
            row_hit_rate: None,
        };
        // 3200 B over 100 cycles at 300 MHz (3.33 ns/cycle) = 9.6 GB/s.
        let g = s.gbps(1000.0 / 300.0);
        assert!((g - 9.6).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn next_sample_monotone_after_late_sample() {
        let mut p = Probe::new(ProbeConfig { interval: 50, capacity: 8 }, 0, 1);
        assert_eq!(p.next_sample_at(), 50);
        p.sample(137, &[mem(0, 0, 0)], 0, 0, 0); // sampled late
        assert_eq!(p.next_sample_at(), 187);
    }
}
