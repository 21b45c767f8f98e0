//! Latency and volume statistics collected per bus master.

use hbm_axi::{Cycle, Dir, Hist, Transaction};
use serde::{Deserialize, Serialize};

/// Per-master traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GenStats {
    /// Transactions issued (accepted by the interconnect).
    pub issued: u64,
    /// Transactions completed.
    pub completed: u64,
    /// Read payload bytes completed.
    pub bytes_read: u64,
    /// Write payload bytes completed (acknowledged).
    pub bytes_written: u64,
    /// Read-transaction latency in cycles (issue → last data beat
    /// delivered).
    pub read_lat: Hist,
    /// Write-transaction latency in cycles (issue → acknowledge
    /// delivered).
    pub write_lat: Hist,
}

impl GenStats {
    /// Total completed payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Counts one completion delivered at `now`: its payload bytes and
    /// its latency since issue, in its direction.
    #[inline]
    pub fn record_completion(&mut self, txn: &Transaction, now: Cycle) {
        self.completed += 1;
        let lat = now.saturating_sub(txn.issued_at);
        match txn.dir {
            Dir::Read => {
                self.bytes_read += txn.bytes();
                self.read_lat.record(lat);
            }
            Dir::Write => {
                self.bytes_written += txn.bytes();
                self.write_lat.record(lat);
            }
        }
    }

    /// Merges another master's statistics into this one.
    pub fn merge(&mut self, o: &GenStats) {
        self.issued += o.issued;
        self.completed += o.completed;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.read_lat.merge(&o.read_lat);
        self.write_lat.merge(&o.write_lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, MasterId, TxnBuilder};

    #[test]
    fn gen_stats_merge() {
        let mut a = GenStats { issued: 2, bytes_read: 100, ..GenStats::default() };
        let b = GenStats { issued: 3, bytes_written: 50, ..GenStats::default() };
        a.merge(&b);
        assert_eq!(a.issued, 5);
        assert_eq!(a.total_bytes(), 150);
    }

    #[test]
    fn a_completion_counts_its_bytes_and_latency_in_its_direction() {
        let mut b = TxnBuilder::new(MasterId(0));
        let rd = b.issue(AxiId(0), 0, BurstLen::of(16), Dir::Read, 10).unwrap();
        let wr = b.issue(AxiId(1), 512, BurstLen::of(2), Dir::Write, 12).unwrap();
        let mut s = GenStats::default();
        s.record_completion(&rd, 58);
        s.record_completion(&wr, 30);
        assert_eq!((s.completed, s.bytes_read, s.bytes_written), (2, 512, 64));
        assert_eq!((s.read_lat.n, s.read_lat.mean()), (1, Some(48.0)));
        assert_eq!((s.write_lat.n, s.write_lat.mean()), (1, Some(18.0)));
    }
}
