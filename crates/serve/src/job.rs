//! The job model: what a client submits and what it gets back.
//!
//! A [`JobSpec`] is a named measurement grid — the same
//! `(SystemConfig, Workload)` points the `repro` figures run through
//! [`hbm_core::batch::run_grid`] — plus serving metadata (priority,
//! per-point timeout). Every type here round-trips through serde, so the
//! in-process [`crate::ServeHandle`] API and the newline-delimited JSON
//! wire protocol carry literally the same values.

use hbm_core::batch::GridPoint;
use hbm_core::experiment::Fidelity;
use hbm_core::Measurement;
use serde::{Deserialize, Serialize};

/// Server-assigned job identifier, unique for the server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One sweep-grid job as submitted by a client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Client-chosen label (an experiment/figure name in practice).
    pub name: String,
    /// Scheduling priority: higher drains first. Jobs of equal priority
    /// share the workers point-by-point (round-robin), so no grid can
    /// head-of-line-block its peers.
    pub priority: u8,
    /// Warm-up and measured cycles for every point of the grid.
    pub fidelity: Fidelity,
    /// Per-point wall-clock timeout in milliseconds; `None` runs each
    /// point to completion. A point that exceeds the budget is reported
    /// as a [`RowStatus::TimedOut`] row.
    pub timeout_ms: Option<u64>,
    /// Adaptive multi-fidelity sweep (DESIGN.md §3.9): evaluate the grid
    /// through the calibrated analytical model at admission, then run
    /// only the escalated points (knees, collapses, envelope-untrusted
    /// families) at the job's cycle fidelity; the rest stream back as
    /// analytical rows. Ignored when `fidelity` is itself analytical.
    /// Defaults off, so pre-existing clients and recorded jobs are
    /// unaffected.
    #[serde(default)]
    pub adaptive: bool,
    /// The measurement grid, one row streamed back per point.
    pub points: Vec<GridPoint>,
}

impl JobSpec {
    /// A default-priority, no-timeout job over `points`.
    pub fn new(name: impl Into<String>, fidelity: Fidelity, points: Vec<GridPoint>) -> JobSpec {
        JobSpec {
            name: name.into(),
            priority: 0,
            fidelity,
            timeout_ms: None,
            adaptive: false,
            points,
        }
    }

    /// The paper's Fig. 4 rotation grid — the reference workload for the
    /// serving path (the example client and the CI smoke leg submit it
    /// and diff the streamed rows against the direct `repro fig4` run).
    pub fn fig4(fidelity: Fidelity) -> JobSpec {
        JobSpec::new("fig4", fidelity, hbm_core::experiment::fig4_grid())
    }

    /// Sets the scheduling priority (higher drains first).
    pub fn with_priority(mut self, priority: u8) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Sets the per-point timeout.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> JobSpec {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Turns on the adaptive multi-fidelity sweep for this job.
    pub fn with_adaptive(mut self) -> JobSpec {
        self.adaptive = true;
        self
    }
}

/// How one grid point ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowStatus {
    /// Measured successfully; the row carries the measurement.
    Done,
    /// The worker caught a panic while measuring this point; the rest of
    /// the grid is unaffected.
    Failed { error: String },
    /// The point exceeded its wall-clock budget.
    TimedOut,
    /// The job was cancelled before this point was dispatched.
    Cancelled,
}

/// One streamed result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowResult {
    /// The job this row belongs to.
    pub job: JobId,
    /// Index of the point within the job's grid. Rows stream in
    /// completion order; clients reassemble by index.
    pub index: usize,
    /// Outcome of the point.
    pub status: RowStatus,
    /// The measurement, present iff `status` is [`RowStatus::Done`].
    pub measurement: Option<Measurement>,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted; no point dispatched yet.
    Queued,
    /// At least one point dispatched, not all rows in.
    Running,
    /// Every point produced a row (any status) and none is in flight.
    Done,
    /// Cancelled by the client (or a server shutdown); undispatched
    /// points were reported as [`RowStatus::Cancelled`] rows.
    Cancelled,
}

impl JobState {
    /// `true` once no further rows can arrive for the job.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled)
    }
}

/// Point-in-time view of a job, as returned by the `status` verb.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job.
    pub job: JobId,
    /// Client-chosen label.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: u8,
    /// Grid points in the job.
    pub total: usize,
    /// Rows produced so far (any status).
    pub rows: usize,
    /// Rows that measured successfully.
    pub done: usize,
    /// Rows that failed (worker panic).
    pub failed: usize,
    /// Rows that hit the per-point timeout.
    pub timed_out: usize,
    /// Points cancelled before dispatch.
    pub cancelled_points: usize,
    /// Wall time from admission to first dispatch (to now while still
    /// queued), in milliseconds.
    pub queue_wait_ms: f64,
    /// Wall time from first dispatch to the last row (to now while still
    /// running), in milliseconds.
    pub run_ms: f64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejection {
    /// Backpressure: the admission queue cannot take the grid now, or the
    /// pool is shutting down. The client should retry no sooner than
    /// `retry_after_ms` from receipt.
    QueueFull {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The grid has more points than the whole admission queue holds, so
    /// no retry can admit it; the client must split it.
    TooLarge {
        /// The queue's capacity: the most points one grid may have.
        max_points: usize,
    },
}

/// One event on a job's subscription stream.
#[derive(Debug, Clone)]
pub enum Event {
    /// A point finished (or was cancelled/timed out): one result row
    /// (boxed: a row carries a full [`Measurement`] and dwarfs `End`).
    Row(Box<RowResult>),
    /// The job reached a terminal state; no further events follow.
    End {
        /// The job that ended.
        job: JobId,
        /// Terminal state ([`JobState::Done`] or [`JobState::Cancelled`]).
        state: JobState,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = JobSpec::fig4(Fidelity::QUICK).with_priority(3).with_timeout_ms(5_000);
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "fig4");
        assert_eq!(back.priority, 3);
        assert_eq!(back.timeout_ms, Some(5_000));
        assert_eq!(back.fidelity, Fidelity::QUICK);
        assert_eq!(back.points.len(), spec.points.len());
        // The grid itself survives: re-serialization is byte-identical.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn job_spec_without_adaptive_field_defaults_off() {
        // Wire stability: specs recorded before the adaptive field
        // existed still parse, as non-adaptive jobs.
        let spec = JobSpec::fig4(Fidelity::QUICK);
        let json = serde_json::to_string(&spec).unwrap().replace(",\"adaptive\":false", "");
        assert!(!json.contains("adaptive"), "{json}");
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert!(!back.adaptive);
        // And the builder round-trips.
        let adaptive = JobSpec::fig4(Fidelity::QUICK).with_adaptive();
        let j = serde_json::to_string(&adaptive).unwrap();
        let b: JobSpec = serde_json::from_str(&j).unwrap();
        assert!(b.adaptive);
    }

    #[test]
    fn row_status_round_trips() {
        for status in [
            RowStatus::Done,
            RowStatus::Failed { error: "a panic".into() },
            RowStatus::TimedOut,
            RowStatus::Cancelled,
        ] {
            let json = serde_json::to_string(&status).unwrap();
            let back: RowStatus = serde_json::from_str(&json).unwrap();
            assert_eq!(back, status);
        }
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
