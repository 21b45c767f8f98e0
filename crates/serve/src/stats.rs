//! Serving-path observability: latency histograms, depth gauges, and
//! counters, exported as a JSON snapshot by the `stats` verb.
//!
//! Latencies are [`hbm_axi::Hist`]s, the workspace's one histogram,
//! recorded in microseconds: queue-wait (admission → dispatch, per
//! dispatched point; rows answered at admission never wait), run
//! (dispatch → row, per point), and stream (row completion → delivery to
//! a subscriber; ≈0 for live streams, larger for late subscribers
//! replaying the backlog).
//!
//! Every instrument here is a handle into the workspace metric registry
//! ([`hbm_core::metrics::Registry::global`]), registered with *replace*
//! semantics: the newest scheduler instance's handles are the ones the
//! Prometheus exposition reads, so the `stats` verb and the `metrics`
//! verb are two renderings of the same atomics and can never disagree.

use std::sync::Arc;
use std::time::Instant;

use hbm_axi::Hist;
use hbm_core::cache::CacheSnapshot;
use hbm_core::metrics::{Counter, Histo, Registry};
use serde::{Deserialize, Serialize};

/// How many `(job, point)` dispatches the scheduler remembers for
/// fairness inspection (a bounded debugging aid, not a durable log).
pub const DISPATCH_LOG_CAP: usize = 4_096;

/// The scheduler's counters: shared handles into the metric registry
/// (plus the bounded dispatch log, which is plain data — it is a debug
/// ring, not a metric).
#[derive(Debug)]
pub struct ServeStats {
    /// Server start, the origin for utilisation and uptime.
    started: Instant,
    /// Admission → dispatch, per dispatched point, in µs.
    pub queue_wait_us: Arc<Histo>,
    /// Dispatch → deposited row, per point, in µs.
    pub run_us: Arc<Histo>,
    /// Row completion → delivery to one subscriber, in µs.
    pub stream_us: Arc<Histo>,
    /// Total wall time workers spent measuring points, in ns.
    pub busy_ns: Arc<Counter>,
    /// Jobs admitted.
    pub jobs_submitted: Arc<Counter>,
    /// Jobs rejected by admission control (queue full or job too large).
    pub jobs_rejected: Arc<Counter>,
    /// Jobs that ran every point to a row.
    pub jobs_completed: Arc<Counter>,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: Arc<Counter>,
    /// Rows measured successfully.
    pub rows_done: Arc<Counter>,
    /// Rows failed (worker panic).
    pub rows_failed: Arc<Counter>,
    /// Rows past their timeout budget.
    pub rows_timed_out: Arc<Counter>,
    /// Points cancelled before dispatch.
    pub rows_cancelled: Arc<Counter>,
    /// Recent dispatches as `(job, point-index)`, oldest first, capped
    /// at [`DISPATCH_LOG_CAP`].
    pub dispatch_log: Vec<(u64, usize)>,
}

impl ServeStats {
    /// Fresh counters anchored at "now", registered on the global
    /// registry (replacing any prior scheduler's series).
    pub fn new() -> ServeStats {
        ServeStats::registered(Registry::global())
    }

    /// Fresh counters registered on an explicit registry (tests).
    pub fn registered(reg: &Registry) -> ServeStats {
        let jobs = "Serve jobs by admission/terminal state";
        let rows = "Serve rows (points) by outcome";
        ServeStats {
            started: Instant::now(),
            queue_wait_us: reg.histogram_owned(
                "hbm_serve_queue_wait_us",
                "Admission to dispatch latency per point, in microseconds",
                &[],
            ),
            run_us: reg.histogram_owned(
                "hbm_serve_run_us",
                "Dispatch to deposited row latency per point, in microseconds",
                &[],
            ),
            stream_us: reg.histogram_owned(
                "hbm_serve_stream_us",
                "Row completion to subscriber delivery latency, in microseconds",
                &[],
            ),
            busy_ns: reg.counter_owned(
                "hbm_serve_busy_ns_total",
                "Wall time workers spent measuring points, in nanoseconds",
                &[],
            ),
            jobs_submitted: reg.counter_owned(
                "hbm_serve_jobs_total",
                jobs,
                &[("state", "submitted")],
            ),
            jobs_rejected: reg.counter_owned(
                "hbm_serve_jobs_total",
                jobs,
                &[("state", "rejected")],
            ),
            jobs_completed: reg.counter_owned(
                "hbm_serve_jobs_total",
                jobs,
                &[("state", "completed")],
            ),
            jobs_cancelled: reg.counter_owned(
                "hbm_serve_jobs_total",
                jobs,
                &[("state", "cancelled")],
            ),
            rows_done: reg.counter_owned("hbm_serve_rows_total", rows, &[("outcome", "done")]),
            rows_failed: reg.counter_owned("hbm_serve_rows_total", rows, &[("outcome", "failed")]),
            rows_timed_out: reg.counter_owned(
                "hbm_serve_rows_total",
                rows,
                &[("outcome", "timed_out")],
            ),
            rows_cancelled: reg.counter_owned(
                "hbm_serve_rows_total",
                rows,
                &[("outcome", "cancelled")],
            ),
            dispatch_log: Vec::new(),
        }
    }

    /// Server start instant — the origin for span timestamps.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Records one dispatch in the bounded log.
    pub fn log_dispatch(&mut self, job: u64, index: usize) {
        if self.dispatch_log.len() == DISPATCH_LOG_CAP {
            self.dispatch_log.remove(0);
        }
        self.dispatch_log.push((job, index));
    }

    /// Folds the counters into an exportable snapshot. `workers` scales
    /// the utilisation denominator; the depth gauges and cache snapshot
    /// come from the scheduler that owns these counters, and the
    /// snapshot's `cache_*` fields repeat the cache's own counters.
    pub fn snapshot(
        &self,
        workers: usize,
        depth: DepthGauges,
        cache: CacheSnapshot,
    ) -> StatsSnapshot {
        let uptime = self.started.elapsed();
        let capacity_ns = (workers as u64).max(1).saturating_mul(uptime.as_nanos() as u64).max(1);
        StatsSnapshot {
            uptime_ms: uptime.as_secs_f64() * 1e3,
            workers,
            worker_utilisation: self.busy_ns.get() as f64 / capacity_ns as f64,
            depth,
            queue_wait_us: HistSummary::of(&self.queue_wait_us.snapshot()),
            run_us: HistSummary::of(&self.run_us.snapshot()),
            stream_us: HistSummary::of(&self.stream_us.snapshot()),
            jobs_submitted: self.jobs_submitted.get(),
            jobs_rejected: self.jobs_rejected.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_cancelled: self.jobs_cancelled.get(),
            rows_done: self.rows_done.get(),
            rows_failed: self.rows_failed.get(),
            rows_timed_out: self.rows_timed_out.get(),
            rows_cancelled: self.rows_cancelled.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_coalesced: cache.coalesced,
            cache,
        }
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

/// How many finished-job spans the scheduler retains for the `spans`
/// verb (oldest evicted first; the optional JSONL sink keeps them all).
pub const SPAN_LOG_CAP: usize = 1_024;

/// One job's lifecycle span: submitted → queued → dispatched → finished,
/// emitted when the job reaches a terminal state. Exported as JSON by
/// the `spans` verb and appended as one JSONL line per job to the
/// `--span-log` sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpan {
    /// Job id.
    pub job: u64,
    /// Client-chosen job name.
    pub name: String,
    /// Priority level the job ran at.
    pub priority: u8,
    /// Grid points in the job.
    pub points: usize,
    /// Terminal state, `"Done"` or `"Cancelled"`.
    pub state: String,
    /// Submission instant, in milliseconds since server start.
    pub submitted_ms: f64,
    /// Submission → first dispatch (or terminal, if never dispatched).
    pub queued_ms: f64,
    /// First dispatch → terminal; 0 when never dispatched.
    pub run_ms: f64,
    /// Successful rows.
    pub rows_done: usize,
    /// Failed rows.
    pub rows_failed: usize,
    /// Timed-out rows.
    pub rows_timed_out: usize,
    /// Cancelled points.
    pub rows_cancelled: usize,
}

/// Instantaneous scheduler depths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthGauges {
    /// Admitted points not yet dispatched (the admission queue level the
    /// backpressure threshold applies to).
    pub queued_points: usize,
    /// Points currently measuring on a worker.
    pub running_points: usize,
    /// Jobs in a non-terminal state.
    pub active_jobs: usize,
}

/// Percentile summary of one [`Hist`] (µs samples).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (bucket upper edge).
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest sample.
    pub max_us: u64,
}

impl HistSummary {
    /// Summarises `h`; zeros when empty.
    pub fn of(h: &Hist) -> HistSummary {
        HistSummary {
            count: h.n,
            mean_us: h.mean().unwrap_or(0.0),
            p50_us: h.p50().unwrap_or(0),
            p95_us: h.p95().unwrap_or(0),
            p99_us: h.p99().unwrap_or(0),
            max_us: h.max,
        }
    }
}

/// The JSON snapshot the `stats` verb returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Wall time since the server started, in milliseconds.
    pub uptime_ms: f64,
    /// Worker-thread count.
    pub workers: usize,
    /// Fraction of `workers × uptime` spent measuring points.
    pub worker_utilisation: f64,
    /// Instantaneous depths.
    pub depth: DepthGauges,
    /// Admission → dispatch latency.
    pub queue_wait_us: HistSummary,
    /// Dispatch → row latency.
    pub run_us: HistSummary,
    /// Completion → subscriber-delivery latency.
    pub stream_us: HistSummary,
    /// Jobs admitted.
    pub jobs_submitted: u64,
    /// Jobs rejected: a full queue (with a retry-after) or a grid larger
    /// than the whole queue.
    pub jobs_rejected: u64,
    /// Jobs run to completion.
    pub jobs_completed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Successful rows.
    pub rows_done: u64,
    /// Failed rows.
    pub rows_failed: u64,
    /// Timed-out rows.
    pub rows_timed_out: u64,
    /// Cancelled points.
    pub rows_cancelled: u64,
    /// [`CacheSnapshot::hits`] of `cache`: lookups answered from memory,
    /// at admission or by a worker.
    pub cache_hits: u64,
    /// [`CacheSnapshot::misses`] of `cache`: lookups that led a
    /// simulation, one per point simulated.
    pub cache_misses: u64,
    /// [`CacheSnapshot::coalesced`] of `cache`: lookups that waited on
    /// an identical point already simulating.
    pub cache_coalesced: u64,
    /// Gauges and counters of the attached result cache itself.
    pub cache: CacheSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        // A private registry so parallel tests don't share series.
        let reg = Registry::new();
        let s = ServeStats::registered(&reg);
        s.queue_wait_us.record(100);
        s.queue_wait_us.record(300);
        s.run_us.record(5_000);
        s.rows_done.add(2);
        s.jobs_submitted.inc();
        let snap = s.snapshot(
            4,
            DepthGauges { queued_points: 7, running_points: 2, active_jobs: 1 },
            hbm_core::cache::ResultCache::disabled().snapshot(),
        );
        assert_eq!(snap.queue_wait_us.count, 2);
        assert_eq!(snap.queue_wait_us.mean_us, 200.0);
        assert_eq!(snap.run_us.count, 1);
        assert_eq!(snap.depth.queued_points, 7);
        assert_eq!(snap.rows_done, 2);
        assert!(snap.uptime_ms >= 0.0);
        assert!(snap.worker_utilisation >= 0.0);
    }

    #[test]
    fn dispatch_log_is_bounded() {
        let mut s = ServeStats::new();
        for i in 0..(DISPATCH_LOG_CAP + 10) {
            s.log_dispatch(1, i);
        }
        assert_eq!(s.dispatch_log.len(), DISPATCH_LOG_CAP);
        assert_eq!(s.dispatch_log[0], (1, 10));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = ServeStats::new().snapshot(
            2,
            DepthGauges { queued_points: 0, running_points: 0, active_jobs: 0 },
            hbm_core::cache::ResultCache::disabled().snapshot(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
