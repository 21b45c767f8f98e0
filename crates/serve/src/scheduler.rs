//! The serving scheduler: an admission pass that answers every row
//! needing no simulation, then a bounded queue of the rest feeding a
//! shared worker pool, with fair-share interleaving across jobs.
//!
//! ## Admission
//!
//! [`ServeHandle::submit`] is the only place a served row can skip a
//! worker. Before a job enters the rotation, the submitting thread
//! deposits, outside the scheduler lock, every point of an
//! analytical-fidelity job (predicted, never cached), every point the
//! adaptive plan of an adaptive job does not escalate
//! ([`analytic::adaptive_plan`], the plan `batch` follows too), and
//! every other point the attached cache already holds
//! ([`ResultCache::cached`], a counted hit). Only the remaining grid
//! indices are queued as the job's pending points; they alone count
//! against [`ServeConfig::queue_capacity`].
//!
//! A submission is rejected *immediately*, before any lookup or model
//! work, so no grid bypasses the bound. A raw grid with more points than
//! the whole queue holds gets [`Rejection::TooLarge`] at any fidelity:
//! no retry can admit it. A grid that would not fit beside the queued
//! points now, or any grid while the pool is shutting down, gets
//! [`Rejection::QueueFull`] carrying [`RETRY_AFTER_MS`], and so does one
//! whose pending points no longer fit when checked again under the
//! lock. The client backs off and retries a full queue; nothing blocks
//! and nothing is silently dropped.
//!
//! ## Scheduling discipline
//!
//! Work is dispatched **point by point**, never job by job: the ready
//! set is a round-robin queue of jobs per priority level, and a worker
//! claims exactly one pending point from the front job before that job
//! goes to the back of its level. A 1 000-point grid therefore cannot
//! head-of-line-block a 3-point grid submitted a moment later — at equal
//! priority they alternate points; at different priorities the higher
//! level drains first (strict priority between levels, round-robin
//! within one). A claim only pops: no lookup, no deposit.
//!
//! ## Determinism
//!
//! Every grid point is an independent, deterministic simulation (the
//! property PR 3's sweep farm rests on), so *which worker runs a point
//! when* cannot change its measurement. Rows stream in completion order
//! tagged with their grid index; a client that reassembles by index gets
//! byte-identical results to a direct [`hbm_core::batch::run_grid`] call
//! — regardless of worker count, of competing clients, of priorities,
//! and of cancellations of other jobs (enforced by the
//! `serve_determinism` proptest).
//!
//! ## Result cache
//!
//! Every point is evaluated one way, through
//! [`ResultCache::measure_cached`] on the attached cache
//! ([`ServeConfig::cache`], defaulting to the process-wide cache — which
//! is disabled unless `--cache-dir`/`HBM_CACHE_DIR` turned it on). A
//! dispatched point's worker calls it; an identical point already
//! simulating is found in the cache's single-flight, and the worker
//! waits for that row instead of simulating twice. The cache's own
//! counters are the only hit/miss/coalesced counters; the `stats` reply
//! repeats them. A hit or a coalesced row is byte-identical to a fresh
//! run. The dispatch log records every point that went to a worker,
//! waiting ones included, so one simulation per point is proven by the
//! cache's `misses`, not by the log.
//!
//! Consequences, all deliberate:
//!
//! * **Hits are counted at admission.** A point that lands in the cache
//!   after its job was admitted goes to a worker, whose `measure_cached`
//!   answers it as a hit; it appears in the dispatch log, `queue_wait_us`
//!   and `run_us`. Analytical-fidelity jobs are never dispatched, and
//!   `queue_wait_us` samples dispatched points only.
//! * **Lookups cost the submitter.** They run on the submitting thread:
//!   with the cache enabled, a submit reply waits for one fingerprint
//!   and lookup per cycle-tier point, about 7 µs each on a 2-vCPU Xeon
//!   host (28 ms for a 4 096-point grid).
//! * **Waiting costs a worker.** A point whose twin is in flight waits
//!   on its worker, inside the cache's flight, and counts as busy in
//!   `worker_utilisation` and `run_us`.
//! * **A budget bounds the wait, not the simulation.** Only a `Done` row
//!   is ever shared, whatever the budget of the job that asked for it.
//!   A timed-out point's row is delivered at the deadline, but the point
//!   holds its worker until its simulation ends (and its row lands in
//!   the cache), so `workers` bounds the simulations running at once. A
//!   point that panics aborts its flight and each waiting point retries
//!   it, so a deterministic panic costs one run per waiting point.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbm_core::analytic;
use hbm_core::batch::{self, panic_message, GridPoint};
use hbm_core::cache::ResultCache;
use hbm_core::experiment::Fidelity;
use hbm_core::metrics::{self, Registry};
use hbm_core::Measurement;

use crate::job::{Event, JobId, JobSpec, JobState, JobStatus, Rejection, RowResult, RowStatus};
use crate::stats::{DepthGauges, JobSpan, ServeStats, StatsSnapshot, SPAN_LOG_CAP};
use crate::wire::RETRY_AFTER_MS;

/// Serving-pool parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads measuring grid points.
    pub workers: usize,
    /// Maximum undispatched points across all admitted jobs; submissions
    /// that would exceed it are rejected with a retry-after, and grids
    /// larger than it are refused outright.
    pub queue_capacity: usize,
    /// Result cache consulted at admission and evaluated through by the
    /// workers; `None` uses the process-wide [`ResultCache::global`]
    /// (disabled by default, so the scheduler re-simulates every point
    /// unless caching was turned on). Tests attach local instances to
    /// avoid cross-test state.
    pub cache: Option<ResultCache>,
    /// Append one JSONL [`JobSpan`] line per finished job to this file
    /// (the durable counterpart of the bounded in-memory span ring the
    /// `spans` verb reads).
    pub span_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: batch::sweep_jobs(),
            queue_capacity: 4_096,
            cache: None,
            span_log: None,
        }
    }
}

/// Per-job scheduler bookkeeping.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Grid indices waiting for a worker, in grid order: the points
    /// admission could not answer. Claims pop them; cancellation drains
    /// them.
    pending: VecDeque<usize>,
    /// Points currently on a worker.
    running: usize,
    done: usize,
    failed: usize,
    timed_out: usize,
    cancelled_points: usize,
    /// Completed rows in completion order, with their completion
    /// instant, kept for late-subscriber replay until the job's span
    /// leaves the span ring (see `State::record_span`).
    log: Vec<(RowResult, Instant)>,
    subscribers: Vec<Sender<Event>>,
    submitted_at: Instant,
    first_dispatch: Option<Instant>,
    finished_at: Option<Instant>,
}

impl JobEntry {
    fn total(&self) -> usize {
        self.spec.points.len()
    }

    fn rows(&self) -> usize {
        self.done + self.failed + self.timed_out + self.cancelled_points
    }

    /// Terminal means every point is accounted for and none is in
    /// flight; only then is the `End` event emitted.
    fn is_finished(&self) -> bool {
        self.rows() == self.total() && self.running == 0
    }

    fn status(&self, id: u64, now: Instant) -> JobStatus {
        let queue_wait = match self.first_dispatch {
            Some(t) => t - self.submitted_at,
            None if self.state == JobState::Queued => now - self.submitted_at,
            None => self.finished_at.map_or(Duration::ZERO, |t| t - self.submitted_at),
        };
        let run = match self.first_dispatch {
            Some(t) => self.finished_at.unwrap_or(now) - t,
            None => Duration::ZERO,
        };
        JobStatus {
            job: JobId(id),
            name: self.spec.name.clone(),
            state: self.state,
            priority: self.spec.priority,
            total: self.total(),
            rows: self.rows(),
            done: self.done,
            failed: self.failed,
            timed_out: self.timed_out,
            cancelled_points: self.cancelled_points,
            queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
            run_ms: run.as_secs_f64() * 1e3,
        }
    }

    /// Delivers `ev` to every live subscriber, dropping closed ones.
    fn broadcast(&mut self, ev: &Event) {
        self.subscribers.retain(|tx| tx.send(ev.clone()).is_ok());
    }
}

/// Scheduler state under the one mutex.
struct State {
    next_job: u64,
    jobs: BTreeMap<u64, JobEntry>,
    /// Ready jobs per priority level: round-robin within a level,
    /// highest level drained first.
    ready: BTreeMap<u8, VecDeque<u64>>,
    queued_points: usize,
    running_points: usize,
    paused: bool,
    shutdown: bool,
    stats: ServeStats,
    /// Finished-job lifecycle spans, oldest first, capped at
    /// [`SPAN_LOG_CAP`]; a job leaves `jobs` when its span leaves here.
    spans: VecDeque<JobSpan>,
    /// Optional JSONL sink receiving every span (unbounded, durable).
    span_sink: Option<Arc<Mutex<std::fs::File>>>,
}

impl State {
    /// Pops the next ready job id under the fairness discipline
    /// (highest priority level first, round-robin within a level).
    fn pick_ready(&mut self) -> Option<(u8, u64)> {
        loop {
            let (&prio, queue) = self.ready.iter_mut().next_back()?;
            match queue.pop_front() {
                Some(id) => {
                    if queue.is_empty() {
                        self.ready.remove(&prio);
                    }
                    return Some((prio, id));
                }
                None => {
                    self.ready.remove(&prio);
                }
            }
        }
    }

    /// Pops the next pending point under the fairness discipline and
    /// puts it on a worker. A ready job always has a pending point:
    /// admission and claims queue a job only then, and cancellation
    /// takes it out of the rotation.
    fn claim(&mut self) -> Option<Claimed> {
        let (prio, id) = self.pick_ready()?;
        let entry = self.jobs.get_mut(&id).expect("ready job must exist");
        let index = entry.pending.pop_front().expect("a ready job has a pending point");
        entry.state = JobState::Running;
        entry.running += 1;
        let now = Instant::now();
        entry.first_dispatch.get_or_insert(now);
        let wait_us = (now - entry.submitted_at).as_micros() as u64;
        let claimed = Claimed {
            job: id,
            index,
            point: entry.spec.points[index].clone(),
            fidelity: entry.spec.fidelity,
            timeout_ms: entry.spec.timeout_ms,
        };
        if !entry.pending.is_empty() {
            self.ready.entry(prio).or_default().push_back(id);
        }
        self.queued_points -= 1;
        self.running_points += 1;
        self.stats.queue_wait_us.record(wait_us);
        self.stats.log_dispatch(id, index);
        Some(claimed)
    }

    /// Deposits one completed row into its job: counters, broadcast,
    /// replay log, and — when this was the last outstanding point — the
    /// job's terminal transition and `End` event. The caller has already
    /// adjusted `running` bookkeeping.
    fn deposit_row(
        &mut self,
        id: u64,
        index: usize,
        status: RowStatus,
        measurement: Option<Measurement>,
        now: Instant,
    ) {
        match status {
            RowStatus::Done => self.stats.rows_done.inc(),
            RowStatus::Failed { .. } => self.stats.rows_failed.inc(),
            RowStatus::TimedOut => self.stats.rows_timed_out.inc(),
            RowStatus::Cancelled => self.stats.rows_cancelled.inc(),
        }
        let entry = self.jobs.get_mut(&id).expect("depositing into a known job");
        match status {
            RowStatus::Done => entry.done += 1,
            RowStatus::Failed { .. } => entry.failed += 1,
            RowStatus::TimedOut => entry.timed_out += 1,
            RowStatus::Cancelled => entry.cancelled_points += 1,
        }
        let row = RowResult { job: JobId(id), index, status, measurement };
        entry.broadcast(&Event::Row(Box::new(row.clone())));
        entry.log.push((row, now));
        let mut completed_job = false;
        let mut finished_job = false;
        if entry.is_finished() {
            if entry.state != JobState::Cancelled {
                entry.state = JobState::Done;
                completed_job = true;
            }
            let state = entry.state;
            entry.finished_at = Some(now);
            finished_job = true;
            entry.broadcast(&Event::End { job: JobId(id), state });
        }
        // Live deliveries happen at completion time: ~0 stream latency.
        let live_subs = entry.subscribers.len() as u64;
        if completed_job {
            self.stats.jobs_completed.inc();
        }
        for _ in 0..live_subs {
            self.stats.stream_us.record(0);
        }
        if finished_job {
            self.record_span(id);
        }
    }

    /// Captures `id`'s lifecycle span into the bounded ring (and the
    /// JSONL sink, when configured). Called exactly once per job, at its
    /// terminal transition (`finished_at` just set), so the ring holds
    /// the newest [`SPAN_LOG_CAP`] finished jobs: the job whose span
    /// leaves it leaves `jobs` too, replay log included, and its id
    /// becomes unknown to `status`, `subscribe` and `cancel`, like one
    /// never issued. A long-running daemon thus keeps its open jobs and
    /// the newest finished ones, not every row it ever streamed.
    fn record_span(&mut self, id: u64) {
        let started = self.stats.started();
        let entry = self.jobs.get(&id).expect("span of a known job");
        let finished = entry.finished_at.expect("span recorded at terminal transition");
        let queued_end = entry.first_dispatch.unwrap_or(finished);
        let span = JobSpan {
            job: id,
            name: entry.spec.name.clone(),
            priority: entry.spec.priority,
            points: entry.total(),
            state: format!("{:?}", entry.state),
            submitted_ms: (entry.submitted_at - started).as_secs_f64() * 1e3,
            queued_ms: (queued_end - entry.submitted_at).as_secs_f64() * 1e3,
            run_ms: entry.first_dispatch.map_or(0.0, |t| (finished - t).as_secs_f64() * 1e3),
            rows_done: entry.done,
            rows_failed: entry.failed,
            rows_timed_out: entry.timed_out,
            rows_cancelled: entry.cancelled_points,
        };
        if let Some(sink) = &self.span_sink {
            match serde_json::to_string(&span) {
                Ok(line) => {
                    let mut f = sink.lock().unwrap();
                    if let Err(e) = writeln!(f, "{line}") {
                        eprintln!("hbm-serve: span log write failed: {e}");
                    }
                }
                Err(e) => eprintln!("hbm-serve: span serialise failed: {e}"),
            }
        }
        if self.spans.len() == SPAN_LOG_CAP {
            if let Some(oldest) = self.spans.pop_front() {
                self.jobs.remove(&oldest.job);
            }
        }
        self.spans.push_back(span);
    }

    fn depth(&self) -> DepthGauges {
        DepthGauges {
            queued_points: self.queued_points,
            running_points: self.running_points,
            active_jobs: self.jobs.values().filter(|j| !j.state.is_terminal()).count(),
        }
    }

    /// Emits `Cancelled` rows for every pending point of `id` and
    /// removes the job from its ready level.
    fn cancel_pending(&mut self, id: u64) {
        let entry = self.jobs.get_mut(&id).expect("cancelling a known job");
        let pending = std::mem::take(&mut entry.pending);
        self.queued_points -= pending.len();
        let now = Instant::now();
        for index in pending {
            let row = RowResult {
                job: JobId(id),
                index,
                status: RowStatus::Cancelled,
                measurement: None,
            };
            entry.broadcast(&Event::Row(Box::new(row.clone())));
            entry.log.push((row, now));
            entry.cancelled_points += 1;
            self.stats.rows_cancelled.inc();
        }
        entry.state = JobState::Cancelled;
        let finished = entry.is_finished();
        if finished {
            entry.finished_at = Some(now);
            entry.broadcast(&Event::End { job: JobId(id), state: JobState::Cancelled });
        }
        if let Some(queue) = self.ready.get_mut(&entry.spec.priority) {
            queue.retain(|&q| q != id);
            if queue.is_empty() {
                let prio = entry.spec.priority;
                self.ready.remove(&prio);
            }
        }
        if finished {
            self.record_span(id);
        }
    }
}

/// One claimed work item, run outside the lock.
struct Claimed {
    job: u64,
    index: usize,
    point: GridPoint,
    fidelity: Fidelity,
    timeout_ms: Option<u64>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for claimable points.
    work: Condvar,
    /// Waiters (status polls, `wait`) park here for any progress.
    progress: Condvar,
    workers: usize,
    /// The result cache admission consults and workers evaluate through
    /// (possibly disabled).
    cache: ResultCache,
}

/// Cloneable in-process handle to a serving pool: the API the wire layer
/// wraps and tests drive directly.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    queue_capacity: usize,
}

/// A running serving pool: worker threads plus the [`ServeHandle`] to
/// reach them. Shut down explicitly with [`Server::shutdown`]; dropping
/// without it leaves workers parked until process exit.
pub struct Server {
    handle: ServeHandle,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads over a fresh scheduler.
    ///
    /// Spawning a pool turns process-wide telemetry on
    /// ([`metrics::set_enabled`]) — a daemon is the one consumer whose
    /// whole point is being observable — and registers the scheduler's
    /// depth gauges on the global registry (weakly: a render after this
    /// pool is gone reads 0, not a dangling scheduler).
    pub fn spawn(cfg: ServeConfig) -> Server {
        metrics::set_enabled(true);
        let workers = cfg.workers.max(1);
        let cache = cfg.cache.clone().unwrap_or_else(|| ResultCache::global().clone());
        let span_sink = cfg.span_log.as_ref().and_then(|path| {
            match std::fs::OpenOptions::new().create(true).append(true).open(path) {
                Ok(f) => Some(Arc::new(Mutex::new(f))),
                Err(e) => {
                    eprintln!("hbm-serve: cannot open span log {}: {e}", path.display());
                    None
                }
            }
        });
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_job: 0,
                jobs: BTreeMap::new(),
                ready: BTreeMap::new(),
                queued_points: 0,
                running_points: 0,
                paused: false,
                shutdown: false,
                stats: ServeStats::new(),
                spans: VecDeque::new(),
                span_sink,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            workers,
            cache,
        });
        register_depth_gauges(Registry::global(), &shared);
        let handle = ServeHandle { shared: shared.clone(), queue_capacity: cfg.queue_capacity };
        let threads = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hbm-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { handle, threads }
    }

    /// A handle to submit against this pool.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stops accepting work, cancels every unfinished job, and joins the
    /// workers (each finishes its in-flight point first).
    pub fn shutdown(self) {
        self.handle.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

impl ServeHandle {
    /// Admits `spec`, or rejects it when the pending queue cannot take
    /// the grid (see the module doc for which [`Rejection`]). Admission
    /// deposits every row that needs no simulation (see the module doc);
    /// the job's other points enter the fair-share rotation.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, Rejection> {
        // The raw grid is checked before any lookup or model work, so a
        // shutting-down pool, a grid larger than the queue or one that
        // cannot fit beside the queued points costs nothing to reject.
        self.admit(&self.shared.state.lock().unwrap(), spec.points.len())?;
        let (answered, pending, escalated) = admission_rows(&self.shared.cache, &spec);
        let mut st = self.shared.state.lock().unwrap();
        self.admit(&st, pending.len())?;
        st.next_job += 1;
        let id = st.next_job;
        let mut entry = JobEntry {
            spec,
            state: JobState::Queued,
            pending,
            running: 0,
            done: 0,
            failed: 0,
            timed_out: 0,
            cancelled_points: 0,
            log: Vec::new(),
            subscribers: Vec::new(),
            submitted_at: Instant::now(),
            first_dispatch: None,
            finished_at: None,
        };
        let n = entry.total();
        st.stats.jobs_submitted.inc();
        if n == 0 {
            // An empty grid is legal and terminates immediately.
            entry.state = JobState::Done;
            entry.finished_at = Some(entry.submitted_at);
            st.stats.jobs_completed.inc();
            st.jobs.insert(id, entry);
            st.record_span(id);
        } else {
            st.queued_points += entry.pending.len();
            if !entry.pending.is_empty() {
                st.ready.entry(entry.spec.priority).or_default().push_back(id);
            }
            st.jobs.insert(id, entry);
            if let Some(escalated) = escalated {
                batch::record_adaptive_grid(n - escalated, escalated);
            }
            let now = Instant::now();
            for (index, m) in answered {
                st.deposit_row(id, index, RowStatus::Done, Some(m), now);
            }
        }
        drop(st);
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
        Ok(JobId(id))
    }

    /// The admission check, which counts every rejection: more `points`
    /// than the whole queue holds are refused for good; a pool that is
    /// shutting down, or whose queue cannot take `points` more now, asks
    /// for a retry.
    fn admit(&self, st: &State, points: usize) -> Result<(), Rejection> {
        let rejection = if points > self.queue_capacity {
            Rejection::TooLarge { max_points: self.queue_capacity }
        } else if st.shutdown || st.queued_points + points > self.queue_capacity {
            Rejection::QueueFull { retry_after_ms: RETRY_AFTER_MS }
        } else {
            return Ok(());
        };
        st.stats.jobs_rejected.inc();
        Err(rejection)
    }

    /// Subscribes to a job's event stream. Rows already produced are
    /// replayed first (in their original completion order); live rows
    /// follow; a terminal [`Event::End`] closes the stream. Returns
    /// `None` for an unknown job.
    pub fn subscribe(&self, job: JobId) -> Option<Receiver<Event>> {
        let mut st = self.shared.state.lock().unwrap();
        let entry = st.jobs.get_mut(&job.0)?;
        let (tx, rx) = std::sync::mpsc::channel();
        let now = Instant::now();
        let mut replay_us = Vec::new();
        for (row, completed_at) in &entry.log {
            let _ = tx.send(Event::Row(Box::new(row.clone())));
            replay_us.push((now - *completed_at).as_micros() as u64);
        }
        if entry.is_finished() {
            let _ = tx.send(Event::End { job, state: entry.state });
        } else {
            entry.subscribers.push(tx);
        }
        for us in replay_us {
            st.stats.stream_us.record(us);
        }
        Some(rx)
    }

    /// A point-in-time status for `job`.
    pub fn status(&self, job: JobId) -> Option<JobStatus> {
        let st = self.shared.state.lock().unwrap();
        st.jobs.get(&job.0).map(|e| e.status(job.0, Instant::now()))
    }

    /// Cancels `job`: undispatched points become [`RowStatus::Cancelled`]
    /// rows at once (freeing their admission-queue slots); in-flight
    /// points finish and stream normally. Returns `false` for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, job: JobId) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        match st.jobs.get(&job.0) {
            Some(e) if !e.state.is_terminal() => {}
            _ => return false,
        }
        st.cancel_pending(job.0);
        st.stats.jobs_cancelled.inc();
        drop(st);
        self.shared.progress.notify_all();
        true
    }

    /// The observability snapshot the `stats` verb exports.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = self.shared.cache.snapshot();
        let st = self.shared.state.lock().unwrap();
        let depth = st.depth();
        st.stats.snapshot(self.shared.workers, depth, cache)
    }

    /// The result cache this pool consults (possibly disabled) — what
    /// the `cache` wire verb inspects and clears.
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Recent `(job, point)` dispatches, oldest first — the fairness
    /// audit trail (bounded; see [`crate::stats::DISPATCH_LOG_CAP`]).
    pub fn dispatch_log(&self) -> Vec<(u64, usize)> {
        self.shared.state.lock().unwrap().stats.dispatch_log.clone()
    }

    /// Finished-job lifecycle spans, oldest first (bounded; see
    /// [`crate::stats::SPAN_LOG_CAP`]) — what the `spans` verb returns.
    pub fn spans(&self) -> Vec<JobSpan> {
        self.shared.state.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Pauses dispatch: running points finish, queued points stay put.
    /// Called right after [`Server::spawn`], before the first submit, it
    /// stages a queue no worker has claimed from.
    pub fn pause(&self) {
        self.shared.state.lock().unwrap().paused = true;
    }

    /// Resumes dispatch after [`ServeHandle::pause`].
    pub fn resume(&self) {
        self.shared.state.lock().unwrap().paused = false;
        self.shared.work.notify_all();
    }

    /// Blocks until `job` reaches a terminal state (or `timeout`
    /// elapses). Returns the terminal state, `None` on timeout or for
    /// unknown jobs.
    pub fn wait(&self, job: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            match st.jobs.get(&job.0) {
                None => return None,
                Some(e) if e.is_finished() => return Some(e.state),
                Some(_) => {}
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, res) = self.shared.progress.wait_timeout(st, left).unwrap();
            st = guard;
            if res.timed_out() {
                return None;
            }
        }
    }

    /// Stops the pool: rejects future submissions, cancels every
    /// unfinished job (their subscribers get `Cancelled` rows and an
    /// `End`), and releases the workers once their in-flight points
    /// finish.
    pub fn shutdown(&self) {
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return;
        }
        st.shutdown = true;
        let open: Vec<u64> =
            st.jobs.iter().filter(|(_, e)| !e.state.is_terminal()).map(|(&id, _)| id).collect();
        for id in open {
            st.cancel_pending(id);
            st.stats.jobs_cancelled.inc();
        }
        drop(st);
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
    }

    /// `true` once [`ServeHandle::shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.shared.state.lock().unwrap().shutdown
    }
}

/// Registers the scheduler depth gauges as render-time collectors over
/// a weak reference to the pool — the exposition always reports the
/// *newest* pool's instantaneous depths (replace semantics, matching
/// the owned counter series) and degrades to 0 once it is dropped.
fn register_depth_gauges(reg: &Registry, shared: &Arc<Shared>) {
    let depth_of = |shared: &std::sync::Weak<Shared>, f: fn(DepthGauges) -> usize| {
        shared.upgrade().map_or(0, |s| f(s.state.lock().unwrap().depth()) as i64)
    };
    let w = Arc::downgrade(shared);
    reg.gauge_fn(
        "hbm_serve_queued_points",
        "Admitted points not yet dispatched (backpressure applies to this level)",
        &[],
        move || depth_of(&w, |d| d.queued_points),
    );
    let w = Arc::downgrade(shared);
    reg.gauge_fn(
        "hbm_serve_running_points",
        "Points currently measuring on a worker",
        &[],
        move || depth_of(&w, |d| d.running_points),
    );
    let w = Arc::downgrade(shared);
    reg.gauge_fn("hbm_serve_active_jobs", "Jobs in a non-terminal state", &[], move || {
        depth_of(&w, |d| d.active_jobs)
    });
    let w = Arc::downgrade(shared);
    reg.gauge_fn("hbm_serve_workers", "Worker threads in the serving pool", &[], move || {
        w.upgrade().map_or(0, |s| s.workers as i64)
    });
}

/// Answers, on the submitting thread and outside the scheduler lock,
/// every row of `spec` that needs no simulation. Returns those rows with
/// their grid indices, the indices left for the workers in grid order,
/// and for an adaptive job the number of points its plan escalated.
fn admission_rows(
    cache: &ResultCache,
    spec: &JobSpec,
) -> (Vec<(usize, Measurement)>, VecDeque<usize>, Option<usize>) {
    let fid = spec.fidelity;
    let plan =
        (spec.adaptive && !fid.is_analytical()).then(|| analytic::adaptive_plan(&spec.points, fid));
    let escalated = plan.as_ref().map(|(_, mask)| mask.iter().filter(|&&e| e).count());
    let mut plan = plan.map(|(rows, mask)| rows.into_iter().zip(mask));
    let (mut answered, mut pending) = (Vec::new(), VecDeque::new());
    for (index, (cfg, wl)) in spec.points.iter().enumerate() {
        let row = match plan.as_mut().and_then(Iterator::next) {
            Some((predicted, false)) => Some(predicted),
            // An analytical row is predicted (never cached); any other
            // is answered only by a cache hit.
            _ if fid.is_analytical() => Some(cache.measure_cached(cfg, wl, fid)),
            _ => cache.cached(cfg, wl, fid).map(|m| (*m).clone()),
        };
        match row {
            Some(m) => answered.push((index, m)),
            None => pending.push_back(index),
        }
    }
    (answered, pending, escalated)
}

fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.paused {
                    if let Some(c) = st.claim() {
                        break c;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let t0 = Instant::now();
        let (job, index) = (claimed.job, claimed.index);
        let (status, measurement, helper) = run_point(&shared.cache, claimed);
        let run = t0.elapsed();

        let mut st = shared.state.lock().unwrap();
        st.running_points -= 1;
        st.stats.run_us.record(run.as_micros() as u64);
        st.jobs.get_mut(&job).expect("job of a running point exists").running -= 1;
        st.deposit_row(job, index, status, measurement, Instant::now());
        let busy_ns = st.stats.busy_ns.clone();
        drop(st);
        shared.progress.notify_all();
        // The helper is joined before the next claim: a timed-out point
        // holds its worker until its simulation ends, so `workers`
        // bounds the simulations running at once.
        if let Some(helper) = helper {
            let _ = helper.join();
        }
        busy_ns.add(t0.elapsed().as_nanos() as u64);
    }
}

/// Evaluates one claimed point through [`ResultCache::measure_cached`],
/// containing panics and enforcing the wall-clock budget. With a budget
/// the evaluation runs on a helper thread holding its own clone of the
/// cache, so the row can be `TimedOut` at the deadline; the helper's
/// handle comes back with the row for the worker to join. A simulation
/// cannot be interrupted midway, so a timed-out helper runs on, and its
/// row still lands in the cache.
fn run_point(
    cache: &ResultCache,
    c: Claimed,
) -> (RowStatus, Option<Measurement>, Option<JoinHandle<()>>) {
    let Claimed { point: (cfg, wl), fidelity, timeout_ms, .. } = c;
    let evaluate = move |cache: &ResultCache| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.measure_cached(&cfg, &wl, fidelity)
        }))
    };
    let (outcome, helper) = match timeout_ms {
        None => (Some(evaluate(cache)), None),
        Some(ms) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let cache = cache.clone();
            let spawned =
                std::thread::Builder::new().name("hbm-serve-timeout".into()).spawn(move || {
                    let _ = tx.send(evaluate(&cache));
                });
            let Ok(helper) = spawned else {
                let error = "could not spawn timeout helper".into();
                return (RowStatus::Failed { error }, None, None);
            };
            (rx.recv_timeout(Duration::from_millis(ms)).ok(), Some(helper))
        }
    };
    let (status, measurement) = match outcome {
        None => (RowStatus::TimedOut, None),
        Some(Ok(m)) => (RowStatus::Done, Some(m)),
        Some(Err(p)) => (RowStatus::Failed { error: panic_message(&p) }, None),
    };
    (status, measurement, helper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_core::batch::run_grid;
    use hbm_core::experiment::FidelityTier;
    use hbm_core::SystemConfig;
    use hbm_traffic::Workload;

    const FID: Fidelity = Fidelity::cycle(200, 600);
    const WAIT: Duration = Duration::from_secs(120);

    fn tiny_points(n: usize) -> Vec<GridPoint> {
        (0..n)
            .map(|i| (SystemConfig::xilinx(), Workload { rotation: i % 4, ..Workload::scs() }))
            .collect()
    }

    fn spec(name: &str, n: usize) -> JobSpec {
        JobSpec::new(name, FID, tiny_points(n))
    }

    /// Collects a subscription into (rows sorted by index, end state).
    fn collect(rx: Receiver<Event>) -> (Vec<RowResult>, JobState) {
        let mut rows = Vec::new();
        let mut state = None;
        for ev in rx {
            match ev {
                Event::Row(r) => rows.push(*r),
                Event::End { state: s, .. } => {
                    state = Some(s);
                    break;
                }
            }
        }
        rows.sort_by_key(|r| r.index);
        (rows, state.expect("stream must end"))
    }

    #[test]
    fn served_rows_match_direct_run() {
        let server = Server::spawn(ServeConfig { workers: 3, ..ServeConfig::default() });
        let h = server.handle();
        let id = h.submit(spec("grid", 5)).unwrap();
        let rx = h.subscribe(id).unwrap();
        let (rows, state) = collect(rx);
        assert_eq!(state, JobState::Done);
        assert_eq!(rows.len(), 5);
        let direct = run_grid(&tiny_points(5), FID.warmup, FID.cycles, 2);
        for (row, want) in rows.iter().zip(&direct) {
            assert_eq!(row.status, RowStatus::Done);
            let got = row.measurement.as_ref().unwrap();
            assert_eq!(serde_json::to_string(got).unwrap(), serde_json::to_string(want).unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn equal_priority_jobs_interleave_point_by_point() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        let a = h.submit(spec("a", 3)).unwrap();
        let b = h.submit(spec("b", 3)).unwrap();
        h.resume();
        assert_eq!(h.wait(a, WAIT), Some(JobState::Done));
        assert_eq!(h.wait(b, WAIT), Some(JobState::Done));
        let log = h.dispatch_log();
        let jobs: Vec<u64> = log.iter().map(|&(j, _)| j).collect();
        assert_eq!(jobs, vec![a.0, b.0, a.0, b.0, a.0, b.0], "round-robin per point");
        server.shutdown();
    }

    #[test]
    fn higher_priority_job_drains_first() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        let low = h.submit(spec("low", 2)).unwrap();
        let high = h.submit(spec("high", 2).with_priority(9)).unwrap();
        h.resume();
        assert_eq!(h.wait(low, WAIT), Some(JobState::Done));
        let log = h.dispatch_log();
        let jobs: Vec<u64> = log.iter().map(|&(j, _)| j).collect();
        assert_eq!(jobs, vec![high.0, high.0, low.0, low.0], "strict priority between levels");
        server.shutdown();
    }

    #[test]
    fn queue_full_submission_is_rejected_with_retry_after() {
        let server =
            Server::spawn(ServeConfig { workers: 1, queue_capacity: 4, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        h.submit(spec("fits", 4)).unwrap();
        let rej = h.submit(spec("overflow", 1)).unwrap_err();
        assert_eq!(rej, Rejection::QueueFull { retry_after_ms: RETRY_AFTER_MS });
        assert_eq!(h.stats().jobs_rejected, 1);
        server.shutdown();
    }

    #[test]
    fn a_grid_larger_than_the_queue_is_refused_as_too_large() {
        let server =
            Server::spawn(ServeConfig { workers: 1, queue_capacity: 4, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        // An empty queue still cannot take 5 points, at any fidelity: an
        // analytical grid is refused too, though it would take no slot.
        let too_large = Rejection::TooLarge { max_points: 4 };
        assert_eq!(h.submit(spec("cycle", 5)).unwrap_err(), too_large);
        let analytical = JobSpec::new("analytical", Fidelity::ANALYTICAL, tiny_points(5));
        assert_eq!(h.submit(analytical).unwrap_err(), too_large);
        assert_eq!(h.stats().jobs_rejected, 2);
        // A grid of exactly the capacity is admitted.
        h.submit(spec("fits", 4)).unwrap();
        server.shutdown();
    }

    #[test]
    fn cancellation_reports_pending_points_and_ends_stream() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        let id = h.submit(spec("doomed", 4)).unwrap();
        let rx = h.subscribe(id).unwrap();
        assert!(h.cancel(id));
        assert!(!h.cancel(id), "second cancel is a no-op");
        let (rows, state) = collect(rx);
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.status == RowStatus::Cancelled));
        let status = h.status(id).unwrap();
        assert_eq!(status.cancelled_points, 4);
        // The queue slots were freed for admission control.
        assert_eq!(h.stats().depth.queued_points, 0);
        server.shutdown();
    }

    #[test]
    fn late_subscriber_replays_the_full_stream() {
        let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
        let h = server.handle();
        let id = h.submit(spec("replay", 3)).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let (rows, state) = collect(h.subscribe(id).unwrap());
        assert_eq!(state, JobState::Done);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.status == RowStatus::Done));
        server.shutdown();
    }

    #[test]
    fn empty_grid_completes_immediately() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        let id = h.submit(JobSpec::new("empty", FID, Vec::new())).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let (rows, state) = collect(h.subscribe(id).unwrap());
        assert!(rows.is_empty());
        assert_eq!(state, JobState::Done);
        server.shutdown();
    }

    #[test]
    fn timed_out_point_reports_timeout_and_rest_completes() {
        // 0 ms budget: the point cannot possibly finish in time.
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        let id = h.submit(spec("deadline", 2).with_timeout_ms(0)).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let (rows, _) = collect(h.subscribe(id).unwrap());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.status == RowStatus::TimedOut));
        assert_eq!(h.stats().rows_timed_out, 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_cancels_open_jobs_and_rejects_new_ones() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        let id = h.submit(spec("orphan", 2)).unwrap();
        let rx = h.subscribe(id).unwrap();
        server.shutdown();
        let (rows, state) = collect(rx);
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(rows.len(), 2);
        assert!(h.submit(spec("late", 1)).is_err(), "post-shutdown submissions are rejected");
    }

    #[test]
    fn identical_concurrent_jobs_never_double_simulate_a_point() {
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 2,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        h.pause();
        // Two rival jobs over the *same* grid, queued before any worker
        // runs: every point exists twice in the queue.
        let a = h.submit(spec("a", 4)).unwrap();
        let b = h.submit(spec("b", 4)).unwrap();
        h.resume();
        assert_eq!(h.wait(a, WAIT), Some(JobState::Done));
        assert_eq!(h.wait(b, WAIT), Some(JobState::Done));

        // The cache's misses prove single-flight: each of the 4 unique
        // points was simulated exactly once, despite 8 queued rows. A
        // duplicate's worker either hit or waited on its twin's flight.
        let snap = h.stats();
        assert_eq!(snap.rows_done, 8, "all 8 rows streamed");
        assert_eq!(snap.cache_misses, 4, "4 unique points → 4 simulations: {snap:?}");
        assert_eq!(
            snap.cache_hits + snap.cache_coalesced,
            4,
            "the duplicate rows were answered without a simulation: {snap:?}"
        );

        // Both jobs' rows carry real measurements, identical to direct.
        let direct = run_grid(&tiny_points(4), FID.warmup, FID.cycles, 1);
        for job in [a, b] {
            let (rows, state) = collect(h.subscribe(job).unwrap());
            assert_eq!(state, JobState::Done);
            for (row, want) in rows.iter().zip(&direct) {
                assert_eq!(row.status, RowStatus::Done);
                let got = row.measurement.as_ref().unwrap();
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(want).unwrap()
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn resubmitted_job_is_answered_entirely_from_cache() {
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 2,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        let first = h.submit(spec("first", 3)).unwrap();
        assert_eq!(h.wait(first, WAIT), Some(JobState::Done));
        let dispatched = h.dispatch_log().len();
        assert_eq!(dispatched, 3);

        let again = h.submit(spec("again", 3)).unwrap();
        assert_eq!(h.wait(again, WAIT), Some(JobState::Done));
        assert_eq!(h.dispatch_log().len(), dispatched, "rerun dispatched nothing");
        let snap = h.stats();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.rows_done, 6);
        let (rows, _) = collect(h.subscribe(again).unwrap());
        assert!(rows.iter().all(|r| r.measurement.is_some()), "hits carry measurements");
        server.shutdown();
    }

    #[test]
    fn different_fidelities_never_share_rows() {
        // Same points at a different fidelity must not share results or
        // flights. (Budgets do share: see
        // `budgets_share_one_simulation_but_only_done_rows`.)
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        let quick = h.submit(spec("quick", 2)).unwrap();
        assert_eq!(h.wait(quick, WAIT), Some(JobState::Done));
        let other_fid = Fidelity::cycle(FID.warmup, FID.cycles + 100);
        let slow = h.submit(JobSpec::new("slow", other_fid, tiny_points(2))).unwrap();
        assert_eq!(h.wait(slow, WAIT), Some(JobState::Done));
        let snap = h.stats();
        assert_eq!(snap.cache_hits, 0, "different fidelity cannot hit");
        assert_eq!(snap.cache_misses, 4);
        assert_eq!(h.dispatch_log().len(), 4);
        server.shutdown();
    }

    #[test]
    fn budgets_share_one_simulation_but_only_done_rows() {
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        h.pause();
        let rushed = h.submit(spec("rushed", 1).with_timeout_ms(0)).unwrap();
        let patient = h.submit(spec("patient", 1)).unwrap();
        h.resume();
        assert_eq!(h.wait(rushed, WAIT), Some(JobState::Done));
        assert_eq!(h.wait(patient, WAIT), Some(JobState::Done));
        let (rows, _) = collect(h.subscribe(rushed).unwrap());
        assert_eq!(rows[0].status, RowStatus::TimedOut);
        assert!(rows[0].measurement.is_none());
        let (rows, _) = collect(h.subscribe(patient).unwrap());
        assert_eq!(rows[0].status, RowStatus::Done);
        let direct = run_grid(&tiny_points(1), FID.warmup, FID.cycles, 1);
        assert_eq!(
            serde_json::to_string(rows[0].measurement.as_ref().unwrap()).unwrap(),
            serde_json::to_string(&direct[0]).unwrap()
        );
        // The timed-out job's simulation and the patient job's are one:
        // whichever started first led, the other waited or hit.
        assert_eq!(cache.snapshot().misses, 1, "{:?}", cache.snapshot());
        server.shutdown();
    }

    #[test]
    fn stats_cache_fields_are_the_cache_counters() {
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 2,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        h.pause();
        // A miss and a rival on the same point (which waits on its
        // flight, or hits if the leader is already done), then two hits.
        let a = h.submit(spec("a", 1)).unwrap();
        let b = h.submit(spec("b", 1)).unwrap();
        h.resume();
        assert_eq!(h.wait(a, WAIT), Some(JobState::Done));
        assert_eq!(h.wait(b, WAIT), Some(JobState::Done));
        let again = h.submit(JobSpec::new("again", FID, [tiny_points(1), tiny_points(1)].concat()));
        assert_eq!(h.wait(again.unwrap(), WAIT), Some(JobState::Done));

        let snap = h.stats();
        let own = cache.snapshot();
        assert_eq!(
            (snap.cache_hits, snap.cache_misses, snap.cache_coalesced),
            (own.hits, own.misses, own.coalesced)
        );
        assert_eq!(snap.cache, own);
        assert_eq!(own.misses, 1);
        assert_eq!(own.hits + own.coalesced, 3, "{own:?}");
        assert!(own.hits >= 2, "the resubmitted points hit at admission: {own:?}");
        server.shutdown();
    }

    #[test]
    fn adaptive_submit_is_admission_checked_before_analytical_prep() {
        let server =
            Server::spawn(ServeConfig { workers: 1, queue_capacity: 4, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        // A grid larger than the queue could ever hold is rejected up
        // front — adaptive escalation accounting is no way around the
        // capacity bound.
        let rej = h.submit(spec("too-big", 5).with_adaptive()).unwrap_err();
        assert_eq!(rej, Rejection::TooLarge { max_points: 4 });
        assert_eq!(h.stats().jobs_rejected, 1);
        // A grid that fits outright is admitted as before.
        let id = h.submit(spec("fits", 4).with_adaptive()).unwrap();
        h.resume();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        server.shutdown();

        // A shut-down pool rejects adaptive submissions without running
        // the model sweep.
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        server.shutdown();
        let rej = h.submit(spec("late", 2).with_adaptive()).unwrap_err();
        assert_eq!(rej, Rejection::QueueFull { retry_after_ms: RETRY_AFTER_MS });
    }

    #[test]
    fn adaptive_job_escalates_exactly_the_masked_points() {
        let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
        let h = server.handle();
        let points = tiny_points(6);
        let id = h.submit(JobSpec::new("adaptive", FID, points.clone()).with_adaptive()).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let (rows, state) = collect(h.subscribe(id).unwrap());
        assert_eq!(state, JobState::Done);
        assert_eq!(rows.len(), 6);

        // Recompute what the scheduler must have decided.
        let cal = analytic::Calibration::active();
        let analytical = Fidelity { tier: FidelityTier::Analytical, ..FID };
        let predicted: Vec<Measurement> =
            points.iter().map(|(cfg, wl)| analytic::predict(cfg, wl, analytical, cal)).collect();
        let mask = analytic::escalation_mask(
            &points,
            &predicted,
            cal,
            &analytic::EscalationPolicy::default(),
        );
        let direct = run_grid(&points, FID.warmup, FID.cycles, 1);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.status, RowStatus::Done);
            let got = serde_json::to_string(row.measurement.as_ref().unwrap()).unwrap();
            let want = if mask[i] { &direct[i] } else { &predicted[i] };
            // Escalated rows are byte-identical to a direct cycle run of
            // the same point; the rest are the analytical predictions.
            assert_eq!(got, serde_json::to_string(want).unwrap(), "row {i}, mask {mask:?}");
        }
        // Only the escalated points ever reached a worker.
        let escalated = mask.iter().filter(|&&b| b).count();
        assert_eq!(h.dispatch_log().len(), escalated, "mask {mask:?}");
        server.shutdown();
    }

    #[test]
    fn analytical_fidelity_job_streams_model_rows() {
        let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
        let h = server.handle();
        let points = tiny_points(3);
        let fid = Fidelity::ANALYTICAL;
        let id = h.submit(JobSpec::new("analytical", fid, points.clone())).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let (rows, _) = collect(h.subscribe(id).unwrap());
        let cal = analytic::Calibration::active();
        for (row, (cfg, wl)) in rows.iter().zip(&points) {
            let want = analytic::predict(cfg, wl, fid, cal);
            assert_eq!(
                serde_json::to_string(row.measurement.as_ref().unwrap()).unwrap(),
                serde_json::to_string(&want).unwrap()
            );
        }
        server.shutdown();
    }

    #[test]
    fn only_the_newest_finished_jobs_are_kept() {
        const EXTRA: usize = 3;
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(ResultCache::disabled()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        let point = tiny_points(1);
        let streamed: Vec<(JobId, String)> = (0..SPAN_LOG_CAP + EXTRA)
            .map(|i| {
                let spec = JobSpec::new(format!("job{i}"), Fidelity::ANALYTICAL, point.clone());
                let id = h.submit(spec).unwrap();
                assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
                let (rows, _) = collect(h.subscribe(id).unwrap());
                (id, serde_json::to_string(&rows).unwrap())
            })
            .collect();
        let never_issued = JobId(streamed.last().unwrap().0 .0 + 1);
        for &(id, _) in &streamed[..EXTRA] {
            for id in [id, never_issued] {
                assert!(h.status(id).is_none(), "{id:?} must be unknown to status");
                assert!(h.subscribe(id).is_none(), "{id:?} must be unknown to subscribe");
                assert!(!h.cancel(id), "{id:?} must be unknown to cancel");
                assert_eq!(h.wait(id, WAIT), None);
            }
        }
        for (id, bytes) in &streamed[EXTRA..] {
            assert_eq!(h.status(*id).unwrap().state, JobState::Done);
            let (rows, state) = collect(h.subscribe(*id).unwrap());
            assert_eq!(state, JobState::Done);
            assert_eq!(&serde_json::to_string(&rows).unwrap(), bytes, "{id:?} replay changed");
        }
        assert_eq!(h.spans().len(), SPAN_LOG_CAP);
        assert_eq!(h.stats().jobs_completed, (SPAN_LOG_CAP + EXTRA) as u64);
        server.shutdown();
    }

    #[test]
    fn analytical_jobs_are_answered_at_admission() {
        // Paused: no worker may claim, yet the job ends inside `submit`.
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        let h = server.handle();
        h.pause();
        let points = tiny_points(3);
        let fid = Fidelity::ANALYTICAL;
        let id = h.submit(JobSpec::new("analytical", fid, points.clone())).unwrap();
        assert_eq!(h.status(id).unwrap().state, JobState::Done);
        assert!(h.dispatch_log().is_empty(), "{:?}", h.dispatch_log());
        let (rows, _) = collect(h.subscribe(id).unwrap());
        let cal = analytic::Calibration::active();
        for (row, (cfg, wl)) in rows.iter().zip(&points) {
            assert_eq!(
                serde_json::to_string(row.measurement.as_ref().unwrap()).unwrap(),
                serde_json::to_string(&analytic::predict(cfg, wl, fid, cal)).unwrap()
            );
        }
        server.shutdown();
    }

    /// The adaptive plan of `points` at `FID`, checked to escalate some
    /// points and answer others analytically.
    fn mixed_plan(points: &[GridPoint]) -> (Vec<Measurement>, Vec<bool>) {
        let (rows, mask) = analytic::adaptive_plan(points, FID);
        assert!(mask.contains(&true) && mask.contains(&false), "mask {mask:?}");
        (rows, mask)
    }

    #[test]
    fn adaptive_job_with_cached_escalations_dispatches_nothing() {
        let points = tiny_points(6);
        let (predicted, mask) = mixed_plan(&points);
        let escalated = mask.iter().filter(|&&escalate| escalate).count() as u64;
        let cache = ResultCache::new();
        for ((cfg, wl), _) in points.iter().zip(&mask).filter(|(_, &escalate)| escalate) {
            cache.measure_cached(cfg, wl, FID);
        }
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        h.pause();
        let id = h.submit(JobSpec::new("adaptive", FID, points.clone()).with_adaptive()).unwrap();
        assert_eq!(h.status(id).unwrap().state, JobState::Done);
        assert!(h.dispatch_log().is_empty(), "{:?}", h.dispatch_log());
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (escalated, escalated), "{snap:?}");
        let (rows, _) = collect(h.subscribe(id).unwrap());
        let direct = run_grid(&points, FID.warmup, FID.cycles, 1);
        for (i, row) in rows.iter().enumerate() {
            let want = if mask[i] { &direct[i] } else { &predicted[i] };
            assert_eq!(
                serde_json::to_string(row.measurement.as_ref().unwrap()).unwrap(),
                serde_json::to_string(want).unwrap(),
                "row {i}, mask {mask:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn cancelling_an_adaptive_job_cancels_only_its_escalated_points() {
        let points = tiny_points(6);
        let (_, mask) = mixed_plan(&points);
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(ResultCache::new()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        h.pause();
        let id = h.submit(JobSpec::new("adaptive", FID, points.clone()).with_adaptive()).unwrap();
        let rx = h.subscribe(id).unwrap();
        assert!(h.cancel(id));
        let (rows, state) = collect(rx);
        assert_eq!(state, JobState::Cancelled);
        let indices: Vec<usize> = rows.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..points.len()).collect::<Vec<_>>(), "one row per point");
        for (row, &escalate) in rows.iter().zip(&mask) {
            let want = if escalate { RowStatus::Cancelled } else { RowStatus::Done };
            assert_eq!(row.status, want, "row {}, mask {mask:?}", row.index);
        }
        assert_eq!(h.stats().depth.queued_points, 0);
        server.shutdown();
    }

    #[test]
    fn timed_out_points_finish_before_their_worker_claims_again() {
        let cache = ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let h = server.handle();
        let job = JobSpec::new("budget", Fidelity::QUICK, tiny_points(4)).with_timeout_ms(0);
        let id = h.submit(job).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        server.shutdown();
        // The worker joined each helper before claiming again, so every
        // simulation ended, and cached its row, before `shutdown` returned.
        assert_eq!(cache.snapshot().inserts, 4, "{:?}", cache.snapshot());
    }

    #[test]
    fn stats_cover_latency_and_utilisation() {
        let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
        let h = server.handle();
        let id = h.submit(spec("observed", 4)).unwrap();
        assert_eq!(h.wait(id, WAIT), Some(JobState::Done));
        let snap = h.stats();
        assert_eq!(snap.rows_done, 4);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.queue_wait_us.count, 4);
        assert_eq!(snap.run_us.count, 4);
        assert!(snap.run_us.mean_us > 0.0);
        assert!(snap.worker_utilisation > 0.0);
        assert_eq!(snap.depth.queued_points, 0);
        assert_eq!(snap.depth.running_points, 0);
        server.shutdown();
    }
}
