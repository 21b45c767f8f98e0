//! `hbm-serve` — a long-running, multi-client sweep-serving subsystem.
//!
//! PR 3 turned the simulator into a sweep farm (`hbm_core::batch`); this
//! crate turns the farm into a *service*. Clients submit [`JobSpec`]s —
//! named grids of `(SystemConfig, Workload)` points at a chosen
//! [`hbm_core::experiment::Fidelity`] — and stream back one
//! [`RowResult`] per point as it completes, over either:
//!
//! * the in-process [`ServeHandle`] API ([`Server::spawn`]), or
//! * newline-delimited JSON over TCP ([`WireServer`] / [`Client`]),
//!   speaking the exact same serde types. The server turns Nagle's
//!   algorithm off on every connection, so a stream's rows leave as they
//!   are written instead of waiting on the client's delayed ACK.
//!
//! The scheduler provides what a shared sweep box actually needs:
//!
//! * **One admission pass** — a submission answers every row that needs
//!   no simulation before its job is queued: analytical-fidelity points,
//!   the points an adaptive job's plan does not escalate, and points the
//!   cache already holds. Only the rest wait for a worker.
//! * **Admission control / backpressure** — a bounded queue of pending
//!   points; overflowing submissions are rejected immediately with
//!   [`Rejection::QueueFull`] carrying `retry_after_ms`
//!   ([`RETRY_AFTER_MS`]), and a grid larger than the whole queue with
//!   [`Rejection::TooLarge`], which no retry can admit.
//! * **Fair-share interleaving** — round-robin *per point* across jobs
//!   of equal priority, strict priority between levels, so a huge grid
//!   never head-of-line-blocks a small one.
//! * **Per-job priorities, cancellation, per-point timeouts** — undone
//!   points of a cancelled job come back as [`RowStatus::Cancelled`]
//!   rows; a point past its budget comes back [`RowStatus::TimedOut`]
//!   at the deadline, and holds its worker until its simulation ends;
//!   a panicking point comes back [`RowStatus::Failed`] without taking
//!   the worker down.
//! * **One evaluation path** — workers evaluate every dispatched point
//!   through [`ResultCache::measure_cached`], as batch grids do;
//!   identical points in flight share one simulation through the
//!   cache's single-flight. The `stats` verb's `cache_*` fields are the
//!   cache's own counters.
//! * **Observability** — queue-wait / run / stream latency histograms
//!   (`hbm_axi::Hist`, the workspace's one histogram),
//!   worker utilisation, and depth gauges, exported as a JSON
//!   [`StatsSnapshot`] by the `stats` verb. Every counter is a handle
//!   into the workspace metric registry
//!   ([`hbm_core::metrics::Registry::global`]), which the `metrics` verb
//!   renders as Prometheus text exposition and [`MetricsExposer`] serves
//!   over plain HTTP; finished jobs leave lifecycle [`JobSpan`]s (the
//!   `spans` verb, or a `--span-log` JSONL file).
//!
//! Everything is plain `std` — OS threads, mutex + condvar, blocking
//! TCP. No async runtime exists in the vendored dependency set, and
//! none is needed at this scale.
//!
//! Because every grid point is an independent deterministic simulation,
//! a served job's rows (reassembled by index) are **byte-identical** to
//! a direct [`hbm_core::batch::run_grid`] call, regardless of worker
//! count, competing clients, priorities, or cancellations of other jobs
//! — the `serve_determinism` proptest and the CI smoke leg both enforce
//! this.
//!
//! ```no_run
//! use hbm_core::experiment::Fidelity;
//! use hbm_serve::{JobSpec, Server, ServeConfig};
//!
//! let server = Server::spawn(ServeConfig::default());
//! let handle = server.handle();
//! let job = handle.submit(JobSpec::fig4(Fidelity::QUICK)).expect("admitted");
//! let events = handle.subscribe(job).expect("known job");
//! for event in events {
//!     // Row(..) per completed point, then End { .. }.
//!     let _ = event;
//! }
//! server.shutdown();
//! ```

pub mod expose;
pub mod job;
pub mod scheduler;
pub mod stats;
pub mod wire;

pub use expose::MetricsExposer;
pub use hbm_core::cache::{CacheSnapshot, ResultCache};
pub use job::{Event, JobId, JobSpec, JobState, JobStatus, Rejection, RowResult, RowStatus};
pub use scheduler::{ServeConfig, ServeHandle, Server};
pub use stats::{DepthGauges, HistSummary, JobSpan, ServeStats, StatsSnapshot};
pub use wire::{Client, WireServer, RETRY_AFTER_MS, RETRY_CAP_MS, RETRY_FLOOR_MS};
