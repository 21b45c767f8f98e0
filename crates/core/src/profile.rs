//! Sampled kernel phase profiler: wall-time attribution of the cycle
//! loop.
//!
//! A profiled run attributes *every* nanosecond of the kernel loop to one
//! of five phases:
//!
//! | phase | what it covers |
//! |---|---|
//! | `gens_tick` | master poll/offer (step phase 1) |
//! | `fabric_tick` | interconnect flit movement (step phase 2) |
//! | `mc_tick` | controller+DRAM timing advance (step phase 3, tick half) |
//! | `queue_ops` | port peek/pop/accept, stuck-completion retry, master completion drain (step phases 3+4, queue half) |
//! | `horizon_compute` | wake/horizon folds, lateral-boundary reconcile, and loop control |
//!
//! ## Mechanism: telescoping laps
//!
//! The profiler is a thread-local clock. [`begin`] stamps `t₀`; each
//! instrumented boundary in the kernel calls [`lap`]`(phase)`, which
//! adds `now − last` to that phase's accumulator and advances `last`;
//! [`end`] takes the final lap. Because every delta between consecutive
//! stamps is assigned to exactly one phase, the per-phase sums
//! *telescope*: their total equals `t_end − t₀` **exactly** (integer
//! nanoseconds, asserted by [`PhaseReport::consistent`] and the
//! `telemetry_equivalence` tests). There is no unattributed residue —
//! driver slack between two phase boundaries lands in the phase that
//! owns loop control (`horizon_compute`).
//!
//! ## Cost contract
//!
//! The kernel checks [`active`] **once per run** (one thread-local read)
//! and passes the result down as a register bool, so an unprofiled run
//! pays a handful of never-taken branches per cycle and a profiled run
//! pays one `Instant::now()` per component pass: the source pass, the
//! fabric tick, two per *visited* port (skipped ports lap nothing), the
//! completion drain, and each horizon fold. That observer
//! overhead is real (timed by `repro profile`, plain against profiled
//! runs; see DESIGN.md §3.7); attribution *fractions*
//! remain honest because stamp cost is spread across adjacent phases.
//! Profiling is observation-only: it cannot feed back into the
//! simulation, so profiled runs are byte-identical to unprofiled ones
//! (enforced by `tests/telemetry_equivalence.rs`).
//!
//! Profiling is per-thread: [`begin`]/[`end`] must bracket a run on the
//! *same* thread (`measure` runs on the caller's thread, so `repro
//! profile` just wraps it).

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{Counter, Registry};
use std::sync::Arc;

/// The five attribution phases, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Master poll/offer (step phase 1).
    GensTick,
    /// Interconnect flit movement (step phase 2).
    FabricTick,
    /// Controller + DRAM timing advance (step phase 3, tick half).
    McTick,
    /// Wake/horizon folds, lateral-boundary reconcile, loop control.
    HorizonCompute,
    /// Port peek/pop/accept, stuck retries, completion drains.
    QueueOps,
}

/// Number of phases.
pub const NUM_PHASES: usize = 5;

/// All phases, in display order.
pub const PHASES: [Phase; NUM_PHASES] =
    [Phase::GensTick, Phase::FabricTick, Phase::McTick, Phase::HorizonCompute, Phase::QueueOps];

impl Phase {
    /// The snake_case phase name used in tables, JSON, and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::GensTick => "gens_tick",
            Phase::FabricTick => "fabric_tick",
            Phase::McTick => "mc_tick",
            Phase::HorizonCompute => "horizon_compute",
            Phase::QueueOps => "queue_ops",
        }
    }
}

/// Which kernel a profiled run exercised (a metric label and report
/// field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kernel {
    /// The cycle kernel behind `HbmSystem::run` and `measure`.
    Scalar,
}

impl Kernel {
    /// Label value: `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
        }
    }
}

// ----------------------------------------------------------- thread state

struct ProfState {
    t0: Instant,
    last: Instant,
    /// The attribution so far (`total_ns` and `laps` are set by [`end`]).
    report: PhaseReport,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<ProfState>> = const { RefCell::new(None) };
}

/// Whether this thread is inside a [`begin`]/[`end`] window. The kernel
/// reads this once per run and branches on the cached bool.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Attributes the time since the previous stamp to `phase` and advances
/// the stamp. Call sites are guarded by [`active`]; calling while
/// inactive is a harmless no-op.
#[inline]
pub fn lap(phase: Phase) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let now = Instant::now();
            st.report.phase_ns[phase as usize] += (now - st.last).as_nanos() as u64;
            st.report.phase_laps[phase as usize] += 1;
            st.last = now;
        }
    });
}

/// Starts a profiling window on this thread for `kernel`. Any previous
/// unfinished window is discarded.
pub fn begin(kernel: Kernel) {
    let now = Instant::now();
    let report = PhaseReport::empty(kernel);
    STATE.with(|s| *s.borrow_mut() = Some(ProfState { t0: now, last: now, report }));
    ACTIVE.with(|a| a.set(true));
}

/// Ends the window and returns the attribution. The tail between the
/// last kernel stamp and this call is a final `horizon_compute` lap
/// (loop-control ownership), which is what makes
/// `sum(phase_ns) == total_ns` hold exactly. Returns an empty report if
/// no window was open.
pub fn end() -> PhaseReport {
    ACTIVE.with(|a| a.set(false));
    let st = STATE.with(|s| s.borrow_mut().take());
    let Some(ProfState { t0, last, mut report }) = st else {
        return PhaseReport::empty(Kernel::Scalar);
    };
    let now = Instant::now();
    report.phase_ns[Phase::HorizonCompute as usize] += (now - last).as_nanos() as u64;
    report.total_ns = (now - t0).as_nanos() as u64;
    report.laps = report.phase_laps.iter().sum();
    report.publish();
    report
}

// --------------------------------------------------------------- reports

/// One profiled window's attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Nanoseconds attributed to each phase, indexed by [`Phase`] in
    /// [`PHASES`] order.
    pub phase_ns: [u64; NUM_PHASES],
    /// Laps per phase, in the same order. They depend only on the
    /// simulation, so they repeat exactly (`mc_tick`: visited ports).
    pub phase_laps: [u64; NUM_PHASES],
    /// `t_end − t₀` of the window, measured independently of the laps.
    pub total_ns: u64,
    /// Stamp count, the sum of `phase_laps`.
    pub laps: u64,
}

impl PhaseReport {
    fn empty(kernel: Kernel) -> PhaseReport {
        let zero = [0; NUM_PHASES];
        PhaseReport { kernel, phase_ns: zero, phase_laps: zero, total_ns: 0, laps: 0 }
    }

    /// Nanoseconds attributed to `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Laps taken for `phase`.
    pub fn phase_laps(&self, phase: Phase) -> u64 {
        self.phase_laps[phase as usize]
    }

    /// Adds another window into this one. Each window telescopes, so
    /// the sum does too.
    pub fn merge(&mut self, other: &PhaseReport) {
        for p in PHASES {
            self.phase_ns[p as usize] += other.ns(p);
            self.phase_laps[p as usize] += other.phase_laps(p);
        }
        self.total_ns += other.total_ns;
        self.laps += other.laps;
    }

    /// Sum of all phase attributions.
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// The self-consistency invariant: the telescoping laps cover the
    /// window exactly, so attributed time equals measured loop time to
    /// the nanosecond.
    pub fn consistent(&self) -> bool {
        self.attributed_ns() == self.total_ns
    }

    /// `phase`'s share of the window, `0.0` for an empty window.
    pub fn fraction(&self, phase: Phase) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.ns(phase) as f64 / self.total_ns as f64
        }
    }

    /// JSON value with named phases (for `repro profile --json`).
    pub fn to_json(&self) -> serde_json::Value {
        let by_phase = |f: fn(&PhaseReport, Phase) -> u64| {
            serde_json::Value::Map(
                PHASES
                    .iter()
                    .map(|&p| (p.name().to_string(), serde::value::to_value(&f(self, p))))
                    .collect(),
            )
        };
        serde_json::json!({
            "kernel": self.kernel.name(),
            "phase_ns": by_phase(PhaseReport::ns),
            "phase_laps": by_phase(PhaseReport::phase_laps),
            "total_ns": self.total_ns,
            "laps": self.laps,
            "consistent": self.consistent(),
        })
    }

    /// Adds this window into the registry's kernel-phase counters (when
    /// metrics are enabled), so a daemon's exposition accumulates phase
    /// time across profiled runs.
    fn publish(&self) {
        if !crate::metrics::enabled() {
            return;
        }
        let handles = phase_counters();
        for p in PHASES {
            handles.phase[p as usize].add(self.ns(p));
        }
        handles.runs.inc();
    }
}

// ------------------------------------------------------- metric handles

struct PhaseCounters {
    /// One per phase, in [`PHASES`] order.
    phase: Vec<Arc<Counter>>,
    /// Profiled-run count.
    runs: Arc<Counter>,
}

fn phase_counters() -> &'static PhaseCounters {
    static HANDLES: OnceLock<PhaseCounters> = OnceLock::new();
    HANDLES.get_or_init(|| build_phase_counters(Registry::global()))
}

fn build_phase_counters(reg: &Registry) -> PhaseCounters {
    let kernel = Kernel::Scalar.name();
    let phase = PHASES
        .iter()
        .map(|p| {
            reg.counter(
                "hbm_kernel_phase_ns_total",
                "Profiled kernel wall time attributed per phase, in ns",
                &[("kernel", kernel), ("phase", p.name())],
            )
        })
        .collect();
    let runs = reg.counter(
        "hbm_kernel_profile_runs_total",
        "Completed phase-profiler windows",
        &[("kernel", kernel)],
    );
    PhaseCounters { phase, runs }
}

/// Pre-registers the kernel-phase series (all zero) so an exposition is
/// complete before any profiled run. Called by the registry's built-in
/// installer.
pub(crate) fn install_phase_series(reg: &Registry) {
    build_phase_counters(reg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telescoping_is_exact() {
        begin(Kernel::Scalar);
        lap(Phase::GensTick);
        std::thread::sleep(std::time::Duration::from_millis(2));
        lap(Phase::FabricTick);
        lap(Phase::QueueOps);
        let r = end();
        assert!(r.consistent(), "sum {} != total {}", r.attributed_ns(), r.total_ns);
        assert!(r.ns(Phase::FabricTick) >= 2_000_000);
        assert_eq!(r.laps, 3);
        assert_eq!(r.phase_laps, [1, 1, 0, 0, 1]);
        assert!(!active());
    }

    #[test]
    fn end_without_begin_is_empty() {
        let r = end();
        assert_eq!(r.total_ns, 0);
        assert!(r.consistent());
    }

    #[test]
    fn lap_while_inactive_is_noop() {
        lap(Phase::McTick);
        assert!(!active());
    }

    #[test]
    fn fractions_sum_to_one() {
        begin(Kernel::Scalar);
        lap(Phase::McTick);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let r = end();
        let total: f64 = PHASES.iter().map(|&p| r.fraction(p)).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(r.kernel, Kernel::Scalar);
    }

    #[test]
    fn json_shape() {
        begin(Kernel::Scalar);
        lap(Phase::GensTick);
        let v = end().to_json();
        assert!(matches!(v.get("kernel"), Some(serde_json::Value::Str(s)) if s == "scalar"));
        assert!(matches!(v.get("consistent"), Some(serde_json::Value::Bool(true))));
        let phases = v.get("phase_ns").expect("phase_ns present");
        assert!(matches!(phases.get("gens_tick"), Some(serde_json::Value::U64(_))));
        let laps = v.get("phase_laps").expect("phase_laps present");
        assert!(matches!(laps.get("gens_tick"), Some(serde_json::Value::U64(1))));
    }
}
