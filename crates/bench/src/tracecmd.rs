//! The `repro trace` subcommand: runs a traced, probed scenario and
//! emits the time-resolved artifacts.
//!
//! Outputs:
//!
//! * `TRACE_events.json` — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`): one slice per transaction with nested
//!   latency-component slices, plus probe counter tracks;
//! * `TRACE_probes.jsonl` — one windowed [`hbm_core::probe::Snapshot`]
//!   per line;
//! * an attribution report on stdout: per-component p50/p95/p99/p99.9/max
//!   tables for reads and writes, and the component-sum exactness check.
//!
//! `--smoke` shrinks the run to a few transactions and validates both
//! artifacts against the trace-event schema — the CI gate.

use hbm_axi::{Dir, Tracer};
use hbm_core::export::{
    chrome_trace_json, probes_jsonl, validate_chrome_trace, validate_probes_jsonl,
};
use hbm_core::probe::ProbeConfig;
use hbm_core::report::TextTable;
use hbm_core::{HbmSystem, SystemConfig};
use hbm_traffic::Workload;

/// Everything `repro trace` produces, for the binary to print/write.
pub struct TraceOutcome {
    /// Chrome trace-event JSON document.
    pub trace_json: String,
    /// Probe snapshots, one JSON object per line.
    pub probes: String,
    /// Human-readable attribution report.
    pub report: String,
    /// Delivered transactions.
    pub delivered: u64,
}

/// The traced scenario: rotated SCS on the stock Xilinx fabric, so the
/// trace shows source stalls, lateral hops, *and* DRAM service. Bounded
/// per-master transaction counts keep the artifact sizes fixed and the
/// output deterministic.
fn scenario(txns_per_master: u64) -> HbmSystem {
    let wl = Workload { rotation: 4, ..Workload::scs() };
    HbmSystem::new(&SystemConfig::xilinx(), wl, Some(txns_per_master))
}

fn attribution_table(tracer: &Tracer, dir: Dir) -> String {
    let hists = tracer.attr(dir);
    let mut t = TextTable::new(["component", "n", "mean", "p50", "p95", "p99", "p99.9", "max"]);
    for (name, h) in hists.components() {
        let p = |v: Option<u64>| v.map_or_else(|| "—".into(), |v| v.to_string());
        t.row([
            name.to_string(),
            h.n.to_string(),
            format!("{:.1}", h.mean().unwrap_or(0.0)),
            p(h.p50()),
            p(h.p95()),
            p(h.p99()),
            p(h.p999()),
            if h.n == 0 { "—".into() } else { h.max.to_string() },
        ]);
    }
    let label = match dir {
        Dir::Read => "reads",
        Dir::Write => "writes",
    };
    format!("[{label}] latency attribution (cycles @300 MHz)\n{}", t.render())
}

/// Runs the traced scenario and renders every artifact. Panics if the
/// exported trace fails schema validation or any transaction's component
/// sum deviates from its end-to-end latency — those are the invariants
/// the instrumentation layer promises.
pub fn run_trace(smoke: bool, quick: bool) -> TraceOutcome {
    let txns = if smoke {
        4
    } else if quick {
        64
    } else {
        512
    };
    let mut sys = scenario(txns);
    sys.enable_tracing(1 << 16);
    sys.attach_probe(ProbeConfig { interval: if smoke { 64 } else { 1024 }, capacity: 1 << 12 });
    assert!(sys.run_until_drained(100_000_000), "trace scenario did not drain");

    let clock = sys.clock();
    let tracer = sys.tracer().expect("tracing enabled").snapshot();
    let probe = sys.probe().expect("probe attached");
    let trace_json = chrome_trace_json(&tracer, Some(probe), clock);
    let probes = probes_jsonl(probe, clock);

    // The acceptance invariant: per-transaction component sums equal the
    // recorded end-to-end latency, for every delivered record.
    let mut exact = 0u64;
    for rec in tracer.records() {
        let attr = rec.attribution().expect("delivered record must attribute");
        assert_eq!(
            attr.total(),
            rec.end_to_end().expect("delivered record has e2e"),
            "component sum deviates for master {} seq {}",
            rec.master,
            rec.seq,
        );
        exact += 1;
    }
    let check = validate_chrome_trace(&trace_json).expect("exported trace must validate");
    let snaps = validate_probes_jsonl(&probes).expect("exported probes must validate");

    let mut report = format!(
        "Time-resolved trace — rotated SCS (rotation 4) on the Xilinx fabric,\n\
         {txns} transactions/master, drained at cycle {}\n\n",
        sys.now()
    );
    report.push_str(&attribution_table(&tracer, Dir::Read));
    report.push('\n');
    report.push_str(&attribution_table(&tracer, Dir::Write));
    report.push('\n');
    report.push_str(&format!(
        "component-sum check: {exact}/{} records exact\n\
         trace-event schema: OK ({} events: {} txn slices, {} counters)\n\
         probe snapshots: {snaps} windows\n",
        tracer.delivered_count(),
        check.events,
        check.txns,
        check.counters,
    ));
    TraceOutcome { trace_json, probes, report, delivered: tracer.delivered_count() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_validates_and_reports() {
        let out = run_trace(true, false);
        assert_eq!(out.delivered, 4 * 32);
        assert!(out.report.contains("component-sum check: 128/128 records exact"));
        assert!(out.report.contains("trace-event schema: OK"));
        assert!(out.trace_json.contains("\"traceEvents\""));
        assert!(!out.probes.is_empty());
    }

    #[test]
    fn smoke_trace_is_deterministic() {
        let a = run_trace(true, false);
        let b = run_trace(true, false);
        assert_eq!(a.trace_json, b.trace_json, "trace export must be byte-identical");
        assert_eq!(a.probes, b.probes);
    }
}
