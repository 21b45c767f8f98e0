//! Trace capture, serialisation, and cross-fabric replay.
//!
//! Captures the CCS workload's transaction stream once, round-trips it
//! through JSON, and replays the *identical* stimulus against the stock
//! Xilinx fabric and the MAO — the cleanest way to attribute a
//! performance difference to the interconnect alone.
//!
//! Run with: `cargo run --release --example trace_replay`

use hbm_fpga::core::prelude::*;
use hbm_fpga::core::trace::replay_system;
use hbm_fpga::traffic::Trace;

fn main() {
    // Capture: 64 transactions per master, nominally one per 2 cycles.
    let trace = Trace::capture(Workload::ccs(), 32, 256 << 20, 64, 2);
    println!(
        "captured {} events ({} KiB of traffic) from the CCS workload",
        trace.events.len(),
        trace.total_bytes() / 1024
    );

    // Serialise / deserialise (what you would save to disk).
    let json = trace.to_json();
    let trace = Trace::from_json(&json).expect("round trip");
    println!("JSON round trip: {} bytes of trace file\n", json.len());

    // Replay on both fabrics.
    for (name, cfg) in
        [("stock Xilinx fabric", SystemConfig::xilinx()), ("MAO", SystemConfig::mao())]
    {
        let mut sys = replay_system(&cfg, &trace, 32);
        let ok = sys.run_until_drained(10_000_000);
        assert!(ok, "replay did not finish");
        let cycles = sys.now();
        let gbps = sys.clock().throughput_gbps(trace.total_bytes(), cycles);
        let stats = sys.gen_stats();
        let mut read_lat = hbm_fpga::axi::Hist::default();
        for g in &stats {
            read_lat.merge(&g.read_lat);
        }
        println!(
            "{name:22}: drained in {cycles:>7} cycles  ({gbps:6.1} GB/s effective, \
             read latency {:.0} ±{:.0} cycles)",
            read_lat.mean().unwrap_or(f64::NAN),
            read_lat.std_dev().unwrap_or(f64::NAN),
        );
    }
    println!("\nSame addresses, same order, same pacing — the gap is pure interconnect.");
}
