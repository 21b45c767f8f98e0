//! Warm-up + fixed-horizon measurement harness.

use std::sync::{Arc, OnceLock};

use hbm_axi::{ClockDomain, Cycle};
use hbm_fabric::FabricStats;
use hbm_mem::MemStats;
use hbm_traffic::{GenStats, Workload};
use serde::{Deserialize, Serialize};

use crate::metrics::{self, Counter, Gauge, Histo, Registry};
use crate::system::{HbmSystem, SystemConfig};

/// The result of one measured run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Cycles in the measured window (after warm-up).
    pub cycles: Cycle,
    /// Accelerator clock.
    pub clock: ClockDomain,
    /// Aggregate generator statistics over all masters. A row carries
    /// no per-master copy: callers that need each master's own
    /// statistics read [`HbmSystem::gen_stats`] on a system they run,
    /// e.g. from [`measured_system`].
    pub gen: GenStats,
    /// Aggregate DRAM statistics.
    pub mem: MemStats,
    /// Interconnect statistics.
    pub fabric: FabricStats,
    /// Theoretical device bandwidth of the measured configuration in
    /// GB/s, derived from the HBM geometry (`num_pch × per-PCH peak`).
    /// Defaults to 0 when deserializing older measurements;
    /// [`pct_of_device`](Measurement::pct_of_device) then falls back to
    /// the stock XCVU37P figure.
    #[serde(default)]
    pub device_gbps: f64,
}

impl Measurement {
    /// Read throughput in GB/s (completed payload bytes at the masters).
    pub fn read_gbps(&self) -> f64 {
        self.clock.throughput_gbps(self.gen.bytes_read, self.cycles)
    }

    /// Write throughput in GB/s.
    pub fn write_gbps(&self) -> f64 {
        self.clock.throughput_gbps(self.gen.bytes_written, self.cycles)
    }

    /// Combined throughput in GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.read_gbps() + self.write_gbps()
    }

    /// Throughput as a percentage of the configuration's theoretical
    /// device bandwidth (the paper normalises against 460.8 GB/s — the
    /// stock 32-PCH XCVU37P value — which remains the fallback for
    /// measurements that predate the `device_gbps` field).
    pub fn pct_of_device(&self) -> f64 {
        let device = if self.device_gbps > 0.0 { self.device_gbps } else { 460.8 };
        100.0 * self.total_gbps() / device
    }

    /// Mean read latency in cycles.
    pub fn read_latency_mean(&self) -> Option<f64> {
        self.gen.read_lat.mean()
    }

    /// Read-latency standard deviation in cycles.
    pub fn read_latency_std(&self) -> Option<f64> {
        self.gen.read_lat.std_dev()
    }

    /// Mean write latency in cycles.
    pub fn write_latency_mean(&self) -> Option<f64> {
        self.gen.write_lat.mean()
    }

    /// Read-latency percentile (e.g. 0.99 for p99), in cycles.
    pub fn read_latency_percentile(&self, q: f64) -> Option<u64> {
        self.gen.read_lat.percentile(q)
    }

    /// Write-latency percentile, in cycles.
    pub fn write_latency_percentile(&self, q: f64) -> Option<u64> {
        self.gen.write_lat.percentile(q)
    }

    /// Write-latency standard deviation in cycles.
    pub fn write_latency_std(&self) -> Option<f64> {
        self.gen.write_lat.std_dev()
    }
}

/// Occupancy histograms fed once per completed measurement: how loaded
/// the lateral ring and the memory controllers were over the measured
/// window. Values are integer percent (0–100), so the registry's
/// power-of-two buckets resolve idle / light / half / saturated cleanly.
struct RunMetrics {
    measurements: Arc<Counter>,
    lateral_pct: Arc<Histo>,
    mc_busy_pct: Arc<Histo>,
    mc_stall_pct: Arc<Histo>,
    row_hit_pct: Arc<Histo>,
}

fn build_run_metrics(reg: &Registry) -> RunMetrics {
    RunMetrics {
        measurements: reg.counter(
            "hbm_run_measurements_total",
            "Completed measurement windows published to the registry",
            &[],
        ),
        lateral_pct: reg.histogram(
            "hbm_run_lateral_occupancy_pct",
            "Busiest lateral bus occupancy per measurement (percent of cycles moving a beat)",
            &[],
        ),
        mc_busy_pct: reg.histogram(
            "hbm_run_mc_busy_pct",
            "Mean per-PCH data-bus busy time per measurement (percent of the window)",
            &[],
        ),
        mc_stall_pct: reg.histogram(
            "hbm_run_mc_stall_pct",
            "Mean per-PCH data-bus bank-timing stall per measurement (percent of the window)",
            &[],
        ),
        row_hit_pct: reg.histogram(
            "hbm_run_row_hit_pct",
            "Row-buffer hit rate per measurement (percent of classified accesses)",
            &[],
        ),
    }
}

fn run_metrics() -> &'static RunMetrics {
    static M: OnceLock<RunMetrics> = OnceLock::new();
    M.get_or_init(|| build_run_metrics(Registry::global()))
}

/// Queue families reported by [`HbmSystem::for_each_queue_hwm`]: the
/// fabric's link families plus the three controller queues.
const HWM_FAMILIES: [&str; 7] =
    ["ingress", "egress", "mc_link", "lateral", "mc_req", "mc_resp", "mc_ack"];

/// One gauge per queue family: the deepest any queue of that family ever
/// got during the most recent measurement window (warm-up included — the
/// marks accumulate from system construction).
struct QueueHwmMetrics {
    peak: [Arc<Gauge>; 7],
}

fn build_queue_hwm_metrics(reg: &Registry) -> QueueHwmMetrics {
    QueueHwmMetrics {
        peak: HWM_FAMILIES.map(|family| {
            reg.gauge(
                "hbm_run_queue_high_water",
                "Peak occupancy of the deepest queue of each family in the last measured run",
                &[("family", family)],
            )
        }),
    }
}

fn queue_hwm_metrics() -> &'static QueueHwmMetrics {
    static M: OnceLock<QueueHwmMetrics> = OnceLock::new();
    M.get_or_init(|| build_queue_hwm_metrics(Registry::global()))
}

/// Publishes a finished system's per-family queue high-water marks as
/// labeled gauges. Costs one relaxed load when metrics are off; when on,
/// it walks the queues once — strictly outside the cycle loop.
pub fn record_queue_hwms(sys: &HbmSystem) {
    if !metrics::enabled() {
        return;
    }
    let mut peaks = [0usize; 7];
    sys.for_each_queue_hwm(&mut |family, hwm| {
        let i = HWM_FAMILIES.iter().position(|f| *f == family);
        if let Some(i) = i {
            peaks[i] = peaks[i].max(hwm);
        }
    });
    let g = queue_hwm_metrics();
    for (gauge, peak) in g.peak.iter().zip(peaks) {
        gauge.set(peak as i64);
    }
}

/// Pre-registers the run-occupancy series so expositions list them (at
/// zero) before the first measurement. Called by the registry's
/// built-in installer.
pub(crate) fn install_run_series(reg: &Registry) {
    build_run_metrics(reg);
    build_queue_hwm_metrics(reg);
}

fn as_pct(fraction: f64) -> u64 {
    (fraction * 100.0).round().clamp(0.0, 100.0) as u64
}

/// Publishes a completed measurement's occupancy figures to the global
/// registry. `num_pch` normalises the aggregate (summed over pseudo-
/// channels) DRAM bus-time counters back to a per-PCH percentage. No-op
/// unless metrics are enabled — the simulation itself never pays for
/// this, it runs once per measurement window.
fn record_run_metrics(m: &Measurement, num_pch: usize) {
    if !metrics::enabled() {
        return;
    }
    let r = run_metrics();
    r.measurements.inc();
    if let Some(f) = m.fabric.lateral_occupancy(m.cycles) {
        r.lateral_pct.record(as_pct(f));
    }
    let window_ns = m.clock.cycles_to_ns(m.cycles) * num_pch.max(1) as f64;
    if let Some(f) = m.mem.busy_fraction(window_ns) {
        r.mc_busy_pct.record(as_pct(f));
    }
    if let Some(f) = m.mem.stall_fraction(window_ns) {
        r.mc_stall_pct.record(as_pct(f));
    }
    if let Some(f) = m.mem.hit_rate() {
        r.row_hit_pct.record(as_pct(f));
    }
}

/// Runs `workload` on `cfg` for `warmup` cycles, clears statistics, then
/// measures for `cycles` cycles.
pub fn measure(
    cfg: &SystemConfig,
    workload: Workload,
    warmup: Cycle,
    cycles: Cycle,
) -> Measurement {
    let sys = measured_system(cfg, workload, warmup, cycles);
    let m = snapshot(&sys, cycles);
    record_run_metrics(&m, cfg.hbm.num_pch);
    record_queue_hwms(&sys);
    m
}

/// The system [`measure`] measures: `warmup` cycles, statistics
/// cleared, then `cycles` measured cycles. [`snapshot`] of it is the
/// row `measure` returns; the system itself also answers what a row
/// does not carry, such as each master's [`HbmSystem::gen_stats`].
pub fn measured_system(
    cfg: &SystemConfig,
    workload: Workload,
    warmup: Cycle,
    cycles: Cycle,
) -> HbmSystem {
    let mut sys = HbmSystem::new(cfg, workload, None);
    sys.run(warmup);
    sys.reset_stats();
    sys.run(cycles);
    sys
}

/// Extracts a [`Measurement`] from a system after `cycles` measured
/// cycles.
pub fn snapshot(sys: &HbmSystem, cycles: Cycle) -> Measurement {
    Measurement {
        cycles,
        clock: sys.clock(),
        gen: sys.gen_stats_total(),
        mem: sys.mem_stats(),
        fabric: sys.fabric_stats(),
        device_gbps: sys.config().hbm.theoretical_bw_gbps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short windows keep debug-build test time reasonable; calibration
    /// against paper anchors happens in the integration tests with longer
    /// windows.
    const WARM: Cycle = 1_500;
    const MEAS: Cycle = 4_000;

    #[test]
    fn scs_reaches_high_throughput() {
        let m = measure(&SystemConfig::xilinx(), Workload::scs(), WARM, MEAS);
        // Paper: 416.7 GB/s (90.6 %) for perfect SCS at 2:1.
        assert!(m.total_gbps() > 350.0, "SCS throughput {} GB/s too low", m.total_gbps());
        assert!(m.total_gbps() < 461.0, "cannot exceed theoretical bandwidth");
    }

    #[test]
    fn ccs_hotspot_collapses_on_xilinx() {
        let m = measure(&SystemConfig::xilinx(), Workload::ccs(), WARM, MEAS);
        // Paper: 13.0 GB/s (2.8 %).
        assert!(m.total_gbps() < 40.0, "hot-spot CCS should collapse, got {} GB/s", m.total_gbps());
    }

    #[test]
    fn mao_rescues_ccs() {
        let x = measure(&SystemConfig::xilinx(), Workload::ccs(), WARM, MEAS);
        let o = measure(&SystemConfig::mao(), Workload::ccs(), WARM, MEAS);
        // Paper: 40.6× (13.0 → 414 GB/s). Demand ≥ 10× here.
        assert!(
            o.total_gbps() > 10.0 * x.total_gbps(),
            "MAO {} vs XLNX {}",
            o.total_gbps(),
            x.total_gbps()
        );
        assert!(o.total_gbps() > 300.0);
    }

    #[test]
    fn mao_improves_ccra() {
        let x = measure(&SystemConfig::xilinx(), Workload::ccra(), WARM, MEAS);
        let o = measure(&SystemConfig::mao(), Workload::ccra(), WARM, MEAS);
        // Paper: 3.78× (70.4 → 266 GB/s).
        assert!(
            o.total_gbps() > 1.8 * x.total_gbps(),
            "MAO {} vs XLNX {}",
            o.total_gbps(),
            x.total_gbps()
        );
    }

    /// Rows are held by the thousand (cache tiers, serve jobs); the
    /// latency histograms must not grow them.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn a_row_is_at_most_720_bytes() {
        assert!(std::mem::size_of::<Measurement>() <= 720);
    }

    #[test]
    fn rw_split_respects_ratio() {
        let m = measure(&SystemConfig::xilinx(), Workload::scs(), WARM, MEAS);
        let ratio = m.read_gbps() / m.write_gbps();
        assert!(
            (1.5..2.5).contains(&ratio),
            "2:1 issue ratio should give ≈2:1 throughput, got {ratio}"
        );
    }

    #[test]
    fn latencies_present_in_measurement() {
        let m = measure(&SystemConfig::xilinx(), Workload::scs(), WARM, MEAS);
        assert!(m.read_latency_mean().is_some());
        assert!(m.write_latency_mean().is_some());
        assert!(m.write_latency_mean().unwrap() < m.read_latency_mean().unwrap());
    }

    #[test]
    fn percentiles_available_and_ordered() {
        let m = measure(&SystemConfig::xilinx(), Workload::ccs(), WARM, MEAS);
        let p50 = m.read_latency_percentile(0.5).unwrap();
        let p99 = m.read_latency_percentile(0.99).unwrap();
        assert!(p99 >= p50);
        // Under hot-spot congestion the tail is far above the median.
        assert!(p99 as f64 > m.read_latency_mean().unwrap());
    }

    #[test]
    fn percentage_normalisation() {
        let m = measure(&SystemConfig::xilinx(), Workload::scs(), WARM, MEAS);
        let pct = m.pct_of_device();
        assert!((50.0..100.0).contains(&pct), "{pct}");
    }

    #[test]
    fn device_bandwidth_derived_from_config() {
        let cfg = SystemConfig::xilinx();
        let m = measure(&cfg, Workload::scs(), WARM, MEAS);
        assert!((m.device_gbps - 460.8).abs() < 1e-9, "{}", m.device_gbps);
        // A halved device must normalise against its own peak, not the
        // stock figure.
        let mut half = cfg.clone();
        half.hbm.num_pch = 16;
        let sys = HbmSystem::new(&half, Workload::scs(), Some(1));
        let m = snapshot(&sys, 1);
        assert!((m.device_gbps - 230.4).abs() < 1e-9, "{}", m.device_gbps);
    }

    #[test]
    fn legacy_measurement_without_device_field_falls_back() {
        let mut m = measure(&SystemConfig::xilinx(), Workload::scs(), WARM, MEAS);
        let with_field = m.pct_of_device();
        m.device_gbps = 0.0; // as deserialized from a pre-field JSON
        assert!(
            (m.pct_of_device() - with_field).abs() < 1e-9,
            "fallback must match the stock device: {} vs {with_field}",
            m.pct_of_device()
        );
    }
}
