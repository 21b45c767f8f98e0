//! The metric registry records per measurement, never per cycle
//! (DESIGN.md §3.7). So with metrics on, a 1 000-cycle `measure` and a
//! 4 000-cycle one move every counter (`_total`) and histogram count
//! (`_count`) of the exposition by the same amounts; a counter bumped
//! inside the kernel's step would not. The registry is process-global,
//! so this is the only test in its binary.

use std::collections::BTreeMap;

use hbm_fpga::core::prelude::*;
use hbm_fpga::core::{metrics, Registry};

/// Every `_total` and `_count` sample of the global exposition.
fn samples() -> BTreeMap<String, f64> {
    let text = Registry::global().render();
    let sample = |l: &str| {
        let (key, value) = l.rsplit_once(' ')?;
        let name = key.split('{').next()?;
        let counted = name.ends_with("_total") || name.ends_with("_count");
        counted.then(|| (key.to_string(), value.parse().expect("numeric sample")))
    };
    text.lines().filter(|l| !l.starts_with('#')).filter_map(sample).collect()
}

/// The samples one `measure` of `cycles` cycles moved, and by how much.
fn moved_by(cfg: &SystemConfig, wl: Workload, cycles: u64) -> BTreeMap<String, f64> {
    let before = samples();
    let _ = measure(cfg, wl, 500, cycles);
    let delta = |(key, after): (String, f64)| {
        let d = after - before.get(&key).copied().unwrap_or(0.0);
        (d != 0.0).then_some((key, d))
    };
    samples().into_iter().filter_map(delta).collect()
}

#[test]
fn registry_moves_per_measurement_not_per_cycle() {
    metrics::set_enabled(true);
    for (cfg, wl) in
        [(SystemConfig::xilinx(), Workload::scs()), (SystemConfig::mao(), Workload::ccra())]
    {
        let (short, long) = (moved_by(&cfg, wl, 1_000), moved_by(&cfg, wl, 4_000));
        assert_eq!(short.get("hbm_run_measurements_total"), Some(&1.0), "{short:?}");
        assert_eq!(short, long, "{:?}: the registry moved with the window length", cfg.fabric);
    }
}
