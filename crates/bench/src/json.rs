//! The machine-readable experiment records `repro --json` prints: one
//! `{"experiment": NAME, "rows": ...}` object per line, in a fixed
//! order. `tests/repro_golden.rs` pins the QUICK output of `repro all`
//! through this same emitter.

use std::io::{self, Write};

use hbm_core::experiment::{self, Fidelity};

fn emit(out: &mut impl Write, name: &str, rows: impl serde::Serialize) -> io::Result<()> {
    writeln!(out, "{}", serde_json::json!({ "experiment": name, "rows": rows }))
}

/// Runs every experiment `want` selects at fidelity `fid` and writes one
/// JSON record per line to `out`, each as soon as it is measured.
/// `want` receives `repro`'s experiment names (`fig7` and `table5`
/// select the same record; `ablations` selects the ablations and the
/// mixed-interference record).
pub fn run_json(
    fid: Fidelity,
    want: impl Fn(&str) -> bool,
    out: &mut impl Write,
) -> io::Result<()> {
    if want("fig2") {
        emit(out, "fig2", experiment::fig2_rw_ratio(fid))?;
    }
    if want("fig3") {
        emit(out, "fig3", experiment::fig3_burst_length(fid))?;
    }
    if want("fig4") {
        emit(out, "fig4", experiment::fig4_rotation(fid))?;
    }
    if want("table2") {
        emit(out, "table2", experiment::table2_latency(fid))?;
    }
    if want("table4") {
        emit(out, "table4", experiment::table4_throughput(fid))?;
    }
    if want("fig5") {
        emit(out, "fig5", experiment::fig5_stride(fid))?;
    }
    if want("fig6") {
        emit(out, "fig6", experiment::fig6_reorder(fid))?;
    }
    if want("fig7") || want("table5") {
        emit(out, "fig7", crate::fig7::fig7_report(fid))?;
    }
    if want("latency") {
        emit(out, "latency", experiment::latency_probe())?;
    }
    if want("ablations") {
        emit(out, "ablate_interleave", experiment::ablate_interleave(fid))?;
        emit(out, "ablate_interleave_scheme", experiment::ablate_interleave_scheme(fid))?;
        emit(out, "ablate_stages", experiment::ablate_stages(fid))?;
        emit(out, "ablate_mc_window", experiment::ablate_mc_window(fid))?;
        emit(out, "ablate_page_policy", experiment::ablate_page_policy(fid))?;
        emit(out, "ablate_mao_features", experiment::ablate_mao_features(fid))?;
        emit(out, "ablate_axi4", experiment::ablate_axi4(fid))?;
        emit(out, "ablate_stacks", experiment::ablate_stacks(fid))?;
        emit(out, "ablate_addr_map", experiment::ablate_addr_map(fid))?;
        emit(out, "ablate_lateral", experiment::ablate_lateral(fid))?;
        emit(out, "mixed_interference", experiment::mixed_interference(fid))?;
    }
    Ok(())
}
