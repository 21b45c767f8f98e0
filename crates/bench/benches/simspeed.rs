//! Criterion benches of the *simulator itself*: simulated cycles per
//! wall-clock second for each fabric and pattern. These are the numbers
//! a user extending the simulator should watch for regressions. The
//! cost of the observers (profiler, registry, tracer) is `repro
//! profile`'s job.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_core::prelude::*;
use hbm_core::HbmSystem;
use std::hint::black_box;

const CYCLES: u64 = 2_000;

/// Single-outstanding, single-beat reads: the paper's Table II latency
/// probe, and the worst case for a naive cycle-by-cycle kernel.
fn probe_workload() -> Workload {
    Workload {
        outstanding: 1,
        num_ids: 1,
        burst: BurstLen::of(1),
        stride: 32,
        rw: RwRatio::READ_ONLY,
        ..Workload::scs()
    }
}

fn bench_sim_speed(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_cycles_per_sec");
    g.throughput(Throughput::Elements(CYCLES));
    g.sample_size(10);
    for (fname, cfg) in [
        ("xilinx", SystemConfig::xilinx()),
        ("mao", SystemConfig::mao()),
        ("direct", SystemConfig::direct()),
    ] {
        for (wname, wl) in [("scs", Workload::scs()), ("ccra", Workload::ccra())] {
            if fname == "direct" && wname == "ccra" {
                continue;
            }
            g.bench_function(BenchmarkId::new(fname, wname), |b| {
                b.iter(|| {
                    let mut sys = HbmSystem::new(&cfg, wl, None);
                    sys.run(CYCLES);
                    black_box(sys.now())
                })
            });
        }
    }
    g.finish();
}

/// Low-duty-cycle scenarios: dominated by simulated cycles in which
/// little or nothing happens. These are the runs the next-event
/// fast-forward in `HbmSystem::run`/`run_until_drained` accelerates.
fn bench_sparse_scenarios(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_sparse");
    g.sample_size(10);

    for (fname, cfg) in [
        ("xilinx", SystemConfig::xilinx()),
        ("mao", SystemConfig::mao()),
        ("direct", SystemConfig::direct()),
    ] {
        // Single-outstanding latency probe: 64 serialized single-beat
        // reads per master, run to drain.
        g.bench_function(BenchmarkId::new(fname, "latency_probe"), |b| {
            b.iter(|| {
                let mut sys = HbmSystem::new(&cfg, probe_workload(), Some(64));
                assert!(sys.run_until_drained(10_000_000));
                black_box(sys.now())
            })
        });

        // Drain tail: a bounded saturated burst, then the thinning tail.
        g.bench_function(BenchmarkId::new(fname, "drain_tail"), |b| {
            b.iter(|| {
                let mut sys = HbmSystem::new(&cfg, Workload::scs(), Some(256));
                assert!(sys.run_until_drained(10_000_000));
                black_box(sys.now())
            })
        });

        // Idle: a quiescent system covering a long simulated window.
        g.bench_function(BenchmarkId::new(fname, "idle"), |b| {
            b.iter(|| {
                let mut sys = HbmSystem::new(&cfg, Workload::scs(), Some(0));
                sys.run(1_000_000);
                black_box(sys.now())
            })
        });
    }
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    use hbm_mem::{BankPool, HbmConfig, PchDram};
    let mut g = c.benchmark_group("component_speed");
    g.bench_function("pch_execute_burst", |b| {
        let cfg = HbmConfig::default();
        let mut p = PchDram::new(&cfg, 0.0);
        let mut pool = BankPool::new(1, cfg.banks_per_pch);
        let mut banks = pool.unit_mut(0);
        let mut now = 0.0;
        let mut off = 0u64;
        b.iter(|| {
            let bt = p.execute_burst(&mut banks, now, Dir::Read, off % (1 << 20), 512);
            now = bt.finish_ns - 40.0;
            off += 512;
            black_box(bt.finish_ns)
        })
    });
    g.bench_function("interleave_remap", |b| {
        use hbm_fabric::AddressMap;
        use hbm_mao::{InterleaveMode, InterleavedMap};
        let m = InterleavedMap::new(InterleaveMode::XorFold { granularity: 512 }, 32, 256 << 20);
        let mut a = 0u64;
        b.iter(|| {
            a = (a + 512) % (8 << 30);
            black_box(m.remap(a))
        })
    });
    g.finish();
}

criterion_group!(simspeed, bench_sim_speed, bench_sparse_scenarios, bench_components);
criterion_main!(simspeed);
