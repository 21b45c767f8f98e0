//! Criterion microbenches of the memory controller's cycle path: accept,
//! incremental FR-FCFS pick, issue, completion pop — the work `repro
//! profile` reports as the McTick phase, isolated from the fabric.
//!
//! Four workload shapes stress different scheduler paths:
//!
//! * `streaming` — sequential reads, rotating IDs: long row-hit runs, the
//!   cached pick survives only until the next issue (gate-limited, so
//!   most ticks are cached no-ops between issues);
//! * `random` — LCG-scrambled addresses: row misses dominate, the score
//!   scan sees mixed hit bits;
//! * `mixed` — alternating reads and writes: the direction-batching
//!   preference flips every `dir_batch` issues;
//! * `same_id` — one AXI ID: every entry behind the head is key-blocked,
//!   the worst case for the seen-keys walk.
//!
//! Each runs at window 4, 16, and 64 (queue depth raised to fit) on one
//! controller and one bank unit. Run these when touching
//! `hbm_mem::controller`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_axi::{AxiId, BurstLen, ClockDomain, Cycle, Dir, MasterId, TxnBuilder};
use hbm_mem::{BankPool, HbmConfig, MemoryController};

const CYCLES: Cycle = 8192;

#[derive(Clone, Copy)]
enum Shape {
    Streaming,
    Random,
    Mixed,
    SameId,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Streaming => "streaming",
            Shape::Random => "random",
            Shape::Mixed => "mixed",
            Shape::SameId => "same_id",
        }
    }

    /// The `i`-th transaction of this shape: (address, direction, id).
    /// Addresses are 512-aligned (one BL16 burst, no 4 KiB crossing) and
    /// wrap within the first 32 MiB of the channel.
    fn nth(self, i: u64) -> (u64, Dir, u8) {
        match self {
            Shape::Streaming => ((i * 512) % (32 << 20), Dir::Read, (i % 16) as u8),
            Shape::Random => {
                // SplitMix64-style scramble — cheap, deterministic.
                let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z % (32 << 20)) & !511, Dir::Read, (i % 16) as u8)
            }
            Shape::Mixed => {
                let dir = if i.is_multiple_of(2) { Dir::Read } else { Dir::Write };
                ((i * 512) % (32 << 20), dir, (i % 16) as u8)
            }
            Shape::SameId => ((i * 512) % (32 << 20), Dir::Read, 0),
        }
    }
}

fn config_with_window(window: usize) -> HbmConfig {
    let mut cfg = HbmConfig::default();
    cfg.mc.window = window;
    cfg.mc.queue_depth = cfg.mc.queue_depth.max(window);
    cfg.validate().expect("valid bench config");
    cfg
}

/// One controller, kept fed: the scalar `HbmSystem` port loop minus the
/// fabric. Returns a state sum so the work cannot be optimised away.
fn drive_scalar(cfg: &HbmConfig, shape: Shape) -> u64 {
    let mut m = MemoryController::new(cfg, ClockDomain::ACC_300, 0.0);
    let mut pool = BankPool::new(1, cfg.banks_per_pch);
    let mut banks = pool.unit_mut(0);
    let mut b = TxnBuilder::new(MasterId(0));
    let mut i = 0u64;
    let mut popped = 0u64;
    for now in 0..CYCLES {
        let (addr, dir, id) = shape.nth(i);
        if m.can_accept(dir) {
            let txn = b.issue(AxiId(id), addr, BurstLen::of(16), dir, now).expect("legal burst");
            m.accept(now, txn);
            i += 1;
        }
        m.tick(now, &mut banks, None);
        while m.pop_completion(now).is_some() {
            popped += 1;
        }
    }
    popped + m.queue_len() as u64
}

fn bench_mc_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("mc_tick");
    g.throughput(Throughput::Elements(CYCLES));
    for shape in [Shape::Streaming, Shape::Random, Shape::Mixed, Shape::SameId] {
        for window in [4usize, 16, 64] {
            let cfg = config_with_window(window);
            g.bench_function(BenchmarkId::new(format!("scalar/{}", shape.name()), window), |b| {
                b.iter(|| black_box(drive_scalar(&cfg, shape)))
            });
        }
    }
    g.finish();
}

criterion_group!(mc, bench_mc_tick);
criterion_main!(mc);
