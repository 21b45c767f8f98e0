//! Criterion microbenches of the 32×32 fabrics' cycle path: offers,
//! `tick` arbitration (forward grants and return-path picks), port
//! reflection, and completion delivery — the work `repro profile`
//! reports as the fabric-tick phase, isolated from the memory side.
//!
//! Every port is a reflector that turns each request into a completion
//! the cycle it arrives, so the fabric, not DRAM, is the bottleneck.
//! Two saturated traffic shapes:
//!
//! * `ccs` — every master streams through the same region: on the MAO
//!   the interleaving spreads it, on the crossbar it piles onto port 0
//!   (the hot spot);
//! * `ccra` — SplitMix64-scrambled addresses over the whole device with
//!   16 rotating IDs: all-to-all contention on both arbitration paths
//!   and, on the MAO, deep VOQ windows of mixed masters.
//!
//! Fabrics: the MAO at one and two network stages and the full crossbar
//! (the stock switch model built as one 32×32 switch), 32 masters × 32
//! ports each. Run these when touching the arbitration in
//! `hbm_mao::network` or `hbm_fabric::shard`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_axi::{AxiId, BurstLen, Completion, Cycle, Dir, MasterId, PortId, TxnBuilder};
use hbm_fabric::{FabricConfig, Interconnect, XilinxFabric};
use hbm_mao::{MaoConfig, MaoFabric};

const CYCLES: Cycle = 4096;
const N: usize = 32;
const PORT_CAPACITY: u64 = 256 << 20;

#[derive(Clone, Copy)]
enum Shape {
    Ccs,
    Ccra,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Ccs => "ccs",
            Shape::Ccra => "ccra",
        }
    }

    /// Master `m`'s `i`-th transaction: (address, direction, id).
    /// Addresses are 512-aligned, so a BL16 burst never crosses 4 KiB.
    fn nth(self, m: usize, i: u64) -> (u64, Dir, u8) {
        let dir = if i.is_multiple_of(3) { Dir::Write } else { Dir::Read };
        match self {
            Shape::Ccs => (((m as u64 * 64 + i) * 512) % (32 << 20), dir, 0),
            Shape::Ccra => {
                let mut z = (i * N as u64 + m as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z % (N as u64 * PORT_CAPACITY)) & !511, dir, (i % 16) as u8)
            }
        }
    }
}

/// Drives a fabric for `CYCLES` cycles with every master offering as
/// fast as it is accepted and every port reflecting at once. Returns the
/// completions delivered so the work cannot be optimised away.
fn drive<F: Interconnect>(f: &mut F, shape: Shape) -> u64 {
    let mut builders: Vec<TxnBuilder> =
        (0..N).map(|m| TxnBuilder::new(MasterId(m as u16))).collect();
    let mut pending = vec![None; N];
    let mut held: Vec<Option<Completion>> = vec![None; N];
    let mut delivered = 0u64;
    for now in 0..CYCLES {
        for (m, slot) in pending.iter_mut().enumerate() {
            let txn = slot.take().unwrap_or_else(|| {
                let (addr, dir, id) = shape.nth(m, builders[m].issued());
                builders[m].issue(AxiId(id), addr, BurstLen::of(16), dir, now).expect("legal burst")
            });
            *slot = f.offer_request(now, txn).err().map(|(txn, _)| txn);
        }
        f.tick(now, None);
        for (p, slot) in held.iter_mut().enumerate() {
            let port = PortId(p as u16);
            if slot.is_none() {
                *slot = f.pop_request(now, port).map(|txn| Completion { txn, produced_at: now });
            }
            if let Some(c) = slot.take() {
                *slot = f.offer_completion(now, port, c).err().map(|(c, _)| c);
            }
        }
        for m in 0..N {
            while f.pop_completion(now, MasterId(m as u16)).is_some() {
                delivered += 1;
            }
        }
    }
    delivered
}

fn bench_fabric_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_tick");
    g.throughput(Throughput::Elements(CYCLES));
    for shape in [Shape::Ccs, Shape::Ccra] {
        for stages in [1u8, 2] {
            let cfg = MaoConfig { stages, ..MaoConfig::default() };
            g.bench_function(BenchmarkId::new(format!("mao/stages{stages}"), shape.name()), |b| {
                b.iter(|| black_box(drive(&mut MaoFabric::new(cfg), shape)))
            });
        }
        let xbar = FabricConfig::full_crossbar(N, PORT_CAPACITY);
        g.bench_function(BenchmarkId::new("crossbar", shape.name()), |b| {
            b.iter(|| black_box(drive(&mut XilinxFabric::new(xbar), shape)))
        });
    }
    g.finish();
}

criterion_group!(fabric, bench_fabric_tick);
criterion_main!(fabric);
