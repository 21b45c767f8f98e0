//! The cycle kernel allocates nothing per simulated cycle: queues are
//! pre-sized rings (DESIGN.md §3.8), scheduler scratch is reused
//! (§3.10), and the MAO's reorder buffers are sized at build time. So
//! a warm `run` allocates at most a fixed number of times, whatever its
//! length: the conductor's two per-run vectors, plus a few growths of a
//! generator's per-ID outstanding queue reaching a new high-water mark.
//! It is the exact gate against allocation back in the hot path, which
//! a timed queue-ops share could only see within host noise: a `Vec`
//! allocated per port visit fails it. One test in its own binary,
//! counting on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbm_fpga::core::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: forwards to the system allocator; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor has
// a destructor. The default `alloc_zeroed` and `realloc` call `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one warm `run` may make (two to five are seen).
const PER_RUN: u64 = 8;

#[test]
fn warm_runs_allocate_a_fixed_number_of_times() {
    let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
    let (xilinx, mao, direct) =
        (SystemConfig::xilinx(), SystemConfig::mao(), SystemConfig::direct());
    let (scs, ccra) = (Workload::scs(), Workload::ccra());
    // The direct fabric routes master i to port i only: its random
    // pattern is the single-channel one.
    let cells = [
        ("xilinx scs", &xilinx, scs),
        ("xilinx ccra", &xilinx, ccra),
        ("mao scs", &mao, scs),
        ("mao ccs", &mao, Workload::ccs()),
        ("mao ccra", &mao, ccra),
        ("crossbar scs", &xbar, scs),
        ("crossbar ccra", &xbar, ccra),
        ("direct scs", &direct, scs),
        ("direct scra", &direct, Workload::scra()),
    ];
    let mut failures = Vec::new();
    for (name, cfg, wl) in cells {
        let mut sys = HbmSystem::new(cfg, wl, None);
        sys.run(20_000);
        let counts = [2_000, 8_000, 32_000].map(|cycles| {
            let before = ALLOCS.with(Cell::get);
            sys.run(cycles);
            ALLOCS.with(Cell::get) - before
        });
        if counts.iter().any(|&n| n > PER_RUN) {
            failures.push(format!("{name}: {counts:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "warm runs of 2 000 / 8 000 / 32 000 cycles allocated more than {PER_RUN} times:\n\
         {failures:#?}"
    );
}
