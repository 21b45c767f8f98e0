//! The incremental FR-FCFS scheduler must be invisible: on every cycle,
//! the cached/resumed candidate scan inside `MemoryController` must pick
//! exactly the transaction a stateless re-scan of the window would pick.
//!
//! `tick` already cross-checks this under `debug_assert`, but that only
//! fires on cycles a driver happens to tick and only in debug builds.
//! This suite drives the `scheduler_picks` oracle hook — which runs both
//! schedulers and returns both picks, bypassing the issue-ahead gate —
//! under random interleavings of accepts, ticks, completion pops, and
//! time jumps, across directions, AXI IDs, window sizes, response-queue
//! depths, and page policies, so the cache-invalidation rules are
//! exercised in release mode too (CI runs tests with `--release` in the
//! profile leg).

use hbm_fpga::axi::{AxiId, BurstLen, ClockDomain, Dir, MasterId, TxnBuilder};
use hbm_fpga::mem::{BankPool, HbmConfig, MemoryController, PagePolicy};
use proptest::prelude::*;

/// One scripted operation against the controller.
#[derive(Debug, Clone)]
enum Op {
    /// Accept a transaction (skipped when back-pressured):
    /// (master, id, addr selector pair, read?, beats selector).
    Accept(u8, u8, (u64, u64), bool, u8),
    /// Compare both schedulers, then tick (may issue).
    Tick,
    /// Pop one completion (exercises the `allow_reads` flip).
    Pop,
    /// Advance time by 1–8 cycles (entries become ready, refreshes near).
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Accepts and ticks dominate so the queue builds real occupancy and
    // the cache sees long runs of incremental re-scans between issues.
    // (Nested tuples: the offline proptest stand-in generates tuples up
    // to arity five.)
    ((0u8..12, 0u8..2, 0u8..4), ((0u64..32, 0u64..8), any::<bool>(), 0u8..3, 1u64..9)).prop_map(
        |((sel, master, id), (addr, read, beats, d))| match sel {
            0..=4 => Op::Accept(master, id, addr, read, beats),
            5..=8 => Op::Tick,
            9..=10 => Op::Pop,
            _ => Op::Advance(d),
        },
    )
}

/// Runs one scripted interleaving, comparing picks before every tick and
/// through a full drain afterwards.
fn run_script(cfg: &HbmConfig, ops: &[Op]) {
    let mut m = MemoryController::new(cfg, ClockDomain::ACC_300, 0.0);
    let mut pool = BankPool::new(1, cfg.banks_per_pch);
    let mut banks = pool.unit_mut(0);
    let mut builders = [TxnBuilder::new(MasterId(0)), TxnBuilder::new(MasterId(1))];
    let mut now = 0u64;
    for op in ops {
        match op {
            Op::Accept(master, id, (lo, hi), read, beats) => {
                let dir = if *read { Dir::Read } else { Dir::Write };
                if m.can_accept(dir) {
                    // lo spreads across banks within the first rows; hi
                    // jumps whole row-groups so the same bank sees
                    // conflicting rows (row-interleaved map: +16 KiB is
                    // the same bank, next row).
                    let addr = lo * 512 + hi * 16384;
                    let burst = BurstLen::of([1, 4, 16][*beats as usize]);
                    let txn = builders[*master as usize]
                        .issue(AxiId(*id), addr, burst, dir, now)
                        .expect("aligned in-range burst");
                    m.accept(now, txn);
                }
            }
            Op::Tick => {
                let (incremental, reference) = m.scheduler_picks(now, &banks);
                prop_assert_eq!(incremental, reference, "diverged at cycle {}", now);
                m.tick(now, &mut banks, None);
            }
            Op::Pop => {
                m.pop_completion(now);
            }
            Op::Advance(d) => now += d,
        }
    }
    // Drain tail: the same comparison on every remaining cycle, so the
    // cache is also validated against queue-emptying and refresh-heavy
    // end states.
    let deadline = now + 1_000_000;
    while !m.drained() && now < deadline {
        let (incremental, reference) = m.scheduler_picks(now, &banks);
        prop_assert_eq!(incremental, reference, "diverged during drain at cycle {}", now);
        m.tick(now, &mut banks, None);
        while m.pop_completion(now).is_some() {}
        now += 1;
    }
    prop_assert!(m.drained(), "controller failed to drain");
}

proptest! {
    /// The main oracle: arbitrary interleavings across the configuration
    /// axes that shape the scan (window width, direction-batch length,
    /// response-queue depth for read blocking, page policy for the
    /// row-hit score bit).
    #[test]
    fn incremental_pick_matches_stateless_rescan(
        window_sel in 0usize..5,
        dir_batch_sel in 0usize..3,
        resp_depth_sel in 0usize..3,
        closed_page in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let mut cfg = HbmConfig::default();
        cfg.mc.window = [1, 2, 4, 8, 16][window_sel];
        cfg.mc.dir_batch = [1, 4, 8][dir_batch_sel];
        // Shallow response queues make `allow_reads` flips frequent —
        // the cache-invalidation path `pop_resp` exists for.
        cfg.mc.resp_depth = [1, 2, 16][resp_depth_sel];
        if closed_page {
            cfg.mc.page_policy = PagePolicy::Closed;
        }
        cfg.validate().expect("valid config");
        run_script(&cfg, &ops);
    }

    /// Strict-FIFO corner (`window = 1`, the latency-optimised
    /// controller): the cache degenerates to a head check and must still
    /// agree everywhere.
    #[test]
    fn latency_optimised_controller_agrees(
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        let cfg = HbmConfig {
            mc: hbm_fpga::mem::McConfig::latency_optimised(),
            ..HbmConfig::default()
        };
        cfg.validate().expect("valid config");
        run_script(&cfg, &ops);
    }
}
