//! Differential testing of two interconnects under identical traffic.
//!
//! [`run_pair`] drives a fabric and a reference copy of it through
//! the same seeded random traffic and asserts, every cycle, that they
//! agree on everything observable: each offer's acceptance and retry
//! hint, each request and completion popped, [`Interconnect::stats`],
//! and the next-event horizon. The reference advances with a caller-supplied
//! tick, so a fabric can be checked against a retained reference
//! implementation of its own arbitration.

use std::collections::VecDeque;

use hbm_axi::{AxiId, BurstLen, Completion, Cycle, Dir, MasterId, PortId, TxnBuilder};

use crate::Interconnect;

/// The random traffic [`run_pair`] applies. Probabilities are out
/// of 256, per master or port per cycle.
#[derive(Debug, Clone, Copy)]
pub struct DiffTraffic {
    /// PRNG seed.
    pub seed: u64,
    /// Cycles to drive.
    pub cycles: Cycle,
    /// Bytes per port: addresses are drawn from `[0, ports × port_capacity)`.
    pub port_capacity: u64,
    /// AXI IDs each master draws from (at least 1).
    pub num_ids: u8,
    /// An idle master issues a new transaction.
    pub offer: u32,
    /// A new transaction targets the four 512 B blocks at address 0, a
    /// hot spot that piles up port and return-queue pressure.
    pub hot: u32,
    /// A port's reflector accepts its waiting request (a completion is
    /// offered back once per cycle until accepted, four held at most).
    pub reflect: u32,
    /// A master drains every completion waiting for it.
    pub drain: u32,
}

/// SplitMix64: small, seedable, and good enough to pick traffic.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn chance(&mut self, per_256: u32) -> bool {
        (self.next_u64() & 0xFF) < per_256 as u64
    }
}

/// Drives `fast` (advanced by [`Interconnect::tick`]) and `reference`
/// (advanced by `reference_tick`) through identical traffic for
/// `t.cycles` cycles, panicking at the first observable difference.
/// Each cycle runs the four phases — offers, tick, port reflectors,
/// master drains — in a random order, so arbitration is exercised
/// against every interleaving of state changes, not only the system
/// loop's.
pub fn run_pair<F: Interconnect>(
    fast: &mut F,
    reference: &mut F,
    reference_tick: impl Fn(&mut F, Cycle),
    t: &DiffTraffic,
) {
    let masters = fast.num_masters();
    let ports = fast.num_ports();
    assert_eq!((masters, ports), (reference.num_masters(), reference.num_ports()));
    let mut rng = Rng(t.seed);
    let mut builders: Vec<TxnBuilder> =
        (0..masters).map(|m| TxnBuilder::new(MasterId(m as u16))).collect();
    let mut pending = vec![None; masters];
    let mut held: Vec<VecDeque<Completion>> = vec![VecDeque::new(); ports];
    let blocks = ports as u64 * t.port_capacity / 512;
    for now in 0..t.cycles {
        let mut phases = [0u8, 1, 2, 3];
        for i in (1..phases.len()).rev() {
            phases.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for phase in phases {
            match phase {
                0 => {
                    for (m, slot) in pending.iter_mut().enumerate() {
                        if slot.is_none() && rng.chance(t.offer) {
                            let block =
                                if rng.chance(t.hot) { rng.below(4) } else { rng.below(blocks) };
                            let burst = BurstLen::of(1 << rng.below(5));
                            let dir = if rng.chance(128) { Dir::Read } else { Dir::Write };
                            let id = AxiId(rng.below(t.num_ids.max(1) as u64) as u8);
                            let txn = builders[m].issue(id, block * 512, burst, dir, now);
                            *slot = Some(txn.expect("512 B-aligned bursts are legal"));
                        }
                        let Some(txn) = *slot else { continue };
                        let a = fast.offer_request(now, txn);
                        let b = reference.offer_request(now, txn);
                        assert_eq!(a, b, "cycle {now}: master {m} offer diverged");
                        if a.is_ok() {
                            *slot = None;
                        }
                    }
                }
                1 => {
                    fast.tick(now, None);
                    reference_tick(reference, now);
                }
                2 => {
                    for (p, queue) in held.iter_mut().enumerate() {
                        let port = PortId(p as u16);
                        assert_eq!(
                            fast.peek_request(now, port),
                            reference.peek_request(now, port),
                            "cycle {now}: port {p} head diverged"
                        );
                        if queue.len() < 4 && rng.chance(t.reflect) {
                            let a = fast.pop_request(now, port);
                            assert_eq!(
                                a,
                                reference.pop_request(now, port),
                                "cycle {now}: port {p}"
                            );
                            if let Some(txn) = a {
                                queue.push_back(Completion { txn, produced_at: now });
                            }
                        }
                        if let Some(&c) = queue.front() {
                            let a = fast.offer_completion(now, port, c);
                            let b = reference.offer_completion(now, port, c);
                            assert_eq!(a, b, "cycle {now}: port {p} completion offer diverged");
                            if a.is_ok() {
                                queue.pop_front();
                            }
                        }
                    }
                }
                _ => {
                    for m in 0..masters {
                        if !rng.chance(t.drain) {
                            continue;
                        }
                        let master = MasterId(m as u16);
                        loop {
                            let a = fast.pop_completion(now, master);
                            let b = reference.pop_completion(now, master);
                            assert_eq!(a, b, "cycle {now}: master {m} completion diverged");
                            if a.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(fast.stats(), reference.stats(), "cycle {now}: stats diverged");
        assert_eq!(fast.next_event(now), reference.next_event(now), "cycle {now}: horizon");
    }
    assert_eq!(fast.occupancy(), reference.occupancy());
    assert_eq!(fast.drained(), reference.drained());
}
