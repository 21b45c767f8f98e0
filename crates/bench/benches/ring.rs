//! Criterion microbenches of the queue substrate itself: the flat SoA
//! `StampedRing`/`DelayQueue` against the `VecDeque<(Cycle, T)>` layout
//! it replaced.
//!
//! These isolate the data-structure cost that `repro profile` reports
//! as the QueueOps phase; run them when touching `hbm_axi::queue`.

use std::collections::VecDeque;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbm_axi::{Cycle, DelayQueue};

/// The payload the hot fabric queues actually carry is a ~64-byte
/// transaction/flit struct; model that so cache behaviour is honest.
#[derive(Clone, Copy)]
struct Payload {
    _words: [u64; 8],
}

const OPS: u64 = 4096;
const CAPACITY: usize = 8;
const LATENCY: Cycle = 2;

/// Steady-state push/pop churn at a given occupancy against the
/// pre-refactor layout: a `VecDeque` of (deadline, payload) pairs.
fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_push_pop");
    g.throughput(Throughput::Elements(OPS));
    for depth in [1usize, 4, 8] {
        g.bench_function(BenchmarkId::new("ring", depth), |b| {
            b.iter(|| {
                let mut q: DelayQueue<Payload> = DelayQueue::new(CAPACITY, LATENCY);
                let p = Payload { _words: [7; 8] };
                for now in 0..depth as Cycle {
                    let _ = q.push(now, p);
                }
                for now in 0..OPS {
                    let _ = q.push(now, p);
                    black_box(q.pop(now + LATENCY));
                }
                q.len()
            })
        });
        g.bench_function(BenchmarkId::new("vecdeque", depth), |b| {
            b.iter(|| {
                let mut q: VecDeque<(Cycle, Payload)> = VecDeque::new();
                let p = Payload { _words: [7; 8] };
                for now in 0..depth as Cycle {
                    if q.len() < CAPACITY {
                        q.push_back((now + LATENCY, p));
                    }
                }
                for now in 0..OPS {
                    if q.len() < CAPACITY {
                        q.push_back((now + LATENCY, p));
                    }
                    let due = now + LATENCY;
                    if q.front().is_some_and(|(t, _)| *t <= due) {
                        black_box(q.pop_front());
                    }
                }
                q.len()
            })
        });
    }
    g.finish();
}

/// The horizon query the cycle-skip machinery issues constantly: "when
/// does your head mature?" — on the ring this reads one slot of the
/// deadline array, no payload touched.
fn bench_next_ready(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_next_ready_at");
    g.throughput(Throughput::Elements(OPS));
    let mut ring: DelayQueue<Payload> = DelayQueue::new(CAPACITY, LATENCY);
    let mut deque: VecDeque<(Cycle, Payload)> = VecDeque::new();
    let p = Payload { _words: [7; 8] };
    for now in 0..4 {
        let _ = ring.push(now, p);
        deque.push_back((now + LATENCY, p));
    }
    g.bench_function("ring", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..OPS {
                acc = acc.wrapping_add(black_box(&ring).next_ready_at().unwrap_or(0));
            }
            acc
        })
    });
    g.bench_function("vecdeque", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..OPS {
                acc = acc.wrapping_add(black_box(&deque).front().map(|(t, _)| *t).unwrap_or(0));
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_push_pop, bench_next_ready);
criterion_main!(benches);
