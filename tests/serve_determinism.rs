//! The serving layer must be invisible in the results: a job's rows,
//! reassembled by grid index, are byte-identical to a direct
//! `hbm_core::batch::run_grid` call over the same points — for any
//! worker count, any number of competing clients at any priorities, and
//! any cancellations of *other* jobs. Scheduling reorders work; it must
//! never change a measurement.

use hbm_fpga::core::batch::{run_grid, GridPoint};
use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::SystemConfig;
use hbm_fpga::serve::{Event, JobSpec, JobState, RowStatus, ServeConfig, Server};
use hbm_fpga::traffic::Workload;

/// Tiny but non-trivial fidelity: enough cycles that every point's
/// measurement has real traffic in it.
const FID: Fidelity = Fidelity::cycle(100, 400);

/// A small grid whose points differ observably (rotation and burst both
/// move throughput on the Xilinx fabric).
fn grid(seed: usize, len: usize) -> Vec<GridPoint> {
    (0..len)
        .map(|i| {
            let rotation = (seed + i) % 5;
            let burst =
                if (seed + i).is_multiple_of(2) { BurstLen::of(16) } else { BurstLen::of(2) };
            let wl = Workload { rotation, burst, stride: burst.bytes(), ..Workload::scs() };
            (SystemConfig::xilinx(), wl)
        })
        .collect()
}

/// Streams `job` to completion and reassembles measurements by index.
fn collect_measurements(
    handle: &hbm_fpga::serve::ServeHandle,
    job: hbm_fpga::serve::JobId,
    len: usize,
) -> (Vec<Option<hbm_fpga::core::Measurement>>, JobState) {
    let rx = handle.subscribe(job).expect("known job");
    let mut slots = vec![None; len];
    for ev in rx {
        match ev {
            Event::Row(row) => {
                assert_eq!(row.status, RowStatus::Done, "point {} must succeed", row.index);
                slots[row.index] = row.measurement;
            }
            Event::End { state, .. } => return (slots, state),
        }
    }
    panic!("subscription closed without an End event");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// One observed job, surrounded by competing jobs at assorted
        /// priorities — some of them cancelled mid-flight — on an
        /// assorted worker count: the observed job's rows are
        /// byte-identical to the direct path.
        #[test]
        fn served_rows_are_byte_identical_to_direct_run(
            workers in proptest::sample::select(vec![1usize, 2, 3]),
            target_len in 2usize..5,
            target_seed in 0usize..5,
            target_priority in proptest::sample::select(vec![0u8, 3, 9]),
            rival_count in 0usize..3,
            rival_priority in proptest::sample::select(vec![0u8, 5, 9]),
            rival_len in 1usize..4,
            cancel_rivals in proptest::arbitrary::any::<bool>(),
            submit_target_first in proptest::arbitrary::any::<bool>(),
        ) {
            let points = grid(target_seed, target_len);
            let direct = run_grid(&points, FID.warmup, FID.cycles, 1);

            let server = Server::spawn(ServeConfig { workers, ..ServeConfig::default() });
            let h = server.handle();
            h.pause();

            let submit_rivals = |h: &hbm_fpga::serve::ServeHandle| {
                (0..rival_count)
                    .map(|r| {
                        let spec = JobSpec::new(
                            format!("rival-{r}"),
                            FID,
                            grid(target_seed + r + 1, rival_len),
                        )
                        .with_priority(rival_priority);
                        h.submit(spec).expect("rival fits the queue")
                    })
                    .collect::<Vec<_>>()
            };

            // Interleave admissions both ways round the observed job.
            let (rivals, target) = if submit_target_first {
                let spec = JobSpec::new("target", FID, points.clone())
                    .with_priority(target_priority);
                let target = h.submit(spec).expect("target fits the queue");
                (submit_rivals(&h), target)
            } else {
                let rivals = submit_rivals(&h);
                let spec = JobSpec::new("target", FID, points.clone())
                    .with_priority(target_priority);
                (rivals, h.submit(spec).expect("target fits the queue"))
            };

            h.resume();
            if cancel_rivals {
                // Cancelling *other* jobs mid-flight must not perturb
                // the observed one.
                for r in &rivals {
                    h.cancel(*r);
                }
            }

            let (slots, state) = collect_measurements(&h, target, target_len);
            prop_assert_eq!(state, JobState::Done);
            for (i, (slot, want)) in slots.iter().zip(&direct).enumerate() {
                let got = slot.as_ref().expect("Done rows carry measurements");
                prop_assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(want).unwrap(),
                    "served point {} diverged from the direct path", i
                );
            }
            server.shutdown();
        }
    }
}

/// Two clients submitting the same grid concurrently each stream back
/// rows byte-identical to the direct path — the multi-client guarantee
/// the CI smoke leg re-checks over real TCP.
#[test]
fn concurrent_clients_each_get_identical_streams() {
    let points = grid(1, 4);
    let direct = run_grid(&points, FID.warmup, FID.cycles, 1);
    let direct_json: Vec<String> =
        direct.iter().map(|m| serde_json::to_string(m).unwrap()).collect();

    let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
    let streams: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let h = server.handle();
                let points = points.clone();
                scope.spawn(move || {
                    let spec =
                        JobSpec::new(format!("client-{c}"), FID, points).with_priority(c as u8);
                    let job = h.submit(spec).expect("grid fits the queue");
                    let (slots, state) = collect_measurements(&h, job, 4);
                    assert_eq!(state, JobState::Done);
                    slots
                        .into_iter()
                        .map(|m| serde_json::to_string(&m.expect("measured")).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().expect("client thread")).collect()
    });

    for stream in &streams {
        assert_eq!(stream, &direct_json);
    }
    server.shutdown();
}
