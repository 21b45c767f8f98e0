//! A served job's rows must reach its client as soon as they exist.
//!
//! An analytical-fidelity job needs no simulation: admission answers
//! every row, so the whole stream (`{"ok":true}`, one line per row,
//! `end`) is written back to back on `subscribe`. Any latency beyond a
//! millisecond or so is transport, not work. With Nagle's algorithm on
//! the server's connection, each line after the first waited for the
//! client's delayed ACK, and every such job took 41.8–48.1 ms from
//! submit to `End`. With `TCP_NODELAY` set a job takes well under 1 ms.

use std::time::{Duration, Instant};

use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::SystemConfig;
use hbm_fpga::serve::{Client, JobSpec, JobState, ServeConfig, Server, WireServer};
use hbm_fpga::traffic::Workload;

const POINTS: usize = 8;
const JOBS: usize = 5;
/// Half the 40 ms minimum delayed-ACK timeout: a job that waits for it
/// once cannot pass.
const LIMIT: Duration = Duration::from_millis(20);

#[test]
fn analytical_jobs_stream_without_a_delayed_ack_stall() {
    let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
    let wire = WireServer::bind("127.0.0.1:0", server.handle()).expect("bind loopback");
    let mut client = Client::connect(&wire.local_addr().to_string()).expect("connect");
    let points: Vec<_> = (0..POINTS)
        .map(|i| (SystemConfig::xilinx(), Workload { rotation: i, ..Workload::scs() }))
        .collect();
    let spec = JobSpec::new("stream", Fidelity::ANALYTICAL, points);

    let mut took: Vec<Duration> = (0..JOBS)
        .map(|_| {
            let t = Instant::now();
            let job = client.submit(&spec).expect("submit").expect("admitted");
            let (rows, state) = client.collect(job).expect("collect").expect("known job");
            let elapsed = t.elapsed();
            assert_eq!((rows.len(), state), (POINTS, JobState::Done));
            elapsed
        })
        .collect();
    took.sort();
    // The median, so one host hiccup cannot fail the test.
    let median = took[JOBS / 2];
    assert!(median < LIMIT, "median job {median:?} over {LIMIT:?}; all jobs: {took:?}");

    wire.stop();
    server.shutdown();
}
