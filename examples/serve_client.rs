//! serve-client: submit the Fig. 4 grid to a running `repro serve`
//! daemon and print the same JSON the direct path prints.
//!
//! Start the server in one terminal:
//!
//! ```text
//! cargo run --release -p hbm-bench --bin repro -- serve --addr 127.0.0.1:7070
//! ```
//!
//! then run this client in another:
//!
//! ```text
//! cargo run --release --example serve_client -- 127.0.0.1:7070 [--quick] [--shutdown]
//! ```
//!
//! The client submits the Fig. 4 rotation grid as one job, streams the
//! per-point rows back over the wire, reassembles them by grid index,
//! and folds them into Fig. 4 rows. The output line is **byte-identical**
//! to `repro fig4 --json` at the same fidelity — the serving layer adds
//! scheduling and transport, never changes a measurement. (The CI smoke
//! leg runs two of these clients concurrently and diffs both against the
//! direct path.)

use hbm_fpga::core::experiment::{fig4_rows, Fidelity};
use hbm_fpga::serve::{Client, Event, JobSpec, JobState, Rejection, RowStatus};

/// The queue capacity the smoke script starts the server with.
const SMOKE_QUEUE: usize = 20;

/// `--exercise`: drive the control-plane guarantees end-to-end against a
/// live server — deterministic as long as the server's queue holds fewer
/// than two fig4 grids (the smoke script starts it with `--queue 20`;
/// one 14-point grid fits, two never do).
fn run_exercise(client: &mut Client) {
    // Full-fidelity points take long enough that nothing completes in
    // the microseconds between these calls.
    let spec = JobSpec::fig4(Fidelity::FULL);

    // 1. Admission: the first grid fits.
    let victim = client
        .submit(&spec)
        .expect("submit first job")
        .expect("an idle queue admits one fig4 grid");

    // 2. Backpressure: a second grid overflows the queue and is
    //    rejected immediately with a retry-after, not blocked.
    let rejection = client
        .submit(&spec)
        .expect("submit overflow job")
        .expect_err("a second grid must overflow a --queue 20 server");
    let Rejection::QueueFull { retry_after_ms } = rejection else {
        panic!("a 14-point grid is not too large for the queue: {rejection:?}");
    };
    assert!(retry_after_ms > 0, "rejection must carry a back-off hint");
    eprintln!("serve-client: overflow rejected, retry_after_ms={retry_after_ms}");

    // 3. Refusal: a grid one point larger than the whole queue is
    //    refused once, with no retry hint, and the retrying submit
    //    returns at once instead of spending its attempts.
    let rejected_before = client.stats().expect("stats verb").jobs_rejected;
    let points = spec.points.iter().cycle().take(SMOKE_QUEUE + 1).cloned().collect();
    let oversized = JobSpec::new("oversized", spec.fidelity, points);
    let refusal = client
        .submit_with_retry(&oversized, 40)
        .expect("submit oversized job")
        .expect_err("a grid larger than the queue must be refused");
    assert_eq!(refusal, Rejection::TooLarge { max_points: SMOKE_QUEUE });
    let rejected = client.stats().expect("stats verb").jobs_rejected - rejected_before;
    assert_eq!(rejected, 1, "a too-large grid must be refused once, not retried");
    eprintln!("serve-client: {}-point grid refused once as too large", SMOKE_QUEUE + 1);

    // 4. Cancellation: the admitted job dies, its stream still
    //    terminates, and undispatched points come back as Cancelled.
    assert!(client.cancel(victim).expect("send cancel"), "running job must be cancellable");
    let (rows, state) = client
        .collect(victim)
        .expect("stream cancelled job")
        .expect("cancelled job is still known");
    assert_eq!(state, JobState::Cancelled);
    assert_eq!(rows.len(), spec.points.len(), "every point reports a row, even cancelled");
    let cancelled = rows.iter().filter(|r| r.status == RowStatus::Cancelled).count();
    assert!(cancelled > 0, "cancelling a running grid must cancel pending points");
    eprintln!("serve-client: cancelled {cancelled}/{} points", rows.len());

    // 5. The stats verb accounts for all of it.
    let stats = client.stats().expect("stats verb");
    assert!(stats.jobs_rejected >= 1, "rejection must be counted");
    assert!(stats.jobs_cancelled >= 1, "cancellation must be counted");
    println!("exercises OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let exercise = args.iter().any(|a| a == "--exercise");
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let fid = if quick { Fidelity::QUICK } else { Fidelity::FULL };

    let mut client = Client::connect(&addr).unwrap_or_else(|e| {
        eprintln!("serve-client: cannot connect to {addr}: {e}");
        eprintln!("start the server first: repro serve --addr {addr}");
        std::process::exit(1);
    });

    if exercise {
        run_exercise(&mut client);
        return;
    }

    // Submit with bounded retry: a full queue answers with an explicit
    // retry_after_ms backpressure hint rather than blocking or dropping.
    let spec = JobSpec::fig4(fid);
    let job = match client.submit_with_retry(&spec, 40).expect("submit fig4 job") {
        Ok(job) => job,
        Err(rej) => {
            eprintln!("serve-client: not admitted after retries: {rej:?}");
            std::process::exit(1);
        }
    };
    eprintln!("serve-client: submitted {} points as {job}", spec.points.len());

    // Stream rows (completion order) and reassemble by grid index.
    let mut slots: Vec<Option<hbm_fpga::core::Measurement>> = vec![None; spec.points.len()];
    let state = client
        .subscribe_each(job, |ev| {
            if let Event::Row(row) = ev {
                match &row.status {
                    RowStatus::Done => {
                        slots[row.index] = row.measurement.clone();
                    }
                    other => {
                        eprintln!("serve-client: point {} ended {other:?}", row.index);
                    }
                }
            }
        })
        .expect("stream job events")
        .expect("job is known to the server");
    eprintln!("serve-client: job finished {state:?}");

    let measurements: Vec<_> = slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| m.unwrap_or_else(|| panic!("point {i} produced no measurement")))
        .collect();

    // Identical shape (and bytes) to `repro fig4 --json`.
    let rows = fig4_rows(&measurements);
    println!("{}", serde_json::json!({ "experiment": "fig4", "rows": rows }));

    if shutdown {
        client.shutdown().expect("send shutdown verb");
        eprintln!("serve-client: asked the server to shut down");
    }
}
