//! `serve_mix`: an in-process serving daemon (`Server` + `WireServer`)
//! driven over TCP by two client connections, each sending small QUICK
//! jobs on an open-loop schedule: Zipf draws from a hot pool the cache
//! holds, plus one fresh point per job that it does not. Latency is
//! timed from each job's due time, so a stall also charges the jobs
//! queued behind it.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use hbm_core::batch::{run_grid_with_cache, GridPoint};
use hbm_core::cache::ResultCache;
use hbm_core::experiment::Fidelity;
use hbm_core::{FabricKind, Measurement, SystemConfig};
use hbm_serve::{
    Client, JobSpec, RowResult, RowStatus, ServeConfig, Server, StatsSnapshot, WireServer,
};
use hbm_traffic::{Pattern, RwRatio, Workload};
use serde::value::from_value;
use serde_json::Value;

use crate::bench::{
    mean, peak_rss_mb, quantile, repeat_setup, row_json, Check, Metrics, Opts, Outcome, Rng,
    Sample, Window,
};
use crate::spans::Spans;
use crate::sweep::wl;

const FID: Fidelity = Fidelity::QUICK;
/// Jobs per second over both connections.
const RATE: f64 = 10.0;
/// Zipf exponent of point popularity.
const ZIPF_S: f64 = 1.0;
/// Workers of the daemon, as `repro serve` runs on this two-core host.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// An in-process daemon with its TCP front end; stopped on drop.
pub struct Daemon {
    server: Option<Server>,
    wire: Option<WireServer>,
    pub addr: String,
}

impl Daemon {
    pub fn start() -> io::Result<Daemon> {
        let server = Server::spawn(ServeConfig {
            workers: WORKERS,
            cache: Some(ResultCache::new()),
            ..ServeConfig::default()
        });
        let wire = WireServer::bind("127.0.0.1:0", server.handle())?;
        let addr = wire.local_addr().to_string();
        Ok(Daemon { server: Some(server), wire: Some(wire), addr })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(w) = self.wire.take() {
            w.stop();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// One job as the client saw it.
#[derive(Default)]
pub struct Served {
    pub rtt_ms: f64,
    /// Subscribe to end event, minus the time spent decoding rows.
    pub collect_self_ms: f64,
    pub decode_ms: f64,
    /// Bytes of the row lines.
    pub row_bytes: usize,
    pub n_rows: usize,
    /// Per row: grid index, the row's measurement as sent, and whether
    /// it was `Done`.
    pub rows: Vec<(usize, String, bool)>,
    /// The first decoded row, when asked for (to time encoding later).
    pub decoded: Option<RowResult>,
    pub rejected: bool,
}

/// Submits `spec`, then subscribes and reads the row stream line by line,
/// decoding each row as a client does.
pub fn serve_job(
    client: &mut Client,
    spec: &JobSpec,
    keep_decoded: bool,
    spans: &mut Spans,
    parent: Option<usize>,
    id: u64,
) -> io::Result<Served> {
    let mut out = Served::default();
    let span = spans.begin("wire.submit", parent, id);
    let t = Instant::now();
    let submitted = client.submit(spec)?;
    out.rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.end(span);
    let Ok(job) = submitted else {
        out.rejected = true;
        return Ok(out);
    };
    let collect = spans.begin("wire.collect", parent, id);
    let t = Instant::now();
    let reply = client.call_raw(&format!(r#"{{"verb":"subscribe","job":{}}}"#, job.0))?;
    if !reply.contains(r#""ok":true"#) {
        return Err(io::Error::other(format!("subscribe refused: {reply}")));
    }
    loop {
        let line = client.read_raw_line()?;
        let decode = spans.begin("wire.decode", collect, id);
        let td = Instant::now();
        let event: Value =
            serde_json::from_str(&line).map_err(|e| io::Error::other(e.to_string()))?;
        let row = match (event.get("event"), event.get("row")) {
            (Some(Value::Str(kind)), Some(row)) if kind == "row" => Some(
                from_value::<RowResult>(row.clone())
                    .map_err(|e| io::Error::other(e.to_string()))?,
            ),
            _ => None,
        };
        let dt = td.elapsed().as_secs_f64() * 1e3;
        spans.end(decode);
        let Some(row) = row else { break };
        out.decode_ms += dt;
        out.row_bytes += line.len();
        let measurement = line
            .find(r#""measurement":"#)
            .map(|p| line[p + 14..line.len() - 2].to_string())
            .unwrap_or_default();
        out.rows.push((row.index, measurement, row.status == RowStatus::Done));
        out.n_rows += 1;
        if keep_decoded && out.decoded.is_none() {
            out.decoded = Some(row);
        }
    }
    out.collect_self_ms = t.elapsed().as_secs_f64() * 1e3 - out.decode_ms;
    spans.end(collect);
    Ok(out)
}

/// Mean serialisation time per row, in µs, over 64 encodes of `rows`.
fn encode_us(served: &[&Served]) -> f64 {
    let rows: Vec<&RowResult> = served.iter().filter_map(|s| s.decoded.as_ref()).collect();
    if rows.is_empty() {
        return f64::NAN;
    }
    let t = Instant::now();
    for r in rows.iter().cycle().take(64) {
        std::hint::black_box(serde_json::to_string(*r).expect("a row serialises"));
    }
    t.elapsed().as_secs_f64() * 1e6 / 64.0
}

/// The wire metrics of a set of served jobs.
fn put_wire(layers: &mut Metrics, served: &[&Served]) {
    let rows = served.iter().map(|s| s.n_rows).sum::<usize>().max(1) as f64;
    let med =
        |f: fn(&Served) -> f64| quantile(&served.iter().map(|s| f(s)).collect::<Vec<_>>(), 0.5);
    layers.put("wire.submit_rtt_ms", med(|s| s.rtt_ms), "ms");
    layers.put(
        "wire.row_kb",
        served.iter().map(|s| s.row_bytes).sum::<usize>() as f64 / rows / 1024.0,
        "KB",
    );
    layers.put("wire.encode_us_per_row", encode_us(served), "us");
    layers.put(
        "wire.decode_us_per_row",
        served.iter().map(|s| s.decode_ms).sum::<f64>() * 1e3 / rows,
        "us",
    );
    layers.put("wire.collect_ms", med(|s| s.collect_self_ms), "ms");
}

/// Scheduler metrics from the `stats` verb. Its percentiles are
/// power-of-two bucket edges, too coarse to compare runs by, so the
/// means and the largest queue wait are reported instead.
fn put_scheduler(layers: &mut Metrics, s: &StatsSnapshot) {
    layers.put("scheduler.queue_wait_us_mean", s.queue_wait_us.mean_us, "us");
    layers.put("scheduler.queue_wait_us_max", s.queue_wait_us.max_us as f64, "us");
    layers.put("scheduler.run_us_mean", s.run_us.mean_us, "us");
    layers.put("scheduler.stream_us_mean", s.stream_us.mean_us, "us");
    layers.put("scheduler.worker_util", s.worker_utilisation, "fraction");
    layers.put("scheduler.rejected", s.jobs_rejected as f64, "count");
}

/// The wire and scheduler metrics for a workload that does not serve:
/// one job of `points` sent twice (cold, then from the cache) to a fresh
/// daemon.
pub fn probe(points: &[GridPoint], spans: &mut Spans) -> io::Result<Metrics> {
    let daemon = Daemon::start()?;
    let mut client = Client::connect(&daemon.addr)?;
    let spec = JobSpec::new("probe", FID, points.to_vec());
    let mut served = Vec::new();
    for id in 0..2 {
        let root = spans.begin("probe.serve_job", None, id);
        served.push(serve_job(&mut client, &spec, true, spans, root, id)?);
        spans.end(root);
    }
    let stats = client.stats()?;
    drop(client);
    let mut m = Metrics::default();
    put_wire(&mut m, &served.iter().collect::<Vec<_>>());
    put_scheduler(&mut m, &stats);
    Ok(m)
}

/// Points a job may name: a fixed hot pool (indices below `hot`, drawn
/// Zipf-style and pre-warmed into the cache at set-up) followed by fresh
/// points, one per job, that the cache has never seen.
struct Inputs {
    points: Vec<GridPoint>,
    hot: usize,
    /// Hot-pool index by popularity rank, and the cumulative Zipf weights.
    rank_to_point: Vec<usize>,
    cdf: Vec<f64>,
}

impl Inputs {
    /// The hot pool spreads four fabrics over pattern, burst length, mix
    /// and depth: every fourth point of that cross product, 48 points.
    fn new(seed: u64, smoke: bool) -> Inputs {
        use Pattern::*;
        let xbar = SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() };
        let fabrics = [
            (SystemConfig::xilinx(), &[Scs, Ccs, Scra, Ccra][..]),
            (SystemConfig::mao(), &[Scs, Ccs, Scra, Ccra][..]),
            (xbar, &[Scs, Ccs, Scra, Ccra][..]),
            (SystemConfig::direct(), &[Scs, Scra][..]),
        ];
        let mut all = Vec::new();
        for (cfg, patterns) in &fabrics {
            for &p in *patterns {
                for b in [2u8, 4, 8, 16] {
                    for rw in [RwRatio::TWO_TO_ONE, RwRatio::READ_ONLY] {
                        for ot in [8usize, 32] {
                            all.push((cfg.clone(), wl(p, b, rw, ot)));
                        }
                    }
                }
            }
        }
        let step = if smoke { 28 } else { 4 };
        let mut points: Vec<GridPoint> = all.into_iter().step_by(step).collect();
        let mut rng = Rng::new(seed, 10);
        for (_, w) in &mut points {
            w.seed = rng.next();
        }
        let hot = points.len();
        let mut rank_to_point: Vec<usize> = (0..hot).collect();
        rng.shuffle(&mut rank_to_point);
        let mut acc = 0.0;
        let cdf = (0..hot)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Inputs { points, hot, rank_to_point, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.hot - 1];
        self.rank_to_point[self.cdf.partition_point(|&c| c <= u).min(self.hot - 1)]
    }

    /// A job of `size` points: hot draws plus one fresh point. Fresh
    /// points cycle through four cheap single-channel classes with new
    /// traffic seeds, so every job misses the cache exactly once at a
    /// similar cost.
    fn job(&mut self, size: usize, rng: &mut Rng) -> Vec<usize> {
        use Pattern::*;
        let mut idx: Vec<usize> = (1..size).map(|_| self.draw(rng)).collect();
        let classes = [
            (SystemConfig::xilinx(), wl(Scs, 8, RwRatio::TWO_TO_ONE, 32)),
            (SystemConfig::xilinx(), wl(Scra, 16, RwRatio::TWO_TO_ONE, 32)),
            (SystemConfig::direct(), wl(Scs, 4, RwRatio::TWO_TO_ONE, 32)),
            (SystemConfig::direct(), wl(Scra, 8, RwRatio::TWO_TO_ONE, 32)),
        ];
        let (cfg, w) = classes[(self.points.len() - self.hot) % classes.len()].clone();
        self.points.push((cfg, Workload { seed: rng.next(), ..w }));
        idx.insert(rng.below(idx.len() + 1), self.points.len() - 1);
        idx
    }

    /// One client's open-loop schedule over `seconds`: (due time in s,
    /// job). A Poisson process conditioned on its count — a fixed number
    /// of jobs at sorted uniform times — with job sizes 6–12 in equal
    /// shares, so every seed offers the same load.
    fn schedule(&mut self, seconds: f64, rng: &mut Rng) -> Vec<(f64, Vec<usize>)> {
        let n = (RATE / CLIENTS as f64 * seconds).round().max(1.0) as usize;
        let due: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) * seconds / n as f64).collect();
        let mut sizes: Vec<usize> = (0..n).map(|i| 6 + i % 7).collect();
        rng.shuffle(&mut sizes);
        due.into_iter().zip(sizes).map(|(t, size)| (t, self.job(size, rng))).collect()
    }
}

/// What one connection observed over a window.
#[derive(Default)]
struct ClientLog {
    /// Pool indices of every job sent.
    jobs: Vec<Vec<usize>>,
    lat_ms: Vec<f64>,
    served: Vec<Served>,
    late_ms: f64,
    rows: u64,
    /// Rows not `Done`, including every row of a rejected job.
    failed: u64,
    mismatches: u64,
    /// First measurement seen per pool point; every later copy must match.
    first: HashMap<usize, String>,
    end: Option<Instant>,
}

fn spec_of(pool: &[GridPoint], idx: &[usize], n: u64) -> JobSpec {
    JobSpec::new(format!("mix-{n}"), FID, idx.iter().map(|&i| pool[i].clone()).collect())
}

/// Sends `jobs` on `client` at their due times after `t0` (open loop);
/// with `t0 = None` each job goes as soon as the previous one ended.
fn drive(
    client: &mut Client,
    pool: &[GridPoint],
    jobs: &[(f64, Vec<usize>)],
    t0: Option<Instant>,
    spans: &mut Spans,
    id_base: u64,
) -> io::Result<ClientLog> {
    let mut log = ClientLog::default();
    for (n, (due_s, idx)) in jobs.iter().enumerate() {
        let due = match t0 {
            Some(t0) => {
                let due = t0 + Duration::from_secs_f64(*due_s);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                log.late_ms = log
                    .late_ms
                    .max(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                due
            }
            None => Instant::now(),
        };
        let id = id_base + n as u64;
        let root = spans.begin("job", None, id);
        let mut served =
            serve_job(client, &spec_of(pool, idx, id), spans.is_on(), spans, root, id)?;
        spans.end(root);
        let end = Instant::now();
        log.lat_ms.push((end - due).as_secs_f64() * 1e3);
        log.end = Some(end);
        if served.rejected {
            log.failed += idx.len() as u64;
        }
        // Rows are compared as they arrive and not kept, so the
        // benchmark's own memory stays out of `peak_rss_mb`.
        for (i, m, done) in std::mem::take(&mut served.rows) {
            log.rows += 1;
            if !done {
                log.failed += 1;
                continue;
            }
            match log.first.get(&idx[i]) {
                Some(seen) if *seen != m => log.mismatches += 1,
                Some(_) => {}
                None => {
                    log.first.insert(idx[i], m);
                }
            }
        }
        log.served.push(served);
        log.jobs.push(idx.clone());
    }
    Ok(log)
}

/// Daemon plus connected clients, warmed by a closed-loop burst of jobs.
struct Setup {
    clients: Vec<Client>,
    // Dropped after the clients, so connection handlers see EOF first.
    _daemon: Daemon,
}

/// Starts a daemon, connects the clients, and warms the cache with the
/// whole hot pool, sent as closed-loop jobs of eight points.
fn setup(inputs: &Inputs) -> io::Result<Setup> {
    let daemon = Daemon::start()?;
    let mut clients =
        (0..CLIENTS).map(|_| Client::connect(&daemon.addr)).collect::<io::Result<Vec<_>>>()?;
    let hot: Vec<usize> = (0..inputs.hot).collect();
    let warm: Vec<(f64, Vec<usize>)> = hot.chunks(8).map(|c| (0.0, c.to_vec())).collect();
    let points = &inputs.points;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let jobs: Vec<_> = warm.iter().skip(c).step_by(CLIENTS).cloned().collect();
                s.spawn(move || {
                    drive(client, points, &jobs, None, &mut Spans::new(false), 0).map(|_| ())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("warm-up client panicked"))
    })?;
    Ok(Setup { clients, _daemon: daemon })
}

/// One timed window: both connections run their schedules concurrently.
fn window(
    st: &mut Setup,
    pool: &[GridPoint],
    plans: &[Vec<(f64, Vec<usize>)>],
    spans: &mut Spans,
) -> io::Result<(Window, Vec<ClientLog>)> {
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = st
            .clients
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                let mut sp = spans.for_thread(c as u64 + 1);
                s.spawn(move || {
                    drive(client, pool, plan, Some(t0), &mut sp, (c as u64) << 32).map(|l| (l, sp))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut w = Window::default();
    let mut out = Vec::new();
    let mut end = t0;
    for (log, sp) in logs {
        spans.absorb(sp);
        w.points += log.rows;
        w.ops += log.rows;
        w.failed += log.failed + log.mismatches;
        w.job_ms.extend(&log.lat_ms);
        w.max_gap_ms = w.max_gap_ms.max(log.late_ms);
        end = end.max(log.end.unwrap_or(t0));
        out.push(log);
    }
    w.busy_s = (end - t0).as_secs_f64();
    Ok((w, out))
}

pub fn run(opts: &Opts, spans: &mut Spans) -> io::Result<Outcome> {
    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut inputs = Inputs::new(opts.seed, opts.smoke);
    let mut plans = |stream| {
        let mut rng = Rng::new(opts.seed, stream);
        (0..CLIENTS).map(|_| inputs.schedule(seconds, &mut rng)).collect::<Vec<_>>()
    };
    let (plain_plans, traced_plans) = (plans(20), plans(21));
    let pool = &inputs.points;
    let (st, setup_s) = repeat_setup(opts.setups(), || setup(&inputs));
    let mut st = st?;
    let before = st.clients[0].stats()?;
    let (plain, mut logs) = window(&mut st, pool, &plain_plans, &mut Spans::new(false))?;
    let peak = peak_rss_mb();
    let traced = if opts.trace {
        let (w, traced_logs) = window(&mut st, pool, &traced_plans, spans)?;
        // Layer metrics come from the traced window's logs.
        let plain_logs = std::mem::replace(&mut logs, traced_logs);
        logs.extend(plain_logs);
        Some(w)
    } else {
        None
    };
    let layer_logs = &logs[..CLIENTS];
    let after = st.clients[0].stats()?;
    drop(st);

    // Every copy of a point agreed with its connection's first copy
    // (checked in the window). Off the clock, the connections' first
    // copies must agree, and a sample must match a direct run.
    let mut mismatches: u64 = logs.iter().map(|l| l.mismatches).sum();
    let mut first: HashMap<usize, &String> = HashMap::new();
    for log in &logs {
        for (k, v) in &log.first {
            let seen = first.entry(*k).or_insert(v);
            mismatches += u64::from(*seen != v);
        }
    }
    let mut keys: Vec<usize> = first.keys().copied().collect();
    keys.sort_unstable();
    let mut rng = Rng::new(opts.seed, 13);
    let picked: Vec<usize> = rng
        .pick(keys.len(), if opts.smoke { 4 } else { 32 })
        .into_iter()
        .map(|i| keys[i])
        .collect();
    let points: Vec<GridPoint> = picked.iter().map(|&i| pool[i].clone()).collect();
    let t = Instant::now();
    let direct = run_grid_with_cache(&points, FID.warmup, FID.cycles, 1, &ResultCache::disabled());
    let grid_ms = t.elapsed().as_secs_f64() * 1e3;
    let differ = picked.iter().zip(&direct).filter(|(i, m)| *first[*i] != row_json(m)).count();
    let not_done: u64 = logs.iter().map(|l| l.failed).sum();
    let checks = vec![
        Check::new("rows_done", not_done == 0, format!("{not_done} rows not Done or rejected")),
        Check::new(
            "copies_identical",
            mismatches == 0,
            format!("{mismatches} served copies differ from the first copy"),
        ),
        Check::new(
            "served_matches_direct",
            differ == 0,
            format!("{} points re-run directly, {differ} differ", picked.len()),
        ),
    ];

    let lw = traced.as_ref().unwrap_or(&plain);
    let mut layers = Metrics::default();
    put_wire(&mut layers, &layer_logs.iter().flat_map(|l| &l.served).collect::<Vec<_>>());
    put_scheduler(&mut layers, &after);
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let coalesced = after.cache_coalesced - before.cache_coalesced;
    let lookups = (hits + misses + coalesced).max(1) as f64;
    layers.put("cache.hit_ratio", hits as f64 / lookups, "fraction");
    layers.put("cache.coalesced", coalesced as f64, "count");
    layers.put("gen.late_ms_max", lw.max_gap_ms, "ms");
    layers.put("batch.grid_ms", grid_ms, "ms");

    let mut info = Metrics::default();
    info.put("miss_frac", misses as f64 / lookups, "fraction");
    info.put("mean_job_ms", mean(&lw.job_ms), "ms");

    let rows: Vec<(GridPoint, Measurement)> = points.into_iter().zip(direct).collect();
    let grids = layer_logs
        .iter()
        .flat_map(|l| &l.jobs)
        .take(64)
        .map(|idx| idx.iter().map(|&i| pool[i].clone()).collect())
        .collect();
    Ok(Outcome {
        setup_s,
        plain,
        traced,
        checks,
        layers,
        info,
        sample: Sample { fidelity: FID, grids, truth: rows.clone(), rows },
        peak_rss_mb: peak,
    })
}
