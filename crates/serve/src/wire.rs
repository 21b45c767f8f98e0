//! Newline-delimited-JSON wire protocol over TCP.
//!
//! One JSON object per line in each direction, over
//! `std::net::TcpStream` — no async runtime, no framing beyond `\n`.
//! A connection is a sequential conversation: the client writes a
//! request line, the server answers with exactly one response line,
//! except `subscribe`, whose single `ok` response is followed by a
//! stream of `event` lines ending in an `end` event (after which the
//! connection accepts requests again).
//!
//! ## Requests
//!
//! | verb        | extra fields          | response                                     |
//! |-------------|-----------------------|----------------------------------------------|
//! | `submit`    | `spec`: [`JobSpec`]   | `{"ok":true,"job":N}`, or a rejection: queue full with `retry_after_ms`, or job too large with `max_points` |
//! | `status`    | `job`: N              | `{"ok":true,"status":{...}}`                 |
//! | `subscribe` | `job`: N              | `{"ok":true}` then row/end event lines       |
//! | `cancel`    | `job`: N              | `{"ok":true,"cancelled":bool}`               |
//! | `stats`     | —                     | `{"ok":true,"stats":{...}}`                  |
//! | `metrics`   | —                     | `{"ok":true,"metrics":"..."}` — the whole registry in Prometheus text exposition format |
//! | `spans`     | —                     | `{"ok":true,"spans":[...]}` — finished-job lifecycle spans, oldest first |
//! | `cache`     | `clear`: bool (opt.)  | `{"ok":true,"cache":{...}}` (snapshot after an optional memory-tier clear) |
//! | `shutdown`  | —                     | `{"ok":true}`; the server then stops         |
//!
//! Errors are `{"ok":false,"error":"..."}`. The two submit rejections
//! ([`crate::Rejection`]) carry one more field each: a queue-full one
//! (`"error":"queue full"`) carries `retry_after_ms`, the explicit
//! backpressure signal; a grid with more points than the whole queue
//! holds gets `"error":"job too large"` with `max_points`, the queue's
//! capacity, and no retry hint, since no retry can admit it. A request
//! line longer than [`MAX_REQUEST_LINE`] bytes gets
//! `{"ok":false,"error":"request line too long"}` and its connection is
//! closed; other connections are unaffected.
//!
//! ## Events
//!
//! `{"event":"row","row":{...}}` per finished point (completion order,
//! indexed), then `{"event":"end","job":N,"state":"Done"|"Cancelled"}`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use hbm_core::cache::CacheSnapshot;
use serde::value::{from_value, Value};
use serde_json::json;

use crate::job::{Event, JobId, JobSpec, JobState, JobStatus, Rejection, RowResult};
use crate::scheduler::ServeHandle;
use crate::stats::{JobSpan, StatsSnapshot};

/// Serializes `v` and appends the protocol's line terminator.
fn write_line(stream: &mut (impl Write + ?Sized), v: &Value) -> io::Result<()> {
    let mut line = String::new();
    write_line_buf(stream, &mut line, v)
}

/// [`write_line`] into a caller-owned buffer, so per-row streaming
/// reuses one allocation per connection instead of a fresh `String` per
/// NDJSON line.
fn write_line_buf(
    stream: &mut (impl Write + ?Sized),
    buf: &mut String,
    v: &Value,
) -> io::Result<()> {
    use std::fmt::Write as _;
    buf.clear();
    write!(buf, "{v}").expect("String formatting is infallible");
    buf.push('\n');
    stream.write_all(buf.as_bytes())
}

/// Longest request line the server reads, `\n` excluded. A submit of
/// 4 096 points — the default queue capacity, so the largest one
/// admitted whole — encodes to about 2.7 MB; the cap leaves a ninefold
/// margin while bounding what one client can make a handler buffer.
pub const MAX_REQUEST_LINE: usize = 24 << 20;

/// How one [`read_line_capped`] call ended.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CappedLine {
    /// A line is in the buffer, its `\n` or `\r\n` stripped (the last
    /// line of a stream may lack one).
    Line,
    /// The stream ended before any byte.
    Eof,
    /// The line runs past the cap: `cap + 1` bytes of it were read and
    /// the rest is still unread.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` (cleared first), never
/// holding more than `cap + 1` bytes of it.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<CappedLine> {
    buf.clear();
    let n = reader.by_ref().take(cap as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(CappedLine::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(CappedLine::Line);
    }
    Ok(if n > cap { CappedLine::TooLong } else { CappedLine::Line })
}

/// Closes a connection whose request was refused without reading it to
/// its end: the reply is flushed by a write-side shutdown, then at most
/// `budget` unread bytes are discarded (for up to a second) so the close
/// does not reset the connection under a reply the client has yet to
/// read.
pub(crate) fn refuse_and_close(stream: &TcpStream, reader: &mut impl Read, budget: u64) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = io::copy(&mut reader.take(budget), &mut io::sink());
}

fn err_line(msg: &str) -> Value {
    json!({ "ok": false, "error": msg })
}

fn u64_field(req: &Value, key: &str) -> Option<u64> {
    match req.get(key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// The TCP front-end: an accept loop fanning out one handler thread per
/// connection, all of them sharing one [`ServeHandle`].
pub struct WireServer {
    addr: std::net::SocketAddr,
    handle: ServeHandle,
    accept_thread: std::thread::JoinHandle<()>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `handle`.
    pub fn bind(addr: &str, handle: ServeHandle) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let accept_handle = handle.clone();
        let accept_thread = std::thread::Builder::new()
            .name("hbm-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_handle))?;
        Ok(WireServer { addr: local, handle, accept_thread })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Shuts the scheduler down (cancelling open jobs) and joins the
    /// accept loop. In-flight connection handlers finish on their own.
    pub fn stop(self) {
        self.handle.shutdown();
        // Unblock the accept loop; it re-checks the shutdown flag per
        // connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }

    /// Blocks until the scheduler is shut down (by a client's `shutdown`
    /// verb), then joins the accept loop. Used by `repro serve`.
    pub fn run_until_shutdown(self) {
        while !self.handle.is_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.accept_thread.join();
    }
}

fn accept_loop(listener: &TcpListener, handle: &ServeHandle) {
    for conn in listener.incoming() {
        if handle.is_shutdown() {
            return;
        }
        let Ok(stream) = conn else { continue };
        let handle = handle.clone();
        let _ = std::thread::Builder::new()
            .name("hbm-serve-conn".into())
            .spawn(move || handle_connection(stream, &handle));
    }
}

/// Runs one connection's request/response conversation to EOF, or to
/// the first request line longer than [`MAX_REQUEST_LINE`].
fn handle_connection(stream: TcpStream, handle: &ServeHandle) {
    // `subscribe` writes one line per event while its client only reads.
    // With Nagle's algorithm on, every line after the first waited in the
    // kernel for the client's delayed ACK (40 ms minimum on Linux), so no
    // job's rows arrived sooner than ~40 ms after `subscribe`: on a 2-vCPU
    // Xeon host an 8-point analytical job took 41–44 ms from submit to
    // `End`, 0.4–1.0 ms with Nagle off. A connection that cannot set it
    // still works.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    // One serialization buffer for the connection's lifetime: row
    // streaming reuses it instead of allocating per NDJSON line.
    let mut buf = String::new();
    let mut raw = Vec::new();
    loop {
        match read_line_capped(&mut reader, &mut raw, MAX_REQUEST_LINE) {
            Ok(CappedLine::Line) => {}
            Ok(CappedLine::TooLong) => {
                let _ = write_line(&mut writer, &err_line("request line too long"));
                refuse_and_close(&writer, &mut reader, MAX_REQUEST_LINE as u64);
                return;
            }
            Ok(CappedLine::Eof) | Err(_) => return,
        }
        let Ok(line) = std::str::from_utf8(&raw) else { return };
        if line.trim().is_empty() {
            continue;
        }
        let reply_ok = match serde_json::from_str::<Value>(line) {
            Ok(req) => handle_request(&req, handle, &mut writer, &mut buf),
            Err(e) => write_line(&mut writer, &err_line(&format!("bad request: {e}"))).is_ok(),
        };
        if !reply_ok {
            return;
        }
    }
}

/// Dispatches one request line; returns `false` once the connection is
/// unusable (write failure) or the server is shutting down.
fn handle_request(
    req: &Value,
    handle: &ServeHandle,
    writer: &mut TcpStream,
    buf: &mut String,
) -> bool {
    let verb = match req.get("verb") {
        Some(Value::Str(v)) => v.as_str(),
        _ => {
            return write_line(writer, &err_line("missing verb")).is_ok();
        }
    };
    match verb {
        "submit" => {
            let spec = match req.get("spec").cloned().map(from_value::<JobSpec>) {
                Some(Ok(spec)) => spec,
                Some(Err(e)) => {
                    return write_line(writer, &err_line(&format!("bad spec: {e}"))).is_ok();
                }
                None => return write_line(writer, &err_line("missing spec")).is_ok(),
            };
            let reply = match handle.submit(spec) {
                Ok(job) => json!({ "ok": true, "job": job.0 }),
                Err(Rejection::QueueFull { retry_after_ms }) => json!({
                    "ok": false,
                    "error": "queue full",
                    "retry_after_ms": retry_after_ms,
                }),
                Err(Rejection::TooLarge { max_points }) => json!({
                    "ok": false,
                    "error": "job too large",
                    "max_points": max_points,
                }),
            };
            write_line(writer, &reply).is_ok()
        }
        "status" => {
            let reply = match u64_field(req, "job").and_then(|id| handle.status(JobId(id))) {
                Some(status) => json!({ "ok": true, "status": status }),
                None => err_line("unknown job"),
            };
            write_line(writer, &reply).is_ok()
        }
        "cancel" => {
            let reply = match u64_field(req, "job") {
                Some(id) => json!({ "ok": true, "cancelled": handle.cancel(JobId(id)) }),
                None => err_line("missing job"),
            };
            write_line(writer, &reply).is_ok()
        }
        "subscribe" => {
            let rx = match u64_field(req, "job").and_then(|id| handle.subscribe(JobId(id))) {
                Some(rx) => rx,
                None => return write_line(writer, &err_line("unknown job")).is_ok(),
            };
            if write_line(writer, &json!({ "ok": true })).is_err() {
                return false;
            }
            for ev in rx {
                let line = match ev {
                    Event::Row(row) => json!({ "event": "row", "row": *row }),
                    Event::End { job, state } => {
                        let end = json!({ "event": "end", "job": job.0, "state": state });
                        if write_line_buf(writer, buf, &end).is_err() {
                            return false;
                        }
                        return true;
                    }
                };
                if write_line_buf(writer, buf, &line).is_err() {
                    return false;
                }
            }
            // Stream closed without an End: the server is going away.
            false
        }
        "stats" => write_line(writer, &json!({ "ok": true, "stats": handle.stats() })).is_ok(),
        "metrics" => {
            let text = hbm_core::metrics::Registry::global().render();
            write_line(writer, &json!({ "ok": true, "metrics": text })).is_ok()
        }
        "spans" => write_line(writer, &json!({ "ok": true, "spans": handle.spans() })).is_ok(),
        "cache" => {
            if matches!(req.get("clear"), Some(Value::Bool(true))) {
                handle.cache().clear();
            }
            write_line(writer, &json!({ "ok": true, "cache": handle.cache().snapshot() })).is_ok()
        }
        "shutdown" => {
            let ok = write_line(writer, &json!({ "ok": true })).is_ok();
            handle.shutdown();
            // Self-connect so the accept loop wakes up and observes the
            // shutdown flag.
            if let Ok(addr) = writer.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            let _ = ok;
            false
        }
        other => write_line(writer, &err_line(&format!("unknown verb `{other}`"))).is_ok(),
    }
}

/// Blocking client for the wire protocol — what the `serve-client`
/// example, the golden test, and the CI smoke leg drive.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving endpoint, e.g. `"127.0.0.1:7070"`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(read_half), writer: stream })
    }

    /// One request/response exchange.
    fn call(&mut self, req: &Value) -> io::Result<Value> {
        write_line(&mut self.writer, req)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Value> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits `spec`; `Err(Rejection)` inside the `Ok` is the server's
    /// refusal: a full queue (retry later) or a grid too large for the
    /// queue (split it).
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Result<JobId, Rejection>> {
        let reply = self.call(&json!({ "verb": "submit", "spec": spec.clone() }))?;
        match reply.get("ok") {
            Some(Value::Bool(true)) => match u64_field(&reply, "job") {
                Some(id) => Ok(Ok(JobId(id))),
                None => Err(bad_reply("submit reply without job id")),
            },
            _ => {
                let max_points =
                    u64_field(&reply, "max_points").and_then(|n| usize::try_from(n).ok());
                match (u64_field(&reply, "retry_after_ms"), max_points) {
                    (Some(retry_after_ms), _) => Ok(Err(Rejection::QueueFull { retry_after_ms })),
                    (None, Some(max_points)) => Ok(Err(Rejection::TooLarge { max_points })),
                    (None, None) => {
                        Err(bad_reply("submit rejected without retry_after_ms or max_points"))
                    }
                }
            }
        }
    }

    /// Submits with bounded retry, backing off between attempts with
    /// decorrelated jitter seeded by the server's `retry_after_ms` hint.
    /// A floor ([`RETRY_FLOOR_MS`]) keeps a `retry_after_ms` of 0 from
    /// degenerating into a busy-spin that hammers the socket, and a cap
    /// ([`RETRY_CAP_MS`]) bounds the growth. Only a full queue is retried:
    /// [`Rejection::TooLarge`] comes back at once, since no retry can
    /// admit the grid.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_attempts: usize,
    ) -> io::Result<Result<JobId, Rejection>> {
        let mut rng = retry_seed();
        let mut prev = RETRY_FLOOR_MS;
        let mut attempt = 1;
        loop {
            let rej = match self.submit(spec)? {
                Ok(id) => return Ok(Ok(id)),
                Err(rej) => rej,
            };
            match rej {
                Rejection::QueueFull { retry_after_ms } if attempt < max_attempts => {
                    attempt += 1;
                    prev = backoff_ms(retry_after_ms, prev, &mut rng);
                    std::thread::sleep(Duration::from_millis(prev));
                }
                _ => return Ok(Err(rej)),
            }
        }
    }

    /// The server-side view of `job`.
    pub fn status(&mut self, job: JobId) -> io::Result<Option<JobStatus>> {
        let reply = self.call(&json!({ "verb": "status", "job": job.0 }))?;
        match (reply.get("ok"), reply.get("status")) {
            (Some(Value::Bool(true)), Some(status)) => from_value(status.clone())
                .map(Some)
                .map_err(|e| bad_reply(&format!("bad status payload: {e}"))),
            _ => Ok(None),
        }
    }

    /// Requests cancellation; `true` if the job was still cancellable.
    pub fn cancel(&mut self, job: JobId) -> io::Result<bool> {
        let reply = self.call(&json!({ "verb": "cancel", "job": job.0 }))?;
        Ok(matches!(reply.get("cancelled"), Some(Value::Bool(true))))
    }

    /// The server's result-cache snapshot; `clear` empties the cache's
    /// memory tier first.
    pub fn cache(&mut self, clear: bool) -> io::Result<CacheSnapshot> {
        let req = if clear {
            json!({ "verb": "cache", "clear": true })
        } else {
            json!({ "verb": "cache" })
        };
        let reply = self.call(&req)?;
        match reply.get("cache") {
            Some(snap) => {
                from_value(snap.clone()).map_err(|e| bad_reply(&format!("bad cache payload: {e}")))
            }
            None => Err(bad_reply("cache reply without payload")),
        }
    }

    /// The server's observability snapshot.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        let reply = self.call(&json!({ "verb": "stats" }))?;
        match reply.get("stats") {
            Some(stats) => {
                from_value(stats.clone()).map_err(|e| bad_reply(&format!("bad stats payload: {e}")))
            }
            None => Err(bad_reply("stats reply without payload")),
        }
    }

    /// The server's whole metric registry, rendered as Prometheus text
    /// exposition format (version 0.0.4).
    pub fn metrics(&mut self) -> io::Result<String> {
        let reply = self.call(&json!({ "verb": "metrics" }))?;
        match reply.get("metrics") {
            Some(Value::Str(text)) => Ok(text.clone()),
            _ => Err(bad_reply("metrics reply without payload")),
        }
    }

    /// Finished-job lifecycle spans, oldest first.
    pub fn spans(&mut self) -> io::Result<Vec<JobSpan>> {
        let reply = self.call(&json!({ "verb": "spans" }))?;
        match reply.get("spans") {
            Some(spans) => {
                from_value(spans.clone()).map_err(|e| bad_reply(&format!("bad spans payload: {e}")))
            }
            None => Err(bad_reply("spans reply without payload")),
        }
    }

    /// Subscribes to `job` and drains its stream, invoking `on_event` per
    /// event, returning the terminal state. Returns `Ok(None)` for an
    /// unknown job.
    pub fn subscribe_each(
        &mut self,
        job: JobId,
        mut on_event: impl FnMut(&Event),
    ) -> io::Result<Option<JobState>> {
        let reply = self.call(&json!({ "verb": "subscribe", "job": job.0 }))?;
        if !matches!(reply.get("ok"), Some(Value::Bool(true))) {
            return Ok(None);
        }
        loop {
            let ev = self.read_reply()?;
            match ev.get("event") {
                Some(Value::Str(kind)) if kind == "row" => {
                    let row: RowResult = match ev.get("row").cloned().map(from_value) {
                        Some(Ok(row)) => row,
                        _ => return Err(bad_reply("bad row event")),
                    };
                    on_event(&Event::Row(Box::new(row)));
                }
                Some(Value::Str(kind)) if kind == "end" => {
                    let state: JobState = match ev.get("state").cloned().map(from_value) {
                        Some(Ok(state)) => state,
                        _ => return Err(bad_reply("bad end event")),
                    };
                    let job = JobId(u64_field(&ev, "job").unwrap_or(job.0));
                    on_event(&Event::End { job, state });
                    return Ok(Some(state));
                }
                _ => return Err(bad_reply("unexpected stream line")),
            }
        }
    }

    /// Subscribes and collects the whole stream: rows sorted by grid
    /// index plus the terminal state. `None` for an unknown job.
    pub fn collect(&mut self, job: JobId) -> io::Result<Option<(Vec<RowResult>, JobState)>> {
        let mut rows = Vec::new();
        let state = self.subscribe_each(job, |ev| {
            if let Event::Row(row) = ev {
                rows.push(row.as_ref().clone());
            }
        })?;
        rows.sort_by_key(|r| r.index);
        Ok(state.map(|s| (rows, s)))
    }

    /// Asks the server to shut down (cancelling open jobs).
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call(&json!({ "verb": "shutdown" })).map(|_| ())
    }

    /// Raw single-line exchange, for protocol-level tests.
    pub fn call_raw(&mut self, request_line: &str) -> io::Result<String> {
        let mut line = request_line.trim_end().to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(reply.trim_end().to_string())
    }

    /// Reads one raw line from the stream (after a raw `subscribe`).
    pub fn read_raw_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(line.trim_end().to_string())
    }
}

fn bad_reply(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The back-off hint every [`Rejection::QueueFull`] carries, in
/// milliseconds.
pub const RETRY_AFTER_MS: u64 = 50;

/// Minimum back-off between submit retries, even when the server hints
/// `retry_after_ms: 0` — the floor that prevents a busy-spin.
pub const RETRY_FLOOR_MS: u64 = 10;

/// Upper bound on one back-off interval.
pub const RETRY_CAP_MS: u64 = 2_000;

/// A per-call seed for the retry jitter (process id ⊕ wall clock, run
/// through one mixing round — no shared state, no extra deps).
fn retry_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    splitmix(&mut (nanos ^ (u64::from(std::process::id()) << 32)))
}

/// One splitmix64 step: advances `state` and returns a mixed value.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next back-off interval: decorrelated jitter, uniform in
/// `[lo, hi]` where `lo` is the server's hint clamped to the floor/cap
/// and `hi` grows from the previous interval (×3) up to the cap. Pure —
/// the unit tests drive it with fixed rng states.
fn backoff_ms(hint_ms: u64, prev_ms: u64, rng: &mut u64) -> u64 {
    let lo = hint_ms.clamp(RETRY_FLOOR_MS, RETRY_CAP_MS);
    let hi = prev_ms.saturating_mul(3).clamp(lo, RETRY_CAP_MS);
    lo + splitmix(rng) % (hi - lo + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RowStatus;
    use crate::scheduler::{ServeConfig, Server};
    use hbm_core::experiment::Fidelity;
    use hbm_core::SystemConfig;
    use hbm_traffic::Workload;

    const FID: Fidelity = Fidelity::cycle(200, 600);

    fn spec(name: &str, n: usize) -> JobSpec {
        let points = (0..n)
            .map(|i| (SystemConfig::xilinx(), Workload { rotation: i % 4, ..Workload::scs() }))
            .collect();
        JobSpec::new(name, FID, points)
    }

    fn start() -> (Server, WireServer, String) {
        let server = Server::spawn(ServeConfig { workers: 2, ..ServeConfig::default() });
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).unwrap();
        let addr = wire.local_addr().to_string();
        (server, wire, addr)
    }

    #[test]
    fn submit_subscribe_collect_round_trip() {
        let (server, wire, addr) = start();
        let mut client = Client::connect(&addr).unwrap();
        let id = client.submit(&spec("wire", 3)).unwrap().unwrap();
        let (rows, state) = client.collect(id).unwrap().unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.status == RowStatus::Done));
        let status = client.status(id).unwrap().unwrap();
        assert_eq!(status.done, 3);
        let stats = client.stats().unwrap();
        assert_eq!(stats.rows_done, 3);
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn queue_full_rejection_reaches_the_client() {
        let server =
            Server::spawn(ServeConfig { workers: 1, queue_capacity: 2, ..ServeConfig::default() });
        server.handle().pause();
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).unwrap();
        let mut client = Client::connect(&wire.local_addr().to_string()).unwrap();
        client.submit(&spec("fits", 2)).unwrap().unwrap();
        let rej = client.submit(&spec("overflow", 1)).unwrap().unwrap_err();
        assert_eq!(rej, Rejection::QueueFull { retry_after_ms: RETRY_AFTER_MS });
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn a_too_large_grid_is_refused_once_without_retries() {
        let server =
            Server::spawn(ServeConfig { workers: 1, queue_capacity: 4, ..ServeConfig::default() });
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).unwrap();
        let mut client = Client::connect(&wire.local_addr().to_string()).unwrap();
        let rej = client.submit_with_retry(&spec("too-large", 5), 40).unwrap().unwrap_err();
        assert_eq!(rej, Rejection::TooLarge { max_points: 4 });
        assert_eq!(client.stats().unwrap().jobs_rejected, 1, "one attempt, no retries");
        let reply =
            client.call_raw(&json!({ "verb": "submit", "spec": spec("raw", 5) }).to_string());
        assert_eq!(reply.unwrap(), r#"{"ok":false,"error":"job too large","max_points":4}"#);
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn cancel_over_the_wire_ends_the_stream() {
        let server = Server::spawn(ServeConfig { workers: 1, ..ServeConfig::default() });
        server.handle().pause();
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).unwrap();
        let addr = wire.local_addr().to_string();
        let mut submitter = Client::connect(&addr).unwrap();
        let id = submitter.submit(&spec("doomed", 3)).unwrap().unwrap();
        assert!(submitter.cancel(id).unwrap());
        let (rows, state) = submitter.collect(id).unwrap().unwrap();
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.status == RowStatus::Cancelled));
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_an_error_not_a_hangup() {
        let (server, wire, addr) = start();
        let mut client = Client::connect(&addr).unwrap();
        let reply = client.call_raw("this is not json").unwrap();
        assert!(reply.contains("\"ok\":false"), "reply: {reply}");
        let reply = client.call_raw(r#"{"verb":"warp"}"#).unwrap();
        assert!(reply.contains("unknown verb"), "reply: {reply}");
        let reply = client.call_raw(r#"{"verb":"status","job":999}"#).unwrap();
        assert!(reply.contains("unknown job"), "reply: {reply}");
        // The connection is still healthy.
        let id = client.submit(&spec("after-errors", 1)).unwrap().unwrap();
        let (rows, _) = client.collect(id).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn an_illegal_burst_length_is_a_bad_spec_not_a_job() {
        let (server, wire, addr) = start();
        let mut client = Client::connect(&addr).unwrap();
        let line = json!({ "verb": "submit", "spec": spec("bursts", 1) }).to_string();
        assert!(line.contains("\"burst\":16"), "line: {line}");
        // 257 would truncate to a legal 1-beat burst as a `u8`.
        let reply = client.call_raw(&line.replace("\"burst\":16", "\"burst\":257")).unwrap();
        assert!(reply.contains("bad spec"), "reply: {reply}");
        assert_eq!(client.stats().unwrap().jobs_submitted, 0, "no job was created");
        wire.stop();
        server.shutdown();
    }

    /// Writes `len` bytes of `x` and a newline on a raw connection and
    /// returns the connection's whole reply, read to EOF or, while the
    /// connection stays open, to the first reply line.
    fn send_long_line(addr: &str, len: usize) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut line = vec![b'x'; len];
        line.push(b'\n');
        stream.write_all(&line).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn over_cap_line_is_refused_while_another_client_is_served() {
        let (server, wire, addr) = start();
        let mut bystander = Client::connect(&addr).unwrap();
        // A line of exactly the cap is read and parsed (and is no JSON).
        let at_cap = send_long_line(&addr, MAX_REQUEST_LINE);
        assert!(at_cap.contains("bad request"), "reply: {at_cap}");
        // One byte over is refused, and that connection alone is closed.
        let mut over = TcpStream::connect(&addr).unwrap();
        let mut line = vec![b'x'; MAX_REQUEST_LINE + 1];
        line.push(b'\n');
        over.write_all(&line).unwrap();
        let mut reply = String::new();
        BufReader::new(over).read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "{\"ok\":false,\"error\":\"request line too long\"}\n");
        let id = bystander.submit(&spec("bystander", 1)).unwrap().unwrap();
        let (rows, state) = bystander.collect(id).unwrap().unwrap();
        assert_eq!((rows.len(), state), (1, JobState::Done));
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn largest_admissible_submit_fits_well_under_the_cap() {
        let points = ServeConfig::default().queue_capacity;
        let spec = spec("largest", points);
        let line = json!({ "verb": "submit", "spec": spec }).to_string();
        assert!(line.len() * 8 <= MAX_REQUEST_LINE, "{} bytes", line.len());
        let mut buf = Vec::new();
        let mut reader = io::Cursor::new(format!("{line}\n"));
        assert_eq!(
            read_line_capped(&mut reader, &mut buf, MAX_REQUEST_LINE).unwrap(),
            CappedLine::Line
        );
        assert_eq!(buf.len(), line.len());
    }

    #[test]
    fn capped_reader_splits_lines_at_the_cap() {
        let mut reader = io::Cursor::new(b"ab\r\nabc\nabcd\nab".to_vec());
        let mut buf = Vec::new();
        let mut next = || (read_line_capped(&mut reader, &mut buf, 3).unwrap(), buf.clone());
        assert_eq!(next(), (CappedLine::Line, b"ab".to_vec()));
        assert_eq!(next(), (CappedLine::Line, b"abc".to_vec()));
        assert_eq!(next(), (CappedLine::TooLong, b"abcd".to_vec()));
        assert_eq!(next(), (CappedLine::Line, b"".to_vec()));
        assert_eq!(next(), (CappedLine::Line, b"ab".to_vec()));
        assert_eq!(next(), (CappedLine::Eof, b"".to_vec()));
    }

    #[test]
    fn backoff_enforces_a_floor_against_zero_hints() {
        let mut rng = 1u64;
        for _ in 0..200 {
            let ms = backoff_ms(0, 0, &mut rng);
            assert!(ms >= RETRY_FLOOR_MS, "zero hint must not busy-spin: {ms}");
            assert!(ms <= RETRY_CAP_MS);
        }
    }

    #[test]
    fn backoff_caps_growth_and_huge_hints() {
        let mut rng = 7u64;
        let mut prev = RETRY_FLOOR_MS;
        for _ in 0..50 {
            prev = backoff_ms(50, prev, &mut rng);
            assert!(prev <= RETRY_CAP_MS, "growth is capped: {prev}");
            assert!(prev >= 50, "server hint is honoured as the minimum");
        }
        // A hint beyond the cap is clamped, not obeyed verbatim.
        let ms = backoff_ms(60_000, RETRY_FLOOR_MS, &mut rng);
        assert_eq!(ms, RETRY_CAP_MS);
    }

    #[test]
    fn backoff_is_jittered() {
        let mut rng = 42u64;
        // Wide window: prev*3 = 1500 vs lo = 100.
        let samples: Vec<u64> = (0..32).map(|_| backoff_ms(100, 500, &mut rng)).collect();
        assert!(samples.iter().any(|&s| s != samples[0]), "jitter must vary: {samples:?}");
        assert!(samples.iter().all(|&s| (100..=1_500).contains(&s)));
    }

    #[test]
    fn cache_verb_round_trips_and_clears() {
        let cache = hbm_core::cache::ResultCache::new();
        let server = Server::spawn(ServeConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).unwrap();
        let mut client = Client::connect(&wire.local_addr().to_string()).unwrap();
        let id = client.submit(&spec("cached", 2)).unwrap().unwrap();
        let (_, state) = client.collect(id).unwrap().unwrap();
        assert_eq!(state, JobState::Done);
        let snap = client.cache(false).unwrap();
        assert!(snap.enabled);
        assert_eq!(snap.entries, 2, "both points were inserted");
        let cleared = client.cache(true).unwrap();
        assert_eq!(cleared.entries, 0, "clear empties the memory tier");
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_misses, 2);
        wire.stop();
        server.shutdown();
    }

    #[test]
    fn shutdown_verb_stops_the_server() {
        let (server, wire, addr) = start();
        let mut client = Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
        wire.run_until_shutdown();
        server.shutdown();
        // New connections may still be accepted by the OS backlog, but
        // submissions are refused.
        if let Ok(mut late) = Client::connect(&addr) {
            // An io::Err (connection refused/closed) is equally fine.
            if let Ok(result) = late.submit(&spec("late", 1)) {
                assert!(result.is_err(), "post-shutdown submit must not be admitted");
            }
        }
    }
}
