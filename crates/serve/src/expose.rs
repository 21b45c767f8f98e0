//! Standalone Prometheus exposition endpoint.
//!
//! A minimal HTTP/1.0 responder so a stock Prometheus scraper (or
//! `curl`) can read the registry without speaking the NDJSON wire
//! protocol: every `GET` — the path is not inspected, `/metrics` by
//! convention — receives the full [`Registry::render`] output as
//! `text/plain; version=0.0.4`. Hand-rolled over `std::net::TcpStream`
//! like the rest of the crate; serving a single static body per
//! connection needs no HTTP library.
//!
//! The request head is read under caps: a request line longer than
//! [`MAX_LINE`] bytes is answered `414`, a header block with a longer
//! line or more than [`MAX_HEADERS`] lines `431`, and a client silent
//! for [`READ_TIMEOUT`] is dropped, so no client can make the listener
//! buffer without bound or stall the next scrape for long.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hbm_core::metrics::Registry;

use crate::wire::{read_line_capped, refuse_and_close, CappedLine};

/// Longest request or header line read, `\n` excluded.
pub const MAX_LINE: usize = 8 << 10;

/// Most header lines read before the request is refused.
pub const MAX_HEADERS: usize = 100;

/// How long a scrape may leave the listener waiting for its next bytes.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A running exposition listener (`repro serve --metrics-addr`).
pub struct MetricsExposer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl MetricsExposer {
    /// Binds `addr` (port 0 for ephemeral) and starts answering scrapes
    /// from the global registry.
    pub fn bind(addr: &str) -> io::Result<MetricsExposer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let accept_thread =
            std::thread::Builder::new().name("hbm-metrics-http".into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    // One scrape is one short request/response: answer it
                    // inline — a slow scraper cannot block the wire
                    // protocol, only the next scrape.
                    let _ = answer_scrape(stream);
                }
            })?;
        Ok(MetricsExposer { addr: local, stop, accept_thread })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its accept thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        // Self-connect so the accept loop wakes up and observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }
}

/// Reads the request head and writes one exposition response.
fn answer_scrape(stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut request_line = Vec::new();
    if read_line_capped(&mut reader, &mut request_line, MAX_LINE)? == CappedLine::TooLong {
        return refuse(&mut writer, &mut reader, "414 URI Too Long");
    }
    // Drain the header block; HTTP/1.0 close semantics need no body
    // handling for GET.
    let mut header = Vec::new();
    let mut headers = 0;
    loop {
        match read_line_capped(&mut reader, &mut header, MAX_LINE)? {
            CappedLine::Line if header.is_empty() => break,
            CappedLine::Line if headers < MAX_HEADERS => headers += 1,
            CappedLine::Eof => break,
            CappedLine::Line | CappedLine::TooLong => {
                return refuse(&mut writer, &mut reader, "431 Request Header Fields Too Large");
            }
        }
    }
    if !request_line.starts_with(b"GET ") {
        writer.write_all(b"HTTP/1.0 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n")?;
        return Ok(());
    }
    let body = Registry::global().render();
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())
}

/// Answers a refused request head with an empty `status` response and
/// closes the connection.
fn refuse(writer: &mut TcpStream, reader: &mut impl io::Read, status: &str) -> io::Result<()> {
    write!(writer, "HTTP/1.0 {status}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")?;
    refuse_and_close(writer, reader, (MAX_HEADERS * MAX_LINE) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Raw HTTP GET against `addr`, returning (status line, body).
    fn http_get(addr: &std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_to_string(&mut reply).unwrap();
        let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or_default().to_string();
        (status, body.to_string())
    }

    use std::io::Read;

    /// Sends `request` raw and returns the whole reply.
    fn raw_reply(addr: &std::net::SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn header_flood_gets_431() {
        let exposer = MetricsExposer::bind("127.0.0.1:0").unwrap();
        let addr = exposer.local_addr();
        let mut flood = b"GET /metrics HTTP/1.0\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            flood.extend_from_slice(format!("X-Flood-{i}: y\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        let reply = raw_reply(&addr, &flood);
        assert!(reply.starts_with("HTTP/1.0 431 "), "{reply}");
        // One header line over the cap is refused the same way.
        let long = format!("GET / HTTP/1.0\r\nX-Long: {}\r\n\r\n", "y".repeat(MAX_LINE));
        assert!(raw_reply(&addr, long.as_bytes()).starts_with("HTTP/1.0 431 "));
        // A request line over the cap gets 414; the listener still serves.
        let long = format!("GET /{} HTTP/1.0\r\n\r\n", "m".repeat(MAX_LINE));
        assert!(raw_reply(&addr, long.as_bytes()).starts_with("HTTP/1.0 414 "));
        let (status, _) = http_get(&addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        exposer.stop();
    }

    #[test]
    fn scrape_returns_exposition() {
        let exposer = MetricsExposer::bind("127.0.0.1:0").unwrap();
        let (status, body) = http_get(&exposer.local_addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE hbm_cache_hits_total counter"), "{body}");
        // Serving is stateless per connection: a second scrape works.
        let (status, _) = http_get(&exposer.local_addr(), "/metrics");
        assert!(status.contains("200"));
        exposer.stop();
    }

    #[test]
    fn non_get_is_rejected() {
        let exposer = MetricsExposer::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(exposer.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 405"), "{reply}");
        exposer.stop();
    }
}
