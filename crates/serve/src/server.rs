//! The TCP front end: newline-delimited JSON over a plain socket.
//!
//! One reader thread per connection feeds request lines to the shared
//! [`Service`]; response events — which may originate on worker
//! threads — are serialized back through a per-connection writer lock,
//! one event per line. The first thing the daemon prints on stdout is
//!
//! ```text
//! moccml-serve listening on 127.0.0.1:7315
//! ```
//!
//! flushed immediately, so scripts can bind port `0` and scrape the
//! actual address. A `shutdown` request stops intake, drains in-flight
//! jobs, answers with the final `result` event and exits the accept
//! loop.

use crate::json::Json;
use crate::protocol;
use crate::service::{Dispatch, EventSink, Service, ServiceConfig};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The default listen address of `moccml serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7315";

/// The longest request line the daemon reads, in bytes (newline
/// excluded). A longer line is answered with one `error` event and the
/// rest of it is discarded unread into memory; the connection keeps
/// answering. Real request lines are a few kilobytes at most.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One request line read from a connection.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// A complete line, newline (and a trailing `\r`) stripped.
    Text(String),
    /// A line that is not valid UTF-8.
    NotUtf8,
    /// A line longer than the cap; its bytes were discarded.
    TooLong,
}

/// Reads the next line of at most `cap` bytes from `reader`, reusing
/// `buf`. Returns `None` at end of stream (a final unterminated line is
/// still returned). Never buffers more than `cap` bytes of one line.
fn read_capped_line(
    reader: &mut impl BufRead,
    cap: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Line>> {
    buf.clear();
    let mut too_long = false;
    let mut read_any = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if !too_long && buf.len() + chunk.len() > cap {
            too_long = true;
            buf.clear();
        }
        if !too_long {
            buf.extend_from_slice(chunk);
        }
        let used = newline.map_or(chunk.len(), |n| n + 1);
        reader.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if too_long {
        return Ok(Some(Line::TooLong));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(text) => Line::Text(text.to_owned()),
        Err(_) => Line::NotUtf8,
    }))
}

/// An [`EventSink`] writing one event per line to a TCP stream. Write
/// failures (client hung up mid-job) latch the sink shut instead of
/// failing the job.
struct LineSink {
    writer: Mutex<BufWriter<TcpStream>>,
    broken: AtomicBool,
}

impl LineSink {
    fn new(stream: TcpStream) -> LineSink {
        LineSink {
            writer: Mutex::new(BufWriter::new(stream)),
            broken: AtomicBool::new(false),
        }
    }
}

impl EventSink for LineSink {
    fn emit(&self, event: &Json) {
        if self.broken.load(Ordering::Relaxed) {
            return;
        }
        let mut writer = self.writer.lock().expect("writer lock");
        let line = event.to_line();
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            self.broken.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs the daemon: binds `addr`, prints and flushes the
/// `listening on` line to `out`, then serves connections until a
/// `shutdown` request arrives.
///
/// # Errors
///
/// Returns a message when the address cannot be bound.
pub fn serve(addr: &str, config: ServiceConfig, out: &mut dyn Write) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    let _ = writeln!(out, "moccml-serve listening on {local}");
    let _ = out.flush();
    let service = Arc::new(Service::new(config));
    let shutting_down = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if shutting_down.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // a socket that keeps Nagle's algorithm still works, only slower
        let _ = configure_accepted(&stream);
        let service = Arc::clone(&service);
        let shutting_down = Arc::clone(&shutting_down);
        // detached: the shutdown handler drains in-flight jobs before
        // its `result` goes out, so exiting must not wait for idle
        // clients that never hang up
        std::thread::Builder::new()
            .name("moccml-serve-conn".to_owned())
            .spawn(move || handle_connection(stream, &service, &shutting_down, local))
            .expect("connection thread spawns");
    }
    service.shutdown();
    Ok(())
}

/// Socket setup for an accepted connection. Disables Nagle's
/// algorithm: a response line is one small write, and with Nagle on it
/// waits for the client's delayed ACK of the previous segment, which
/// stalls every request/response round trip by ~40 ms.
fn configure_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    shutting_down: &Arc<AtomicBool>,
    local: std::net::SocketAddr,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink: Arc<dyn EventSink> = Arc::new(LineSink::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    while let Ok(Some(line)) = read_capped_line(&mut reader, MAX_LINE_BYTES, &mut buf) {
        let line = match line {
            Line::Text(line) => line,
            Line::NotUtf8 => {
                sink.emit(&protocol::error("", "request line is not valid UTF-8"));
                continue;
            }
            Line::TooLong => {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                sink.emit(&protocol::error("", &message));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match service.handle_line(&line, &sink) {
            Dispatch::Continue => {}
            Dispatch::Shutdown { id } => {
                shutting_down.store(true, Ordering::Relaxed);
                service.shutdown();
                sink.emit(&protocol::result(
                    &id,
                    Json::obj([("kind", Json::str("shutdown"))]),
                ));
                // the accept loop blocks in `incoming()`: poke it with
                // a throwaway connection so it observes the flag
                let _ = TcpStream::connect(local);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALT: &str = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n}\n";

    /// Boots a daemon on an ephemeral port, returns its address and
    /// the thread handle.
    fn boot() -> (String, std::thread::JoinHandle<()>) {
        struct PipeOut {
            tx: std::sync::mpsc::Sender<String>,
            buffer: Vec<u8>,
        }
        impl Write for PipeOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.buffer.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                let text = String::from_utf8_lossy(&self.buffer).to_string();
                let _ = self.tx.send(text);
                Ok(())
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut out = PipeOut {
                tx,
                buffer: Vec::new(),
            };
            serve("127.0.0.1:0", ServiceConfig::default(), &mut out).expect("serves");
        });
        let banner = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("banner");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_owned();
        (addr, handle)
    }

    fn send_lines(addr: &str, lines: &[String]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = BufWriter::new(stream.try_clone().expect("clones"));
        for line in lines {
            writer.write_all(line.as_bytes()).expect("writes");
            writer.write_all(b"\n").expect("writes");
        }
        writer.flush().expect("flushes");
        drop(writer);
        let reader = BufReader::new(stream);
        let mut events = Vec::new();
        let mut pending: std::collections::HashSet<String> = lines
            .iter()
            .filter_map(|l| Json::parse(l).ok())
            .filter_map(|v| v.get("id").and_then(Json::as_str).map(str::to_owned))
            .collect();
        for line in reader.lines() {
            let line = line.expect("reads");
            let event = Json::parse(&line).expect("events are JSON");
            if matches!(
                event.get("event").and_then(Json::as_str),
                Some("result" | "error" | "cancelled")
            ) {
                if let Some(id) = event.get("id").and_then(Json::as_str) {
                    pending.remove(id);
                }
            }
            events.push(event);
            if pending.is_empty() {
                break;
            }
        }
        events
    }

    #[test]
    fn capped_lines_split_strip_and_discard() {
        let input: &[u8] = b"ab\r\ntoolong\nok\n\xff\nlast";
        let mut reader = BufReader::with_capacity(3, input);
        let mut buf = Vec::new();
        let mut next = || read_capped_line(&mut reader, 4, &mut buf).expect("reads");
        assert_eq!(next(), Some(Line::Text("ab".to_owned())));
        assert_eq!(next(), Some(Line::TooLong));
        assert_eq!(next(), Some(Line::Text("ok".to_owned())));
        assert_eq!(next(), Some(Line::NotUtf8));
        assert_eq!(next(), Some(Line::Text("last".to_owned())));
        assert_eq!(next(), None);
        assert!(buf.capacity() <= 8, "never buffers past the cap");
    }

    #[test]
    fn over_long_line_gets_one_error_and_the_connection_keeps_answering() {
        let (addr, handle) = boot();
        // nested JSON twice the cap: rejected for its length, unparsed
        let huge = "[".repeat(2 * MAX_LINE_BYTES);
        let status = r#"{"id":"s1","method":"status"}"#.to_owned();
        let events = send_lines(&addr, &[huge, status]);
        let kinds: Vec<(&str, &str)> = events
            .iter()
            .map(|e| {
                (
                    e.get("event").and_then(Json::as_str).unwrap_or(""),
                    e.get("id").and_then(Json::as_str).unwrap_or(""),
                )
            })
            .collect();
        assert_eq!(
            kinds,
            vec![("error", ""), ("accepted", "s1"), ("result", "s1")]
        );
        let message = events[0].get("error").and_then(Json::as_str);
        assert_eq!(
            message,
            Some(format!("request line exceeds {MAX_LINE_BYTES} bytes").as_str())
        );
        let bye = send_lines(&addr, &[r#"{"id":"bye","method":"shutdown"}"#.to_owned()]);
        assert!(bye
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("result")));
        handle.join().expect("accept loop exits");
    }

    #[test]
    fn accepted_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound");
        let _client = TcpStream::connect(addr).expect("connects");
        let (accepted, _) = listener.accept().expect("accepts");
        assert!(!accepted.nodelay().expect("readable flag"));
        configure_accepted(&accepted).expect("configures");
        assert!(accepted.nodelay().expect("readable flag"));
        // the write half the sink uses is the same socket
        let write_half = accepted.try_clone().expect("clones");
        assert!(write_half.nodelay().expect("readable flag"));
    }

    #[test]
    fn tcp_round_trip_check_status_shutdown() {
        let (addr, handle) = boot();
        let check = Json::obj([
            ("id", Json::str("r1")),
            ("method", Json::str("check")),
            ("spec", Json::str(ALT)),
        ])
        .to_line();
        let events = send_lines(&addr, &[check]);
        let result = events
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("result"))
            .expect("result");
        assert_eq!(
            result
                .get("result")
                .and_then(|r| r.get("violated"))
                .and_then(Json::as_bool),
            Some(false)
        );
        // second connection: cache hit shows up in status
        let status = send_lines(&addr, &[r#"{"id":"s1","method":"status"}"#.to_owned()]);
        let payload = status
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("result"))
            .and_then(|e| e.get("result"))
            .cloned()
            .expect("status payload");
        assert_eq!(
            payload
                .get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_i64),
            Some(1)
        );
        let bye = send_lines(&addr, &[r#"{"id":"bye","method":"shutdown"}"#.to_owned()]);
        assert!(bye
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("result")));
        handle.join().expect("accept loop exits");
    }
}
