//! The threaded TCP front end: acceptor thread → bounded channel →
//! worker pool, the same shape as `grbac_obs::ObsServer`, but speaking
//! the NDJSON policy protocol instead of HTTP and holding connections
//! open across many requests.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{err_envelope, ErrorCode, WireError};
use crate::service::{PolicyService, WireSubscription};

/// Pending connections the acceptor may queue before it blocks.
const QUEUE_DEPTH: usize = 32;

/// Per-connection read timeout. Generous: clients legitimately idle
/// between requests, and the shutdown path wakes blocked reads by
/// closing the listener-side socket anyway.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Read timeout while a connection is streaming a subscription: each
/// expiry is a pump tick that drains buffered events to the client, so
/// this bounds event delivery latency, not connection lifetime.
const STREAM_POLL: Duration = Duration::from_millis(25);

/// A running policy service endpoint.
///
/// One worker serves one connection at a time, request by request, so
/// responses on a connection always come back in request order. Size
/// [`ServiceConfig::workers`](crate::ServiceConfig) at or above the
/// expected number of concurrent clients.
///
/// ```
/// use grbac_serve::{Client, PolicyService, ServeServer};
/// use std::sync::Arc;
///
/// let service = Arc::new(PolicyService::with_defaults());
/// let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let pong = client.request_line(r#"{"op":"ping"}"#).unwrap();
/// assert!(pong.contains("\"ok\":true"));
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct ServeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Live,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The set of connections currently being served, so `shutdown` can
/// unblock workers parked in a read instead of waiting out the idle
/// timeout. Entries unregister themselves when the connection ends.
type Live = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A connection handed from the acceptor to a worker, stamped at
/// enqueue time so the dispatch-queue wait can be charged to the
/// connection's first traced request.
type Dispatched = (TcpStream, Instant);

impl ServeServer {
    /// Binds `addr` and starts the acceptor plus the worker pool sized
    /// by the service's [`ServiceConfig`](crate::ServiceConfig).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(service: Arc<PolicyService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = service.config().workers.max(1);
        let max_line = service.config().max_line_bytes;

        let live: Live = Arc::new(Mutex::new(HashMap::new()));
        let next_conn = Arc::new(AtomicU64::new(0));
        let (tx, rx): (SyncSender<Dispatched>, Receiver<Dispatched>) =
            std::sync::mpsc::sync_channel(QUEUE_DEPTH);
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let service = Arc::clone(&service);
                let rx = Arc::clone(&rx);
                let stop = Arc::clone(&stop);
                let live = Arc::clone(&live);
                let next_conn = Arc::clone(&next_conn);
                std::thread::spawn(move || loop {
                    let stream = {
                        let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        guard.recv()
                    };
                    match stream {
                        Ok((stream, enqueued)) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let queue_wait_ns = enqueued.elapsed().as_nanos() as u64;
                            let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                lock(&live).insert(conn, clone);
                            }
                            serve_connection(&service, stream, max_line, queue_wait_ns);
                            lock(&live).remove(&conn);
                        }
                        Err(_) => break,
                    }
                })
            })
            .collect();

        let acceptor_stop = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if acceptor_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    if tx.send((stream, Instant::now())).is_err() {
                        break;
                    }
                }
            }
            // Dropping `tx` disconnects the channel and releases any
            // worker blocked in `recv`.
        });

        Ok(Self {
            addr,
            stop,
            live,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, disconnects open connections, and joins every
    /// thread. A request already being handled finishes and its
    /// response is written before the connection closes.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers parked in a read on an open connection see EOF
        // immediately instead of waiting out the idle timeout.
        for (_, stream) in lock(&self.live).drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        for (_, stream) in lock(&self.live).drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Serves one connection to completion: read a line, answer a line,
/// until EOF, timeout, or an unrecoverable framing error. Every answer
/// is written into one response buffer the connection reuses, and
/// leaves in one write, newline included: on a `TCP_NODELAY` socket a
/// split frame costs a second segment, and the client wakes on the
/// first one only to find no newline and block again. The measured
/// dispatch-queue wait is charged to the first request only; later
/// requests on the connection never sat in the accept queue.
///
/// While the connection holds a live subscription the loop switches to
/// a short-poll cadence: each [`STREAM_POLL`] read timeout drains the
/// subscription's rings into NDJSON event frames between request
/// lines. The connection (and its worker) stays dedicated to the
/// stream until `unsubscribe` or disconnect; either path drops the
/// [`WireSubscription`], freeing its slot.
fn serve_connection(
    service: &PolicyService,
    stream: TcpStream,
    max_line: usize,
    mut queue_wait_ns: u64,
) {
    service.metrics().connections_total.inc();
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut subscription: Option<WireSubscription> = None;
    // Partial-line carry: a streaming pump tick may interrupt a read
    // mid-line, so the accumulator lives outside the loop.
    let mut partial: Vec<u8> = Vec::new();
    let mut response = String::new();
    loop {
        let was_streaming = subscription.is_some();
        match read_line_limited(&mut reader, max_line, &mut partial) {
            Ok(false) => break, // clean EOF
            Ok(true) => {
                response.clear();
                {
                    // Borrows the line unless it holds invalid UTF-8,
                    // which is replaced lossily.
                    let text = String::from_utf8_lossy(&partial);
                    let line = text.trim();
                    if !line.is_empty() {
                        service.handle_stream_line(
                            line,
                            queue_wait_ns,
                            &mut subscription,
                            &mut response,
                        );
                    }
                }
                partial.clear();
                if response.is_empty() {
                    continue; // blank keep-alive lines are fine
                }
                queue_wait_ns = 0;
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
                if subscription.is_some() != was_streaming {
                    let timeout = if subscription.is_some() {
                        STREAM_POLL
                    } else {
                        READ_TIMEOUT
                    };
                    let _ = reader.get_ref().set_read_timeout(Some(timeout));
                }
                if let Some(live) = &subscription {
                    if !pump_events(service, &mut writer, live) {
                        break;
                    }
                }
            }
            Err(ReadError::Timeout) => {
                // Streaming: the poll tick; drain events and wait on.
                // Idle request/response connection: disconnect, as the
                // 60-second timeout always has.
                match &subscription {
                    Some(live) => {
                        if !pump_events(service, &mut writer, live) {
                            break;
                        }
                    }
                    None => break,
                }
            }
            Err(ReadError::TooLong) => {
                // Framing is lost: we cannot tell where the oversized
                // line ends, so answer once and drop the connection.
                let error = WireError::new(
                    ErrorCode::LineTooLong,
                    format!("request line exceeds {max_line} bytes"),
                );
                response.clear();
                err_envelope(&mut response, None, None, &error, None);
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                break;
            }
            Err(ReadError::Io) => break,
        }
    }
}

/// Writes every buffered event frame to the client. Frames share
/// writes through one fixed-size buffer, flushed before returning.
/// Returns false when the client is gone (any write failure), which
/// ends the connection and drops the subscription.
fn pump_events(service: &PolicyService, writer: &mut TcpStream, live: &WireSubscription) -> bool {
    let mut out = BufWriter::new(writer);
    let mut frames = 0;
    for frame in live.drain_frames() {
        let line = match serde_json::to_string(&frame) {
            Ok(line) => line,
            Err(_) => continue,
        };
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .is_err()
        {
            return false;
        }
        frames += 1;
    }
    if out.flush().is_err() {
        return false;
    }
    service.metrics().event_frames_total.add(frames);
    true
}

enum ReadError {
    /// The line exceeded the cap before a newline appeared.
    TooLong,
    /// The read timed out; any bytes already read stay in the caller's
    /// accumulator, so the line resumes on the next call.
    Timeout,
    /// Reset, EOF mid-line, or any other transport failure.
    Io,
}

/// Reads one `\n`-terminated line of at most `max` bytes, without ever
/// buffering more than `max` bytes for it. Returns `true` once `line`
/// holds the whole line (without its `\n`), `false` on clean EOF at a
/// line boundary. `line` is the caller-owned accumulator, which the
/// caller clears after handling a line: bytes of an incomplete line
/// survive a [`ReadError::Timeout`] in it, so a streaming pump tick
/// never corrupts framing.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    line: &mut Vec<u8>,
) -> Result<bool, ReadError> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ReadError::Timeout)
            }
            Err(_) => return Err(ReadError::Io),
        };
        if buf.is_empty() {
            // EOF. A clean close lands exactly between lines.
            return if line.is_empty() {
                Ok(false)
            } else {
                Err(ReadError::Io)
            };
        }
        if let Some(newline) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + newline > max {
                return Err(ReadError::TooLong);
            }
            line.extend_from_slice(&buf[..newline]);
            reader.consume(newline + 1);
            return Ok(true);
        }
        if line.len() + buf.len() > max {
            return Err(ReadError::TooLong);
        }
        line.extend_from_slice(buf);
        let consumed = buf.len();
        reader.consume(consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn service_with_tenant() -> Arc<PolicyService> {
        let service = Arc::new(PolicyService::with_defaults());
        service.create_tenant("t").unwrap();
        service
    }

    #[test]
    fn round_trips_requests_in_order() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for seq in 0..16 {
            let response = client
                .request_line(&format!(r#"{{"op":"ping","seq":{seq}}}"#))
                .unwrap();
            assert!(response.contains(&format!("\"seq\":{seq}")), "{response}");
        }
        server.shutdown();
    }

    /// Each answer leaves in one write, so a raw reader gets all of it
    /// from a single `read()`, ending at the frame's only `\n`.
    #[test]
    fn each_answer_arrives_in_one_read() {
        use std::io::Read;
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 4096];
        for i in 0..200 {
            let (line, expected) = if i % 2 == 0 {
                (r#"{"op":"ping"}"#, "\"ok\":true")
            } else {
                ("this is not json", "\"malformed_request\"")
            };
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "request {i}: connection closed");
            let frame = std::str::from_utf8(&buf[..n]).unwrap();
            assert_eq!(
                frame.find('\n'),
                Some(n - 1),
                "request {i}: one read got {frame:?}"
            );
            assert!(frame.contains(expected), "request {i}: {frame}");
        }
        server.shutdown();
    }

    #[test]
    fn oversized_line_answers_and_closes() {
        let service = Arc::new(PolicyService::new(crate::ServiceConfig {
            max_line_bytes: 256,
            ..crate::ServiceConfig::default()
        }));
        let server = ServeServer::serve(service, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(512));
        let response = client.request_line(&huge).unwrap();
        assert!(response.contains("\"line_too_long\""), "{response}");
        // The connection is gone; the next request fails.
        assert!(client.request_line(r#"{"op":"ping"}"#).is_err());
        server.shutdown();
    }

    #[test]
    fn malformed_line_keeps_the_connection() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let response = client.request_line("this is not json").unwrap();
        assert!(response.contains("\"malformed_request\""), "{response}");
        let response = client.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
        server.shutdown();
    }

    /// A tenant with enough policy for decides to succeed (and
    /// therefore publish decision events).
    fn service_with_policy() -> Arc<PolicyService> {
        let service = Arc::new(PolicyService::with_defaults());
        service.create_tenant("t").unwrap();
        for line in [
            r#"{"op":"declare","tenant":"t","kind":"subject_role","name":"child"}"#,
            r#"{"op":"declare","tenant":"t","kind":"transaction","name":"use"}"#,
            r#"{"op":"declare","tenant":"t","kind":"subject","name":"bobby"}"#,
            r#"{"op":"declare","tenant":"t","kind":"object","name":"tv"}"#,
            r#"{"op":"add_rule","tenant":"t","effect":"permit","subject_role":"child","transaction":"use"}"#,
            r#"{"op":"assign","tenant":"t","kind":"subject_role","entity":"bobby","role":"child"}"#,
        ] {
            assert!(service.handle_line(line).contains("\"ok\":true"), "{line}");
        }
        service
    }

    #[test]
    fn subscription_streams_decision_events_then_unsubscribes() {
        let service = service_with_policy();
        let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let sub = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
            .unwrap();
        assert!(sub.contains("\"streaming\":true"), "{sub}");
        assert_eq!(service.active_subscriptions(), 1);

        let mut driver = Client::connect(server.local_addr()).unwrap();
        let decision = driver
            .request_line(
                r#"{"op":"decide","tenant":"t","subject":"bobby","transaction":"use","object":"tv"}"#,
            )
            .unwrap();
        assert!(decision.contains("\"effect\":\"permit\""), "{decision}");
        let status = driver
            .request_line(r#"{"op":"status","tenant":"t"}"#)
            .unwrap();
        assert!(status.contains("\"subscriptions\":1"), "{status}");

        if grbac_core::telemetry::ENABLED {
            watcher
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // The first decide also publishes the index install
            // (`delta_applied`) and possibly a sampled span; read
            // until the decision frame itself arrives.
            let mut decision_frame = None;
            for _ in 0..8 {
                let frame = watcher.next_frame().unwrap();
                assert!(frame.get("event").is_some(), "expected an event frame");
                assert_eq!(
                    frame.get("tenant").and_then(serde::Value::as_str),
                    Some("t")
                );
                let event = frame.get("event").unwrap();
                if event.get("kind").and_then(serde::Value::as_str) == Some("decision") {
                    decision_frame = Some(event.clone());
                    break;
                }
            }
            let event = decision_frame.expect("a decision event frame");
            assert_eq!(
                event.get("effect").and_then(serde::Value::as_str),
                Some("permit")
            );
        }

        let (response, _in_flight) = watcher.unsubscribe().unwrap();
        assert!(
            matches!(response.get("ok"), Some(serde::Value::Bool(true))),
            "{response:?}"
        );
        assert_eq!(service.active_subscriptions(), 0);
        // The connection is back in request/response mode.
        let pong = watcher.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        server.shutdown();
    }

    #[test]
    fn killed_subscriber_frees_its_worker_slot() {
        // One worker: if the dead subscriber's worker were not
        // reclaimed, the follow-up client could never be served.
        let service = Arc::new(PolicyService::new(crate::ServiceConfig {
            workers: 1,
            ..crate::ServiceConfig::default()
        }));
        service.create_tenant("t").unwrap();
        let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let sub = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
            .unwrap();
        assert!(sub.contains("\"streaming\":true"), "{sub}");
        assert_eq!(service.active_subscriptions(), 1);
        drop(watcher); // kill the stream mid-subscription

        // The worker notices EOF on its next poll tick, drops the
        // subscription, and picks up the queued connection.
        let mut next = Client::connect(server.local_addr()).unwrap();
        let pong = next.request_line(r#"{"op":"ping"}"#).unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert_eq!(service.active_subscriptions(), 0);
        let status = next
            .request_line(r#"{"op":"status","tenant":"t"}"#)
            .unwrap();
        assert!(status.contains("\"subscriptions\":0"), "{status}");
        server.shutdown();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let server = ServeServer::serve(service_with_tenant(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for _ in 0..32 {
                        let response = client.request_line(r#"{"op":"ping"}"#).unwrap();
                        assert!(response.contains("\"ok\":true"));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        server.shutdown();
    }
}
