//! The NDJSON front end: the policy protocol on the connection core
//! shared with `grbac_obs::ObsServer`, holding each connection open
//! across many requests.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grbac_obs::net::{Server, MAX_CONNECTIONS};

use crate::proto::{err_envelope, ErrorCode, WireError};
use crate::service::{PolicyService, WireSubscription};

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
/// Each connection is served on a thread of its own, request by
/// request, so responses on a connection always come back in request
/// order. Up to [`MAX_CONNECTIONS`] connections are open at once; past
/// that a new connection reads one `connection_cap` error line and is
/// closed.
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
    server: Server,
}

impl ServeServer {
    /// Binds `addr` and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(service: Arc<PolicyService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let error = WireError::new(
            ErrorCode::ConnectionCap,
            format!("the server already holds {MAX_CONNECTIONS} connections"),
        );
        let mut refusal = String::new();
        err_envelope(&mut refusal, None, None, &error, None);
        refusal.push('\n');
        let server = Server::serve(addr, refusal.into_bytes(), move |stream, accepted, _| {
            serve_connection(&service, stream, accepted);
        })?;
        Ok(Self { server })
    }

    /// The bound address (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, shuts down every open connection's socket, and
    /// joins every thread. A request already being handled finishes,
    /// but its answer cannot reach a socket that is already shut down.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Serves one connection to completion: read a line, answer a line,
/// until EOF, timeout, or an unrecoverable framing error. Every answer
/// is written into one response buffer the connection reuses, and
/// leaves in one write, newline included: on a `TCP_NODELAY` socket a
/// split frame costs a second segment, and the client wakes on the
/// first one only to find no newline and block again. The wait from
/// `accepted` until this thread started is charged to the first request
/// only, as its `queue_wait` span; later requests on the connection
/// never waited for a thread.
///
/// While the connection holds a live subscription the loop switches to
/// a short-poll cadence: each [`STREAM_POLL`] read timeout drains the
/// subscription's rings into NDJSON event frames between request
/// lines. The connection stays dedicated to the stream until
/// `unsubscribe` or disconnect; either path drops the
/// [`WireSubscription`], freeing its slot.
fn serve_connection(service: &PolicyService, stream: &TcpStream, accepted: Instant) {
    let mut queue_wait_ns = accepted.elapsed().as_nanos() as u64;
    let max_line = service.config().max_line_bytes;
    service.metrics().connections_total.inc();
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = stream;
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
fn pump_events(service: &PolicyService, writer: &mut &TcpStream, live: &WireSubscription) -> bool {
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
    reader: &mut BufReader<&TcpStream>,
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
    fn killed_subscriber_drops_its_subscription() {
        let service = service_with_tenant();
        let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let sub = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
            .unwrap();
        assert!(sub.contains("\"streaming\":true"), "{sub}");
        assert_eq!(service.active_subscriptions(), 1);
        drop(watcher); // kill the stream mid-subscription

        // The connection's thread notices EOF on its next poll tick and
        // drops the subscription with the connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.active_subscriptions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(service.active_subscriptions(), 0);
        let mut next = Client::connect(server.local_addr()).unwrap();
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
