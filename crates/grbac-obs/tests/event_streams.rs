//! Open `/events` streams and idle sockets never hold up a scrape, and
//! never hold up shutdown: every connection has a thread of its own,
//! and stopping the server closes every open socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use grbac_core::Grbac;
use grbac_obs::{get, EngineObs, ObsServer};

fn live_server() -> ObsServer {
    let engine = Arc::new(RwLock::new(Grbac::new()));
    ObsServer::serve(EngineObs::new(engine).with_live_telemetry(), "127.0.0.1:0").unwrap()
}

/// Opens `/events` and reads until the stream's response head is in.
fn open_stream(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
        .write_all(b"GET /events HTTP/1.1\r\nHost: grbac-obs\r\n\r\n")
        .unwrap();
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut buf).expect("the stream's head within 2 s");
        assert!(n > 0, "stream closed before its head");
        head.extend_from_slice(&buf[..n]);
    }
    assert!(head.starts_with(b"HTTP/1.1 200 OK\r\n"));
    stream
}

/// Reads until the server closes `stream`, failing after `within`.
fn assert_closed_within(mut stream: TcpStream, within: Duration) {
    stream.set_read_timeout(Some(within)).unwrap();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(err) => panic!("stream still open after {within:?}: {err}"),
        }
    }
}

#[test]
fn metrics_answers_while_four_event_streams_are_open() {
    let server = live_server();
    let streams: Vec<TcpStream> = (0..4).map(|_| open_stream(server.addr())).collect();
    let started = Instant::now();
    let (status, body) = get(server.addr(), "/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(started.elapsed() < Duration::from_secs(1));
    drop(streams);
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_an_idle_socket_and_a_stream_open() {
    let server = live_server();
    let idle = TcpStream::connect(server.addr()).unwrap();
    let stream = open_stream(server.addr());
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_closed_within(idle, Duration::from_secs(1));
    assert_closed_within(stream, Duration::from_secs(1));
}

#[test]
fn dropping_the_server_ends_open_streams() {
    let server = live_server();
    let stream = open_stream(server.addr());
    drop(server);
    assert_closed_within(stream, Duration::from_secs(1));
}
