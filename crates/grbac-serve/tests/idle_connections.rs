//! Idle and streaming connections never hold up another client, and
//! never hold up shutdown: every connection has a thread of its own,
//! and shutdown closes every open socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grbac_serve::{Client, PolicyService, ServeServer};

fn server() -> (Arc<PolicyService>, ServeServer) {
    let service = Arc::new(PolicyService::with_defaults());
    service.create_tenant("t").unwrap();
    let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    (service, server)
}

#[test]
fn ping_answers_while_64_idle_sockets_are_open() {
    let (_, server) = server();
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let started = Instant::now();
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(&stream)
        .read_line(&mut pong)
        .expect("a ping answered within 1 s");
    assert!(pong.contains("\"ok\":true"), "{pong}");
    assert!(started.elapsed() < Duration::from_secs(1));
    drop(idle);
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_idle_and_streaming_connections_open() {
    let (service, server) = server();
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    let mut watcher = Client::connect(server.local_addr()).unwrap();
    let sub = watcher
        .request_line(r#"{"op":"subscribe","tenants":["t"]}"#)
        .unwrap();
    assert!(sub.contains("\"streaming\":true"), "{sub}");
    // The idle socket is registered once a request on it is answered.
    idle.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut pong = String::new();
    BufReader::new(&idle).read_line(&mut pong).unwrap();
    assert!(pong.contains("\"ok\":true"), "{pong}");

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_eq!(idle.read(&mut [0u8; 64]).unwrap(), 0, "idle socket closed");
    assert_eq!(service.active_subscriptions(), 0);
}
