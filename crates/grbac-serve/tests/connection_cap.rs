//! The connection cap on the NDJSON protocol. In its own test binary:
//! the test holds about twice `MAX_CONNECTIONS` fds (both ends of each
//! connection live in this process).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grbac_obs::net::MAX_CONNECTIONS;
use grbac_serve::{PolicyService, ServeServer};

const REFUSAL: &str = "{\"ok\":false,\"op\":null,\"error\":{\"code\":\"connection_cap\",\"message\":\"the server already holds 256 connections\"}}\n";

/// Sends a ping and reads its answer.
fn ping(stream: &TcpStream) -> String {
    let mut line = String::new();
    (&*stream).write_all(b"{\"op\":\"ping\"}\n").unwrap();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line
}

/// Connects and waits briefly for a refusal before sending anything, so
/// that a refused connection is never closed with request bytes unread.
/// `Some(stream)` when nothing arrived, that is, when the server serves it.
fn connect_served(addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match stream.read(&mut [0u8; 256]) {
        Err(err)
            if matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            Some(stream)
        }
        _ => None,
    }
}

#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    assert_eq!(MAX_CONNECTIONS, 256, "REFUSAL names the cap");
    let server =
        ServeServer::serve(Arc::new(PolicyService::with_defaults()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for stream in &open {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(ping(stream).contains("\"ok\":true"));
    }

    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut answer = String::new();
    refused.read_to_string(&mut answer).unwrap();
    assert_eq!(answer, REFUSAL, "one refusal line, then the close");

    // Its thread exits once it reads the close; until then the slot is
    // still taken.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    let stream = loop {
        if let Some(stream) = connect_served(addr) {
            break stream;
        }
        assert!(Instant::now() < deadline, "no slot freed after a close");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(ping(&stream).contains("\"ok\":true"));
    drop(open);
    server.shutdown();
}
