//! The connection cap on HTTP. In its own test binary: the test holds
//! about twice `MAX_CONNECTIONS` fds (both ends of each connection live
//! in this process).

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use grbac_core::Grbac;
use grbac_obs::net::MAX_CONNECTIONS;
use grbac_obs::{get, EngineObs, ObsServer};

#[test]
fn connections_past_the_cap_get_503_until_one_closes() {
    let engine = Arc::new(RwLock::new(Grbac::new()));
    let server = ObsServer::serve(EngineObs::new(engine), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    // Idle until the server's 5 s head timeout, far longer than this
    // test needs them.
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    // Read before sending: a request the server never reads would turn
    // its close into a reset.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut answer = String::new();
    refused.read_to_string(&mut answer).unwrap();
    assert!(
        answer.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{answer}"
    );
    assert!(answer.contains("Connection: close\r\n"), "{answer}");

    // Its thread exits once it reads the close; until then the slot is
    // still taken.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(get(addr, "/metrics"), Ok((200, _))) {
        assert!(Instant::now() < deadline, "no slot freed after a close");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(open);
    server.shutdown();
}
