//! Fuzzing of the HTTP request head: token-built and byte-mutated heads
//! (methods, targets with and without `?`, header floods around the
//! 8 KiB cap, NULs, invalid UTF-8, missing CRLFs) driven through
//! [`parse_request`] in-process, then a few hundred of them end to end
//! against a live [`ObsServer`].

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use grbac_core::telemetry::SpanStore;
use grbac_core::Grbac;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use super::{parse_request, EngineObs, HeadError, ObsServer, MAX_HEAD_BYTES};

const CAP: usize = MAX_HEAD_BYTES as usize;

fn bytes(text: &str) -> BoxedStrategy<Vec<u8>> {
    Just(text.as_bytes().to_vec()).boxed()
}

fn method() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        6 => bytes("GET"),
        1 => bytes("POST"),
        1 => bytes("HEAD"),
        1 => bytes("get"),
        1 => bytes(""),
        1 => bytes("G\0T"),
        1 => vec(any::<u8>(), 0..8).boxed(),
    ]
}

fn target() -> impl Strategy<Value = Vec<u8>> {
    let path = prop_oneof![
        bytes("/metrics"),
        bytes("/metrics.json"),
        bytes("/health"),
        bytes("/heat"),
        bytes("/alerts"),
        bytes("/traces"),
        bytes("/traces.json"),
        bytes("/timeseries"),
        bytes("/dashboard"),
        bytes("/events"),
        bytes("/decision/0000000000000001000000000000002a"),
        bytes("/decision/zz"),
        bytes("/trace/0af7651916cd43dd8448eb211c80319c"),
        bytes("/trace/"),
        bytes("/nope"),
        bytes("*"),
        bytes(""),
        bytes("/\u{e9}t\u{e9}"),
        bytes("/\0"),
    ];
    let query = prop_oneof![
        bytes("limit=3"),
        bytes("limit=x"),
        bytes("tenant=a&op=decide"),
        bytes("min_duration_us=5"),
        bytes("min_duration_us=-1"),
        bytes("windows=0"),
        bytes("series=nope"),
        bytes("since=7"),
        bytes("&&=="),
        bytes(""),
        vec(any::<u8>(), 0..16).boxed(),
    ];
    (path, proptest::option::of(query)).prop_map(|(mut path, query)| {
        if let Some(query) = query {
            path.push(b'?');
            path.extend(query);
        }
        path
    })
}

fn header() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => bytes("Host: grbac-obs"),
        2 => bytes("Last-Event-ID: 12"),
        1 => bytes("Last-Event-ID: \u{ff}"),
        1 => bytes("no colon here"),
        1 => bytes(":"),
        1 => bytes("X-Nul: \0\0"),
        1 => Just(b"X-Bytes: \xff\xfe\x80".to_vec()).boxed(),
        2 => (0usize..64).prop_map(|n| format!("X-Pad: {}", "a".repeat(n)).into_bytes()).boxed(),
        // Floods that straddle the 8 KiB cap.
        2 => (CAP - 160..CAP + 40)
            .prop_map(|n| format!("X-Pad: {}", "a".repeat(n)).into_bytes())
            .boxed(),
        1 => vec(any::<u8>(), 0..24).boxed(),
    ]
}

/// A head built from tokens: request line, headers, and (usually) the
/// blank line, each line ended by CRLF, a bare LF, or nothing at all.
fn built_head() -> impl Strategy<Value = Vec<u8>> {
    let eol = prop_oneof![6 => bytes("\r\n"), 1 => bytes("\n"), 1 => bytes("")];
    (
        method(),
        target(),
        prop_oneof![bytes(" HTTP/1.1"), bytes(" HTTP/1.0"), bytes("")],
        vec(header(), 0..5),
        eol,
        prop_oneof![5 => Just(true), 1 => Just(false)],
    )
        .prop_map(|(method, target, version, headers, eol, terminated)| {
            let mut head = method;
            head.push(b' ');
            head.extend(target);
            head.extend(version);
            head.extend(&eol);
            for header in headers {
                head.extend(header);
                head.extend(&eol);
            }
            if terminated {
                head.extend(&eol);
            }
            head
        })
}

/// A built head with a few bytes flipped, inserted or deleted.
fn head() -> impl Strategy<Value = Vec<u8>> {
    let mutation = (0u8..3, any::<usize>(), any::<u8>());
    (built_head(), vec(mutation, 0..4)).prop_map(|(mut head, mutations)| {
        for (kind, at, byte) in mutations {
            let at = at % (head.len() + 1);
            match kind {
                0 if at < head.len() => head[at] ^= byte | 1,
                1 => head.insert(at, byte),
                _ if at < head.len() => {
                    head.remove(at);
                }
                _ => {}
            }
        }
        head
    })
}

/// True when the server must refuse `input` as too large: its head
/// (the request line, then header lines through the first blank one)
/// runs past the cap, or reaches the cap without that blank line — the
/// server cannot tell whether more is coming.
fn too_large(input: &[u8]) -> bool {
    let mut lines = input.split_inclusive(|&byte| byte == b'\n');
    let mut len = lines.next().map_or(0, <[u8]>::len);
    for line in lines {
        len += line.len();
        if line == b"\r\n" || line == b"\n" {
            return len > CAP;
        }
    }
    len >= CAP
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// No head panics the parser; a head past the cap is `TooLarge`
    /// whatever it holds, and one that ends inside the cap never is.
    /// Inside the cap, empty input is no request, a request line that
    /// is not UTF-8 is `Io`, and anything else parses, method first.
    fn parse_request_accepts_any_bytes(input in head()) {
        let outcome = parse_request(&input[..]);
        let refused = matches!(outcome, Err(HeadError::TooLarge));
        prop_assert_eq!(refused, too_large(&input), "{} input bytes", input.len());
        if !refused {
            let request_line = input.split_inclusive(|&byte| byte == b'\n').next();
            match (request_line.map(std::str::from_utf8), outcome) {
                (None, Ok(None)) | (Some(Err(_)), Err(HeadError::Io)) => {}
                (Some(Ok(line)), Ok(Some(request))) => {
                    prop_assert_eq!(
                        request.method.as_str(),
                        line.split_whitespace().next().unwrap_or_default()
                    );
                }
                (line, _) => {
                    return Err(TestCaseError::fail(format!("unexpected outcome for {line:?}")));
                }
            }
        }
    }
}

fn engine() -> Arc<RwLock<Grbac>> {
    Arc::new(RwLock::new(Grbac::new()))
}

/// Sends `input`, half-closes so an incomplete head meets EOF instead
/// of the server's read timeout, and returns every byte of the answer.
fn exchange(addr: SocketAddr, input: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may answer and hang up before reading every byte.
    let _ = stream.write_all(input);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            // Closing with unread request bytes resets the connection.
            Err(err) if err.kind() == ErrorKind::ConnectionReset => break,
            Err(err) => panic!("reading the answer: {err}"),
        }
    }
    raw
}

/// The status of the one complete response in `raw`, or `None` when
/// the server closed without answering.
fn one_answer(raw: &[u8]) -> Option<u16> {
    if raw.is_empty() {
        return None;
    }
    let text = std::str::from_utf8(raw).expect("answers are UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("a complete head");
    let status = head.split(' ').nth(1).and_then(|code| code.parse().ok());
    let length = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|length| length.parse::<usize>().ok());
    assert_eq!(length, Some(body.len()), "one whole body: {text:?}");
    status
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// A few hundred fuzzed heads against one live server: each gets
    /// one answer with an expected status, or a close without an
    /// answer, and the server still serves `/metrics` afterwards.
    fn live_server_answers_every_fuzzed_head(inputs in vec(head(), 300)) {
        let obs = EngineObs::new(engine()).with_spans(Arc::new(SpanStore::new()));
        let server = ObsServer::serve(obs, "127.0.0.1:0").unwrap();
        for input in &inputs {
            let answer = one_answer(&exchange(server.addr(), input));
            if too_large(input) {
                prop_assert_eq!(answer, Some(431), "{} input bytes", input.len());
            } else {
                prop_assert!(
                    answer.is_none_or(|status| [200, 400, 404, 405].contains(&status)),
                    "{:?} for {:?}",
                    answer,
                    String::from_utf8_lossy(input)
                );
            }
        }
        let (status, _) = super::get(server.addr(), "/metrics").unwrap();
        prop_assert_eq!(status, 200);
        server.shutdown();
    }
}
