//! A byte-exact wire transcript. Every request below goes to a live
//! server over one TCP connection, and the transcript of requests and
//! answers must equal `tests/golden/wire_transcript.txt` byte for byte.
//! Only values the server mints are masked: decision ids, server span
//! ids in `trace` echoes, and the readings of the `metrics` op (its
//! sample lines).
//!
//! The conformance suite compares answers structurally and ignores
//! field order; this test pins field order, number formatting, string
//! escapes and every error message. Regenerate the golden file after
//! an intentional wire change with
//! `UPDATE_GOLDEN=1 cargo test -p grbac-serve --test wire_transcript`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use grbac_serve::{PolicyService, ServeServer, ServiceConfig};

const GOLDEN: &str = "tests/golden/wire_transcript.txt";

/// A client-propagated trace context (sampled, then unsampled).
const TRACE: &str = "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331";

/// The request lines, in order. A blank line gets no answer.
fn requests() -> Vec<Vec<u8>> {
    let traced_decide = format!(
        r#"{{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"],"trace":"{TRACE}-01"}}"#
    );
    let traced_error = format!(
        r#"{{"op":"decide","tenant":"home","subject":"ghost","transaction":"use","object":"tv","seq":3,"trace":"{TRACE}-01"}}"#
    );
    let unsampled = format!(r#"{{"op":"ping","trace":"{TRACE}-00"}}"#);
    let traced_unknown_op = format!(r#"{{"op":"warp","trace":"{TRACE}-01"}}"#);
    let text: Vec<&str> = vec![
        // Liveness, and a `seq` of every JSON type.
        r#"{"op":"ping"}"#,
        r#"{"op":"ping","seq":0}"#,
        r#"{"op":"ping","seq":-9223372036854775808}"#,
        r#"{"op":"ping","seq":18446744073709551615}"#,
        r#"{"op":"ping","seq":99999999999999999999}"#,
        r#"{"op":"ping","seq":-1.25e-3}"#,
        r#"{"op":"ping","seq":1E3}"#,
        r#"{"op":"ping","seq":1e999}"#,
        r#"{"op":"ping","seq":0.1}"#,
        r#"{"op":"ping","seq":"tab\there \"q\" \\ \/ \u00e9\u2603 é \b\f\r\n\u0001"}"#,
        r#"{ "op" : "ping" , "seq" : { "a" : [ 1 , -2 , 3.5 , true , false , null , { "b" : "c" } ] , "d" : { } , "e" : [ ] } }"#,
        r#"{"op":"ping","seq":null}"#,
        r#"{"op":"ping","seq":true}"#,
        // Duplicate keys: the first one wins.
        r#"{"op":"ping","op":"decide","seq":1,"seq":2}"#,
        "",
        "   ",
        r#"{"op":"ping","seq":"after blank lines"}"#,
        // Tenant lifecycle, up to the cap of three.
        r#"{"op":"list_tenants"}"#,
        r#"{"op":"create_tenant","tenant":"home","seq":1}"#,
        r#"{"op":"create_tenant","tenant":"work"}"#,
        r#"{"op":"create_tenant","tenant":"home"}"#,
        r#"{"op":"create_tenant","tenant":"bad name!"}"#,
        r#"{"op":"create_tenant","tenant":"third"}"#,
        r#"{"op":"create_tenant","tenant":"fourth"}"#,
        r#"{"op":"create_tenant"}"#,
        r#"{"op":"drop_tenant","tenant":"third"}"#,
        r#"{"op":"drop_tenant","tenant":"ghost"}"#,
        r#"{"op":"list_tenants","seq":"lt"}"#,
        // Catalogs, including names with escapes and non-ASCII text.
        r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"child"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"toddler"}"#,
        r#"{"op":"declare","tenant":"home","kind":"object_role","name":"toys"}"#,
        r#"{"op":"declare","tenant":"home","kind":"environment_role","name":"daytime"}"#,
        r#"{"op":"declare","tenant":"home","kind":"transaction","name":"use"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject","name":"bobby"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject","name":"zoë \"z\" \\ 家"}"#,
        r#"{"op":"declare","tenant":"home","kind":"object","name":"tv"}"#,
        r#"{"op":"declare","tenant":"home","kind":"object","name":"télé\ttab"}"#,
        r#"{"op":"declare","tenant":"home","kind":"warp","name":"x"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"child"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject_role"}"#,
        r#"{"op":"declare","tenant":"home","kind":"subject_role","name":7}"#,
        r#"{"op":"specialize","tenant":"home","kind":"subject_role","specific":"toddler","general":"child"}"#,
        r#"{"op":"specialize","tenant":"home","kind":"subject_role","specific":"toddler","general":"ghost"}"#,
        r#"{"op":"specialize","tenant":"home","kind":"warp_role","specific":"a","general":"b"}"#,
        r#"{"op":"assign","tenant":"home","kind":"subject_role","entity":"bobby","role":"child"}"#,
        r#"{"op":"assign","tenant":"home","kind":"subject_role","entity":"zo\u00eb \"z\" \\ \u5bb6","role":"toddler"}"#,
        r#"{"op":"assign","tenant":"home","kind":"object_role","entity":"tv","role":"toys"}"#,
        r#"{"op":"assign","tenant":"home","kind":"object_role","entity":"télé\ttab","role":"toys"}"#,
        r#"{"op":"assign","tenant":"home","kind":"object_role","entity":"radio","role":"toys"}"#,
        r#"{"op":"assign","tenant":"home","kind":"environment_role","entity":"tv","role":"toys"}"#,
        r#"{"op":"revoke","tenant":"home","kind":"subject_role","entity":"bobby","role":"toddler"}"#,
        // Rules.
        r#"{"op":"add_rule","tenant":"home","effect":"permit","name":"kids \"tv\"","subject_role":"child","object_role":"toys","transaction":"use","when":["daytime"]}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"deny","name":"night é","subject_role":"toddler","transaction":"use"}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"permit","transaction":"use","when":[]}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"maybe","transaction":"use"}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"permit","transaction":"use","when":[5]}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"permit","transaction":"use","when":"daytime"}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"permit","transaction":"fly"}"#,
        r#"{"op":"add_rule","tenant":"home","effect":"permit","transaction":"use","name":3}"#,
        r#"{"op":"remove_rule","tenant":"home","rule":2}"#,
        r#"{"op":"remove_rule","tenant":"home","rule":2}"#,
        r#"{"op":"remove_rule","tenant":"home","rule":-1}"#,
        r#"{"op":"remove_rule","tenant":"home","rule":"2"}"#,
        // Mediation.
        r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv"}"#,
        r#"{"seq":[1,"two"],"object":"télé\ttab","env":["daytime"],"transaction":"use","subject":"zoë \"z\" \\ 家","tenant":"home","op":"decide"}"#,
        r#"{"op":"decide","tenant":"home","subject":"ghost","transaction":"use","object":"tv"}"#,
        r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use"}"#,
        r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["night"]}"#,
        r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":[1]}"#,
        r#"{"op":"decide","tenant":"ghost","subject":"a","transaction":"b","object":"c"}"#,
        r#"{"op":"decide","subject":"a","transaction":"b","object":"c"}"#,
        r#"{"op":"decide_batch","tenant":"home","seq":9,"requests":[{"subject":"bobby","transaction":"use","object":"tv","env":["daytime"]},{"subject":"nobody","transaction":"use","object":"tv"},{"subject":"bobby","transaction":"use"},5,{"subject":"bobby","transaction":"use","object":"tv","env":[null]},{"subject":"bobby","transaction":"use","object":"tv"}]}"#,
        r#"{"op":"decide_batch","tenant":"home","requests":[]}"#,
        r#"{"op":"decide_batch","tenant":"home","requests":{"subject":"bobby"}}"#,
        r#"{"op":"explain","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        r#"{"op":"explain","tenant":"home","subject":"zoë \"z\" \\ 家","transaction":"use","object":"tv"}"#,
        r#"{"op":"explain","tenant":"home","subject":"ghost","transaction":"use","object":"tv"}"#,
        // Tenant state.
        r#"{"op":"status","tenant":"home"}"#,
        r#"{"op":"status","tenant":"work","seq":"s"}"#,
        r#"{"op":"tick","tenant":"work"}"#,
        r#"{"op":"tick","tenant":"work"}"#,
        r#"{"op":"status","tenant":"work"}"#,
        r#"{"op":"metrics","tenant":"work"}"#,
        r#"{"op":"metrics","tenant":"ghost"}"#,
        r#"{"op":"metrics"}"#,
        // Trace propagation: sampled contexts are echoed with the
        // server's span id, on errors too; unsampled ones are not.
        &traced_decide,
        &traced_error,
        &unsampled,
        &traced_unknown_op,
        r#"{"op":"ping","trace":"zzz"}"#,
        r#"{"op":"ping","trace":"00000000000000000000000000000000-0000000000000000-01"}"#,
        r#"{"op":"ping","trace":5}"#,
        // Streaming: a subscription that matches nothing, then back.
        r#"{"op":"subscribe","tenants":["ghost"]}"#,
        r#"{"op":"subscribe","tenants":["work"],"kinds":["warp"]}"#,
        r#"{"op":"subscribe","tenants":["work"],"min_severity":"loud"}"#,
        r#"{"op":"subscribe","tenants":["work"],"capacity":"big"}"#,
        r#"{"op":"subscribe","tenants":["work"],"kinds":["alert"],"min_severity":"critical","capacity":4}"#,
        r#"{"op":"subscribe","tenants":["work"]}"#,
        r#"{"op":"unsubscribe","seq":"u"}"#,
        r#"{"op":"unsubscribe"}"#,
        // Malformed lines.
        "not json",
        "[1,2]",
        "\"op\"",
        r#"{"op":5}"#,
        r#"{"seq":3}"#,
        r#"{"op":"warp","seq":"x"}"#,
        r#"{"op":"ping"} trailing"#,
        r#"{"op":"ping",}"#,
        r#"{"op":"pi"#,
        r#"{"op":"ping","s":"\q"}"#,
        r#"{"op":"ping","s":"\u12"}"#,
        r#"{"op":"ping","s":"\u12zz"}"#,
        r#"{"op":"ping","seq":"😀"}"#,
        r#"{"op":"ping","s":"\ud83d\ude00"}"#,
        r#"{"op":"ping","n":-}"#,
        r#"{"op":"ping","n":1-2}"#,
        r#"{"op":"ping","n":tru}"#,
        r#"{"op":"ping" "seq":1}"#,
        r#"{"op":"ping","seq":[1 2]}"#,
        r#"{"op":"ping","s":"unterminated"#,
        r#"{"op":"ping","s":"esc\"#,
    ];
    let mut lines: Vec<Vec<u8>> = text.iter().map(|line| line.as_bytes().to_vec()).collect();
    // Raw bytes no `&str` can hold: invalid UTF-8 (replaced lossily by
    // the server) and a raw control character inside a string.
    lines.push(b"{\"op\":\"ping\",\"seq\":\"\xff\xfe ok\"}".to_vec());
    lines.push(b"{\"op\":\"ping\",\"seq\":\"a\x01b\x1fc\x7fd\"}".to_vec());
    lines.push(b"{\"op\":\"ping\",\"seq\":\"\xe5\xae".to_vec());
    lines
}

/// Replaces `len` characters after each `marker` with `mask`.
fn mask_after(text: &str, marker: &str, skip: usize, len: usize, mask: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(marker) {
        let start = at + marker.len() + skip;
        out.push_str(&rest[..start]);
        out.push_str(mask);
        rest = &rest[start + len..];
    }
    out.push_str(rest);
    out
}

/// Masks the readings of the Prometheus text in an `exposition` field:
/// every sample line goes, and the `# HELP` and `# TYPE` lines stay.
/// Which series have samples at all is a reading too: it differs with
/// the `telemetry-off` feature, which CI also tests under.
fn mask_readings(text: &str) -> String {
    const MARKER: &str = "\"exposition\":\"";
    let Some(at) = text.find(MARKER) else {
        return text.to_owned();
    };
    let body_start = at + MARKER.len();
    let bytes = text.as_bytes();
    let mut end = body_start;
    while bytes[end] != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    let kept: Vec<&str> = text[body_start..end]
        .split("\\n")
        .filter(|line| line.starts_with('#'))
        .collect();
    format!(
        "{}{}\\n<samples>{}",
        &text[..body_start],
        kept.join("\\n"),
        &text[end..]
    )
}

fn mask(response: &str) -> String {
    let masked = mask_after(response, "\"decision_id\":\"", 0, 32, "<id>");
    let masked = mask_after(&masked, "\"trace\":\"", 33, 16, "<span>");
    mask_readings(&masked)
}

fn transcript() -> String {
    let service = Arc::new(PolicyService::new(ServiceConfig {
        max_tenants: 3,
        max_line_bytes: 2048,
    }));
    let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = String::new();
    let mut answer = Vec::new();
    for line in requests() {
        out.push_str("> ");
        out.push_str(&String::from_utf8_lossy(&line));
        out.push('\n');
        stream.write_all(&[&line[..], b"\n"].concat()).unwrap();
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        answer.clear();
        reader.read_until(b'\n', &mut answer).unwrap();
        let text = std::str::from_utf8(&answer).expect("answers are UTF-8");
        assert!(
            text.ends_with('\n'),
            "answer to {line:?} is one line: {text:?}"
        );
        out.push_str("< ");
        out.push_str(&mask(text));
    }
    // An overlong line is answered once, then the connection closes.
    let long = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(4096));
    out.push_str(&format!(
        "> {{\"op\":\"ping\",\"pad\":\"x…\"}} ({} bytes)\n",
        long.len()
    ));
    stream.write_all(format!("{long}\n").as_bytes()).unwrap();
    answer.clear();
    reader.read_until(b'\n', &mut answer).unwrap();
    out.push_str("< ");
    out.push_str(std::str::from_utf8(&answer).unwrap());
    answer.clear();
    let closed = reader
        .read_until(b'\n', &mut answer)
        .map_or(true, |n| n == 0);
    out.push_str(if closed {
        "(closed)\n"
    } else {
        "(still open)\n"
    });
    server.shutdown();
    out
}

#[test]
fn wire_transcript_is_byte_exact() {
    let actual = transcript();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden transcript present");
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "transcript line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "transcript length differs"
    );
    assert_eq!(actual, expected);
}

/// One line of 10,000 `[`s — 10 KB, far under the line cap — is
/// answered like any other bad JSON, and the connection stays open:
/// the parser's nesting cap keeps the connection thread's stack intact.
#[test]
fn deeply_nested_line_is_malformed_and_the_connection_survives() {
    let service = Arc::new(PolicyService::with_defaults());
    let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut answer = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut text = String::new();
        reader.read_line(&mut text).unwrap();
        text
    };
    assert_eq!(
        answer(&"[".repeat(10_000)),
        concat!(
            r#"{"ok":false,"op":null,"error":{"code":"malformed_request","#,
            r#""message":"invalid JSON: Error { message: \"nesting deeper than 128 levels at offset 128\" }"}}"#,
            "\n"
        )
    );
    assert_eq!(
        answer(r#"{"op":"ping"}"#),
        concat!(
            r#"{"ok":true,"op":"ping","result":{"protocol":1,"server":"grbac-serve","tenants":0}}"#,
            "\n"
        )
    );
    server.shutdown();
}
