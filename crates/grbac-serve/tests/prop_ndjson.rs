//! Property-based fuzzing of NDJSON request handling, with the vendored
//! proptest's deterministic per-test seeds.
//!
//! - Arbitrary text, JSON-shaped requests (real ops, known names,
//!   nested values, valid and invalid escapes and numbers, optionally
//!   truncated or byte-flipped), and truncations and byte flips of valid
//!   requests never make `handle_line` panic. Each gets exactly one
//!   answer line: a JSON object with a boolean `ok`, whose `error.code`
//!   (if any) is one of the codes `docs/service.md` documents.
//! - A decide request spelled differently — fields shuffled, extra
//!   whitespace, names `\u`-escaped — gets the same answer as its
//!   canonical spelling, decision id masked.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::Value;

use grbac_serve::{PolicyService, OPS};

const SUBJECTS: &[&str] = &["alice", "zoë", "quo\"te", "back\\slash", "家族"];
const OBJECTS: &[&str] = &["tv", "télé", "tab\tbed"];
const TRANSACTIONS: &[&str] = &["use", "watch"];
const ENV_ROLES: &[&str] = &["day", "nuit", "week end"];

/// The error codes the protocol reference documents.
fn documented_codes() -> Vec<String> {
    let doc = include_str!("../../../docs/service.md");
    let table = doc
        .split("## Error codes")
        .nth(1)
        .expect("docs/service.md has an error code table");
    table
        .lines()
        .skip_while(|line| !line.starts_with("| `"))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| line.split('`').nth(1).map(str::to_owned))
        .collect()
}

/// JSON text for `s`, with the mandatory escapes only.
fn quoted(s: &str) -> String {
    serde_json::to_string(s).unwrap()
}

fn provisioned() -> PolicyService {
    let service = PolicyService::with_defaults();
    service.create_tenant("home").unwrap();
    let mut lines = Vec::new();
    for (kind, names) in [
        ("subject", SUBJECTS),
        ("object", OBJECTS),
        ("transaction", TRANSACTIONS),
        ("environment_role", ENV_ROLES),
    ] {
        for name in names {
            lines.push(format!(
                r#"{{"op":"declare","tenant":"home","kind":"{kind}","name":{}}}"#,
                quoted(name)
            ));
        }
    }
    for role in ["kid", "adult"] {
        lines.push(format!(
            r#"{{"op":"declare","tenant":"home","kind":"subject_role","name":"{role}"}}"#
        ));
    }
    lines.push(r#"{"op":"declare","tenant":"home","kind":"object_role","name":"screens"}"#.into());
    for (i, subject) in SUBJECTS.iter().enumerate() {
        let role = if i % 2 == 0 { "kid" } else { "adult" };
        lines.push(format!(
            r#"{{"op":"assign","tenant":"home","kind":"subject_role","entity":{},"role":"{role}"}}"#,
            quoted(subject)
        ));
    }
    for object in &OBJECTS[..2] {
        lines.push(format!(
            r#"{{"op":"assign","tenant":"home","kind":"object_role","entity":{},"role":"screens"}}"#,
            quoted(object)
        ));
    }
    lines.extend([
        r#"{"op":"add_rule","tenant":"home","effect":"permit","subject_role":"kid","object_role":"screens","transaction":"use","when":["day"]}"#.to_owned(),
        r#"{"op":"add_rule","tenant":"home","effect":"deny","subject_role":"kid","transaction":"watch","when":["nuit"]}"#.to_owned(),
        r#"{"op":"add_rule","tenant":"home","effect":"permit","subject_role":"adult","transaction":"watch","when":["week end"]}"#.to_owned(),
    ]);
    for line in &lines {
        let response = service.handle_line(line);
        assert!(response.contains("\"ok\":true"), "{line} -> {response}");
    }
    service
}

/// Valid requests of every shape the mutation tests start from.
fn corpus() -> Vec<String> {
    vec![
        r#"{"op":"ping","seq":[1,-2.5e3,"x",{"a":null}]}"#.to_owned(),
        format!(
            r#"{{"op":"decide","tenant":"home","subject":{},"transaction":"use","object":{},"env":["day","week end"],"seq":7}}"#,
            quoted("zoë"),
            quoted("télé")
        ),
        r#"{"op":"decide_batch","tenant":"home","requests":[{"subject":"alice","transaction":"use","object":"tv","env":["day"]},{"subject":"quo\"te","transaction":"watch","object":"tab\tbed"}]}"#.to_owned(),
        r#"{"op":"explain","tenant":"home","subject":"back\\slash","transaction":"watch","object":"tv","env":["nuit"]}"#.to_owned(),
        r#"{"op":"add_rule","tenant":"home","effect":"deny","name":"né","subject_role":"adult","transaction":"use","when":["nuit"]}"#.to_owned(),
        r#"{"op":"declare","tenant":"home","kind":"subject","name":"newA"}"#.to_owned(),
        r#"{"op":"status","tenant":"home","trace":"0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}"#.to_owned(),
        r#"{"op":"subscribe","tenants":["home"],"kinds":["alert"],"capacity":8}"#.to_owned(),
        r#"{"op":"remove_rule","tenant":"home","rule":99}"#.to_owned(),
        r#"{"op":"metrics","tenant":"home"}"#.to_owned(),
    ]
}

/// Checks the one-answer contract; returns the parsed answer.
fn check_answer(line: &str, answer: &str, codes: &[String]) -> Result<Value, TestCaseError> {
    prop_assert!(
        !answer.contains('\n'),
        "{line:?} got more than one line: {answer:?}"
    );
    let parsed: Value = serde_json::from_str(answer)
        .map_err(|err| TestCaseError::fail(format!("{line:?} -> {answer:?}: {err}")))?;
    prop_assert!(
        matches!(parsed.get("ok"), Some(Value::Bool(_))),
        "{line:?} -> {answer} has no boolean `ok`"
    );
    if let Some(code) = parsed.get("error").and_then(|error| error.get("code")) {
        let code = code.as_str().unwrap_or("<not a string>");
        prop_assert!(
            codes.iter().any(|c| c == code),
            "{line:?} -> undocumented code {code}"
        );
    }
    Ok(parsed)
}

/// Text built from JSON's own tokens as well as arbitrary characters,
/// so the parser's deeper states are reached, not just its first byte.
fn fuzz_text() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\\u",
        "\\ud800",
        "00e9",
        " ",
        "\"op\"",
        "\"decide\"",
        "\"ping\"",
        "\"seq\"",
        "\"tenant\"",
        "\"home\"",
        "\"env\"",
        "\"trace\"",
        "null",
        "true",
        "fals",
        "-",
        "1",
        "0.5",
        "e9",
        "1e999",
        "é",
        "家",
        "🔑",
        "\t",
    ];
    prop::collection::vec(
        prop_oneof![
            (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_owned()),
            any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string()),
        ],
        0..48,
    )
    .prop_map(|parts| parts.concat())
}

/// Pieces of JSON string bodies: plain and non-ASCII text, every valid
/// escape, and invalid ones the parser must refuse.
const STRING_PIECES: &[&str] = &[
    "a", "home", "zoë", "家", " ", "\\n", "\\t", "\\\"", "\\\\", "\\/", "\\b", "\\u00e9",
    "\\u0041", "\\u+041", "\\ud800", "\\u12zz", "\\u12", "\\q", "\\", "\"",
];

/// Number-like tokens, well formed or not.
const NUMBERS: &[&str] = &[
    "0",
    "-1",
    "7",
    "0.1",
    "1.5e3",
    "2E-7",
    "1e999",
    "-9223372036854775808",
    "18446744073709551615",
    "99999999999999999999",
    "-",
    "1-2",
    "--1",
    "1.2.3",
];

/// Field names some op reads.
const KEYS: &[&str] = &[
    "tenant",
    "subject",
    "object",
    "transaction",
    "env",
    "seq",
    "trace",
    "requests",
    "kind",
    "name",
    "rule",
    "effect",
    "when",
    "capacity",
    "tenants",
    "kinds",
    "role",
    "entity",
    "specific",
    "general",
    "min_severity",
    "subject_role",
    "object_role",
];

/// The fields each op reads (every op also reads `tenant`, `seq` and
/// `trace`).
fn op_keys(op: &str) -> &'static [&'static str] {
    match op {
        "decide" | "explain" => &["subject", "transaction", "object", "env"],
        "decide_batch" => &["requests"],
        "declare" => &["kind", "name"],
        "specialize" => &["kind", "specific", "general"],
        "assign" | "revoke" => &["kind", "entity", "role"],
        "add_rule" => &[
            "effect",
            "name",
            "subject_role",
            "object_role",
            "transaction",
            "when",
        ],
        "remove_rule" => &["rule"],
        "subscribe" => &["tenants", "kinds", "min_severity", "capacity"],
        _ => &["seq", "trace"],
    }
}

/// A small deterministic generator for requests and spelling variations.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn space(&mut self) -> &'static str {
        [" ", "", "\t", "  ", ""][self.below(5)]
    }

    fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
        items[self.below(items.len())]
    }

    /// A JSON string built from random pieces.
    fn string(&mut self) -> String {
        let mut out = String::from("\"");
        for _ in 0..self.below(5) {
            out.push_str(self.pick(STRING_PIECES));
        }
        out.push('"');
        out
    }

    /// A string for field `key`: half the time a name the provisioned
    /// tenant knows for it, so lookups succeed and later checks run.
    fn name(&mut self, key: &str) -> String {
        let known: &[&str] = match key {
            "subject" | "entity" => SUBJECTS,
            "object" => OBJECTS,
            "transaction" => TRANSACTIONS,
            "env" | "when" => ENV_ROLES,
            "kind" => &["subject", "object", "subject_role", "environment_role"],
            "effect" => &["permit", "deny"],
            "role" | "subject_role" | "specific" | "general" => &["kid", "adult"],
            "object_role" => &["screens"],
            "tenants" => &["home"],
            "kinds" => &["decision", "alert"],
            "min_severity" => &["info", "critical"],
            _ => &[],
        };
        if !known.is_empty() && self.below(2) == 0 {
            quoted(self.pick(known))
        } else {
            self.string()
        }
    }

    /// A JSON value nested at most `depth` more levels.
    fn value(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 3 } else { 6 }) {
            0 => self.string(),
            1 => self.pick(NUMBERS).to_owned(),
            2 => self.pick(&["null", "true", "false", "nul"]).to_owned(),
            3 => {
                let items: Vec<String> =
                    (0..self.below(4)).map(|_| self.value(depth - 1)).collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let fields: Vec<String> = (0..self.below(4))
                    .map(|_| format!("{}:{}", self.string(), self.value(depth - 1)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// The value of field `key`: the shape the op expects four times
    /// in five (an array of names now and then holds a non-string),
    /// any value otherwise.
    fn field(&mut self, key: &str) -> String {
        if self.below(5) == 0 {
            return self.value(2);
        }
        match key {
            "env" | "when" | "tenants" | "kinds" => {
                let items: Vec<String> = (0..self.below(3))
                    .map(|_| match self.below(5) {
                        0 => self.value(0),
                        _ => self.name(key),
                    })
                    .collect();
                format!("[{}]", items.join(","))
            }
            "rule" | "capacity" | "seq" => self.pick(NUMBERS).to_owned(),
            "requests" => {
                let items: Vec<String> = (0..self.below(4))
                    .map(|_| {
                        let fields: Vec<String> = op_keys("decide")
                            .iter()
                            .map(|key| format!("{}:{}", quoted(key), self.field(key)))
                            .collect();
                        format!("{{{}}}", fields.join(","))
                    })
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => self.name(key),
        }
    }

    /// A request object: mostly a real op (never `drop_tenant`, which
    /// would take the provisioned tenant away from later cases), mostly
    /// on the provisioned tenant, with most of the fields the op reads
    /// and a few others, then at most one truncation or byte flip.
    fn request(&mut self) -> String {
        let op = match self.below(8) {
            0 => "warp",
            _ => match self.pick(OPS) {
                "drop_tenant" => "list_tenants",
                op => op,
            },
        };
        let mut fields = vec![format!("\"op\":{}", quoted(op))];
        if self.below(4) != 0 {
            fields.push(format!("\"tenant\":{}\"home\"", self.space()));
        }
        let mut keys: Vec<&str> = op_keys(op)
            .iter()
            .copied()
            .filter(|_| self.below(4) != 0)
            .collect();
        keys.extend((0..self.below(3)).map(|_| self.pick(KEYS)));
        for key in keys {
            let (before, after) = (self.space(), self.space());
            fields.push(format!(
                "{before}{}:{after}{}",
                quoted(key),
                self.field(key)
            ));
        }
        for i in (1..fields.len()).rev() {
            if self.below(3) == 0 {
                fields.swap(i, self.below(i + 1));
            }
        }
        let mut bytes = format!("{{{}}}", fields.join(",")).into_bytes();
        match self.below(4) {
            0 => bytes.truncate(self.below(bytes.len() + 1)),
            1 => {
                let at = self.below(bytes.len());
                bytes[at] ^= 1 + self.below(255) as u8;
            }
            _ => {}
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// JSON text for `s` with each escapable character `\u`-escaped at
/// random (characters outside the BMP stay raw: surrogate escapes are
/// not accepted).
fn escaped(s: &str, rng: &mut Rng) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if (c as u32) < 0x1_0000 && rng.below(2) == 0 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
    }
    out.push('"');
    out
}

fn mask_decision_id(answer: &str) -> String {
    const MARKER: &str = "\"decision_id\":\"";
    match answer.find(MARKER) {
        Some(at) => {
            let start = at + MARKER.len();
            format!("{}<id>{}", &answer[..start], &answer[start + 32..])
        }
        None => answer.to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    fn json_shaped_requests_get_one_documented_answer(seed in any::<u64>()) {
        thread_local!(static SERVICE: PolicyService = provisioned());
        let codes = documented_codes();
        let line = Rng(seed | 1).request();
        SERVICE.with(|service| check_answer(&line, &service.handle_line(&line), &codes).map(drop))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn arbitrary_text_gets_one_documented_answer(text in fuzz_text()) {
        thread_local!(static SERVICE: PolicyService = provisioned());
        let codes = documented_codes();
        SERVICE.with(|service| {
            let answer = service.handle_line(&text);
            check_answer(&text, &answer, &codes).map(drop)
        })?;
    }

    fn truncated_and_flipped_requests_get_one_documented_answer(
        pick in 0usize..64,
        cut in 0usize..4096,
        flip in 0usize..4096,
        mask in 1u8..=255,
    ) {
        thread_local!(static SERVICE: PolicyService = provisioned());
        let codes = documented_codes();
        let corpus = corpus();
        let valid = corpus[pick % corpus.len()].as_bytes();
        let truncated = String::from_utf8_lossy(&valid[..cut % (valid.len() + 1)]).into_owned();
        let mut flipped = valid.to_vec();
        flipped[flip % valid.len()] ^= mask;
        // The server replaces invalid UTF-8 the same way.
        let flipped = String::from_utf8_lossy(&flipped).into_owned();
        SERVICE.with(|service| {
            for line in [&truncated, &flipped] {
                check_answer(line, &service.handle_line(line), &codes)?;
            }
            Ok(())
        })?;
    }

    fn equivalent_spellings_get_the_same_answer(
        subject in 0..SUBJECTS.len(),
        object in 0..OBJECTS.len(),
        transaction in 0..TRANSACTIONS.len(),
        env in prop::collection::vec(0..ENV_ROLES.len(), 0..3),
        seed in any::<u64>(),
    ) {
        thread_local!(static SERVICE: PolicyService = provisioned());
        let mut rng = Rng(seed | 1);
        let env_names: Vec<&str> = env.iter().map(|&i| ENV_ROLES[i]).collect();
        let canonical = format!(
            r#"{{"op":"decide","tenant":"home","subject":{},"transaction":{},"object":{},"env":[{}]}}"#,
            quoted(SUBJECTS[subject]),
            quoted(TRANSACTIONS[transaction]),
            quoted(OBJECTS[object]),
            env_names.iter().map(|e| quoted(e)).collect::<Vec<_>>().join(","),
        );
        let mut fields = vec![
            ("op", escaped("decide", &mut rng)),
            ("tenant", escaped("home", &mut rng)),
            ("subject", escaped(SUBJECTS[subject], &mut rng)),
            ("transaction", escaped(TRANSACTIONS[transaction], &mut rng)),
            ("object", escaped(OBJECTS[object], &mut rng)),
        ];
        let env_items: Vec<String> = env_names
            .iter()
            .map(|e| format!("{}{}{}", rng.space(), escaped(e, &mut rng), rng.space()))
            .collect();
        fields.push(("env", format!("[{}]", env_items.join(","))));
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i + 1));
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| {
                format!(
                    "{}{}{}:{}{}{}",
                    rng.space(),
                    escaped(key, &mut rng),
                    rng.space(),
                    rng.space(),
                    value,
                    rng.space()
                )
            })
            .collect();
        let variant = format!("{}{{{}}}{}", rng.space(), body.join(","), rng.space());
        SERVICE.with(|service| {
            let expected = mask_decision_id(&service.handle_line(&canonical));
            prop_assert!(expected.contains("\"ok\":true"), "{canonical} -> {expected}");
            let actual = mask_decision_id(&service.handle_line(&variant));
            prop_assert_eq!(actual, expected, "{} vs {}", variant, canonical);
            Ok(())
        })?;
    }
}

/// The request generator reaches past the parser: into successful ops
/// and most error classes, not just the first malformed byte.
#[test]
fn json_shaped_requests_reach_every_layer() {
    let service = provisioned();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut ok = 0;
    let mut codes = std::collections::BTreeSet::new();
    for _ in 0..2000 {
        let answer: Value = serde_json::from_str(&service.handle_line(&rng.request())).unwrap();
        match answer
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
        {
            Some(code) => {
                codes.insert(code.to_owned());
            }
            None => ok += 1,
        }
    }
    assert!(ok > 10, "{ok} successful answers");
    for code in [
        "malformed_request",
        "unknown_op",
        "bad_request",
        "unknown_name",
    ] {
        assert!(codes.contains(code), "{code} never answered: {codes:?}");
    }
}

#[test]
fn the_documented_codes_are_the_protocol_codes() {
    let codes = documented_codes();
    assert_eq!(codes.len(), 10, "{codes:?}");
    for code in [
        grbac_serve::ErrorCode::MalformedRequest,
        grbac_serve::ErrorCode::UnknownOp,
        grbac_serve::ErrorCode::BadRequest,
        grbac_serve::ErrorCode::UnknownTenant,
        grbac_serve::ErrorCode::TenantExists,
        grbac_serve::ErrorCode::TenantCap,
        grbac_serve::ErrorCode::UnknownName,
        grbac_serve::ErrorCode::Policy,
        grbac_serve::ErrorCode::LineTooLong,
        grbac_serve::ErrorCode::ConnectionCap,
    ] {
        assert!(codes.iter().any(|c| c == code.as_str()), "{code:?}");
    }
}
