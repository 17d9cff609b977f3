//! The wire protocol: envelope shapes, error codes, and the small
//! JSON plumbing the dispatcher is built on. Requests are read from the
//! tree [`serde_json::parse`] borrows from the request line, and
//! responses are written straight into the response text.
//!
//! Framing is newline-delimited JSON ("NDJSON"): every request is one
//! JSON object on one line, every response is one JSON object on one
//! line, and responses come back in request order on the same
//! connection. The full request/response reference — with examples
//! that are executed verbatim by the conformance suite — lives in
//! `docs/service.md`.

use serde::Value;
use serde_json::{write_borrowed, write_string, BorrowedValue};

/// The protocol version reported by the `ping` op. Bump on any wire
/// change a deployed client could observe.
pub const PROTOCOL_VERSION: u64 = 1;

/// Every operation the service understands, in slot order. The index
/// of an op in this table is its dense key in the service's
/// `requests_by_op` keyed counter.
pub const OPS: &[&str] = &[
    "ping",
    "create_tenant",
    "drop_tenant",
    "list_tenants",
    "declare",
    "specialize",
    "assign",
    "revoke",
    "add_rule",
    "remove_rule",
    "decide",
    "decide_batch",
    "explain",
    "status",
    "tick",
    "metrics",
    "subscribe",
    "unsubscribe",
];

/// The slot of `op` in [`OPS`], if it names a known operation.
#[must_use]
pub fn op_slot(op: &str) -> Option<u64> {
    OPS.iter().position(|&o| o == op).map(|i| i as u64)
}

/// A machine-readable failure class. Every error response carries one
/// of these codes plus a human-readable message; the codes are part of
/// the protocol contract (documented in `docs/service.md`) and never
/// change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object, or had no string `op` field.
    MalformedRequest,
    /// The `op` value names no known operation.
    UnknownOp,
    /// A required field is missing or has the wrong type/shape.
    BadRequest,
    /// The named tenant does not exist.
    UnknownTenant,
    /// `create_tenant` for a name that is already provisioned.
    TenantExists,
    /// `create_tenant` beyond the configured tenant cap.
    TenantCap,
    /// A subject/object/transaction/role name did not resolve in the
    /// tenant's catalogs.
    UnknownName,
    /// The engine rejected the mutation or request (duplicate
    /// declaration, hierarchy cycle, SoD violation, …).
    Policy,
    /// The request line exceeded the configured maximum length. The
    /// server closes the connection after this error, because line
    /// framing can no longer be trusted.
    LineTooLong,
    /// The server already holds its maximum number of open connections
    /// (`grbac_obs::net::MAX_CONNECTIONS`). It is the only line a
    /// refused connection reads before the server closes it.
    ConnectionCap,
}

impl ErrorCode {
    /// The wire spelling of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::MalformedRequest => "malformed_request",
            Self::UnknownOp => "unknown_op",
            Self::BadRequest => "bad_request",
            Self::UnknownTenant => "unknown_tenant",
            Self::TenantExists => "tenant_exists",
            Self::TenantCap => "tenant_cap",
            Self::UnknownName => "unknown_name",
            Self::Policy => "policy",
            Self::LineTooLong => "line_too_long",
            Self::ConnectionCap => "connection_cap",
        }
    }
}

/// A protocol-level failure: code plus message, rendered into the
/// error envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail (safe to show an operator; never echoes
    /// request bodies wholesale).
    pub message: String,
}

impl WireError {
    /// Builds an error from its parts.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// Shorthand for [`WireError::new`]`(ErrorCode::BadRequest, …)`.
#[must_use]
pub fn bad_request(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadRequest, message)
}

/// Builds a JSON object from ordered pairs (the vendored `Value::Map`
/// preserves insertion order, so response field order is stable).
#[must_use]
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

/// Writes the head of a success envelope,
/// `{"ok":true,"op":…,("seq":…,)?"result":`. The caller writes the
/// result after it and closes the envelope with [`close_envelope`].
pub fn ok_envelope(out: &mut String, op: &str, seq: Option<&BorrowedValue<'_>>) {
    open_envelope(out, true, Some(op), seq);
    out.push_str(",\"result\":");
}

/// Writes a whole error envelope,
/// `{"ok":false,"op":…,("seq":…,)?"error":{"code":…,"message":…}}`,
/// with the `trace` echo before its closing brace when there is one.
/// `op` is `null` when the request never yielded one.
pub fn err_envelope(
    out: &mut String,
    op: Option<&str>,
    seq: Option<&BorrowedValue<'_>>,
    error: &WireError,
    trace: Option<&str>,
) {
    open_envelope(out, false, op, seq);
    out.push_str(",\"error\":");
    error_object(out, error.code, &error.message);
    close_envelope(out, trace);
}

/// Closes an envelope, after the `trace` echo (`"trace":…`) of a
/// client-propagated trace context.
pub fn close_envelope(out: &mut String, trace: Option<&str>) {
    if let Some(trace) = trace {
        out.push_str(",\"trace\":");
        write_string(out, trace);
    }
    out.push('}');
}

/// Writes an error body, `{"code":…,"message":…}`: the `error` of an
/// error envelope and of a failed `decide_batch` item.
pub fn error_object(out: &mut String, code: ErrorCode, message: &str) {
    out.push_str("{\"code\":\"");
    out.push_str(code.as_str());
    out.push_str("\",\"message\":");
    write_string(out, message);
    out.push('}');
}

fn open_envelope(out: &mut String, ok: bool, op: Option<&str>, seq: Option<&BorrowedValue<'_>>) {
    out.push_str(if ok {
        "{\"ok\":true,\"op\":"
    } else {
        "{\"ok\":false,\"op\":"
    });
    match op {
        Some(op) => write_string(out, op),
        None => out.push_str("null"),
    }
    if let Some(seq) = seq {
        out.push_str(",\"seq\":");
        write_borrowed(out, seq);
    }
}

/// A required string field.
pub fn str_field<'r>(request: &'r BorrowedValue<'_>, key: &str) -> Result<&'r str, WireError> {
    request
        .get(key)
        .and_then(BorrowedValue::as_str)
        .ok_or_else(|| bad_request(format!("missing or non-string field `{key}`")))
}

/// An optional string field (absent and `null` both read as `None`).
pub fn opt_str_field<'r>(
    request: &'r BorrowedValue<'_>,
    key: &str,
) -> Result<Option<&'r str>, WireError> {
    match request.get(key) {
        None | Some(BorrowedValue::Null) => Ok(None),
        Some(BorrowedValue::Str(s)) => Ok(Some(s)),
        Some(_) => Err(bad_request(format!("field `{key}` must be a string"))),
    }
}

/// A required unsigned-integer field.
pub fn u64_field(request: &BorrowedValue<'_>, key: &str) -> Result<u64, WireError> {
    match request.get(key) {
        Some(BorrowedValue::UInt(u)) => Ok(*u),
        Some(BorrowedValue::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(bad_request(format!("missing or non-integer field `{key}`"))),
    }
}

/// An optional array-of-strings field (absent and `null` read as
/// empty). Every item is checked to be a string before the first one
/// is yielded, so a bad item is reported ahead of any lookup the
/// caller makes with the good ones.
pub fn str_seq_field<'r>(
    request: &'r BorrowedValue<'_>,
    key: &str,
) -> Result<impl Iterator<Item = &'r str>, WireError> {
    let items = match request.get(key) {
        None | Some(BorrowedValue::Null) => &[],
        Some(BorrowedValue::Seq(items)) => items.as_slice(),
        Some(_) => return Err(bad_request(format!("field `{key}` must be an array"))),
    };
    if items.iter().any(|item| item.as_str().is_none()) {
        return Err(bad_request(format!("field `{key}` must contain strings")));
    }
    Ok(items.iter().filter_map(BorrowedValue::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_slots_are_dense_and_stable() {
        assert_eq!(op_slot("ping"), Some(0));
        // Slots are append-only: `metrics` keeps the slot it had before
        // the streaming ops landed, and new ops go at the end.
        assert_eq!(op_slot("metrics"), Some(15));
        assert_eq!(op_slot("unsubscribe"), Some(OPS.len() as u64 - 1));
        assert_eq!(op_slot("no_such_op"), None);
        // Slots are unique by construction; spell out the contract.
        for (i, op) in OPS.iter().enumerate() {
            assert_eq!(op_slot(op), Some(i as u64));
        }
    }

    #[test]
    fn envelopes_render_deterministically() {
        let mut ok = String::new();
        ok_envelope(&mut ok, "ping", None);
        serde_json::write_value(&mut ok, &obj(vec![("pong", Value::Bool(true))]));
        close_envelope(&mut ok, None);
        assert_eq!(ok, r#"{"ok":true,"op":"ping","result":{"pong":true}}"#);
        let seq = serde_json::parse(r#"{"n": 7, "tag": "a\"b"}"#).unwrap();
        let mut err = String::new();
        err_envelope(
            &mut err,
            Some("decide"),
            Some(&seq),
            &WireError::new(ErrorCode::UnknownTenant, "no tenant `x`"),
            Some("t-s-01"),
        );
        assert_eq!(
            err,
            r#"{"ok":false,"op":"decide","seq":{"n":7,"tag":"a\"b"},"error":{"code":"unknown_tenant","message":"no tenant `x`"},"trace":"t-s-01"}"#
        );
    }

    #[test]
    fn field_helpers_enforce_shapes() {
        let request = serde_json::parse(r#"{"a":"x","n":3,"env":["e1","e2"],"bad":[1]}"#).unwrap();
        assert_eq!(str_field(&request, "a").unwrap(), "x");
        assert!(str_field(&request, "n").is_err());
        assert_eq!(u64_field(&request, "n").unwrap(), 3);
        let env: Vec<&str> = str_seq_field(&request, "env").unwrap().collect();
        assert_eq!(env, vec!["e1", "e2"]);
        assert_eq!(str_seq_field(&request, "absent").unwrap().count(), 0);
        assert!(str_seq_field(&request, "bad").is_err());
        assert!(str_seq_field(&request, "a").is_err());
        assert_eq!(opt_str_field(&request, "absent").unwrap(), None);
        assert!(opt_str_field(&request, "n").is_err());
    }
}
