//! Wire-propagated request tracing: trace/span identifiers, the span
//! record, `traceparent`-style context, and a bounded concurrent
//! [`SpanStore`].
//!
//! The flight recorder answers *what was decided*; spans answer *where
//! the nanoseconds went* between a socket and the engine. A request
//! arriving at `grbac-serve` opens a **server span** (child of the
//! client's [`TraceContext`] when the request carried one, a fresh root
//! otherwise) with child spans for dispatch-queue wait, lock
//! acquisition, and the engine call; the engine child is stamped with
//! the minted [`DecisionId`], which joins spans to the
//! provenance/audit/exemplar evidence the decision left behind.
//!
//! The store keeps spans like the
//! [`FlightRecorder`](crate::provenance::FlightRecorder) keeps records,
//! sharded: writers pin to a shard by thread, and each shard is one
//! locked [`BoundedRing`]. A span's global sequence ticket is drawn
//! under its shard's lock. Evictions are counted exactly (`dropped`),
//! and self-initiated sampling uses the same power-of-two mask scheme
//! as the registry's latency sampler.
//!
//! Timestamps are **monotonic process nanoseconds** (see
//! [`monotonic_nanos`]): cheap, overflow-free for centuries, and
//! comparable across threads. [`unix_nanos_at`] maps them back to
//! wall-clock time for the OTLP export.
//!
//! Tracing is deliberately **not** gated by the `telemetry-off`
//! feature: context propagation is a wire-protocol contract, and a
//! client that asked for a recorded span must get one regardless of how
//! the engine's internal counters were compiled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use super::{lock, thread_id, BoundedRing};
use crate::id::DecisionId;

/// Distinct per-writer sequence counters; writer ids beyond this share
/// a counter (per-writer monotonicity still holds, the sequences just
/// interleave). Matches the flight recorder's bound.
const MAX_WRITERS: usize = 128;

/// Shard count of a [`SpanStore`] (power of two; threads pin to a
/// shard, so writers on different cores rarely share a lock).
const SHARDS: usize = 8;

/// The process-wide clock base: an `Instant` paired with the wall-clock
/// nanoseconds observed at the same moment, fixed on first use.
fn clock_base() -> &'static (Instant, u64) {
    static BASE: OnceLock<(Instant, u64)> = OnceLock::new();
    BASE.get_or_init(|| {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        (Instant::now(), unix)
    })
}

/// Monotonic nanoseconds since the process's tracing clock base (the
/// first call in the process reads as 0). Safe across threads and never
/// goes backwards.
#[must_use]
pub fn monotonic_nanos() -> u64 {
    let (instant, _) = clock_base();
    Instant::now().duration_since(*instant).as_nanos() as u64
}

/// Maps a [`monotonic_nanos`] reading to approximate wall-clock unix
/// nanoseconds (exact up to scheduling jitter at base capture), for
/// exports that need absolute time such as OTLP.
#[must_use]
pub fn unix_nanos_at(mono: u64) -> u64 {
    let (_, unix) = clock_base();
    unix.saturating_add(mono)
}

/// Spreads entropy across 64 bits (splitmix64 finalizer), used when
/// minting ids so counters drawn in the same nanosecond still differ in
/// every bit position.
const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fresh per-mint entropy: a process-global ordinal mixed with
/// wall-clock nanoseconds.
fn mint_entropy() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let ordinal = NEXT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ ordinal.rotate_left(40)
}

/// A 128-bit trace identifier, shared by every span of one distributed
/// request. Renders as (and parses from) exactly 32 lowercase hex
/// digits — the `traceparent` trace-id field. The all-zero id is
/// invalid on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    hi: u64,
    lo: u64,
}

impl TraceId {
    /// The invalid all-zero id (never minted, rejected on parse).
    pub const INVALID: TraceId = TraceId { hi: 0, lo: 0 };

    /// Builds an id from its upper and lower halves.
    #[must_use]
    pub const fn from_parts(hi: u64, lo: u64) -> Self {
        Self { hi, lo }
    }

    /// The upper 64 bits.
    #[must_use]
    pub const fn hi(self) -> u64 {
        self.hi
    }

    /// The lower 64 bits.
    #[must_use]
    pub const fn lo(self) -> u64 {
        self.lo
    }

    /// True when the id is non-zero (the wire-validity rule).
    #[must_use]
    pub const fn is_valid(self) -> bool {
        self.hi != 0 || self.lo != 0
    }

    /// Mints a fresh id: overwhelmingly unique across processes
    /// (wall-clock entropy) and guaranteed unique within one (a global
    /// ordinal is folded in). Never returns [`Self::INVALID`].
    #[must_use]
    pub fn mint() -> Self {
        let entropy = mint_entropy();
        let id = Self {
            hi: splitmix64(entropy),
            lo: splitmix64(entropy.wrapping_add(0xa076_1d64_78bd_642f)),
        };
        if id.is_valid() {
            id
        } else {
            Self { hi: 0, lo: 1 }
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::str::FromStr for TraceId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("trace id must be 32 hex digits, got `{s}`"));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        let id = Self { hi, lo };
        if id.is_valid() {
            Ok(id)
        } else {
            Err("trace id must be non-zero".to_owned())
        }
    }
}

impl Serialize for TraceId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for TraceId {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        value
            .as_str()
            .ok_or_else(|| SerdeError::expected("trace id string", value))?
            .parse()
            .map_err(SerdeError::custom)
    }
}

/// A 64-bit span identifier, unique within a trace. Renders as exactly
/// 16 lowercase hex digits — the `traceparent` parent-id field. Zero is
/// invalid on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Builds an id from its raw bits.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw bits.
    #[must_use]
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// True when the id is non-zero (the wire-validity rule).
    #[must_use]
    pub const fn is_valid(self) -> bool {
        self.0 != 0
    }

    /// Mints a fresh non-zero id.
    #[must_use]
    pub fn mint() -> Self {
        Self(splitmix64(mint_entropy()).max(1))
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for SpanId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("span id must be 16 hex digits, got `{s}`"));
        }
        let raw = u64::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        if raw == 0 {
            Err("span id must be non-zero".to_owned())
        } else {
            Ok(Self(raw))
        }
    }
}

impl Serialize for SpanId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for SpanId {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        value
            .as_str()
            .ok_or_else(|| SerdeError::expected("span id string", value))?
            .parse()
            .map_err(SerdeError::custom)
    }
}

/// `traceparent`-style propagation context: the wire form is
/// `<trace_id:32hex>-<span_id:16hex>-<flags:2hex>`, where flag bit 0 is
/// *sampled* ("record spans for this request"). This is the value of
/// the protocol's optional `trace` request field and of the `trace`
/// echo in responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of this request belongs to.
    pub trace_id: TraceId,
    /// The sender's span: the parent of the next span opened under this
    /// context.
    pub span_id: SpanId,
    /// True when the sender asked for spans to be recorded.
    pub sampled: bool,
}

impl TraceContext {
    /// Builds a sampled context (the common client case).
    #[must_use]
    pub const fn sampled(trace_id: TraceId, span_id: SpanId) -> Self {
        Self {
            trace_id,
            span_id,
            sampled: true,
        }
    }

    /// Parses the wire form. Returns `None` for anything malformed:
    /// wrong field count, wrong digit counts, non-hex, or zero ids.
    /// Unknown flag bits are ignored (forward compatibility), only bit
    /// 0 is interpreted.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let trace_id: TraceId = parts.next()?.parse().ok()?;
        let span_id: SpanId = parts.next()?.parse().ok()?;
        let flags = parts.next()?;
        if parts.next().is_some() || flags.len() != 2 {
            return None;
        }
        let flags = u8::from_str_radix(flags, 16).ok()?;
        Some(Self {
            trace_id,
            span_id,
            sampled: flags & 1 == 1,
        })
    }

    /// Renders the wire form.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}-{}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }
}

impl std::fmt::Display for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// What a span measures — the stage vocabulary of the serve → engine
/// path. The wire/JSON spelling is [`Self::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A client-side request span (minted by load generators).
    Client,
    /// The service-side span covering one whole request.
    Server,
    /// Time spent queued between the acceptor and a worker.
    Queue,
    /// Tenant-map or engine lock acquisition.
    Lock,
    /// The mediation call itself (stamped with the [`DecisionId`]).
    Engine,
    /// Anything else worth timing.
    Internal,
}

impl SpanKind {
    /// Every kind, in display order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Client,
        SpanKind::Server,
        SpanKind::Queue,
        SpanKind::Lock,
        SpanKind::Engine,
        SpanKind::Internal,
    ];

    /// The wire/JSON spelling.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Self::Client => "client",
            Self::Server => "server",
            Self::Queue => "queue",
            Self::Lock => "lock",
            Self::Engine => "engine",
            Self::Internal => "internal",
        }
    }

    /// The OTLP `SpanKind` enum value (`INTERNAL=1`, `SERVER=2`,
    /// `CLIENT=3`; the queue/lock/engine stages are internal spans).
    #[must_use]
    pub const fn otlp_kind(self) -> u64 {
        match self {
            Self::Server => 2,
            Self::Client => 3,
            Self::Queue | Self::Lock | Self::Engine | Self::Internal => 1,
        }
    }
}

impl std::str::FromStr for SpanKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SpanKind::ALL
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| format!("unknown span kind `{s}`"))
    }
}

/// A span's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanStatus {
    /// The operation succeeded (the default).
    #[default]
    Ok,
    /// The operation answered an error.
    Error,
}

impl SpanStatus {
    /// The wire/JSON spelling.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Error => "error",
        }
    }
}

/// One finished (or in-flight) timed operation within a trace.
///
/// Fields are public: spans are plain data, built by the serve layer
/// and consumed by the obs plane and benches. `seq`/`writer`/
/// `writer_seq` are assigned by [`SpanStore::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's own id.
    pub span_id: SpanId,
    /// The parent span, if any (`None` marks a trace root *as far as
    /// this store knows* — a client-propagated parent the store never
    /// saw still counts as a parent link).
    pub parent: Option<SpanId>,
    /// What the span measures.
    pub kind: SpanKind,
    /// Human-readable stage name (`decide`, `engine_lock`,
    /// `queue_wait`, …).
    pub name: String,
    /// The tenant the request addressed, when known.
    pub tenant: Option<String>,
    /// The protocol op, when known.
    pub op: Option<String>,
    /// Outcome.
    pub status: SpanStatus,
    /// The decision this span produced, for [`SpanKind::Engine`] spans
    /// on mediation ops; [`DecisionId::UNASSIGNED`] elsewhere.
    pub decision_id: DecisionId,
    /// Start, in [`monotonic_nanos`].
    pub start_ns: u64,
    /// End, in [`monotonic_nanos`] (0 while in flight).
    pub end_ns: u64,
    /// Store-wide sequence number (assigned on record; never reused).
    pub seq: u64,
    /// The writer (producer thread) that recorded this span.
    pub writer: u32,
    /// That writer's private strictly-increasing sequence number.
    pub writer_seq: u64,
}

impl Span {
    /// Opens a span: mints a span id and stamps the start time. Finish
    /// it with [`Self::finish`] before recording.
    #[must_use]
    pub fn start(
        trace_id: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        name: impl Into<String>,
    ) -> Self {
        Self {
            trace_id,
            span_id: SpanId::mint(),
            parent,
            kind,
            name: name.into(),
            tenant: None,
            op: None,
            status: SpanStatus::Ok,
            decision_id: DecisionId::UNASSIGNED,
            start_ns: monotonic_nanos(),
            end_ns: 0,
            seq: 0,
            writer: 0,
            writer_seq: 0,
        }
    }

    /// Stamps the end time (clamped to never precede the start).
    pub fn finish(&mut self) {
        self.end_ns = monotonic_nanos().max(self.start_ns);
    }

    /// Wall-clock duration (0 while in flight).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True when the store holds no parent link for this span.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The span as a flat JSON object (hex ids, stage spelling, both
    /// raw timestamps and the derived duration) — the shape `/trace`
    /// and `/traces` serve.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("trace_id".to_owned(), Value::Str(self.trace_id.to_string())),
            ("span_id".to_owned(), Value::Str(self.span_id.to_string())),
            (
                "parent_span_id".to_owned(),
                self.parent
                    .map_or(Value::Null, |p| Value::Str(p.to_string())),
            ),
            ("kind".to_owned(), Value::Str(self.kind.as_str().to_owned())),
            ("name".to_owned(), Value::Str(self.name.clone())),
            (
                "status".to_owned(),
                Value::Str(self.status.as_str().to_owned()),
            ),
            ("start_ns".to_owned(), Value::UInt(self.start_ns)),
            ("end_ns".to_owned(), Value::UInt(self.end_ns)),
            ("duration_ns".to_owned(), Value::UInt(self.duration_ns())),
        ];
        if let Some(tenant) = &self.tenant {
            fields.push(("tenant".to_owned(), Value::Str(tenant.clone())));
        }
        if let Some(op) = &self.op {
            fields.push(("op".to_owned(), Value::Str(op.clone())));
        }
        if self.decision_id.is_assigned() {
            fields.push((
                "decision_id".to_owned(),
                Value::Str(self.decision_id.to_string()),
            ));
        }
        Value::Map(fields)
    }
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        Span::to_value(self)
    }
}

/// A span with its recorded children, produced by [`assemble_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The span itself.
    pub span: Span,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// The tree as nested JSON: the span's flat object plus a
    /// `children` array.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut value = self.span.to_value();
        if let Value::Map(fields) = &mut value {
            fields.push((
                "children".to_owned(),
                Value::Seq(self.children.iter().map(SpanTree::to_value).collect()),
            ));
        }
        value
    }
}

/// Assembles flat spans into parent/child trees. Spans whose parent is
/// absent from the set (true roots, and spans whose parent was evicted
/// or lives in another process) become roots. Siblings are ordered by
/// start time, roots likewise.
#[must_use]
pub fn assemble_trace(spans: Vec<Span>) -> Vec<SpanTree> {
    fn attach(span: Span, by_parent: &mut Vec<(SpanId, Span)>) -> SpanTree {
        let id = span.span_id;
        let mut children: Vec<SpanTree> = Vec::new();
        // Drain this span's children (stable: preserves sorted order).
        let mut i = 0;
        while i < by_parent.len() {
            if by_parent[i].0 == id {
                let (_, child) = by_parent.remove(i);
                children.push(attach(child, by_parent));
            } else {
                i += 1;
            }
        }
        SpanTree { span, children }
    }

    let mut spans = spans;
    spans.sort_by_key(|span| (span.start_ns, span.seq));
    let known: std::collections::BTreeSet<SpanId> = spans.iter().map(|span| span.span_id).collect();
    let (roots, children): (Vec<Span>, Vec<Span>) = spans
        .into_iter()
        .partition(|span| span.parent.is_none_or(|parent| !known.contains(&parent)));
    let mut by_parent: Vec<(SpanId, Span)> = children
        .into_iter()
        .map(|span| (span.parent.expect("partitioned on parent"), span))
        .collect();
    let mut trees: Vec<SpanTree> = roots
        .into_iter()
        .map(|root| attach(root, &mut by_parent))
        .collect();
    // A child whose parent vanished mid-partition (impossible today,
    // defensive forever): surface it as a root rather than dropping it.
    while let Some((_, orphan)) = by_parent.pop() {
        trees.push(attach(orphan, &mut by_parent));
    }
    trees.sort_by_key(|tree| (tree.span.start_ns, tree.span.seq));
    trees
}

/// OTLP-shaped JSON for a set of spans: one `resourceSpans` entry for
/// `service_name`, one scope, hex ids, unix-nano timestamps (mapped via
/// [`unix_nanos_at`]), and tenant/op/decision-id as string attributes.
/// The shape matches what an OTLP/HTTP JSON ingester expects from a
/// `ExportTraceServiceRequest`, so the export can be piped to external
/// tooling without a collector-side translator.
#[must_use]
pub fn otlp_value(service_name: &str, spans: &[Span]) -> Value {
    fn attribute(key: &str, value: String) -> Value {
        Value::Map(vec![
            ("key".to_owned(), Value::Str(key.to_owned())),
            (
                "value".to_owned(),
                Value::Map(vec![("stringValue".to_owned(), Value::Str(value))]),
            ),
        ])
    }

    let otlp_spans: Vec<Value> = spans
        .iter()
        .map(|span| {
            let mut fields = vec![
                ("traceId".to_owned(), Value::Str(span.trace_id.to_string())),
                ("spanId".to_owned(), Value::Str(span.span_id.to_string())),
            ];
            if let Some(parent) = span.parent {
                fields.push(("parentSpanId".to_owned(), Value::Str(parent.to_string())));
            }
            fields.push(("name".to_owned(), Value::Str(span.name.clone())));
            fields.push(("kind".to_owned(), Value::UInt(span.kind.otlp_kind())));
            fields.push((
                "startTimeUnixNano".to_owned(),
                Value::Str(unix_nanos_at(span.start_ns).to_string()),
            ));
            fields.push((
                "endTimeUnixNano".to_owned(),
                Value::Str(unix_nanos_at(span.end_ns.max(span.start_ns)).to_string()),
            ));
            let mut attributes = vec![attribute("grbac.kind", span.kind.as_str().to_owned())];
            if let Some(tenant) = &span.tenant {
                attributes.push(attribute("grbac.tenant", tenant.clone()));
            }
            if let Some(op) = &span.op {
                attributes.push(attribute("grbac.op", op.clone()));
            }
            if span.decision_id.is_assigned() {
                attributes.push(attribute("grbac.decision_id", span.decision_id.to_string()));
            }
            fields.push(("attributes".to_owned(), Value::Seq(attributes)));
            fields.push((
                "status".to_owned(),
                Value::Map(vec![(
                    "code".to_owned(),
                    Value::UInt(match span.status {
                        SpanStatus::Ok => 1,
                        SpanStatus::Error => 2,
                    }),
                )]),
            ));
            Value::Map(fields)
        })
        .collect();

    Value::Map(vec![(
        "resourceSpans".to_owned(),
        Value::Seq(vec![Value::Map(vec![
            (
                "resource".to_owned(),
                Value::Map(vec![(
                    "attributes".to_owned(),
                    Value::Seq(vec![attribute("service.name", service_name.to_owned())]),
                )]),
            ),
            (
                "scopeSpans".to_owned(),
                Value::Seq(vec![Value::Map(vec![
                    (
                        "scope".to_owned(),
                        Value::Map(vec![(
                            "name".to_owned(),
                            Value::Str("grbac.telemetry.span".to_owned()),
                        )]),
                    ),
                    ("spans".to_owned(), Value::Seq(otlp_spans)),
                ])]),
            ),
        ])]),
    )])
}

/// A bounded, sharded, multi-producer store of finished [`Span`]s with
/// drop-oldest semantics, counted evictions, and a runtime sampling
/// rate.
///
/// Writers pin to a shard per thread; each shard is one locked
/// [`BoundedRing`], so many cores recording concurrently rarely share
/// a lock. Retention is per shard (`capacity / SHARDS` each), so a
/// single hot thread can evict only its own shard's history.
///
/// Two independent switches gate recording:
/// * [`set_enabled`](Self::set_enabled) — the master switch; when off,
///   nothing records (E17 measures this as "tracing off").
/// * [`set_sample_rate`](Self::set_sample_rate) — how often the *serve
///   layer self-samples* requests that carried no client context (one
///   in `rate`); client-sampled requests bypass the rate entirely.
#[derive(Debug)]
pub struct SpanStore {
    shards: Vec<Mutex<BoundedRing<Span>>>,
    next_seq: AtomicU64,
    enabled: AtomicBool,
    sample_tick: AtomicU64,
    sample_mask: AtomicU64,
    writer_seqs: Vec<AtomicU64>,
}

impl SpanStore {
    /// Default total retention across shards.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Default self-sampling rate: one request in this many records a
    /// trace when the client didn't ask (matches the latency sampler's
    /// default).
    pub const DEFAULT_SAMPLE_RATE: u64 = 8;

    /// Creates a store retaining roughly the most recent `capacity`
    /// spans (rounded up so each of the 8 internal shards gets a
    /// power-of-two ring). A capacity of zero disables recording
    /// entirely.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let shards = if capacity == 0 {
            Vec::new()
        } else {
            let per_shard = capacity.div_ceil(SHARDS).next_power_of_two();
            (0..SHARDS)
                .map(|_| Mutex::new(BoundedRing::new(per_shard)))
                .collect()
        };
        Self {
            shards,
            next_seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            sample_tick: AtomicU64::new(0),
            sample_mask: AtomicU64::new(Self::DEFAULT_SAMPLE_RATE - 1),
            writer_seqs: (0..MAX_WRITERS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Creates a store with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Total retention across shards (0 when disabled at construction).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).capacity()).sum()
    }

    /// Master recording switch. Off, [`record`](Self::record) and
    /// [`should_sample`](Self::should_sample) are no-ops; propagation
    /// (context parsing, response echo) still works — the wire contract
    /// does not depend on retention.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// True when recording is on and the store retains anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty() && self.enabled.load(Ordering::Relaxed)
    }

    /// The current self-sampling rate (1 = every request).
    #[must_use]
    pub fn sample_rate(&self) -> u64 {
        self.sample_mask.load(Ordering::Relaxed) + 1
    }

    /// Sets the self-sampling rate; rounded up to a power of two so
    /// sampling stays one fetch-add and a mask.
    pub fn set_sample_rate(&self, rate: u64) {
        let rate = rate.max(1).next_power_of_two();
        self.sample_mask.store(rate - 1, Ordering::Relaxed);
    }

    /// Should the serve layer self-initiate a trace for a request that
    /// carried no client context? True for one call in
    /// [`sample_rate`](Self::sample_rate), and never when disabled.
    #[must_use]
    pub fn should_sample(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let tick = self.sample_tick.fetch_add(1, Ordering::Relaxed);
        tick & self.sample_mask.load(Ordering::Relaxed) == 0
    }

    /// Records a finished span, overwriting the oldest span in the
    /// writing thread's shard once that ring is full. The span's
    /// `seq`/`writer`/`writer_seq` fields are assigned here. Returns
    /// the span's `seq`, or `None` when recording is off.
    pub fn record(&self, mut span: Span) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let writer = thread_id();
        span.writer = writer;
        span.writer_seq =
            self.writer_seqs[writer as usize % MAX_WRITERS].fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(&self.shards[writer as usize % SHARDS]);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        span.seq = seq;
        shard.push(span);
        Some(seq)
    }

    /// Spans ever recorded (including since-evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Spans currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| lock(shard).len()).sum()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by drop-oldest so far (exact: each shard's ring
    /// counts its own evictions).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|shard| lock(shard).dropped()).sum()
    }

    /// Clones of the retained spans that pass `keep`, ordered by `seq`
    /// (oldest first); spans that fail `keep` are never cloned.
    fn collect(&self, keep: impl Fn(&Span) -> bool) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for shard in &self.shards {
            spans.extend(lock(shard).iter().filter(|span| keep(span)).cloned());
        }
        spans.sort_by_key(|span| span.seq);
        spans
    }

    /// A point-in-time copy of every retained span, ordered by `seq`
    /// (oldest first). Shards are read one at a time, so quiesce
    /// writers when exact retention windows matter.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.collect(|_| true)
    }

    /// Every retained span of `trace_id`, ordered by start time. A
    /// linear scan (operator-paced, like the recorder's `find`).
    #[must_use]
    pub fn trace(&self, trace_id: TraceId) -> Vec<Span> {
        let mut spans = self.collect(|span| span.trace_id == trace_id);
        spans.sort_by_key(|span| (span.start_ns, span.seq));
        spans
    }

    /// Retained root spans (no recorded parent), newest first —
    /// the `/traces` listing.
    #[must_use]
    pub fn roots(&self) -> Vec<Span> {
        let mut roots = self.collect(Span::is_root);
        roots.reverse();
        roots
    }
}

impl Default for SpanStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, parent: Option<SpanId>, name: &str) -> Span {
        let mut s = Span::start(trace, parent, SpanKind::Internal, name);
        s.finish();
        s
    }

    #[test]
    fn trace_id_round_trips_and_rejects_junk() {
        let id = TraceId::from_parts(0xDEAD_BEEF, 42);
        assert_eq!(id.to_string(), "00000000deadbeef000000000000002a");
        assert_eq!(id.to_string().parse::<TraceId>().unwrap(), id);
        assert!("00000000deadbeef".parse::<TraceId>().is_err()); // short
        assert!("0".repeat(32).parse::<TraceId>().is_err()); // zero
        assert!("g".repeat(32).parse::<TraceId>().is_err()); // non-hex
        assert!(TraceId::mint().is_valid());
        assert_ne!(TraceId::mint(), TraceId::mint());
    }

    #[test]
    fn span_id_round_trips_and_rejects_junk() {
        let id = SpanId::from_raw(0xb7ad_6b71_6920_3331);
        assert_eq!(id.to_string(), "b7ad6b7169203331");
        assert_eq!(id.to_string().parse::<SpanId>().unwrap(), id);
        assert!("b7ad".parse::<SpanId>().is_err());
        assert!("0000000000000000".parse::<SpanId>().is_err());
        assert!(SpanId::mint().is_valid());
    }

    #[test]
    fn context_parses_the_traceparent_shape() {
        let ctx =
            TraceContext::parse("0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").unwrap();
        assert!(ctx.sampled);
        assert_eq!(ctx.trace_id.to_string(), "0af7651916cd43dd8448eb211c80319c");
        assert_eq!(ctx.span_id.to_string(), "b7ad6b7169203331");
        assert_eq!(
            ctx.render(),
            "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
        );
        // Flag bit 0 off → unsampled; unknown bits are ignored.
        let unsampled =
            TraceContext::parse("0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00").unwrap();
        assert!(!unsampled.sampled);
        let future =
            TraceContext::parse("0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03").unwrap();
        assert!(future.sampled);
        for junk in [
            "",
            "nonsense",
            "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // no flags
            "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1", // short flags
            "0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", // trailing part
            "00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
            "0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
        ] {
            assert!(TraceContext::parse(junk).is_none(), "{junk}");
        }
    }

    #[test]
    fn store_retains_and_counts_evictions() {
        let store = SpanStore::with_capacity(8);
        // Single thread → one shard; its ring is 8/SHARDS rounded up.
        let trace = TraceId::mint();
        for _ in 0..10 {
            store.record(span(trace, None, "x"));
        }
        assert_eq!(store.total_recorded(), 10);
        assert!(store.len() <= store.capacity());
        assert_eq!(store.dropped(), 10 - store.len() as u64);
        let seqs: Vec<u64> = store.snapshot().iter().map(|s| s.seq).collect();
        // Retained seqs are the most recent ones, in order.
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seqs.last().unwrap(), 9);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let store = SpanStore::with_capacity(0);
        assert!(!store.is_enabled());
        assert_eq!(store.record(span(TraceId::mint(), None, "x")), None);
        assert!(!store.should_sample());
        assert!(store.is_empty());
        assert_eq!(store.capacity(), 0);
    }

    #[test]
    fn enabled_switch_gates_recording_at_runtime() {
        let store = SpanStore::with_capacity(64);
        store.set_enabled(false);
        assert_eq!(store.record(span(TraceId::mint(), None, "x")), None);
        assert!(!store.should_sample());
        store.set_enabled(true);
        assert!(store.record(span(TraceId::mint(), None, "x")).is_some());
    }

    #[test]
    fn sampling_fires_once_per_rate_window() {
        let store = SpanStore::with_capacity(64);
        store.set_sample_rate(4);
        assert_eq!(store.sample_rate(), 4);
        let fired = (0..16).filter(|_| store.should_sample()).count();
        assert_eq!(fired, 4);
        store.set_sample_rate(0); // clamps to 1 → always
        assert_eq!(store.sample_rate(), 1);
        assert!((0..5).all(|_| store.should_sample()));
        store.set_sample_rate(3); // rounds to 4
        assert_eq!(store.sample_rate(), 4);
    }

    #[test]
    fn trace_query_and_tree_assembly() {
        let store = SpanStore::with_capacity(64);
        let trace = TraceId::mint();
        let other = TraceId::mint();
        let mut server = Span::start(trace, None, SpanKind::Server, "decide");
        let queue = {
            let mut s = Span::start(trace, Some(server.span_id), SpanKind::Queue, "queue_wait");
            s.finish();
            s
        };
        let engine = {
            let mut s = Span::start(trace, Some(server.span_id), SpanKind::Engine, "engine");
            s.decision_id = DecisionId::from_parts(7, 1);
            s.finish();
            s
        };
        server.finish();
        store.record(queue.clone());
        store.record(engine.clone());
        store.record(server.clone());
        store.record(span(other, None, "unrelated"));

        let spans = store.trace(trace);
        assert_eq!(spans.len(), 3);
        let trees = assemble_trace(spans);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].span.span_id, server.span_id);
        assert_eq!(trees[0].children.len(), 2);
        let kinds: Vec<SpanKind> = trees[0].children.iter().map(|c| c.span.kind).collect();
        assert!(kinds.contains(&SpanKind::Queue));
        assert!(kinds.contains(&SpanKind::Engine));

        // Roots: newest first, one per recorded root.
        let roots = store.roots();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].trace_id, other);

        // JSON: decision id appears only when assigned.
        let json = serde_json::to_string(&trees[0].to_value()).unwrap();
        assert!(json.contains("\"children\""), "{json}");
        assert!(json.contains(&engine.decision_id.to_string()), "{json}");
        assert!(json.contains("\"parent_span_id\":null"), "{json}");
    }

    #[test]
    fn orphaned_children_surface_as_roots() {
        let trace = TraceId::mint();
        let missing_parent = SpanId::mint();
        let orphan = span(trace, Some(missing_parent), "orphan");
        let trees = assemble_trace(vec![orphan.clone()]);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].span.span_id, orphan.span_id);
    }

    #[test]
    fn otlp_export_is_shaped_like_an_export_request() {
        let trace = TraceId::mint();
        let mut server = Span::start(trace, None, SpanKind::Server, "decide");
        server.tenant = Some("t0".to_owned());
        server.op = Some("decide".to_owned());
        server.status = SpanStatus::Error;
        server.finish();
        let value = otlp_value("grbac-serve", &[server.clone()]);
        let json = serde_json::to_string(&value).unwrap();
        assert!(json.contains("\"resourceSpans\""), "{json}");
        assert!(json.contains("\"service.name\""), "{json}");
        assert!(json.contains(&server.trace_id.to_string()), "{json}");
        assert!(json.contains("\"startTimeUnixNano\""), "{json}");
        assert!(json.contains("\"grbac.tenant\""), "{json}");
        // Server kind = 2, error status code = 2.
        assert!(json.contains("\"kind\":2"), "{json}");
        assert!(json.contains("{\"code\":2}"), "{json}");
    }

    #[test]
    fn serde_round_trips_ids() {
        let trace = TraceId::mint();
        let json = serde_json::to_string(&trace).unwrap();
        let back: TraceId = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
        let span_id = SpanId::mint();
        let json = serde_json::to_string(&span_id).unwrap();
        let back: SpanId = serde_json::from_str(&json).unwrap();
        assert_eq!(span_id, back);
    }

    #[test]
    fn monotonic_clock_never_regresses() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
        assert!(unix_nanos_at(b) >= unix_nanos_at(a));
    }
}
