//! The multi-tenant policy service: tenant registry, op dispatch, and
//! service-level telemetry.
//!
//! Each tenant owns a fully isolated [`Grbac`] engine behind its own
//! `Arc<RwLock>` — the same shared-state shape `grbac-obs` serves —
//! so policy churn on one tenant contends only on that tenant's lock
//! and never stalls decides on another. The tenant map itself is a
//! second `RwLock` taken only long enough to clone the tenant's
//! handles out (reads) or to provision/drop a tenant (writes).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use grbac_core::telemetry::{
    Counter, DecisionWatchdog, EventBus, EventData, EventFilter, EventKind, EventSubscription,
    KeyedCounter, PrometheusExporter, Severity, Span, SpanId, SpanKind, SpanStatus, SpanStore,
    TelemetryEvent, TraceContext, TraceId, WatchdogConfig,
};
use grbac_core::{
    AccessRequest, Decision, DecisionId, Effect, EnvironmentSnapshot, Grbac, RoleKind, RuleDef,
};
use serde::Value;
use serde_json::{write_string, BorrowedValue};

use crate::proto::{
    bad_request, close_envelope, err_envelope, error_object, obj, ok_envelope, op_slot,
    opt_str_field, str_field, str_seq_field, u64_field, ErrorCode, WireError, OPS,
    PROTOCOL_VERSION,
};

/// Initial capacity of a response [`PolicyService::handle_line`]
/// returns: a decide answer fits, so its buffer never regrows.
const RESPONSE_CAPACITY: usize = 256;

/// Service-wide limits and defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of concurrently provisioned tenants; must stay
    /// within the telemetry label-cardinality cap so every tenant gets
    /// its own label slot (see `docs/operations.md`).
    pub max_tenants: usize,
    /// Maximum request-line length in bytes; overlong lines answer
    /// `line_too_long` and close the connection.
    pub max_line_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_tenants: 64,
            max_line_bytes: 1 << 20,
        }
    }
}

/// One tenant's shared handles: the engine and its watchdog slot —
/// exactly the pair [`grbac_obs::EngineObs::with_watchdog`] serves, so
/// any tenant can be put on the observability plane without copying.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Dense per-service tenant index (the key in the tenant-labelled
    /// keyed counters).
    id: u64,
    /// The tenant's isolated policy engine.
    pub engine: Arc<RwLock<Grbac>>,
    /// The tenant's watchdog slot (`tick` installs a default-config
    /// watchdog on first use; `/health` scrapes share it).
    pub watchdog: Arc<Mutex<Option<DecisionWatchdog>>>,
}

impl Tenant {
    fn new(id: u64, engine: Grbac) -> Self {
        Self {
            id,
            engine: Arc::new(RwLock::new(engine)),
            watchdog: Arc::new(Mutex::new(None)),
        }
    }
}

/// Service-level telemetry, kept with the same primitives as the
/// engine registry. The tenant-keyed families are bounded by the
/// keyed-counter cardinality cap, so a runaway tenant-provisioning
/// loop folds into the `other` bucket instead of growing label sets
/// without limit.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Connections accepted.
    pub connections_total: Counter,
    /// Request lines handled (ok or error).
    pub requests_total: Counter,
    /// Requests answered with an error envelope.
    pub protocol_errors_total: Counter,
    /// Requests by operation (slot = index in [`OPS`]).
    pub requests_by_op: KeyedCounter,
    /// Mediation requests (`decide`, `decide_batch` items, `explain`)
    /// by tenant slot.
    pub decides_by_tenant: KeyedCounter,
    /// Policy mutations (declare/specialize/assign/revoke/rule edits)
    /// by tenant slot.
    pub mutations_by_tenant: KeyedCounter,
    /// Wire subscriptions ever opened via the `subscribe` op.
    pub subscriptions_total: Counter,
    /// Event frames written to streaming connections.
    pub event_frames_total: Counter,
}

impl ServiceMetrics {
    fn new() -> Self {
        Self {
            connections_total: Counter::new(),
            requests_total: Counter::new(),
            protocol_errors_total: Counter::new(),
            requests_by_op: KeyedCounter::new(),
            decides_by_tenant: KeyedCounter::new(),
            mutations_by_tenant: KeyedCounter::new(),
            subscriptions_total: Counter::new(),
            event_frames_total: Counter::new(),
        }
    }
}

/// One connection's live wire subscription: a core
/// [`EventSubscription`] per selected tenant bus, merged into one
/// frame stream. Created by the `subscribe` op, held by the
/// connection's thread, and torn down by `unsubscribe` or the
/// connection closing — either way the [`Drop`] impl decrements the
/// service's active-subscription count, so a killed client can never
/// leak a slot.
#[derive(Debug)]
pub struct WireSubscription {
    id: u64,
    feeds: Vec<TenantFeed>,
    active: Arc<AtomicU64>,
}

#[derive(Debug)]
struct TenantFeed {
    tenant: String,
    subscription: EventSubscription,
}

impl WireSubscription {
    /// The service-unique subscription id (1-based).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenants this subscription streams, in subscribe order.
    #[must_use]
    pub fn tenants(&self) -> Vec<&str> {
        self.feeds.iter().map(|f| f.tenant.as_str()).collect()
    }

    /// Drains every buffered event across all tenant feeds into wire
    /// frames, merged oldest-first by capture time. Each frame is
    /// `{"event":{…},"tenant":…,"subscription":…}` — the `event` key
    /// (vs `ok` on responses) is what lets a client demux the stream.
    #[must_use]
    pub fn drain_frames(&self) -> Vec<Value> {
        let mut merged: Vec<(u64, &str, Arc<TelemetryEvent>)> = Vec::new();
        for feed in &self.feeds {
            for event in feed.subscription.drain() {
                merged.push((event.nanos, feed.tenant.as_str(), event));
            }
        }
        merged.sort_by_key(|(nanos, _, _)| *nanos);
        merged
            .into_iter()
            .map(|(_, tenant, event)| {
                obj(vec![
                    ("event", event.to_value()),
                    ("tenant", Value::Str(tenant.to_owned())),
                    ("subscription", Value::UInt(self.id)),
                ])
            })
            .collect()
    }

    /// Events handed to the connection so far, across all feeds.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.feeds.iter().map(|f| f.subscription.delivered()).sum()
    }

    /// Events evicted from this subscription's rings because the
    /// client drained too slowly, across all feeds.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.feeds.iter().map(|f| f.subscription.dropped()).sum()
    }
}

impl Drop for WireSubscription {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The service: a named registry of isolated tenant engines plus the
/// stateless op dispatcher that [`ServeServer`](crate::ServeServer)
/// drives one NDJSON line at a time.
///
/// ```
/// use grbac_serve::PolicyService;
///
/// let service = PolicyService::with_defaults();
/// service.create_tenant("home").unwrap();
/// let response = service.handle_line(
///     r#"{"op":"decide","tenant":"home","subject":"alice","transaction":"use","object":"tv"}"#,
/// );
/// assert!(response.contains("\"unknown_name\"")); // empty tenant: nothing declared yet
/// ```
#[derive(Debug)]
pub struct PolicyService {
    tenants: RwLock<BTreeMap<String, Tenant>>,
    next_tenant_id: AtomicU64,
    next_subscription_id: AtomicU64,
    /// Live wire subscriptions. A plain atomic (not a telemetry
    /// counter) on purpose: `status` must report it even under the
    /// `telemetry-off` feature.
    subscriptions_active: Arc<AtomicU64>,
    metrics: ServiceMetrics,
    spans: Arc<SpanStore>,
    config: ServiceConfig,
}

/// The span scope of one in-flight request: the open server span plus
/// its finished children, or nothing when the request is not being
/// traced (the untraced path costs one `Option` check per stage).
#[derive(Debug, Default)]
struct RequestSpans {
    active: Option<ActiveTrace>,
}

#[derive(Debug)]
struct ActiveTrace {
    server: Span,
    children: Vec<Span>,
    /// True when the client propagated the context (so the response
    /// echoes the server span id back); false for self-sampled traces,
    /// which stay server-side.
    echo: bool,
}

impl RequestSpans {
    /// An untraced scope: every stage hook is a no-op.
    fn none() -> Self {
        Self::default()
    }

    /// Opens the server span (child of `parent` when the client
    /// propagated one) plus the dispatch-queue child, backdated by
    /// `queue_wait_ns` so the tree shows time spent before the
    /// connection's thread started.
    fn open(
        op: &str,
        trace_id: TraceId,
        parent: Option<SpanId>,
        echo: bool,
        queue_wait_ns: u64,
    ) -> Self {
        let mut server = Span::start(trace_id, parent, SpanKind::Server, op);
        server.op = Some(op.to_owned());
        let mut queue = Span::start(
            trace_id,
            Some(server.span_id),
            SpanKind::Queue,
            "queue_wait",
        );
        queue.start_ns = server.start_ns.saturating_sub(queue_wait_ns);
        queue.end_ns = server.start_ns;
        Self {
            active: Some(ActiveTrace {
                server,
                children: vec![queue],
                echo,
            }),
        }
    }

    /// Times `f` as a child span of the server span (or just runs it
    /// when untraced).
    fn time<R>(&mut self, kind: SpanKind, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(active) = &mut self.active else {
            return f();
        };
        let mut child = Span::start(
            active.server.trace_id,
            Some(active.server.span_id),
            kind,
            name,
        );
        let result = f();
        child.finish();
        active.children.push(child);
        result
    }

    /// Stamps the most recent engine child with the decision the engine
    /// minted, joining the trace to the flight-recorder/audit/exemplar
    /// evidence.
    fn stamp_decision(&mut self, id: DecisionId) {
        if let Some(active) = &mut self.active {
            if let Some(engine) = active
                .children
                .iter_mut()
                .rev()
                .find(|child| child.kind == SpanKind::Engine)
            {
                engine.decision_id = id;
            }
        }
    }

    /// Labels the server span with the tenant the request addressed.
    fn set_tenant(&mut self, tenant: &str) {
        if let Some(active) = &mut self.active {
            active.server.tenant = Some(tenant.to_owned());
        }
    }
}

impl Default for PolicyService {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl PolicyService {
    /// A service with explicit limits.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            tenants: RwLock::new(BTreeMap::new()),
            next_tenant_id: AtomicU64::new(0),
            next_subscription_id: AtomicU64::new(0),
            subscriptions_active: Arc::new(AtomicU64::new(0)),
            metrics: ServiceMetrics::new(),
            spans: Arc::new(SpanStore::new()),
            config,
        }
    }

    /// A service with [`ServiceConfig::default`] limits.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// The configured limits.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service-level telemetry.
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The wire-tracing span store: spans recorded for requests that
    /// carried a sampled `trace` context (plus self-sampled requests at
    /// the store's [`sample_rate`](SpanStore::sample_rate)). Shared
    /// with [`serve_observability`](Self::serve_observability), whose
    /// `/trace`, `/traces` and `/traces.json` routes read it live.
    #[must_use]
    pub fn span_store(&self) -> &Arc<SpanStore> {
        &self.spans
    }

    /// Provisions an empty tenant.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::TenantExists`], [`ErrorCode::TenantCap`], or
    /// [`ErrorCode::BadRequest`] for an invalid name.
    pub fn create_tenant(&self, name: &str) -> Result<(), WireError> {
        self.create_tenant_with_engine(name, Grbac::new())
    }

    /// Provisions a tenant around an already-populated engine (used by
    /// embedders and the load harness to install large policies
    /// without walking the wire protocol).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::create_tenant`].
    pub fn create_tenant_with_engine(&self, name: &str, engine: Grbac) -> Result<(), WireError> {
        validate_tenant_name(name)?;
        let mut tenants = lock_write(&self.tenants);
        if tenants.contains_key(name) {
            return Err(WireError::new(
                ErrorCode::TenantExists,
                format!("tenant `{name}` already exists"),
            ));
        }
        if tenants.len() >= self.config.max_tenants {
            return Err(WireError::new(
                ErrorCode::TenantCap,
                format!("tenant cap {} reached", self.config.max_tenants),
            ));
        }
        let id = self.next_tenant_id.fetch_add(1, Ordering::Relaxed);
        tenants.insert(name.to_owned(), Tenant::new(id, engine));
        Ok(())
    }

    /// Drops a tenant. In-flight requests holding the tenant's handles
    /// finish against the dropped engine; new requests see
    /// `unknown_tenant`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownTenant`].
    pub fn drop_tenant(&self, name: &str) -> Result<(), WireError> {
        match lock_write(&self.tenants).remove(name) {
            Some(_) => Ok(()),
            None => Err(unknown_tenant(name)),
        }
    }

    /// The tenant's shared handles, if provisioned.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<Tenant> {
        lock_read(&self.tenants).get(name).cloned()
    }

    /// Provisioned tenant names, sorted.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        lock_read(&self.tenants).keys().cloned().collect()
    }

    /// Puts one tenant on the HTTP observability plane: the returned
    /// [`grbac_obs::ObsServer`] shares the tenant's engine, watchdog
    /// and the service's span store, so `/metrics`, `/health`, `/heat`,
    /// `/alerts`, `/decision/<id>`, `/trace/<id>` and `/traces` all
    /// read live state.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown tenant; otherwise the bind failure.
    pub fn serve_observability(
        &self,
        tenant: &str,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<grbac_obs::ObsServer> {
        let tenant = self
            .tenant(tenant)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no such tenant"))?;
        grbac_obs::ObsServer::serve(
            grbac_obs::EngineObs::with_watchdog(tenant.engine, tenant.watchdog)
                .with_spans(Arc::clone(&self.spans))
                .with_live_telemetry(),
            addr,
        )
    }

    /// Handles one request line, returning one response line (without
    /// the trailing newline). Never panics on hostile input: malformed
    /// lines answer an error envelope.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_queued(line, 0)
    }

    /// [`handle_line`](Self::handle_line) with a known dispatch-queue
    /// wait: the time between the acceptor accepting the connection and
    /// the connection's thread starting, charged to the connection's
    /// first request as its `queue_wait` child span (later requests on
    /// the connection pass 0 — they never waited for a thread).
    #[must_use]
    pub fn handle_line_queued(&self, line: &str, queue_wait_ns: u64) -> String {
        let mut response = String::with_capacity(RESPONSE_CAPACITY);
        // Without a connection to stream to, a `subscribe` registers
        // and is torn down again as the scope ends — harmless, and it
        // keeps the op's validation behavior identical everywhere.
        self.handle_stream_line(line, queue_wait_ns, &mut None, &mut response);
        response
    }

    /// [`handle_line_queued`](Self::handle_line_queued) with the
    /// connection's streaming slot and response buffer: `subscribe`
    /// installs a [`WireSubscription`] into `subscription`,
    /// `unsubscribe` takes it back out, and every other op leaves it
    /// alone. The response line (without its newline) is appended to
    /// `out`, so a connection can reuse one buffer for all its answers.
    /// The connection loop owns both and pumps the subscription's
    /// frames between request lines.
    pub fn handle_stream_line(
        &self,
        line: &str,
        queue_wait_ns: u64,
        subscription: &mut Option<WireSubscription>,
        out: &mut String,
    ) {
        self.metrics.requests_total.inc();
        if !self.handle_request(line, queue_wait_ns, subscription, out) {
            self.metrics.protocol_errors_total.inc();
        }
    }

    /// Live wire subscriptions right now, service-wide (also reported
    /// by the `status` op and the Prometheus exposition).
    #[must_use]
    pub fn active_subscriptions(&self) -> u64 {
        self.subscriptions_active.load(Ordering::Relaxed)
    }

    /// Answers one request line into `out`, parsing it once into a tree
    /// that borrows from `line`. Returns whether the answer is a success
    /// envelope.
    fn handle_request(
        &self,
        line: &str,
        queue_wait_ns: u64,
        subscription: &mut Option<WireSubscription>,
        out: &mut String,
    ) -> bool {
        let request = match serde_json::parse(line) {
            Ok(request) => request,
            Err(err) => {
                let error = WireError::new(
                    ErrorCode::MalformedRequest,
                    format!("invalid JSON: {err:?}"),
                );
                err_envelope(out, None, None, &error, None);
                return false;
            }
        };
        let seq = request.get("seq");
        let Some(op) = request.get("op").and_then(BorrowedValue::as_str) else {
            let error = WireError::new(
                ErrorCode::MalformedRequest,
                "request must be an object with a string `op` field",
            );
            err_envelope(out, None, seq, &error, None);
            return false;
        };
        // The optional `trace` propagation context. The field is part
        // of the protocol contract, so a malformed value is a
        // `bad_request`, not silently ignored.
        let context = match opt_str_field(&request, "trace") {
            Ok(None) => None,
            Ok(Some(raw)) => match TraceContext::parse(raw) {
                Some(context) => Some(context),
                None => {
                    let error = bad_request(
                        "field `trace` must be `<trace_id:32hex>-<span_id:16hex>-<flags:2hex>` \
                         with non-zero ids",
                    );
                    err_envelope(out, Some(op), seq, &error, None);
                    return false;
                }
            },
            Err(error) => {
                err_envelope(out, Some(op), seq, &error, None);
                return false;
            }
        };
        let mut spans = self.open_request_spans(op, context, queue_wait_ns);
        // The result is written after the success head; a failed op
        // discards whatever it wrote and answers an error envelope.
        let start = out.len();
        ok_envelope(out, op, seq);
        let result = self.dispatch(op, &request, &mut spans, subscription, out);
        let echo = self.finish_request_spans(spans, result.is_ok());
        match &result {
            Ok(()) => close_envelope(out, echo.as_deref()),
            Err(error) => {
                out.truncate(start);
                err_envelope(out, Some(op), seq, error, echo.as_deref());
            }
        }
        result.is_ok()
    }

    /// Decides whether this request records spans: a client context
    /// with the sampled flag set always does (the client asked); an
    /// unsampled context never does (the client opted out); no context
    /// self-samples at the store's rate, minting a fresh root that
    /// stays server-side.
    fn open_request_spans(
        &self,
        op: &str,
        context: Option<TraceContext>,
        queue_wait_ns: u64,
    ) -> RequestSpans {
        match context {
            Some(context) if context.sampled && self.spans.is_enabled() => RequestSpans::open(
                op,
                context.trace_id,
                Some(context.span_id),
                true,
                queue_wait_ns,
            ),
            Some(_) => RequestSpans::none(),
            None if self.spans.should_sample() => {
                RequestSpans::open(op, TraceId::mint(), None, false, queue_wait_ns)
            }
            None => RequestSpans::none(),
        }
    }

    /// Finishes and records the request's spans and — for
    /// client-propagated contexts — returns the `trace` echo
    /// (`trace_id-server_span_id-01`) for the response envelope.
    fn finish_request_spans(&self, spans: RequestSpans, ok: bool) -> Option<String> {
        let mut active = spans.active?;
        if !ok {
            active.server.status = SpanStatus::Error;
        }
        active.server.finish();
        // Traced requests announce their completion on the tenant's
        // event bus, so a live subscriber sees span durations without
        // polling the span store. Only the sampled path pays the
        // tenant-map lookup.
        if let Some(tenant) = active
            .server
            .tenant
            .as_deref()
            .and_then(|name| self.tenant(name))
        {
            let nanos = active.server.end_ns.saturating_sub(active.server.start_ns);
            lock_read(&tenant.engine)
                .metrics()
                .events
                .publish(EventData::SpanCompleted {
                    name: active.server.name.clone(),
                    nanos,
                });
        }
        let echo = active
            .echo
            .then(|| TraceContext::sampled(active.server.trace_id, active.server.span_id).render());
        for child in active.children {
            self.spans.record(child);
        }
        self.spans.record(active.server);
        echo
    }

    /// Runs `op` and writes its result into `out`. Mediation ops write
    /// their decisions straight into the response; the others build a
    /// small [`Value`] body that is written after them.
    fn dispatch(
        &self,
        op: &str,
        request: &BorrowedValue<'_>,
        spans: &mut RequestSpans,
        subscription: &mut Option<WireSubscription>,
        out: &mut String,
    ) -> Result<(), WireError> {
        let Some(slot) = op_slot(op) else {
            return Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown op `{op}` (known: {})", OPS.join(", ")),
            ));
        };
        self.metrics.requests_by_op.add(slot, 1);
        let body = match op {
            "ping" => obj(vec![
                ("protocol", Value::UInt(PROTOCOL_VERSION)),
                ("server", Value::Str("grbac-serve".to_owned())),
                (
                    "tenants",
                    Value::UInt(lock_read(&self.tenants).len() as u64),
                ),
            ]),
            "create_tenant" => {
                let name = str_field(request, "tenant")?;
                self.create_tenant(name)?;
                obj(vec![
                    ("tenant", Value::Str(name.to_owned())),
                    ("created", Value::Bool(true)),
                ])
            }
            "drop_tenant" => {
                let name = str_field(request, "tenant")?;
                self.drop_tenant(name)?;
                obj(vec![
                    ("tenant", Value::Str(name.to_owned())),
                    ("dropped", Value::Bool(true)),
                ])
            }
            "list_tenants" => obj(vec![(
                "tenants",
                Value::Seq(self.tenant_names().into_iter().map(Value::Str).collect()),
            )]),
            "metrics" => self.op_metrics(request)?,
            "subscribe" => self.op_subscribe(request, subscription)?,
            "unsubscribe" => Self::op_unsubscribe(subscription)?,
            _ => {
                // Everything else is tenant-scoped.
                let name = str_field(request, "tenant")?;
                spans.set_tenant(name);
                let tenant = spans
                    .time(SpanKind::Lock, "tenant_map", || self.tenant(name))
                    .ok_or_else(|| unknown_tenant(name))?;
                match op {
                    "decide" => return self.op_decide(&tenant, request, spans, out),
                    "decide_batch" => return self.op_decide_batch(&tenant, request, spans, out),
                    "explain" => return self.op_explain(&tenant, request, spans, out),
                    "declare" => self.op_declare(&tenant, request)?,
                    "specialize" => self.op_specialize(&tenant, request)?,
                    "assign" => self.op_assignment(&tenant, request, true)?,
                    "revoke" => self.op_assignment(&tenant, request, false)?,
                    "add_rule" => self.op_add_rule(&tenant, request)?,
                    "remove_rule" => self.op_remove_rule(&tenant, request)?,
                    "status" => self.op_status(name, &tenant),
                    "tick" => Self::op_tick(&tenant),
                    _ => unreachable!("op {op} is in OPS but not dispatched"),
                }
            }
        };
        serde_json::write_value(out, &body);
        Ok(())
    }

    fn op_declare(&self, tenant: &Tenant, request: &BorrowedValue<'_>) -> Result<Value, WireError> {
        let kind = str_field(request, "kind")?;
        let name = str_field(request, "name")?;
        let mut engine = lock_write(&tenant.engine);
        let id = match kind {
            "subject_role" => engine.declare_subject_role(name).map(u64::from),
            "object_role" => engine.declare_object_role(name).map(u64::from),
            "environment_role" => engine.declare_environment_role(name).map(u64::from),
            "subject" => engine.declare_subject(name).map(u64::from),
            "object" => engine.declare_object(name).map(u64::from),
            "transaction" => engine.declare_transaction(name).map(u64::from),
            other => {
                return Err(bad_request(format!(
                    "unknown declare kind `{other}` (subject_role, object_role, \
                     environment_role, subject, object, transaction)"
                )))
            }
        }
        .map_err(policy_error)?;
        drop(engine);
        self.metrics.mutations_by_tenant.add(tenant.id, 1);
        Ok(obj(vec![
            ("kind", Value::Str(kind.to_owned())),
            ("name", Value::Str(name.to_owned())),
            ("id", Value::UInt(id)),
        ]))
    }

    fn op_specialize(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
    ) -> Result<Value, WireError> {
        let kind = role_kind(str_field(request, "kind")?)?;
        let specific = str_field(request, "specific")?;
        let general = str_field(request, "general")?;
        let mut engine = lock_write(&tenant.engine);
        let specific_id = find_role(&engine, kind, specific)?;
        let general_id = find_role(&engine, kind, general)?;
        engine
            .specialize(specific_id, general_id)
            .map_err(policy_error)?;
        drop(engine);
        self.metrics.mutations_by_tenant.add(tenant.id, 1);
        Ok(obj(vec![("specialized", Value::Bool(true))]))
    }

    fn op_assignment(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
        assign: bool,
    ) -> Result<Value, WireError> {
        let kind = str_field(request, "kind")?;
        let entity = str_field(request, "entity")?;
        let role = str_field(request, "role")?;
        let mut engine = lock_write(&tenant.engine);
        match kind {
            "subject_role" => {
                let subject = engine
                    .entities()
                    .find_subject(entity)
                    .map_err(|_| unknown_name("subject", entity))?;
                let role = find_role(&engine, RoleKind::Subject, role)?;
                if assign {
                    engine.assign_subject_role(subject, role)
                } else {
                    engine.revoke_subject_role(subject, role)
                }
            }
            "object_role" => {
                let object = engine
                    .entities()
                    .find_object(entity)
                    .map_err(|_| unknown_name("object", entity))?;
                let role = find_role(&engine, RoleKind::Object, role)?;
                if assign {
                    engine.assign_object_role(object, role)
                } else {
                    engine.revoke_object_role(object, role)
                }
            }
            other => {
                return Err(bad_request(format!(
                    "unknown assignment kind `{other}` (subject_role, object_role)"
                )))
            }
        }
        .map_err(policy_error)?;
        drop(engine);
        self.metrics.mutations_by_tenant.add(tenant.id, 1);
        Ok(obj(vec![(
            if assign { "assigned" } else { "revoked" },
            Value::Bool(true),
        )]))
    }

    fn op_add_rule(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
    ) -> Result<Value, WireError> {
        let effect = match str_field(request, "effect")? {
            "permit" => Effect::Permit,
            "deny" => Effect::Deny,
            other => {
                return Err(bad_request(format!(
                    "unknown effect `{other}` (permit, deny)"
                )))
            }
        };
        let mut engine = lock_write(&tenant.engine);
        let mut def = RuleDef::new(effect);
        if let Some(name) = opt_str_field(request, "name")? {
            def = def.named(name);
        }
        if let Some(role) = opt_str_field(request, "subject_role")? {
            def = def.subject_role(find_role(&engine, RoleKind::Subject, role)?);
        }
        if let Some(role) = opt_str_field(request, "object_role")? {
            def = def.object_role(find_role(&engine, RoleKind::Object, role)?);
        }
        let transaction = str_field(request, "transaction")?;
        def = def.transaction(
            engine
                .entities()
                .find_transaction(transaction)
                .map_err(|_| unknown_name("transaction", transaction))?,
        );
        for role in str_seq_field(request, "when")? {
            def = def.when(find_role(&engine, RoleKind::Environment, role)?);
        }
        let rule = engine.add_rule(def).map_err(policy_error)?;
        drop(engine);
        self.metrics.mutations_by_tenant.add(tenant.id, 1);
        Ok(obj(vec![("rule", Value::UInt(rule.into()))]))
    }

    fn op_remove_rule(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
    ) -> Result<Value, WireError> {
        let rule = u64_field(request, "rule")?;
        let removed =
            lock_write(&tenant.engine).remove_rule(grbac_core::prelude::RuleId::from_raw(rule));
        self.metrics.mutations_by_tenant.add(tenant.id, 1);
        Ok(obj(vec![("removed", Value::Bool(removed))]))
    }

    fn op_decide(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
        spans: &mut RequestSpans,
        out: &mut String,
    ) -> Result<(), WireError> {
        let engine = spans.time(SpanKind::Lock, "engine_lock", || lock_read(&tenant.engine));
        let access = resolve_request(&engine, request)?;
        let decision = spans
            .time(SpanKind::Engine, "decide", || engine.decide(&access))
            .map_err(policy_error)?;
        spans.stamp_decision(decision.decision_id());
        drop(engine);
        self.metrics.decides_by_tenant.add(tenant.id, 1);
        decision_fields(out, &decision);
        out.push('}');
        Ok(())
    }

    fn op_decide_batch(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
        spans: &mut RequestSpans,
        out: &mut String,
    ) -> Result<(), WireError> {
        let Some(BorrowedValue::Seq(items)) = request.get("requests") else {
            return Err(bad_request("field `requests` must be an array"));
        };
        let engine = spans.time(SpanKind::Lock, "engine_lock", || lock_read(&tenant.engine));
        // Resolve every item first; unresolvable items keep their slot
        // and answer an inline error object.
        let resolved: Vec<Result<AccessRequest, WireError>> = items
            .iter()
            .map(|item| resolve_request(&engine, item))
            .collect();
        let batch: Vec<AccessRequest> = resolved
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect();
        let decided = spans.time(SpanKind::Engine, "decide_batch", || {
            engine.decide_batch(&batch)
        });
        if let Some(first) = decided.iter().find_map(|d| d.as_ref().ok()) {
            spans.stamp_decision(first.decision_id());
        }
        let mut decisions = decided.into_iter();
        drop(engine);
        self.metrics
            .decides_by_tenant
            .add(tenant.id, batch.len() as u64);
        let item_error = |out: &mut String, code: ErrorCode, message: &str| {
            out.push_str("{\"error\":");
            error_object(out, code, message);
            out.push('}');
        };
        out.push_str("{\"results\":[");
        for (i, item) in resolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match item {
                Err(error) => item_error(out, error.code, &error.message),
                Ok(_) => match decisions.next().expect("one decision per resolved item") {
                    Ok(decision) => {
                        decision_fields(out, &decision);
                        out.push('}');
                    }
                    Err(err) => item_error(out, ErrorCode::Policy, &err.to_string()),
                },
            }
        }
        out.push_str("]}");
        Ok(())
    }

    fn op_explain(
        &self,
        tenant: &Tenant,
        request: &BorrowedValue<'_>,
        spans: &mut RequestSpans,
        out: &mut String,
    ) -> Result<(), WireError> {
        let engine = spans.time(SpanKind::Lock, "engine_lock", || lock_read(&tenant.engine));
        let access = resolve_request(&engine, request)?;
        let decision = spans
            .time(SpanKind::Engine, "decide", || engine.decide(&access))
            .map_err(policy_error)?;
        spans.stamp_decision(decision.decision_id());
        let rendered = engine.render_decision(&decision);
        drop(engine);
        self.metrics.decides_by_tenant.add(tenant.id, 1);
        decision_fields(out, &decision);
        out.push_str(",\"matched\":[");
        for (i, m) in decision.explanation().matched.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"effect\":\"{}\"}}",
                u64::from(m.rule),
                effect_str(m.effect)
            );
        }
        out.push_str("],\"rendered\":");
        write_string(out, &rendered);
        out.push('}');
        Ok(())
    }

    fn op_status(&self, name: &str, tenant: &Tenant) -> Value {
        let engine = lock_read(&tenant.engine);
        let watchdog_installed = tenant
            .watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some();
        obj(vec![
            ("tenant", Value::Str(name.to_owned())),
            ("generation", Value::UInt(engine.policy_generation())),
            ("rules", Value::UInt(engine.rules().len() as u64)),
            ("roles", Value::UInt(engine.roles().len() as u64)),
            (
                "subjects",
                Value::UInt(engine.entities().subject_count() as u64),
            ),
            (
                "objects",
                Value::UInt(engine.entities().object_count() as u64),
            ),
            (
                "transactions",
                Value::UInt(engine.entities().transaction_count() as u64),
            ),
            ("watchdog_installed", Value::Bool(watchdog_installed)),
            (
                "subscriptions",
                Value::UInt(self.subscriptions_active.load(Ordering::Relaxed)),
            ),
        ])
    }

    /// Ticks the tenant's watchdog against its engine registry,
    /// installing a default-config watchdog on first use.
    fn op_tick(tenant: &Tenant) -> Value {
        let registry = Arc::clone(lock_read(&tenant.engine).metrics());
        let mut slot = tenant
            .watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let watchdog = slot.get_or_insert_with(|| DecisionWatchdog::new(WatchdogConfig::default()));
        let raised = watchdog.tick(&registry);
        obj(vec![
            ("ticks", Value::UInt(watchdog.tick_count())),
            ("alerts", Value::UInt(raised.len() as u64)),
            ("alert_log", Value::UInt(watchdog.alerts().count() as u64)),
        ])
    }

    fn op_metrics(&self, request: &BorrowedValue<'_>) -> Result<Value, WireError> {
        let only = opt_str_field(request, "tenant")?;
        if let Some(name) = only {
            if self.tenant(name).is_none() {
                return Err(unknown_tenant(name));
            }
        }
        Ok(obj(vec![
            (
                "content_type",
                Value::Str("text/plain; version=0.0.4".to_owned()),
            ),
            ("exposition", Value::Str(self.prometheus_exposition(only))),
        ]))
    }

    /// Creates a [`WireSubscription`] outside the wire protocol, for
    /// embedders and the load harness: same tenant/kind/severity
    /// semantics as the `subscribe` op.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownTenant`] for an unresolved tenant name, or
    /// [`ErrorCode::BadRequest`] when no tenant is provisioned.
    pub fn subscribe_events(
        &self,
        tenants: &[&str],
        filter: EventFilter,
        capacity: usize,
    ) -> Result<WireSubscription, WireError> {
        let selected: Vec<(String, Tenant)> = if tenants.is_empty() {
            lock_read(&self.tenants)
                .iter()
                .map(|(name, tenant)| (name.clone(), tenant.clone()))
                .collect()
        } else {
            tenants
                .iter()
                .map(|name| {
                    self.tenant(name)
                        .map(|tenant| ((*name).to_owned(), tenant))
                        .ok_or_else(|| unknown_tenant(name))
                })
                .collect::<Result<_, _>>()?
        };
        if selected.is_empty() {
            return Err(bad_request(
                "no tenants to subscribe to (provision one first)",
            ));
        }
        let feeds = selected
            .into_iter()
            .map(|(tenant, handles)| {
                let registry = Arc::clone(lock_read(&handles.engine).metrics());
                TenantFeed {
                    tenant,
                    subscription: registry.events.subscribe(capacity, filter),
                }
            })
            .collect();
        let id = self.next_subscription_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.subscriptions_active.fetch_add(1, Ordering::Relaxed);
        self.metrics.subscriptions_total.inc();
        Ok(WireSubscription {
            id,
            feeds,
            active: Arc::clone(&self.subscriptions_active),
        })
    }

    fn op_subscribe(
        &self,
        request: &BorrowedValue<'_>,
        subscription: &mut Option<WireSubscription>,
    ) -> Result<Value, WireError> {
        if subscription.is_some() {
            return Err(bad_request(
                "this connection is already streaming; `unsubscribe` first",
            ));
        }
        let mut filter = EventFilter::all();
        for name in str_seq_field(request, "kinds")? {
            let kind = EventKind::from_name(name).ok_or_else(|| {
                bad_request(format!(
                    "unknown event kind `{name}` (known: {})",
                    EventKind::ALL.map(EventKind::name).join(", ")
                ))
            })?;
            filter = filter.kind(kind);
        }
        if let Some(name) = opt_str_field(request, "min_severity")? {
            let severity = Severity::from_name(name).ok_or_else(|| {
                bad_request(format!(
                    "unknown severity `{name}` (known: {})",
                    Severity::ALL.map(Severity::name).join(", ")
                ))
            })?;
            filter = filter.min_severity(severity);
        }
        let capacity = match request.get("capacity") {
            None | Some(BorrowedValue::Null) => EventBus::DEFAULT_CAPACITY as u64,
            Some(_) => u64_field(request, "capacity")?.clamp(1, 65_536),
        } as usize;
        let tenants: Vec<&str> = str_seq_field(request, "tenants")?.collect();
        let wire = self.subscribe_events(&tenants, filter, capacity)?;
        let result = obj(vec![
            ("subscription", Value::UInt(wire.id())),
            (
                "tenants",
                Value::Seq(
                    wire.tenants()
                        .into_iter()
                        .map(|t| Value::Str(t.to_owned()))
                        .collect(),
                ),
            ),
            ("streaming", Value::Bool(true)),
        ]);
        *subscription = Some(wire);
        Ok(result)
    }

    fn op_unsubscribe(subscription: &mut Option<WireSubscription>) -> Result<Value, WireError> {
        let Some(wire) = subscription.take() else {
            return Err(bad_request("no active subscription on this connection"));
        };
        Ok(obj(vec![
            ("unsubscribed", Value::Bool(true)),
            ("subscription", Value::UInt(wire.id())),
            ("delivered", Value::UInt(wire.delivered())),
            ("dropped", Value::UInt(wire.dropped())),
        ]))
    }

    /// The merged Prometheus exposition: service-level series first
    /// (requests, protocol errors, per-tenant decide/mutation counts),
    /// then every tenant engine's registry rendered side by side with
    /// a `tenant` label via
    /// [`PrometheusExporter::export_grouped`]. Pass `Some(name)` to
    /// restrict the engine section to one tenant.
    #[must_use]
    pub fn prometheus_exposition(&self, only: Option<&str>) -> String {
        let tenants: Vec<(String, Tenant)> = lock_read(&self.tenants)
            .iter()
            .filter(|(name, _)| only.is_none_or(|o| o == name.as_str()))
            .map(|(name, tenant)| (name.clone(), tenant.clone()))
            .collect();

        let mut out = String::new();
        for (name, help, counter) in [
            (
                "grbac_serve_connections_total",
                "Connections accepted by the policy service.",
                &self.metrics.connections_total,
            ),
            (
                "grbac_serve_requests_total",
                "Request lines handled by the policy service.",
                &self.metrics.requests_total,
            ),
            (
                "grbac_serve_protocol_errors_total",
                "Requests answered with an error envelope.",
                &self.metrics.protocol_errors_total,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        let _ = writeln!(
            out,
            "# HELP grbac_serve_tenants Provisioned tenants.\n# TYPE grbac_serve_tenants gauge\ngrbac_serve_tenants {}",
            lock_read(&self.tenants).len()
        );
        let _ = writeln!(
            out,
            "# HELP grbac_serve_subscriptions_total Wire subscriptions ever opened.\n# TYPE grbac_serve_subscriptions_total counter\ngrbac_serve_subscriptions_total {}",
            self.metrics.subscriptions_total.get()
        );
        let _ = writeln!(
            out,
            "# HELP grbac_serve_event_frames_total Event frames written to streaming connections.\n# TYPE grbac_serve_event_frames_total counter\ngrbac_serve_event_frames_total {}",
            self.metrics.event_frames_total.get()
        );
        let _ = writeln!(
            out,
            "# HELP grbac_serve_subscriptions_active Wire subscriptions live right now.\n# TYPE grbac_serve_subscriptions_active gauge\ngrbac_serve_subscriptions_active {}",
            self.subscriptions_active.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            out,
            "# HELP grbac_serve_requests_by_op_total Requests by operation.\n# TYPE grbac_serve_requests_by_op_total counter"
        );
        for (slot, value) in self.metrics.requests_by_op.snapshot() {
            let op = OPS.get(slot as usize).copied().unwrap_or("other");
            let _ = writeln!(
                out,
                "grbac_serve_requests_by_op_total{{op=\"{op}\"}} {value}"
            );
        }

        // Tenant-keyed service series. Labels come from the live
        // tenant map; slots whose tenant has been dropped (or that
        // overflowed the cardinality cap) render as `other`.
        let slot_names: BTreeMap<u64, &str> = tenants
            .iter()
            .map(|(name, tenant)| (tenant.id, name.as_str()))
            .collect();
        for (name, help, keyed) in [
            (
                "grbac_serve_decides_total",
                "Mediation requests served, by tenant.",
                &self.metrics.decides_by_tenant,
            ),
            (
                "grbac_serve_mutations_total",
                "Policy mutations applied, by tenant.",
                &self.metrics.mutations_by_tenant,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let mut other = keyed.overflow_total();
            for (slot, value) in keyed.snapshot() {
                match slot_names.get(&slot) {
                    Some(label) => {
                        let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {value}", escape(label));
                    }
                    None => other += value,
                }
            }
            if other > 0 {
                let _ = writeln!(out, "{name}{{tenant=\"other\"}} {other}");
            }
        }
        let dropped = self.metrics.decides_by_tenant.dropped_total()
            + self.metrics.mutations_by_tenant.dropped_total();
        let _ = writeln!(
            out,
            "# HELP grbac_serve_labels_dropped_total Tenant-keyed updates folded into `other` by the cardinality cap.\n# TYPE grbac_serve_labels_dropped_total counter\ngrbac_serve_labels_dropped_total {dropped}"
        );

        // Per-tenant engine registries, side by side.
        let groups: Vec<(String, grbac_core::MetricsSnapshot)> = tenants
            .iter()
            .map(|(name, tenant)| (name.clone(), lock_read(&tenant.engine).metrics_snapshot()))
            .collect();
        out.push_str(&PrometheusExporter.export_grouped("tenant", &groups));
        out
    }
}

/// Writes a decision's wire shape,
/// `{"effect":…,"decision_id":…,"degraded":…,"winner":…`, leaving the
/// object open for the fields `explain` adds.
fn decision_fields(out: &mut String, decision: &Decision) {
    let _ = write!(
        out,
        "{{\"effect\":\"{}\",\"decision_id\":\"{}\",\"degraded\":{},\"winner\":",
        effect_str(decision.effect()),
        decision.decision_id(),
        decision.is_degraded()
    );
    match decision.winning_rule() {
        Some(rule) => {
            let _ = write!(out, "{}", u64::from(rule));
        }
        None => out.push_str("null"),
    }
}

fn effect_str(effect: Effect) -> &'static str {
    match effect {
        Effect::Permit => "permit",
        Effect::Deny => "deny",
    }
}

/// Resolves one decide/explain item (`subject`, `transaction`,
/// `object`, optional `env` names) against the tenant's catalogs.
fn resolve_request(engine: &Grbac, item: &BorrowedValue<'_>) -> Result<AccessRequest, WireError> {
    let subject_name = str_field(item, "subject")?;
    let transaction_name = str_field(item, "transaction")?;
    let object_name = str_field(item, "object")?;
    let subject = engine
        .entities()
        .find_subject(subject_name)
        .map_err(|_| unknown_name("subject", subject_name))?;
    let transaction = engine
        .entities()
        .find_transaction(transaction_name)
        .map_err(|_| unknown_name("transaction", transaction_name))?;
    let object = engine
        .entities()
        .find_object(object_name)
        .map_err(|_| unknown_name("object", object_name))?;
    let mut active = Vec::new();
    for role in str_seq_field(item, "env")? {
        active.push(find_role(engine, RoleKind::Environment, role)?);
    }
    Ok(AccessRequest::by_subject(
        subject,
        transaction,
        object,
        EnvironmentSnapshot::from_active(active),
    ))
}

fn find_role(
    engine: &Grbac,
    kind: RoleKind,
    name: &str,
) -> Result<grbac_core::prelude::RoleId, WireError> {
    engine
        .roles()
        .find(kind, name)
        .map_err(|_| unknown_name(&format!("{kind:?} role").to_lowercase(), name))
}

fn role_kind(kind: &str) -> Result<RoleKind, WireError> {
    match kind {
        "subject_role" => Ok(RoleKind::Subject),
        "object_role" => Ok(RoleKind::Object),
        "environment_role" => Ok(RoleKind::Environment),
        other => Err(bad_request(format!(
            "unknown role kind `{other}` (subject_role, object_role, environment_role)"
        ))),
    }
}

fn unknown_tenant(name: &str) -> WireError {
    WireError::new(ErrorCode::UnknownTenant, format!("no tenant `{name}`"))
}

fn unknown_name(what: &str, name: &str) -> WireError {
    WireError::new(ErrorCode::UnknownName, format!("unknown {what} `{name}`"))
}

fn policy_error(err: grbac_core::GrbacError) -> WireError {
    WireError::new(ErrorCode::Policy, err.to_string())
}

/// Tenant names become metric label values and map keys; keep them to
/// a conservative charset so no downstream surface needs escaping.
fn validate_tenant_name(name: &str) -> Result<(), WireError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if ok {
        Ok(())
    } else {
        Err(bad_request("tenant names are 1-64 chars of [A-Za-z0-9_.-]"))
    }
}

fn escape(raw: &str) -> String {
    raw.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn lock_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One answer from `handle_stream_line`, on the connection slot.
    fn stream_line(
        service: &PolicyService,
        line: &str,
        slot: &mut Option<WireSubscription>,
    ) -> String {
        let mut out = String::new();
        service.handle_stream_line(line, 0, slot, &mut out);
        out
    }

    fn provisioned() -> PolicyService {
        let service = PolicyService::with_defaults();
        service.create_tenant("home").unwrap();
        for line in [
            r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"child"}"#,
            r#"{"op":"declare","tenant":"home","kind":"object_role","name":"toys"}"#,
            r#"{"op":"declare","tenant":"home","kind":"environment_role","name":"daytime"}"#,
            r#"{"op":"declare","tenant":"home","kind":"transaction","name":"use"}"#,
            r#"{"op":"declare","tenant":"home","kind":"subject","name":"bobby"}"#,
            r#"{"op":"declare","tenant":"home","kind":"object","name":"tv"}"#,
            r#"{"op":"assign","tenant":"home","kind":"subject_role","entity":"bobby","role":"child"}"#,
            r#"{"op":"assign","tenant":"home","kind":"object_role","entity":"tv","role":"toys"}"#,
            r#"{"op":"add_rule","tenant":"home","effect":"permit","name":"kids tv","subject_role":"child","object_role":"toys","transaction":"use","when":["daytime"]}"#,
        ] {
            let response = service.handle_line(line);
            assert!(response.contains("\"ok\":true"), "{line} -> {response}");
        }
        service
    }

    #[test]
    fn full_session_decides_and_explains() {
        let service = provisioned();
        let permit = service.handle_line(
            r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        );
        assert!(permit.contains("\"effect\":\"permit\""), "{permit}");
        assert!(permit.contains("\"winner\":0"), "{permit}");
        let deny = service.handle_line(
            r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv"}"#,
        );
        assert!(deny.contains("\"effect\":\"deny\""), "{deny}");
        let explain = service.handle_line(
            r#"{"op":"explain","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        );
        assert!(
            explain.contains("\"rendered\":\"decision: permit"),
            "{explain}"
        );
        assert!(explain.contains("\"matched\":[{\"rule\":0,\"effect\":\"permit\"}]"));
    }

    #[test]
    fn batch_mixes_decisions_and_inline_errors() {
        let service = provisioned();
        let response = service.handle_line(
            r#"{"op":"decide_batch","tenant":"home","requests":[
                {"subject":"bobby","transaction":"use","object":"tv","env":["daytime"]},
                {"subject":"nobody","transaction":"use","object":"tv"},
                {"subject":"bobby","transaction":"use","object":"tv"}
            ]}"#,
        );
        let parsed: Value = serde_json::from_str(&response).unwrap();
        let results = parsed
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(Value::as_seq)
            .expect("results array");
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].get("effect").and_then(Value::as_str),
            Some("permit")
        );
        assert!(results[1].get("error").is_some(), "{response}");
        assert_eq!(
            results[2].get("effect").and_then(Value::as_str),
            Some("deny")
        );
    }

    #[test]
    fn error_codes_cover_the_documented_classes() {
        let service = provisioned();
        for (line, code) in [
            ("not json", "malformed_request"),
            ("[1,2]", "malformed_request"),
            (r#"{"op":"warp"}"#, "unknown_op"),
            (
                r#"{"op":"decide","tenant":"nope","subject":"a","transaction":"b","object":"c"}"#,
                "unknown_tenant",
            ),
            (r#"{"op":"create_tenant","tenant":"home"}"#, "tenant_exists"),
            (
                r#"{"op":"create_tenant","tenant":"bad name!"}"#,
                "bad_request",
            ),
            (
                r#"{"op":"decide","tenant":"home","subject":"ghost","transaction":"use","object":"tv"}"#,
                "unknown_name",
            ),
            (
                r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"child"}"#,
                "policy",
            ),
            (r#"{"op":"decide","tenant":"home"}"#, "bad_request"),
        ] {
            let response = service.handle_line(line);
            assert!(
                response.contains(&format!("\"code\":\"{code}\"")),
                "{line} -> {response}"
            );
        }
    }

    #[test]
    fn seq_is_echoed_verbatim() {
        let service = PolicyService::with_defaults();
        let response = service.handle_line(r#"{"op":"ping","seq":41}"#);
        assert!(response.contains("\"seq\":41"), "{response}");
        let response = service.handle_line(r#"{"op":"nope","seq":"tag-9"}"#);
        assert!(response.contains("\"seq\":\"tag-9\""), "{response}");
    }

    #[test]
    fn tenant_cap_and_lifecycle() {
        let service = PolicyService::new(ServiceConfig {
            max_tenants: 2,
            ..ServiceConfig::default()
        });
        service.create_tenant("a").unwrap();
        service.create_tenant("b").unwrap();
        assert_eq!(
            service.create_tenant("c").unwrap_err().code,
            ErrorCode::TenantCap
        );
        service.drop_tenant("a").unwrap();
        service.create_tenant("c").unwrap();
        assert_eq!(service.tenant_names(), vec!["b", "c"]);
        assert_eq!(
            service.drop_tenant("a").unwrap_err().code,
            ErrorCode::UnknownTenant
        );
    }

    #[test]
    fn metrics_exposition_is_tenant_labelled() {
        let service = provisioned();
        service.create_tenant("beta").unwrap();
        let _ = service.handle_line(
            r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        );
        let response = service.handle_line(r#"{"op":"metrics"}"#);
        let parsed: Value = serde_json::from_str(&response).unwrap();
        let text = parsed
            .get("result")
            .and_then(|r| r.get("exposition"))
            .and_then(Value::as_str)
            .expect("exposition string");
        assert!(text.contains("grbac_serve_requests_total"));
        assert!(text.contains("grbac_serve_tenants 2"));
        if grbac_core::telemetry::ENABLED {
            assert!(
                text.contains("grbac_serve_decides_total{tenant=\"home\"} 1"),
                "{text}"
            );
            assert!(text.contains("grbac_decisions_permit_total{tenant=\"home\"} 1"));
            assert!(text.contains("grbac_decisions_permit_total{tenant=\"beta\"} 0"));
        }
        // Restricting to one tenant drops the other's engine series.
        let response = service.handle_line(r#"{"op":"metrics","tenant":"beta"}"#);
        let parsed: Value = serde_json::from_str(&response).unwrap();
        let text = parsed
            .get("result")
            .and_then(|r| r.get("exposition"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(!text.contains("{tenant=\"home\"} "), "{text}");
    }

    #[test]
    fn subscribe_validates_tenants_kinds_and_severity() {
        let service = provisioned();
        let mut slot = None;
        for (line, code) in [
            (
                r#"{"op":"subscribe","tenants":["ghost"]}"#,
                "unknown_tenant",
            ),
            (
                r#"{"op":"subscribe","tenants":["home"],"kinds":["warp"]}"#,
                "bad_request",
            ),
            (
                r#"{"op":"subscribe","tenants":["home"],"min_severity":"loud"}"#,
                "bad_request",
            ),
        ] {
            let response = stream_line(&service, line, &mut slot);
            assert!(
                response.contains(&format!("\"code\":\"{code}\"")),
                "{line} -> {response}"
            );
            assert!(slot.is_none(), "failed subscribe must not install");
        }
        assert_eq!(service.active_subscriptions(), 0);

        let response = stream_line(
            &service,
            r#"{"op":"subscribe","tenants":["home"],"kinds":["alert"],"min_severity":"warning"}"#,
            &mut slot,
        );
        assert!(response.contains("\"streaming\":true"), "{response}");
        assert!(slot.is_some());
        assert_eq!(service.active_subscriptions(), 1);

        // A second subscribe on the same connection is refused.
        let again = stream_line(
            &service,
            r#"{"op":"subscribe","tenants":["home"]}"#,
            &mut slot,
        );
        assert!(again.contains("\"bad_request\""), "{again}");
        assert_eq!(service.active_subscriptions(), 1);

        let bye = stream_line(&service, r#"{"op":"unsubscribe"}"#, &mut slot);
        assert!(bye.contains("\"unsubscribed\":true"), "{bye}");
        assert!(slot.is_none());
        assert_eq!(service.active_subscriptions(), 0);

        // Unsubscribe with nothing active is an error, not a panic.
        let nothing = stream_line(&service, r#"{"op":"unsubscribe"}"#, &mut slot);
        assert!(nothing.contains("\"bad_request\""), "{nothing}");
    }

    #[test]
    fn subscribe_with_no_named_tenants_streams_all_of_them() {
        let service = provisioned();
        service.create_tenant("beta").unwrap();
        let subscription = service
            .subscribe_events(&[], EventFilter::all(), 16)
            .unwrap();
        assert_eq!(subscription.tenants(), vec!["beta", "home"]);
        let _ = service.handle_line(
            r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv","env":["daytime"]}"#,
        );
        if grbac_core::telemetry::ENABLED {
            let frames = subscription.drain_frames();
            assert!(!frames.is_empty(), "decision event should stream");
            for frame in &frames {
                assert_eq!(frame.get("tenant").and_then(Value::as_str), Some("home"));
                assert!(frame.get("event").is_some());
            }
        }
        drop(subscription);
        assert_eq!(service.active_subscriptions(), 0);
        // An empty service has nothing to stream.
        let empty = PolicyService::with_defaults();
        assert_eq!(
            empty
                .subscribe_events(&[], EventFilter::all(), 16)
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn tick_installs_and_advances_a_watchdog() {
        let service = provisioned();
        let first = service.handle_line(r#"{"op":"tick","tenant":"home"}"#);
        assert!(first.contains("\"ticks\":1"), "{first}");
        let second = service.handle_line(r#"{"op":"tick","tenant":"home"}"#);
        assert!(second.contains("\"ticks\":2"), "{second}");
        let status = service.handle_line(r#"{"op":"status","tenant":"home"}"#);
        assert!(status.contains("\"watchdog_installed\":true"), "{status}");
    }
}
