//! # grbac-obs — a live observability plane for GRBAC engines
//!
//! The engine's four telemetry surfaces — metrics, quantile sketches
//! with exemplars, the decision flight recorder, and the audit log —
//! are all in-process data structures. This crate makes them reachable
//! over the network with **zero external dependencies**: a small
//! HTTP/1.1 server on std's [`TcpListener`](std::net::TcpListener), with
//! a thread per connection under one cap and graceful shutdown. Its
//! connection core, [`net`], also carries `grbac-serve`'s policy service.
//!
//! | Route | Body |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (with OpenMetrics exemplars) |
//! | `GET /metrics.json` | the same snapshot as JSON |
//! | `GET /health` | watchdog tick + policy health score |
//! | `GET /heat` | per-rule heat table |
//! | `GET /alerts` | the watchdog's retained alert log |
//! | `GET /decision/<id>` | cross-surface correlation lookup for one decision |
//! | `GET /trace/<trace_id>` | assembled span tree for one wire trace, decide spans joined with their decision story |
//! | `GET /traces` | recent trace roots (`?tenant=`, `?op=`, `?min_duration_us=`, `?limit=`) |
//! | `GET /traces.json` | every retained span as OTLP-shaped JSON |
//! | `GET /events` | live telemetry events as Server-Sent Events (`?kinds=`, `?min_severity=`, `?since=`; `Last-Event-ID` resumes) |
//! | `GET /timeseries` | windowed metrics series (`?series=`, `?windows=`) |
//! | `GET /dashboard` | self-contained live HTML dashboard (sparklines + event feed) |
//!
//! `/decision/<id>` is the payoff of the decision-correlation scheme:
//! the 32-hex-digit [`DecisionId`] scraped out of an exemplar on
//! `/metrics` resolves here to the decision's flight-recorder entry, a
//! structural replay diff against the current policy, and its audit
//! row — one id, the full story. The trace routes extend that story
//! upstream of the engine: attach a
//! [`SpanStore`] with
//! [`EngineObs::with_spans`] (or serve through
//! `PolicyService::serve_observability`, which attaches the service's
//! store) and a `trace` id echoed on the wire resolves to the full
//! queue → lock → engine breakdown, with each decide span joined to its
//! decision story by the stamped `DecisionId`. All routes are GET-only;
//! other methods answer `405` with an `Allow: GET` header. A request
//! head (request line plus headers) over 8 KiB answers `431` and the
//! connection closes.
//!
//! The three live routes require [`EngineObs::with_live_telemetry`]
//! (absent, they answer 404): it subscribes the plane to the engine's
//! [`EventBus`](grbac_core::telemetry::EventBus) and starts — once
//! served — a background pump that drains events into a bounded
//! replayable ring and records a [`MetricsHistory`] window every
//! ~500 ms. `/events` streams the ring as SSE (`id:` is the bus seq,
//! so `Last-Event-ID` reconnects resume exactly where the client left
//! off) with `: heartbeat` comments while quiet; `/timeseries` answers
//! windowed rate series for dashboards; `/dashboard` is a single
//! self-contained HTML page consuming both. Every connection, a
//! streaming `/events` one included, runs on a thread of its own, so
//! open streams never delay a scrape. Up to [`net::MAX_CONNECTIONS`]
//! connections are open at once; past that a new connection gets
//! `503 Service Unavailable` and is closed.
//!
//! ```no_run
//! use std::sync::{Arc, RwLock};
//! use grbac_core::Grbac;
//! use grbac_obs::{EngineObs, ObsServer};
//!
//! let engine = Arc::new(RwLock::new(Grbac::new()));
//! let server = ObsServer::serve(EngineObs::new(engine), "127.0.0.1:0").unwrap();
//! println!("scrape http://{}/metrics", server.addr());
//! server.shutdown();
//! ```
//!
//! The server never takes the engine's write lock and holds the read
//! lock only while rendering one response, so a home mediating
//! requests concurrently is delayed at most one snapshot per scrape
//! (experiment E15 bounds the cost under sustained load at ≤2%
//! decide throughput).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grbac_core::analysis::health_report;
use grbac_core::provenance::decision_story;
use grbac_core::telemetry::{
    assemble_trace, otlp_value, BoundedRing, DecisionWatchdog, EventFilter, EventKind,
    EventSubscription, Exporter, JsonExporter, MetricsHistory, PrometheusExporter, Severity,
    SpanStore, SpanTree, TelemetryEvent, TraceId,
};
use grbac_core::{DecisionId, Grbac};
use serde::Value;

/// The obs plane's own tap on the engine's event bus plus its metrics
/// time series: a long-lived bus subscription drained into a bounded
/// replayable ring (so SSE reconnects can resume by seq) and a
/// [`MetricsHistory`] recorded on a ~500 ms cadence.
///
/// Pull-fed like the history itself: [`EngineObs::live_tick`] does one
/// pump-and-maybe-scrape step. [`ObsServer`] runs a background ticker
/// whenever the plane it serves has live telemetry attached, and every
/// `/events` stream ticks on its own poll loop too, so events reach
/// watchers within one tick even between scrapes.
#[derive(Debug)]
pub struct LiveTelemetry {
    subscription: EventSubscription,
    ring: Mutex<BoundedRing<Arc<TelemetryEvent>>>,
    history: MetricsHistory,
    last_scrape: Mutex<Option<Instant>>,
}

impl LiveTelemetry {
    /// Events the replay ring retains for `Last-Event-ID` resume (and
    /// the bus-side ring capacity of the plane's subscription).
    pub const RETAINED_EVENTS: usize = 1_024;

    /// Target cadence between metrics-history captures.
    pub const SCRAPE_INTERVAL: Duration = Duration::from_millis(500);

    fn new(engine: &Arc<RwLock<Grbac>>) -> Self {
        let subscription = engine
            .read()
            .expect("engine lock")
            .metrics()
            .events
            .subscribe(Self::RETAINED_EVENTS, EventFilter::all());
        Self {
            subscription,
            ring: Mutex::new(BoundedRing::new(Self::RETAINED_EVENTS)),
            history: MetricsHistory::new(MetricsHistory::DEFAULT_CAPACITY),
            last_scrape: Mutex::new(None),
        }
    }

    /// The metrics time series behind `/timeseries`.
    #[must_use]
    pub fn history(&self) -> &MetricsHistory {
        &self.history
    }

    /// Moves everything the bus delivered since the last pump into the
    /// retained ring, evicting oldest beyond
    /// [`RETAINED_EVENTS`](Self::RETAINED_EVENTS).
    fn pump(&self) {
        let events = self.subscription.drain();
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for event in events {
            ring.push(event);
        }
    }

    /// Retained events with a bus seq strictly greater than `cursor`,
    /// oldest first.
    fn events_after(&self, cursor: u64) -> Vec<Arc<TelemetryEvent>> {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.iter()
            .filter(|event| event.seq > cursor)
            .cloned()
            .collect()
    }

    /// Unconditionally captures one history window from the engine's
    /// current counters.
    fn scrape(&self, engine: &Arc<RwLock<Grbac>>) {
        let snapshot = engine.read().expect("engine lock").metrics_snapshot();
        self.history.record(snapshot);
    }

    /// [`Self::scrape`] gated to the [`SCRAPE_INTERVAL`](Self::SCRAPE_INTERVAL)
    /// cadence — callers can tick as often as they like.
    fn maybe_scrape(&self, engine: &Arc<RwLock<Grbac>>) {
        {
            let mut last = self
                .last_scrape
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if last.is_some_and(|at| at.elapsed() < Self::SCRAPE_INTERVAL) {
                return;
            }
            *last = Some(Instant::now());
        }
        self.scrape(engine);
    }
}

/// The engine-side state one observability server exposes: a shared
/// engine plus an optional shared watchdog slot (`/health` ticks it,
/// `/alerts` reads its retained log), an optional shared span store
/// (the `/trace*` routes; absent, they answer 404), and optional live
/// telemetry (the `/events`, `/timeseries` and `/dashboard` routes;
/// absent, they answer 404).
#[derive(Debug, Clone)]
pub struct EngineObs {
    engine: Arc<RwLock<Grbac>>,
    watchdog: Arc<Mutex<Option<DecisionWatchdog>>>,
    spans: Option<Arc<SpanStore>>,
    live: Option<Arc<LiveTelemetry>>,
}

impl EngineObs {
    /// Observes `engine` with no watchdog (`/health` still reports the
    /// policy health score; `/alerts` serves an empty log).
    #[must_use]
    pub fn new(engine: Arc<RwLock<Grbac>>) -> Self {
        Self {
            engine,
            watchdog: Arc::new(Mutex::new(None)),
            spans: None,
            live: None,
        }
    }

    /// Observes `engine` and shares `watchdog` — pass the same handle
    /// the mediating side ticks (e.g. `AwareHome::watchdog_handle`) so
    /// `/health` scrapes advance the same EWMA baselines.
    #[must_use]
    pub fn with_watchdog(
        engine: Arc<RwLock<Grbac>>,
        watchdog: Arc<Mutex<Option<DecisionWatchdog>>>,
    ) -> Self {
        Self {
            engine,
            watchdog,
            spans: None,
            live: None,
        }
    }

    /// Attaches a span store, enabling `/trace/<trace_id>`, `/traces`
    /// and `/traces.json` — pass the same store the serving side
    /// records into (e.g. `PolicyService::span_store`).
    #[must_use]
    pub fn with_spans(mut self, spans: Arc<SpanStore>) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Attaches live telemetry, enabling `/events`, `/timeseries` and
    /// `/dashboard`: subscribes this plane to the engine's event bus
    /// (which flips the bus out of its nobody-listening fast path) and
    /// allocates the metrics-history ring. [`ObsServer::serve`] starts
    /// the background ticker automatically when it sees live telemetry
    /// attached.
    #[must_use]
    pub fn with_live_telemetry(mut self) -> Self {
        self.live = Some(Arc::new(LiveTelemetry::new(&self.engine)));
        self
    }

    /// The attached live telemetry, when enabled.
    #[must_use]
    pub fn live(&self) -> Option<&Arc<LiveTelemetry>> {
        self.live.as_ref()
    }

    /// One live-telemetry step: drain the bus subscription into the
    /// replay ring and, if the scrape interval elapsed, record a
    /// metrics-history window. No-op without live telemetry.
    pub fn live_tick(&self) {
        if let Some(live) = &self.live {
            live.pump();
            live.maybe_scrape(&self.engine);
        }
    }

    fn respond(&self, path: &str, query: &str) -> Response {
        match path {
            "/metrics" => {
                let snapshot = self.engine.read().expect("engine lock").metrics_snapshot();
                Response::ok(
                    "text/plain; version=0.0.4; charset=utf-8",
                    PrometheusExporter.export(&snapshot),
                )
            }
            "/metrics.json" => {
                let snapshot = self.engine.read().expect("engine lock").metrics_snapshot();
                Response::ok("application/json", JsonExporter.export(&snapshot))
            }
            "/health" => self.health(),
            "/heat" => {
                let heat = self.engine.read().expect("engine lock").heat_snapshot();
                Response::json(&heat)
            }
            "/alerts" => {
                let alerts: Vec<_> = self
                    .watchdog
                    .lock()
                    .expect("watchdog lock")
                    .as_ref()
                    .map(|w| w.alerts().cloned().collect())
                    .unwrap_or_default();
                Response::json(&alerts)
            }
            "/traces" => self.traces(query),
            "/traces.json" => match &self.spans {
                Some(spans) => Response::json_value(&otlp_value("grbac", &spans.snapshot())),
                None => Response::not_found("tracing not enabled on this plane"),
            },
            "/timeseries" => self.timeseries(query),
            "/dashboard" => {
                if self.live.is_some() {
                    Response::ok("text/html; charset=utf-8", DASHBOARD_HTML.to_owned())
                } else {
                    Response::not_found("live telemetry not enabled on this plane")
                }
            }
            _ => {
                if let Some(hex) = path.strip_prefix("/decision/") {
                    self.decision(hex)
                } else if let Some(hex) = path.strip_prefix("/trace/") {
                    self.trace(hex)
                } else {
                    Response::not_found("no such route")
                }
            }
        }
    }

    /// `/health`: tick the watchdog against the engine's registry, then
    /// score the current policy. The registry `Arc` is cloned out of
    /// the read guard and the guard dropped before the watchdog lock is
    /// taken, so a concurrent `watchdog_tick` on the mediating side can
    /// never deadlock against a scrape.
    fn health(&self) -> Response {
        let (metrics, report) = {
            let engine = self.engine.read().expect("engine lock");
            (Arc::clone(engine.metrics()), health_report(&engine))
        };
        let (installed, fresh_alerts, ticks) = {
            let mut slot = self.watchdog.lock().expect("watchdog lock");
            match slot.as_mut() {
                Some(watchdog) => {
                    let raised = watchdog.tick(&metrics);
                    (true, raised.len(), watchdog.tick_count())
                }
                None => (false, 0, 0),
            }
        };
        let healthy = report.is_healthy() && fresh_alerts == 0;
        let body = format!(
            "{{\"status\":\"{}\",\"policy_score\":{:.4},\"policy_healthy\":{},\"watchdog_installed\":{},\"watchdog_ticks\":{},\"alerts_this_tick\":{}}}",
            if healthy { "ok" } else { "degraded" },
            report.score(),
            report.is_healthy(),
            installed,
            ticks,
            fresh_alerts,
        );
        Response::ok("application/json", body)
    }

    /// `/decision/<id>`: the correlation lookup. 400 for unparseable
    /// ids, 404 for ids the recorder no longer (or never) retained.
    fn decision(&self, hex: &str) -> Response {
        let id: DecisionId = match hex.parse() {
            Ok(id) => id,
            Err(_) => return Response::bad_request("decision id must be hex digits"),
        };
        let engine = self.engine.read().expect("engine lock");
        match decision_story(&engine, id) {
            Some(story) => Response::json(&story),
            None => Response::not_found("decision not retained"),
        }
    }

    /// `/trace/<trace_id>`: the assembled span tree for one wire
    /// trace. Spans stamped with an assigned `DecisionId` (the engine
    /// children of decide/explain requests) are joined with their
    /// [`decision_story`] inline, so one echoed trace id resolves both
    /// *where the time went* and *why the answer was what it was*. 400
    /// for unparseable ids, 404 when no span of the trace is retained.
    fn trace(&self, hex: &str) -> Response {
        let Some(store) = &self.spans else {
            return Response::not_found("tracing not enabled on this plane");
        };
        let id: TraceId = match hex.parse() {
            Ok(id) => id,
            Err(_) => return Response::bad_request("trace id must be 32 hex digits"),
        };
        let spans = store.trace(id);
        if spans.is_empty() {
            return Response::not_found("trace not retained");
        }
        let count = spans.len();
        let trees = assemble_trace(spans);
        let engine = self.engine.read().expect("engine lock");
        let rendered: Vec<Value> = trees
            .iter()
            .map(|tree| tree_with_stories(tree, &engine))
            .collect();
        drop(engine);
        Response::json_value(&Value::Map(vec![
            ("trace_id".to_owned(), Value::Str(id.to_string())),
            ("span_count".to_owned(), Value::UInt(count as u64)),
            ("spans".to_owned(), Value::Seq(rendered)),
        ]))
    }

    /// `/traces`: recent trace roots, newest first. Query filters:
    /// `tenant=<name>`, `op=<op>`, `min_duration_us=<n>`, `limit=<n>`
    /// (default 64). Unknown keys are ignored (forward compatibility);
    /// unparseable numeric values answer 400.
    fn traces(&self, query: &str) -> Response {
        let Some(store) = &self.spans else {
            return Response::not_found("tracing not enabled on this plane");
        };
        let mut tenant: Option<&str> = None;
        let mut op: Option<&str> = None;
        let mut min_duration_ns: u64 = 0;
        let mut limit: usize = 64;
        for (key, value) in query
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        {
            match key {
                "tenant" => tenant = Some(value),
                "op" => op = Some(value),
                "min_duration_us" => match value.parse::<u64>() {
                    Ok(us) => min_duration_ns = us.saturating_mul(1_000),
                    Err(_) => return Response::bad_request("min_duration_us must be an integer"),
                },
                "limit" => match value.parse::<usize>() {
                    Ok(n) => limit = n,
                    Err(_) => return Response::bad_request("limit must be an integer"),
                },
                _ => {}
            }
        }
        let roots: Vec<Value> = store
            .roots()
            .into_iter()
            .filter(|span| tenant.is_none_or(|t| span.tenant.as_deref() == Some(t)))
            .filter(|span| op.is_none_or(|o| span.op.as_deref() == Some(o)))
            .filter(|span| span.duration_ns() >= min_duration_ns)
            .take(limit)
            .map(|span| span.to_value())
            .collect();
        Response::json_value(&Value::Map(vec![
            ("traces".to_owned(), Value::Seq(roots)),
            (
                "total_recorded".to_owned(),
                Value::UInt(store.total_recorded()),
            ),
            ("dropped".to_owned(), Value::UInt(store.dropped())),
            ("sample_rate".to_owned(), Value::UInt(store.sample_rate())),
        ]))
    }

    /// `/timeseries`: named per-window metrics series, oldest first.
    /// Query: `series=<name,...>` (default the three derived rate
    /// series), `windows=<n>` (default 32). Unknown series names and
    /// unparseable counts answer 400.
    fn timeseries(&self, query: &str) -> Response {
        let Some(live) = &self.live else {
            return Response::not_found("live telemetry not enabled on this plane");
        };
        // Serve fresh data even when scraped between ticker beats.
        self.live_tick();
        let mut names = vec![
            "deny_rate_ppm".to_owned(),
            "decide_per_sec".to_owned(),
            "degraded_ppm".to_owned(),
        ];
        let mut windows: usize = 32;
        for (key, value) in query
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        {
            match key {
                "series" => {
                    names = value
                        .split(',')
                        .filter(|name| !name.is_empty())
                        .map(str::to_owned)
                        .collect();
                }
                "windows" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => windows = n,
                    _ => return Response::bad_request("windows must be a positive integer"),
                },
                _ => {}
            }
        }
        let recent = live.history.windows(windows);
        let mut series = Vec::with_capacity(names.len());
        for name in names {
            let Some(points) = live.history.series(&name, windows) else {
                return Response::bad_request("unknown series (derived names: deny_rate_ppm, decide_per_sec, degraded_ppm; otherwise any exported counter or gauge)");
            };
            series.push((
                name,
                Value::Seq(points.into_iter().map(Value::Float).collect()),
            ));
        }
        Response::json_value(&Value::Map(vec![
            ("windows".to_owned(), Value::UInt(recent.len() as u64)),
            (
                "elapsed_ns".to_owned(),
                Value::Seq(recent.iter().map(|w| Value::UInt(w.elapsed_ns)).collect()),
            ),
            ("series".to_owned(), Value::Map(series)),
        ]))
    }
}

/// The `/dashboard` page: one self-contained HTML document — inline
/// CSS, inline JS, SVG sparklines — polling `/timeseries` and tailing
/// `/events` over `EventSource`. No external assets, so it renders on
/// an air-gapped network exactly as it does here.
const DASHBOARD_HTML: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>grbac live telemetry</title>
<style>
 body { font: 14px/1.4 system-ui, sans-serif; margin: 2rem; background: #11151a; color: #d8dee6; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1rem; margin: 1.2rem 0 .4rem; color: #8fa3b8; }
 .spark { display: inline-block; margin-right: 2rem; }
 .spark svg { background: #1a2129; border: 1px solid #2a3543; }
 .spark .val { font-size: 1.2rem; font-variant-numeric: tabular-nums; }
 #events li { list-style: none; font: 12px/1.5 ui-monospace, monospace; white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
 #events li.warning { color: #e6c07b; } #events li.critical { color: #e06c75; }
 #events { padding: 0; max-width: 72rem; }
</style>
</head>
<body>
<h1>grbac live telemetry</h1>
<div id="sparks"></div>
<h2>event stream</h2>
<ul id="events"></ul>
<script>
const SERIES = ["deny_rate_ppm", "decide_per_sec", "degraded_ppm"];
const W = 240, H = 48;
function sparkline(points) {
  if (!points.length) return "";
  const max = Math.max(...points, 1e-9);
  const step = points.length > 1 ? W / (points.length - 1) : 0;
  const path = points
    .map((p, i) => `${(i * step).toFixed(1)},${(H - 4 - (p / max) * (H - 8)).toFixed(1)}`)
    .join(" ");
  return `<svg width="${W}" height="${H}"><polyline fill="none" stroke="#61afef" stroke-width="1.5" points="${path}"/></svg>`;
}
async function refresh() {
  try {
    const body = await (await fetch("/timeseries?windows=64")).json();
    document.getElementById("sparks").innerHTML = SERIES.map(name => {
      const points = body.series[name] || [];
      const last = points.length ? points[points.length - 1] : 0;
      return `<div class="spark"><h2>${name}</h2>${sparkline(points)}<div class="val">${last.toFixed(1)}</div></div>`;
    }).join("");
  } catch (e) { /* plane restarting; retry on the next beat */ }
}
refresh();
setInterval(refresh, 1000);
const feed = document.getElementById("events");
const source = new EventSource("/events");
source.onmessage = frame => {
  const event = JSON.parse(frame.data);
  const row = document.createElement("li");
  row.className = event.severity;
  row.textContent = `#${event.seq} ${event.kind} ` + JSON.stringify(event);
  feed.prepend(row);
  while (feed.children.length > 50) feed.removeChild(feed.lastChild);
};
</script>
</body>
</html>
"##;

/// Renders a span tree as JSON, attaching `decision_story` to any span
/// whose stamped decision id still resolves against the engine's
/// correlation surfaces.
fn tree_with_stories(tree: &SpanTree, engine: &Grbac) -> Value {
    let mut value = tree.span.to_value();
    if let Value::Map(fields) = &mut value {
        if tree.span.decision_id.is_assigned() {
            if let Some(story) = decision_story(engine, tree.span.decision_id) {
                fields.push((
                    "decision_story".to_owned(),
                    serde::Serialize::to_value(&story),
                ));
            }
        }
        fields.push((
            "children".to_owned(),
            Value::Seq(
                tree.children
                    .iter()
                    .map(|child| tree_with_stories(child, engine))
                    .collect(),
            ),
        ));
    }
    value
}

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    /// Extra `Allow:` header — RFC 9110 requires one on a 405.
    allow: Option<&'static str>,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type,
            body,
            allow: None,
        }
    }

    fn json<T: serde::Serialize>(value: &T) -> Self {
        match serde_json::to_string(value) {
            Ok(body) => Self::ok("application/json", body),
            Err(_) => Self {
                status: 500,
                reason: "Internal Server Error",
                content_type: "text/plain; charset=utf-8",
                body: "serialization failed".to_owned(),
                allow: None,
            },
        }
    }

    /// Like [`Response::json`] but named for an already-assembled
    /// [`Value`] (the trace handlers build composite bodies no single
    /// type serializes to).
    fn json_value(value: &Value) -> Self {
        Self::json(value)
    }

    fn bad_request(message: &str) -> Self {
        Self {
            status: 400,
            reason: "Bad Request",
            content_type: "text/plain; charset=utf-8",
            body: message.to_owned(),
            allow: None,
        }
    }

    fn not_found(message: &str) -> Self {
        Self {
            status: 404,
            reason: "Not Found",
            content_type: "text/plain; charset=utf-8",
            body: message.to_owned(),
            allow: None,
        }
    }

    fn head_too_large() -> Self {
        Self {
            status: 431,
            reason: "Request Header Fields Too Large",
            content_type: "text/plain; charset=utf-8",
            body: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            allow: None,
        }
    }

    fn unavailable() -> Self {
        Self {
            status: 503,
            reason: "Service Unavailable",
            content_type: "text/plain; charset=utf-8",
            body: format!(
                "the server already holds {} connections",
                net::MAX_CONNECTIONS
            ),
            allow: None,
        }
    }

    fn method_not_allowed() -> Self {
        Self {
            status: 405,
            reason: "Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            body: "only GET is served".to_owned(),
            allow: Some("GET"),
        }
    }

    fn write_to(&self, mut out: impl Write) -> std::io::Result<()> {
        let allow = match self.allow {
            Some(methods) => format!("Allow: {methods}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            allow,
        );
        out.write_all(head.as_bytes())?;
        out.write_all(self.body.as_bytes())
    }
}

/// One parsed HTTP/1.1 request head.
struct ParsedRequest {
    method: String,
    path: String,
    query: String,
    /// The SSE resume cursor, when the client sent `Last-Event-ID`.
    last_event_id: Option<u64>,
}

/// The most bytes a request head (request line plus headers) may take.
/// A client that goes past it gets a 431 and a closed connection, so a
/// peer dribbling one endless header cannot grow a line without bound.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Why a request head could not be parsed.
enum HeadError {
    /// The head ran past [`MAX_HEAD_BYTES`] before its blank line.
    TooLarge,
    /// A timeout, a reset, or a request line that is not UTF-8.
    Io,
}

impl From<std::io::Error> for HeadError {
    fn from(_: std::io::Error) -> Self {
        Self::Io
    }
}

/// Parses the request line of one HTTP/1.1 request, reading at most
/// [`MAX_HEAD_BYTES`] of head from `input`. Headers are read and
/// discarded except `Last-Event-ID` (the server is otherwise GET-only
/// and stateless); their bytes need not be UTF-8. The whole head is
/// read before the request line is judged, so a head past the cap is
/// always [`HeadError::TooLarge`]. The query string (without the `?`)
/// is preserved for the routes that filter, empty when absent.
fn parse_request(input: impl Read) -> Result<Option<ParsedRequest>, HeadError> {
    let mut reader = BufReader::new(input.take(MAX_HEAD_BYTES));
    let mut line = Vec::new();
    if !read_head_line(&mut reader, &mut line)? {
        return Ok(None);
    }
    // Drain the headers so the peer sees the response after a clean
    // request; bodies are ignored (GET has none).
    let mut last_event_id = None;
    let mut header = Vec::new();
    loop {
        header.clear();
        if !read_head_line(&mut reader, &mut header)? || header == b"\r\n" || header == b"\n" {
            break;
        }
        let field = std::str::from_utf8(&header).ok();
        if let Some((name, value)) = field.and_then(|field| field.split_once(':')) {
            if name.trim().eq_ignore_ascii_case("last-event-id") {
                last_event_id = value.trim().parse::<u64>().ok();
            }
        }
    }
    let line = String::from_utf8(line).map_err(|_| HeadError::Io)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), query.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Ok(Some(ParsedRequest {
        method,
        path,
        query,
        last_event_id,
    }))
}

/// Reads one head line into `line`; `false` at EOF. Running into the
/// byte cap before the line (or the head) ends is [`HeadError::TooLarge`].
fn read_head_line(
    reader: &mut BufReader<std::io::Take<impl Read>>,
    line: &mut Vec<u8>,
) -> Result<bool, HeadError> {
    let read = reader.read_until(b'\n', line)?;
    let capped = reader.get_ref().limit() == 0;
    if capped && (read == 0 || !line.ends_with(b"\n")) {
        return Err(HeadError::TooLarge);
    }
    Ok(read > 0)
}

/// How often a streaming `/events` connection polls the live plane for
/// fresh events (and checks the server's stop flag).
const SSE_POLL: Duration = Duration::from_millis(50);

/// Quiet polls before a `: heartbeat` comment goes out (~2 s at
/// [`SSE_POLL`]) — keeps proxies from timing out the stream and lets
/// the server notice a dead client.
const SSE_HEARTBEAT_POLLS: u32 = 40;

/// `/events`: the SSE stream. Each frame is `id: <bus seq>` plus a
/// `data:` line holding the event's flat JSON; the cursor starts at
/// `Last-Event-ID` (or `?since=`), so reconnects replay exactly the
/// retained events the client missed. Runs until the client hangs up
/// or the server shuts down.
fn stream_events(
    obs: &EngineObs,
    mut stream: &TcpStream,
    query: &str,
    last_event_id: Option<u64>,
    stop: &AtomicBool,
) {
    let Some(live) = obs.live.as_ref() else {
        let _ = Response::not_found("live telemetry not enabled on this plane").write_to(stream);
        return;
    };
    let mut filter = EventFilter::all();
    let mut cursor = 0u64;
    for (key, value) in query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
    {
        match key {
            "kinds" => {
                for name in value.split(',').filter(|name| !name.is_empty()) {
                    match EventKind::from_name(name) {
                        Some(kind) => filter = filter.kind(kind),
                        None => {
                            let _ = Response::bad_request("unknown event kind").write_to(stream);
                            return;
                        }
                    }
                }
            }
            "min_severity" => match Severity::from_name(value) {
                Some(severity) => filter = filter.min_severity(severity),
                None => {
                    let _ = Response::bad_request("unknown severity").write_to(stream);
                    return;
                }
            },
            "since" => match value.parse::<u64>() {
                Ok(seq) => cursor = seq,
                Err(_) => {
                    let _ = Response::bad_request("since must be an integer seq").write_to(stream);
                    return;
                }
            },
            _ => {}
        }
    }
    // The SSE spec's reconnect header wins over the query cursor.
    if let Some(seq) = last_event_id {
        cursor = seq;
    }
    if stream
        .write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\nretry: 2000\n\n",
        )
        .is_err()
    {
        return;
    }
    let mut quiet_polls = 0u32;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        obs.live_tick();
        let mut wrote = false;
        for event in live.events_after(cursor) {
            cursor = event.seq;
            if !filter.matches(&event) {
                continue;
            }
            let frame = format!(
                "id: {}\ndata: {}\n\n",
                event.seq,
                serde_json::to_string(&event.to_value()).unwrap_or_default()
            );
            if stream.write_all(frame.as_bytes()).is_err() {
                return;
            }
            wrote = true;
        }
        if wrote {
            quiet_polls = 0;
            let _ = stream.flush();
        } else {
            quiet_polls += 1;
            if quiet_polls >= SSE_HEARTBEAT_POLLS {
                quiet_polls = 0;
                if stream.write_all(b": heartbeat\n\n").is_err() {
                    return;
                }
                let _ = stream.flush();
            }
        }
        std::thread::sleep(SSE_POLL);
    }
}

fn handle_connection(obs: &EngineObs, mut stream: &TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let request = match parse_request(stream) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(error) => {
            let response = match error {
                HeadError::TooLarge => Response::head_too_large(),
                HeadError::Io => Response::bad_request("malformed request"),
            };
            let _ = response.write_to(stream);
            let _ = stream.flush();
            return;
        }
    };
    if request.method == "GET" && request.path == "/events" {
        stream_events(obs, stream, &request.query, request.last_event_id, stop);
        let _ = stream.flush();
        return;
    }
    let response = if request.method == "GET" {
        obs.respond(&request.path, &request.query)
    } else {
        Response::method_not_allowed()
    };
    let _ = response.write_to(stream);
    let _ = stream.flush();
}

/// A running observability server on the [`net`] connection core.
/// Dropping the handle without calling [`shutdown`](Self::shutdown)
/// stops it too: open connections are shut down and the threads finish
/// on their own; shutdown also joins them.
#[derive(Debug)]
pub struct ObsServer {
    server: net::Server,
    ticker: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Serves `obs` on `addr` (use port 0 for an ephemeral port; the
    /// bound address is [`addr`](Self::addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(obs: EngineObs, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let mut refusal = Vec::new();
        Response::unavailable().write_to(&mut refusal)?;
        let live = obs.live.is_some().then(|| obs.clone());
        let server = net::Server::serve(addr, refusal, move |stream, _, stop| {
            handle_connection(&obs, stream, stop);
        })?;
        // With live telemetry attached, a background ticker keeps the
        // event ring and the metrics history fed even while nobody is
        // watching — so the first dashboard load already has a past.
        let ticker = live.map(|obs| {
            let stop = server.stop_flag();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    obs.live_tick();
                    std::thread::sleep(Self::TICKER_POLL);
                }
            })
        });
        Ok(Self { server, ticker })
    }

    /// How often the live-telemetry ticker wakes (the history scrape
    /// itself is gated to [`LiveTelemetry::SCRAPE_INTERVAL`]; events
    /// move to the replay ring on every beat).
    const TICKER_POLL: Duration = Duration::from_millis(100);

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, shuts down open connections, and joins every
    /// thread. Open `/events` streams end at once; new connections are
    /// refused once the listener closes.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Some(ticker) = self.ticker {
            let _ = ticker.join();
        }
    }
}

/// Blocking one-shot GET against a running server, for tests and
/// smoke checks: returns `(status, body)`.
///
/// # Errors
///
/// Connection or protocol failures.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: grbac-obs\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = match raw.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_owned(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grbac_core::telemetry::{Span, SpanKind};

    /// Like [`get`] but with an arbitrary method and the raw response
    /// head preserved, so tests can assert on headers.
    fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
    ) -> std::io::Result<(u16, String, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: grbac-obs\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line")
            })?;
        let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
        Ok((status, head.to_owned(), body.to_owned()))
    }

    fn engine_with_policy() -> Arc<RwLock<Grbac>> {
        let mut g = Grbac::new();
        let child = g.declare_subject_role("child").unwrap();
        let toys = g.declare_object_role("toys").unwrap();
        let use_t = g.declare_transaction("use").unwrap();
        let bobby = g.declare_subject("bobby").unwrap();
        g.assign_subject_role(bobby, child).unwrap();
        let tv = g.declare_object("tv").unwrap();
        g.assign_object_role(tv, toys).unwrap();
        g.add_rule(
            grbac_core::RuleDef::permit()
                .subject_role(child)
                .object_role(toys)
                .transaction(use_t),
        )
        .unwrap();
        Arc::new(RwLock::new(g))
    }

    fn decide_once(engine: &Arc<RwLock<Grbac>>) {
        let g = engine.read().unwrap();
        let request = {
            let bobby = grbac_core::prelude::SubjectId::from_raw(0);
            let tv = grbac_core::prelude::ObjectId::from_raw(0);
            let use_t = grbac_core::prelude::TransactionId::from_raw(0);
            grbac_core::AccessRequest::by_subject(
                bobby,
                use_t,
                tv,
                grbac_core::EnvironmentSnapshot::new(),
            )
        };
        g.decide(&request).unwrap();
    }

    /// A peer that never ends its header line gets a 431 once the head
    /// passes the byte cap, and the server hangs up on it.
    #[test]
    fn endless_header_gets_431_and_a_closed_connection() {
        let server = ObsServer::serve(EngineObs::new(engine_with_policy()), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let head = format!("GET /metrics HTTP/1.1\r\nX-Pad: {}", "a".repeat(64 * 1024));
        // The server may hang up before it has read every byte.
        let _ = stream.write_all(head.as_bytes());
        let mut raw = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                // Closing with unread request bytes resets the connection.
                Err(err) => {
                    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset, "{err}");
                    break;
                }
            }
        }
        let raw = String::from_utf8_lossy(&raw);
        assert!(
            raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn routes_serve_and_shutdown_joins() {
        let engine = engine_with_policy();
        engine.read().unwrap().metrics().set_latency_sample_rate(1);
        decide_once(&engine);
        let server = ObsServer::serve(EngineObs::new(Arc::clone(&engine)), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, metrics) = get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(metrics.contains("grbac_decisions_permit_total"));

        let (status, json) = get(addr, "/metrics.json").unwrap();
        assert_eq!(status, 200);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("metrics.json parses");
        drop(parsed);

        let (status, health) = get(addr, "/health").unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"policy_score\""));
        assert!(health.contains("\"watchdog_installed\":false"));

        let (status, heat) = get(addr, "/heat").unwrap();
        assert_eq!(status, 200);
        let parsed: serde_json::Value = serde_json::from_str(&heat).expect("heat parses");
        drop(parsed);

        let (status, alerts) = get(addr, "/alerts").unwrap();
        assert_eq!(status, 200);
        assert_eq!(alerts, "[]");

        let (status, _) = get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/decision/zzz").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/decision/ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(status, 404);

        // Non-GET methods are refused with 405 and the RFC-required
        // `Allow` header, alongside the 400/404 cases above.
        for method in ["POST", "PUT", "DELETE", "HEAD"] {
            let (status, head, _) = request(addr, method, "/metrics").unwrap();
            assert_eq!(status, 405, "{method} must be refused");
            assert!(
                head.contains("Allow: GET"),
                "405 must carry `Allow: GET`, got: {head}"
            );
        }
        // GET itself never sees the Allow header.
        let (_, head, _) = request(addr, "GET", "/metrics").unwrap();
        assert!(!head.contains("Allow:"));

        // Without a span store attached, the trace routes 404 rather
        // than pretending an empty plane is a quiet one.
        let (status, _) = get(addr, "/traces").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/traces.json").unwrap();
        assert_eq!(status, 404);

        server.shutdown();
        assert!(
            get(addr, "/metrics").is_err() || get(addr, "/metrics").map(|r| r.0).unwrap_or(0) == 0,
            "the listener must be closed after shutdown"
        );
    }

    /// The trace routes over a hand-built trace: `/traces` lists the
    /// root (and filters by tenant/op/duration), `/trace/<id>` returns
    /// the assembled tree, `/traces.json` is OTLP-shaped, and bad
    /// inputs answer 400/404.
    #[test]
    fn trace_routes_serve_span_trees() {
        let engine = engine_with_policy();
        let spans = Arc::new(SpanStore::new());

        let trace_id = TraceId::from_parts(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
        let mut root = Span::start(trace_id, None, SpanKind::Server, "decide");
        root.tenant = Some("acme".to_owned());
        root.op = Some("decide".to_owned());
        let mut engine_child =
            Span::start(trace_id, Some(root.span_id), SpanKind::Engine, "decide");
        engine_child.finish();
        spans.record(engine_child);
        let mut queue_child =
            Span::start(trace_id, Some(root.span_id), SpanKind::Queue, "queue_wait");
        queue_child.finish();
        spans.record(queue_child);
        root.finish();
        spans.record(root);

        let obs = EngineObs::new(Arc::clone(&engine)).with_spans(Arc::clone(&spans));
        let server = ObsServer::serve(obs, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/traces").unwrap();
        assert_eq!(status, 200, "{body}");
        let listed: serde_json::Value = serde_json::from_str(&body).expect("traces parses");
        drop(listed);
        assert!(body.contains(&trace_id.to_string()));
        assert!(body.contains("\"total_recorded\":3"));

        // Filters: matching tenant+op keeps the root; a wrong tenant
        // filters it out; an absurd duration floor filters it out.
        let (_, body) = get(addr, "/traces?tenant=acme&op=decide").unwrap();
        assert!(body.contains(&trace_id.to_string()));
        let (_, body) = get(addr, "/traces?tenant=other").unwrap();
        assert!(!body.contains(&trace_id.to_string()));
        let (_, body) = get(addr, "/traces?min_duration_us=86400000000").unwrap();
        assert!(!body.contains(&trace_id.to_string()));
        let (status, _) = get(addr, "/traces?limit=zero").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/traces?min_duration_us=-3").unwrap();
        assert_eq!(status, 400);

        // The assembled tree: one root holding both children.
        let (status, body) = get(addr, &format!("/trace/{trace_id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let tree: serde_json::Value = serde_json::from_str(&body).expect("trace parses");
        drop(tree);
        assert!(body.contains("\"span_count\":3"));
        assert!(body.contains("queue_wait"));
        assert!(body.contains("\"kind\":\"engine\""));

        let (status, _) = get(addr, "/trace/zzz").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/trace/ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(status, 404);

        // OTLP export: resourceSpans shape with stringified nanos.
        let (status, body) = get(addr, "/traces.json").unwrap();
        assert_eq!(status, 200);
        let otlp: serde_json::Value = serde_json::from_str(&body).expect("otlp parses");
        drop(otlp);
        assert!(body.contains("resourceSpans"));
        assert!(body.contains("scopeSpans"));
        assert!(body.contains("startTimeUnixNano"));

        server.shutdown();
    }

    /// The acceptance-criterion round trip: a decision id scraped out
    /// of an exported exemplar on `/metrics` resolves via
    /// `/decision/<id>` to a recorder record, a replay diff, and an
    /// audit-row slot that agree structurally.
    #[test]
    fn exemplar_id_resolves_to_a_full_story() {
        if !grbac_core::telemetry::ENABLED {
            return;
        }
        let engine = engine_with_policy();
        engine.read().unwrap().metrics().set_latency_sample_rate(1);
        for _ in 0..4 {
            decide_once(&engine);
        }
        let server = ObsServer::serve(EngineObs::new(Arc::clone(&engine)), "127.0.0.1:0").unwrap();

        let (status, metrics) = get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        let hex = metrics
            .lines()
            .find_map(|line| {
                let (_, rest) = line.split_once("# {decision_id=\"")?;
                rest.split('"').next().map(str::to_owned)
            })
            .expect("a sampled decide must export at least one exemplar");
        let id: DecisionId = hex.parse().expect("exemplar ids are hex");
        assert!(id.is_assigned());

        let (status, story) = get(server.addr(), &format!("/decision/{hex}")).unwrap();
        assert_eq!(status, 200, "the exemplar id must resolve: {story}");
        let story: grbac_core::DecisionStory =
            serde_json::from_str(&story).expect("story deserializes");
        assert_eq!(story.decision_id, id);
        assert_eq!(story.record.decision_id, id);
        let replay = story.replay.as_ref().expect("same policy still replays");
        assert_eq!(replay.recorded_effect, story.record.effect);
        assert!(
            story.agrees(),
            "recorder, replay, and audit must agree structurally"
        );

        server.shutdown();
    }

    /// Opens `path` as an SSE stream (optionally resuming with
    /// `Last-Event-ID`) and reads raw bytes until `until` matches or
    /// the deadline passes. The connection is then dropped — which is
    /// exactly how real SSE clients leave.
    fn sse_read(
        addr: SocketAddr,
        path: &str,
        last_event_id: Option<u64>,
        until: &str,
        deadline: Duration,
    ) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let resume = match last_event_id {
            Some(id) => format!("Last-Event-ID: {id}\r\n"),
            None => String::new(),
        };
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: grbac-obs\r\nAccept: text/event-stream\r\n{resume}\r\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let started = std::time::Instant::now();
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(err)
                    if matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break,
            }
            let text = String::from_utf8_lossy(&raw);
            if text.contains(until) || started.elapsed() > deadline {
                break;
            }
        }
        String::from_utf8_lossy(&raw).into_owned()
    }

    /// Satellite: every route answers with the exact media type its
    /// consumers key on — Prometheus scrapers, JSON dashboards, and
    /// EventSource all sniff `Content-Type` strictly.
    #[test]
    fn header_conformance_across_all_routes() {
        let engine = engine_with_policy();
        let obs = EngineObs::new(Arc::clone(&engine))
            .with_spans(Arc::new(SpanStore::new()))
            .with_live_telemetry();
        let server = ObsServer::serve(obs, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let expectations = [
            ("/metrics", 200, "text/plain; version=0.0.4; charset=utf-8"),
            ("/metrics.json", 200, "application/json"),
            ("/health", 200, "application/json"),
            ("/heat", 200, "application/json"),
            ("/alerts", 200, "application/json"),
            ("/traces", 200, "application/json"),
            ("/traces.json", 200, "application/json"),
            ("/timeseries", 200, "application/json"),
            ("/dashboard", 200, "text/html; charset=utf-8"),
            ("/nope", 404, "text/plain; charset=utf-8"),
            ("/decision/zzz", 400, "text/plain; charset=utf-8"),
        ];
        for (path, want_status, want_type) in expectations {
            let (status, head, _) = request(addr, "GET", path).unwrap();
            assert_eq!(status, want_status, "{path}");
            assert!(
                head.contains(&format!("Content-Type: {want_type}")),
                "{path} must answer `{want_type}`, got: {head}"
            );
        }

        // The SSE stream: correct media type plus the no-store cache
        // directive (a cached event stream is a frozen dashboard).
        let raw = sse_read(addr, "/events", None, "\r\n\r\n", Duration::from_secs(3));
        assert!(
            raw.contains("Content-Type: text/event-stream"),
            "SSE head was: {raw}"
        );
        assert!(
            raw.contains("Cache-Control: no-store"),
            "SSE head was: {raw}"
        );

        server.shutdown();
    }

    /// The live tentpole round trip: decisions publish onto the bus,
    /// the plane's pump retains them, `/events` streams them as SSE
    /// frames, and a `Last-Event-ID` reconnect resumes past everything
    /// already seen.
    #[test]
    fn events_stream_delivers_and_resumes_by_seq() {
        let engine = engine_with_policy();
        let obs = EngineObs::new(Arc::clone(&engine)).with_live_telemetry();
        let server = ObsServer::serve(obs, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        for _ in 0..3 {
            decide_once(&engine);
        }
        if !grbac_core::telemetry::ENABLED {
            // No events exist under telemetry-off; the stream is just
            // a well-formed head (heartbeats only). Covered above.
            server.shutdown();
            return;
        }

        let raw = sse_read(addr, "/events", Some(0), "\ndata:", Duration::from_secs(5));
        assert!(raw.contains("\ndata:"), "no event frame arrived: {raw}");
        assert!(raw.contains("\"kind\""), "frames carry the event JSON");
        let max_seq = raw
            .lines()
            .filter_map(|line| line.strip_prefix("id: "))
            .filter_map(|seq| seq.trim().parse::<u64>().ok())
            .max()
            .expect("id: lines accompany every frame");

        // New decisions land after the cursor; a resumed stream must
        // start strictly past everything acknowledged.
        for _ in 0..2 {
            decide_once(&engine);
        }
        let resumed = sse_read(
            addr,
            "/events",
            Some(max_seq),
            "\ndata:",
            Duration::from_secs(5),
        );
        let first_resumed = resumed
            .lines()
            .filter_map(|line| line.strip_prefix("id: "))
            .filter_map(|seq| seq.trim().parse::<u64>().ok())
            .next()
            .expect("resumed stream must deliver the new events");
        assert!(
            first_resumed > max_seq,
            "resume replayed seq {first_resumed} <= cursor {max_seq}"
        );

        // A kind filter suppresses decision frames entirely; bad
        // filter values fail fast as one-shot 400s.
        let filtered = sse_read(
            addr,
            "/events?kinds=alert",
            Some(0),
            "never-matches",
            Duration::from_millis(600),
        );
        assert!(
            !filtered.contains("\"kind\":\"decision\""),
            "kind filter leaked: {filtered}"
        );
        let (status, _, _) = request(addr, "GET", "/events?kinds=bogus").unwrap();
        assert_eq!(status, 400);
        let (status, _, _) = request(addr, "GET", "/events?min_severity=loud").unwrap();
        assert_eq!(status, 400);

        server.shutdown();
    }

    /// `/timeseries` serves windowed series out of the scraped
    /// history; `/dashboard` is the self-contained page wired to both
    /// live routes. Without live telemetry all three routes 404.
    #[test]
    fn timeseries_and_dashboard_serve_live_plane() {
        let engine = engine_with_policy();
        let obs = EngineObs::new(Arc::clone(&engine)).with_live_telemetry();
        let live = Arc::clone(obs.live().expect("live telemetry attached"));
        let server = ObsServer::serve(obs.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // Drive two captures by hand (the background ticker is gated
        // to its real 500 ms cadence; tests shouldn't sleep for it).
        live.scrape(&engine);
        decide_once(&engine);
        live.scrape(&engine);

        let (status, body) = get(addr, "/timeseries").unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed: serde_json::Value = serde_json::from_str(&body).expect("timeseries parses");
        let series = parsed.get("series").expect("series object");
        for name in ["deny_rate_ppm", "decide_per_sec", "degraded_ppm"] {
            assert!(series.get(name).is_some(), "default series {name} missing");
        }
        let windows = match parsed.get("windows") {
            Some(serde_json::Value::UInt(n)) => *n,
            Some(serde_json::Value::Int(n)) => u64::try_from(*n).unwrap(),
            other => panic!("windows must be an unsigned count, got {other:?}"),
        };
        assert!(windows >= 1, "two captures must yield a window");

        let (status, body) = get(addr, "/timeseries?series=decide_per_sec&windows=4").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("decide_per_sec"));
        assert!(!body.contains("deny_rate_ppm"));
        let (status, _) = get(addr, "/timeseries?series=no_such_series").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/timeseries?windows=zero").unwrap();
        assert_eq!(status, 400);

        let (status, page) = get(addr, "/dashboard").unwrap();
        assert_eq!(status, 200);
        assert!(page.contains("EventSource"), "dashboard tails /events");
        assert!(page.contains("/timeseries"), "dashboard polls the series");
        assert!(!page.contains("http://"), "the page must be self-contained");

        server.shutdown();

        // A plane without live telemetry refuses the live routes.
        let bare = ObsServer::serve(EngineObs::new(Arc::clone(&engine)), "127.0.0.1:0").unwrap();
        for path in ["/timeseries", "/dashboard", "/events"] {
            let (status, _) = get(bare.addr(), path).unwrap();
            assert_eq!(status, 404, "{path} must 404 without live telemetry");
        }
        bare.shutdown();
    }
}

#[cfg(test)]
mod head_fuzz;
