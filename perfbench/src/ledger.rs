//! Per-layer ledgers of a traced run, each timed from outside through
//! public calls: the engine's stages, its telemetry and provenance
//! sinks, its compiled index, and the policy service's request path.

use std::collections::HashSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use grbac_core::provenance::FlightRecorder;
use grbac_core::telemetry::{EventFilter, MetricsRegistry, SpanKind, SpanStore, Stage};
use grbac_core::{AccessRequest, Grbac};
use grbac_serve::{Client, PolicyService};

use crate::stats::{marginals, median, Histogram, Tally};

/// Stage-by-stage cost of one decide, from `decide_traced`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLedger {
    /// p50 of a plain `decide` call.
    pub decide_ns: f64,
    /// Mean ns per stage, in [`Stage::ALL`] order.
    pub stage_ns: [f64; 5],
    pub candidates_per_decide: f64,
    pub matched_per_decide: f64,
    /// Mean `decide_traced` wall time not covered by any stage: trace
    /// collection and the evidence sinks.
    pub record_ns: f64,
}

pub fn engine_ledger(
    engine: &RwLock<Grbac>,
    requests: &[AccessRequest],
    calls: usize,
) -> EngineLedger {
    let engine = engine.read().expect("engine lock poisoned");
    let mut plain = Histogram::default();
    for i in 0..calls {
        let request = &requests[i % requests.len()];
        let start = Instant::now();
        let decision = black_box(engine.decide(request));
        plain.record_duration(start.elapsed());
        decision.expect("decide");
    }
    let mut stage_ns = [0u64; 5];
    let (mut candidates, mut matched, mut unstaged) = (0u64, 0u64, 0u64);
    for i in 0..calls {
        let request = &requests[i % requests.len()];
        let start = Instant::now();
        let (_, trace) = engine.decide_traced(request).expect("decide_traced");
        let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut staged = 0;
        for record in &trace.stages {
            if let Some(slot) = Stage::ALL.iter().position(|&s| s == record.stage) {
                stage_ns[slot] += record.nanos;
            }
            staged += record.nanos;
            match record.stage {
                Stage::CandidateMerge => candidates += record.items,
                Stage::PrecedenceResolution => matched += record.items,
                _ => {}
            }
        }
        unstaged += wall.saturating_sub(staged);
    }
    let per_call = |total: u64| total as f64 / calls as f64;
    EngineLedger {
        decide_ns: plain.percentile(50.0).map_or(0.0, |p| p.ns),
        stage_ns: stage_ns.map(per_call),
        candidates_per_decide: per_call(candidates),
        matched_per_decide: per_call(matched),
        record_ns: per_call(unstaged),
    }
}

/// The stacked sink ledger rows, cheapest first: each row turns on one
/// more sink than the row before.
pub const SINK_ROWS: [&str; 5] = [
    "sinks.bare_ns",
    "sinks.recorder_ns",
    "sinks.heat_ns",
    "sinks.bus_ns",
    "sinks.latency_sample_ns",
];

/// Decides per ledger block, and blocks per row: short blocks of every
/// row interleave, so drift on the machine lands on all rows alike.
pub const SINK_CALLS: usize = 1_000;
pub const SINK_ROUNDS: usize = 40;

/// A sampling rate far past any run's decide count: sampling off in
/// effect, through the public setter.
const NEVER_SAMPLE: u64 = 1 << 40;

/// Sets the sinks of ledger row `row` through the engine's public
/// setters. Returns the bus subscription row 3 and above drain.
fn configure_sinks(
    engine: &mut Grbac,
    row: usize,
) -> Option<grbac_core::telemetry::EventSubscription> {
    engine.set_flight_recorder_capacity(if row >= 1 {
        FlightRecorder::DEFAULT_CAPACITY
    } else {
        0
    });
    let metrics = engine.metrics();
    metrics.rule_heat.set_enabled(row >= 2);
    metrics.events.set_enabled(row >= 3);
    metrics.set_latency_sample_rate(if row >= 4 {
        MetricsRegistry::DEFAULT_LATENCY_SAMPLE
    } else {
        NEVER_SAMPLE
    });
    (row >= 3).then(|| metrics.events.subscribe(4096, EventFilter::all()))
}

/// Mean ns per decide for each [`SINK_ROWS`] row (the median of
/// `rounds` interleaved rounds), then each row's marginal cost over
/// the row before. Leaves every sink at its default.
pub fn sink_ledger(
    engine: &RwLock<Grbac>,
    requests: &[AccessRequest],
    calls: usize,
    rounds: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut samples = vec![Vec::new(); SINK_ROWS.len()];
    for _ in 0..rounds {
        for (row, sample) in samples.iter_mut().enumerate() {
            let subscription =
                configure_sinks(&mut engine.write().expect("engine lock poisoned"), row);
            let guard = engine.read().expect("engine lock poisoned");
            let start = Instant::now();
            for i in 0..calls {
                black_box(guard.decide(&requests[i % requests.len()])).expect("decide");
                if let Some(subscription) = &subscription {
                    if i % 256 == 255 {
                        black_box(subscription.drain());
                    }
                }
            }
            sample.push(start.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    let rows: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let mut engine = engine.write().expect("engine lock poisoned");
    drop(configure_sinks(&mut engine, SINK_ROWS.len() - 1));
    let marginal = marginals(&rows);
    (rows, marginal)
}

/// Server-side stage costs read from a span store.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub tenant_map: Histogram,
    pub engine_lock: Histogram,
    pub engine_call: Histogram,
    /// Server spans of `add_rule`/`remove_rule` requests.
    pub edit: Histogram,
}

/// Folds a span store's retained spans into [`SpanStats`] as they
/// appear. The store is a bounded ring, so it is polled often; a span
/// in this poll but not the last one is new, since an evicted span
/// never comes back.
#[derive(Debug, Default)]
pub struct SpanCollector {
    previous: HashSet<u64>,
    pub stats: SpanStats,
}

impl SpanCollector {
    pub fn poll(&mut self, store: &SpanStore) {
        let snapshot = store.snapshot();
        let mut seen = HashSet::with_capacity(snapshot.len());
        for span in snapshot {
            seen.insert(span.seq);
            if self.previous.contains(&span.seq) {
                continue;
            }
            let histogram = match (span.kind, span.name.as_str()) {
                (SpanKind::Lock, "tenant_map") => &mut self.stats.tenant_map,
                (SpanKind::Lock, "engine_lock") => &mut self.stats.engine_lock,
                (SpanKind::Engine, "decide") => &mut self.stats.engine_call,
                (SpanKind::Server, "add_rule" | "remove_rule") => &mut self.stats.edit,
                _ => continue,
            };
            histogram.record(span.duration_ns());
        }
        self.previous = seen;
    }
}

/// The policy service's request path, measured in-process and over
/// loopback.
#[derive(Debug, Clone, Default)]
pub struct ServeLedger {
    /// p50 of `PolicyService::handle_line` on a decide line, spans off.
    pub handle_line_us: f64,
    /// `handle_line` p50 minus the p50s of its tenant-map, engine-lock
    /// and engine children: JSON parse, name resolution, serialize.
    pub codec_us: f64,
    /// Client round-trip p50 minus `handle_line_us`: the connection
    /// loop, the client and loopback.
    pub transport_us: f64,
    /// Spans recorded while every request was sampled.
    pub spans: SpanStats,
}

/// Replays `lines` (decide lines with their oracle effects) through
/// `service` three ways: `handle_line` with spans off, `handle_line`
/// with every request sampled, and client round trips to `addr` with
/// spans off. `edits` are `(add line, tenant)` pairs replayed, with
/// their removals, while sampled. Leaves the span store at its
/// defaults.
pub fn serve_ledger(
    service: &Arc<PolicyService>,
    addr: SocketAddr,
    lines: &[(String, bool)],
    edits: &[(String, String)],
    calls: usize,
    tally: &mut Tally,
) -> ServeLedger {
    let store = service.span_store();
    let check = |tally: &mut Tally, response: &str, permits: bool| {
        if response.contains("\"ok\":true") {
            tally.decision(response.contains("\"effect\":\"permit\""), permits);
        } else {
            tally.operation(false);
        }
    };

    store.set_enabled(false);
    let mut in_process = Histogram::default();
    for i in 0..calls {
        let (line, permits) = &lines[i % lines.len()];
        let start = Instant::now();
        let response = service.handle_line(line);
        in_process.record_duration(start.elapsed());
        check(tally, &response, *permits);
    }

    store.set_enabled(true);
    store.set_sample_rate(1);
    let mut collector = SpanCollector::default();
    collector.poll(store);
    collector.stats = SpanStats::default();
    for i in 0..calls {
        let (line, permits) = &lines[i % lines.len()];
        check(tally, &service.handle_line(line), *permits);
        if i % 64 == 63 {
            collector.poll(store);
        }
    }
    for (add, tenant) in edits {
        let added = service.handle_line(add);
        let removed = grbac_bench::serveload::parse_rule_id(&added).map(|rule| {
            service.handle_line(&grbac_bench::serveload::remove_rule_line(tenant, rule))
        });
        let ok = removed.is_some_and(|r| r.contains("\"removed\":true"));
        tally.operation(ok);
        collector.poll(store);
    }
    collector.poll(store);

    store.set_enabled(false);
    let mut round_trip = Histogram::default();
    match Client::connect(addr) {
        Ok(mut client) => {
            for i in 0..calls {
                let (line, permits) = &lines[i % lines.len()];
                let start = Instant::now();
                match client.request_line(line) {
                    Ok(response) => {
                        round_trip.record_duration(start.elapsed());
                        check(tally, &response, *permits);
                    }
                    Err(_) => tally.operation(false),
                }
            }
        }
        Err(_) => tally.operation(false),
    }
    store.set_enabled(true);
    store.set_sample_rate(SpanStore::DEFAULT_SAMPLE_RATE);

    let p50 = |h: &Histogram| h.percentile(50.0).map_or(0.0, |p| p.us());
    let handle_line_us = p50(&in_process);
    let spans = collector.stats;
    let children = p50(&spans.tenant_map) + p50(&spans.engine_lock) + p50(&spans.engine_call);
    ServeLedger {
        handle_line_us,
        codec_us: handle_line_us - children,
        transport_us: p50(&round_trip) - handle_line_us,
        spans,
    }
}

/// Index counters from the engine's public metrics registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexLedger {
    pub delta_applies: u64,
    pub full_rebuilds: u64,
    pub delta_apply_us_p50: f64,
    pub delta_apply_us_p99: f64,
}

pub fn index_ledger(engine: &Grbac) -> IndexLedger {
    let metrics = engine.metrics();
    let sketch = metrics.index_delta_apply_ns.snapshot();
    IndexLedger {
        delta_applies: metrics.index_delta_applied.snapshot().values().sum(),
        full_rebuilds: metrics.index_full_rebuilds.get(),
        delta_apply_us_p50: sketch.quantile(0.5) as f64 / 1_000.0,
        delta_apply_us_p99: sketch.quantile(0.99) as f64 / 1_000.0,
    }
}
