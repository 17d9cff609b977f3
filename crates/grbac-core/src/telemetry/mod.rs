//! Mediation telemetry: metrics, decision tracing, and exporters.
//!
//! The paper's Aware Home assumes an always-on mediator serving a
//! chatty sensor network; a production engine needs a window into that
//! mediator beyond the bounded [`AuditLog`](crate::audit::AuditLog).
//! This module provides that window with zero external dependencies:
//!
//! * [`MetricsRegistry`] — lock-cheap atomic counters, gauges and
//!   fixed-bucket histograms covering the whole pipeline: decisions by
//!   effect, per-transaction rule hits, compiled-index rebuilds (count
//!   and nanoseconds), expansion-cache hits/misses, batch sizes, audit
//!   totals and evictions, and the environment-provider counters that
//!   `grbac-env` publishes into the same registry.
//! * [`DecisionTrace`] — a stage-by-stage span model of one mediation
//!   (subject-role expansion → object-role expansion → environment
//!   evaluation → rule candidate merge → precedence resolution) with
//!   per-stage timings and item counts, produced by
//!   [`Grbac::decide_traced`](crate::engine::Grbac::decide_traced).
//! * [`Span`] / [`SpanStore`] / [`TraceContext`] — wire-propagated
//!   request tracing: `traceparent`-style context parsed from (and
//!   echoed onto) the serve protocol, spans covering queue wait, lock
//!   acquisition and the engine call, collected in sharded
//!   [`BoundedRing`]s under a runtime sampling rate. Engine-call
//!   spans are stamped with the decision's
//!   [`DecisionId`](crate::id::DecisionId), joining traces to the
//!   flight-recorder/audit/exemplar evidence. Deliberately *not*
//!   compiled out by `telemetry-off` (propagation is a wire contract).
//! * [`QuantileSketch`] — a fixed-memory HDR-style streaming sketch
//!   giving p50/p95/p99 for end-to-end decide latency and for each of
//!   the five mediation stages, fed continuously by the sampled path
//!   (see [`MetricsRegistry::observe_trace`]) and exported as summary
//!   families.
//! * [`Exporter`] — renders a [`MetricsSnapshot`] as Prometheus text
//!   ([`PrometheusExporter`]) or JSON ([`JsonExporter`]); snapshots
//!   support [`delta`](MetricsSnapshot::delta) for diffing two points
//!   in time.
//! * [`RuleHeat`] — sharded per-rule heat counters (matches, wins by
//!   effect, last-fired generation) fed by every compiled decision;
//!   joined with the static [`analysis`](crate::analysis) report into
//!   a [`PolicyHealthReport`](crate::analysis::PolicyHealthReport).
//! * [`DecisionWatchdog`] — pull-model anomaly detection over the
//!   registry's decision-stream counters (deny rate, degraded rate,
//!   env-role flaps, staleness burn) with EWMA baselines and
//!   structured [`AlertRecord`]s.
//! * [`EventBus`] — the push plane: a bounded multi-subscriber
//!   broadcast of typed [`TelemetryEvent`]s (decisions with their
//!   effect and id, watchdog alerts, degraded-mode edges, policy-delta
//!   installs, completed spans) with one [`BoundedRing`] per
//!   subscriber, so `delivered + dropped == published` holds exactly,
//!   and a runtime kill switch. Publishing with nobody subscribed is a
//!   couple of relaxed loads.
//! * [`MetricsHistory`] — the time-series plane: a [`BoundedRing`] of
//!   periodic [`MetricsSnapshot`] deltas with windowed rate queries
//!   (deny rate, decide throughput, degraded ppm) feeding the obs
//!   server's `/timeseries` endpoint and dashboard sparklines.
//! * [`BoundedRing`] — the one drop-oldest ring every bounded sink
//!   above (and the flight recorder) keeps its evidence in, with exact
//!   `len + dropped + drained == pushed` accounting.
//!
//! Telemetry is **on by default and cheap**: every counter update is a
//! single relaxed atomic operation, decision latency is sampled (one
//! in [`MetricsRegistry::latency_sample_rate`] decisions — default
//! [`MetricsRegistry::DEFAULT_LATENCY_SAMPLE`], runtime-configurable —
//! pays for the clock reads and the stage trace), and the whole
//! subsystem compiles to no-ops under the `telemetry-off` feature.
//! Experiment E10 in EXPERIMENTS.md holds the default-on overhead
//! under 5% on the E5 1024-rule workload.

mod events;
mod export;
mod health;
mod heat;
mod history;
mod metrics;
mod ring;
mod sketch;
mod span;
mod trace;

pub use crate::delta::DeltaKind;
pub use events::{
    EventBus, EventData, EventFilter, EventKind, EventSubscription, Severity, TelemetryEvent,
};
pub use export::{Exporter, JsonExporter, PrometheusExporter};
pub use health::{AlertKind, AlertRecord, DecisionWatchdog, WatchdogConfig};
pub use heat::{RuleHeat, RuleHeatEntry, RuleHeatSnapshot};
pub use history::{HistoryWindow, MetricsHistory};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, KeyedCounter, KeyedSnapshot, MetricsRegistry,
    MetricsSnapshot, QuantileSnapshot, SummaryFamily,
};
pub use ring::BoundedRing;
pub use sketch::{Exemplar, QuantileSketch, SketchSnapshot};
pub use span::{
    assemble_trace, monotonic_nanos, otlp_value, unix_nanos_at, Span, SpanId, SpanKind, SpanStatus,
    SpanStore, SpanTree, TraceContext, TraceId,
};
pub use trace::{DecisionTrace, Stage, StageRecord};

pub(crate) use trace::{NoTrace, TraceCollector, TraceSink};

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// True when the crate was built with telemetry enabled (the default).
///
/// With the `telemetry-off` feature every counter, gauge and histogram
/// update compiles to a no-op and all readings stay zero; downstream
/// tests can branch on this constant instead of duplicating the
/// feature gate.
pub const ENABLED: bool = cfg!(not(feature = "telemetry-off"));

/// The calling thread's id, assigned on first use from a process-wide
/// counter and stable for the thread's life: the writer stamp of
/// recorded evidence and the shard a thread pins to.
pub(crate) fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Locks `mutex`, recovering the data from a poisoned lock: every
/// sink's state stays consistent between operations, so a panicking
/// holder leaves nothing half-written.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
