//! The push half of the observability plane: a bounded, multi-
//! subscriber broadcast bus of typed telemetry events.
//!
//! Every pull-based surface in this module family (metrics scrapes,
//! `/alerts` polls, trace dumps) tells an operator what happened *last
//! scrape interval*; the bus tells them what is happening **now**. The
//! engine publishes a [`TelemetryEvent`] at each interesting moment —
//! a decision resolving (with its effect and
//! [`DecisionId`](crate::id::DecisionId)), the watchdog raising an
//! [`AlertRecord`], degraded mode being entered or exited, a policy
//! delta landing in the compiled index, a request span completing —
//! and any number of subscribers consume them.
//!
//! The design holds three invariants:
//!
//! * **Publishing never blocks.** Each subscriber owns a
//!   [`BoundedRing`]; a slow consumer loses its own oldest events
//!   (counted, never silently) and affects nobody else. The publish
//!   path takes no lock a consumer can hold across a system call.
//! * **Accounting is exact.** Per subscriber,
//!   `delivered() + dropped() == published()` once the ring is fully
//!   drained — the ring's own `drained + dropped + len == pushed`
//!   invariant, read back.
//! * **Idle means free.** With no subscribers (or the runtime kill
//!   switch off, or the `telemetry-off` feature), a publish is one or
//!   two relaxed atomic loads and an early return — the decide path
//!   pays nothing for a plane nobody is watching.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use serde::Value;

use super::health::AlertRecord;
use super::span::monotonic_nanos;
use super::{lock, BoundedRing, ENABLED};
use crate::id::DecisionId;
use crate::rule::Effect;

/// The classes of event the bus carries, in dense slot order (the
/// `kind` label on `grbac_events_published_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A mediation resolved (permit or deny).
    Decision,
    /// The watchdog raised an anomaly alert.
    Alert,
    /// Decisions started carrying a degraded-mode annotation.
    DegradedEntered,
    /// Decisions stopped carrying a degraded-mode annotation.
    DegradedExited,
    /// A policy delta was installed into the compiled index.
    DeltaApplied,
    /// A request span completed.
    SpanCompleted,
}

impl EventKind {
    /// All kinds, in dense slot order.
    pub const ALL: [EventKind; 6] = [
        EventKind::Decision,
        EventKind::Alert,
        EventKind::DegradedEntered,
        EventKind::DegradedExited,
        EventKind::DeltaApplied,
        EventKind::SpanCompleted,
    ];

    /// Stable snake_case name (the wire spelling in event frames and
    /// the `kind` metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Decision => "decision",
            EventKind::Alert => "alert",
            EventKind::DegradedEntered => "degraded_entered",
            EventKind::DegradedExited => "degraded_exited",
            EventKind::DeltaApplied => "delta_applied",
            EventKind::SpanCompleted => "span_completed",
        }
    }

    /// The dense slot this kind occupies in keyed counters.
    #[must_use]
    pub fn slot(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u64
    }

    /// The kind for a dense slot, if in range.
    #[must_use]
    pub fn from_slot(slot: u64) -> Option<EventKind> {
        Self::ALL.get(slot as usize).copied()
    }

    /// Parses a wire spelling back into a kind.
    #[must_use]
    pub fn from_name(name: &str) -> Option<EventKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// How urgent an event is; filters compare with `>=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine traffic: decisions, spans, delta installs.
    #[default]
    Info,
    /// The engine's posture changed: degraded mode entered or exited.
    Warning,
    /// An anomaly alert fired.
    Critical,
}

impl Severity {
    /// All severities, ascending.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Stable snake_case name (the wire spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parses a wire spelling back into a severity.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Severity> {
        Self::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// The typed payload of one event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// A mediation resolved.
    Decision {
        /// The minted decision id (joins to audit/flight-recorder
        /// evidence and `/decision/<id>`).
        id: DecisionId,
        /// Permit or deny.
        effect: Effect,
        /// Whether the decision carried a degraded-mode annotation.
        degraded: bool,
    },
    /// The watchdog raised an alert.
    Alert(AlertRecord),
    /// Decisions started resolving in degraded mode.
    DegradedEntered {
        /// The first degraded decision of the episode.
        id: DecisionId,
    },
    /// Decisions stopped resolving in degraded mode.
    DegradedExited {
        /// The first healthy decision after the episode.
        id: DecisionId,
    },
    /// A policy delta was installed into the compiled index.
    DeltaApplied {
        /// The policy generation the index advanced to.
        generation: u64,
        /// True when the install patched shards in place; false when
        /// it fell back to a from-scratch rebuild.
        patched: bool,
        /// How long the install took (planning plus patching or the
        /// full rebuild), in nanoseconds.
        install_ns: u64,
    },
    /// A request span completed.
    SpanCompleted {
        /// The span's operation name (e.g. `decide`).
        name: String,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
}

/// One event as broadcast: a bus-assigned sequence number, a capture
/// timestamp, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Bus-assigned sequence number, 1-based and strictly increasing
    /// per bus. Stream resume cursors (`Last-Event-ID`) speak seqs.
    pub seq: u64,
    /// Monotonic capture time in nanoseconds (same clock as
    /// [`monotonic_nanos`]).
    pub nanos: u64,
    /// The typed payload.
    pub data: EventData,
}

impl TelemetryEvent {
    /// The event's kind (derived from the payload).
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self.data {
            EventData::Decision { .. } => EventKind::Decision,
            EventData::Alert(_) => EventKind::Alert,
            EventData::DegradedEntered { .. } => EventKind::DegradedEntered,
            EventData::DegradedExited { .. } => EventKind::DegradedExited,
            EventData::DeltaApplied { .. } => EventKind::DeltaApplied,
            EventData::SpanCompleted { .. } => EventKind::SpanCompleted,
        }
    }

    /// The event's severity (derived from the payload).
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self.data {
            EventData::Decision { .. }
            | EventData::DeltaApplied { .. }
            | EventData::SpanCompleted { .. } => Severity::Info,
            EventData::DegradedEntered { .. } | EventData::DegradedExited { .. } => {
                Severity::Warning
            }
            EventData::Alert(_) => Severity::Critical,
        }
    }

    /// Renders the event as a flat JSON object — the shape streamed
    /// on the serve protocol's event frames and the obs plane's SSE
    /// `data:` lines.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("seq".to_owned(), Value::UInt(self.seq)),
            ("kind".to_owned(), Value::Str(self.kind().name().to_owned())),
            (
                "severity".to_owned(),
                Value::Str(self.severity().name().to_owned()),
            ),
            ("nanos".to_owned(), Value::UInt(self.nanos)),
        ];
        match &self.data {
            EventData::Decision {
                id,
                effect,
                degraded,
            } => {
                pairs.push(("decision_id".to_owned(), Value::Str(id.to_string())));
                pairs.push(("effect".to_owned(), Value::Str(effect.to_string())));
                pairs.push(("degraded".to_owned(), Value::Bool(*degraded)));
            }
            EventData::Alert(record) => {
                pairs.push((
                    "alert_kind".to_owned(),
                    Value::Str(record.kind.name().to_owned()),
                ));
                pairs.push(("alert_seq".to_owned(), Value::UInt(record.seq)));
                pairs.push(("tick".to_owned(), Value::UInt(record.tick)));
                pairs.push(("observed".to_owned(), Value::Float(record.observed)));
                pairs.push(("baseline".to_owned(), Value::Float(record.baseline)));
                pairs.push(("deviation".to_owned(), Value::Float(record.deviation)));
                pairs.push(("window".to_owned(), Value::UInt(record.window)));
                pairs.push((
                    "decision_ids".to_owned(),
                    Value::Seq(
                        record
                            .decision_ids
                            .iter()
                            .map(|id| Value::Str(id.to_string()))
                            .collect(),
                    ),
                ));
            }
            EventData::DegradedEntered { id } | EventData::DegradedExited { id } => {
                pairs.push(("decision_id".to_owned(), Value::Str(id.to_string())));
            }
            EventData::DeltaApplied {
                generation,
                patched,
                install_ns,
            } => {
                pairs.push(("generation".to_owned(), Value::UInt(*generation)));
                pairs.push((
                    "mode".to_owned(),
                    Value::Str(if *patched { "patched" } else { "rebuilt" }.to_owned()),
                ));
                pairs.push(("install_ns".to_owned(), Value::UInt(*install_ns)));
            }
            EventData::SpanCompleted { name, nanos } => {
                pairs.push(("name".to_owned(), Value::Str(name.clone())));
                pairs.push(("span_nanos".to_owned(), Value::UInt(*nanos)));
            }
        }
        Value::Map(pairs)
    }
}

/// What a subscriber wants to see: a kind mask plus a severity floor.
///
/// The default filter passes everything. Calling [`Self::kind`]
/// switches from "all kinds" to "only the kinds named so far".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter {
    /// Bitmask over [`EventKind`] slots; 0 means "all kinds".
    kinds: u32,
    /// Events below this severity are filtered out.
    min_severity: Severity,
}

impl Default for EventFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl EventFilter {
    /// A filter that passes every event.
    #[must_use]
    pub const fn all() -> Self {
        Self {
            kinds: 0,
            min_severity: Severity::Info,
        }
    }

    /// Restricts the filter to `kind` (additive across calls).
    #[must_use]
    pub fn kind(mut self, kind: EventKind) -> Self {
        self.kinds |= 1 << kind.slot();
        self
    }

    /// Raises the severity floor.
    #[must_use]
    pub fn min_severity(mut self, severity: Severity) -> Self {
        self.min_severity = severity;
        self
    }

    /// Whether `event` passes the filter.
    #[must_use]
    pub fn matches(&self, event: &TelemetryEvent) -> bool {
        (self.kinds == 0 || self.kinds & (1 << event.kind().slot()) != 0)
            && event.severity() >= self.min_severity
    }
}

/// One subscriber's shared state: its filter and its ring, whose
/// counters are the subscriber's accounting.
#[derive(Debug)]
struct SubscriberState {
    id: u64,
    filter: EventFilter,
    ring: Mutex<BoundedRing<Arc<TelemetryEvent>>>,
}

/// The interior shared between the bus and its subscription handles.
#[derive(Debug)]
struct BusShared {
    enabled: AtomicBool,
    seq: AtomicU64,
    subscriber_count: AtomicU64,
    next_subscriber: AtomicU64,
    published_by_kind: [AtomicU64; EventKind::ALL.len()],
    dropped: AtomicU64,
    degraded: AtomicBool,
    subscribers: RwLock<Vec<Arc<SubscriberState>>>,
    /// Held by a broadcast from its `seq` draw to its last ring push,
    /// so racing publishers fill every ring in `seq` order.
    publishing: Mutex<()>,
}

/// The broadcast bus. One lives on every
/// [`MetricsRegistry`](super::MetricsRegistry) (field `events`), so
/// every layer that can reach the registry can publish or subscribe.
#[derive(Debug, Clone)]
pub struct EventBus {
    shared: Arc<BusShared>,
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBus {
    /// Default per-subscriber ring capacity for callers with no
    /// stronger opinion.
    pub const DEFAULT_CAPACITY: usize = 1_024;

    /// A fresh bus: enabled, no subscribers, sequence at zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shared: Arc::new(BusShared {
                enabled: AtomicBool::new(true),
                seq: AtomicU64::new(0),
                subscriber_count: AtomicU64::new(0),
                next_subscriber: AtomicU64::new(0),
                published_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
                dropped: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                subscribers: RwLock::new(Vec::new()),
                publishing: Mutex::new(()),
            }),
        }
    }

    /// The runtime kill switch. While disabled every publish is an
    /// early return; subscriptions stay registered but receive
    /// nothing. Always reads false under `telemetry-off`.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        ENABLED && self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Flips the runtime kill switch.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Active subscriptions right now.
    #[must_use]
    pub fn subscriber_count(&self) -> u64 {
        self.shared.subscriber_count.load(Ordering::Relaxed)
    }

    /// The sequence number of the most recently broadcast event (0
    /// before the first).
    #[must_use]
    pub fn current_seq(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }

    /// Events broadcast so far for `kind` (feeds the
    /// `grbac_events_published_total{kind}` series).
    #[must_use]
    pub fn published_total(&self, kind: EventKind) -> u64 {
        self.shared.published_by_kind[kind.slot() as usize].load(Ordering::Relaxed)
    }

    /// Ring evictions across all subscribers, ever (feeds
    /// `grbac_events_dropped_total`). Survives unsubscribes, unlike
    /// the per-subscription [`EventSubscription::dropped`] reading.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Registers a subscriber with a drop-oldest ring of `capacity`
    /// events (clamped to at least 1) behind `filter`. The
    /// subscription unregisters itself on drop.
    #[must_use]
    pub fn subscribe(&self, capacity: usize, filter: EventFilter) -> EventSubscription {
        let state = Arc::new(SubscriberState {
            id: self.shared.next_subscriber.fetch_add(1, Ordering::Relaxed) + 1,
            filter,
            ring: Mutex::new(BoundedRing::new(capacity.max(1))),
        });
        self.shared
            .subscribers
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(state.clone());
        self.shared.subscriber_count.fetch_add(1, Ordering::Relaxed);
        EventSubscription {
            shared: self.shared.clone(),
            state,
        }
    }

    /// Broadcasts one event. With the kill switch off, `telemetry-off`
    /// compiled in, or nobody subscribed, this is a couple of relaxed
    /// loads and an early return; it never blocks on a consumer.
    pub fn publish(&self, data: EventData) {
        if self.skip() {
            return;
        }
        self.broadcast(data);
    }

    /// Publishes a decision event, plus a degraded-mode
    /// entered/exited event whenever this decision's degraded flag
    /// differs from the previous decision's — the engine's decide
    /// paths call this one helper instead of edge-detecting
    /// themselves.
    pub fn publish_decision(&self, id: DecisionId, effect: Effect, degraded: bool) {
        if self.skip() {
            return;
        }
        let was = self.shared.degraded.swap(degraded, Ordering::Relaxed);
        if degraded && !was {
            self.broadcast(EventData::DegradedEntered { id });
        } else if !degraded && was {
            self.broadcast(EventData::DegradedExited { id });
        }
        self.broadcast(EventData::Decision {
            id,
            effect,
            degraded,
        });
    }

    /// The publish fast path: true when nothing would be delivered.
    fn skip(&self) -> bool {
        !ENABLED
            || !self.shared.enabled.load(Ordering::Relaxed)
            || self.shared.subscriber_count.load(Ordering::Relaxed) == 0
    }

    fn broadcast(&self, data: EventData) {
        let _in_order = self
            .shared
            .publishing
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Arc::new(TelemetryEvent {
            seq,
            nanos: monotonic_nanos(),
            data,
        });
        self.shared.published_by_kind[event.kind().slot() as usize].fetch_add(1, Ordering::Relaxed);
        let subscribers = self
            .shared
            .subscribers
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for subscriber in subscribers.iter() {
            if !subscriber.filter.matches(&event) {
                continue;
            }
            let mut ring = lock(&subscriber.ring);
            if ring.is_full() {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push(event.clone());
        }
    }
}

/// A live subscription: drains its ring, reads its exact accounting,
/// and unregisters itself on drop.
#[derive(Debug)]
pub struct EventSubscription {
    shared: Arc<BusShared>,
    state: Arc<SubscriberState>,
}

impl EventSubscription {
    /// A bus-unique subscription id (1-based).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The filter this subscription was registered with.
    #[must_use]
    pub fn filter(&self) -> EventFilter {
        self.state.filter
    }

    /// Takes every event currently buffered, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<Arc<TelemetryEvent>> {
        lock(&self.state.ring).drain().collect()
    }

    /// Events currently buffered (published, not yet drained or
    /// dropped).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.state.ring).len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that passed this subscription's filter and were offered
    /// to its ring.
    #[must_use]
    pub fn published(&self) -> u64 {
        lock(&self.state.ring).pushed()
    }

    /// Events handed to the consumer by [`Self::drain`].
    #[must_use]
    pub fn delivered(&self) -> u64 {
        lock(&self.state.ring).drained()
    }

    /// Events evicted from the ring before the consumer drained them.
    /// At quiescence after a full drain,
    /// `delivered() + dropped() == published()`.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock(&self.state.ring).dropped()
    }
}

impl Drop for EventSubscription {
    fn drop(&mut self) {
        let mut subscribers = self
            .shared
            .subscribers
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(index) = subscribers.iter().position(|s| Arc::ptr_eq(s, &self.state)) {
            subscribers.swap_remove(index);
            self.shared.subscriber_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(seq: u64) -> EventData {
        EventData::Decision {
            id: DecisionId::from_parts(1, seq),
            effect: Effect::Permit,
            degraded: false,
        }
    }

    #[test]
    fn publish_without_subscribers_is_a_no_op() {
        let bus = EventBus::new();
        bus.publish(decision(1));
        assert_eq!(bus.current_seq(), 0);
        assert_eq!(bus.published_total(EventKind::Decision), 0);
    }

    #[test]
    fn events_fan_out_to_every_matching_subscriber() {
        let bus = EventBus::new();
        let everything = bus.subscribe(8, EventFilter::all());
        let alerts_only = bus.subscribe(8, EventFilter::all().kind(EventKind::Alert));
        let critical_only = bus.subscribe(8, EventFilter::all().min_severity(Severity::Critical));
        bus.publish(decision(1));
        bus.publish(EventData::DeltaApplied {
            generation: 2,
            patched: true,
            install_ns: 1,
        });
        if !ENABLED {
            assert!(everything.drain().is_empty());
            return;
        }
        assert_eq!(everything.drain().len(), 2);
        assert_eq!(alerts_only.published(), 0);
        assert_eq!(critical_only.published(), 0);
        assert_eq!(bus.published_total(EventKind::Decision), 1);
        assert_eq!(bus.published_total(EventKind::DeltaApplied), 1);
        // Seqs are bus-global and strictly increasing.
        bus.publish(decision(2));
        let events = everything.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 3);
    }

    #[test]
    fn slow_subscribers_drop_oldest_with_exact_accounting() {
        let bus = EventBus::new();
        let slow = bus.subscribe(4, EventFilter::all());
        for seq in 1..=10 {
            bus.publish(decision(seq));
        }
        if !ENABLED {
            return;
        }
        assert_eq!(slow.published(), 10);
        assert_eq!(slow.dropped(), 6);
        let events = slow.drain();
        assert_eq!(events.len(), 4);
        // Drop-oldest: the newest four survive.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(slow.delivered() + slow.dropped(), slow.published());
        assert_eq!(bus.dropped_total(), 6);
    }

    #[test]
    fn kill_switch_silences_the_bus() {
        let bus = EventBus::new();
        let sub = bus.subscribe(8, EventFilter::all());
        bus.set_enabled(false);
        assert!(!bus.is_enabled());
        bus.publish(decision(1));
        assert_eq!(sub.published(), 0);
        bus.set_enabled(true);
        bus.publish(decision(2));
        if ENABLED {
            assert_eq!(sub.published(), 1);
        }
    }

    #[test]
    fn unsubscribe_on_drop_restores_the_fast_path() {
        let bus = EventBus::new();
        let sub = bus.subscribe(8, EventFilter::all());
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        bus.publish(decision(1));
        assert_eq!(bus.current_seq(), 0, "no broadcast without subscribers");
    }

    #[test]
    fn degraded_edges_are_published_once_per_transition() {
        let bus = EventBus::new();
        let sub = bus.subscribe(32, EventFilter::all());
        let id = |seq| DecisionId::from_parts(1, seq);
        bus.publish_decision(id(1), Effect::Permit, false);
        bus.publish_decision(id(2), Effect::Permit, true);
        bus.publish_decision(id(3), Effect::Deny, true);
        bus.publish_decision(id(4), Effect::Permit, false);
        if !ENABLED {
            return;
        }
        let kinds: Vec<_> = sub.drain().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Decision,
                EventKind::DegradedEntered,
                EventKind::Decision,
                EventKind::Decision,
                EventKind::DegradedExited,
                EventKind::Decision,
            ]
        );
    }

    #[test]
    fn event_frames_render_flat_json() {
        let event = TelemetryEvent {
            seq: 9,
            nanos: 123,
            data: EventData::Decision {
                id: DecisionId::from_parts(1, 2),
                effect: Effect::Deny,
                degraded: true,
            },
        };
        let value = event.to_value();
        assert_eq!(value.get("seq"), Some(&Value::UInt(9)));
        assert_eq!(value.get("kind"), Some(&Value::Str("decision".to_owned())));
        assert_eq!(value.get("effect"), Some(&Value::Str("deny".to_owned())));
        assert_eq!(value.get("degraded"), Some(&Value::Bool(true)));
        assert_eq!(value.get("severity"), Some(&Value::Str("info".to_owned())));
    }

    #[test]
    fn kinds_and_severities_round_trip_their_names() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
            assert_eq!(EventKind::from_slot(kind.slot()), Some(kind));
        }
        for severity in Severity::ALL {
            assert_eq!(Severity::from_name(severity.name()), Some(severity));
        }
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
