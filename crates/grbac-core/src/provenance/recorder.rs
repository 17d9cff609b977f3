//! The decision flight recorder: a bounded, concurrent ring of
//! [`ProvenanceRecord`]s.
//!
//! The recorder keeps the newest `capacity` records in one
//! [`BoundedRing`] behind a `Mutex`, with drop-oldest eviction and the
//! ring's exact loss count. The global sequence number is the ring's
//! push ticket, assigned under the lock, so push order, `seq` order
//! and snapshot order are one order.
//!
//! Each record also carries a per-writer sequence number: every thread
//! that ever records is assigned a writer id, and its records are
//! stamped from a counter private to that writer. A snapshot can
//! therefore be audited for tears — per writer, the retained
//! `writer_seq` values must be strictly increasing in global-sequence
//! order — which the `prop_recorder` suite checks under concurrent
//! `check_batch` writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::degraded::{DegradedReason, EnvHealth};
use crate::engine::Actor;
use crate::environment::EnvironmentSnapshot;
use crate::id::{DecisionId, ObjectId, RoleId, RuleId, SubjectId, TransactionId};
use crate::rule::Effect;
use crate::telemetry::{lock, thread_id, BoundedRing};

/// Distinct per-writer sequence counters; writer ids beyond this share
/// a counter (the per-writer monotonicity guarantee still holds, the
/// sequences just interleave).
const MAX_WRITERS: usize = 128;

/// A stable fingerprint of an environment snapshot: FNV-1a over the
/// sorted directly-active role ids. Two snapshots hash equal iff their
/// active sets are equal, so forensic queries can group decisions by
/// environment state without storing the full set twice.
#[must_use]
pub fn env_fingerprint(environment: &EnvironmentSnapshot) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for role in environment.active() {
        for byte in role.as_raw().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Everything needed to answer "why was this granted at 3am?" after the
/// fact: the request triple, what matched, under which policy
/// generation and environment state, and — when the decision was
/// latency-sampled or explicitly traced — where the nanoseconds went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Global sequence number (the recorder ring's push ticket; never
    /// reused, survives drop-oldest eviction).
    pub seq: u64,
    /// The writer (producer thread) that recorded this decision.
    pub writer: u32,
    /// This writer's private sequence number (strictly increasing per
    /// writer).
    pub writer_seq: u64,
    /// The correlation id minted for the decision (unassigned only on
    /// records deserialized from captures older than the id scheme).
    #[serde(default)]
    pub decision_id: DecisionId,
    /// The requester exactly as mediated (sessions, trusted subjects
    /// and sensed contexts alike), so the request can be rebuilt.
    pub actor: Actor,
    /// The requested transaction.
    pub transaction: TransactionId,
    /// The target object.
    pub object: ObjectId,
    /// Caller-supplied timestamp (virtual seconds), when present.
    pub timestamp: Option<u64>,
    /// The directly-active environment roles attached to the request.
    pub env_roles: Vec<RoleId>,
    /// [`env_fingerprint`] of the request's environment snapshot.
    pub env_hash: u64,
    /// Freshness of the environment snapshot as mediated.
    pub env_health: EnvHealth,
    /// The engine's role-closure generation at decision time (bumped by
    /// every decision-relevant mutation; keys the compiled index).
    pub generation: u64,
    /// The outcome.
    pub effect: Effect,
    /// The rule that carried the decision, if any.
    pub winning_rule: Option<RuleId>,
    /// Every rule that matched, in policy order.
    pub matched_rules: Vec<RuleId>,
    /// Size of the hierarchy-expanded subject role closure.
    pub subject_role_count: u32,
    /// Why the decision ran degraded, if it did.
    pub degraded: Option<DegradedReason>,
    /// Per-stage wall-clock nanoseconds in [`Stage::ALL`] order, when
    /// the decision was latency-sampled or traced.
    ///
    /// [`Stage::ALL`]: crate::telemetry::Stage::ALL
    pub stage_nanos: Option<[u64; 5]>,
    /// End-to-end wall-clock nanoseconds, when sampled or traced.
    pub total_nanos: Option<u64>,
}

impl ProvenanceRecord {
    /// A record with empty buffers, for [`FlightRecorder::record_with`]
    /// to fill while the ring has room.
    fn blank() -> Self {
        Self {
            seq: 0,
            writer: 0,
            writer_seq: 0,
            decision_id: DecisionId::UNASSIGNED,
            actor: Actor::Subject(SubjectId::from_raw(0)),
            transaction: TransactionId::from_raw(0),
            object: ObjectId::from_raw(0),
            timestamp: None,
            env_roles: Vec::new(),
            env_hash: 0,
            env_health: EnvHealth::Fresh,
            generation: 0,
            effect: Effect::Deny,
            winning_rule: None,
            matched_rules: Vec::new(),
            subject_role_count: 0,
            degraded: None,
            stage_nanos: None,
            total_nanos: None,
        }
    }

    /// The requesting subject, when the actor identifies one directly
    /// (trusted subjects and sensed contexts with an identity; open
    /// sessions would need the session table of the recording engine).
    #[must_use]
    pub fn subject(&self) -> Option<SubjectId> {
        match &self.actor {
            Actor::Subject(subject) => Some(*subject),
            Actor::Sensed(context) => context.identity().map(|(subject, _)| subject),
            Actor::Session(_) => None,
        }
    }

    /// True when the record carries stage timings.
    #[must_use]
    pub fn is_traced(&self) -> bool {
        self.stage_nanos.is_some()
    }
}

/// A bounded multi-producer ring buffer of [`ProvenanceRecord`]s with
/// drop-oldest semantics.
///
/// One [`BoundedRing`] behind a `Mutex`; a record's `seq` is its push
/// ticket. A capacity of zero disables recording entirely
/// ([`record`](Self::record) returns `None` without touching any
/// state).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<BoundedRing<ProvenanceRecord>>,
    writer_seqs: Vec<AtomicU64>,
}

impl FlightRecorder {
    /// Default retention when none is specified (matches the audit
    /// log's default).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder retaining the most recent `capacity` records;
    /// non-zero capacities are rounded up to the next power of two.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        Self {
            capacity,
            ring: Mutex::new(BoundedRing::new(capacity)),
            writer_seqs: (0..MAX_WRITERS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Creates a recorder with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// True when the recorder retains anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Retention capacity (0 when disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a decision, overwriting the oldest record once the ring
    /// is full. The record's `seq`, `writer` and `writer_seq` fields
    /// are assigned here. Returns the assigned global sequence number,
    /// or `None` when the recorder is disabled.
    pub fn record(&self, record: ProvenanceRecord) -> Option<u64> {
        self.record_with(|slot| *slot = record)
    }

    /// Records a decision that `fill` writes into a record slot: the
    /// record the ring evicts once it is full, so its buffers and actor
    /// are reused, or a new one while the ring has room. `fill` must
    /// set every field except `seq`, `writer` and `writer_seq`, which
    /// are assigned here, and runs under the ring's lock. Returns what
    /// [`Self::record`] returns.
    pub(crate) fn record_with(&self, fill: impl FnOnce(&mut ProvenanceRecord)) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let writer = thread_id();
        let mut ring = lock(&self.ring);
        // Every writer advances its counter under the ring lock, so a
        // load and a store do what a read-modify-write would.
        let counter = &self.writer_seqs[writer as usize % MAX_WRITERS];
        let writer_seq = counter.load(Ordering::Relaxed);
        counter.store(writer_seq + 1, Ordering::Relaxed);
        let seq = ring.pushed();
        Some(ring.push_with(ProvenanceRecord::blank, |record| {
            fill(record);
            record.seq = seq;
            record.writer = writer;
            record.writer_seq = writer_seq;
        }))
    }

    /// Decisions ever recorded (including dropped ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        lock(&self.ring).pushed()
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    /// True when nothing has been recorded (or retention is disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped by the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock(&self.ring).dropped()
    }

    /// A point-in-time copy of the retained records, oldest first: a
    /// contiguous `seq` range ending at the newest record.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ProvenanceRecord> {
        self.latest(usize::MAX)
    }

    /// The most recent `n` retained records, oldest first.
    #[must_use]
    pub fn latest(&self, n: usize) -> Vec<ProvenanceRecord> {
        let ring = lock(&self.ring);
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// The retained record carrying `decision_id`, if any — the
    /// recorder leg of a `/decision/<id>` correlation lookup. A linear
    /// scan by reference that clones only the hit (the ring is small
    /// and bounded; correlation lookups are operator-paced, not
    /// decide-paced).
    #[must_use]
    pub fn find(&self, decision_id: DecisionId) -> Option<ProvenanceRecord> {
        if !decision_id.is_assigned() {
            return None;
        }
        lock(&self.ring)
            .iter()
            .find(|record| record.decision_id == decision_id)
            .cloned()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            seq: 0,
            writer: 0,
            writer_seq: 0,
            decision_id: DecisionId::from_parts(9, n + 1),
            actor: Actor::Subject(SubjectId::from_raw(n)),
            transaction: TransactionId::from_raw(0),
            object: ObjectId::from_raw(n),
            timestamp: Some(n),
            env_roles: vec![RoleId::from_raw(1)],
            env_hash: 7,
            env_health: EnvHealth::Fresh,
            generation: 3,
            effect: Effect::Permit,
            winning_rule: Some(RuleId::from_raw(0)),
            matched_rules: vec![RuleId::from_raw(0)],
            subject_role_count: 2,
            degraded: None,
            stage_nanos: None,
            total_nanos: None,
        }
    }

    #[test]
    fn retains_the_most_recent_capacity_records() {
        let recorder = FlightRecorder::with_capacity(4);
        for n in 0..10 {
            recorder.record(sample(n));
        }
        assert_eq!(recorder.total_recorded(), 10);
        assert_eq!(recorder.len(), 4);
        assert_eq!(recorder.dropped(), 6);
        let seqs: Vec<u64> = recorder.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn writer_sequences_increase_per_writer() {
        let recorder = FlightRecorder::with_capacity(8);
        for n in 0..5 {
            recorder.record(sample(n));
        }
        let records = recorder.snapshot();
        // Single-threaded: one writer, whose private sequence advances
        // in lockstep with the global one.
        let writer = records[0].writer;
        for window in records.windows(2) {
            assert_eq!(window[1].writer, writer);
            assert_eq!(window[1].writer_seq, window[0].writer_seq + 1);
        }
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let recorder = FlightRecorder::with_capacity(0);
        assert!(!recorder.is_enabled());
        assert_eq!(recorder.record(sample(0)), None);
        assert_eq!(recorder.total_recorded(), 0);
        assert!(recorder.snapshot().is_empty());
        assert!(recorder.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::with_capacity(5).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(4096).capacity(), 4096);
    }

    #[test]
    fn latest_returns_the_tail() {
        let recorder = FlightRecorder::with_capacity(8);
        for n in 0..6 {
            recorder.record(sample(n));
        }
        let tail: Vec<u64> = recorder.latest(2).iter().map(|r| r.seq).collect();
        assert_eq!(tail, vec![4, 5]);
    }

    #[test]
    fn find_resolves_retained_decision_ids_only() {
        let recorder = FlightRecorder::with_capacity(4);
        for n in 0..6 {
            recorder.record(sample(n));
        }
        // n = 5 is retained; n = 0 was evicted by drop-oldest.
        let hit = recorder
            .find(DecisionId::from_parts(9, 6))
            .expect("retained");
        assert_eq!(hit.object, ObjectId::from_raw(5));
        assert!(recorder.find(DecisionId::from_parts(9, 1)).is_none());
        assert!(recorder.find(DecisionId::UNASSIGNED).is_none());
    }

    #[test]
    fn fingerprint_depends_only_on_the_active_set() {
        let a = EnvironmentSnapshot::from_active([RoleId::from_raw(1), RoleId::from_raw(2)]);
        let b = EnvironmentSnapshot::from_active([RoleId::from_raw(2), RoleId::from_raw(1)]);
        let c = EnvironmentSnapshot::from_active([RoleId::from_raw(3)]);
        assert_eq!(env_fingerprint(&a), env_fingerprint(&b));
        assert_ne!(env_fingerprint(&a), env_fingerprint(&c));
        assert_ne!(
            env_fingerprint(&a),
            env_fingerprint(&EnvironmentSnapshot::new())
        );
    }
}
