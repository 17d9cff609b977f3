//! Typed policy deltas: the churn log behind incremental index
//! maintenance.
//!
//! Every engine mutation that can change a decision used to bump an
//! opaque generation counter, forcing the next mediation to rebuild the
//! whole [`CompiledIndex`](crate::index::CompiledIndex). Mutations now
//! also record a [`PolicyDelta`] describing *what* changed, kept in a
//! bounded [`DeltaLog`] keyed by generation. When a decide path finds
//! its cached index one-or-more generations stale, it asks the log for
//! the exact deltas spanning the gap and patches only the touched
//! shards (see `CompiledIndex::apply_deltas`), falling back to a full
//! rebuild when the log has been trimmed or the damage is too wide.
//!
//! Deltas name the *invalidated region*, not the new values — the new
//! values are always recomputed from the engine's current state, which
//! makes application idempotent and order-insensitive for everything
//! except rule-position edits (those are replayed in schedule order;
//! an added rule's specs are extracted by [`Rule`](crate::rule::Rule)
//! at mutation time).

use crate::id::{ObjectId, RoleId, SubjectId};
use crate::role::RoleKind;
use crate::rule::{RoleSpec, TransactionSpec};

/// The kinds of incremental policy change the index maintainer can
/// apply, in dense-slot order (the `kind` label on
/// `grbac_index_delta_applied_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A role was declared (the dense role space grew by one slot).
    RoleDeclared,
    /// A specialization edge was inserted into a role hierarchy.
    EdgeAdded,
    /// A rule was appended to the policy.
    RuleAdded,
    /// A rule was removed from the policy.
    RuleRemoved,
    /// A subject's direct role set changed (assign or revoke).
    SubjectAssignment,
    /// An object's direct role set changed (assign or revoke).
    ObjectAssignment,
}

impl DeltaKind {
    /// All kinds, in the order used for dense keyed-counter slots.
    pub const ALL: [DeltaKind; 6] = [
        DeltaKind::RoleDeclared,
        DeltaKind::EdgeAdded,
        DeltaKind::RuleAdded,
        DeltaKind::RuleRemoved,
        DeltaKind::SubjectAssignment,
        DeltaKind::ObjectAssignment,
    ];

    /// Stable snake_case name (the `kind` label on
    /// `grbac_index_delta_applied_total`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::RoleDeclared => "role_declared",
            DeltaKind::EdgeAdded => "edge_added",
            DeltaKind::RuleAdded => "rule_added",
            DeltaKind::RuleRemoved => "rule_removed",
            DeltaKind::SubjectAssignment => "subject_assignment",
            DeltaKind::ObjectAssignment => "object_assignment",
        }
    }

    /// The dense slot this kind occupies in keyed counters.
    #[must_use]
    pub fn slot(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u64
    }

    /// The kind for a dense slot, if in range.
    #[must_use]
    pub fn from_slot(slot: u64) -> Option<DeltaKind> {
        Self::ALL.get(slot as usize).copied()
    }
}

/// One decision-relevant mutation, as recorded at the engine API
/// boundary. Region deltas (roles, edges, assignments) carry only the
/// invalidated identity; rule deltas carry the policy position, and an
/// added rule also the specs that place it in the rule postings,
/// because by the time the delta is replayed a later edit may have
/// removed the rule again.
#[derive(Debug, Clone)]
pub(crate) enum PolicyDelta {
    /// `role` joined the dense role space.
    RoleDeclared {
        /// The newly-declared role.
        role: RoleId,
    },
    /// `specific` gained a generalization in the `kind` hierarchy:
    /// the upward closures of `specific` and everything below it are
    /// stale.
    EdgeAdded {
        /// Which of the three hierarchies gained the edge.
        kind: RoleKind,
        /// The specializing (lower) endpoint.
        specific: RoleId,
    },
    /// A rule was appended at `position` (== policy length before the
    /// push).
    RuleAdded {
        /// Position the rule was appended at.
        position: u32,
        /// The rule's transaction spec.
        transaction: TransactionSpec,
        /// The rule's subject-role spec.
        subject: RoleSpec,
        /// The rule's object-role spec.
        object: RoleSpec,
    },
    /// The rule at `position` was removed; later positions shifted
    /// down by one.
    RuleRemoved {
        /// Position the rule occupied when removed.
        position: u32,
    },
    /// `subject`'s direct role set changed; its cached expansion is
    /// stale.
    SubjectAssignment {
        /// The affected subject.
        subject: SubjectId,
    },
    /// `object`'s direct role set changed; its cached expansion is
    /// stale.
    ObjectAssignment {
        /// The affected object.
        object: ObjectId,
    },
}

impl PolicyDelta {
    /// The metrics kind of this delta.
    pub(crate) fn kind(&self) -> DeltaKind {
        match self {
            PolicyDelta::RoleDeclared { .. } => DeltaKind::RoleDeclared,
            PolicyDelta::EdgeAdded { .. } => DeltaKind::EdgeAdded,
            PolicyDelta::RuleAdded { .. } => DeltaKind::RuleAdded,
            PolicyDelta::RuleRemoved { .. } => DeltaKind::RuleRemoved,
            PolicyDelta::SubjectAssignment { .. } => DeltaKind::SubjectAssignment,
            PolicyDelta::ObjectAssignment { .. } => DeltaKind::ObjectAssignment,
        }
    }
}

/// A bounded, generation-keyed window of recent [`PolicyDelta`]s.
///
/// Entry `i` advances generation `base + i` to `base + i + 1`, so an
/// index cached at generation `g` can be patched to the current
/// generation `t` exactly when the log still holds entries
/// `g - base .. t - base`. The window is capped at
/// [`Self::CAPACITY`]; older entries are trimmed and any index older
/// than the trimmed head must rebuild from scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaLog {
    /// Generation *before* `entries[0]` applies.
    base: u64,
    entries: Vec<PolicyDelta>,
}

impl DeltaLog {
    /// Maximum retained entries. Bounds both memory and the worst-case
    /// patch cost of a single advance; a cold index (no decide for
    /// more than this many edits) rebuilds instead.
    pub(crate) const CAPACITY: usize = 128;

    /// Records the delta that produced `generation_after`.
    pub(crate) fn record(&mut self, generation_after: u64, delta: PolicyDelta) {
        if self.entries.is_empty() {
            self.base = generation_after.wrapping_sub(1);
        }
        debug_assert_eq!(
            self.base.wrapping_add(self.entries.len() as u64 + 1),
            generation_after,
            "delta log out of step with the generation counter"
        );
        self.entries.push(delta);
        if self.entries.len() > Self::CAPACITY {
            let excess = self.entries.len() - Self::CAPACITY;
            self.entries.drain(..excess);
            self.base = self.base.wrapping_add(excess as u64);
        }
    }

    /// Forgets all history; indexes older than `generation` must now
    /// rebuild from scratch.
    pub(crate) fn reset(&mut self, generation: u64) {
        self.base = generation;
        self.entries.clear();
    }

    /// The deltas advancing generation `from` to generation `to`, if
    /// the window still covers that exact span.
    pub(crate) fn entries_between(&self, from: u64, to: u64) -> Option<&[PolicyDelta]> {
        let tail = self.base.wrapping_add(self.entries.len() as u64);
        if tail != to {
            return None;
        }
        let offset = from.wrapping_sub(self.base);
        if offset > self.entries.len() as u64 {
            return None;
        }
        Some(&self.entries[offset as usize..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role_declared(raw: u64) -> PolicyDelta {
        PolicyDelta::RoleDeclared {
            role: RoleId::from_raw(raw),
        }
    }

    #[test]
    fn spans_are_exact_and_trimmed() {
        let mut log = DeltaLog::default();
        assert!(log.entries_between(0, 1).is_none());

        log.record(6, role_declared(0));
        log.record(7, role_declared(1));
        assert_eq!(log.entries_between(5, 7).map(<[_]>::len), Some(2));
        assert_eq!(log.entries_between(6, 7).map(<[_]>::len), Some(1));
        assert_eq!(log.entries_between(7, 7).map(<[_]>::len), Some(0));
        assert!(log.entries_between(4, 7).is_none(), "before the window");
        assert!(log.entries_between(5, 8).is_none(), "past the tail");

        for generation in 8..8 + DeltaLog::CAPACITY as u64 {
            log.record(generation, role_declared(generation));
        }
        assert!(
            log.entries_between(5, 7 + DeltaLog::CAPACITY as u64)
                .is_none(),
            "trimmed history must refuse the span"
        );
        assert_eq!(
            log.entries_between(
                7 + DeltaLog::CAPACITY as u64 - 1,
                7 + DeltaLog::CAPACITY as u64
            )
            .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn reset_refuses_prior_generations() {
        let mut log = DeltaLog::default();
        log.record(1, role_declared(0));
        log.reset(5);
        assert!(log.entries_between(1, 5).is_none());
        log.record(6, role_declared(1));
        assert_eq!(log.entries_between(5, 6).map(<[_]>::len), Some(1));
    }

    #[test]
    fn kind_slots_round_trip() {
        for kind in DeltaKind::ALL {
            assert_eq!(DeltaKind::from_slot(kind.slot()), Some(kind));
        }
        assert!(DeltaKind::from_slot(DeltaKind::ALL.len() as u64).is_none());
    }
}
