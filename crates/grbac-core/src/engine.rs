//! The GRBAC access-mediation engine (§4.2.4).
//!
//! [`Grbac`] owns every catalog (roles, entities, assignments, sessions,
//! SoD constraints, rules) and implements the generalized mediation rule:
//! subject `s` may perform transaction `t` on object `o` iff the policy —
//! after hierarchy expansion, confidence thresholds and conflict
//! resolution — yields [`Effect::Permit`] for some (subject role, object
//! role, active environment roles) binding.
//!
//! # Examples
//!
//! The §5.1 policy in full:
//!
//! ```
//! use grbac_core::prelude::*;
//!
//! # fn main() -> Result<(), GrbacError> {
//! let mut g = Grbac::new();
//! let child = g.declare_subject_role("child")?;
//! let entertainment = g.declare_object_role("entertainment_devices")?;
//! let weekdays = g.declare_environment_role("weekdays")?;
//! let free_time = g.declare_environment_role("free_time")?;
//! let use_t = g.declare_transaction("use")?;
//!
//! let bobby = g.declare_subject("bobby")?;
//! g.assign_subject_role(bobby, child)?;
//! let tv = g.declare_object("tv")?;
//! g.assign_object_role(tv, entertainment)?;
//!
//! g.add_rule(
//!     RuleDef::permit()
//!         .named("kids tv policy")
//!         .subject_role(child)
//!         .object_role(entertainment)
//!         .transaction(use_t)
//!         .when(weekdays)
//!         .when(free_time),
//! )?;
//!
//! let after_dinner = EnvironmentSnapshot::from_active([weekdays, free_time]);
//! let decision = g.decide(&AccessRequest::by_subject(bobby, use_t, tv, after_dinner))?;
//! assert!(decision.is_permitted());
//!
//! let school_hours = EnvironmentSnapshot::from_active([weekdays]);
//! let decision = g.decide(&AccessRequest::by_subject(bobby, use_t, tv, school_hours))?;
//! assert!(!decision.is_permitted());
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::assignment::Assignments;
use crate::audit::AuditLog;
use crate::confidence::{AuthContext, Confidence};
use crate::degraded::{DegradedMode, DegradedPosture, DegradedReason, EnvHealth};
use crate::delta::{DeltaLog, PolicyDelta};
use crate::entity::EntityCatalog;
use crate::environment::EnvironmentSnapshot;
use crate::error::{GrbacError, Result};
use crate::explain::{Decision, Explanation, MatchedRule, Reason};
use crate::id::{
    DecisionId, DecisionIdMint, IdAllocator, ObjectId, RoleId, RuleId, SessionId, SubjectId,
    TransactionId,
};
use crate::index::{Advance, CachedExpansion, CompiledIndex, IndexCell};
use crate::precedence::ConflictStrategy;
use crate::provenance::{env_fingerprint, FlightRecorder};
use crate::role::{RoleCatalog, RoleKind};
use crate::roleset::RoleSet;
use crate::rule::{Effect, RoleSpec, Rule, RuleDef, TransactionSpec};
use crate::session::SessionManager;
use crate::sod::{SodConstraint, SodKind, SodPolicy};
use crate::telemetry::{
    DecisionTrace, MetricsRegistry, MetricsSnapshot, NoTrace, Stage, TraceCollector, TraceSink,
};

/// Who is asking: the three authentication postures GRBAC supports.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub enum Actor {
    /// An open session; only the session's *active* roles apply
    /// (role activation, §4.1.2), all at full confidence.
    Session(SessionId),
    /// A fully-trusted subject (e.g. explicit login); the subject's
    /// entire authorized role set applies at full confidence.
    Subject(SubjectId),
    /// A sensor-authenticated requester (§5.2): roles and confidences
    /// come from the [`AuthContext`] built by the authenticator.
    Sensed(AuthContext),
}

impl Clone for Actor {
    fn clone(&self) -> Self {
        match self {
            Actor::Session(session) => Actor::Session(*session),
            Actor::Subject(subject) => Actor::Subject(*subject),
            Actor::Sensed(context) => Actor::Sensed(context.clone()),
        }
    }

    /// Reuses a sensed actor's claim storage when both sides are
    /// sensed.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Actor::Sensed(context), Actor::Sensed(from)) => context.clone_from(from),
            (this, source) => *this = source.clone(),
        }
    }
}

/// One access request, ready for mediation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessRequest {
    /// The requester.
    pub actor: Actor,
    /// The transaction being attempted.
    pub transaction: TransactionId,
    /// The target object.
    pub object: ObjectId,
    /// The environment roles active at request time.
    pub environment: EnvironmentSnapshot,
    /// Optional timestamp for the audit log (virtual seconds).
    pub timestamp: Option<u64>,
    /// Freshness of the environment snapshot, as reported by the
    /// sensing layer. Anything other than [`EnvHealth::Fresh`] engages
    /// the engine's [`DegradedMode`] policy. Defaults to fresh (also
    /// for requests serialized before the field existed).
    #[serde(default)]
    pub env_health: EnvHealth,
}

impl AccessRequest {
    /// Builds a request from a fully-trusted subject.
    #[must_use]
    pub fn by_subject(
        subject: SubjectId,
        transaction: TransactionId,
        object: ObjectId,
        environment: EnvironmentSnapshot,
    ) -> Self {
        Self {
            actor: Actor::Subject(subject),
            transaction,
            object,
            environment,
            timestamp: None,
            env_health: EnvHealth::Fresh,
        }
    }

    /// Builds a request from an open session.
    #[must_use]
    pub fn by_session(
        session: SessionId,
        transaction: TransactionId,
        object: ObjectId,
        environment: EnvironmentSnapshot,
    ) -> Self {
        Self {
            actor: Actor::Session(session),
            transaction,
            object,
            environment,
            timestamp: None,
            env_health: EnvHealth::Fresh,
        }
    }

    /// Builds a request from sensed (partially-authenticated) evidence.
    #[must_use]
    pub fn by_sensed(
        context: AuthContext,
        transaction: TransactionId,
        object: ObjectId,
        environment: EnvironmentSnapshot,
    ) -> Self {
        Self {
            actor: Actor::Sensed(context),
            transaction,
            object,
            environment,
            timestamp: None,
            env_health: EnvHealth::Fresh,
        }
    }

    /// Attaches an audit timestamp (builder style).
    #[must_use]
    pub fn at(mut self, timestamp: u64) -> Self {
        self.timestamp = Some(timestamp);
        self
    }

    /// Declares the freshness of the attached environment snapshot
    /// (builder style). The sensing layer sets this from its
    /// `PollOutcome`; anything other than [`EnvHealth::Fresh`] engages
    /// the engine's [`DegradedMode`].
    #[must_use]
    pub fn with_env_health(mut self, health: EnvHealth) -> Self {
        self.env_health = health;
        self
    }
}

/// The GRBAC policy engine: catalogs, policy and mediation in one value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grbac {
    roles: RoleCatalog,
    entities: EntityCatalog,
    assignments: Assignments,
    sod: SodPolicy,
    sessions: SessionManager,
    rules: Vec<Rule>,
    rule_alloc: IdAllocator,
    strategy: ConflictStrategy,
    default_effect: Effect,
    default_min_confidence: Confidence,
    audit: AuditLog,
    /// Degraded-mode policy: staleness budgets and the posture applied
    /// when a request's environment snapshot is not fresh (defaults to
    /// fail-closed with zero budget).
    #[serde(default)]
    degraded: DegradedMode,
    #[serde(default)]
    delegation: crate::delegation::DelegationState,
    /// Bumped by every mutation that can change a decision (roles,
    /// hierarchy edges, assignments, rules); keys the compiled index.
    #[serde(skip)]
    generation: u64,
    /// Bounded window of typed deltas, one per generation bump, letting
    /// the next mediation patch the compiled index incrementally
    /// instead of rebuilding it (derived-state bookkeeping — never
    /// serialized; a fresh engine starts with an empty window and the
    /// first mediation builds from scratch anyway).
    #[serde(skip)]
    deltas: DeltaLog,
    /// Lazily-built compiled mediation index (derived state — never
    /// serialized, rebuilt on demand after deserialization or cloning).
    #[serde(skip)]
    index: IndexCell,
    /// Telemetry registry (operational state — never serialized; a
    /// deserialized engine starts with fresh zeroes). Engine clones
    /// share the same registry, as do `decide_batch` workers and any
    /// environment providers attached via
    /// `EnvironmentRoleProvider::attach_metrics`.
    #[serde(skip)]
    metrics: Arc<MetricsRegistry>,
    /// Each rule's slot in the registry's rule-heat table, in policy
    /// order (operational state — never serialized; see [`HeatSlots`]).
    #[serde(skip)]
    heat_slots: HeatSlots,
    /// Decision flight recorder (operational state — never serialized;
    /// a deserialized engine starts with an empty ring). Shared by
    /// engine clones and `decide_batch` workers like the registry.
    #[serde(skip)]
    recorder: Arc<FlightRecorder>,
    /// Correlation-id mint (operational state — never serialized; a
    /// deserialized engine draws a fresh epoch, so ids from different
    /// engine lifetimes never collide). Shared by engine clones and
    /// `decide_batch` workers like the registry and the recorder.
    #[serde(skip)]
    decision_ids: Arc<DecisionIdMint>,
}

impl Default for Grbac {
    fn default() -> Self {
        Self::new()
    }
}

impl Grbac {
    /// Creates an empty engine with fail-safe defaults: deny-overrides
    /// conflict resolution, deny-by-default, and a full-confidence
    /// requirement (partial authentication is opt-in via
    /// [`set_default_min_confidence`](Self::set_default_min_confidence)).
    #[must_use]
    pub fn new() -> Self {
        Self {
            roles: RoleCatalog::new(),
            entities: EntityCatalog::new(),
            assignments: Assignments::new(),
            sod: SodPolicy::new(),
            sessions: SessionManager::new(),
            rules: Vec::new(),
            rule_alloc: IdAllocator::new(),
            strategy: ConflictStrategy::default(),
            default_effect: Effect::Deny,
            default_min_confidence: Confidence::FULL,
            audit: AuditLog::new(),
            degraded: DegradedMode::default(),
            delegation: crate::delegation::DelegationState::default(),
            generation: 0,
            deltas: DeltaLog::default(),
            index: IndexCell::default(),
            metrics: Arc::new(MetricsRegistry::new()),
            heat_slots: HeatSlots::default(),
            recorder: Arc::new(FlightRecorder::new()),
            decision_ids: Arc::new(DecisionIdMint::new()),
        }
    }

    /// Marks decision-relevant state as changed so the next mediation
    /// advances the compiled index, recording the typed delta that lets
    /// the advance patch only the touched shards instead of rebuilding.
    /// The current index is only moved aside here; the advance that
    /// patches from it drops it, so an edit never pays for that.
    fn touch(&mut self, delta: PolicyDelta) {
        self.index.reset();
        self.generation = self.generation.wrapping_add(1);
        self.deltas.record(self.generation, delta);
    }

    /// The compiled index for the current generation, borrowed: no
    /// mutation can run while the borrow lives. The index the last edit
    /// retired is patched forward through the recorded deltas when the
    /// log still covers the gap and the damage is narrow enough;
    /// otherwise (cold cell, trimmed history, widened bitsets, wide
    /// damage) it is rebuilt from scratch.
    fn compiled(&self) -> &CompiledIndex {
        self.index
            .get_or_advance(self.generation, &self.metrics, |stale| {
                // Claim the heat slots before a first build, so the 1 MB
                // of heat tables is allocated ahead of the index. Claimed
                // after it, in a process that had dropped an engine
                // before, a new engine's first decide stayed ~0.6 ms
                // slower at 4096 rules: the freed tables had been handed
                // back to the OS and were faulted in again.
                if self.metrics.rule_heat.is_enabled() {
                    self.heat_slots();
                }
                if let Some((built_for, index)) = stale {
                    if let Some(deltas) = self.deltas.entries_between(built_for, self.generation) {
                        if let Some(next) =
                            index.apply_deltas(deltas, &self.roles, &self.assignments)
                        {
                            for delta in deltas {
                                self.metrics.index_delta_applied.add(delta.kind().slot(), 1);
                            }
                            return Advance::Patched(next);
                        }
                    }
                }
                Advance::Rebuilt(CompiledIndex::build(
                    &self.roles,
                    &self.assignments,
                    &self.rules,
                ))
            })
    }

    /// Each rule's heat slot in policy order, claimed for every rule on
    /// first use (see [`HeatSlots`]).
    fn heat_slots(&self) -> &[u32] {
        self.heat_slots.0.get_or_init(|| {
            let rules = self.rules.iter().map(|rule| rule.id().as_raw());
            self.metrics.rule_heat.claim_all(rules)
        })
    }

    /// Forces the next mediation to rebuild the compiled index from
    /// scratch, discarding the incremental-delta history. Benchmark
    /// and test hook (the rebuild-vs-patch baseline in experiment
    /// E14); never needed in normal operation.
    #[doc(hidden)]
    pub fn invalidate_index(&mut self) {
        self.index.reset();
        self.generation = self.generation.wrapping_add(1);
        self.deltas.reset(self.generation);
    }

    /// True when the current compiled index — however it was reached,
    /// through any schedule of incremental patches — is structurally
    /// identical to an index rebuilt from scratch at this generation.
    /// Test hook backing the delta differential suite.
    #[doc(hidden)]
    #[must_use]
    pub fn compiled_matches_rebuild(&self) -> bool {
        let fresh = CompiledIndex::build(&self.roles, &self.assignments, &self.rules);
        *self.compiled() == fresh
    }

    pub(crate) fn delegation(&self) -> &crate::delegation::DelegationState {
        &self.delegation
    }

    pub(crate) fn delegation_mut(&mut self) -> &mut crate::delegation::DelegationState {
        &mut self.delegation
    }

    // ------------------------------------------------------------------
    // Declaration API
    // ------------------------------------------------------------------

    /// Declares a subject role.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_subject_role(&mut self, name: impl Into<String>) -> Result<RoleId> {
        let id = self.roles.declare(name, RoleKind::Subject)?;
        self.touch(PolicyDelta::RoleDeclared { role: id });
        Ok(id)
    }

    /// Declares an object role.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_object_role(&mut self, name: impl Into<String>) -> Result<RoleId> {
        let id = self.roles.declare(name, RoleKind::Object)?;
        self.touch(PolicyDelta::RoleDeclared { role: id });
        Ok(id)
    }

    /// Declares an environment role.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_environment_role(&mut self, name: impl Into<String>) -> Result<RoleId> {
        let id = self.roles.declare(name, RoleKind::Environment)?;
        self.touch(PolicyDelta::RoleDeclared { role: id });
        Ok(id)
    }

    /// Declares a subject (user).
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_subject(&mut self, name: impl Into<String>) -> Result<SubjectId> {
        self.entities.declare_subject(name)
    }

    /// Declares an object (resource).
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_object(&mut self, name: impl Into<String>) -> Result<ObjectId> {
        self.entities.declare_object(name)
    }

    /// Declares a transaction.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] on repeated names.
    pub fn declare_transaction(&mut self, name: impl Into<String>) -> Result<TransactionId> {
        self.entities.declare_transaction(name)
    }

    /// Records that `specific` is-a `general` (same-kind roles only).
    ///
    /// # Errors
    ///
    /// See [`RoleCatalog::specialize`].
    pub fn specialize(&mut self, specific: RoleId, general: RoleId) -> Result<()> {
        self.roles.specialize(specific, general)?;
        let kind = self.roles.role(specific)?.kind();
        self.touch(PolicyDelta::EdgeAdded { kind, specific });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Assignment API
    // ------------------------------------------------------------------

    /// Adds `role` to a subject's authorized role set, enforcing static
    /// separation of duty over the hierarchy-expanded result.
    ///
    /// # Errors
    ///
    /// Unknown ids, kind mismatches, or [`GrbacError::SodViolation`].
    pub fn assign_subject_role(&mut self, subject: SubjectId, role: RoleId) -> Result<()> {
        self.entities.subject(subject)?;
        self.roles.expect_kind(role, RoleKind::Subject)?;
        let held = self.roles.expand(&self.assignments.subject_roles(subject));
        for candidate in self.roles.closure(role)? {
            self.sod.check(SodKind::Static, &held, candidate)?;
        }
        self.assignments.assign_subject(subject, role);
        // A direct assignment takes ownership away from any earlier
        // delegation-created assignment of the same pair, so revoking
        // that delegation later will not strip an administrator grant.
        self.delegation.release_ownership(subject, role);
        self.touch(PolicyDelta::SubjectAssignment { subject });
        Ok(())
    }

    /// Removes `role` from a subject's authorized role set.
    ///
    /// # Errors
    ///
    /// Unknown subject or role.
    pub fn revoke_subject_role(&mut self, subject: SubjectId, role: RoleId) -> Result<()> {
        self.entities.subject(subject)?;
        self.roles.role(role)?;
        self.assignments.revoke_subject(subject, role);
        // Revocation is immediate: open sessions lose any activation no
        // longer backed by the (hierarchy-expanded) authorized set —
        // otherwise a revoked resident would keep access through a
        // session opened earlier.
        let authorized = self.roles.expand(&self.assignments.subject_roles(subject));
        for session in self.sessions.sessions_of_mut(subject) {
            let orphaned: Vec<RoleId> = session
                .active_roles()
                .iter()
                .copied()
                .filter(|r| !authorized.contains(r))
                .collect();
            for r in orphaned {
                session.deactivate(r);
            }
        }
        self.touch(PolicyDelta::SubjectAssignment { subject });
        Ok(())
    }

    /// Maps an object into an object role.
    ///
    /// # Errors
    ///
    /// Unknown ids or kind mismatch.
    pub fn assign_object_role(&mut self, object: ObjectId, role: RoleId) -> Result<()> {
        self.entities.object(object)?;
        self.roles.expect_kind(role, RoleKind::Object)?;
        self.assignments.assign_object(object, role);
        self.touch(PolicyDelta::ObjectAssignment { object });
        Ok(())
    }

    /// Removes an object from an object role.
    ///
    /// # Errors
    ///
    /// Unknown object or role.
    pub fn revoke_object_role(&mut self, object: ObjectId, role: RoleId) -> Result<()> {
        self.entities.object(object)?;
        self.roles.role(role)?;
        self.assignments.revoke_object(object, role);
        self.touch(PolicyDelta::ObjectAssignment { object });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Separation of duty
    // ------------------------------------------------------------------

    /// Registers a separation-of-duty constraint after verifying that no
    /// existing assignment (static) or session (dynamic) already violates
    /// it.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownRole`] for undeclared roles, or
    /// [`GrbacError::SodViolation`] naming the conflicting state.
    pub fn add_sod_constraint(&mut self, constraint: SodConstraint) -> Result<()> {
        for &role in constraint.roles() {
            self.roles.role(role)?;
        }
        match constraint.kind() {
            SodKind::Static => {
                for subject in self.entities.subjects() {
                    let held = self
                        .roles
                        .expand(&self.assignments.subject_roles(subject.id()));
                    if constraint.violated_by_set(&held) {
                        return Err(GrbacError::SodViolation {
                            constraint: constraint.name().to_owned(),
                            role: *constraint
                                .roles()
                                .intersection(&held)
                                .next()
                                .expect("violating set intersects"),
                        });
                    }
                }
            }
            SodKind::Dynamic => {
                for session in self.sessions.iter() {
                    let active = self.roles.expand(session.active_roles());
                    if constraint.violated_by_set(&active) {
                        return Err(GrbacError::SodViolation {
                            constraint: constraint.name().to_owned(),
                            role: *constraint
                                .roles()
                                .intersection(&active)
                                .next()
                                .expect("violating set intersects"),
                        });
                    }
                }
            }
        }
        self.sod.add(constraint);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sessions and activation
    // ------------------------------------------------------------------

    /// Opens a session for `subject` with no active roles.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSubject`].
    pub fn open_session(&mut self, subject: SubjectId) -> Result<SessionId> {
        self.entities.subject(subject)?;
        Ok(self.sessions.open(subject))
    }

    /// Opens a session and activates the subject's entire authorized
    /// role set (convenience for policies that do not use activation).
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSubject`], or any activation error (e.g.
    /// dynamic SoD) encountered while activating.
    pub fn open_session_with_all_roles(&mut self, subject: SubjectId) -> Result<SessionId> {
        let session = self.open_session(subject)?;
        for role in self.assignments.subject_roles(subject) {
            self.activate_role(session, role)?;
        }
        Ok(session)
    }

    /// Activates a role in a session. The role must be in the subject's
    /// authorized set (directly or through the hierarchy), and the
    /// activation must satisfy every dynamic SoD constraint over the
    /// hierarchy-expanded active set.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSession`], [`GrbacError::RoleNotAuthorized`],
    /// or [`GrbacError::SodViolation`].
    pub fn activate_role(&mut self, session: SessionId, role: RoleId) -> Result<()> {
        self.roles.expect_kind(role, RoleKind::Subject)?;
        let subject = self.sessions.session(session)?.subject();
        let authorized = self.roles.expand(&self.assignments.subject_roles(subject));
        if !authorized.contains(&role) {
            return Err(GrbacError::RoleNotAuthorized { subject, role });
        }
        let active = self
            .roles
            .expand(self.sessions.session(session)?.active_roles());
        for candidate in self.roles.closure(role)? {
            self.sod.check(SodKind::Dynamic, &active, candidate)?;
        }
        self.sessions.session_mut(session)?.activate(role);
        Ok(())
    }

    /// Deactivates a role in a session (a no-op if it was not active).
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSession`].
    pub fn deactivate_role(&mut self, session: SessionId, role: RoleId) -> Result<()> {
        self.sessions.session_mut(session)?.deactivate(role);
        Ok(())
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSession`].
    pub fn close_session(&mut self, session: SessionId) -> Result<()> {
        self.sessions
            .close(session)
            .map(|_| ())
            .ok_or(GrbacError::UnknownSession(session))
    }

    // ------------------------------------------------------------------
    // Rules
    // ------------------------------------------------------------------

    /// Validates and registers a rule; returns its id. Rules are matched
    /// in registration order (relevant to the first-applicable strategy).
    ///
    /// # Errors
    ///
    /// Unknown roles/transactions or role-kind mismatches in any rule
    /// position.
    pub fn add_rule(&mut self, def: RuleDef) -> Result<RuleId> {
        if let RoleSpec::Is(r) = def.subject_role {
            self.roles.expect_kind(r, RoleKind::Subject)?;
        }
        if let RoleSpec::Is(r) = def.object_role {
            self.roles.expect_kind(r, RoleKind::Object)?;
        }
        for &r in &def.environment_roles {
            self.roles.expect_kind(r, RoleKind::Environment)?;
        }
        if let TransactionSpec::Is(t) = def.transaction {
            self.entities.transaction(t)?;
        }
        let id = RuleId::from_raw(self.rule_alloc.next());
        if let Some(slots) = self.heat_slots.0.get_mut() {
            slots.push(self.metrics.rule_heat.claim(id.as_raw()));
        }
        self.rules.push(Rule::from_def(id, def));
        let position = (self.rules.len() - 1) as u32;
        let delta = self.rules[position as usize].added_delta(position);
        self.touch(delta);
        Ok(id)
    }

    /// Removes a rule by id. Returns true if it existed.
    pub fn remove_rule(&mut self, id: RuleId) -> bool {
        let Some(position) = self.rule_position(id) else {
            return false;
        };
        self.rules.remove(position);
        if let Some(slots) = self.heat_slots.0.get_mut() {
            self.metrics.rule_heat.release(slots.remove(position));
        }
        self.touch(PolicyDelta::RuleRemoved {
            position: position as u32,
        });
        true
    }

    /// The policy position of rule `id`. Ids are minted in ascending
    /// order and rules are only appended or removed in place, so the
    /// policy is sorted by id and a binary search finds the rule. A
    /// miss falls back to a linear scan, which only finds the rule in a
    /// deserialized snapshot whose rules are out of id order.
    fn rule_position(&self, id: RuleId) -> Option<usize> {
        self.rules
            .binary_search_by_key(&id, Rule::id)
            .ok()
            .or_else(|| self.rules.iter().position(|r| r.id() == id))
    }

    /// The registered rules in policy order.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    /// Sets the conflict-resolution strategy.
    pub fn set_strategy(&mut self, strategy: ConflictStrategy) {
        self.strategy = strategy;
    }

    /// The current conflict-resolution strategy.
    #[must_use]
    pub fn strategy(&self) -> ConflictStrategy {
        self.strategy
    }

    /// Sets the decision when no rule matches (default: Deny).
    pub fn set_default_effect(&mut self, effect: Effect) {
        self.default_effect = effect;
    }

    /// The decision when no rule matches.
    #[must_use]
    pub fn default_effect(&self) -> Effect {
        self.default_effect
    }

    /// Sets the engine-wide confidence threshold applied to Permit rules
    /// that do not carry their own (§5.2's "90% accuracy" policy).
    pub fn set_default_min_confidence(&mut self, confidence: Confidence) {
        self.default_min_confidence = confidence;
    }

    /// The engine-wide confidence threshold.
    #[must_use]
    pub fn default_min_confidence(&self) -> Confidence {
        self.default_min_confidence
    }

    /// Sets the degraded-mode policy applied when a request's
    /// environment snapshot is not fresh (see [`DegradedMode`]). The
    /// default is fail-closed with a zero staleness budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use grbac_core::prelude::*;
    ///
    /// let mut g = Grbac::new();
    /// let child = g.declare_subject_role("child")?;
    /// let toys = g.declare_object_role("toys")?;
    /// let daytime = g.declare_environment_role("daytime")?;
    /// let play = g.declare_transaction("play")?;
    /// let alice = g.declare_subject("alice")?;
    /// g.assign_subject_role(alice, child)?;
    /// let ball = g.declare_object("ball")?;
    /// g.assign_object_role(ball, toys)?;
    /// g.add_rule(
    ///     RuleDef::permit()
    ///         .subject_role(child)
    ///         .object_role(toys)
    ///         .transaction(play)
    ///         .when(daytime),
    /// )?;
    ///
    /// // Tolerate ten minutes of staleness; past that, fail closed.
    /// g.set_degraded_mode(DegradedMode::fail_closed().with_default_budget(600));
    ///
    /// let env = EnvironmentSnapshot::from_active([daytime]);
    /// let fresh = AccessRequest::by_subject(alice, play, ball, env.clone());
    /// assert!(g.check(&fresh)?.is_permitted());
    ///
    /// // An hour-old snapshot is over budget: roles drop, access denies,
    /// // and the decision says why.
    /// let stale = AccessRequest::by_subject(alice, play, ball, env)
    ///     .with_env_health(EnvHealth::Stale { age: 3_600 });
    /// let decision = g.check(&stale)?;
    /// assert!(!decision.is_permitted());
    /// assert!(decision.is_degraded());
    /// # Ok::<(), grbac_core::error::GrbacError>(())
    /// ```
    pub fn set_degraded_mode(&mut self, mode: DegradedMode) {
        self.degraded = mode;
    }

    /// The current degraded-mode policy.
    #[must_use]
    pub fn degraded_mode(&self) -> &DegradedMode {
        &self.degraded
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The role catalog (roles and hierarchies).
    #[must_use]
    pub fn roles(&self) -> &RoleCatalog {
        &self.roles
    }

    /// The entity catalog (subjects, objects, transactions).
    #[must_use]
    pub fn entities(&self) -> &EntityCatalog {
        &self.entities
    }

    /// The assignment tables.
    #[must_use]
    pub fn assignments(&self) -> &Assignments {
        &self.assignments
    }

    /// The separation-of-duty policy.
    #[must_use]
    pub fn sod(&self) -> &SodPolicy {
        &self.sod
    }

    /// The open sessions.
    #[must_use]
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// The audit log.
    #[must_use]
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Clears retained audit records (totals are preserved).
    pub fn clear_audit(&mut self) {
        self.audit.clear();
        self.sync_audit_gauges();
    }

    /// The engine's telemetry registry.
    ///
    /// Clone the `Arc` to publish external counters (environment
    /// providers, workload drivers) into the same registry the engine
    /// updates during mediation.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Replaces the telemetry registry, e.g. to aggregate several
    /// engines into one registry. Readings accumulated in the old
    /// registry are left behind, not transferred.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = metrics;
        self.heat_slots = HeatSlots::default();
    }

    /// The decision flight recorder: every mediated decision
    /// ([`decide`](Self::decide), [`decide_traced`](Self::decide_traced),
    /// [`decide_batch`](Self::decide_batch), and the [`check`](Self::check)
    /// family on top of them) appends a
    /// [`ProvenanceRecord`](crate::provenance::ProvenanceRecord) here.
    /// Engine clones and batch workers share the same ring. The
    /// reference path
    /// ([`decide_naive`](Self::decide_naive)) never records, so
    /// forensic replays do not pollute the evidence they examine.
    #[must_use]
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Replaces the flight recorder with a fresh one of the given
    /// capacity (0 disables provenance recording). Existing records
    /// stay in the old ring — clone the `Arc` from
    /// [`flight_recorder`](Self::flight_recorder) first to keep them.
    /// Engine clones made before this call keep recording into the old
    /// ring.
    pub fn set_flight_recorder_capacity(&mut self, capacity: usize) {
        self.recorder = Arc::new(FlightRecorder::with_capacity(capacity));
    }

    /// The current policy generation: bumped by every
    /// decision-relevant mutation (roles, hierarchy edges, assignments,
    /// rules). Stamped into every
    /// [`ProvenanceRecord`](crate::provenance::ProvenanceRecord) so
    /// forensic replay can tell whether the policy moved under a
    /// recorded decision.
    #[must_use]
    pub fn policy_generation(&self) -> u64 {
        self.generation
    }

    /// A point-in-time snapshot of the registry with per-transaction
    /// series labelled by declared transaction names (raw ids for
    /// transactions no longer in the catalog) and per-rule heat series
    /// labelled by rule names (`rule<id>` for anonymous or removed
    /// rules). Export it with a
    /// [`PrometheusExporter`](crate::telemetry::PrometheusExporter) or
    /// [`JsonExporter`](crate::telemetry::JsonExporter), or diff two
    /// snapshots with [`MetricsSnapshot::delta`].
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot_with_labels(
            |raw| {
                self.entities
                    .transaction(TransactionId::from_raw(raw))
                    .map_or_else(|_| raw.to_string(), |t| t.name().to_owned())
            },
            |raw| self.rule_label(RuleId::from_raw(raw)),
        )
    }

    /// A stable human label for a rule: its declared name when it has
    /// one, its id rendering (`rule<id>`) otherwise.
    #[must_use]
    pub fn rule_label(&self, rule: RuleId) -> String {
        self.rule_position(rule)
            .and_then(|position| self.rules[position].name())
            .map_or_else(|| rule.to_string(), str::to_owned)
    }

    /// A point-in-time copy of the per-rule heat table (matches, wins
    /// by effect, last-fired generation — see
    /// [`RuleHeat`](crate::telemetry::RuleHeat)). Join it with the
    /// static analysis report via
    /// [`analysis::health_report`](crate::analysis::health_report).
    #[must_use]
    pub fn heat_snapshot(&self) -> crate::telemetry::RuleHeatSnapshot {
        self.metrics.rule_heat.snapshot()
    }

    /// Mirrors the audit log's running totals into the registry's
    /// gauges, so exporters see audit state that survives eviction and
    /// [`clear_audit`](Self::clear_audit) just like the log's own
    /// counters do.
    fn sync_audit_gauges(&self) {
        self.metrics
            .audit_permit_total
            .set(self.audit.permit_count());
        self.metrics.audit_deny_total.set(self.audit.deny_count());
        self.metrics.audit_evictions.set(self.audit.evicted_count());
        self.metrics.audit_retained.set(self.audit.len() as u64);
    }

    // ------------------------------------------------------------------
    // Mediation
    // ------------------------------------------------------------------

    /// Mediates a request without recording it (pure; `&self`).
    ///
    /// Runs on the compiled mediation index: candidate rules come from
    /// the rule postings of the request's transaction and roles, role
    /// expansions from cached bitset closures. The outcome is identical to the retained
    /// reference scan ([`decide_naive`](Self::decide_naive)) — the
    /// `prop_index` differential suite holds the two paths equal.
    ///
    /// # Errors
    ///
    /// Unknown session/subject/object/transaction ids in the request.
    pub fn decide(&self, request: &AccessRequest) -> Result<Decision> {
        self.decide_recorded(request, self.compiled())
    }

    /// Mediates a request and records a stage-by-stage
    /// [`DecisionTrace`] (per-stage wall-clock nanoseconds and item
    /// counts) alongside the decision.
    ///
    /// The traced path is the *same* monomorphized mediation code as
    /// [`decide`](Self::decide) — only the trace sink differs — so
    /// the decision is identical on identical input; the
    /// `prop_telemetry` property suite holds the two equal.
    ///
    /// # Errors
    ///
    /// Same as [`decide`](Self::decide).
    pub fn decide_traced(&self, request: &AccessRequest) -> Result<(Decision, DecisionTrace)> {
        let index = self.compiled();
        let id = self.decision_ids.mint();
        self.decide_sampled(request, index, id, Instant::now())
    }

    /// Mediates a batch of requests against one borrow of the compiled
    /// index, fetched once for the whole batch, and (with the
    /// `parallel` feature) fans the work across OS threads.
    ///
    /// Results are returned in request order; each element is exactly
    /// what [`decide`](Self::decide) would have returned for that
    /// request.
    #[must_use]
    pub fn decide_batch(&self, requests: &[AccessRequest]) -> Vec<Result<Decision>> {
        let index = self.compiled();
        self.metrics.batch_calls.inc();
        self.metrics.batch_size.observe(requests.len() as u64);
        #[cfg(feature = "parallel")]
        {
            let threads =
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            // Below ~32 requests the spawn overhead dominates.
            if threads > 1 && requests.len() >= 32 {
                let chunk = requests.len().div_ceil(threads);
                return std::thread::scope(|scope| {
                    let workers: Vec<_> = requests
                        .chunks(chunk)
                        .map(|part| {
                            scope.spawn(move || {
                                part.iter()
                                    .map(|request| self.decide_recorded(request, index))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|worker| worker.join().expect("decide worker panicked"))
                        .collect()
                });
            }
        }
        requests
            .iter()
            .map(|request| self.decide_recorded(request, index))
            .collect()
    }

    /// The recorded mediation path shared by [`decide`](Self::decide)
    /// and [`decide_batch`](Self::decide_batch): runs the decision —
    /// through [`Self::decide_sampled`] when this call won the latency
    /// sample, with [`NoTrace`] otherwise — then hands it to
    /// [`Self::record_decision`]. Sampling the *trace* (not just a
    /// timer) is what keeps the per-stage quantile sketches fed without
    /// taxing the common path with clock reads.
    fn decide_recorded(&self, request: &AccessRequest, index: &CompiledIndex) -> Result<Decision> {
        let id = self.decision_ids.mint();
        if let Some(started) = self.metrics.decide_timer() {
            return self
                .decide_sampled(request, index, id, started)
                .map(|(decision, _)| decision);
        }
        let decision = self
            .decide_with_index(request, index, &mut NoTrace)?
            .with_decision_id(id);
        self.record_decision(request, &decision, None);
        Ok(decision)
    }

    /// Runs one decision under a [`TraceCollector`] whose clock started
    /// at `started`, then records it with its trace: the path of
    /// [`decide_traced`](Self::decide_traced) and of every
    /// latency-sampled [`decide`](Self::decide).
    fn decide_sampled(
        &self,
        request: &AccessRequest,
        index: &CompiledIndex,
        id: DecisionId,
        started: Instant,
    ) -> Result<(Decision, DecisionTrace)> {
        let mut sink = TraceCollector::default();
        let decision = self
            .decide_with_index(request, index, &mut sink)?
            .with_decision_id(id);
        let mut trace = sink.finish(started);
        trace.decision_id = id;
        self.record_decision(request, &decision, Some(&trace));
        Ok((decision, trace))
    }

    /// The one post-mediation record step: feeds a successful decision
    /// to every evidence sink — the recent-id ring, the latency series
    /// (when traced), the flight recorder and the event bus.
    fn record_decision(
        &self,
        request: &AccessRequest,
        decision: &Decision,
        trace: Option<&DecisionTrace>,
    ) {
        let id = decision.decision_id();
        self.metrics.note_decision(id);
        if let Some(trace) = trace {
            self.metrics.observe_trace(trace);
        }
        self.record_provenance(request, decision, trace);
        self.metrics
            .events
            .publish_decision(id, decision.effect(), decision.degraded().is_some());
    }

    /// Appends one decision to the flight recorder (no-op when the
    /// recorder capacity is 0).
    fn record_provenance(
        &self,
        request: &AccessRequest,
        decision: &Decision,
        trace: Option<&DecisionTrace>,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let explanation = decision.explanation();
        let stage_nanos = trace.map(|trace| {
            let mut nanos = [0u64; 5];
            for record in &trace.stages {
                if let Some(slot) = Stage::ALL.iter().position(|&s| s == record.stage) {
                    nanos[slot] = record.nanos;
                }
            }
            nanos
        });
        // The record is written into the slot it evicts: its actor and
        // its two buffers keep their storage.
        self.recorder.record_with(|record| {
            record.decision_id = decision.decision_id();
            record.actor.clone_from(&request.actor);
            record.transaction = request.transaction;
            record.object = request.object;
            record.timestamp = request.timestamp;
            record.env_roles.clear();
            record
                .env_roles
                .extend(request.environment.active().iter().copied());
            record.env_hash = env_fingerprint(&request.environment);
            record.env_health = request.env_health;
            record.generation = self.generation;
            record.effect = decision.effect();
            record.winning_rule = decision.winning_rule();
            record.matched_rules.clear();
            record
                .matched_rules
                .extend(explanation.matched.iter().map(|m| m.rule));
            record.subject_role_count =
                u32::try_from(explanation.subject_roles.len()).unwrap_or(u32::MAX);
            record.degraded = decision.degraded().copied();
            record.stage_nanos = stage_nanos;
            record.total_nanos = trace.map(|trace| trace.total_nanos);
        });
    }

    /// The compiled mediation path shared by [`decide`](Self::decide),
    /// [`decide_batch`](Self::decide_batch) and
    /// [`decide_traced`](Self::decide_traced): runs [`Self::mediate`]
    /// and publishes the outcome (effect counters, per-transaction
    /// rule-match counts) into the registry. Latency observation lives
    /// in [`Self::decide_recorded`], which decides per call whether to
    /// trace. All counters are atomics, so parallel batch workers
    /// record exactly what sequential calls would.
    fn decide_with_index<S: TraceSink>(
        &self,
        request: &AccessRequest,
        index: &CompiledIndex,
        sink: &mut S,
    ) -> Result<Decision> {
        let result = with_scratch(|scratch| self.mediate(request, index, sink, scratch));
        match &result {
            Ok(decision) => {
                match decision.effect() {
                    Effect::Permit => self.metrics.decisions_permit.inc(),
                    Effect::Deny => self.metrics.decisions_deny.inc(),
                }
                self.metrics.rule_matches_by_transaction.add(
                    request.transaction.as_raw(),
                    decision.explanation().matched.len() as u64,
                );
                let heat = &self.metrics.rule_heat;
                if heat.is_enabled() {
                    let slots = self.heat_slots();
                    let matched = &decision.explanation().matched;
                    let winner = matched
                        .iter()
                        .find(|m| Some(m.rule) == decision.winning_rule());
                    heat.record_slots(
                        matched.iter().map(|m| slots[m.position]),
                        winner.map(|m| slots[m.position]),
                        decision.effect() == Effect::Permit,
                        self.generation,
                    );
                }
                if let Some(reason) = decision.degraded() {
                    self.metrics.decisions_degraded.inc();
                    if let DegradedReason::StaleRolesDropped { dropped, .. } = reason {
                        self.metrics
                            .env_roles_dropped_stale
                            .add(u64::from(*dropped));
                    }
                }
            }
            Err(_) => self.metrics.decide_errors.inc(),
        }
        result
    }

    /// Applies the degraded-mode policy to a request's environment
    /// snapshot: the effective active set, the subject-confidence decay
    /// multiplier, and the annotation (if any) the decision will carry.
    ///
    /// Shared by the compiled path ([`Self::mediate`]) and the
    /// reference scan ([`Self::decide_naive`]) so the differential
    /// property suite holds under degraded inputs too. Fresh requests
    /// borrow their snapshot untouched and decay by exactly 1.0, so the
    /// fast path is unchanged.
    fn degraded_env<'r>(
        &self,
        request: &'r AccessRequest,
    ) -> (
        Cow<'r, EnvironmentSnapshot>,
        Confidence,
        Option<DegradedReason>,
    ) {
        let drop_over_budget = |age: u64| {
            let kept: EnvironmentSnapshot = request
                .environment
                .active()
                .iter()
                .copied()
                .filter(|&role| age <= self.degraded.budget(role))
                .collect();
            let dropped = (request.environment.len() - kept.len()) as u32;
            (
                Cow::Owned(kept),
                Confidence::FULL,
                Some(DegradedReason::StaleRolesDropped { age, dropped }),
            )
        };
        match request.env_health {
            EnvHealth::Fresh => (Cow::Borrowed(&request.environment), Confidence::FULL, None),
            EnvHealth::Stale { age } => {
                let within_budget = request
                    .environment
                    .active()
                    .iter()
                    .all(|&role| age <= self.degraded.budget(role));
                if within_budget {
                    // Budgets exist to absorb exactly this much
                    // staleness; the decision is not degraded.
                    return (Cow::Borrowed(&request.environment), Confidence::FULL, None);
                }
                match self.degraded.posture() {
                    DegradedPosture::FailClosed => drop_over_budget(age),
                    DegradedPosture::FailOpen { .. } => {
                        let decay = self.degraded.decay_at(age);
                        (
                            Cow::Borrowed(&request.environment),
                            decay,
                            Some(DegradedReason::StaleDecayed { age, decay }),
                        )
                    }
                    DegradedPosture::LastKnownGood { max_age } => {
                        if age <= max_age {
                            (
                                Cow::Borrowed(&request.environment),
                                Confidence::FULL,
                                Some(DegradedReason::LastKnownGood { age }),
                            )
                        } else {
                            drop_over_budget(age)
                        }
                    }
                }
            }
            EnvHealth::Unavailable => {
                let environment = match self.degraded.posture() {
                    // No data and fail-closed: no environment roles.
                    DegradedPosture::FailClosed => Cow::Owned(EnvironmentSnapshot::new()),
                    // The other postures trust whatever snapshot the
                    // caller could still attach (possibly empty).
                    DegradedPosture::FailOpen { .. } | DegradedPosture::LastKnownGood { .. } => {
                        Cow::Borrowed(&request.environment)
                    }
                };
                (
                    environment,
                    Confidence::FULL,
                    Some(DegradedReason::EnvUnavailable),
                )
            }
        }
    }

    /// The mediation algorithm itself, generic over a [`TraceSink`]:
    /// with [`NoTrace`] every `enter`/`exit` call compiles away, with a
    /// [`TraceCollector`] the same code yields a [`DecisionTrace`] —
    /// the traced and untraced paths cannot diverge. `scratch` is the
    /// thread's [`DecideScratch`], held for the whole decide.
    fn mediate<S: TraceSink>(
        &self,
        request: &AccessRequest,
        index: &CompiledIndex,
        sink: &mut S,
        scratch: &mut DecideScratch,
    ) -> Result<Decision> {
        self.entities.transaction(request.transaction)?;
        self.entities.object(request.object)?;
        let DecideScratch {
            rows,
            matched,
            confidences,
        } = scratch;

        // 1. The requester's roles: cached expansions for trusted
        //    subjects, per-request closure merges for sessions and
        //    sensed contexts.
        let span = sink.enter(Stage::SubjectExpansion);
        let subject = self.subject_view(&request.actor, index, confidences)?;
        sink.exit(
            Stage::SubjectExpansion,
            span,
            if S::ACTIVE {
                subject.role_count() as u64
            } else {
                0
            },
        );

        // 2. Object roles from the cache; environment expanded per
        //    request (activation state is not generation-tracked).
        let span = sink.enter(Stage::ObjectExpansion);
        let object = index.object(request.object);
        self.metrics.closure_cache_hits.inc();
        sink.exit(
            Stage::ObjectExpansion,
            span,
            if S::ACTIVE {
                object.expanded.len() as u64
            } else {
                0
            },
        );
        let span = sink.enter(Stage::EnvironmentEvaluation);
        let (effective_env, decay, degraded_reason) = self.degraded_env(request);
        let environment = index
            .closures
            .expand_roles(effective_env.active().iter().copied());
        self.metrics.closure_cache_misses.inc();
        sink.exit(
            Stage::EnvironmentEvaluation,
            span,
            if S::ACTIVE {
                environment.len() as u64
            } else {
                0
            },
        );

        // 3. Match candidate rules in policy order: those the closure
        //    postings of the request's transaction, the requester's
        //    direct roles and the object's direct roles admit.
        let span = sink.enter(Stage::CandidateMerge);
        let mut confidence_near_miss: Option<(Confidence, Confidence)> = None;
        let mut candidate_count = 0u64;
        let candidates =
            index
                .rules
                .candidates(request.transaction, subject.direct(), &object.direct, rows);
        for position in candidates {
            candidate_count += 1;
            let rule = &self.rules[position];
            let object_distance = match rule.object_role() {
                RoleSpec::Any => usize::MAX,
                RoleSpec::Is(ro) => {
                    if !object.expanded.contains(ro) {
                        continue;
                    }
                    index.closures.min_distance(&object.direct, ro)
                }
            };
            if !rule
                .environment_roles()
                .iter()
                .all(|&role| environment.contains(role))
            {
                continue;
            }
            let (subject_distance, subject_confidence) = match rule.subject_role() {
                RoleSpec::Any => (usize::MAX, Confidence::FULL),
                RoleSpec::Is(rs) => {
                    let Some(confidence) = subject.confidence(rs) else {
                        continue;
                    };
                    let confidence = confidence.scale(decay);
                    let distance = index.closures.min_distance(subject.direct(), rs);
                    if rule.effect() == Effect::Permit {
                        let required = rule.min_confidence().unwrap_or(self.default_min_confidence);
                        if !confidence.meets(required) {
                            // Track the closest miss for the explanation.
                            let better = confidence_near_miss
                                .is_none_or(|(_, achieved)| confidence > achieved);
                            if better {
                                confidence_near_miss = Some((required, confidence));
                            }
                            continue;
                        }
                    }
                    (distance, confidence)
                }
            };
            matched.push(MatchedRule {
                rule: rule.id(),
                effect: rule.effect(),
                position,
                subject_confidence,
                subject_distance,
                object_distance,
                constraint_count: rule.constraint_count(),
            });
        }
        // The decision keeps an exact-size copy; the buffer stays with
        // the thread for the next decide.
        let matched = matched.to_vec();
        sink.exit(Stage::CandidateMerge, span, candidate_count);

        // 4. Resolve conflicts and build the decision, reusing the
        //    already-expanded role sets for the explanation.
        let span = sink.enter(Stage::PrecedenceResolution);
        let winner = self.strategy.resolve(&matched);
        let (effect, winner_id, reason) = match winner {
            Some(w) => (w.effect, Some(w.rule), Reason::ResolvedBy(self.strategy)),
            None => {
                let reason = match confidence_near_miss {
                    Some((required, achieved)) => Reason::ConfidenceTooLow { required, achieved },
                    None => Reason::DefaultDecision,
                };
                (self.default_effect, None, reason)
            }
        };
        sink.exit(Stage::PrecedenceResolution, span, matched.len() as u64);
        Ok(Decision::new(
            effect,
            Explanation {
                subject_roles: subject.into_roles(),
                object_roles: object.expanded.clone(),
                environment_roles: environment,
                matched,
                winner: winner_id,
                reason,
            },
        )
        .with_degraded(degraded_reason))
    }

    /// Builds the requester's role view for the compiled path,
    /// mirroring [`subject_bindings`](Self::subject_bindings) exactly:
    /// fully-trusted actors see their (cached) expansion at full
    /// confidence, sensed actors get the identity/claim max-merge, its
    /// confidences written into `confidences` by dense role id.
    fn subject_view<'a>(
        &self,
        actor: &Actor,
        index: &'a CompiledIndex,
        confidences: &'a mut Vec<Confidence>,
    ) -> Result<SubjectView<'a>> {
        match actor {
            Actor::Session(id) => {
                let session = self.sessions.session(*id)?;
                // Activation state is per-session, not generation-keyed,
                // so the expansion is computed per request.
                self.metrics.closure_cache_misses.inc();
                Ok(SubjectView::Full(Cow::Owned(
                    index
                        .closures
                        .expand(session.active_roles().iter().copied()),
                )))
            }
            Actor::Subject(id) => {
                self.entities.subject(*id)?;
                self.metrics.closure_cache_hits.inc();
                Ok(SubjectView::Full(Cow::Borrowed(index.subject(*id))))
            }
            Actor::Sensed(ctx) => {
                self.metrics.closure_cache_misses.inc();
                let mut direct = RoleSet::new();
                let mut held = RoleSet::new();
                // An entry counts only while its role is in `held`, so
                // the buffer is never cleared.
                confidences.resize(index.closures.role_count(), Confidence::ZERO);
                let mut hold = |role: RoleId, confidence: Confidence| {
                    let slot = &mut confidences[role.as_raw() as usize];
                    *slot = if held.insert(role) {
                        confidence
                    } else {
                        (*slot).max(confidence)
                    };
                };
                // Identity-derived roles inherit the identity confidence.
                if let Some((subject, identity_conf)) = ctx.identity() {
                    if self.entities.subject(subject).is_ok() {
                        let cached = index.subject(subject);
                        direct.union_words(cached.direct.words());
                        for role in cached.expanded.iter() {
                            hold(role, identity_conf);
                        }
                    }
                }
                // Direct role claims may exceed the identity confidence —
                // the §5.2 mechanism. Claims about undeclared roles are
                // ignored.
                for (role, claim_conf) in ctx.role_claims() {
                    if index.closures.is_declared(role) {
                        direct.insert(role);
                        for implied in index.closures.closure_members(role) {
                            hold(implied, claim_conf);
                        }
                    }
                }
                Ok(SubjectView::Mixed {
                    direct,
                    held,
                    confidences,
                })
            }
        }
    }

    /// Reference mediation path: the original full-policy scan with
    /// per-request BFS expansions. Kept (not cfg-gated) so the
    /// differential property suite and the E5 benchmark can hold the
    /// compiled path to byte-identical decisions.
    ///
    /// # Errors
    ///
    /// Unknown session/subject/object/transaction ids in the request.
    pub fn decide_naive(&self, request: &AccessRequest) -> Result<Decision> {
        self.entities.transaction(request.transaction)?;
        self.entities.object(request.object)?;

        // 1. Establish the requester's roles: direct roles for
        //    specificity distances, expanded roles with confidences for
        //    matching.
        let (direct_subject, subject_conf) = self.subject_bindings(&request.actor)?;

        // 2. Object and environment role sets, hierarchy-expanded.
        let direct_object = self.assignments.object_roles(request.object);
        let object_roles = self.roles.expand(&direct_object);
        let (effective_env, decay, degraded_reason) = self.degraded_env(request);
        let environment_roles = self.roles.expand(effective_env.active());

        // 3. Match rules in policy order.
        let mut matched = Vec::new();
        let mut confidence_near_miss: Option<(Confidence, Confidence)> = None;
        for (position, rule) in self.rules.iter().enumerate() {
            if let TransactionSpec::Is(t) = rule.transaction() {
                if t != request.transaction {
                    continue;
                }
            }
            let object_distance = match rule.object_role() {
                RoleSpec::Any => usize::MAX,
                RoleSpec::Is(ro) => {
                    if !object_roles.contains(&ro) {
                        continue;
                    }
                    self.min_distance(RoleKind::Object, &direct_object, ro)
                }
            };
            if !rule
                .environment_roles()
                .iter()
                .all(|r| environment_roles.contains(r))
            {
                continue;
            }
            let (subject_distance, subject_confidence) = match rule.subject_role() {
                RoleSpec::Any => (usize::MAX, Confidence::FULL),
                RoleSpec::Is(rs) => {
                    let Some(&confidence) = subject_conf.get(&rs) else {
                        continue;
                    };
                    let confidence = confidence.scale(decay);
                    let distance = self.min_distance(RoleKind::Subject, &direct_subject, rs);
                    if rule.effect() == Effect::Permit {
                        let required = rule.min_confidence().unwrap_or(self.default_min_confidence);
                        if !confidence.meets(required) {
                            // Track the closest miss for the explanation.
                            let better = confidence_near_miss
                                .is_none_or(|(_, achieved)| confidence > achieved);
                            if better {
                                confidence_near_miss = Some((required, confidence));
                            }
                            continue;
                        }
                    }
                    (distance, confidence)
                }
            };
            matched.push(MatchedRule {
                rule: rule.id(),
                effect: rule.effect(),
                position,
                subject_confidence,
                subject_distance,
                object_distance,
                constraint_count: rule.constraint_count(),
            });
        }

        // 4. Resolve conflicts and build the decision.
        let winner = self.strategy.resolve(&matched);
        let (effect, winner_id, reason) = match winner {
            Some(w) => (w.effect, Some(w.rule), Reason::ResolvedBy(self.strategy)),
            None => {
                let reason = match confidence_near_miss {
                    Some((required, achieved)) => Reason::ConfidenceTooLow { required, achieved },
                    None => Reason::DefaultDecision,
                };
                (self.default_effect, None, reason)
            }
        };
        Ok(Decision::new(
            effect,
            Explanation {
                subject_roles: subject_conf.into_keys().collect(),
                object_roles: object_roles.into_iter().collect(),
                environment_roles: environment_roles.into_iter().collect(),
                matched,
                winner: winner_id,
                reason,
            },
        )
        .with_degraded(degraded_reason))
    }

    /// Mediates a request and records the outcome in the audit log.
    ///
    /// # Errors
    ///
    /// Same as [`decide`](Self::decide).
    pub fn check(&mut self, request: &AccessRequest) -> Result<Decision> {
        let decision = self.decide(request)?;
        self.audit_decision(request, &decision);
        self.sync_audit_gauges();
        Ok(decision)
    }

    /// Mediates a batch and records every successful decision in the
    /// audit log, in request order — the batched equivalent of calling
    /// [`check`](Self::check) per request. Audit records, sequence
    /// numbers and metrics come out identical to the sequential path
    /// (including under the `parallel` feature: decision metrics are
    /// atomics updated by the workers, audit records are appended in
    /// request order afterwards).
    pub fn check_batch(&mut self, requests: &[AccessRequest]) -> Vec<Result<Decision>> {
        let decisions = self.decide_batch(requests);
        for (request, result) in requests.iter().zip(&decisions) {
            if let Ok(decision) = result {
                self.audit_decision(request, decision);
            }
        }
        self.sync_audit_gauges();
        decisions
    }

    /// Appends one successful decision to the audit log: the one audit
    /// step behind [`check`](Self::check) and
    /// [`check_batch`](Self::check_batch).
    fn audit_decision(&mut self, request: &AccessRequest, decision: &Decision) {
        let subject = match &request.actor {
            // The decide succeeded, so the session exists.
            Actor::Session(s) => self.sessions.session(*s).ok().map(|sess| sess.subject()),
            Actor::Subject(s) => Some(*s),
            Actor::Sensed(ctx) => ctx.identity().map(|(s, _)| s),
        };
        self.audit.record_with_id(
            decision.decision_id(),
            subject,
            request.transaction,
            request.object,
            decision.effect(),
            decision.winning_rule(),
            request.timestamp,
            decision.degraded().copied(),
        );
    }

    /// Renders a decision as plain language with all ids resolved to
    /// their declared names — the paper's usability requirement (§3)
    /// means a homeowner must be able to read *why* the system decided
    /// what it decided.
    #[must_use]
    pub fn render_decision(&self, decision: &Decision) -> String {
        let mut out = String::new();
        let explanation = decision.explanation();
        out.push_str(&format!("decision: {}\n", decision.effect()));
        out.push_str("requester holds: ");
        out.push_str(&self.role_name_list(&explanation.subject_roles));
        out.push('\n');
        out.push_str("object is: ");
        out.push_str(&self.role_name_list(&explanation.object_roles));
        out.push('\n');
        out.push_str("environment: ");
        out.push_str(&self.role_name_list(&explanation.environment_roles));
        out.push('\n');
        if explanation.matched.is_empty() {
            out.push_str("no rules matched\n");
        } else {
            out.push_str("rules matched:\n");
            for matched in &explanation.matched {
                let name = self
                    .rules
                    .iter()
                    .find(|r| r.id() == matched.rule)
                    .and_then(Rule::name)
                    .unwrap_or("(unnamed)");
                let marker = if Some(matched.rule) == explanation.winner {
                    " <- winner"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "  [{}] {} {:?}{}\n",
                    matched.effect, matched.rule, name, marker
                ));
            }
        }
        match &explanation.reason {
            Reason::DefaultDecision => {
                out.push_str("reason: no applicable rule; default applied\n");
            }
            Reason::ResolvedBy(strategy) => {
                out.push_str(&format!("reason: resolved by {strategy}\n"));
            }
            Reason::ConfidenceTooLow { required, achieved } => {
                out.push_str(&format!(
                    "reason: authentication confidence {achieved} below the required {required}\n"
                ));
            }
        }
        if let Some(reason) = decision.degraded() {
            out.push_str(&format!("degraded: {reason}\n"));
        }
        out
    }

    fn role_name_list(&self, roles: &RoleSet) -> String {
        if roles.is_empty() {
            return "(none)".to_owned();
        }
        roles
            .iter()
            .map(|id| {
                self.roles
                    .role(id)
                    .map_or_else(|_| id.to_string(), |r| r.name().to_owned())
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Computes the requester's direct role set and the expanded
    /// role-to-confidence map.
    fn subject_bindings(
        &self,
        actor: &Actor,
    ) -> Result<(BTreeSet<RoleId>, BTreeMap<RoleId, Confidence>)> {
        let mut direct = BTreeSet::new();
        let mut conf = BTreeMap::new();
        match actor {
            Actor::Session(id) => {
                let session = self.sessions.session(*id)?;
                direct.extend(session.active_roles().iter().copied());
                for role in self.roles.expand(&direct) {
                    conf.insert(role, Confidence::FULL);
                }
            }
            Actor::Subject(id) => {
                self.entities.subject(*id)?;
                direct.extend(self.assignments.subject_roles(*id));
                for role in self.roles.expand(&direct) {
                    conf.insert(role, Confidence::FULL);
                }
            }
            Actor::Sensed(ctx) => {
                // Identity-derived roles inherit the identity confidence.
                if let Some((subject, identity_conf)) = ctx.identity() {
                    if self.entities.subject(subject).is_ok() {
                        let assigned = self.assignments.subject_roles(subject);
                        direct.extend(assigned.iter().copied());
                        for role in self.roles.expand(&assigned) {
                            upgrade(&mut conf, role, identity_conf);
                        }
                    }
                }
                // Direct role claims may exceed the identity confidence —
                // the §5.2 mechanism. Claims about undeclared roles are
                // ignored.
                for (role, claim_conf) in ctx.role_claims() {
                    if let Ok(closure) = self.roles.closure(role) {
                        direct.insert(role);
                        for implied in closure {
                            upgrade(&mut conf, implied, claim_conf);
                        }
                    }
                }
            }
        }
        Ok((direct, conf))
    }

    /// Shortest hierarchy distance from any directly-held role to `target`.
    fn min_distance(&self, kind: RoleKind, direct: &BTreeSet<RoleId>, target: RoleId) -> usize {
        let hierarchy = self.roles.hierarchy(kind);
        direct
            .iter()
            .filter_map(|&held| hierarchy.distance_up(held, target))
            .min()
            .unwrap_or(usize::MAX)
    }
}

/// Each rule's slot in the rule-heat table of the engine's registry,
/// in policy order. Claimed for every rule at the first heat-recording
/// decide after the engine is built, deserialized, cloned or given a
/// new registry, then kept in step by `add_rule` (claim) and
/// `remove_rule` (release). A clone shares the registry but claims
/// slots of its own, so removing a rule from one never frees a slot
/// another still records into; the table sums them per rule id.
#[derive(Debug, Default)]
struct HeatSlots(OnceLock<Vec<u32>>);

impl Clone for HeatSlots {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Buffers a decide reuses from the one before it on the same thread,
/// so a steady-state decide allocates only what its decision keeps.
#[derive(Default)]
struct DecideScratch {
    /// The candidate row, and the posting rows of request sides that
    /// hold several direct roles.
    rows: Vec<u64>,
    /// The matched rules, copied into the decision at one allocation
    /// of the exact size.
    matched: Vec<MatchedRule>,
    /// A sensed requester's confidence per dense role id.
    confidences: Vec<Confidence>,
}

thread_local! {
    static SCRATCH: RefCell<DecideScratch> = const {
        RefCell::new(DecideScratch {
            rows: Vec::new(),
            matched: Vec::new(),
            confidences: Vec::new(),
        })
    };
}

/// Runs `f` with this thread's scratch, its matched list emptied, or
/// with fresh scratch if `f` runs inside another decide on the thread.
fn with_scratch<R>(f: impl FnOnce(&mut DecideScratch) -> R) -> R {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => {
            scratch.matched.clear();
            f(&mut scratch)
        }
        Err(_) => f(&mut DecideScratch::default()),
    })
}

fn upgrade(conf: &mut BTreeMap<RoleId, Confidence>, role: RoleId, confidence: Confidence) {
    conf.entry(role)
        .and_modify(|c| *c = (*c).max(confidence))
        .or_insert(confidence);
}

/// The requester's roles as seen by the compiled mediation path.
///
/// Fully-trusted actors (sessions, logged-in subjects) hold their
/// entire expansion at [`Confidence::FULL`], so a bitset membership
/// test replaces the role→confidence map the naive path builds; only
/// sensed actors need per-role confidences.
enum SubjectView<'a> {
    /// Every expanded role at full confidence; borrows the cached
    /// expansion for [`Actor::Subject`], owns a fresh one for
    /// [`Actor::Session`].
    Full(Cow<'a, CachedExpansion>),
    /// Sensed actor: direct roles, the roles held at some confidence,
    /// and the max-merged confidence of each held role by dense id.
    Mixed {
        direct: RoleSet,
        held: RoleSet,
        confidences: &'a [Confidence],
    },
}

impl SubjectView<'_> {
    /// The confidence at which the requester holds `role`, if at all.
    fn confidence(&self, role: RoleId) -> Option<Confidence> {
        match self {
            SubjectView::Full(expansion) => expansion
                .expanded
                .contains(role)
                .then_some(Confidence::FULL),
            SubjectView::Mixed {
                held, confidences, ..
            } => held
                .contains(role)
                .then(|| confidences[role.as_raw() as usize]),
        }
    }

    /// The direct (unexpanded) role set, for specificity distances and
    /// the candidate walk. For a sensed actor these are the identity's
    /// roles and the claimed roles, whose closures are every role with
    /// a confidence, including those below a rule's threshold, so
    /// confidence near-misses are still found.
    fn direct(&self) -> &RoleSet {
        match self {
            SubjectView::Full(expansion) => &expansion.direct,
            SubjectView::Mixed { direct, .. } => direct,
        }
    }

    /// Number of expanded roles the requester holds (trace item count).
    fn role_count(&self) -> usize {
        match self {
            SubjectView::Full(expansion) => expansion.expanded.len(),
            SubjectView::Mixed { held, .. } => held.len(),
        }
    }

    /// The expanded role set for the explanation, reusing the already
    /// computed expansion instead of rebuilding it per request.
    fn into_roles(self) -> RoleSet {
        match self {
            SubjectView::Full(Cow::Borrowed(expansion)) => expansion.expanded.clone(),
            SubjectView::Full(Cow::Owned(expansion)) => expansion.expanded,
            SubjectView::Mixed { held, .. } => held,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the §5.1 household: roles, hierarchy, entities, one rule.
    fn section51() -> (Grbac, Fixture) {
        let mut g = Grbac::new();
        let home_user = g.declare_subject_role("home_user").unwrap();
        let family = g.declare_subject_role("family_member").unwrap();
        let parent = g.declare_subject_role("parent").unwrap();
        let child = g.declare_subject_role("child").unwrap();
        g.specialize(family, home_user).unwrap();
        g.specialize(parent, family).unwrap();
        g.specialize(child, family).unwrap();

        let entertainment = g.declare_object_role("entertainment_devices").unwrap();
        let weekdays = g.declare_environment_role("weekdays").unwrap();
        let free_time = g.declare_environment_role("free_time").unwrap();
        let use_t = g.declare_transaction("use").unwrap();

        let mom = g.declare_subject("mom").unwrap();
        let bobby = g.declare_subject("bobby").unwrap();
        g.assign_subject_role(mom, parent).unwrap();
        g.assign_subject_role(bobby, child).unwrap();

        let tv = g.declare_object("tv").unwrap();
        g.assign_object_role(tv, entertainment).unwrap();

        g.add_rule(
            RuleDef::permit()
                .named("kids tv policy")
                .subject_role(child)
                .object_role(entertainment)
                .transaction(use_t)
                .when(weekdays)
                .when(free_time),
        )
        .unwrap();

        (
            g,
            Fixture {
                child,
                parent,
                entertainment,
                weekdays,
                free_time,
                use_t,
                mom,
                bobby,
                tv,
            },
        )
    }

    struct Fixture {
        child: RoleId,
        parent: RoleId,
        entertainment: RoleId,
        weekdays: RoleId,
        free_time: RoleId,
        use_t: TransactionId,
        mom: SubjectId,
        bobby: SubjectId,
        tv: ObjectId,
    }

    #[test]
    fn section51_grants_child_in_free_time() {
        let (g, f) = section51();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(d.is_permitted());
        assert!(d.winning_rule().is_some());
    }

    #[test]
    fn section51_denies_outside_free_time() {
        let (g, f) = section51();
        let env = EnvironmentSnapshot::from_active([f.weekdays]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
        assert_eq!(d.explanation().reason, Reason::DefaultDecision);
    }

    #[test]
    fn records_written_into_evicted_slots_hold_only_their_own_decision() {
        let (mut g, f) = section51();
        g.add_rule(
            RuleDef::deny()
                .subject_role(f.parent)
                .object_role(f.entertainment)
                .transaction(f.use_t),
        )
        .unwrap();
        g.set_flight_recorder_capacity(2);
        let envs = [
            vec![f.weekdays, f.free_time],
            vec![f.weekdays],
            vec![],
            vec![f.free_time, f.weekdays],
            vec![f.free_time],
        ];
        // Past the first two decides every record reuses an evicted one.
        for (i, env) in envs.iter().cycle().take(12).enumerate() {
            let who = if i % 3 == 0 { f.mom } else { f.bobby };
            let request = AccessRequest::by_subject(
                who,
                f.use_t,
                f.tv,
                EnvironmentSnapshot::from_active(env.iter().copied()),
            );
            let decision = g.decide(&request).unwrap();
            let record = g.flight_recorder().latest(1).remove(0);
            assert_eq!(record.actor, request.actor);
            let active: Vec<RoleId> = request.environment.active().iter().copied().collect();
            assert_eq!(record.env_roles, active);
            let matched: Vec<RuleId> = decision
                .explanation()
                .matched
                .iter()
                .map(|m| m.rule)
                .collect();
            assert_eq!(record.matched_rules, matched);
            assert_eq!(record.winning_rule, decision.winning_rule());
            assert_eq!(record.decision_id, decision.decision_id());
        }
        assert_eq!(g.flight_recorder().dropped(), 10);
    }

    #[test]
    fn section51_denies_parent_by_default() {
        // The single rule names `child`; Mom holds `parent` which does
        // not specialize `child`, so default-deny applies.
        let (g, f) = section51();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.mom, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
    }

    #[test]
    fn hierarchy_grants_through_general_role() {
        // A rule for `family_member` covers Bobby (child ⊑ family_member).
        let (mut g, f) = section51();
        let family = g.roles().find(RoleKind::Subject, "family_member").unwrap();
        let view = g.declare_transaction("view").unwrap();
        let album = g.declare_object("photo_album").unwrap();
        let media = g.declare_object_role("family_media").unwrap();
        g.assign_object_role(album, media).unwrap();
        g.add_rule(
            RuleDef::permit()
                .subject_role(family)
                .object_role(media)
                .transaction(view),
        )
        .unwrap();
        let d = g
            .decide(&AccessRequest::by_subject(
                f.bobby,
                view,
                album,
                EnvironmentSnapshot::new(),
            ))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn environment_hierarchy_expands() {
        // `monday` specializes `weekdays`: activating monday satisfies a
        // weekdays requirement.
        let (mut g, f) = section51();
        let monday = g.declare_environment_role("monday").unwrap();
        g.specialize(monday, f.weekdays).unwrap();
        let env = EnvironmentSnapshot::from_active([monday, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn deny_rule_overrides_permit_by_default() {
        let (mut g, f) = section51();
        g.add_rule(
            RuleDef::deny()
                .named("tv grounded")
                .subject_role(f.child)
                .object_role(f.entertainment),
        )
        .unwrap();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
        assert_eq!(d.explanation().matched.len(), 2);
    }

    #[test]
    fn permit_overrides_flips_the_outcome() {
        let (mut g, f) = section51();
        g.add_rule(
            RuleDef::deny()
                .subject_role(f.child)
                .object_role(f.entertainment),
        )
        .unwrap();
        g.set_strategy(ConflictStrategy::PermitOverrides);
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn sessions_limit_to_active_roles() {
        let (mut g, f) = section51();
        let session = g.open_session(f.bobby).unwrap();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);

        // Nothing active: deny.
        let d = g
            .decide(&AccessRequest::by_session(
                session,
                f.use_t,
                f.tv,
                env.clone(),
            ))
            .unwrap();
        assert!(!d.is_permitted());

        // Activate `child`: permit.
        g.activate_role(session, f.child).unwrap();
        let d = g
            .decide(&AccessRequest::by_session(session, f.use_t, f.tv, env))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn activation_requires_authorization() {
        let (mut g, f) = section51();
        let session = g.open_session(f.bobby).unwrap();
        let err = g.activate_role(session, f.parent).unwrap_err();
        assert!(matches!(err, GrbacError::RoleNotAuthorized { .. }));
    }

    #[test]
    fn activation_of_implied_general_role_is_allowed() {
        let (mut g, f) = section51();
        let family = g.roles().find(RoleKind::Subject, "family_member").unwrap();
        let session = g.open_session(f.bobby).unwrap();
        g.activate_role(session, family).unwrap();
        assert!(g.sessions().session(session).unwrap().is_active(family));
    }

    #[test]
    fn dynamic_sod_blocks_simultaneous_activation() {
        let mut g = Grbac::new();
        let teller = g.declare_subject_role("teller").unwrap();
        let holder = g.declare_subject_role("account_holder").unwrap();
        let pat = g.declare_subject("pat").unwrap();
        g.assign_subject_role(pat, teller).unwrap();
        g.assign_subject_role(pat, holder).unwrap();
        g.add_sod_constraint(
            SodConstraint::mutual_exclusion("teller-vs-holder", SodKind::Dynamic, teller, holder)
                .unwrap(),
        )
        .unwrap();
        let session = g.open_session(pat).unwrap();
        g.activate_role(session, teller).unwrap();
        let err = g.activate_role(session, holder).unwrap_err();
        assert!(matches!(err, GrbacError::SodViolation { .. }));
        // But a second session may activate the other role.
        let other = g.open_session(pat).unwrap();
        g.activate_role(other, holder).unwrap();
    }

    #[test]
    fn static_sod_blocks_assignment() {
        let mut g = Grbac::new();
        let auditor = g.declare_subject_role("auditor").unwrap();
        let approver = g.declare_subject_role("approver").unwrap();
        g.add_sod_constraint(
            SodConstraint::mutual_exclusion("audit-vs-approve", SodKind::Static, auditor, approver)
                .unwrap(),
        )
        .unwrap();
        let pat = g.declare_subject("pat").unwrap();
        g.assign_subject_role(pat, auditor).unwrap();
        assert!(matches!(
            g.assign_subject_role(pat, approver),
            Err(GrbacError::SodViolation { .. })
        ));
    }

    #[test]
    fn adding_sod_checks_existing_state() {
        let mut g = Grbac::new();
        let a = g.declare_subject_role("a").unwrap();
        let b = g.declare_subject_role("b").unwrap();
        let pat = g.declare_subject("pat").unwrap();
        g.assign_subject_role(pat, a).unwrap();
        g.assign_subject_role(pat, b).unwrap();
        let err = g
            .add_sod_constraint(
                SodConstraint::mutual_exclusion("late", SodKind::Static, a, b).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, GrbacError::SodViolation { .. }));
    }

    #[test]
    fn sensed_actor_identity_below_threshold_is_denied() {
        // §5.2: Alice identified at 75% against a 90% threshold.
        let (mut g, f) = section51();
        g.set_default_min_confidence(Confidence::new(0.90).unwrap());
        let mut ctx = AuthContext::new();
        ctx.claim_identity(f.bobby, Confidence::new(0.75).unwrap());
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_sensed(ctx, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
        assert!(matches!(
            d.explanation().reason,
            Reason::ConfidenceTooLow { .. }
        ));
    }

    #[test]
    fn sensed_actor_role_claim_above_threshold_is_permitted() {
        // §5.2: the floor authenticates Alice *into the child role* at
        // 98%, clearing the 90% bar even though identity sits at 75%.
        let (mut g, f) = section51();
        g.set_default_min_confidence(Confidence::new(0.90).unwrap());
        let mut ctx = AuthContext::new();
        ctx.claim_identity(f.bobby, Confidence::new(0.75).unwrap());
        ctx.claim_role(f.child, Confidence::new(0.98).unwrap());
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_sensed(ctx, f.use_t, f.tv, env))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn deny_rules_apply_even_at_low_confidence() {
        let (mut g, f) = section51();
        g.set_default_min_confidence(Confidence::new(0.90).unwrap());
        g.add_rule(
            RuleDef::deny()
                .subject_role(f.child)
                .object_role(f.entertainment),
        )
        .unwrap();
        let mut ctx = AuthContext::new();
        ctx.claim_role(f.child, Confidence::new(0.30).unwrap());
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_sensed(ctx, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
        assert!(d.winning_rule().is_some(), "deny rule matched, not default");
    }

    #[test]
    fn rule_specific_threshold_overrides_default() {
        let (mut g, f) = section51();
        // Tighten only the tv rule: require 99%.
        g.remove_rule(g.rules()[0].id());
        g.add_rule(
            RuleDef::permit()
                .subject_role(f.child)
                .object_role(f.entertainment)
                .transaction(f.use_t)
                .when(f.weekdays)
                .when(f.free_time)
                .min_confidence(Confidence::new(0.99).unwrap()),
        )
        .unwrap();
        g.set_default_min_confidence(Confidence::new(0.5).unwrap());
        let mut ctx = AuthContext::new();
        ctx.claim_role(f.child, Confidence::new(0.98).unwrap());
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_sensed(ctx, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
    }

    #[test]
    fn check_records_audit() {
        let (mut g, f) = section51();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        g.check(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env.clone()).at(42))
            .unwrap();
        g.check(&AccessRequest::by_subject(f.mom, f.use_t, f.tv, env))
            .unwrap();
        assert_eq!(g.audit().permit_count(), 1);
        assert_eq!(g.audit().deny_count(), 1);
        assert_eq!(g.audit().iter().next().unwrap().timestamp, Some(42));
    }

    #[test]
    fn unknown_entities_error() {
        let (g, f) = section51();
        let bad_object = ObjectId::from_raw(99);
        assert!(g
            .decide(&AccessRequest::by_subject(
                f.bobby,
                f.use_t,
                bad_object,
                EnvironmentSnapshot::new()
            ))
            .is_err());
        let bad_txn = TransactionId::from_raw(99);
        assert!(g
            .decide(&AccessRequest::by_subject(
                f.bobby,
                bad_txn,
                f.tv,
                EnvironmentSnapshot::new()
            ))
            .is_err());
    }

    #[test]
    fn unknown_ids_name_their_kind() {
        let (mut g, f) = section51();
        // Declared but never assigned: known, with no roles.
        let guest = g.declare_subject("guest").unwrap();
        let lamp = g.declare_object("lamp").unwrap();
        let env = EnvironmentSnapshot::new;
        for (subject, object) in [(guest, f.tv), (f.bobby, lamp)] {
            let decision = g
                .decide(&AccessRequest::by_subject(subject, f.use_t, object, env()))
                .unwrap();
            assert_eq!(decision.explanation().reason, Reason::DefaultDecision);
        }
        // Ids next to the minted ones, far past them, and at the top of
        // the id space.
        for raw in [3, 99, u64::MAX] {
            let subject = SubjectId::from_raw(raw);
            let object = ObjectId::from_raw(raw);
            let transaction = TransactionId::from_raw(raw);
            let decide = |s, t, o| g.decide(&AccessRequest::by_subject(s, t, o, env()));
            assert!(matches!(
                decide(subject, f.use_t, f.tv),
                Err(GrbacError::UnknownSubject(id)) if id == subject
            ));
            assert!(matches!(
                decide(f.bobby, f.use_t, object),
                Err(GrbacError::UnknownObject(id)) if id == object
            ));
            assert!(matches!(
                decide(f.bobby, transaction, f.tv),
                Err(GrbacError::UnknownTransaction(id)) if id == transaction
            ));
        }
    }

    #[test]
    fn rules_reject_wrong_role_kinds() {
        let (mut g, f) = section51();
        // Environment role in the subject position.
        let err = g
            .add_rule(RuleDef::permit().subject_role(f.weekdays))
            .unwrap_err();
        assert!(matches!(err, GrbacError::WrongRoleKind { .. }));
        // Subject role in the environment position.
        let err = g.add_rule(RuleDef::permit().when(f.child)).unwrap_err();
        assert!(matches!(err, GrbacError::WrongRoleKind { .. }));
    }

    #[test]
    fn most_specific_prefers_child_rule_over_family_rule() {
        let (mut g, f) = section51();
        let family = g.roles().find(RoleKind::Subject, "family_member").unwrap();
        let read = g.declare_transaction("read").unwrap();
        let records = g.declare_object("medical_records").unwrap();
        let sensitive = g.declare_object_role("sensitive_documents").unwrap();
        g.assign_object_role(records, sensitive).unwrap();
        // family_member may read; child may not (the paper's Bobby case).
        g.add_rule(
            RuleDef::permit()
                .subject_role(family)
                .object_role(sensitive)
                .transaction(read),
        )
        .unwrap();
        g.add_rule(
            RuleDef::deny()
                .subject_role(f.child)
                .object_role(sensitive)
                .transaction(read),
        )
        .unwrap();
        g.set_strategy(ConflictStrategy::MostSpecific);
        let d = g
            .decide(&AccessRequest::by_subject(
                f.bobby,
                read,
                records,
                EnvironmentSnapshot::new(),
            ))
            .unwrap();
        assert!(!d.is_permitted(), "the more specific child rule wins");
        // Mom (parent, not child) is permitted through family_member.
        let d = g
            .decide(&AccessRequest::by_subject(
                f.mom,
                read,
                records,
                EnvironmentSnapshot::new(),
            ))
            .unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn default_effect_is_configurable() {
        let (mut g, f) = section51();
        g.set_default_effect(Effect::Permit);
        let d = g
            .decide(&AccessRequest::by_subject(
                f.mom,
                f.use_t,
                f.tv,
                EnvironmentSnapshot::new(),
            ))
            .unwrap();
        assert!(d.is_permitted());
        assert_eq!(d.winning_rule(), None);
    }

    #[test]
    fn remove_rule_works() {
        let (mut g, f) = section51();
        let id = g.rules()[0].id();
        assert!(g.remove_rule(id));
        assert!(!g.remove_rule(id));
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted());
    }

    /// An engine with `n` named rules, each granting its own
    /// transaction, and the ids in policy order.
    fn numbered_rules(n: usize) -> (Grbac, Vec<RuleId>) {
        let mut g = Grbac::new();
        let t = g.declare_transaction("t").unwrap();
        let ids = (0..n)
            .map(|i| {
                g.add_rule(RuleDef::permit().named(format!("r{i}")).transaction(t))
                    .unwrap()
            })
            .collect();
        (g, ids)
    }

    fn policy_ids(g: &Grbac) -> Vec<RuleId> {
        g.rules().iter().map(Rule::id).collect()
    }

    #[test]
    fn remove_rule_finds_first_middle_last_and_refuses_unknown() {
        let (mut g, ids) = numbered_rules(9);
        for i in [0, 4, 8] {
            let removed = ids[i];
            assert_eq!(g.rule_label(removed), format!("r{i}"));
            assert!(g.remove_rule(removed));
            assert!(!g.remove_rule(removed), "already removed");
            assert_eq!(g.rule_label(removed), removed.to_string());
        }
        let remaining: Vec<RuleId> = ids
            .iter()
            .copied()
            .filter(|id| ![ids[0], ids[4], ids[8]].contains(id))
            .collect();
        assert_eq!(policy_ids(&g), remaining);
        let generation = g.policy_generation();
        assert!(!g.remove_rule(RuleId::from_raw(1_000)));
        assert_eq!(g.policy_generation(), generation, "a miss edits nothing");
        assert!(g.compiled_matches_rebuild());
    }

    #[test]
    fn remove_rule_finds_rules_of_an_out_of_order_snapshot() {
        let (mut g, ids) = numbered_rules(7);
        // A snapshot whose rules array is out of id order.
        g.rules.reverse();
        let json = serde_json::to_string(&g).unwrap();
        let mut reloaded: Grbac = serde_json::from_str(&json).unwrap();
        let mut expected: Vec<RuleId> = ids.iter().rev().copied().collect();
        assert_eq!(policy_ids(&reloaded), expected);
        for i in [3, 0, 6, 5] {
            let removed = ids[i];
            assert_eq!(reloaded.rule_label(removed), format!("r{i}"));
            assert!(reloaded.remove_rule(removed), "removing {removed}");
            expected.retain(|&id| id != removed);
            assert_eq!(policy_ids(&reloaded), expected);
            assert!(reloaded.compiled_matches_rebuild());
        }
        assert!(!reloaded.remove_rule(ids[3]));
    }

    #[test]
    fn revocation_drops_session_activations_immediately() {
        let (mut g, f) = section51();
        let session = g.open_session(f.bobby).unwrap();
        g.activate_role(session, f.child).unwrap();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        assert!(g
            .decide(&AccessRequest::by_session(
                session,
                f.use_t,
                f.tv,
                env.clone()
            ))
            .unwrap()
            .is_permitted());

        // Revoke `child`: the open session must lose access at once.
        g.revoke_subject_role(f.bobby, f.child).unwrap();
        assert!(!g.sessions().session(session).unwrap().is_active(f.child));
        assert!(!g
            .decide(&AccessRequest::by_session(session, f.use_t, f.tv, env))
            .unwrap()
            .is_permitted());
    }

    #[test]
    fn revocation_keeps_activations_still_backed_by_other_roles() {
        // Bobby is assigned both `child` and, say, a scout role that
        // specializes child... model via two assigned roles where the
        // active role is implied by the remaining one.
        let mut g = Grbac::new();
        let family = g.declare_subject_role("family_member").unwrap();
        let child = g.declare_subject_role("child").unwrap();
        g.specialize(child, family).unwrap();
        let s = g.declare_subject("bobby").unwrap();
        g.assign_subject_role(s, child).unwrap();
        g.assign_subject_role(s, family).unwrap();
        let session = g.open_session(s).unwrap();
        g.activate_role(session, family).unwrap();
        // Revoking the *direct* family assignment leaves `family`
        // active because `child` still implies it.
        g.revoke_subject_role(s, family).unwrap();
        assert!(g.sessions().session(session).unwrap().is_active(family));
        // Revoking child too removes the last backing.
        g.revoke_subject_role(s, child).unwrap();
        assert!(!g.sessions().session(session).unwrap().is_active(family));
    }

    #[test]
    fn render_decision_resolves_names() {
        let (g, f) = section51();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, f.use_t, f.tv, env))
            .unwrap();
        let text = g.render_decision(&d);
        assert!(text.contains("decision: permit"), "{text}");
        assert!(text.contains("child"), "{text}");
        assert!(text.contains("entertainment_devices"), "{text}");
        assert!(text.contains("weekdays"), "{text}");
        assert!(text.contains("kids tv policy"), "{text}");
        assert!(text.contains("<- winner"), "{text}");

        // A default deny renders the fallback reason.
        let d = g
            .decide(&AccessRequest::by_subject(
                f.mom,
                f.use_t,
                f.tv,
                EnvironmentSnapshot::new(),
            ))
            .unwrap();
        let text = g.render_decision(&d);
        assert!(text.contains("no rules matched"), "{text}");
        assert!(text.contains("default applied"), "{text}");
    }

    #[test]
    fn render_decision_reports_confidence_shortfall() {
        let (mut g, f) = section51();
        g.set_default_min_confidence(Confidence::new(0.9).unwrap());
        let mut ctx = AuthContext::new();
        ctx.claim_role(f.child, Confidence::new(0.75).unwrap());
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_sensed(ctx, f.use_t, f.tv, env))
            .unwrap();
        let text = g.render_decision(&d);
        assert!(
            text.contains("confidence 75.0% below the required 90.0%"),
            "{text}"
        );
    }

    #[test]
    fn transaction_spec_filters() {
        let (mut g, f) = section51();
        let repair = g.declare_transaction("repair").unwrap();
        let env = EnvironmentSnapshot::from_active([f.weekdays, f.free_time]);
        let d = g
            .decide(&AccessRequest::by_subject(f.bobby, repair, f.tv, env))
            .unwrap();
        assert!(!d.is_permitted(), "rule is scoped to the `use` transaction");
    }
}
