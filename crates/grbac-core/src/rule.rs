//! Policy rules: the GRBAC authorization relation (§4.2.4).
//!
//! A [`Rule`] permits or denies a *transaction* for the triple
//! (subject role, object role, environment roles). The §5.1 policy
//! "any child can use entertainment devices on weekdays during free time"
//! is exactly one rule:
//!
//! ```text
//! permit  subject:child  transaction:use  object:entertainment_devices
//!         when weekdays ∧ free_time
//! ```
//!
//! Negative authorizations ("children are denied access to dangerous
//! appliances", §3) are rules with [`Effect::Deny`]; conflicts between
//! positive and negative rules are settled by a
//! [`ConflictStrategy`](crate::precedence::ConflictStrategy).

use serde::{Deserialize, Serialize};

use crate::confidence::Confidence;
use crate::id::{RoleId, RuleId, TransactionId};

/// Whether a rule grants or forbids access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Effect {
    /// The rule grants the transaction.
    Permit,
    /// The rule forbids the transaction.
    Deny,
}

impl std::fmt::Display for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Effect::Permit => "permit",
            Effect::Deny => "deny",
        })
    }
}

impl std::ops::Not for Effect {
    type Output = Effect;

    fn not(self) -> Effect {
        match self {
            Effect::Permit => Effect::Deny,
            Effect::Deny => Effect::Permit,
        }
    }
}

/// Constrains the subject-role or object-role position of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoleSpec {
    /// Matches any requester/object regardless of roles.
    Any,
    /// Matches when the entity possesses (directly or through the
    /// hierarchy) the named role.
    Is(RoleId),
}

impl RoleSpec {
    /// The constrained role, if any.
    #[must_use]
    pub fn role(self) -> Option<RoleId> {
        match self {
            RoleSpec::Any => None,
            RoleSpec::Is(r) => Some(r),
        }
    }

    /// True if this spec constrains nothing.
    #[must_use]
    pub fn is_any(self) -> bool {
        matches!(self, RoleSpec::Any)
    }
}

/// Constrains the transaction position of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransactionSpec {
    /// Matches every transaction.
    Any,
    /// Matches one specific transaction.
    Is(TransactionId),
}

impl TransactionSpec {
    /// The constrained transaction, if any.
    #[must_use]
    pub fn transaction(self) -> Option<TransactionId> {
        match self {
            TransactionSpec::Any => None,
            TransactionSpec::Is(t) => Some(t),
        }
    }

    /// True if this spec constrains nothing.
    #[must_use]
    pub fn is_any(self) -> bool {
        matches!(self, TransactionSpec::Any)
    }
}

/// A single authorization rule.
///
/// Built through [`RuleDef`] (validated and registered by
/// [`crate::engine::Grbac::add_rule`]), after which it is immutable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    id: RuleId,
    name: Option<String>,
    effect: Effect,
    subject_role: RoleSpec,
    object_role: RoleSpec,
    /// All listed environment roles must be active (conjunction); an
    /// empty list means the rule applies in any environment.
    environment_roles: Vec<RoleId>,
    transaction: TransactionSpec,
    /// Minimum authentication confidence required of the subject-role
    /// binding for a Permit rule to apply. `None` falls back to the
    /// engine-wide default threshold.
    min_confidence: Option<Confidence>,
}

impl Rule {
    pub(crate) fn from_def(id: RuleId, def: RuleDef) -> Self {
        Self {
            id,
            name: def.name,
            effect: def.effect,
            subject_role: def.subject_role,
            object_role: def.object_role,
            environment_roles: def.environment_roles,
            transaction: def.transaction,
            min_confidence: def.min_confidence,
        }
    }

    /// Extracts the delta recorded when this rule is appended at
    /// `position`: its transaction, subject-role and object-role specs,
    /// which name every rule posting the incremental patch sets a bit
    /// in.
    pub(crate) fn added_delta(&self, position: u32) -> crate::delta::PolicyDelta {
        crate::delta::PolicyDelta::RuleAdded {
            position,
            transaction: self.transaction,
            subject: self.subject_role,
            object: self.object_role,
        }
    }

    /// The rule's identifier.
    #[must_use]
    pub fn id(&self) -> RuleId {
        self.id
    }

    /// Optional human-readable name.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Permit or Deny.
    #[must_use]
    pub fn effect(&self) -> Effect {
        self.effect
    }

    /// The subject-role constraint.
    #[must_use]
    pub fn subject_role(&self) -> RoleSpec {
        self.subject_role
    }

    /// The object-role constraint.
    #[must_use]
    pub fn object_role(&self) -> RoleSpec {
        self.object_role
    }

    /// The environment roles that must all be active.
    #[must_use]
    pub fn environment_roles(&self) -> &[RoleId] {
        &self.environment_roles
    }

    /// The transaction constraint.
    #[must_use]
    pub fn transaction(&self) -> TransactionSpec {
        self.transaction
    }

    /// The rule-specific confidence threshold, if any.
    #[must_use]
    pub fn min_confidence(&self) -> Option<Confidence> {
        self.min_confidence
    }

    /// A rough specificity count: how many positions are constrained.
    /// Used as a tie-breaker by the most-specific strategy.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        usize::from(!self.subject_role.is_any())
            + usize::from(!self.object_role.is_any())
            + usize::from(!self.transaction.is_any())
            + self.environment_roles.len()
    }
}

/// Declarative description of a rule, consumed by
/// [`crate::engine::Grbac::add_rule`].
///
/// # Examples
///
/// ```
/// use grbac_core::rule::{Effect, RuleDef};
/// use grbac_core::id::RoleId;
///
/// let child = RoleId::from_raw(0);
/// let entertainment = RoleId::from_raw(1);
/// let weekdays = RoleId::from_raw(2);
/// let free_time = RoleId::from_raw(3);
///
/// let def = RuleDef::permit()
///     .named("kids tv policy")
///     .subject_role(child)
///     .object_role(entertainment)
///     .when(weekdays)
///     .when(free_time);
/// assert_eq!(def.effect, Effect::Permit);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleDef {
    /// Permit or Deny.
    pub effect: Effect,
    /// Optional diagnostic name.
    pub name: Option<String>,
    /// Subject-role constraint (default `Any`).
    pub subject_role: RoleSpec,
    /// Object-role constraint (default `Any`).
    pub object_role: RoleSpec,
    /// Environment-role conjunction (default empty = always).
    pub environment_roles: Vec<RoleId>,
    /// Transaction constraint (default `Any`).
    pub transaction: TransactionSpec,
    /// Optional rule-specific confidence threshold.
    pub min_confidence: Option<Confidence>,
}

impl RuleDef {
    /// Starts a rule with the given effect and no constraints.
    #[must_use]
    pub fn new(effect: Effect) -> Self {
        Self {
            effect,
            name: None,
            subject_role: RoleSpec::Any,
            object_role: RoleSpec::Any,
            environment_roles: Vec::new(),
            transaction: TransactionSpec::Any,
            min_confidence: None,
        }
    }

    /// Starts an unconstrained Permit rule.
    #[must_use]
    pub fn permit() -> Self {
        Self::new(Effect::Permit)
    }

    /// Starts an unconstrained Deny rule.
    #[must_use]
    pub fn deny() -> Self {
        Self::new(Effect::Deny)
    }

    /// Names the rule for diagnostics and explanations.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Constrains the subject role.
    #[must_use]
    pub fn subject_role(mut self, role: RoleId) -> Self {
        self.subject_role = RoleSpec::Is(role);
        self
    }

    /// Constrains the object role.
    #[must_use]
    pub fn object_role(mut self, role: RoleId) -> Self {
        self.object_role = RoleSpec::Is(role);
        self
    }

    /// Adds an environment role that must be active (conjunction).
    #[must_use]
    pub fn when(mut self, role: RoleId) -> Self {
        if !self.environment_roles.contains(&role) {
            self.environment_roles.push(role);
        }
        self
    }

    /// Constrains the transaction.
    #[must_use]
    pub fn transaction(mut self, transaction: TransactionId) -> Self {
        self.transaction = TransactionSpec::Is(transaction);
        self
    }

    /// Requires at least this confidence in the subject-role binding.
    #[must_use]
    pub fn min_confidence(mut self, confidence: Confidence) -> Self {
        self.min_confidence = Some(confidence);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u64) -> RoleId {
        RoleId::from_raw(n)
    }

    #[test]
    fn effect_negation() {
        assert_eq!(!Effect::Permit, Effect::Deny);
        assert_eq!(!Effect::Deny, Effect::Permit);
        assert_eq!(Effect::Permit.to_string(), "permit");
    }

    #[test]
    fn specs_expose_constraints() {
        assert!(RoleSpec::Any.is_any());
        assert_eq!(RoleSpec::Any.role(), None);
        assert_eq!(RoleSpec::Is(r(3)).role(), Some(r(3)));
        assert!(TransactionSpec::Any.is_any());
        assert_eq!(
            TransactionSpec::Is(TransactionId::from_raw(1)).transaction(),
            Some(TransactionId::from_raw(1))
        );
    }

    #[test]
    fn builder_accumulates_constraints() {
        let def = RuleDef::permit()
            .named("kids tv policy")
            .subject_role(r(0))
            .object_role(r(1))
            .when(r(2))
            .when(r(3))
            .when(r(2)) // duplicate ignored
            .transaction(TransactionId::from_raw(0))
            .min_confidence(Confidence::new(0.9).unwrap());
        assert_eq!(def.name.as_deref(), Some("kids tv policy"));
        assert_eq!(def.environment_roles, vec![r(2), r(3)]);
        assert_eq!(def.subject_role, RoleSpec::Is(r(0)));
        assert_eq!(def.object_role, RoleSpec::Is(r(1)));
        assert!(def.min_confidence.is_some());
    }

    #[test]
    fn constraint_count_reflects_specificity() {
        let rule = Rule::from_def(RuleId::from_raw(0), RuleDef::permit());
        assert_eq!(rule.constraint_count(), 0);
        let rule = Rule::from_def(
            RuleId::from_raw(1),
            RuleDef::deny()
                .subject_role(r(0))
                .object_role(r(1))
                .when(r(2))
                .when(r(3))
                .transaction(TransactionId::from_raw(0)),
        );
        assert_eq!(rule.constraint_count(), 5);
    }

    #[test]
    fn rule_accessors() {
        let rule = Rule::from_def(
            RuleId::from_raw(7),
            RuleDef::deny()
                .named("no dangerous appliances")
                .subject_role(r(0)),
        );
        assert_eq!(rule.id(), RuleId::from_raw(7));
        assert_eq!(rule.name(), Some("no dangerous appliances"));
        assert_eq!(rule.effect(), Effect::Deny);
        assert!(rule.object_role().is_any());
        assert!(rule.environment_roles().is_empty());
        assert_eq!(rule.min_confidence(), None);
    }
}
