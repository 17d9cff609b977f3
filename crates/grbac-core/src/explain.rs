//! Decisions and their explanations.
//!
//! The paper's usability thesis — homeowners must be able to understand
//! their policies — motivates returning not just permit/deny but a full
//! account of *why*: which roles the requester was found to hold (and
//! with what confidence), which rules matched, which rule won and under
//! which conflict-resolution strategy.

use serde::{Deserialize, Serialize};

use crate::confidence::Confidence;
use crate::degraded::DegradedReason;
use crate::id::RuleId;
use crate::precedence::ConflictStrategy;
use crate::roleset::RoleSet;
use crate::rule::Effect;

/// A rule that matched a request, with the bindings that made it match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedRule {
    /// The matching rule.
    pub rule: RuleId,
    /// The rule's effect.
    pub effect: Effect,
    /// Position of the rule in policy order (for first-applicable).
    pub position: usize,
    /// Confidence of the subject-role binding that satisfied the rule
    /// ([`Confidence::FULL`] for session/trusted actors or `Any` specs).
    pub subject_confidence: Confidence,
    /// Shortest hierarchy distance from a directly-held subject role to
    /// the rule's subject role (`0` = direct, `usize::MAX` = `Any` spec).
    pub subject_distance: usize,
    /// Same, for the object position.
    pub object_distance: usize,
    /// How many positions the rule constrains (tie-breaker).
    pub constraint_count: usize,
}

impl MatchedRule {
    /// Combined hierarchy distance used by the most-specific strategy;
    /// saturating so `Any` specs never overflow.
    #[must_use]
    pub fn total_distance(&self) -> usize {
        self.subject_distance.saturating_add(self.object_distance)
    }
}

/// Why the engine reached its decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Reason {
    /// No rule matched; the engine fell back to its default decision.
    DefaultDecision,
    /// Exactly one or more rules matched and the strategy picked a winner.
    ResolvedBy(ConflictStrategy),
    /// At least one permit rule would have matched but the subject-role
    /// confidence fell short of the required threshold, and no other rule
    /// carried the decision.
    ConfidenceTooLow {
        /// The threshold the best candidate failed to meet.
        required: Confidence,
        /// The confidence actually established.
        achieved: Confidence,
    },
}

/// The full account of a mediation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Hierarchy-expanded subject roles the requester was found to hold.
    pub subject_roles: RoleSet,
    /// Hierarchy-expanded roles of the target object.
    pub object_roles: RoleSet,
    /// Hierarchy-expanded environment roles active during the request.
    pub environment_roles: RoleSet,
    /// Every rule that matched, in policy order.
    pub matched: Vec<MatchedRule>,
    /// The rule that carried the decision, if any.
    pub winner: Option<RuleId>,
    /// Why the decision came out the way it did.
    pub reason: Reason,
}

/// The outcome of mediating one access request.
///
/// Equality compares decision *content* (effect, explanation, degraded
/// annotation) and deliberately ignores the correlation
/// [`DecisionId`](crate::id::DecisionId): the compiled and naive paths
/// must produce equal decisions even though only the compiled entry
/// points mint ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Decision {
    effect: Effect,
    explanation: Explanation,
    /// Present when the decision was reached under degraded environment
    /// data (defaults to `None` for decisions serialized before the
    /// field existed).
    #[serde(default)]
    degraded: Option<DegradedReason>,
    /// Correlation id minted at the decide entry point (unassigned on
    /// synthesized decisions, naive-path replays and older captures).
    #[serde(default)]
    decision_id: crate::id::DecisionId,
}

impl PartialEq for Decision {
    fn eq(&self, other: &Self) -> bool {
        self.effect == other.effect
            && self.explanation == other.explanation
            && self.degraded == other.degraded
    }
}

impl Decision {
    /// Assembles a decision from its parts. Produced by the engine;
    /// public so application layers and tests can synthesize decisions.
    #[must_use]
    pub fn new(effect: Effect, explanation: Explanation) -> Self {
        Self {
            effect,
            explanation,
            degraded: None,
            decision_id: crate::id::DecisionId::UNASSIGNED,
        }
    }

    /// Attaches the correlation id minted for this decision (builder
    /// style). Set by the engine's minting entry points.
    #[must_use]
    pub fn with_decision_id(mut self, id: crate::id::DecisionId) -> Self {
        self.decision_id = id;
        self
    }

    /// The correlation id minted for this decision, or
    /// [`DecisionId::UNASSIGNED`](crate::id::DecisionId::UNASSIGNED)
    /// when the mediation path did not mint (naive replays, synthesized
    /// decisions).
    #[must_use]
    pub fn decision_id(&self) -> crate::id::DecisionId {
        self.decision_id
    }

    /// Attaches a degraded-mode annotation (builder style). The engine
    /// sets this when the request's environment health forced a
    /// [`DegradedMode`](crate::degraded::DegradedMode) posture to apply.
    #[must_use]
    pub fn with_degraded(mut self, reason: Option<DegradedReason>) -> Self {
        self.degraded = reason;
        self
    }

    /// Why this decision ran degraded, if it did.
    #[must_use]
    pub fn degraded(&self) -> Option<&DegradedReason> {
        self.degraded.as_ref()
    }

    /// True when the decision was reached under degraded environment
    /// data.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Permit or Deny.
    #[must_use]
    pub fn effect(&self) -> Effect {
        self.effect
    }

    /// True if the request was permitted.
    #[must_use]
    pub fn is_permitted(&self) -> bool {
        self.effect == Effect::Permit
    }

    /// The full explanation of the decision.
    #[must_use]
    pub fn explanation(&self) -> &Explanation {
        &self.explanation
    }

    /// The winning rule, if one carried the decision.
    #[must_use]
    pub fn winning_rule(&self) -> Option<RuleId> {
        self.explanation.winner
    }
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.explanation.winner {
            Some(rule) => write!(f, "{} (by {rule})", self.effect)?,
            None => write!(f, "{} (default)", self.effect)?,
        }
        if self.degraded.is_some() {
            write!(f, " [degraded]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_explanation() -> Explanation {
        Explanation {
            subject_roles: RoleSet::new(),
            object_roles: RoleSet::new(),
            environment_roles: RoleSet::new(),
            matched: Vec::new(),
            winner: None,
            reason: Reason::DefaultDecision,
        }
    }

    #[test]
    fn decision_accessors() {
        let d = Decision::new(Effect::Deny, sample_explanation());
        assert!(!d.is_permitted());
        assert_eq!(d.effect(), Effect::Deny);
        assert_eq!(d.winning_rule(), None);
        assert_eq!(d.to_string(), "deny (default)");
    }

    #[test]
    fn decision_with_winner_displays_rule() {
        let mut e = sample_explanation();
        e.winner = Some(RuleId::from_raw(3));
        e.reason = Reason::ResolvedBy(ConflictStrategy::DenyOverrides);
        let d = Decision::new(Effect::Permit, e);
        assert!(d.is_permitted());
        assert_eq!(d.to_string(), "permit (by rule3)");
    }

    #[test]
    fn degraded_annotation_round_trips() {
        let d = Decision::new(Effect::Deny, sample_explanation())
            .with_degraded(Some(DegradedReason::EnvUnavailable));
        assert!(d.is_degraded());
        assert_eq!(d.degraded(), Some(&DegradedReason::EnvUnavailable));
        assert_eq!(d.to_string(), "deny (default) [degraded]");
        let json = serde_json::to_string(&d).unwrap();
        let back: Decision = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Decisions serialized before the field existed still load.
        let legacy = serde_json::to_string(&Decision::new(Effect::Deny, sample_explanation()))
            .unwrap()
            .replace(",\"degraded\":null", "");
        let back: Decision = serde_json::from_str(&legacy).unwrap();
        assert!(!back.is_degraded());
    }

    /// A decision with non-empty role sets on all three sides, one of
    /// them past 128 roles, as serialized when the sets were
    /// `BTreeSet<RoleId>`: it must load and write back byte for byte.
    const ROLE_SET_DECISION: &str = concat!(
        r#"{"effect":"Permit","explanation":{"subject_roles":[0,1,3,70,129],"#,
        r#""object_roles":[5,64],"environment_roles":[9,12],"matched":[{"rule":7,"#,
        r#""effect":"Permit","position":2,"subject_confidence":0.75,"subject_distance":1,"#,
        r#""object_distance":0,"constraint_count":3}],"winner":7,"#,
        r#""reason":{"ResolvedBy":"DenyOverrides"}},"#,
        r#""degraded":{"StaleDecayed":{"age":40,"decay":0.5}},"decision_id":{"epoch":0,"seq":0}}"#
    );

    #[test]
    fn role_set_serialized_format_is_unchanged() {
        let decision: Decision = serde_json::from_str(ROLE_SET_DECISION).unwrap();
        let explanation = decision.explanation();
        let raws = |set: &RoleSet| set.iter().map(|r| r.as_raw()).collect::<Vec<_>>();
        assert_eq!(raws(&explanation.subject_roles), [0, 1, 3, 70, 129]);
        assert_eq!(raws(&explanation.object_roles), [5, 64]);
        assert_eq!(raws(&explanation.environment_roles), [9, 12]);
        assert_eq!(serde_json::to_string(&decision).unwrap(), ROLE_SET_DECISION);
    }

    #[test]
    fn total_distance_saturates() {
        let m = MatchedRule {
            rule: RuleId::from_raw(0),
            effect: Effect::Permit,
            position: 0,
            subject_confidence: Confidence::FULL,
            subject_distance: usize::MAX,
            object_distance: 3,
            constraint_count: 1,
        };
        assert_eq!(m.total_distance(), usize::MAX);
    }
}
