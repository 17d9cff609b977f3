//! Authentication confidence levels (§3, §5.2 "partial authentication").
//!
//! In the Aware Home, subjects are identified implicitly by sensors whose
//! accuracy varies: the paper's Smart Floor identifies Alice *as Alice*
//! with 75% accuracy but places her *in the `child` role* with 98%
//! accuracy. GRBAC therefore attaches a [`Confidence`] to each role a
//! requester is believed to hold, and rules may require a minimum
//! confidence before they apply.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{GrbacError, Result};
use crate::id::{RoleId, SubjectId};

/// A probability-like certainty value in the closed unit interval.
///
/// Construction validates the range, so any `Confidence` in circulation is
/// a well-formed probability. The type is ordered (total order: the inner
/// value is always finite), so thresholds compare naturally.
///
/// # Examples
///
/// ```
/// use grbac_core::confidence::Confidence;
///
/// # fn main() -> Result<(), grbac_core::GrbacError> {
/// let smart_floor_identity = Confidence::new(0.75)?;
/// let policy_threshold = Confidence::new(0.90)?;
/// assert!(smart_floor_identity < policy_threshold);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Confidence(f64);

impl Confidence {
    /// No certainty at all.
    pub const ZERO: Confidence = Confidence(0.0);
    /// Complete certainty (e.g. an explicit login or a session actor).
    pub const FULL: Confidence = Confidence(1.0);

    /// Creates a confidence value.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::InvalidConfidence`] if `value` is NaN or
    /// outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            return Err(GrbacError::InvalidConfidence(value));
        }
        Ok(Self(value))
    }

    /// Creates a confidence value, clamping into `[0, 1]` (NaN becomes 0).
    #[must_use]
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Self::ZERO
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// The inner probability.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when this confidence meets a required threshold.
    #[must_use]
    pub fn meets(self, threshold: Confidence) -> bool {
        self.0 >= threshold.0
    }

    /// Noisy-OR combination of two independent pieces of evidence for the
    /// same claim: `1 - (1-a)(1-b)`. Never decreases either input.
    #[must_use]
    pub fn combine_independent(self, other: Confidence) -> Confidence {
        Confidence(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }

    /// Scales this confidence by a `[0, 1]` factor — the product of two
    /// probabilities, so the result never exceeds either input. Used by
    /// degraded-mode mediation (stale environments decay subject
    /// confidence) and by faulty-sensor models.
    ///
    /// # Examples
    ///
    /// ```
    /// use grbac_core::confidence::Confidence;
    ///
    /// # fn main() -> Result<(), grbac_core::GrbacError> {
    /// let sensed = Confidence::new(0.9)?;
    /// let decay = Confidence::new(0.5)?;
    /// assert_eq!(sensed.scale(decay), Confidence::new(0.45)?);
    /// assert_eq!(sensed.scale(Confidence::FULL), sensed);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn scale(self, factor: Confidence) -> Confidence {
        Confidence(self.0 * factor.0)
    }

    /// The larger of two confidences.
    #[must_use]
    pub fn max(self, other: Confidence) -> Confidence {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The smaller of two confidences.
    #[must_use]
    pub fn min(self, other: Confidence) -> Confidence {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl Default for Confidence {
    /// Defaults to [`Confidence::ZERO`]: absent evidence is no evidence.
    fn default() -> Self {
        Self::ZERO
    }
}

impl Eq for Confidence {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for Confidence {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Confidence {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Valid by construction: the inner value is never NaN.
        self.0.partial_cmp(&other.0).expect("confidence is finite")
    }
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

/// The authentication evidence accompanying an access request.
///
/// Produced by an authenticator (see the `grbac-sense` crate) from sensor
/// evidence. Holds an optional identity claim and any number of direct
/// role-membership claims — the paper's key insight is that the role
/// claims may carry *higher* confidence than the identity claim.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AuthContext {
    identity: Option<(SubjectId, Confidence)>,
    #[serde(with = "crate::serde_pairs::hash")]
    roles: HashMap<RoleId, Confidence>,
}

impl Clone for AuthContext {
    fn clone(&self) -> Self {
        Self {
            identity: self.identity,
            roles: self.roles.clone(),
        }
    }

    /// Copies `source` into this context's claim map, keeping its
    /// storage when it is large enough (the flight recorder copies
    /// each sensed requester into the record it evicts).
    fn clone_from(&mut self, source: &Self) {
        self.identity = source.identity;
        self.roles.clone_from(&source.roles);
    }
}

impl AuthContext {
    /// An empty context: nobody has been authenticated as anything.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A context representing a fully-trusted identity (confidence 1).
    #[must_use]
    pub fn trusted_identity(subject: SubjectId) -> Self {
        let mut ctx = Self::new();
        ctx.identity = Some((subject, Confidence::FULL));
        ctx
    }

    /// Records an identity claim, keeping the more confident of the old
    /// and new claims if they name the same subject and replacing the
    /// claim when the new one is strictly more confident about a
    /// different subject.
    pub fn claim_identity(&mut self, subject: SubjectId, confidence: Confidence) {
        match self.identity {
            Some((s, c)) if s == subject => {
                self.identity = Some((s, c.max(confidence)));
            }
            Some((_, c)) if confidence > c => {
                self.identity = Some((subject, confidence));
            }
            None => self.identity = Some((subject, confidence)),
            _ => {}
        }
    }

    /// Records a role-membership claim; repeated claims for the same role
    /// are combined as independent evidence (noisy-OR).
    pub fn claim_role(&mut self, role: RoleId, confidence: Confidence) {
        self.roles
            .entry(role)
            .and_modify(|c| *c = c.combine_independent(confidence))
            .or_insert(confidence);
    }

    /// The current identity claim, if any.
    #[must_use]
    pub fn identity(&self) -> Option<(SubjectId, Confidence)> {
        self.identity
    }

    /// The confidence of a direct role claim (zero when unclaimed).
    #[must_use]
    pub fn role_confidence(&self, role: RoleId) -> Confidence {
        self.roles.get(&role).copied().unwrap_or_default()
    }

    /// Iterates over all direct role claims.
    pub fn role_claims(&self) -> impl Iterator<Item = (RoleId, Confidence)> + '_ {
        self.roles.iter().map(|(&r, &c)| (r, c))
    }

    /// True if no identity and no role claims are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.identity.is_none() && self.roles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_range() {
        assert!(Confidence::new(0.0).is_ok());
        assert!(Confidence::new(1.0).is_ok());
        assert!(Confidence::new(0.5).is_ok());
        assert!(matches!(
            Confidence::new(-0.1),
            Err(GrbacError::InvalidConfidence(_))
        ));
        assert!(Confidence::new(1.1).is_err());
        assert!(Confidence::new(f64::NAN).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Confidence::saturating(2.0), Confidence::FULL);
        assert_eq!(Confidence::saturating(-1.0), Confidence::ZERO);
        assert_eq!(Confidence::saturating(f64::NAN), Confidence::ZERO);
        assert_eq!(Confidence::saturating(0.3).value(), 0.3);
    }

    #[test]
    fn ordering_and_thresholds() {
        let low = Confidence::new(0.75).unwrap();
        let high = Confidence::new(0.98).unwrap();
        let threshold = Confidence::new(0.90).unwrap();
        assert!(low < high);
        assert!(!low.meets(threshold));
        assert!(high.meets(threshold));
        assert!(threshold.meets(threshold));
    }

    #[test]
    fn noisy_or_combination() {
        let a = Confidence::new(0.5).unwrap();
        let b = Confidence::new(0.5).unwrap();
        assert!((a.combine_independent(b).value() - 0.75).abs() < 1e-12);
        // Identity elements.
        assert_eq!(a.combine_independent(Confidence::ZERO), a);
        assert_eq!(a.combine_independent(Confidence::FULL), Confidence::FULL);
    }

    #[test]
    fn display_as_percentage() {
        assert_eq!(Confidence::new(0.75).unwrap().to_string(), "75.0%");
        assert_eq!(Confidence::FULL.to_string(), "100.0%");
    }

    #[test]
    fn auth_context_identity_claims() {
        let alice = SubjectId::from_raw(0);
        let bobby = SubjectId::from_raw(1);
        let mut ctx = AuthContext::new();
        assert!(ctx.is_empty());

        ctx.claim_identity(alice, Confidence::new(0.6).unwrap());
        assert_eq!(ctx.identity().unwrap().0, alice);

        // Same subject: keep max.
        ctx.claim_identity(alice, Confidence::new(0.4).unwrap());
        assert_eq!(ctx.identity().unwrap().1.value(), 0.6);

        // Different subject with lower confidence: ignored.
        ctx.claim_identity(bobby, Confidence::new(0.5).unwrap());
        assert_eq!(ctx.identity().unwrap().0, alice);

        // Different subject with higher confidence: replaces.
        ctx.claim_identity(bobby, Confidence::new(0.9).unwrap());
        assert_eq!(ctx.identity().unwrap().0, bobby);
    }

    #[test]
    fn auth_context_role_claims_fuse() {
        let child = RoleId::from_raw(0);
        let mut ctx = AuthContext::new();
        assert_eq!(ctx.role_confidence(child), Confidence::ZERO);
        ctx.claim_role(child, Confidence::new(0.5).unwrap());
        ctx.claim_role(child, Confidence::new(0.5).unwrap());
        assert!((ctx.role_confidence(child).value() - 0.75).abs() < 1e-12);
        assert_eq!(ctx.role_claims().count(), 1);
    }

    #[test]
    fn trusted_identity_has_full_confidence() {
        let ctx = AuthContext::trusted_identity(SubjectId::from_raw(3));
        assert_eq!(ctx.identity().unwrap().1, Confidence::FULL);
    }
}
