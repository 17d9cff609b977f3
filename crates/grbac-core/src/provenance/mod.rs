//! Decision provenance: the flight recorder and forensic replay.
//!
//! GRBAC decisions hinge on transient state — active environment roles,
//! sensed confidence, degraded-mode postures — so "why was this granted
//! at 3am?" cannot be answered from policy text alone. This module is
//! the historical layer over the live telemetry:
//!
//! * [`FlightRecorder`] — a locked
//!   [`BoundedRing`](crate::telemetry::BoundedRing) of
//!   [`ProvenanceRecord`]s, fed by every mediated decision
//!   (`decide`, `decide_traced`, `check_batch`), retaining the full
//!   request, the matched rules, the policy generation, the environment
//!   fingerprint and health, the degraded-mode annotation, and — for
//!   latency-sampled or traced decisions — per-stage nanoseconds.
//! * forensics — queries over recorded decisions
//!   ([`ForensicQuery`], sharing
//!   [`AuditFilter`](crate::audit::AuditFilter) semantics with the
//!   audit log), reference-grade **replay** of any record against the
//!   current or a historical policy ([`replay`],
//!   [`replay_with_health`]), structural diffs ([`ReplayDiff`]), and
//!   stage-level slow-query listing ([`slowest_stages`]).
//!
//! Replay runs through the engine's naive reference path and never
//! feeds the recorder, so forensic work cannot disturb its own
//! evidence.
//!
//! # Examples
//!
//! Record, query, replay:
//!
//! ```
//! use grbac_core::prelude::*;
//! use grbac_core::provenance::{self, ForensicQuery};
//!
//! # fn main() -> Result<(), GrbacError> {
//! let mut g = Grbac::new();
//! let adult = g.declare_subject_role("adult")?;
//! let door_role = g.declare_object_role("entry")?;
//! let open = g.declare_transaction("open")?;
//! let alice = g.declare_subject("alice")?;
//! g.assign_subject_role(alice, adult)?;
//! let door = g.declare_object("front_door")?;
//! g.assign_object_role(door, door_role)?;
//! let rule = g.add_rule(
//!     RuleDef::permit()
//!         .subject_role(adult)
//!         .object_role(door_role)
//!         .transaction(open),
//! )?;
//!
//! let request =
//!     AccessRequest::by_subject(alice, open, door, EnvironmentSnapshot::new());
//! assert!(g.decide(&request)?.is_permitted());
//!
//! // Every decision left a provenance record…
//! let records = g.flight_recorder().snapshot();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].winning_rule, Some(rule));
//!
//! // …which replays clean against the unchanged policy…
//! let report = provenance::replay(&g, &records[0])?;
//! assert!(report.diff.is_clean());
//!
//! // …and dirty once the policy changes under it.
//! g.remove_rule(rule);
//! let report = provenance::replay(&g, &records[0])?;
//! assert!(report.diff.verdict_flipped);
//! # Ok(())
//! # }
//! ```

mod forensics;
mod recorder;

pub use forensics::{
    decision_story, rebuild_request, reconstruct_heat, replay, replay_all, replay_with_health,
    slowest_stages, ClosureDelta, DecisionStory, ForensicQuery, ReplayDiff, ReplayReport,
    StageSample,
};
pub use recorder::{env_fingerprint, FlightRecorder, ProvenanceRecord};
