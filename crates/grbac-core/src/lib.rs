//! # grbac-core — Generalized Role-Based Access Control
//!
//! A full implementation of the GRBAC model from *"Generalized
//! Role-Based Access Control for Securing Future Applications"*
//! (Covington, Moyer, Ahamad; Georgia Tech / ICDCS 2001).
//!
//! GRBAC extends traditional RBAC by applying the role concept uniformly
//! to **subjects**, **objects** and **environment states**. An access
//! decision binds a triple of roles — a subject role possessed by the
//! requester, an object role possessed by the target, and environment
//! roles active at request time — to a transaction authorization
//! (§4.2.4 of the paper).
//!
//! ## Quick start
//!
//! The paper's §5.1 policy — *"any child can use entertainment devices
//! on weekdays during free time"* — is one rule:
//!
//! ```
//! use grbac_core::prelude::*;
//!
//! # fn main() -> Result<(), GrbacError> {
//! let mut home = Grbac::new();
//!
//! // Vocabulary: one subject role, one object role, two environment
//! // roles, one transaction.
//! let child = home.declare_subject_role("child")?;
//! let entertainment = home.declare_object_role("entertainment_devices")?;
//! let weekdays = home.declare_environment_role("weekdays")?;
//! let free_time = home.declare_environment_role("free_time")?;
//! let use_t = home.declare_transaction("use")?;
//!
//! // Entities.
//! let alice = home.declare_subject("alice")?;
//! home.assign_subject_role(alice, child)?;
//! let tv = home.declare_object("tv")?;
//! home.assign_object_role(tv, entertainment)?;
//!
//! // The policy, verbatim.
//! home.add_rule(
//!     RuleDef::permit()
//!         .named("any child can use entertainment devices on weekdays during free time")
//!         .subject_role(child)
//!         .object_role(entertainment)
//!         .transaction(use_t)
//!         .when(weekdays)
//!         .when(free_time),
//! )?;
//!
//! // Tuesday, 8pm: granted.
//! let env = EnvironmentSnapshot::from_active([weekdays, free_time]);
//! assert!(home
//!     .decide(&AccessRequest::by_subject(alice, use_t, tv, env))?
//!     .is_permitted());
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`role`], [`hierarchy`] | §4.2.1–4.2.3, Fig. 2 | roles of three kinds, specialization DAGs |
//! | [`entity`] | Fig. 1 | subjects, objects, transactions |
//! | [`assignment`] | Fig. 1 | authorized role sets |
//! | [`roleset`] | §4.2.4 | role sets as bitsets over the dense role-id space |
//! | [`session`] | §4.1.2 | role activation |
//! | [`sod`] | §4.1.2 | static/dynamic separation of duty |
//! | [`rule`], [`environment`] | §4.2.4 | authorization rules, env snapshots |
//! | [`precedence`] | §4.1.2 | conflict-resolution strategies |
//! | [`confidence`] | §3, §5.2 | partial authentication |
//! | [`engine`] | §4.2.4 | the mediation algorithm |
//! | [`explain`] | §3 (usability) | decisions with full explanations |
//! | [`analysis`] | §4.2.4 | conflict/shadowing/dead-role detection |
//! | [`audit`] | §3 | bounded decision log |
//! | [`degraded`] | §3 (availability) | fail-safe postures for stale/absent environment data |
//! | [`telemetry`] | §3 (operability) | metrics registry, decision traces, quantile sketches, exporters |
//! | [`provenance`] | §3 (explainability) | decision flight recorder, forensic query + replay |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod assignment;
pub mod audit;
pub mod builder;
pub mod confidence;
pub mod degraded;
pub mod delegation;
mod delta;
pub mod engine;
pub mod entity;
pub mod environment;
pub mod error;
pub mod explain;
pub mod hierarchy;
pub mod id;
mod index;
pub mod precedence;
pub mod provenance;
pub mod role;
pub mod roleset;
pub mod rule;
pub mod serde_pairs;
pub mod session;
pub mod sod;
pub mod telemetry;

pub use analysis::{health_report, PolicyHealthReport};
pub use builder::GrbacBuilder;
pub use confidence::{AuthContext, Confidence};
pub use degraded::{DegradedMode, DegradedPosture, DegradedReason, EnvHealth};
pub use engine::{AccessRequest, Actor, Grbac};
pub use environment::EnvironmentSnapshot;
pub use error::GrbacError;
pub use explain::{Decision, Explanation, Reason};
pub use id::DecisionId;
pub use precedence::ConflictStrategy;
pub use provenance::{
    decision_story, DecisionStory, FlightRecorder, ForensicQuery, ProvenanceRecord, ReplayReport,
};
pub use role::RoleKind;
pub use roleset::RoleSet;
pub use rule::{Effect, Rule, RuleDef};
pub use telemetry::{
    AlertKind, AlertRecord, DecisionTrace, DecisionWatchdog, EventBus, EventData, EventFilter,
    EventKind, EventSubscription, Exporter, JsonExporter, MetricsHistory, MetricsRegistry,
    MetricsSnapshot, PrometheusExporter, RuleHeatSnapshot, Severity, Span, SpanId, SpanKind,
    SpanStatus, SpanStore, SpanTree, TelemetryEvent, TraceContext, TraceId, WatchdogConfig,
};

/// The most commonly needed items, importable with one `use`.
pub mod prelude {
    pub use crate::confidence::{AuthContext, Confidence};
    pub use crate::degraded::{DegradedMode, DegradedPosture, DegradedReason, EnvHealth};
    pub use crate::engine::{AccessRequest, Actor, Grbac};
    pub use crate::environment::EnvironmentSnapshot;
    pub use crate::error::GrbacError;
    pub use crate::explain::{Decision, Reason};
    pub use crate::id::{
        DecisionId, ObjectId, RoleId, RuleId, SessionId, SubjectId, TransactionId,
    };
    pub use crate::precedence::ConflictStrategy;
    pub use crate::role::RoleKind;
    pub use crate::rule::{Effect, RuleDef};
    pub use crate::sod::{SodConstraint, SodKind};
}
