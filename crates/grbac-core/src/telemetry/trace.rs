//! Stage-by-stage tracing of a single mediation.
//!
//! [`Grbac::decide_traced`](crate::engine::Grbac::decide_traced) runs
//! the *same* monomorphized decision code as
//! [`decide`](crate::engine::Grbac::decide) — the engine is generic
//! over a [`TraceSink`], and the no-op sink ([`NoTrace`]) erases every
//! tracing call at compile time, so the traced and untraced paths
//! cannot diverge in behaviour, only in what they record.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::id::DecisionId;

/// The stages of one mediation, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Expanding the subject's roles through the hierarchy (or merging
    /// sensed claims / session activations).
    SubjectExpansion,
    /// Expanding the object's roles through the hierarchy.
    ObjectExpansion,
    /// Evaluating which environment roles are active for the request.
    EnvironmentEvaluation,
    /// Intersecting the rule postings of the request's transaction,
    /// requester roles and object roles, and testing each candidate
    /// for applicability.
    CandidateMerge,
    /// Resolving the matched rules through the conflict strategy.
    PrecedenceResolution,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::SubjectExpansion,
        Stage::ObjectExpansion,
        Stage::EnvironmentEvaluation,
        Stage::CandidateMerge,
        Stage::PrecedenceResolution,
    ];

    /// A stable, lowercase name for display and export.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::SubjectExpansion => "subject_expansion",
            Stage::ObjectExpansion => "object_expansion",
            Stage::EnvironmentEvaluation => "environment_evaluation",
            Stage::CandidateMerge => "candidate_merge",
            Stage::PrecedenceResolution => "precedence_resolution",
        }
    }
}

/// One recorded stage of a [`DecisionTrace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Which stage this record covers.
    pub stage: Stage,
    /// Wall-clock nanoseconds spent in the stage.
    pub nanos: u64,
    /// Items processed: roles expanded, environment roles active,
    /// candidate rules examined, or matched rules resolved, depending
    /// on the stage.
    pub items: u64,
}

/// A stage-by-stage account of one mediation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// The correlation id minted for the traced decision
    /// ([`DecisionId::UNASSIGNED`] on traces deserialized from older
    /// captures).
    #[serde(default)]
    pub decision_id: DecisionId,
    /// The recorded stages, in execution order.
    pub stages: Vec<StageRecord>,
    /// Total wall-clock nanoseconds for the whole decision.
    pub total_nanos: u64,
}

impl DecisionTrace {
    /// The record for `stage`, if that stage ran.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageRecord> {
        self.stages.iter().find(|record| record.stage == stage)
    }

    /// A plain-text table of the trace (one line per stage).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.decision_id.is_assigned() {
            out.push_str(&format!("decision {}\n", self.decision_id));
        }
        out.push_str("stage                    items        ns\n");
        for record in &self.stages {
            out.push_str(&format!(
                "{:<24} {:>5} {:>9}\n",
                record.stage.name(),
                record.items,
                record.nanos
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>5} {:>9}\n",
            "total", "", self.total_nanos
        ));
        out
    }
}

/// Compile-time switch between traced and untraced mediation.
///
/// `decide_with_index` is generic over this trait; with [`NoTrace`]
/// (`ACTIVE == false`) every call below is trivially inlined away, so
/// the untraced path pays nothing.
pub(crate) trait TraceSink {
    /// Whether this sink records anything at all.
    const ACTIVE: bool;

    /// Marks the beginning of `stage`. Returns the stage start time
    /// when active: the previous stage's exit reading, or a fresh one
    /// for the first stage.
    fn enter(&mut self, stage: Stage) -> Option<Instant>;

    /// Completes `stage` with its item count.
    fn exit(&mut self, stage: Stage, started: Option<Instant>, items: u64);
}

/// The no-op sink used by the plain `decide` path.
pub(crate) struct NoTrace;

impl TraceSink for NoTrace {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn enter(&mut self, _stage: Stage) -> Option<Instant> {
        None
    }

    #[inline(always)]
    fn exit(&mut self, _stage: Stage, _started: Option<Instant>, _items: u64) {}
}

/// The recording sink used by `decide_traced` and every latency-sampled
/// decide.
///
/// Stages are contiguous: each starts at the clock reading that ended
/// the one before, so a decide's five stages cost six clock reads, not
/// ten, and the stage times add up to the span from the first stage's
/// start to the last one's end.
pub(crate) struct TraceCollector {
    stages: Vec<StageRecord>,
    /// The last stage's exit reading: where the next stage starts.
    last_exit: Option<Instant>,
}

impl Default for TraceCollector {
    /// A collector whose stage list holds every stage without growing.
    fn default() -> Self {
        Self {
            stages: Vec::with_capacity(Stage::ALL.len()),
            last_exit: None,
        }
    }
}

impl TraceCollector {
    /// Consumes the collector into a finished trace.
    pub(crate) fn finish(self, started: Instant) -> DecisionTrace {
        DecisionTrace {
            decision_id: DecisionId::UNASSIGNED,
            stages: self.stages,
            total_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

impl TraceSink for TraceCollector {
    const ACTIVE: bool = true;

    fn enter(&mut self, _stage: Stage) -> Option<Instant> {
        Some(self.last_exit.unwrap_or_else(Instant::now))
    }

    fn exit(&mut self, stage: Stage, started: Option<Instant>, items: u64) {
        let now = Instant::now();
        self.last_exit = Some(now);
        let nanos = started.map_or(0, |start| {
            u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
        });
        self.stages.push(StageRecord {
            stage,
            nanos,
            items,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_stages_in_order() {
        let mut sink = TraceCollector::default();
        let begun = Instant::now();
        for (index, stage) in Stage::ALL.into_iter().enumerate() {
            let started = sink.enter(stage);
            sink.exit(stage, started, index as u64);
        }
        let trace = sink.finish(begun);
        assert_eq!(trace.stages.len(), 5);
        assert_eq!(
            trace.stages.iter().map(|r| r.stage).collect::<Vec<_>>(),
            Stage::ALL.to_vec()
        );
        assert_eq!(trace.stage(Stage::CandidateMerge).unwrap().items, 3);
        let rendered = trace.render();
        assert!(rendered.contains("subject_expansion"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn each_stage_starts_where_the_last_one_ended() {
        let mut sink = TraceCollector::default();
        let first = sink.enter(Stage::SubjectExpansion).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.exit(Stage::SubjectExpansion, Some(first), 1);
        let ended = sink.last_exit.expect("exit reads the clock");
        let second = sink.enter(Stage::ObjectExpansion).unwrap();
        assert_eq!(second, ended);
        sink.exit(Stage::ObjectExpansion, Some(second), 1);
        let last = sink.last_exit.unwrap();
        let trace = sink.finish(first);
        assert!(trace.stages[0].nanos >= 2_000_000);
        // Contiguous stages add up to the span they cover.
        let span = u64::try_from(last.duration_since(first).as_nanos()).unwrap();
        assert_eq!(trace.stages.iter().map(|r| r.nanos).sum::<u64>(), span);
    }

    #[test]
    fn no_trace_is_inert() {
        let mut sink = NoTrace;
        assert!(sink.enter(Stage::CandidateMerge).is_none());
        sink.exit(Stage::CandidateMerge, None, 42);
        const { assert!(!NoTrace::ACTIVE) };
    }
}
