//! Telemetry property suite: `Grbac::decide_traced` must return the
//! same decision as `Grbac::decide` on identical input — the trace is
//! an observation, never an influence — the registry's decision
//! counters must account for exactly the decisions made, and a traced
//! decide must leave the same evidence as a latency-sampled one, over
//! random policies and actor postures.

use std::collections::BTreeMap;

use grbac_core::prelude::*;
use grbac_core::provenance::ProvenanceRecord;
use grbac_core::telemetry::{self, EventData, EventFilter, EventKind, MetricsSnapshot, Stage};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Model {
    g: Grbac,
    env_roles: Vec<RoleId>,
    subjects: Vec<SubjectId>,
    objects: Vec<ObjectId>,
    transactions: Vec<TransactionId>,
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn random_confidence(rng: &mut StdRng) -> Confidence {
    Confidence::new(rng.gen_range(0.0..=1.0)).expect("in range")
}

/// A random household: role vocabularies with random DAG edges,
/// entities, assignments, and a random rule book (a compact version of
/// the `prop_index` model).
fn build_model(rng: &mut StdRng) -> Model {
    let mut g = Grbac::new();

    let subject_roles: Vec<RoleId> = (0..rng.gen_range(1..=5usize))
        .map(|i| g.declare_subject_role(format!("sr{i}")).unwrap())
        .collect();
    let object_roles: Vec<RoleId> = (0..rng.gen_range(1..=4usize))
        .map(|i| g.declare_object_role(format!("or{i}")).unwrap())
        .collect();
    let env_roles: Vec<RoleId> = (0..rng.gen_range(1..=4usize))
        .map(|i| g.declare_environment_role(format!("er{i}")).unwrap())
        .collect();
    for roles in [&subject_roles, &object_roles, &env_roles] {
        for _ in 0..rng.gen_range(0..=roles.len()) {
            let _ = g.specialize(pick(rng, roles), pick(rng, roles));
        }
    }

    let transactions: Vec<TransactionId> = (0..rng.gen_range(1..=3usize))
        .map(|i| g.declare_transaction(format!("t{i}")).unwrap())
        .collect();
    let subjects: Vec<SubjectId> = (0..rng.gen_range(1..=3usize))
        .map(|i| g.declare_subject(format!("sub{i}")).unwrap())
        .collect();
    let objects: Vec<ObjectId> = (0..rng.gen_range(1..=3usize))
        .map(|i| g.declare_object(format!("obj{i}")).unwrap())
        .collect();

    for &subject in &subjects {
        for &role in &subject_roles {
            if rng.gen_bool(0.5) {
                let _ = g.assign_subject_role(subject, role);
            }
        }
    }
    for &object in &objects {
        for &role in &object_roles {
            if rng.gen_bool(0.5) {
                let _ = g.assign_object_role(object, role);
            }
        }
    }

    for _ in 0..rng.gen_range(0..=10usize) {
        let mut def = if rng.gen_bool(0.5) {
            RuleDef::permit()
        } else {
            RuleDef::deny()
        };
        if rng.gen_bool(0.7) {
            def = def.subject_role(pick(rng, &subject_roles));
        }
        if rng.gen_bool(0.7) {
            def = def.object_role(pick(rng, &object_roles));
        }
        if rng.gen_bool(0.7) {
            def = def.transaction(pick(rng, &transactions));
        }
        for &env in &env_roles {
            if rng.gen_bool(0.3) {
                def = def.when(env);
            }
        }
        if rng.gen_bool(0.3) {
            def = def.min_confidence(random_confidence(rng));
        }
        g.add_rule(def).unwrap();
    }

    g.set_strategy(pick(
        rng,
        &[
            ConflictStrategy::DenyOverrides,
            ConflictStrategy::PermitOverrides,
            ConflictStrategy::FirstApplicable,
            ConflictStrategy::MostSpecific,
        ],
    ));
    if rng.gen_bool(0.5) {
        g.set_default_min_confidence(random_confidence(rng));
    }

    Model {
        g,
        env_roles,
        subjects,
        objects,
        transactions,
    }
}

/// A random request across all three actor postures, occasionally with
/// unknown ids so the error paths trace identically too.
fn random_request(rng: &mut StdRng, model: &mut Model) -> AccessRequest {
    let active: Vec<RoleId> = model
        .env_roles
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    let environment = EnvironmentSnapshot::from_active(active);
    let transaction = if rng.gen_bool(0.05) {
        TransactionId::from_raw(900)
    } else {
        pick(rng, &model.transactions)
    };
    let object = if rng.gen_bool(0.05) {
        ObjectId::from_raw(900)
    } else {
        pick(rng, &model.objects)
    };
    match rng.gen_range(0..3u32) {
        0 => {
            AccessRequest::by_subject(pick(rng, &model.subjects), transaction, object, environment)
        }
        1 => {
            let subject = pick(rng, &model.subjects);
            let session = model.g.open_session(subject).unwrap();
            for role in model.g.assignments().subject_roles(subject) {
                if rng.gen_bool(0.6) {
                    let _ = model.g.activate_role(session, role);
                }
            }
            AccessRequest::by_session(session, transaction, object, environment)
        }
        _ => {
            let mut ctx = AuthContext::new();
            if rng.gen_bool(0.7) {
                ctx.claim_identity(pick(rng, &model.subjects), random_confidence(rng));
            }
            for _ in 0..rng.gen_range(0..=2u32) {
                ctx.claim_role(pick(rng, &model.env_roles), random_confidence(rng));
            }
            AccessRequest::by_sensed(ctx, transaction, object, environment)
        }
    }
}

/// A recorder record with the fields that differ between two engines
/// (ids, writer stamps) or between two runs (timings) masked. Whether
/// the record kept a trace stays visible.
fn masked(mut record: ProvenanceRecord) -> ProvenanceRecord {
    record.seq = 0;
    record.writer = 0;
    record.writer_seq = 0;
    record.decision_id = DecisionId::UNASSIGNED;
    record.stage_nanos = record.stage_nanos.map(|_| [0; 5]);
    record.total_nanos = record.total_nanos.map(|_| 0);
    record
}

/// The decision counters of a snapshot.
fn decision_counters(snapshot: &MetricsSnapshot) -> Vec<u64> {
    [
        "grbac_decisions_permit_total",
        "grbac_decisions_deny_total",
        "grbac_decisions_degraded_total",
        "grbac_decide_errors_total",
        "grbac_decide_sampled_total",
    ]
    .map(|name| snapshot.counter(name))
    .to_vec()
}

/// Observation counts of every quantile series (the end-to-end and
/// per-stage latency sketches).
fn sketch_counts(snapshot: &MetricsSnapshot) -> BTreeMap<(String, String), u64> {
    snapshot
        .summaries
        .iter()
        .flat_map(|(family, summary)| {
            summary
                .series
                .iter()
                .map(move |(label, reading)| ((family.clone(), label.clone()), reading.count))
        })
        .collect()
}

proptest! {
    /// decide_traced() ≡ decide() — same decision (effect, winner,
    /// matched set, explanation) on identical input — and every
    /// successful trace covers the five pipeline stages in order.
    fn traced_decision_matches_untraced(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        for _ in 0..8 {
            let request = random_request(&mut rng, &mut model);
            let plain = model.g.decide(&request);
            let traced = model.g.decide_traced(&request);
            match (plain, traced) {
                (Ok(expected), Ok((decision, trace))) => {
                    prop_assert_eq!(decision, expected);
                    let stages: Vec<Stage> =
                        trace.stages.iter().map(|record| record.stage).collect();
                    prop_assert_eq!(stages, Stage::ALL.to_vec());
                }
                (Err(expected), Err(err)) => {
                    prop_assert_eq!(format!("{err:?}"), format!("{expected:?}"));
                }
                (plain, traced) => {
                    return Err(TestCaseError::fail(format!(
                        "paths disagree: decide={plain:?} decide_traced={traced:?}"
                    )));
                }
            }
        }
    }

    /// The registry accounts for exactly the decisions made: permits +
    /// denies == Ok decisions, errors == Err decisions, whether the
    /// requests went through decide(), decide_traced() or a batch.
    fn registry_accounts_for_every_decision(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        let requests: Vec<AccessRequest> =
            (0..6).map(|_| random_request(&mut rng, &mut model)).collect();

        let before = model.g.metrics().snapshot();
        let mut ok = 0u64;
        let mut errors = 0u64;
        let mut tally = |result: &Result<Decision, GrbacError>| match result {
            Ok(_) => ok += 1,
            Err(_) => errors += 1,
        };
        for request in &requests[..3] {
            tally(&model.g.decide(request));
            tally(&model.g.decide_traced(request).map(|(decision, _)| decision));
        }
        for result in model.g.decide_batch(&requests[3..]) {
            tally(&result);
        }
        let delta = model.g.metrics().snapshot().delta(&before);

        if telemetry::ENABLED {
            let decided = delta.counter("grbac_decisions_permit_total")
                + delta.counter("grbac_decisions_deny_total");
            prop_assert_eq!(decided, ok);
            prop_assert_eq!(delta.counter("grbac_decide_errors_total"), errors);
            prop_assert_eq!(delta.counter("grbac_batch_calls_total"), 1);
        }
    }

    /// decide_traced() and a latency-sampled decide() run one record
    /// step: two engines built from one seed, one deciding through
    /// `decide_traced` and the other through `decide` at sample rate 1,
    /// end with equal recorder records, bus events, heat, decision
    /// counters and stage-sketch counts.
    fn traced_and_sampled_decides_leave_the_same_evidence(seed in any::<u64>()) {
        let (mut traced_rng, mut sampled_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut traced = build_model(&mut traced_rng);
        let mut sampled = build_model(&mut sampled_rng);
        sampled.g.metrics().set_latency_sample_rate(1);
        let traced_bus = traced.g.metrics().events.subscribe(64, EventFilter::all());
        let sampled_bus = sampled.g.metrics().events.subscribe(64, EventFilter::all());
        for _ in 0..8 {
            let request = random_request(&mut traced_rng, &mut traced);
            let twin = random_request(&mut sampled_rng, &mut sampled);
            let _ = traced.g.decide_traced(&request);
            let _ = sampled.g.decide(&twin);
        }

        let records = |model: &Model| -> Vec<ProvenanceRecord> {
            model.g.flight_recorder().snapshot().into_iter().map(masked).collect()
        };
        if telemetry::ENABLED {
            prop_assert_eq!(records(&traced), records(&sampled));
        } else {
            // Compiled-out telemetry never samples, so only the
            // explicitly traced records carry timings.
            let untimed = |model: &Model| -> Vec<ProvenanceRecord> {
                records(model)
                    .into_iter()
                    .map(|mut record| {
                        record.stage_nanos = None;
                        record.total_nanos = None;
                        record
                    })
                    .collect()
            };
            prop_assert_eq!(untimed(&traced), untimed(&sampled));
        }

        let events = |bus: &telemetry::EventSubscription| -> Vec<(EventKind, Option<Effect>)> {
            bus.drain()
                .iter()
                .map(|event| {
                    let effect = match &event.data {
                        EventData::Decision { effect, .. } => Some(*effect),
                        _ => None,
                    };
                    (event.kind(), effect)
                })
                .collect()
        };
        prop_assert_eq!(events(&traced_bus), events(&sampled_bus));
        prop_assert_eq!(traced.g.heat_snapshot(), sampled.g.heat_snapshot());

        let (traced_metrics, sampled_metrics) =
            (traced.g.metrics().snapshot(), sampled.g.metrics().snapshot());
        prop_assert_eq!(
            decision_counters(&traced_metrics),
            decision_counters(&sampled_metrics)
        );
        prop_assert_eq!(sketch_counts(&traced_metrics), sketch_counts(&sampled_metrics));
    }
}
