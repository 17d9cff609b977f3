//! Differential property suite: the compiled mediation path
//! (`Grbac::decide`, `Grbac::decide_batch`) must produce decisions
//! identical to the retained reference scan (`Grbac::decide_naive`) —
//! same effect, same winner, same matched set, same explanation — on
//! randomized policies, actors, and after index-invalidating mutations.

use grbac_core::prelude::*;
use grbac_core::telemetry::{self, DeltaKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Model {
    g: Grbac,
    subject_roles: Vec<RoleId>,
    object_roles: Vec<RoleId>,
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

/// Builds a random household: role vocabularies with random DAG edges,
/// entities, assignments, and a random rule book.
fn build_model(rng: &mut StdRng) -> Model {
    let mut g = Grbac::new();

    // A share of cases declares unused roles first, so the roles below
    // straddle the 64-role word boundary of the closure rows and role
    // sets, or the 128 roles a role set holds inline.
    let padding = match rng.gen_range(0..10u32) {
        0 | 1 => rng.gen_range(50..64usize),
        2 | 3 => rng.gen_range(115..128usize),
        _ => 0,
    };
    for i in 0..padding {
        g.declare_subject_role(format!("pad{i}")).unwrap();
    }

    let subject_roles: Vec<RoleId> = (0..rng.gen_range(1..=6usize))
        .map(|i| g.declare_subject_role(format!("sr{i}")).unwrap())
        .collect();
    let object_roles: Vec<RoleId> = (0..rng.gen_range(1..=5usize))
        .map(|i| g.declare_object_role(format!("or{i}")).unwrap())
        .collect();
    let env_roles: Vec<RoleId> = (0..rng.gen_range(1..=4usize))
        .map(|i| g.declare_environment_role(format!("er{i}")).unwrap())
        .collect();

    // Random specialization edges; cycles and self-edges are rejected
    // by the engine, which is fine — we only need *some* DAG.
    for roles in [&subject_roles, &object_roles, &env_roles] {
        for _ in 0..rng.gen_range(0..=roles.len() * 2) {
            let specific = pick(rng, roles);
            let general = pick(rng, roles);
            let _ = g.specialize(specific, general);
        }
    }

    let transactions: Vec<TransactionId> = (0..rng.gen_range(1..=3usize))
        .map(|i| g.declare_transaction(format!("t{i}")).unwrap())
        .collect();
    let subjects: Vec<SubjectId> = (0..rng.gen_range(1..=4usize))
        .map(|i| g.declare_subject(format!("sub{i}")).unwrap())
        .collect();
    let objects: Vec<ObjectId> = (0..rng.gen_range(1..=3usize))
        .map(|i| g.declare_object(format!("obj{i}")).unwrap())
        .collect();

    for &subject in &subjects {
        for &role in &subject_roles {
            if rng.gen_bool(0.4) {
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

    // Small policies keep every rule posting row in one word; large
    // ones span two to four words, so removals shift bits across word
    // boundaries.
    let rule_count = if rng.gen_bool(0.3) {
        rng.gen_range(60..=200usize)
    } else {
        rng.gen_range(0..=15usize)
    };
    for _ in 0..rule_count {
        add_random_rule(
            rng,
            &mut g,
            &subject_roles,
            &object_roles,
            &env_roles,
            &transactions,
        );
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
    if rng.gen_bool(0.3) {
        g.set_default_effect(Effect::Permit);
    }
    if rng.gen_bool(0.5) {
        let threshold = random_confidence(rng);
        g.set_default_min_confidence(threshold);
    }

    Model {
        g,
        subject_roles,
        object_roles,
        env_roles,
        subjects,
        objects,
        transactions,
    }
}

fn add_random_rule(
    rng: &mut StdRng,
    g: &mut Grbac,
    subject_roles: &[RoleId],
    object_roles: &[RoleId],
    env_roles: &[RoleId],
    transactions: &[TransactionId],
) {
    let mut def = if rng.gen_bool(0.5) {
        RuleDef::permit()
    } else {
        RuleDef::deny()
    };
    if rng.gen_bool(0.7) {
        def = def.subject_role(pick(rng, subject_roles));
    }
    if rng.gen_bool(0.7) {
        def = def.object_role(pick(rng, object_roles));
    }
    if rng.gen_bool(0.7) {
        def = def.transaction(pick(rng, transactions));
    }
    for &env in env_roles {
        if rng.gen_bool(0.3) {
            def = def.when(env);
        }
    }
    if rng.gen_bool(0.3) {
        def = def.min_confidence(random_confidence(rng));
    }
    g.add_rule(def).unwrap();
}

/// A random request: any actor posture, valid or (occasionally)
/// unknown ids, random environment activation including undeclared
/// role ids that both paths must skip identically.
fn random_request(rng: &mut StdRng, model: &mut Model) -> AccessRequest {
    let mut active: Vec<RoleId> = model
        .env_roles
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    if rng.gen_bool(0.1) {
        active.push(RoleId::from_raw(500 + rng.gen_range(0..10u64)));
    }
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
            let subject = if rng.gen_bool(0.05) {
                SubjectId::from_raw(900)
            } else {
                pick(rng, &model.subjects)
            };
            AccessRequest::by_subject(subject, transaction, object, environment)
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
                let subject = if rng.gen_bool(0.1) {
                    SubjectId::from_raw(900)
                } else {
                    pick(rng, &model.subjects)
                };
                ctx.claim_identity(subject, random_confidence(rng));
            }
            for _ in 0..rng.gen_range(0..=3u32) {
                // Claims may name roles of any kind or undeclared ids;
                // both paths must ignore the invalid ones the same way.
                let role = match rng.gen_range(0..4u32) {
                    0 => pick(rng, &model.subject_roles),
                    1 => pick(rng, &model.object_roles),
                    2 => pick(rng, &model.env_roles),
                    _ => RoleId::from_raw(700 + rng.gen_range(0..10u64)),
                };
                ctx.claim_role(role, random_confidence(rng));
            }
            AccessRequest::by_sensed(ctx, transaction, object, environment)
        }
    }
}

/// One random index-invalidating mutation.
fn mutate(rng: &mut StdRng, model: &mut Model) {
    match rng.gen_range(0..6u32) {
        0 => {
            let subject = pick(rng, &model.subjects);
            let role = pick(rng, &model.subject_roles);
            let _ = model.g.revoke_subject_role(subject, role);
        }
        1 => {
            let object = pick(rng, &model.objects);
            let role = pick(rng, &model.object_roles);
            let _ = model.g.revoke_object_role(object, role);
        }
        2 => {
            let rules = model.g.rules();
            if !rules.is_empty() {
                let id = rules[rng.gen_range(0..rules.len())].id();
                model.g.remove_rule(id);
            }
        }
        3 => {
            let (sr, or, er, tx) = (
                model.subject_roles.clone(),
                model.object_roles.clone(),
                model.env_roles.clone(),
                model.transactions.clone(),
            );
            add_random_rule(rng, &mut model.g, &sr, &or, &er, &tx);
        }
        4 => {
            let specific = pick(rng, &model.subject_roles);
            let general = pick(rng, &model.subject_roles);
            let _ = model.g.specialize(specific, general);
        }
        _ => {
            let n = model.subject_roles.len();
            let role = model.g.declare_subject_role(format!("late{n}")).unwrap();
            model.subject_roles.push(role);
            let subject = pick(rng, &model.subjects);
            let _ = model.g.assign_subject_role(subject, role);
        }
    }
}

fn assert_paths_agree(g: &Grbac, request: &AccessRequest) -> Result<(), TestCaseError> {
    let compiled = g.decide(request);
    let naive = g.decide_naive(request);
    match (compiled, naive) {
        (Ok(fast), Ok(reference)) => prop_assert_eq!(fast, reference),
        (compiled, naive) => {
            prop_assert_eq!(format!("{compiled:?}"), format!("{naive:?}"));
        }
    }
    Ok(())
}

proptest! {
    /// decide() ≡ decide_naive() over random policies and actors.
    fn compiled_decide_matches_naive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        for _ in 0..8 {
            let request = random_request(&mut rng, &mut model);
            assert_paths_agree(&model.g, &request)?;
        }
    }

    /// The equivalence survives mutations at every invalidation site
    /// (assign/revoke, add/remove rule, specialize, late declaration).
    fn equivalence_survives_mutations(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        for _ in 0..4 {
            let request = random_request(&mut rng, &mut model);
            assert_paths_agree(&model.g, &request)?;
            mutate(&mut rng, &mut model);
            assert_paths_agree(&model.g, &request)?;
        }
    }

    /// Any interleaved delta schedule leaves the compiled index
    /// structurally identical to a from-scratch rebuild at the same
    /// generation — the incremental path must never drift, whether
    /// the index is repaired after every edit or after a burst.
    fn delta_schedule_matches_rebuild(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        // Prime the index so subsequent edits exercise the delta path
        // rather than the first from-scratch build.
        let request = random_request(&mut rng, &mut model);
        let _ = model.g.decide(&request);
        for _ in 0..10 {
            mutate(&mut rng, &mut model);
            if rng.gen_bool(0.6) {
                // Repair immediately: single-delta application.
                prop_assert!(model.g.compiled_matches_rebuild());
            }
            // Otherwise let edits accumulate into a multi-delta batch
            // resolved at the next check or decide.
        }
        prop_assert!(model.g.compiled_matches_rebuild());
        let request = random_request(&mut rng, &mut model);
        assert_paths_agree(&model.g, &request)?;
    }

    /// decide_batch() returns exactly what per-request decide_naive()
    /// returns, in request order.
    fn batch_matches_naive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_model(&mut rng);
        let requests: Vec<AccessRequest> =
            (0..6).map(|_| random_request(&mut rng, &mut model)).collect();
        let batch = model.g.decide_batch(&requests);
        prop_assert_eq!(batch.len(), requests.len());
        for (result, request) in batch.iter().zip(&requests) {
            let reference = model.g.decide_naive(request);
            match (result, reference) {
                (Ok(fast), Ok(reference)) => prop_assert_eq!(fast, &reference),
                (fast, reference) => {
                    prop_assert_eq!(format!("{fast:?}"), format!("{:?}", &reference));
                }
            }
        }
    }
}

/// At exactly 128 rules every posting row fills two words: each add
/// widens the rows to a third word and each removal narrows them back.
/// Two hundred add/remove pairs of one rule, each edit repaired by the
/// decide after it, must all take the delta path and keep the patched
/// index equal to a from-scratch rebuild.
#[test]
fn word_boundary_churn_stays_incremental() {
    let mut rng = StdRng::seed_from_u64(128);
    let mut model = build_model(&mut rng);
    let (sr, or, er, tx) = (
        model.subject_roles.clone(),
        model.object_roles.clone(),
        model.env_roles.clone(),
        model.transactions.clone(),
    );
    while model.g.rules().len() < 128 {
        add_random_rule(&mut rng, &mut model.g, &sr, &or, &er, &tx);
    }
    while model.g.rules().len() > 128 {
        let id = model.g.rules()[0].id();
        model.g.remove_rule(id);
    }
    let request = random_request(&mut rng, &mut model);
    assert_paths_agree(&model.g, &request).unwrap();
    let applied = |g: &Grbac, kind: DeltaKind| g.metrics().index_delta_applied.get(kind.slot());
    let (added_before, removed_before) = (
        applied(&model.g, DeltaKind::RuleAdded),
        applied(&model.g, DeltaKind::RuleRemoved),
    );
    for _ in 0..200 {
        add_random_rule(&mut rng, &mut model.g, &sr, &or, &er, &tx);
        assert_eq!(model.g.rules().len(), 129);
        let request = random_request(&mut rng, &mut model);
        assert_paths_agree(&model.g, &request).unwrap();
        assert!(model.g.compiled_matches_rebuild(), "after widening");

        let id = model.g.rules()[128].id();
        assert!(model.g.remove_rule(id));
        let request = random_request(&mut rng, &mut model);
        assert_paths_agree(&model.g, &request).unwrap();
        assert!(model.g.compiled_matches_rebuild(), "after narrowing");
    }
    if telemetry::ENABLED {
        let metrics = model.g.metrics();
        assert_eq!(metrics.index_full_rebuilds.get(), 1);
        assert_eq!(applied(&model.g, DeltaKind::RuleAdded) - added_before, 200);
        assert_eq!(
            applied(&model.g, DeltaKind::RuleRemoved) - removed_before,
            200
        );
    }
}
