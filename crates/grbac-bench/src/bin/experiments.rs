//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! experiments [e1 e2 … e18 | all] [--json] [--bench-out DIR]
//! ```
//!
//! Each experiment prints one or more tables; `--json` emits the same
//! data as JSON for downstream tooling. `--bench-out DIR` additionally
//! writes the benchmark-bearing experiments (e5, e10, e12–e18) to
//! `DIR/BENCH_<name>.json`, one JSON document per experiment, for CI
//! artifact storage and cross-run comparison. An unknown name exits
//! with status 2 and lists the valid ones. Timings here use wall-clock
//! loops sized for quick runs; the Criterion benches in `benches/`
//! measure the same code paths with statistical rigor.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use grbac_bench::args::Args;
use grbac_bench::fixtures::{
    chaos_week, deep_hierarchy, degraded_postures, fault_onset_replay, home_workload,
    inject_dead_rule, synthetic_grbac, synthetic_rbac, wide, SyntheticConfig,
};
use grbac_bench::measure::{self, fastest_of, Side, ROUNDS};
use grbac_bench::serveload::{
    record_window, self_host, uint_field, Load, Samples, WindowStats, WireLoad,
};
use grbac_bench::table::{self, Table};
use grbac_core::confidence::{AuthContext, Confidence};
use grbac_core::degraded::{DegradedMode, EnvHealth};
use grbac_core::engine::{AccessRequest, Grbac};
use grbac_core::environment::EnvironmentSnapshot;
use grbac_core::precedence::ConflictStrategy;
use grbac_core::provenance::{replay, replay_all, replay_with_health, ForensicQuery};
use grbac_core::rule::{Effect, RuleDef};
use grbac_core::telemetry::EventFilter;
use grbac_env::calendar::TimeExpr;
use grbac_env::events::EventBus;
use grbac_env::fault::{FaultPlan, FaultRates};
use grbac_env::load::LoadMonitor;
use grbac_env::periodic::PeriodicExpr;
use grbac_env::provider::{EnvCondition, EnvironmentContext, EnvironmentRoleProvider};
use grbac_env::time::{Date, Duration, TimeOfDay, Timestamp};
use grbac_home::scenario::{
    paper_confidence_threshold, paper_household, paper_smart_floor, weights,
};
use grbac_home::workload::{execute, generate};
use grbac_mls::blp::{BlpMonitor, MlsOp};
use grbac_mls::encode::MlsGrbac;
use grbac_mls::level::{Classification, SecurityLevel};
use grbac_sense::evidence::Claim;
use grbac_serve::Client;
use rand::Rng;
use rand::SeedableRng;

type Runner = fn() -> Vec<Table>;
const EXPERIMENTS: [(&str, Runner); 18] = [
    ("e1", e1_rbac_mediation),
    ("e2", e2_hierarchy),
    ("e3", e3_policy_size),
    ("e4", e4_partial_auth),
    ("e5", e5_mediation_scaling),
    ("e6", e6_precedence),
    ("e7", e7_expressiveness),
    ("e8", e8_env_events),
    ("e9", e9_aware_home),
    ("e10", e10_telemetry_overhead),
    ("e11", e11_fault_tolerance),
    ("e12", e12_provenance),
    ("e13", e13_policy_health),
    ("e14", e14_incremental_churn),
    ("e15", e15_obs_overhead),
    ("e16", e16_service_tenancy),
    ("e17", e17_tracing_overhead),
    ("e18", e18_live_telemetry),
];

fn main() {
    let args = Args::from_env();
    let valid: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .chain(["all"])
        .collect();
    let selected = args.names(&["--bench-out"], &valid).unwrap_or_else(|err| {
        eprintln!("experiments: {err}");
        std::process::exit(2);
    });
    let run_all = selected.is_empty() || selected.contains(&"all");
    let groups: Vec<(&str, Vec<Table>)> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| run_all || selected.contains(name))
        .map(|&(name, run)| (name, run()))
        .collect();

    // The benchmark-bearing experiments land as one JSON file each, so
    // CI can store them and diffs can track timing drift across runs.
    if let Some(dir) = args.value("--bench-out") {
        std::fs::create_dir_all(dir).expect("--bench-out directory creatable");
        for (name, tables) in &groups {
            if ["e5", "e10", "e12", "e13", "e14", "e15", "e16", "e17", "e18"].contains(name) {
                let path = format!("{dir}/BENCH_{name}.json");
                let body = serde_json::to_string_pretty(tables).expect("tables serialize");
                std::fs::write(&path, body).expect("bench file writable");
                eprintln!("wrote {path}");
            }
        }
    }

    let tables: Vec<Table> = groups.into_iter().flat_map(|(_, tables)| tables).collect();
    table::print(&tables, args.flag("--json"));
}

fn ns_per_op(total: std::time::Duration, ops: usize) -> f64 {
    total.as_nanos() as f64 / ops.max(1) as f64
}

/// Mean ns per `decide` call over `requests`, from the fastest of five
/// passes.
fn fastest_ns<T>(requests: &[AccessRequest], decide: impl Fn(&AccessRequest) -> T) -> f64 {
    let pass = |(): &mut ()| {
        for request in requests {
            std::hint::black_box(decide(request));
        }
    };
    ns_per_op(fastest_of(5, || (), pass), requests.len())
}

/// E1 — Figure 1: the RBAC `exec(s, t)` rule, correctness + timing.
fn e1_rbac_mediation() -> Vec<Table> {
    let mut table = Table::new(
        "E1 (Figure 1): RBAC exec(s,t) mediation vs roles per subject",
        &["roles_per_subject", "checks", "grant_rate", "ns_per_check"],
    );
    for roles_per_subject in [1usize, 4, 16, 64] {
        let (system, subjects, transactions) = synthetic_rbac(256, 4, 64, roles_per_subject, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let checks = 50_000;
        let pairs: Vec<(rbac::SubjectId, rbac::TransactionId)> = (0..checks)
            .map(|_| {
                (
                    subjects[rng.gen_range(0..subjects.len())],
                    transactions[rng.gen_range(0..transactions.len())],
                )
            })
            .collect();
        let start = Instant::now();
        let mut grants = 0u64;
        for &(s, t) in &pairs {
            if system.exec(s, t).expect("known ids") {
                grants += 1;
            }
        }
        let elapsed = start.elapsed();
        table.row(&[
            roles_per_subject.to_string(),
            checks.to_string(),
            format!("{:.3}", grants as f64 / checks as f64),
            format!("{:.0}", ns_per_op(elapsed, checks)),
        ]);
    }
    vec![table]
}

/// E2 — Figure 2: the example hierarchy (verified) + closure scaling.
fn e2_hierarchy() -> Vec<Table> {
    // Reproduce Figure 2 exactly and verify each drawn edge.
    let mut engine = Grbac::new();
    let home_user = engine.declare_subject_role("home_user").unwrap();
    let family = engine.declare_subject_role("family_member").unwrap();
    let parent = engine.declare_subject_role("parent").unwrap();
    let child = engine.declare_subject_role("child").unwrap();
    let guest = engine.declare_subject_role("authorized_guest").unwrap();
    let service = engine.declare_subject_role("service_agent").unwrap();
    let tech = engine
        .declare_subject_role("dishwasher_repair_tech")
        .unwrap();
    engine.specialize(family, home_user).unwrap();
    engine.specialize(parent, family).unwrap();
    engine.specialize(child, family).unwrap();
    engine.specialize(guest, home_user).unwrap();
    engine.specialize(service, guest).unwrap();
    engine.specialize(tech, service).unwrap();

    let mut fig2 = Table::new(
        "E2 (Figure 2): example subject role hierarchy, relations verified",
        &["relation", "holds"],
    );
    let relations = [
        ("parent is-a family_member", parent, family),
        ("child is-a family_member", child, family),
        ("family_member is-a home_user", family, home_user),
        ("authorized_guest is-a home_user", guest, home_user),
        ("service_agent is-a authorized_guest", service, guest),
        ("repair_tech is-a service_agent", tech, service),
        ("repair_tech is-a home_user (transitive)", tech, home_user),
        ("child is-a home_user (transitive)", child, home_user),
    ];
    for (name, a, b) in relations {
        fig2.row(&[
            name.to_owned(),
            engine
                .roles()
                .is_specialization_of(a, b)
                .unwrap()
                .to_string(),
        ]);
    }

    let mut scaling = Table::new(
        "E2: closure and seniority-query cost vs hierarchy depth",
        &["depth", "closure_len", "ns_closure", "ns_is_specialization"],
    );
    for depth in [2usize, 4, 8, 16, 32, 64] {
        let (engine, leaf, root) = deep_hierarchy(depth);
        let iters = 20_000;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(engine.roles().closure(leaf).unwrap());
        }
        let closure_ns = ns_per_op(start.elapsed(), iters);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(engine.roles().is_specialization_of(leaf, root).unwrap());
        }
        let spec_ns = ns_per_op(start.elapsed(), iters);
        scaling.row(&[
            depth.to_string(),
            depth.to_string(),
            format!("{closure_ns:.0}"),
            format!("{spec_ns:.0}"),
        ]);
    }
    vec![fig2, scaling]
}

/// E3 — §5.1: policy size for the same intent in GRBAC / RBAC / ACL.
fn e3_policy_size() -> Vec<Table> {
    let mut table = Table::new(
        "E3 (§5.1): rules needed for \"children may use entertainment devices on weekdays during free time\"",
        &[
            "children",
            "devices",
            "grbac_rules",
            "rbac_authorizations",
            "acl_entries",
            "new_device_updates(grbac/rbac/acl)",
        ],
    );
    for (children, devices) in [(2usize, 4usize), (4, 10), (8, 20), (16, 50), (32, 100)] {
        // GRBAC: one rule regardless of household size.
        let mut grbac = Grbac::new();
        let child = grbac.declare_subject_role("child").unwrap();
        let entertainment = grbac.declare_object_role("entertainment_devices").unwrap();
        let weekdays = grbac.declare_environment_role("weekdays").unwrap();
        let free_time = grbac.declare_environment_role("free_time").unwrap();
        let use_t = grbac.declare_transaction("use").unwrap();
        for i in 0..children {
            let s = grbac.declare_subject(format!("kid_{i}")).unwrap();
            grbac.assign_subject_role(s, child).unwrap();
        }
        for i in 0..devices {
            let o = grbac.declare_object(format!("dev_{i}")).unwrap();
            grbac.assign_object_role(o, entertainment).unwrap();
        }
        grbac
            .add_rule(
                RuleDef::permit()
                    .subject_role(child)
                    .object_role(entertainment)
                    .transaction(use_t)
                    .when(weekdays)
                    .when(free_time),
            )
            .unwrap();
        let grbac_rules = grbac.rules().len();

        // RBAC (Figure 1): no object roles and no environment — one
        // transaction per device, authorized to the child role. (Time
        // cannot be expressed at all; the count below is therefore a
        // *lower* bound on the real RBAC policy.)
        let mut rbac_system = rbac::Rbac::new();
        let child_role = rbac_system.declare_role("child").unwrap();
        for i in 0..devices {
            let t = rbac_system
                .declare_transaction(format!("use_dev_{i}"))
                .unwrap();
            rbac_system.authorize_transaction(child_role, t).unwrap();
        }
        let rbac_auths = rbac_system.authorization_count();

        // ACL: one entry per (child, device).
        let mut acl = rbac::acl::Acl::new();
        for c in 0..children {
            for d in 0..devices {
                acl.grant(format!("kid_{c}"), format!("dev_{d}"), "use");
            }
        }
        let acl_entries = acl.len();

        table.row(&[
            children.to_string(),
            devices.to_string(),
            grbac_rules.to_string(),
            rbac_auths.to_string(),
            acl_entries.to_string(),
            format!("1 / 1 / {children}"),
        ]);
    }
    vec![table]
}

/// E4 — §5.2: identity vs role confidence acceptance under thresholds.
fn e4_partial_auth() -> Vec<Table> {
    let mut home = paper_household().unwrap();
    let vocab = *home.vocab();
    home.engine_mut()
        .set_default_min_confidence(paper_confidence_threshold());
    let floor = paper_smart_floor(&home).unwrap();
    let alice = home.person("alice").unwrap().subject();
    let tv = home.device("tv").unwrap().object();

    // The paper's headline numbers, deterministically.
    let mut headline = Table::new(
        "E4 (§5.2): Smart Floor confidence for Alice's exact weight (threshold 90%)",
        &["claim", "confidence", "meets_90%"],
    );
    let evidence = floor.evidence_for_measurement(weights::ALICE);
    for e in &evidence {
        let (claim, relevant) = match e.claim {
            Claim::Identity(s) => (format!("identity: subject {s}"), s == alice),
            Claim::RoleMembership(r) => (format!("role membership: {r} (child)"), r == vocab.child),
        };
        if relevant {
            headline.row(&[
                claim,
                format!("{}", e.confidence),
                e.confidence.meets(paper_confidence_threshold()).to_string(),
            ]);
        }
    }

    // Acceptance rates over noisy observations, per threshold.
    let mut curve = Table::new(
        "E4: grant rate for Alice -> TV vs policy threshold (2000 noisy floor readings each)",
        &[
            "threshold",
            "identity_only_grant_rate",
            "with_role_claim_grant_rate",
        ],
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let trials = 2_000u32;
    // Pre-sample measurements once so every threshold sees identical
    // evidence.
    let measurements: Vec<Vec<grbac_sense::Evidence>> = (0..trials)
        .map(|_| {
            let noise = grbac_sense::stats::gaussian_sample(&mut rng, 0.0, 3.0);
            floor.evidence_for_measurement(weights::ALICE + noise)
        })
        .collect();
    for threshold_pct in [50u32, 60, 70, 80, 90, 95, 99] {
        let threshold = Confidence::new(f64::from(threshold_pct) / 100.0).unwrap();
        home.engine_mut().set_default_min_confidence(threshold);
        let mut identity_grants = 0u32;
        let mut role_grants = 0u32;
        for evidence in &measurements {
            let mut identity_ctx = AuthContext::new();
            let mut full_ctx = AuthContext::new();
            for e in evidence {
                match e.claim {
                    Claim::Identity(s) => {
                        identity_ctx.claim_identity(s, e.confidence);
                        full_ctx.claim_identity(s, e.confidence);
                    }
                    Claim::RoleMembership(r) => full_ctx.claim_role(r, e.confidence),
                }
            }
            if home
                .request_sensed(identity_ctx, vocab.operate, tv)
                .unwrap()
                .is_permitted()
            {
                identity_grants += 1;
            }
            if home
                .request_sensed(full_ctx, vocab.operate, tv)
                .unwrap()
                .is_permitted()
            {
                role_grants += 1;
            }
        }
        curve.row(&[
            format!("{threshold_pct}%"),
            format!("{:.3}", f64::from(identity_grants) / f64::from(trials)),
            format!("{:.3}", f64::from(role_grants) / f64::from(trials)),
        ]);
    }
    vec![headline, curve]
}

/// E5 — §4.2.4: GRBAC vs RBAC mediation cost as policy size grows.
fn e5_mediation_scaling() -> Vec<Table> {
    let mut table = Table::new(
        "E5 (§4.2.4): mediation cost, GRBAC triple rule vs RBAC exec",
        &[
            "rules",
            "grbac_ns_per_decision",
            "rbac_ns_per_check",
            "ratio",
        ],
    );
    for rules in [16usize, 64, 256, 1024] {
        let system = synthetic_grbac(&wide(rules));
        let requests = system.requests(20_000, 3, 3);
        let start = Instant::now();
        for request in &requests {
            std::hint::black_box(system.engine.decide(request).expect("known ids"));
        }
        let grbac_ns = ns_per_op(start.elapsed(), requests.len());

        // RBAC sized so authorization pairs ≈ rules.
        let (rbac_system, subjects, transactions) =
            synthetic_rbac(32, rules.div_ceil(32), 32, 2, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs: Vec<_> = (0..20_000)
            .map(|_| {
                (
                    subjects[rng.gen_range(0..subjects.len())],
                    transactions[rng.gen_range(0..transactions.len())],
                )
            })
            .collect();
        let start = Instant::now();
        for &(s, t) in &pairs {
            std::hint::black_box(rbac_system.exec(s, t).expect("known ids"));
        }
        let rbac_ns = ns_per_op(start.elapsed(), pairs.len());
        table.row(&[
            rules.to_string(),
            format!("{grbac_ns:.0}"),
            format!("{rbac_ns:.0}"),
            format!("{:.1}x", grbac_ns / rbac_ns.max(1.0)),
        ]);
    }

    // Ablation: the same policy size with flat vs deep role chains —
    // quantifies what the hierarchy expansion costs per decision.
    let mut ablation = Table::new(
        "E5 ablation: hierarchy depth at a fixed 256-rule policy",
        &["chain_depth", "grbac_ns_per_decision"],
    );
    for chain_depth in [1usize, 2, 4, 8, 16] {
        let system = synthetic_grbac(&SyntheticConfig {
            chain_depth,
            ..wide(256)
        });
        let requests = system.requests(20_000, 3, 3);
        let start = Instant::now();
        for request in &requests {
            std::hint::black_box(system.engine.decide(request).expect("known ids"));
        }
        ablation.row(&[
            chain_depth.to_string(),
            format!("{:.0}", ns_per_op(start.elapsed(), requests.len())),
        ]);
    }
    vec![table, ablation]
}

/// E6 — §4.1.2: conflict-resolution strategies on the Bobby example.
fn e6_precedence() -> Vec<Table> {
    // Bobby possesses child ⊑ family_member; family may read the
    // medical records, child may not.
    let mut engine = Grbac::new();
    let family = engine.declare_subject_role("family_member").unwrap();
    let child = engine.declare_subject_role("child").unwrap();
    engine.specialize(child, family).unwrap();
    let records_role = engine.declare_object_role("medical_records").unwrap();
    let read = engine.declare_transaction("read").unwrap();
    let bobby = engine.declare_subject("bobby").unwrap();
    engine.assign_subject_role(bobby, child).unwrap();
    let records = engine.declare_object("family_medical_records").unwrap();
    engine.assign_object_role(records, records_role).unwrap();
    engine
        .add_rule(
            RuleDef::permit()
                .named("family may read medical records")
                .subject_role(family)
                .object_role(records_role)
                .transaction(read),
        )
        .unwrap();
    engine
        .add_rule(
            RuleDef::deny()
                .named("children may not read medical records")
                .subject_role(child)
                .object_role(records_role)
                .transaction(read),
        )
        .unwrap();

    let mut outcomes = Table::new(
        "E6 (§4.1.2): Bobby reads the family medical records — outcome per strategy",
        &["strategy", "decision", "winning_rule"],
    );
    let request = AccessRequest::by_subject(bobby, read, records, EnvironmentSnapshot::new());
    for strategy in ConflictStrategy::ALL {
        engine.set_strategy(strategy);
        let decision = engine.decide(&request).unwrap();
        let winner = decision
            .winning_rule()
            .map_or("none".to_owned(), |r| r.to_string());
        outcomes.row(&[strategy.to_string(), decision.effect().to_string(), winner]);
    }

    // Strategy overhead on a conflict-heavy synthetic policy.
    let mut timing = Table::new(
        "E6: resolution overhead on a conflict-heavy policy (256 rules, 40% deny)",
        &["strategy", "ns_per_decision", "grant_rate"],
    );
    let system = synthetic_grbac(&SyntheticConfig {
        rules: 256,
        deny_fraction: 0.4,
        ..Default::default()
    });
    let requests = system.requests(20_000, 3, 5);
    let mut engine = system.engine;
    for strategy in ConflictStrategy::ALL {
        engine.set_strategy(strategy);
        let start = Instant::now();
        let mut grants = 0u64;
        for request in &requests {
            if engine.decide(request).expect("known ids").is_permitted() {
                grants += 1;
            }
        }
        timing.row(&[
            strategy.to_string(),
            format!("{:.0}", ns_per_op(start.elapsed(), requests.len())),
            format!("{:.3}", grants as f64 / requests.len() as f64),
        ]);
    }
    vec![outcomes, timing]
}

/// E7 — §6: GRBAC subsumes MLS, temporal authorizations, and GACL
/// load-based authorization.
fn e7_expressiveness() -> Vec<Table> {
    let mut table = Table::new(
        "E7 (§6): related models encoded in GRBAC — decision equivalence",
        &["encoding", "cases", "mismatches"],
    );

    // (a) MLS vs direct Bell-LaPadula, exhaustive over a compartmented
    // lattice.
    let levels: Vec<SecurityLevel> = {
        let mut out = Vec::new();
        for c in Classification::ALL {
            out.push(SecurityLevel::new(c));
            out.push(SecurityLevel::with_compartments(c, ["crypto"]));
            out.push(SecurityLevel::with_compartments(c, ["nuclear"]));
            out.push(SecurityLevel::with_compartments(c, ["crypto", "nuclear"]));
        }
        out
    };
    let mut blp = BlpMonitor::new();
    let mut mls = MlsGrbac::new().unwrap();
    for (i, level) in levels.iter().enumerate() {
        blp.set_clearance(format!("s{i}"), level.clone());
        blp.set_classification(format!("o{i}"), level.clone());
        mls.add_subject(&format!("s{i}"), level).unwrap();
        mls.add_object(&format!("o{i}"), level).unwrap();
    }
    let mut cases = 0u64;
    let mut mismatches = 0u64;
    for i in 0..levels.len() {
        for j in 0..levels.len() {
            for op in [MlsOp::Read, MlsOp::Write] {
                cases += 1;
                let direct = blp.decide(&format!("s{i}"), op, &format!("o{j}"));
                let encoded = mls.decide(&format!("s{i}"), op, &format!("o{j}")).unwrap();
                if direct != encoded {
                    mismatches += 1;
                }
            }
        }
    }
    table.row(&[
        "Bell-LaPadula (read+write, 16-level lattice)".to_owned(),
        cases.to_string(),
        mismatches.to_string(),
    ]);

    // (b) Bertino-style periodic authorization as an environment role:
    // office hours 9-17 daily, checked hourly over 90 days.
    let anchor =
        Timestamp::from_civil(Date::new(2000, 1, 3).unwrap(), TimeOfDay::hm(9, 0).unwrap());
    let periodic = PeriodicExpr::daily(anchor, Duration::hours(8)).unwrap();
    let mut engine = Grbac::new();
    let role = engine.declare_environment_role("office_hours").unwrap();
    let employee = engine.declare_subject_role("employee").unwrap();
    let db_role = engine.declare_object_role("database").unwrap();
    let query = engine.declare_transaction("query").unwrap();
    let pat = engine.declare_subject("pat").unwrap();
    engine.assign_subject_role(pat, employee).unwrap();
    let db = engine.declare_object("salary_db").unwrap();
    engine.assign_object_role(db, db_role).unwrap();
    engine
        .add_rule(
            RuleDef::permit()
                .subject_role(employee)
                .object_role(db_role)
                .transaction(query)
                .when(role),
        )
        .unwrap();
    let mut provider = EnvironmentRoleProvider::new();
    provider
        .define(role, EnvCondition::Time(TimeExpr::Periodic(periodic)))
        .unwrap();
    let mut cases = 0u64;
    let mut mismatches = 0u64;
    for hour in 0..(90 * 24) {
        let ts = anchor + Duration::hours(hour);
        let env = provider.snapshot(&EnvironmentContext::at(ts));
        let decision = engine
            .decide(&AccessRequest::by_subject(pat, query, db, env))
            .unwrap();
        cases += 1;
        if decision.is_permitted() != periodic.contains(ts) {
            mismatches += 1;
        }
    }
    table.row(&[
        "Bertino periodic authorization (90 days, hourly)".to_owned(),
        cases.to_string(),
        mismatches.to_string(),
    ]);

    // (c) GACL system-load gating: execute only when load <= 0.7.
    let mut engine = Grbac::new();
    let low_load = engine
        .declare_environment_role("capacity_available")
        .unwrap();
    let user = engine.declare_subject_role("user").unwrap();
    let batch = engine.declare_object_role("batch_program").unwrap();
    let exec_t = engine.declare_transaction("execute").unwrap();
    let pat = engine.declare_subject("pat").unwrap();
    engine.assign_subject_role(pat, user).unwrap();
    let job = engine.declare_object("render_job").unwrap();
    engine.assign_object_role(job, batch).unwrap();
    engine
        .add_rule(
            RuleDef::permit()
                .subject_role(user)
                .object_role(batch)
                .transaction(exec_t)
                .when(low_load),
        )
        .unwrap();
    let mut provider = EnvironmentRoleProvider::new();
    provider
        .define(low_load, EnvCondition::LoadAtMost(0.7))
        .unwrap();
    let mut cases = 0u64;
    let mut mismatches = 0u64;
    for load_pct in 0..=100 {
        let load_value = f64::from(load_pct) / 100.0;
        let mut monitor = LoadMonitor::with_window(1);
        monitor.record(load_value);
        let env = provider.snapshot(&EnvironmentContext::at(Timestamp::EPOCH).with_load(&monitor));
        let decision = engine
            .decide(&AccessRequest::by_subject(pat, exec_t, job, env))
            .unwrap();
        cases += 1;
        if decision.is_permitted() != (load_value <= 0.7) {
            mismatches += 1;
        }
    }
    table.row(&[
        "GACL load-based authorization (0-100% load sweep)".to_owned(),
        cases.to_string(),
        mismatches.to_string(),
    ]);

    vec![table]
}

/// E8 — §4.2.2: trusted event system and snapshot throughput.
fn e8_env_events() -> Vec<Table> {
    let mut events_table = Table::new(
        "E8 (§4.2.2): event bus publish throughput vs subscriber count",
        &["subscribers", "events", "ns_per_publish"],
    );
    for subscribers in [1usize, 8, 64] {
        let mut bus = EventBus::new();
        let subs: Vec<_> = (0..subscribers).map(|_| bus.subscribe("sensor.")).collect();
        let events = 100_000u32;
        let start = Instant::now();
        for i in 0..events {
            bus.publish(
                format!("sensor.{}", i % 16),
                f64::from(i % 100),
                Timestamp::from_seconds(i64::from(i)),
            );
        }
        let elapsed = start.elapsed();
        for sub in subs {
            bus.poll(sub);
        }
        events_table.row(&[
            subscribers.to_string(),
            events.to_string(),
            format!("{:.0}", ns_per_op(elapsed, events as usize)),
        ]);
    }

    let mut snapshot_table = Table::new(
        "E8: environment snapshot cost vs number of defined roles",
        &["env_roles", "ns_per_snapshot", "active_fraction"],
    );
    for roles in [8usize, 64, 256] {
        let mut provider = EnvironmentRoleProvider::new();
        for i in 0..roles {
            // Alternate a few condition shapes.
            let condition = match i % 3 {
                0 => EnvCondition::Time(TimeExpr::weekdays()),
                1 => EnvCondition::Time(TimeExpr::between(
                    TimeOfDay::hm((i % 24) as u8, 0).unwrap(),
                    TimeOfDay::hm(((i + 4) % 24) as u8, 0).unwrap(),
                )),
                _ => EnvCondition::Flag(format!("flag_{i}")),
            };
            provider
                .define(grbac_core::id::RoleId::from_raw(i as u64), condition)
                .unwrap();
        }
        let monday_noon = Timestamp::from_civil(
            Date::new(2000, 1, 17).unwrap(),
            TimeOfDay::hm(12, 0).unwrap(),
        );
        let ctx = EnvironmentContext::at(monday_noon);
        let iters = 10_000;
        let start = Instant::now();
        let mut active_total = 0usize;
        for _ in 0..iters {
            active_total += std::hint::black_box(provider.snapshot(&ctx)).len();
        }
        snapshot_table.row(&[
            roles.to_string(),
            format!("{:.0}", ns_per_op(start.elapsed(), iters)),
            format!("{:.2}", active_total as f64 / (iters * roles) as f64),
        ]);
    }

    // Ablation: the transition-scheduled SnapshotCache over a simulated
    // day of minutely requests (time-only conditions, so the cache is
    // exact).
    let mut cache_table = Table::new(
        "E8 ablation: snapshot cache over a day of minutely requests (64 time roles)",
        &["mode", "ns_per_snapshot", "hit_rate"],
    );
    let mut provider = EnvironmentRoleProvider::new();
    for i in 0..64usize {
        let condition = match i % 2 {
            0 => EnvCondition::Time(TimeExpr::weekdays()),
            _ => EnvCondition::Time(TimeExpr::between(
                TimeOfDay::hm((i % 24) as u8, 0).unwrap(),
                TimeOfDay::hm(((i + 4) % 24) as u8, 0).unwrap(),
            )),
        };
        provider
            .define(grbac_core::id::RoleId::from_raw(i as u64), condition)
            .unwrap();
    }
    let day_start = Timestamp::from_civil(
        Date::new(2000, 1, 17).unwrap(),
        TimeOfDay::hm(0, 0).unwrap(),
    );
    let minutes = 24 * 60;
    let start = Instant::now();
    for m in 0..minutes {
        let ctx = EnvironmentContext::at(day_start + Duration::minutes(m));
        std::hint::black_box(provider.snapshot(&ctx));
    }
    cache_table.row(&[
        "uncached".to_owned(),
        format!("{:.0}", ns_per_op(start.elapsed(), minutes as usize)),
        "-".to_owned(),
    ]);
    let mut cache = grbac_env::cache::SnapshotCache::new();
    let start = Instant::now();
    for m in 0..minutes {
        let ctx = EnvironmentContext::at(day_start + Duration::minutes(m));
        std::hint::black_box(cache.snapshot(&provider, &ctx));
    }
    cache_table.row(&[
        "cached".to_owned(),
        format!("{:.0}", ns_per_op(start.elapsed(), minutes as usize)),
        format!("{:.3}", cache.hit_rate()),
    ]);

    vec![events_table, snapshot_table, cache_table]
}

/// E10 — telemetry overhead: `decide()` cost with the registry live.
///
/// One build measures one configuration; run the binary twice and
/// compare the `ns_per_decision` columns:
///
/// ```text
/// cargo run --release -p grbac-bench --bin experiments e10
/// cargo run --release -p grbac-bench --bin experiments \
///     --features grbac-core/telemetry-off e10
/// ```
fn e10_telemetry_overhead() -> Vec<Table> {
    let telemetry = if grbac_core::telemetry::ENABLED {
        "on (default)"
    } else {
        "off (telemetry-off)"
    };
    let mut table = Table::new(
        "E10: mediation cost with the telemetry registry compiled in/out",
        &[
            "telemetry",
            "rules",
            "ns_per_decision",
            "ns_per_traced_decision",
        ],
    );
    for rules in [256usize, 1024] {
        let system = synthetic_grbac(&wide(rules));
        let requests = system.requests(20_000, 3, 3);
        // Warm the compiled index so both loops measure steady state,
        // and take the fastest of five repetitions.
        system.engine.decide(&requests[0]).expect("known ids");
        let plain_ns = fastest_ns(&requests, |r| system.engine.decide(r).expect("known ids"));
        let traced_ns = fastest_ns(&requests, |r| {
            system.engine.decide_traced(r).expect("known ids")
        });

        table.row(&[
            telemetry.to_owned(),
            rules.to_string(),
            format!("{plain_ns:.0}"),
            format!("{traced_ns:.0}"),
        ]);
    }
    vec![table]
}

/// E9 — §2: a week in the Aware Home.
fn e9_aware_home() -> Vec<Table> {
    let mut table = Table::new(
        "E9 (§2): simulated household activity under the paper's policy",
        &[
            "days",
            "requests",
            "grant_rate",
            "moves",
            "requests_per_sec",
        ],
    );
    let mut final_stats = None;
    let mut final_home = None;
    for days in [1u32, 7] {
        let mut home = paper_household().unwrap();
        let events = generate(&home, &home_workload(days));
        let start = Instant::now();
        let stats = execute(&mut home, &events).unwrap();
        let elapsed = start.elapsed();
        table.row(&[
            days.to_string(),
            stats.requests.to_string(),
            format!("{:.3}", stats.grant_rate()),
            stats.moves.to_string(),
            format!("{:.0}", stats.requests as f64 / elapsed.as_secs_f64()),
        ]);
        final_stats = Some(stats);
        final_home = Some(home);
    }

    // Per-resident breakdown of the 7-day run: the policy's shape made
    // visible (parents granted broadly, the technician almost never).
    let mut breakdown = Table::new(
        "E9: per-resident outcomes over the 7-day run",
        &["resident", "kind", "permits", "denies", "grant_rate"],
    );
    let stats = final_stats.expect("loop ran");
    let home = final_home.expect("loop ran");
    let mut people: Vec<_> = home.people().collect();
    people.sort_by_key(|p| p.subject());
    for person in people {
        let (permits, denies) = stats
            .by_subject
            .get(&person.subject())
            .copied()
            .unwrap_or((0, 0));
        let total = permits + denies;
        breakdown.row(&[
            person.name().to_owned(),
            person.kind().to_string(),
            permits.to_string(),
            denies.to_string(),
            format!(
                "{:.3}",
                if total == 0 {
                    0.0
                } else {
                    permits as f64 / total as f64
                }
            ),
        ]);
    }
    vec![table, breakdown]
}

/// E11: fail-safe mediation under provider faults — availability stays
/// at 100% while correctness degrades measurably against a fault-free
/// oracle, and the cost depends on the degraded posture.
fn e11_fault_tolerance() -> Vec<Table> {
    // Sweep hard-failure rates under the default fail-closed posture.
    let mut sweep = Table::new(
        "E11: availability and correctness vs provider error rate (fail-closed)",
        &[
            "error_rate",
            "requests",
            "availability",
            "degraded",
            "agreement",
            "false_denials",
            "false_grants",
            "stale_served",
            "breaker_opened",
        ],
    );
    for rate in [0.0, 0.1, 0.3] {
        let seed = 4100 + (rate * 100.0) as u64;
        let (_, report) = chaos_week(rate, seed, DegradedMode::fail_closed());
        sweep.row(&[
            format!("{rate:.2}"),
            report.requests.to_string(),
            format!("{:.3}", report.availability()),
            format!("{:.3}", report.degraded_rate()),
            format!("{:.3}", report.agreement()),
            report.false_denials.to_string(),
            report.false_grants.to_string(),
            report.stats.stale_served.to_string(),
            report.stats.breaker_opened.to_string(),
        ]);
    }

    // Compare degraded postures at a fixed 10% error rate.
    let mut postures = Table::new(
        "E11: degraded postures at a 10% provider error rate",
        &[
            "posture",
            "degraded",
            "agreement",
            "false_denials",
            "false_grants",
        ],
    );
    for (name, posture) in degraded_postures() {
        let (_, report) = chaos_week(0.1, 4110, posture);
        assert_eq!(
            report.availability(),
            1.0,
            "the engine must answer every request under faults"
        );
        postures.row(&[
            name.to_owned(),
            report.degraded.to_string(),
            format!("{:.3}", report.agreement()),
            report.false_denials.to_string(),
            report.false_grants.to_string(),
        ]);
    }
    vec![sweep, postures]
}

/// E12: flight-recorder overhead and forensic replay fidelity — the
/// always-on provenance ring must cost almost nothing on the E9
/// workload, replay must reproduce every recorded verdict against an
/// unchanged policy (and expose an injected policy flip), and replay
/// under E11 fault schedules must both stay deterministic and quantify
/// what degradation cost via the counterfactual-fresh path.
fn e12_provenance() -> Vec<Table> {
    let workload = home_workload(7);

    // Recorder overhead vs ring capacity. Each measurement replays the
    // full workload on a fresh household (so the events and the policy
    // state are identical) and takes the fastest of three runs;
    // capacity 0 disables recording and is the baseline.
    let mut overhead = Table::new(
        "E12: recorder overhead vs ring capacity (E9 7-day workload)",
        &["capacity", "requests", "ns_per_request", "overhead"],
    );
    let mut baseline_ns = None;
    for capacity in [0usize, 1024, 4096, 16384] {
        let mut requests = 0u64;
        let fastest = fastest_of(
            3,
            || {
                let mut home = paper_household().unwrap();
                home.engine_mut().set_flight_recorder_capacity(capacity);
                let events = generate(&home, &workload);
                (home, events)
            },
            |(home, events)| requests = execute(home, events).unwrap().requests,
        );
        let best = ns_per_op(fastest, requests as usize);
        if capacity == 0 {
            baseline_ns = Some(best);
        }
        let overhead_pct = baseline_ns
            .map(|base| (best - base) / base * 100.0)
            .unwrap_or(0.0);
        overhead.row(&[
            capacity.to_string(),
            requests.to_string(),
            format!("{best:.0}"),
            format!("{overhead_pct:+.2}%"),
        ]);
    }

    // Replay fidelity: every retained record re-decided through the
    // reference path, first against the unchanged policy (must be
    // clean), then after flipping one permit rule out (must surface).
    let mut fidelity = Table::new(
        "E12: replay-diff counts over the retained E9 records",
        &[
            "policy",
            "replayed",
            "clean",
            "verdict_flips",
            "unreplayable",
        ],
    );
    let mut home = paper_household().unwrap();
    home.engine_mut().set_flight_recorder_capacity(4096);
    let events = generate(&home, &workload);
    execute(&mut home, &events).unwrap();
    let records = home.flight_recorder().snapshot();
    let mut replay_row = |policy: &str, engine: &Grbac| {
        let (reports, unreplayable) = replay_all(engine, &records, &ForensicQuery::any());
        let clean = reports.iter().filter(|r| r.diff.is_clean()).count();
        let flips = reports.iter().filter(|r| r.diff.verdict_flipped).count();
        fidelity.row(&[
            policy.to_owned(),
            reports.len().to_string(),
            clean.to_string(),
            flips.to_string(),
            unreplayable.to_string(),
        ]);
        flips
    };
    let flips = replay_row("unchanged", &home.engine());
    assert_eq!(flips, 0, "unchanged policy must replay every verdict");
    let flipped_rule = home
        .engine()
        .rules()
        .iter()
        .find(|r| r.effect() == Effect::Permit)
        .map(grbac_core::rule::Rule::id)
        .expect("paper household has permit rules");
    home.engine_mut().remove_rule(flipped_rule);
    let flips = replay_row("one permit rule removed", &home.engine());
    assert!(flips > 0, "removing a permit rule must flip some verdict");

    // Replay under the E11 fault schedules: with the recorded health
    // the replay is deterministic (zero flips); forcing Fresh health on
    // the degraded records counts the decisions degradation changed.
    let mut faults = Table::new(
        "E12: replay under E11 fault schedules (10% provider error rate)",
        &[
            "posture",
            "records",
            "degraded",
            "replay_flips",
            "counterfactual_flips",
        ],
    );
    for (name, posture) in degraded_postures() {
        let (faulty, _) = chaos_week(0.1, 4110, posture);
        let records = faulty.flight_recorder().snapshot();
        let degraded: Vec<_> = records.iter().filter(|r| r.degraded.is_some()).collect();
        let mut replay_flips = 0u64;
        let mut counterfactual_flips = 0u64;
        for record in &records {
            let replayed = replay(&faulty.engine(), record).expect("same policy");
            if replayed.diff.verdict_flipped {
                replay_flips += 1;
            }
        }
        for record in &degraded {
            let as_recorded = replay(&faulty.engine(), record).expect("same policy");
            let fresh = replay_with_health(&faulty.engine(), record, EnvHealth::Fresh)
                .expect("same policy");
            if fresh.replayed_effect != as_recorded.replayed_effect {
                counterfactual_flips += 1;
            }
        }
        assert_eq!(
            replay_flips, 0,
            "replay with the recorded health must be deterministic"
        );
        faults.row(&[
            name.to_owned(),
            records.len().to_string(),
            degraded.len().to_string(),
            replay_flips.to_string(),
            counterfactual_flips.to_string(),
        ]);
    }

    vec![overhead, fidelity, faults]
}

/// E13: policy heat and health — the per-rule heat table must cost
/// nothing measurable at 4096 rules (toggled off at runtime as the
/// baseline), the decision-stream watchdogs must stay silent on a
/// fault-free run and fire when an E11 fault schedule switches on
/// mid-workload, and the health report must flag an injected
/// dead-in-practice rule that static analysis calls live.
fn e13_policy_health() -> Vec<Table> {
    let workload = home_workload(7);

    // 1. Heat-tracking overhead at 4096 rules: same engine, same
    // requests, the table toggled off (baseline) then on. Fastest of
    // five per configuration, as in E10.
    let mut overhead = Table::new(
        "E13: rule-heat overhead at 4096 rules (runtime toggle)",
        &["heat", "rules", "ns_per_decision", "overhead"],
    );
    {
        let system = synthetic_grbac(&wide(4096));
        let requests = system.requests(20_000, 3, 3);
        system.engine.decide(&requests[0]).expect("known ids");
        let measure = || fastest_ns(&requests, |r| system.engine.decide(r).expect("known ids"));
        system.engine.metrics().rule_heat.set_enabled(false);
        let off_ns = measure();
        system.engine.metrics().rule_heat.set_enabled(true);
        let on_ns = measure();
        overhead.row(&[
            "off".to_owned(),
            "4096".to_owned(),
            format!("{off_ns:.0}"),
            "baseline".to_owned(),
        ]);
        overhead.row(&[
            "on".to_owned(),
            "4096".to_owned(),
            format!("{on_ns:.0}"),
            format!("{:+.2}%", (on_ns - off_ns) / off_ns * 100.0),
        ]);
    }

    // 2. Watchdogs under E11 fault schedules, through the fault-onset
    // replay: the first half is the learned baseline and the second
    // half is the anomaly. A fault-free run (rate 0.00) must raise zero
    // alerts end to end.
    let mut watchdogs = Table::new(
        "E13: watchdog alerts when an E11 fault schedule switches on mid-run",
        &[
            "error_rate",
            "ticks",
            "pre_fault_alerts",
            "fault_alerts",
            "alert_kinds",
        ],
    );
    for rate in [0.0, 0.1, 0.3] {
        let mut home = paper_household().unwrap();
        let events = generate(&home, &workload);
        let plan = FaultPlan::random(FaultRates::errors_only(rate), 4100 + (rate * 100.0) as u64);
        let replay = fault_onset_replay(&mut home, &events, plan);
        let fault_alerts: u64 = replay.fault_alerts.values().sum();
        if grbac_core::telemetry::ENABLED {
            assert_eq!(
                replay.pre_fault_alerts, 0,
                "watchdogs must not alert on fault-free traffic (rate {rate})"
            );
            if rate == 0.0 {
                assert_eq!(fault_alerts, 0, "a clean run must stay alert-free");
            } else {
                assert!(
                    fault_alerts > 0,
                    "fault onset at rate {rate} must raise at least one alert"
                );
            }
        }
        let kind_list = if replay.fault_alerts.is_empty() {
            "-".to_owned()
        } else {
            replay
                .fault_alerts
                .iter()
                .map(|(kind, count)| format!("{kind}:{count}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        watchdogs.row(&[
            format!("{rate:.2}"),
            replay.ticks.to_string(),
            replay.pre_fault_alerts.to_string(),
            fault_alerts.to_string(),
            kind_list,
        ]);
    }

    // 3. Dead-in-practice detection: static analysis calls the injected
    // rule live; the health report's heat join flags it.
    let mut dead = Table::new(
        "E13: health report vs static analysis on an injected dead rule",
        &[
            "decisions",
            "rules",
            "static_shadowed",
            "static_memberless",
            "dead_in_practice",
            "injected_flagged",
            "health_score",
        ],
    );
    {
        let mut home = paper_household().unwrap();
        let injected = inject_dead_rule(&mut home);
        let events = generate(&home, &workload);
        execute(&mut home, &events).unwrap();

        let report = grbac_core::analysis::health_report(&home.engine());
        let statically_flagged = report
            .static_report
            .shadowed
            .iter()
            .any(|s| s.rule == injected)
            || report.static_report.memberless_rules.contains(&injected);
        assert!(
            !statically_flagged,
            "the injected rule must look live to static analysis"
        );
        if grbac_core::telemetry::ENABLED {
            assert!(
                report.dead_in_practice.contains(&injected),
                "the heat join must flag the injected rule as dead in practice"
            );
        }
        dead.row(&[
            report.decisions.to_string(),
            report.traffic.len().to_string(),
            report.static_report.shadowed.len().to_string(),
            report.static_report.memberless_rules.len().to_string(),
            report.dead_in_practice.len().to_string(),
            (grbac_core::telemetry::ENABLED && report.dead_in_practice.contains(&injected))
                .to_string(),
            format!("{:.3}", report.score()),
        ]);
    }

    vec![overhead, watchdogs, dead]
}

/// E14 — incremental index maintenance under policy churn: single-edit
/// repair latency (delta application vs from-scratch rebuild) and
/// decide tail latency with edits interleaved into the decide stream.
fn e14_incremental_churn() -> Vec<Table> {
    let mut repair = Table::new(
        "E14: index repair latency after a single policy edit",
        &[
            "rules",
            "full_rebuild_ns",
            "delta_apply_ns",
            "speedup",
            "delta_applies",
            "full_rebuilds",
        ],
    );
    let mut tail = Table::new(
        "E14: decide p99 with edits interleaved into the decide stream",
        &[
            "rules",
            "churn_free_p99_ns",
            "churn_p99_ns",
            "ratio",
            "edits",
        ],
    );

    for rules in [1024usize, 4096] {
        let mut system = synthetic_grbac(&wide(rules));
        // Spare role pairs declared up front so later edge edits touch
        // an index that already contains both endpoints.
        let spares: Vec<(grbac_core::id::RoleId, grbac_core::id::RoleId)> = (0..16)
            .map(|i| {
                let leaf = system
                    .engine
                    .declare_subject_role(format!("spare_leaf_{i}"))
                    .expect("unique");
                let parent = system
                    .engine
                    .declare_subject_role(format!("spare_parent_{i}"))
                    .expect("unique");
                (leaf, parent)
            })
            .collect();
        let requests = system.requests(4_000, 2, 7);
        system.engine.decide(&requests[0]).expect("known ids");

        // 1. Full-rebuild baseline: force a from-scratch build per
        // edit-equivalent and read the rebuild-time counter.
        let rebuild_ns_before = system.engine.metrics().index_rebuild_ns.get();
        let full_before = system.engine.metrics().index_full_rebuilds.get();
        for i in 0..10 {
            system.engine.invalidate_index();
            system
                .engine
                .decide(&requests[i % requests.len()])
                .expect("known ids");
        }
        let full_rebuilds = system.engine.metrics().index_full_rebuilds.get() - full_before;
        let full_ns = (system.engine.metrics().index_rebuild_ns.get() - rebuild_ns_before) as f64
            / full_rebuilds.max(1) as f64;

        // 2. Delta path: single-rule adds/removes and single-edge
        // specializations, each repaired by the next decide. The
        // delta-apply sketch times exactly the planning + patching.
        let apply_before = system.engine.metrics().index_delta_apply_ns.snapshot();
        let tx = system.transactions[0];
        let env = system.environment_roles[0];
        for i in 0..20 {
            let id = system
                .engine
                .add_rule(RuleDef::deny().transaction(tx).when(env))
                .expect("valid ids");
            system
                .engine
                .decide(&requests[i % requests.len()])
                .expect("known ids");
            assert!(system.engine.remove_rule(id));
            system
                .engine
                .decide(&requests[(i + 1) % requests.len()])
                .expect("known ids");
        }
        for (i, &(leaf, parent)) in spares.iter().enumerate() {
            system.engine.specialize(leaf, parent).expect("acyclic");
            system
                .engine
                .decide(&requests[i % requests.len()])
                .expect("known ids");
        }
        let applied = system
            .engine
            .metrics()
            .index_delta_apply_ns
            .snapshot()
            .delta(&apply_before);
        let delta_ns = applied.sum as f64 / applied.count.max(1) as f64;

        let speedup = full_ns / delta_ns.max(1.0);
        if grbac_core::telemetry::ENABLED {
            assert!(
                applied.count >= 56,
                "every single-edit repair must take the delta path (got {})",
                applied.count
            );
            if rules == 4096 {
                assert!(
                    speedup >= 10.0,
                    "single-edit delta application must be >=10x faster than \
                     a full rebuild at 4096 rules (got {speedup:.1}x)"
                );
            }
        }
        repair.row(&[
            rules.to_string(),
            format!("{full_ns:.0}"),
            format!("{delta_ns:.0}"),
            format!("{speedup:.1}x"),
            applied.count.to_string(),
            full_rebuilds.to_string(),
        ]);

        // 3. Decide p99, churn-free vs one edit per 50 decides. The
        // first decide after each edit pays the delta application, so
        // the tail reflects exactly what a live mediator would see.
        let mut edits = 0u64;
        let mut toggle: Option<grbac_core::id::RuleId> = None;
        let [churn_free_p99, churn_p99] = [false, true].map(|churn| {
            let mut samples: Vec<u64> = Vec::with_capacity(requests.len());
            for (i, request) in requests.iter().enumerate() {
                if churn && i % 50 == 0 {
                    match toggle.take() {
                        Some(id) => {
                            assert!(system.engine.remove_rule(id));
                        }
                        None => {
                            toggle = Some(
                                system
                                    .engine
                                    .add_rule(RuleDef::deny().transaction(tx).when(env))
                                    .expect("valid ids"),
                            );
                        }
                    }
                    edits += 1;
                }
                let start = Instant::now();
                std::hint::black_box(system.engine.decide(request).expect("known ids"));
                samples.push(start.elapsed().as_nanos() as u64);
            }
            samples.sort_unstable();
            samples[(samples.len() - 1) * 99 / 100]
        });
        tail.row(&[
            rules.to_string(),
            churn_free_p99.to_string(),
            churn_p99.to_string(),
            format!("{:.2}x", churn_p99 as f64 / churn_free_p99.max(1) as f64),
            edits.to_string(),
        ]);
    }

    vec![repair, tail]
}

/// E15 — observability-plane overhead: decide throughput with a live
/// `grbac-obs` server being scraped at a Prometheus-like cadence vs
/// the same loop with no server attached. Scrapes take only the
/// engine's read lock, so the cost is snapshot + render CPU; the
/// acceptance bound is ≤2% decide-throughput overhead.
fn e15_obs_overhead() -> Vec<Table> {
    let mut table = Table::new(
        "E15: decide throughput under concurrent /metrics scrapes",
        &[
            "rules",
            "baseline_ns",
            "scraped_ns",
            "overhead_pct",
            "scrapes",
        ],
    );
    let rules = 1024usize;
    let system = synthetic_grbac(&wide(rules));
    let requests = system.requests(20_000, 3, 3);
    system.engine.decide(&requests[0]).expect("known ids");
    let engine = Arc::new(RwLock::new(system.engine));

    // One measured window: decide continuously for at least
    // WINDOW wall-clock time, returning the mean ns per decide.
    // Long windows (spanning several scrape intervals) make the
    // mean capture the scraper's duty cycle honestly, where a
    // minimum-of-short-passes estimator would either dodge every
    // scrape or be swamped by scheduler noise on a small machine.
    const WINDOW: std::time::Duration = std::time::Duration::from_millis(1_200);
    let window = || {
        let mut ops = 0usize;
        let start = Instant::now();
        loop {
            for request in &requests {
                let g = engine.read().expect("engine lock");
                std::hint::black_box(g.decide(request).expect("known ids"));
            }
            ops += requests.len();
            if start.elapsed() >= WINDOW {
                break;
            }
        }
        ns_per_op(start.elapsed(), ops)
    };

    // The server and the scraper thread run for the WHOLE
    // experiment, baseline windows included; only the `active`
    // flag differs between conditions. That keeps thread count
    // and wakeup pattern identical, so the comparison isolates
    // the scrape work itself. Cadence is 500ms — 30x more
    // aggressive than the default Prometheus interval of 15s —
    // and on a single-core machine every scrape millisecond is
    // stolen directly from the decide loop.
    let server = grbac_obs::ObsServer::serve(
        grbac_obs::EngineObs::new(Arc::clone(&engine)),
        "127.0.0.1:0",
    )
    .expect("ephemeral bind");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        let scrapes = Arc::clone(&scrapes);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if active.load(Ordering::Acquire) {
                    let (status, body) = grbac_obs::get(addr, "/metrics").expect("scrape");
                    assert_eq!(status, 200);
                    std::hint::black_box(body.len());
                    scrapes.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        })
    };

    let paired = measure::paired(|side| {
        active.store(side == Side::Treatment, Ordering::Release);
        window()
    });
    stop.store(true, Ordering::Release);
    scraper.join().expect("scraper joins");
    let scrape_count = scrapes.load(Ordering::Relaxed);
    server.shutdown();

    let baseline_ns = paired.median(Side::Baseline, |ns| *ns);
    let scraped_ns = paired.median(Side::Treatment, |ns| *ns);
    let overhead_pct = ((paired.median_ratio(|ns| *ns) - 1.0) * 100.0).max(0.0);
    assert!(
        scrape_count > 0,
        "the scraper must actually exercise the endpoint"
    );
    assert!(
        overhead_pct <= 2.0,
        "scrape overhead must stay within 2% of decide throughput \
         (baseline {baseline_ns:.0}ns, scraped {scraped_ns:.0}ns, {overhead_pct:.2}%)"
    );

    table.row(&[
        rules.to_string(),
        format!("{baseline_ns:.0}"),
        format!("{scraped_ns:.0}"),
        format!("{overhead_pct:.2}"),
        scrape_count.to_string(),
    ]);
    vec![table]
}

/// Wire windows in E16–E18: long enough for thousands of round trips.
const WIRE_WINDOW: std::time::Duration = std::time::Duration::from_millis(800);

/// E16 — multi-tenant policy service: decide p99 isolation under
/// cross-tenant policy churn, measured at the wire.
fn e16_service_tenancy() -> Vec<Table> {
    let mut table = Table::new(
        "E16: wire decide p99 per tenant, quiet vs cross-tenant policy churn",
        &[
            "tenant",
            "rules",
            "quiet_p99_us",
            "churn_p99_us",
            "p99_ratio",
            "decides_per_s",
            "edits_per_s",
        ],
    );

    const RULES: usize = 1_024;
    const TENANTS: [&str; 2] = ["a", "b"];
    const CONNS_PER_TENANT: usize = 2;

    let (service, server, addr) = self_host(RULES, TENANTS.iter().zip(1..));

    // Decide drivers and the churn connection run for the WHOLE
    // experiment; only the churn's active flag differs between
    // conditions, so thread count and connection state are identical
    // in both (the E15 discipline) and the comparison isolates the
    // churn work itself.
    let samples: Vec<Arc<Samples>> = TENANTS.iter().map(|_| Arc::default()).collect();
    let mut load = Load::default();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for c in 0..CONNS_PER_TENANT {
            let lines = WireLoad::wide(tenant, (t * 97 + c) as u64).decide_lines(512);
            load.drive(&addr, lines, &samples[t], true);
        }
    }
    let churn_active = Arc::new(AtomicBool::new(false));
    let edits = Arc::new(AtomicU64::new(0));
    load.churn(&addr, "a", &churn_active, &edits);

    let status_b = || service.handle_line(r#"{"op":"status","tenant":"b"}"#);
    let generation_before = status_b();
    let mut churn_edits = 0u64;
    let paired = measure::paired(|side| {
        churn_active.store(side == Side::Treatment, Ordering::Release);
        let edits_before = edits.load(Ordering::Relaxed);
        let windows = record_window(&samples, WIRE_WINDOW);
        if side == Side::Treatment {
            churn_edits += edits.load(Ordering::Relaxed) - edits_before;
        }
        windows
    });
    churn_active.store(false, Ordering::Release);
    let generation_after = status_b();
    load.join();
    server.shutdown();

    assert!(
        churn_edits > 0,
        "the churn thread must actually edit policy"
    );
    assert_eq!(
        generation_before, generation_after,
        "tenant-b policy state changed under tenant-a churn"
    );

    let churn_secs = WIRE_WINDOW.as_secs_f64() * ROUNDS as f64;
    for (t, tenant) in TENANTS.iter().enumerate() {
        let ratio = paired.median_ratio(|windows| windows[t].p99_us);
        let quiet_p99 = paired.median(Side::Baseline, |windows| windows[t].p99_us);
        let churn_p99 = paired.median(Side::Treatment, |windows| windows[t].p99_us);
        if *tenant == "b" {
            // The isolation claim: tenant-a churn may cost tenant a
            // itself, but tenant b's wire p99 stays within 1.5x of
            // its own quiet windows.
            assert!(
                ratio <= 1.5,
                "tenant-b decide p99 degraded {ratio:.2}x under tenant-a churn \
                 (quiet {quiet_p99:.1}us, churn {churn_p99:.1}us)",
            );
        }
        let churn_decides: usize = paired
            .rounds
            .iter()
            .map(|(_, churn)| churn[t].decides)
            .sum();
        table.row(&[
            (*tenant).to_owned(),
            RULES.to_string(),
            format!("{quiet_p99:.1}"),
            format!("{churn_p99:.1}"),
            format!("{ratio:.2}"),
            format!("{:.0}", churn_decides as f64 / churn_secs),
            format!("{:.0}", churn_edits as f64 / churn_secs),
        ]);
    }
    vec![table]
}

/// E17 — wire request tracing: decide throughput with the span store
/// on vs off, and slow-stage attribution from the wire alone.
fn e17_tracing_overhead() -> Vec<Table> {
    const RULES: usize = 1_024;
    const CONNS: u64 = 2;

    let (service, server, addr) = self_host(RULES, [("t", 1)]);
    let store = Arc::clone(service.span_store());
    let obs = service
        .serve_observability("t", "127.0.0.1:0")
        .expect("obs plane binds");

    // Drivers send the SAME lines in both conditions of each row and
    // only the store's master switch differs between windows —
    // identical wire bytes, identical parse work; the measured delta
    // is exactly the span open/record/echo path (the E15/E16
    // discipline). Two postures: every request carrying a client
    // context (the harshest case, informational) and one in 8 (the
    // store's default self-sampling rate — the posture the <=5%
    // overhead claim is asserted on).
    let mut table = Table::new(
        "E17: wire decide throughput, span store on vs off",
        &[
            "trace_every",
            "off_per_s",
            "on_per_s",
            "throughput_ratio",
            "off_p50_us",
            "on_p50_us",
            "spans_recorded",
        ],
    );
    for trace_every in [1usize, 8] {
        let samples = [Arc::default()];
        store.set_enabled(false);
        let mut load = Load::default();
        for seed in 1..=CONNS {
            let lines = WireLoad::wide("t", seed).traced_decide_lines(512, trace_every);
            load.drive(&addr, lines, &samples[0], true);
        }
        let spans_before = store.total_recorded();
        let paired = measure::paired(|side| {
            store.set_enabled(side == Side::Treatment);
            record_window(&samples, WIRE_WINDOW)[0]
        });
        load.join();
        let spans_recorded = store.total_recorded() - spans_before;
        assert!(
            spans_recorded > 0,
            "the tracing-on windows must actually record spans"
        );

        let throughput_ratio = paired.median_ratio(|window| window.decides as f64);
        if trace_every == 8 {
            assert!(
                throughput_ratio >= 0.95,
                "tracing-on decide throughput at the default sampling posture \
                 must stay within 5% of tracing-off (ratio {throughput_ratio:.3})"
            );
        }
        let per_s =
            |side| paired.median(side, |window| window.decides as f64) / WIRE_WINDOW.as_secs_f64();
        table.row(&[
            trace_every.to_string(),
            format!("{:.0}", per_s(Side::Baseline)),
            format!("{:.0}", per_s(Side::Treatment)),
            format!("{throughput_ratio:.3}"),
            format!(
                "{:.1}",
                paired.median(Side::Baseline, |window| window.p50_us)
            ),
            format!(
                "{:.1}",
                paired.median(Side::Treatment, |window| window.p50_us)
            ),
            spans_recorded.to_string(),
        ]);
    }
    store.set_enabled(true);

    // Stage attribution: inject a known-slow stage (hold the tenant's
    // engine write lock, as a policy churn burst would) under one
    // traced decide, then prove the slowness is attributable to the
    // correct stage FROM THE WIRE ALONE — client context in, trace id
    // resolved against the obs plane, engine_lock child dominating.

    let tenant = service.tenant("t").expect("tenant exists");
    const STALL: std::time::Duration = std::time::Duration::from_millis(60);
    let holder = {
        let engine = Arc::clone(&tenant.engine);
        std::thread::spawn(move || {
            let guard = engine.write().expect("engine lock");
            std::thread::sleep(STALL);
            drop(guard);
        })
    };
    // Give the holder time to take the lock before the probe arrives.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let trace_hex = "00000000000000e1700000000000000f";
    let mut probe = Client::connect(&addr).expect("probe connect");
    let response = probe
        .request_line(&format!(
            r#"{{"op":"decide","tenant":"t","subject":"s_0","transaction":"t_0","object":"o_0","trace":"{trace_hex}-000000000000e170-01"}}"#
        ))
        .expect("probe decide");
    assert!(response.contains("\"ok\":true"), "{response}");
    holder.join().expect("holder joins");

    let (status, body) =
        grbac_obs::get(obs.addr(), &format!("/trace/{trace_hex}")).expect("trace fetch");
    assert_eq!(status, 200, "{body}");
    let tree: serde_json::Value = serde_json::from_str(&body).expect("trace parses");
    let server_span = tree
        .get("spans")
        .and_then(serde_json::Value::as_seq)
        .and_then(|roots| roots.first())
        .expect("server span present");
    let duration = |node| uint_field(node, "duration_ns").expect("span durations");
    let total_ns = duration(server_span);
    let children = server_span
        .get("children")
        .and_then(serde_json::Value::as_seq)
        .expect("stage children present");
    let mut stage_table = Table::new(
        "E17: slow-stage attribution from the wire (60ms engine write lock held)",
        &["stage", "duration_us", "share_pct"],
    );
    let mut slowest: Option<(String, u64)> = None;
    for child in children {
        let name = child
            .get("name")
            .and_then(serde_json::Value::as_str)
            .expect("stage name")
            .to_owned();
        let ns = duration(child);
        if slowest.as_ref().is_none_or(|(_, best)| ns > *best) {
            slowest = Some((name.clone(), ns));
        }
        stage_table.row(&[
            name,
            format!("{:.1}", ns as f64 / 1_000.0),
            format!("{:.1}", 100.0 * ns as f64 / total_ns.max(1) as f64),
        ]);
    }
    stage_table.row(&[
        "server (total)".to_owned(),
        format!("{:.1}", total_ns as f64 / 1_000.0),
        "100.0".to_owned(),
    ]);
    let (slow_stage, slow_ns) = slowest.expect("at least one stage child");
    assert_eq!(
        slow_stage, "engine_lock",
        "the injected stall must be attributed to the engine-lock stage, \
         not `{slow_stage}`"
    );
    assert!(
        slow_ns >= STALL.as_nanos() as u64 / 2,
        "the engine_lock stage must absorb the stall ({slow_ns}ns)"
    );

    obs.shutdown();
    server.shutdown();
    vec![table, stage_table]
}

/// E18 — live telemetry: (1) decide throughput with a never-draining
/// event-bus subscriber attached vs the nobody-listening fast path,
/// (2) how fast a deny surge becomes visible on a wire subscription
/// compared to the obs plane's 500 ms scrape cadence, and (3) exact
/// backpressure accounting when a wire subscriber stalls.
fn e18_live_telemetry() -> Vec<Table> {
    const RULES: usize = 1_024;
    const CONNS: u64 = 2;
    /// The obs plane's metrics-history capture cadence — the pull-side
    /// latency floor the push plane is measured against.
    const SCRAPE_INTERVAL_MS: u64 = 500;

    let (service, server, addr) = self_host(RULES, [("t", 1)]);
    let tenant = service.tenant("t").expect("tenant exists");
    let registry = Arc::clone(tenant.engine.read().expect("engine lock").metrics());

    // ---- (1) publish-path cost under sustained wire decides ----
    //
    // The same E15/E16/E17 discipline: drivers send identical lines
    // continuously; paired windows differ ONLY in whether a subscriber
    // is registered on the tenant's bus. The subscriber is the worst
    // realistic consumer — it never drains, so every publish pays ring
    // push + drop-oldest eviction forever.
    let samples = [Arc::default()];
    let mut load = Load::default();
    for seed in 1..=CONNS {
        let lines = WireLoad::wide("t", seed).decide_lines(512);
        load.drive(&addr, lines, &samples[0], true);
    }
    let mut published: u64 = 0;
    let mut ring_dropped: u64 = 0;
    let paired = measure::paired(|side| {
        let subscriber = (side == Side::Treatment).then(|| {
            registry.events.subscribe(
                grbac_core::telemetry::EventBus::DEFAULT_CAPACITY,
                EventFilter::all(),
            )
        });
        let window = record_window(&samples, WIRE_WINDOW)[0];
        if let Some(subscriber) = subscriber {
            published += subscriber.published();
            ring_dropped += subscriber.dropped();
        }
        window
    });
    load.join();
    let throughput_ratio = paired.median_ratio(|window| window.decides as f64);
    assert!(
        throughput_ratio >= 0.95,
        "decide throughput with a live bus subscriber must stay within \
         5% of the nobody-listening fast path (ratio {throughput_ratio:.3})"
    );
    if grbac_core::telemetry::ENABLED {
        assert!(
            published > 0,
            "the subscribed windows must actually publish events"
        );
    }
    let per_s =
        |side| paired.median(side, |window| window.decides as f64) / WIRE_WINDOW.as_secs_f64();
    let mut bus_table = Table::new(
        "E18: wire decide throughput, event-bus subscriber on vs off",
        &[
            "subscriber",
            "off_per_s",
            "on_per_s",
            "throughput_ratio",
            "published",
            "ring_dropped",
        ],
    );
    bus_table.row(&[
        "never-draining".to_owned(),
        format!("{:.0}", per_s(Side::Baseline)),
        format!("{:.0}", per_s(Side::Treatment)),
        format!("{throughput_ratio:.3}"),
        published.to_string(),
        ring_dropped.to_string(),
    ]);

    // ---- (2) deny-surge propagation: push plane vs scrape cadence ----
    //
    // A pull-based dashboard sees a deny surge at its next scrape — up
    // to 500ms later. The claim here: a wire subscription surfaces the
    // first deny strictly inside that budget. The surge is a burst of
    // decides by a subject holding no roles (default deny).
    let mut surge_table = Table::new(
        "E18: deny-surge propagation, wire subscription vs scrape cadence",
        &[
            "burst",
            "first_deny_frame_ms",
            "scrape_interval_ms",
            "frames_before_deny",
        ],
    );
    let mut pressure_table = Table::new(
        "E18: stalled-subscriber backpressure (capacity 8)",
        &["decides", "decides_ok", "delivered", "dropped"],
    );
    if grbac_core::telemetry::ENABLED {
        let mut admin = Client::connect(&addr).expect("admin connect");
        let declared = admin
            .request_line(r#"{"op":"declare","tenant":"t","kind":"subject","name":"intruder"}"#)
            .expect("declare");
        assert!(declared.contains("\"ok\":true"), "{declared}");

        let mut watcher = Client::connect(&addr).expect("watcher connect");
        let subscribed = watcher
            .request_line(r#"{"op":"subscribe","tenants":["t"],"kinds":["decision"]}"#)
            .expect("subscribe");
        assert!(subscribed.contains("\"streaming\":true"), "{subscribed}");
        watcher
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .expect("timeout set");

        const BURST: usize = 64;
        let surge = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("surge connect");
                for _ in 0..BURST {
                    let response = client
                        .request_line(
                            r#"{"op":"decide","tenant":"t","subject":"intruder","transaction":"t_0","object":"o_0"}"#,
                        )
                        .expect("deny decide");
                    assert!(response.contains("\"effect\":\"deny\""), "{response}");
                }
            })
        };
        let surge_start = Instant::now();
        let mut frames_before_deny = 0u64;
        let first_deny_ms = loop {
            let frame = watcher.next_frame().expect("event frame within budget");
            let event = frame.get("event").expect("event frames only");
            let is_deny = matches!(
                event.get("effect"),
                Some(serde::Value::Str(effect)) if effect == "deny"
            );
            if is_deny {
                break surge_start.elapsed().as_secs_f64() * 1_000.0;
            }
            frames_before_deny += 1;
            assert!(
                surge_start.elapsed() < std::time::Duration::from_secs(10),
                "no deny frame arrived"
            );
        };
        surge.join().expect("surge joins");
        let (_, _) = watcher.unsubscribe().expect("unsubscribe");
        assert!(
            first_deny_ms < SCRAPE_INTERVAL_MS as f64,
            "the wire subscription must surface the deny surge before \
             the next scrape could ({first_deny_ms:.1}ms >= {SCRAPE_INTERVAL_MS}ms)"
        );
        surge_table.row(&[
            BURST.to_string(),
            format!("{first_deny_ms:.1}"),
            SCRAPE_INTERVAL_MS.to_string(),
            frames_before_deny.to_string(),
        ]);

        // ---- (3) stalled wire subscriber: drops counted, decides unblocked ----
        //
        // A tiny ring (capacity 8) and a reader that never reads while
        // a full decide burst lands: the decide path must finish every
        // request, and the unsubscribe receipt must account the loss.
        let mut stalled = Client::connect(&addr).expect("stalled connect");
        let subscribed = stalled
            .request_line(r#"{"op":"subscribe","tenants":["t"],"kinds":["decision"],"capacity":8}"#)
            .expect("subscribe");
        assert!(subscribed.contains("\"streaming\":true"), "{subscribed}");

        const PRESSURE_DECIDES: usize = 2_048;
        let blasted = Arc::default();
        let mut blast = Load::default();
        let lines = WireLoad::wide("t", 99).decide_lines(PRESSURE_DECIDES);
        blast.drive(&addr, lines, &blasted, false);
        blast.join();
        let decides_ok = WindowStats::take(&blasted).decides;
        stalled
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .expect("timeout set");
        let (receipt, _) = stalled.unsubscribe().expect("unsubscribe receipt");
        let result = receipt.get("result").expect("unsubscribe result");
        let count = |key| uint_field(result, key).expect("unsubscribe receipt counts");
        let (delivered, dropped) = (count("delivered"), count("dropped"));
        assert_eq!(
            decides_ok, PRESSURE_DECIDES,
            "every decide must complete while the subscriber stalls"
        );
        assert!(
            dropped > 0,
            "a capacity-8 ring under {PRESSURE_DECIDES} decides must shed \
             events (delivered {delivered}, dropped {dropped})"
        );
        pressure_table.row(&[
            PRESSURE_DECIDES.to_string(),
            decides_ok.to_string(),
            delivered.to_string(),
            dropped.to_string(),
        ]);
    } else {
        surge_table.row(&[
            "0".to_owned(),
            "0.0".to_owned(),
            SCRAPE_INTERVAL_MS.to_string(),
            "0".to_owned(),
        ]);
        pressure_table.row(&[
            "0".to_owned(),
            "0".to_owned(),
            "0".to_owned(),
            "0".to_owned(),
        ]);
    }

    server.shutdown();
    vec![bus_table, surge_table, pressure_table]
}
