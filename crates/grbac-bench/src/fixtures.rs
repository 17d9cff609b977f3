//! Deterministic system builders and workload presets shared by the
//! benches, the `experiments` binary and the consoles.

use std::collections::BTreeMap;

use grbac_core::degraded::DegradedMode;
use grbac_core::engine::{AccessRequest, Grbac};
use grbac_core::environment::EnvironmentSnapshot;
use grbac_core::id::{ObjectId, RoleId, RuleId, SubjectId, TransactionId};
use grbac_core::rule::RuleDef;
use grbac_core::telemetry::WatchdogConfig;
use grbac_env::fault::{FaultPlan, FaultRates};
use grbac_env::resilient::ResilienceConfig;
use grbac_home::chaos::{run_chaos, ChaosReport};
use grbac_home::scenario::paper_household;
use grbac_home::workload::{generate, WorkloadConfig, WorkloadEvent};
use grbac_home::AwareHome;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rbac::Rbac;

/// Builds a traditional-RBAC system for E1/E5: `roles` roles in chains
/// of `chain_depth`, `transactions_per_role` authorizations each, and
/// `subjects` each assigned `roles_per_subject` random roles.
#[must_use]
pub fn synthetic_rbac(
    roles: usize,
    transactions_per_role: usize,
    subjects: usize,
    roles_per_subject: usize,
    seed: u64,
) -> (Rbac, Vec<rbac::SubjectId>, Vec<rbac::TransactionId>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut system = Rbac::new();
    let role_ids: Vec<rbac::RoleId> = (0..roles)
        .map(|i| system.declare_role(format!("role_{i}")).expect("unique"))
        .collect();
    let mut transactions = Vec::new();
    for (i, &role) in role_ids.iter().enumerate() {
        for j in 0..transactions_per_role {
            let t = system
                .declare_transaction(format!("t_{i}_{j}"))
                .expect("unique");
            system.authorize_transaction(role, t).expect("valid ids");
            transactions.push(t);
        }
    }
    let mut subject_ids = Vec::new();
    for i in 0..subjects {
        let s = system.declare_subject(format!("s_{i}")).expect("unique");
        for &role in role_ids.choose_multiple(&mut rng, roles_per_subject.min(roles)) {
            system.assign_role(s, role).expect("no sod configured");
        }
        subject_ids.push(s);
    }
    (system, subject_ids, transactions)
}

/// Configuration for [`synthetic_grbac`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Number of subject roles (arranged in chains of `chain_depth`).
    pub subject_roles: usize,
    /// Number of object roles (flat).
    pub object_roles: usize,
    /// Number of environment roles (flat).
    pub environment_roles: usize,
    /// Length of each specialization chain among subject roles.
    pub chain_depth: usize,
    /// Number of rules.
    pub rules: usize,
    /// Fraction of rules that are Deny.
    pub deny_fraction: f64,
    /// Number of subjects (one random subject role each).
    pub subjects: usize,
    /// Number of objects (one random object role each).
    pub objects: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            subject_roles: 16,
            object_roles: 16,
            environment_roles: 8,
            chain_depth: 4,
            rules: 64,
            deny_fraction: 0.2,
            subjects: 32,
            objects: 32,
            transactions: 4,
            seed: 0,
        }
    }
}

/// The policy shape E5, E10 and E13–E18 measure: `rules` rules over 32
/// subject roles, 32 object roles and 16 environment roles, the rest
/// [`SyntheticConfig::default`].
#[must_use]
pub fn wide(rules: usize) -> SyntheticConfig {
    SyntheticConfig {
        rules,
        subject_roles: 32,
        object_roles: 32,
        environment_roles: 16,
        ..SyntheticConfig::default()
    }
}

/// A synthetic GRBAC system plus handles for issuing random requests.
#[derive(Debug)]
pub struct SyntheticGrbac {
    /// The engine.
    pub engine: Grbac,
    /// All declared subjects.
    pub subjects: Vec<SubjectId>,
    /// All declared objects.
    pub objects: Vec<ObjectId>,
    /// All declared transactions.
    pub transactions: Vec<TransactionId>,
    /// All declared environment roles.
    pub environment_roles: Vec<RoleId>,
}

impl SyntheticGrbac {
    /// A deterministic batch of `n` requests with `active_env` random
    /// environment roles active in each.
    #[must_use]
    pub fn requests(&self, n: usize, active_env: usize, seed: u64) -> Vec<AccessRequest> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let subject = *self.subjects.choose(&mut rng).expect("nonempty");
                let object = *self.objects.choose(&mut rng).expect("nonempty");
                let transaction = *self.transactions.choose(&mut rng).expect("nonempty");
                let env: EnvironmentSnapshot = self
                    .environment_roles
                    .choose_multiple(&mut rng, active_env.min(self.environment_roles.len()))
                    .copied()
                    .collect();
                AccessRequest::by_subject(subject, transaction, object, env)
            })
            .collect()
    }
}

/// Builds a synthetic GRBAC system per the config (fully deterministic
/// under the seed).
#[must_use]
pub fn synthetic_grbac(config: &SyntheticConfig) -> SyntheticGrbac {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut engine = Grbac::new();

    // Subject roles in chains: role i specializes role i-1 unless it
    // starts a new chain.
    let mut subject_roles = Vec::new();
    for i in 0..config.subject_roles {
        let role = engine
            .declare_subject_role(format!("sr_{i}"))
            .expect("unique");
        if i % config.chain_depth.max(1) != 0 {
            if let Some(&previous) = subject_roles.last() {
                engine
                    .specialize(role, previous)
                    .expect("acyclic by construction");
            }
        }
        subject_roles.push(role);
    }
    let object_roles: Vec<RoleId> = (0..config.object_roles)
        .map(|i| {
            engine
                .declare_object_role(format!("or_{i}"))
                .expect("unique")
        })
        .collect();
    let environment_roles: Vec<RoleId> = (0..config.environment_roles)
        .map(|i| {
            engine
                .declare_environment_role(format!("er_{i}"))
                .expect("unique")
        })
        .collect();
    let transactions: Vec<TransactionId> = (0..config.transactions)
        .map(|i| {
            engine
                .declare_transaction(format!("t_{i}"))
                .expect("unique")
        })
        .collect();

    for i in 0..config.rules {
        let mut def = if rng.gen::<f64>() < config.deny_fraction {
            RuleDef::deny()
        } else {
            RuleDef::permit()
        };
        def = def
            .named(format!("rule_{i}"))
            .subject_role(*subject_roles.choose(&mut rng).expect("nonempty"))
            .object_role(*object_roles.choose(&mut rng).expect("nonempty"))
            .transaction(*transactions.choose(&mut rng).expect("nonempty"));
        let env_count = rng.gen_range(0..=2);
        for &env in environment_roles.choose_multiple(&mut rng, env_count) {
            def = def.when(env);
        }
        engine.add_rule(def).expect("valid ids");
    }

    let subjects: Vec<SubjectId> = (0..config.subjects)
        .map(|i| {
            let s = engine.declare_subject(format!("s_{i}")).expect("unique");
            let role = *subject_roles.choose(&mut rng).expect("nonempty");
            engine.assign_subject_role(s, role).expect("no sod");
            s
        })
        .collect();
    let objects: Vec<ObjectId> = (0..config.objects)
        .map(|i| {
            let o = engine.declare_object(format!("o_{i}")).expect("unique");
            let role = *object_roles.choose(&mut rng).expect("nonempty");
            engine.assign_object_role(o, role).expect("valid ids");
            o
        })
        .collect();

    SyntheticGrbac {
        engine,
        subjects,
        objects,
        transactions,
        environment_roles,
    }
}

/// Builds a deep specialization chain (for E2 hierarchy scaling):
/// returns the engine, the most specific role, and the most general.
#[must_use]
pub fn deep_hierarchy(depth: usize) -> (Grbac, RoleId, RoleId) {
    let mut engine = Grbac::new();
    let root = engine.declare_subject_role("level_0").expect("unique");
    let mut current = root;
    for i in 1..depth.max(1) {
        let role = engine
            .declare_subject_role(format!("level_{i}"))
            .expect("unique");
        engine.specialize(role, current).expect("chain is acyclic");
        current = role;
    }
    (engine, current, root)
}

/// The E9 Aware Home workload over `days` days, which E11–E13 and the
/// consoles replay: 50 requests per person per day, a 0.3 chance of
/// moving rooms between requests, seed 2000.
#[must_use]
pub fn home_workload(days: u32) -> WorkloadConfig {
    WorkloadConfig {
        days,
        requests_per_person_per_day: 50,
        move_probability: 0.3,
        seed: 2000,
    }
}

/// The provider resilience of E11's fault runs: one retry, and a
/// breaker that opens after 3 failures for 300 s.
fn chaos_resilience() -> ResilienceConfig {
    ResilienceConfig {
        max_retries: 1,
        failure_threshold: 3,
        open_cooldown_s: 300,
        ..ResilienceConfig::default()
    }
}

/// E11's three degraded postures, named as the tables print them.
#[must_use]
pub fn degraded_postures() -> [(&'static str, DegradedMode); 3] {
    [
        ("fail_closed", DegradedMode::fail_closed()),
        ("fail_open(half_life=30m)", DegradedMode::fail_open(1800)),
        (
            "last_known_good(max_age=1h)",
            DegradedMode::last_known_good(3600),
        ),
    ]
}

/// An E11 chaos week: a household whose provider fails at error `rate`
/// (fault seed `seed`) mediates a week of [`home_workload`] under
/// `posture`, against a fault-free twin.
///
/// # Panics
///
/// If the run fails to mediate a request.
#[must_use]
pub fn chaos_week(rate: f64, seed: u64, posture: DegradedMode) -> (AwareHome, ChaosReport) {
    let mut faulty = paper_household().expect("paper household builds");
    let mut oracle = paper_household().expect("paper household builds");
    let events = generate(&faulty, &home_workload(7));
    let plan = FaultPlan::random(FaultRates::errors_only(rate), seed);
    let report = run_chaos(
        &mut faulty,
        &mut oracle,
        &events,
        plan,
        chaos_resilience(),
        posture,
    )
    .expect("chaos run mediates");
    (faulty, report)
}

/// Adds E13's injected dead-in-practice rule to `home`: a permit gated
/// on `solar_eclipse`, an environment role no provider ever activates.
/// Static analysis calls it live (its subject role has members, nothing
/// shadows it); only traffic shows it never fires.
///
/// # Panics
///
/// If `home` already declares `solar_eclipse`.
pub fn inject_dead_rule(home: &mut AwareHome) -> RuleId {
    let vocab = *home.vocab();
    let mut engine = home.engine_mut();
    let eclipse = engine
        .declare_environment_role("solar_eclipse")
        .expect("fresh role name");
    engine
        .add_rule(
            RuleDef::permit()
                .named("eclipse viewing")
                .subject_role(vocab.child)
                .object_role(vocab.entertainment_device)
                .transaction(vocab.operate)
                .when(eclipse),
        )
        .expect("rule refers to declared ids")
}

/// What [`fault_onset_replay`] saw.
#[derive(Debug, Default)]
pub struct OnsetReplay {
    /// Index of the event at which the fault layer switched on.
    pub onset: usize,
    /// Requests mediated.
    pub requests: u64,
    /// Requests permitted.
    pub permits: u64,
    /// Watchdog ticks, the one at the onset included.
    pub ticks: u64,
    /// Alerts raised up to and including the tick at the onset.
    pub pre_fault_alerts: u64,
    /// Alerts raised after the onset, per alert kind.
    pub fault_alerts: BTreeMap<&'static str, u64>,
}

/// E13's fault-onset replay, which the `health` console shares: `home`
/// mediates `events` fail-closed, with a watchdog ticking every 100
/// events. At the halfway mark one more tick closes the window that
/// straddles the onset, so pre-fault traffic cannot dilute the first
/// faulty window, and then `plan` switches on under E11's provider
/// resilience.
///
/// The watchdog's deviation floor is tighter than the default: degraded
/// and staleness rates are near-constant zero on healthy traffic, so
/// even the ~1% surge a 10% error rate produces is anomalous. The noisy
/// signals (deny rate, flaps) are still governed by their learned
/// deviation, which dominates this floor, and the longer warm-up lets
/// that deviation absorb the household's daily rhythm (morning role
/// flips span ~3 ticks a day) before alerts arm. `min_decisions` and
/// `min_polls` at 60 skip the short remainder window the onset tick
/// leaves behind: a ~40-decision window carries binomial sampling
/// noise larger than any learned deviation.
///
/// # Panics
///
/// If a request names an id the home does not know.
pub fn fault_onset_replay(
    home: &mut AwareHome,
    events: &[WorkloadEvent],
    plan: FaultPlan,
) -> OnsetReplay {
    home.engine_mut()
        .set_degraded_mode(DegradedMode::fail_closed());
    home.install_watchdog(WatchdogConfig {
        deviation_floor: 0.002,
        warmup_ticks: 8,
        min_decisions: 60,
        min_polls: 60,
        ..WatchdogConfig::default()
    });
    let onset = events.len() / 2;
    let mut replay = OnsetReplay {
        onset,
        ..OnsetReplay::default()
    };
    for (i, event) in events.iter().enumerate() {
        if i == onset {
            replay.ticks += 1;
            replay.pre_fault_alerts += home.watchdog_tick().len() as u64;
            home.install_fault_layer(plan.clone(), chaos_resilience());
        }
        home.advance_to(event.at());
        match event {
            WorkloadEvent::Move { subject, zone, .. } => home.place(*subject, *zone),
            WorkloadEvent::Request {
                subject,
                transaction,
                object,
                ..
            } => {
                replay.requests += 1;
                let decision = home.request(*subject, *transaction, *object);
                if decision.expect("workload ids are declared").is_permitted() {
                    replay.permits += 1;
                }
            }
        }
        if (i + 1) % 100 == 0 {
            replay.ticks += 1;
            for alert in home.watchdog_tick() {
                if i < onset {
                    replay.pre_fault_alerts += 1;
                } else {
                    *replay.fault_alerts.entry(alert.kind.name()).or_default() += 1;
                }
            }
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_rbac_shape() {
        let (system, subjects, transactions) = synthetic_rbac(8, 3, 10, 2, 1);
        assert_eq!(system.role_count(), 8);
        assert_eq!(system.transaction_count(), 24);
        assert_eq!(transactions.len(), 24);
        assert_eq!(subjects.len(), 10);
        for &s in &subjects {
            assert_eq!(system.authorized_roles(s).unwrap().len(), 2);
        }
    }

    #[test]
    fn synthetic_grbac_is_deterministic() {
        let config = SyntheticConfig::default();
        let a = synthetic_grbac(&config);
        let b = synthetic_grbac(&config);
        assert_eq!(a.engine.rules().len(), b.engine.rules().len());
        let reqs_a = a.requests(10, 2, 42);
        let reqs_b = b.requests(10, 2, 42);
        assert_eq!(reqs_a, reqs_b);
        // And decisions agree.
        for (ra, rb) in reqs_a.iter().zip(&reqs_b) {
            assert_eq!(
                a.engine.decide(ra).unwrap().effect(),
                b.engine.decide(rb).unwrap().effect()
            );
        }
    }

    #[test]
    fn synthetic_grbac_produces_both_outcomes() {
        let system = synthetic_grbac(&SyntheticConfig {
            rules: 200,
            ..Default::default()
        });
        let requests = system.requests(300, 4, 7);
        let permits = requests
            .iter()
            .filter(|r| system.engine.decide(r).unwrap().is_permitted())
            .count();
        assert!(permits > 0, "some requests should be permitted");
        assert!(permits < requests.len(), "some should be denied");
    }

    #[test]
    fn deep_hierarchy_chains() {
        let (engine, leaf, root) = deep_hierarchy(16);
        assert!(engine.roles().is_specialization_of(leaf, root).unwrap());
        assert_eq!(engine.roles().closure(leaf).unwrap().len(), 16);
    }
}
