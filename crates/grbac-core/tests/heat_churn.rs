//! Rule heat under rule churn: each live rule holds one heat slot, and
//! a removed rule's slot is zeroed and reused, so the heat tables follow
//! the most rules ever live at once instead of every rule id ever
//! minted.

use grbac_core::prelude::*;
use grbac_core::telemetry::ENABLED;

const LIVE_RULES: usize = 64;
const PAIRS: usize = 100_000;

struct Home {
    engine: Grbac,
    resident: RoleId,
    room: RoleId,
    enter: TransactionId,
    request: AccessRequest,
}

/// An engine of `LIVE_RULES` permit rules that all apply to `request`.
fn home() -> Home {
    let mut engine = Grbac::new();
    let resident = engine.declare_subject_role("resident").unwrap();
    let room = engine.declare_object_role("room").unwrap();
    let enter = engine.declare_transaction("enter").unwrap();
    let alice = engine.declare_subject("alice").unwrap();
    let kitchen = engine.declare_object("kitchen").unwrap();
    engine.assign_subject_role(alice, resident).unwrap();
    engine.assign_object_role(kitchen, room).unwrap();
    for _ in 0..LIVE_RULES {
        engine
            .add_rule(
                RuleDef::permit()
                    .subject_role(resident)
                    .object_role(room)
                    .transaction(enter),
            )
            .unwrap();
    }
    let request = AccessRequest::by_subject(alice, enter, kitchen, EnvironmentSnapshot::default());
    Home {
        engine,
        resident,
        room,
        enter,
        request,
    }
}

fn live_ids(engine: &Grbac) -> Vec<u64> {
    engine
        .rules()
        .iter()
        .map(|rule| rule.id().as_raw())
        .collect()
}

#[test]
fn heat_tables_stay_within_the_peak_live_rule_count_under_churn() {
    let mut home = home();
    home.engine.decide(&home.request).unwrap();
    let churn = RuleDef::deny()
        .subject_role(home.resident)
        .object_role(home.room)
        .transaction(home.enter);
    for _ in 0..PAIRS {
        let id = home.engine.add_rule(churn.clone()).unwrap();
        let decision = home.engine.decide(&home.request).unwrap();
        assert_eq!(decision.winning_rule(), Some(id));
        assert!(home.engine.remove_rule(id));
    }
    home.engine.decide(&home.request).unwrap();

    let heat = &home.engine.metrics().rule_heat;
    let peak_live = LIVE_RULES + 1;
    if !ENABLED {
        assert_eq!(heat.slot_count(), 0);
        return;
    }
    assert!(
        heat.slot_count() <= 2 * peak_live,
        "{} heat slots after {PAIRS} add/remove pairs with at most {peak_live} live rules",
        heat.slot_count()
    );
    // Only live rules carry heat: every churned rule left the table.
    let snapshot = home.engine.heat_snapshot();
    let keys: Vec<u64> = snapshot.rules.keys().copied().collect();
    assert_eq!(keys, live_ids(&home.engine));
    for raw in keys {
        assert_eq!(snapshot.get(raw).matched, PAIRS as u64 + 2);
    }
    // The churned deny rules won every decide but the first and last,
    // and their wins left with them.
    let wins: u64 = snapshot.rules.values().map(|entry| entry.won()).sum();
    assert_eq!(wins, 2);
    assert_eq!(snapshot.decisions, PAIRS as u64 + 2);
}

#[test]
fn reloaded_and_cloned_engines_record_heat_into_their_own_slots() {
    let mut home = home();
    let json = serde_json::to_string(&home.engine).unwrap();
    let reloaded: Grbac = serde_json::from_str(&json).unwrap();
    reloaded.decide(&home.request).unwrap();
    let first = home.engine.rules()[0].id().as_raw();
    if ENABLED {
        assert_eq!(reloaded.metrics().rule_heat.get(first).matched, 1);
        assert_eq!(reloaded.metrics().rule_heat.slot_count(), LIVE_RULES);
    }

    // A clone shares the registry but holds slots of its own: a rule it
    // removes keeps its heat in the original's slot.
    home.engine.decide(&home.request).unwrap();
    let mut clone = home.engine.clone();
    clone.decide(&home.request).unwrap();
    assert!(clone.remove_rule(RuleId::from_raw(first)));
    let added = clone
        .add_rule(RuleDef::deny().subject_role(home.resident))
        .unwrap();
    home.engine.decide(&home.request).unwrap();
    let metrics = std::sync::Arc::clone(home.engine.metrics());
    let heat = &metrics.rule_heat;
    if ENABLED {
        assert_eq!(heat.get(first).matched, 2);
        assert_eq!(heat.get(added.as_raw()).matched, 0);
        assert_eq!(heat.slot_count(), 2 * LIVE_RULES + 1);
    }
    assert!(home.engine.remove_rule(RuleId::from_raw(first)));
    assert_eq!(heat.get(first).matched, 0);
    assert!(!home.engine.heat_snapshot().rules.contains_key(&first));
}
