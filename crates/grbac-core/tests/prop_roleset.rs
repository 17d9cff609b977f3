//! `RoleSet` property suite: random insert sequences over role ids
//! below 64 (one word), below 128 (the inline form) or below 300 (the
//! heap form, and growth into it), checked after every insert against
//! a `BTreeSet<RoleId>` model: `insert`'s answer, `contains`, `len`,
//! `is_empty`, ascending iteration and collecting. Pairs of sets of
//! different widths are equal exactly when their models are. The
//! `Debug` text and the JSON a set writes are the model's byte for
//! byte, and JSON arrays in any order and with duplicates load.

use std::collections::BTreeSet;

use grbac_core::prelude::*;
use grbac_core::RoleSet;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Raw ids below 64, 128 or 300, in insertion order, duplicates
/// included.
fn raw_ids() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![Just(64u64), Just(128u64), Just(300u64)]
        .prop_flat_map(|bound| proptest::collection::vec(0..bound, 0..48))
}

fn roles(raws: &[u64]) -> impl DoubleEndedIterator<Item = RoleId> + '_ {
    raws.iter().map(|&raw| RoleId::from_raw(raw))
}

/// Every read of `set` agrees with `model`.
fn check(set: &RoleSet, model: &BTreeSet<RoleId>) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    prop_assert_eq!(
        set.iter().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    for raw in 0..320 {
        let role = RoleId::from_raw(raw);
        prop_assert_eq!(set.contains(role), model.contains(&role), "{}", role);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn inserts_match_the_btreeset_model(raws in raw_ids()) {
        let mut set = RoleSet::new();
        let mut model = BTreeSet::new();
        check(&set, &model)?;
        for role in roles(&raws) {
            prop_assert_eq!(set.insert(role), model.insert(role));
            check(&set, &model)?;
        }
        let collected: RoleSet = roles(&raws).collect();
        prop_assert_eq!(&collected, &set);
        let reversed: RoleSet = roles(&raws).rev().collect();
        prop_assert_eq!(&reversed, &set);
        check(&collected, &model)?;
    }

    fn sets_of_any_width_are_equal_exactly_when_their_models_are(
        left in raw_ids(),
        right in raw_ids(),
        extra in 0u64..300,
    ) {
        let (a, b): (RoleSet, RoleSet) = (roles(&left).collect(), roles(&right).collect());
        let (model_a, model_b): (BTreeSet<RoleId>, BTreeSet<RoleId>) =
            (roles(&left).collect(), roles(&right).collect());
        prop_assert_eq!(a == b, model_a == model_b);
        // One more id, maybe in a word `a` does not have yet.
        let mut wider = a.clone();
        let grew = wider.insert(RoleId::from_raw(extra));
        prop_assert_eq!(wider == a, !grew);
        prop_assert_eq!(grew, !model_a.contains(&RoleId::from_raw(extra)));
    }

    fn debug_and_json_text_match_the_model(raws in raw_ids()) {
        let set: RoleSet = roles(&raws).collect();
        let model: BTreeSet<RoleId> = roles(&raws).collect();
        prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
        prop_assert_eq!(format!("{set:#?}"), format!("{model:#?}"));
        let json = serde_json::to_string(&set).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&model).unwrap());
        let back: RoleSet = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &set);
        // The insertion order, unsorted and with its duplicates.
        let raw_json = format!(
            "[{}]",
            raws.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        let loaded: RoleSet = serde_json::from_str(&raw_json).unwrap();
        prop_assert_eq!(&loaded, &set);
        check(&loaded, &model)?;
    }
}
