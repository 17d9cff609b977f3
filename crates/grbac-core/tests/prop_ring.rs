//! `BoundedRing` property suite: random sequences of push, evicting
//! push (`push_with`, which hands the evicted item to the new item's
//! builder), drain and iterate at capacities 0 to 9, checked after
//! every operation against a plain `Vec` model — the ring retains
//! exactly the newest `capacity` undrained items in push order, tickets
//! are contiguous, `push_with` hands back exactly the item a plain push
//! would have dropped, and `len + dropped + drained == pushed` — plus
//! one concurrent case where producers push through a `Mutex` while a
//! consumer drains.

use std::sync::{Barrier, Mutex};

use grbac_core::telemetry::BoundedRing;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone, Copy)]
enum Op {
    Push,
    PushWith,
    Drain,
    Iterate,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Push),
        3 => Just(Op::PushWith),
        1 => Just(Op::Drain),
        1 => Just(Op::Iterate)
    ]
}

/// The model: every item ever pushed (item `n` is the `n`th push),
/// plus how many of them a drain has handed out so far.
#[derive(Default)]
struct Model {
    pushed: Vec<u64>,
    drained_upto: usize,
    drained: u64,
}

impl Model {
    /// The items the ring must hold: the newest `capacity` of those
    /// pushed since the last drain, oldest first.
    fn retained(&self, capacity: usize) -> Vec<u64> {
        let undrained = &self.pushed[self.drained_upto..];
        undrained[undrained.len().saturating_sub(capacity)..].to_vec()
    }
}

fn check(ring: &BoundedRing<u64>, model: &Model, capacity: usize) -> Result<(), TestCaseError> {
    let retained = model.retained(capacity);
    prop_assert_eq!(ring.iter().copied().collect::<Vec<_>>(), retained.clone());
    prop_assert_eq!(ring.len(), retained.len());
    prop_assert_eq!(ring.capacity(), capacity);
    prop_assert_eq!(ring.pushed(), model.pushed.len() as u64);
    prop_assert_eq!(ring.drained(), model.drained);
    prop_assert_eq!(
        ring.len() as u64 + ring.dropped() + ring.drained(),
        ring.pushed()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn ring_matches_the_vec_model(
        capacity in 0usize..10,
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let mut ring = BoundedRing::new(capacity);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Push => {
                    let item = model.pushed.len() as u64;
                    // Tickets are contiguous: the nth push gets ticket n.
                    prop_assert_eq!(ring.push(item), item);
                    model.pushed.push(item);
                }
                Op::PushWith => {
                    let item = model.pushed.len() as u64;
                    // A full ring hands `fill` its oldest item; one with
                    // room hands it a fresh one. Capacity 0 runs neither.
                    let retained = model.retained(capacity);
                    let full = retained.len() == capacity;
                    let (mut fresh_made, mut overwritten) = (false, None);
                    let ticket = ring.push_with(
                        || {
                            fresh_made = true;
                            u64::MAX
                        },
                        |slot| {
                            overwritten = Some(*slot);
                            *slot = item;
                        },
                    );
                    prop_assert_eq!(ticket, item);
                    prop_assert_eq!(fresh_made, !full);
                    let handed = match (capacity, full) {
                        (0, _) => None,
                        (_, true) => Some(retained[0]),
                        (_, false) => Some(u64::MAX),
                    };
                    prop_assert_eq!(overwritten, handed);
                    model.pushed.push(item);
                }
                Op::Drain => {
                    let drained: Vec<u64> = ring.drain().collect();
                    prop_assert_eq!(&drained, &model.retained(capacity));
                    model.drained += drained.len() as u64;
                    model.drained_upto = model.pushed.len();
                }
                Op::Iterate => {
                    let newest_first: Vec<u64> = ring.iter().rev().copied().collect();
                    let mut expected = model.retained(capacity);
                    expected.reverse();
                    prop_assert_eq!(newest_first, expected);
                }
            }
            check(&ring, &model, capacity)?;
        }
    }
}

/// Producers push through a `Mutex<BoundedRing>` while a consumer
/// drains; at the end every push is accounted for exactly once, and
/// the consumer saw each producer's items in push order.
#[test]
fn concurrent_producers_and_a_draining_consumer_account_exactly() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 20_000;
    let ring = Mutex::new(BoundedRing::new(64));
    let barrier = Barrier::new(PRODUCERS as usize + 1);
    let mut seen = Vec::new();
    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let (ring, barrier) = (&ring, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for n in 0..PER_PRODUCER {
                    ring.lock().unwrap().push(producer * PER_PRODUCER + n);
                }
            });
        }
        barrier.wait();
        while ring.lock().unwrap().pushed() < PRODUCERS * PER_PRODUCER {
            seen.extend(ring.lock().unwrap().drain());
            std::thread::yield_now();
        }
    });
    let mut ring = ring.into_inner().unwrap();
    seen.extend(ring.drain());

    assert_eq!(ring.pushed(), PRODUCERS * PER_PRODUCER);
    assert_eq!(ring.drained(), seen.len() as u64);
    assert_eq!(ring.dropped() + ring.drained(), ring.pushed());
    assert!(ring.is_empty());
    for producer in 0..PRODUCERS {
        let own: Vec<u64> = seen
            .iter()
            .copied()
            .filter(|item| item / PER_PRODUCER == producer)
            .collect();
        assert!(
            own.windows(2).all(|pair| pair[0] < pair[1]),
            "producer {producer}'s items came out of push order"
        );
    }
}
