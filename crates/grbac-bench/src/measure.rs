//! How the experiments measure: paired windows for the overhead
//! claims of E15–E18, medians, and a fastest-of-N timer for E10, E12
//! and E13.
//!
//! A paired measurement runs one discarded warm-up window, then
//! [`ROUNDS`] rounds, each a baseline window and a treatment window back
//! to back. Slow drift (thermal, frequency scaling, a neighbour's load)
//! then hits both sides of a round alike, and the median of the
//! per-round ratios rejects the odd round that catches a hiccup. The
//! side that goes first alternates from round to round, so neither
//! side always runs in the other's wake. The round count is fixed
//! before measuring: stopping as soon as a running median clears a bar
//! would raise the pass rate of that bar.

use std::time::{Duration, Instant};

/// Rounds in every paired measurement. Odd, so a median over rounds is
/// one round's value.
pub const ROUNDS: usize = 11;
const _: () = assert!(ROUNDS % 2 == 1);

/// The condition a window measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The reference condition (nothing scraping, no churn, tracing
    /// off, nobody subscribed).
    Baseline,
    /// The condition whose cost is measured.
    Treatment,
}

/// The windows of one paired measurement.
#[derive(Debug, Clone)]
pub struct Paired<T> {
    /// Each round's `(baseline, treatment)` windows, in round order.
    pub rounds: Vec<(T, T)>,
}

/// Runs `window` once on the baseline side as a discarded warm-up, then
/// [`ROUNDS`] rounds of one baseline and one treatment window. Rounds
/// 1, 3, 5, … measure the baseline first; rounds 2, 4, … the treatment.
pub fn paired<T>(mut window: impl FnMut(Side) -> T) -> Paired<T> {
    window(Side::Baseline);
    let rounds = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let baseline = window(Side::Baseline);
                (baseline, window(Side::Treatment))
            } else {
                let treatment = window(Side::Treatment);
                (window(Side::Baseline), treatment)
            }
        })
        .collect();
    Paired { rounds }
}

impl<T> Paired<T> {
    /// The median over rounds of `value`, read off `side`'s windows.
    pub fn median(&self, side: Side, value: impl Fn(&T) -> f64) -> f64 {
        let values: Vec<f64> = self
            .rounds
            .iter()
            .map(|(baseline, treatment)| match side {
                Side::Baseline => value(baseline),
                Side::Treatment => value(treatment),
            })
            .collect();
        median(&values)
    }

    /// The median over rounds of treatment ÷ baseline, both read by
    /// `value`.
    ///
    /// # Panics
    ///
    /// If a window reads 0, which is an empty window: a stalled driver
    /// must fail the measurement, not score as a ratio of 0 or 1. The
    /// message names the round and the side.
    pub fn median_ratio(&self, value: impl Fn(&T) -> f64) -> f64 {
        let ratios: Vec<f64> = (1..)
            .zip(&self.rounds)
            .map(|(round, (baseline, treatment))| {
                let (baseline, treatment) = (value(baseline), value(treatment));
                assert!(
                    baseline > 0.0,
                    "round {round} of {ROUNDS}: the baseline window is empty"
                );
                assert!(
                    treatment > 0.0,
                    "round {round} of {ROUNDS}: the treatment window is empty"
                );
                treatment / baseline
            })
            .collect();
        median(&ratios)
    }
}

/// The median of `values`: the middle value of an odd count, the mean
/// of the two middle values of an even one.
///
/// # Panics
///
/// If `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "the median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let middle = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[middle]
    } else {
        (sorted[middle - 1] + sorted[middle]) / 2.0
    }
}

/// The fastest of `runs` timed calls of `run`, each on a fresh input
/// from `setup`, which is built and dropped outside the timing.
/// Scheduler noise only ever slows a run down, so the minimum is the
/// stable estimate of the true cost.
///
/// # Panics
///
/// If `runs` is 0.
pub fn fastest_of<S>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> Duration {
    (0..runs)
        .map(|_| {
            let mut input = setup();
            let start = Instant::now();
            run(&mut input);
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[1.0, 10.0]), 5.5);
        assert_eq!(median(&[0.7]), 0.7);
    }

    /// Windows that read back the index of the call that produced them,
    /// so the rounds show which calls they kept and in what order.
    fn scripted(treatment: f64) -> (Paired<(usize, f64)>, Vec<Side>) {
        let mut calls = Vec::new();
        let paired = paired(|side| {
            calls.push(side);
            let value = match side {
                Side::Baseline => 1.0,
                Side::Treatment => treatment,
            };
            (calls.len() - 1, value)
        });
        (paired, calls)
    }

    #[test]
    fn the_round_count_does_not_depend_on_what_the_windows_read() {
        // A treatment at 1.0 clears a 0.95 bar from the first rounds
        // (where stopping early would end the measurement after 3); one
        // at 0.5 never does (where escalating would keep measuring).
        for treatment in [1.0, 0.5] {
            let (paired, calls) = scripted(treatment);
            assert_eq!(paired.rounds.len(), ROUNDS);
            assert_eq!(calls.len(), 1 + 2 * ROUNDS);
            assert_eq!(calls[0], Side::Baseline, "the warm-up is a baseline");
            for (round, ((b, _), (t, _))) in paired.rounds.iter().enumerate() {
                assert_ne!(*b, 0, "the warm-up is discarded");
                assert_eq!(calls[*b], Side::Baseline);
                assert_eq!(calls[*t], Side::Treatment);
                // Both windows of round r are calls 2r+1 and 2r+2, the
                // baseline first in even rounds and second in odd ones.
                let (first, second) = if round % 2 == 0 { (b, t) } else { (t, b) };
                assert_eq!((*first, *second), (2 * round + 1, 2 * round + 2));
            }
            assert_eq!(paired.median_ratio(|(_, v)| *v), treatment);
            assert_eq!(paired.median(Side::Baseline, |(_, v)| *v), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "round 3 of 11: the baseline window is empty")]
    fn an_empty_baseline_fails_and_names_its_round() {
        let mut baselines = 0;
        let paired = paired(|side| match side {
            Side::Treatment => 100.0,
            Side::Baseline => {
                baselines += 1;
                // Call 1 is the warm-up, so call 4 is round 3's baseline.
                if baselines == 4 {
                    0.0
                } else {
                    100.0
                }
            }
        });
        let _ = paired.median_ratio(|count| *count);
    }

    #[test]
    #[should_panic(expected = "round 1 of 11: the treatment window is empty")]
    fn an_empty_treatment_fails_too() {
        let paired = paired(|side| match side {
            Side::Baseline => 100.0,
            Side::Treatment => 0.0,
        });
        let _ = paired.median_ratio(|count| *count);
    }

    #[test]
    fn fastest_of_keeps_the_minimum_and_times_no_setup() {
        let mut sleeps = [60u64, 0, 60].into_iter();
        let fastest = fastest_of(
            3,
            || {
                std::thread::sleep(Duration::from_millis(100));
                sleeps.next().expect("three runs")
            },
            |ms| std::thread::sleep(Duration::from_millis(*ms)),
        );
        assert!(fastest < Duration::from_millis(50), "{fastest:?}");
    }
}
