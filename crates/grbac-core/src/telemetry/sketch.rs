//! A streaming quantile sketch for latency profiling.
//!
//! The fixed-bucket [`Histogram`](super::Histogram) answers "how many
//! observations fell under each bound" for a handful of hand-picked
//! bounds; operators asking "what is p99 right now" need finer
//! resolution without unbounded memory. [`QuantileSketch`] is an
//! HDR-style log-linear sketch: values are bucketed by their power of
//! two and 16 linear sub-buckets within it, so any quantile can be read
//! back with a bounded **relative** error of one sixteenth of a bucket
//! (≈3% at the bucket midpoint), from a fixed 976-slot table of relaxed
//! atomics. No dependencies, no locks, no allocation after
//! construction — the same contract as the rest of the registry.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use super::ENABLED;
use crate::id::DecisionId;

/// Linear sub-buckets per power-of-two octave (4 significant bits).
const SUB: u64 = 16;
/// Bucket count: 16 exact slots for values below 16, then 16 slots per
/// octave for exponents 4..=63.
const BUCKETS: usize = 976;

/// Maps a value to its bucket index.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let exponent = 63 - u64::from(value.leading_zeros());
        (((exponent - 3) * SUB) + ((value >> (exponent - 4)) & (SUB - 1))) as usize
    }
}

/// The representative (midpoint) value of a bucket.
fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let exponent = (index / SUB) + 3;
    let sub = index % SUB;
    let lower = (1u64 << exponent) + (sub << (exponent - 4));
    let width = 1u64 << (exponent - 4);
    lower + (width - 1) / 2
}

/// A fixed-memory streaming quantile sketch over `u64` observations.
///
/// Observation is one relaxed `fetch_add` on the bucket plus four on
/// the scalar accumulators; snapshots are wait-free copies. Under the
/// `telemetry-off` feature every update compiles to a no-op.
#[derive(Debug)]
pub struct QuantileSketch {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Last exemplar epoch seen (all ids minted by one engine share an
    /// epoch, so one sketch-level slot suffices; last-writer-wins).
    exemplar_epoch: AtomicU64,
    /// Per-bucket last exemplar id sequence (0 = no exemplar yet).
    exemplar_seq: Vec<AtomicU64>,
    /// Per-bucket value observed alongside the last exemplar.
    exemplar_value: Vec<AtomicU64>,
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar_epoch: AtomicU64::new(0),
            exemplar_seq: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            exemplar_value: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if !ENABLED {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // Bounds rarely move once a few values are in: skip each
        // read-modify-write unless a load says it would.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records one observation and retains `exemplar` as the bucket's
    /// last-seen correlated decision (Prometheus-exemplar style). The
    /// exemplar slots are independent relaxed stores — concurrent
    /// writers may interleave epoch/seq/value from different
    /// observations, which is benign: any retained combination still
    /// names a real recent decision in that latency bucket.
    pub fn observe_with_exemplar(&self, value: u64, exemplar: DecisionId) {
        self.observe(value);
        if !ENABLED || !exemplar.is_assigned() {
            return;
        }
        let slot = bucket_index(value);
        self.exemplar_epoch
            .store(exemplar.epoch(), Ordering::Relaxed);
        self.exemplar_value[slot].store(value, Ordering::Relaxed);
        self.exemplar_seq[slot].store(exemplar.seq(), Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the sketch state.
    #[must_use]
    pub fn snapshot(&self) -> SketchSnapshot {
        let epoch = self.exemplar_epoch.load(Ordering::Relaxed);
        let exemplars = self
            .exemplar_seq
            .iter()
            .enumerate()
            .filter_map(|(bucket, seq)| {
                let seq = seq.load(Ordering::Relaxed);
                (seq != 0).then(|| Exemplar {
                    bucket,
                    decision_id: DecisionId::from_parts(epoch, seq),
                    value: self.exemplar_value[bucket].load(Ordering::Relaxed),
                })
            })
            .collect();
        SketchSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            exemplars,
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// A correlated sample retained by a sketch bucket: the last
/// [`DecisionId`] whose observation landed in that bucket, plus the
/// observed value (Prometheus/OpenMetrics exemplar semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The sketch bucket the exemplar belongs to.
    pub bucket: usize,
    /// The correlation id of the retained decision.
    pub decision_id: DecisionId,
    /// The value observed for that decision (nanoseconds for the
    /// latency sketches).
    pub value: u64,
}

/// A point-in-time copy of a [`QuantileSketch`], supporting quantile
/// reads, merging and diffing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchSnapshot {
    /// Per-bucket observation counts (fixed log-linear layout).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Retained exemplars, sparse and ascending by bucket (empty for
    /// snapshots serialized before exemplars existed).
    #[serde(default)]
    pub exemplars: Vec<Exemplar>,
}

impl SketchSnapshot {
    /// The exemplar whose bucket lies closest to the bucket holding
    /// quantile `q`, if any exemplar was retained. This is the id a
    /// text exporter attaches to the `q` quantile line: a real recent
    /// decision whose latency is representative of that quantile.
    #[must_use]
    pub fn exemplar_near(&self, q: f64) -> Option<Exemplar> {
        if self.exemplars.is_empty() || self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        let mut target = self.counts.len().saturating_sub(1);
        for (index, &bucket) in self.counts.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                target = index;
                break;
            }
        }
        self.exemplars
            .iter()
            .min_by_key(|exemplar| exemplar.bucket.abs_diff(target))
            .copied()
    }
    /// The value at quantile `q` in `[0, 1]`: the midpoint of the
    /// bucket holding the rank-`⌈q·count⌉` observation, clamped to the
    /// observed `[min, max]` range. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_value(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The union of this snapshot and another (e.g. two engines'
    /// sketches aggregated for one dashboard). For buckets where both
    /// sides retained an exemplar, `self`'s wins (exemplars are "a
    /// recent representative", not an aggregate).
    #[must_use]
    pub fn merge(&self, other: &SketchSnapshot) -> SketchSnapshot {
        let mut exemplars = self.exemplars.clone();
        for exemplar in &other.exemplars {
            if !exemplars.iter().any(|e| e.bucket == exemplar.bucket) {
                exemplars.push(*exemplar);
            }
        }
        exemplars.sort_by_key(|e| e.bucket);
        SketchSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            exemplars,
        }
    }

    /// This snapshot minus an `earlier` one (saturating): the
    /// observations that arrived in between. `min`/`max` and the
    /// exemplars keep this snapshot's cumulative values — the sketch
    /// does not retain enough to window them.
    #[must_use]
    pub fn delta(&self, earlier: &SketchSnapshot) -> SketchSnapshot {
        SketchSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, was)| now.saturating_sub(*was))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            exemplars: self.exemplars.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_total() {
        let mut last = 0;
        for value in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "index {index} out of range for {value}");
            assert!(index >= last || value < 4096, "indices must not regress");
            last = index;
            let mid = bucket_value(index);
            if value >= SUB {
                // Midpoint stays within 1/16 relative error of the value.
                let err = mid.abs_diff(value) as f64 / value as f64;
                assert!(err <= 1.0 / 16.0, "value {value} mid {mid} err {err}");
            } else {
                assert_eq!(mid, value);
            }
        }
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        let sketch = QuantileSketch::new();
        for v in 1..=10_000u64 {
            sketch.observe(v);
        }
        let snap = sketch.snapshot();
        if !ENABLED {
            assert_eq!(snap.count, 0);
            assert_eq!(snap.quantile(0.5), 0);
            return;
        }
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = snap.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.07, "q{q}: got {got}, exact {exact}, err {err}");
        }
        assert!((snap.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        let sketch = QuantileSketch::new();
        // 90% fast (~100), 10% slow (~100_000): p50 sits in the fast
        // mode, p95 and p99 in the slow one.
        for _ in 0..900 {
            sketch.observe(100);
        }
        for _ in 0..100 {
            sketch.observe(100_000);
        }
        let snap = sketch.snapshot();
        if !ENABLED {
            return;
        }
        assert!(snap.quantile(0.5).abs_diff(100) <= 7);
        assert!(snap.quantile(0.95).abs_diff(100_000) as f64 / 100_000.0 <= 0.07);
        assert!(snap.quantile(0.99).abs_diff(100_000) as f64 / 100_000.0 <= 0.07);
    }

    #[test]
    fn merge_equals_observing_everything_in_one_sketch() {
        let left = QuantileSketch::new();
        let right = QuantileSketch::new();
        let whole = QuantileSketch::new();
        for v in 1..=500u64 {
            left.observe(v);
            whole.observe(v);
        }
        for v in 501..=1_000u64 {
            right.observe(v * 7);
            whole.observe(v * 7);
        }
        let merged = left.snapshot().merge(&right.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn delta_isolates_the_window() {
        let sketch = QuantileSketch::new();
        for _ in 0..100 {
            sketch.observe(10);
        }
        let before = sketch.snapshot();
        for _ in 0..50 {
            sketch.observe(1_000);
        }
        let delta = sketch.snapshot().delta(&before);
        if !ENABLED {
            return;
        }
        assert_eq!(delta.count, 50);
        assert_eq!(delta.sum, 50_000);
        // Every windowed observation was 1000, so all quantiles agree.
        assert!(delta.quantile(0.5).abs_diff(1_000) as f64 / 1_000.0 <= 0.07);
        assert!(delta.quantile(0.99).abs_diff(1_000) as f64 / 1_000.0 <= 0.07);
    }

    #[test]
    fn exemplars_track_buckets_and_resolve_near_quantiles() {
        let sketch = QuantileSketch::new();
        // Fast mode carries one exemplar, slow mode another.
        let fast = DecisionId::from_parts(7, 100);
        let slow = DecisionId::from_parts(7, 200);
        for _ in 0..90 {
            sketch.observe_with_exemplar(100, fast);
        }
        for _ in 0..10 {
            sketch.observe_with_exemplar(100_000, slow);
        }
        // Unassigned ids never become exemplars.
        sketch.observe_with_exemplar(100, DecisionId::UNASSIGNED);
        let snap = sketch.snapshot();
        if !ENABLED {
            assert!(snap.exemplars.is_empty());
            assert!(snap.exemplar_near(0.5).is_none());
            return;
        }
        assert_eq!(snap.exemplars.len(), 2);
        let p50 = snap.exemplar_near(0.5).unwrap();
        assert_eq!(p50.decision_id, fast);
        assert_eq!(p50.value, 100);
        let p99 = snap.exemplar_near(0.99).unwrap();
        assert_eq!(p99.decision_id, slow);
        assert_eq!(p99.value, 100_000);
        // Exemplars survive a snapshot round-trip through serde.
        let json = serde_json::to_string(&snap).unwrap();
        let back: SketchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_sketch_reads_zero() {
        let snap = QuantileSketch::new().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert!((snap.mean() - 0.0).abs() < f64::EPSILON);
    }
}
