//! Per-rule heat counters: which rules actually carry traffic.
//!
//! Static analysis ([`crate::analysis`]) finds rules that *cannot*
//! fire; heat finds rules that *do not* fire. The [`RuleHeat`] table
//! counts, per rule, how often the compiled mediation path matched it
//! and how often it won the decision (split by effect), plus the
//! policy generation it last fired under — enough to join against the
//! static report into a [`PolicyHealthReport`](crate::analysis::PolicyHealthReport)
//! and to spot drift across policy edits.
//!
//! The table is written on every decision, so it is built like the
//! rest of the registry: lock-free on the hot path. Counters live in
//! a small fixed set of shards; each OS thread is pinned to one shard
//! (round-robin at first touch), so parallel `decide_batch` workers
//! never contend on the same cache line. A shard is a `RwLock` around
//! a dense `Vec` of atomic cells indexed by raw [`RuleId`] — the read
//! lock is uncontended in steady state and the write lock is taken
//! only when the table widens (new rules) — mirroring the
//! [`KeyedCounter`](super::KeyedCounter) idiom. Readers sum across
//! shards.
//!
//! Heat can be disabled at runtime ([`RuleHeat::set_enabled`]) so the
//! overhead experiment (E13) can measure the tracking cost against an
//! otherwise identical engine; under the `telemetry-off` feature every
//! update compiles to a no-op like the rest of the registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use serde::{Deserialize, Serialize};

use super::{thread_id, ENABLED};

/// Number of shards; a small power of two keeps the reader merge cheap
/// while spreading batch workers across cache lines.
const SHARDS: usize = 8;

/// One rule's counters inside a shard.
#[derive(Debug, Default)]
struct HeatCell {
    /// Times the rule was applicable (appeared in a decision's matched
    /// set).
    matched: AtomicU64,
    /// Times the rule won the decision with a permit effect.
    won_permit: AtomicU64,
    /// Times the rule won the decision with a deny effect.
    won_deny: AtomicU64,
    /// `generation + 1` of the last decision this rule won or matched
    /// in (0 = never fired). Merged across shards by max, so the
    /// off-by-one encoding keeps "never" distinguishable from
    /// generation 0.
    last_gen: AtomicU64,
}

/// One shard: a dense slot table indexed by raw rule id.
#[derive(Debug, Default)]
struct Shard {
    cells: RwLock<Vec<HeatCell>>,
}

impl Shard {
    /// Runs `update` on the cell for `index`, widening the table first
    /// if the rule id is beyond the current length.
    fn with_cell(&self, index: usize, update: impl Fn(&HeatCell)) {
        {
            let cells = self
                .cells
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(cell) = cells.get(index) {
                update(cell);
                return;
            }
        }
        let mut cells = self
            .cells
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if cells.len() <= index {
            cells.resize_with(index + 1, HeatCell::default);
        }
        update(&cells[index]);
    }

    /// Pre-sizes the slot table to at least `capacity` cells. Called
    /// on every index install — including cheap incremental delta
    /// applications — so the already-sized case takes only a read
    /// lock. Returns the capacity the table has allocated.
    fn reserve(&self, capacity: usize) -> usize {
        {
            let cells = self
                .cells
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if cells.len() >= capacity {
                return cells.capacity();
            }
        }
        let mut cells = self
            .cells
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if cells.len() < capacity {
            cells.resize_with(capacity, HeatCell::default);
        }
        cells.capacity()
    }

    /// Grows the slot table's allocation to hold `capacity` cells,
    /// leaving its length alone. Returns the capacity it now has.
    fn reserve_room(&self, capacity: usize) -> usize {
        let mut cells = self
            .cells
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let len = cells.len();
        cells.reserve(capacity.saturating_sub(len));
        cells.capacity()
    }
}

/// Sharded per-rule heat counters (see the module docs).
///
/// Lives inside the [`MetricsRegistry`](super::MetricsRegistry), so
/// engine clones and `decide_batch` workers share one table the same
/// way they share every other counter.
#[derive(Debug)]
pub struct RuleHeat {
    shards: [Shard; SHARDS],
    /// Runtime kill switch (heat on by default). Checked with one
    /// relaxed load per decision, so E13 can price the tracking
    /// against an otherwise identical engine.
    enabled: AtomicBool,
    /// Times [`Self::reset`] has run, so report consumers can tell a
    /// genuinely cold rule from one whose heat was wiped.
    resets: AtomicU64,
    /// Total decisions folded into the table (wins across all rules
    /// plus default-effect decisions where no rule won).
    decisions: AtomicU64,
    /// Cells every shard can hold without reallocating (a lower bound;
    /// 0 until an index install first sizes the tables).
    room: AtomicUsize,
}

impl Default for RuleHeat {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleHeat {
    /// An empty, enabled heat table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard::default()),
            enabled: AtomicBool::new(true),
            resets: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            room: AtomicUsize::new(0),
        }
    }

    /// Whether heat is currently being recorded (always false when the
    /// crate is built with `telemetry-off`).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        ENABLED && self.enabled.load(Ordering::Relaxed)
    }

    /// Turns heat recording on or off at runtime. Readings accumulated
    /// so far are kept either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Times the table has been [`reset`](Self::reset).
    #[must_use]
    pub fn reset_count(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Total decisions folded into the table since the last reset.
    #[must_use]
    pub fn decision_count(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Pre-sizes every shard for `rule_count` rules, so steady-state
    /// recording never takes a write lock. The engine calls this when
    /// it rebuilds the compiled index, which is exactly when the rule
    /// id ceiling can have moved.
    pub fn reserve(&self, rule_count: usize) {
        if !ENABLED {
            return;
        }
        let room = self
            .shards
            .iter()
            .map(|shard| shard.reserve(rule_count))
            .min()
            .unwrap_or(0);
        self.room.fetch_max(room, Ordering::Relaxed);
    }

    /// Grows every shard's allocation to hold `rule_count` rules
    /// without lengthening the tables. The engine calls this as it
    /// mints rule ids, so a reallocation lands on the edit and the next
    /// index install's [`reserve`](Self::reserve) only lengthens the
    /// tables within their room. Until an install has sized the tables
    /// there is nothing to grow ahead of: the first install allocates
    /// them once. One relaxed load while the room suffices.
    pub(crate) fn reserve_room(&self, rule_count: usize) {
        let room = self.room.load(Ordering::Relaxed);
        if !ENABLED || room == 0 || rule_count <= room {
            return;
        }
        let room = self
            .shards
            .iter()
            .map(|shard| shard.reserve_room(rule_count))
            .min()
            .unwrap_or(0);
        self.room.fetch_max(room, Ordering::Relaxed);
    }

    /// Zeroes every counter (the slot tables keep their size). Bumps
    /// [`Self::reset_count`] so downstream reports can annotate the
    /// wipe.
    pub fn reset(&self) {
        for shard in &self.shards {
            let cells = shard
                .cells
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for cell in cells.iter() {
                cell.matched.store(0, Ordering::Relaxed);
                cell.won_permit.store(0, Ordering::Relaxed);
                cell.won_deny.store(0, Ordering::Relaxed);
                cell.last_gen.store(0, Ordering::Relaxed);
            }
        }
        self.decisions.store(0, Ordering::Relaxed);
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one decision into the table: every applicable rule gets a
    /// match, the winner (if any) gets a win under its effect, and both
    /// stamp the policy generation they fired under. `winner_permit`
    /// is ignored when `winner` is `None` (default-effect decision).
    pub fn record_decision(
        &self,
        matched: impl IntoIterator<Item = u64>,
        winner: Option<u64>,
        winner_permit: bool,
        generation: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let shard = &self.shards[thread_id() as usize % SHARDS];
        let stamp = generation.wrapping_add(1).max(1);
        for raw in matched {
            shard.with_cell(raw as usize, |cell| {
                cell.matched.fetch_add(1, Ordering::Relaxed);
                cell.last_gen.fetch_max(stamp, Ordering::Relaxed);
            });
        }
        if let Some(raw) = winner {
            shard.with_cell(raw as usize, |cell| {
                if winner_permit {
                    cell.won_permit.fetch_add(1, Ordering::Relaxed);
                } else {
                    cell.won_deny.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        self.decisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Heat for one rule (zeros if it never fired), summed across
    /// shards.
    #[must_use]
    pub fn get(&self, raw_rule: u64) -> RuleHeatEntry {
        let mut entry = RuleHeatEntry::default();
        let mut stamp = 0u64;
        for shard in &self.shards {
            let cells = shard
                .cells
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(cell) = cells.get(raw_rule as usize) {
                entry.matched += cell.matched.load(Ordering::Relaxed);
                entry.won_permit += cell.won_permit.load(Ordering::Relaxed);
                entry.won_deny += cell.won_deny.load(Ordering::Relaxed);
                stamp = stamp.max(cell.last_gen.load(Ordering::Relaxed));
            }
        }
        entry.last_fired_generation = stamp.checked_sub(1);
        entry
    }

    /// A point-in-time merge of all shards: every rule with any heat,
    /// keyed by raw rule id, plus the table-level accumulators.
    #[must_use]
    pub fn snapshot(&self) -> RuleHeatSnapshot {
        let mut merged: BTreeMap<u64, (RuleHeatEntry, u64)> = BTreeMap::new();
        for shard in &self.shards {
            let cells = shard
                .cells
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (raw, cell) in cells.iter().enumerate() {
                let matched = cell.matched.load(Ordering::Relaxed);
                let won_permit = cell.won_permit.load(Ordering::Relaxed);
                let won_deny = cell.won_deny.load(Ordering::Relaxed);
                let stamp = cell.last_gen.load(Ordering::Relaxed);
                if matched == 0 && won_permit == 0 && won_deny == 0 && stamp == 0 {
                    continue;
                }
                let (entry, max_stamp) = merged.entry(raw as u64).or_default();
                entry.matched += matched;
                entry.won_permit += won_permit;
                entry.won_deny += won_deny;
                *max_stamp = (*max_stamp).max(stamp);
            }
        }
        RuleHeatSnapshot {
            rules: merged
                .into_iter()
                .map(|(raw, (mut entry, stamp))| {
                    entry.last_fired_generation = stamp.checked_sub(1);
                    (raw, entry)
                })
                .collect(),
            decisions: self.decision_count(),
            resets: self.reset_count(),
        }
    }
}

/// One rule's accumulated heat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleHeatEntry {
    /// Times the rule was applicable.
    pub matched: u64,
    /// Times the rule won with a permit effect.
    pub won_permit: u64,
    /// Times the rule won with a deny effect.
    pub won_deny: u64,
    /// Policy generation of the rule's most recent firing (`None` =
    /// never fired).
    pub last_fired_generation: Option<u64>,
}

impl RuleHeatEntry {
    /// Total wins (either effect).
    #[must_use]
    pub fn won(&self) -> u64 {
        self.won_permit + self.won_deny
    }
}

/// A point-in-time copy of a [`RuleHeat`] table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleHeatSnapshot {
    /// Raw rule id → accumulated heat (rules that never fired are
    /// absent).
    pub rules: BTreeMap<u64, RuleHeatEntry>,
    /// Total decisions folded into the table.
    pub decisions: u64,
    /// Times the table has been reset.
    pub resets: u64,
}

impl RuleHeatSnapshot {
    /// Heat for one rule (zeros if absent from the snapshot).
    #[must_use]
    pub fn get(&self, raw_rule: u64) -> RuleHeatEntry {
        self.rules.get(&raw_rule).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_matches_wins_and_generations() {
        let heat = RuleHeat::new();
        heat.record_decision([0, 2], Some(2), true, 7);
        heat.record_decision([2], Some(2), false, 9);
        heat.record_decision([1], None, false, 9);
        let snap = heat.snapshot();
        if ENABLED {
            assert_eq!(snap.decisions, 3);
            assert_eq!(snap.get(0).matched, 1);
            assert_eq!(snap.get(0).won(), 0);
            assert_eq!(snap.get(0).last_fired_generation, Some(7));
            assert_eq!(snap.get(2).matched, 2);
            assert_eq!(snap.get(2).won_permit, 1);
            assert_eq!(snap.get(2).won_deny, 1);
            assert_eq!(snap.get(2).last_fired_generation, Some(9));
            assert_eq!(snap.get(1).matched, 1);
            assert_eq!(snap.get(5).matched, 0);
            assert_eq!(snap.get(5).last_fired_generation, None);
            assert_eq!(heat.get(2), snap.get(2));
        } else {
            assert!(snap.rules.is_empty());
        }
    }

    #[test]
    fn generation_zero_is_distinguishable_from_never() {
        let heat = RuleHeat::new();
        heat.record_decision([3], Some(3), true, 0);
        if ENABLED {
            assert_eq!(heat.get(3).last_fired_generation, Some(0));
        }
        assert_eq!(heat.get(4).last_fired_generation, None);
    }

    #[test]
    fn runtime_disable_stops_recording() {
        let heat = RuleHeat::new();
        heat.set_enabled(false);
        assert!(!heat.is_enabled());
        heat.record_decision([0], Some(0), true, 1);
        assert_eq!(heat.snapshot().decisions, 0);
        heat.set_enabled(true);
        heat.record_decision([0], Some(0), true, 1);
        if ENABLED {
            assert_eq!(heat.snapshot().decisions, 1);
        }
    }

    #[test]
    fn reset_zeroes_but_counts() {
        let heat = RuleHeat::new();
        heat.reserve(4);
        heat.record_decision([1], Some(1), true, 5);
        heat.reset();
        assert_eq!(heat.reset_count(), 1);
        assert_eq!(heat.decision_count(), 0);
        assert_eq!(heat.get(1), RuleHeatEntry::default());
        assert!(heat.snapshot().rules.is_empty());
    }

    #[test]
    fn concurrent_writers_land_in_shards_and_merge() {
        let heat = std::sync::Arc::new(RuleHeat::new());
        heat.reserve(8);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let heat = std::sync::Arc::clone(&heat);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        heat.record_decision([0, 1], Some(1), true, 3);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let snap = heat.snapshot();
        if ENABLED {
            assert_eq!(snap.decisions, 1_000);
            assert_eq!(snap.get(0).matched, 1_000);
            assert_eq!(snap.get(1).matched, 1_000);
            assert_eq!(snap.get(1).won_permit, 1_000);
            assert_eq!(snap.get(1).last_fired_generation, Some(3));
        }
    }
}
