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
//! a dense `Vec` of atomic cells indexed by *slot* — the read lock is
//! uncontended in steady state and the write lock is taken only when
//! the tables widen — mirroring the
//! [`KeyedCounter`](super::KeyedCounter) idiom. Readers sum across
//! shards.
//!
//! Each live rule holds one slot. The engine claims a slot for a rule
//! when it adds the rule and releases it when it removes the rule: the
//! rule leaves the table at once, and the slot's counters are zeroed,
//! with a batch of other released slots, before another rule reuses
//! it. So the tables stay within 32 slots of the most rules ever live
//! at once, however many rule ids were minted. The engine keeps each rule's slot
//! beside its policy position, so a decision's heat goes straight to
//! its slots; readers ([`RuleHeat::get`], [`RuleHeat::snapshot`]) still
//! key by raw [`RuleId`], summing the slots that engines sharing the
//! table hold for one rule id.
//!
//! Heat can be disabled at runtime ([`RuleHeat::set_enabled`]) so the
//! overhead experiment (E13) can measure the tracking cost against an
//! otherwise identical engine; under the `telemetry-off` feature every
//! update compiles to a no-op like the rest of the registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// One shard: a dense table of cells indexed by slot.
#[derive(Debug, Default)]
struct Shard {
    cells: RwLock<Vec<HeatCell>>,
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, Vec<HeatCell>> {
        self.cells
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl HeatCell {
    fn zero(&self) {
        self.matched.store(0, Ordering::Relaxed);
        self.won_permit.store(0, Ordering::Relaxed);
        self.won_deny.store(0, Ordering::Relaxed);
        self.last_gen.store(0, Ordering::Relaxed);
    }
}

/// Released slots zeroed together, so a removal does not visit every
/// shard: the tables hold at most this many slots beyond the most rules
/// ever live at once.
const RETIRE_BATCH: usize = 32;

/// Which rule holds each slot.
#[derive(Debug, Default)]
struct Slots {
    /// The raw rule id holding each slot; `None` for a free slot.
    owners: Vec<Option<u64>>,
    /// Zeroed free slots, reused before the tables grow.
    free: Vec<u32>,
    /// Released slots whose counters are not zeroed yet.
    retired: Vec<u32>,
    /// Cells every shard holds; only widened under this lock.
    widened: usize,
}

/// Sharded per-rule heat counters (see the module docs).
///
/// Lives inside the [`MetricsRegistry`](super::MetricsRegistry), so
/// engine clones and `decide_batch` workers share one table the same
/// way they share every other counter.
#[derive(Debug)]
pub struct RuleHeat {
    shards: [Shard; SHARDS],
    slots: RwLock<Slots>,
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
            slots: RwLock::default(),
            enabled: AtomicBool::new(true),
            resets: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    fn slots(&self) -> RwLockReadGuard<'_, Slots> {
        self.slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn slots_mut(&self) -> RwLockWriteGuard<'_, Slots> {
        self.slots
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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

    /// Slots in the tables: at most 32 more than the most rules that
    /// were ever live at once (plus any ids recorded
    /// through [`Self::record_decision`] alone), not the number of rule
    /// ids ever minted.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots().owners.len()
    }

    /// A free slot for rule `raw_rule`, each slot held by one rule of
    /// one engine: a zeroed free slot, else a batch of retired slots
    /// zeroed at once, else a new slot. Returns 0 without bookkeeping
    /// under `telemetry-off`.
    pub(crate) fn claim(&self, raw_rule: u64) -> u32 {
        if !ENABLED {
            return 0;
        }
        let mut slots = self.slots_mut();
        let slot = self.take_slot(&mut slots, raw_rule);
        self.widen(&mut slots);
        slot
    }

    /// [`Self::claim`] for each of `raw_rules`, in order, under one
    /// lock and widening every shard at most once.
    pub(crate) fn claim_all(&self, raw_rules: impl IntoIterator<Item = u64>) -> Vec<u32> {
        let raw_rules = raw_rules.into_iter();
        if !ENABLED {
            return raw_rules.map(|_| 0).collect();
        }
        let mut slots = self.slots_mut();
        let claimed = raw_rules
            .map(|raw| self.take_slot(&mut slots, raw))
            .collect();
        self.widen(&mut slots);
        claimed
    }

    fn take_slot(&self, slots: &mut Slots, raw_rule: u64) -> u32 {
        if slots.free.is_empty() && slots.retired.len() >= RETIRE_BATCH {
            for shard in &self.shards {
                let cells = shard.read();
                for &slot in &slots.retired {
                    if let Some(cell) = cells.get(slot as usize) {
                        cell.zero();
                    }
                }
            }
            // The lists trade buffers, so steady churn allocates nothing.
            let Slots { free, retired, .. } = slots;
            std::mem::swap(free, retired);
        }
        let slot = slots.free.pop().unwrap_or_else(|| {
            slots.owners.push(None);
            u32::try_from(slots.owners.len() - 1).expect("fewer than 2^32 live rules")
        });
        slots.owners[slot as usize] = Some(raw_rule);
        slot
    }

    /// Gives every shard a cell per slot.
    fn widen(&self, slots: &mut Slots) {
        let len = slots.owners.len();
        if len > slots.widened {
            for shard in &self.shards {
                shard
                    .cells
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .resize_with(len, HeatCell::default);
            }
            slots.widened = len;
        }
    }

    /// Frees `slot`: its rule leaves [`Self::snapshot`] and
    /// [`Self::get`] at once, and the slot's counters are zeroed, with
    /// a batch of other released slots, before another rule reuses it.
    pub(crate) fn release(&self, slot: u32) {
        if !ENABLED {
            return;
        }
        let mut slots = self.slots_mut();
        if let Some(owner @ Some(_)) = slots.owners.get_mut(slot as usize) {
            *owner = None;
            slots.retired.push(slot);
        }
    }

    /// Zeroes every counter (the slot tables keep their size). Bumps
    /// [`Self::reset_count`] so downstream reports can annotate the
    /// wipe.
    pub fn reset(&self) {
        for shard in &self.shards {
            for cell in shard.read().iter() {
                cell.zero();
            }
        }
        self.decisions.store(0, Ordering::Relaxed);
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one decision into the table: every applicable rule gets a
    /// match, the winner (if any) gets a win under its effect, and both
    /// stamp the policy generation they fired under. `winner_permit`
    /// is ignored when `winner` is `None` (default-effect decision).
    ///
    /// Rules are named by raw id, each recorded in the first slot that
    /// rule holds (claimed the first time). The engine records through
    /// the slots it keeps instead.
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
        let slot_of = |raw: u64| {
            let held = self
                .slots()
                .owners
                .iter()
                .position(|&owner| owner == Some(raw));
            held.map_or_else(|| self.claim(raw), |slot| slot as u32)
        };
        // Every slot is found or claimed before `record_slots` takes a
        // shard's read lock: a claim may widen, which write-locks every
        // shard.
        let matched: Vec<u32> = matched.into_iter().map(slot_of).collect();
        let winner = winner.map(slot_of);
        self.record_slots(matched, winner, winner_permit, generation);
    }

    /// [`Self::record_decision`] for rules named by their claimed
    /// slots: the decide path, with no directory lookup and one read
    /// lock of the thread's shard for the whole decision. `matched`
    /// must not claim slots while it is iterated.
    pub(crate) fn record_slots(
        &self,
        matched: impl IntoIterator<Item = u32>,
        winner: Option<u32>,
        winner_permit: bool,
        generation: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let stamp = generation.wrapping_add(1).max(1);
        {
            let cells = self.shards[thread_id() as usize % SHARDS].read();
            // Slots come from `claim`, which widens every shard first.
            for slot in matched {
                if let Some(cell) = cells.get(slot as usize) {
                    cell.matched.fetch_add(1, Ordering::Relaxed);
                    // The stamp rarely moves: skip the read-modify-write
                    // unless it would.
                    if cell.last_gen.load(Ordering::Relaxed) < stamp {
                        cell.last_gen.fetch_max(stamp, Ordering::Relaxed);
                    }
                }
            }
            if let Some(cell) = winner.and_then(|slot| cells.get(slot as usize)) {
                if winner_permit {
                    cell.won_permit.fetch_add(1, Ordering::Relaxed);
                } else {
                    cell.won_deny.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.decisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Heat for one rule (zeros if it never fired or holds no slot),
    /// summed across shards and across the slots it holds (one per
    /// engine that shares this table).
    #[must_use]
    pub fn get(&self, raw_rule: u64) -> RuleHeatEntry {
        let slots = self.slots();
        let mut entry = RuleHeatEntry::default();
        let mut stamp = 0u64;
        for shard in &self.shards {
            let cells = shard.read();
            for (cell, &owner) in cells.iter().zip(&slots.owners) {
                if owner == Some(raw_rule) {
                    entry.matched += cell.matched.load(Ordering::Relaxed);
                    entry.won_permit += cell.won_permit.load(Ordering::Relaxed);
                    entry.won_deny += cell.won_deny.load(Ordering::Relaxed);
                    stamp = stamp.max(cell.last_gen.load(Ordering::Relaxed));
                }
            }
        }
        entry.last_fired_generation = stamp.checked_sub(1);
        entry
    }

    /// A point-in-time merge of all shards: every rule holding a slot
    /// with any heat, keyed by raw rule id, plus the table-level
    /// accumulators.
    #[must_use]
    pub fn snapshot(&self) -> RuleHeatSnapshot {
        let slots = self.slots();
        let mut merged: BTreeMap<u64, (RuleHeatEntry, u64)> = BTreeMap::new();
        for shard in &self.shards {
            for (cell, owner) in shard.read().iter().zip(&slots.owners) {
                let Some(raw) = *owner else {
                    continue;
                };
                let matched = cell.matched.load(Ordering::Relaxed);
                let won_permit = cell.won_permit.load(Ordering::Relaxed);
                let won_deny = cell.won_deny.load(Ordering::Relaxed);
                let stamp = cell.last_gen.load(Ordering::Relaxed);
                if matched == 0 && won_permit == 0 && won_deny == 0 && stamp == 0 {
                    continue;
                }
                let (entry, max_stamp) = merged.entry(raw).or_default();
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
        heat.record_decision([1], Some(1), true, 5);
        heat.reset();
        assert_eq!(heat.reset_count(), 1);
        assert_eq!(heat.decision_count(), 0);
        assert_eq!(heat.get(1), RuleHeatEntry::default());
        assert!(heat.snapshot().rules.is_empty());
    }

    #[test]
    fn released_slots_leave_the_table_and_are_reused() {
        let heat = RuleHeat::new();
        let slots = heat.claim_all(10..14);
        heat.record_slots([slots[0], slots[2]], Some(slots[2]), false, 4);
        heat.release(slots[2]);
        if !ENABLED {
            assert_eq!(slots, vec![0; 4]);
            assert_eq!(heat.slot_count(), 0);
            return;
        }
        assert_eq!(slots, vec![0, 1, 2, 3]);
        // Rule 12 left the table at once; its slot waits for a batch.
        assert_eq!(heat.get(12), RuleHeatEntry::default());
        let snap = heat.snapshot();
        assert_eq!(snap.rules.keys().copied().collect::<Vec<_>>(), vec![10]);
        assert_eq!(snap.decisions, 1);
        assert_eq!(heat.claim(14), 4);
        // A full batch of released slots is zeroed and reused before
        // the tables grow again.
        let batch = heat.claim_all(100..100 + RETIRE_BATCH as u64);
        for slot in &batch {
            heat.release(*slot);
        }
        let reused = heat.claim_all([200, 201]);
        assert_eq!(heat.slot_count(), 5 + RETIRE_BATCH);
        assert!(reused.iter().all(|&slot| slot == 2 || slot >= 5));
        heat.record_slots(reused.clone(), None, false, 5);
        assert_eq!(heat.get(200).matched, 1);
        assert_eq!(heat.get(200).won(), 0);
        assert_eq!(heat.get(201).matched, 1);
        // Two slots held for one rule id (two engines sharing the
        // table) read as one rule.
        let again = heat.claim(10);
        heat.record_slots([again], Some(again), true, 6);
        let entry = heat.get(10);
        assert_eq!((entry.matched, entry.won_permit), (2, 1));
        assert_eq!(entry.last_fired_generation, Some(6));
        assert_eq!(heat.snapshot().get(10), entry);
    }

    #[test]
    fn concurrent_writers_land_in_shards_and_merge() {
        let heat = std::sync::Arc::new(RuleHeat::new());
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
