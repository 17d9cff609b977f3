//! Compiled mediation index: precomputed role closures, bitset rule
//! postings, and cached entity expansions.
//!
//! [`Grbac::decide`](crate::engine::Grbac::decide) answers each request
//! by (1) hierarchy-expanding the requester's, object's and
//! environment's role sets and (2) scanning the policy for applicable
//! rules. Done naively — breadth-first searches per expansion, a full
//! rule scan per request — mediation cost grows with policy size even
//! when almost no rule can apply (the Aware Home's policy mentions
//! `use` rules when the request is `unlock`). This module compiles the
//! engine's slow-moving state into flat lookup structures so the
//! per-request path touches only candidate rules and never re-walks
//! the hierarchy:
//!
//! * [`RoleClosures`] — per-role upward-closure **bitsets** over the
//!   dense role-id space, plus sorted `(ancestor, distance)` rows that
//!   answer [`distance_up`](crate::hierarchy::RoleHierarchy::distance_up)
//!   queries by binary search instead of BFS;
//! * [`RuleIndex`] — rule postings, bitsets over policy positions: a
//!   *closure* row per role (the rules naming that role, or a role it
//!   specializes, as subject or object role), a row per transaction,
//!   and a row per `Any` wildcard. Because a role's row already holds
//!   what its generalizations are authorized for, a request's
//!   candidates are `(t | t_any) & (s | s_any) & (o | o_any)` over its
//!   transaction's rows and the rows of its *direct* subject and object
//!   roles, computed for every word in one loop over equal-length
//!   slices into a scratch row — [`RuleIndex::candidates`], with no
//!   per-request union over the expanded roles — whose set bits are
//!   then walked in ascending position so conflict resolution sees the
//!   same sequence the naive scan produces;
//! * [`CachedExpansion`] — the direct and the hierarchy-expanded role
//!   set, both [`RoleSet`] bitsets, of every assigned subject and
//!   object, in an [`ExpansionTable`] indexed by raw id (the catalogs
//!   mint subject and object ids densely). A request's environment is
//!   expanded the same way, by ORing the closure rows of its active
//!   roles into a [`RoleSet`].
//!
//! The index is **derived state**: it is maintained lazily (behind
//! [`IndexCell`]) whenever the engine's generation counter says roles,
//! assignments or rules changed, is skipped by serialization, and must
//! never influence a decision — `tests/prop_index.rs` holds the engine
//! to that by comparing every compiled decision against the retained
//! naive scan.
//!
//! # Incremental maintenance
//!
//! The index is split into four independently `Arc`'d shards —
//! closures, rule postings, subject expansions, object expansions.
//! An edit resets the [`IndexCell`], which moves the current index
//! aside; when the engine's [`DeltaLog`](crate::delta::DeltaLog) still
//! covers the gap between that retired index's generation and the
//! current one, [`CompiledIndex::apply_deltas`] builds the next index
//! by cloning and patching only the shards a delta touches and
//! `Arc`-sharing the rest, and the advance drops the retired index. A
//! decide borrows the installed index for its whole run; an edit needs
//! `&mut` on the engine, so none runs beside a decide, and no decide
//! observes a torn shard. Edge inserts
//! frontier-propagate (the edge's lower endpoint plus all its
//! specializations recompute their closure rows, and OR their
//! postings rows over their new closures, copying the postings only
//! when that adds a posting); past a damage threshold —
//! or when the dense role space outgrows its bitset word budget — the
//! planner falls back to a full rebuild. Rule edits patch the postings
//! in one buffer copy, whose row width follows the rule count across
//! multiples of 64: an add sets its bit in the rows of the roles it
//! names and of their specializations, a remove shifts its bit out of
//! every row.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::assignment::Assignments;
use crate::delta::PolicyDelta;
use crate::hierarchy::RoleHierarchy;
use crate::id::{ObjectId, RoleId, SubjectId, TransactionId};
use crate::role::RoleCatalog;
use crate::roleset::{RoleSet, SetBits};
use crate::rule::{RoleSpec, Rule, TransactionSpec};
use crate::telemetry::MetricsRegistry;

/// Precomputed upward closures and pairwise upward distances for every
/// declared role, laid out over the dense role-id space (role ids are
/// allocated sequentially and never retired, so `id.as_raw()` doubles
/// as a dense index).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoleClosures {
    role_count: usize,
    /// Words per bitset row.
    words: usize,
    /// `role_count` rows of `words` words; row `r` holds closure(r).
    closure_bits: Vec<u64>,
    /// Row `r`: `(ancestor_raw, distance)` sorted by ancestor id.
    /// Always contains `(r, 0)` — a role is in its own closure.
    ancestors: Vec<Vec<(u32, u32)>>,
}

/// BFS upward from `role`, recording the shortest distance to each
/// ancestor — the same walk [`RoleHierarchy::distance_up`] does per
/// query, performed once per (re)compiled closure row. Returns the
/// `(ancestor_raw, distance)` row sorted by ancestor id.
fn upward_row(hierarchy: &RoleHierarchy, role: RoleId) -> Vec<(u32, u32)> {
    let mut dist: HashMap<RoleId, u32> = HashMap::new();
    dist.insert(role, 0);
    let mut frontier = VecDeque::from([role]);
    while let Some(current) = frontier.pop_front() {
        let next = dist[&current] + 1;
        for general in hierarchy.direct_generalizations(current) {
            dist.entry(general).or_insert_with(|| {
                frontier.push_back(general);
                next
            });
        }
    }
    let mut row: Vec<(u32, u32)> = dist
        .into_iter()
        .map(|(ancestor, d)| (ancestor.as_raw() as u32, d))
        .collect();
    row.sort_unstable();
    row
}

impl RoleClosures {
    fn build(catalog: &RoleCatalog) -> Self {
        let role_count = catalog
            .iter()
            .map(|role| role.id().as_raw() as usize + 1)
            .max()
            .unwrap_or(0);
        let words = role_count.div_ceil(64);
        let mut closures = Self {
            role_count,
            words,
            closure_bits: vec![0u64; role_count * words],
            ancestors: vec![Vec::new(); role_count],
        };
        for role in catalog.iter() {
            closures.set_row(
                role.id().as_raw() as usize,
                upward_row(catalog.hierarchy(role.kind()), role.id()),
            );
        }
        closures
    }

    /// The closure bitset of dense role `raw`.
    fn closure_row(&self, raw: usize) -> &[u64] {
        &self.closure_bits[raw * self.words..(raw + 1) * self.words]
    }

    /// Installs a freshly-derived ancestor row, rewriting the role's
    /// closure bitset to match.
    fn set_row(&mut self, raw: usize, row: Vec<(u32, u32)>) {
        let bits = &mut self.closure_bits[raw * self.words..(raw + 1) * self.words];
        bits.fill(0);
        for &(ancestor, _) in &row {
            bits[ancestor as usize / 64] |= 1 << (ancestor % 64);
        }
        self.ancestors[raw] = row;
    }

    /// Grows the dense role space to `role_count` slots, each new slot
    /// seeded with its reflexive closure (a fresh role has no edges).
    /// Returns `false` when growth would widen the bitset rows — every
    /// row and mask in the index would need re-laying, which is a full
    /// rebuild's job.
    fn try_extend(&mut self, role_count: usize) -> bool {
        if role_count <= self.role_count {
            return true;
        }
        if role_count.div_ceil(64) != self.words {
            return false;
        }
        self.closure_bits.resize(role_count * self.words, 0);
        self.ancestors.resize(role_count, Vec::new());
        for raw in self.role_count..role_count {
            self.set_row(raw, vec![(raw as u32, 0)]);
        }
        self.role_count = role_count;
        true
    }

    /// Recomputes the closure rows of `dirty` from the current catalog
    /// — the frontier-propagation step of an edge-insert delta, run on
    /// the edge's lower endpoint and all its specializations.
    fn recompute_rows(&mut self, catalog: &RoleCatalog, dirty: &BTreeSet<RoleId>) {
        for &role in dirty {
            let Ok(entry) = catalog.role(role) else {
                continue;
            };
            if !self.is_declared(role) {
                continue;
            }
            self.set_row(
                role.as_raw() as usize,
                upward_row(catalog.hierarchy(entry.kind()), role),
            );
        }
    }

    /// Number of dense role slots (max raw id + 1 at build time).
    pub(crate) fn role_count(&self) -> usize {
        self.role_count
    }

    /// Words per bitset row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// True if `role` was declared at build time. Role ids are
    /// allocated densely with no retirement, so this is a bound check.
    pub(crate) fn is_declared(&self, role: RoleId) -> bool {
        (role.as_raw() as usize) < self.role_count
    }

    /// Members of `role`'s upward closure (the role itself included),
    /// in ascending id order; empty for undeclared roles.
    pub(crate) fn closure_members(&self, role: RoleId) -> impl Iterator<Item = RoleId> + '_ {
        let row: &[(u32, u32)] = if self.is_declared(role) {
            &self.ancestors[role.as_raw() as usize]
        } else {
            &[]
        };
        row.iter().map(|&(raw, _)| RoleId::from_raw(u64::from(raw)))
    }

    /// Shortest upward distance from `specific` to `general`;
    /// `Some(0)` when equal, `None` when unrelated or undeclared.
    pub(crate) fn distance_up(&self, specific: RoleId, general: RoleId) -> Option<usize> {
        if !self.is_declared(specific) {
            return None;
        }
        let row = &self.ancestors[specific.as_raw() as usize];
        let target = general.as_raw() as u32;
        row.binary_search_by_key(&target, |&(ancestor, _)| ancestor)
            .ok()
            .map(|i| row[i].1 as usize)
    }

    /// Shortest upward distance from any role in `direct` to `target`
    /// (`usize::MAX` when unrelated), mirroring the naive
    /// `min_distance` helper.
    pub(crate) fn min_distance(&self, direct: &RoleSet, target: RoleId) -> usize {
        direct
            .iter()
            .filter_map(|held| self.distance_up(held, target))
            .min()
            .unwrap_or(usize::MAX)
    }

    /// Raw ids of the declared roles whose closure holds `general`:
    /// the role itself and every role that specializes it. One bit
    /// test per declared role.
    fn specializations(&self, general: RoleId) -> impl Iterator<Item = usize> + '_ {
        let raw = general.as_raw() as usize;
        let declared = if self.is_declared(general) {
            self.role_count
        } else {
            0
        };
        (0..declared).filter(move |&role| {
            self.closure_bits[role * self.words + raw / 64] & (1 << (raw % 64)) != 0
        })
    }

    /// Hierarchy-expands `roles`, skipping undeclared ids: the closure
    /// rows of the declared ones ORed into one set. This is the
    /// per-request environment expansion.
    pub(crate) fn expand_roles(&self, roles: impl IntoIterator<Item = RoleId>) -> RoleSet {
        let mut expanded = RoleSet::new();
        for role in roles {
            if self.is_declared(role) {
                expanded.union_words(self.closure_row(role.as_raw() as usize));
            }
        }
        expanded
    }

    /// The declared roles of `roles` and their hierarchy expansion,
    /// skipping undeclared ids exactly like
    /// [`RoleCatalog::expand`](crate::role::RoleCatalog::expand).
    pub(crate) fn expand(&self, roles: impl IntoIterator<Item = RoleId>) -> CachedExpansion {
        let direct: RoleSet = roles
            .into_iter()
            .filter(|&role| self.is_declared(role))
            .collect();
        let expanded = self.expand_roles(direct.iter());
        CachedExpansion { direct, expanded }
    }
}

/// A role set with its hierarchy expansion, both as bitsets over the
/// dense role space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CachedExpansion {
    /// The direct (unexpanded) roles.
    pub(crate) direct: RoleSet,
    /// The upward closure of `direct`.
    pub(crate) expanded: RoleSet,
}

/// The expansion of an entity with no assignments, so lookups are
/// infallible.
static NO_ROLES: CachedExpansion = CachedExpansion {
    direct: RoleSet::new(),
    expanded: RoleSet::new(),
};

/// Cached expansions indexed by raw subject or object id: catalogs mint
/// those ids densely, so a lookup is one bounds-checked read.
///
/// Slot `id` holds an expansion iff the assignments track entity `id`,
/// even when every direct role has since been revoked, and the table
/// ends at its last held slot, so a patched table equals a fresh build.
/// Any other id, past the end included, reads the empty expansion.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ExpansionTable(Vec<Option<CachedExpansion>>);

impl ExpansionTable {
    /// The expansion of entity `raw`; empty when none is held.
    pub(crate) fn get(&self, raw: u64) -> &CachedExpansion {
        usize::try_from(raw)
            .ok()
            .and_then(|slot| self.0.get(slot))
            .and_then(Option::as_ref)
            .unwrap_or(&NO_ROLES)
    }

    /// Holds `expansion` for entity `raw`, or clears its slot on `None`,
    /// growing the table to the slot and trimming empty slots off its
    /// end.
    fn set(&mut self, raw: u64, expansion: Option<CachedExpansion>) {
        let slot = usize::try_from(raw).expect("catalog ids fit the address space");
        if slot >= self.0.len() {
            if expansion.is_none() {
                return;
            }
            self.0.resize(slot + 1, None);
        }
        self.0[slot] = expansion;
        while self.0.last().is_some_and(Option::is_none) {
            self.0.pop();
        }
    }
}

impl FromIterator<(u64, CachedExpansion)> for ExpansionTable {
    fn from_iter<I: IntoIterator<Item = (u64, CachedExpansion)>>(entries: I) -> Self {
        let mut table = Self::default();
        for (raw, expansion) in entries {
            table.set(raw, Some(expansion));
        }
        table
    }
}

/// Row of the rules whose subject spec is `Any`.
const SUBJECT_ANY: usize = 0;
/// Row of the rules whose object spec is `Any`.
const OBJECT_ANY: usize = 1;
/// Row of the rules whose transaction spec is `Any`.
const TRANSACTION_ANY: usize = 2;
/// Row of dense role id 0. The role rows run on to the transaction
/// rows.
const FIRST_ROLE: usize = 3;

/// Rule postings: bitsets over policy positions, so that `decide`
/// visits only the rules whose subject, object and transaction specs
/// the request can meet.
///
/// Bit `p` of a row stands for the rule at policy position `p`. There
/// is one *closure* row per dense role id: the rules whose subject or
/// object role is that role or a role it specializes, so a holder of
/// the role meets every rule in its row. There is one wildcard row each
/// for subject, object and transaction `Any`, and one row per
/// transaction up to the highest raw transaction id a rule names. The
/// rows live in one flat row-major buffer of `⌈rules / 64⌉` words per
/// row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RuleIndex {
    /// Rules covered: the policy length.
    len: usize,
    /// Words per row, `⌈len / 64⌉`.
    words: usize,
    /// Role rows, one per dense role id.
    roles: usize,
    /// Transaction rows, one per raw transaction id below the highest
    /// one a rule names, plus that one.
    transactions: usize,
    /// The wildcard rows, then the role rows, then the transaction
    /// rows, `words` words each.
    rows: Vec<u64>,
}

impl RuleIndex {
    /// The postings of `rules` over the dense role space of `closures`:
    /// each rule's bit goes into the rows of the roles it names, then
    /// every role row takes in the rows of its closure.
    fn build(rules: &[Rule], closures: &RoleClosures) -> Self {
        let transactions = rules
            .iter()
            .filter_map(|rule| rule.transaction().transaction())
            .map(|t| t.as_raw() as usize + 1)
            .max()
            .unwrap_or(0);
        let words = rules.len().div_ceil(64);
        let roles = closures.role_count();
        let mut index = Self {
            len: rules.len(),
            words,
            roles,
            transactions,
            rows: vec![0; (FIRST_ROLE + roles + transactions) * words],
        };
        for (position, rule) in rules.iter().enumerate() {
            let rows = [
                index.role_row(rule.subject_role(), SUBJECT_ANY),
                index.role_row(rule.object_role(), OBJECT_ANY),
                index.transaction_row(rule.transaction()),
            ];
            for row in rows.into_iter().flatten() {
                index.set(row, position);
            }
        }
        for role in 0..roles {
            index.close_row(role, closures);
        }
        index
    }

    fn row_count(&self) -> usize {
        FIRST_ROLE + self.roles + self.transactions
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.rows[row * self.words..(row + 1) * self.words]
    }

    fn set(&mut self, row: usize, position: usize) {
        self.rows[row * self.words + position / 64] |= 1 << (position % 64);
    }

    /// The row of a subject or object spec; `any` is the side's
    /// wildcard row. `None` for a role outside the dense role space.
    fn role_row(&self, spec: RoleSpec, any: usize) -> Option<usize> {
        match spec {
            RoleSpec::Any => Some(any),
            RoleSpec::Is(role) => {
                let raw = role.as_raw() as usize;
                (raw < self.roles).then_some(FIRST_ROLE + raw)
            }
        }
    }

    /// The row of a transaction spec; `None` for a transaction no rule
    /// names.
    fn transaction_row(&self, spec: TransactionSpec) -> Option<usize> {
        match spec {
            TransactionSpec::Any => Some(TRANSACTION_ANY),
            TransactionSpec::Is(t) => {
                let raw = t.as_raw() as usize;
                (raw < self.transactions).then_some(FIRST_ROLE + self.roles + raw)
            }
        }
    }

    /// ORs into role `raw`'s row the rows of every role in its closure.
    /// When each row holds at least its own role's postings and at most
    /// its closure's, this leaves the row exactly the closure row,
    /// whichever rows were closed before it. Hierarchies only gain
    /// edges, so rows patched under an older closure stay within that
    /// bound.
    fn close_row(&mut self, raw: usize, closures: &RoleClosures) {
        let target = (FIRST_ROLE + raw) * self.words;
        for general in closures.closure_members(RoleId::from_raw(raw as u64)) {
            let source = (FIRST_ROLE + general.as_raw() as usize) * self.words;
            if source != target {
                for word in 0..self.words {
                    self.rows[target + word] |= self.rows[source + word];
                }
            }
        }
    }

    /// Marks the rule at `position` in the rows its specs name: the
    /// closure rows of the named roles and of every role specializing
    /// them. A rule naming a role outside the dense role space gets no
    /// bit on that side: no requester or object can hold such a role,
    /// so the rule can never apply.
    fn insert(
        &mut self,
        position: usize,
        (subject, object, transaction): (RoleSpec, RoleSpec, TransactionSpec),
        closures: &RoleClosures,
    ) {
        for (spec, any) in [(subject, SUBJECT_ANY), (object, OBJECT_ANY)] {
            match spec {
                RoleSpec::Any => self.set(any, position),
                RoleSpec::Is(role) => {
                    for raw in closures.specializations(role) {
                        self.set(FIRST_ROLE + raw, position);
                    }
                }
            }
        }
        if let Some(row) = self.transaction_row(transaction) {
            self.set(row, position);
        }
    }

    /// The postings after the rule edits in `deltas`, over the role
    /// space and hierarchy of `closures` (the patched closures), with
    /// the rows of the `dirty` roles re-closed; `None` when a rule
    /// delta does not line up with the policy length.
    ///
    /// The rows are copied once, into the widest shape the batch
    /// passes through; the edits are then replayed in schedule order
    /// (an add sets its bits, a remove shifts its bit out of every
    /// row). A batch that ends below its peak width narrows the copy in
    /// place, and transaction rows a removal emptied at the top are
    /// dropped, so the result equals a fresh build.
    fn patched(
        &self,
        deltas: &[PolicyDelta],
        closures: &RoleClosures,
        dirty: &BTreeSet<RoleId>,
    ) -> Option<Self> {
        let (mut len, mut peak, mut transactions) = (self.len, self.len, self.transactions);
        for delta in deltas {
            match *delta {
                PolicyDelta::RuleAdded {
                    position,
                    transaction,
                    ..
                } => {
                    if position as usize != len {
                        return None;
                    }
                    len += 1;
                    peak = peak.max(len);
                    if let TransactionSpec::Is(t) = transaction {
                        transactions = transactions.max(t.as_raw() as usize + 1);
                    }
                }
                PolicyDelta::RuleRemoved { position } => {
                    if position as usize >= len {
                        return None;
                    }
                    len -= 1;
                }
                _ => {}
            }
        }
        let mut next = self.relaid(peak.div_ceil(64), closures.role_count(), transactions);
        for delta in deltas {
            match *delta {
                PolicyDelta::RuleAdded {
                    position,
                    transaction,
                    subject,
                    object,
                } => next.insert(position as usize, (subject, object, transaction), closures),
                PolicyDelta::RuleRemoved { position } => {
                    for row in next.rows.chunks_exact_mut(next.words) {
                        remove_bit(row, position as usize);
                    }
                }
                _ => {}
            }
        }
        next.len = len;
        next.narrow(len.div_ceil(64));
        while next.transactions > 0 && next.row(next.row_count() - 1).iter().all(|&w| w == 0) {
            next.transactions -= 1;
        }
        next.rows.truncate(next.row_count() * next.words);
        for role in dirty {
            if closures.is_declared(*role) {
                next.close_row(role.as_raw() as usize, closures);
            }
        }
        Some(next)
    }

    /// True when the row of some role in `dirty` lacks postings that a
    /// role in its closure under `closures` has: only then does the
    /// edge insert that dirtied it change the postings.
    fn misses_closure_postings(&self, closures: &RoleClosures, dirty: &BTreeSet<RoleId>) -> bool {
        dirty.iter().any(|&role| {
            let Some(own) = self.role_row(RoleSpec::Is(role), SUBJECT_ANY) else {
                return false;
            };
            closures.closure_members(role).any(|general| {
                self.role_row(RoleSpec::Is(general), SUBJECT_ANY)
                    .is_some_and(|row| {
                        self.row(row)
                            .iter()
                            .zip(self.row(own))
                            .any(|(posted, held)| posted & !held != 0)
                    })
            })
        })
    }

    /// A copy with `words` words per row and room for `roles` role rows
    /// and `transactions` transaction rows, none of which may shrink.
    fn relaid(&self, words: usize, roles: usize, transactions: usize) -> Self {
        debug_assert!(words >= self.words && roles >= self.roles);
        debug_assert!(transactions >= self.transactions);
        let mut rows = Vec::with_capacity((FIRST_ROLE + roles + transactions) * words);
        let copy = |rows: &mut Vec<u64>, old: std::ops::Range<usize>| {
            for row in old {
                rows.extend_from_slice(self.row(row));
                rows.resize(rows.len() + words - self.words, 0);
            }
        };
        copy(&mut rows, 0..FIRST_ROLE + self.roles);
        rows.resize((FIRST_ROLE + roles) * words, 0);
        copy(&mut rows, FIRST_ROLE + self.roles..self.row_count());
        rows.resize((FIRST_ROLE + roles + transactions) * words, 0);
        Self {
            len: self.len,
            words,
            roles,
            transactions,
            rows,
        }
    }

    /// Drops the top words of every row, which must be clear, moving
    /// the rows down in place.
    fn narrow(&mut self, words: usize) {
        if words == self.words {
            return;
        }
        for row in 0..self.row_count() {
            let start = row * self.words;
            debug_assert!(self.rows[start + words..start + self.words]
                .iter()
                .all(|&w| w == 0));
            self.rows.copy_within(start..start + words, row * words);
        }
        self.rows.truncate(self.row_count() * words);
        self.words = words;
    }

    /// The positions of the rules that could apply to a request,
    /// ascending (policy order): (transaction row ∪ transaction `Any`)
    /// ∩ (closure rows of the direct `subject_roles` ∪ subject `Any`)
    /// ∩ (closure rows of the direct `object_roles` ∪ object `Any`).
    /// Environment guards and confidence thresholds are left to the
    /// caller's per-rule checks.
    ///
    /// The intersection is computed for every word in one loop into a
    /// row of `scratch`, whose set bits are then walked. A side with
    /// one direct role reads that role's row in place; a side with
    /// several ORs their rows into two more rows of `scratch`. The
    /// caller keeps `scratch` across walks, so a steady-state walk
    /// allocates nothing.
    pub(crate) fn candidates<'a>(
        &'a self,
        transaction: TransactionId,
        subject_roles: &RoleSet,
        object_roles: &RoleSet,
        scratch: &'a mut Vec<u64>,
    ) -> SetBits<'a> {
        scratch.resize(3 * self.words, 0);
        let (candidates, sides) = scratch.split_at_mut(self.words);
        let (subject_scratch, object_scratch) = sides.split_at_mut(self.words);
        let transaction_row = self
            .transaction_row(TransactionSpec::Is(transaction))
            .unwrap_or(TRANSACTION_ANY);
        intersect(
            candidates,
            [
                self.row(transaction_row),
                self.row(TRANSACTION_ANY),
                self.side(subject_roles, subject_scratch)
                    .unwrap_or(self.row(SUBJECT_ANY)),
                self.row(SUBJECT_ANY),
                self.side(object_roles, object_scratch)
                    .unwrap_or(self.row(OBJECT_ANY)),
                self.row(OBJECT_ANY),
            ],
        );
        SetBits::new(candidates)
    }

    /// The union of the closure rows of `roles`: one row read in place,
    /// or several ORed into `scratch`. `None` when no role has a row.
    fn side<'a>(&'a self, roles: &RoleSet, scratch: &'a mut [u64]) -> Option<&'a [u64]> {
        let mut rows = roles
            .iter()
            .filter_map(|role| self.role_row(RoleSpec::Is(role), SUBJECT_ANY));
        let first = rows.next()?;
        let Some(second) = rows.next() else {
            return Some(self.row(first));
        };
        scratch.copy_from_slice(self.row(first));
        for row in std::iter::once(second).chain(rows) {
            for (word, posted) in scratch.iter_mut().zip(self.row(row)) {
                *word |= posted;
            }
        }
        Some(scratch)
    }

    /// Rules per transaction row, the `Any` row included.
    fn transaction_row_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.transactions)
            .map(|t| FIRST_ROLE + self.roles + t)
            .chain([TRANSACTION_ANY])
            .map(|row| self.row(row).iter().map(|w| w.count_ones() as usize).sum())
    }

    /// Number of non-empty transaction rows, the `Any` row included.
    fn bucket_count(&self) -> usize {
        self.transaction_row_sizes()
            .filter(|&size| size > 0)
            .count()
    }

    /// Size of the largest transaction row.
    fn max_bucket(&self) -> usize {
        self.transaction_row_sizes().max().unwrap_or(0)
    }
}

/// Removes bit `position` from a bitset row: the bits above it move
/// down one place, across word boundaries, and the top bit clears.
fn remove_bit(row: &mut [u64], position: usize) {
    let (word, bit) = (position / 64, position % 64);
    let below = (1u64 << bit) - 1;
    row[word] = (row[word] & below) | ((row[word] >> 1) & !below);
    for i in word + 1..row.len() {
        row[i - 1] |= row[i] << 63;
        row[i] >>= 1;
    }
}

/// Writes `(t | t_any) & (s | s_any) & (o | o_any)` into `out`, word
/// by word; the six rows are as long as `out`. Every operand is cut to
/// one length first, so the loop runs without bounds checks.
fn intersect(out: &mut [u64], rows: [&[u64]; 6]) {
    let n = out.len();
    let [t, t_any, s, s_any, o, o_any] = rows.map(|row| &row[..n]);
    for i in 0..n {
        out[i] = (t[i] | t_any[i]) & (s[i] | s_any[i]) & (o[i] | o_any[i]);
    }
}

/// Everything `decide` needs that depends only on roles, assignments
/// and rules. The four shards are individually `Arc`'d so an
/// incremental advance clones and patches only the shards a delta
/// touches and shares the rest with the previous generation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledIndex {
    pub(crate) closures: Arc<RoleClosures>,
    pub(crate) rules: Arc<RuleIndex>,
    pub(crate) subjects: Arc<ExpansionTable>,
    pub(crate) objects: Arc<ExpansionTable>,
}

/// Past this many dirty closure rows, recomputing the affected region
/// stops beating a from-scratch rebuild (floor; scaled by role count
/// in [`CompiledIndex::apply_deltas`]).
const DAMAGE_FLOOR: usize = 8;

impl CompiledIndex {
    pub(crate) fn build(catalog: &RoleCatalog, assignments: &Assignments, rules: &[Rule]) -> Self {
        let closures = RoleClosures::build(catalog);
        let rule_index = RuleIndex::build(rules, &closures);
        let subjects = assignments
            .subjects_with_roles()
            .map(|(id, roles)| (id.as_raw(), closures.expand(roles.iter().copied())))
            .collect();
        let objects = assignments
            .objects_with_roles()
            .map(|(id, roles)| (id.as_raw(), closures.expand(roles.iter().copied())))
            .collect();
        Self {
            closures: Arc::new(closures),
            rules: Arc::new(rule_index),
            subjects: Arc::new(subjects),
            objects: Arc::new(objects),
        }
    }

    /// Builds the index for the current engine state by patching this
    /// (older-generation) index with `deltas`, touching only the
    /// affected shards. Returns `None` when a full rebuild is the
    /// better (or only safe) move: the dense role space outgrew its
    /// bitset word budget, the dirty closure region crossed the damage
    /// threshold, or a rule delta does not line up with this index.
    ///
    /// Region deltas recompute their targets from the *current*
    /// catalog/assignments, so replaying a batch converges to exactly
    /// the from-scratch index regardless of intra-batch ordering; rule
    /// deltas are positional and are replayed in schedule order.
    pub(crate) fn apply_deltas(
        &self,
        deltas: &[PolicyDelta],
        catalog: &RoleCatalog,
        assignments: &Assignments,
    ) -> Option<CompiledIndex> {
        // Plan: fold every delta into the dirty regions it invalidates.
        let mut required_roles = self.closures.role_count();
        let mut dirty_roles: BTreeSet<RoleId> = BTreeSet::new();
        let mut dirty_subjects: BTreeSet<SubjectId> = BTreeSet::new();
        let mut dirty_objects: BTreeSet<ObjectId> = BTreeSet::new();
        let mut rule_edits = false;
        for delta in deltas {
            match delta {
                PolicyDelta::RoleDeclared { role } => {
                    required_roles = required_roles.max(role.as_raw() as usize + 1);
                }
                PolicyDelta::EdgeAdded { kind, specific } => {
                    dirty_roles.extend(catalog.hierarchy(*kind).closure_dirty_region(*specific));
                }
                PolicyDelta::RuleAdded { .. } | PolicyDelta::RuleRemoved { .. } => {
                    rule_edits = true;
                }
                PolicyDelta::SubjectAssignment { subject } => {
                    dirty_subjects.insert(*subject);
                }
                PolicyDelta::ObjectAssignment { object } => {
                    dirty_objects.insert(*object);
                }
            }
        }
        if required_roles.div_ceil(64) != self.closures.words() {
            return None; // bitset rows would widen — full rebuild
        }
        if dirty_roles.len() > DAMAGE_FLOOR.max(required_roles / 4) {
            return None; // damage threshold: recompute would not pay
        }

        // Closures shard: extend the dense space, then re-derive the
        // dirty frontier from the current hierarchy.
        let closures = if required_roles > self.closures.role_count() || !dirty_roles.is_empty() {
            let mut next = RoleClosures::clone(&self.closures);
            if !next.try_extend(required_roles) {
                return None;
            }
            next.recompute_rows(catalog, &dirty_roles);
            Arc::new(next)
        } else {
            Arc::clone(&self.closures)
        };

        // A changed closure row invalidates the cached expansion of
        // every entity that *directly* holds the role.
        for &role in &dirty_roles {
            dirty_subjects.extend(assignments.subjects_in(role));
            dirty_objects.extend(assignments.objects_in(role));
        }

        let subjects = if dirty_subjects.is_empty() {
            Arc::clone(&self.subjects)
        } else {
            let mut next = ExpansionTable::clone(&self.subjects);
            for &subject in &dirty_subjects {
                // Mirror `build` exactly: a slot is held iff the
                // assignments map tracks the subject, even when every
                // direct role has since been revoked.
                next.set(
                    subject.as_raw(),
                    assignments
                        .subject_is_tracked(subject)
                        .then(|| closures.expand(assignments.subject_roles(subject))),
                );
            }
            Arc::new(next)
        };
        let objects = if dirty_objects.is_empty() {
            Arc::clone(&self.objects)
        } else {
            let mut next = ExpansionTable::clone(&self.objects);
            for &object in &dirty_objects {
                next.set(
                    object.as_raw(),
                    assignments
                        .object_is_tracked(object)
                        .then(|| closures.expand(assignments.object_roles(object))),
                );
            }
            Arc::new(next)
        };

        // Rule edits patch the postings, a grown role space adds empty
        // role rows, and the dirty roles' rows take in their new
        // closures when those add postings.
        let rules = if rule_edits
            || required_roles > self.rules.roles
            || self.rules.misses_closure_postings(&closures, &dirty_roles)
        {
            Arc::new(self.rules.patched(deltas, &closures, &dirty_roles)?)
        } else {
            Arc::clone(&self.rules)
        };

        Some(CompiledIndex {
            closures,
            rules,
            subjects,
            objects,
        })
    }

    /// The cached expansion of a subject's authorized role set.
    pub(crate) fn subject(&self, id: SubjectId) -> &CachedExpansion {
        self.subjects.get(id.as_raw())
    }

    /// The cached expansion of an object's role set.
    pub(crate) fn object(&self, id: ObjectId) -> &CachedExpansion {
        self.objects.get(id.as_raw())
    }

    /// Publishes the index's shape into the registry's gauges.
    fn publish_shape(&self, metrics: &MetricsRegistry) {
        metrics.index_roles.set(self.closures.role_count() as u64);
        metrics
            .index_rule_buckets
            .set(self.rules.bucket_count() as u64);
        metrics.index_max_bucket.set(self.rules.max_bucket() as u64);
    }
}

/// How an [`IndexCell`] advance produced the next index.
pub(crate) enum Advance {
    /// Built from scratch (cold cell, trimmed delta history, widened
    /// bitsets, or damage past the planner's threshold).
    Rebuilt(CompiledIndex),
    /// Patched incrementally from the previous generation's shards;
    /// the planner has already counted the applied deltas.
    Patched(CompiledIndex),
}

/// Lazily-maintained holder of the current generation's
/// [`CompiledIndex`].
///
/// The engine resets the cell in every `&mut self` method that touches
/// roles, assignments or rules, and bumps its generation with it;
/// `decide` (`&self`) asks the cell for the index and advances it when
/// the current slot is empty — incrementally from the index the last
/// reset retired when the delta log allows, from scratch otherwise.
/// A decide borrows the index it gets for as long as it runs: the
/// borrow checker keeps every mutation, which needs `&mut`, from
/// running beside it, so no decide ever sees the index move and none
/// pays a lock or a reference count to hold it. The `OnceLock` builds
/// at most once per generation however many deciders race for it, and
/// `decide_batch` workers share the one borrow.
pub(crate) struct IndexCell {
    /// The index of the current generation, with the generation it was
    /// built for; empty until the first decide after a reset.
    current: OnceLock<(u64, CompiledIndex)>,
    /// The index the last reset retired, kept for the next advance to
    /// patch from. The advance takes it and drops it, so an edit only
    /// moves it here and never pays for freeing its shards.
    stale: Mutex<Option<(u64, CompiledIndex)>>,
}

impl IndexCell {
    /// Returns the index for `generation`, advancing it at most once
    /// per generation under contention. `advance` receives the index
    /// the last [`reset`](Self::reset) retired, with the generation it
    /// was built for, to patch from.
    ///
    /// Decides served by an index that was already built — the
    /// deciders that waited for a racing advance among them — count
    /// into `index_cache_hits`; every install counts into
    /// `index_rebuilds`, split into `index_full_rebuilds` plus
    /// `index_rebuild_ns` (from-scratch) and `index_delta_applied`
    /// plus `index_delta_apply_ns` (incremental).
    pub(crate) fn get_or_advance(
        &self,
        generation: u64,
        metrics: &MetricsRegistry,
        advance: impl FnOnce(Option<(u64, &CompiledIndex)>) -> Advance,
    ) -> &CompiledIndex {
        let mut installed = false;
        let (built_for, index) = self.current.get_or_init(|| {
            installed = true;
            let stale = self.stale().take();
            let started = std::time::Instant::now();
            let (index, patched) = match advance(stale.as_ref().map(|(g, index)| (*g, index))) {
                Advance::Patched(next) => (next, true),
                Advance::Rebuilt(next) => (next, false),
            };
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // The retired index goes here, on the decide that replaces
            // it, and not in the edit that retired it.
            drop(stale);
            metrics.index_rebuilds.inc();
            if patched {
                metrics.index_delta_apply_ns.observe(elapsed);
            } else {
                metrics.index_full_rebuilds.inc();
                metrics.index_rebuild_ns.add(elapsed);
            }
            index.publish_shape(metrics);
            metrics
                .events
                .publish(crate::telemetry::EventData::DeltaApplied {
                    generation,
                    patched,
                    install_ns: elapsed,
                });
            (generation, index)
        });
        debug_assert_eq!(
            *built_for, generation,
            "every generation bump resets the cell"
        );
        if !installed {
            metrics.index_cache_hits.inc();
        }
        index
    }

    /// Retires the current index, if one was built, for the next
    /// advance to patch from: a move, so the edit that calls this pays
    /// no drop. A cell reset again before any advance keeps the index
    /// it retired first; the delta log covers the gap from there.
    pub(crate) fn reset(&mut self) {
        if let Some(current) = self.current.take() {
            *self
                .stale
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(current);
        }
    }

    fn stale(&self) -> std::sync::MutexGuard<'_, Option<(u64, CompiledIndex)>> {
        self.stale
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for IndexCell {
    fn default() -> Self {
        Self {
            current: OnceLock::new(),
            stale: Mutex::new(None),
        }
    }
}

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        // The index is pure derived state keyed by generation, so the
        // clone shares its shards (and the retired index's, to patch
        // from) and skips a rebuild.
        Self {
            current: self.current.clone(),
            stale: Mutex::new(self.stale().clone()),
        }
    }
}

impl std::fmt::Debug for IndexCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let retired = self.stale().as_ref().map(|(generation, _)| *generation);
        let state = match (self.current.get(), retired) {
            (Some((generation, _)), _) => format!("built@{generation}"),
            (None, Some(generation)) => format!("retired@{generation}"),
            (None, None) => "empty".to_owned(),
        };
        f.debug_struct("IndexCell").field("state", &state).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::role::RoleKind;

    fn catalog_with_chain() -> (RoleCatalog, [RoleId; 4]) {
        let mut catalog = RoleCatalog::new();
        let home_user = catalog.declare("home_user", RoleKind::Subject).unwrap();
        let family = catalog.declare("family", RoleKind::Subject).unwrap();
        let parent = catalog.declare("parent", RoleKind::Subject).unwrap();
        let device = catalog.declare("device", RoleKind::Object).unwrap();
        catalog.specialize(family, home_user).unwrap();
        catalog.specialize(parent, family).unwrap();
        (catalog, [home_user, family, parent, device])
    }

    #[test]
    fn closures_match_catalog_expansion() {
        let (catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let closures = RoleClosures::build(&catalog);
        assert_eq!(closures.role_count(), 4);
        for role in [home_user, family, parent, device] {
            let expansion = closures.expand([role]);
            assert_eq!(
                expansion.expanded.iter().collect::<BTreeSet<_>>(),
                catalog.expand(&BTreeSet::from([role])),
                "closure mismatch for {role}"
            );
            assert_eq!(closures.expand_roles([role]), expansion.expanded);
        }
    }

    #[test]
    fn distances_match_hierarchy_bfs() {
        let (catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let closures = RoleClosures::build(&catalog);
        let hierarchy = catalog.hierarchy(RoleKind::Subject);
        for &a in &[home_user, family, parent] {
            for &b in &[home_user, family, parent] {
                assert_eq!(
                    closures.distance_up(a, b),
                    hierarchy.distance_up(a, b),
                    "distance mismatch {a} -> {b}"
                );
            }
        }
        assert_eq!(closures.distance_up(parent, parent), Some(0));
        assert_eq!(closures.distance_up(parent, home_user), Some(2));
        assert_eq!(closures.distance_up(home_user, parent), None);
        assert_eq!(closures.distance_up(device, home_user), None);
        assert_eq!(closures.distance_up(RoleId::from_raw(99), parent), None);
    }

    #[test]
    fn expansion_skips_undeclared_roles() {
        let (catalog, [_, family, ..]) = catalog_with_chain();
        let closures = RoleClosures::build(&catalog);
        let expansion = closures.expand([family, RoleId::from_raw(77)]);
        assert_eq!(expansion.direct, RoleSet::from_iter([family]));
        assert!(!expansion.expanded.contains(RoleId::from_raw(77)));
        assert_eq!(
            expansion.expanded.iter().collect::<BTreeSet<_>>(),
            catalog.expand(&BTreeSet::from([family, RoleId::from_raw(77)]))
        );
        assert_eq!(
            closures.expand_roles([family, RoleId::from_raw(77)]),
            expansion.expanded
        );
    }

    /// A row with every bit set below `len`.
    fn full_row(len: usize) -> Vec<u64> {
        let mut row = vec![0u64; len.div_ceil(64)];
        for position in 0..len {
            row[position / 64] |= 1 << (position % 64);
        }
        row
    }

    /// The set bits of `bits`, ascending.
    fn set_bits(bits: &[u64]) -> Vec<usize> {
        SetBits::new(bits).collect()
    }

    #[test]
    fn remove_bit_shifts_across_word_boundaries() {
        // Bit p of `marked` set for p in {0, 5, 63, 64, 100, 191}.
        let marked = [0usize, 5, 63, 64, 100, 191];
        let mut row = vec![0u64; 3];
        for &p in &marked {
            row[p / 64] |= 1 << (p % 64);
        }
        for removed in [0usize, 63, 64, 191, 150] {
            let mut shifted = row.clone();
            remove_bit(&mut shifted, removed);
            let expected: Vec<usize> = marked
                .iter()
                .filter(|&&p| p != removed)
                .map(|&p| if p > removed { p - 1 } else { p })
                .collect();
            assert_eq!(set_bits(&shifted), expected, "removing bit {removed}");
        }
        // A full row loses exactly its top bit, wherever the removal.
        for removed in [0usize, 63, 64, 127] {
            let mut row = full_row(128);
            remove_bit(&mut row, removed);
            assert_eq!(row, full_row(127), "removing bit {removed} of 128");
        }
        let mut last_word = full_row(130);
        remove_bit(&mut last_word, 129);
        assert_eq!(last_word, full_row(129));
    }

    #[test]
    fn candidates_ascend_in_policy_order() {
        let bits = [1 << 63 | 1 << 2, 0, 1, 1 << 40 | 1 << 7];
        assert_eq!(set_bits(&bits), vec![2, 63, 128, 199, 232]);
        assert_eq!(set_bits(&[]), Vec::<usize>::new());
        assert_eq!(set_bits(&[0, 0]), Vec::<usize>::new());
        // Each word is (t | t_any) & (s | s_any) & (o | o_any).
        let (t, t_any) = ([0b0011u64, 1 << 5], [0b0100u64, 0]);
        let (s, s_any) = ([0b0001u64, 1 << 5], [0b0100u64, 0]);
        let (o, o_any) = ([0u64, 0], [0b0111u64, 1 << 5]);
        let mut out = [0u64; 2];
        intersect(&mut out, [&t, &t_any, &s, &s_any, &o, &o_any]);
        assert_eq!(set_bits(&out), vec![0, 2, 69]);
    }

    type Specs = (RoleSpec, RoleSpec, TransactionSpec);

    /// Rules with the given (subject, object, transaction) specs.
    fn rules_of(specs: &[Specs]) -> Vec<Rule> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(subject_role, object_role, transaction))| {
                let def = crate::rule::RuleDef {
                    subject_role,
                    object_role,
                    transaction,
                    ..crate::rule::RuleDef::permit()
                };
                Rule::from_def(crate::id::RuleId::from_raw(i as u64), def)
            })
            .collect()
    }

    thread_local! {
        static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// The candidates `index` walks for a request with these direct
    /// roles, with scratch rows kept across walks as the engine keeps
    /// them.
    fn walk(
        index: &RuleIndex,
        transaction: TransactionId,
        subject: &[RoleId],
        object: &[RoleId],
    ) -> Vec<usize> {
        let subject = subject.iter().copied().collect();
        let object = object.iter().copied().collect();
        SCRATCH.with(|scratch| {
            index
                .candidates(transaction, &subject, &object, &mut scratch.borrow_mut())
                .collect()
        })
    }

    /// The candidates by definition: the rules whose transaction spec
    /// admits `transaction` and whose subject and object specs are
    /// `Any` or name a role the hierarchy expansion of the direct roles
    /// holds.
    fn reference(
        catalog: &RoleCatalog,
        rules: &[Rule],
        transaction: TransactionId,
        subject: &[RoleId],
        object: &[RoleId],
    ) -> Vec<usize> {
        let subject = catalog.expand(subject);
        let object = catalog.expand(object);
        let holds = |spec: RoleSpec, roles: &BTreeSet<RoleId>| match spec {
            RoleSpec::Any => true,
            RoleSpec::Is(role) => roles.contains(&role),
        };
        rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| {
                rule.transaction()
                    .transaction()
                    .is_none_or(|named| named == transaction)
                    && holds(rule.subject_role(), &subject)
                    && holds(rule.object_role(), &object)
            })
            .map(|(position, _)| position)
            .collect()
    }

    #[test]
    fn candidates_intersect_the_three_sides() {
        let (catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let use_t = TransactionId::from_raw(0);
        let open_t = TransactionId::from_raw(1);
        let rules = rules_of(&[
            (
                RoleSpec::Is(parent),
                RoleSpec::Is(device),
                TransactionSpec::Is(use_t),
            ),
            (
                RoleSpec::Any,
                RoleSpec::Is(device),
                TransactionSpec::Is(open_t),
            ),
            (RoleSpec::Is(home_user), RoleSpec::Any, TransactionSpec::Any),
            (
                RoleSpec::Is(family),
                RoleSpec::Is(device),
                TransactionSpec::Is(use_t),
            ),
            (RoleSpec::Any, RoleSpec::Any, TransactionSpec::Is(use_t)),
        ]);
        let index = RuleIndex::build(&rules, &RoleClosures::build(&catalog));
        // `family`'s closure row holds the rules naming `family` or
        // `home_user`.
        assert_eq!(walk(&index, use_t, &[family], &[device]), vec![2, 3, 4]);
        assert_eq!(walk(&index, open_t, &[family], &[device]), vec![1, 2]);
        assert_eq!(walk(&index, use_t, &[parent], &[]), vec![2, 4]);
        assert_eq!(walk(&index, open_t, &[], &[]), Vec::<usize>::new());
        for t in [use_t, open_t, TransactionId::from_raw(9)] {
            for subject in [&[][..], &[home_user], &[family], &[parent]] {
                for object in [&[][..], &[device]] {
                    assert_eq!(
                        walk(&index, t, subject, object),
                        reference(&catalog, &rules, t, subject, object),
                        "{t} {subject:?} {object:?}"
                    );
                }
            }
        }
        assert_eq!(index.bucket_count(), 3);
        assert_eq!(index.max_bucket(), 3);
    }

    #[test]
    fn several_direct_roles_union_their_closure_rows() {
        let (mut catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let guest = catalog.declare("guest", RoleKind::Subject).unwrap();
        let appliance = catalog.declare("appliance", RoleKind::Object).unwrap();
        let lock = catalog.declare("lock", RoleKind::Object).unwrap();
        catalog.specialize(appliance, device).unwrap();
        let (t0, t1) = (TransactionId::from_raw(0), TransactionId::from_raw(1));
        let specs: Vec<Specs> = (0..150usize)
            .map(|i| {
                let subject = [
                    RoleSpec::Any,
                    RoleSpec::Is(home_user),
                    RoleSpec::Is(family),
                    RoleSpec::Is(parent),
                    RoleSpec::Is(guest),
                ][i % 5];
                let object = [
                    RoleSpec::Any,
                    RoleSpec::Is(device),
                    RoleSpec::Is(appliance),
                    RoleSpec::Is(lock),
                ][i % 4];
                let transaction = [
                    TransactionSpec::Any,
                    TransactionSpec::Is(t0),
                    TransactionSpec::Is(t1),
                ][i % 3];
                (subject, object, transaction)
            })
            .collect();
        let rules = rules_of(&specs);
        let index = RuleIndex::build(&rules, &RoleClosures::build(&catalog));
        assert_eq!(index.words, 3);
        let subjects: [&[RoleId]; 5] = [
            &[],
            &[guest],
            &[parent, guest],
            &[family, guest, home_user],
            &[home_user, guest],
        ];
        let objects: [&[RoleId]; 5] = [
            &[],
            &[lock],
            &[appliance, lock],
            &[device, appliance, lock],
            &[device, lock],
        ];
        // One-role walks run between several-role ones, so each walk
        // rebuilds whatever the thread's scratch rows held before.
        for t in [t0, t1] {
            for subject in subjects {
                for object in objects {
                    assert_eq!(
                        walk(&index, t, subject, object),
                        reference(&catalog, &rules, t, subject, object),
                        "{t} {subject:?} {object:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn patched_postings_cross_word_boundaries_like_a_rebuild() {
        let (catalog, [home_user, _, parent, device]) = catalog_with_chain();
        let closures = RoleClosures::build(&catalog);
        let clean = BTreeSet::new();
        let t = |raw| TransactionSpec::Is(TransactionId::from_raw(raw));
        let base: Vec<Specs> = (0..128usize)
            .map(|i| {
                (
                    if i.is_multiple_of(3) {
                        RoleSpec::Any
                    } else {
                        RoleSpec::Is(parent)
                    },
                    if i.is_multiple_of(5) {
                        RoleSpec::Is(device)
                    } else {
                        RoleSpec::Any
                    },
                    if i.is_multiple_of(7) {
                        TransactionSpec::Any
                    } else {
                        t(i as u64 % 3)
                    },
                )
            })
            .collect();
        let rebuild = |specs: &[Specs]| RuleIndex::build(&rules_of(specs), &closures);
        let index = rebuild(&base);
        assert_eq!(index.words, 2);
        // One add crosses into a third word; a removal anywhere brings
        // the rows back to two. The top transaction (raw 5) is only
        // named by the added rule, so its row goes when that rule does.
        let added = (RoleSpec::Is(home_user), RoleSpec::Any, t(5));
        let add = rules_of(&[added])[0].added_delta(128);
        for removed in [128usize, 0, 63, 64, 100] {
            let mut specs = base.clone();
            specs.push(added);
            let wide = index
                .patched(std::slice::from_ref(&add), &closures, &clean)
                .expect("append lines up");
            assert_eq!(wide.words, 3);
            assert_eq!(wide, rebuild(&specs));
            specs.remove(removed);
            let remove = PolicyDelta::RuleRemoved {
                position: removed as u32,
            };
            let narrow = wide
                .patched(&[remove], &closures, &clean)
                .expect("removal lines up");
            assert_eq!(narrow.words, 2, "removing {removed} narrows the rows");
            assert_eq!(narrow, rebuild(&specs), "removing {removed}");
        }
        // A batch that widens and narrows again, and declares roles,
        // is one patch.
        let mut grown = catalog.clone();
        grown.declare("guest", RoleKind::Subject).unwrap();
        grown.declare("visitor", RoleKind::Subject).unwrap();
        let grown = RoleClosures::build(&grown);
        let any = (RoleSpec::Any, RoleSpec::Any, TransactionSpec::Any);
        let batch = [
            rules_of(&[any])[0].added_delta(128),
            PolicyDelta::RuleRemoved { position: 3 },
        ];
        let patched = index
            .patched(&batch, &grown, &clean)
            .expect("batch lines up");
        let mut specs = base.clone();
        specs.push(any);
        specs.remove(3);
        assert_eq!(patched, RuleIndex::build(&rules_of(&specs), &grown));
        // Deltas that do not line up with the policy length refuse.
        assert!(index
            .patched(
                &[PolicyDelta::RuleRemoved { position: 128 }],
                &closures,
                &clean
            )
            .is_none());
        assert!(index
            .patched(&[rules_of(&[any])[0].added_delta(127)], &closures, &clean)
            .is_none());
    }

    #[test]
    fn patches_across_the_4096_rule_word_boundary_like_a_rebuild() {
        let (catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let closures = RoleClosures::build(&catalog);
        let clean = BTreeSet::new();
        let subjects = [
            RoleSpec::Any,
            RoleSpec::Is(home_user),
            RoleSpec::Is(family),
            RoleSpec::Is(parent),
        ];
        let base: Vec<Specs> = (0..4096usize)
            .map(|i| {
                (
                    subjects[i % 4],
                    if i.is_multiple_of(3) {
                        RoleSpec::Is(device)
                    } else {
                        RoleSpec::Any
                    },
                    TransactionSpec::Is(TransactionId::from_raw(i as u64 % 4)),
                )
            })
            .collect();
        let rebuild = |specs: &[Specs]| RuleIndex::build(&rules_of(specs), &closures);
        let index = rebuild(&base);
        assert_eq!(index.words, 64);
        // The add names a role with a specialization, so rule 4096 goes
        // into the closure rows of `family` and `parent` in word 64.
        let added = (
            RoleSpec::Is(family),
            RoleSpec::Is(device),
            TransactionSpec::Is(TransactionId::from_raw(1)),
        );
        let mut specs = base.clone();
        specs.push(added);
        let wide = index
            .patched(
                &[rules_of(&[added])[0].added_delta(4096)],
                &closures,
                &clean,
            )
            .expect("append lines up");
        assert_eq!(wide.words, 65);
        assert_eq!(wide, rebuild(&specs));
        let t1 = TransactionId::from_raw(1);
        for subject in [family, parent] {
            assert_eq!(
                walk(&wide, t1, &[subject], &[device]).last(),
                Some(&4096),
                "{subject}"
            );
        }
        assert_ne!(walk(&wide, t1, &[home_user], &[device]).last(), Some(&4096));
        for removed in [4096usize, 4095, 0, 2048] {
            let mut specs = specs.clone();
            specs.remove(removed);
            let narrow = wide
                .patched(
                    &[PolicyDelta::RuleRemoved {
                        position: removed as u32,
                    }],
                    &closures,
                    &clean,
                )
                .expect("removal lines up");
            assert_eq!(narrow.words, 64, "removing {removed}");
            assert_eq!(narrow, rebuild(&specs), "removing {removed}");
        }
    }

    #[test]
    fn edge_insert_widens_closure_rows_like_a_rebuild() {
        let (mut catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let guest = catalog.declare("guest", RoleKind::Subject).unwrap();
        let visitor = catalog.declare("visitor", RoleKind::Subject).unwrap();
        let spare = catalog.declare("spare", RoleKind::Subject).unwrap();
        let spare_parent = catalog.declare("spare_parent", RoleKind::Subject).unwrap();
        catalog.specialize(visitor, guest).unwrap();
        let (use_t, open_t) = (TransactionId::from_raw(0), TransactionId::from_raw(1));
        let mut specs: Vec<Specs> = vec![
            (
                RoleSpec::Is(home_user),
                RoleSpec::Is(device),
                TransactionSpec::Is(use_t),
            ),
            (RoleSpec::Is(guest), RoleSpec::Any, TransactionSpec::Any),
            (
                RoleSpec::Is(family),
                RoleSpec::Any,
                TransactionSpec::Is(open_t),
            ),
            (
                RoleSpec::Is(visitor),
                RoleSpec::Is(device),
                TransactionSpec::Is(use_t),
            ),
        ];
        let assignments = Assignments::new();
        let stale = CompiledIndex::build(&catalog, &assignments, &rules_of(&specs));
        assert_eq!(walk(&stale.rules, use_t, &[visitor], &[device]), vec![1, 3]);

        // `guest` now specializes `family`: the closure rows of `guest`
        // and `visitor` take in the rules naming `family` and
        // `home_user`.
        catalog.specialize(guest, family).unwrap();
        let edge = PolicyDelta::EdgeAdded {
            kind: RoleKind::Subject,
            specific: guest,
        };
        let patched = stale
            .apply_deltas(&[edge], &catalog, &assignments)
            .expect("a narrow edge insert patches");
        assert!(Arc::ptr_eq(&stale.objects, &patched.objects));
        assert_eq!(
            patched,
            CompiledIndex::build(&catalog, &assignments, &rules_of(&specs))
        );
        assert_eq!(
            walk(&patched.rules, use_t, &[visitor], &[device]),
            vec![0, 1, 3]
        );
        assert_eq!(walk(&patched.rules, open_t, &[guest], &[]), vec![1, 2]);

        // An edge to a role no rule reaches leaves the postings shared.
        catalog.specialize(spare, spare_parent).unwrap();
        let quiet = patched
            .apply_deltas(
                &[PolicyDelta::EdgeAdded {
                    kind: RoleKind::Subject,
                    specific: spare,
                }],
                &catalog,
                &assignments,
            )
            .expect("a narrow edge insert patches");
        assert!(!Arc::ptr_eq(&patched.closures, &quiet.closures));
        assert!(Arc::ptr_eq(&patched.rules, &quiet.rules));
        assert_eq!(
            quiet,
            CompiledIndex::build(&catalog, &assignments, &rules_of(&specs))
        );

        // One batch declares a role, hangs it under `parent` and adds a
        // rule naming `family`, which reaches the new role's row both
        // through the add and through the edge.
        let nanny = catalog.declare("nanny", RoleKind::Subject).unwrap();
        catalog.specialize(nanny, parent).unwrap();
        let added = (RoleSpec::Is(family), RoleSpec::Any, TransactionSpec::Any);
        specs.push(added);
        let batch = [
            PolicyDelta::RoleDeclared { role: nanny },
            PolicyDelta::EdgeAdded {
                kind: RoleKind::Subject,
                specific: nanny,
            },
            rules_of(&specs)[4].added_delta(4),
        ];
        let next = quiet
            .apply_deltas(&batch, &catalog, &assignments)
            .expect("a narrow batch patches");
        let rules = rules_of(&specs);
        assert_eq!(next, CompiledIndex::build(&catalog, &assignments, &rules));
        for subject in [nanny, visitor, guest, home_user] {
            for t in [use_t, open_t] {
                assert_eq!(
                    walk(&next.rules, t, &[subject], &[device]),
                    reference(&catalog, &rules, t, &[subject], &[device]),
                    "{subject} {t}"
                );
            }
        }
    }

    #[test]
    fn index_cell_rebuilds_only_on_generation_change() {
        let (catalog, _) = catalog_with_chain();
        let assignments = Assignments::new();
        let mut cell = IndexCell::default();
        let metrics = MetricsRegistry::new();
        let first = cell.get_or_advance(3, &metrics, |_| {
            Advance::Rebuilt(CompiledIndex::build(&catalog, &assignments, &[]))
        });
        let first_closures = Arc::clone(&first.closures);
        let second = cell.get_or_advance(3, &metrics, |_| {
            panic!("same generation must reuse the index")
        });
        assert!(std::ptr::eq(first, second));
        cell.reset();
        let third = cell.get_or_advance(4, &metrics, |stale| {
            let (built_for, index) = stale.expect("previous generation cached");
            assert_eq!(built_for, 3);
            assert!(Arc::ptr_eq(&first_closures, &index.closures));
            Advance::Rebuilt(CompiledIndex::build(&catalog, &assignments, &[]))
        });
        assert!(!Arc::ptr_eq(&first_closures, &third.closures));
        if crate::telemetry::ENABLED {
            assert_eq!(metrics.index_rebuilds.get(), 2);
            assert_eq!(metrics.index_full_rebuilds.get(), 2);
            assert_eq!(metrics.index_cache_hits.get(), 1);
            assert_eq!(metrics.index_roles.get(), 4);
        }
    }

    #[test]
    fn patched_installs_count_separately_from_rebuilds() {
        let (catalog, [home_user, family, ..]) = catalog_with_chain();
        let assignments = Assignments::new();
        let mut cell = IndexCell::default();
        let metrics = MetricsRegistry::new();
        let first = cell.get_or_advance(1, &metrics, |_| {
            Advance::Rebuilt(CompiledIndex::build(&catalog, &assignments, &[]))
        });
        let (first_closures, first_rules) = (Arc::clone(&first.closures), Arc::clone(&first.rules));
        cell.reset();
        let second = cell.get_or_advance(2, &metrics, |stale| {
            let (_, index) = stale.expect("stale index available to patch");
            let next = index
                .apply_deltas(&[], &catalog, &assignments)
                .expect("empty delta batch applies");
            Advance::Patched(next)
        });
        // An untouched patch shares every shard with its predecessor.
        assert!(Arc::ptr_eq(&first_closures, &second.closures));
        assert!(Arc::ptr_eq(&first_rules, &second.rules));
        assert_eq!(
            second.closures.distance_up(family, home_user),
            Some(1),
            "patched index answers closure queries"
        );
        if crate::telemetry::ENABLED {
            assert_eq!(metrics.index_rebuilds.get(), 2);
            assert_eq!(metrics.index_full_rebuilds.get(), 1);
            assert_eq!(metrics.index_delta_apply_ns.snapshot().count, 1);
        }
    }

    #[test]
    fn a_reset_retires_the_index_and_the_next_advance_drops_it() {
        let (catalog, _) = catalog_with_chain();
        let assignments = Assignments::new();
        let build = || Advance::Rebuilt(CompiledIndex::build(&catalog, &assignments, &[]));
        let mut cell = IndexCell::default();
        let metrics = MetricsRegistry::new();
        let built = cell.get_or_advance(1, &metrics, |_| build());
        let (closures, rules) = (
            Arc::downgrade(&built.closures),
            Arc::downgrade(&built.rules),
        );
        let tables = [
            Arc::downgrade(&built.subjects),
            Arc::downgrade(&built.objects),
        ];
        let alive = || {
            closures.upgrade().is_some()
                && rules.upgrade().is_some()
                && tables.iter().all(|table| table.upgrade().is_some())
        };
        let dead = || {
            closures.upgrade().is_none()
                && rules.upgrade().is_none()
                && tables.iter().all(|table| table.upgrade().is_none())
        };
        // The reset, which an edit makes, only moves the index aside;
        // a second reset before any advance keeps it.
        cell.reset();
        assert!(alive());
        cell.reset();
        assert!(alive());
        assert_eq!(format!("{cell:?}"), r#"IndexCell { state: "retired@1" }"#);
        // The advance hands it over to patch from, then drops it.
        cell.get_or_advance(3, &metrics, |stale| {
            assert_eq!(stale.map(|(built_for, _)| built_for), Some(1));
            assert!(alive());
            build()
        });
        assert!(dead());
        assert_eq!(format!("{cell:?}"), r#"IndexCell { state: "built@3" }"#);
    }

    #[test]
    fn expansion_tables_hold_exactly_the_tracked_entities() {
        let (catalog, [home_user, family, parent, device]) = catalog_with_chain();
        let mut assignments = Assignments::new();
        let (alice, bob) = (SubjectId::from_raw(0), SubjectId::from_raw(1));
        let tv = ObjectId::from_raw(0);
        assignments.assign_subject(alice, family);
        assignments.assign_object(tv, device);
        let index = CompiledIndex::build(&catalog, &assignments, &[]);
        let expanded = |expansion: &CachedExpansion| expansion.expanded.iter().collect::<Vec<_>>();
        assert_eq!(expanded(index.subject(alice)), vec![home_user, family]);
        assert_eq!(expanded(index.object(tv)), vec![device]);
        // Declared but never assigned, and ids past the end of either
        // table, read the empty expansion.
        for subject in [bob, SubjectId::from_raw(40), SubjectId::from_raw(u64::MAX)] {
            assert_eq!(index.subject(subject), &NO_ROLES, "{subject}");
        }
        for object in [ObjectId::from_raw(1), ObjectId::from_raw(u64::MAX)] {
            assert_eq!(index.object(object), &NO_ROLES, "{object}");
        }

        // Assignments to ids past the end of both tables grow them to
        // what a fresh build holds; a revoke keeps the slot held.
        let (far_subject, far_object) = (SubjectId::from_raw(9), ObjectId::from_raw(6));
        assignments.assign_subject(far_subject, parent);
        assignments.assign_object(far_object, device);
        assignments.revoke_subject(alice, family);
        let deltas = [
            PolicyDelta::SubjectAssignment {
                subject: far_subject,
            },
            PolicyDelta::ObjectAssignment { object: far_object },
            PolicyDelta::SubjectAssignment { subject: alice },
        ];
        let patched = index
            .apply_deltas(&deltas, &catalog, &assignments)
            .expect("assignment deltas patch");
        assert_eq!(patched, CompiledIndex::build(&catalog, &assignments, &[]));
        assert_eq!(patched.subjects.0.len(), 10);
        assert_eq!(patched.objects.0.len(), 7);
        assert!(
            patched.subjects.0[0].is_some(),
            "a revoked subject stays tracked"
        );
        assert_eq!(
            expanded(patched.subject(far_subject)),
            vec![home_user, family, parent]
        );
        assert_eq!(expanded(patched.object(far_object)), vec![device]);
        assert_eq!(patched.subject(alice), &NO_ROLES);
        assert_eq!(patched.subject(SubjectId::from_raw(5)), &NO_ROLES);
        assert_eq!(patched.subject(SubjectId::from_raw(10)), &NO_ROLES);
        assert_eq!(patched.object(ObjectId::from_raw(7)), &NO_ROLES);
    }

    #[test]
    fn an_emptied_slot_trims_the_table_end() {
        let expansion = |role| RoleClosures::build(&catalog_with_chain().0).expand([role]);
        let role = RoleId::from_raw(0);
        let mut table: ExpansionTable = [(2, expansion(role)), (0, expansion(role))]
            .into_iter()
            .collect();
        assert_eq!(table.0.len(), 3);
        table.set(7, None);
        assert_eq!(table.0.len(), 3, "clearing past the end grows nothing");
        table.set(2, None);
        assert_eq!(table, [(0, expansion(role))].into_iter().collect());
        assert_eq!(table.0.len(), 1);
        table.set(0, None);
        assert_eq!(table, ExpansionTable::default());
    }

    #[test]
    fn edge_delta_matches_rebuilt_closures() {
        let (mut catalog, [home_user, _, parent, device]) = catalog_with_chain();
        let assignments = Assignments::new();
        let stale = CompiledIndex::build(&catalog, &assignments, &[]);
        // New edge: parent specializes... device? Same-kind only — use
        // a fresh subject role chain instead.
        let guest = catalog.declare("guest", RoleKind::Subject).unwrap();
        catalog.specialize(guest, home_user).unwrap();
        let deltas = [
            PolicyDelta::RoleDeclared { role: guest },
            PolicyDelta::EdgeAdded {
                kind: RoleKind::Subject,
                specific: guest,
            },
        ];
        let patched = stale
            .apply_deltas(&deltas, &catalog, &assignments)
            .expect("single edge insert is incremental");
        let rebuilt = CompiledIndex::build(&catalog, &assignments, &[]);
        assert_eq!(patched, rebuilt, "patched index must equal a rebuild");
        assert_eq!(patched.closures.distance_up(guest, home_user), Some(1));
        assert_eq!(patched.closures.distance_up(parent, home_user), Some(2));
        assert!(patched.closures.is_declared(device));
    }

    #[test]
    fn damage_threshold_falls_back_to_rebuild() {
        let mut catalog = RoleCatalog::new();
        let root = catalog.declare("root", RoleKind::Subject).unwrap();
        let mut leaves = Vec::new();
        for i in 0..40 {
            let leaf = catalog
                .declare(format!("leaf{i}"), RoleKind::Subject)
                .unwrap();
            catalog.specialize(leaf, root).unwrap();
            leaves.push(leaf);
        }
        let assignments = Assignments::new();
        let stale = CompiledIndex::build(&catalog, &assignments, &[]);
        // An edge under `root` dirties root's entire specialization
        // frontier (40 roles > max(8, 41/4)): the planner must refuse.
        let deep = catalog.declare("deep", RoleKind::Subject).unwrap();
        catalog.specialize(root, deep).unwrap();
        let deltas = [
            PolicyDelta::RoleDeclared { role: deep },
            PolicyDelta::EdgeAdded {
                kind: RoleKind::Subject,
                specific: root,
            },
        ];
        assert!(
            stale
                .apply_deltas(&deltas, &catalog, &assignments)
                .is_none(),
            "wide damage must fall back to a full rebuild"
        );
        // A narrow edge still patches.
        let narrow = [PolicyDelta::EdgeAdded {
            kind: RoleKind::Subject,
            specific: leaves[0],
        }];
        assert!(stale
            .apply_deltas(&narrow, &catalog, &assignments)
            .is_some());
    }
}
