//! Role sets as bitsets over the dense role-id space.
//!
//! Mediation needs three role sets per request — the requester's, the
//! object's and the environment's, each hierarchy-expanded — and every
//! [`Explanation`](crate::explain::Explanation) carries them. Role ids
//! are allocated densely by the catalog (`id.as_raw()` is an index), so
//! a [`RoleSet`] stores bit `r` for role `r`. Role spaces of up to 128
//! roles fit inline, so building, cloning and dropping a set costs no
//! heap traffic; wider sets move their words to the heap.
//!
//! The set reads and writes like a `BTreeSet<RoleId>`: it iterates in
//! ascending id order, its `Debug` text is the same, and it serializes
//! to the same ascending array of ids. Equality compares membership
//! only: two sets with the same roles are equal however many words
//! each has grown to.

use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use crate::id::RoleId;

/// Words held inline: role spaces of up to 128 roles.
const INLINE_WORDS: usize = 2;

/// Serialized sets naming an id at or past this bound do not load: a
/// set takes one bit per id below its largest, and catalogs allocate
/// ids densely from zero.
const LOADABLE_IDS: u64 = 1 << 24;

/// A set of [`RoleId`]s, stored as a bitset over the dense role-id
/// space: inline up to 128 roles, on the heap beyond.
#[derive(Clone)]
pub struct RoleSet(Words);

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl RoleSet {
    /// An empty set.
    #[must_use]
    pub const fn new() -> Self {
        Self(Words::Inline([0; INLINE_WORDS]))
    }

    /// Adds `role`; returns `true` if it was not already present. The
    /// set grows to the word holding the id.
    pub fn insert(&mut self, role: RoleId) -> bool {
        let raw = role.as_raw() as usize;
        self.grow(raw / 64 + 1);
        let word = &mut self.words_mut()[raw / 64];
        let bit = 1 << (raw % 64);
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// True if the set holds `role`.
    #[must_use]
    pub fn contains(&self, role: RoleId) -> bool {
        let raw = role.as_raw() as usize;
        self.words()
            .get(raw / 64)
            .is_some_and(|word| word & (1 << (raw % 64)) != 0)
    }

    /// Number of roles in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set holds no role.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The roles in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = RoleId> + '_ {
        SetBits::new(self.words()).map(|raw| RoleId::from_raw(raw as u64))
    }

    /// ORs a bitset row over the dense role space into the set: bit `r`
    /// of `row` adds role `r`.
    pub(crate) fn union_words(&mut self, row: &[u64]) {
        let width = row.len() - row.iter().rev().take_while(|&&w| w == 0).count();
        self.grow(width);
        for (word, &bits) in self.words_mut().iter_mut().zip(&row[..width]) {
            *word |= bits;
        }
    }

    /// The words, of which the top ones may be zero.
    pub(crate) fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }

    /// Widens the set to at least `width` words, moving it to the heap
    /// past the inline width.
    fn grow(&mut self, width: usize) {
        match &mut self.0 {
            Words::Inline(words) if width > INLINE_WORDS => {
                let mut heap = words.to_vec();
                heap.resize(width, 0);
                self.0 = Words::Heap(heap);
            }
            Words::Heap(words) if width > words.len() => words.resize(width, 0),
            _ => {}
        }
    }

    /// The words up to the highest non-zero one.
    fn trimmed(&self) -> &[u64] {
        let words = self.words();
        let zeros = words.iter().rev().take_while(|&&w| w == 0).count();
        &words[..words.len() - zeros]
    }
}

impl Default for RoleSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for RoleSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for RoleSet {}

impl fmt::Debug for RoleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<RoleId> for RoleSet {
    fn from_iter<I: IntoIterator<Item = RoleId>>(roles: I) -> Self {
        let mut set = Self::new();
        for role in roles {
            set.insert(role);
        }
        set
    }
}

impl Serialize for RoleSet {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|role| role.to_value()).collect())
    }
}

impl Deserialize for RoleSet {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_seq()
            .ok_or_else(|| Error::expected("array", value))?;
        let mut set = Self::new();
        for item in items {
            let role = RoleId::from_value(item)?;
            if role.as_raw() >= LOADABLE_IDS {
                return Err(Error::custom(format!(
                    "role id {} is past the loadable role space ({LOADABLE_IDS} ids)",
                    role.as_raw()
                )));
            }
            set.insert(role);
        }
        Ok(set)
    }
}

/// The positions of the set bits of a word slice, ascending: bit `b` of
/// word `w` is position `64 * w + b`.
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    /// The word `rest` was taken from.
    word: usize,
    /// The not yet visited bits of word `word`.
    rest: u64,
}

impl<'a> SetBits<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Self {
            words,
            word: 0,
            rest: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.word += 1;
            self.rest = *self.words.get(self.word)?;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.word * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn ids(raws: &[u64]) -> Vec<RoleId> {
        raws.iter().map(|&raw| RoleId::from_raw(raw)).collect()
    }

    #[test]
    fn stays_inline_up_to_128_roles() {
        let mut set: RoleSet = ids(&[0, 63, 64, 127]).into_iter().collect();
        assert!(matches!(set.0, Words::Inline(_)));
        assert!(set.insert(RoleId::from_raw(128)));
        assert!(matches!(&set.0, Words::Heap(words) if words.len() == 3));
        assert!(!set.insert(RoleId::from_raw(64)));
        assert_eq!(set.iter().collect::<Vec<_>>(), ids(&[0, 63, 64, 127, 128]));
    }

    #[test]
    fn union_grows_only_to_the_highest_set_word() {
        let mut set = RoleSet::new();
        set.union_words(&[1 << 5, 0, 0, 0]);
        assert!(matches!(set.0, Words::Inline(_)));
        set.union_words(&[0, 0, 1]);
        assert_eq!(set.iter().collect::<Vec<_>>(), ids(&[5, 128]));
        let mut wide = RoleSet::new();
        wide.union_words(&[1 << 5, 0, 0, 0, 0]);
        assert_eq!(wide, ids(&[5]).into_iter().collect());
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let narrow: RoleSet = ids(&[3, 70]).into_iter().collect();
        let mut wide: RoleSet = ids(&[3, 70, 300]).into_iter().collect();
        assert_ne!(narrow, wide);
        wide = RoleSet(Words::Heap(vec![1 << 3, 1 << 6, 0, 0, 0]));
        assert_eq!(narrow, wide);
        assert_eq!(RoleSet::new(), RoleSet(Words::Heap(vec![0; 4])));
    }

    #[test]
    fn reads_and_writes_like_a_btreeset() {
        let raws = [200u64, 3, 64, 3, 0, 127];
        let set: RoleSet = ids(&raws).into_iter().collect();
        let model: BTreeSet<RoleId> = ids(&raws).into_iter().collect();
        assert_eq!(format!("{set:?}"), format!("{model:?}"));
        assert_eq!(format!("{set:#?}"), format!("{model:#?}"));
        assert_eq!(
            serde_json::to_string(&set).unwrap(),
            serde_json::to_string(&model).unwrap()
        );
        let loaded: RoleSet = serde_json::from_str("[127,0,64,3,3,200]").unwrap();
        assert_eq!(loaded, set);
        assert!(serde_json::from_str::<RoleSet>("{}").is_err());
        assert!(serde_json::from_str::<RoleSet>("[16777216]").is_err());
    }
}
