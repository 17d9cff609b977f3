//! Strongly-typed identifiers for every entity class in a GRBAC system.
//!
//! Each identifier is a newtype over `u64` ([C-NEWTYPE]): a [`SubjectId`]
//! can never be confused with an [`ObjectId`] at compile time, which rules
//! out an entire class of policy-plumbing bugs. Identifiers are allocated
//! by the owning catalog (e.g. [`crate::engine::Grbac::declare_subject`])
//! and are opaque: the numeric value is an implementation detail exposed
//! only through [`Display`](std::fmt::Display) for diagnostics.

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw index.
            ///
            /// Intended for catalogs that allocate identifiers densely and
            /// for test fixtures; library users normally receive ids from
            /// `declare_*` methods instead of constructing them.
            #[must_use]
            pub const fn from_raw(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            #[must_use]
            pub const fn as_raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifier of a *subject*: a user of the system (a resident, guest,
    /// pet, or remote principal in the Aware Home setting).
    SubjectId,
    "s"
);

define_id!(
    /// Identifier of an *object*: any protected resource — an appliance,
    /// a media stream, a document, a sensor feed.
    ObjectId,
    "o"
);

define_id!(
    /// Identifier of a *role* of any kind (subject, object or environment
    /// role — see [`crate::role::RoleKind`]).
    RoleId,
    "r"
);

define_id!(
    /// Identifier of a *transaction*: a named series of accesses to
    /// objects (e.g. `use`, `view_stream`, `read`).
    TransactionId,
    "t"
);

define_id!(
    /// Identifier of a policy rule.
    RuleId,
    "rule"
);

define_id!(
    /// Identifier of a session (a subject's activation context).
    SessionId,
    "sess"
);

define_id!(
    /// Identifier of a delegation grant.
    DelegationId,
    "dlg"
);

/// Correlation identifier minted for every mediated decision.
///
/// A `DecisionId` is a 128-bit value split into an *engine epoch*
/// (upper 64 bits, drawn once per [`Grbac`](crate::engine::Grbac)
/// instantiation so ids from different engine lifetimes never collide)
/// and a *per-engine monotonic sequence* (lower 64 bits). The same id
/// is threaded through every telemetry surface one decision touches —
/// its [`DecisionTrace`](crate::telemetry::DecisionTrace), its
/// [`ProvenanceRecord`](crate::provenance::ProvenanceRecord), its
/// [`AuditRecord`](crate::audit::AuditRecord), the latency-sketch
/// exemplars, and any watchdog
/// [`AlertRecord`](crate::telemetry::AlertRecord) whose breaching
/// window it fell inside — so one id resolves a decision's full story.
///
/// Ids render as (and parse from) 32 lowercase hex digits, the form
/// used by exported exemplars and the `/decision/<id>` observability
/// endpoint. [`DecisionId::UNASSIGNED`] (all zeros) marks surfaces the
/// minting path never reached (e.g. a replay through
/// [`decide_naive`](crate::engine::Grbac::decide_naive), which never
/// mints — replays must not pollute the correlation space).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DecisionId {
    epoch: u64,
    seq: u64,
}

impl DecisionId {
    /// The zero id: no decision was minted for this surface.
    pub const UNASSIGNED: DecisionId = DecisionId { epoch: 0, seq: 0 };

    /// Builds an id from its engine epoch and sequence parts.
    #[must_use]
    pub const fn from_parts(epoch: u64, seq: u64) -> Self {
        Self { epoch, seq }
    }

    /// The engine-lifetime epoch (upper 64 bits).
    #[must_use]
    pub const fn epoch(self) -> u64 {
        self.epoch
    }

    /// The per-engine monotonic sequence (lower 64 bits).
    #[must_use]
    pub const fn seq(self) -> u64 {
        self.seq
    }

    /// The id as one 128-bit value (`epoch << 64 | seq`).
    #[must_use]
    pub const fn as_u128(self) -> u128 {
        ((self.epoch as u128) << 64) | self.seq as u128
    }

    /// Rebuilds an id from its 128-bit form.
    #[must_use]
    pub const fn from_u128(raw: u128) -> Self {
        Self {
            epoch: (raw >> 64) as u64,
            seq: raw as u64,
        }
    }

    /// True when this id was actually minted (non-zero).
    #[must_use]
    pub const fn is_assigned(self) -> bool {
        self.epoch != 0 || self.seq != 0
    }
}

impl std::fmt::Display for DecisionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.as_u128())
    }
}

impl std::str::FromStr for DecisionId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u128::from_str_radix(s, 16).map(Self::from_u128)
    }
}

/// The shared mint behind one engine's [`DecisionId`]s: an epoch drawn
/// at construction plus a relaxed atomic sequence. Engine clones share
/// the mint (like the metrics registry and the flight recorder), so a
/// batch fanned out across threads still mints globally-unique,
/// monotonically-claimed ids.
#[derive(Debug)]
pub(crate) struct DecisionIdMint {
    epoch: u64,
    next_seq: std::sync::atomic::AtomicU64,
}

impl Default for DecisionIdMint {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionIdMint {
    pub(crate) fn new() -> Self {
        Self {
            epoch: fresh_epoch(),
            next_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Claims the next id (sequence starts at 1 so the zero id stays
    /// reserved for [`DecisionId::UNASSIGNED`]).
    pub(crate) fn mint(&self) -> DecisionId {
        let seq = self
            .next_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .wrapping_add(1);
        DecisionId {
            epoch: self.epoch,
            seq,
        }
    }
}

/// A non-zero epoch unique within this process (a global counter) and
/// overwhelmingly unique across processes (wall-clock nanoseconds
/// folded in).
fn fresh_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let ordinal = NEXT.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // Spread the ordinal across the high bits so epochs minted in the
    // same nanosecond still differ; keep the result non-zero.
    (nanos ^ ordinal.rotate_left(40)).max(1)
}

/// A multiplicative hasher for maps keyed by catalog-minted ids.
///
/// An id hashes through one `write_u64` of its raw value, which this
/// hasher multiplies by an odd constant: distinct raw values stay
/// distinct in the low bits, which pick the bucket, and the high bits,
/// which tag it, mix every input bit. That is enough for keys that an
/// [`IdAllocator`] mints densely and that no client chooses; it is no
/// defence against keys picked to collide, so never insert keys that a
/// client picks (looking up any key is fine). Other writes fold in byte
/// by byte.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

/// The odd multiplier of [`IdHasher`] (2^64 over the golden ratio).
const ID_HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(ID_HASH_MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by catalog-minted ids, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// Monotonic id allocator used by the catalogs in this crate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    pub(crate) fn new() -> Self {
        Self { next: 0 }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        fn takes_subject(_: SubjectId) {}
        takes_subject(SubjectId::from_raw(1));
        // `takes_subject(ObjectId::from_raw(1))` would not compile.
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SubjectId::from_raw(3).to_string(), "s3");
        assert_eq!(ObjectId::from_raw(0).to_string(), "o0");
        assert_eq!(RoleId::from_raw(42).to_string(), "r42");
        assert_eq!(TransactionId::from_raw(7).to_string(), "t7");
        assert_eq!(RuleId::from_raw(9).to_string(), "rule9");
        assert_eq!(SessionId::from_raw(5).to_string(), "sess5");
    }

    #[test]
    fn raw_round_trip() {
        let id = RoleId::from_raw(123);
        assert_eq!(id.as_raw(), 123);
        assert_eq!(u64::from(id), 123);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(RoleId::from_raw(1) < RoleId::from_raw(2));
        assert_eq!(RoleId::from_raw(5), RoleId::from_raw(5));
    }

    #[test]
    fn allocator_is_dense_and_monotonic() {
        let mut alloc = IdAllocator::new();
        assert_eq!(alloc.next(), 0);
        assert_eq!(alloc.next(), 1);
        assert_eq!(alloc.next(), 2);
    }

    #[test]
    fn id_hasher_spreads_dense_ids_over_low_and_high_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: Vec<u64> = (0..1024u64)
            .map(|raw| build.hash_one(SubjectId::from_raw(raw)))
            .collect();
        // The low ten bits, which pick one of 1024 buckets, are a
        // permutation of the dense ids.
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 1023).collect();
        low.sort_unstable();
        assert_eq!(low, (0..1024).collect::<Vec<_>>());
        // The top seven bits, which tag a bucket, take every value.
        let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn serde_round_trip() {
        let id = SubjectId::from_raw(17);
        let json = serde_json::to_string(&id).expect("serialize");
        let back: SubjectId = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(id, back);
    }

    #[test]
    fn decision_id_round_trips_through_hex_and_u128() {
        let id = DecisionId::from_parts(0xDEAD_BEEF, 42);
        assert_eq!(id.to_string(), "00000000deadbeef000000000000002a");
        let parsed: DecisionId = id.to_string().parse().expect("hex parses");
        assert_eq!(parsed, id);
        assert_eq!(DecisionId::from_u128(id.as_u128()), id);
        assert!(id.is_assigned());
        assert!(!DecisionId::UNASSIGNED.is_assigned());
        assert_eq!(DecisionId::default(), DecisionId::UNASSIGNED);
        assert!("not-hex".parse::<DecisionId>().is_err());
    }

    #[test]
    fn mint_is_monotonic_and_never_unassigned() {
        let mint = DecisionIdMint::new();
        let a = mint.mint();
        let b = mint.mint();
        assert!(a.is_assigned());
        assert_eq!(a.epoch(), mint.epoch);
        assert_eq!(b.seq(), a.seq() + 1);
        assert_ne!(DecisionIdMint::new().epoch, 0);
    }
}
