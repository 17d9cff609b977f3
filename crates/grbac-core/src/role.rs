//! Roles — the single organizing concept of GRBAC.
//!
//! The paper's central move is to apply the RBAC notion of a *role*
//! uniformly to three entity classes (§4.2):
//!
//! * **subject roles** categorize users (`parent`, `child`, `guest`),
//! * **object roles** categorize resources (`entertainment_device`,
//!   `medical_record`),
//! * **environment roles** categorize system states (`weekdays`,
//!   `free_time`, `kitchen_occupied`).
//!
//! [`RoleCatalog`] owns every declared role, enforces per-kind name
//! uniqueness, and maintains one specialization hierarchy per kind.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::error::{GrbacError, Result};
use crate::hierarchy::RoleHierarchy;
use crate::id::{IdAllocator, RoleId};

/// The three kinds of roles GRBAC recognizes (§4.2.1–§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RoleKind {
    /// Categorizes users of the system (traditional RBAC roles).
    Subject,
    /// Categorizes protected resources.
    Object,
    /// Categorizes security-relevant system states.
    Environment,
}

impl RoleKind {
    /// All role kinds, in declaration order.
    pub const ALL: [RoleKind; 3] = [RoleKind::Subject, RoleKind::Object, RoleKind::Environment];
}

impl std::fmt::Display for RoleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoleKind::Subject => "subject",
            RoleKind::Object => "object",
            RoleKind::Environment => "environment",
        })
    }
}

/// A declared role: a named grouping primitive of a particular kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Role {
    id: RoleId,
    name: String,
    kind: RoleKind,
}

impl Role {
    /// The role's identifier.
    #[must_use]
    pub fn id(&self) -> RoleId {
        self.id
    }

    /// The role's human-readable name, unique within its kind.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which entity class this role categorizes.
    #[must_use]
    pub fn kind(&self) -> RoleKind {
        self.kind
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} role {:?}", self.kind, self.name)
    }
}

/// Owns every declared role and the per-kind specialization hierarchies.
///
/// # Examples
///
/// ```
/// use grbac_core::role::{RoleCatalog, RoleKind};
///
/// # fn main() -> Result<(), grbac_core::GrbacError> {
/// let mut catalog = RoleCatalog::new();
/// let family = catalog.declare("family_member", RoleKind::Subject)?;
/// let child = catalog.declare("child", RoleKind::Subject)?;
/// catalog.specialize(child, family)?;
/// assert!(catalog.is_specialization_of(child, family)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoleCatalog {
    #[serde(with = "crate::serde_pairs::hash")]
    roles: HashMap<RoleId, Role>,
    /// Role ids by name, one map per kind in [`RoleKind::ALL`] order,
    /// so a lookup borrows the name. Serialized as the one
    /// `((kind, name), id)` pair list of earlier snapshots.
    #[serde(with = "names_by_kind")]
    by_name: [HashMap<String, RoleId>; 3],
    subject_hierarchy: RoleHierarchy,
    object_hierarchy: RoleHierarchy,
    environment_hierarchy: RoleHierarchy,
    alloc: IdAllocator,
}

impl RoleCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new role of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::DuplicateName`] if a role with the same name
    /// and kind already exists.
    pub fn declare(&mut self, name: impl Into<String>, kind: RoleKind) -> Result<RoleId> {
        let name = name.into();
        if self.by_name[kind as usize].contains_key(&name) {
            return Err(GrbacError::DuplicateName {
                kind: match kind {
                    RoleKind::Subject => "subject role",
                    RoleKind::Object => "object role",
                    RoleKind::Environment => "environment role",
                },
                name,
            });
        }
        let id = RoleId::from_raw(self.alloc.next());
        self.by_name[kind as usize].insert(name.clone(), id);
        self.roles.insert(id, Role { id, name, kind });
        self.hierarchy_mut(kind).add_role(id);
        Ok(id)
    }

    /// Records that `specific` specializes (is-a) `general`.
    ///
    /// Possession of `specific` implies possession of `general`: a subject
    /// holding `child` also counts as holding `family_member`. Both roles
    /// must already be declared and share the same kind.
    ///
    /// # Errors
    ///
    /// * [`GrbacError::UnknownRole`] if either role is undeclared.
    /// * [`GrbacError::KindMismatch`] if the kinds differ.
    /// * [`GrbacError::HierarchyCycle`] if the edge would create a cycle.
    pub fn specialize(&mut self, specific: RoleId, general: RoleId) -> Result<()> {
        let specific_kind = self.role(specific)?.kind();
        let general_kind = self.role(general)?.kind();
        if specific_kind != general_kind {
            return Err(GrbacError::KindMismatch {
                role: general,
                expected: specific_kind,
                found: general_kind,
            });
        }
        self.hierarchy_mut(specific_kind)
            .add_specialization(specific, general)
    }

    /// Looks up a role by id.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::UnknownRole`] for ids this catalog never issued.
    pub fn role(&self, id: RoleId) -> Result<&Role> {
        self.roles.get(&id).ok_or(GrbacError::UnknownRole(id))
    }

    /// Looks up a role id by kind and name.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::UnknownRoleName`] if no such role is declared.
    pub fn find(&self, kind: RoleKind, name: &str) -> Result<RoleId> {
        self.by_name[kind as usize]
            .get(name)
            .copied()
            .ok_or_else(|| GrbacError::UnknownRoleName {
                kind,
                name: name.to_owned(),
            })
    }

    /// Returns true if `id` has been declared.
    #[must_use]
    pub fn contains(&self, id: RoleId) -> bool {
        self.roles.contains_key(&id)
    }

    /// Number of declared roles across all kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True if no roles are declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Iterates over every declared role in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Role> {
        self.roles.values()
    }

    /// Iterates over the roles of one kind.
    pub fn iter_kind(&self, kind: RoleKind) -> impl Iterator<Item = &Role> {
        self.roles.values().filter(move |r| r.kind == kind)
    }

    /// The specialization hierarchy for the given kind.
    #[must_use]
    pub fn hierarchy(&self, kind: RoleKind) -> &RoleHierarchy {
        match kind {
            RoleKind::Subject => &self.subject_hierarchy,
            RoleKind::Object => &self.object_hierarchy,
            RoleKind::Environment => &self.environment_hierarchy,
        }
    }

    fn hierarchy_mut(&mut self, kind: RoleKind) -> &mut RoleHierarchy {
        match kind {
            RoleKind::Subject => &mut self.subject_hierarchy,
            RoleKind::Object => &mut self.object_hierarchy,
            RoleKind::Environment => &mut self.environment_hierarchy,
        }
    }

    /// True if `specific` equals `general` or transitively specializes it.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::UnknownRole`] for undeclared ids.
    pub fn is_specialization_of(&self, specific: RoleId, general: RoleId) -> Result<bool> {
        let kind = self.role(specific)?.kind();
        self.role(general)?;
        Ok(self.hierarchy(kind).is_specialization_of(specific, general))
    }

    /// The upward closure of a role: the role itself plus every role it
    /// transitively specializes.
    ///
    /// Possessing a role means possessing its entire closure — this is how
    /// Figure 2's `Mom → Parent → Family Member → Home User` chain grants
    /// `Mom` any permission written against `Home User`.
    ///
    /// # Errors
    ///
    /// Returns [`GrbacError::UnknownRole`] for undeclared ids.
    pub fn closure(&self, id: RoleId) -> Result<BTreeSet<RoleId>> {
        let kind = self.role(id)?.kind();
        Ok(self.hierarchy(kind).closure(id))
    }

    /// The union of [`closure`](Self::closure) over a set of roles.
    ///
    /// Unknown ids are skipped silently: the expansion is used on sets that
    /// were validated at insertion time.
    #[must_use]
    pub fn expand<'a>(&self, roles: impl IntoIterator<Item = &'a RoleId>) -> BTreeSet<RoleId> {
        let mut out = BTreeSet::new();
        for &id in roles {
            if let Ok(role) = self.role(id) {
                out.extend(self.hierarchy(role.kind()).closure(id));
            }
        }
        out
    }

    /// Validates that a role exists *and* has the expected kind.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownRole`] or [`GrbacError::WrongRoleKind`].
    pub fn expect_kind(&self, id: RoleId, expected: RoleKind) -> Result<()> {
        let found = self.role(id)?.kind();
        if found == expected {
            Ok(())
        } else {
            Err(GrbacError::WrongRoleKind {
                role: id,
                expected,
                found,
            })
        }
    }
}

/// Serde adapter for [`RoleCatalog`]'s per-kind name maps: they travel
/// as the single `((kind, name), id)` pair list the catalog always had,
/// so snapshots load across the change in either direction.
mod names_by_kind {
    use std::collections::HashMap;

    use serde::{Error, Value};

    use super::RoleKind;
    use crate::id::RoleId;
    use crate::serde_pairs::hash;

    pub(super) fn to_value(maps: &[HashMap<String, RoleId>; 3]) -> Value {
        let pairs: HashMap<(RoleKind, String), RoleId> = RoleKind::ALL
            .iter()
            .zip(maps)
            .flat_map(|(&kind, names)| {
                names
                    .iter()
                    .map(move |(name, &id)| ((kind, name.clone()), id))
            })
            .collect();
        hash::to_value(&pairs)
    }

    pub(super) fn from_value(value: &Value) -> Result<[HashMap<String, RoleId>; 3], Error> {
        let mut maps: [HashMap<String, RoleId>; 3] = Default::default();
        let pairs: HashMap<(RoleKind, String), RoleId> = hash::from_value(value)?;
        for ((kind, name), id) in pairs {
            maps[kind as usize].insert(name, id);
        }
        Ok(maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_find() {
        let mut c = RoleCatalog::new();
        let child = c.declare("child", RoleKind::Subject).unwrap();
        assert_eq!(c.find(RoleKind::Subject, "child").unwrap(), child);
        assert_eq!(c.role(child).unwrap().name(), "child");
        assert_eq!(c.role(child).unwrap().kind(), RoleKind::Subject);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn same_name_allowed_across_kinds() {
        let mut c = RoleCatalog::new();
        let s = c.declare("kitchen", RoleKind::Subject).unwrap();
        let e = c.declare("kitchen", RoleKind::Environment).unwrap();
        assert_ne!(s, e);
    }

    #[test]
    fn duplicate_name_within_kind_rejected() {
        let mut c = RoleCatalog::new();
        c.declare("child", RoleKind::Subject).unwrap();
        let err = c.declare("child", RoleKind::Subject).unwrap_err();
        assert!(matches!(err, GrbacError::DuplicateName { .. }));
    }

    #[test]
    fn unknown_lookups_error() {
        let c = RoleCatalog::new();
        assert!(matches!(
            c.find(RoleKind::Object, "tv"),
            Err(GrbacError::UnknownRoleName { .. })
        ));
        assert!(matches!(
            c.role(RoleId::from_raw(99)),
            Err(GrbacError::UnknownRole(_))
        ));
    }

    #[test]
    fn specialization_and_closure() {
        let mut c = RoleCatalog::new();
        let home = c.declare("home_user", RoleKind::Subject).unwrap();
        let family = c.declare("family_member", RoleKind::Subject).unwrap();
        let child = c.declare("child", RoleKind::Subject).unwrap();
        c.specialize(family, home).unwrap();
        c.specialize(child, family).unwrap();

        assert!(c.is_specialization_of(child, home).unwrap());
        assert!(c.is_specialization_of(child, child).unwrap());
        assert!(!c.is_specialization_of(home, child).unwrap());

        let closure = c.closure(child).unwrap();
        assert_eq!(closure, BTreeSet::from([child, family, home]));
    }

    #[test]
    fn cross_kind_specialization_rejected() {
        let mut c = RoleCatalog::new();
        let s = c.declare("child", RoleKind::Subject).unwrap();
        let o = c.declare("tv", RoleKind::Object).unwrap();
        assert!(matches!(
            c.specialize(s, o),
            Err(GrbacError::KindMismatch { .. })
        ));
    }

    #[test]
    fn expand_unions_closures() {
        let mut c = RoleCatalog::new();
        let dev = c.declare("device", RoleKind::Object).unwrap();
        let ent = c.declare("entertainment", RoleKind::Object).unwrap();
        let tv = c.declare("tv", RoleKind::Object).unwrap();
        let fridge = c.declare("fridge", RoleKind::Object).unwrap();
        c.specialize(ent, dev).unwrap();
        c.specialize(tv, ent).unwrap();
        c.specialize(fridge, dev).unwrap();

        let expanded = c.expand(&[tv, fridge]);
        assert_eq!(expanded, BTreeSet::from([dev, ent, tv, fridge]));
    }

    #[test]
    fn expect_kind_guards_positions() {
        let mut c = RoleCatalog::new();
        let env = c.declare("weekdays", RoleKind::Environment).unwrap();
        assert!(c.expect_kind(env, RoleKind::Environment).is_ok());
        assert!(matches!(
            c.expect_kind(env, RoleKind::Subject),
            Err(GrbacError::WrongRoleKind { .. })
        ));
    }

    #[test]
    fn iter_kind_filters() {
        let mut c = RoleCatalog::new();
        c.declare("child", RoleKind::Subject).unwrap();
        c.declare("tv", RoleKind::Object).unwrap();
        c.declare("weekdays", RoleKind::Environment).unwrap();
        c.declare("parent", RoleKind::Subject).unwrap();
        assert_eq!(c.iter_kind(RoleKind::Subject).count(), 2);
        assert_eq!(c.iter_kind(RoleKind::Object).count(), 1);
        assert_eq!(c.iter().count(), 3 + 1);
    }

    #[test]
    fn name_index_keeps_its_serialized_pair_list() {
        // Written when the catalog kept one `(kind, name)` map.
        let earlier = r#"{"roles":[[3,{"id":3,"name":"kitchen","kind":"Environment"}],[2,{"id":2,"name":"kitchen","kind":"Object"}],[0,{"id":0,"name":"family","kind":"Subject"}],[1,{"id":1,"name":"child","kind":"Subject"}]],"by_name":[[["Subject","family"],0],[["Object","kitchen"],2],[["Subject","child"],1],[["Environment","kitchen"],3]],"subject_hierarchy":{"generals":[[0,[]],[1,[0]]],"specifics":[[0,[1]],[1,[]]]},"object_hierarchy":{"generals":[[2,[]]],"specifics":[[2,[]]]},"environment_hierarchy":{"generals":[[3,[]]],"specifics":[[3,[]]]},"alloc":{"next":4}}"#;
        let catalog: RoleCatalog = serde_json::from_str(earlier).unwrap();
        let id = RoleId::from_raw;
        assert_eq!(catalog.find(RoleKind::Subject, "child").unwrap(), id(1));
        assert_eq!(catalog.find(RoleKind::Object, "kitchen").unwrap(), id(2));
        assert_eq!(
            catalog.find(RoleKind::Environment, "kitchen").unwrap(),
            id(3)
        );
        assert!(catalog.find(RoleKind::Object, "child").is_err());
        assert!(catalog.is_specialization_of(id(1), id(0)).unwrap());

        // Written again, it reads back as the same pair list.
        #[derive(Deserialize)]
        struct Earlier {
            #[serde(with = "crate::serde_pairs::hash")]
            by_name: HashMap<(RoleKind, String), RoleId>,
        }
        let written: Earlier =
            serde_json::from_str(&serde_json::to_string(&catalog).unwrap()).unwrap();
        let expected = HashMap::from([
            ((RoleKind::Subject, "family".to_owned()), id(0)),
            ((RoleKind::Subject, "child".to_owned()), id(1)),
            ((RoleKind::Object, "kitchen".to_owned()), id(2)),
            ((RoleKind::Environment, "kitchen".to_owned()), id(3)),
        ]);
        assert_eq!(written.by_name, expected);
    }

    #[test]
    fn role_display() {
        let mut c = RoleCatalog::new();
        let id = c.declare("child", RoleKind::Subject).unwrap();
        assert_eq!(c.role(id).unwrap().to_string(), "subject role \"child\"");
    }
}
