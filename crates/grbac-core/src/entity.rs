//! Subjects, objects and transactions — the non-role entities of Figure 1.
//!
//! * A **subject** is a user of the system.
//! * An **object** is any protected resource.
//! * A **transaction** is a named series of one or more accesses to one or
//!   more objects (Figure 1); policy rules authorize transactions, never
//!   raw operations.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{GrbacError, Result};
use crate::id::{IdAllocator, IdMap, ObjectId, SubjectId, TransactionId};

/// A user of the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subject {
    id: SubjectId,
    name: String,
}

impl Subject {
    /// The subject's identifier.
    #[must_use]
    pub fn id(&self) -> SubjectId {
        self.id
    }

    /// The subject's unique name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A protected resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Object {
    id: ObjectId,
    name: String,
}

impl Object {
    /// The object's identifier.
    #[must_use]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The object's unique name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A named series of one or more accesses to one or more objects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    id: TransactionId,
    name: String,
}

impl Transaction {
    /// The transaction's identifier.
    #[must_use]
    pub fn id(&self) -> TransactionId {
        self.id
    }

    /// The transaction's unique name (e.g. `"use"`, `"view_stream"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Catalog of declared subjects, objects and transactions.
///
/// Names are unique per entity class; ids are dense and allocated per
/// class so the catalogs stay independent. The id-keyed maps, looked up
/// on every decide, hash with a multiplicative hasher instead of SipHash:
/// only the catalog's allocators mint their keys.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EntityCatalog {
    #[serde(with = "crate::serde_pairs::hash")]
    subjects: IdMap<SubjectId, Subject>,
    subjects_by_name: HashMap<String, SubjectId>,
    #[serde(with = "crate::serde_pairs::hash")]
    objects: IdMap<ObjectId, Object>,
    objects_by_name: HashMap<String, ObjectId>,
    #[serde(with = "crate::serde_pairs::hash")]
    transactions: IdMap<TransactionId, Transaction>,
    transactions_by_name: HashMap<String, TransactionId>,
    subject_alloc: IdAllocator,
    object_alloc: IdAllocator,
    transaction_alloc: IdAllocator,
}

impl EntityCatalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new subject.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] if the name is taken.
    pub fn declare_subject(&mut self, name: impl Into<String>) -> Result<SubjectId> {
        let name = name.into();
        if self.subjects_by_name.contains_key(&name) {
            return Err(GrbacError::DuplicateName {
                kind: "subject",
                name,
            });
        }
        let id = SubjectId::from_raw(self.subject_alloc.next());
        self.subjects_by_name.insert(name.clone(), id);
        self.subjects.insert(id, Subject { id, name });
        Ok(id)
    }

    /// Declares a new object.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] if the name is taken.
    pub fn declare_object(&mut self, name: impl Into<String>) -> Result<ObjectId> {
        let name = name.into();
        if self.objects_by_name.contains_key(&name) {
            return Err(GrbacError::DuplicateName {
                kind: "object",
                name,
            });
        }
        let id = ObjectId::from_raw(self.object_alloc.next());
        self.objects_by_name.insert(name.clone(), id);
        self.objects.insert(id, Object { id, name });
        Ok(id)
    }

    /// Declares a new transaction.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] if the name is taken.
    pub fn declare_transaction(&mut self, name: impl Into<String>) -> Result<TransactionId> {
        let name = name.into();
        if self.transactions_by_name.contains_key(&name) {
            return Err(GrbacError::DuplicateName {
                kind: "transaction",
                name,
            });
        }
        let id = TransactionId::from_raw(self.transaction_alloc.next());
        self.transactions_by_name.insert(name.clone(), id);
        self.transactions.insert(id, Transaction { id, name });
        Ok(id)
    }

    /// Looks up a subject by id.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownSubject`] for unknown ids.
    pub fn subject(&self, id: SubjectId) -> Result<&Subject> {
        self.subjects.get(&id).ok_or(GrbacError::UnknownSubject(id))
    }

    /// Looks up an object by id.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownObject`] for unknown ids.
    pub fn object(&self, id: ObjectId) -> Result<&Object> {
        self.objects.get(&id).ok_or(GrbacError::UnknownObject(id))
    }

    /// Looks up a transaction by id.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownTransaction`] for unknown ids.
    pub fn transaction(&self, id: TransactionId) -> Result<&Transaction> {
        self.transactions
            .get(&id)
            .ok_or(GrbacError::UnknownTransaction(id))
    }

    /// Finds a subject id by name.
    ///
    /// # Errors
    ///
    /// [`GrbacError::DuplicateName`] is never returned here;
    /// [`GrbacError::UnknownSubject`] is signalled via a sentinel-free
    /// [`GrbacError::UnknownRoleName`]-style error: the name variant.
    pub fn find_subject(&self, name: &str) -> Result<SubjectId> {
        self.subjects_by_name
            .get(name)
            .copied()
            .ok_or_else(|| GrbacError::UnknownTransactionName(format!("subject {name}")))
    }

    /// Finds an object id by name.
    ///
    /// # Errors
    ///
    /// An error naming the missing object.
    pub fn find_object(&self, name: &str) -> Result<ObjectId> {
        self.objects_by_name
            .get(name)
            .copied()
            .ok_or_else(|| GrbacError::UnknownTransactionName(format!("object {name}")))
    }

    /// Finds a transaction id by name.
    ///
    /// # Errors
    ///
    /// [`GrbacError::UnknownTransactionName`] if not declared.
    pub fn find_transaction(&self, name: &str) -> Result<TransactionId> {
        self.transactions_by_name
            .get(name)
            .copied()
            .ok_or_else(|| GrbacError::UnknownTransactionName(name.to_owned()))
    }

    /// Number of declared subjects.
    #[must_use]
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Number of declared objects.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of declared transactions.
    #[must_use]
    pub fn transaction_count(&self) -> usize {
        self.transactions.len()
    }

    /// Iterates over all subjects in unspecified order.
    pub fn subjects(&self) -> impl Iterator<Item = &Subject> {
        self.subjects.values()
    }

    /// Iterates over all objects in unspecified order.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.values()
    }

    /// Iterates over all transactions in unspecified order.
    pub fn transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.transactions.values()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut c = EntityCatalog::new();
        let alice = c.declare_subject("alice").unwrap();
        let tv = c.declare_object("living_room_tv").unwrap();
        let use_t = c.declare_transaction("use").unwrap();

        assert_eq!(c.subject(alice).unwrap().name(), "alice");
        assert_eq!(c.object(tv).unwrap().name(), "living_room_tv");
        assert_eq!(c.transaction(use_t).unwrap().name(), "use");
        assert_eq!(c.find_subject("alice").unwrap(), alice);
        assert_eq!(c.find_object("living_room_tv").unwrap(), tv);
        assert_eq!(c.find_transaction("use").unwrap(), use_t);
    }

    #[test]
    fn duplicate_names_rejected_per_class() {
        let mut c = EntityCatalog::new();
        c.declare_subject("alice").unwrap();
        assert!(c.declare_subject("alice").is_err());
        // but the same string is fine in another class
        assert!(c.declare_object("alice").is_ok());
        assert!(c.declare_transaction("alice").is_ok());
    }

    #[test]
    fn unknown_lookups_fail() {
        let c = EntityCatalog::new();
        assert!(c.subject(SubjectId::from_raw(0)).is_err());
        assert!(c.object(ObjectId::from_raw(0)).is_err());
        assert!(c.transaction(TransactionId::from_raw(0)).is_err());
        assert!(c.find_subject("nobody").is_err());
        assert!(c.find_object("nothing").is_err());
        assert!(c.find_transaction("noop").is_err());
    }

    #[test]
    fn counts_and_iterators() {
        let mut c = EntityCatalog::new();
        c.declare_subject("a").unwrap();
        c.declare_subject("b").unwrap();
        c.declare_object("x").unwrap();
        c.declare_transaction("t1").unwrap();
        c.declare_transaction("t2").unwrap();
        c.declare_transaction("t3").unwrap();
        assert_eq!(c.subject_count(), 2);
        assert_eq!(c.object_count(), 1);
        assert_eq!(c.transaction_count(), 3);
        assert_eq!(c.subjects().count(), 2);
        assert_eq!(c.objects().count(), 1);
        assert_eq!(c.transactions().count(), 3);
    }

    #[test]
    fn serialized_catalog_keeps_its_pair_lists() {
        // Written when the id-keyed maps hashed with SipHash.
        let earlier = r#"{"subjects":[[0,{"id":0,"name":"alice"}],[1,{"id":1,"name":"bob"}],[2,{"id":2,"name":"carol"}]],"subjects_by_name":[["bob",1],["carol",2],["alice",0]],"objects":[[1,{"id":1,"name":"stove"}],[0,{"id":0,"name":"tv"}]],"objects_by_name":[["tv",0],["stove",1]],"transactions":[[0,{"id":0,"name":"use"}],[2,{"id":2,"name":"watch"}],[1,{"id":1,"name":"open"}]],"transactions_by_name":[["watch",2],["use",0],["open",1]],"subject_alloc":{"next":3},"object_alloc":{"next":2},"transaction_alloc":{"next":3}}"#;
        let catalog: EntityCatalog = serde_json::from_str(earlier).unwrap();
        assert_eq!(
            catalog.find_subject("carol").unwrap(),
            SubjectId::from_raw(2)
        );
        assert_eq!(
            catalog.object(ObjectId::from_raw(1)).unwrap().name(),
            "stove"
        );
        assert_eq!(
            catalog
                .transaction(TransactionId::from_raw(2))
                .unwrap()
                .name(),
            "watch"
        );
        let mut grown = catalog.clone();
        assert_eq!(grown.declare_subject("dave").unwrap().as_raw(), 3);

        // Written again, every field holds the same set of pairs; only
        // their order, which follows the hash order, may differ.
        fn fields(json: &str) -> BTreeMap<String, BTreeSet<String>> {
            let serde::Value::Map(fields) = serde_json::from_str::<serde::Value>(json).unwrap()
            else {
                panic!("a catalog is a JSON object");
            };
            fields
                .into_iter()
                .map(|(name, value)| {
                    let items = match value {
                        serde::Value::Seq(pairs) => pairs
                            .iter()
                            .map(|pair| serde_json::to_string(pair).unwrap())
                            .collect(),
                        other => BTreeSet::from([serde_json::to_string(&other).unwrap()]),
                    };
                    (name, items)
                })
                .collect()
        }
        let written = serde_json::to_string(&catalog).unwrap();
        assert_eq!(fields(&written), fields(earlier));
    }

    #[test]
    fn ids_are_dense_per_class() {
        let mut c = EntityCatalog::new();
        assert_eq!(c.declare_subject("a").unwrap().as_raw(), 0);
        assert_eq!(c.declare_subject("b").unwrap().as_raw(), 1);
        assert_eq!(c.declare_object("x").unwrap().as_raw(), 0);
    }
}
