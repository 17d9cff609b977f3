//! Serde adapters that serialize maps as sequences of `(key, value)`
//! pairs.
//!
//! The catalogs key their maps by typed ids (and one by a
//! `(RoleKind, String)` tuple); self-describing formats like JSON only
//! allow string map keys, so fields tagged
//! `#[serde(with = "crate::serde_pairs::hash")]` round-trip as pair
//! lists instead. This is what makes a whole
//! [`Grbac`](crate::engine::Grbac) engine storable as a JSON document —
//! the persistence story a real deployment needs.

/// Adapter for `HashMap<K, V, S>` with non-string keys, under any
/// hasher `S`: the pair list does not depend on it.
pub mod hash {
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    use serde::{Deserialize, Error, Serialize, Value};

    /// Serializes the map as a sequence of pairs, in the map's
    /// iteration order.
    pub fn to_value<K, V, S>(map: &HashMap<K, V, S>) -> Value
    where
        K: Serialize,
        V: Serialize,
    {
        Value::Seq(
            map.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    /// Deserializes a sequence of pairs back into a map.
    ///
    /// # Errors
    ///
    /// Rejects values that are not sequences of two-element sequences,
    /// or whose elements fail their own deserialization.
    pub fn from_value<K, V, S>(value: &Value) -> Result<HashMap<K, V, S>, Error>
    where
        K: Deserialize + Eq + Hash,
        V: Deserialize,
        S: BuildHasher + Default,
    {
        let items = value
            .as_seq()
            .ok_or_else(|| Error::expected("pair sequence", value))?;
        let mut map = HashMap::with_capacity_and_hasher(items.len(), S::default());
        for item in items {
            let pair = item
                .as_seq()
                .ok_or_else(|| Error::expected("(key, value) pair", item))?;
            if pair.len() != 2 {
                return Err(Error::expected("(key, value) pair", item));
            }
            map.insert(K::from_value(&pair[0])?, V::from_value(&pair[1])?);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use serde::{Deserialize, Serialize};

    use crate::id::RoleId;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrapper {
        #[serde(with = "crate::serde_pairs::hash")]
        map: HashMap<RoleId, u32>,
    }

    #[test]
    fn round_trips_through_json() {
        let mut map = HashMap::new();
        map.insert(RoleId::from_raw(0), 10);
        map.insert(RoleId::from_raw(7), 70);
        let wrapper = Wrapper { map };
        let json = serde_json::to_string(&wrapper).expect("pairs serialize");
        let back: Wrapper = serde_json::from_str(&json).expect("pairs deserialize");
        assert_eq!(wrapper, back);
    }

    #[test]
    fn empty_map_round_trips() {
        let wrapper = Wrapper {
            map: HashMap::new(),
        };
        let json = serde_json::to_string(&wrapper).unwrap();
        let back: Wrapper = serde_json::from_str(&json).unwrap();
        assert_eq!(wrapper, back);
    }
}
