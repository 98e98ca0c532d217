//! Insertion-ordered map matching `serde_json::Map` with `preserve_order`.

use std::fmt;
use std::marker::PhantomData;

use crate::key::{FieldName, Key};
use crate::value::Value;

/// An insertion-ordered `String -> Value` map backed by a vector.
///
/// Lookups are linear; documents in this workspace are small enough that this
/// beats hashing in practice and keeps the shim dependency-free.
///
/// An entry does not own its field name: the name is stored once per
/// process, the first time any map sees it, and every entry that uses it
/// holds a pointer to that one copy — so cloning or dropping a map, or
/// inserting under a name some map has held before, allocates and frees
/// nothing for the key. The store of names is bounded; a name it does
/// not take (there are too many, or this one is long) is owned by its
/// entry instead. No method tells the two apart: keys go in as `String`,
/// `&str` or [`FieldName`] and come out as `&String` or `String` either
/// way.
#[derive(Clone, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(Key, V)>,
    marker: PhantomData<K>,
}

impl Map<String, Value> {
    /// Create an empty map.
    pub fn new() -> Self {
        Map::with_capacity(0)
    }

    /// Create an empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Map {
            entries: Vec::with_capacity(cap),
            marker: PhantomData,
        }
    }

    /// Drop the spare capacity insertion left behind.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Entries the map can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| k.as_string() == key)
            .map(|(_, v)| v)
    }

    /// [`Map::get`] by a name resolved once: an entry holding the same
    /// shared name is found by its address. (An addition to
    /// `serde_json::Map`'s surface.)
    pub fn get_field(&self, name: &FieldName) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| k.same(&name.0))
            .map(|(_, v)| v)
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k.as_string() == key)
            .map(|(_, v)| v)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.put(key, value)
    }

    /// [`Map::insert`] for a caller that holds the key by borrow: no
    /// `String` is built to be thrown away when the name is one the
    /// process already shares. (An addition to `serde_json::Map`'s
    /// surface.)
    pub fn insert_str(&mut self, key: &str, value: Value) -> Option<Value> {
        self.put(key, value)
    }

    /// [`Map::insert`] by a name resolved once: found as
    /// [`Map::get_field`] finds it, and a new entry takes the name's
    /// shared copy without hashing it again. (An addition to
    /// `serde_json::Map`'s surface.)
    pub fn insert_field(&mut self, name: &FieldName, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| k.same(&name.0)) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((name.entry_key(), value));
                None
            }
        }
    }

    fn put(&mut self, key: impl AsRef<str> + Into<String>, value: Value) -> Option<Value> {
        match self.get_mut(key.as_ref()) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((Key::new(key), value));
                None
            }
        }
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.position(key)?;
        Some(self.entries.remove(idx).1)
    }

    fn position(&self, key: &str) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k.as_string() == key)
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keep only entries for which `f` returns true.
    pub fn retain(&mut self, mut f: impl FnMut(&String, &mut Value) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k.as_string(), v));
    }

    /// Vacant-or-occupied entry handle.
    pub fn entry(&mut self, key: impl Into<String>) -> Entry<'_> {
        Entry {
            map: self,
            key: key.into(),
        }
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            entries: self.entries.iter(),
        }
    }

    /// Iterate with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (k.as_string(), v))
    }

    /// Iterate over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k.as_string())
    }

    /// Iterate over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterate over mutable values.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

/// Entry handle returned by [`Map::entry`].
pub struct Entry<'a> {
    map: &'a mut Map<String, Value>,
    key: String,
}

impl<'a> Entry<'a> {
    /// Insert `default` if vacant, then return the value.
    pub fn or_insert(self, default: Value) -> &'a mut Value {
        self.or_insert_with(|| default)
    }

    /// Insert `default()` if vacant, then return the value.
    pub fn or_insert_with(self, default: impl FnOnce() -> Value) -> &'a mut Value {
        let idx = match self.map.position(&self.key) {
            Some(i) => i,
            None => {
                self.map.entries.push((Key::new(self.key), default()));
                self.map.entries.len() - 1
            }
        };
        &mut self.map.entries[idx].1
    }

    /// Mutate the value in place if occupied.
    pub fn and_modify(self, f: impl FnOnce(&mut Value)) -> Self {
        if let Some(value) = self.map.get_mut(&self.key) {
            f(value);
        }
        self
    }
}

impl<Q: AsRef<str> + ?Sized> std::ops::Index<&Q> for Map<String, Value> {
    type Output = Value;

    fn index(&self, key: &Q) -> &Value {
        self.get(key.as_ref())
            .unwrap_or_else(|| panic!("no entry for key {:?}", key.as_ref()))
    }
}

impl<Q: AsRef<str> + ?Sized> std::ops::IndexMut<&Q> for Map<String, Value> {
    fn index_mut(&mut self, key: &Q) -> &mut Value {
        let key = key.as_ref();
        if !self.contains_key(key) {
            panic!("no entry for key {key:?}");
        }
        self.get_mut(key).expect("checked above")
    }
}

/// Equality is order-independent, matching map semantics.
impl PartialEq for Map<String, Value> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl fmt::Debug for Map<String, Value> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            entries: self.entries.into_iter(),
        }
    }
}

/// Owning iterator over a [`Map`]'s entries in insertion order. Each
/// key is handed over as a `String` of its own, which for a shared
/// name is a copy made here.
pub struct IntoIter {
    entries: std::vec::IntoIter<(Key, Value)>,
}

impl Iterator for IntoIter {
    type Item = (String, Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.entries.next().map(|(k, v)| (k.into_string(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

/// Borrowing iterator over a [`Map`]'s entries in insertion order
/// (what [`Map::iter`] and `for (k, v) in &map` return).
pub struct Iter<'a> {
    entries: std::slice::Iter<'a, (Key, Value)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.entries.next().map(|(k, v)| (k.as_string(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    /// Allocated once, at the iterator's lower size bound.
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut m = Map::with_capacity(iter.size_hint().0);
        m.extend(iter);
        m
    }
}

impl Extend<(String, Value)> for Map<String, Value> {
    /// Reserves from the iterator's lower size bound before inserting:
    /// all of it into an empty map, half of it into a populated one,
    /// whose keys the iterator may be overwriting (the rule
    /// `HashMap::extend` follows).
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let hint = iter.size_hint().0;
        self.entries.reserve(if self.is_empty() {
            hint
        } else {
            hint.div_ceil(2)
        });
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shared_name_finds_an_entry_that_owns_the_same_name() {
        let mut map = Map::new();
        let owned = Key::Owned(Box::new("owned_by_its_entry".to_owned()));
        map.entries.push((owned, Value::from(1u64)));
        let _enter = Key::new("owned_by_its_entry");
        let name = FieldName::new("owned_by_its_entry");
        assert!(matches!(name.0, Key::Shared(_)));
        assert_eq!(map.get_field(&name), Some(&Value::from(1u64)));
        assert_eq!(
            map.insert_field(&name, Value::Null),
            Some(Value::from(1u64))
        );
        assert_eq!(
            (map.len(), map.get("owned_by_its_entry")),
            (1, Some(&Value::Null))
        );
    }
}
