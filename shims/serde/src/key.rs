//! The field name a [`Map`](crate::Map) entry holds, and the
//! process-wide table that lets documents share one copy of each name.
//!
//! `Map` hands a `Key` out as `&String` (or, from `into_iter`, as an
//! owned `String`) whichever of its two shapes it has. The one thing
//! visible outside the crate is [`FieldName`]: a key resolved once, for
//! a caller that looks the same name up in many maps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Longest name the table takes, in bytes. Field names of the stores
/// this workspace serves are 2–20 bytes; anything longer is more likely
/// data used as a key (an id, a path, a contributed label) than
/// vocabulary, and stays with the map that holds it.
const MAX_LEN: usize = 64;

/// Slots in the table (a power of two).
const SLOTS: usize = 8192;

/// Names the table takes before it stops: half its slots, so that a
/// probe for a name it does not hold meets an empty slot after one or
/// two steps. A few thousand is an order of magnitude above the
/// vocabulary of every collection in the workspace taken together;
/// past it a new name is stored the way every name was before the
/// table existed.
const MAX_NAMES: usize = SLOTS / 2;

/// Slots a lookup examines before it gives up. Linear probing at load
/// ≤ 1/2 with a mixing hash stays well inside this; names *made* to
/// collide can fill one run of slots, and then cost their senders this
/// many comparisons and an owned key, not a walk of the table.
const MAX_PROBES: usize = 16;

/// The names, each written once into the slot its hash (or the next
/// free slot after it) selects and never moved, changed or freed: a
/// `&'static String` into the table is what a shared key is.
static TABLE: [OnceLock<String>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// Slots filled or about to be: raised before a slot is written and
/// given back if another thread wrote it first, so it never reads
/// below the number of names present and never passes `MAX_NAMES`.
/// `Relaxed`: it publishes nothing — a name is published by its
/// slot's `OnceLock`.
static NAMES: AtomicUsize = AtomicUsize::new(0);

/// A field name as a map entry stores it.
#[derive(Clone)]
pub(crate) enum Key {
    /// A name in the table. Copying and dropping it touch no
    /// allocation and write no memory another thread reads.
    Shared(&'static String),
    /// A name the table did not take (too long, or the table was full).
    /// Boxed so that a key is two words, not three — every entry of
    /// every map pays for the larger variant — and a `String` because
    /// iteration lends keys out as `&String`.
    #[allow(clippy::box_collection)]
    Owned(Box<String>),
}

impl Key {
    /// The key for `name`, shared if the table holds or takes it. A
    /// name the caller owns gives up its buffer only when it is not.
    pub(crate) fn new(name: impl AsRef<str> + Into<String>) -> Key {
        match intern(name.as_ref(), true) {
            Some(shared) => Key::Shared(shared),
            None => Key::Owned(Box::new(name.into())),
        }
    }

    /// Whether two keys name one field. Two shared keys do exactly when
    /// they are one address: a name enters one slot and never leaves
    /// it. Any pair with an owned key compares bytes, because one name
    /// can be held both ways: a name too long for the table, or two
    /// threads entering it as the table's last free slot is taken — one
    /// of them takes the slot, the other finds the table full.
    pub(crate) fn same(&self, other: &Key) -> bool {
        match (self, other) {
            (Key::Shared(a), Key::Shared(b)) => std::ptr::eq(*a, *b),
            _ => self.as_string() == other.as_string(),
        }
    }

    pub(crate) fn as_string(&self) -> &String {
        match self {
            Key::Shared(name) => name,
            Key::Owned(name) => name,
        }
    }

    /// The name as an owned `String` (what `Map::into_iter` yields).
    pub(crate) fn into_string(self) -> String {
        match self {
            Key::Shared(name) => name.clone(),
            Key::Owned(name) => *name,
        }
    }
}

/// A field name resolved once, for a caller that reads or writes the
/// same name in many maps ([`Map::get_field`](crate::Map::get_field),
/// [`Map::insert_field`](crate::Map::insert_field)): against a map
/// entry holding the table's copy it compares one address, and it
/// inserts without hashing the name again. Making one reads the table
/// but never enters a name — a name no map holds yet (one a query
/// names, say) stays out of it and is compared by bytes; a map it is
/// inserted into enters it as `insert` would. (An addition to
/// `serde_json`'s surface.)
#[derive(Clone)]
pub struct FieldName(pub(crate) Key);

impl FieldName {
    /// Resolve `name` against the table.
    pub fn new(name: &str) -> FieldName {
        FieldName(match intern(name, false) {
            Some(shared) => Key::Shared(shared),
            None => Key::Owned(Box::new(name.to_owned())),
        })
    }

    /// The name as text.
    pub fn as_str(&self) -> &str {
        self.0.as_string()
    }

    /// The key an entry inserted under this name holds: the table's copy,
    /// shared, entered now if it was not there when `self` was made.
    pub(crate) fn entry_key(&self) -> Key {
        match &self.0 {
            Key::Owned(name) => Key::new(name.as_str()),
            shared => shared.clone(),
        }
    }
}

impl PartialEq for FieldName {
    fn eq(&self, other: &FieldName) -> bool {
        self.0.same(&other.0)
    }
}

impl std::fmt::Debug for FieldName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

/// The table's copy of `name`, entering it if `enter` and there is
/// room. `None` when the name is over `MAX_LEN`, or absent with the
/// table at its bound, this name's run of slots taken or `enter` false.
///
/// A name that is present is found with acquire loads and string
/// comparisons only — no lock, no store to memory another thread
/// reads. Entering a name is the one path that writes: the counter,
/// then the first empty slot of the probe sequence through its
/// `OnceLock`, on which threads entering names at that slot queue, so
/// one of them writes it and the rest read what was written. Every
/// thread probes a given name's slots in the same order and a slot
/// never empties, so a name cannot come to rest in two slots.
fn intern(name: &str, enter: bool) -> Option<&'static String> {
    if name.len() > MAX_LEN {
        return None;
    }
    let first = (hash(name.as_bytes()) >> (64 - SLOTS.trailing_zeros())) as usize;
    for step in 0..MAX_PROBES {
        let slot = &TABLE[(first + step) % SLOTS];
        let held = match slot.get() {
            Some(held) => held,
            None if !enter => return None,
            None => {
                let reserved = NAMES
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < MAX_NAMES).then_some(n + 1)
                    })
                    .is_ok();
                if !reserved {
                    return None;
                }
                let mut entered = false;
                let held = slot.get_or_init(|| {
                    entered = true;
                    name.to_owned()
                });
                if !entered {
                    NAMES.fetch_sub(1, Ordering::Relaxed);
                }
                held
            }
        };
        if held == name {
            return Some(held);
        }
    }
    None
}

/// A multiply-rotate hash over eight bytes at a time (the `FxHasher`
/// recurrence); its high bits pick the slot. Not keyed: what crafted
/// collisions can buy is bounded by `MAX_PROBES`, and what a flood of
/// distinct names can buy by `MAX_NAMES`, whatever the hash.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let word = |at: &[u8]| u64::from_le_bytes(at.try_into().expect("eight bytes"));
    let h = bytes.len() as u64;
    match bytes.len().checked_sub(8) {
        // Most field names: one word, put together byte by byte.
        None => mix(h, bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b))),
        // The last word overlaps the one before it rather than being
        // padded: every byte is mixed in, some twice.
        Some(last) => mix(
            bytes.chunks_exact(8).map(word).fold(h, mix),
            word(&bytes[last..]),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_name_is_shared_and_a_long_one_is_owned() {
        let (a, b) = (Key::new("formula"), Key::new("formula"));
        assert!(
            matches!((&a, &b), (Key::Shared(x), Key::Shared(y)) if std::ptr::eq(*x, *y)),
            "one address for one name"
        );
        assert_eq!(a.into_string(), "formula");

        let long = "x".repeat(MAX_LEN + 1);
        let key = Key::new(long.clone());
        assert!(matches!(key, Key::Owned(_)));
        assert_eq!(key.clone().as_string(), &long);
        assert_eq!(key.into_string(), long);
        assert!(matches!(Key::new("y".repeat(MAX_LEN)), Key::Shared(_)));
    }

    #[test]
    fn a_shared_and_an_owned_key_of_one_name_are_the_same_field() {
        let shared = Key::new("same_field_either_way");
        let owned = Key::Owned(Box::new("same_field_either_way".to_owned()));
        assert!(matches!(shared, Key::Shared(_)));
        assert!(shared.same(&owned) && owned.same(&shared) && owned.same(&owned));
        assert!(!shared.same(&Key::new("another_field")));
        assert!(!owned.same(&Key::Owned(Box::new("another_field".to_owned()))));
        assert_eq!(FieldName(owned), FieldName::new("same_field_either_way"));
    }

    #[test]
    fn a_field_name_reads_the_table_and_enters_nothing() {
        assert!(matches!(FieldName::new("seen_by_a_map").0, Key::Owned(_)));
        let entered = FieldName::new("seen_by_a_map").entry_key();
        let Key::Shared(entered) = entered else {
            panic!("inserting a name enters it");
        };
        assert!(
            matches!(FieldName::new("seen_by_a_map").0, Key::Shared(n) if std::ptr::eq(n, entered))
        );
        let long = FieldName::new(&"z".repeat(MAX_LEN + 1));
        assert!(matches!(long.entry_key(), Key::Owned(_)));
    }

    #[test]
    fn the_hash_spreads_names_that_differ_in_one_byte() {
        let slots: std::collections::BTreeSet<u64> = (0..256u32)
            .map(|i| hash(format!("field_{i}").as_bytes()) >> (64 - SLOTS.trailing_zeros()))
            .collect();
        assert!(slots.len() > 240, "{} distinct slots of 256", slots.len());
    }
}
