//! Bounded read-through query cache with generation-counter
//! invalidation.
//!
//! Entries are keyed by a *normalized* query string the caller builds
//! (collection, limit, projection, and the sanitized filter re-serialized
//! with sorted keys — see `QueryEngine::cache_key`), so syntactically
//! different but semantically identical queries share one slot. Each
//! entry records the owning collection's **generation** — a counter the
//! collection bumps on every write. A probe whose expected generation no
//! longer matches the stored one drops the entry and reports a miss:
//! writers never touch the cache, yet a hit can never serve data from
//! before the last write. Eviction is FIFO by insertion order, which is
//! enough for the bounded-memory guarantee without an access-order list
//! on the (hot) probe path. No entry is freed under the cache's lock:
//! `get`, `put` and `clear` move what they remove out of the guard's
//! scope first, so dropping a large result never stalls another probe.

use mp_sync::{LockRank, OrderedMutex};
use std::collections::{BTreeMap, VecDeque};

/// Counter snapshot for the profiler / REST diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that returned a value at the expected generation.
    pub hits: u64,
    /// Probes that found nothing cached.
    pub misses: u64,
    /// Probes that found a stale entry (generation moved) and dropped it.
    pub invalidations: u64,
    /// Entries dropped to keep the cache within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

struct Entry<V> {
    generation: u64,
    value: V,
}

struct CacheState<V> {
    map: BTreeMap<String, Entry<V>>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

/// Bounded map from normalized query key to cached result.
pub struct QueryCache<V> {
    state: OrderedMutex<CacheState<V>>,
    capacity: usize,
}

impl<V: Clone> QueryCache<V> {
    /// Cache holding at most `capacity` entries (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            state: OrderedMutex::new(
                LockRank::QueryCache,
                CacheState {
                    map: BTreeMap::new(),
                    order: VecDeque::new(),
                    hits: 0,
                    misses: 0,
                    invalidations: 0,
                    evictions: 0,
                },
            ),
            capacity: capacity.max(1),
        }
    }

    /// Probe for `key` at `generation`. A stored entry from an older
    /// generation is removed (counted as an invalidation) and reported
    /// as a miss.
    pub fn get(&self, key: &str, generation: u64) -> Option<V> {
        // The guard lives in the inner block only: a stale entry is
        // moved out of it and freed after the lock is released.
        let (found, _stale) = {
            let mut st = self.state.lock();
            match st.map.get(key) {
                Some(e) if e.generation == generation => {
                    let value = e.value.clone();
                    st.hits += 1;
                    (Some(value), None)
                }
                Some(_) => {
                    let stale = st.map.remove(key);
                    st.order.retain(|k| k != key);
                    st.invalidations += 1;
                    st.misses += 1;
                    (None, stale)
                }
                None => {
                    st.misses += 1;
                    (None, None)
                }
            }
        };
        found
    }

    /// Store `value` for `key` as of `generation`, evicting the oldest
    /// entries if the cache is over capacity.
    pub fn put(&self, key: String, generation: u64, value: V) {
        // As in `get`: what this call replaces or evicts is dropped once
        // the guard is gone — one client evicting a 10,000-row result
        // must not stall every other client's probe while it is freed.
        let _removed = {
            let mut removed = Vec::new();
            let mut st = self.state.lock();
            match st.map.insert(key.clone(), Entry { generation, value }) {
                Some(replaced) => removed.push(replaced),
                None => st.order.push_back(key),
            }
            while st.map.len() > self.capacity {
                let Some(oldest) = st.order.pop_front() else {
                    break;
                };
                if let Some(evicted) = st.map.remove(&oldest) {
                    st.evictions += 1;
                    removed.push(evicted);
                }
            }
            removed
        };
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        let _removed = {
            let mut st = self.state.lock();
            st.order.clear();
            std::mem::take(&mut st.map)
        };
    }

    /// Snapshot of the usage counters.
    pub fn stats(&self) -> CacheStats {
        let st = self.state.lock();
        CacheStats {
            hits: st.hits,
            misses: st.misses,
            invalidations: st.invalidations,
            evictions: st.evictions,
            len: st.map.len(),
        }
    }
}

impl<V> std::fmt::Debug for QueryCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_at_same_generation() {
        let cache = QueryCache::new(8);
        assert_eq!(cache.get("k", 3), None);
        cache.put("k".into(), 3, vec![1u32, 2, 3]);
        assert_eq!(cache.get("k", 3), Some(vec![1, 2, 3]));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.len), (1, 1, 1));
    }

    #[test]
    fn generation_bump_invalidates() {
        let cache = QueryCache::new(8);
        cache.put("k".into(), 1, "old".to_string());
        // A write moved the collection to generation 2: the stale entry
        // must not be served and must be dropped.
        assert_eq!(cache.get("k", 2), None);
        let st = cache.stats();
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.len, 0);
        // Re-populated at the new generation it serves again.
        cache.put("k".into(), 2, "new".to_string());
        assert_eq!(cache.get("k", 2), Some("new".to_string()));
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let cache = QueryCache::new(2);
        cache.put("a".into(), 0, 1u8);
        cache.put("b".into(), 0, 2u8);
        cache.put("c".into(), 0, 3u8);
        let st = cache.stats();
        assert_eq!(st.len, 2);
        assert_eq!(st.evictions, 1);
        assert_eq!(cache.get("a", 0), None, "oldest entry evicted");
        assert_eq!(cache.get("b", 0), Some(2));
        assert_eq!(cache.get("c", 0), Some(3));
    }

    #[test]
    fn overwrite_does_not_duplicate_order_slots() {
        let cache = QueryCache::new(2);
        cache.put("a".into(), 0, 1u8);
        cache.put("a".into(), 1, 2u8);
        cache.put("b".into(), 0, 3u8);
        let st = cache.stats();
        assert_eq!(st.len, 2);
        assert_eq!(st.evictions, 0);
        assert_eq!(cache.get("a", 1), Some(2));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = QueryCache::new(4);
        cache.put("a".into(), 0, 1u8);
        assert_eq!(cache.get("a", 0), Some(1));
        cache.clear();
        assert_eq!(cache.get("a", 0), None);
        let st = cache.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.len, 0);
    }

    /// A value whose `Drop` re-takes the cache's lock. If any path
    /// freed an entry under the guard this would trip the rank check
    /// (debug) or self-deadlock (release).
    #[derive(Clone)]
    struct Reentrant {
        cache: std::sync::Weak<QueryCache<Reentrant>>,
        drops: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Drop for Reentrant {
        fn drop(&mut self) {
            if let Some(cache) = self.cache.upgrade() {
                let _ = cache.stats();
            }
            self.drops
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn entries_are_freed_outside_the_lock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let cache = Arc::new(QueryCache::new(1));
        let drops = Arc::new(AtomicUsize::new(0));
        let value = || Reentrant {
            cache: Arc::downgrade(&cache),
            drops: Arc::clone(&drops),
        };
        cache.put("a".into(), 0, value());
        // Replaced by a newer generation of the same key.
        cache.put("a".into(), 1, value());
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // Evicted by `put` at capacity.
        cache.put("b".into(), 0, value());
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Invalidated by a `get` at a newer generation.
        assert!(cache.get("b", 1).is_none());
        assert_eq!(drops.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().invalidations, 1);
        // Dropped by `clear`.
        cache.put("c".into(), 0, value());
        cache.clear();
        assert_eq!(drops.load(Ordering::Relaxed), 4);
        assert_eq!(cache.stats().len, 0);
    }
}
