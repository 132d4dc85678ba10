//! A fixed-capacity LRU cache for decoded records.
//!
//! The thesis' performance chapter (7.2) distinguishes *cold* and *warm*
//! operation costs; this cache is what produces that distinction in our
//! build. It is a classic O(1) LRU: a hash map from key to slot plus an
//! intrusive doubly-linked recency list stored in a slab.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with a fixed entry capacity.
///
/// It keeps no hit/miss tally of its own: each embedder counts where its
/// readers look (the object cache into the storage `Stats`, the POOL plan
/// cache into the executor's counters).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries. A capacity of zero
    /// disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slots[idx].value.as_ref()
    }

    /// Insert or replace `key`; evicts the least-recently-used entry when at
    /// capacity. Returns the evicted `(key, value)` pair, if any.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }

        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            let slot = &mut self.slots[victim];
            let old_key = slot.key.clone();
            self.map.remove(&old_key);
            let old_value = slot
                .value
                .replace(value)
                .expect("occupied slot has a value");
            slot.key = key.clone();
            self.map.insert(key, victim);
            self.attach_front(victim);
            Some((old_key, old_value))
        } else {
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = Slot {
                        key: key.clone(),
                        value: Some(value),
                        prev: NIL,
                        next: NIL,
                    };
                    i
                }
                None => {
                    self.slots.push(Slot {
                        key: key.clone(),
                        value: Some(value),
                        prev: NIL,
                        next: NIL,
                    });
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.attach_front(idx);
            None
        }
    }

    /// Remove `key` from the cache, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        let slot = &mut self.slots[idx];
        slot.prev = NIL;
        slot.next = NIL;
        slot.value.take()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c: LruCache<u64, String> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.put(1, "a".into());
        assert_eq!(c.get(&1).map(String::as_str), Some("a"));
        assert!(c.get(&2).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.get(&1); // 2 is now LRU
        let evicted = c.put(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn replace_updates_value_without_eviction() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.put(1, 10);
        assert!(c.put(1, 11).is_none());
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut c: LruCache<u64, String> = LruCache::new(2);
        c.put(1, "a".into());
        c.put(2, "b".into());
        assert_eq!(c.remove(&1), Some("a".into()));
        assert_eq!(c.len(), 1);
        // Reuse the freed slot; no eviction expected.
        assert!(c.put(3, "c".into()).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&3).map(String::as_str), Some("c"));
        assert_eq!(c.get(&2).map(String::as_str), Some("b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u64, u64> = LruCache::new(0);
        c.put(1, 10);
        assert!(c.get(&1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c: LruCache<u64, u64> = LruCache::new(8);
        for i in 0..1000u64 {
            c.put(i, i * 2);
            if i >= 8 {
                assert!(c.len() <= 8);
            }
            if i % 3 == 0 {
                c.remove(&(i / 2));
            }
        }
        // The most recent insert must always be present.
        assert_eq!(c.get(&999), Some(&1998));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c: LruCache<u64, u64> = LruCache::new(4);
        for i in 0..4 {
            c.put(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&0).is_none());
        c.put(9, 9);
        assert_eq!(c.get(&9), Some(&9));
    }
}
