//! Byte-budget LRU cache bookkeeping.
//!
//! Servers in the ensemble (storage nodes, small-file servers, the µproxy's
//! attribute cache) are memory-limited; SPECsfs latency behaviour in the
//! paper (Figure 6) hinges on the small-file servers overflowing their 1 GB
//! of cache. This LRU tracks *which* items are resident and charges evictions
//! to the caller; the cached payloads themselves live with the owning actor.

use crate::fxmap::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Slab index meaning "no neighbour".
const NIL: u32 = u32::MAX;

/// One resident entry: a node of the recency list, stored in the slab.
#[derive(Debug, Clone)]
struct Node<K> {
    /// `None` while the slot sits on the free list.
    key: Option<K>,
    size: u64,
    /// Neighbour towards the cold end.
    prev: u32,
    /// Neighbour towards the hot end.
    next: u32,
}

/// An LRU set with a byte capacity.
///
/// One hash map from key to slab slot, and a doubly linked recency list
/// threaded through the slab (`head` coldest, `tail` hottest): a hit is
/// one hash lookup and an O(1) relink. Eviction is strict LRU — victims
/// leave in exactly the order they were last touched — because the
/// simulated disk traffic, and so every latency figure, depends on which
/// block is evicted when.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Clone> {
    capacity: u64,
    used: u64,
    map: FxHashMap<K, u32>,
    slab: Vec<Node<K>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bytes currently accounted resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.slab[i as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Links slot `i` at the hot end.
    fn push_hot(&mut self, i: u32) {
        let old_tail = self.tail;
        {
            let n = &mut self.slab[i as usize];
            n.prev = old_tail;
            n.next = NIL;
        }
        match old_tail {
            NIL => self.head = i,
            t => self.slab[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Looks up `key`, refreshing recency; records a hit or miss.
    pub fn get(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&i) => {
                self.hits += 1;
                if self.tail != i {
                    self.unlink(i);
                    self.push_hot(i);
                }
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Checks residency without recency or statistics side effects.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts (or resizes) `key` at `size` bytes, returning the keys
    /// evicted to make room. An entry larger than the whole capacity is
    /// admitted alone (matching a buffer cache that must stage the block).
    pub fn insert(&mut self, key: K, size: u64) -> Vec<K> {
        let mut evicted = Vec::new();
        self.insert_with(key, size, |victim| evicted.push(victim));
        evicted
    }

    /// [`insert`](Self::insert), handing each evicted key to `on_evict`
    /// (coldest first) instead of collecting them: the per-block path of
    /// a buffer cache evicts on nearly every insert and has no use for a
    /// fresh `Vec` each time.
    pub fn insert_with(&mut self, key: K, size: u64, mut on_evict: impl FnMut(K)) {
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                let node = &mut self.slab[i as usize];
                self.used = self.used - node.size + size;
                node.size = size;
                if self.tail != i {
                    self.unlink(i);
                    self.push_hot(i);
                }
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key: Some(e.key().clone()),
                    size,
                    prev: NIL,
                    next: NIL,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slab[i as usize] = node;
                        i
                    }
                    None => {
                        self.slab.push(node);
                        (self.slab.len() - 1) as u32
                    }
                };
                e.insert(i);
                self.push_hot(i);
                self.used += size;
            }
        }
        while self.used > self.capacity && self.map.len() > 1 {
            let victim = self.release(self.head);
            self.map.remove(&victim);
            self.evictions += 1;
            on_evict(victim);
        }
    }

    /// Unlinks and frees slot `i`, returning its key; the caller drops
    /// the key's map entry.
    fn release(&mut self, i: u32) -> K {
        self.unlink(i);
        let node = &mut self.slab[i as usize];
        self.used -= node.size;
        self.free.push(i);
        node.key.take().expect("resident slot has a key")
    }

    /// Removes `key` if resident; returns its size.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let i = self.map.remove(key)?;
        let size = self.slab[i as usize].size;
        self.release(i);
        Some(size)
    }

    /// (hits, misses, evictions) since creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Hit ratio in [0, 1]; zero before any lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(100);
        assert!(!c.get(&1));
        c.insert(1, 10);
        assert!(c.get(&1));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recent_first() {
        let mut c = LruCache::new(30);
        c.insert("a", 10);
        c.insert("b", 10);
        c.insert("c", 10);
        assert!(c.get(&"a")); // refresh a; b is now coldest
        let evicted = c.insert("d", 10);
        assert_eq!(evicted, vec!["b"]);
        assert!(c.contains(&"a") && c.contains(&"c") && c.contains(&"d"));
    }

    #[test]
    fn resize_updates_accounting() {
        let mut c = LruCache::new(100);
        c.insert(1, 40);
        c.insert(1, 70);
        assert_eq!(c.used(), 70);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_admitted_alone() {
        let mut c = LruCache::new(10);
        c.insert(1, 5);
        let evicted = c.insert(2, 50);
        assert_eq!(evicted, vec![1]);
        assert!(c.contains(&2));
        assert_eq!(c.used(), 50);
    }

    #[test]
    fn remove_frees_budget() {
        let mut c = LruCache::new(20);
        c.insert(1, 15);
        assert_eq!(c.remove(&1), Some(15));
        assert_eq!(c.used(), 0);
        assert_eq!(c.remove(&1), None);
        assert!(c.insert(2, 20).is_empty());
    }

    /// The obvious LRU: a `Vec` of `(key, size)` ordered coldest first.
    struct NaiveLru {
        capacity: u64,
        order: Vec<(u32, u64)>,
        stats: (u64, u64, u64),
    }

    impl NaiveLru {
        fn pos(&self, key: u32) -> Option<usize> {
            self.order.iter().position(|&(k, _)| k == key)
        }

        fn used(&self) -> u64 {
            self.order.iter().map(|&(_, s)| s).sum()
        }

        fn get(&mut self, key: u32) -> bool {
            match self.pos(key) {
                Some(p) => {
                    let e = self.order.remove(p);
                    self.order.push(e);
                    self.stats.0 += 1;
                    true
                }
                None => {
                    self.stats.1 += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: u32, size: u64) -> Vec<u32> {
            if let Some(p) = self.pos(key) {
                self.order.remove(p);
            }
            self.order.push((key, size));
            let mut evicted = Vec::new();
            while self.used() > self.capacity && self.order.len() > 1 {
                evicted.push(self.order.remove(0).0);
                self.stats.2 += 1;
            }
            evicted
        }

        fn remove(&mut self, key: u32) -> Option<u64> {
            self.pos(key).map(|p| self.order.remove(p).1)
        }
    }

    #[test]
    fn matches_naive_reference_step_by_step() {
        let mut rng = crate::Rng::seed_from_u64(0x1c4);
        let mut lru = LruCache::new(400);
        let mut naive = NaiveLru {
            capacity: 400,
            order: Vec::new(),
            stats: (0, 0, 0),
        };
        for step in 0..100_000 {
            // 96 keys over a ~50-entry budget: constant eviction pressure.
            let key = rng.gen_range(0..96u32);
            match rng.gen_range(0..10u32) {
                0..=3 => assert_eq!(lru.get(&key), naive.get(key), "get at {step}"),
                4..=7 => {
                    // Mostly block-sized; sometimes a resize or an
                    // entry larger than the whole budget.
                    let size = match rng.gen_range(0..200u32) {
                        0 => 1_000,
                        1..=30 => rng.gen_range(1..=30u64),
                        _ => 8,
                    };
                    assert_eq!(
                        lru.insert(key, size),
                        naive.insert(key, size),
                        "victims at {step}"
                    );
                }
                8 => assert_eq!(lru.remove(&key), naive.remove(key), "remove at {step}"),
                _ => assert_eq!(
                    lru.contains(&key),
                    naive.pos(key).is_some(),
                    "contains at {step}"
                ),
            }
            assert_eq!(lru.stats(), naive.stats, "stats at {step}");
            assert_eq!(lru.used(), naive.used(), "used at {step}");
            assert_eq!(lru.len(), naive.order.len(), "len at {step}");
        }
        let (hits, misses, evictions) = lru.stats();
        assert!(
            hits > 10_000 && misses > 1_000 && evictions > 1_000,
            "weak coverage: {hits} hits, {misses} misses, {evictions} evictions"
        );
    }

    #[test]
    fn many_insertions_stay_within_budget() {
        let mut c = LruCache::new(1000);
        for i in 0..10_000u64 {
            c.insert(i, 7);
        }
        assert!(c.used() <= 1000);
        let (_, _, ev) = c.stats();
        assert!(ev > 9_000);
    }
}
