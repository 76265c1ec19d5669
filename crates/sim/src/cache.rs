//! Byte-budget LRU cache bookkeeping.
//!
//! Servers in the ensemble (storage nodes, small-file servers, the µproxy's
//! attribute cache) are memory-limited; SPECsfs latency behaviour in the
//! paper (Figure 6) hinges on the small-file servers overflowing their 1 GB
//! of cache. This LRU tracks *which* items are resident and charges evictions
//! to the caller; the cached payloads themselves live with the owning actor.

use crate::block_table::{BlockKey, BlockTable};
use crate::fxmap::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Slab index meaning "no neighbour".
const NIL: u32 = u32::MAX;

/// Where an [`LruCache`] finds a resident key's slot in its slab.
///
/// The default is a hash map per key; a cache of blocks that arrive in
/// runs uses a [`BlockTable`], which hashes pages of neighbouring blocks
/// instead. Either way there is one recency list, in the slab.
pub trait SlotIndex<K>: Default {
    /// The slot of `key`, if resident.
    fn slot(&self, key: &K) -> Option<u32>;

    /// The slot of `key` if resident; otherwise records `slot` for it and
    /// returns `None`.
    fn slot_or_insert(&mut self, key: &K, slot: u32) -> Option<u32>;

    /// Forgets `key`, returning its slot.
    fn remove(&mut self, key: &K) -> Option<u32>;
}

impl<K: Eq + Hash + Clone> SlotIndex<K> for FxHashMap<K, u32> {
    fn slot(&self, key: &K) -> Option<u32> {
        self.get(key).copied()
    }

    fn slot_or_insert(&mut self, key: &K, slot: u32) -> Option<u32> {
        match self.entry(key.clone()) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(slot);
                None
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<u32> {
        FxHashMap::remove(self, key)
    }
}

impl<K: BlockKey> SlotIndex<K> for BlockTable<K> {
    fn slot(&self, key: &K) -> Option<u32> {
        self.get(*key)
    }

    fn slot_or_insert(&mut self, key: &K, slot: u32) -> Option<u32> {
        self.get_or_insert(*key, slot)
    }

    fn remove(&mut self, key: &K) -> Option<u32> {
        BlockTable::remove(self, *key)
    }
}

/// One entry of the recency list, stored in the slab. A slot on the free
/// list keeps its last key and a default value until it is reused.
#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    size: u64,
    /// Neighbour towards the cold end.
    prev: u32,
    /// Neighbour towards the hot end.
    next: u32,
}

/// An LRU set with a byte capacity and a value of type `V` per entry.
///
/// An index `I` from key to slab slot, and a doubly linked recency list
/// threaded through the slab (`head` coldest, `tail` hottest): a hit is
/// one index lookup and an O(1) relink. Eviction is strict LRU — victims
/// leave in exactly the order they were last touched — because the
/// simulated disk traffic, and so every latency figure, depends on which
/// block is evicted when. An entry's value leaves with it.
#[derive(Debug, Clone)]
pub struct LruCache<K, V = (), I = FxHashMap<K, u32>> {
    capacity: u64,
    used: u64,
    index: I,
    slab: Vec<Node<K, V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache of bare keys holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self::with_capacity(capacity)
    }
}

impl<K: Clone, V: Default, I: SlotIndex<K>> LruCache<K, V, I> {
    /// Creates a cache holding at most `capacity` bytes.
    pub fn with_capacity(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            index: I::default(),
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
        self.slab.len() - self.free.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key-to-slot index.
    pub fn index(&self) -> &I {
        &self.index
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

    /// Moves slot `i` to the hot end.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_hot(i);
        }
    }

    /// Looks up `key`, refreshing recency; records a hit or miss.
    pub fn get(&mut self, key: &K) -> bool {
        self.get_mut(key).is_some()
    }

    /// [`get`](Self::get), returning the entry's value on a hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.index.slot(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(&mut self.slab[i as usize].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks residency without recency or statistics side effects.
    pub fn contains(&self, key: &K) -> bool {
        self.index.slot(key).is_some()
    }

    /// Inserts (or resizes) `key` at `size` bytes with the default value,
    /// returning the keys evicted to make room. An entry larger than the
    /// whole capacity is admitted alone (matching a buffer cache that
    /// must stage the block).
    pub fn insert(&mut self, key: K, size: u64) -> Vec<K> {
        let mut evicted = Vec::new();
        self.insert_with(key, size, V::default(), |victim| evicted.push(victim));
        evicted
    }

    /// [`insert`](Self::insert) with `value`, forgetting the victims and
    /// their values: the per-block path of a buffer cache evicts on
    /// nearly every insert and has no use for a fresh `Vec` each time.
    pub fn admit(&mut self, key: K, size: u64, value: V) {
        self.insert_with(key, size, value, drop);
    }

    fn insert_with(&mut self, key: K, size: u64, value: V, mut on_evict: impl FnMut(K)) {
        let fresh = match self.free.last() {
            Some(&i) => i,
            None => u32::try_from(self.slab.len()).expect("fewer than 2^32 entries"),
        };
        match self.index.slot_or_insert(&key, fresh) {
            Some(i) => {
                let node = &mut self.slab[i as usize];
                self.used = self.used - node.size + size;
                node.size = size;
                node.value = value;
                self.touch(i);
            }
            None => {
                let node = Node {
                    key,
                    value,
                    size,
                    prev: NIL,
                    next: NIL,
                };
                match self.free.pop() {
                    Some(i) => self.slab[i as usize] = node,
                    None => self.slab.push(node),
                }
                self.push_hot(fresh);
                self.used += size;
            }
        }
        while self.used > self.capacity && self.len() > 1 {
            let victim = self.release(self.head);
            self.index.remove(&victim);
            self.evictions += 1;
            on_evict(victim);
        }
    }

    /// Unlinks and frees slot `i`, dropping its value and returning its
    /// key; the caller drops the key's index entry.
    fn release(&mut self, i: u32) -> K {
        self.unlink(i);
        let node = &mut self.slab[i as usize];
        self.used -= node.size;
        node.value = V::default();
        self.free.push(i);
        node.key.clone()
    }

    /// Removes `key` if resident; returns its size.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let i = self.index.remove(key)?;
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

    /// The obvious LRU: a `Vec` of `(key, size, value)` ordered coldest
    /// first.
    struct NaiveLru {
        capacity: u64,
        order: Vec<(Key, u64, u64)>,
        stats: (u64, u64, u64),
    }

    type Key = (u64, u64);

    impl NaiveLru {
        fn pos(&self, key: Key) -> Option<usize> {
            self.order.iter().position(|&(k, _, _)| k == key)
        }

        fn used(&self) -> u64 {
            self.order.iter().map(|&(_, s, _)| s).sum()
        }

        fn get(&mut self, key: Key) -> Option<u64> {
            match self.pos(key) {
                Some(p) => {
                    let e = self.order.remove(p);
                    self.order.push(e);
                    self.stats.0 += 1;
                    Some(e.2)
                }
                None => {
                    self.stats.1 += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: Key, size: u64, value: u64) -> Vec<Key> {
            if let Some(p) = self.pos(key) {
                self.order.remove(p);
            }
            self.order.push((key, size, value));
            let mut evicted = Vec::new();
            while self.used() > self.capacity && self.order.len() > 1 {
                evicted.push(self.order.remove(0).0);
                self.stats.2 += 1;
            }
            evicted
        }

        fn remove(&mut self, key: Key) -> Option<u64> {
            self.pos(key).map(|p| self.order.remove(p).1)
        }
    }

    /// Drives `lru` and the naive reference through one seeded mix of
    /// gets (with their values), inserts (victim by victim), value-setting
    /// admits, removes and residency checks; `check` holds `lru`'s index
    /// to the resident keys after every step.
    fn matches_naive<I: SlotIndex<Key>>(
        mut lru: LruCache<Key, u64, I>,
        check: impl Fn(&I, &[Key], usize),
    ) {
        let mut rng = crate::Rng::seed_from_u64(0x1c4);
        let mut naive = NaiveLru {
            capacity: lru.capacity(),
            order: Vec::new(),
            stats: (0, 0, 0),
        };
        for step in 0..100_000 {
            // 96 keys over a ~50-entry budget: constant eviction pressure.
            // They lie in three objects, in runs that share a page and
            // runs that straddle one.
            let k = rng.gen_range(0..96u64);
            let key = (k % 3, (k / 3) * 5 + (k / 24) * 100);
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let got = lru.get_mut(&key).map(|v| *v);
                    assert_eq!(got, naive.get(key), "get at {step}");
                }
                4..=7 => {
                    // Mostly block-sized; sometimes a resize or an
                    // entry larger than the whole budget.
                    let size = match rng.gen_range(0..200u32) {
                        0 => 1_000,
                        1..=30 => rng.gen_range(1..=30u64),
                        _ => 8,
                    };
                    if rng.gen_bool(0.5) {
                        assert_eq!(
                            lru.insert(key, size),
                            naive.insert(key, size, 0),
                            "victims at {step}"
                        );
                    } else {
                        let value = rng.gen_range(1..1_000u64);
                        lru.admit(key, size, value);
                        naive.insert(key, size, value);
                    }
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
            let keys: Vec<Key> = naive.order.iter().map(|&(k, _, _)| k).collect();
            check(lru.index(), &keys, step);
        }
        let (hits, misses, evictions) = lru.stats();
        assert!(
            hits > 10_000 && misses > 1_000 && evictions > 1_000,
            "weak coverage: {hits} hits, {misses} misses, {evictions} evictions"
        );
    }

    #[test]
    fn matches_naive_reference_step_by_step() {
        matches_naive(
            LruCache::<Key, u64>::with_capacity(400),
            |index, keys, step| {
                assert_eq!(index.len(), keys.len(), "index at {step}");
            },
        );
    }

    #[test]
    fn paged_index_matches_naive_reference_step_by_step() {
        let lru = LruCache::<Key, u64, BlockTable<Key>>::with_capacity(400);
        matches_naive(lru, |index, keys, step| {
            // A page per run of resident keys: an emptied page is freed.
            let pages: std::collections::BTreeSet<_> =
                keys.iter().map(|&k| crate::BlockKey::split(k).0).collect();
            assert_eq!(index.pages(), pages.len(), "pages at {step}");
        });
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
