//! A paged table from block numbers to `u32`s.
//!
//! Block-keyed state (a storage node's cache index, an object's physical
//! allocation map) is looked up by keys that arrive in runs — the four
//! blocks of a 32 KiB op, a 256 KiB prefetch — and that a hash map per
//! block scatters over random buckets. [`BlockTable`] groups them: a key
//! splits into a page key and a slot, a page holds [`PAGE_SLOTS`]
//! consecutive slots, and only the pages are hashed. Neighbouring blocks
//! share one page, and memory follows the pages touched — never the
//! largest block number, which a hostile WRITE at offset 2^62 would make
//! 2^49 — because a page is allocated on its first slot and freed with
//! its last.

use crate::fxmap::FxHashMap;
use std::hash::Hash;

/// Consecutive blocks per page.
pub const PAGE_SLOTS: usize = 64;

/// Slot value meaning "absent".
const EMPTY: u32 = u32::MAX;

/// A key a [`BlockTable`] can page: a block number, possibly qualified
/// by the object it belongs to.
pub trait BlockKey: Copy {
    /// What names a page: the key with its low block bits cut off.
    type Page: Copy + Eq + Hash;

    /// The page holding `self`, and `self`'s slot in it.
    fn split(self) -> (Self::Page, usize);
}

impl BlockKey for u64 {
    type Page = u64;

    fn split(self) -> (u64, usize) {
        (
            self / PAGE_SLOTS as u64,
            (self % PAGE_SLOTS as u64) as usize,
        )
    }
}

/// `(object, block)`.
impl BlockKey for (u64, u64) {
    type Page = (u64, u64);

    fn split(self) -> ((u64, u64), usize) {
        let (page, slot) = self.1.split();
        ((self.0, page), slot)
    }
}

#[derive(Debug, Clone)]
struct Page {
    /// Slots not `EMPTY`; the page is freed when this reaches zero.
    live: u32,
    slots: [u32; PAGE_SLOTS],
}

/// A map from block keys to `u32` values below `u32::MAX`, stored in
/// fixed pages of [`PAGE_SLOTS`] slots.
#[derive(Debug, Clone)]
pub struct BlockTable<K: BlockKey> {
    pages: FxHashMap<K::Page, Box<Page>>,
}

impl<K: BlockKey> Default for BlockTable<K> {
    fn default() -> Self {
        BlockTable {
            pages: FxHashMap::default(),
        }
    }
}

impl<K: BlockKey> BlockTable<K> {
    /// The value of `key`, if present.
    pub fn get(&self, key: K) -> Option<u32> {
        let (page, slot) = key.split();
        match self.pages.get(&page)?.slots[slot] {
            EMPTY => None,
            v => Some(v),
        }
    }

    /// The value of `key` if present; otherwise records `value` for it
    /// and returns `None`.
    pub fn get_or_insert(&mut self, key: K, value: u32) -> Option<u32> {
        debug_assert_ne!(value, EMPTY, "u32::MAX is the empty slot");
        let (page, slot) = key.split();
        let page = self.pages.entry(page).or_insert_with(|| {
            Box::new(Page {
                live: 0,
                slots: [EMPTY; PAGE_SLOTS],
            })
        });
        match page.slots[slot] {
            EMPTY => {
                page.slots[slot] = value;
                page.live += 1;
                None
            }
            v => Some(v),
        }
    }

    /// Removes `key`, returning its value; frees its page if it was the
    /// page's last.
    pub fn remove(&mut self, key: K) -> Option<u32> {
        let (page_key, slot) = key.split();
        let page = self.pages.get_mut(&page_key)?;
        let v = std::mem::replace(&mut page.slots[slot], EMPTY);
        if v == EMPTY {
            return None;
        }
        page.live -= 1;
        if page.live == 0 {
            self.pages.remove(&page_key);
        }
        Some(v)
    }

    /// Number of pages allocated.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbours_share_a_page_and_an_emptied_page_is_freed() {
        let mut t = BlockTable::<(u64, u64)>::default();
        for b in 0..4 {
            assert_eq!(t.get_or_insert((7, b), b as u32 + 10), None);
        }
        assert_eq!(t.get_or_insert((7, 2), 99), Some(12));
        assert_eq!(t.pages(), 1);
        assert_eq!(t.get_or_insert((8, 2), 0), None, "another object");
        assert_eq!(t.pages(), 2);
        for b in 0..4 {
            assert_eq!(t.remove((7, b)), Some(b as u32 + 10));
        }
        assert_eq!(t.remove((7, 0)), None);
        assert_eq!(t.pages(), 1);
        assert_eq!(t.get((8, 2)), Some(0));
    }

    #[test]
    fn far_blocks_cost_a_page_each() {
        let mut t = BlockTable::<u64>::default();
        let far = [0, 1 << 37, (1 << 49) - 1, u64::MAX];
        for (i, &b) in far.iter().enumerate() {
            assert_eq!(t.get_or_insert(b, i as u32), None);
        }
        assert_eq!(t.pages(), far.len());
        for (i, &b) in far.iter().enumerate() {
            assert_eq!(t.get(b), Some(i as u32));
            assert_eq!(t.get(b ^ 1), None);
        }
    }
}
