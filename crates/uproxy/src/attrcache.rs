//! The µproxy attribute cache.
//!
//! "The µproxy also maintains a cache over file attribute blocks returned
//! in NFS responses from the servers. Directory servers maintain the
//! authoritative attributes for files; the system must keep these
//! attributes current to reflect I/O traffic to the block storage nodes
//! ... The µproxy updates these attributes in its cache as each operation
//! completes, and returns a complete set of attributes to the client in
//! each response ... The µproxy generates an NFS setattr operation to push
//! modified attributes back to the directory server when it evicts
//! attributes from its cache, or when it intercepts an NFS V3 write commit
//! request from the client" (paper §4.1). A periodic write-back bounds
//! timestamp drift.

use slice_sim::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

use slice_nfsproto::{Fattr3, Fhandle, FileType, NfsTime};
use slice_sim::{LruCache, SimDuration, SimTime};

/// One cached attribute block.
#[derive(Debug, Clone)]
pub struct CachedAttr {
    /// The handle (needed to address write-backs to the home site).
    pub fh: Fhandle,
    /// The attributes, as merged from server responses and local I/O.
    pub attr: Fattr3,
    /// True when local I/O modified fields the directory server has not
    /// seen yet.
    pub dirty: bool,
    /// When the entry last became dirty (for periodic write-back).
    pub dirty_since: SimTime,
    /// Bumped on every local modification; a write-back only cleans the
    /// entry if no newer modification raced with it.
    pub version: u64,
    /// Version last handed out for a push, if any. Taking the same
    /// version again means the earlier push went unacknowledged — a
    /// retransmission, counted in [`AttrCache::push_retries`].
    last_pushed_version: Option<u64>,
}

impl CachedAttr {
    /// Records a local modification: a new version, dirty since `now`
    /// unless it already was.
    fn modified(&mut self, now: SimTime) {
        self.version += 1;
        if !self.dirty {
            self.dirty = true;
            self.dirty_since = now;
        }
    }
}

/// The attribute cache with dirty tracking and write-back extraction.
#[derive(Debug)]
pub struct AttrCache {
    entries: FxHashMap<u64, CachedAttr>,
    /// The files whose entry is dirty, in file order: the periodic
    /// write-back visits these, not every resident entry.
    dirty: BTreeSet<u64>,
    lru: LruCache<u64>,
    hits: u64,
    misses: u64,
    /// Pushes re-issued because an earlier push of the same version went
    /// unacknowledged (lost packet or crashed server). Monotone across
    /// [`AttrCache::clear`] — it instruments recovery, not cache state.
    push_retries: u64,
}

impl AttrCache {
    /// Creates a cache holding at most `capacity` attribute blocks.
    pub fn new(capacity: usize) -> Self {
        AttrCache {
            entries: FxHashMap::default(),
            dirty: BTreeSet::new(),
            lru: LruCache::new(capacity as u64),
            hits: 0,
            misses: 0,
            push_retries: 0,
        }
    }

    /// Number of write-back pushes that were retransmissions of an
    /// unacknowledged earlier push.
    pub fn push_retries(&self) -> u64 {
        self.push_retries
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// A sorted audit snapshot `(file, dirty, cached size)` for the
    /// structural oracles: at quiescence no entry may be dirty, and clean
    /// sizes must be subsumed by authoritative server state.
    pub fn audit(&self) -> Vec<(u64, bool, u64)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&file, e)| (file, e.dirty, e.attr.size))
            .collect();
        out.sort_unstable_by_key(|&(f, _, _)| f);
        out
    }

    /// Looks up current attributes for a file.
    pub fn get(&mut self, file: u64) -> Option<Fattr3> {
        if let Some(e) = self.entries.get(&file) {
            self.hits += 1;
            self.lru.get(&file);
            Some(e.attr)
        } else {
            self.misses += 1;
            None
        }
    }

    /// The one way in. A resident entry for `fh`'s file gets one lookup,
    /// `edit` and an LRU touch; an absent one is installed clean from
    /// `attr`, handed to `edit` and admitted to the LRU, and the dirty
    /// entries its admission evicted are returned for pushing back. The
    /// `store_*` edits refresh a resident entry's handle; the `apply_*`
    /// edits keep the one it was installed with.
    fn upsert(
        &mut self,
        now: SimTime,
        fh: &Fhandle,
        attr: Fattr3,
        edit: impl FnOnce(&mut CachedAttr),
    ) -> Vec<CachedAttr> {
        let file = fh.file_id();
        let (e, resident) = match self.entries.entry(file) {
            Entry::Occupied(e) => (e.into_mut(), true),
            Entry::Vacant(e) => (
                e.insert(CachedAttr {
                    fh: *fh,
                    attr,
                    dirty: false,
                    dirty_since: now,
                    version: 0,
                    last_pushed_version: None,
                }),
                false,
            ),
        };
        let was_dirty = e.dirty;
        edit(e);
        match (was_dirty, e.dirty) {
            (false, true) => {
                self.dirty.insert(file);
            }
            (true, false) => {
                self.dirty.remove(&file);
            }
            _ => {}
        }
        if resident {
            self.lru.get(&file);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        for victim in self.lru.insert(file, 1) {
            let e = self
                .entries
                .remove(&victim)
                .expect("an LRU key has an entry");
            if e.dirty {
                self.dirty.remove(&victim);
                evicted.push(e);
            }
        }
        evicted
    }

    /// Installs authoritative attributes from a directory-server response.
    /// Local dirty deltas (size growth from direct storage writes) are
    /// preserved by taking the maximum size and latest times. Returns any
    /// evicted dirty entries that must be pushed back.
    pub fn store_authoritative(
        &mut self,
        now: SimTime,
        fh: &Fhandle,
        attr: Fattr3,
    ) -> Vec<CachedAttr> {
        self.upsert(now, fh, attr, |e| {
            let old = std::mem::replace(&mut e.attr, attr);
            if e.dirty {
                e.attr.size = e.attr.size.max(old.size);
                e.attr.used = e.attr.used.max(old.used);
                e.attr.mtime = e.attr.mtime.max(old.mtime);
                e.attr.atime = e.attr.atime.max(old.atime);
            }
            e.fh = *fh;
        })
    }

    /// Installs authoritative attributes *replacing* any local dirty
    /// deltas — used for SETATTR replies, where the server's state already
    /// reflects everything the client (or the µproxy write-back) asked
    /// for, including explicit truncations that must not be re-grown by
    /// the max-merge rule.
    pub fn store_replacing(&mut self, now: SimTime, fh: &Fhandle, attr: Fattr3) -> Vec<CachedAttr> {
        self.upsert(now, fh, attr, |e| {
            e.attr = attr;
            e.dirty = false;
            e.dirty_since = now;
            e.fh = *fh;
        })
    }

    /// Applies a completed read: bumps the access time. Returns evictions.
    /// A file first seen through an I/O path is synthesized from its handle.
    pub fn apply_read(&mut self, now: SimTime, fh: &Fhandle, t: NfsTime) -> Vec<CachedAttr> {
        let fresh = Fattr3::new(FileType::Regular, fh.file_id(), 0o644, t);
        self.upsert(now, fh, fresh, |e| {
            e.attr.atime = e.attr.atime.max(t);
            e.modified(now);
        })
    }

    /// Applies a completed write: grows the size to `end` and stamps the
    /// modify time. Returns evictions.
    pub fn apply_write(
        &mut self,
        now: SimTime,
        fh: &Fhandle,
        end: u64,
        t: NfsTime,
    ) -> Vec<CachedAttr> {
        let fresh = Fattr3::new(FileType::Regular, fh.file_id(), 0o644, t);
        self.upsert(now, fh, fresh, |e| {
            e.attr.size = e.attr.size.max(end);
            e.attr.used = e.attr.used.max(end);
            e.attr.mtime = e.attr.mtime.max(t);
            e.modified(now);
        })
    }

    /// Takes the dirty entry for `file` (commit-triggered push-back).
    /// The entry stays dirty until the push is acknowledged via
    /// [`AttrCache::mark_clean`] — a push lost to a crashed server must
    /// not silently discard the update.
    pub fn take_dirty(&mut self, file: u64) -> Option<CachedAttr> {
        let e = self.entries.get_mut(&file)?;
        if !e.dirty {
            return None;
        }
        let retry = e.last_pushed_version == Some(e.version);
        e.last_pushed_version = Some(e.version);
        let out = e.clone();
        if retry {
            self.push_retries += 1;
        }
        Some(out)
    }

    /// Takes every entry dirty since before `now - interval` (periodic
    /// write-back bounding timestamp drift). Entries stay dirty until
    /// acknowledged; `dirty_since` is reset so each is pushed at most once
    /// per interval.
    pub fn take_stale_dirty(&mut self, now: SimTime, interval: SimDuration) -> Vec<CachedAttr> {
        let mut out = Vec::new();
        for file in &self.dirty {
            let e = self
                .entries
                .get_mut(file)
                .expect("a dirty file has an entry");
            if now - e.dirty_since >= interval {
                e.dirty_since = now;
                if e.last_pushed_version == Some(e.version) {
                    self.push_retries += 1;
                }
                e.last_pushed_version = Some(e.version);
                out.push(e.clone());
            }
        }
        out
    }

    /// Acknowledges a write-back: cleans the entry unless a newer local
    /// modification raced with the push.
    pub fn mark_clean(&mut self, file: u64, version: u64) {
        if let Some(e) = self.entries.get_mut(&file) {
            if e.version == version && e.dirty {
                e.dirty = false;
                self.dirty.remove(&file);
            }
        }
    }

    /// Drops an entry whose write-back failed permanently (the home site
    /// no longer knows the file — removed or stale handle). Retrying such
    /// a push can never succeed, so keeping the entry dirty would re-push
    /// it every write-back interval forever. A newer local modification
    /// (version mismatch) keeps the entry: it will be pushed again and
    /// judged on its own reply.
    pub fn discard(&mut self, file: u64, version: u64) {
        if self.entries.get(&file).map(|e| e.version) == Some(version) {
            self.entries.remove(&file);
            self.dirty.remove(&file);
            self.lru.remove(&file);
        }
    }

    /// True while any entry awaits a write-back acknowledgement.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Drops everything (µproxy state loss: permitted, end-to-end
    /// protocols recover).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dirty.clear();
        self.lru = LruCache::new(self.lru.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(id: u64) -> Fhandle {
        Fhandle::new(id, 0, 0, 0, 0)
    }

    fn attr(id: u64, size: u64) -> Fattr3 {
        let mut a = Fattr3::new(FileType::Regular, id, 0o644, NfsTime { secs: 1, nsecs: 0 });
        a.size = size;
        a
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn store_and_get() {
        let mut c = AttrCache::new(10);
        c.store_authoritative(t(0), &fh(1), attr(1, 100));
        assert_eq!(c.get(1).unwrap().size, 100);
        assert!(c.get(2).is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn writes_grow_size_and_dirty() {
        let mut c = AttrCache::new(10);
        c.store_authoritative(t(0), &fh(1), attr(1, 100));
        c.apply_write(t(1), &fh(1), 5000, NfsTime { secs: 2, nsecs: 0 });
        let a = c.get(1).unwrap();
        assert_eq!(a.size, 5000);
        assert_eq!(a.mtime, NfsTime { secs: 2, nsecs: 0 });
        // Commit pushes it back; the entry stays dirty until the push is
        // acknowledged at the entry's version.
        let d = c.take_dirty(1).unwrap();
        assert_eq!(d.attr.size, 5000);
        assert!(
            c.take_dirty(1).is_some(),
            "unacknowledged entry stays dirty"
        );
        c.mark_clean(1, d.version);
        assert!(c.take_dirty(1).is_none(), "acknowledged entry is clean");
        // A stale ack (older version) must not clean newer changes.
        c.apply_write(t(2), &fh(1), 6000, NfsTime { secs: 3, nsecs: 0 });
        let d2 = c.take_dirty(1).unwrap();
        c.mark_clean(1, d.version);
        assert!(c.take_dirty(1).is_some(), "stale ack ignored");
        c.mark_clean(1, d2.version);
        assert!(c.take_dirty(1).is_none());
    }

    #[test]
    fn authoritative_store_keeps_local_growth() {
        let mut c = AttrCache::new(10);
        c.apply_write(t(0), &fh(1), 9000, NfsTime { secs: 5, nsecs: 0 });
        // A stale dir-server response (size 0) must not clobber the local
        // size growth.
        c.store_authoritative(t(1), &fh(1), attr(1, 0));
        assert_eq!(c.get(1).unwrap().size, 9000);
    }

    #[test]
    fn eviction_returns_dirty_entries() {
        let mut c = AttrCache::new(2);
        c.apply_write(t(0), &fh(1), 10, NfsTime::default());
        c.apply_write(t(0), &fh(2), 20, NfsTime::default());
        let evicted = c.apply_write(t(0), &fh(3), 30, NfsTime::default());
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].fh.file_id(), 1);
        assert!(evicted[0].dirty);
    }

    #[test]
    fn periodic_writeback_takes_only_stale() {
        let mut c = AttrCache::new(10);
        c.apply_write(t(0), &fh(1), 10, NfsTime::default());
        c.apply_write(t(900), &fh(2), 20, NfsTime::default());
        let wb = c.take_stale_dirty(t(1000), SimDuration::from_millis(500));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].fh.file_id(), 1);
        // Entry 2 becomes stale later; entry 1 is re-pushed too because
        // its earlier push was never acknowledged.
        let mut wb = c.take_stale_dirty(t(2000), SimDuration::from_millis(500));
        wb.sort_by_key(|e| e.fh.file_id());
        assert_eq!(wb.len(), 2);
        assert_eq!(wb[1].fh.file_id(), 2);
        // Acknowledge both; nothing further to push.
        for e in wb {
            c.mark_clean(e.fh.file_id(), e.version);
        }
        assert!(c
            .take_stale_dirty(t(5000), SimDuration::from_millis(500))
            .is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = AttrCache::new(10);
        c.store_authoritative(t(0), &fh(1), attr(1, 1));
        c.clear();
        assert!(c.is_empty());
    }

    /// Everything a caller can see of an entry, `fh` included.
    type Seen = (Fhandle, Fattr3, bool, SimTime, u64, Option<u64>);

    fn seen(e: &CachedAttr) -> Seen {
        (
            e.fh,
            e.attr,
            e.dirty,
            e.dirty_since,
            e.version,
            e.last_pushed_version,
        )
    }

    fn seen_all(es: &[CachedAttr]) -> Vec<Seen> {
        es.iter().map(seen).collect()
    }

    /// The obvious attribute cache: one `Vec` of entries ordered coldest
    /// first, with each installer written out on its own.
    struct NaiveAttrs {
        capacity: usize,
        order: Vec<CachedAttr>,
        hits: u64,
        misses: u64,
        push_retries: u64,
    }

    impl NaiveAttrs {
        fn pos(&self, file: u64) -> Option<usize> {
            self.order.iter().position(|e| e.fh.file_id() == file)
        }

        /// Moves the entry at `p` to the hot end.
        fn touch(&mut self, p: usize) -> &mut CachedAttr {
            let e = self.order.remove(p);
            self.order.push(e);
            self.order.last_mut().expect("just pushed")
        }

        /// Admits a new entry; returns the dirty ones pushed out, coldest
        /// first.
        fn admit(&mut self, e: CachedAttr) -> Vec<CachedAttr> {
            self.order.push(e);
            let mut out = Vec::new();
            while self.order.len() > self.capacity && self.order.len() > 1 {
                let victim = self.order.remove(0);
                if victim.dirty {
                    out.push(victim);
                }
            }
            out
        }

        fn get(&mut self, file: u64) -> Option<Fattr3> {
            match self.pos(file) {
                Some(p) => {
                    self.hits += 1;
                    Some(self.touch(p).attr)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn store_authoritative(
            &mut self,
            now: SimTime,
            fh: &Fhandle,
            a: Fattr3,
        ) -> Vec<CachedAttr> {
            let Some(p) = self.pos(fh.file_id()) else {
                return self.admit(CachedAttr {
                    fh: *fh,
                    attr: a,
                    dirty: false,
                    dirty_since: now,
                    version: 0,
                    last_pushed_version: None,
                });
            };
            let e = self.touch(p);
            let mut merged = a;
            if e.dirty {
                merged.size = merged.size.max(e.attr.size);
                merged.used = merged.used.max(e.attr.used);
                merged.mtime = merged.mtime.max(e.attr.mtime);
                merged.atime = merged.atime.max(e.attr.atime);
            }
            e.fh = *fh;
            e.attr = merged;
            Vec::new()
        }

        fn store_replacing(&mut self, now: SimTime, fh: &Fhandle, a: Fattr3) -> Vec<CachedAttr> {
            let Some(p) = self.pos(fh.file_id()) else {
                return self.admit(CachedAttr {
                    fh: *fh,
                    attr: a,
                    dirty: false,
                    dirty_since: now,
                    version: 0,
                    last_pushed_version: None,
                });
            };
            let e = self.touch(p);
            e.fh = *fh;
            e.attr = a;
            e.dirty = false;
            e.dirty_since = now;
            Vec::new()
        }

        /// `apply_read` (`end == None`) and `apply_write`.
        fn apply(
            &mut self,
            now: SimTime,
            fh: &Fhandle,
            end: Option<u64>,
            at: NfsTime,
        ) -> Vec<CachedAttr> {
            let file = fh.file_id();
            let Some(p) = self.pos(file) else {
                let mut a = Fattr3::new(FileType::Regular, file, 0o644, at);
                if let Some(end) = end {
                    a.size = end;
                    a.used = end;
                }
                return self.admit(CachedAttr {
                    fh: *fh,
                    attr: a,
                    dirty: true,
                    dirty_since: now,
                    version: 1,
                    last_pushed_version: None,
                });
            };
            let e = self.touch(p);
            match end {
                Some(end) => {
                    e.attr.size = e.attr.size.max(end);
                    e.attr.used = e.attr.used.max(end);
                    e.attr.mtime = e.attr.mtime.max(at);
                }
                None => e.attr.atime = e.attr.atime.max(at),
            }
            e.version += 1;
            if !e.dirty {
                e.dirty = true;
                e.dirty_since = now;
            }
            Vec::new()
        }

        fn take_dirty(&mut self, file: u64) -> Option<CachedAttr> {
            let p = self.pos(file)?;
            let e = &mut self.order[p];
            if !e.dirty {
                return None;
            }
            if e.last_pushed_version == Some(e.version) {
                self.push_retries += 1;
            }
            e.last_pushed_version = Some(e.version);
            Some(e.clone())
        }

        fn take_stale_dirty(&mut self, now: SimTime, interval: SimDuration) -> Vec<CachedAttr> {
            let mut out = Vec::new();
            for e in &mut self.order {
                if e.dirty && now - e.dirty_since >= interval {
                    e.dirty_since = now;
                    if e.last_pushed_version == Some(e.version) {
                        self.push_retries += 1;
                    }
                    e.last_pushed_version = Some(e.version);
                    out.push(e.clone());
                }
            }
            out.sort_by_key(|e| e.fh.file_id());
            out
        }

        fn mark_clean(&mut self, file: u64, version: u64) {
            if let Some(p) = self.pos(file) {
                if self.order[p].version == version {
                    self.order[p].dirty = false;
                }
            }
        }

        fn discard(&mut self, file: u64, version: u64) {
            if let Some(p) = self.pos(file) {
                if self.order[p].version == version {
                    self.order.remove(p);
                }
            }
        }

        fn audit(&self) -> Vec<(u64, bool, u64)> {
            let mut out: Vec<_> = self
                .order
                .iter()
                .map(|e| (e.fh.file_id(), e.dirty, e.attr.size))
                .collect();
            out.sort_unstable_by_key(|&(f, _, _)| f);
            out
        }
    }

    /// A seeded mix of every way in and out of the cache against the
    /// naive reference, compared after every step: what each call
    /// returns (evictions and taken entries in full, handles included),
    /// `audit()`, `stats()` and `push_retries()`. A file is addressed
    /// through two handles that differ only in their flags, so which
    /// calls refresh a resident entry's handle is pinned too.
    #[test]
    fn matches_naive_reference_step_by_step() {
        const CAPACITY: usize = 8;
        let mut rng = slice_sim::Rng::seed_from_u64(0xa77c);
        let mut cache = AttrCache::new(CAPACITY);
        let mut naive = NaiveAttrs {
            capacity: CAPACITY,
            order: Vec::new(),
            hits: 0,
            misses: 0,
            push_retries: 0,
        };
        let interval = SimDuration::from_millis(40);
        let mut now = SimTime::ZERO;
        // (file, version) of entries handed out for a push, acknowledged
        // or discarded later — sometimes after a newer modification.
        let mut taken: Vec<(u64, u64)> = Vec::new();
        let (mut evicted, mut refreshed) = (0u64, 0u64);
        for step in 0..50_000 {
            now += SimDuration::from_millis(rng.gen_range(0..4u64));
            // 20 files over an 8-entry budget: constant eviction pressure.
            let file = rng.gen_range(0..20u64);
            let flags = if rng.gen_bool(0.5) {
                0
            } else {
                slice_nfsproto::FH_FLAG_MIRRORED | slice_nfsproto::FH_FLAG_MAPPED
            };
            let h = Fhandle::new(file, 0, flags, 0, 0);
            let at = NfsTime {
                secs: rng.gen_range(0..50u32),
                nsecs: 0,
            };
            let mut a = attr(file, rng.gen_range(0..200_000u64));
            a.used = rng.gen_range(0..200_000u64);
            a.mtime = NfsTime {
                secs: rng.gen_range(0..50u32),
                nsecs: 0,
            };
            a.atime = at;
            let before = cache.entries.get(&file).map(|e| e.fh);
            let op = rng.gen_range(0..11u32);
            let out = match op {
                0 | 1 => Some((
                    cache.store_authoritative(now, &h, a),
                    naive.store_authoritative(now, &h, a),
                )),
                2 => Some((
                    cache.store_replacing(now, &h, a),
                    naive.store_replacing(now, &h, a),
                )),
                3 => Some((
                    cache.apply_read(now, &h, at),
                    naive.apply(now, &h, None, at),
                )),
                4 | 5 => {
                    let end = rng.gen_range(0..300_000u64);
                    Some((
                        cache.apply_write(now, &h, end, at),
                        naive.apply(now, &h, Some(end), at),
                    ))
                }
                6 => {
                    assert_eq!(cache.get(file), naive.get(file), "get at {step}");
                    None
                }
                7 => {
                    let got = cache.take_dirty(file);
                    let want = naive.take_dirty(file);
                    assert_eq!(
                        got.as_ref().map(seen),
                        want.as_ref().map(seen),
                        "take at {step}"
                    );
                    taken.extend(got.map(|e| (file, e.version)));
                    None
                }
                8 => Some((
                    cache.take_stale_dirty(now, interval),
                    naive.take_stale_dirty(now, interval),
                )),
                9 | 10 if !taken.is_empty() => {
                    let (f, v) = taken.swap_remove(rng.gen_range(0..taken.len()));
                    if rng.gen_range(0..4u32) == 0 {
                        cache.discard(f, v);
                        naive.discard(f, v);
                    } else {
                        cache.mark_clean(f, v);
                        naive.mark_clean(f, v);
                    }
                    None
                }
                _ => None,
            };
            if let Some((got, want)) = out {
                assert_eq!(seen_all(&got), seen_all(&want), "returned at {step}");
                taken.extend(got.iter().map(|e| (e.fh.file_id(), e.version)));
                if op <= 5 {
                    evicted += got.len() as u64;
                }
            }
            if op <= 2 {
                let after = cache.entries.get(&file).map(|e| e.fh);
                refreshed += u64::from(before.is_some_and(|b| Some(b) != after));
            }
            if taken.len() > 32 {
                taken.drain(..taken.len() - 32);
            }
            assert_eq!(cache.audit(), naive.audit(), "audit at {step}");
            assert_eq!(cache.stats(), (naive.hits, naive.misses), "stats at {step}");
            assert_eq!(
                cache.push_retries(),
                naive.push_retries,
                "retries at {step}"
            );
        }
        let (hits, misses) = cache.stats();
        assert!(
            hits > 1_000
                && misses > 1_000
                && evicted > 1_000
                && refreshed > 1_000
                && cache.push_retries() > 100,
            "weak coverage: {hits} hits, {misses} misses, {evicted} dirty \
             evictions, {refreshed} handle refreshes, {} push retries",
            cache.push_retries()
        );
    }
}
