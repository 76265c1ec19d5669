//! The network storage node: block-level access to raw storage objects.
//!
//! Storage nodes "serve a flat space of storage objects named by unique
//! identifiers ... The key operations are a subset of NFS, including read,
//! write, commit, and remove. The storage nodes accept NFS file handles as
//! object identifiers, using an external hash to map them to storage
//! objects" (§4.2). This module implements that server: an [`ObjectStore`]
//! fronted by a buffer cache, a [`DiskArray`] for timing, 256 KB sequential
//! prefetch, and FFS-style write clustering for unstable writes.
//!
//! The node complies with NFS V3 write semantics: `UNSTABLE` writes land in
//! the cache and are acknowledged immediately (clustered to disk in the
//! background), `FILE_SYNC`/`DATA_SYNC` writes and `COMMIT` wait for the
//! disk. The write verifier changes on restart so clients re-send
//! uncommitted writes lost in a crash.

use slice_sim::{FxHashMap, FxHashSet};

use slice_nfsproto::{
    encode_read_reply, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus,
    NfsTime, ReplyBody, StableHow, Windows,
};
use slice_sim::{BlockTable, DiskArray, DiskParams, LruCache, SimTime};
use std::ops::RangeInclusive;

use crate::object::ObjectStore;

/// Cache/disk block size used by storage nodes.
pub const STORAGE_BLOCK: u64 = 8192;
/// Sequential prefetch depth beyond the current access (paper §4.2).
pub const PREFETCH_BYTES: u64 = 256 * 1024;
/// Unstable data is clustered and flushed to disk once this many dirty
/// bytes accumulate for one object (FFS write clustering).
pub const CLUSTER_BYTES: u64 = 256 * 1024;

/// Control operations addressed to a storage node by the coordinator (not
/// part of the client-visible NFS stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageCtl {
    /// Delete an object.
    Remove {
        /// Object id.
        obj: u64,
        /// The coordinator intention this leg runs (0: none).
        intent: u64,
    },
    /// Truncate an object.
    Truncate {
        /// Object id.
        obj: u64,
        /// New size.
        size: u64,
        /// The coordinator intention this leg runs (0: none).
        intent: u64,
    },
    /// Probe: has a leg of this intention run here?
    Probe {
        /// Intention id being probed.
        intent: u64,
    },
    /// Read a byte range from the surviving mirror for resynchronization.
    ResyncRead {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
    },
    /// Apply resynchronized bytes to a recovering replica (written
    /// stably: a resynced range must survive a second crash).
    ResyncWrite {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// The bytes owed: the windows the source answered with, or one
        /// decoded shard. The coordinator's stash and its retransmissions
        /// clone the windows, never the bytes.
        data: Windows,
    },
}

/// Reply to a [`StorageCtl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageCtlReply {
    /// Operation done.
    Done {
        /// Echo of the leg's intention id.
        intent: u64,
    },
    /// Probe result.
    ProbeResult {
        /// Intention id.
        intent: u64,
        /// Whether the probed operation had completed here.
        completed: bool,
    },
    /// A byte range read for resynchronization.
    ResyncData {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// The bytes, as windows of the stored extents (short when the
        /// object is shorter than asked).
        data: Windows,
    },
    /// A resynchronized range is durable on the recovering replica.
    ResyncApplied {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
    },
}

/// Configuration for one storage node.
#[derive(Debug, Clone)]
pub struct StorageNodeConfig {
    /// Number of disk arms (each a Seagate Cheetah).
    pub disks: usize,
    /// Shared channel bandwidth cap, bytes/second.
    pub channel_bps: f64,
    /// Buffer cache capacity in bytes.
    pub cache_bytes: u64,
    /// Retain written data (tests) or track metadata only (benchmarks).
    pub retain_data: bool,
}

impl Default for StorageNodeConfig {
    fn default() -> Self {
        // A Dell 4400-class node: 8 Cheetahs behind an Ultra-2-limited
        // channel, 256 MB of RAM mostly given to the buffer cache.
        StorageNodeConfig {
            disks: 8,
            channel_bps: 70_000_000.0,
            cache_bytes: 224 * 1024 * 1024,
            retain_data: true,
        }
    }
}

/// Per-object streaming state for prefetch detection.
#[derive(Debug, Clone, Default)]
struct StreamState {
    next_expected: u64,
}

/// FFS-style physical allocation: logical blocks of an object are laid
/// out compactly on disk in first-write order. This is what makes a
/// mirrored file's blocks (every other stripe of the client stream)
/// physically adjacent on their node, so that alternating-mirror reads
/// skip over stored-but-unread data — the "prefetched data unused" effect
/// of Table 2.
#[derive(Debug, Clone, Default)]
struct PhysMap {
    /// `(object, logical block)` to the block's place in its object's
    /// `order`: one table for the node, so an object of a few blocks
    /// costs a page slot each, not a table of its own.
    by_logical: BlockTable<(u64, u64)>,
    /// Each object's logical blocks in allocation order.
    order: FxHashMap<u64, Vec<u64>>,
}

/// One object's view of the [`PhysMap`], resolved once per request.
struct ObjectPhys<'a> {
    obj: u64,
    by_logical: &'a mut BlockTable<(u64, u64)>,
    order: &'a mut Vec<u64>,
}

impl PhysMap {
    fn object(&mut self, obj: u64) -> ObjectPhys<'_> {
        ObjectPhys {
            obj,
            by_logical: &mut self.by_logical,
            order: self.order.entry(obj).or_default(),
        }
    }

    fn remove(&mut self, obj: u64) {
        for b in self.order.remove(&obj).unwrap_or_default() {
            self.by_logical.remove((obj, b));
        }
    }
}

impl ObjectPhys<'_> {
    fn phys_of(&mut self, logical: u64) -> u64 {
        let next = u32::try_from(self.order.len()).expect("fewer than 2^32 blocks per object");
        match self.by_logical.get_or_insert((self.obj, logical), next) {
            Some(phys) => u64::from(phys),
            None => {
                self.order.push(logical);
                u64::from(next)
            }
        }
    }
}

/// The buffer cache: `(object, block)` keys, each with the completion
/// time of its prefetch (zero once none is pending), indexed by pages of
/// neighbouring blocks.
type BlockCache = LruCache<(u64, u64), SimTime, BlockTable<(u64, u64)>>;

/// A network storage node.
#[derive(Debug)]
pub struct StorageNode {
    store: ObjectStore,
    disks: DiskArray,
    cache: BlockCache,
    /// Dirty (unstable) logical blocks per object, awaiting cluster flush
    /// or commit.
    dirty: FxHashMap<u64, Vec<u64>>,
    /// Physical layout of every object.
    phys: PhysMap,
    /// Completion time of the most recent flush per object; COMMIT must
    /// wait for it.
    last_flush_done: FxHashMap<u64, SimTime>,
    streams: FxHashMap<u64, StreamState>,
    /// Write verifier; changes on every restart.
    verf: u64,
    /// Intentions whose leg ran here (what a coordinator probe asks).
    completed_intents: FxHashSet<u64>,
    reads: u64,
    writes: u64,
}

impl StorageNode {
    /// Creates a node from `config`.
    pub fn new(config: &StorageNodeConfig) -> Self {
        StorageNode {
            store: if config.retain_data {
                ObjectStore::new()
            } else {
                ObjectStore::new_metadata_only()
            },
            disks: DiskArray::new(config.disks, DiskParams::cheetah(), config.channel_bps),
            cache: BlockCache::with_capacity(config.cache_bytes),
            dirty: FxHashMap::default(),
            phys: PhysMap::default(),
            last_flush_done: FxHashMap::default(),
            streams: FxHashMap::default(),
            verf: 1,
            completed_intents: FxHashSet::default(),
            reads: 0,
            writes: 0,
        }
    }

    /// The object id a file handle maps to ("an external hash maps file
    /// handles to storage objects").
    fn object_of(fh: &Fhandle) -> u64 {
        fh.file_id()
    }

    /// Direct store access (tests, recovery harness).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable store access (fault injection in oracle mutation tests).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Placeholder post-op attributes for `obj`: storage nodes know only
    /// the local object size and times; the µproxy patches the attribute
    /// block with its authoritative cached attributes in flight (§4.1).
    fn attr_for(&self, obj: u64, now: SimTime) -> Fattr3 {
        let mut a = Fattr3::new(
            FileType::Regular,
            obj,
            0o644,
            NfsTime::from_nanos(now.as_nanos()),
        );
        a.size = self.store.size(obj);
        a.used = a.size;
        a
    }

    /// The current write verifier.
    pub fn verifier(&self) -> u64 {
        self.verf
    }

    /// (reads, writes) served.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Buffer cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Disk statistics: (reads, writes, bytes, sequential hits).
    pub fn disk_stats(&self) -> (u64, u64, u64, u64) {
        self.disks.stats()
    }

    /// (full seeks paid, nanoseconds spent seeking) since creation. The
    /// hosting actor diffs this across a request to emit seek trace
    /// events.
    pub fn disk_seeks(&self) -> (u64, u64) {
        (self.disks.seeks(), self.disks.seek_ns())
    }

    /// Simulates a crash: volatile state (cache, dirty buffers, streams)
    /// is lost; stable storage and a fresh verifier survive. Unstable
    /// writes that were never flushed are *discarded from the store*,
    /// modelling data that only ever reached RAM.
    pub fn crash_restart(&mut self) {
        // Unflushed dirty ranges were never on disk. The object store in
        // this model writes through on flush, so approximate by truncating
        // nothing but invalidating the cache and bumping the verifier; the
        // NFS V3 contract only requires that the verifier change so clients
        // re-send uncommitted data. Every field gets its verdict here, so
        // a new one cannot be forgotten.
        let Self {
            // Durable: stable storage and where its blocks lie.
            store: _,
            phys: _,
            // Hardware: what the arms have queued outlives the software.
            disks: _,
            // Volatile, prefetch completion times in the cache included.
            cache,
            dirty,
            last_flush_done,
            streams,
            completed_intents,
            verf,
            // Lifetime statistics.
            reads: _,
            writes: _,
        } = self;
        *cache = BlockCache::with_capacity(cache.capacity());
        dirty.clear();
        last_flush_done.clear();
        streams.clear();
        completed_intents.clear();
        *verf += 1;
    }

    fn block_of(offset: u64) -> u64 {
        offset / STORAGE_BLOCK
    }

    /// Reads blocks through the cache; returns the completion time.
    /// Disk positions come from the object's physical allocation map, and
    /// sequential prefetch follows *physical* order — the next blocks on
    /// the platter, whether or not the client ever asks for them.
    fn timed_read(&mut self, now: SimTime, obj: u64, offset: u64, len: usize) -> SimTime {
        let mut done = now;
        let first = Self::block_of(offset);
        let last = Self::block_of(offset + len.max(1) as u64 - 1);
        let mut phys_map = self.phys.object(obj);
        let mut last_phys = 0;
        for b in first..=last {
            let phys = phys_map.phys_of(b);
            last_phys = phys;
            if let Some(ready) = self.cache.get_mut(&(obj, b)) {
                // Resident, but a prefetch in flight must finish first.
                if *ready > now {
                    done = done.max(*ready);
                } else {
                    *ready = SimTime::ZERO;
                }
                continue;
            }
            let t = self.disks.submit(
                now,
                obj,
                phys * STORAGE_BLOCK,
                STORAGE_BLOCK as usize,
                false,
            );
            done = done.max(t);
            self.cache.admit((obj, b), STORAGE_BLOCK, SimTime::ZERO);
        }
        // Sequential prefetch up to PREFETCH_BYTES beyond the access, in
        // physical order.
        let stream = self.streams.entry(obj).or_default();
        let sequential = stream.next_expected == offset || offset == 0;
        stream.next_expected = offset + len as u64;
        if sequential {
            let pf_blocks = (PREFETCH_BYTES / STORAGE_BLOCK) as usize;
            let ahead = phys_map.order.iter().enumerate();
            for (phys, &logical) in ahead.skip(last_phys as usize + 1).take(pf_blocks) {
                if self.cache.contains(&(obj, logical)) {
                    continue;
                }
                // Prefetch does not delay this request's completion, but
                // consumers of the prefetched block wait for the disk.
                let t = self.disks.submit(
                    now,
                    obj,
                    phys as u64 * STORAGE_BLOCK,
                    STORAGE_BLOCK as usize,
                    false,
                );
                self.cache.admit((obj, logical), STORAGE_BLOCK, t);
            }
        }
        done
    }

    /// Flushes dirty logical blocks of `obj` to their physical positions
    /// (write clustering lays them out in allocation order); returns the
    /// completion time of the flush.
    fn flush_blocks(
        &mut self,
        now: SimTime,
        obj: u64,
        blocks: impl IntoIterator<Item = u64>,
    ) -> SimTime {
        let mut blocks = blocks.into_iter().peekable();
        if blocks.peek().is_none() {
            return *self.last_flush_done.get(&obj).unwrap_or(&now);
        }
        let mut phys_map = self.phys.object(obj);
        let mut done = now;
        for b in blocks {
            let phys = phys_map.phys_of(b);
            let t = self
                .disks
                .submit(now, obj, phys * STORAGE_BLOCK, STORAGE_BLOCK as usize, true);
            done = done.max(t);
        }
        let entry = self.last_flush_done.entry(obj).or_insert(now);
        *entry = (*entry).max(done);
        done
    }

    /// Counts a write of `len` bytes at `offset` of `obj`, already in the
    /// store, and makes its blocks resident; returns the block range
    /// written. A write supersedes any prefetch of those blocks still in
    /// flight.
    fn written(&mut self, obj: u64, offset: u64, len: usize) -> RangeInclusive<u64> {
        self.writes += 1;
        let blocks = Self::block_of(offset)..=Self::block_of(offset + len.max(1) as u64 - 1);
        for b in blocks.clone() {
            self.cache.admit((obj, b), STORAGE_BLOCK, SimTime::ZERO);
        }
        blocks
    }

    /// Runs a READ of `count` bytes at `offset` through the cache and
    /// disk model; returns the completion time, the object, and how many
    /// bytes of the range exist locally.
    fn timed_object_read(
        &mut self,
        now: SimTime,
        fh: &Fhandle,
        offset: u64,
        count: u32,
    ) -> (SimTime, u64, usize) {
        self.reads += 1;
        let obj = Self::object_of(fh);
        // An object-based device returns only bytes that exist
        // locally; the µproxy reconciles short reads against the
        // authoritative file size from its attribute cache.
        let local = self.store.size(obj);
        let avail = local.saturating_sub(offset).min(u64::from(count)) as usize;
        let done = self.timed_read(now, obj, offset, avail.max(1));
        (done, obj, avail)
    }

    /// Serves a READ as the header and windows of its reply to `xid`: the
    /// windows are the store's extents and the shared zero buffer, so no
    /// data byte is copied or filled.
    pub fn read_encoded(
        &mut self,
        now: SimTime,
        xid: u32,
        fh: &Fhandle,
        offset: u64,
        count: u32,
    ) -> (SimTime, Vec<u8>, Windows) {
        let (done, obj, avail) = self.timed_object_read(now, fh, offset, count);
        let attr = self.attr_for(obj, now);
        let eof = offset + avail as u64 >= attr.size;
        let data = self.store.read_windows(obj, offset, avail);
        let (header, windows) = encode_read_reply(xid, Some(attr), eof, data);
        (done, header, windows)
    }

    /// Serves a WRITE of `data`, the windows of the packet the call
    /// arrived in, at `offset`. Nothing is copied: a retaining store keeps
    /// the windows, so the two replicas of a mirrored write hold one
    /// allocation between them, and a metadata-only store takes the length
    /// and leaves the buffers alone.
    pub fn write(
        &mut self,
        now: SimTime,
        fh: &Fhandle,
        offset: u64,
        stable: StableHow,
        data: &Windows,
    ) -> (SimTime, NfsReply) {
        let obj = Self::object_of(fh);
        self.store.write_windows(obj, offset, data);
        self.write_done(now, obj, offset, data.len(), stable)
    }

    /// The disk model and the reply of a WRITE of `len` bytes at `offset`
    /// of `obj`, once the store holds them.
    fn write_done(
        &mut self,
        now: SimTime,
        obj: u64,
        offset: u64,
        len: usize,
        stable: StableHow,
    ) -> (SimTime, NfsReply) {
        let blocks = self.written(obj, offset, len);
        let done = match stable {
            StableHow::Unstable => {
                let dirty = self.dirty.entry(obj).or_default();
                dirty.extend(blocks);
                if dirty.len() as u64 * STORAGE_BLOCK >= CLUSTER_BYTES {
                    let batch = std::mem::take(dirty);
                    // Background cluster flush; does not delay the
                    // reply.
                    self.flush_blocks(now, obj, batch);
                }
                now
            }
            StableHow::DataSync | StableHow::FileSync => self.flush_blocks(now, obj, blocks),
        };
        (
            done,
            NfsReply {
                proc: NfsProc::Write,
                status: NfsStatus::Ok,
                attr: Some(self.attr_for(obj, now)),
                body: ReplyBody::Write {
                    count: len as u32,
                    committed: stable,
                    verf: self.verf,
                },
            },
        )
    }

    /// Serves an NFS request addressed to this storage node; returns the
    /// completion time and the reply. Only I/O procedures are meaningful
    /// here — anything else is a µproxy misroute and returns `NOTSUPP`.
    pub fn handle_nfs(&mut self, now: SimTime, req: &NfsRequest) -> (SimTime, NfsReply) {
        match req {
            NfsRequest::Read { fh, offset, count } => {
                let (done, obj, avail) = self.timed_object_read(now, fh, *offset, *count);
                let (data, eof) = self.store.read(obj, *offset, avail);
                (
                    done,
                    NfsReply {
                        proc: NfsProc::Read,
                        status: NfsStatus::Ok,
                        attr: Some(self.attr_for(obj, now)),
                        body: ReplyBody::Read { data, eof },
                    },
                )
            }
            NfsRequest::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                // A decoded request owns its bytes: the store copies them.
                let obj = Self::object_of(fh);
                self.store.write(obj, *offset, data);
                self.write_done(now, obj, *offset, data.len(), *stable)
            }
            NfsRequest::Commit { fh, .. } => {
                let obj = Self::object_of(fh);
                let dirty = self.dirty.remove(&obj).unwrap_or_default();
                let done = self.flush_blocks(now, obj, dirty).max(now);
                (
                    done,
                    NfsReply {
                        proc: NfsProc::Commit,
                        status: NfsStatus::Ok,
                        attr: Some(self.attr_for(obj, now)),
                        body: ReplyBody::Commit { verf: self.verf },
                    },
                )
            }
            other => (now, NfsReply::error(other.proc(), NfsStatus::NotSupp)),
        }
    }

    /// Serves a coordinator control operation.
    pub fn handle_ctl(&mut self, now: SimTime, ctl: &StorageCtl) -> (SimTime, StorageCtlReply) {
        match ctl {
            StorageCtl::Remove { obj, intent } => {
                self.store.remove(*obj);
                // Everything keyed by the object goes with it, or it stays
                // for ever. Its cached blocks age out of the LRU as any
                // others do.
                self.dirty.remove(obj);
                self.streams.remove(obj);
                self.phys.remove(*obj);
                self.last_flush_done.remove(obj);
                self.completed_intents.insert(*intent);
                // One metadata disk write to free the object's extents.
                let done = self.disks.submit(now, *obj, 0, 512, true);
                (done, StorageCtlReply::Done { intent: *intent })
            }
            StorageCtl::Truncate { obj, size, intent } => {
                self.store.truncate(*obj, *size);
                self.completed_intents.insert(*intent);
                let done = self.disks.submit(now, *obj, *size, 512, true);
                (done, StorageCtlReply::Done { intent: *intent })
            }
            StorageCtl::Probe { intent } => {
                let completed = self.completed_intents.contains(intent);
                (
                    now,
                    StorageCtlReply::ProbeResult {
                        intent: *intent,
                        completed,
                    },
                )
            }
            StorageCtl::ResyncRead { obj, offset, len } => {
                self.reads += 1;
                let avail = self.store.size(*obj).saturating_sub(*offset).min(*len) as usize;
                let done = self.timed_read(now, *obj, *offset, avail.max(1));
                (
                    done,
                    StorageCtlReply::ResyncData {
                        obj: *obj,
                        offset: *offset,
                        // Windows of the stored extents: every hop after
                        // this shares their allocations.
                        data: self.store.read_windows(*obj, *offset, avail),
                    },
                )
            }
            StorageCtl::ResyncWrite { obj, offset, data } => {
                // The target keeps the windows the bytes came in.
                self.store.write_windows(*obj, *offset, data);
                let blocks = self.written(*obj, *offset, data.len());
                let done = self.flush_blocks(now, *obj, blocks);
                (
                    done,
                    StorageCtlReply::ResyncApplied {
                        obj: *obj,
                        offset: *offset,
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slice_sim::SimDuration;

    fn fh(id: u64) -> Fhandle {
        Fhandle::new(id, 0, 0, 0, 0)
    }

    fn node() -> StorageNode {
        StorageNode::new(&StorageNodeConfig::default())
    }

    fn t0() -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(1)
    }

    #[test]
    fn remove_forgets_every_table_keyed_by_the_object() {
        let mut n = node();
        for obj in 0..100u64 {
            let w = NfsRequest::Write {
                fh: fh(obj),
                offset: 0,
                stable: StableHow::FileSync,
                data: vec![7; 100],
            };
            n.handle_nfs(t0(), &w);
            n.handle_ctl(t0(), &StorageCtl::Remove { obj, intent: 0 });
        }
        let keyed = n.dirty.len() + n.streams.len() + n.phys.order.len() + n.last_flush_done.len();
        assert_eq!(keyed, 0, "a removed object leaves an entry behind");
        assert_eq!(
            n.phys.by_logical.pages(),
            0,
            "a removed object leaves a PhysMap page"
        );

        // A cache of eight blocks: object 1's three blocks are evicted by
        // sixteen of object 2's, whose resident eight share one page.
        let mut n = StorageNode::new(&StorageNodeConfig {
            cache_bytes: 8 * STORAGE_BLOCK,
            ..StorageNodeConfig::default()
        });
        for (obj, blocks) in [(1u64, 3u64), (2, 16)] {
            let w = NfsRequest::Write {
                fh: fh(obj),
                offset: 0,
                stable: StableHow::Unstable,
                data: vec![1; (blocks * STORAGE_BLOCK) as usize],
            };
            n.handle_nfs(t0(), &w);
        }
        assert!((0..3).all(|b| !n.cache.contains(&(1, b))));
        assert_eq!(n.cache.len(), 8);
        assert_eq!(
            n.cache.index().pages(),
            1,
            "an evicted object leaves a cache-index page"
        );
    }

    /// Offsets far apart, up to the last block below 2^62, read back on
    /// a retaining and a metadata-only node, with a table page per block.
    #[test]
    fn hostile_offsets_read_back() {
        for retain_data in [true, false] {
            let mut n = StorageNode::new(&StorageNodeConfig {
                retain_data,
                ..StorageNodeConfig::default()
            });
            let offsets = [0, 1 << 40, (1 << 62) - STORAGE_BLOCK];
            for (i, &offset) in offsets.iter().enumerate() {
                for stable in [StableHow::Unstable, StableHow::FileSync] {
                    let w = NfsRequest::Write {
                        fh: fh(3),
                        offset,
                        stable,
                        data: vec![i as u8 + 1; STORAGE_BLOCK as usize],
                    };
                    n.handle_nfs(t0(), &w);
                }
            }
            for (i, &offset) in offsets.iter().enumerate() {
                let r = NfsRequest::Read {
                    fh: fh(3),
                    offset,
                    count: STORAGE_BLOCK as u32,
                };
                let (_, reply) = n.handle_nfs(t0(), &r);
                let ReplyBody::Read { data, .. } = reply.body else {
                    panic!("unexpected body {:?}", reply.body);
                };
                let byte = if retain_data { i as u8 + 1 } else { 0 };
                assert_eq!(data, vec![byte; STORAGE_BLOCK as usize], "at {offset}");
            }
            // Memory follows the pages touched, not the largest offset.
            assert_eq!(n.phys.by_logical.pages(), offsets.len());
            assert_eq!(n.cache.index().pages(), offsets.len());
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut n = node();
        let w = NfsRequest::Write {
            fh: fh(5),
            offset: 0,
            stable: StableHow::FileSync,
            data: b"storage bytes".to_vec(),
        };
        let (done, reply) = n.handle_nfs(t0(), &w);
        assert!(done > t0(), "stable write must wait for disk");
        assert!(matches!(reply.body, ReplyBody::Write { count: 13, .. }));
        let r = NfsRequest::Read {
            fh: fh(5),
            offset: 0,
            count: 13,
        };
        let (_, reply) = n.handle_nfs(t0(), &r);
        match reply.body {
            ReplyBody::Read { data, eof } => {
                assert_eq!(&data, b"storage bytes");
                assert!(eof);
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn unstable_write_returns_immediately() {
        let mut n = node();
        let w = NfsRequest::Write {
            fh: fh(1),
            offset: 0,
            stable: StableHow::Unstable,
            data: vec![1u8; 8192],
        };
        let (done, reply) = n.handle_nfs(t0(), &w);
        assert_eq!(done, t0(), "unstable write is memory speed");
        assert!(matches!(
            reply.body,
            ReplyBody::Write {
                committed: StableHow::Unstable,
                ..
            }
        ));
    }

    #[test]
    fn commit_waits_for_dirty_flush() {
        let mut n = node();
        for i in 0..4u64 {
            let w = NfsRequest::Write {
                fh: fh(1),
                offset: i * 32768,
                stable: StableHow::Unstable,
                data: vec![0u8; 32768],
            };
            n.handle_nfs(t0(), &w);
        }
        let (done, reply) = n.handle_nfs(
            t0(),
            &NfsRequest::Commit {
                fh: fh(1),
                offset: 0,
                count: 0,
            },
        );
        assert!(done > t0(), "commit must wait for the flush");
        assert!(matches!(reply.body, ReplyBody::Commit { .. }));
    }

    #[test]
    fn cached_reads_are_fast() {
        let mut n = node();
        let w = NfsRequest::Write {
            fh: fh(9),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![7u8; 8192],
        };
        let (after_write, _) = n.handle_nfs(t0(), &w);
        let r = NfsRequest::Read {
            fh: fh(9),
            offset: 0,
            count: 8192,
        };
        let (done, _) = n.handle_nfs(after_write, &r);
        assert_eq!(done, after_write, "block was cache resident after write");
    }

    #[test]
    fn sequential_read_prefetches() {
        let mut n = node();
        // Lay down 512 KB stably.
        let w = NfsRequest::Write {
            fh: fh(2),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![3u8; 512 * 1024],
        };
        let (mut now, _) = n.handle_nfs(t0(), &w);
        // Evict cache by crashing volatile state (keeps store).
        n.crash_restart();
        now += SimDuration::from_secs(1);
        // First sequential read misses, but prefetch covers the following
        // 256 KB: subsequent reads issue no new disk I/O and wait at most
        // for the already-queued prefetch to stream in.
        let r0 = NfsRequest::Read {
            fh: fh(2),
            offset: 0,
            count: 32768,
        };
        let (d0, _) = n.handle_nfs(now, &r0);
        assert!(d0 > now);
        let r1 = NfsRequest::Read {
            fh: fh(2),
            offset: 32768,
            count: 32768,
        };
        let (d1, _) = n.handle_nfs(d0, &r1);
        // The blocks were already prefetched (the disk may stream further
        // ahead, but this request adds no demand miss): the wait is
        // bounded by the in-flight streaming, far below a seek.
        assert!(
            d1 - d0 < SimDuration::from_millis(3),
            "prefetched block waits only for streaming: {}",
            d1 - d0
        );
    }

    #[test]
    fn encoded_read_matches_the_decoded_path() {
        // Two nodes fed the same history; one answers through
        // `handle_nfs` + `encode_reply`, the other in windows.
        let (mut a, mut b) = (node(), node());
        for n in [&mut a, &mut b] {
            for (offset, byte) in [(0u64, 1u8), (40_000, 2), (100_000, 3)] {
                let w = NfsRequest::Write {
                    fh: fh(6),
                    offset,
                    stable: StableHow::FileSync,
                    data: vec![byte; 20_000],
                };
                n.handle_nfs(t0(), &w);
            }
        }
        // Inside an extent, across a hole, up to and past the local end.
        for (xid, (offset, count)) in [(0, 100), (10_000, 50_000), (90_000, 40_000), (200_000, 8)]
            .into_iter()
            .enumerate()
        {
            let req = NfsRequest::Read {
                fh: fh(6),
                offset,
                count,
            };
            let (done_a, reply) = a.handle_nfs(t0(), &req);
            let (done_b, header, windows) = b.read_encoded(t0(), xid as u32, &fh(6), offset, count);
            assert_eq!(done_a, done_b, "read at {offset}");
            let mut payload = header;
            payload.extend_from_slice(&windows.to_vec());
            assert_eq!(
                payload,
                slice_nfsproto::encode_reply(xid as u32, &reply),
                "read at {offset}"
            );
        }
        assert_eq!(a.op_counts(), b.op_counts());
        assert_eq!(a.store().io_stats(), b.store().io_stats());
    }

    #[test]
    fn verifier_changes_on_restart() {
        let mut n = node();
        let v1 = n.verifier();
        n.crash_restart();
        assert_ne!(n.verifier(), v1);
    }

    #[test]
    fn remove_and_truncate_ctl() {
        let mut n = node();
        let w = NfsRequest::Write {
            fh: fh(4),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![1u8; 100],
        };
        n.handle_nfs(t0(), &w);
        let truncate = StorageCtl::Truncate {
            obj: 4,
            size: 10,
            intent: 7,
        };
        let (_, reply) = n.handle_ctl(t0(), &truncate);
        assert_eq!(reply, StorageCtlReply::Done { intent: 7 });
        assert_eq!(n.store().size(4), 10);
        let (_, reply) = n.handle_ctl(t0(), &StorageCtl::Remove { obj: 4, intent: 0 });
        assert_eq!(reply, StorageCtlReply::Done { intent: 0 });
        assert_eq!(n.store().size(4), 0);
    }

    /// A probe says whether a leg of the intention ran here — until a
    /// restart, which forgets (the leg is idempotent and is re-issued).
    #[test]
    fn probe_reports_the_legs_that_ran() {
        let mut n = node();
        let probe = |n: &mut StorageNode| match n.handle_ctl(t0(), &StorageCtl::Probe { intent: 9 })
        {
            (
                _,
                StorageCtlReply::ProbeResult {
                    intent: 9,
                    completed,
                },
            ) => completed,
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(!probe(&mut n));
        n.handle_ctl(t0(), &StorageCtl::Remove { obj: 4, intent: 9 });
        assert!(probe(&mut n));
        n.crash_restart();
        assert!(!probe(&mut n));
    }

    #[test]
    fn misrouted_request_rejected() {
        let mut n = node();
        let (_, reply) = n.handle_nfs(t0(), &NfsRequest::Getattr { fh: fh(1) });
        assert_eq!(reply.status, NfsStatus::NotSupp);
    }
}
