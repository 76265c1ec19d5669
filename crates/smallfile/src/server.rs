//! The small-file server: a specialized file server for I/O below the
//! threshold offset (paper §4.4).
//!
//! Each file is managed as a sequence of 8 KB logical blocks whose
//! locations are given by a per-file *map record* (a fixed number of
//! extent pairs). Map records are reached through an on-disk descriptor
//! array indexed by fileID, so records for files created together pack
//! into the same map block and their read cost amortizes. Data and map
//! blocks are cached in a buffer cache; physical storage comes from
//! [`ZoneAllocator`] zones backed by objects in the network block storage
//! service — the small-file server is *dataless* and journals its
//! metadata updates to a write-ahead log.
//!
//! The server is an asynchronous state machine: operations that miss in
//! the cache emit backing-I/O actions addressed to storage sites, and the
//! reply is deferred until those complete. The host actor dispatches
//! [`SfAction`]s and feeds completions back in.

use std::collections::hash_map::Entry;

use slice_sim::{FxHashMap, FxHashSet};

use slice_nfsproto::{
    Fattr3, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, ReplyBody, StableHow,
    Windows,
};
use slice_sim::{LruCache, SimTime};
use slice_storage::Wal;

use crate::alloc::{frag_size, Region, ZoneAllocator, SF_BLOCK};

/// The threshold offset: I/O below this goes to small-file servers
/// (paper §3.1; 64 KB).
pub use slice_storage::THRESHOLD as SF_THRESHOLD;
/// Extent slots per map record (64 KB / 8 KB).
pub const MAP_EXTENTS: usize = (SF_THRESHOLD / SF_BLOCK as u64) as usize;
/// Map records per 8 KB map block (64-byte records).
pub const MAP_RECORDS_PER_BLOCK: u64 = 128;

/// Backing object id for a server's zone.
pub fn zone_object(server_id: u32, zone: u32) -> u64 {
    (1u64 << 63) | (u64::from(server_id) << 24) | u64::from(zone)
}

/// Backing object id for a server's map descriptor array.
pub fn map_object(server_id: u32) -> u64 {
    (1u64 << 62) | u64::from(server_id)
}

/// One mapped extent: where a logical block lives and how many logical
/// bytes it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapExtent {
    /// Physical location.
    pub region: Region,
    /// Logical bytes stored in this block.
    pub bytes: u32,
}

/// A per-file map record.
#[derive(Debug, Clone, Default)]
pub struct MapRecord {
    /// Extents for blocks 0..8.
    pub extents: [Option<MapExtent>; MAP_EXTENTS],
    /// Local (below-threshold) file size.
    pub size: u64,
    /// Modification time of the below-threshold region.
    pub mtime: NfsTime,
}

impl MapRecord {
    /// Cuts the record at `size`, live and in replay alike: the extents
    /// wholly past the new end go (their regions are returned, for the
    /// allocator), the one the end falls in keeps its region, shorter.
    fn cut(&mut self, size: u64) -> Vec<Region> {
        let past = blocks_past(size);
        if let Some(b) = past.start.checked_sub(1) {
            if let Some(ext) = &mut self.extents[b as usize] {
                let b_start = u64::from(b) * u64::from(SF_BLOCK);
                ext.bytes = (size - b_start).min(u64::from(ext.bytes)) as u32;
            }
        }
        self.size = self.size.min(size);
        let gone = past.filter_map(|b| self.extents[b as usize].take());
        gone.map(|ext| ext.region).collect()
    }
}

/// WAL records for small-file metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SfLog {
    /// An extent was (re)assigned.
    SetExtent {
        /// File id.
        file: u64,
        /// Logical block index.
        block: u8,
        /// New physical region.
        region: Region,
        /// Logical bytes in the block.
        bytes: u32,
        /// New local file size.
        size: u64,
    },
    /// A file's map record was destroyed.
    Remove {
        /// File id.
        file: u64,
    },
    /// A file was truncated.
    Truncate {
        /// File id.
        file: u64,
        /// New size.
        size: u64,
    },
}

/// Control operations from the directory service (not client-visible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SfCtl {
    /// Free a removed file's small-file storage.
    Remove {
        /// File id.
        file: u64,
    },
    /// Truncate a file's small-file storage.
    Truncate {
        /// File id.
        file: u64,
        /// New size.
        size: u64,
    },
}

/// Actions the host actor dispatches for the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SfAction {
    /// Send an NFS reply to the requester identified by `token`.
    Reply {
        /// Host-supplied requester token.
        token: u64,
        /// The reply.
        reply: NfsReply,
    },
    /// Read from a backing object at a storage site.
    BackingRead {
        /// Correlation tag echoed in the completion.
        tag: u64,
        /// Logical storage site.
        site: u32,
        /// Backing object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
    },
    /// Write to a backing object at a storage site.
    BackingWrite {
        /// Correlation tag echoed in the completion (0 = fire and forget).
        tag: u64,
        /// Logical storage site.
        site: u32,
        /// Backing object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// The data: the block's retained bytes, or windows of the shared
        /// zero buffer when the server keeps none.
        data: Windows,
        /// Whether the write must be stable before completion.
        stable: bool,
    },
}

/// Configuration for a small-file server.
#[derive(Debug, Clone)]
pub struct SmallFileConfig {
    /// This server's id (namespaces its backing objects).
    pub server_id: u32,
    /// Number of storage sites (= zones).
    pub storage_sites: u32,
    /// Buffer cache bytes (the paper's ensembles give each server 512 MB).
    pub cache_bytes: u64,
    /// Retain file contents (tests) or track metadata only (benchmarks).
    pub retain_data: bool,
}

impl Default for SmallFileConfig {
    fn default() -> Self {
        SmallFileConfig {
            server_id: 0,
            storage_sites: 1,
            cache_bytes: 512 * 1024 * 1024,
            retain_data: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    Data { file: u64, block: u8 },
    Map { map_block: u64 },
}

/// An op waiting on backing I/O; `left` counts its tags still out.
#[derive(Debug)]
enum Parked {
    /// Waits for blocks to become resident, then executes.
    Fetch {
        token: u64,
        req: NfsRequest,
        left: usize,
    },
    /// Has executed; sends `reply` once its stable flushes have landed.
    Flush {
        token: u64,
        reply: NfsReply,
        left: usize,
    },
}

/// The logical blocks `len` bytes at `offset` touch (one block for an
/// empty span; none at the threshold itself).
fn blocks_of(offset: u64, len: u64) -> std::ops::RangeInclusive<u8> {
    let last = (offset + len.max(1) - 1) / u64::from(SF_BLOCK);
    (offset / u64::from(SF_BLOCK)) as u8..=last.min(MAP_EXTENTS as u64 - 1) as u8
}

/// The blocks that lie wholly at or past `size`.
fn blocks_past(size: u64) -> std::ops::Range<u8> {
    size.div_ceil(u64::from(SF_BLOCK)).min(MAP_EXTENTS as u64) as u8..MAP_EXTENTS as u8
}

/// The small-file server state machine.
#[derive(Debug)]
pub struct SmallFileServer {
    config: SmallFileConfig,
    pub(crate) maps: FxHashMap<u64, MapRecord>,
    alloc: ZoneAllocator,
    cache: LruCache<CacheKey>,
    /// Resident block contents (retain mode only).
    contents: FxHashMap<(u64, u8), Vec<u8>>,
    /// Resident blocks with unflushed data. COMMIT flushes in this set's
    /// iteration order, which the host turns into backing xids: another
    /// container is another send order (DESIGN.md §17).
    dirty: FxHashSet<(u64, u8)>,
    wal: Wal<SfLog>,
    parked: FxHashMap<u64, Parked>,
    /// Outstanding backing tag -> the op that waits for it, and the block
    /// a read will make resident.
    by_tag: FxHashMap<u64, (u64, Option<CacheKey>)>,
    next_tag: u64,
    next_op: u64,
    verf: u64,
    served: u64,
}

impl SmallFileServer {
    /// Creates a server from `config`.
    pub fn new(config: SmallFileConfig) -> Self {
        let zones = config.storage_sites.max(1);
        SmallFileServer {
            alloc: ZoneAllocator::new(zones),
            cache: LruCache::new(config.cache_bytes),
            maps: FxHashMap::default(),
            contents: FxHashMap::default(),
            dirty: FxHashSet::default(),
            wal: Wal::new(true),
            parked: FxHashMap::default(),
            by_tag: FxHashMap::default(),
            next_tag: 1,
            next_op: 1,
            verf: 1,
            served: 0,
            config,
        }
    }

    /// Requests served to completion.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Buffer cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Current write verifier.
    pub fn verifier(&self) -> u64 {
        self.verf
    }

    /// Whether block contents are retained (else only residency is).
    pub fn retains_data(&self) -> bool {
        self.config.retain_data
    }

    /// Allocator statistics: (allocated bytes, free-list bytes).
    pub fn alloc_stats(&self) -> (u64, u64) {
        (self.alloc.allocated_bytes(), self.alloc.free_bytes())
    }

    fn extent(&self, file: u64, block: u8) -> Option<MapExtent> {
        self.maps.get(&file).and_then(|m| m.extents[block as usize])
    }

    /// A success reply carrying `file`'s current attributes.
    fn ok(&self, proc: NfsProc, file: u64, body: ReplyBody) -> NfsReply {
        let (size, mtime) = self
            .maps
            .get(&file)
            .map(|m| (m.size, m.mtime))
            .unwrap_or((0, NfsTime::default()));
        let mut attr = Fattr3::new(FileType::Regular, file, 0o644, mtime);
        attr.size = size;
        attr.used = size;
        NfsReply {
            proc,
            status: NfsStatus::Ok,
            attr: Some(attr),
            body,
        }
    }

    /// Draws a backing tag `op` waits for; a read's tag names the block it
    /// makes resident.
    fn tag_for(&mut self, op: u64, fetched: Option<CacheKey>) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.by_tag.insert(tag, (op, fetched));
        tag
    }

    /// Makes `op` wait for `key` unless it is resident (or a hole, which
    /// reads as zeros and is not a miss); true if a backing read went out.
    fn fetch(&mut self, actions: &mut Vec<SfAction>, op: u64, key: CacheKey) -> bool {
        let (site, obj, offset, len) = match key {
            CacheKey::Map { map_block } => (
                (map_block % u64::from(self.config.storage_sites.max(1))) as u32,
                map_object(self.config.server_id),
                map_block * u64::from(SF_BLOCK),
                SF_BLOCK,
            ),
            CacheKey::Data { file, block } => {
                let Some(MapExtent { region, .. }) = self.extent(file, block) else {
                    return false;
                };
                let obj = zone_object(self.config.server_id, region.zone);
                (region.zone, obj, region.offset, region.frag)
            }
        };
        if self.cache.get(&key) {
            return false;
        }
        actions.push(SfAction::BackingRead {
            tag: self.tag_for(op, Some(key)),
            site,
            obj,
            offset,
            len,
        });
        true
    }

    /// Writes a block to its extent (`tag` 0 = fire and forget).
    fn backing_write(&self, tag: u64, ext: MapExtent, content: Option<Vec<u8>>) -> SfAction {
        let mut data = Windows::default();
        match content {
            Some(bytes) => data.push(bytes.into()),
            None => data.push_zeros(ext.bytes as usize),
        }
        SfAction::BackingWrite {
            tag,
            site: ext.region.zone,
            obj: zone_object(self.config.server_id, ext.region.zone),
            offset: ext.region.offset,
            data,
            stable: true,
        }
    }

    /// Flushes `blocks` of `file` to backing and sends `reply` when the
    /// last has landed — at once if there is nothing to flush.
    fn flush_then_reply(
        &mut self,
        actions: &mut Vec<SfAction>,
        file: u64,
        blocks: Vec<u8>,
        token: u64,
        reply: NfsReply,
    ) {
        let op = self.next_op;
        let mut left = 0;
        for b in blocks {
            let Some(ext) = self.extent(file, b) else {
                continue;
            };
            let tag = self.tag_for(op, None);
            left += 1;
            actions.push(self.backing_write(tag, ext, self.contents.get(&(file, b)).cloned()));
        }
        if left == 0 {
            actions.push(SfAction::Reply { token, reply });
        } else {
            self.next_op += 1;
            self.parked.insert(op, Parked::Flush { token, reply, left });
        }
    }

    fn insert_resident(&mut self, actions: &mut Vec<SfAction>, key: CacheKey) {
        for victim in self.cache.insert(key, u64::from(SF_BLOCK)) {
            if let CacheKey::Data { file, block } = victim {
                let content = self.contents.remove(&(file, block));
                // Evicting dirty data forces a flush to backing.
                if self.dirty.remove(&(file, block)) {
                    if let Some(ext) = self.extent(file, block) {
                        actions.push(self.backing_write(0, ext, content));
                    }
                }
            }
        }
    }

    fn drop_block(&mut self, file: u64, block: u8) {
        self.cache.remove(&CacheKey::Data { file, block });
        self.contents.remove(&(file, block));
        self.dirty.remove(&(file, block));
    }

    /// Serves an NFS request (READ/WRITE/COMMIT below the threshold);
    /// `token` identifies the requester for the eventual reply.
    pub fn handle_nfs(&mut self, now: SimTime, token: u64, req: NfsRequest) -> Vec<SfAction> {
        let mut actions = Vec::new();
        let (file, offset, len, is_write) = match &req {
            NfsRequest::Read { fh, offset, count } => {
                (fh.file_id(), *offset, u64::from(*count), false)
            }
            NfsRequest::Write {
                fh, offset, data, ..
            } => (fh.file_id(), *offset, data.len() as u64, true),
            // COMMIT needs no fetches; anything else is refused there.
            _ => {
                self.execute(now, token, req, &mut actions);
                return actions;
            }
        };
        // A request comes straight off the wire: everything below trusts
        // that it lies under the threshold (block indices fit a map
        // record), so one that does not is refused before it touches state.
        if offset.checked_add(len).is_none_or(|end| end > SF_THRESHOLD) {
            actions.push(SfAction::Reply {
                token,
                reply: NfsReply::error(req.proc(), NfsStatus::Inval),
            });
            return actions;
        }
        let op = self.next_op;
        let map_block = file / MAP_RECORDS_PER_BLOCK;
        let mut left = usize::from(self.fetch(&mut actions, op, CacheKey::Map { map_block }));
        for block in blocks_of(offset, len) {
            // Read-modify-write: a WRITE needs only the blocks it
            // overwrites in part.
            let b_start = u64::from(block) * u64::from(SF_BLOCK);
            let covers = offset <= b_start && offset + len >= b_start + u64::from(SF_BLOCK);
            if !(is_write && covers) {
                left += usize::from(self.fetch(&mut actions, op, CacheKey::Data { file, block }));
            }
        }
        if left == 0 {
            self.execute(now, token, req, &mut actions);
        } else {
            self.next_op += 1;
            self.parked.insert(op, Parked::Fetch { token, req, left });
        }
        actions
    }

    /// Feeds a backing-I/O completion back in; `data` carries read results
    /// in retain mode.
    pub fn handle_backing_done(
        &mut self,
        now: SimTime,
        tag: u64,
        data: Option<Vec<u8>>,
    ) -> Vec<SfAction> {
        let mut actions = Vec::new();
        let Some((op, fetched)) = self.by_tag.remove(&tag) else {
            return actions; // fire-and-forget flush completion
        };
        // What a read fetched is resident now; keep its bytes in retain
        // mode — unless a WRITE that executed while the fetch was out has
        // made the block resident with newer ones.
        if let Some(key) = fetched {
            self.insert_resident(&mut actions, key);
            if let (CacheKey::Data { file, block }, true, Some(mut bytes)) =
                (key, self.config.retain_data, data)
            {
                if let Some(ext) = self.extent(file, block) {
                    bytes.truncate(ext.bytes as usize);
                    self.contents.entry((file, block)).or_insert(bytes);
                }
            }
        }
        let Entry::Occupied(mut parked) = self.parked.entry(op) else {
            return actions;
        };
        let (Parked::Fetch { left, .. } | Parked::Flush { left, .. }) = parked.get_mut();
        *left -= 1;
        if *left == 0 {
            match parked.remove() {
                Parked::Fetch { token, req, .. } => self.execute(now, token, req, &mut actions),
                Parked::Flush { token, reply, .. } => {
                    actions.push(SfAction::Reply { token, reply })
                }
            }
        }
        actions
    }

    /// Executes a request whose dependencies are all resident.
    fn execute(&mut self, now: SimTime, token: u64, req: NfsRequest, actions: &mut Vec<SfAction>) {
        match req {
            NfsRequest::Read { fh, offset, count } => {
                self.served += 1;
                let file = fh.file_id();
                let size = self.maps.get(&file).map(|m| m.size).unwrap_or(0);
                let avail = size.saturating_sub(offset).min(u64::from(count));
                let mut data = vec![0u8; avail as usize];
                if self.config.retain_data {
                    for b in blocks_of(offset, avail) {
                        if let Some(content) = self.contents.get(&(file, b)) {
                            let b_start = u64::from(b) * u64::from(SF_BLOCK);
                            let lo = offset.max(b_start);
                            let hi = (offset + avail).min(b_start + content.len() as u64);
                            if lo < hi {
                                data[(lo - offset) as usize..(hi - offset) as usize]
                                    .copy_from_slice(
                                        &content[(lo - b_start) as usize..(hi - b_start) as usize],
                                    );
                            }
                        }
                    }
                }
                let eof = offset + u64::from(count) >= size;
                let reply = self.ok(NfsProc::Read, file, ReplyBody::Read { data, eof });
                actions.push(SfAction::Reply { token, reply });
            }
            NfsRequest::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                self.served += 1;
                let file = fh.file_id();
                let end = offset + data.len() as u64;
                let map = self.maps.entry(file).or_default();
                map.size = map.size.max(end);
                map.mtime = NfsTime::from_nanos(now.as_nanos());
                let size = map.size;
                let mut flushes = Vec::new();
                for b in blocks_of(offset, data.len() as u64) {
                    let b_start = u64::from(b) * u64::from(SF_BLOCK);
                    let b_end = b_start + u64::from(SF_BLOCK);
                    // New logical extent size for this block.
                    let bytes = (size.min(b_end).saturating_sub(b_start)) as u32;
                    let region = match self.extent(file, b) {
                        Some(e) if e.region.frag >= frag_size(bytes.max(1)) => e.region,
                        Some(e) => {
                            self.alloc.free(e.region);
                            self.alloc.alloc(bytes)
                        }
                        None => self.alloc.alloc(bytes),
                    };
                    let record = SfLog::SetExtent {
                        file,
                        block: b,
                        region,
                        bytes,
                        size,
                    };
                    self.wal.append(now, record, 48);
                    self.maps.get_mut(&file).expect("map created above").extents[b as usize] =
                        Some(MapExtent { region, bytes });
                    self.insert_resident(actions, CacheKey::Data { file, block: b });
                    if self.config.retain_data {
                        let content = self.contents.entry((file, b)).or_default();
                        if content.len() < bytes as usize {
                            content.resize(bytes as usize, 0);
                        }
                        let (lo, hi) = (offset.max(b_start), end.min(b_end));
                        content[(lo - b_start) as usize..(hi - b_start) as usize]
                            .copy_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
                    }
                    if matches!(stable, StableHow::Unstable) {
                        self.dirty.insert((file, b));
                    } else {
                        flushes.push(b);
                        self.dirty.remove(&(file, b));
                    }
                }
                let body = ReplyBody::Write {
                    count: data.len() as u32,
                    committed: stable,
                    verf: self.verf,
                };
                let reply = self.ok(NfsProc::Write, file, body);
                // A stable write replies only after its backing writes land.
                self.flush_then_reply(actions, file, flushes, token, reply);
            }
            NfsRequest::Commit { fh, .. } => {
                self.served += 1;
                let file = fh.file_id();
                let blocks: Vec<u8> = self
                    .dirty
                    .iter()
                    .filter(|(f, _)| *f == file)
                    .map(|(_, b)| *b)
                    .collect();
                for b in &blocks {
                    self.dirty.remove(&(file, *b));
                }
                let body = ReplyBody::Commit { verf: self.verf };
                let reply = self.ok(NfsProc::Commit, file, body);
                self.flush_then_reply(actions, file, blocks, token, reply);
            }
            other => actions.push(SfAction::Reply {
                token,
                reply: NfsReply::error(other.proc(), NfsStatus::NotSupp),
            }),
        }
    }

    /// Serves a directory-service control operation.
    pub fn handle_ctl(&mut self, now: SimTime, ctl: &SfCtl) -> Vec<SfAction> {
        match *ctl {
            SfCtl::Remove { file } => {
                if let Some(map) = self.maps.remove(&file) {
                    for ext in map.extents.into_iter().flatten() {
                        self.alloc.free(ext.region);
                    }
                    self.wal.append(now, SfLog::Remove { file }, 16);
                }
                for b in 0..MAP_EXTENTS as u8 {
                    self.drop_block(file, b);
                }
            }
            SfCtl::Truncate { file, size } => {
                let Some(map) = self.maps.get_mut(&file) else {
                    return vec![];
                };
                for region in map.cut(size) {
                    self.alloc.free(region);
                }
                let cut = blocks_past(size);
                for b in 0..cut.start {
                    if let Some(ext) = map.extents[b as usize] {
                        if let Some(c) = self.contents.get_mut(&(file, b)) {
                            c.truncate(ext.bytes as usize);
                        }
                    }
                }
                self.wal.append(now, SfLog::Truncate { file, size }, 24);
                for b in cut {
                    self.drop_block(file, b);
                }
            }
        }
        vec![]
    }

    /// Simulates a crash: volatile state is lost, the WAL survives (it is
    /// in shared network storage). Returns the WAL for handing to a
    /// recovering instance. Every field gets its verdict here, so a new
    /// one cannot be forgotten.
    pub fn crash(&mut self) -> Wal<SfLog> {
        let Self {
            config: _,
            // Rebuilt by `recover`.
            maps,
            alloc: _,
            // Volatile.
            cache,
            contents,
            dirty,
            parked,
            by_tag,
            // Durable.
            wal,
            // Monotone ids: a late completion must not match a new op.
            next_tag: _,
            next_op: _,
            verf,
            // Lifetime statistic.
            served: _,
        } = self;
        maps.clear();
        contents.clear();
        dirty.clear();
        parked.clear();
        by_tag.clear();
        *cache = LruCache::new(cache.capacity());
        *verf += 1;
        std::mem::replace(wal, Wal::new(true))
    }

    /// Recovers map records and allocator tails from a WAL (records
    /// durable by `crash_time`). Free-list fragments from before the crash
    /// are conservatively leaked, as a real FFS-style fsck would reclaim
    /// them offline.
    pub fn recover(&mut self, mut wal: Wal<SfLog>, crash_time: SimTime) {
        wal.recover(crash_time);
        // The allocator comes back with its tails past everything ever
        // allocated and the extents the maps still name counted as
        // allocated; pre-crash free fragments are conservatively leaked.
        let mut alloc = ZoneAllocator::new(self.alloc.zones());
        for (_, rec) in wal.iter() {
            match *rec {
                SfLog::SetExtent {
                    file,
                    block,
                    region,
                    bytes,
                    size,
                } => {
                    let map = self.maps.entry(file).or_default();
                    map.extents[block as usize] = Some(MapExtent { region, bytes });
                    map.size = size;
                    alloc.set_tail(region.zone, region.offset + u64::from(region.frag));
                }
                SfLog::Remove { file } => {
                    self.maps.remove(&file);
                }
                SfLog::Truncate { file, size } => {
                    if let Some(map) = self.maps.get_mut(&file) {
                        map.cut(size);
                    }
                }
            }
        }
        for ext in self.maps.values().flat_map(|m| m.extents.iter().flatten()) {
            alloc.claim(ext.region);
        }
        self.wal = wal;
        self.alloc = alloc;
    }
}
