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

use slice_sim::{FxHashMap, FxHashSet};

use slice_nfsproto::{
    Fattr3, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, ReplyBody, StableHow,
};
use slice_sim::{LruCache, SimTime};
use slice_storage::{Wal, WalParams};

use crate::alloc::{frag_size, Region, ZoneAllocator, SF_BLOCK};

/// The threshold offset: I/O below this goes to small-file servers
/// (paper §3.1; 64 KB).
pub const SF_THRESHOLD: u64 = 64 * 1024;
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
        /// The data.
        data: Vec<u8>,
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

#[derive(Debug)]
struct PendingOp {
    token: u64,
    req: NfsRequest,
    waits: FxHashSet<u64>,
}

/// The small-file server state machine.
#[derive(Debug)]
pub struct SmallFileServer {
    config: SmallFileConfig,
    maps: FxHashMap<u64, MapRecord>,
    alloc: ZoneAllocator,
    cache: LruCache<CacheKey>,
    /// Resident block contents (retain mode only).
    contents: FxHashMap<(u64, u8), Vec<u8>>,
    /// Resident blocks with unflushed data.
    dirty: FxHashSet<(u64, u8)>,
    wal: Wal<SfLog>,
    ops: FxHashMap<u64, PendingOp>,
    by_tag: FxHashMap<u64, u64>,
    /// What each outstanding backing read will make resident.
    tag_targets: FxHashMap<u64, CacheKey>,
    /// Replies computed at execute time but gated on backing completions.
    deferred_replies: FxHashMap<u64, NfsReply>,
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
            wal: Wal::new(WalParams::default()),
            ops: FxHashMap::default(),
            by_tag: FxHashMap::default(),
            tag_targets: FxHashMap::default(),
            deferred_replies: FxHashMap::default(),
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

    /// The map record for `file`, if any (tests/inspection).
    pub fn map_of(&self, file: u64) -> Option<&MapRecord> {
        self.maps.get(&file)
    }

    /// Allocator statistics: (allocated bytes, free-list bytes).
    pub fn alloc_stats(&self) -> (u64, u64) {
        (self.alloc.allocated_bytes(), self.alloc.free_bytes())
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn attr_for(&self, file: u64) -> Fattr3 {
        let map = self.maps.get(&file);
        let (size, mtime) = map
            .map(|m| (m.size, m.mtime))
            .unwrap_or((0, NfsTime::default()));
        let mut a = Fattr3::new(FileType::Regular, file, 0o644, mtime);
        a.size = size;
        a.used = size;
        a
    }

    /// Ensures the map block for `file` is resident; returns a fetch
    /// action if not.
    fn need_map(&mut self, actions: &mut Vec<SfAction>, waits: &mut FxHashSet<u64>, file: u64) {
        let map_block = file / MAP_RECORDS_PER_BLOCK;
        if self.cache.get(&CacheKey::Map { map_block }) {
            return;
        }
        let tag = self.fresh_tag();
        waits.insert(tag);
        self.tag_targets.insert(tag, CacheKey::Map { map_block });
        let site = (map_block % u64::from(self.config.storage_sites.max(1))) as u32;
        actions.push(SfAction::BackingRead {
            tag,
            site,
            obj: map_object(self.config.server_id),
            offset: map_block * u64::from(SF_BLOCK),
            len: SF_BLOCK,
        });
    }

    /// Ensures a data block is resident; returns a fetch action if not.
    fn need_block(
        &mut self,
        actions: &mut Vec<SfAction>,
        waits: &mut FxHashSet<u64>,
        file: u64,
        block: u8,
    ) {
        let Some(ext) = self.maps.get(&file).and_then(|m| m.extents[block as usize]) else {
            return; // hole: reads as zeros, no backing data
        };
        if self.cache.get(&CacheKey::Data { file, block }) {
            return;
        }
        let tag = self.fresh_tag();
        waits.insert(tag);
        self.tag_targets.insert(tag, CacheKey::Data { file, block });
        actions.push(SfAction::BackingRead {
            tag,
            site: ext.region.zone,
            obj: zone_object(self.config.server_id, ext.region.zone),
            offset: ext.region.offset,
            len: ext.region.frag,
        });
    }

    fn insert_resident(&mut self, actions: &mut Vec<SfAction>, key: CacheKey, size: u64) {
        for victim in self.cache.insert(key, size) {
            if let CacheKey::Data { file, block } = victim {
                let content = self.contents.remove(&(file, block));
                if self.dirty.remove(&(file, block)) {
                    // Evicting dirty data forces a flush to backing.
                    if let Some(ext) = self.maps.get(&file).and_then(|m| m.extents[block as usize])
                    {
                        actions.push(SfAction::BackingWrite {
                            tag: 0,
                            site: ext.region.zone,
                            obj: zone_object(self.config.server_id, ext.region.zone),
                            offset: ext.region.offset,
                            data: content.unwrap_or_else(|| vec![0u8; ext.bytes as usize]),
                            stable: true,
                        });
                    }
                }
            }
        }
    }

    /// Serves an NFS request (READ/WRITE/COMMIT below the threshold);
    /// `token` identifies the requester for the eventual reply.
    pub fn handle_nfs(&mut self, now: SimTime, token: u64, req: NfsRequest) -> Vec<SfAction> {
        let mut actions = Vec::new();
        let mut waits = FxHashSet::default();
        // A request comes straight off the wire: everything below trusts
        // that it lies under the threshold (block indices fit a map
        // record), so one that does not is refused before it touches state.
        let span = match &req {
            NfsRequest::Read { offset, count, .. } => Some((*offset, u64::from(*count))),
            NfsRequest::Write { offset, data, .. } => Some((*offset, data.len() as u64)),
            _ => None,
        };
        if let Some((offset, len)) = span {
            if offset.checked_add(len).is_none_or(|end| end > SF_THRESHOLD) {
                actions.push(SfAction::Reply {
                    token,
                    reply: NfsReply::error(req.proc(), NfsStatus::Inval),
                });
                return actions;
            }
        }
        match &req {
            NfsRequest::Read { fh, offset, count } => {
                let file = fh.file_id();
                self.need_map(&mut actions, &mut waits, file);
                let first = (offset / u64::from(SF_BLOCK)) as u8;
                let last_byte = offset + u64::from(*count).max(1) - 1;
                let last = ((last_byte / u64::from(SF_BLOCK)) as u8).min(MAP_EXTENTS as u8 - 1);
                for b in first..=last.min(MAP_EXTENTS as u8 - 1) {
                    self.need_block(&mut actions, &mut waits, file, b);
                }
            }
            NfsRequest::Write {
                fh, offset, data, ..
            } => {
                let file = fh.file_id();
                self.need_map(&mut actions, &mut waits, file);
                // Read-modify-write: partially overwritten existing blocks
                // must be resident first.
                let first = (offset / u64::from(SF_BLOCK)) as u8;
                let last_byte = offset + data.len().max(1) as u64 - 1;
                let last = ((last_byte / u64::from(SF_BLOCK)) as u8).min(MAP_EXTENTS as u8 - 1);
                for b in first..=last {
                    let b_start = u64::from(b) * u64::from(SF_BLOCK);
                    let b_end = b_start + u64::from(SF_BLOCK);
                    let covers = *offset <= b_start && offset + data.len() as u64 >= b_end;
                    if !covers {
                        self.need_block(&mut actions, &mut waits, file, b);
                    }
                }
            }
            NfsRequest::Commit { .. } => {
                // Commit needs no fetches; flushes happen at execute.
            }
            other => {
                actions.push(SfAction::Reply {
                    token,
                    reply: NfsReply::error(other.proc(), NfsStatus::NotSupp),
                });
                return actions;
            }
        }
        if waits.is_empty() {
            let mut more = self.execute(now, token, &req);
            actions.append(&mut more);
        } else {
            let op = self.next_op;
            self.next_op += 1;
            for &t in &waits {
                self.by_tag.insert(t, op);
            }
            self.ops.insert(op, PendingOp { token, req, waits });
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
        let Some(op_id) = self.by_tag.remove(&tag) else {
            return actions; // fire-and-forget flush completion
        };
        let (req, token, done) = {
            let Some(op) = self.ops.get_mut(&op_id) else {
                return actions;
            };
            op.waits.remove(&tag);
            (op.req.clone(), op.token, op.waits.is_empty())
        };
        // Mark what this tag fetched as resident; stash data contents in
        // retain mode.
        if let Some(target) = self.tag_targets.remove(&tag) {
            match target {
                CacheKey::Map { .. } => {
                    self.insert_resident(&mut actions, target, u64::from(SF_BLOCK));
                }
                CacheKey::Data { file, block } => {
                    self.insert_resident(&mut actions, target, u64::from(SF_BLOCK));
                    if self.config.retain_data {
                        if let (Some(bytes), Some(ext)) = (
                            data,
                            self.maps.get(&file).and_then(|m| m.extents[block as usize]),
                        ) {
                            let mut content = bytes;
                            content.truncate(ext.bytes as usize);
                            self.contents.insert((file, block), content);
                        }
                    }
                }
            }
        }
        if done {
            self.ops.remove(&op_id);
            if let Some(reply) = self.deferred_replies.remove(&op_id) {
                // A stable write or commit whose backing flushes finished.
                actions.push(SfAction::Reply { token, reply });
            } else {
                // A read/write whose fetches finished: execute it now.
                let mut more = self.execute(now, token, &req);
                actions.append(&mut more);
            }
        }
        actions
    }

    /// Executes a request whose dependencies are all resident.
    fn execute(&mut self, now: SimTime, token: u64, req: &NfsRequest) -> Vec<SfAction> {
        let mut actions = Vec::new();
        match req {
            NfsRequest::Read { fh, offset, count } => {
                self.served += 1;
                let file = fh.file_id();
                let size = self.maps.get(&file).map(|m| m.size).unwrap_or(0);
                let avail = size.saturating_sub(*offset).min(u64::from(*count)) as usize;
                let mut data = vec![0u8; avail];
                if self.config.retain_data && avail > 0 {
                    let first = (*offset / u64::from(SF_BLOCK)) as u8;
                    let last = ((offset + avail as u64 - 1) / u64::from(SF_BLOCK)) as u8;
                    for b in first..=last.min(MAP_EXTENTS as u8 - 1) {
                        if let Some(content) = self.contents.get(&(file, b)) {
                            let b_start = u64::from(b) * u64::from(SF_BLOCK);
                            for (i, &byte) in content.iter().enumerate() {
                                let pos = b_start + i as u64;
                                if pos >= *offset && pos < offset + avail as u64 {
                                    data[(pos - offset) as usize] = byte;
                                }
                            }
                        }
                    }
                }
                let eof = offset + u64::from(*count) >= size;
                let attr = self.attr_for(file);
                actions.push(SfAction::Reply {
                    token,
                    reply: NfsReply {
                        proc: NfsProc::Read,
                        status: NfsStatus::Ok,
                        attr: Some(attr),
                        body: ReplyBody::Read { data, eof },
                    },
                });
            }
            NfsRequest::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                self.served += 1;
                let file = fh.file_id();
                let now_t = NfsTime::from_nanos(now.as_nanos());
                let mut flushes: Vec<(u8, MapExtent)> = Vec::new();
                {
                    let map = self.maps.entry(file).or_default();
                    map.size = map.size.max(offset + data.len() as u64);
                    map.mtime = now_t;
                }
                let first = (*offset / u64::from(SF_BLOCK)) as u8;
                let last_byte = offset + data.len().max(1) as u64 - 1;
                let last = ((last_byte / u64::from(SF_BLOCK)) as u8).min(MAP_EXTENTS as u8 - 1);
                for b in first..=last {
                    let b_start = u64::from(b) * u64::from(SF_BLOCK);
                    let b_end = b_start + u64::from(SF_BLOCK);
                    let w_start = (*offset).max(b_start);
                    let w_end = (offset + data.len() as u64).min(b_end);
                    // New logical extent size for this block.
                    let size_now = self.maps.get(&file).map(|m| m.size).unwrap_or(0);
                    let logical_in_block = (size_now.min(b_end).saturating_sub(b_start)) as u32;
                    let old_ext = self.maps.get(&file).and_then(|m| m.extents[b as usize]);
                    let needed = frag_size(logical_in_block.max(1));
                    let region = match old_ext {
                        Some(e) if e.region.frag >= needed => e.region,
                        Some(e) => {
                            self.alloc.free(e.region);
                            self.alloc.alloc(logical_in_block)
                        }
                        None => self.alloc.alloc(logical_in_block),
                    };
                    let ext = MapExtent {
                        region,
                        bytes: logical_in_block,
                    };
                    let size_total = self.maps.get(&file).map(|m| m.size).unwrap_or(0);
                    self.wal.append(
                        now,
                        SfLog::SetExtent {
                            file,
                            block: b,
                            region,
                            bytes: logical_in_block,
                            size: size_total,
                        },
                        48,
                    );
                    self.maps.get_mut(&file).expect("map created above").extents[b as usize] =
                        Some(ext);
                    // Update resident content.
                    self.insert_resident(
                        &mut actions,
                        CacheKey::Data { file, block: b },
                        u64::from(SF_BLOCK),
                    );
                    if self.config.retain_data {
                        let content = self.contents.entry((file, b)).or_default();
                        if content.len() < logical_in_block as usize {
                            content.resize(logical_in_block as usize, 0);
                        }
                        let src_start = (w_start - offset) as usize;
                        let dst_start = (w_start - b_start) as usize;
                        let n = (w_end - w_start) as usize;
                        content[dst_start..dst_start + n]
                            .copy_from_slice(&data[src_start..src_start + n]);
                    }
                    if matches!(stable, StableHow::Unstable) {
                        self.dirty.insert((file, b));
                    } else {
                        flushes.push((b, ext));
                        self.dirty.remove(&(file, b));
                    }
                }
                let attr = self.attr_for(file);
                let reply = NfsReply {
                    proc: NfsProc::Write,
                    status: NfsStatus::Ok,
                    attr: Some(attr),
                    body: ReplyBody::Write {
                        count: data.len() as u32,
                        committed: *stable,
                        verf: self.verf,
                    },
                };
                if flushes.is_empty() {
                    actions.push(SfAction::Reply { token, reply });
                } else {
                    // Stable write: reply only after backing writes land.
                    let mut waits = FxHashSet::default();
                    for (b, ext) in flushes {
                        let tag = self.fresh_tag();
                        waits.insert(tag);
                        actions.push(SfAction::BackingWrite {
                            tag,
                            site: ext.region.zone,
                            obj: zone_object(self.config.server_id, ext.region.zone),
                            offset: ext.region.offset,
                            data: self
                                .contents
                                .get(&(file, b))
                                .cloned()
                                .unwrap_or_else(|| vec![0u8; ext.bytes as usize]),
                            stable: true,
                        });
                    }
                    let op = self.next_op;
                    self.next_op += 1;
                    for &t in &waits {
                        self.by_tag.insert(t, op);
                    }
                    // Store a synthetic "reply pending" op: re-execution on
                    // completion must not redo the write, so stash a Commit
                    // that produces the stored reply instead. Model this
                    // with a dedicated pending slot.
                    self.ops.insert(
                        op,
                        PendingOp {
                            token,
                            req: NfsRequest::Null, // sentinel, see execute(Null)
                            waits,
                        },
                    );
                    self.deferred_replies.insert(op, reply);
                }
            }
            NfsRequest::Commit { fh, .. } => {
                self.served += 1;
                let file = fh.file_id();
                let dirty: Vec<u8> = self
                    .dirty
                    .iter()
                    .filter(|(f, _)| *f == file)
                    .map(|(_, b)| *b)
                    .collect();
                let attr = self.attr_for(file);
                let reply = NfsReply {
                    proc: NfsProc::Commit,
                    status: NfsStatus::Ok,
                    attr: Some(attr),
                    body: ReplyBody::Commit { verf: self.verf },
                };
                if dirty.is_empty() {
                    actions.push(SfAction::Reply { token, reply });
                } else {
                    let mut waits = FxHashSet::default();
                    for b in dirty {
                        self.dirty.remove(&(file, b));
                        let Some(ext) = self.maps.get(&file).and_then(|m| m.extents[b as usize])
                        else {
                            continue;
                        };
                        let tag = self.fresh_tag();
                        waits.insert(tag);
                        actions.push(SfAction::BackingWrite {
                            tag,
                            site: ext.region.zone,
                            obj: zone_object(self.config.server_id, ext.region.zone),
                            offset: ext.region.offset,
                            data: self
                                .contents
                                .get(&(file, b))
                                .cloned()
                                .unwrap_or_else(|| vec![0u8; ext.bytes as usize]),
                            stable: true,
                        });
                    }
                    if waits.is_empty() {
                        actions.push(SfAction::Reply { token, reply });
                    } else {
                        let op = self.next_op;
                        self.next_op += 1;
                        for &t in &waits {
                            self.by_tag.insert(t, op);
                        }
                        self.ops.insert(
                            op,
                            PendingOp {
                                token,
                                req: NfsRequest::Null,
                                waits,
                            },
                        );
                        self.deferred_replies.insert(op, reply);
                    }
                }
            }
            NfsRequest::Null => {
                // Sentinel: a deferred reply op completed.
            }
            other => {
                actions.push(SfAction::Reply {
                    token,
                    reply: NfsReply::error(other.proc(), NfsStatus::NotSupp),
                });
            }
        }
        actions
    }

    /// Serves a directory-service control operation.
    pub fn handle_ctl(&mut self, now: SimTime, ctl: &SfCtl) -> Vec<SfAction> {
        match ctl {
            SfCtl::Remove { file } => {
                if let Some(map) = self.maps.remove(file) {
                    for ext in map.extents.into_iter().flatten() {
                        self.alloc.free(ext.region);
                    }
                    self.wal.append(now, SfLog::Remove { file: *file }, 16);
                }
                for b in 0..MAP_EXTENTS as u8 {
                    self.cache.remove(&CacheKey::Data {
                        file: *file,
                        block: b,
                    });
                    self.contents.remove(&(*file, b));
                    self.dirty.remove(&(*file, b));
                }
                vec![]
            }
            SfCtl::Truncate { file, size } => {
                if let Some(map) = self.maps.get_mut(file) {
                    let new_size = *size;
                    for b in 0..MAP_EXTENTS as u8 {
                        let b_start = u64::from(b) * u64::from(SF_BLOCK);
                        if b_start >= new_size {
                            if let Some(ext) = map.extents[b as usize].take() {
                                self.alloc.free(ext.region);
                            }
                            self.cache.remove(&CacheKey::Data {
                                file: *file,
                                block: b,
                            });
                            self.contents.remove(&(*file, b));
                            self.dirty.remove(&(*file, b));
                        } else if let Some(ext) = &mut map.extents[b as usize] {
                            ext.bytes = ext.bytes.min((new_size - b_start) as u32);
                            if let Some(c) = self.contents.get_mut(&(*file, b)) {
                                c.truncate(ext.bytes as usize);
                            }
                        }
                    }
                    map.size = map.size.min(new_size);
                    self.wal.append(
                        now,
                        SfLog::Truncate {
                            file: *file,
                            size: new_size,
                        },
                        24,
                    );
                }
                vec![]
            }
        }
    }

    /// Simulates a crash: volatile state is lost, the WAL survives (it is
    /// in shared network storage). Returns the WAL for handing to a
    /// recovering instance.
    pub fn crash(&mut self) -> Wal<SfLog> {
        self.maps.clear();
        self.contents.clear();
        self.dirty.clear();
        self.ops.clear();
        self.by_tag.clear();
        self.tag_targets.clear();
        self.deferred_replies.clear();
        self.cache = LruCache::new(self.cache.capacity());
        self.verf += 1;
        std::mem::replace(&mut self.wal, Wal::new(WalParams::default()))
    }

    /// Recovers map records and allocator tails from a WAL (records
    /// durable by `crash_time`). Free-list fragments from before the crash
    /// are conservatively leaked, as a real FFS-style fsck would reclaim
    /// them offline.
    pub fn recover(&mut self, wal: Wal<SfLog>, crash_time: SimTime) {
        let records = wal.recover(crash_time);
        self.wal = wal;
        let mut tails: FxHashMap<u32, u64> = FxHashMap::default();
        for rec in records {
            match rec {
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
                    let t = tails.entry(region.zone).or_insert(0);
                    *t = (*t).max(region.offset + u64::from(region.frag));
                }
                SfLog::Remove { file } => {
                    self.maps.remove(&file);
                }
                SfLog::Truncate { file, size } => {
                    if let Some(map) = self.maps.get_mut(&file) {
                        map.size = map.size.min(size);
                        for b in 0..MAP_EXTENTS as u8 {
                            let b_start = u64::from(b) * u64::from(SF_BLOCK);
                            if b_start >= size {
                                map.extents[b as usize] = None;
                            }
                        }
                    }
                }
            }
        }
        // Rebuild the allocator with tails past everything ever allocated;
        // pre-crash free fragments are conservatively leaked.
        let zones = self.alloc.zones();
        let mut alloc = ZoneAllocator::new(zones);
        for (z, tail) in tails {
            alloc.set_tail(z, tail);
        }
        self.alloc = alloc;
    }
}
