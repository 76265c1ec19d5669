//! The directory server: name space and attribute management for one site
//! of a Slice ensemble.
//!
//! Directory servers use *fixed placement* (paper §3.3): name and
//! attribute cells are controlled by the site that created them, and
//! operations that touch state on other sites run a peer protocol with
//! write-ahead intent logging. The same cell structures support both name
//! space distribution policies (§3.2):
//!
//! * **mkdir switching** — name entries live at the parent directory's
//!   home site; a redirected (orphan) mkdir places the new directory's
//!   attribute cell locally and inserts the name entry remotely;
//! * **name hashing** — every name entry lives at the site the
//!   `(parent, name)` fingerprint hashes to; readdir chains across sites
//!   via cookies.
//!
//! The server is asynchronous: client operations that need remote state
//! park in a pending table until peer acknowledgements arrive, and update
//! replies are released no earlier than their WAL records are durable.

use slice_sim::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

use slice_hashes::{bucket_of, name_fingerprint, LOGICAL_SLOTS};
use slice_nfsproto::{
    DirEntry, DirEntryPlus, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus,
    NfsTime, ReplyBody, Sattr3, SetTime, FH_FLAG_DIR, FH_FLAG_SYMLINK,
};
use slice_sim::time::{SimDuration, SimTime};
use slice_storage::{Wal, WalParams};

use crate::types::{AttrCell, ChildRef, DirLog, NameCell, NamePolicy, PeerInfo, PeerMsg};

/// Configuration for one directory server site.
#[derive(Debug, Clone)]
pub struct DirServerConfig {
    /// This site's logical id.
    pub site: u32,
    /// Total directory sites in the ensemble.
    pub sites: u32,
    /// Name space distribution policy (must match the µproxy).
    pub policy: NamePolicy,
    /// Clock skew relative to true simulated time (NTP residual).
    pub clock_skew: SimDuration,
    /// Write-ahead-log device parameters.
    pub wal: WalParams,
    /// Mint regular files with dynamically mapped placement (handles carry
    /// `FH_FLAG_MAPPED`, so the µproxy routes bulk I/O through the
    /// coordinator's block maps instead of static striping).
    pub default_mapped: bool,
}

impl Default for DirServerConfig {
    fn default() -> Self {
        DirServerConfig {
            site: 0,
            sites: 1,
            policy: NamePolicy::MkdirSwitching,
            clock_skew: SimDuration::ZERO,
            wal: WalParams::default(),
            default_mapped: false,
        }
    }
}

/// Actions the host actor dispatches for the directory server.
#[derive(Debug, Clone, PartialEq)]
pub enum DirAction {
    /// Send an NFS reply to the requester identified by `token`, no
    /// earlier than `at` (WAL durability gate for updates).
    Reply {
        /// Host-supplied requester token.
        token: u64,
        /// The reply.
        reply: NfsReply,
        /// Earliest send time.
        at: SimTime,
    },
    /// Send a peer-protocol message to another directory site.
    Peer {
        /// Destination site.
        site: u32,
        /// The message.
        msg: PeerMsg,
    },
    /// Remove a file's data (the host fans this out to the block-service
    /// coordinator and the responsible small-file server).
    DataRemove {
        /// File id.
        file: u64,
    },
    /// Truncate a file's data.
    DataTruncate {
        /// File id.
        file: u64,
        /// New size.
        size: u64,
    },
}

#[derive(Debug, Clone)]
enum PendingKind {
    /// Waiting for a remote GetAttr to fill the reply's attributes.
    FillAttr,
    /// Create/mkdir/symlink/link that inserted locally but awaits remote
    /// parent update / entry insert; on EXIST the local attr cell must be
    /// retired and any optimistic parent update `(dir, home, nlink_delta)`
    /// taken back.
    Create {
        file: u64,
        undo: Option<(u64, u32, i32)>,
    },
    /// Rmdir awaiting a remote RemoveDirIfEmpty; only on success is the
    /// local name cell unbound and the parent `dir` (at `home`) told.
    Rmdir {
        key: u64,
        dir: u64,
        home: u32,
        mtime: NfsTime,
    },
    /// Rename awaiting a remote InsertEntry; local source unbound on
    /// success, displaced child unlinked and the destination directory's
    /// optimistic entry increment retracted.
    Rename {
        from_key: u64,
        to_dir: u64,
        to_home: u32,
    },
    /// Nothing special; reply once acks arrive.
    Generic,
}

#[derive(Debug)]
struct Pending {
    token: u64,
    txid: u64,
    waits: FxHashSet<u64>,
    reply: NfsReply,
    kind: PendingKind,
    not_before: SimTime,
}

/// The directory server state machine for one site.
#[derive(Debug)]
pub struct DirServer {
    config: DirServerConfig,
    names: FxHashMap<u64, NameCell>,
    attrs: FxHashMap<u64, AttrCell>,
    /// Local entries per directory, ordered for readdir cookies.
    dir_index: FxHashMap<u64, BTreeSet<u64>>,
    wal: Wal<DirLog>,
    /// Peer ops already applied (idempotence) with their ack payloads.
    applied_peer: FxHashMap<u64, (NfsStatus, PeerInfo)>,
    pending: FxHashMap<u64, Pending>,
    wait_to_pending: FxHashMap<u64, u64>,
    next_file: u64,
    next_op: u64,
    next_tx: u64,
    ops_served: u64,
    peer_ops: u64,
    multisite_ops: u64,
    /// Logical-slot to physical-site map (name hashing); requests for
    /// slots this site does not own are misdirected (stale µproxy table)
    /// and bounced with `JUKEBOX` so the µproxy refreshes (§3.3.1).
    slot_map: Vec<u32>,
    misdirected: u64,
}

impl DirServer {
    /// Creates a directory server; site 0 owns the volume root.
    pub fn new(config: DirServerConfig) -> Self {
        let mut s = DirServer {
            names: FxHashMap::default(),
            attrs: FxHashMap::default(),
            dir_index: FxHashMap::default(),
            wal: Wal::new(config.wal.clone()),
            applied_peer: FxHashMap::default(),
            pending: FxHashMap::default(),
            wait_to_pending: FxHashMap::default(),
            next_file: (u64::from(config.site) << 32) | 2,
            next_op: (u64::from(config.site) << 48) | 1,
            next_tx: 1,
            ops_served: 0,
            peer_ops: 0,
            multisite_ops: 0,
            slot_map: (0..LOGICAL_SLOTS)
                .map(|i| i as u32 % config.sites)
                .collect(),
            misdirected: 0,
            config,
        };
        if s.config.site == 0 {
            let attr = Fattr3::new(FileType::Directory, 1, 0o755, NfsTime::default());
            s.attrs.insert(
                1,
                AttrCell {
                    attr,
                    entry_count: 0,
                    symlink: None,
                    key: 0,
                },
            );
        }
        s
    }

    /// Operations served to completion.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// Peer messages initiated.
    pub fn peer_ops(&self) -> u64 {
        self.peer_ops
    }

    /// Client operations that needed another site.
    pub fn multisite_ops(&self) -> u64 {
        self.multisite_ops
    }

    /// Total name cells resident at this site.
    pub fn name_cells(&self) -> usize {
        self.names.len()
    }

    /// Total attribute cells resident at this site.
    pub fn attr_cells(&self) -> usize {
        self.attrs.len()
    }

    /// WAL statistics (appends, batches, bytes).
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.wal.stats()
    }

    /// Attribute lookup (tests / host attr seeding).
    pub fn attr_of(&self, file: u64) -> Option<&Fattr3> {
        self.attrs.get(&file).map(|c| &c.attr)
    }

    /// A sorted snapshot of this site's name cells `(key, cell)` for
    /// structural checking.
    pub fn dump_name_cells(&self) -> Vec<(u64, NameCell)> {
        let mut out: Vec<_> = self.names.iter().map(|(&k, c)| (k, c.clone())).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// A sorted snapshot of this site's attribute cells `(file, cell)` for
    /// structural checking.
    pub fn dump_attr_cells(&self) -> Vec<(u64, AttrCell)> {
        let mut out: Vec<_> = self.attrs.iter().map(|(&f, c)| (f, c.clone())).collect();
        out.sort_unstable_by_key(|&(f, _)| f);
        out
    }

    /// Fault injection for oracle mutation tests: silently drops a name
    /// cell from the in-memory index (as if a WAL replay record had been
    /// lost), returning whether the key was present. The directory's
    /// entry count is deliberately left stale — this models corruption,
    /// not a clean remove.
    pub fn forget_name(&mut self, key: u64) -> bool {
        match self.names.remove(&key) {
            Some(cell) => {
                if let Some(ix) = self.dir_index.get_mut(&cell.parent) {
                    ix.remove(&key);
                }
                true
            }
            None => false,
        }
    }

    /// Applies the attribute effects of a data I/O (size growth, modify
    /// time) directly — used by a co-located data path (the monolithic
    /// baseline server) in place of the µproxy's setattr write-back.
    pub fn apply_io(&mut self, now: SimTime, file: u64, end: u64, wrote: bool) -> SimTime {
        let t = self.now_time(now);
        if let Some(cell) = self.attrs.get_mut(&file) {
            if wrote {
                cell.attr.size = cell.attr.size.max(end);
                cell.attr.used = cell.attr.used.max(end);
                cell.attr.mtime = t;
            } else {
                cell.attr.atime = t;
            }
            self.log_put_attr(now, file)
        } else {
            now
        }
    }

    fn now_time(&self, now: SimTime) -> NfsTime {
        NfsTime::from_nanos((now + self.config.clock_skew).as_nanos())
    }

    fn fresh_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    fn fresh_file(&mut self) -> u64 {
        let f = self.next_file;
        self.next_file += 1;
        f
    }

    /// Site that should hold the name entry for `(dir, name)`.
    fn entry_site(&self, dir: &Fhandle, key: u64) -> u32 {
        match self.config.policy {
            NamePolicy::MkdirSwitching => dir.home_site(),
            NamePolicy::NameHashing => self.slot_map[bucket_of(key, LOGICAL_SLOTS)],
        }
    }

    /// Installs a new logical-slot map (reconfiguration, §3.3.1). The
    /// caller is responsible for migrating the affected entries with
    /// [`DirServer::export_entries`]/[`DirServer::import_entries`].
    pub fn set_slot_map(&mut self, map: Vec<u32>) {
        assert_eq!(
            map.len(),
            LOGICAL_SLOTS,
            "slot map covers all logical slots"
        );
        self.slot_map = map;
    }

    /// The current slot map (what a µproxy fetches to refresh its table).
    pub fn slot_map(&self) -> &[u32] {
        &self.slot_map
    }

    /// Requests bounced as misdirected since start.
    pub fn misdirected(&self) -> u64 {
        self.misdirected
    }

    /// Removes and returns every name cell whose logical slot this site no
    /// longer owns (per the current slot map), logging the unbinds. Their
    /// attribute cells do not move: cross-site links keep them reachable.
    pub fn export_entries(&mut self, now: SimTime) -> Vec<(u64, NameCell)> {
        let moving: Vec<u64> = self
            .names
            .keys()
            .copied()
            .filter(|&k| self.slot_map[bucket_of(k, LOGICAL_SLOTS)] != self.config.site)
            .collect();
        let mut out = Vec::with_capacity(moving.len());
        for key in moving {
            if let Some(cell) = self.names.get(&key).cloned() {
                self.log_del_name(now, key);
                out.push((key, cell));
            }
        }
        out
    }

    /// Installs migrated name cells at their new home, logging the binds.
    pub fn import_entries(&mut self, now: SimTime, cells: Vec<(u64, NameCell)>) {
        for (key, cell) in cells {
            self.log_put_name(now, key, cell);
        }
    }

    /// True when a key-routed request belongs at this site under the
    /// current slot map.
    fn owns_key(&self, key: u64) -> bool {
        match self.config.policy {
            NamePolicy::MkdirSwitching => true,
            NamePolicy::NameHashing => {
                self.slot_map[bucket_of(key, LOGICAL_SLOTS)] == self.config.site
            }
        }
    }

    fn log_put_name(&mut self, now: SimTime, key: u64, cell: NameCell) -> SimTime {
        self.names.insert(key, cell.clone());
        self.dir_index.entry(cell.parent).or_default().insert(key);
        self.wal.append(now, DirLog::PutName { key, cell }, 96)
    }

    fn log_del_name(&mut self, now: SimTime, key: u64) -> SimTime {
        if let Some(cell) = self.names.remove(&key) {
            if let Some(ix) = self.dir_index.get_mut(&cell.parent) {
                ix.remove(&key);
            }
        }
        self.wal.append(now, DirLog::DelName { key }, 16)
    }

    fn log_put_attr(&mut self, now: SimTime, file: u64) -> SimTime {
        let cell = self.attrs.get(&file).expect("attr cell present").clone();
        self.wal.append(now, DirLog::PutAttr { file, cell }, 112)
    }

    fn log_del_attr(&mut self, now: SimTime, file: u64) -> SimTime {
        self.attrs.remove(&file);
        self.wal.append(now, DirLog::DelAttr { file }, 16)
    }

    fn apply_sattr(attr: &mut Fattr3, s: &Sattr3, now: NfsTime) {
        if let Some(m) = s.mode {
            attr.mode = m;
        }
        if let Some(u) = s.uid {
            attr.uid = u;
        }
        if let Some(g) = s.gid {
            attr.gid = g;
        }
        if let Some(sz) = s.size {
            attr.size = sz;
            attr.used = sz;
        }
        match s.atime {
            SetTime::ServerTime => attr.atime = now,
            SetTime::Client(t) => attr.atime = t,
            SetTime::DontChange => {}
        }
        match s.mtime {
            SetTime::ServerTime => attr.mtime = now,
            SetTime::Client(t) => attr.mtime = t,
            SetTime::DontChange => {}
        }
        attr.ctime = now;
    }

    /// Applies a parent update locally (mtime, entry count, nlink).
    fn apply_parent_update(
        &mut self,
        now: SimTime,
        dir: u64,
        entry_delta: i32,
        nlink_delta: i32,
        mtime: NfsTime,
    ) {
        if let Some(cell) = self.attrs.get_mut(&dir) {
            cell.entry_count = cell.entry_count.saturating_add_signed(entry_delta);
            cell.attr.nlink = cell.attr.nlink.saturating_add_signed(nlink_delta);
            cell.attr.mtime = mtime;
            cell.attr.ctime = mtime;
            self.log_put_attr(now, dir);
        }
    }

    /// Builds a reply gated on `at`, or parks it pending peer acks.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        actions: &mut Vec<DirAction>,
        token: u64,
        reply: NfsReply,
        at: SimTime,
        waits: FxHashSet<u64>,
        kind: PendingKind,
        now: SimTime,
    ) {
        if waits.is_empty() {
            self.ops_served += 1;
            actions.push(DirAction::Reply { token, reply, at });
            return;
        }
        self.multisite_ops += 1;
        let txid = self.next_tx;
        self.next_tx += 1;
        self.wal.append(now, DirLog::Intent { txid }, 24);
        let id = self.fresh_op();
        for &w in &waits {
            self.wait_to_pending.insert(w, id);
        }
        self.pending.insert(
            id,
            Pending {
                token,
                txid,
                waits,
                reply,
                kind,
                not_before: at,
            },
        );
    }

    /// Serves a client NFS request routed to this site.
    pub fn handle_nfs(&mut self, now: SimTime, token: u64, req: &NfsRequest) -> Vec<DirAction> {
        let mut actions = Vec::new();
        let t = self.now_time(now);
        match req {
            NfsRequest::Null => {
                self.ops_served += 1;
                actions.push(DirAction::Reply {
                    token,
                    reply: NfsReply {
                        proc: NfsProc::Null,
                        status: NfsStatus::Ok,
                        attr: None,
                        body: ReplyBody::None,
                    },
                    at: now,
                });
            }
            NfsRequest::Getattr { fh } => {
                self.ops_served += 1;
                let reply = match self.attrs.get(&fh.file_id()) {
                    Some(cell) => NfsReply::ok(NfsProc::Getattr, cell.attr),
                    None => NfsReply::error(NfsProc::Getattr, NfsStatus::Stale),
                };
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            NfsRequest::Setattr { fh, attr } => {
                let file = fh.file_id();
                match self.attrs.get_mut(&file) {
                    Some(cell) => {
                        let old_size = cell.attr.size;
                        Self::apply_sattr(&mut cell.attr, attr, t);
                        let new_attr = cell.attr;
                        let durable = self.log_put_attr(now, file);
                        if let Some(sz) = attr.size {
                            // µproxy attribute write-backs carry explicit
                            // timestamps and may report a size smaller than
                            // data another client already wrote — only a
                            // genuine shrink may clamp the data plane. A
                            // client truncate (no client mtime) must always
                            // propagate: our own size here can lag behind
                            // the data plane, so `sz == old_size` does not
                            // mean the stored extents already agree.
                            let push_back = matches!(attr.mtime, SetTime::Client(_));
                            if !push_back || sz < old_size {
                                actions.push(DirAction::DataTruncate { file, size: sz });
                            }
                        }
                        self.ops_served += 1;
                        actions.push(DirAction::Reply {
                            token,
                            reply: NfsReply::ok(NfsProc::Setattr, new_attr),
                            at: durable,
                        });
                    }
                    None => {
                        self.ops_served += 1;
                        actions.push(DirAction::Reply {
                            token,
                            reply: NfsReply::error(NfsProc::Setattr, NfsStatus::Stale),
                            at: now,
                        });
                    }
                }
            }
            NfsRequest::Lookup { dir, name } => {
                let key = name_fingerprint(&dir.0, name.as_bytes());
                if !self.owns_key(key) {
                    self.misdirected += 1;
                    actions.push(DirAction::Reply {
                        token,
                        reply: NfsReply::error(NfsProc::Lookup, NfsStatus::JukeBox),
                        at: now,
                    });
                    return actions;
                }
                let dir_attr = self.attrs.get(&dir.file_id()).map(|c| c.attr);
                match self.names.get(&key).cloned() {
                    None => {
                        self.ops_served += 1;
                        let mut reply = NfsReply::error(NfsProc::Lookup, NfsStatus::NoEnt);
                        reply.attr = dir_attr;
                        actions.push(DirAction::Reply {
                            token,
                            reply,
                            at: now,
                        });
                    }
                    Some(cell) => {
                        let child = cell.child;
                        if let Some(attr_cell) = self.attrs.get(&child.file) {
                            self.ops_served += 1;
                            let reply = NfsReply {
                                proc: NfsProc::Lookup,
                                status: NfsStatus::Ok,
                                attr: Some(attr_cell.attr),
                                body: ReplyBody::Lookup {
                                    fh: child.fhandle(),
                                    dir_attr,
                                },
                            };
                            actions.push(DirAction::Reply {
                                token,
                                reply,
                                at: now,
                            });
                        } else {
                            // Cross-site link: fetch attributes from the
                            // child's home site.
                            let op = self.fresh_op();
                            self.peer_ops += 1;
                            actions.push(DirAction::Peer {
                                site: child.home,
                                msg: PeerMsg::GetAttr {
                                    op,
                                    file: child.file,
                                },
                            });
                            let reply = NfsReply {
                                proc: NfsProc::Lookup,
                                status: NfsStatus::Ok,
                                attr: None,
                                body: ReplyBody::Lookup {
                                    fh: child.fhandle(),
                                    dir_attr,
                                },
                            };
                            let mut waits = FxHashSet::default();
                            waits.insert(op);
                            self.finish(
                                &mut actions,
                                token,
                                reply,
                                now,
                                waits,
                                PendingKind::FillAttr,
                                now,
                            );
                        }
                    }
                }
            }
            NfsRequest::Access { fh, mask } => {
                self.ops_served += 1;
                let reply = match self.attrs.get(&fh.file_id()) {
                    Some(cell) => NfsReply {
                        proc: NfsProc::Access,
                        status: NfsStatus::Ok,
                        attr: Some(cell.attr),
                        body: ReplyBody::Access { mask: mask & 0x3f },
                    },
                    None => NfsReply::error(NfsProc::Access, NfsStatus::Stale),
                };
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            NfsRequest::Readlink { fh } => {
                self.ops_served += 1;
                let reply = match self.attrs.get(&fh.file_id()) {
                    Some(cell) => match &cell.symlink {
                        Some(target) => NfsReply {
                            proc: NfsProc::Readlink,
                            status: NfsStatus::Ok,
                            attr: Some(cell.attr),
                            body: ReplyBody::Readlink {
                                target: target.clone(),
                            },
                        },
                        None => NfsReply::error(NfsProc::Readlink, NfsStatus::Inval),
                    },
                    None => NfsReply::error(NfsProc::Readlink, NfsStatus::Stale),
                };
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            NfsRequest::Create { dir, name, attr } => {
                self.create_like(
                    &mut actions,
                    now,
                    token,
                    dir,
                    name,
                    attr,
                    FileType::Regular,
                    None,
                );
            }
            NfsRequest::Mkdir { dir, name, attr } => {
                self.create_like(
                    &mut actions,
                    now,
                    token,
                    dir,
                    name,
                    attr,
                    FileType::Directory,
                    None,
                );
            }
            NfsRequest::Symlink {
                dir,
                name,
                target,
                attr,
            } => {
                self.create_like(
                    &mut actions,
                    now,
                    token,
                    dir,
                    name,
                    attr,
                    FileType::Symlink,
                    Some(target.clone()),
                );
            }
            NfsRequest::Remove { dir, name } => {
                self.remove_like(&mut actions, now, token, dir, name, false);
            }
            NfsRequest::Rmdir { dir, name } => {
                self.remove_like(&mut actions, now, token, dir, name, true);
            }
            NfsRequest::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                self.rename(
                    &mut actions,
                    now,
                    token,
                    from_dir,
                    from_name,
                    to_dir,
                    to_name,
                );
            }
            NfsRequest::Link { fh, dir, name } => {
                self.link(&mut actions, now, token, fh, dir, name);
            }
            NfsRequest::Readdir {
                dir, cookie, count, ..
            } => {
                self.ops_served += 1;
                let reply = self.readdir(dir, *cookie, *count, false);
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            NfsRequest::Readdirplus {
                dir,
                cookie,
                maxcount,
                ..
            } => {
                self.ops_served += 1;
                let reply = self.readdir(dir, *cookie, *maxcount, true);
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            NfsRequest::Fsstat { fh } => {
                self.ops_served += 1;
                let attr = self.attrs.get(&fh.file_id()).map(|c| c.attr);
                let reply = NfsReply {
                    proc: NfsProc::Fsstat,
                    status: NfsStatus::Ok,
                    attr,
                    body: ReplyBody::Fsstat {
                        tbytes: 1 << 42,
                        fbytes: 1 << 41,
                        abytes: 1 << 41,
                        tfiles: 1 << 24,
                        ffiles: (1 << 24) - self.attrs.len() as u64,
                    },
                };
                actions.push(DirAction::Reply {
                    token,
                    reply,
                    at: now,
                });
            }
            other => {
                self.ops_served += 1;
                actions.push(DirAction::Reply {
                    token,
                    reply: NfsReply::error(other.proc(), NfsStatus::NotSupp),
                    at: now,
                });
            }
        }
        actions
    }

    #[allow(clippy::too_many_arguments)]
    fn create_like(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        token: u64,
        dir: &Fhandle,
        name: &str,
        sattr: &Sattr3,
        ftype: FileType,
        symlink: Option<String>,
    ) {
        let t = self.now_time(now);
        let key = name_fingerprint(&dir.0, name.as_bytes());
        let entry_site = self.entry_site(dir, key);
        let proc = match ftype {
            FileType::Regular => NfsProc::Create,
            FileType::Directory => NfsProc::Mkdir,
            FileType::Symlink => NfsProc::Symlink,
        };
        // Under name hashing a create arriving at a non-owner site (other
        // than a deliberate mkdir-switch redirect) means the µproxy holds
        // a stale table.
        if self.config.policy == NamePolicy::NameHashing && !self.owns_key(key) {
            self.misdirected += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(proc, NfsStatus::JukeBox),
                at: now,
            });
            return;
        }

        // Local duplicate check when the entry belongs here.
        if entry_site == self.config.site && self.names.contains_key(&key) {
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(proc, NfsStatus::Exist),
                at: now,
            });
            return;
        }
        // Mint the object locally: fixed placement binds it to this site.
        let file = self.fresh_file();
        let mut attr = Fattr3::new(ftype, file, sattr.mode.unwrap_or(0o644), t);
        Self::apply_sattr(&mut attr, sattr, t);
        attr.nlink = if ftype == FileType::Directory { 2 } else { 1 };
        // Per-file policy bits ride in the create mode above the POSIX
        // bit range: bit 16 requests mirrored striping (paper §3.1 allows
        // per-file selection of the mirroring policy).
        let mut flags = match ftype {
            FileType::Directory => FH_FLAG_DIR,
            FileType::Symlink => FH_FLAG_SYMLINK,
            FileType::Regular => 0,
        };
        if sattr.mode.unwrap_or(0) & (1 << 16) != 0 && ftype == FileType::Regular {
            flags |= slice_nfsproto::FH_FLAG_MIRRORED;
        }
        // Bit 17 requests dynamic block-map placement; ensembles running
        // with block maps enabled mint every regular file mapped.
        if (self.config.default_mapped || sattr.mode.unwrap_or(0) & (1 << 17) != 0)
            && ftype == FileType::Regular
        {
            flags |= slice_nfsproto::FH_FLAG_MAPPED;
        }
        attr.mode &= 0o7777;
        let child = ChildRef {
            file,
            home: self.config.site,
            flags,
            gen: 0,
            key,
        };
        self.attrs.insert(
            file,
            AttrCell {
                attr,
                entry_count: 0,
                symlink,
                key,
            },
        );
        let mut durable = self.log_put_attr(now, file);
        let mut waits = FxHashSet::default();
        let nlink_delta = i32::from(ftype == FileType::Directory);
        // Parent update applied before the remote insert is acknowledged;
        // must be taken back if the insert answers EXIST.
        let mut undo = None;
        if entry_site == self.config.site {
            durable = durable.max(self.log_put_name(
                now,
                key,
                NameCell {
                    parent: dir.file_id(),
                    name: name.to_string(),
                    child,
                },
            ));
            if dir.home_site() == self.config.site {
                self.apply_parent_update(now, dir.file_id(), 1, nlink_delta, t);
            } else {
                let op = self.fresh_op();
                self.peer_ops += 1;
                waits.insert(op);
                actions.push(DirAction::Peer {
                    site: dir.home_site(),
                    msg: PeerMsg::ParentUpdate {
                        op,
                        dir: dir.file_id(),
                        entry_delta: 1,
                        nlink_delta,
                        mtime: t,
                    },
                });
            }
        } else {
            // Orphan create (mkdir switching redirect): the entry lives at
            // the parent's home site.
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: entry_site,
                msg: PeerMsg::InsertEntry {
                    op,
                    key,
                    parent: dir.file_id(),
                    name: name.to_string(),
                    child,
                    replace: false,
                },
            });
            if dir.home_site() == self.config.site {
                self.apply_parent_update(now, dir.file_id(), 1, nlink_delta, t);
                undo = Some((dir.file_id(), self.config.site, nlink_delta));
            } else if dir.home_site() != entry_site {
                let op2 = self.fresh_op();
                self.peer_ops += 1;
                waits.insert(op2);
                actions.push(DirAction::Peer {
                    site: dir.home_site(),
                    msg: PeerMsg::ParentUpdate {
                        op: op2,
                        dir: dir.file_id(),
                        entry_delta: 1,
                        nlink_delta,
                        mtime: t,
                    },
                });
                undo = Some((dir.file_id(), dir.home_site(), nlink_delta));
            } else {
                // Entry site doubles as the parent's home: fold the parent
                // update into the insert (the peer applies both only when
                // the insert succeeds, so no undo is needed).
            }
        }
        let reply = NfsReply {
            proc,
            status: NfsStatus::Ok,
            attr: Some(self.attrs.get(&file).expect("created").attr),
            body: ReplyBody::Create {
                fh: Some(child.fhandle()),
            },
        };
        self.finish(
            actions,
            token,
            reply,
            durable,
            waits,
            PendingKind::Create { file, undo },
            now,
        );
    }

    fn remove_like(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        token: u64,
        dir: &Fhandle,
        name: &str,
        is_rmdir: bool,
    ) {
        let t = self.now_time(now);
        let key = name_fingerprint(&dir.0, name.as_bytes());
        let proc = if is_rmdir {
            NfsProc::Rmdir
        } else {
            NfsProc::Remove
        };
        if !self.owns_key(key) {
            self.misdirected += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(proc, NfsStatus::JukeBox),
                at: now,
            });
            return;
        }
        let Some(cell) = self.names.get(&key).cloned() else {
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(proc, NfsStatus::NoEnt),
                at: now,
            });
            return;
        };
        let child = cell.child;
        if is_rmdir != (child.flags & FH_FLAG_DIR != 0) {
            self.ops_served += 1;
            let status = if is_rmdir {
                NfsStatus::NotDir
            } else {
                NfsStatus::IsDir
            };
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(proc, status),
                at: now,
            });
            return;
        }
        let mut waits = FxHashSet::default();
        if is_rmdir {
            if child.home == self.config.site {
                let empty = self
                    .attrs
                    .get(&child.file)
                    .map(|c| c.entry_count == 0)
                    .unwrap_or(true);
                if !empty {
                    self.ops_served += 1;
                    actions.push(DirAction::Reply {
                        token,
                        reply: NfsReply::error(proc, NfsStatus::NotEmpty),
                        at: now,
                    });
                    return;
                }
                self.log_del_attr(now, child.file);
            } else {
                let op = self.fresh_op();
                self.peer_ops += 1;
                waits.insert(op);
                actions.push(DirAction::Peer {
                    site: child.home,
                    msg: PeerMsg::RemoveDirIfEmpty {
                        op,
                        dir: child.file,
                    },
                });
                // Defer every mutation, here and at the parent's home, to
                // the ack: the directory may turn out not to be empty.
                let reply = NfsReply {
                    proc,
                    status: NfsStatus::Ok,
                    attr: self.attrs.get(&dir.file_id()).map(|c| c.attr),
                    body: ReplyBody::None,
                };
                self.finish(
                    actions,
                    token,
                    reply,
                    now,
                    waits,
                    PendingKind::Rmdir {
                        key,
                        dir: dir.file_id(),
                        home: dir.home_site(),
                        mtime: t,
                    },
                    now,
                );
                return;
            }
        }
        // Unbind the local name cell.
        let mut durable = self.log_del_name(now, key);
        // Parent bookkeeping.
        let nlink_delta = if is_rmdir { -1 } else { 0 };
        if dir.home_site() == self.config.site {
            self.apply_parent_update(now, dir.file_id(), -1, nlink_delta, t);
        } else {
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: dir.home_site(),
                msg: PeerMsg::ParentUpdate {
                    op,
                    dir: dir.file_id(),
                    entry_delta: -1,
                    nlink_delta,
                    mtime: t,
                },
            });
        }
        // Child link count (files and links only; rmdir retired the cell).
        if !is_rmdir {
            if child.home == self.config.site {
                let gone = {
                    if let Some(cellref) = self.attrs.get_mut(&child.file) {
                        cellref.attr.nlink = cellref.attr.nlink.saturating_sub(1);
                        cellref.attr.ctime = t;
                        cellref.attr.nlink == 0
                    } else {
                        false
                    }
                };
                if gone {
                    durable = durable.max(self.log_del_attr(now, child.file));
                    actions.push(DirAction::DataRemove { file: child.file });
                } else if self.attrs.contains_key(&child.file) {
                    durable = durable.max(self.log_put_attr(now, child.file));
                }
            } else {
                let op = self.fresh_op();
                self.peer_ops += 1;
                waits.insert(op);
                actions.push(DirAction::Peer {
                    site: child.home,
                    msg: PeerMsg::LinkDelta {
                        op,
                        file: child.file,
                        delta: -1,
                        ctime: t,
                    },
                });
            }
        }
        let reply = NfsReply {
            proc,
            status: NfsStatus::Ok,
            attr: self.attrs.get(&dir.file_id()).map(|c| c.attr),
            body: ReplyBody::None,
        };
        self.finish(
            actions,
            token,
            reply,
            durable,
            waits,
            PendingKind::Generic,
            now,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn rename(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        token: u64,
        from_dir: &Fhandle,
        from_name: &str,
        to_dir: &Fhandle,
        to_name: &str,
    ) {
        let t = self.now_time(now);
        let from_key = name_fingerprint(&from_dir.0, from_name.as_bytes());
        let to_key = name_fingerprint(&to_dir.0, to_name.as_bytes());
        let Some(cell) = self.names.get(&from_key).cloned() else {
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(NfsProc::Rename, NfsStatus::NoEnt),
                at: now,
            });
            return;
        };
        // Renaming a name onto itself is a POSIX no-op; without this
        // check the source unbind would destroy the freshly (re)bound
        // destination cell, since both share one key.
        if from_key == to_key {
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply {
                    proc: NfsProc::Rename,
                    status: NfsStatus::Ok,
                    attr: self.attrs.get(&from_dir.file_id()).map(|c| c.attr),
                    body: ReplyBody::None,
                },
                at: now,
            });
            return;
        }
        let child = cell.child;
        let is_dir = child.flags & FH_FLAG_DIR != 0;
        let dest_site = self.entry_site(to_dir, to_key);
        let mut waits = FxHashSet::default();
        let mut durable = now;
        let mut replaced: Option<ChildRef> = None;
        if dest_site == self.config.site {
            // Local insert (replacing any existing binding).
            replaced = self.names.get(&to_key).map(|c| c.child);
            durable = durable.max(self.log_put_name(
                now,
                to_key,
                NameCell {
                    parent: to_dir.file_id(),
                    name: to_name.to_string(),
                    child,
                },
            ));
            durable = durable.max(self.log_del_name(now, from_key));
        } else {
            self.peer_ops += 1;
            let op = self.fresh_op();
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: dest_site,
                msg: PeerMsg::InsertEntry {
                    op,
                    key: to_key,
                    parent: to_dir.file_id(),
                    name: to_name.to_string(),
                    child,
                    replace: true,
                },
            });
        }
        // Parent updates: entry moves from one directory to the other.
        let nlink_delta = i32::from(is_dir);
        if from_dir.file_id() != to_dir.file_id() {
            for (dirfh, ed, nd) in [(from_dir, -1, -nlink_delta), (to_dir, 1, nlink_delta)] {
                if dirfh.home_site() == self.config.site {
                    self.apply_parent_update(now, dirfh.file_id(), ed, nd, t);
                } else {
                    let op = self.fresh_op();
                    self.peer_ops += 1;
                    waits.insert(op);
                    actions.push(DirAction::Peer {
                        site: dirfh.home_site(),
                        msg: PeerMsg::ParentUpdate {
                            op,
                            dir: dirfh.file_id(),
                            entry_delta: ed,
                            nlink_delta: nd,
                            mtime: t,
                        },
                    });
                }
            }
        } else if from_dir.home_site() == self.config.site {
            self.apply_parent_update(now, from_dir.file_id(), 0, 0, t);
        }
        // A displaced local child loses a link, and the destination
        // directory's optimistic entry increment was one too many (the
        // insert replaced a binding instead of adding one).
        if let Some(old) = replaced {
            self.retract_dest_entry(
                actions,
                now,
                &mut waits,
                to_dir.file_id(),
                to_dir.home_site(),
                &old,
                t,
            );
            self.unlink_child(actions, now, &mut waits, &mut durable, old, t);
        }
        let reply = NfsReply {
            proc: NfsProc::Rename,
            status: NfsStatus::Ok,
            attr: self.attrs.get(&from_dir.file_id()).map(|c| c.attr),
            body: ReplyBody::None,
        };
        let kind = if dest_site == self.config.site {
            PendingKind::Generic
        } else {
            PendingKind::Rename {
                from_key,
                to_dir: to_dir.file_id(),
                to_home: to_dir.home_site(),
            }
        };
        self.finish(actions, token, reply, durable, waits, kind, now);
    }

    /// Takes back the optimistic destination entry-count increment of a
    /// rename whose insert displaced an existing binding (the directory's
    /// net entry change is zero), wherever the destination directory's
    /// attribute cell lives. If the displaced child was a directory the
    /// parent also loses its `..` link.
    #[allow(clippy::too_many_arguments)]
    fn retract_dest_entry(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        waits: &mut FxHashSet<u64>,
        to_dir: u64,
        to_home: u32,
        old: &ChildRef,
        t: NfsTime,
    ) {
        let nd = -i32::from(old.flags & FH_FLAG_DIR != 0);
        if to_home == self.config.site {
            self.apply_parent_update(now, to_dir, -1, nd, t);
        } else {
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: to_home,
                msg: PeerMsg::ParentUpdate {
                    op,
                    dir: to_dir,
                    entry_delta: -1,
                    nlink_delta: nd,
                    mtime: t,
                },
            });
        }
    }

    /// Drops one link from `child`, wherever its attribute cell lives.
    fn unlink_child(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        waits: &mut FxHashSet<u64>,
        durable: &mut SimTime,
        child: ChildRef,
        t: NfsTime,
    ) {
        if child.home == self.config.site {
            let gone = {
                if let Some(cell) = self.attrs.get_mut(&child.file) {
                    cell.attr.nlink = cell.attr.nlink.saturating_sub(1);
                    cell.attr.ctime = t;
                    cell.attr.nlink == 0
                } else {
                    false
                }
            };
            if gone {
                *durable = (*durable).max(self.log_del_attr(now, child.file));
                actions.push(DirAction::DataRemove { file: child.file });
            } else if self.attrs.contains_key(&child.file) {
                *durable = (*durable).max(self.log_put_attr(now, child.file));
            }
        } else {
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: child.home,
                msg: PeerMsg::LinkDelta {
                    op,
                    file: child.file,
                    delta: -1,
                    ctime: t,
                },
            });
        }
    }

    fn link(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        token: u64,
        fh: &Fhandle,
        dir: &Fhandle,
        name: &str,
    ) {
        let t = self.now_time(now);
        let key = name_fingerprint(&dir.0, name.as_bytes());
        if self.names.contains_key(&key) {
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token,
                reply: NfsReply::error(NfsProc::Link, NfsStatus::Exist),
                at: now,
            });
            return;
        }
        let child = ChildRef::from_fhandle(fh);
        let mut durable = self.log_put_name(
            now,
            key,
            NameCell {
                parent: dir.file_id(),
                name: name.to_string(),
                child,
            },
        );
        let mut waits = FxHashSet::default();
        // Bump the target's link count.
        let mut reply_attr = None;
        if child.home == self.config.site {
            if let Some(cell) = self.attrs.get_mut(&child.file) {
                cell.attr.nlink += 1;
                cell.attr.ctime = t;
                reply_attr = Some(cell.attr);
            }
            if reply_attr.is_some() {
                durable = durable.max(self.log_put_attr(now, child.file));
            }
        } else {
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: child.home,
                msg: PeerMsg::LinkDelta {
                    op,
                    file: child.file,
                    delta: 1,
                    ctime: t,
                },
            });
        }
        // Parent mtime/entry count.
        if dir.home_site() == self.config.site {
            self.apply_parent_update(now, dir.file_id(), 1, 0, t);
        } else {
            let op = self.fresh_op();
            self.peer_ops += 1;
            waits.insert(op);
            actions.push(DirAction::Peer {
                site: dir.home_site(),
                msg: PeerMsg::ParentUpdate {
                    op,
                    dir: dir.file_id(),
                    entry_delta: 1,
                    nlink_delta: 0,
                    mtime: t,
                },
            });
        }
        let reply = NfsReply {
            proc: NfsProc::Link,
            status: NfsStatus::Ok,
            attr: reply_attr,
            body: ReplyBody::None,
        };
        let kind = if reply_attr.is_none() {
            PendingKind::FillAttr
        } else {
            PendingKind::Generic
        };
        self.finish(actions, token, reply, durable, waits, kind, now);
    }

    fn readdir(&mut self, dir: &Fhandle, cookie: u64, count: u32, plus: bool) -> NfsReply {
        let site_from_cookie = (cookie >> 56) as u32;
        let skip = (cookie & ((1 << 56) - 1)) as usize;
        let dir_attr = self.attrs.get(&dir.file_id()).map(|c| c.attr);
        let keys: Vec<u64> = self
            .dir_index
            .get(&dir.file_id())
            .map(|ix| ix.iter().copied().collect())
            .unwrap_or_default();
        let budget = (count as usize / 32).clamp(4, 256);
        let mut entries = Vec::new();
        let mut entries_plus = Vec::new();
        let mut idx = skip;
        while idx < keys.len() && entries.len() + entries_plus.len() < budget {
            let cell = &self.names[&keys[idx]];
            idx += 1;
            let next_cookie = (u64::from(site_from_cookie) << 56) | idx as u64;
            let entry = DirEntry {
                fileid: cell.child.file,
                name: cell.name.clone(),
                cookie: next_cookie,
            };
            if plus {
                let attr = self.attrs.get(&cell.child.file).map(|c| c.attr);
                entries_plus.push(DirEntryPlus {
                    entry,
                    attr,
                    fh: Some(cell.child.fhandle()),
                });
            } else {
                entries.push(entry);
            }
        }
        let local_done = idx >= keys.len();
        let (eof, chain_cookie) = if !local_done {
            (false, None)
        } else {
            match self.config.policy {
                NamePolicy::MkdirSwitching => (true, None),
                NamePolicy::NameHashing => {
                    let next_site = site_from_cookie + 1;
                    if next_site >= self.config.sites {
                        (true, None)
                    } else {
                        (false, Some(u64::from(next_site) << 56))
                    }
                }
            }
        };
        // When chaining to the next site, the final entry's cookie must
        // point there; append a synthetic continuation by patching the last
        // entry (or, if no entries fit, return an empty page whose resume
        // point is the next site).
        if let Some(next) = chain_cookie {
            if plus {
                if let Some(last) = entries_plus.last_mut() {
                    last.entry.cookie = next;
                }
            } else if let Some(last) = entries.last_mut() {
                last.cookie = next;
            }
            if entries.is_empty() && entries_plus.is_empty() {
                // Empty local page: signal continuation via a marker entry
                // the µproxy strips (name "" never appears otherwise).
                if plus {
                    entries_plus.push(DirEntryPlus {
                        entry: DirEntry {
                            fileid: 0,
                            name: String::new(),
                            cookie: next,
                        },
                        attr: None,
                        fh: None,
                    });
                } else {
                    entries.push(DirEntry {
                        fileid: 0,
                        name: String::new(),
                        cookie: next,
                    });
                }
            }
        }
        let body = if plus {
            ReplyBody::Readdirplus {
                entries: entries_plus,
                cookieverf: 1,
                eof,
            }
        } else {
            ReplyBody::Readdir {
                entries,
                cookieverf: 1,
                eof,
            }
        };
        NfsReply {
            proc: if plus {
                NfsProc::Readdirplus
            } else {
                NfsProc::Readdir
            },
            status: NfsStatus::Ok,
            attr: dir_attr,
            body,
        }
    }

    /// Serves a peer-protocol message (including acks for our own ops).
    pub fn handle_peer(&mut self, now: SimTime, from_site: u32, msg: PeerMsg) -> Vec<DirAction> {
        let mut actions = Vec::new();
        let t = self.now_time(now);
        match msg {
            PeerMsg::Ack { op, status, info } => {
                self.process_ack(&mut actions, now, op, status, info);
            }
            PeerMsg::GetAttr { op, file } => {
                let (status, info) = match self.attrs.get(&file) {
                    Some(cell) => (
                        NfsStatus::Ok,
                        PeerInfo::Attr {
                            attr: cell.attr,
                            symlink: cell.symlink.clone(),
                        },
                    ),
                    None => (NfsStatus::Stale, PeerInfo::None),
                };
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack { op, status, info },
                });
            }
            PeerMsg::LinkDelta {
                op,
                file,
                delta,
                ctime,
            } => {
                if let Some((status, info)) = self.applied_peer.get(&op).cloned() {
                    actions.push(DirAction::Peer {
                        site: from_site,
                        msg: PeerMsg::Ack { op, status, info },
                    });
                    return actions;
                }
                let (status, info) = match self.attrs.get_mut(&file) {
                    Some(cell) => {
                        cell.attr.nlink = cell.attr.nlink.saturating_add_signed(delta);
                        cell.attr.ctime = ctime;
                        let attr = cell.attr;
                        if attr.nlink == 0 {
                            // The owner is the one site that sees the last
                            // link go, whatever the requester was doing
                            // (remove, rename-over) and whether or not it
                            // survives to read the ack.
                            self.log_del_attr(now, file);
                            actions.push(DirAction::DataRemove { file });
                        } else {
                            self.log_put_attr(now, file);
                        }
                        (
                            NfsStatus::Ok,
                            PeerInfo::Attr {
                                attr,
                                symlink: None,
                            },
                        )
                    }
                    None => (NfsStatus::Stale, PeerInfo::None),
                };
                self.note_applied(now, op, status, info.clone());
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack { op, status, info },
                });
            }
            PeerMsg::ParentUpdate {
                op,
                dir,
                entry_delta,
                nlink_delta,
                mtime,
            } => {
                if let Some((status, info)) = self.applied_peer.get(&op).cloned() {
                    actions.push(DirAction::Peer {
                        site: from_site,
                        msg: PeerMsg::Ack { op, status, info },
                    });
                    return actions;
                }
                self.apply_parent_update(now, dir, entry_delta, nlink_delta, mtime);
                self.note_applied(now, op, NfsStatus::Ok, PeerInfo::None);
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack {
                        op,
                        status: NfsStatus::Ok,
                        info: PeerInfo::None,
                    },
                });
            }
            PeerMsg::InsertEntry {
                op,
                key,
                parent,
                name,
                child,
                replace,
            } => {
                if let Some((status, info)) = self.applied_peer.get(&op).cloned() {
                    actions.push(DirAction::Peer {
                        site: from_site,
                        msg: PeerMsg::Ack { op, status, info },
                    });
                    return actions;
                }
                let existing = self.names.get(&key).map(|c| c.child);
                let (status, info) = if existing.is_some() && !replace {
                    (NfsStatus::Exist, PeerInfo::None)
                } else {
                    self.log_put_name(
                        now,
                        key,
                        NameCell {
                            parent,
                            name,
                            child,
                        },
                    );
                    // The entry site may double as the parent's home; apply
                    // the parent update locally in that case. Renames
                    // (`replace`) always send an explicit ParentUpdate, so
                    // folding one in here would double-count the entry.
                    if !replace && self.attrs.contains_key(&parent) {
                        self.apply_parent_update(
                            now,
                            parent,
                            1,
                            i32::from(child.flags & FH_FLAG_DIR != 0),
                            t,
                        );
                    }
                    (NfsStatus::Ok, PeerInfo::Replaced { child: existing })
                };
                self.note_applied(now, op, status, info.clone());
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack { op, status, info },
                });
            }
            PeerMsg::RemoveEntry { op, key } => {
                if let Some((status, info)) = self.applied_peer.get(&op).cloned() {
                    actions.push(DirAction::Peer {
                        site: from_site,
                        msg: PeerMsg::Ack { op, status, info },
                    });
                    return actions;
                }
                let (status, info) = match self.names.get(&key).map(|c| c.child) {
                    Some(child) => {
                        self.log_del_name(now, key);
                        (NfsStatus::Ok, PeerInfo::Removed { child })
                    }
                    None => (NfsStatus::NoEnt, PeerInfo::None),
                };
                self.note_applied(now, op, status, info.clone());
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack { op, status, info },
                });
            }
            PeerMsg::RemoveDirIfEmpty { op, dir } => {
                if let Some((status, info)) = self.applied_peer.get(&op).cloned() {
                    actions.push(DirAction::Peer {
                        site: from_site,
                        msg: PeerMsg::Ack { op, status, info },
                    });
                    return actions;
                }
                // A cell that is already gone counts as empty, as it does
                // when the rmdir runs at the directory's own site: an
                // earlier attempt retired it and crashed before the name
                // was unbound, and refusing would leave that name bound
                // for ever.
                let status = match self.attrs.get(&dir) {
                    Some(cell) if cell.entry_count != 0 => NfsStatus::NotEmpty,
                    _ => {
                        self.log_del_attr(now, dir);
                        NfsStatus::Ok
                    }
                };
                let info = PeerInfo::None;
                self.note_applied(now, op, status, info.clone());
                actions.push(DirAction::Peer {
                    site: from_site,
                    msg: PeerMsg::Ack { op, status, info },
                });
            }
        }
        actions
    }

    fn note_applied(&mut self, now: SimTime, op: u64, status: NfsStatus, info: PeerInfo) {
        self.applied_peer.insert(op, (status, info));
        self.wal.append(now, DirLog::AppliedPeer { op }, 16);
    }

    fn process_ack(
        &mut self,
        actions: &mut Vec<DirAction>,
        now: SimTime,
        op: u64,
        status: NfsStatus,
        info: PeerInfo,
    ) {
        let Some(pid) = self.wait_to_pending.remove(&op) else {
            return;
        };
        let t = self.now_time(now);
        let kind = {
            let Some(pending) = self.pending.get_mut(&pid) else {
                return;
            };
            pending.waits.remove(&op);
            pending.kind.clone()
        };
        // Fold the ack into the pending reply per kind.
        match (&kind, &info, status) {
            (PendingKind::FillAttr, PeerInfo::Attr { attr, .. }, NfsStatus::Ok) => {
                let p = self.pending.get_mut(&pid).expect("pending present");
                p.reply.attr = Some(*attr);
            }
            (PendingKind::FillAttr, _, s) if s != NfsStatus::Ok => {
                let p = self.pending.get_mut(&pid).expect("pending present");
                p.reply = NfsReply::error(p.reply.proc, s);
            }
            (PendingKind::Create { file, undo }, _, NfsStatus::Exist) => {
                let file = *file;
                let undo = *undo;
                {
                    let p = self.pending.get_mut(&pid).expect("pending present");
                    p.reply = NfsReply::error(p.reply.proc, NfsStatus::Exist);
                }
                self.log_del_attr(now, file);
                // The optimistic parent update assumed the insert would
                // succeed; take it back (fire-and-forget when remote — the
                // reply need not wait on pure bookkeeping).
                if let Some((dir, home, nd)) = undo {
                    if home == self.config.site {
                        self.apply_parent_update(now, dir, -1, -nd, t);
                    } else {
                        let op2 = self.fresh_op();
                        self.peer_ops += 1;
                        actions.push(DirAction::Peer {
                            site: home,
                            msg: PeerMsg::ParentUpdate {
                                op: op2,
                                dir,
                                entry_delta: -1,
                                nlink_delta: -nd,
                                mtime: t,
                            },
                        });
                    }
                }
            }
            (
                PendingKind::Rmdir {
                    key,
                    dir,
                    home,
                    mtime,
                },
                _,
                NfsStatus::Ok,
            ) => {
                let (key, dir, home, mtime) = (*key, *dir, *home, *mtime);
                self.log_del_name(now, key);
                // The reply need not wait on the parent's bookkeeping.
                if home == self.config.site {
                    self.apply_parent_update(now, dir, -1, -1, mtime);
                } else {
                    let op2 = self.fresh_op();
                    self.peer_ops += 1;
                    actions.push(DirAction::Peer {
                        site: home,
                        msg: PeerMsg::ParentUpdate {
                            op: op2,
                            dir,
                            entry_delta: -1,
                            nlink_delta: -1,
                            mtime,
                        },
                    });
                }
            }
            (PendingKind::Rmdir { .. }, _, s) if s != NfsStatus::Ok => {
                let p = self.pending.get_mut(&pid).expect("pending present");
                p.reply = NfsReply::error(p.reply.proc, s);
            }
            (
                PendingKind::Rename {
                    from_key,
                    to_dir,
                    to_home,
                },
                PeerInfo::Replaced { child },
                NfsStatus::Ok,
            ) => {
                let from_key = *from_key;
                let (to_dir, to_home) = (*to_dir, *to_home);
                let child = *child;
                self.log_del_name(now, from_key);
                if let Some(old) = child {
                    let mut extra_waits = FxHashSet::default();
                    let mut durable = now;
                    self.retract_dest_entry(
                        actions,
                        now,
                        &mut extra_waits,
                        to_dir,
                        to_home,
                        &old,
                        t,
                    );
                    self.unlink_child(actions, now, &mut extra_waits, &mut durable, old, t);
                    if !extra_waits.is_empty() {
                        for &w in &extra_waits {
                            self.wait_to_pending.insert(w, pid);
                        }
                        self.pending
                            .get_mut(&pid)
                            .expect("pending")
                            .waits
                            .extend(extra_waits);
                    }
                }
            }
            _ => {}
        }
        let finished = self
            .pending
            .get(&pid)
            .map(|p| p.waits.is_empty())
            .unwrap_or(false);
        if finished {
            let p = self.pending.remove(&pid).expect("pending present");
            let durable = self
                .wal
                .append(now, DirLog::IntentDone { txid: p.txid }, 16);
            self.ops_served += 1;
            actions.push(DirAction::Reply {
                token: p.token,
                reply: p.reply,
                at: p.not_before.max(durable),
            });
        }
    }

    /// Simulates a crash: volatile state is lost; the WAL (in shared
    /// network storage) survives and is returned for the recovering
    /// instance.
    pub fn crash(&mut self) -> Wal<DirLog> {
        self.names.clear();
        self.attrs.clear();
        self.dir_index.clear();
        self.applied_peer.clear();
        self.pending.clear();
        self.wait_to_pending.clear();
        std::mem::replace(&mut self.wal, Wal::new(WalParams::default()))
    }

    /// Rebuilds cells by replaying the durable WAL prefix. In-flight
    /// multisite operations at crash time are dropped (clients retransmit;
    /// peers deduplicate by op id).
    pub fn recover(&mut self, wal: Wal<DirLog>, crash_time: SimTime) {
        let records = wal.recover(crash_time);
        self.wal = wal;
        if self.config.site == 0 && !self.attrs.contains_key(&1) {
            let attr = Fattr3::new(FileType::Directory, 1, 0o755, NfsTime::default());
            self.attrs.insert(
                1,
                AttrCell {
                    attr,
                    entry_count: 0,
                    symlink: None,
                    key: 0,
                },
            );
        }
        for rec in records {
            match rec {
                DirLog::PutName { key, cell } => {
                    self.dir_index.entry(cell.parent).or_default().insert(key);
                    self.names.insert(key, cell);
                }
                DirLog::DelName { key } => {
                    if let Some(cell) = self.names.remove(&key) {
                        if let Some(ix) = self.dir_index.get_mut(&cell.parent) {
                            ix.remove(&key);
                        }
                    }
                }
                DirLog::PutAttr { file, cell } => {
                    self.next_file = self.next_file.max(file + 1);
                    self.attrs.insert(file, cell);
                }
                DirLog::DelAttr { file } => {
                    self.attrs.remove(&file);
                }
                DirLog::AppliedPeer { op } => {
                    self.applied_peer
                        .insert(op, (NfsStatus::Ok, PeerInfo::None));
                }
                DirLog::Intent { .. } | DirLog::IntentDone { .. } => {}
            }
        }
    }
}
