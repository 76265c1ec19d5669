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

use slice_hashes::{name_fingerprint, routing, NamePolicy, RoutingTable, LOGICAL_SLOTS};
use slice_nfsproto::{
    DirEntry, DirEntryPlus, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus,
    NfsTime, ReplyBody, Sattr3, SetTime, FH_FLAG_DIR, FH_FLAG_SYMLINK,
};
use slice_sim::time::{SimDuration, SimTime};
use slice_storage::{Wal, WalParams};

use crate::types::{AttrCell, ChildRef, DirLog, NameCell, PeerInfo, PeerMsg};

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
            policy: NamePolicy::MkdirSwitching { redirect_millis: 0 },
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

/// A directory's attribute cell: its file id and the site that owns it
/// (the directory-side twin of [`ChildRef`]).
#[derive(Debug, Clone, Copy)]
struct DirRef {
    file: u64,
    home: u32,
}

impl DirRef {
    fn of(fh: &Fhandle) -> Self {
        DirRef {
            file: fh.file_id(),
            home: fh.home_site(),
        }
    }
}

/// What a parked request does with the acks it waits for.
#[derive(Debug)]
enum PendingKind {
    /// A remote GetAttr or LinkDelta fills the reply's attributes.
    FillAttr,
    /// Create/mkdir/symlink whose entry is inserted remotely; on EXIST the
    /// local attr cell is retired and any update of the parent made before
    /// the answer was known, `(parent, nlink_delta)`, is taken back.
    Create {
        file: u64,
        undo: Option<(DirRef, i32)>,
    },
    /// Rmdir awaiting a remote RemoveDirIfEmpty; only on success is the
    /// local name cell unbound and the parent told.
    Rmdir {
        key: u64,
        parent: DirRef,
        mtime: NfsTime,
    },
    /// Rename awaiting a remote InsertEntry; on success the local source
    /// is unbound and whatever the insert displaced is dealt with.
    Rename { from_key: u64, to: DirRef },
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

/// What one client request or peer message accumulates on its way through
/// the server.
struct Req {
    /// Whom a reply goes to (a parked request's, once an ack resumes it).
    token: u64,
    now: SimTime,
    /// `now` on this site's clock.
    t: NfsTime,
    actions: Vec<DirAction>,
    /// Peer ops asked so far that the reply must wait for.
    waits: FxHashSet<u64>,
    /// When the WAL records the reply answers for are durable.
    durable: SimTime,
}

impl Req {
    /// The reply may not leave before `durable`.
    fn gate(&mut self, durable: SimTime) {
        self.durable = self.durable.max(durable);
    }
}

/// A success reply with no body.
fn ok_reply(proc: NfsProc, attr: Option<Fattr3>) -> NfsReply {
    NfsReply {
        proc,
        status: NfsStatus::Ok,
        attr,
        body: ReplyBody::None,
    }
}

/// What a site keeps in shared network storage, and so what outlives its
/// process: the image — the cells and ids its backing objects hold — and
/// the log of the records not folded into the image yet. `crash` hands it
/// out, `recover` takes it back.
#[derive(Debug)]
pub struct DirDurable {
    names: FxHashMap<u64, NameCell>,
    attrs: FxHashMap<u64, AttrCell>,
    applied_peer: FxHashSet<u64>,
    /// Past every attribute cell the image has ever held.
    next_file: u64,
    wal: Wal<DirLog>,
}

impl DirDurable {
    fn new(params: WalParams) -> Self {
        DirDurable {
            names: FxHashMap::default(),
            attrs: FxHashMap::default(),
            applied_peer: FxHashSet::default(),
            next_file: 0,
            wal: Wal::new(params),
        }
    }

    /// Folds the records that are durable by `now` into the image, oldest
    /// first. Only a record may reach the image, never a live cell: the
    /// live tables run ahead of the disk by the batch in flight.
    fn fold(&mut self, now: SimTime) {
        while let Some(rec) = self.wal.pop_durable(now) {
            match rec {
                DirLog::PutName { key, cell } => drop(self.names.insert(key, cell)),
                DirLog::DelName { key } => drop(self.names.remove(&key)),
                DirLog::PutAttr { file, cell } => {
                    self.next_file = self.next_file.max(file + 1);
                    self.attrs.insert(file, cell);
                }
                DirLog::DelAttr { file } => drop(self.attrs.remove(&file)),
                DirLog::AppliedPeer { op } => drop(self.applied_peer.insert(op)),
                DirLog::Intent { .. } | DirLog::IntentDone { .. } => {}
            }
        }
    }

    /// Appends `rec`; returns the instant it is durable. Whatever became
    /// durable since the last append is folded on the way, at no simulated
    /// cost: a manager writes its backing objects in the background.
    fn append(&mut self, now: SimTime, rec: DirLog, size: usize) -> SimTime {
        self.fold(now);
        self.wal.append(now, rec, size)
    }
}

/// The directory server state machine for one site.
#[derive(Debug)]
pub struct DirServer {
    config: DirServerConfig,
    names: FxHashMap<u64, NameCell>,
    attrs: FxHashMap<u64, AttrCell>,
    /// Local entries per directory, ordered for readdir cookies.
    dir_index: FxHashMap<u64, BTreeSet<u64>>,
    durable: DirDurable,
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
    /// The slot table (name hashing): requests for slots this site does
    /// not own are misdirected (stale µproxy table) and bounced with
    /// `JUKEBOX` so the µproxy refreshes (§3.3.1).
    table: RoutingTable,
    misdirected: u64,
}

impl DirServer {
    /// Creates a directory server; site 0 owns the volume root.
    pub fn new(config: DirServerConfig) -> Self {
        let mut s = DirServer {
            names: FxHashMap::default(),
            attrs: FxHashMap::default(),
            dir_index: FxHashMap::default(),
            durable: DirDurable::new(config.wal.clone()),
            applied_peer: FxHashMap::default(),
            pending: FxHashMap::default(),
            wait_to_pending: FxHashMap::default(),
            next_file: (u64::from(config.site) << 32) | 2,
            next_op: (u64::from(config.site) << 48) | 1,
            next_tx: 1,
            ops_served: 0,
            peer_ops: 0,
            multisite_ops: 0,
            table: RoutingTable::balanced(config.sites),
            misdirected: 0,
            config,
        };
        s.plant_root();
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

    /// WAL statistics (appends, batches, bytes) over the site's lifetime.
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.durable.wal.stats()
    }

    /// The log, to look at: the records not yet folded into the image.
    pub fn wal(&self) -> &Wal<DirLog> {
        &self.durable.wal
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

    /// A sorted snapshot of the readdir index: each directory that has
    /// local entries, with their keys in cookie order.
    pub fn dump_dir_index(&self) -> Vec<(u64, Vec<u64>)> {
        let dirs = self.dir_index.iter().filter(|(_, keys)| !keys.is_empty());
        let mut out: Vec<_> = dirs
            .map(|(&d, keys)| (d, keys.iter().copied().collect()))
            .collect();
        out.sort_unstable_by_key(|&(d, _)| d);
        out
    }

    /// The ids of the peer ops this site has applied, sorted.
    pub fn dump_applied_peer(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.applied_peer.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Fault injection for oracle mutation tests: silently drops a name
    /// cell from the in-memory index (as if a WAL replay record had been
    /// lost), returning whether the key was present. The directory's
    /// entry count is deliberately left stale — this models corruption,
    /// not a clean remove.
    pub fn forget_name(&mut self, key: u64) -> bool {
        self.unbind(key).is_some()
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

    /// Site that should hold the name entry for `(dir, name)`.
    fn entry_site(&self, dir: &Fhandle, key: u64) -> u32 {
        self.config
            .policy
            .entry_site(&self.table, dir.home_site(), || key)
    }

    /// Refuses a key-routed request that does not belong at this site
    /// under the current table (the µproxy holds a stale one).
    fn check_owner(&self, key: u64) -> Result<(), NfsStatus> {
        match self.config.policy {
            NamePolicy::NameHashing if self.table.route(key) != self.config.site => {
                Err(NfsStatus::JukeBox)
            }
            _ => Ok(()),
        }
    }

    /// Installs the next generation of the slot table (reconfiguration,
    /// §3.3.1). The caller is responsible for migrating the affected
    /// entries with
    /// [`DirServer::export_entries`]/[`DirServer::import_entries`].
    ///
    /// # Panics
    ///
    /// Panics under mkdir switching, which keeps a name at its parent's
    /// home site: the slot map governs name hashing only.
    pub fn set_slot_map(&mut self, slots: Vec<u32>) {
        assert_eq!(
            self.config.policy,
            NamePolicy::NameHashing,
            "the slot map governs name hashing only: under mkdir switching a name \
             lives at its parent's home site, and no bounce would refresh a µproxy"
        );
        assert_eq!(
            slots.len(),
            LOGICAL_SLOTS,
            "slot map covers all logical slots"
        );
        self.table = RoutingTable::from_slots(slots, self.table.generation() + 1);
    }

    /// The current slot table (what a µproxy fetches to refresh its own).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Requests bounced as misdirected since start.
    pub fn misdirected(&self) -> u64 {
        self.misdirected
    }

    /// Removes and returns every name cell whose logical slot this site no
    /// longer owns (per the current table), logging the unbinds. Their
    /// attribute cells do not move: cross-site links keep them reachable.
    pub fn export_entries(&mut self, now: SimTime) -> Vec<(u64, NameCell)> {
        let moving: Vec<u64> = self
            .names
            .keys()
            .copied()
            .filter(|&k| self.table.route(k) != self.config.site)
            .collect();
        moving
            .into_iter()
            .map(|key| {
                let cell = self.names[&key].clone();
                self.log_del_name(now, key);
                (key, cell)
            })
            .collect()
    }

    /// Installs migrated name cells at their new home, logging the binds.
    pub fn import_entries(&mut self, now: SimTime, cells: Vec<(u64, NameCell)>) {
        for (key, cell) in cells {
            self.log_put_name(now, key, cell);
        }
    }

    // Cells in memory. `bind`/`unbind`/`plant_root` are the only writers of
    // `names` and `dir_index`; the live path logs around them, recovery and
    // fault injection call them bare.

    fn bind(&mut self, key: u64, cell: NameCell) {
        self.dir_index.entry(cell.parent).or_default().insert(key);
        self.names.insert(key, cell);
    }

    fn unbind(&mut self, key: u64) -> Option<NameCell> {
        let cell = self.names.remove(&key)?;
        if let Some(ix) = self.dir_index.get_mut(&cell.parent) {
            ix.remove(&key);
        }
        Some(cell)
    }

    /// The volume root's attribute cell lives at site 0 from the start.
    fn plant_root(&mut self) {
        if self.config.site == 0 {
            self.attrs.entry(1).or_insert_with(|| AttrCell {
                attr: Fattr3::new(FileType::Directory, 1, 0o755, NfsTime::default()),
                entry_count: 0,
                symlink: None,
                key: 0,
            });
        }
    }

    // Cells in the log. Each returns when its record is durable; the
    // order of appends is the order of durability.

    fn log_put_name(&mut self, now: SimTime, key: u64, cell: NameCell) -> SimTime {
        self.bind(key, cell.clone());
        self.durable.append(now, DirLog::PutName { key, cell }, 96)
    }

    fn log_del_name(&mut self, now: SimTime, key: u64) -> SimTime {
        self.unbind(key);
        self.durable.append(now, DirLog::DelName { key }, 16)
    }

    fn log_put_attr(&mut self, now: SimTime, file: u64) -> SimTime {
        let cell = self.attrs.get(&file).expect("attr cell present").clone();
        self.durable
            .append(now, DirLog::PutAttr { file, cell }, 112)
    }

    fn log_del_attr(&mut self, now: SimTime, file: u64) -> SimTime {
        self.attrs.remove(&file);
        self.durable.append(now, DirLog::DelAttr { file }, 16)
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

    // The four ways out of a request. Every completion goes through
    // `reply` or `bounce`, every peer send through `ask`.

    fn begin(&self, now: SimTime, token: u64) -> Req {
        Req {
            token,
            now,
            t: self.now_time(now),
            actions: Vec::new(),
            waits: FxHashSet::default(),
            durable: now,
        }
    }

    /// Completes the request with `reply`, sent no earlier than `at`.
    #[inline]
    fn reply(&mut self, rq: &mut Req, reply: NfsReply, at: SimTime) {
        self.ops_served += 1;
        rq.actions.push(DirAction::Reply {
            token: rq.token,
            reply,
            at,
        });
    }

    /// Sends a misdirected request back for the µproxy to refresh its
    /// table and retry: it was not served, and is not counted as served.
    #[inline]
    fn bounce(&mut self, rq: &mut Req, proc: NfsProc) {
        self.misdirected += 1;
        rq.actions.push(DirAction::Reply {
            token: rq.token,
            reply: NfsReply::error(proc, NfsStatus::JukeBox),
            at: rq.now,
        });
    }

    /// Sends `site` the peer message `msg` builds around a fresh op id and
    /// returns the id, which the caller waits for — or does not.
    fn ask(&mut self, rq: &mut Req, site: u32, msg: impl FnOnce(u64) -> PeerMsg) -> u64 {
        let op = self.fresh_op();
        self.peer_ops += 1;
        rq.actions.push(DirAction::Peer { site, msg: msg(op) });
        op
    }

    /// Replies now, gated on the WAL, or parks the reply until every peer
    /// op in `rq.waits` is acknowledged.
    fn finish(&mut self, rq: &mut Req, reply: NfsReply, kind: PendingKind) {
        if rq.waits.is_empty() {
            return self.reply(rq, reply, rq.durable);
        }
        self.multisite_ops += 1;
        let txid = self.next_tx;
        self.next_tx += 1;
        self.durable.append(rq.now, DirLog::Intent { txid }, 24);
        let id = self.fresh_op();
        for &w in &rq.waits {
            self.wait_to_pending.insert(w, id);
        }
        self.pending.insert(
            id,
            Pending {
                token: rq.token,
                txid,
                waits: std::mem::take(&mut rq.waits),
                reply,
                kind,
                not_before: rq.durable,
            },
        );
    }

    // One function per cell mutation that can cross sites. The request
    // path and `apply_peer` both call these, so "the cell lives here" and
    // "the cell lives there" cannot drift apart.

    /// Adjusts a directory's live-entry count, link count and times: here
    /// if its cell is ours, else by asking its home. Returns the op to
    /// wait for, if one was sent. The reply is never gated on this
    /// record's durability.
    fn parent_update(
        &mut self,
        rq: &mut Req,
        parent: DirRef,
        entry_delta: i32,
        nlink_delta: i32,
        mtime: NfsTime,
    ) -> Option<u64> {
        let dir = parent.file;
        if parent.home != self.config.site {
            return Some(self.ask(rq, parent.home, |op| PeerMsg::ParentUpdate {
                op,
                dir,
                entry_delta,
                nlink_delta,
                mtime,
            }));
        }
        if let Some(cell) = self.attrs.get_mut(&dir) {
            cell.entry_count = cell.entry_count.saturating_add_signed(entry_delta);
            cell.attr.nlink = cell.attr.nlink.saturating_add_signed(nlink_delta);
            cell.attr.mtime = mtime;
            cell.attr.ctime = mtime;
            self.log_put_attr(rq.now, dir);
        }
        None
    }

    /// Adds `delta` links to `child`: here if its attribute cell is ours
    /// (returning the new attributes), else by asking its home and
    /// waiting.
    fn link_delta(&mut self, rq: &mut Req, child: &ChildRef, delta: i32) -> Option<Fattr3> {
        if child.home == self.config.site {
            return self.apply_link_delta(rq, child.file, delta, rq.t);
        }
        let (file, ctime) = (child.file, rq.t);
        let op = self.ask(rq, child.home, |op| PeerMsg::LinkDelta {
            op,
            file,
            delta,
            ctime,
        });
        rq.waits.insert(op);
        None
    }

    /// Applies a link delta to a cell of ours. The owner is the one site
    /// that sees the last link go — whatever the requester was doing
    /// (remove, rename over) and whether or not it lives to read the ack —
    /// so it is the owner that retires the cell and has the data removed.
    fn apply_link_delta(
        &mut self,
        rq: &mut Req,
        file: u64,
        delta: i32,
        ctime: NfsTime,
    ) -> Option<Fattr3> {
        let cell = self.attrs.get_mut(&file)?;
        cell.attr.nlink = cell.attr.nlink.saturating_add_signed(delta);
        cell.attr.ctime = ctime;
        let attr = cell.attr;
        let durable = if attr.nlink == 0 {
            rq.actions.push(DirAction::DataRemove { file });
            self.log_del_attr(rq.now, file)
        } else {
            self.log_put_attr(rq.now, file)
        };
        rq.gate(durable);
        Some(attr)
    }

    /// Binds `key` to `cell`, returning the child it displaced; without
    /// `replace` an existing binding refuses the insert.
    fn insert_entry(
        &mut self,
        rq: &mut Req,
        key: u64,
        cell: NameCell,
        replace: bool,
    ) -> Result<Option<ChildRef>, NfsStatus> {
        let existing = self.names.get(&key).map(|c| c.child);
        if existing.is_some() && !replace {
            return Err(NfsStatus::Exist);
        }
        rq.gate(self.log_put_name(rq.now, key, cell));
        Ok(existing)
    }

    /// Retires directory `dir`'s attribute cell unless it has entries. A
    /// cell that is already gone counts as empty: an earlier attempt
    /// retired it and crashed before the name was unbound, and refusing
    /// would leave that name bound for ever.
    fn remove_dir_if_empty(&mut self, rq: &mut Req, dir: u64) -> Result<(), NfsStatus> {
        if self.attrs.get(&dir).is_some_and(|c| c.entry_count != 0) {
            return Err(NfsStatus::NotEmpty);
        }
        self.log_del_attr(rq.now, dir);
        Ok(())
    }

    /// A rename's insert into `to_dir` displaced `old`: the directory's
    /// entry increment was one too many (its net change is zero; a
    /// displaced directory also takes its `..` link with it), and `old`
    /// loses a link — wherever either cell lives.
    fn displace(&mut self, rq: &mut Req, to_dir: DirRef, old: &ChildRef) {
        let nlink_delta = -i32::from(old.flags & FH_FLAG_DIR != 0);
        let op = self.parent_update(rq, to_dir, -1, nlink_delta, rq.t);
        rq.waits.extend(op);
        self.link_delta(rq, old, -1);
    }

    /// Serves a client NFS request routed to this site.
    pub fn handle_nfs(&mut self, now: SimTime, token: u64, req: &NfsRequest) -> Vec<DirAction> {
        let mut rq = self.begin(now, token);
        match self.serve(&mut rq, req) {
            Ok(()) => {}
            Err(NfsStatus::JukeBox) => self.bounce(&mut rq, req.proc()),
            Err(status) => self.reply(&mut rq, NfsReply::error(req.proc(), status), now),
        }
        rq.actions
    }

    /// Serves `req` to a reply or a parked reply; an `Err` is a refusal
    /// that touched nothing.
    fn serve(&mut self, rq: &mut Req, req: &NfsRequest) -> Result<(), NfsStatus> {
        let attr_cell = |fh: &Fhandle| self.attrs.get(&fh.file_id()).ok_or(NfsStatus::Stale);
        let reply = match req {
            NfsRequest::Null => ok_reply(NfsProc::Null, None),
            NfsRequest::Getattr { fh } => NfsReply::ok(NfsProc::Getattr, attr_cell(fh)?.attr),
            NfsRequest::Access { fh, mask } => NfsReply {
                proc: NfsProc::Access,
                status: NfsStatus::Ok,
                attr: Some(attr_cell(fh)?.attr),
                body: ReplyBody::Access { mask: mask & 0x3f },
            },
            NfsRequest::Readlink { fh } => {
                let cell = attr_cell(fh)?;
                NfsReply {
                    proc: NfsProc::Readlink,
                    status: NfsStatus::Ok,
                    attr: Some(cell.attr),
                    body: ReplyBody::Readlink {
                        target: cell.symlink.clone().ok_or(NfsStatus::Inval)?,
                    },
                }
            }
            NfsRequest::Fsstat { fh } => NfsReply {
                proc: NfsProc::Fsstat,
                status: NfsStatus::Ok,
                attr: attr_cell(fh).ok().map(|c| c.attr),
                body: ReplyBody::Fsstat {
                    tbytes: 1 << 42,
                    fbytes: 1 << 41,
                    abytes: 1 << 41,
                    tfiles: 1 << 24,
                    ffiles: (1 << 24) - self.attrs.len() as u64,
                },
            },
            NfsRequest::Readdir {
                dir, cookie, count, ..
            } => self.readdir(dir, *cookie, *count, false),
            NfsRequest::Readdirplus {
                dir,
                cookie,
                maxcount,
                ..
            } => self.readdir(dir, *cookie, *maxcount, true),
            NfsRequest::Setattr { fh, attr } => return self.setattr(rq, fh, attr),
            NfsRequest::Lookup { dir, name } => return self.lookup(rq, dir, name),
            NfsRequest::Create { dir, name, attr } => {
                return self.create_like(rq, dir, name, attr, FileType::Regular, None);
            }
            NfsRequest::Mkdir { dir, name, attr } => {
                return self.create_like(rq, dir, name, attr, FileType::Directory, None);
            }
            NfsRequest::Symlink {
                dir,
                name,
                target,
                attr,
            } => {
                let target = Some(target.clone());
                return self.create_like(rq, dir, name, attr, FileType::Symlink, target);
            }
            NfsRequest::Remove { dir, name } => return self.remove_like(rq, dir, name, false),
            NfsRequest::Rmdir { dir, name } => return self.remove_like(rq, dir, name, true),
            NfsRequest::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => return self.rename(rq, from_dir, from_name, to_dir, to_name),
            NfsRequest::Link { fh, dir, name } => return self.link(rq, fh, dir, name),
            _ => return Err(NfsStatus::NotSupp),
        };
        self.reply(rq, reply, rq.durable);
        Ok(())
    }

    fn setattr(&mut self, rq: &mut Req, fh: &Fhandle, sattr: &Sattr3) -> Result<(), NfsStatus> {
        let file = fh.file_id();
        let cell = self.attrs.get_mut(&file).ok_or(NfsStatus::Stale)?;
        let old_size = cell.attr.size;
        Self::apply_sattr(&mut cell.attr, sattr, rq.t);
        let new_attr = cell.attr;
        rq.gate(self.log_put_attr(rq.now, file));
        if let Some(size) = sattr.size {
            // µproxy attribute write-backs carry explicit timestamps and
            // may report a size smaller than data another client already
            // wrote — only a genuine shrink may clamp the data plane. A
            // client truncate (no client mtime) must always propagate: our
            // own size here can lag behind the data plane, so
            // `size == old_size` does not mean the stored extents already
            // agree.
            let push_back = matches!(sattr.mtime, SetTime::Client(_));
            if !push_back || size < old_size {
                rq.actions.push(DirAction::DataTruncate { file, size });
            }
        }
        self.reply(rq, NfsReply::ok(NfsProc::Setattr, new_attr), rq.durable);
        Ok(())
    }

    fn lookup(&mut self, rq: &mut Req, dir: &Fhandle, name: &str) -> Result<(), NfsStatus> {
        let key = name_fingerprint(&dir.0, name.as_bytes());
        self.check_owner(key)?;
        let dir_attr = self.attrs.get(&dir.file_id()).map(|c| c.attr);
        let Some(cell) = self.names.get(&key) else {
            let reply = NfsReply {
                proc: NfsProc::Lookup,
                status: NfsStatus::NoEnt,
                attr: dir_attr,
                body: ReplyBody::None,
            };
            self.reply(rq, reply, rq.now);
            return Ok(());
        };
        let child = cell.child;
        let attr = self.attrs.get(&child.file).map(|c| c.attr);
        if attr.is_none() {
            // Cross-site link: fetch attributes from the child's home site.
            let file = child.file;
            let op = self.ask(rq, child.home, |op| PeerMsg::GetAttr { op, file });
            rq.waits.insert(op);
        }
        let reply = NfsReply {
            proc: NfsProc::Lookup,
            status: NfsStatus::Ok,
            attr,
            body: ReplyBody::Lookup {
                fh: child.fhandle(),
                dir_attr,
            },
        };
        self.finish(rq, reply, PendingKind::FillAttr);
        Ok(())
    }

    fn create_like(
        &mut self,
        rq: &mut Req,
        dir: &Fhandle,
        name: &str,
        sattr: &Sattr3,
        ftype: FileType,
        symlink: Option<String>,
    ) -> Result<(), NfsStatus> {
        let here = self.config.site;
        let key = name_fingerprint(&dir.0, name.as_bytes());
        let entry_site = self.entry_site(dir, key);
        // Under name hashing a create arriving at a non-owner site means
        // the µproxy holds a stale table; under mkdir switching it is a
        // deliberate redirect.
        self.check_owner(key)?;
        // Local duplicate check when the entry belongs here.
        if entry_site == here && self.names.contains_key(&key) {
            return Err(NfsStatus::Exist);
        }
        // Mint the object locally: fixed placement binds it to this site.
        let file = self.next_file;
        self.next_file += 1;
        let mut attr = Fattr3::new(ftype, file, sattr.mode.unwrap_or(0o644), rq.t);
        Self::apply_sattr(&mut attr, sattr, rq.t);
        attr.nlink = if ftype == FileType::Directory { 2 } else { 1 };
        let (mut flags, proc) = match ftype {
            FileType::Directory => (FH_FLAG_DIR, NfsProc::Mkdir),
            FileType::Symlink => (FH_FLAG_SYMLINK, NfsProc::Symlink),
            FileType::Regular => (0, NfsProc::Create),
        };
        // Per-file policy bits ride in the create mode above the POSIX
        // bit range: bit 16 requests mirrored striping (paper §3.1 allows
        // per-file selection of the mirroring policy).
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
            home: here,
            flags,
            gen: 0,
            key,
        };
        let cell = AttrCell {
            attr,
            entry_count: 0,
            symlink,
            key,
        };
        self.attrs.insert(file, cell);
        rq.gate(self.log_put_attr(rq.now, file));
        let parent = DirRef::of(dir);
        let nlink_delta = i32::from(ftype == FileType::Directory);
        // An entry site that doubles as the parent's home folds the
        // parent update into the insert: it applies both or neither.
        let folded = entry_site != here && parent.home == entry_site;
        if entry_site == here {
            let cell = NameCell {
                parent: parent.file,
                name: name.to_string(),
                child,
            };
            rq.gate(self.log_put_name(rq.now, key, cell));
        } else {
            // Orphan create (mkdir switching redirect): the entry lives at
            // the parent's home site.
            let op = self.ask(rq, entry_site, |op| PeerMsg::InsertEntry {
                op,
                key,
                parent: parent.file,
                name: name.to_string(),
                child,
                replace: false,
            });
            rq.waits.insert(op);
        }
        if !folded {
            let op = self.parent_update(rq, parent, 1, nlink_delta, rq.t);
            rq.waits.extend(op);
        }
        // A parent update made before a remote insert is acknowledged
        // must be taken back if the insert answers EXIST.
        let undo = (entry_site != here && !folded).then_some((parent, nlink_delta));
        let reply = NfsReply {
            proc,
            status: NfsStatus::Ok,
            attr: Some(attr),
            body: ReplyBody::Create {
                fh: Some(child.fhandle()),
            },
        };
        self.finish(rq, reply, PendingKind::Create { file, undo });
        Ok(())
    }

    fn remove_like(
        &mut self,
        rq: &mut Req,
        dir: &Fhandle,
        name: &str,
        is_rmdir: bool,
    ) -> Result<(), NfsStatus> {
        let key = name_fingerprint(&dir.0, name.as_bytes());
        self.check_owner(key)?;
        let child = self.names.get(&key).ok_or(NfsStatus::NoEnt)?.child;
        if is_rmdir != (child.flags & FH_FLAG_DIR != 0) {
            return Err(if is_rmdir {
                NfsStatus::NotDir
            } else {
                NfsStatus::IsDir
            });
        }
        let parent = DirRef::of(dir);
        let kind = if is_rmdir && child.home != self.config.site {
            // Defer every mutation, here and at the parent's home, to the
            // ack: the directory may turn out not to be empty.
            let file = child.file;
            let op = self.ask(rq, child.home, |op| PeerMsg::RemoveDirIfEmpty {
                op,
                dir: file,
            });
            rq.waits.insert(op);
            PendingKind::Rmdir {
                key,
                parent,
                mtime: rq.t,
            }
        } else {
            if is_rmdir {
                self.remove_dir_if_empty(rq, child.file)?;
            }
            rq.gate(self.log_del_name(rq.now, key));
            let op = self.parent_update(rq, parent, -1, -i32::from(is_rmdir), rq.t);
            rq.waits.extend(op);
            // Child link count (files and links only; rmdir retired the
            // cell).
            if !is_rmdir {
                self.link_delta(rq, &child, -1);
            }
            PendingKind::Generic
        };
        let proc = if is_rmdir {
            NfsProc::Rmdir
        } else {
            NfsProc::Remove
        };
        let reply = ok_reply(proc, self.attr_of(parent.file).copied());
        self.finish(rq, reply, kind);
        Ok(())
    }

    fn rename(
        &mut self,
        rq: &mut Req,
        from_dir: &Fhandle,
        from_name: &str,
        to_dir: &Fhandle,
        to_name: &str,
    ) -> Result<(), NfsStatus> {
        let here = self.config.site;
        let from_key = name_fingerprint(&from_dir.0, from_name.as_bytes());
        let to_key = name_fingerprint(&to_dir.0, to_name.as_bytes());
        let child = self.names.get(&from_key).ok_or(NfsStatus::NoEnt)?.child;
        let (from, to) = (DirRef::of(from_dir), DirRef::of(to_dir));
        // Renaming a name onto itself is a POSIX no-op, and must return
        // before touching anything: the source unbind would destroy the
        // freshly (re)bound destination cell, since both share one key.
        if from_key == to_key {
            let reply = ok_reply(NfsProc::Rename, self.attr_of(from.file).copied());
            self.reply(rq, reply, rq.now);
            return Ok(());
        }
        let dest_site = self.entry_site(to_dir, to_key);
        let (kind, displaced) = if dest_site == here {
            let cell = NameCell {
                parent: to.file,
                name: to_name.to_string(),
                child,
            };
            let displaced = self.insert_entry(rq, to_key, cell, true)?;
            rq.gate(self.log_del_name(rq.now, from_key));
            (PendingKind::Generic, displaced)
        } else {
            // The source is unbound, and a displaced child dealt with,
            // when the destination's site has answered.
            let op = self.ask(rq, dest_site, |op| PeerMsg::InsertEntry {
                op,
                key: to_key,
                parent: to.file,
                name: to_name.to_string(),
                child,
                replace: true,
            });
            rq.waits.insert(op);
            (PendingKind::Rename { from_key, to }, None)
        };
        // Parent updates: the entry moves from one directory to the other.
        let nlink_delta = i32::from(child.flags & FH_FLAG_DIR != 0);
        if from.file != to.file {
            for (dir, ed, nd) in [(from, -1, -nlink_delta), (to, 1, nlink_delta)] {
                let op = self.parent_update(rq, dir, ed, nd, rq.t);
                rq.waits.extend(op);
            }
        } else if from.home == here {
            self.parent_update(rq, from, 0, 0, rq.t);
        }
        if let Some(old) = displaced {
            self.displace(rq, to, &old);
        }
        let reply = ok_reply(NfsProc::Rename, self.attr_of(from.file).copied());
        self.finish(rq, reply, kind);
        Ok(())
    }

    fn link(
        &mut self,
        rq: &mut Req,
        fh: &Fhandle,
        dir: &Fhandle,
        name: &str,
    ) -> Result<(), NfsStatus> {
        let key = name_fingerprint(&dir.0, name.as_bytes());
        let child = ChildRef::from_fhandle(fh);
        let cell = NameCell {
            parent: dir.file_id(),
            name: name.to_string(),
            child,
        };
        self.insert_entry(rq, key, cell, false)?;
        // Bump the target's link count, then the parent's entry count.
        let attr = self.link_delta(rq, &child, 1);
        let op = self.parent_update(rq, DirRef::of(dir), 1, 0, rq.t);
        rq.waits.extend(op);
        let reply = ok_reply(NfsProc::Link, attr);
        let kind = if attr.is_none() {
            PendingKind::FillAttr
        } else {
            PendingKind::Generic
        };
        self.finish(rq, reply, kind);
        Ok(())
    }

    /// One page of `dir`'s local entries from `cookie` on. A cookie is the
    /// site being listed (top byte) and how many of its entries are done;
    /// under name hashing the listing chains from site to site.
    fn readdir(&self, dir: &Fhandle, cookie: u64, count: u32, plus: bool) -> NfsReply {
        let (site, skip) = routing::split_cookie(cookie);
        let skip = skip as usize;
        let budget = (count as usize / 32).clamp(4, 256);
        let index = self.dir_index.get(&dir.file_id());
        let mut page: Vec<(DirEntry, Option<ChildRef>)> = index
            .into_iter()
            .flatten()
            .skip(skip)
            .take(budget)
            .zip(skip + 1..)
            .map(|(key, done)| {
                let cell = &self.names[key];
                let entry = DirEntry {
                    fileid: cell.child.file,
                    name: cell.name.clone(),
                    cookie: routing::cookie(site, done as u64),
                };
                (entry, Some(cell.child))
            })
            .collect();
        let local_done = skip + page.len() >= index.map_or(0, |ix| ix.len());
        let chain = local_done
            && self.config.policy == NamePolicy::NameHashing
            && site + 1 < self.config.sites;
        if chain {
            // The page's last cookie must point at the next site; a page
            // with no entries says so through a marker entry named "",
            // which no real entry has. The µproxy absorbs a marker-only
            // page and asks the next site itself.
            let next = routing::cookie(site + 1, 0);
            match page.last_mut() {
                Some((last, _)) => last.cookie = next,
                None => {
                    let marker = DirEntry {
                        fileid: 0,
                        name: String::new(),
                        cookie: next,
                    };
                    page.push((marker, None));
                }
            }
        }
        let eof = local_done && !chain;
        let body = if plus {
            let entries = page.into_iter().map(|(entry, child)| DirEntryPlus {
                entry,
                attr: child.and_then(|c| self.attrs.get(&c.file).map(|c| c.attr)),
                fh: child.map(|c| c.fhandle()),
            });
            ReplyBody::Readdirplus {
                entries: entries.collect(),
                cookieverf: 1,
                eof,
            }
        } else {
            ReplyBody::Readdir {
                entries: page.into_iter().map(|(entry, _)| entry).collect(),
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
            attr: self.attrs.get(&dir.file_id()).map(|c| c.attr),
            body,
        }
    }

    /// Serves a peer-protocol message (including acks for our own ops).
    pub fn handle_peer(&mut self, now: SimTime, from_site: u32, msg: PeerMsg) -> Vec<DirAction> {
        let mut rq = self.begin(now, 0);
        let (op, mutates) = match msg {
            PeerMsg::Ack { op, status, info } => {
                self.process_ack(&mut rq, op, status, info);
                return rq.actions;
            }
            PeerMsg::GetAttr { op, .. } => (op, false),
            PeerMsg::LinkDelta { op, .. }
            | PeerMsg::ParentUpdate { op, .. }
            | PeerMsg::InsertEntry { op, .. }
            | PeerMsg::RemoveDirIfEmpty { op, .. } => (op, true),
        };
        // A mutating op that is delivered again is answered from the
        // table, not applied again.
        let (status, info) = match self.applied_peer.get(&op) {
            Some(done) => done.clone(),
            None => {
                let done = self.apply_peer(&mut rq, msg);
                if mutates {
                    self.applied_peer.insert(op, done.clone());
                    self.durable.append(now, DirLog::AppliedPeer { op }, 16);
                }
                done
            }
        };
        rq.actions.push(DirAction::Peer {
            site: from_site,
            msg: PeerMsg::Ack { op, status, info },
        });
        rq.actions
    }

    /// Applies a peer's request to cells of ours: the same functions the
    /// request path calls when the cell is local.
    fn apply_peer(&mut self, rq: &mut Req, msg: PeerMsg) -> (NfsStatus, PeerInfo) {
        let home = self.config.site;
        match msg {
            PeerMsg::Ack { .. } => unreachable!("acks are folded, not applied"),
            PeerMsg::GetAttr { file, .. } => match self.attrs.get(&file) {
                Some(cell) => {
                    let symlink = cell.symlink.clone();
                    let attr = cell.attr;
                    (NfsStatus::Ok, PeerInfo::Attr { attr, symlink })
                }
                None => (NfsStatus::Stale, PeerInfo::None),
            },
            PeerMsg::LinkDelta {
                file, delta, ctime, ..
            } => match self.apply_link_delta(rq, file, delta, ctime) {
                Some(attr) => (
                    NfsStatus::Ok,
                    PeerInfo::Attr {
                        attr,
                        symlink: None,
                    },
                ),
                None => (NfsStatus::Stale, PeerInfo::None),
            },
            PeerMsg::ParentUpdate {
                dir,
                entry_delta,
                nlink_delta,
                mtime,
                ..
            } => {
                let ours = DirRef { file: dir, home };
                self.parent_update(rq, ours, entry_delta, nlink_delta, mtime);
                (NfsStatus::Ok, PeerInfo::None)
            }
            PeerMsg::InsertEntry {
                key,
                parent,
                name,
                child,
                replace,
                ..
            } => {
                let cell = NameCell {
                    parent,
                    name,
                    child,
                };
                match self.insert_entry(rq, key, cell, replace) {
                    Err(status) => (status, PeerInfo::None),
                    Ok(displaced) => {
                        // The entry site may double as the parent's home:
                        // a create folds its parent update into the insert.
                        // Renames (`replace`) always send an explicit
                        // ParentUpdate, so folding one in here would
                        // double-count the entry.
                        if !replace && self.attrs.contains_key(&parent) {
                            let ours = DirRef { file: parent, home };
                            let nlink_delta = i32::from(child.flags & FH_FLAG_DIR != 0);
                            self.parent_update(rq, ours, 1, nlink_delta, rq.t);
                        }
                        (NfsStatus::Ok, PeerInfo::Replaced { child: displaced })
                    }
                }
            }
            PeerMsg::RemoveDirIfEmpty { dir, .. } => {
                let status = self.remove_dir_if_empty(rq, dir).err();
                (status.unwrap_or(NfsStatus::Ok), PeerInfo::None)
            }
        }
    }

    /// Folds the ack of peer op `op` into the request parked on it, and
    /// replies once nothing is left to wait for.
    fn process_ack(&mut self, rq: &mut Req, op: u64, status: NfsStatus, info: PeerInfo) {
        let Some(pid) = self.wait_to_pending.remove(&op) else {
            return;
        };
        let Some(mut p) = self.pending.remove(&pid) else {
            return;
        };
        p.waits.remove(&op);
        match (&p.kind, info, status) {
            (PendingKind::FillAttr, PeerInfo::Attr { attr, .. }, NfsStatus::Ok) => {
                p.reply.attr = Some(attr);
            }
            (&PendingKind::Create { file, undo }, _, NfsStatus::Exist) => {
                p.reply = NfsReply::error(p.reply.proc, NfsStatus::Exist);
                self.log_del_attr(rq.now, file);
                // Sent and not waited for when the parent is remote: the
                // reply need not wait on pure bookkeeping.
                if let Some((parent, nlink_delta)) = undo {
                    self.parent_update(rq, parent, -1, -nlink_delta, rq.t);
                }
            }
            (&PendingKind::Rmdir { key, parent, mtime }, _, NfsStatus::Ok) => {
                self.log_del_name(rq.now, key);
                // Not waited for either.
                self.parent_update(rq, parent, -1, -1, mtime);
            }
            (PendingKind::FillAttr | PendingKind::Rmdir { .. }, _, refused)
                if refused != NfsStatus::Ok =>
            {
                p.reply = NfsReply::error(p.reply.proc, refused);
            }
            (
                &PendingKind::Rename { from_key, to },
                PeerInfo::Replaced { child },
                NfsStatus::Ok,
            ) => {
                self.log_del_name(rq.now, from_key);
                if let Some(old) = child {
                    self.displace(rq, to, &old);
                }
            }
            _ => {}
        }
        // Peer ops asked while folding join the wait.
        for &w in &rq.waits {
            self.wait_to_pending.insert(w, pid);
        }
        p.waits.extend(rq.waits.drain());
        if !p.waits.is_empty() {
            self.pending.insert(pid, p);
            return;
        }
        let done = DirLog::IntentDone { txid: p.txid };
        let durable = self.durable.append(rq.now, done, 16);
        rq.token = p.token;
        self.reply(rq, p.reply, p.not_before.max(durable));
    }

    /// Simulates a crash: volatile state is lost; the image and the log
    /// (in shared network storage) survive and are returned for the
    /// recovering instance. Every field is named, so one added to
    /// `DirServer` has to be given a fate here before the crate compiles.
    pub fn crash(&mut self) -> DirDurable {
        let DirServer {
            // Cells: memory only, read back from the image.
            names,
            attrs,
            dir_index,
            // Read back from the image's op ids.
            applied_peer,
            // Parked requests die with the process: clients retransmit,
            // and an ack that finds nothing parked is dropped.
            pending,
            wait_to_pending,
            // Shared network storage: handed to whoever restarts the site.
            durable,
            // Set by whoever built or reconfigured the server, who still
            // holds it.
            config: _,
            table: _,
            // Ids that must never repeat — a peer's `applied_peer` would
            // swallow a new op as an old one, a handle would name two
            // files: modelled as surviving (`recover` also raises
            // `next_file` past every cell the image has held).
            next_file: _,
            next_op: _,
            next_tx: _,
            // Statistics of the run, not of the process.
            ops_served: _,
            peer_ops: _,
            multisite_ops: _,
            misdirected: _,
        } = self;
        names.clear();
        attrs.clear();
        dir_index.clear();
        applied_peer.clear();
        pending.clear();
        wait_to_pending.clear();
        std::mem::replace(durable, DirDurable::new(WalParams::default()))
    }

    /// Reads the cells back: the records the log still holds that were
    /// durable by `crash_time` are folded, the rest are gone for good, and
    /// the image is copied into memory — work in the size of the live
    /// state, however long the site has run. In-flight multisite
    /// operations at crash time are dropped (clients retransmit; peers
    /// deduplicate by op id).
    pub fn recover(&mut self, mut durable: DirDurable, crash_time: SimTime) {
        durable.wal.recover(crash_time);
        durable.fold(crash_time);
        for (&key, cell) in &durable.names {
            self.bind(key, cell.clone());
        }
        self.attrs = durable.attrs.clone();
        self.plant_root();
        let answered = |&op| (op, (NfsStatus::Ok, PeerInfo::None));
        self.applied_peer
            .extend(durable.applied_peer.iter().map(answered));
        self.next_file = self.next_file.max(durable.next_file);
        self.durable = durable;
    }
}

#[cfg(test)]
mod crash_guard {
    use super::*;
    use slice_sim::time::SimDuration;

    /// The tables behind `crash`'s destructuring, by size.
    fn volatile(s: &DirServer) -> [usize; 6] {
        [
            s.pending.len(),
            s.wait_to_pending.len(),
            s.applied_peer.len(),
            s.names.len(),
            s.attrs.len(),
            s.dir_index.len(),
        ]
    }

    #[test]
    fn crash_empties_every_volatile_table() {
        let mut s = DirServer::new(DirServerConfig {
            site: 1,
            sites: 2,
            ..Default::default()
        });
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        // A redirected mkdir parks on the root's home site ...
        let mkdir = NfsRequest::Mkdir {
            dir: Fhandle::root(),
            name: "orphan".into(),
            attr: Sattr3::default(),
        };
        let orphan = match &s.handle_nfs(at(1), 7, &mkdir)[..] {
            [DirAction::Peer {
                msg: PeerMsg::InsertEntry { child, .. },
                ..
            }] => child.fhandle(),
            other => panic!("unexpected {other:?}"),
        };
        // ... a create under it binds a name here, and a peer's op leaves
        // its mark.
        let create = NfsRequest::Create {
            dir: orphan,
            name: "kid".into(),
            attr: Sattr3::default(),
        };
        s.handle_nfs(at(2), 8, &create);
        let touch = PeerMsg::LinkDelta {
            op: 99,
            file: orphan.file_id(),
            delta: 1,
            ctime: NfsTime::default(),
        };
        s.handle_peer(at(3), 0, touch);
        assert_eq!(volatile(&s), [1, 1, 1, 1, 2, 1]);
        let wal = s.crash();
        assert_eq!(volatile(&s), [0; 6], "nothing volatile survives a crash");
        s.recover(wal, at(100));
        assert_eq!(
            volatile(&s),
            [0, 0, 1, 1, 2, 1],
            "parked requests stay lost"
        );
    }
}
