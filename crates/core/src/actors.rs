//! Engine actors wrapping the server state machines: storage nodes,
//! directory servers, small-file servers, and block-service coordinators.
//!
//! Each actor charges calibrated CPU time for the work it performs, turns
//! protocol-level actions into network sends, and uses deferred-send
//! timers to model disk and log completion times computed by the
//! underlying state machines.

use slice_sim::FxHashMap;
use std::any::Any;

use slice_dirsvc::{DirAction, DirServer};
use slice_nfsproto::{
    decode_call, encode_reply, view_call, view_reply, BodyView, CallView, Fhandle, NfsProc,
    NfsReply, NfsRequest, Packet, ReplyView, SockAddr, StableHow,
};
use slice_sim::{Actor, Ctx, EventKind, NodeId, SimDuration, SimTime, Subsystem, START_TAG};
use slice_smallfile::{SfAction, SfCtl, SmallFileServer};
use slice_storage::{CoordAction, Coordinator, StorageNode};

use crate::calib;
use crate::wire::{Router, Wire};

/// Schedules messages for future instants via timers.
#[derive(Debug, Default)]
struct DeferredSender {
    stash: FxHashMap<u64, (NodeId, Wire)>,
    next_tag: u64,
}

impl DeferredSender {
    fn send_at(&mut self, ctx: &mut Ctx<'_, Wire>, at: SimTime, to: NodeId, msg: Wire) {
        if at <= ctx.now() {
            ctx.send(to, msg);
        } else {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.stash.insert(tag, (to, msg));
            ctx.set_timer(at - ctx.now(), tag);
        }
    }

    /// Fires a deferred send; returns true if the tag belonged to us.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) -> bool {
        if let Some((to, msg)) = self.stash.remove(&tag) {
            ctx.send(to, msg);
            true
        } else {
            false
        }
    }
}

/// Server CPU for moving `bytes` of payload.
fn payload_cpu(bytes: usize) -> SimDuration {
    calib::STORAGE_CPU_PER_4K.mul_f64(bytes as f64 / 4096.0)
}

/// Server CPU for the payload a decoded READ or WRITE moves.
pub(crate) fn io_cpu(req: &NfsRequest) -> SimDuration {
    payload_cpu(match req {
        NfsRequest::Write { data, .. } => data.len(),
        NfsRequest::Read { count, .. } => *count as usize,
        _ => 0,
    })
}

/// A duplicate request cache (DRC), the standard NFS server defence
/// against non-idempotent retransmissions: replies to recent requests are
/// cached by (client, xid) and replayed verbatim; requests still being
/// processed are dropped so a retry cannot re-execute them.
///
/// The cache stashes the *decoded* reply, not the encoded packet, and the
/// replay path re-encodes (deterministic, so the retransmitted bytes are
/// identical to the originals). Stashing the packet would keep a second
/// reference to its payload alive, which forced the µproxy's in-flight
/// attribute patch into a copy-on-write deep copy on *every* directory
/// reply — millions of copies per untar run to protect against a
/// retransmission that almost never comes. The decoded form shares
/// nothing with the wire path, so the packet the server actually sends is
/// the payload's sole owner and the µproxy patches it in place.
///
/// Completed replies live in a FIFO ring of [`DRC_CAPACITY`] entries; the
/// hash table only maps a key to "in progress" or to its ring position.
/// A ~200-byte `NfsReply` therefore never sits in a hash bucket: the
/// table's buckets are 16 bytes and stay cache-resident, and `complete`
/// writes the reply once, sequentially, into the ring.
#[derive(Debug)]
pub struct ReplyCache {
    /// One map holds both phases of an entry's life (in progress, then
    /// done): the admit/complete pair on every request costs one hash
    /// lookup each instead of crossing a separate set and map. The value
    /// is [`IN_PROGRESS`] or the entry's index in `ring`.
    index: FxHashMap<DrcKey, u32>,
    /// Completed replies, oldest at `oldest` once the ring is full.
    ring: Vec<(DrcKey, NfsReply)>,
    oldest: usize,
}

type DrcKey = (u32, u16, u32);

/// `index` value of a request still being served.
const IN_PROGRESS: u32 = u32::MAX;

impl Default for ReplyCache {
    fn default() -> Self {
        // Headroom above the eviction capacity: at steady state every
        // request inserts one entry and evicts one, and hashbrown turns
        // each removal into a tombstone. Without slack the table
        // rehashes in place every ~capacity/2 requests just to reclaim
        // tombstones; 4x slack makes that reclaim ~8x rarer.
        ReplyCache {
            index: FxHashMap::with_capacity_and_hasher(DRC_CAPACITY * 4, Default::default()),
            ring: Vec::new(),
            oldest: 0,
        }
    }
}

/// DRC capacity (completed entries).
const DRC_CAPACITY: usize = 2048;

/// Outcome of a DRC admission check.
pub enum DrcCheck {
    /// New request: process it.
    Fresh,
    /// Retransmission of a request still being served: drop it.
    InProgress,
    /// Retransmission of a completed request: re-encode and replay this
    /// reply (byte-identical to the original — same xid, same encoder).
    Replay(NfsReply),
}

impl ReplyCache {
    fn key(src: SockAddr, xid: u32) -> DrcKey {
        (src.ip, src.port, xid)
    }

    /// Checks an incoming call and registers it as in progress when fresh.
    pub fn admit(&mut self, src: SockAddr, xid: u32) -> DrcCheck {
        match self.index.entry(Self::key(src, xid)) {
            std::collections::hash_map::Entry::Occupied(e) => match *e.get() {
                IN_PROGRESS => DrcCheck::InProgress,
                at => DrcCheck::Replay(self.ring[at as usize].1.clone()),
            },
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IN_PROGRESS);
                DrcCheck::Fresh
            }
        }
    }

    /// Records the reply for a completed request, evicting the oldest
    /// completed entry once [`DRC_CAPACITY`] are held. Completing a key
    /// that is already complete overwrites its reply in place and keeps
    /// its age.
    pub fn complete(&mut self, dst: SockAddr, xid: u32, reply: NfsReply) {
        let key = Self::key(dst, xid);
        match self.index.get(&key) {
            Some(&at) if at != IN_PROGRESS => self.ring[at as usize].1 = reply,
            _ if self.ring.len() < DRC_CAPACITY => {
                self.index.insert(key, self.ring.len() as u32);
                self.ring.push((key, reply));
            }
            _ => {
                let at = self.oldest;
                self.oldest = (at + 1) % DRC_CAPACITY;
                let evicted = std::mem::replace(&mut self.ring[at], (key, reply));
                self.index.remove(&evicted.0);
                self.index.insert(key, at as u32);
            }
        }
    }

    /// Drops everything (server restart: the DRC is volatile).
    pub fn clear(&mut self) {
        self.index.clear();
        self.ring.clear();
        self.oldest = 0;
    }
}

/// A server actor's place on the network: its address, the map from
/// addresses to nodes, the calls it is serving, and the timers that hold
/// a reply back until the instant its state machine computed for it.
pub(crate) struct Port {
    addr: SockAddr,
    router: Router,
    deferred: DeferredSender,
    /// Calls in service: token -> (caller, xid).
    calls: FxHashMap<u64, (SockAddr, u32)>,
    next_token: u64,
    /// Held by the servers whose operations must not run twice.
    drc: Option<ReplyCache>,
}

impl Port {
    pub(crate) fn new(addr: SockAddr, router: Router, drc: Option<ReplyCache>) -> Self {
        Port {
            addr,
            router,
            deferred: DeferredSender::default(),
            calls: FxHashMap::default(),
            next_token: 1,
            drc,
        }
    }

    /// Sends `payload` from this server to `dst`, now or at `at`.
    pub(crate) fn send(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        dst: SockAddr,
        payload: Vec<u8>,
        at: SimTime,
    ) {
        let pkt = Packet::new(self.addr, dst, payload);
        if let Some(node) = self.router.try_node_of(dst) {
            self.deferred.send_at(ctx, at, node, Wire::Udp(pkt));
        }
    }

    /// Takes a call in: a new one gets the token its reply will name. A
    /// retransmission of a call the DRC has answered is answered again
    /// from it, one of a call still in service is dropped.
    pub(crate) fn admit(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        src: SockAddr,
        xid: u32,
    ) -> Option<u64> {
        match self.drc.as_mut().map(|drc| drc.admit(src, xid)) {
            None | Some(DrcCheck::Fresh) => {}
            Some(DrcCheck::InProgress) => return None,
            Some(DrcCheck::Replay(reply)) => {
                self.send(ctx, src, encode_reply(xid, &reply), ctx.now());
                return None;
            }
        }
        let token = self.next_token;
        self.next_token += 1;
        self.calls.insert(token, (src, xid));
        Some(token)
    }

    /// Answers the call behind `token`, now or at `at`. The DRC keeps the
    /// decoded reply, not the packet: the packet sent stays the sole owner
    /// of its payload, so the µproxy patches attributes into it in place.
    pub(crate) fn reply(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        token: u64,
        reply: NfsReply,
        at: SimTime,
    ) {
        let Some((dst, xid)) = self.calls.remove(&token) else {
            return;
        };
        let payload = encode_reply(xid, &reply);
        if let Some(drc) = &mut self.drc {
            drc.complete(dst, xid, reply);
        }
        self.send(ctx, dst, payload, at);
    }

    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.deferred.on_timer(ctx, tag);
    }

    /// A crash: calls in service, replies held back and the DRC go.
    pub(crate) fn crash(&mut self) {
        self.calls.clear();
        self.deferred.stash.clear();
        if let Some(drc) = &mut self.drc {
            drc.clear();
        }
    }
}

/// A network storage node actor.
pub struct StorageActor {
    /// The storage node state machine.
    pub node: StorageNode,
    port: Port,
}

impl StorageActor {
    /// Creates a storage actor serving at `addr`.
    pub fn new(node: StorageNode, addr: SockAddr, router: Router) -> Self {
        StorageActor {
            node,
            port: Port::new(addr, router, None),
        }
    }
}

impl Actor<Wire> for StorageActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: Wire) {
        match msg {
            Wire::Udp(pkt) => {
                // WRITE data stays in the packet: a retaining store keeps a
                // window of it, a metadata-only one never reads it.
                let Ok((hdr, call)) = view_call(&pkt.payload) else {
                    return;
                };
                let bytes = match &call {
                    CallView::Write { data, .. } => data.len(),
                    CallView::Other(NfsRequest::Read { count, .. }) => *count as usize,
                    CallView::Other(_) => 0,
                };
                ctx.use_cpu(calib::STORAGE_REQ_CPU + payload_cpu(bytes));
                let seeks_before = self.node.disk_seeks();
                let (done, reply) = match call {
                    CallView::Write {
                        fh,
                        offset,
                        stable,
                        data,
                    } => {
                        let (done, reply) =
                            self.node
                                .write(ctx.now(), &fh, offset, stable, &pkt.payload, data);
                        (done, encode_reply(hdr.xid, &reply))
                    }
                    CallView::Other(NfsRequest::Read { fh, offset, count }) => self
                        .node
                        .read_encoded(ctx.now(), hdr.xid, &fh, offset, count),
                    CallView::Other(req) => {
                        let (done, reply) = self.node.handle_nfs(ctx.now(), &req);
                        (done, encode_reply(hdr.xid, &reply))
                    }
                };
                let (seeks, seek_ns) = self.node.disk_seeks();
                if seeks > seeks_before.0 {
                    ctx.trace(
                        Subsystem::Disk,
                        EventKind::DiskSeek {
                            node: ctx.node().0 as usize,
                            nanos: seek_ns - seeks_before.1,
                        },
                    );
                }
                self.port.send(ctx, pkt.src, reply, done);
            }
            Wire::Ctl(ctl) => {
                ctx.use_cpu(calib::STORAGE_REQ_CPU);
                let (done, reply) = self.node.handle_ctl(ctx.now(), &ctl);
                let reply = Wire::CtlReply(reply);
                self.port.deferred.send_at(ctx, done, from, reply);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.port.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, _now: SimTime) {
        self.node.crash_restart();
        self.port.crash();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A directory server actor.
pub struct DirActor {
    /// The directory server state machine.
    pub server: DirServer,
    site: u32,
    port: Port,
    dir_nodes: Vec<NodeId>,
    coord_node: NodeId,
    sf_nodes: Vec<NodeId>,
    next_req_id: u64,
    /// Image and log preserved across a crash (they live in shared
    /// network storage).
    crashed: Option<(slice_dirsvc::DirDurable, SimTime)>,
}

impl DirActor {
    /// Creates a directory actor for `site` at `addr`.
    pub fn new(
        server: DirServer,
        site: u32,
        addr: SockAddr,
        router: Router,
        dir_nodes: Vec<NodeId>,
        coord_node: NodeId,
        sf_nodes: Vec<NodeId>,
    ) -> Self {
        DirActor {
            server,
            site,
            port: Port::new(addr, router, Some(ReplyCache::default())),
            dir_nodes,
            coord_node,
            sf_nodes,
            next_req_id: 1,
            crashed: None,
        }
    }

    /// Fans a name-space operation's effect on `file`'s data out to the
    /// block-service coordinator and the file's small-file server.
    fn data_effect(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        file: u64,
        coord: impl FnOnce(u64) -> slice_storage::CoordMsg,
        sf: SfCtl,
    ) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        ctx.send(self.coord_node, Wire::Coord(coord(req_id)));
        if !self.sf_nodes.is_empty() {
            let server = slice_hashes::sf_server_of(file, self.sf_nodes.len());
            ctx.send(self.sf_nodes[server], Wire::SfCtl(sf));
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<DirAction>) {
        for action in actions {
            match action {
                DirAction::Reply { token, reply, at } => self.port.reply(ctx, token, reply, at),
                DirAction::Peer { site, msg } => {
                    let node = self.dir_nodes[site as usize % self.dir_nodes.len()];
                    ctx.send(
                        node,
                        Wire::Peer {
                            from_site: self.site,
                            msg,
                        },
                    );
                }
                DirAction::DataRemove { file } => self.data_effect(
                    ctx,
                    file,
                    |req_id| slice_storage::CoordMsg::RemoveFile { req_id, file },
                    SfCtl::Remove { file },
                ),
                DirAction::DataTruncate { file, size } => self.data_effect(
                    ctx,
                    file,
                    |req_id| slice_storage::CoordMsg::TruncateFile { req_id, file, size },
                    SfCtl::Truncate { file, size },
                ),
            }
        }
    }
}

impl Actor<Wire> for DirActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        match msg {
            Wire::Udp(pkt) => {
                let Ok((hdr, req)) = decode_call(&pkt.payload) else {
                    return;
                };
                ctx.use_cpu(calib::DIR_OP_CPU);
                let Some(token) = self.port.admit(ctx, pkt.src, hdr.xid) else {
                    return;
                };
                let actions = self.server.handle_nfs(ctx.now(), token, &req);
                self.dispatch(ctx, actions);
            }
            Wire::Peer { from_site, msg } => {
                ctx.use_cpu(calib::DIR_PEER_CPU);
                let actions = self.server.handle_peer(ctx.now(), from_site, msg);
                self.dispatch(ctx, actions);
            }
            Wire::CoordReply(_) => {
                // Data-removal completions need no action here.
            }
            Wire::TableFetch => {
                ctx.send(_from, Wire::TableData(self.server.table().clone()));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.port.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, now: SimTime) {
        // Volatile state is lost; the image and the log survive in shared
        // storage, the log up to the crash instant.
        self.crashed = Some((self.server.crash(), now));
        self.port.crash();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((durable, crash_time)) = self.crashed.take() {
            // Fast failover: read backing objects + log (paper §2.3).
            ctx.use_cpu(SimDuration::from_millis(50));
            self.server.recover(durable, crash_time);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A small-file server actor.
pub struct SmallFileActor {
    /// The small-file server state machine.
    pub server: SmallFileServer,
    port: Port,
    storage_addrs: Vec<SockAddr>,
    /// Backing RPC xid -> (sf tag, read?).
    backing: FxHashMap<u32, (u64, bool)>,
    next_xid: u32,
    crashed_wal: Option<(slice_storage::Wal<slice_smallfile::SfLog>, SimTime)>,
}

impl SmallFileActor {
    /// Creates a small-file actor at `addr`, issuing backing I/O to
    /// `storage_addrs` by site index.
    pub fn new(
        server: SmallFileServer,
        addr: SockAddr,
        router: Router,
        storage_addrs: Vec<SockAddr>,
    ) -> Self {
        SmallFileActor {
            server,
            port: Port::new(addr, router, None),
            storage_addrs,
            backing: FxHashMap::default(),
            next_xid: 1,
            crashed_wal: None,
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<SfAction>) {
        for action in actions {
            match action {
                SfAction::Reply { token, reply } => self.port.reply(ctx, token, reply, ctx.now()),
                SfAction::BackingRead {
                    tag,
                    site,
                    obj,
                    offset,
                    len,
                } => {
                    let req = NfsRequest::Read {
                        fh: Fhandle::new(obj, 0, 0, 0, 0),
                        offset,
                        count: len,
                    };
                    self.backing_call(ctx, tag, true, site, &req);
                }
                SfAction::BackingWrite {
                    tag,
                    site,
                    obj,
                    offset,
                    data,
                    stable,
                } => {
                    let req = NfsRequest::Write {
                        fh: Fhandle::new(obj, 0, 0, 0, 0),
                        offset,
                        stable: if stable {
                            StableHow::FileSync
                        } else {
                            StableHow::Unstable
                        },
                        data,
                    };
                    self.backing_call(ctx, tag, false, site, &req);
                }
            }
        }
    }

    /// Sends `req` to storage `site` under the next backing xid; a
    /// completion is expected back unless `tag` is 0 (fire and forget).
    fn backing_call(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        tag: u64,
        is_read: bool,
        site: u32,
        req: &NfsRequest,
    ) {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        if tag != 0 {
            self.backing.insert(xid, (tag, is_read));
        }
        let payload = slice_nfsproto::encode_call(xid, &slice_nfsproto::AuthUnix::default(), req);
        let addr = self.storage_addrs[site as usize % self.storage_addrs.len()];
        self.port.send(ctx, addr, payload, ctx.now());
    }
}

impl Actor<Wire> for SmallFileActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        match msg {
            Wire::Udp(pkt) => {
                let Ok((xid, msg_type)) = slice_nfsproto::peek_xid_type(&pkt.payload) else {
                    return;
                };
                if msg_type == slice_nfsproto::MSG_CALL {
                    let Ok((hdr, req)) = decode_call(&pkt.payload) else {
                        return;
                    };
                    ctx.use_cpu(calib::SF_OP_CPU + io_cpu(&req));
                    let Some(token) = self.port.admit(ctx, pkt.src, hdr.xid) else {
                        return;
                    };
                    let actions = self.server.handle_nfs(ctx.now(), token, req);
                    self.dispatch(ctx, actions);
                } else {
                    // A backing-I/O completion from a storage node.
                    let Some((tag, is_read)) = self.backing.remove(&xid) else {
                        return;
                    };
                    // Only a retaining server keeps the bytes a backing
                    // read fetched; otherwise they stay in the packet.
                    let data = if is_read && self.server.retains_data() {
                        match view_reply(&pkt.payload, NfsProc::Read) {
                            Ok((
                                _,
                                ReplyView {
                                    body: BodyView::Read { data, .. },
                                    ..
                                },
                            )) => Some(pkt.payload[data].to_vec()),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let actions = self.server.handle_backing_done(ctx.now(), tag, data);
                    self.dispatch(ctx, actions);
                }
            }
            Wire::SfCtl(ctl) => {
                ctx.use_cpu(calib::SF_OP_CPU);
                let actions = self.server.handle_ctl(ctx.now(), &ctl);
                self.dispatch(ctx, actions);
            }
            _ => {}
        }
    }

    fn on_fail(&mut self, now: SimTime) {
        let wal = self.server.crash();
        self.crashed_wal = Some((wal, now));
        self.port.crash();
        self.backing.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((wal, crash_time)) = self.crashed_wal.take() {
            ctx.use_cpu(SimDuration::from_millis(50));
            self.server.recover(wal, crash_time);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const COORD_SWEEP_TAG: u64 = 1 << 41;
const COORD_SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// A block-service coordinator actor.
pub struct CoordActor {
    /// The coordinator state machine.
    pub coord: Coordinator,
    storage_nodes: Vec<NodeId>,
    deferred: DeferredSender,
    crashed_wal: Option<(slice_storage::Wal<slice_storage::IntentRecord>, SimTime)>,
    /// True while the timeout sweep timer is pending. The sweep only runs
    /// while intentions are open — an idle coordinator must not keep the
    /// event queue alive forever.
    sweep_armed: bool,
    /// Actions produced by quiesced direct mutation (the ensemble's
    /// reconfiguration drivers call into `coord` between engine steps);
    /// dispatched at the next kick, when a `Ctx` is available.
    pending_reconf: Vec<CoordAction>,
}

impl CoordActor {
    /// Creates a coordinator actor over the given storage nodes.
    pub fn new(coord: Coordinator, storage_nodes: Vec<NodeId>) -> Self {
        CoordActor {
            coord,
            storage_nodes,
            deferred: DeferredSender::default(),
            crashed_wal: None,
            sweep_armed: false,
            pending_reconf: Vec::new(),
        }
    }

    /// Queues coordinator actions produced outside an engine step; they
    /// are dispatched at the next kick (`START_TAG`).
    pub fn stash_reconf(&mut self, actions: Vec<CoordAction>) {
        self.pending_reconf.extend(actions);
    }

    fn arm_sweep_if_busy(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if !self.sweep_armed && self.coord.needs_sweep() {
            ctx.set_timer(COORD_SWEEP_INTERVAL, COORD_SWEEP_TAG);
            self.sweep_armed = true;
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<CoordAction>) {
        for action in actions {
            match action {
                CoordAction::Reply { to, reply, at } => {
                    self.deferred
                        .send_at(ctx, at, NodeId(to as u32), Wire::CoordReply(reply));
                }
                CoordAction::SendCtl { site, ctl } => {
                    let node = self.storage_nodes[site as usize % self.storage_nodes.len()];
                    ctx.send(node, Wire::Ctl(ctl));
                }
            }
        }
        // Surface resynchronization progress in the trace stream and the
        // metrics registry (slice-ha availability timeline).
        for (site, done, _at, bytes) in self.coord.take_resync_events() {
            if done {
                ctx.obs().registry.add("coord.resyncs_completed", 1);
                ctx.trace(
                    Subsystem::Coord,
                    EventKind::ResyncDone {
                        site: site as usize,
                        bytes,
                    },
                );
            } else {
                ctx.obs().registry.add("coord.resyncs_started", 1);
                ctx.trace(
                    Subsystem::Coord,
                    EventKind::ResyncStart {
                        site: site as usize,
                    },
                );
            }
        }
    }
}

impl Actor<Wire> for CoordActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: Wire) {
        match msg {
            Wire::Coord(m) => {
                ctx.use_cpu(calib::COORD_MSG_CPU);
                let actions = self.coord.handle(ctx.now(), u64::from(from.0), m);
                self.dispatch(ctx, actions);
                self.arm_sweep_if_busy(ctx);
            }
            Wire::CtlReply(reply) => {
                ctx.use_cpu(calib::COORD_MSG_CPU);
                // Only a storage site's answer counts, for that site.
                let Some(site) = self.storage_nodes.iter().position(|&n| n == from) else {
                    return;
                };
                let actions = self.coord.handle_ctl_reply(ctx.now(), site as u32, reply);
                self.dispatch(ctx, actions);
                self.arm_sweep_if_busy(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        if tag == COORD_SWEEP_TAG {
            self.sweep_armed = false;
            let actions = self.coord.check_timeouts(ctx.now());
            self.dispatch(ctx, actions);
            self.arm_sweep_if_busy(ctx);
            return;
        }
        if tag == START_TAG {
            if !self.pending_reconf.is_empty() {
                let stashed = std::mem::take(&mut self.pending_reconf);
                self.dispatch(ctx, stashed);
            }
            self.arm_sweep_if_busy(ctx);
            return;
        }
        self.deferred.on_timer(ctx, tag);
    }

    fn on_fail(&mut self, now: SimTime) {
        let wal = self.coord.crash();
        self.crashed_wal = Some((wal, now));
        self.deferred.stash.clear();
        // Undelivered reconfiguration actions die with the crash; WAL
        // replay reconstructs the retirement state that produced them.
        self.pending_reconf.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some((wal, crash_time)) = self.crashed_wal.take() {
            ctx.use_cpu(SimDuration::from_millis(20));
            // Recovery scans the intentions log and probes participants
            // for operations in progress at the crash (paper §3.3.2).
            let actions = self.coord.recover(ctx.now(), wal, crash_time);
            self.dispatch(ctx, actions);
        }
        self.sweep_armed = false;
        self.arm_sweep_if_busy(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slice_nfsproto::{NfsReply, NfsStatus, ReplyBody};
    use slice_sim::Rng;

    /// The DRC's rules, spelled out naively: completed entries in arrival
    /// order with a linear search, in-progress keys beside them.
    #[derive(Default)]
    struct NaiveDrc {
        in_progress: Vec<DrcKey>,
        done: Vec<(DrcKey, u32)>,
    }

    /// What an operation on the naive model answers: `Replay` carries the
    /// mask that identifies the stashed reply.
    #[derive(Debug, PartialEq)]
    enum Expect {
        Fresh,
        InProgress,
        Replay(u32),
    }

    impl NaiveDrc {
        fn admit(&mut self, key: DrcKey) -> Expect {
            if self.in_progress.contains(&key) {
                Expect::InProgress
            } else if let Some((_, mask)) = self.done.iter().find(|(k, _)| *k == key) {
                Expect::Replay(*mask)
            } else {
                self.in_progress.push(key);
                Expect::Fresh
            }
        }

        /// Returns `(re-completed, evicted)` for the coverage counts.
        fn complete(&mut self, key: DrcKey, mask: u32) -> (bool, bool) {
            if let Some(entry) = self.done.iter_mut().find(|(k, _)| *k == key) {
                entry.1 = mask;
                return (true, false);
            }
            self.in_progress.retain(|k| *k != key);
            self.done.push((key, mask));
            let evict = self.done.len() > DRC_CAPACITY;
            if evict {
                self.done.remove(0);
            }
            (false, evict)
        }
    }

    fn reply(mask: u32) -> NfsReply {
        NfsReply {
            proc: NfsProc::Access,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Access { mask },
        }
    }

    /// Keeps what it is sent.
    #[derive(Default)]
    struct Sink(Vec<Wire>);

    impl Actor<Wire> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
            self.0.push(msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn control_reply_from_a_node_that_is_no_storage_site_is_dropped() {
        use slice_storage::{CoordMsg, StorageCtl, StorageCtlReply};
        let mut engine: slice_sim::Engine<Wire> =
            slice_sim::Engine::new(slice_sim::NetConfig::gigabit(), 1);
        let dir = engine.add_node("dir", Box::new(Sink::default()));
        let site0 = engine.add_node("storage0", Box::new(Sink::default()));
        let stranger = engine.add_node("stranger", Box::new(Sink::default()));
        let actor = CoordActor::new(Coordinator::new(1), vec![site0]);
        let coord = engine.add_node("coord", Box::new(actor));

        // A remove fans out to site 0, which (a sink) never answers.
        let step = |engine: &mut slice_sim::Engine<Wire>, from, msg| {
            engine.inject(from, coord, msg);
            engine.run_until(engine.now() + SimDuration::from_millis(1));
        };
        let remove = CoordMsg::RemoveFile { req_id: 1, file: 5 };
        step(&mut engine, dir, Wire::Coord(remove));
        let [Wire::Ctl(StorageCtl::Remove { obj: 5, intent })] = engine.actor::<Sink>(site0).0[..]
        else {
            panic!("one remove leg at site 0");
        };
        // Someone else's `Done` for that leg is not site 0's.
        let done = StorageCtlReply::Done { intent };
        step(&mut engine, stranger, Wire::CtlReply(done.clone()));
        assert_eq!(engine.actor::<CoordActor>(coord).coord.open_intents(), 1);
        assert!(
            engine.actor::<Sink>(dir).0.is_empty(),
            "nothing is done yet"
        );
        // Site 0's own is.
        step(&mut engine, site0, Wire::CtlReply(done));
        assert_eq!(engine.actor::<CoordActor>(coord).coord.open_intents(), 0);
        assert_eq!(engine.actor::<Sink>(dir).0.len(), 1, "RemoveDone");
    }

    #[test]
    fn reply_cache_matches_the_naive_model() {
        // A key pool a little larger than the capacity: most admits are
        // retransmissions, and a completion of a key outside the ring
        // evicts at capacity.
        const POOL: u32 = DRC_CAPACITY as u32 + 300;
        const STEPS: u32 = 200_000;
        let mut rng = Rng::seed_from_u64(0xd5c);
        let mut drc = ReplyCache::default();
        let mut model = NaiveDrc::default();
        let (mut replays, mut in_progress, mut recompletes, mut evictions) = (0u32, 0, 0, 0);
        for step in 0..STEPS {
            let n = rng.gen_range(0..POOL);
            let addr = SockAddr::new(0x0a00_0100 + n % 7, 700 + (n % 3) as u16);
            let (xid, key) = (n, (addr.ip, addr.port, n));
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let got = admit(&mut drc, addr, xid);
                    assert_eq!(got, model.admit(key), "step {step}: admit {key:?}");
                    match got {
                        Expect::Replay(_) => replays += 1,
                        Expect::InProgress => in_progress += 1,
                        Expect::Fresh => {}
                    }
                }
                55..=98 => {
                    drc.complete(addr, xid, reply(step));
                    let (again, evicted) = model.complete(key, step);
                    recompletes += u32::from(again);
                    evictions += u32::from(evicted);
                }
                _ if rng.gen_range(0..500u32) == 0 => {
                    drc.clear();
                    model = NaiveDrc::default();
                }
                _ => {}
            }
        }
        // Every rule was exercised, not just compared.
        assert!(replays > 10_000, "{replays} replays");
        assert!(in_progress > 1_000, "{in_progress} in-progress hits");
        assert!(recompletes > 10_000, "{recompletes} re-completions");
        assert!(evictions > 1_000, "{evictions} evictions at capacity");
        // And what is left answers as the model does, key by key.
        for n in 0..POOL {
            let addr = SockAddr::new(0x0a00_0100 + n % 7, 700 + (n % 3) as u16);
            let got = admit(&mut drc, addr, n);
            assert_eq!(
                got,
                model.admit((addr.ip, addr.port, n)),
                "final sweep, key {n}"
            );
        }
    }

    /// Admits on the real cache and reads the answer back in the model's
    /// terms; a replayed reply must be one this test stashed, intact.
    fn admit(drc: &mut ReplyCache, addr: SockAddr, xid: u32) -> Expect {
        match drc.admit(addr, xid) {
            DrcCheck::Fresh => Expect::Fresh,
            DrcCheck::InProgress => Expect::InProgress,
            DrcCheck::Replay(r) => match r.body {
                ReplyBody::Access { mask } if r == reply(mask) => Expect::Replay(mask),
                _ => panic!("not a reply this test stashed: {r:?}"),
            },
        }
    }
}
