//! The µproxy: an interposed request-routing packet filter.
//!
//! The µproxy "intercepts NFS requests addressed to virtual NFS servers,
//! and routes the request to a physical server by applying a function to
//! the request type and arguments. It then rewrites the IP address and
//! port to redirect the request to the selected server. When a response
//! arrives, the µproxy rewrites the source address and port before
//! forwarding it to the client" (paper §3). It is a nonblocking state
//! machine whose soft state consists of pending-request records, routing
//! tables, a block-map cache, and an attribute cache; it may initiate and
//! absorb packets (attribute write-backs, coordinator intentions) and is
//! free to lose its state — end-to-end RPC retransmission recovers.
//!
//! Per-packet work is accounted in four phases matching the paper's
//! Table 3: interception, decode, redirect/rewrite, and soft-state
//! maintenance; [`Uproxy::phase_stats`] reports real measured CPU
//! nanoseconds per phase, split by one lap stopwatch (`PhaseClock`) so
//! no nanosecond of a packet's handling is charged to two phases.

use slice_sim::FxHashMap;
use std::time::Instant;

use slice_hashes::{name_fingerprint, NamePolicy, RoutingTable};
use slice_nfsproto::{
    encode_call, view_call, view_reply, AuthUnix, BodyView, ByteBuf, CallView, Fhandle, NfsProc,
    NfsReply, NfsRequest, NfsStatus, NfsTime, Packet, ReplyBody, ReplyView, Sattr3, SetTime,
    SockAddr, StableHow, REPLY_ATTR_OFFSET,
};
use slice_sim::{SimDuration, SimTime};
use slice_storage::{CoordMsg, CoordReply, IntentKind};
use slice_xdr::XdrEncoder;
use std::ops::Range;

use crate::attrcache::AttrCache;

mod coded;
use coded::{LegOp, LegRole};

/// Replication degree of a mirrored file under static placement.
pub const MIRROR_COPIES: u32 = 2;
/// Attribute cache capacity (entries).
pub const ATTR_CACHE_ENTRIES: usize = 4096;
/// Dirty attributes older than this are pushed back on [`Uproxy::tick`]
/// (the de-facto three-second window).
pub const ATTR_WRITEBACK: SimDuration = SimDuration::from_secs(3);
/// Retransmission strikes before a storage site is suspected down and
/// removed from the mirrored-read rotation.
pub const SUSPECT_AFTER: u32 = 2;
/// The threshold offset (64 KiB in the prototype): a file's bytes below
/// it live on its small-file server, the rest on the storage array.
pub const THRESHOLD: u64 = 64 * 1024;
/// The stripe unit of bulk placement: static striping, block maps and
/// coded stripes all cut a file's bulk region at this grain.
pub const STRIPE_UNIT: u64 = 64 * 1024;

/// µproxy configuration: the ensemble map and the routing policies.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// The virtual NFS server address clients mount.
    pub virtual_addr: SockAddr,
    /// This client's address (source for µproxy-initiated packets).
    pub client_addr: SockAddr,
    /// Directory server addresses by physical index.
    pub dir_sites: Vec<SockAddr>,
    /// Small-file server addresses (empty disables the threshold split).
    pub sf_sites: Vec<SockAddr>,
    /// Storage node addresses by physical index.
    pub storage_sites: Vec<SockAddr>,
    /// Name-space policy.
    pub name_policy: NamePolicy,
    /// Erasure-coded layout `(n, k)` for mapped files' bulk regions.
    /// `None` keeps the mirrored/striped layouts. Requires
    /// [`ProxyConfig::use_block_maps`] and a coordinator running the same
    /// coded default placement.
    pub coded: Option<(u32, u32)>,
    /// Route bulk I/O through coordinator block maps instead of the
    /// static placement function.
    pub use_block_maps: bool,
    /// Wrap multisite commits in coordinator intentions.
    pub use_intents: bool,
    /// Interval between liveness probes of a suspected site (also the
    /// probe retry deadline when a coordinator does not answer).
    pub probe_interval: SimDuration,
    /// Sliding window for hot-set detection: per-file data-op counts are
    /// kept over roughly the last window (two half-window buckets).
    pub hot_window: SimDuration,
    /// Measure real per-phase CPU cost with `Instant::now` (Table 3
    /// benchmarking). Off by default: wall-clock reads are nondeterminism
    /// smuggled into an otherwise seeded simulation, and they cost one
    /// syscall-ish timer read per phase boundary on the packet path. When
    /// off, [`Uproxy::phase_stats`] reports zeros.
    pub measure_phases: bool,
}

impl ProxyConfig {
    /// A small single-client test configuration.
    pub fn test_default() -> Self {
        ProxyConfig {
            virtual_addr: SockAddr::new(0x0a00_00ff, 2049),
            client_addr: SockAddr::new(0x0a00_0001, 700),
            dir_sites: vec![SockAddr::new(0x0a00_1000, 2049)],
            sf_sites: vec![SockAddr::new(0x0a00_2000, 2049)],
            storage_sites: vec![
                SockAddr::new(0x0a00_3000, 2049),
                SockAddr::new(0x0a00_3001, 2049),
            ],
            name_policy: NamePolicy::MkdirSwitching { redirect_millis: 0 },
            coded: None,
            use_block_maps: false,
            use_intents: true,
            probe_interval: SimDuration::from_secs(2),
            hot_window: SimDuration::from_secs(10),
            measure_phases: false,
        }
    }
}

/// Outputs of a µproxy step, dispatched by the host.
#[derive(Debug, Clone)]
pub enum ProxyOut {
    /// Forward a (rewritten) packet into the network.
    Net(Packet),
    /// Deliver a (rewritten) packet up to the local client stack.
    Client(Packet),
    /// Send a typed message to the block-service coordinator.
    Coord(CoordMsg),
    /// A directory server bounced a request as misdirected: the routing
    /// table is stale and must be refreshed from an external source
    /// (paper §3.3.1 — tables are hints loaded lazily).
    NeedDirTable,
    /// An availability event for the host's trace stream (suspicion,
    /// failover, degraded writes).
    Trace(slice_obs::EventKind),
}

/// Per-storage-site failure-suspicion state (slice-ha). Suspicion is
/// raised locally from observed retransmissions but cleared only by a
/// coordinator-verified probe: a site that looks alive to the µproxy may
/// still hold dirty regions that would satisfy reads with stale bytes.
#[derive(Debug, Clone)]
struct SiteHealth {
    /// Consecutive unanswered-retransmission strikes.
    strikes: u32,
    /// Removed from the mirrored-read rotation while set.
    suspected: bool,
    /// Next time a liveness probe may be issued for this site.
    probe_at: SimTime,
    /// A coordinator probe is out and unanswered.
    probing: bool,
}

impl SiteHealth {
    fn new() -> Self {
        SiteHealth {
            strikes: 0,
            suspected: false,
            probe_at: SimTime::ZERO,
            probing: false,
        }
    }
}

/// Sliding-window operation counter over two half-window buckets: the
/// reported count for an id is its total over the current and previous
/// half windows, so the view always spans between one and two half
/// windows of history with O(1) roll-over cost.
#[derive(Debug)]
struct HotTracker {
    half: SimDuration,
    epoch_start: SimTime,
    cur: FxHashMap<u64, u64>,
    prev: FxHashMap<u64, u64>,
}

impl HotTracker {
    fn new(window: SimDuration) -> Self {
        HotTracker {
            half: SimDuration::from_nanos((window.as_nanos() / 2).max(1)),
            epoch_start: SimTime::ZERO,
            cur: FxHashMap::default(),
            prev: FxHashMap::default(),
        }
    }

    fn roll(&mut self, now: SimTime) {
        if now < self.epoch_start + self.half {
            return;
        }
        if now >= self.epoch_start + self.half + self.half {
            // Idle gap longer than the window: both buckets are stale.
            self.cur.clear();
            self.prev.clear();
            self.epoch_start = now;
            return;
        }
        self.prev = std::mem::take(&mut self.cur);
        self.epoch_start += self.half;
    }

    fn note(&mut self, now: SimTime, id: u64) {
        self.roll(now);
        *self.cur.entry(id).or_insert(0) += 1;
    }

    /// Ids with at least `min` ops in the window, hottest first (count
    /// descending, id ascending — deterministic).
    fn hot(&self, min: u64) -> Vec<(u64, u64)> {
        let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (&id, &n) in self.prev.iter().chain(self.cur.iter()) {
            *merged.entry(id).or_insert(0) += n;
        }
        let mut out: Vec<(u64, u64)> = merged.into_iter().filter(|&(_, n)| n >= min).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn entries(&self) -> usize {
        self.cur.len() + self.prev.len()
    }
}

/// A mirrored write parked while the coordinator logs its missed mirror
/// ranges: (original packet, live sites, missed sites, byte count).
type ParkedWrite = (Packet, Vec<u32>, Vec<u32>, u64);

/// Which server class a pending request was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Dir,
    SmallFile,
    Storage,
}

/// What a pending record is: whose request it tracks and what its last
/// reply is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The client's own packet(s), re-addressed in place under the
    /// client's xid: the last reply is rewritten in place and sent up.
    Forward,
    /// A commit fan-out guarded by a coordinator intention, which the last
    /// reply completes before it is sent up like any forward.
    Commit { intent: u64 },
    /// A µproxy-initiated attribute write-back, absorbed on reply: the
    /// cache entry is cleaned only when this push of `version` is
    /// acknowledged.
    Push { file: u64, version: u64 },
    /// A leg of the leg op filed under the client's xid `parent`, absorbed
    /// into it.
    Leg { parent: u32, role: LegRole },
}

#[derive(Debug, Clone)]
struct PendingReq {
    proc: NfsProc,
    fh: Option<Fhandle>,
    offset: u64,
    len: u32,
    class: Class,
    /// Replies still expected (more than one for a fan-out).
    remaining: u32,
    client_src: SockAddr,
    /// Storage site indices still owed a reply for this request; a
    /// client retransmission strikes exactly these.
    awaiting: Vec<u32>,
    kind: Pending,
}

impl PendingReq {
    /// A forwarded request in flight with one reply expected, to be sent
    /// up to `client_src`. Callers adjust the record for fan-outs and
    /// µproxy-owned requests before filing it.
    fn new(
        proc: NfsProc,
        fh: Option<Fhandle>,
        offset: u64,
        len: u32,
        class: Class,
        client_src: SockAddr,
    ) -> Self {
        Self {
            proc,
            fh,
            offset,
            len,
            class,
            remaining: 1,
            client_src,
            awaiting: Vec::new(),
            kind: Pending::Forward,
        }
    }
}

/// A READ or WRITE that reaches the bulk region, as [`Uproxy::route_bulk`]
/// and the planners under it see it.
#[derive(Debug, Clone, Copy)]
struct BulkCall {
    xid: u32,
    fh: Fhandle,
    /// The client's range.
    offset: u64,
    len: u32,
    /// Where the bulk part starts: `offset`, or the threshold when the
    /// request straddles it (the bytes below go to the small-file server).
    lo: u64,
    client_src: SockAddr,
}

impl BulkCall {
    fn end(&self) -> u64 {
        self.offset + u64::from(self.len)
    }
}

/// A reply on its way in, as the stages of [`Uproxy::inbound`] share it.
struct Inbound {
    pkt: Packet,
    xid: u32,
    /// `None` when the payload does not decode as a reply to the request.
    reply: Option<ReplyView>,
    /// The storage site that sent it, if one did.
    src_site: Option<u32>,
}

/// How many bytes a READ of `[offset, offset + len)` returns from a file
/// of `size` bytes.
fn read_len(offset: u64, len: u32, size: u64) -> usize {
    size.saturating_sub(offset).min(u64::from(len)) as usize
}

/// The body of a READ of `[offset, offset + len)` the µproxy assembles
/// itself: every window `(file offset, bytes)` laid over zeros, against
/// the global file `size`. Servers know only their local extent, so a hole
/// or a short tail reads as zeros and whatever lies past EOF is clipped.
fn read_body<'a>(
    offset: u64,
    len: u32,
    size: u64,
    windows: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> ReplyBody {
    let expected = read_len(offset, len, size);
    let mut data = vec![0u8; expected];
    for (pos, bytes) in windows {
        let start = (pos - offset) as usize;
        if start < expected {
            let n = bytes.len().min(expected - start);
            data[start..start + n].copy_from_slice(&bytes[..n]);
        }
    }
    ReplyBody::Read {
        data,
        eof: offset + expected as u64 >= size,
    }
}

/// The cookie a page of nothing but a listing's chain marker (the one
/// entry named "") points on with.
fn chain_marker(reply: &ReplyView) -> Option<u64> {
    let entry = match &reply.body {
        BodyView::Other(ReplyBody::Readdir { entries, eof, .. }) => (!eof).then(|| entries.first()),
        BodyView::Other(ReplyBody::Readdirplus { entries, eof, .. }) => {
            (!eof).then(|| entries.first().map(|e| &e.entry))
        }
        _ => None,
    };
    match entry.flatten() {
        Some(e) if e.name.is_empty() => Some(e.cookie),
        _ => None,
    }
}

/// Real-time cost accounting for the four µproxy phases (Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Packet interception nanoseconds.
    pub intercept_ns: u64,
    /// Packet decode nanoseconds.
    pub decode_ns: u64,
    /// Redirection/rewriting nanoseconds.
    pub rewrite_ns: u64,
    /// Soft-state maintenance nanoseconds.
    pub soft_ns: u64,
    /// Packets processed (requests + responses).
    pub packets: u64,
}

impl PhaseStats {
    /// Accumulates another measurement (all fields are sums).
    pub fn absorb(&mut self, other: &PhaseStats) {
        self.intercept_ns += other.intercept_ns;
        self.decode_ns += other.decode_ns;
        self.rewrite_ns += other.rewrite_ns;
        self.soft_ns += other.soft_ns;
        self.packets += other.packets;
    }
}

/// Lifetime event counts, reported through [`Uproxy::export_metrics`] and
/// the `*_stats` accessors.
#[derive(Debug, Default)]
struct Counters {
    stale_table_bounces: u64,
    requests_routed: u64,
    replies_routed: u64,
    absorbed: u64,
    initiated: u64,
    read_failovers: u64,
    degraded_writes: u64,
    degraded_bytes: u64,
    probes_sent: u64,
    coded_reads: u64,
    coded_writes: u64,
    ec_degraded_reads: u64,
    ec_reconstructions: u64,
    ec_reconstructed_bytes: u64,
}

/// Lap stopwatch behind [`PhaseStats`]. A packet's handling starts it;
/// each phase boundary then charges the time since the previous mark to
/// the phase that just ended, so every nanosecond between a packet's
/// first and last lap lands in exactly one bucket, at one clock read per
/// boundary. Never started — every lap a no-op — unless
/// [`ProxyConfig::measure_phases`] is on.
#[derive(Debug, Default)]
struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    fn start(&mut self, measure: bool) {
        if measure {
            self.last = Some(Instant::now());
        }
    }

    fn lap(&mut self, bucket: &mut u64) {
        if let Some(last) = self.last {
            let now = Instant::now();
            *bucket += (now - last).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// Everything the µproxy learned from traffic and is "free to discard"
/// (paper §3). A table is soft state if and only if it is a field here:
/// [`Uproxy::lose_state`] replaces the whole value and
/// [`Uproxy::soft_state_entries`] destructures it, so a new table does not
/// compile until the latter says how it is counted. (The attribute cache
/// sits beside it only because its hit/miss/push-retry counters are
/// lifetime statistics that must outlive a clear.)
#[derive(Debug)]
struct Soft {
    pending: FxHashMap<u32, PendingReq>,
    /// Cached block-map fragments: (file, block) -> replica sites.
    map_cache: FxHashMap<(u64, u64), Vec<u32>>,
    /// Replicas still owed a resync/migration copy per the coordinator's
    /// last fragment: writes fan out to them, reads skip them until the
    /// log drains (and the next epoch flush refetches the fragment).
    warming_cache: FxHashMap<(u64, u64), Vec<u32>>,
    /// Requests parked on a block-map fetch, keyed by (file, block).
    map_waiters: FxHashMap<(u64, u64), Vec<Packet>>,
    /// Commit packets parked on an intent ack, keyed by xid.
    intent_waiters: FxHashMap<u64, Packet>,
    /// Failure-suspicion table, one entry per storage site: a hint,
    /// rebuilt from observed retransmissions.
    health: Vec<SiteHealth>,
    /// Per-file data-op counts over a sliding window (hot-set detection).
    hot_data: HotTracker,
    /// Mirrored writes parked on a coordinator dirty-region ack.
    degrade_pending: FxHashMap<u32, ParkedWrite>,
    /// Writes cleared to proceed at reduced redundancy: xid -> live
    /// replica set approved by the coordinator's DirtyAck.
    degrade_ok: FxHashMap<u32, Vec<u32>>,
    /// Requests in flight as leg ops, keyed by the client's (parent) xid.
    ops: FxHashMap<u32, LegOp>,
    /// Per-(file, stripe) exclusive locks held by coded ops that gather
    /// and decode (read-modify-write serialization).
    stripe_locks: FxHashMap<(u64, u64), u32>,
    /// Coded requests parked on a stripe lock, in arrival order.
    coded_waiters: Vec<((u64, u64), Packet)>,
    /// Name-hashing READDIR calls in flight, as the client sent them.
    listings: FxHashMap<u32, Packet>,
}

impl Soft {
    fn new(cfg: &ProxyConfig) -> Self {
        Soft {
            pending: FxHashMap::default(),
            map_cache: FxHashMap::default(),
            warming_cache: FxHashMap::default(),
            map_waiters: FxHashMap::default(),
            intent_waiters: FxHashMap::default(),
            health: vec![SiteHealth::new(); cfg.storage_sites.len()],
            hot_data: HotTracker::new(cfg.hot_window),
            degrade_pending: FxHashMap::default(),
            degrade_ok: FxHashMap::default(),
            ops: FxHashMap::default(),
            stripe_locks: FxHashMap::default(),
            coded_waiters: Vec::new(),
            listings: FxHashMap::default(),
        }
    }
}

/// The µproxy state machine.
#[derive(Debug)]
pub struct Uproxy {
    cfg: ProxyConfig,
    /// Loaded by the reconfiguration plane, like `retired` and
    /// `map_epoch`: not inferred from traffic, so it survives a state loss.
    dir_table: RoutingTable,
    soft: Soft,
    attrs: AttrCache,
    /// Sites removed by a planned drain: never routed to, never struck,
    /// never probed — their suspicion soft state is purged for good.
    retired: Vec<bool>,
    /// Routing-table epoch: bumped on every reconfiguration flush so
    /// observers can tell when new block-map entries took effect.
    map_epoch: u64,
    /// Suspicion transitions `(when, site, suspected)` for benchmarks.
    suspicion_log: Vec<(SimTime, u32, bool)>,
    /// Keeps counting across a state loss: a fresh µproxy-owned xid must
    /// not match a reply still in flight to a forgotten one.
    next_own_xid: u32,
    cred: AuthUnix,
    clock: PhaseClock,
    phases: PhaseStats,
    stats: Counters,
}

impl Uproxy {
    /// Creates a µproxy from `cfg`.
    pub fn new(cfg: ProxyConfig) -> Self {
        let dirs = cfg.dir_sites.len().max(1) as u32;
        Uproxy {
            dir_table: RoutingTable::balanced(dirs),
            soft: Soft::new(&cfg),
            attrs: AttrCache::new(ATTR_CACHE_ENTRIES),
            retired: vec![false; cfg.storage_sites.len()],
            map_epoch: 0,
            suspicion_log: Vec::new(),
            next_own_xid: 0x8000_0000,
            cred: AuthUnix {
                machine: "uproxy".into(),
                ..Default::default()
            },
            clock: PhaseClock::default(),
            phases: PhaseStats::default(),
            stats: Counters::default(),
            cfg,
        }
    }

    /// Measured per-phase CPU cost (Table 3). All-zero durations unless
    /// [`ProxyConfig::measure_phases`] is set.
    pub fn phase_stats(&self) -> PhaseStats {
        self.phases
    }

    /// This µproxy's configuration (read-only; placement parameters are
    /// needed by external auditors like the `slice-check` oracles).
    pub fn config(&self) -> &ProxyConfig {
        &self.cfg
    }

    /// (requests routed, replies routed, absorbed, initiated).
    pub fn traffic_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.requests_routed,
            self.stats.replies_routed,
            self.stats.absorbed,
            self.stats.initiated,
        )
    }

    /// Folds this µproxy's counters into `reg` under `prefix` (e.g.
    /// `"client.0.uproxy"`). Uses absolute (`set`) semantics so repeated
    /// folds are idempotent. Phase nanoseconds are zeros unless
    /// [`ProxyConfig::measure_phases`] is on.
    pub fn export_metrics(&self, prefix: &str, reg: &mut slice_obs::Registry) {
        let set = |reg: &mut slice_obs::Registry, k: &str, v: u64| {
            reg.set(&format!("{prefix}.{k}"), v);
        };
        set(reg, "requests_routed", self.stats.requests_routed);
        set(reg, "replies_routed", self.stats.replies_routed);
        set(reg, "absorbed", self.stats.absorbed);
        set(reg, "initiated", self.stats.initiated);
        set(reg, "stale_table_bounces", self.stats.stale_table_bounces);
        let (hits, misses) = self.attrs.stats();
        set(reg, "attr_cache.hits", hits);
        set(reg, "attr_cache.misses", misses);
        set(reg, "attr_cache.entries", self.attrs.len() as u64);
        set(reg, "attr_cache.push_retries", self.attrs.push_retries());
        set(
            reg,
            "ha.suspected_sites",
            self.suspected_sites().len() as u64,
        );
        set(reg, "ha.read_failovers", self.stats.read_failovers);
        set(reg, "ha.degraded_writes", self.stats.degraded_writes);
        set(reg, "ha.degraded_bytes", self.stats.degraded_bytes);
        set(reg, "ha.probes_sent", self.stats.probes_sent);
        set(reg, "ec.coded_reads", self.stats.coded_reads);
        set(reg, "ec.coded_writes", self.stats.coded_writes);
        set(reg, "ec.degraded_reads", self.stats.ec_degraded_reads);
        set(reg, "ec.reconstructions", self.stats.ec_reconstructions);
        set(
            reg,
            "ec.reconstructed_bytes",
            self.stats.ec_reconstructed_bytes,
        );
        set(reg, "soft_state.entries", self.soft_state_entries() as u64);
        set(reg, "reconf.map_epoch", self.map_epoch);
        set(
            reg,
            "reconf.retired_sites",
            self.retired_sites().len() as u64,
        );
        set(
            reg,
            "reconf.hot_tracked",
            self.soft.hot_data.entries() as u64,
        );
        set(reg, "phase.packets", self.phases.packets);
        set(reg, "phase.intercept_ns", self.phases.intercept_ns);
        set(reg, "phase.decode_ns", self.phases.decode_ns);
        set(reg, "phase.rewrite_ns", self.phases.rewrite_ns);
        set(reg, "phase.soft_ns", self.phases.soft_ns);
    }

    /// Attribute-cache (hits, misses) since creation.
    pub fn attr_cache_stats(&self) -> (u64, u64) {
        self.attrs.stats()
    }

    /// True while any cached attribute awaits a write-back
    /// acknowledgement — the periodic tick must keep running.
    pub fn has_dirty_attrs(&self) -> bool {
        self.attrs.has_dirty()
    }

    /// Audit snapshot of the attribute cache `(file, dirty, cached size)`
    /// for the `slice-check` structural oracles.
    pub fn audit_attr_cache(&self) -> Vec<(u64, bool, u64)> {
        self.attrs.audit()
    }

    /// Attribute pushes re-issued because an earlier push of the same
    /// version went unacknowledged — retransmissions performed by the
    /// interposed layer rather than the client's RPC machinery.
    pub fn push_retries(&self) -> u64 {
        self.attrs.push_retries()
    }

    /// Replaces the directory routing table (reconfiguration, §3.3.1).
    pub fn load_dir_table(&mut self, table: RoutingTable) {
        self.dir_table = table;
    }

    /// Misdirected-request bounces observed (stale-table detections).
    pub fn stale_table_bounces(&self) -> u64 {
        self.stats.stale_table_bounces
    }

    /// The directory table's current generation.
    pub fn dir_table_generation(&self) -> u64 {
        self.dir_table.generation()
    }

    /// Drops all soft state (the µproxy is "free to discard its state ...
    /// without compromising correctness"). Configuration, what the
    /// reconfiguration plane loaded, the xid cursor, measurements and
    /// lifetime statistics are not soft state and survive.
    pub fn lose_state(&mut self) {
        self.soft = Soft::new(&self.cfg);
        self.attrs.clear();
    }

    /// Removes a drained site from every routing decision: it is never
    /// read from, written to, struck, or probed again, and its suspicion
    /// soft state is purged (a retired node never returns, so keeping
    /// the entry would leak it forever).
    pub fn retire_site(&mut self, now: SimTime, site: u32) {
        let Some(flag) = self.retired.get_mut(site as usize) else {
            return;
        };
        *flag = true;
        let h = &mut self.soft.health[site as usize];
        if h.suspected {
            self.suspicion_log.push((now, site, false));
        }
        *h = SiteHealth::new();
    }

    /// Sites retired by a planned drain, sorted.
    pub fn retired_sites(&self) -> Vec<u32> {
        self.retired
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Drops every cached block-map fragment and bumps the routing
    /// epoch: the next bulk I/O re-fetches fresh entries from the
    /// coordinators, picking up reconfigured (widened/rebalanced)
    /// replica sets. The paper's tables-are-hints rule makes this safe
    /// at any time.
    pub fn flush_map_cache(&mut self) {
        self.soft.map_cache.clear();
        self.soft.warming_cache.clear();
        self.map_epoch += 1;
    }

    /// Routing-table epoch (count of reconfiguration flushes).
    pub fn map_epoch(&self) -> u64 {
        self.map_epoch
    }

    /// Files with at least `min` data operations over the sliding hot
    /// window, hottest first.
    pub fn hot_files(&self, min: u64) -> Vec<(u64, u64)> {
        self.soft.hot_data.hot(min)
    }

    /// Storage sites currently suspected down.
    pub fn suspected_sites(&self) -> Vec<u32> {
        self.soft
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.suspected)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Suspicion transitions `(when, site, suspected)` since creation.
    pub fn suspicion_log(&self) -> &[(SimTime, u32, bool)] {
        &self.suspicion_log
    }

    /// (coded reads, coded writes, degraded reads, reconstructions,
    /// reconstructed bytes) for the erasure-coded layout.
    pub fn ec_stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.stats.coded_reads,
            self.stats.coded_writes,
            self.stats.ec_degraded_reads,
            self.stats.ec_reconstructions,
            self.stats.ec_reconstructed_bytes,
        )
    }

    /// Total soft-state entries currently held (pending requests, block-map
    /// fragments, cached attributes, parked packets, leg ops): the
    /// µproxy's live working-set size for capacity benchmarks. The
    /// per-site suspicion table and the hot-set window are fixed-size or
    /// self-expiring and reported on their own (`ha.*`, `reconf.*`).
    pub fn soft_state_entries(&self) -> usize {
        let Soft {
            pending,
            map_cache,
            warming_cache,
            map_waiters,
            intent_waiters,
            health: _,
            hot_data: _,
            degrade_pending,
            degrade_ok,
            ops,
            stripe_locks,
            coded_waiters,
            listings,
        } = &self.soft;
        pending.len()
            + map_cache.len()
            + warming_cache.len()
            + self.attrs.len()
            + map_waiters.values().map(Vec::len).sum::<usize>()
            + intent_waiters.len()
            + degrade_pending.len()
            + degrade_ok.len()
            + ops.len()
            + coded_waiters.len()
            + stripe_locks.len()
            + listings.len()
    }

    /// (read failovers, degraded writes, degraded bytes, probes sent).
    pub fn ha_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.read_failovers,
            self.stats.degraded_writes,
            self.stats.degraded_bytes,
            self.stats.probes_sent,
        )
    }

    /// Notes a client RPC retransmission of `xid`: every storage site
    /// still owed a reply takes a suspicion strike (the paper's client
    /// retransmissions are the µproxy's only failure signal — it sees
    /// all of them, being interposed on the packet path).
    pub fn note_retransmit(&mut self, now: SimTime, xid: u32) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        // A leg op's storage legs carry µproxy-owned xids; the client only
        // retransmits the parent, so strike the legs' sites here.
        let awaiting = match (self.soft.ops.get(&xid), self.soft.pending.get(&xid)) {
            (Some(op), _) => op.awaiting.clone(),
            (None, Some(r)) if r.class == Class::Storage => r.awaiting.clone(),
            _ => return out,
        };
        for site in awaiting {
            self.strike(now, &mut out, site);
        }
        out
    }

    fn strike(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, site: u32) {
        if self.site_retired(site) {
            return;
        }
        let Some(h) = self.soft.health.get_mut(site as usize) else {
            return;
        };
        h.strikes += 1;
        if !h.suspected && h.strikes >= SUSPECT_AFTER {
            h.suspected = true;
            h.probe_at = now + self.cfg.probe_interval;
            h.probing = false;
            self.suspicion_log.push((now, site, true));
            out.push(ProxyOut::Trace(slice_obs::EventKind::SiteSuspected {
                site: site as usize,
            }));
        }
    }

    /// Splits a replica set into (live, suspected). All-suspected sets
    /// come back whole: with no live mirror there is nothing to degrade
    /// to, and routing everywhere keeps retransmissions probing.
    fn partition_live(&self, sites: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut live = Vec::new();
        let mut missed = Vec::new();
        for &s in sites {
            if self.site_retired(s) || self.suspected(s) {
                missed.push(s);
            } else {
                live.push(s);
            }
        }
        if live.is_empty() {
            // Retired sites stay excluded even from the all-suspected
            // fallback: they hold no data and never answer.
            let present: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|&s| !self.site_retired(s))
                .collect();
            if present.is_empty() {
                (sites.to_vec(), Vec::new())
            } else {
                (present, Vec::new())
            }
        } else {
            (live, missed)
        }
    }

    fn site_retired(&self, site: u32) -> bool {
        self.retired.get(site as usize).copied().unwrap_or(false)
    }

    fn suspected(&self, site: u32) -> bool {
        self.soft
            .health
            .get(site as usize)
            .is_some_and(|h| h.suspected)
    }

    /// Degraded-write gate. A write whose replica set includes suspected
    /// sites must not complete before the coordinator has durably logged
    /// the skipped sites' (file, bulk range): otherwise a crash forgets
    /// which regions diverged and resync cannot restore redundancy.
    /// Returns the replica set to fan out to, or `None` when the packet
    /// was parked awaiting the coordinator's `DirtyAck`.
    fn degrade_gate(
        &mut self,
        out: &mut Vec<ProxyOut>,
        pkt: &Packet,
        call: &BulkCall,
        sites: Vec<u32>,
    ) -> Option<Vec<u32>> {
        if let Some(live) = self.soft.degrade_ok.get(&call.xid) {
            return Some(live.clone());
        }
        let (live, missed) = self.partition_live(&sites);
        if missed.is_empty() {
            return Some(sites);
        }
        let (file, len) = (call.fh.file_id(), call.end() - call.lo);
        self.soft
            .degrade_pending
            .insert(call.xid, (pkt.clone(), live.clone(), missed.clone(), len));
        out.push(ProxyOut::Coord(CoordMsg::MarkDirty {
            op_id: u64::from(call.xid),
            obj: file,
            offset: call.lo,
            len,
            missed,
            sources: live,
        }));
        None
    }

    /// The directory site `home` names: a handle's home site is physical,
    /// since attribute cells never migrate. Handles come off client
    /// packets, so a home past the last site still routes somewhere.
    fn dir_dest(&self, home: u32) -> SockAddr {
        self.cfg.dir_sites[home as usize % self.cfg.dir_sites.len()]
    }

    fn sf_dest(&self, file: u64) -> SockAddr {
        self.cfg.sf_sites[slice_hashes::sf_server_of(file, self.cfg.sf_sites.len())]
    }

    /// Replica site list for one stripe of a file under static placement.
    fn static_sites(&self, file: u64, stripe: u64, mirrored: bool) -> Vec<u32> {
        let copies = if mirrored { MIRROR_COPIES } else { 1 };
        let sites = self.cfg.storage_sites.len() as u32;
        slice_hashes::stripe_slots(file, stripe, copies, sites).collect()
    }

    /// The placement of `blocks` of `fh`'s bulk region: one replica-site
    /// list per block, from the block-map cache under dynamic placement
    /// and the static function otherwise. A block missing from the cache
    /// yields `Err(block)` after a `MapGet` for the 16-block fragment
    /// around it went out; the request must wait for that fragment.
    fn block_sites(
        &mut self,
        out: &mut Vec<ProxyOut>,
        fh: &Fhandle,
        blocks: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Vec<u32>>, u64> {
        let file = fh.file_id();
        if !(self.cfg.use_block_maps && fh.is_mapped()) {
            let mirrored = fh.is_mirrored();
            return Ok(blocks
                .map(|b| self.static_sites(file, b, mirrored))
                .collect());
        }
        let cached: Result<_, u64> = blocks
            .map(|b| self.soft.map_cache.get(&(file, b)).cloned().ok_or(b))
            .collect();
        if let Err(block) = cached {
            out.push(ProxyOut::Coord(CoordMsg::MapGet {
                file,
                first_block: block - block % 16,
                count: 16,
            }));
        }
        cached
    }

    fn nfs_time(now: SimTime) -> NfsTime {
        NfsTime::from_nanos(now.as_nanos())
    }

    /// Sends the client a reply the µproxy assembled itself (a leg op's,
    /// or a READ corrected to the global size) instead of rewriting one in
    /// place.
    fn reply_to_client(
        &mut self,
        out: &mut Vec<ProxyOut>,
        xid: u32,
        client: SockAddr,
        reply: &NfsReply,
    ) {
        let p = Packet::new(
            self.cfg.virtual_addr,
            client,
            slice_nfsproto::encode_reply(xid, reply),
        );
        self.stats.replies_routed += 1;
        out.push(ProxyOut::Client(p));
    }

    /// Generates an attribute write-back: a µproxy-initiated SETATTR to
    /// the directory server (absorbed on reply).
    fn push_attrs(&mut self, out: &mut Vec<ProxyOut>, entry: &crate::attrcache::CachedAttr) {
        let req = NfsRequest::Setattr {
            fh: entry.fh,
            attr: Sattr3 {
                size: Some(entry.attr.size),
                atime: SetTime::Client(entry.attr.atime),
                mtime: SetTime::Client(entry.attr.mtime),
                ..Default::default()
            },
        };
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let payload = encode_call(xid, &self.cred, &req);
        let dest = self.dir_dest(entry.fh.home_site());
        let pkt = Packet::new(self.cfg.client_addr, dest, payload);
        let own = self.cfg.client_addr;
        let mut rec = PendingReq::new(NfsProc::Setattr, Some(entry.fh), 0, 0, Class::Dir, own);
        rec.kind = Pending::Push {
            file: entry.fh.file_id(),
            version: entry.version,
        };
        self.soft.pending.insert(xid, rec);
        self.stats.initiated += 1;
        out.push(ProxyOut::Net(pkt));
    }

    /// Processes a client-to-server packet.
    pub fn outbound(&mut self, now: SimTime, pkt: Packet) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        self.phases.packets += 1;
        self.admit(now, &mut out, pkt, true);
        out
    }

    /// Intercepts, decodes and routes one request packet. `fresh` is false
    /// when a parked packet is re-admitted (its map fragment, dirty-region
    /// ack or stripe lock arrived): it was counted — as a packet, as a
    /// routed request and in the hot-set window — when the client sent it.
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        fresh: bool,
    ) {
        // Phase 1: interception.
        self.clock.start(self.cfg.measure_phases);
        let ours = pkt.dst == self.cfg.virtual_addr;
        self.clock.lap(&mut self.phases.intercept_ns);
        if !ours {
            out.push(ProxyOut::Net(pkt));
            return;
        }
        // Phase 2: decode — headers and arguments only; WRITE data is
        // located, not read.
        let decoded = view_call(&pkt.payload);
        self.clock.lap(&mut self.phases.decode_ns);
        let Ok((hdr, call)) = decoded else {
            // Undecodable packet: drop; RPC retransmission recovers.
            return;
        };
        if fresh {
            self.stats.requests_routed += 1;
            // Hot-set tracking for demand-driven replication: data ops
            // count against the file.
            if let CallView::Write { fh, .. } | CallView::Other(NfsRequest::Read { fh, .. }) = &call
            {
                self.soft.hot_data.note(now, fh.file_id());
            }
        }
        self.clock.lap(&mut self.phases.soft_ns);
        self.route_call(now, out, pkt, hdr.xid, call);
    }

    fn route_call(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        call: CallView,
    ) {
        let client_src = pkt.src;
        // From here the routing decision and the rewrite are phase 3, the
        // tables consulted and filed on the way phase 4.
        match call {
            CallView::Other(NfsRequest::Read { fh, offset, count })
                if self.reaches_bulk(&fh, offset, u64::from(count)) =>
            {
                let call = self.bulk_call(xid, &pkt, fh, offset, count);
                self.route_bulk(now, out, pkt, call, None);
            }
            CallView::Write {
                fh,
                offset,
                data,
                stable,
            } if self.reaches_bulk(&fh, offset, data.len() as u64) => {
                let call = self.bulk_call(xid, &pkt, fh, offset, data.len() as u32);
                self.route_bulk(now, out, pkt, call, Some((data, stable)));
            }
            CallView::Other(NfsRequest::Commit { fh, .. }) if self.commit_is_multisite(&fh) => {
                // Push modified attributes back on commit (paper §4.1).
                let dirty = self.attrs.take_dirty(fh.file_id());
                self.clock.lap(&mut self.phases.soft_ns);
                if let Some(e) = dirty {
                    self.push_attrs(out, &e);
                }
                if self.cfg.use_intents {
                    // Intention first; the commit fans out on the ack.
                    self.soft.intent_waiters.insert(u64::from(xid), pkt);
                    out.push(ProxyOut::Coord(CoordMsg::BeginIntent {
                        op_id: u64::from(xid),
                        kind: IntentKind::Commit { obj: fh.file_id() },
                        participants: (0..self.cfg.storage_sites.len() as u32).collect(),
                    }));
                } else {
                    self.fanout_commit(out, pkt, xid, fh, Pending::Forward);
                }
            }
            other => {
                // Name-space, attribute, and small-file traffic.
                let (dest, class, fh, offset, len) = match &other {
                    CallView::Write {
                        fh, offset, data, ..
                    } => (
                        self.sf_dest(fh.file_id()),
                        Class::SmallFile,
                        Some(*fh),
                        *offset,
                        data.len() as u32,
                    ),
                    CallView::Other(req) => {
                        let dest = self.name_dest(req);
                        match req {
                            NfsRequest::Read { fh, offset, count } => {
                                (dest, Class::SmallFile, Some(*fh), *offset, *count)
                            }
                            NfsRequest::Commit { fh, .. } => {
                                (dest, Class::SmallFile, Some(*fh), 0, 0)
                            }
                            req => (dest, Class::Dir, req.primary_fh().copied(), 0, 0),
                        }
                    }
                };
                // Commit below threshold still flushes cached attributes.
                if other.proc() == NfsProc::Commit {
                    self.clock.lap(&mut self.phases.rewrite_ns);
                    let dirty = fh.and_then(|f| self.attrs.take_dirty(f.file_id()));
                    self.clock.lap(&mut self.phases.soft_ns);
                    if let Some(e) = dirty {
                        self.push_attrs(out, &e);
                    }
                }
                let listing = matches!(other.proc(), NfsProc::Readdir | NfsProc::Readdirplus);
                if listing && self.cfg.name_policy == NamePolicy::NameHashing {
                    self.soft.listings.insert(xid, pkt.clone());
                }
                let mut p = pkt;
                p.rewrite_dst(dest);
                self.clock.lap(&mut self.phases.rewrite_ns);
                let rec = PendingReq::new(other.proc(), fh, offset, len, class, client_src);
                self.soft.pending.insert(xid, rec);
                self.clock.lap(&mut self.phases.soft_ns);
                out.push(ProxyOut::Net(p));
            }
        }
    }

    /// True when a READ or WRITE of `[offset, offset+len)` reaches the
    /// bulk region the storage array serves: everything when there are no
    /// small-file servers, otherwise whatever lies at or above the
    /// threshold offset.
    fn reaches_bulk(&self, fh: &Fhandle, offset: u64, len: u64) -> bool {
        !fh.is_dir()
            && !fh.is_symlink()
            && (self.cfg.sf_sites.is_empty() || offset >= THRESHOLD || offset + len > THRESHOLD)
    }

    fn bulk_call(&self, xid: u32, pkt: &Packet, fh: Fhandle, offset: u64, len: u32) -> BulkCall {
        let lo = if self.cfg.sf_sites.is_empty() {
            offset
        } else {
            offset.max(THRESHOLD)
        };
        BulkCall {
            xid,
            fh,
            offset,
            len,
            lo,
            client_src: pkt.src,
        }
    }

    /// Routes a READ (`write == None`) or WRITE (its data's range within
    /// `pkt.payload`, and its stability) that reaches the bulk region.
    /// The placement decides everything: the block map names the storage
    /// sites — one replica of a mirror for a read, every live replica for
    /// a write, shard sites for a coded stripe.
    ///
    /// A request one placement entry serves whole is *forwarded*: the
    /// client's own packet re-addressed in place under the client's xid
    /// (one copy per replica for a mirrored write), its payload neither
    /// copied nor re-encoded, the last reply rewritten in place. A request
    /// that must be cut — at the threshold, or into coded shards — is
    /// served as a leg op (`proxy/coded.rs`): legs the µproxy encodes under
    /// xids of its own, and one reply assembled from theirs.
    fn route_bulk(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        call: BulkCall,
        write: Option<(Range<usize>, StableHow)>,
    ) {
        let BulkCall {
            xid,
            fh,
            offset,
            lo,
            ..
        } = call;
        let file = fh.file_id();
        let geom = self.coded_geom(&fh).filter(|_| call.len > 0);
        if geom.is_some() || lo > offset {
            // A client retransmission of the parent xid restarts the op.
            self.abort_op(now, out, xid);
        }
        let blocks = match &geom {
            Some(g) => g.stripe_of(lo)..=g.stripe_of(call.end() - 1),
            None => lo / STRIPE_UNIT..=lo / STRIPE_UNIT,
        };
        let mut site_lists = match self.block_sites(out, &fh, blocks) {
            Ok(lists) => lists,
            Err(block) => {
                self.soft
                    .map_waiters
                    .entry((file, block))
                    .or_default()
                    .push(pkt);
                return;
            }
        };
        if let Some(geom) = geom {
            let planned = self.coded_plan(out, &pkt, &call, write.is_some(), site_lists, geom);
            if let Some((stripes, live, plans)) = planned {
                let op = LegOp::new(&pkt, call, write, stripes, live);
                self.start_op(now, out, op, plans);
            }
            self.clock.lap(&mut self.phases.soft_ns);
            return;
        }
        self.clock.lap(&mut self.phases.soft_ns);
        let sites = site_lists.pop().expect("one block");
        let targets = match &write {
            None => vec![self.pick_read_site(out, file, &sites, lo, xid)],
            Some(_) => match self.degrade_gate(out, &pkt, &call, sites) {
                Some(live) => live,
                None => return,
            },
        };
        if lo > offset {
            // The threshold split: the bytes above go to every target, the
            // bytes below to the small-file server (`start_op`'s head leg).
            let op = LegOp::new(&pkt, call, write, Vec::new(), targets);
            let plans = op.bulk_legs();
            self.start_op(now, out, op, plans);
            self.clock.lap(&mut self.phases.soft_ns);
            return;
        }
        let proc = if write.is_some() {
            // Mirrored writes go to every replica (µproxy duplicates the
            // packet).
            for &site in &targets {
                let mut p = pkt.clone();
                p.rewrite_dst(self.cfg.storage_sites[site as usize]);
                out.push(ProxyOut::Net(p));
            }
            NfsProc::Write
        } else {
            let mut p = pkt;
            p.rewrite_dst(self.cfg.storage_sites[targets[0] as usize]);
            out.push(ProxyOut::Net(p));
            NfsProc::Read
        };
        self.clock.lap(&mut self.phases.rewrite_ns);
        let mut rec = PendingReq::new(
            proc,
            Some(fh),
            offset,
            call.len,
            Class::Storage,
            call.client_src,
        );
        rec.remaining = targets.len() as u32;
        rec.awaiting = targets;
        self.soft.pending.insert(xid, rec);
        self.clock.lap(&mut self.phases.soft_ns);
    }

    /// Replica choice for a mirrored read: alternate between the mirrors
    /// by placement rotation (each node serves half of what it stores).
    /// Suspected sites are skipped — the read fails over to the first
    /// live mirror instead of stalling through the suspected site's
    /// retransmission timeouts. Warming replicas (a migration or resync
    /// copy still owed per the coordinator's fragment) are skipped too:
    /// a freshly pinned replica joins the rotation only after the log
    /// drains and an epoch flush refetches the fragment.
    fn pick_read_site(
        &mut self,
        out: &mut Vec<ProxyOut>,
        file: u64,
        sites: &[u32],
        offset: u64,
        xid: u32,
    ) -> u32 {
        let stripe = offset / STRIPE_UNIT;
        let rotation = stripe / self.cfg.storage_sites.len() as u64;
        let idx = (rotation % sites.len() as u64) as usize;
        let preferred = sites[idx];
        let warming = self.soft.warming_cache.get(&(file, stripe));
        let usable = |s: u32| {
            !self.suspected(s) && !self.site_retired(s) && !warming.is_some_and(|w| w.contains(&s))
        };
        let mut in_rotation = (0..sites.len()).map(|k| sites[(idx + k) % sites.len()]);
        // Every mirror suspected: route to the rotation choice anyway so
        // retransmissions keep exercising (and eventually clearing) it.
        let chosen = in_rotation.find(|&s| usable(s)).unwrap_or(preferred);
        if chosen != preferred {
            self.stats.read_failovers += 1;
            out.push(ProxyOut::Trace(slice_obs::EventKind::ReadFailover {
                site: preferred as usize,
                xid: u64::from(xid),
            }));
        }
        chosen
    }

    /// A commit is multisite when the file plausibly has data on storage
    /// nodes (cached size above the threshold, or no small-file servers).
    fn commit_is_multisite(&mut self, fh: &Fhandle) -> bool {
        if self.cfg.sf_sites.is_empty() {
            return true;
        }
        match self.attrs.get(fh.file_id()) {
            Some(a) => a.size > THRESHOLD,
            None => false,
        }
    }

    fn fanout_commit(
        &mut self,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        fh: Fhandle,
        kind: Pending,
    ) {
        let client_src = pkt.src;
        let mut n = 0;
        let mut awaiting = Vec::new();
        // Suspected sites are skipped: a commit fan-out that includes a
        // crashed node would never complete. Any unstable data a merely
        // slow (not crashed) site holds stays unstable until a later
        // commit — the register model treats it as optional.
        let health = &self.soft.health;
        let any_live = health
            .iter()
            .enumerate()
            .any(|(i, h)| !h.suspected && !self.retired[i]);
        for (i, site) in self.cfg.storage_sites.iter().enumerate() {
            if self.retired[i] || (any_live && health[i].suspected) {
                continue;
            }
            let mut p = pkt.clone();
            p.rewrite_dst(*site);
            out.push(ProxyOut::Net(p));
            awaiting.push(i as u32);
            n += 1;
        }
        // The below-threshold region commits at its small-file server.
        if !self.cfg.sf_sites.is_empty() {
            let mut p = pkt.clone();
            p.rewrite_dst(self.sf_dest(fh.file_id()));
            out.push(ProxyOut::Net(p));
            n += 1;
        }
        let mut rec = PendingReq::new(NfsProc::Commit, Some(fh), 0, 0, Class::Storage, client_src);
        rec.remaining = n;
        rec.awaiting = awaiting;
        rec.kind = kind;
        self.soft.pending.insert(xid, rec);
    }

    /// Destination for non-bulk requests per the name-space policy.
    fn name_dest(&self, req: &NfsRequest) -> SockAddr {
        match req {
            NfsRequest::Read { fh, .. }
            | NfsRequest::Write { fh, .. }
            | NfsRequest::Commit { fh, .. } => self.sf_dest(fh.file_id()),
            NfsRequest::Getattr { fh }
            | NfsRequest::Setattr { fh, .. }
            | NfsRequest::Access { fh, .. }
            | NfsRequest::Readlink { fh }
            | NfsRequest::Fsstat { fh } => self.dir_dest(fh.home_site()),
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name, .. }
            | NfsRequest::Symlink { dir, name, .. }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Link { dir, name, .. } => self.name_pair_dest(dir, name),
            NfsRequest::Mkdir { dir, name, .. } => self.dir_dest(self.cfg.name_policy.mkdir_site(
                &self.dir_table,
                self.cfg.dir_sites.len(),
                dir.home_site(),
                name_fingerprint(&dir.0, name.as_bytes()),
            )),
            NfsRequest::Rename {
                from_dir,
                from_name,
                ..
            } => self.name_pair_dest(from_dir, from_name),
            NfsRequest::Readdir { dir, cookie, .. }
            | NfsRequest::Readdirplus { dir, cookie, .. } => {
                self.dir_dest(self.cfg.name_policy.readdir_site(dir.home_site(), *cookie))
            }
            NfsRequest::Null => self.cfg.dir_sites[0],
        }
    }

    fn name_pair_dest(&self, dir: &Fhandle, name: &str) -> SockAddr {
        let key = || name_fingerprint(&dir.0, name.as_bytes());
        self.dir_dest(
            self.cfg
                .name_policy
                .entry_site(&self.dir_table, dir.home_site(), key),
        )
    }

    /// Processes a server-to-client packet in three stages cut at the
    /// phase boundaries: `pair` the reply with its pending record and
    /// decode it, `account` for it in the soft state, and `finalize` what
    /// the client receives. A stage that consumes the reply (forwarded
    /// unmatched, absorbed, bounced) ends the packet there.
    pub fn inbound(&mut self, now: SimTime, pkt: Packet) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        self.clock.start(self.cfg.measure_phases);
        self.phases.packets += 1;
        let Some(rx) = self.pair(now, &mut out, pkt) else {
            return out;
        };
        let Some((rec, attr_file)) = self.account(now, &mut out, &rx) else {
            return out;
        };
        self.finalize(&mut out, rx, &rec, attr_file);
        out
    }

    /// Phases 1 and 2 of a reply: find its pending record (a reply that
    /// has none goes straight up to the client), decode it, credit its
    /// source site's health, and hand a leg's reply to its op.
    fn pair(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, pkt: Packet) -> Option<Inbound> {
        // Phase 1: interception — pair the reply with its pending record.
        let xid = slice_nfsproto::peek_xid_type(&pkt.payload)
            .map(|(x, _)| x)
            .ok();
        // Only these are needed before the record is re-fetched in
        // `account`; cloning the whole record here would deep-copy its
        // awaiting list per reply.
        let pending =
            xid.and_then(|x| self.soft.pending.get(&x).map(|r| (r.proc, r.class, r.kind)));
        self.clock.lap(&mut self.phases.intercept_ns);
        let Some(xid) = xid else {
            out.push(ProxyOut::Client(pkt));
            return None;
        };
        let Some((proc, class, kind)) = pending else {
            // Lost soft state: restore the virtual source so the client's
            // RPC layer can still match (it will usually have timed out
            // and retransmitted already).
            let mut p = pkt;
            p.rewrite_src(self.cfg.virtual_addr);
            self.clock.lap(&mut self.phases.rewrite_ns);
            out.push(ProxyOut::Client(p));
            return None;
        };
        // Phase 2: decode the reply — status, attributes and results;
        // READ data is located, not read.
        let reply = view_reply(&pkt.payload, proc).ok().map(|(_, r)| r);
        self.clock.lap(&mut self.phases.decode_ns);
        // Failure-suspicion bookkeeping: any reply from a storage site
        // resets its strike count — but suspicion itself clears only via
        // a coordinator-verified probe, because an alive-looking site may
        // still hold regions that diverged during a degraded window. A
        // JUKEBOX bounce from a storage node counts as a strike instead.
        // Only a request routed to the storage class can be answered by a
        // storage site; nothing else pays for the address scan.
        let src_site = match class {
            Class::Storage => self.cfg.storage_sites.iter().position(|a| *a == pkt.src),
            Class::Dir | Class::SmallFile => None,
        };
        let src_site = src_site.map(|i| i as u32);
        if let Some(s) = src_site {
            let juke = reply
                .as_ref()
                .is_some_and(|r| r.status == NfsStatus::JukeBox);
            if juke {
                self.strike(now, out, s);
            } else if !self.soft.health[s as usize].suspected {
                self.soft.health[s as usize].strikes = 0;
            }
        }
        let rx = Inbound {
            pkt,
            xid,
            reply,
            src_site,
        };
        // A leg's reply is absorbed here and drives its op's state machine
        // instead of the generic bookkeeping in `account`.
        if let Pending::Leg { parent, role } = kind {
            let leg = self.soft.pending.remove(&xid).expect("checked pending");
            self.stats.absorbed += 1;
            self.leg_reply(now, out, parent, role, leg.offset, rx);
            self.clock.lap(&mut self.phases.soft_ns);
            return None;
        }
        Some(rx)
    }

    /// Phase 4 of a reply — multi-reply bookkeeping and the attribute
    /// cache. Returns the completed request's record and the file whose
    /// attribute block rides in the reply, or `None` when the reply is
    /// absorbed: not the last of a fan-out, a stale-table bounce, or the
    /// answer to a µproxy-initiated write-back.
    fn account(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        rx: &Inbound,
    ) -> Option<(PendingReq, Option<Fhandle>)> {
        let remaining = {
            let r = self.soft.pending.get_mut(&rx.xid).expect("checked pending");
            r.remaining = r.remaining.saturating_sub(1);
            if let Some(s) = rx.src_site {
                r.awaiting.retain(|&x| x != s);
            }
            r.remaining
        };
        if remaining > 0 {
            self.stats.absorbed += 1;
            self.clock.lap(&mut self.phases.soft_ns);
            return None; // fan-out: forward only the final reply
        }
        let rec = self.soft.pending.remove(&rx.xid).expect("checked pending");
        self.soft.degrade_ok.remove(&rx.xid);
        // A JUKEBOX bounce from a directory server marks this µproxy's
        // routing table stale: ask the host to refresh it and absorb the
        // reply — the client's RPC retransmission will re-route the
        // request through the fresh table.
        if rec.class == Class::Dir && !matches!(rec.kind, Pending::Push { .. }) {
            if let Some(r) = &rx.reply {
                if r.status == slice_nfsproto::NfsStatus::JukeBox {
                    self.stats.stale_table_bounces += 1;
                    out.push(ProxyOut::NeedDirTable);
                    self.clock.lap(&mut self.phases.soft_ns);
                    return None;
                }
            }
        }
        // A site with nothing left to list answers a name-hashing READDIR
        // with only the marker that chains to the next site: ask that site
        // under the client's xid instead of handing the marker up.
        let listing = matches!(rec.proc, NfsProc::Readdir | NfsProc::Readdirplus);
        let call = listing.then(|| self.soft.listings.remove(&rx.xid));
        if let (Some(Some(call)), Some(next)) = (call, rx.reply.as_ref().and_then(chain_marker)) {
            if let Ok((hdr, CallView::Other(mut req))) = view_call(&call.payload) {
                if let NfsRequest::Readdir { cookie, .. } | NfsRequest::Readdirplus { cookie, .. } =
                    &mut req
                {
                    *cookie = next;
                }
                let payload = encode_call(rx.xid, &hdr.cred, &req);
                self.stats.absorbed += 1;
                self.admit(now, out, Packet::new(call.src, call.dst, payload), false);
                return None;
            }
        }
        let mut evicted = Vec::new();
        // The file whose attribute block rides in this reply (for lookup
        // and create replies that is the *child*, not the request target).
        let mut attr_file = rec.fh;
        if let Some(reply) = &rx.reply {
            if reply.status.is_ok() {
                match rec.class {
                    Class::Dir => {
                        // Authoritative attributes; also harvest handles
                        // from lookup/create bodies.
                        if let Some(attr) = reply.attr {
                            let fh = match &reply.body {
                                BodyView::Other(ReplyBody::Lookup { fh, .. }) => Some(*fh),
                                BodyView::Other(ReplyBody::Create { fh: Some(fh) }) => Some(*fh),
                                _ => rec.fh,
                            };
                            if let Some(fh) = fh {
                                attr_file = Some(fh);
                                if rec.proc == NfsProc::Setattr {
                                    // SETATTR replies replace local deltas:
                                    // an explicit truncate must not be
                                    // re-grown by the merge rule.
                                    evicted.extend(self.attrs.store_replacing(now, &fh, attr));
                                } else {
                                    evicted.extend(self.attrs.store_authoritative(now, &fh, attr));
                                }
                            }
                        }
                    }
                    Class::Storage | Class::SmallFile => {
                        if let Some(fh) = rec.fh {
                            let t = Self::nfs_time(now);
                            match rec.proc {
                                NfsProc::Read => {
                                    evicted.extend(self.attrs.apply_read(now, &fh, t));
                                }
                                NfsProc::Write => {
                                    evicted.extend(self.attrs.apply_write(
                                        now,
                                        &fh,
                                        rec.offset + u64::from(rec.len),
                                        t,
                                    ));
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        // Completion of an intent-guarded fan-out clears the intention.
        if let Pending::Commit { intent } = rec.kind {
            out.push(ProxyOut::Coord(CoordMsg::CompleteIntent { intent }));
        }
        self.clock.lap(&mut self.phases.soft_ns);
        for e in evicted {
            self.push_attrs(out, &e);
        }
        if let Pending::Push { file, version } = rec.kind {
            self.stats.absorbed += 1;
            // A confirmed attribute write-back cleans the cache entry
            // (unless a newer local modification raced with the push). A
            // permanent failure — the home site no longer knows the file —
            // drops the entry instead: the push can never succeed, and
            // leaving it dirty would retry it every interval forever.
            // Transient failures (JUKEBOX, server fault) keep the entry
            // dirty so the next interval retries.
            match rx.reply.as_ref().map(|r| r.status) {
                Some(NfsStatus::Ok) => self.attrs.mark_clean(file, version),
                Some(NfsStatus::NoEnt | NfsStatus::Stale | NfsStatus::BadHandle) => {
                    self.attrs.discard(file, version)
                }
                _ => {}
            }
            return None;
        }
        Some((rec, attr_file))
    }

    /// Phase 3 of a reply: what the client receives for its completed
    /// request — the server's own packet rewritten in place, or, for a
    /// READ that disagrees with the global file size, a reply the µproxy
    /// re-initiates.
    fn finalize(
        &mut self,
        out: &mut Vec<ProxyOut>,
        rx: Inbound,
        rec: &PendingReq,
        attr_file: Option<Fhandle>,
    ) {
        // Reads must reflect the *global* file size the µproxy tracks:
        // storage and small-file servers only know their local extent, so
        // a read in a hole (or past local data) comes back short and is
        // zero-extended, and a read past EOF is truncated.
        if rec.proc == NfsProc::Read {
            if let (Some(reply), Some(fh)) = (&rx.reply, rec.fh) {
                if reply.status.is_ok() {
                    if let (Some(attr), BodyView::Read { data, .. }) =
                        (self.attrs.get(fh.file_id()), &reply.body)
                    {
                        if data.len() != read_len(rec.offset, rec.len, attr.size) {
                            let window = (rec.offset, &rx.pkt.payload[data.clone()]);
                            let fixed = NfsReply {
                                proc: NfsProc::Read,
                                status: reply.status,
                                attr: Some(attr),
                                body: read_body(rec.offset, rec.len, attr.size, [window]),
                            };
                            self.reply_to_client(out, rx.xid, rec.client_src, &fixed);
                            self.clock.lap(&mut self.phases.rewrite_ns);
                            return;
                        }
                    }
                }
            }
        }
        // Rewrite in place — restore the virtual source and patch the
        // attribute block with the authoritative cached attributes.
        let mut p = rx.pkt;
        p.rewrite_src(self.cfg.virtual_addr);
        // Return a complete, current set of attributes in every response
        // (paper §4.1): overwrite the reply's attribute block, when it
        // carries one, with the merged cached attributes.
        if let Some(attr) = attr_file.and_then(|fh| self.attrs.get(fh.file_id())) {
            let flag_off = REPLY_ATTR_OFFSET;
            if p.payload.len() >= flag_off + 4 + 84 {
                let flag = u32::from_be_bytes(
                    p.payload[flag_off..flag_off + 4].try_into().expect("fixed"),
                );
                if flag == 1 {
                    let mut enc = XdrEncoder::with_capacity(84);
                    attr.encode(&mut enc);
                    p.rewrite_payload(flag_off + 4, enc.as_bytes());
                }
            }
        }
        self.stats.replies_routed += 1;
        // Restore the original client destination.
        p.rewrite_dst(rec.client_src);
        self.clock.lap(&mut self.phases.rewrite_ns);
        out.push(ProxyOut::Client(p));
    }

    /// Handles a coordinator reply (intent acks and map fragments).
    pub fn coord_reply(&mut self, now: SimTime, reply: CoordReply) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        match reply {
            CoordReply::IntentAck { op_id, intent } => {
                if let Some(pkt) = self.soft.intent_waiters.remove(&op_id) {
                    let xid = op_id as u32;
                    let fh = match view_call(&pkt.payload) {
                        Ok((_, CallView::Other(req))) => req.primary_fh().copied(),
                        _ => None,
                    };
                    if let Some(fh) = fh {
                        self.fanout_commit(&mut out, pkt, xid, fh, Pending::Commit { intent });
                    }
                }
            }
            CoordReply::MapFragment {
                file,
                first_block,
                sites,
                warming,
            } => {
                for (i, s) in sites.iter().enumerate() {
                    let key = (file, first_block + i as u64);
                    self.soft.map_cache.insert(key, s.clone());
                }
                for (i, w) in warming.iter().enumerate() {
                    let key = (file, first_block + i as u64);
                    if w.is_empty() {
                        self.soft.warming_cache.remove(&key);
                    } else {
                        self.soft.warming_cache.insert(key, w.clone());
                    }
                }
                // Release parked requests covered by the fragment.
                let keys: Vec<(u64, u64)> = self
                    .soft
                    .map_waiters
                    .keys()
                    .filter(|(f, b)| {
                        *f == file && *b >= first_block && *b < first_block + sites.len() as u64
                    })
                    .copied()
                    .collect();
                for k in keys {
                    for pkt in self.soft.map_waiters.remove(&k).unwrap_or_default() {
                        self.admit(now, &mut out, pkt, false);
                    }
                }
            }
            CoordReply::DirtyAck { op_id } => {
                // The coordinator's dirty-region log now covers the
                // skipped mirror: release the parked write at reduced
                // redundancy.
                if let Some((pkt, live, missed, bytes)) =
                    self.soft.degrade_pending.remove(&(op_id as u32))
                {
                    self.soft.degrade_ok.insert(op_id as u32, live);
                    for site in missed {
                        self.stats.degraded_writes += 1;
                        self.stats.degraded_bytes += bytes;
                        out.push(ProxyOut::Trace(slice_obs::EventKind::DegradedWrite {
                            site: site as usize,
                            bytes,
                        }));
                    }
                    self.admit(now, &mut out, pkt, false);
                }
            }
            CoordReply::SiteProbe { site, clean } => {
                if let Some(h) = self.soft.health.get_mut(site as usize) {
                    // Suspicion clears only on a clean verdict: the site
                    // answered the probe *and* the coordinator holds no
                    // dirty regions for it.
                    if std::mem::take(&mut h.probing) && clean && h.suspected {
                        h.suspected = false;
                        h.strikes = 0;
                        self.suspicion_log.push((now, site, false));
                        out.push(ProxyOut::Trace(slice_obs::EventKind::SiteCleared {
                            site: site as usize,
                        }));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Periodic maintenance: pushes back dirty attributes older than the
    /// write-back interval (bounds timestamp drift, §4.1).
    pub fn tick(&mut self, now: SimTime) -> Vec<ProxyOut> {
        let mut out = Vec::new();
        for e in self.attrs.take_stale_dirty(now, ATTR_WRITEBACK) {
            self.push_attrs(&mut out, &e);
        }
        // Probe suspected sites through the coordinator. A probe with
        // no answer (dead coordinator, dead site) simply re-arms at the
        // next interval — probe_at doubles as the retry deadline.
        for site in 0..self.soft.health.len() as u32 {
            if self.retired[site as usize] {
                continue;
            }
            let h = &mut self.soft.health[site as usize];
            if h.suspected && now >= h.probe_at {
                h.probe_at = now + self.cfg.probe_interval;
                h.probing = true;
                self.stats.probes_sent += 1;
                out.push(ProxyOut::Coord(CoordMsg::ProbeSite { site }));
            }
        }
        out
    }
}
