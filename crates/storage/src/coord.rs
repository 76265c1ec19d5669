//! The block-service coordinator: per-file block maps and multisite
//! atomicity via intention logging.
//!
//! "The Slice block service includes a coordinator module for files that
//! span multiple storage nodes. The coordinator manages optional block maps
//! and preserves atomicity of multisite operations" (§2.2). The protocol is
//! the paper's §3.3.2: the µproxy sends an *intention* before a multisite
//! operation; the coordinator logs it to stable storage; a *completion*
//! message clears it asynchronously; if no completion arrives within a time
//! bound the coordinator probes the participants and completes or aborts
//! the operation. A failed coordinator recovers by scanning its intentions
//! log.
//!
//! The coordinator is a pure state machine: incoming messages produce a
//! reply time (log durability) and a list of [`CoordAction`]s that the
//! hosting actor dispatches. Requesters are identified by opaque tokens the
//! host supplies.

use slice_ec::{Codec, CodedLayout};
use slice_nfsproto::{ByteBuf, Windows};
use slice_sim::FxHashMap;

use slice_sim::time::{SimDuration, SimTime};

use crate::node::{StorageCtl, StorageCtlReply};
use crate::wal::{Wal, WalParams};

/// Lifecycle of a logical storage site under online reconfiguration.
///
/// Transitions are WAL-logged ([`IntentKind::SiteChange`]) so a recovered
/// coordinator rebuilds the same active set its block maps were assigned
/// over. `Active` sites take new block assignments; `Standby` sites are
/// provisioned but hold nothing until a join; `Draining` sites keep
/// serving while their map entries migrate away; `Retired` sites hold
/// nothing and are never assigned again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Serving traffic and eligible for new block assignments.
    Active,
    /// Provisioned but not yet joined: no assignments, no data.
    Standby,
    /// Planned removal in progress: entries migrating away, still serving.
    Draining,
    /// Fully drained: objects removed, never assigned again.
    Retired,
}

/// `origin` of a range queued by a degraded write or a truncate: a
/// repair, not a migration.
const NO_ORIGIN: u32 = u32::MAX;

/// `origin` of a migration no drain waits on (replica widening, join
/// rebalance).
const NO_DRAIN: u32 = u32::MAX - 1;

/// Placement policy of the files in the coordinator's maps (one per
/// coordinator: configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Stripe blocks round-robin over all storage sites, starting at a
    /// file-derived site.
    Striped,
    /// Replicate every block on `copies` sites.
    Mirrored {
        /// Replication degree.
        copies: u32,
    },
    /// Erasure-code every block (stripe) into k data + n−k parity shards
    /// across n disjoint sites (geometry in [`slice_ec::CodedLayout`]).
    Coded {
        /// Total shards per stripe.
        n: u32,
        /// Data shards per stripe.
        k: u32,
    },
}

/// The block maps as dumped for structural checking: per file,
/// `(file, [(block, replica sites)])` with blocks sorted. Every file has
/// the coordinator's [`Placement`](Coordinator::placement).
pub type BlockMapDump = Vec<(u64, Vec<(u64, Vec<u32>)>)>;

/// The kind of multisite operation an intention covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentKind {
    /// A commit spanning several storage sites.
    Commit {
        /// Object id.
        obj: u64,
    },
    /// Removal of an object from all sites.
    Remove {
        /// Object id.
        obj: u64,
    },
    /// Truncation of an object on all sites.
    Truncate {
        /// Object id.
        obj: u64,
        /// New size.
        size: u64,
    },
    /// The participant site is owed `[offset, offset+len)` of `obj` and
    /// must be brought up to date from `sources` before it may serve
    /// reads: a write completed at reduced redundancy, a truncate left
    /// stale parity, or a planned migration (widening, join rebalance,
    /// drain) assigned it the range.
    DirtyRange {
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
        /// Sites holding the bytes.
        sources: Vec<u32>,
        /// Draining site whose retirement waits on this range, `NO_DRAIN`
        /// for any other migration, `NO_ORIGIN` for a repair.
        origin: u32,
    },
    /// A block-map entry pinned by a migration, overriding the
    /// deterministic assignment (widened or drained entries are no longer
    /// derivable from the file hash and active set).
    MapPin {
        /// File / object id.
        file: u64,
        /// Logical block.
        block: u64,
        /// The pinned replica site list.
        sites: Vec<u32>,
    },
    /// A site lifecycle transition. `Draining` records carry the mapped
    /// objects the site held, so retirement can remove them even across a
    /// coordinator crash.
    SiteChange {
        /// Logical storage site.
        site: u32,
        /// The state it entered.
        state: SiteState,
        /// Mapped objects held at drain initiation (empty otherwise).
        objs: Vec<u64>,
    },
}

/// How an intention was resolved. [`Coordinator::resolutions`] counts by
/// `outcome as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentOutcome {
    /// Completion message arrived (common case).
    Completed,
    /// Probe found every participant finished; completed on their behalf.
    ProbedComplete,
    /// Probe found no participant finished; the operation never happened.
    Aborted,
    /// Probe found partial completion — or, for the coordinator's own
    /// remove or truncate, anything short of complete: the legs that did
    /// not run were re-issued. (What a client left half done is
    /// uncommitted data, which NFS V3 lets a server discard.)
    Repaired,
}

/// A durable intention record (what the WAL stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Intention id.
    pub id: u64,
    /// Operation.
    pub kind: IntentKind,
    /// Participant logical storage sites.
    pub participants: Vec<u32>,
    /// True for completion records (clearing the intention).
    pub is_completion: bool,
}

/// An intention that is logged and not yet resolved.
#[derive(Debug, Clone)]
struct OpenIntent {
    kind: IntentKind,
    participants: Vec<u32>,
    /// When it was logged or last probed; it is probed one
    /// `intent_timeout` later. Probes repeat until every participant
    /// answers: a probe sent at a crashed node is simply lost, and only a
    /// fresh round after the node recovers can resolve the intention.
    since: SimTime,
    /// Completion flags gathered by probes so far.
    probe_results: FxHashMap<u32, bool>,
    /// For a remove or truncate the coordinator runs itself: who asked
    /// `(requester, req_id)` and the sites whose leg has not answered.
    /// `None` for a µproxy's intention, and for a fan-out recovered from
    /// the log (who asked went with the crash).
    fanout: Option<(u64, u64, Vec<u32>)>,
}

/// Site-liveness probes carry this bit so they never collide with
/// intention ids (which count up from 1).
const SITE_PROBE_BASE: u64 = 1 << 62;

/// Re-send a stalled resync leg after this long (the target may still be
/// down; the control messages are idempotent).
const RESYNC_RETRY: SimDuration = SimDuration::from_secs(2);

/// Most blocks one `MapGet` answers for (the µproxy asks for 16).
const MAP_FRAGMENT_MAX: u32 = 256;

/// Shelve a resync after this many consecutive unanswered legs; a
/// [`Coordinator::kick_resync`] (node recovery) starts it again. Without
/// a cap, a never-recovered site would keep the timer wheel alive
/// forever.
const RESYNC_MAX_ATTEMPTS: u32 = 30;

/// One range a site is owed, queued for copy-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRange {
    /// WAL record id (completion records reference it).
    pub id: u64,
    /// Object id.
    pub obj: u64,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
    /// Live replica sites holding the bytes.
    pub sources: Vec<u32>,
    /// See [`IntentKind::DirtyRange`].
    origin: u32,
    /// The `MarkDirty` that logged it, if one did and the coordinator has
    /// not crashed since (see `marks_acked`).
    mark: Option<(u64, u64)>,
}

impl DirtyRange {
    /// True when the range covers any of `[lo, hi)` of `obj`.
    fn overlaps(&self, obj: u64, lo: u64, hi: u64) -> bool {
        self.obj == obj && self.offset < hi && lo < self.offset + self.len
    }

    fn kind(&self) -> IntentKind {
        IntentKind::DirtyRange {
            obj: self.obj,
            offset: self.offset,
            len: self.len,
            sources: self.sources.clone(),
            origin: self.origin,
        }
    }
}

/// The read half of one repair: windows are gathered from `legs` and
/// transformed into the bytes the target is owed.
#[derive(Debug, Clone)]
struct Gather {
    range: DirtyRange,
    /// Source legs `(site, shard index, object offset)`: one replica of a
    /// mirror, k survivor shards of a code.
    legs: Vec<(u32, u32, u64)>,
    /// Answers gathered so far, keyed by source site.
    got: FxHashMap<u32, Windows>,
    /// `(n, k, target shard index)` when the transform is a Reed–Solomon
    /// reconstruct; `None` (mirroring, the k = 1 case) forwards the
    /// source's bytes untouched.
    code: Option<(u32, u32, u32)>,
}

impl Gather {
    /// Whether a window of `obj` at `offset` read from `site` belongs to
    /// this gather. A mirror takes it from any recorded source — a late
    /// answer from one a retry rotated away from holds the same bytes; a
    /// code takes only a planned leg that has not answered yet.
    fn expects(&self, site: u32, obj: u64, offset: u64) -> bool {
        self.range.obj == obj
            && match self.code {
                None => offset == self.range.offset && self.range.sources.contains(&site),
                Some(_) => {
                    !self.got.contains_key(&site)
                        && self.legs.iter().any(|&(s, _, o)| s == site && o == offset)
                }
            }
    }

    /// The bytes the target is owed, once every answer is in: a mirror's
    /// one answer as it came, windows of the source's own buffers, short
    /// reads included; or the shard a code decodes from its k answers.
    /// The codec reads contiguous shards, so this is the one place a
    /// resync assembles bytes; a short answer is padded with the zeros its
    /// holes stand for, which are what the code sees for never-written
    /// bytes. `None` when the decode fails.
    fn transform(&mut self) -> Option<Windows> {
        let got = std::mem::take(&mut self.got);
        let Some((n, k, target)) = self.code else {
            return got.into_values().next();
        };
        let shard_len = self.range.len as usize;
        let shards: FxHashMap<u32, ByteBuf> = got
            .into_iter()
            .map(|(site, answer)| (site, answer.contiguous(shard_len)))
            .collect();
        let mut slots: Vec<Option<&[u8]>> = vec![None; n as usize];
        for &(s, idx, _) in &self.legs {
            slots[idx as usize] = shards.get(&s).map(|b| &b[..]);
        }
        Codec::new(n as usize, k as usize)
            .reconstruct_shard(&slots, target as usize)
            .map(|shard| ByteBuf::from(shard).into())
    }
}

#[derive(Debug, Clone)]
enum ResyncStage {
    /// Waiting for the source windows.
    Gather(Gather),
    /// Waiting for the target to make the bytes durable. The stash holds
    /// shared windows: retransmitting the apply leg clones refcounts, not
    /// the payload.
    Apply(DirtyRange, Windows),
}

#[derive(Debug, Clone)]
struct ResyncJob {
    queue: std::collections::VecDeque<DirtyRange>,
    stage: Option<ResyncStage>,
    bytes: u64,
    started: SimTime,
    last_attempt: SimTime,
    attempts: u32,
}

/// A resync lifecycle event drained by the hosting actor for tracing:
/// `(site, done, at, bytes)` — `done == false` marks the start.
pub type ResyncEvent = (u32, bool, SimTime, u64);

/// Everything the coordinator keeps about one storage site. All of it is
/// rebuilt from the log or lost in a crash, except `initial`.
#[derive(Debug)]
struct Site {
    /// Lifecycle; replayed from `SiteChange` records on recovery.
    state: SiteState,
    /// The configured (pre-reconfiguration) state a crash resets to
    /// before the log replays the transitions.
    initial: SiteState,
    /// Ranges the site is owed, WAL-durable.
    dirty: Vec<DirtyRange>,
    /// The resynchronization copying them back, if one runs.
    job: Option<ResyncJob>,
    /// Its resync exhausted its retries (still dirty; a kick or a newly
    /// owed range restarts it).
    gave_up: bool,
    /// Requesters parked on a liveness probe of the site.
    probers: Vec<u64>,
    /// The planned drain in progress, if any.
    drain: Option<DrainInfo>,
}

impl Site {
    fn new(initial: SiteState) -> Self {
        Site {
            state: initial,
            initial,
            dirty: Vec::new(),
            job: None,
            gave_up: false,
            probers: Vec::new(),
            drain: None,
        }
    }

    /// Owed a range, or being copied to: not safe to read from.
    fn is_dirty(&self) -> bool {
        !self.dirty.is_empty() || self.job.is_some()
    }
}

/// Bookkeeping for one in-progress planned drain.
#[derive(Debug, Clone)]
struct DrainInfo {
    started: SimTime,
    /// Mapped objects the site held at drain initiation (removed from the
    /// site at retirement).
    objs: std::collections::BTreeSet<u64>,
    /// Bytes migrated away so far.
    bytes: u64,
}

/// Messages addressed to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordMsg {
    /// Declare an intention before a multisite operation.
    BeginIntent {
        /// Caller-chosen correlation id.
        op_id: u64,
        /// Operation.
        kind: IntentKind,
        /// Participant sites.
        participants: Vec<u32>,
    },
    /// Clear an intention after the operation completed.
    CompleteIntent {
        /// Intention id from the ack.
        intent: u64,
    },
    /// Fetch (and assign, if absent) a block-map fragment.
    MapGet {
        /// File / object id.
        file: u64,
        /// First logical block of the fragment.
        first_block: u64,
        /// Number of blocks requested.
        count: u32,
    },
    /// Remove a file's data from all storage sites atomically.
    RemoveFile {
        /// Caller-chosen correlation id.
        req_id: u64,
        /// File / object id.
        file: u64,
    },
    /// Truncate a file's data on all storage sites atomically.
    TruncateFile {
        /// Caller-chosen correlation id.
        req_id: u64,
        /// File / object id.
        file: u64,
        /// New size.
        size: u64,
    },
    /// Record that a mirrored write is about to complete at reduced
    /// redundancy: `missed` sites are down and will not receive
    /// `[offset, offset+len)` of `obj`. The write may proceed only after
    /// the dirty ranges are durable (the ack gates the degraded fan-out).
    MarkDirty {
        /// Caller-chosen correlation id (the write's xid).
        op_id: u64,
        /// Object id.
        obj: u64,
        /// Byte offset.
        offset: u64,
        /// Byte length.
        len: u64,
        /// Suspected/crashed sites that will miss the write.
        missed: Vec<u32>,
        /// Live replica sites that will hold the bytes.
        sources: Vec<u32>,
    },
    /// Ask whether `site` is safe to serve mirrored reads: alive, with no
    /// dirty ranges outstanding and no resynchronization in progress.
    ProbeSite {
        /// Logical storage site.
        site: u32,
    },
}

/// Replies the coordinator sends to requesters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordReply {
    /// Intention is durable; proceed with the operation.
    IntentAck {
        /// Echo of the caller's op id.
        op_id: u64,
        /// Assigned intention id (for the completion message).
        intent: u64,
    },
    /// A block-map fragment.
    MapFragment {
        /// File id.
        file: u64,
        /// First block covered.
        first_block: u64,
        /// Per-block replica site lists.
        sites: Vec<Vec<u32>>,
        /// Per-block subsets of `sites` still owed a copy (an open
        /// dirty-region or migration range overlaps the block). Writes
        /// fan out to them as usual, but the µproxy keeps them out of the
        /// mirror-read rotation until the log drains — a freshly pinned
        /// migration target holds no bytes yet.
        warming: Vec<Vec<u32>>,
    },
    /// Remove finished on all sites.
    RemoveDone {
        /// Echo of the caller's request id.
        req_id: u64,
    },
    /// Truncate finished on all sites.
    TruncateDone {
        /// Echo of the caller's request id.
        req_id: u64,
    },
    /// Dirty ranges are durable; the degraded write may proceed.
    DirtyAck {
        /// Echo of the caller's op id.
        op_id: u64,
    },
    /// Answer to a [`CoordMsg::ProbeSite`]: sent only once the probed
    /// site answered a liveness probe (no answer means no reply — the
    /// requester re-probes on its own schedule).
    SiteProbe {
        /// The probed site.
        site: u32,
        /// True when the site is alive with no dirty ranges and no
        /// resynchronization in progress at this coordinator.
        clean: bool,
    },
}

/// Actions for the hosting actor to dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Send `reply` to the requester identified by `to`.
    Reply {
        /// Requester token (supplied by the host with the request).
        to: u64,
        /// The reply.
        reply: CoordReply,
        /// Earliest send time (log durability for acks).
        at: SimTime,
    },
    /// Send a control message to a logical storage site.
    SendCtl {
        /// Logical storage site.
        site: u32,
        /// The control message.
        ctl: StorageCtl,
    },
}

/// The coordinator state machine. [`Coordinator::crash`] names every field
/// with what a crash does to it.
#[derive(Debug)]
pub struct Coordinator {
    wal: Wal<IntentRecord>,
    next_intent: u64,
    /// Every intention logged and not yet resolved; [`Self::resolve`] is
    /// the one way out.
    open: FxHashMap<u64, OpenIntent>,
    /// Materialized block maps, `file -> block -> sites`.
    maps: FxHashMap<u64, FxHashMap<u64, Vec<u32>>>,
    /// Placement of every file.
    placement: Placement,
    /// Stripe (block) size in bytes; coded geometry derives from it.
    stripe_unit: u64,
    /// Probe intentions older than this.
    pub intent_timeout: SimDuration,
    /// Intentions resolved, by [`IntentOutcome`].
    resolved: [u64; 4],
    /// One record per storage site, indexed by site.
    sites: Vec<Site>,
    /// Acknowledged MarkDirty ops by `(requester, op_id)` — every client
    /// numbers its xids from 1, so the op id alone is ambiguous — with
    /// their durable time (for idempotent re-acks of retransmissions) and
    /// the ranges they logged that are still open; the mark is forgotten
    /// when its last range completes, which bounds the table.
    marks_acked: FxHashMap<(u64, u64), (SimTime, usize)>,
    /// Resync start/done events awaiting pickup by the hosting actor.
    resync_events: Vec<ResyncEvent>,
    /// Completed resyncs: `(site, started, finished, bytes)`.
    resync_history: Vec<(u32, SimTime, SimTime, u64)>,
    /// Pinned block-map entries `(file -> block -> (record id, sites))`,
    /// WAL-durable; they override the deterministic assignment.
    pins: FxHashMap<u64, std::collections::BTreeMap<u64, (u64, Vec<u32>)>>,
    /// Bytes copied by completed migration ranges.
    migrated_bytes: u64,
    /// Completed drains: `(site, started, retired, bytes migrated)`.
    reconf_history: Vec<(u32, SimTime, SimTime, u64)>,
}

impl Coordinator {
    /// Creates a coordinator over `storage_sites` logical storage sites.
    pub fn new(storage_sites: u32) -> Self {
        Coordinator {
            wal: Wal::new(WalParams::default()),
            next_intent: 1,
            open: FxHashMap::default(),
            maps: FxHashMap::default(),
            placement: Placement::Striped,
            stripe_unit: 64 * 1024,
            intent_timeout: SimDuration::from_secs(5),
            resolved: [0; 4],
            sites: (0..storage_sites)
                .map(|_| Site::new(SiteState::Active))
                .collect(),
            marks_acked: FxHashMap::default(),
            resync_events: Vec::new(),
            resync_history: Vec::new(),
            pins: FxHashMap::default(),
            migrated_bytes: 0,
            reconf_history: Vec::new(),
        }
    }

    /// Configures the first `active` sites as `Active` and the rest as
    /// `Standby` (awaiting a join). Configuration, not a logged
    /// transition: it is the state `crash` resets to before WAL replay.
    pub fn set_active_sites(&mut self, active: u32) {
        let active = active.clamp(1, self.sites.len() as u32) as usize;
        for (i, s) in self.sites.iter_mut().enumerate() {
            s.initial = if i < active {
                SiteState::Active
            } else {
                SiteState::Standby
            };
            s.state = s.initial;
        }
    }

    /// Per-site lifecycle states.
    pub fn site_states(&self) -> Vec<SiteState> {
        self.sites.iter().map(|s| s.state).collect()
    }

    /// The sites in one of `states`, sorted.
    fn sites_in(&self, states: &[SiteState]) -> Vec<u32> {
        let all = (0..).zip(&self.sites);
        let chosen = all.filter(|(_, s)| states.contains(&s.state));
        chosen.map(|(i, _)| i).collect()
    }

    /// True once `site` finished a planned drain.
    pub fn is_retired(&self, site: u32) -> bool {
        let site = self.sites.get(site as usize);
        site.is_some_and(|s| s.state == SiteState::Retired)
    }

    /// Sites that finished a planned drain, sorted.
    pub fn retired_sites(&self) -> Vec<u32> {
        self.sites_in(&[SiteState::Retired])
    }

    /// Sites new block assignments may land on, sorted.
    fn assignable_sites(&self) -> Vec<u32> {
        self.sites_in(&[SiteState::Active])
    }

    /// Every range any site is owed, in site order.
    fn owed(&self) -> impl Iterator<Item = &DirtyRange> {
        self.sites.iter().flat_map(|s| &s.dirty)
    }

    /// Outstanding migration ranges (widen + rebalance + drain copies).
    pub fn migrations_pending(&self) -> usize {
        self.owed().filter(|r| r.origin != NO_ORIGIN).count()
    }

    /// Bytes copied by completed migration ranges.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes
    }

    /// Completed drains: `(site, started, retired, bytes migrated)`.
    pub fn reconf_history(&self) -> &[(u32, SimTime, SimTime, u64)] {
        &self.reconf_history
    }

    /// Pinned block-map entries held (live soft state).
    pub fn pinned_entries(&self) -> usize {
        self.pins.values().map(|m| m.len()).sum()
    }

    /// Every durable pin: `(file, block, sites)`, sorted by file then
    /// block (for the drain oracle and deterministic audits).
    pub fn pinned_entries_dump(&self) -> Vec<(u64, u64, Vec<u32>)> {
        let mut out: Vec<_> = self
            .pins
            .iter()
            .flat_map(|(&f, p)| p.iter().map(move |(&b, (_, sites))| (f, b, sites.clone())))
            .collect();
        out.sort_unstable_by_key(|&(f, b, _)| (f, b));
        out
    }

    /// Sets the placement of every file (configuration; survives
    /// coordinator crashes).
    pub fn set_default_placement(&mut self, placement: Placement) {
        if let Placement::Coded { n, k } = placement {
            assert!(
                k > 0 && k < n && n as usize <= self.sites.len(),
                "coded (n,k) needs n sites"
            );
        }
        self.placement = placement;
    }

    /// The placement of every file.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// `(n, k, geometry)` when files are erasure-coded.
    fn coded(&self) -> Option<(u32, u32, CodedLayout)> {
        match self.placement {
            Placement::Coded { n, k } => Some((n, k, CodedLayout::new(n, k, self.stripe_unit))),
            _ => None,
        }
    }

    /// Sets the stripe (block) size coded geometry derives from.
    pub fn set_stripe_unit(&mut self, stripe_unit: u64) {
        assert!(stripe_unit > 0);
        self.stripe_unit = stripe_unit;
    }

    /// The block size map entries are keyed on (audit/oracle use).
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Intentions currently open (logged, not completed).
    pub fn open_intents(&self) -> usize {
        self.open.len()
    }

    /// Block-map entries held across all files (live soft state).
    pub fn map_entries(&self) -> usize {
        self.maps.values().map(|m| m.len()).sum()
    }

    /// Intentions resolved so far, counted by `IntentOutcome as usize`.
    pub fn resolutions(&self) -> [u64; 4] {
        self.resolved
    }

    /// WAL statistics (appends, batches, bytes).
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.wal.stats()
    }

    /// True while the periodic sweep must keep running: open intentions,
    /// an active resync, or dirty ranges not yet shelved as hopeless.
    pub fn needs_sweep(&self) -> bool {
        let busy = |s: &Site| s.job.is_some() || !s.dirty.is_empty() && !s.gave_up;
        !self.open.is_empty() || self.sites.iter().any(busy)
    }

    /// Dirty ranges outstanding across all sites.
    pub fn dirty_ranges(&self) -> usize {
        self.owed().count()
    }

    /// A sorted dump of the dirty-region log for structural checking:
    /// `(site, obj, offset, len)`.
    pub fn dirty_log_dump(&self) -> Vec<(u32, u64, u64, u64)> {
        let mut out = Vec::new();
        for (i, site) in (0..).zip(&self.sites) {
            out.extend(site.dirty.iter().map(|r| (i, r.obj, r.offset, r.len)));
        }
        out.sort_unstable();
        out
    }

    /// Completed resynchronizations: `(site, started, finished, bytes)`.
    pub fn resync_history(&self) -> &[(u32, SimTime, SimTime, u64)] {
        &self.resync_history
    }

    /// Total bytes copied by finished and in-flight resyncs.
    pub fn resync_bytes(&self) -> u64 {
        let finished = self.resync_history.iter().map(|&(_, _, _, b)| b);
        let running = self.sites.iter().flat_map(|s| &s.job).map(|j| j.bytes);
        finished.chain(running).sum()
    }

    /// Drains resync start/done events for the hosting actor's trace.
    pub fn take_resync_events(&mut self) -> Vec<ResyncEvent> {
        std::mem::take(&mut self.resync_events)
    }

    /// Restarts resynchronization once `site` is known to have recovered:
    /// un-shelves every site — a copy-back is shelved for want of its
    /// target *or* of its only source, and the coordinator does not keep
    /// which — and forces `site`'s own job to retry at the next sweep. A
    /// site that does not exist is ignored.
    pub fn kick_resync(&mut self, site: u32) {
        let Some(s) = self.sites.get_mut(site as usize) else {
            return;
        };
        if let Some(job) = &mut s.job {
            job.attempts = 0;
            job.last_attempt = SimTime::ZERO;
        }
        for s in &mut self.sites {
            s.gave_up = false;
        }
    }

    /// A sorted snapshot of the block maps for structural checking.
    pub fn block_map_dump(&self) -> BlockMapDump {
        self.mapped_files()
            .into_iter()
            .map(|file| (file, self.entries(file)))
            .collect()
    }

    /// Files with a materialized block map, sorted.
    fn mapped_files(&self) -> Vec<u64> {
        let mut files: Vec<u64> = self.maps.keys().copied().collect();
        files.sort_unstable();
        files
    }

    /// `file`'s materialized map entries `(block, sites)`, sorted by block.
    fn entries(&self, file: u64) -> Vec<(u64, Vec<u32>)> {
        let map = self.maps.get(&file);
        let mut blocks: Vec<_> = map
            .into_iter()
            .flatten()
            .map(|(&b, s)| (b, s.clone()))
            .collect();
        blocks.sort_unstable_by_key(|&(b, _)| b);
        blocks
    }

    /// The deterministic assignment of one block over `active` sites
    /// (logical slots rotate over the active list, so with every site
    /// active this is the historical all-sites assignment).
    fn compute_sites(placement: Placement, active: &[u32], file: u64, b: u64) -> Vec<u32> {
        let copies = match placement {
            Placement::Striped => 1,
            Placement::Mirrored { copies } => copies,
            Placement::Coded { n, .. } => n,
        };
        slice_hashes::stripe_slots(file, b, copies, active.len() as u32)
            .map(|slot| active[slot as usize])
            .collect()
    }

    /// The (assigned-if-absent) site lists of `blocks` of `file`. The
    /// file's map is created on first use with its pinned entries seeded
    /// (pins override the deterministic assignment, and a lazily rebuilt
    /// map — e.g. after a coordinator crash — must honor them).
    fn assign_blocks(&mut self, file: u64, blocks: std::ops::Range<u64>) -> Vec<Vec<u32>> {
        let active = self.assignable_sites();
        let placement = self.placement;
        let map = self.maps.entry(file).or_default();
        if map.is_empty() {
            if let Some(pinned) = self.pins.get(&file) {
                for (&b, (_, sites)) in pinned {
                    map.insert(b, sites.clone());
                }
            }
        }
        blocks
            .map(|b| {
                map.entry(b)
                    .or_insert_with(|| Self::compute_sites(placement, &active, file, b))
                    .clone()
            })
            .collect()
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_intent;
        self.next_intent += 1;
        id
    }

    /// Appends one record to the WAL and returns its durable time. An
    /// opening record is 64 bytes, a completion 32.
    fn log(
        &mut self,
        now: SimTime,
        id: u64,
        kind: IntentKind,
        participants: Vec<u32>,
        completion: bool,
    ) -> SimTime {
        let record = IntentRecord {
            id,
            kind,
            participants,
            is_completion: completion,
        };
        self.wal
            .append(now, record, if completion { 32 } else { 64 })
    }

    /// Logs a new intention and holds it open until [`Self::resolve`];
    /// returns its id and durable time.
    fn open_intent(
        &mut self,
        now: SimTime,
        kind: IntentKind,
        participants: Vec<u32>,
        fanout: Option<(u64, u64, Vec<u32>)>,
    ) -> (u64, SimTime) {
        let id = self.next_id();
        let durable = self.log(now, id, kind.clone(), participants.clone(), false);
        let intent = OpenIntent {
            kind,
            participants,
            since: now,
            probe_results: FxHashMap::default(),
            fanout,
        };
        self.open.insert(id, intent);
        (id, durable)
    }

    /// The one way an intention leaves `open`, whoever settled it — the
    /// requester's completion message, the last `Done` of a fan-out, or a
    /// probe round's verdict: queues the parity rebuild a truncate that
    /// happened leaves behind, logs the completion record, counts the
    /// outcome, tells whoever asked for a fan-out that it is done, and
    /// re-issues a repaired remove or truncate where its leg did not run.
    fn resolve(&mut self, now: SimTime, id: u64, outcome: IntentOutcome) -> Vec<CoordAction> {
        let Some(p) = self.open.remove(&id) else {
            return vec![];
        };
        let mut actions = Vec::new();
        if let Some((to, req_id, _)) = p.fanout {
            let reply = match p.kind {
                IntentKind::Remove { .. } => CoordReply::RemoveDone { req_id },
                _ => CoordReply::TruncateDone { req_id },
            };
            actions.push(CoordAction::Reply { to, reply, at: now });
        }
        if outcome == IntentOutcome::Repaired {
            // Idempotent legs; what a client left half done needs none
            // (NFS V3 lets a server discard uncommitted writes).
            let done = |s: &u32| p.probe_results.get(s) == Some(&true);
            let missing: Vec<u32> = p
                .participants
                .iter()
                .copied()
                .filter(|s| !done(s))
                .collect();
            actions.extend(Self::ctl_legs(&p.kind, id, &missing));
        }
        // A truncate (never aborted: it ran, or was just re-issued) clips
        // the data shards of a coded file and leaves stale parity in the
        // boundary stripe.
        if let IntentKind::Truncate { obj, size } = p.kind {
            self.queue_truncate_parity_rebuild(now, obj, size);
        }
        // Completion records are logged asynchronously; their durability
        // does not gate anything.
        self.log(now, id, p.kind, p.participants, true);
        self.resolved[outcome as usize] += 1;
        actions
    }

    fn reply(to: u64, reply: CoordReply, at: SimTime) -> Vec<CoordAction> {
        vec![CoordAction::Reply { to, reply, at }]
    }

    /// Handles a request from `requester` (an opaque host token); returns
    /// dispatch actions.
    pub fn handle(&mut self, now: SimTime, requester: u64, msg: CoordMsg) -> Vec<CoordAction> {
        match msg {
            CoordMsg::BeginIntent {
                op_id,
                kind,
                participants,
            } => {
                let (intent, durable) = self.open_intent(now, kind, participants, None);
                Self::reply(requester, CoordReply::IntentAck { op_id, intent }, durable)
            }
            CoordMsg::CompleteIntent { intent } => {
                self.resolve(now, intent, IntentOutcome::Completed)
            }
            CoordMsg::MapGet {
                file,
                first_block,
                count,
            } => {
                // `count` is off the wire and sizes the answer.
                let count = u64::from(count.min(MAP_FRAGMENT_MAX));
                let sites =
                    self.assign_blocks(file, first_block..first_block.saturating_add(count));
                // Mirrored replicas with an open range over the block are
                // "warming": a pinned migration target has no bytes until
                // the repair copies them, so reads must not rotate onto
                // it yet. Coded placements repair per shard through
                // degraded reads instead.
                let unit = self.stripe_unit;
                let warming = |i: u64| -> Vec<u32> {
                    let lo = (first_block + i).saturating_mul(unit);
                    let hi = lo.saturating_add(unit);
                    let owed = |s: &Site| s.dirty.iter().any(|r| r.overlaps(file, lo, hi));
                    let all = (0..).zip(&self.sites);
                    all.filter(|(_, s)| owed(s)).map(|(i, _)| i).collect()
                };
                let warming = if self.coded().is_some() {
                    vec![Vec::new(); sites.len()]
                } else {
                    (0..sites.len() as u64).map(warming).collect()
                };
                let fragment = CoordReply::MapFragment {
                    file,
                    first_block,
                    sites,
                    warming,
                };
                Self::reply(requester, fragment, now)
            }
            CoordMsg::RemoveFile { req_id, file } => {
                self.fanout(now, requester, req_id, IntentKind::Remove { obj: file })
            }
            CoordMsg::TruncateFile { req_id, file, size } => self.fanout(
                now,
                requester,
                req_id,
                IntentKind::Truncate { obj: file, size },
            ),
            CoordMsg::MarkDirty {
                op_id,
                obj,
                offset,
                len,
                missed,
                sources,
            } => {
                let mark = (requester, op_id);
                // Retransmission of an already-durable mark: re-ack
                // without duplicating the ranges.
                if let Some(&(at, _)) = self.marks_acked.get(&mark) {
                    return Self::reply(requester, CoordReply::DirtyAck { op_id }, at.max(now));
                }
                let coded = self.coded().is_some();
                let mut durable = now;
                let mut logged = 0;
                for &site in &missed {
                    // A retired site never returns: queuing copy-back for
                    // it would leak soft state forever. A site that does
                    // not exist is owed nothing.
                    let state = self.sites.get(site as usize).map(|s| s.state);
                    if matches!(state, None | Some(SiteState::Retired)) {
                        continue;
                    }
                    // Mirrored ranges are file ranges; coded ranges are
                    // split per stripe into the site's own shard windows
                    // (object offsets), so each queued range rebuilds
                    // exactly one shard.
                    let windows = if coded {
                        self.coded_missed_windows(obj, offset, len, site, &sources)
                    } else {
                        vec![(offset, len, sources.clone())]
                    };
                    for (w_off, w_len, srcs) in windows {
                        let mark = Some(mark);
                        durable =
                            self.queue_range(now, site, obj, w_off, w_len, srcs, NO_ORIGIN, mark);
                        logged += 1;
                    }
                }
                if logged > 0 {
                    self.marks_acked.insert(mark, (durable, logged));
                }
                Self::reply(requester, CoordReply::DirtyAck { op_id }, durable)
            }
            CoordMsg::ProbeSite { site } => {
                // Nothing is known, and nobody can be asked, about a site
                // that does not exist.
                let Some(s) = self.sites.get_mut(site as usize) else {
                    return vec![];
                };
                if s.is_dirty() {
                    let unclean = CoordReply::SiteProbe { site, clean: false };
                    return Self::reply(requester, unclean, now);
                }
                // Clean on the books — but only the node itself can prove
                // it is alive. Park the requester; the probe reply (if
                // any) releases every parked requester.
                if !s.probers.contains(&requester) {
                    s.probers.push(requester);
                }
                vec![CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::Probe {
                        intent: SITE_PROBE_BASE | u64::from(site),
                    },
                }]
            }
        }
    }

    /// The (assigned-if-absent) site list of one stripe of `file` — the
    /// same deterministic assignment `MapGet` hands the µproxy.
    fn stripe_sites(&mut self, file: u64, stripe: u64) -> Vec<u32> {
        self.assign_blocks(file, stripe..stripe + 1)
            .pop()
            .unwrap_or_default()
    }

    /// The object windows `site` missed from a coded write of
    /// `[offset, offset+len)`: one `(object offset, len, stripe sources)`
    /// per overlapped stripe the site participates in — its own data
    /// window when it holds a data shard, the parity hull when it holds
    /// parity.
    fn coded_missed_windows(
        &mut self,
        obj: u64,
        offset: u64,
        len: u64,
        site: u32,
        sources: &[u32],
    ) -> Vec<(u64, u64, Vec<u32>)> {
        let Some((_, k, layout)) = self.coded().filter(|_| len > 0) else {
            return vec![];
        };
        let mut out = Vec::new();
        for s in offset / self.stripe_unit..=(offset + len - 1) / self.stripe_unit {
            let sites = self.stripe_sites(obj, s);
            let Some(idx) = sites.iter().position(|&x| x == site) else {
                continue;
            };
            let idx = idx as u32;
            let (lo, hi) = if idx < k {
                layout.data_window(s, idx, offset, len)
            } else {
                layout.parity_window(s, offset, len)
            };
            if lo >= hi {
                continue;
            }
            let srcs: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|&x| x != site && sources.contains(&x))
                .collect();
            out.push((layout.shard_obj_offset(s, idx, lo), hi - lo, srcs));
        }
        out
    }

    /// Queues a parity rebuild of the boundary stripe after a mid-stripe
    /// truncate of a coded file: the surviving parity bytes still encode
    /// the clipped data, so re-encode from the k data shards (the other
    /// parity shards are equally stale and must not serve as sources).
    fn queue_truncate_parity_rebuild(&mut self, now: SimTime, file: u64, size: u64) {
        let Some((n, k, layout)) = self.coded() else {
            return;
        };
        if size.is_multiple_of(self.stripe_unit) {
            return;
        }
        let stripe = size / self.stripe_unit;
        let sites = self.stripe_sites(file, stripe);
        if sites.len() < n as usize {
            return;
        }
        let data_sites: Vec<u32> = sites[..k as usize].to_vec();
        for p in k..n {
            let offset = layout.shard_obj_offset(stripe, p, 0);
            let len = layout.shard_size();
            let sources = data_sites.clone();
            let target = sites[p as usize];
            self.queue_range(now, target, file, offset, len, sources, NO_ORIGIN, None);
        }
    }

    /// Plans the gather of `range` for `target`: which windows to read
    /// from which sources, rotated by `rotation` so retries route around
    /// a dead source. A mirror reads the range itself from one recorded
    /// source; a code resolves the stripe geometry and reads the matching
    /// window of k survivor shards. `None` means the range cannot be
    /// repaired (no source recorded, the site left the stripe, or too few
    /// survivors) and should be drained.
    fn plan_gather(&mut self, target: u32, range: &DirtyRange, rotation: u32) -> Option<Gather> {
        if range.sources.is_empty() {
            return None;
        }
        let mut gather = Gather {
            range: range.clone(),
            legs: Vec::new(),
            got: FxHashMap::default(),
            code: None,
        };
        let Some((n, k, layout)) = self.coded() else {
            let source = range.sources[rotation as usize % range.sources.len()];
            gather.legs.push((source, 0, range.offset));
            return Some(gather);
        };
        let stripe = range.offset / self.stripe_unit;
        let sites = self.stripe_sites(range.obj, stripe);
        let target_idx = sites.iter().position(|&s| s == target)? as u32;
        let pos = range
            .offset
            .checked_sub(layout.shard_obj_offset(stripe, target_idx, 0))?;
        if pos + range.len > layout.shard_size() {
            return None;
        }
        let eligible: Vec<(u32, u32)> = sites
            .iter()
            .enumerate()
            .filter(|&(i, &s)| i as u32 != target_idx && range.sources.contains(&s))
            .map(|(i, &s)| (s, i as u32))
            .collect();
        if eligible.len() < k as usize {
            return None;
        }
        gather.legs = (0..k as usize)
            .map(|i| {
                let (site, idx) = eligible[(rotation as usize + i) % eligible.len()];
                (site, idx, layout.shard_obj_offset(stripe, idx, pos))
            })
            .collect();
        gather.code = Some((n, k, target_idx));
        Some(gather)
    }

    /// Logs that `target` is owed `[offset, offset+len)` of `obj` and
    /// queues the range on its dirty log: every repair and every
    /// migration copy enters the engine here. Returns the record's
    /// durable time.
    #[allow(clippy::too_many_arguments)]
    fn queue_range(
        &mut self,
        now: SimTime,
        target: u32,
        obj: u64,
        offset: u64,
        len: u64,
        sources: Vec<u32>,
        origin: u32,
        mark: Option<(u64, u64)>,
    ) -> SimTime {
        let range = DirtyRange {
            id: self.next_id(),
            obj,
            offset,
            len,
            sources,
            origin,
            mark,
        };
        let durable = self.log(now, range.id, range.kind(), vec![target], false);
        let site = &mut self.sites[target as usize];
        site.dirty.push(range);
        // The site is dirty again: any shelved resync must restart once
        // the node is back.
        site.gave_up = false;
        durable
    }

    /// Durably pins `file`'s `block` entry to `sites`, completing any
    /// previous pin of the same block so replay keeps only the newest.
    fn pin_entry(&mut self, now: SimTime, file: u64, block: u64, sites: Vec<u32>) {
        let id = self.next_id();
        let pins = self.pins.entry(file).or_default();
        if let Some((old_id, old_sites)) = pins.insert(block, (id, sites.clone())) {
            let old = IntentKind::MapPin {
                file,
                block,
                sites: old_sites,
            };
            self.log(now, old_id, old, vec![], true);
        }
        self.log(
            now,
            id,
            IntentKind::MapPin { file, block, sites },
            vec![],
            false,
        );
    }

    fn log_site_change(&mut self, now: SimTime, site: u32, state: SiteState, objs: Vec<u64>) {
        let id = self.next_id();
        let kind = IntentKind::SiteChange { site, state, objs };
        self.log(now, id, kind, vec![], false);
        self.sites[site as usize].state = state;
    }

    /// Pins every materialized block-map entry. Membership changes alter
    /// the deterministic assignment function, so entries materialized
    /// under the old site set must be made durable before the set
    /// changes — otherwise a coordinator crash would rebuild them
    /// differently and strand the bytes.
    fn pin_all_entries(&mut self, now: SimTime) {
        for file in self.mapped_files() {
            for (block, sites) in self.entries(file) {
                if !self.pins.get(&file).is_some_and(|p| p.contains_key(&block)) {
                    self.pin_entry(now, file, block, sites);
                }
            }
        }
    }

    /// Re-points `file`'s `block` entry at `new_sites` (pinned, so a
    /// recovered coordinator keeps it) and queues the copy of the block
    /// from `sources` to `copy_to`. The bytes flow through the ordinary
    /// repair path, so readers pick up the new replica only after the log
    /// drains.
    #[allow(clippy::too_many_arguments)]
    fn repoint(
        &mut self,
        now: SimTime,
        file: u64,
        block: u64,
        new_sites: Vec<u32>,
        copy_to: u32,
        sources: Vec<u32>,
        origin: u32,
    ) {
        self.pin_entry(now, file, block, new_sites.clone());
        if let Some(map) = self.maps.get_mut(&file) {
            map.insert(block, new_sites);
        }
        let unit = self.stripe_unit;
        self.queue_range(
            now,
            copy_to,
            file,
            block * unit,
            unit,
            sources,
            origin,
            None,
        );
    }

    /// An active site not yet holding `block`, rotated across the
    /// candidates by block so re-pointed load spreads instead of piling
    /// on one site.
    fn spare_site(active: &[u32], holders: &[u32], block: u64) -> Option<u32> {
        let spare: Vec<u32> = active
            .iter()
            .copied()
            .filter(|s| !holders.contains(s))
            .collect();
        (!spare.is_empty()).then(|| spare[(block % spare.len() as u64) as usize])
    }

    /// Widens every mirrored block entry of `file` by one replica on an
    /// active site (demand-driven replication of a hot file). Returns
    /// ranges queued.
    pub fn widen_file(&mut self, now: SimTime, file: u64) -> usize {
        if !matches!(self.placement, Placement::Mirrored { .. }) {
            return 0;
        }
        let active = self.assignable_sites();
        let mut queued = 0;
        for (block, old) in self.entries(file) {
            let Some(target) = Self::spare_site(&active, &old, block) else {
                continue;
            };
            let mut sites = old.clone();
            sites.push(target);
            self.repoint(now, file, block, sites, target, old, NO_DRAIN);
            queued += 1;
        }
        queued
    }

    /// Joins a standby `site` and rebalances: mirrored entries whose
    /// fresh assignment over the widened active set lands on the new site
    /// move one replica onto it (the surviving old replica keeps serving
    /// reads until the log drains). Returns ranges queued.
    pub fn join_site(&mut self, now: SimTime, site: u32) -> usize {
        if self.sites.get(site as usize).map(|s| s.state) != Some(SiteState::Standby) {
            return 0;
        }
        // Entries pinned before the join (widen/drain placements) are
        // deliberate and stay put; `pin_all_entries` below pins the rest
        // only for crash durability of the old assignment.
        let pre_pinned: std::collections::BTreeSet<(u64, u64)> = self
            .pinned_entries_dump()
            .into_iter()
            .map(|(f, b, _)| (f, b))
            .collect();
        self.pin_all_entries(now);
        self.log_site_change(now, site, SiteState::Active, vec![]);
        let placement = self.placement;
        if !matches!(placement, Placement::Mirrored { .. }) {
            return 0;
        }
        let active = self.assignable_sites();
        let mut queued = 0;
        for file in self.mapped_files() {
            for (block, old) in self.entries(file) {
                if old.len() < 2
                    || old.contains(&site)
                    || pre_pinned.contains(&(file, block))
                    || !Self::compute_sites(placement, &active, file, block).contains(&site)
                {
                    continue;
                }
                // Move the last replica; the first keeps serving reads
                // while the new one syncs.
                let mut sites = old.clone();
                *sites.last_mut().expect("non-empty entry") = site;
                self.repoint(now, file, block, sites, site, old, NO_DRAIN);
                queued += 1;
            }
        }
        queued
    }

    /// Starts a planned drain of `site` (migrate-then-retire, distinct
    /// from a crash): every non-coded map entry referencing it is
    /// re-pointed at a replacement site (the draining site stays live and
    /// serves as first source), and when the last migration completes the
    /// site retires — its mapped objects are removed and its per-site
    /// soft state purged. Returns `(ranges queued, immediate actions)`;
    /// the actions are non-empty only when nothing referenced the site
    /// and it retires on the spot.
    pub fn drain_site(&mut self, now: SimTime, site: u32) -> (usize, Vec<CoordAction>) {
        if self.sites.get(site as usize).map(|s| s.state) != Some(SiteState::Active) {
            return (0, vec![]);
        }
        self.pin_all_entries(now);
        let mut moves: Vec<(u64, u64, Vec<u32>)> = Vec::new();
        if self.coded().is_none() {
            for file in self.mapped_files() {
                let held = self.entries(file).into_iter();
                moves.extend(
                    held.filter(|(_, s)| s.contains(&site))
                        .map(|(b, s)| (file, b, s)),
                );
            }
        }
        let objs: std::collections::BTreeSet<u64> = moves.iter().map(|&(f, _, _)| f).collect();
        self.log_site_change(
            now,
            site,
            SiteState::Draining,
            objs.iter().copied().collect(),
        );
        self.sites[site as usize].drain = Some(DrainInfo {
            started: now,
            objs,
            bytes: 0,
        });
        let active = self.assignable_sites();
        let mut queued = 0;
        for (file, block, old) in moves {
            // No replacement capacity: the entry keeps referencing the
            // site and the drain stays open (visible via gauges).
            let Some(replacement) = Self::spare_site(&active, &old, block) else {
                continue;
            };
            let swap = |&s: &u32| if s == site { replacement } else { s };
            let fresh: Vec<u32> = old.iter().map(swap).collect();
            // The draining site is alive and authoritative: it leads the
            // source list.
            let sources: Vec<u32> = std::iter::once(site)
                .chain(old.iter().copied().filter(|&s| s != site))
                .collect();
            self.repoint(now, file, block, fresh, replacement, sources, site);
            queued += 1;
        }
        (queued, self.finish_drain(now, site))
    }

    /// Retires `site` if it is draining and fully drained: logs the
    /// transition, resets its record (the dirty log, resync job, shelf,
    /// and probe waiters a never-returning node would otherwise leak),
    /// and removes its mapped objects.
    fn finish_drain(&mut self, now: SimTime, site: u32) -> Vec<CoordAction> {
        // Only retire once its last migration has landed and nothing
        // references the site (a move that found no replacement capacity
        // leaves the drain open).
        if self.sites[site as usize].drain.is_none() || self.owed().any(|r| r.origin == site) {
            return vec![];
        }
        let referenced = self
            .maps
            .values()
            .any(|m| m.values().any(|s| s.contains(&site)))
            || self
                .pins
                .values()
                .any(|p| p.values().any(|(_, s)| s.contains(&site)));
        if referenced {
            return vec![];
        }
        let record = &mut self.sites[site as usize];
        let gone = std::mem::replace(record, Site::new(record.initial));
        let info = gone.drain.expect("draining, checked above");
        self.log_site_change(now, site, SiteState::Retired, vec![]);
        for r in gone.dirty {
            // Ranges still queued *for* the retired site are moot; complete
            // them durably so they cannot replay.
            self.forget_mark(&r);
            self.log(now, r.id, r.kind(), vec![site], true);
        }
        self.reconf_history
            .push((site, info.started, now, info.bytes));
        info.objs
            .iter()
            .map(|&obj| CoordAction::SendCtl {
                site,
                // Nobody waits for a retirement remove: it names no
                // intention.
                ctl: StorageCtl::Remove { obj, intent: 0 },
            })
            .collect()
    }

    /// Live sources for a mirrored range derived from the *current* block
    /// map: after a rebalance the replica set can differ from the one
    /// recorded when the range was logged. Sites that are the target,
    /// retired, or themselves dirty over the same bytes are excluded; the
    /// recorded set is the fallback when nothing usable is mapped (the
    /// old replica may still physically hold the bytes).
    fn map_sources(&self, target: u32, range: &DirtyRange) -> Vec<u32> {
        let block = range.offset / self.stripe_unit;
        let Some(sites) = self.maps.get(&range.obj).and_then(|m| m.get(&block)) else {
            return range.sources.clone();
        };
        let (lo, hi) = (range.offset, range.offset + range.len);
        let derived: Vec<u32> = sites
            .iter()
            .copied()
            .filter(|&s| {
                s != target
                    && self.sites.get(s as usize).is_some_and(|site| {
                        site.state != SiteState::Retired
                            && !site.dirty.iter().any(|r| r.overlaps(range.obj, lo, hi))
                    })
            })
            .collect();
        if derived.is_empty() {
            range.sources.clone()
        } else {
            derived
        }
    }

    /// The control legs that carry out (or re-issue) remove or truncate
    /// intention `intent` on `sites`.
    fn ctl_legs(kind: &IntentKind, intent: u64, sites: &[u32]) -> Vec<CoordAction> {
        let ctl = match *kind {
            IntentKind::Remove { obj } => StorageCtl::Remove { obj, intent },
            IntentKind::Truncate { obj, size } => StorageCtl::Truncate { obj, size, intent },
            _ => return vec![],
        };
        let leg = |&site| CoordAction::SendCtl {
            site,
            ctl: ctl.clone(),
        };
        sites.iter().map(leg).collect()
    }

    /// Starts an atomic remove or truncate (`kind`) of a file on every
    /// site that may hold its data.
    fn fanout(
        &mut self,
        now: SimTime,
        requester: u64,
        req_id: u64,
        kind: IntentKind,
    ) -> Vec<CoordAction> {
        // Standby sites never held data and retired sites are gone; a
        // fan-out waiting on either would wedge for nothing.
        let participants = self.sites_in(&[SiteState::Active, SiteState::Draining]);
        let (IntentKind::Remove { obj: file } | IntentKind::Truncate { obj: file, .. }) = kind
        else {
            unreachable!("fan-outs are removes and truncates");
        };
        if matches!(kind, IntentKind::Remove { .. }) {
            // The file's pinned entries die with it (durably: a recovered
            // coordinator must not resurrect the map of a removed file).
            for (block, (pin_id, sites)) in self.pins.remove(&file).unwrap_or_default() {
                self.log(
                    now,
                    pin_id,
                    IntentKind::MapPin { file, block, sites },
                    vec![],
                    true,
                );
            }
        }
        let waiting = Some((requester, req_id, participants.clone()));
        let (id, _) = self.open_intent(now, kind.clone(), participants.clone(), waiting);
        self.maps.remove(&file);
        Self::ctl_legs(&kind, id, &participants)
    }

    /// Handles a control reply from storage site `site`.
    pub fn handle_ctl_reply(
        &mut self,
        now: SimTime,
        site: u32,
        reply: StorageCtlReply,
    ) -> Vec<CoordAction> {
        match reply {
            StorageCtlReply::Done { intent } => {
                // A leg of fan-out `intent` ran at `site`. (0 names none: a
                // retirement remove. A closed or recovered intention waits
                // for nobody.)
                let open = self.open.get_mut(&intent);
                let Some((_, _, waiting)) = open.and_then(|p| p.fanout.as_mut()) else {
                    return vec![];
                };
                waiting.retain(|&s| s != site);
                if waiting.is_empty() {
                    self.resolve(now, intent, IntentOutcome::Completed)
                } else {
                    vec![]
                }
            }
            StorageCtlReply::ProbeResult { intent, .. } if intent >= SITE_PROBE_BASE => {
                // A site-liveness probe answered: the node is up. Report
                // whether it is also clean (no dirty ranges, no resync).
                let s = (intent & !SITE_PROBE_BASE) as u32;
                let Some(probed) = self.sites.get_mut(s as usize) else {
                    return vec![];
                };
                let clean = !probed.is_dirty();
                std::mem::take(&mut probed.probers)
                    .into_iter()
                    .flat_map(|to| Self::reply(to, CoordReply::SiteProbe { site: s, clean }, now))
                    .collect()
            }
            StorageCtlReply::ProbeResult { intent, completed } => {
                let Some(p) = self.open.get_mut(&intent) else {
                    return vec![];
                };
                p.probe_results.insert(site, completed);
                if p.probe_results.len() < p.participants.len() {
                    return vec![];
                }
                let ran = |s: &&u32| p.probe_results.get(*s) == Some(&true);
                let done = p.participants.iter().filter(ran).count();
                // A remove or truncate is the coordinator's own operation
                // and nobody retries it: it is carried through, never
                // aborted. What a client began and finished nowhere never
                // happened.
                let own = matches!(
                    p.kind,
                    IntentKind::Remove { .. } | IntentKind::Truncate { .. }
                );
                let outcome = if done == p.participants.len() {
                    IntentOutcome::ProbedComplete
                } else if done == 0 && !own {
                    IntentOutcome::Aborted
                } else {
                    IntentOutcome::Repaired
                };
                self.resolve(now, intent, outcome)
            }
            StorageCtlReply::ResyncData { obj, offset, data } => {
                // Gather: `site` is a source, and the job expecting its
                // answer keeps it until every answer is in (a code's k).
                let Some((target, mut g)) = self.take_gather(site, obj, offset) else {
                    return vec![];
                };
                g.got.insert(site, data);
                if g.got.len() < g.code.map_or(1, |(_, k, _)| k as usize) {
                    let job = self.sites[target as usize].job.as_mut().expect("present");
                    job.stage = Some(ResyncStage::Gather(g));
                    return vec![];
                }
                // Transform, then stage the bytes owed: the apply leg.
                match g.transform() {
                    Some(owed) => self.enter_stage(now, target, ResyncStage::Apply(g.range, owed)),
                    None => {
                        // Unreachable for a Cauchy code with k distinct
                        // shards; drain defensively rather than wedge the
                        // queue.
                        let mut acts = self.complete_range(now, target, &g.range);
                        acts.extend(self.advance_resync(now, target));
                        acts
                    }
                }
            }
            StorageCtlReply::ResyncApplied { obj, offset } => {
                // `site` is the recovering target.
                let applying = |st: &mut ResyncStage| match st {
                    ResyncStage::Apply(r, _) => r.obj == obj && r.offset == offset,
                    ResyncStage::Gather(_) => false,
                };
                let target = self.sites.get_mut(site as usize);
                let Some(job) = target.and_then(|s| s.job.as_mut()) else {
                    return vec![];
                };
                let Some(ResyncStage::Apply(range, _)) = job.stage.take_if(applying) else {
                    return vec![];
                };
                job.bytes += range.len;
                let mut acts = self.complete_range(now, site, &range);
                acts.extend(self.advance_resync(now, site));
                acts
            }
        }
    }

    /// Drops `range` from the mark that logged it, and the mark with its
    /// last open range.
    fn forget_mark(&mut self, range: &DirtyRange) {
        let Some(mark) = range.mark else { return };
        if let Some(open) = self.marks_acked.get_mut(&mark) {
            open.1 -= 1;
            if open.1 == 0 {
                self.marks_acked.remove(&mark);
            }
        }
    }

    /// Logs a durable completion for a repaired range, drops it from the
    /// dirty log, and settles any migration/drain bookkeeping riding on
    /// it (retiring the origin site when its last migration lands).
    fn complete_range(&mut self, now: SimTime, site: u32, range: &DirtyRange) -> Vec<CoordAction> {
        self.log(now, range.id, range.kind(), vec![site], true);
        self.sites[site as usize].dirty.retain(|r| r.id != range.id);
        self.forget_mark(range);
        if range.origin == NO_ORIGIN {
            return vec![];
        }
        self.migrated_bytes += range.len;
        let origin = self.sites.get_mut(range.origin as usize);
        let Some(info) = origin.and_then(|s| s.drain.as_mut()) else {
            return vec![];
        };
        info.bytes += range.len;
        self.finish_drain(now, range.origin)
    }

    /// The current in-flight legs of `site`'s resync, for (re)sending.
    fn resync_leg(&self, site: u32) -> Vec<CoordAction> {
        let job = self.sites[site as usize].job.as_ref();
        match job.and_then(|job| job.stage.as_ref()) {
            None => vec![],
            // Read only the source windows still missing.
            Some(ResyncStage::Gather(g)) => g
                .legs
                .iter()
                .filter(|(s, _, _)| !g.got.contains_key(s))
                .map(|&(src, _, offset)| CoordAction::SendCtl {
                    site: src,
                    ctl: StorageCtl::ResyncRead {
                        obj: g.range.obj,
                        offset,
                        len: g.range.len,
                    },
                })
                .collect(),
            Some(ResyncStage::Apply(r, data)) => vec![CoordAction::SendCtl {
                site,
                ctl: StorageCtl::ResyncWrite {
                    obj: r.obj,
                    offset: r.offset,
                    data: data.clone(),
                },
            }],
        }
    }

    /// Pulls the next range off `site`'s resync queue (finishing the job
    /// when it drains) and emits the read legs for it.
    fn advance_resync(&mut self, now: SimTime, site: u32) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        loop {
            let record = &mut self.sites[site as usize];
            let Some(job) = &mut record.job else {
                return actions;
            };
            let Some(mut range) = job.queue.pop_front() else {
                let (started, bytes) = (job.started, job.bytes);
                record.job = None;
                self.resync_history.push((site, started, now, bytes));
                self.resync_events.push((site, true, now, bytes));
                return actions;
            };
            // A mirror re-derives its sources from the current block map
            // (a rebalance between the mark and this copy can move the
            // live replicas); a code plans from its stripe's site list.
            if self.coded().is_none() && !range.sources.is_empty() {
                range.sources = self.map_sources(site, &range);
            }
            let Some(gather) = self.plan_gather(site, &range, 0) else {
                // Nothing can be copied (no live source recorded, the
                // site left the stripe, too few survivors): drain the
                // record rather than stall forever.
                actions.extend(self.complete_range(now, site, &range));
                continue;
            };
            actions.extend(self.enter_stage(now, site, ResyncStage::Gather(gather)));
            return actions;
        }
    }

    /// Puts `site`'s job at `stage`, its retries counted afresh, and emits
    /// the stage's legs.
    fn enter_stage(&mut self, now: SimTime, site: u32, stage: ResyncStage) -> Vec<CoordAction> {
        let job = self.sites[site as usize].job.as_mut().expect("present");
        job.stage = Some(stage);
        job.last_attempt = now;
        job.attempts = 0;
        self.resync_leg(site)
    }

    /// The gather expecting `site`'s answer for `obj` at `offset`, taken
    /// out of the first job, in site order, that runs one, with that job's
    /// site.
    fn take_gather(&mut self, site: u32, obj: u64, offset: u64) -> Option<(u32, Gather)> {
        let expecting = |st: &mut ResyncStage| match st {
            ResyncStage::Gather(g) => g.expects(site, obj, offset),
            ResyncStage::Apply(..) => false,
        };
        let jobs = (0..).zip(&mut self.sites);
        let mut jobs = jobs.filter_map(|(t, s)| Some((t, s.job.as_mut()?)));
        let taken = jobs.find_map(|(t, job)| Some((t, job.stage.take_if(expecting)?)));
        let Some((target, ResyncStage::Gather(g))) = taken else {
            return None;
        };
        Some((target, g))
    }

    /// Starts copy-backs for dirty sites and retries stalled legs, both in
    /// site order. Runs from the same periodic sweep as intention
    /// timeouts.
    fn pump_resync(&mut self, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        for site in 0..self.sites.len() as u32 {
            let s = &mut self.sites[site as usize];
            if s.dirty.is_empty() || s.job.is_some() || s.gave_up {
                continue;
            }
            // The job works off the ranges owed now; what is queued while
            // it runs waits for the next job.
            s.job = Some(ResyncJob {
                queue: s.dirty.clone().into(),
                stage: None,
                bytes: 0,
                started: now,
                last_attempt: now,
                attempts: 0,
            });
            self.resync_events.push((site, false, now, 0));
            actions.extend(self.advance_resync(now, site));
        }
        for site in 0..self.sites.len() as u32 {
            let s = &mut self.sites[site as usize];
            let Some(job) = &mut s.job else { continue };
            if job.stage.is_none() || now - job.last_attempt < RESYNC_RETRY {
                continue;
            }
            job.attempts += 1;
            if job.attempts > RESYNC_MAX_ATTEMPTS {
                // The dirty log is the ground truth; drop only the job.
                // A recovery kick starts a fresh one.
                s.job = None;
                s.gave_up = true;
                continue;
            }
            job.last_attempt = now;
            // A stalled gather retries with a rotated source set (a chosen
            // source may itself have died) and regathers every window.
            if let Some(ResyncStage::Gather(g)) = &job.stage {
                let (range, attempts) = (g.range.clone(), job.attempts);
                if let Some(fresh) = self.plan_gather(site, &range, attempts) {
                    let job = self.sites[site as usize].job.as_mut().expect("present");
                    job.stage = Some(ResyncStage::Gather(fresh));
                }
            }
            actions.extend(self.resync_leg(site));
        }
        actions
    }

    /// Scans for intentions older than the timeout and launches probes;
    /// also drives resynchronization of dirty sites. The host calls this
    /// from a periodic timer.
    pub fn check_timeouts(&mut self, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        // In `open`'s iteration order, which the probes' send order (and
        // so every simulated number downstream) depends on.
        for (&id, p) in self.open.iter_mut() {
            if now - p.since >= self.intent_timeout {
                p.since = now;
                for &site in &p.participants {
                    actions.push(CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::Probe { intent: id },
                    });
                }
            }
        }
        actions.extend(self.pump_resync(now));
        actions
    }

    /// Simulates a coordinator crash: volatile state is lost; the WAL (in
    /// shared network storage) survives. Every field gets its verdict
    /// here, so a new one cannot be forgotten.
    pub fn crash(&mut self) -> Wal<IntentRecord> {
        let Self {
            // Durable: handed to whoever restarts the coordinator.
            wal,
            // Configuration.
            placement: _,
            stripe_unit: _,
            intent_timeout: _,
            // Volatile: rebuilt by `recover` from the log, or lost (who
            // asked for a fan-out, who waits on a site probe, which marks
            // were acknowledged, resync progress).
            open,
            maps,
            sites,
            marks_acked,
            resync_events,
            pins,
            // Raised by `recover` past every id in the log.
            next_intent: _,
            // Lifetime statistics.
            resolved: _,
            resync_history: _,
            migrated_bytes: _,
            reconf_history: _,
        } = self;
        // Emptied in place: `open` keeps its capacity, and with it the
        // iteration order `check_timeouts` sends probes in.
        open.clear();
        maps.clear();
        for site in sites {
            *site = Site::new(site.initial);
        }
        marks_acked.clear();
        resync_events.clear();
        pins.clear();
        std::mem::replace(wal, Wal::new(WalParams::default()))
    }

    /// Recovers from a WAL: open intentions (logged, never completed by
    /// `crash_time`) are re-instated and immediately probed.
    pub fn recover(
        &mut self,
        now: SimTime,
        mut wal: Wal<IntentRecord>,
        crash_time: SimTime,
    ) -> Vec<CoordAction> {
        wal.recover(crash_time);
        let mut open: FxHashMap<u64, &IntentRecord> = FxHashMap::default();
        for (_, r) in wal.iter() {
            if r.is_completion {
                open.remove(&r.id);
            } else {
                self.next_intent = self.next_intent.max(r.id + 1);
                open.insert(r.id, r);
            }
        }
        let still_open = open.into_iter().map(|(id, r)| (id, r.clone()));
        let mut records: Vec<(u64, IntentRecord)> = still_open.collect();
        records.sort_unstable_by_key(|&(id, _)| id);
        self.wal = wal;
        let mut actions = Vec::new();
        for (id, r) in records {
            match r.kind {
                // Queued ranges rebuild the dirty log; they are repaired
                // by the sweep, not probed like intentions.
                IntentKind::DirtyRange {
                    obj,
                    offset,
                    len,
                    sources,
                    origin,
                } => {
                    let target = r.participants.first().map(|&s| s as usize);
                    if let Some(site) = target.and_then(|s| self.sites.get_mut(s)) {
                        site.dirty.push(DirtyRange {
                            id,
                            obj,
                            offset,
                            len,
                            sources,
                            origin,
                            mark: None,
                        });
                    }
                }
                // Reconfiguration records replay into soft state directly;
                // none of them involve a storage-side intention to probe.
                IntentKind::MapPin { file, block, sites } => {
                    self.pins
                        .entry(file)
                        .or_default()
                        .insert(block, (id, sites));
                }
                IntentKind::SiteChange { site, state, objs } => {
                    let Some(site) = self.sites.get_mut(site as usize) else {
                        continue;
                    };
                    site.state = state;
                    site.drain = (state == SiteState::Draining).then(|| DrainInfo {
                        started: now,
                        objs: objs.into_iter().collect(),
                        bytes: 0,
                    });
                }
                kind => {
                    let intent = OpenIntent {
                        kind,
                        participants: r.participants.clone(),
                        since: now,
                        probe_results: FxHashMap::default(),
                        fanout: None,
                    };
                    self.open.insert(id, intent);
                    for site in r.participants {
                        actions.push(CoordAction::SendCtl {
                            site,
                            ctl: StorageCtl::Probe { intent: id },
                        });
                    }
                }
            }
        }
        // A drain whose last migration completed just before the crash
        // retires now.
        for site in 0..self.sites.len() as u32 {
            actions.extend(self.finish_drain(now, site));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn begin(c: &mut Coordinator, now: SimTime) -> u64 {
        let actions = c.handle(
            now,
            7,
            CoordMsg::BeginIntent {
                op_id: 1,
                kind: IntentKind::Commit { obj: 5 },
                participants: vec![0, 1],
            },
        );
        match &actions[0] {
            CoordAction::Reply {
                reply: CoordReply::IntentAck { intent, .. },
                at,
                ..
            } => {
                assert!(*at > now, "ack must wait for log durability");
                *intent
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn intent_complete_cycle() {
        let mut c = Coordinator::new(4);
        let id = begin(&mut c, t(0));
        assert_eq!(c.open_intents(), 1);
        c.handle(t(1), 7, CoordMsg::CompleteIntent { intent: id });
        assert_eq!(c.open_intents(), 0);
        assert_eq!(c.resolutions(), [1, 0, 0, 0]);
    }

    #[test]
    fn timeout_probes_participants() {
        let mut c = Coordinator::new(4);
        let id = begin(&mut c, t(0));
        assert!(c.check_timeouts(t(100)).is_empty(), "too early to probe");
        let probes = c.check_timeouts(t(6000));
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|a| matches!(
            a,
            CoordAction::SendCtl { ctl: StorageCtl::Probe { intent }, .. } if *intent == id
        )));
        // Probes are not re-sent.
        assert!(c.check_timeouts(t(7000)).is_empty());
    }

    #[test]
    fn probe_all_complete_resolves_completed() {
        let mut c = Coordinator::new(2);
        let id = begin(&mut c, t(0));
        c.check_timeouts(t(6000));
        c.handle_ctl_reply(
            t(6001),
            0,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: true,
            },
        );
        c.handle_ctl_reply(
            t(6002),
            1,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: true,
            },
        );
        assert_eq!(c.resolutions(), [0, 1, 0, 0]);
    }

    #[test]
    fn probe_none_complete_aborts() {
        let mut c = Coordinator::new(2);
        let id = begin(&mut c, t(0));
        c.check_timeouts(t(6000));
        c.handle_ctl_reply(
            t(6001),
            0,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: false,
            },
        );
        c.handle_ctl_reply(
            t(6002),
            1,
            StorageCtlReply::ProbeResult {
                intent: id,
                completed: false,
            },
        );
        assert_eq!(c.resolutions(), [0, 0, 1, 0]);
    }

    /// Answers every remove or truncate leg in `actions` as a storage
    /// node does; returns what the coordinator emitted in turn.
    fn answer_legs(c: &mut Coordinator, now: SimTime, actions: &[CoordAction]) -> Vec<CoordAction> {
        let mut out = Vec::new();
        for a in actions {
            if let CoordAction::SendCtl {
                site,
                ctl: StorageCtl::Remove { intent, .. } | StorageCtl::Truncate { intent, .. },
            } = a
            {
                let done = StorageCtlReply::Done { intent: *intent };
                out.extend(c.handle_ctl_reply(now, *site, done));
            }
        }
        out
    }

    #[test]
    fn remove_fanout_completes_when_all_sites_ack() {
        let mut c = Coordinator::new(3);
        let actions = c.handle(
            t(0),
            42,
            CoordMsg::RemoveFile {
                req_id: 9,
                file: 77,
            },
        );
        assert_eq!(actions.len(), 3);
        let done = answer_legs(&mut c, t(1), &actions);
        assert!(done.iter().any(|a| matches!(
            a,
            CoordAction::Reply {
                to: 42,
                reply: CoordReply::RemoveDone { req_id: 9 },
                ..
            }
        )));
        assert_eq!(c.open_intents(), 0);
    }

    fn remove(
        c: &mut Coordinator,
        now: SimTime,
        req_id: u64,
        file: u64,
    ) -> (u64, Vec<CoordAction>) {
        let legs = c.handle(now, 42, CoordMsg::RemoveFile { req_id, file });
        match &legs[0] {
            CoordAction::SendCtl {
                ctl: StorageCtl::Remove { intent, .. },
                ..
            } => (*intent, legs),
            other => panic!("unexpected action {other:?}"),
        }
    }

    fn remove_done(req_id: u64, at: SimTime) -> CoordAction {
        CoordAction::Reply {
            to: 42,
            reply: CoordReply::RemoveDone { req_id },
            at,
        }
    }

    /// Two removes in flight over two sites, the first one's leg lost at
    /// site 1. A `Done` counts for the fan-out it names: the second remove
    /// is answered when its own two legs ran, the first stays open until a
    /// probe finds it done at site 0 only, re-issues the leg at site 1 and
    /// answers. (Credited to the oldest fan-out waiting on the site, the
    /// third `Done` answered the first remove for a file site 1 still
    /// held, and the second was logged `Aborted` though it ran everywhere.)
    #[test]
    fn done_counts_for_the_fanout_it_names() {
        let mut c = Coordinator::new(2);
        let (a, _) = remove(&mut c, t(0), 1, 70);
        let (b, _) = remove(&mut c, t(1), 2, 71);
        let done = |intent| StorageCtlReply::Done { intent };
        assert!(c.handle_ctl_reply(t(2), 0, done(a)).is_empty());
        assert!(c.handle_ctl_reply(t(3), 0, done(b)).is_empty());
        assert_eq!(
            c.handle_ctl_reply(t(4), 1, done(b)),
            vec![remove_done(2, t(4))]
        );
        assert_eq!(c.open_intents(), 1);

        let probes = c.check_timeouts(t(6000));
        assert_eq!(probes.len(), 2, "only the first remove is still open");
        let answer = |completed| StorageCtlReply::ProbeResult {
            intent: a,
            completed,
        };
        assert!(c.handle_ctl_reply(t(6001), 0, answer(true)).is_empty());
        assert_eq!(
            c.handle_ctl_reply(t(6002), 1, answer(false)),
            vec![
                remove_done(1, t(6002)),
                CoordAction::SendCtl {
                    site: 1,
                    ctl: StorageCtl::Remove { obj: 70, intent: a }
                }
            ]
        );
        assert_eq!(c.resolutions(), [1, 0, 0, 1], "one completed, one repaired");
        assert_eq!(c.open_intents(), 0);
        // The re-issued leg's answer finds nothing open, and nothing to steal.
        assert!(c.handle_ctl_reply(t(6003), 1, done(a)).is_empty());
    }

    /// Nobody retries the coordinator's own remove: found done nowhere, it
    /// is re-issued everywhere, not aborted.
    #[test]
    fn remove_found_done_nowhere_is_reissued() {
        let mut c = Coordinator::new(2);
        let (id, legs) = remove(&mut c, t(0), 1, 70);
        c.check_timeouts(t(6000));
        let nowhere = StorageCtlReply::ProbeResult {
            intent: id,
            completed: false,
        };
        assert!(c.handle_ctl_reply(t(6001), 0, nowhere.clone()).is_empty());
        let mut want = vec![remove_done(1, t(6002))];
        want.extend(legs);
        assert_eq!(c.handle_ctl_reply(t(6002), 1, nowhere), want);
        assert_eq!(c.resolutions(), [0, 0, 0, 1]);
    }

    /// The removes that retire a drained site name no intention; their
    /// answers count for no fan-out.
    #[test]
    fn retirement_remove_counts_for_no_fanout() {
        let mut c = Coordinator::new(3);
        let (_, legs) = remove(&mut c, t(0), 1, 70);
        for site in 0..3 {
            let done = StorageCtlReply::Done { intent: 0 };
            assert!(c.handle_ctl_reply(t(1), site, done).is_empty());
        }
        assert_eq!(c.open_intents(), 1);
        assert_eq!(answer_legs(&mut c, t(2), &legs), vec![remove_done(1, t(2))]);
    }

    #[test]
    fn map_get_is_clamped_before_it_sizes_the_answer() {
        let mut c = Coordinator::new(4);
        let mut asked = |first_block, count| {
            let get = CoordMsg::MapGet {
                file: 10,
                first_block,
                count,
            };
            match c.handle(t(0), 1, get).remove(0) {
                CoordAction::Reply {
                    reply: CoordReply::MapFragment { sites, warming, .. },
                    ..
                } => (sites.len(), warming.len()),
                other => panic!("unexpected {other:?}"),
            }
        };
        let max = MAP_FRAGMENT_MAX as usize;
        assert_eq!(asked(0, 100_000), (max, max));
        assert_eq!(asked(u64::MAX - 2, 16), (2, 2), "the last blocks there are");
        assert_eq!(asked(0, 16), (16, 16));
    }

    #[test]
    fn map_fragments_are_stable_and_striped() {
        let mut c = Coordinator::new(4);
        let a1 = c.handle(
            t(0),
            1,
            CoordMsg::MapGet {
                file: 10,
                first_block: 0,
                count: 8,
            },
        );
        let a2 = c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 10,
                first_block: 0,
                count: 8,
            },
        );
        let get = |a: &Vec<CoordAction>| match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => sites.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let s1 = get(&a1);
        assert_eq!(s1, get(&a2), "map assignment must be stable");
        // Striped: 8 consecutive blocks cover all 4 sites twice.
        let mut counts = [0; 4];
        for s in &s1 {
            assert_eq!(s.len(), 1);
            counts[s[0] as usize] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn mirrored_placement_yields_replicas() {
        let mut c = Coordinator::new(4);
        c.set_default_placement(Placement::Mirrored { copies: 2 });
        let a = c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 4,
            },
        );
        match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => {
                for s in sites {
                    assert_eq!(s.len(), 2);
                    assert_ne!(s[0], s[1]);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovery_reinstates_open_intents() {
        let mut c = Coordinator::new(2);
        let id_open = begin(&mut c, t(0));
        let id_closed = begin(&mut c, t(10));
        c.handle(t(20), 7, CoordMsg::CompleteIntent { intent: id_closed });
        let crash_time = t(1000);
        let wal = c.crash();
        assert_eq!(c.open_intents(), 0);
        let actions = c.recover(t(2000), wal, crash_time);
        assert_eq!(c.open_intents(), 1);
        assert!(actions.iter().all(|a| matches!(
            a,
            CoordAction::SendCtl { ctl: StorageCtl::Probe { intent }, .. } if *intent == id_open
        )));
        assert_eq!(actions.len(), 2);
    }

    /// Defect 1(viii): what a crash lost must not come back at the next.
    #[test]
    fn an_intent_lost_at_one_crash_stays_lost_at_the_next() {
        let mut c = Coordinator::new(2);
        begin(&mut c, t(0));
        // Two more whose batch is still on its way to the disk ...
        begin(&mut c, t(100));
        begin(&mut c, t(100));
        // ... when the coordinator dies.
        let wal = c.crash();
        c.recover(t(200), wal, t(100));
        assert_eq!(c.open_intents(), 1);
        begin(&mut c, t(300));
        let wal = c.crash();
        c.recover(t(2000), wal, t(1000));
        assert_eq!(c.open_intents(), 2, "the two lost intentions stay lost");
    }

    #[test]
    fn mark_dirty_acks_durably_and_idempotently() {
        let mut c = Coordinator::new(4);
        let mark = CoordMsg::MarkDirty {
            op_id: 99,
            obj: 5,
            offset: 0,
            len: 65536,
            missed: vec![2],
            sources: vec![1],
        };
        let a = c.handle(t(0), 7, mark.clone());
        match &a[0] {
            CoordAction::Reply {
                reply: CoordReply::DirtyAck { op_id: 99 },
                at,
                ..
            } => assert!(*at > t(0), "ack must wait for log durability"),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(c.dirty_ranges(), 1);
        // A retransmitted mark re-acks without duplicating the range.
        let a2 = c.handle(t(1), 7, mark);
        assert!(matches!(
            &a2[0],
            CoordAction::Reply {
                reply: CoordReply::DirtyAck { op_id: 99 },
                ..
            }
        ));
        assert_eq!(c.dirty_ranges(), 1);
    }

    /// Every client numbers its xids from 1: two requesters' marks with
    /// the same `op_id` are different writes and both must be logged. The
    /// ack table empties as the ranges complete.
    #[test]
    fn marks_are_keyed_by_requester_and_forgotten_on_completion() {
        let mut c = Coordinator::new(4);
        for (requester, obj) in [(7, 5), (8, 6)] {
            let mark = CoordMsg::MarkDirty {
                op_id: 99,
                obj,
                offset: 0,
                len: 100,
                missed: vec![2],
                sources: vec![1],
            };
            c.handle(t(0), requester, mark.clone());
            c.handle(t(1), requester, mark);
        }
        assert_eq!(c.dirty_log_dump(), vec![(2, 5, 0, 100), (2, 6, 0, 100)]);
        assert_eq!(c.marks_acked.len(), 2);
        pump_to_quiescence(&mut c, 1000);
        assert_eq!(c.dirty_ranges(), 0);
        assert!(c.marks_acked.is_empty());
    }

    #[test]
    fn resync_copies_ranges_and_drains_dirty_log() {
        let mut c = Coordinator::new(4);
        c.handle(
            t(0),
            7,
            CoordMsg::MarkDirty {
                op_id: 1,
                obj: 9,
                offset: 0,
                len: 100,
                missed: vec![2],
                sources: vec![1],
            },
        );
        assert!(c.needs_sweep());
        let acts = c.check_timeouts(t(1000));
        assert!(acts.iter().any(|a| matches!(
            a,
            CoordAction::SendCtl {
                site: 1,
                ctl: StorageCtl::ResyncRead {
                    obj: 9,
                    offset: 0,
                    len: 100
                }
            }
        )));
        let acts = c.handle_ctl_reply(
            t(1001),
            1,
            StorageCtlReply::ResyncData {
                obj: 9,
                offset: 0,
                data: ByteBuf::from_vec(vec![7; 100]).into(),
            },
        );
        assert!(matches!(
            &acts[0],
            CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::ResyncWrite {
                    obj: 9,
                    offset: 0,
                    ..
                }
            }
        ));
        let acts = c.handle_ctl_reply(
            t(1002),
            2,
            StorageCtlReply::ResyncApplied { obj: 9, offset: 0 },
        );
        assert!(acts.is_empty());
        assert_eq!(c.dirty_ranges(), 0);
        assert!(!c.needs_sweep(), "drained coordinator must go idle");
        assert_eq!(c.resync_history().len(), 1);
        assert_eq!(c.resync_bytes(), 100);
    }

    #[test]
    fn dirty_ranges_survive_coordinator_crash() {
        let mut c = Coordinator::new(4);
        c.handle(
            t(0),
            7,
            CoordMsg::MarkDirty {
                op_id: 1,
                obj: 9,
                offset: 0,
                len: 100,
                missed: vec![3],
                sources: vec![0],
            },
        );
        let wal = c.crash();
        assert_eq!(c.dirty_ranges(), 0);
        let actions = c.recover(t(5000), wal, t(1000));
        assert!(actions.is_empty(), "dirty ranges are resynced, not probed");
        assert_eq!(c.dirty_ranges(), 1);
        assert!(c.needs_sweep());
    }

    #[test]
    fn site_probe_waits_for_node_liveness() {
        let mut c = Coordinator::new(4);
        let acts = c.handle(t(0), 7, CoordMsg::ProbeSite { site: 2 });
        let intent = match &acts[0] {
            CoordAction::SendCtl {
                site: 2,
                ctl: StorageCtl::Probe { intent },
            } => *intent,
            other => panic!("unexpected action {other:?}"),
        };
        let acts = c.handle_ctl_reply(
            t(1),
            2,
            StorageCtlReply::ProbeResult {
                intent,
                completed: false,
            },
        );
        assert!(matches!(
            &acts[0],
            CoordAction::Reply {
                to: 7,
                reply: CoordReply::SiteProbe {
                    site: 2,
                    clean: true
                },
                ..
            }
        ));
    }

    /// A site number comes off the wire or out of the log, and indexes a
    /// `Vec`: one that names no site is dropped, never stored.
    #[test]
    fn probe_of_a_site_that_does_not_exist_is_dropped() {
        let mut c = Coordinator::new(4);
        assert!(c
            .handle(t(0), 7, CoordMsg::ProbeSite { site: 4 })
            .is_empty());
        let answer = StorageCtlReply::ProbeResult {
            intent: SITE_PROBE_BASE | 4,
            completed: false,
        };
        assert!(c.handle_ctl_reply(t(1), 0, answer).is_empty());
    }

    #[test]
    fn mark_against_a_site_that_does_not_exist_logs_nothing() {
        let mut c = Coordinator::new(4);
        let mark = CoordMsg::MarkDirty {
            op_id: 1,
            obj: 9,
            offset: 0,
            len: 100,
            missed: vec![4, u32::MAX],
            sources: vec![1],
        };
        let ack = CoordAction::Reply {
            to: 7,
            reply: CoordReply::DirtyAck { op_id: 1 },
            at: t(0),
        };
        assert_eq!(
            c.handle(t(0), 7, mark),
            vec![ack],
            "acked: nothing to wait for"
        );
        assert_eq!((c.dirty_ranges(), c.wal_stats().0), (0, 0));
        assert!(!c.needs_sweep());
    }

    #[test]
    fn kick_and_replay_of_a_site_that_does_not_exist_are_ignored() {
        let mut c = Coordinator::new(4);
        c.kick_resync(4);
        let applied = StorageCtlReply::ResyncApplied { obj: 9, offset: 0 };
        assert!(c.handle_ctl_reply(t(0), 4, applied).is_empty());
        let mut wal = Wal::new(WalParams::default());
        let kinds = [
            IntentKind::SiteChange {
                site: 4,
                state: SiteState::Retired,
                objs: vec![],
            },
            IntentKind::DirtyRange {
                obj: 9,
                offset: 0,
                len: 100,
                sources: vec![1],
                origin: NO_ORIGIN,
            },
        ];
        for (id, kind) in (1..).zip(kinds) {
            let record = IntentRecord {
                id,
                kind,
                participants: vec![4],
                is_completion: false,
            };
            wal.append(t(0), record, 64);
        }
        assert!(c.recover(t(10), wal, t(5)).is_empty());
        assert_eq!(c.dirty_ranges(), 0);
        assert_eq!(c.site_states(), vec![SiteState::Active; 4]);
    }

    #[test]
    fn dirty_site_probe_is_immediately_unclean() {
        let mut c = Coordinator::new(4);
        c.handle(
            t(0),
            7,
            CoordMsg::MarkDirty {
                op_id: 1,
                obj: 9,
                offset: 0,
                len: 100,
                missed: vec![2],
                sources: vec![1],
            },
        );
        let acts = c.handle(t(1), 8, CoordMsg::ProbeSite { site: 2 });
        assert!(matches!(
            &acts[0],
            CoordAction::Reply {
                to: 8,
                reply: CoordReply::SiteProbe {
                    site: 2,
                    clean: false
                },
                ..
            }
        ));
    }

    /// A (4,2) coordinator with 4-shard stripes of 8 bytes (shards of
    /// 4), plus the site list of stripe 0 of `file`.
    fn coded_coord(file: u64) -> (Coordinator, Vec<u32>) {
        let mut c = Coordinator::new(4);
        c.set_default_placement(Placement::Coded { n: 4, k: 2 });
        c.set_stripe_unit(8);
        let acts = c.handle(
            t(0),
            1,
            CoordMsg::MapGet {
                file,
                first_block: 0,
                count: 1,
            },
        );
        let sites = match &acts[0] {
            CoordAction::Reply {
                reply: CoordReply::MapFragment { sites, .. },
                ..
            } => sites[0].clone(),
            other => panic!("unexpected {other:?}"),
        };
        (c, sites)
    }

    #[test]
    fn coded_placement_yields_n_disjoint_sites() {
        let (_, sites) = coded_coord(10);
        assert_eq!(sites.len(), 4);
        let mut uniq = sites.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "shard sites must be disjoint");
    }

    #[test]
    fn coded_mark_dirty_splits_into_shard_windows() {
        let (mut c, sites) = coded_coord(10);
        // A full-stripe write missed by the second parity site: its
        // window is object [4, 8) (p=1), not the file range [0, 8).
        c.handle(
            t(0),
            7,
            CoordMsg::MarkDirty {
                op_id: 1,
                obj: 10,
                offset: 0,
                len: 8,
                missed: vec![sites[3]],
                sources: vec![sites[0], sites[1], sites[2]],
            },
        );
        assert_eq!(
            c.dirty_log_dump(),
            vec![(sites[3], 10, 4, 4)],
            "parity shard window, in object offsets"
        );
    }

    #[test]
    fn coded_resync_rebuilds_shard_from_k_survivors() {
        let (mut c, sites) = coded_coord(10);
        let codec = slice_ec::Codec::new(4, 2);
        let d0 = [1u8, 2, 3, 4];
        let d1 = [5u8, 6, 7, 8];
        let parity = codec.encode(&[&d0, &d1]);
        // The site holding data shard 0 missed a full-stripe write.
        c.handle(
            t(0),
            7,
            CoordMsg::MarkDirty {
                op_id: 1,
                obj: 10,
                offset: 0,
                len: 8,
                missed: vec![sites[0]],
                sources: vec![sites[1], sites[2], sites[3]],
            },
        );
        assert_eq!(c.dirty_log_dump(), vec![(sites[0], 10, 0, 4)]);
        // The sweep reads the same position window of k=2 survivors:
        // data shard 1 (object [4,8)) and parity p=0 (object [0,4)).
        let acts = c.check_timeouts(t(1000));
        assert!(acts.contains(&CoordAction::SendCtl {
            site: sites[1],
            ctl: StorageCtl::ResyncRead {
                obj: 10,
                offset: 4,
                len: 4
            }
        }));
        assert!(acts.contains(&CoordAction::SendCtl {
            site: sites[2],
            ctl: StorageCtl::ResyncRead {
                obj: 10,
                offset: 0,
                len: 4
            }
        }));
        assert_eq!(acts.len(), 2);
        // Feed both windows back; the rebuilt shard must be d0.
        let acts = c.handle_ctl_reply(
            t(1001),
            sites[1],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 4,
                data: ByteBuf::from(&d1[..]).into(),
            },
        );
        assert!(acts.is_empty(), "one of two windows is not enough");
        let acts = c.handle_ctl_reply(
            t(1002),
            sites[2],
            StorageCtlReply::ResyncData {
                obj: 10,
                offset: 0,
                data: ByteBuf::from(&parity[0][..]).into(),
            },
        );
        assert_eq!(
            acts,
            vec![CoordAction::SendCtl {
                site: sites[0],
                ctl: StorageCtl::ResyncWrite {
                    obj: 10,
                    offset: 0,
                    data: ByteBuf::from(&d0[..]).into()
                }
            }],
            "decoded shard goes back to the recovering site"
        );
        c.handle_ctl_reply(
            t(1003),
            sites[0],
            StorageCtlReply::ResyncApplied { obj: 10, offset: 0 },
        );
        assert_eq!(c.dirty_ranges(), 0);
        assert_eq!(c.resync_bytes(), 4);
    }

    #[test]
    fn mid_stripe_truncate_queues_parity_rebuild() {
        let (mut c, sites) = coded_coord(10);
        let legs = c.handle(
            t(0),
            7,
            CoordMsg::TruncateFile {
                req_id: 1,
                file: 10,
                size: 4,
            },
        );
        assert_eq!(c.dirty_ranges(), 0, "rebuild waits for the truncate");
        answer_legs(&mut c, t(1), &legs);
        // Both parity shards of the boundary stripe are queued, sourced
        // from the data sites only (the other parity is equally stale).
        let dump = c.dirty_log_dump();
        assert_eq!(
            dump,
            {
                let mut want = vec![(sites[2], 10, 0, 4), (sites[3], 10, 4, 4)];
                want.sort_unstable();
                want
            },
            "one rebuild window per parity shard"
        );
    }

    #[test]
    fn recovery_loses_nondurable_intents() {
        let mut c = Coordinator::new(2);
        let _id = begin(&mut c, t(0));
        // Crash before the log write completed: nothing to recover.
        let wal = c.crash();
        let actions = c.recover(t(10), wal, t(0));
        assert!(actions.is_empty());
        assert_eq!(c.open_intents(), 0);
    }

    /// Materializes `blocks` mirrored map entries for `file`.
    fn mirrored_file(c: &mut Coordinator, file: u64, blocks: u32) {
        c.set_default_placement(Placement::Mirrored { copies: 2 });
        c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file,
                first_block: 0,
                count: blocks,
            },
        );
    }

    /// Drives every outstanding resync to completion by faithfully
    /// answering the coordinator's control legs; returns the non-resync
    /// actions it emitted along the way (e.g. retirement removals).
    fn pump_to_quiescence(c: &mut Coordinator, start_ms: u64) -> Vec<CoordAction> {
        pump_with(c, start_ms, |_, _| {})
    }

    /// [`pump_to_quiescence`], calling `each_step(c, now_ms)` after every
    /// control reply the coordinator digests.
    fn pump_with(
        c: &mut Coordinator,
        start_ms: u64,
        mut each_step: impl FnMut(&Coordinator, u64),
    ) -> Vec<CoordAction> {
        let mut extra = Vec::new();
        let mut ms = start_ms;
        for _ in 0..200 {
            ms += 2100;
            let mut queue = c.check_timeouts(t(ms));
            each_step(c, ms);
            while let Some(act) = queue.pop() {
                let (site, reply) = match act {
                    CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::ResyncRead { obj, offset, len },
                    } => {
                        let data = ByteBuf::from_vec(vec![1u8; len as usize]).into();
                        (site, StorageCtlReply::ResyncData { obj, offset, data })
                    }
                    CoordAction::SendCtl {
                        site,
                        ctl: StorageCtl::ResyncWrite { obj, offset, .. },
                    } => (site, StorageCtlReply::ResyncApplied { obj, offset }),
                    other => {
                        extra.push(other);
                        continue;
                    }
                };
                queue.extend(c.handle_ctl_reply(t(ms), site, reply));
                each_step(c, ms);
            }
            if c.dirty_ranges() == 0 && !c.needs_sweep() {
                break;
            }
        }
        assert_eq!(c.dirty_ranges(), 0, "pump must converge");
        extra
    }

    /// Every way a range enters the engine — a degraded write, a
    /// truncate's stale parity, a drain migration — runs the same job on
    /// every placement: queued under an opening WAL record, gathered,
    /// transformed, applied, completed under the matching record. A
    /// coordinator crash at any step recovers the same dirty log.
    #[test]
    fn every_range_source_runs_the_one_repair_job() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Source {
            DegradedWrite,
            TruncateParity,
            Drain,
        }
        let mirror = Placement::Mirrored { copies: 2 };
        let cases = [
            (mirror, Source::DegradedWrite, 1, 8),
            (mirror, Source::Drain, 1, 8),
            (Placement::Coded { n: 4, k: 2 }, Source::DegradedWrite, 1, 4),
            (
                Placement::Coded { n: 4, k: 2 },
                Source::TruncateParity,
                2,
                8,
            ),
            (Placement::Coded { n: 6, k: 4 }, Source::DegradedWrite, 1, 2),
            (
                Placement::Coded { n: 6, k: 4 },
                Source::TruncateParity,
                2,
                4,
            ),
        ];
        for (placement, source, ranges, bytes) in cases {
            let case = format!("{placement:?} {source:?}");
            let blank = || {
                let mut c = Coordinator::new(6);
                c.set_default_placement(placement);
                c.set_stripe_unit(8);
                c
            };
            let mut c = blank();
            let map = CoordMsg::MapGet {
                file: 10,
                first_block: 0,
                count: 1,
            };
            c.handle(t(0), 1, map);
            let sites = c.block_map_dump()[0].1[0].1.clone();
            match source {
                Source::DegradedWrite => {
                    let mark = CoordMsg::MarkDirty {
                        op_id: 1,
                        obj: 10,
                        offset: 0,
                        len: 8,
                        missed: vec![sites[0]],
                        sources: sites[1..].to_vec(),
                    };
                    c.handle(t(1), 7, mark);
                }
                Source::TruncateParity => {
                    let truncate = CoordMsg::TruncateFile {
                        req_id: 1,
                        file: 10,
                        size: 3,
                    };
                    let legs = c.handle(t(1), 7, truncate);
                    answer_legs(&mut c, t(2), &legs);
                }
                Source::Drain => assert_eq!(c.drain_site(t(1), sites[0]).0, 1, "{case}"),
            }
            let queued = c.dirty_log_dump();
            assert_eq!(queued.len(), ranges, "{case}: ranges queued");
            assert_eq!(queued.iter().map(|r| r.3).sum::<u64>(), bytes, "{case}");

            pump_with(&mut c, 10, |c, ms| {
                let mut recovered = blank();
                recovered.recover(t(ms), c.wal.clone(), t(ms + 1000));
                assert_eq!(recovered.dirty_log_dump(), c.dirty_log_dump(), "{case}");
            });
            assert_eq!(c.resync_bytes(), bytes, "{case}: every range was copied");
            let migrated = if source == Source::Drain { bytes } else { 0 };
            assert_eq!(c.migrated_bytes(), migrated, "{case}");
            assert_eq!(c.is_retired(sites[0]), source == Source::Drain, "{case}");

            // Each range record opens once and completes once, in order.
            let mut open = std::collections::BTreeSet::new();
            let mut completed = 0;
            for (_, r) in c.wal.iter() {
                if !matches!(r.kind, IntentKind::DirtyRange { .. }) {
                    continue;
                }
                if r.is_completion {
                    assert!(open.remove(&r.id), "{case}: completion without an open");
                    completed += 1;
                } else {
                    assert!(open.insert(r.id), "{case}: range opened twice");
                }
            }
            assert!(open.is_empty(), "{case}: ranges left open in the WAL");
            assert_eq!(completed, ranges, "{case}");
        }
    }

    #[test]
    fn widen_pins_extra_replica_and_copies_online() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        assert_eq!(c.widen_file(t(10), 3), 2);
        assert_eq!(c.migrations_pending(), 2);
        assert_eq!(c.pinned_entries(), 2);
        for (_, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert_eq!(sites.len(), 3, "each entry gains one replica");
            }
        }
        pump_to_quiescence(&mut c, 10);
        assert_eq!(c.migrations_pending(), 0);
        assert_eq!(c.migrated_bytes(), 2 * 64 * 1024);
    }

    #[test]
    fn drain_migrates_entries_then_retires_and_purges() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        let victim = c.block_map_dump()[0].1[0].1[0];
        let (queued, acts) = c.drain_site(t(10), victim);
        assert!(queued > 0, "the victim held replicas");
        assert!(acts.is_empty(), "retirement waits for the log to drain");
        assert!(!c.is_retired(victim));
        let extra = pump_to_quiescence(&mut c, 10);
        assert!(c.is_retired(victim), "drain retires once copies land");
        assert!(
            extra.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::Remove { obj: 3, intent: 0 }
                } if *site == victim
            )),
            "retirement removes the site's objects"
        );
        for (_, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert!(!sites.contains(&victim), "no map entry is orphaned");
            }
        }
        assert_eq!(c.reconf_history().len(), 1);
        // Soft state for the retired site cannot re-accumulate: a stale
        // degraded-write mark against it is dropped.
        c.handle(
            t(90_000),
            7,
            CoordMsg::MarkDirty {
                op_id: 50,
                obj: 3,
                offset: 0,
                len: 100,
                missed: vec![victim],
                sources: vec![0, 1, 2, 3]
                    .into_iter()
                    .filter(|&s| s != victim)
                    .collect(),
            },
        );
        assert_eq!(c.dirty_ranges(), 0, "retired sites take no dirty ranges");
    }

    #[test]
    fn join_rebalances_mirrored_entries_onto_new_site() {
        let mut c = Coordinator::new(4);
        c.set_active_sites(3);
        mirrored_file(&mut c, 3, 4);
        for (_, blocks) in c.block_map_dump() {
            for (_, sites) in blocks {
                assert!(!sites.contains(&3), "standby site takes no entries");
            }
        }
        let queued = c.join_site(t(10), 3);
        assert!(queued > 0, "rebalance moves entries onto the joiner");
        pump_to_quiescence(&mut c, 10);
        assert_eq!(c.migrations_pending(), 0);
        let on_joiner: usize = c
            .block_map_dump()
            .iter()
            .flat_map(|(_, blocks)| blocks.iter())
            .filter(|(_, sites)| sites.contains(&3))
            .count();
        assert_eq!(on_joiner, queued, "moved entries now reference the joiner");
    }

    #[test]
    fn reconfigured_maps_survive_coordinator_crash() {
        let mut c = Coordinator::new(4);
        // Placement via the durable default (as the ha ensemble runs):
        // per-file placement records are volatile, pins are not.
        c.set_default_placement(Placement::Mirrored { copies: 2 });
        c.handle(
            t(1),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 2,
            },
        );
        assert_eq!(c.widen_file(t(10), 3), 2);
        let before = c.block_map_dump();
        let wal = c.crash();
        c.recover(t(5000), wal, t(4000));
        assert_eq!(
            c.migrations_pending(),
            2,
            "in-flight migrations replay from the log"
        );
        // Touch the map again: pinned entries win over recomputation.
        c.handle(
            t(5001),
            1,
            CoordMsg::MapGet {
                file: 3,
                first_block: 0,
                count: 2,
            },
        );
        assert_eq!(c.block_map_dump(), before, "pins reinstate widened entries");
        pump_to_quiescence(&mut c, 5001);
        assert_eq!(c.migrations_pending(), 0);
    }

    #[test]
    fn drain_retirement_completes_across_coordinator_crash() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 2);
        let victim = c.block_map_dump()[0].1[0].1[0];
        let (queued, _) = c.drain_site(t(10), victim);
        assert!(queued > 0);
        let wal = c.crash();
        assert!(!c.is_retired(victim), "crash resets to configured states");
        c.recover(t(5000), wal, t(4000));
        assert!(
            c.site_states()[victim as usize] == SiteState::Draining,
            "the logged drain replays"
        );
        let extra = pump_to_quiescence(&mut c, 5000);
        assert!(c.is_retired(victim));
        assert!(extra.iter().any(|a| matches!(
            a,
            CoordAction::SendCtl {
                site,
                ctl: StorageCtl::Remove { obj: 3, intent: 0 }
            } if *site == victim
        )));
    }

    #[test]
    fn resync_sources_follow_current_block_map() {
        let mut c = Coordinator::new(4);
        mirrored_file(&mut c, 3, 1);
        let entry = c.block_map_dump()[0].1[0].1.clone();
        let (keeper, old_src) = (entry[0], entry[1]);
        // Rebalance the second replica away and retire its old home.
        let (queued, _) = c.drain_site(t(10), old_src);
        assert!(queued > 0);
        pump_to_quiescence(&mut c, 10);
        assert!(c.is_retired(old_src));
        let new_src = c.block_map_dump()[0].1[0]
            .1
            .iter()
            .copied()
            .find(|&s| s != keeper)
            .expect("replacement replica");
        // A client with a pre-rebalance view marks the surviving replica
        // dirty against the *retired* source. The copy-back must derive
        // its source from the current map, not the recorded snapshot.
        c.handle(
            t(600_000),
            7,
            CoordMsg::MarkDirty {
                op_id: 51,
                obj: 3,
                offset: 0,
                len: 100,
                missed: vec![keeper],
                sources: vec![old_src],
            },
        );
        let acts = c.check_timeouts(t(610_000));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl {
                    site,
                    ctl: StorageCtl::ResyncRead { obj: 3, .. }
                } if *site == new_src
            )),
            "copy-back reads from the live replica, got {acts:?}"
        );
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                CoordAction::SendCtl { site, .. } if *site == old_src
            )),
            "nothing is asked of the retired site"
        );
    }
}
