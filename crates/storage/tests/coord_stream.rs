//! A seeded message stream through the coordinator's public entry points
//! (`handle`, `handle_ctl_reply`, `check_timeouts`, `kick_resync`,
//! `widen_file` / `join_site` / `drain_site`, `crash` / `recover`) against
//! an array of storage nodes behind a bad channel: every `SendCtl` is
//! served one to three rounds after it was emitted, in shuffled order, and
//! not at all while its site is down.
//!
//! The mix: `BeginIntent(Commit)` / `CompleteIntent` (a third never
//! completed), `MapGet`, `MarkDirty` (within a block and, coded, across a
//! stripe boundary; retransmitted under the same `(requester, op_id)`;
//! naming retired sites), `RemoveFile` / `TruncateFile` (mid-stripe
//! truncates of coded files included), `ProbeSite`, a `check_timeouts`
//! every round (one round is one second), a replica widening, a join, a
//! drain, one site down for a hundred rounds — its legs and probes are
//! dropped, so intention probes repeat and its resync is shelved at
//! `RESYNC_MAX_ATTEMPTS` until the kick that follows its return — and a
//! coordinator crash with intentions open, ranges open and the drain in
//! flight. What is asserted, through the public API only:
//!
//! * every fan-out gets exactly one `RemoveDone` / `TruncateDone` (none if
//!   the coordinator crashed under it), every `BeginIntent`, `MapGet` and
//!   `MarkDirty` its answer in the call that took it;
//! * once every site is up again, `dirty_ranges()`,
//!   `migrations_pending()` and `open_intents()` reach 0;
//! * after every round, a coordinator recovered from the WAL of a twin fed
//!   the same calls holds the same `dirty_log_dump()`,
//!   `pinned_entries_dump()` and `site_states()`;
//! * an FNV-1a over every emitted `CoordAction` in order — reply times,
//!   leg order and the bytes of every `ResyncWrite` included — pinned per
//!   placement, so a refactor that moves a probe, a leg or a log append
//!   shows up as a changed constant (the failure prints the new one; a
//!   behaviour change re-pins it on purpose and says why).
//!
//! A site number that does not exist reaches the coordinator only where it
//! already does nothing with it (`kick_resync`, a coded mark); what it
//! makes of one in a mirrored mark or a `ProbeSite` is the business of the
//! unit tests in `coord.rs`.
//!
//! The three constants were pinned on the coordinator as it stood before
//! it was read, and re-pinned once: a control leg now names its intention
//! and `Done` echoes it, so a fan-out that loses a leg at the down site is
//! probed, re-issued and answered (`seen.repaired`) where it used to be
//! logged `Aborted` and never answered — which the harness had to steer
//! around by beginning no fan-out near the down stretch. And a second
//! time, with defect 1(ix): when the down site returns the harness makes
//! the one kick a recovery makes, of that site, where it used to kick all
//! six (a kick now un-shelves every site; the five it no longer makes
//! each forced a running job's stalled leg out a round or two early).
//! And a third time, with defect 1c(vii): the coordinator keeps one block
//! map, so the harness no longer asks for every file's map before the
//! drain (which moves what the map holds, pins a truncate kept included,
//! and so finishes sooner: the crash moved from six rounds after it to
//! two), and a copy replayed after the crash takes its sources from the
//! recovered pin.

use std::collections::BTreeMap;

use slice_hashes::fnv::FNV_OFFSET;
use slice_hashes::fnv1a_continue;
use slice_nfsproto::{Fhandle, NfsRequest, StableHow};
use slice_sim::{Rng, SimDuration, SimTime};
use slice_storage::coord::SiteState;
use slice_storage::{
    CoordAction, CoordMsg, CoordReply, Coordinator, DirtyPiece, IntentKind, Placement, StorageCtl,
    StorageCtlReply, StorageNode, StorageNodeConfig,
};

const SITES: u32 = 6;
/// Sites in the rotation at the start; the last one joins later.
const ACTIVE: u32 = 5;
const UNIT: u64 = 4096;
const FILES: u64 = 20;
/// Blocks of a file the mix touches.
const BLOCKS: u64 = 12;
const ROUNDS: u64 = 420;
const WIDEN_ROUND: u64 = 40;
const JOIN_ROUND: u64 = 60;
const DOWN_SITE: u32 = 2;
const DOWN: std::ops::Range<u64> = 100..200;
/// No new range is marked against the down site from here on, so the job
/// that copies to it runs out of attempts before the site returns.
const MARK_DOWN_UNTIL: u64 = 112;
const DRAIN_ROUND: u64 = 250;
const DRAIN_SITE: u32 = 0;
/// A drain's copy takes a round of reads and a round of writes at the
/// least, so the crash lands with every placement's drain in flight.
const CRASH_ROUND: u64 = DRAIN_ROUND + 2;
/// Intention probes of a site's liveness carry this bit.
const SITE_PROBE_BASE: u64 = 1 << 62;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn file_id(i: u64) -> u64 {
    11 + i * 37
}

fn coordinator(placement: Placement) -> Coordinator {
    let mut c = Coordinator::new(SITES);
    c.set_active_sites(ACTIVE);
    c.set_default_placement(placement);
    c.set_stripe_unit(UNIT);
    c
}

/// One call into the coordinator. The harness makes every call through
/// [`apply`] and keeps the list, so a twin can be brought to the same
/// state and crashed for its WAL.
#[derive(Debug, Clone)]
enum Call {
    Msg(u64, CoordMsg),
    CtlReply(u32, StorageCtlReply),
    Sweep,
    Kick(u32),
    Widen(u64),
    Join(u32),
    Drain(u32),
    CrashRecover,
}

fn apply(c: &mut Coordinator, at: SimTime, call: Call) -> Vec<CoordAction> {
    match call {
        Call::Msg(from, msg) => c.handle(at, from, msg),
        Call::CtlReply(site, reply) => c.handle_ctl_reply(at, site, reply),
        Call::Sweep => c.check_timeouts(at),
        Call::Kick(site) => {
            c.kick_resync(site);
            vec![]
        }
        Call::Widen(file) => {
            c.widen_file(at, file);
            vec![]
        }
        Call::Join(site) => {
            c.join_site(at, site);
            vec![]
        }
        Call::Drain(site) => c.drain_site(at, site).1,
        Call::CrashRecover => {
            let wal = c.crash();
            c.recover(at, wal, at)
        }
    }
}

#[derive(Debug, Default)]
struct Seen {
    fanouts: u64,
    /// Fan-outs begun while another was unanswered.
    overlapping_fanouts: u64,
    fanouts_lost_at_crash: u64,
    legs_dropped: u64,
    /// Intention probes sent again at a site that was down for the last.
    probes_repeated_at_down_site: u64,
    /// Intentions a probe round closed, by what the round found: nothing
    /// done anywhere and nothing re-issued; legs re-issued; done everywhere.
    aborted: u64,
    repaired: u64,
    probed_complete: u64,
    marks: u64,
    marks_retransmitted: u64,
    marks_at_retired: u64,
    resync_reads: u64,
    /// Gathers that ended in a `ResyncWrite` (k windows decoded, coded).
    gathers_applied: u64,
    shelved_and_kicked: u64,
    /// Parity ranges a completed mid-stripe truncate queued (coded).
    ranges_from_truncates: usize,
    widened: usize,
    joined: usize,
    drained: usize,
    retired: bool,
    /// What was open when the coordinator crashed.
    crash_open_intents: usize,
    crash_open_ranges: usize,
    crash_drain_in_flight: bool,
}

struct Harness {
    placement: Placement,
    c: Coordinator,
    nodes: Vec<StorageNode>,
    up: Vec<bool>,
    rng: Rng,
    round: u64,
    now_ms: u64,
    calls: Vec<(u64, Call)>,
    /// `(round it is served, site, leg)`.
    in_flight: Vec<(u64, u32, StorageCtl)>,
    /// `file -> block -> sites`, as the last fragment said.
    maps: BTreeMap<u64, BTreeMap<u64, Vec<u32>>>,
    /// `(round, intention)` completions owed.
    completions: Vec<(u64, u64)>,
    /// `(requester, req_id) -> answered`.
    fanouts: BTreeMap<(u64, u64), bool>,
    last_mark: Option<(u64, CoordMsg)>,
    /// `(intention, site) -> the site was down when last probed`.
    probed: BTreeMap<(u64, u32), bool>,
    /// `intention -> site -> last answer`.
    answers: BTreeMap<u64, BTreeMap<u32, bool>>,
    last_leg_to_down_site: u64,
    next_op: u64,
    hash: u64,
    seen: Seen,
}

impl Harness {
    fn new(placement: Placement) -> Self {
        // Every site holds different bytes for every object, so the hash of
        // a `ResyncWrite` says which windows were gathered from where.
        let mut rng = Rng::seed_from_u64(0x434f_4f52_4453_5452);
        let nodes = (0..SITES)
            .map(|_| {
                let mut node = StorageNode::new(&StorageNodeConfig::default());
                for f in 0..FILES {
                    let write = NfsRequest::Write {
                        fh: Fhandle::new(file_id(f), 0, 0, 0, 0),
                        offset: 0,
                        stable: StableHow::FileSync,
                        data: (0..BLOCKS * UNIT).map(|_| rng.gen::<u8>()).collect(),
                    };
                    node.handle_nfs(SimTime::ZERO, &write);
                }
                node
            })
            .collect();
        Harness {
            placement,
            c: coordinator(placement),
            nodes,
            up: vec![true; SITES as usize],
            rng,
            round: 0,
            now_ms: 0,
            calls: Vec::new(),
            in_flight: Vec::new(),
            maps: BTreeMap::new(),
            completions: Vec::new(),
            fanouts: BTreeMap::new(),
            last_mark: None,
            probed: BTreeMap::new(),
            answers: BTreeMap::new(),
            last_leg_to_down_site: 0,
            next_op: 1,
            hash: FNV_OFFSET,
            seen: Seen::default(),
        }
    }

    fn coded(&self) -> bool {
        matches!(self.placement, Placement::Coded { .. })
    }

    fn fold(&mut self, text: String) {
        self.hash = fnv1a_continue(self.hash, text.as_bytes());
    }

    /// Makes one call a millisecond after the last and takes what it
    /// emitted.
    fn call(&mut self, call: Call) -> Vec<CoordAction> {
        self.now_ms += 1;
        assert!(self.now_ms < (self.round + 1) * 1000, "round overran");
        self.calls.push((self.now_ms, call.clone()));
        let actions = apply(&mut self.c, t(self.now_ms), call);
        for action in &actions {
            self.absorb(action);
        }
        actions
    }

    fn absorb(&mut self, action: &CoordAction) {
        match action {
            CoordAction::Reply { to, reply, at } => {
                self.fold(format!("R {to} {} {reply:?}", at.as_nanos()));
                match reply {
                    CoordReply::RemoveDone { req_id } | CoordReply::TruncateDone { req_id } => {
                        let answered = self.fanouts.get_mut(&(*to, *req_id));
                        let answered = answered.expect("an answer to a fan-out nobody began");
                        assert!(!*answered, "fan-out {req_id} of {to} answered twice");
                        *answered = true;
                    }
                    CoordReply::MapFragment {
                        file,
                        first_block,
                        sites,
                        ..
                    } => {
                        let map = self.maps.entry(*file).or_default();
                        for (i, s) in sites.iter().enumerate() {
                            map.insert(first_block + i as u64, s.clone());
                        }
                    }
                    _ => {}
                }
            }
            CoordAction::SendCtl { site, ctl } => {
                assert!(*site < SITES, "a leg for a site that does not exist");
                match ctl {
                    StorageCtl::ResyncWrite { obj, offset, data } => {
                        // The windows in order hash as their bytes would.
                        let bytes = data.iter().fold(FNV_OFFSET, |h, w| fnv1a_continue(h, w));
                        let len = data.len();
                        self.fold(format!("C {site} W {obj} {offset} {len} {bytes:x}"))
                    }
                    other => self.fold(format!("C {site} {other:?}")),
                }
                match ctl {
                    StorageCtl::Probe { intent } if *intent < SITE_PROBE_BASE => {
                        let down = !self.up[*site as usize];
                        if self.probed.insert((*intent, *site), down) == Some(true) {
                            self.seen.probes_repeated_at_down_site += 1;
                        }
                    }
                    StorageCtl::ResyncRead { .. } => self.seen.resync_reads += 1,
                    _ => {}
                }
                if *site == DOWN_SITE
                    && matches!(
                        ctl,
                        StorageCtl::ResyncRead { .. } | StorageCtl::ResyncWrite { .. }
                    )
                {
                    self.last_leg_to_down_site = self.round;
                }
                let due = self.round + self.rng.gen_range(1u64..4);
                self.in_flight.push((due, *site, ctl.clone()));
            }
        }
    }

    /// Serves the legs whose round has come, shuffled, and hands each
    /// answer back.
    fn deliver_due(&mut self) {
        let (mut due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|&(round, _, _)| round <= self.round);
        self.in_flight = later;
        for i in (1..due.len()).rev() {
            due.swap(i, self.rng.gen_range(0..=i));
        }
        for (_, site, ctl) in due {
            if !self.up[site as usize] {
                self.seen.legs_dropped += 1;
                continue;
            }
            let (_, reply) = self.nodes[site as usize].handle_ctl(t(self.now_ms), &ctl);
            let probe = match reply {
                StorageCtlReply::ProbeResult { intent, completed } if intent < SITE_PROBE_BASE => {
                    self.answers
                        .entry(intent)
                        .or_default()
                        .insert(site, completed);
                    Some(intent)
                }
                _ => None,
            };
            let gathering = matches!(reply, StorageCtlReply::ResyncData { .. });
            let truncating = matches!(ctl, StorageCtl::Truncate { .. });
            let (open_before, owed_before) = (self.c.open_intents(), self.c.dirty_ranges());
            let actions = self.call(Call::CtlReply(site, reply));
            if truncating {
                self.seen.ranges_from_truncates += self.c.dirty_ranges() - owed_before;
            }
            let sent = |pred: fn(&StorageCtl) -> bool| {
                actions
                    .iter()
                    .any(|a| matches!(a, CoordAction::SendCtl { ctl, .. } if pred(ctl)))
            };
            if gathering && sent(|c| matches!(c, StorageCtl::ResyncWrite { .. })) {
                self.seen.gathers_applied += 1;
            }
            // A probe answer that closed its intention was the last of a
            // round: say what the round found.
            if let Some(intent) = probe.filter(|_| self.c.open_intents() < open_before) {
                let done = self.answers[&intent].values().filter(|&&c| c).count();
                let reissued =
                    sent(|c| matches!(c, StorageCtl::Remove { .. } | StorageCtl::Truncate { .. }));
                if reissued {
                    self.seen.repaired += 1;
                } else if done == 0 {
                    self.seen.aborted += 1;
                } else if done == self.answers[&intent].len() {
                    self.seen.probed_complete += 1;
                }
            }
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.gen_range(0..from.len())]
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    fn map_get(&mut self) {
        let msg = CoordMsg::MapGet {
            file: file_id(self.rng.gen_range(0..FILES)),
            first_block: self.rng.gen_range(0..BLOCKS - 3),
            count: self.rng.gen_range(1u32..5),
        };
        let from = 100 + self.rng.gen_range(0u64..5);
        let actions = self.call(Call::Msg(from, msg));
        assert!(matches!(
            &actions[..],
            [CoordAction::Reply {
                reply: CoordReply::MapFragment { .. },
                ..
            }]
        ));
    }

    fn begin_intent(&mut self) {
        let states = self.c.site_states();
        let mut serving: Vec<u32> = (0..SITES)
            .filter(|&s| matches!(states[s as usize], SiteState::Active | SiteState::Draining))
            .collect();
        let mut participants = Vec::new();
        for _ in 0..self.rng.gen_range(2u32..4) {
            let i = self.rng.gen_range(0..serving.len());
            participants.push(serving.swap_remove(i));
        }
        if !self.up[DOWN_SITE as usize] && !participants.contains(&DOWN_SITE) {
            participants[0] = DOWN_SITE;
        }
        let msg = CoordMsg::BeginIntent {
            op_id: self.op_id(),
            kind: IntentKind::Commit {
                obj: file_id(self.rng.gen_range(0..FILES)),
            },
            participants,
        };
        let from = 100 + self.rng.gen_range(0u64..5);
        let actions = self.call(Call::Msg(from, msg));
        let [CoordAction::Reply {
            reply: CoordReply::IntentAck { intent, .. },
            ..
        }] = &actions[..]
        else {
            panic!("BeginIntent answered with {actions:?}");
        };
        if self.rng.gen_bool(0.65) {
            let at = self.round + self.rng.gen_range(1u64..5);
            self.completions.push((at, *intent));
        }
    }

    /// Marks part of a block some requester knows the sites of — one
    /// `held_by` holds, when that is asked for.
    fn mark_dirty(&mut self, held_by: Option<u32>) {
        let known = self.maps.iter().flat_map(|(&file, blocks)| {
            let wanted = blocks
                .iter()
                .filter(|(_, sites)| held_by.is_none_or(|s| sites.contains(&s)));
            wanted.map(move |(&block, _)| (file, block))
        });
        let known: Vec<(u64, u64)> = known.collect();
        if known.is_empty() {
            return self.map_get();
        }
        let (file, block) = self.pick(&known);
        let holders = self.maps[&file][&block].clone();
        let down = !self.up[DOWN_SITE as usize];
        let missed = if down && holders.contains(&DOWN_SITE) {
            if self.round >= MARK_DOWN_UNTIL {
                return;
            }
            DOWN_SITE
        } else {
            self.pick(&holders)
        };
        let mut sources: Vec<u32> = holders
            .iter()
            .copied()
            .filter(|&s| s != missed && self.up[s as usize])
            .collect();
        if sources.is_empty() && (held_by.is_some() || self.rng.gen_bool(0.5)) {
            // A single-copy block has no replica to copy from; name a
            // neighbour half the time so a copy runs all the same.
            sources.push((missed + 1) % ACTIVE);
        }
        let (offset, len) = if self.coded() {
            let offset = block * UNIT + self.rng.gen_range(0..UNIT);
            (offset, self.rng.gen_range(1..=UNIT))
        } else {
            let offset = block * UNIT + self.rng.gen_range(0..UNIT / 2);
            (offset, self.rng.gen_range(1..=UNIT / 2))
        };
        let mut missed = vec![missed];
        let retired = self.c.retired_sites();
        if !retired.is_empty() && self.rng.gen_bool(0.3) {
            missed.push(retired[0]);
            self.seen.marks_at_retired += 1;
        }
        if self.coded() && self.rng.gen_bool(0.1) {
            missed.push(SITES + 1);
        }
        let msg = CoordMsg::MarkDirty {
            op_id: self.op_id(),
            obj: file,
            pieces: vec![DirtyPiece {
                offset,
                len,
                missed,
                sources,
            }],
        };
        let from = 100 + self.rng.gen_range(0u64..5);
        self.seen.marks += 1;
        self.send_mark(from, msg.clone());
        self.last_mark = Some((from, msg));
    }

    fn send_mark(&mut self, from: u64, msg: CoordMsg) {
        let actions = self.call(Call::Msg(from, msg));
        assert!(matches!(
            &actions[..],
            [CoordAction::Reply {
                reply: CoordReply::DirtyAck { .. },
                ..
            }]
        ));
    }

    fn fanout(&mut self) {
        let file = file_id(self.rng.gen_range(0..FILES));
        let (from, req_id) = (200 + self.rng.gen_range(0u64..2), self.op_id());
        let msg = if self.rng.gen_bool(0.45) {
            CoordMsg::RemoveFile { req_id, file }
        } else {
            let block = self.rng.gen_range(0..BLOCKS);
            let size = match self.rng.gen_range(0u32..3) {
                0 => 0,
                1 => block * UNIT,
                _ => block * UNIT + self.rng.gen_range(1..UNIT),
            };
            CoordMsg::TruncateFile { req_id, file, size }
        };
        self.seen.fanouts += 1;
        if self.fanouts.values().any(|answered| !answered) {
            self.seen.overlapping_fanouts += 1;
        }
        self.fanouts.insert((from, req_id), false);
        // Either way the coordinator forgets the file's materialized map.
        self.maps.remove(&file);
        self.call(Call::Msg(from, msg));
    }

    fn random_request(&mut self) {
        match self.rng.gen_range(0u32..100) {
            0..=21 => self.map_get(),
            22..=41 => self.mark_dirty(None),
            42..=47 => {
                if let Some((from, msg)) = self.last_mark.clone() {
                    self.seen.marks_retransmitted += 1;
                    self.send_mark(from, msg);
                }
            }
            48..=63 => self.begin_intent(),
            64..=85 => self.fanout(),
            86..=96 => {
                let msg = CoordMsg::ProbeSite {
                    site: self.rng.gen_range(0..SITES),
                };
                let from = 100 + self.rng.gen_range(0u64..5);
                self.call(Call::Msg(from, msg));
            }
            _ => {
                let nowhere = SITES + self.rng.gen_range(0u32..4);
                self.call(Call::Kick(nowhere));
            }
        }
    }

    /// The events of the run that happen at a fixed round.
    fn scheduled(&mut self) {
        if self.round == DOWN.start {
            self.up[DOWN_SITE as usize] = false;
            self.nodes[DOWN_SITE as usize].crash_restart();
            self.mark_dirty(Some(DOWN_SITE));
        }
        if self.round == DOWN.end {
            let owed = self.c.dirty_log_dump();
            if owed.iter().any(|r| r.0 == DOWN_SITE) && self.round - self.last_leg_to_down_site > 4
            {
                self.seen.shelved_and_kicked += 1;
            }
            self.up[DOWN_SITE as usize] = true;
            // The one kick a recovery makes; it un-shelves every site.
            self.call(Call::Kick(DOWN_SITE));
        }
        if self.round == WIDEN_ROUND {
            let widest = self.maps.iter().max_by_key(|(_, m)| m.len());
            let file = *widest.expect("a mapped file").0;
            self.call(Call::Widen(file));
            self.seen.widened = self.c.migrations_pending();
        }
        if self.round == JOIN_ROUND {
            let before = self.c.migrations_pending();
            self.call(Call::Join(ACTIVE));
            assert_eq!(self.c.site_states()[ACTIVE as usize], SiteState::Active);
            self.seen.joined = self.c.migrations_pending() - before;
            self.maps.clear();
        }
        if self.round == DRAIN_ROUND {
            let before = self.c.migrations_pending();
            self.call(Call::Drain(DRAIN_SITE));
            self.seen.drained = self.c.migrations_pending() - before;
            self.maps.clear();
        }
        if self.round == CRASH_ROUND - 1 {
            // Its legs are served after the crash at the earliest.
            self.fanout();
        }
        if self.round == CRASH_ROUND {
            self.seen.crash_open_intents = self.c.open_intents();
            self.seen.crash_open_ranges = self.c.dirty_ranges();
            self.seen.crash_drain_in_flight =
                self.c.site_states()[DRAIN_SITE as usize] == SiteState::Draining;
            self.call(Call::CrashRecover);
            // Who asked for an open fan-out went with the crash.
            let before = self.fanouts.len();
            self.fanouts.retain(|_, answered| *answered);
            self.seen.fanouts_lost_at_crash = (before - self.fanouts.len()) as u64;
        }
    }

    /// One second: fixed events, new requests, completions owed, the legs
    /// that are due, the sweep — and the WAL replays to what is held.
    fn step(&mut self, requests: bool) {
        self.round += 1;
        self.now_ms = self.round * 1000;
        self.scheduled();
        if requests {
            for _ in 0..self.rng.gen_range(0u32..4) {
                self.random_request();
            }
        }
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.completions)
            .into_iter()
            .partition(|&(round, _)| round <= self.round);
        self.completions = later;
        for (_, intent) in due {
            self.call(Call::Msg(100, CoordMsg::CompleteIntent { intent }));
        }
        self.deliver_due();
        self.call(Call::Sweep);
        self.check_wal_replay();
    }

    fn check_wal_replay(&self) {
        let mut twin = coordinator(self.placement);
        for (ms, call) in &self.calls {
            apply(&mut twin, t(*ms), call.clone());
        }
        let wal = twin.crash();
        let mut recovered = coordinator(self.placement);
        recovered.recover(t(self.now_ms), wal, t(self.now_ms + 60_000));
        let round = self.round;
        assert_eq!(
            recovered.dirty_log_dump(),
            self.c.dirty_log_dump(),
            "round {round}"
        );
        assert_eq!(
            recovered.pinned_entries_dump(),
            self.c.pinned_entries_dump(),
            "round {round}"
        );
        assert_eq!(
            recovered.site_states(),
            self.c.site_states(),
            "round {round}"
        );
    }

    fn run(mut self) -> (u64, Seen) {
        while self.round < ROUNDS {
            self.step(true);
        }
        // Every site is up; nothing new is asked. What is open closes.
        while !self.in_flight.is_empty() || !self.completions.is_empty() || self.c.needs_sweep() {
            assert!(self.round < ROUNDS + 400, "the coordinator never went idle");
            self.step(false);
        }
        assert_eq!(self.c.open_intents(), 0);
        assert_eq!(self.c.dirty_ranges(), 0);
        assert_eq!(self.c.migrations_pending(), 0);
        let unanswered: Vec<_> = self.fanouts.iter().filter(|(_, &a)| !a).collect();
        assert!(unanswered.is_empty(), "never answered: {unanswered:?}");
        self.seen.retired = self.c.is_retired(DRAIN_SITE);
        (self.hash, self.seen)
    }
}

fn stream(placement: Placement) -> u64 {
    let coded = matches!(placement, Placement::Coded { .. });
    let (hash, seen) = Harness::new(placement).run();
    println!("{placement:?}: {seen:?}");
    assert!(seen.overlapping_fanouts > 0 && seen.fanouts_lost_at_crash > 0);
    assert!(seen.legs_dropped > 0 && seen.probes_repeated_at_down_site > 0);
    assert!(seen.aborted > 0, "no intention was aborted");
    assert!(seen.repaired > 0, "no lost leg was re-issued");
    assert!(seen.marks_retransmitted > 0 && seen.marks_at_retired > 0 || coded);
    assert_eq!(seen.shelved_and_kicked, 1, "the down site's resync");
    assert!(seen.resync_reads > 0 && seen.gathers_applied > 0);
    assert!(seen.crash_open_intents > 0 && seen.crash_open_ranges > 0);
    assert!(seen.crash_drain_in_flight);
    match placement {
        // Only mirrored entries widen or rebalance; a drain moves what is
        // not coded, and a coded stripe keeps naming the draining site.
        Placement::Mirrored => {
            assert!(seen.widened > 0 && seen.joined > 0 && seen.drained > 0 && seen.retired)
        }
        Placement::Striped => assert!(seen.drained > 0 && seen.retired),
        Placement::Coded { .. } => assert!(seen.ranges_from_truncates > 0 && !seen.retired),
    }
    hash
}

#[test]
fn action_stream_is_pinned_mirrored() {
    assert_eq!(
        stream(Placement::Mirrored),
        8650273790295325748,
        "mirrored action stream changed"
    );
}

#[test]
fn action_stream_is_pinned_coded() {
    assert_eq!(
        stream(Placement::Coded { n: 4, k: 2 }),
        13935348203615019874,
        "coded action stream changed"
    );
}

#[test]
fn action_stream_is_pinned_striped() {
    assert_eq!(
        stream(Placement::Striped),
        2853762848816108483,
        "striped action stream changed"
    );
}
