//! Deterministic workload generation, crash-schedule exploration, and
//! failing-schedule minimization.
//!
//! A [`Scenario`] is a seed-derived NFS operation sequence; a [`Schedule`]
//! is a list of fault injections (node crashes with recovery, packet-loss
//! windows) pinned to simulated times. [`run_schedule`] executes one
//! (scenario, schedule) pair in a fresh ensemble and runs every oracle over
//! the outcome; [`sweep`] fans that out over N seeds × M schedules and
//! exports a deterministic slice-obs JSON report; [`minimize`] shrinks a
//! failing schedule by bisection.
//!
//! Everything is a pure function of its seed: the same inputs replay the
//! same packets, crashes, and oracle verdicts, byte for byte.

use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_core::{ClientIo, OpHistory, Workload, CHUNK_BYTES};
use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow};
use slice_obs::Obs;
use slice_sim::{NodeId, Rng, SimDuration, SimTime};

use crate::oracle::{check_histories, OracleStats};
use crate::state::{
    check_structural, check_structural_strict, snapshot, snapshot_diff, VolumeSnapshot,
};
use crate::Violation;

/// Ceiling on generated read/write transfer so epilogue reads stay sane.
const MAX_IO_BYTES: u64 = 256 * 1024;
/// Simulated-time budget for one schedule run.
const RUN_DEADLINE_SECS: u64 = 600;

/// One generated operation. `slot` values index the driver's handle table
/// (slot 0 is the volume root); `LookupBind` is what binds a slot, so every
/// `Create`/`Mkdir` is followed by one — a create acknowledged only on a
/// retransmission answers `Exist` without a handle, and the bind must
/// still succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOp {
    /// Make a directory `name` under the directory at `parent`.
    Mkdir { parent: usize, name: String },
    /// Create a regular file `name` under the directory at `parent`.
    Create { parent: usize, name: String },
    /// Look up `name` under `parent` and bind the resulting handle to
    /// `slot`.
    LookupBind {
        slot: usize,
        parent: usize,
        name: String,
    },
    /// FileSync write of `len` bytes of `val` at `offset`.
    Write {
        slot: usize,
        offset: u64,
        len: u32,
        val: u8,
    },
    /// Read `len` bytes at `offset`.
    Read { slot: usize, offset: u64, len: u32 },
    /// Truncate (or zero-extend) to `size` bytes via SETATTR.
    Truncate { slot: usize, size: u64 },
    /// Remove the file `name` under `parent`.
    Remove { parent: usize, name: String },
    /// Rename `from_name` under `from` to `to_name` under `to`.
    Rename {
        from: usize,
        from_name: String,
        to: usize,
        to_name: String,
    },
    /// List the directory at `slot`.
    Readdir { slot: usize },
    /// Fetch attributes of the file at `slot`.
    Getattr { slot: usize },
    /// Commit unstable data of the file at `slot`.
    Commit { slot: usize },
}

/// A seed-derived operation sequence plus the slot-table size it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The seed this scenario was generated from.
    pub seed: u64,
    /// Operations in program order.
    pub ops: Vec<GenOp>,
    /// Handle slots referenced (slot 0 = root).
    pub slots: usize,
    /// Index of the first epilogue op (re-lookup + getattr + full read of
    /// every surviving file), for reporting.
    pub epilogue_start: usize,
}

struct FileModel {
    slot: usize,
    parent: usize,
    name: String,
    big: bool,
    size: u64,
}

/// Generates a deterministic scenario of roughly `n_ops` operations:
/// a mixed namespace/data workload over ≤ 8 directories and ≤ 24 files
/// (one in five striped "big" files crossing the small-file threshold),
/// all writes FileSync with 1 KiB-aligned uniform-byte payloads so the
/// per-chunk register model sees every transfer, followed by an epilogue
/// that re-looks-up, stats, and fully reads every surviving file.
pub fn generate_scenario(seed: u64, n_ops: usize) -> Scenario {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut ops = Vec::new();
    let mut next_slot = 1usize;
    let mut next_name = 0u64;
    let mut dirs: Vec<usize> = vec![0];
    let mut files: Vec<FileModel> = Vec::new();

    while ops.len() < n_ops {
        let roll = rng.gen_range(0..100u32);
        match roll {
            // Create a file (falls through to a write when at capacity).
            0..=17 if files.len() < 24 => {
                let parent = dirs[rng.gen_range(0..dirs.len() as u64) as usize];
                let name = format!("f{next_name}");
                next_name += 1;
                let slot = next_slot;
                next_slot += 1;
                ops.push(GenOp::Create {
                    parent,
                    name: name.clone(),
                });
                ops.push(GenOp::LookupBind {
                    slot,
                    parent,
                    name: name.clone(),
                });
                files.push(FileModel {
                    slot,
                    parent,
                    name,
                    big: rng.gen_bool(0.2),
                    size: 0,
                });
            }
            18..=25 if dirs.len() < 8 => {
                let parent = dirs[rng.gen_range(0..dirs.len() as u64) as usize];
                let name = format!("d{next_name}");
                next_name += 1;
                let slot = next_slot;
                next_slot += 1;
                ops.push(GenOp::Mkdir {
                    parent,
                    name: name.clone(),
                });
                ops.push(GenOp::LookupBind { slot, parent, name });
                dirs.push(slot);
            }
            _ if files.is_empty() => {
                // Nothing to operate on yet; force a create next round.
                continue;
            }
            // Data ops and the rest target a random live file.
            _ => {
                let fi = rng.gen_range(0..files.len() as u64) as usize;
                match roll {
                    26..=55 => {
                        let f = &mut files[fi];
                        let (offset, len) = if f.big {
                            (
                                16 * 1024 * rng.gen_range(0..8u64),
                                16 * 1024 * rng.gen_range(1..=4u64),
                            )
                        } else {
                            (
                                CHUNK_BYTES * rng.gen_range(0..16u64),
                                CHUNK_BYTES * rng.gen_range(1..=4u64),
                            )
                        };
                        let val = rng.gen_range(1..=255u64) as u8;
                        ops.push(GenOp::Write {
                            slot: f.slot,
                            offset,
                            len: len as u32,
                            val,
                        });
                        f.size = f.size.max(offset + len);
                    }
                    56..=73 => {
                        let f = &files[fi];
                        let span = if f.big { 16 * 1024 } else { CHUNK_BYTES };
                        let offset = span * rng.gen_range(0..8u64);
                        let len = span * rng.gen_range(1..=4u64);
                        ops.push(GenOp::Read {
                            slot: f.slot,
                            offset,
                            len: len as u32,
                        });
                    }
                    74..=79 => {
                        let f = &mut files[fi];
                        let size = CHUNK_BYTES * rng.gen_range(0..=(f.size / CHUNK_BYTES) + 2);
                        ops.push(GenOp::Truncate { slot: f.slot, size });
                        f.size = size;
                    }
                    80..=84 if files.len() > 1 => {
                        let f = files.remove(fi);
                        ops.push(GenOp::Remove {
                            parent: f.parent,
                            name: f.name,
                        });
                    }
                    85..=89 => {
                        let to = dirs[rng.gen_range(0..dirs.len() as u64) as usize];
                        let to_name = format!("f{next_name}");
                        next_name += 1;
                        let f = &mut files[fi];
                        ops.push(GenOp::Rename {
                            from: f.parent,
                            from_name: f.name.clone(),
                            to,
                            to_name: to_name.clone(),
                        });
                        f.parent = to;
                        f.name = to_name;
                    }
                    90..=93 => {
                        let d = dirs[rng.gen_range(0..dirs.len() as u64) as usize];
                        ops.push(GenOp::Readdir { slot: d });
                    }
                    94..=97 => ops.push(GenOp::Getattr {
                        slot: files[fi].slot,
                    }),
                    _ => ops.push(GenOp::Commit {
                        slot: files[fi].slot,
                    }),
                }
            }
        }
    }

    // Epilogue: verify every surviving file end-to-end.
    let epilogue_start = ops.len();
    for f in &files {
        ops.push(GenOp::LookupBind {
            slot: f.slot,
            parent: f.parent,
            name: f.name.clone(),
        });
        ops.push(GenOp::Getattr { slot: f.slot });
        if f.size > 0 {
            ops.push(GenOp::Read {
                slot: f.slot,
                offset: 0,
                len: f.size.min(MAX_IO_BYTES) as u32,
            });
        }
    }
    for &d in &dirs[1..] {
        ops.push(GenOp::Readdir { slot: d });
    }

    Scenario {
        seed,
        ops,
        slots: next_slot,
        epilogue_start,
    }
}

/// Drives a [`Scenario`] one operation at a time: each op is issued only
/// after the previous one completed, so program order equals real-time
/// order and the recorded history is sequential per client. Ops whose
/// handle slot never bound (the binding lookup failed) are skipped and
/// counted. A JukeBox answer — a µproxy whose directory table was stale
/// beyond its own bounce handling — re-issues the op with a fresh xid.
pub struct DriverWorkload {
    scenario: Scenario,
    pc: usize,
    slots: Vec<Option<Fhandle>>,
    /// Scenario op index of each history record, in record order.
    pub issued: Vec<usize>,
    /// Scenario op indices skipped because a slot never bound.
    pub skipped: Vec<usize>,
    /// Ops re-issued after a JukeBox reply.
    pub jukebox_reissues: u64,
    done: bool,
}

impl DriverWorkload {
    /// Builds a driver for `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        let mut slots = vec![None; scenario.slots.max(1)];
        slots[0] = Some(Fhandle::root());
        DriverWorkload {
            scenario,
            pc: 0,
            slots,
            issued: Vec::new(),
            skipped: Vec::new(),
            jukebox_reissues: 0,
            done: false,
        }
    }

    /// The scenario being driven.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn request_for(&self, idx: usize) -> Option<NfsRequest> {
        let fh = |slot: usize| self.slots[slot];
        Some(match &self.scenario.ops[idx] {
            GenOp::Mkdir { parent, name } => NfsRequest::Mkdir {
                dir: fh(*parent)?,
                name: name.clone(),
                attr: Sattr3::default(),
            },
            GenOp::Create { parent, name } => NfsRequest::Create {
                dir: fh(*parent)?,
                name: name.clone(),
                attr: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
            GenOp::LookupBind { parent, name, .. } => NfsRequest::Lookup {
                dir: fh(*parent)?,
                name: name.clone(),
            },
            GenOp::Write {
                slot,
                offset,
                len,
                val,
            } => NfsRequest::Write {
                fh: fh(*slot)?,
                offset: *offset,
                stable: StableHow::FileSync,
                data: vec![*val; *len as usize],
            },
            GenOp::Read { slot, offset, len } => NfsRequest::Read {
                fh: fh(*slot)?,
                offset: *offset,
                count: *len,
            },
            GenOp::Truncate { slot, size } => NfsRequest::Setattr {
                fh: fh(*slot)?,
                attr: Sattr3 {
                    size: Some(*size),
                    ..Default::default()
                },
            },
            GenOp::Remove { parent, name } => NfsRequest::Remove {
                dir: fh(*parent)?,
                name: name.clone(),
            },
            GenOp::Rename {
                from,
                from_name,
                to,
                to_name,
            } => NfsRequest::Rename {
                from_dir: fh(*from)?,
                from_name: from_name.clone(),
                to_dir: fh(*to)?,
                to_name: to_name.clone(),
            },
            GenOp::Readdir { slot } => NfsRequest::Readdir {
                dir: fh(*slot)?,
                cookie: 0,
                cookieverf: 0,
                count: 64 * 1024,
            },
            GenOp::Getattr { slot } => NfsRequest::Getattr { fh: fh(*slot)? },
            GenOp::Commit { slot } => NfsRequest::Commit {
                fh: fh(*slot)?,
                offset: 0,
                count: 0,
            },
        })
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        while self.pc < self.scenario.ops.len() {
            match self.request_for(self.pc) {
                Some(req) => {
                    self.issued.push(self.pc);
                    io.call(self.pc as u64, req);
                    return;
                }
                None => {
                    self.skipped.push(self.pc);
                    self.pc += 1;
                }
            }
        }
        self.done = true;
    }
}

impl Workload for DriverWorkload {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply) {
        let idx = tag as usize;
        if reply.status == NfsStatus::JukeBox {
            // Not executed; retry the same op under a fresh xid.
            if let Some(req) = self.request_for(idx) {
                self.jukebox_reissues += 1;
                self.issued.push(idx);
                io.call(tag, req);
                return;
            }
        }
        if let (GenOp::LookupBind { slot, .. }, ReplyBody::Lookup { fh, .. }) =
            (&self.scenario.ops[idx], &reply.body)
        {
            if reply.status == NfsStatus::Ok {
                self.slots[*slot] = Some(*fh);
            }
        }
        self.pc = idx + 1;
        self.issue(io);
    }

    fn finished(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One fault injection. Crashed nodes recover after `down_ms`; a loss
/// window raises the network's drop probability for `dur_ms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injection {
    /// Crash directory server `site`.
    CrashDir { site: usize, down_ms: u64 },
    /// Crash small-file server `site`.
    CrashSf { site: usize, down_ms: u64 },
    /// Crash storage node `site`.
    CrashStorage { site: usize, down_ms: u64 },
    /// Crash coordinator `site`.
    CrashCoord { site: usize, down_ms: u64 },
    /// Drop `permille`/1000 of packets for `dur_ms`.
    LossWindow { permille: u32, dur_ms: u64 },
    /// Duplicate `permille`/1000 of datagrams for `dur_ms`. Only
    /// datagram traffic (client UDP) is eligible; typed control channels
    /// model reliable transports and are exempt.
    DupWindow { permille: u32, dur_ms: u64 },
    /// Reorder datagram arrivals within a `window_ms` jitter window for
    /// `dur_ms`.
    ReorderWindow { window_ms: u64, dur_ms: u64 },
    /// Bring standby storage site `site` into the placement rotation and
    /// rebalance a share of existing block-map entries onto it. Only
    /// meaningful against the reconf ensemble (five sites, four active).
    JoinStorage { site: usize },
    /// Planned drain of storage site `site`: migrate every block-map
    /// entry off it, then retire it (distinct from a crash — the site
    /// serves reads while draining). The drain oracle verifies no chunk
    /// is stranded and no map entry orphaned afterwards.
    DrainStorage { site: usize },
    /// Widen the hottest file (per the µproxies' sliding hot window) by
    /// one pinned replica; a no-op when nothing is hot yet.
    WidenHot,
}

/// An [`Injection`] pinned to a simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// Injection time in simulated milliseconds.
    pub at_ms: u64,
    /// What to inject.
    pub inject: Injection,
}

/// A fault schedule; the empty schedule is the crash-free reference run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Events in any order; the runner sorts an expanded timeline.
    pub events: Vec<ScheduleEvent>,
}

impl Schedule {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        if self.events.is_empty() {
            return "crash-free".to_string();
        }
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|e| format!("{:?}@{}ms", e.inject, e.at_ms))
            .collect();
        parts.join(", ")
    }
}

/// What one (scenario, schedule) run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Simulated completion time.
    pub finish: SimTime,
    /// The workload did not finish before the deadline.
    pub stalled: bool,
    /// History records that completed (reply reached the workload).
    pub completed_ops: usize,
    /// Scenario ops skipped because a handle slot never bound.
    pub skipped_ops: usize,
    /// Everything every oracle found (empty = run passed).
    pub violations: Vec<Violation>,
    /// Linearizability-search accounting.
    pub oracle_stats: OracleStats,
    /// Final namespace, for reference comparison.
    pub snapshot: VolumeSnapshot,
}

enum Act {
    Fail(NodeId),
    Recover(NodeId),
    /// Storage recovery goes through the ensemble so coordinators get a
    /// resync kick (mirrors [`SliceEnsemble::recover_storage_node`]).
    RecoverStorage(usize),
    LossOn(f64),
    LossOff,
    DupOn(f64),
    DupOff,
    ReorderOn(u64),
    ReorderOff,
    Join(usize),
    Drain(usize),
    WidenHot,
}

/// How the explorer runs: which ensemble each run is built on, which
/// schedule pool a sweep draws from, and how much of the host it uses.
/// The default is the plain explorer — mirrored placement, the standard
/// crash/loss pool, one sweep thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Sweeps draw from [`chaos_schedules`] (duplication and reordering
    /// windows, stacked storage crashes) instead of
    /// [`standard_schedules`]; with `coded`, from
    /// [`coded_chaos_schedules`].
    pub chaos: bool,
    /// Every mapped file is erasure-coded as (4,2) instead of mirrored, so
    /// the same scenarios and fault schedules exercise striped writes,
    /// degraded reads, and shard rebuilds — vetted by the
    /// coded-reconstruction oracle.
    pub coded: bool,
    /// The reconfiguration ensemble: a fifth storage site starts in
    /// standby, `JoinStorage`/`DrainStorage`/`WidenHot` injections are
    /// honored, sweeps draw from [`reconf_schedules`], and the drain
    /// oracle ([`crate::state::check_drained`]) runs over every drained
    /// site at quiescence.
    pub reconf: bool,
    /// Sweep worker threads: each seed's reference run and schedule
    /// replays execute as one independent task (every run builds a fresh
    /// ensemble, so tasks share nothing).
    pub threads: usize,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            chaos: false,
            coded: false,
            reconf: false,
            threads: 1,
        }
    }
}

/// The ensemble every schedule runs against: one recorded client, two
/// directory sites (so reconfig/multisite paths are live), the default
/// four storage nodes with block maps on, and data retention for the
/// structural oracles.
fn explorer_config(seed: u64, opts: &ExploreOpts) -> SliceConfig {
    let (coded, reconf) = (opts.coded, opts.reconf);
    SliceConfig {
        clients: 1,
        dir_servers: 2,
        record_history: true,
        retain_data: true,
        use_block_maps: true,
        coded: coded.then_some((4, 2)),
        // The reconf ensemble carries a fifth storage site held in
        // standby so join/drain schedules have somewhere to rebalance
        // to, and two-way mirrored mapped placement so widening and join
        // rebalance have replica sets to operate on; the base ensemble
        // is unchanged so existing sweep outputs stay stable.
        storage_nodes: if reconf { 5 } else { 4 },
        active_storage: reconf.then_some(4),
        mapped_mirror: reconf && !coded,
        seed,
        ..SliceConfig::default()
    }
}

/// Runs `scenario` under `schedule` in a fresh ensemble (the one `opts`
/// selects) and applies every oracle: expected per-op status (with NFS
/// retransmission tolerances), register-model linearizability, structural
/// invariants (strict object backing on crash-free runs), and — when a
/// crash-free `reference` snapshot is supplied — WAL-replay namespace
/// equivalence.
pub fn run_schedule(
    seed: u64,
    scenario: &Scenario,
    schedule: &Schedule,
    reference: Option<&VolumeSnapshot>,
    opts: &ExploreOpts,
) -> RunOutcome {
    let cfg = explorer_config(seed, opts);
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(DriverWorkload::new(scenario.clone()))]);
    ens.start();

    // Expand events into a sorted (time, action) timeline: each crash gets
    // its recovery, each loss window its reset.
    let mut timeline: Vec<(u64, usize, Act)> = Vec::new();
    for (i, ev) in schedule.events.iter().enumerate() {
        let node = |v: &Vec<NodeId>, site: usize| v[site % v.len()];
        match ev.inject {
            Injection::CrashDir { site, down_ms } => {
                let n = node(&ens.dirs, site);
                timeline.push((ev.at_ms, i, Act::Fail(n)));
                timeline.push((ev.at_ms + down_ms, i, Act::Recover(n)));
            }
            Injection::CrashSf { site, down_ms } => {
                let n = node(&ens.sfs, site);
                timeline.push((ev.at_ms, i, Act::Fail(n)));
                timeline.push((ev.at_ms + down_ms, i, Act::Recover(n)));
            }
            Injection::CrashStorage { site, down_ms } => {
                let n = node(&ens.storage, site);
                let idx = site % ens.storage.len();
                timeline.push((ev.at_ms, i, Act::Fail(n)));
                timeline.push((ev.at_ms + down_ms, i, Act::RecoverStorage(idx)));
            }
            Injection::CrashCoord { site, down_ms } => {
                let n = node(&ens.coords, site);
                timeline.push((ev.at_ms, i, Act::Fail(n)));
                timeline.push((ev.at_ms + down_ms, i, Act::Recover(n)));
            }
            Injection::LossWindow { permille, dur_ms } => {
                timeline.push((ev.at_ms, i, Act::LossOn(permille as f64 / 1000.0)));
                timeline.push((ev.at_ms + dur_ms, i, Act::LossOff));
            }
            Injection::DupWindow { permille, dur_ms } => {
                timeline.push((ev.at_ms, i, Act::DupOn(permille as f64 / 1000.0)));
                timeline.push((ev.at_ms + dur_ms, i, Act::DupOff));
            }
            Injection::ReorderWindow { window_ms, dur_ms } => {
                timeline.push((ev.at_ms, i, Act::ReorderOn(window_ms)));
                timeline.push((ev.at_ms + dur_ms, i, Act::ReorderOff));
            }
            Injection::JoinStorage { site } => {
                timeline.push((ev.at_ms, i, Act::Join(site % ens.storage.len())));
            }
            Injection::DrainStorage { site } => {
                timeline.push((ev.at_ms, i, Act::Drain(site % ens.storage.len())));
            }
            Injection::WidenHot => timeline.push((ev.at_ms, i, Act::WidenHot)),
        }
    }
    timeline.sort_by_key(|(ms, ord, _)| (*ms, *ord));

    let mut drained: Vec<usize> = Vec::new();
    for (ms, _, act) in timeline {
        ens.engine.run_until(SimTime::from_nanos(ms * 1_000_000));
        match act {
            Act::Fail(n) => ens.engine.fail_node(n),
            Act::Recover(n) => ens.engine.recover_node(n),
            Act::RecoverStorage(i) => ens.recover_storage_node(i),
            Act::LossOn(p) => ens.engine.set_loss_prob(p),
            Act::LossOff => ens.engine.set_loss_prob(0.0),
            Act::DupOn(p) => ens.engine.set_dup_prob(p),
            Act::DupOff => ens.engine.set_dup_prob(0.0),
            Act::ReorderOn(ms) => ens.engine.set_reorder_window(SimDuration::from_millis(ms)),
            Act::ReorderOff => ens.engine.set_reorder_window(SimDuration::ZERO),
            Act::Join(i) => {
                ens.join_storage_node(i);
            }
            Act::Drain(i) => {
                ens.drain_storage_node(i);
                if !drained.contains(&i) {
                    drained.push(i);
                }
            }
            Act::WidenHot => {
                if let Some(&(file, _)) = ens.hot_files(1).first() {
                    ens.widen_file(file);
                }
            }
        }
    }
    let finish = ens.run_to_completion(SimTime::from_nanos(RUN_DEADLINE_SECS * 1_000_000_000));
    // The client-side half of every drain: once the migration log
    // drained, retire the site at the µproxies so the drain oracle can
    // check the suspicion purge too.
    for &s in &drained {
        ens.retire_storage_node(s);
    }

    let stalled = !ens.client(0).finished();
    let mut violations = Vec::new();
    if stalled {
        violations.push(Violation::new(
            "stalled",
            format!(
                "workload did not finish by {}s simulated",
                RUN_DEADLINE_SECS
            ),
        ));
    }

    let histories = ens.histories();
    let driver = ens
        .client(0)
        .workload()
        .and_then(|w| w.as_any().downcast_ref::<DriverWorkload>())
        .expect("run_schedule drives a DriverWorkload");
    violations.extend(check_expectations(scenario, driver, histories[0]));
    let (hist_violations, oracle_stats) = check_histories(&histories);
    violations.extend(hist_violations);
    violations.extend(if schedule.events.is_empty() {
        check_structural_strict(&ens)
    } else {
        check_structural(&ens)
    });
    if !drained.is_empty() && !stalled {
        violations.extend(crate::state::check_drained(&ens, &drained));
    }

    let snap = snapshot(&ens);
    if let Some(reference) = reference {
        if !stalled {
            for d in snapshot_diff(reference, &snap) {
                violations.push(Violation::new("replay_equivalence", d));
            }
        }
    }

    RunOutcome {
        finish,
        stalled,
        completed_ops: histories[0]
            .records()
            .iter()
            .filter(|r| r.end.is_some())
            .count(),
        skipped_ops: driver.skipped.len(),
        violations,
        oracle_stats,
        snapshot: snap,
    }
}

/// Checks every completed op's status against the scenario's expectation.
/// All generated ops expect `Ok`; per NFS retransmission semantics a
/// re-executed non-idempotent op may legally answer `Exist`
/// (create/mkdir) or `NoEnt` (remove/rename), but only when the RPC layer
/// actually retransmitted or the op was re-issued after a JukeBox bounce.
fn check_expectations(
    scenario: &Scenario,
    driver: &DriverWorkload,
    hist: &OpHistory,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let records = hist.records();
    if records.len() != driver.issued.len() {
        v.push(Violation::new(
            "recorder",
            format!(
                "driver issued {} calls, history holds {} records",
                driver.issued.len(),
                records.len()
            ),
        ));
        return v;
    }
    // Multiple records per op index are possible (JukeBox re-issue); the
    // last one is the authoritative outcome.
    let mut last: Vec<Option<usize>> = vec![None; scenario.ops.len()];
    let mut reissued = vec![false; scenario.ops.len()];
    for (ri, &oi) in driver.issued.iter().enumerate() {
        if last[oi].is_some() {
            reissued[oi] = true;
        }
        last[oi] = Some(ri);
    }
    for (oi, ri) in last.iter().enumerate() {
        let Some(ri) = ri else { continue };
        let rec = &records[*ri];
        let Some(status) = rec.status else {
            continue; // incomplete: the stalled check reports it
        };
        let retried = rec.retries > 0 || reissued[oi];
        let tolerated = match (&scenario.ops[oi], status) {
            (_, NfsStatus::Ok) => true,
            (GenOp::Create { .. } | GenOp::Mkdir { .. }, NfsStatus::Exist) => retried,
            (GenOp::Remove { .. } | GenOp::Rename { .. }, NfsStatus::NoEnt) => retried,
            _ => false,
        };
        if !tolerated {
            v.push(Violation::new(
                "expected_status",
                format!(
                    "op {oi} {:?} answered {status:?} (retries {})",
                    scenario.ops[oi], rec.retries
                ),
            ));
        }
    }
    v
}

/// Generates `m` deterministic fault schedules for a seed, cycling over
/// the four injection kinds (directory crash, storage crash, coordinator
/// crash, 2% loss window) with times drawn inside `horizon_ms` — pass the
/// reference run's finish time so injections land mid-workload. Every
/// other schedule carries a second injection.
pub fn standard_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0x5c3d);
    let horizon = horizon_ms.max(100);
    let at = |rng: &mut Rng| horizon / 10 + rng.gen_range(0..horizon.max(2) * 8 / 10);
    (0..m)
        .map(|j| {
            let mut events = Vec::new();
            let n = 1 + (j % 2);
            for k in 0..n {
                let at_ms = at(&mut rng);
                let down_ms = rng.gen_range(1500..2500u64);
                let inject = match (j + k) % 4 {
                    0 => Injection::CrashDir {
                        site: rng.gen_range(0..2u64) as usize,
                        down_ms,
                    },
                    1 => Injection::CrashStorage {
                        site: rng.gen_range(0..4u64) as usize,
                        down_ms,
                    },
                    2 => Injection::CrashCoord { site: 0, down_ms },
                    _ => Injection::LossWindow {
                        permille: 20,
                        dur_ms: rng.gen_range(1000..3000u64),
                    },
                };
                events.push(ScheduleEvent { at_ms, inject });
            }
            Schedule { events }
        })
        .collect()
}

/// Generates `m` deterministic chaos schedules: the standard injection
/// kinds plus datagram duplication and reordering windows, with every
/// third schedule stacking a second crash on top of the base fault —
/// the stacked crash cycles through the node classes (storage,
/// directory, coordinator, small-file), so failover, degraded writes,
/// resync, reconfiguration, and intent recovery all run under message
/// chaos and multi-class failures. Times are drawn inside `horizon_ms`,
/// like [`standard_schedules`] (which is left unchanged so existing
/// sweep outputs stay stable).
pub fn chaos_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9fb2_1c65_1e98_df25) ^ 0xc4a05);
    let horizon = horizon_ms.max(100);
    let at = |rng: &mut Rng| horizon / 10 + rng.gen_range(0..horizon.max(2) * 8 / 10);
    (0..m)
        .map(|j| {
            let mut events = Vec::new();
            let down_ms = rng.gen_range(1500..2500u64);
            let dur_ms = rng.gen_range(1000..3000u64);
            let inject = match j % 5 {
                0 => Injection::DupWindow {
                    permille: 50,
                    dur_ms,
                },
                1 => Injection::ReorderWindow {
                    window_ms: rng.gen_range(1..=5u64),
                    dur_ms,
                },
                2 => Injection::CrashStorage {
                    site: rng.gen_range(0..4u64) as usize,
                    down_ms,
                },
                3 => Injection::LossWindow {
                    permille: 20,
                    dur_ms,
                },
                _ => Injection::CrashCoord { site: 0, down_ms },
            };
            events.push(ScheduleEvent {
                at_ms: at(&mut rng),
                inject,
            });
            if j % 3 == 2 {
                let down_ms = rng.gen_range(1500..2500u64);
                let stacked = match (j / 3) % 4 {
                    0 => Injection::CrashStorage {
                        site: rng.gen_range(0..4u64) as usize,
                        down_ms,
                    },
                    1 => Injection::CrashDir {
                        site: rng.gen_range(0..2u64) as usize,
                        down_ms,
                    },
                    2 => Injection::CrashCoord { site: 0, down_ms },
                    _ => Injection::CrashSf {
                        site: rng.gen_range(0..2u64) as usize,
                        down_ms,
                    },
                };
                events.push(ScheduleEvent {
                    at_ms: at(&mut rng),
                    inject: stacked,
                });
            }
            Schedule { events }
        })
        .collect()
}

/// [`chaos_schedules`] widened for coded layouts: every third schedule
/// stacks an additional storage crash, opening double-erasure windows
/// that an (n,k) code with n−k ≥ 2 must ride out (degraded writes park
/// the dead legs in the dirty log; reads decode from the k survivors).
pub fn coded_chaos_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut pool = chaos_schedules(seed, m, horizon_ms);
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5ec);
    let horizon = horizon_ms.max(100);
    for (j, sched) in pool.iter_mut().enumerate() {
        if j % 3 == 0 {
            let down_ms = rng.gen_range(1500..2500u64);
            let site = rng.gen_range(0..4u64) as usize;
            sched.events.push(ScheduleEvent {
                at_ms: horizon / 10 + rng.gen_range(0..horizon.max(2) * 8 / 10),
                inject: Injection::CrashStorage { site, down_ms },
            });
        }
    }
    pool
}

/// Generates `m` deterministic reconfiguration schedules: joins of the
/// standby fifth site, planned drains, hot-set widening, and — the
/// rebalance-mid-crash case — a node or coordinator crash landing while
/// migrations are in flight. Only meaningful against the reconf ensemble
/// ([`ExploreOpts::reconf`]); every schedule with a
/// drain is vetted by the drain oracle at quiescence.
pub fn reconf_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x8f9a_6c44_0b1e_77d3) ^ 0x1d7a2);
    let horizon = horizon_ms.max(100);
    let at = |rng: &mut Rng| horizon / 10 + rng.gen_range(0..horizon.max(2) * 8 / 10);
    (0..m)
        .map(|j| {
            let mut events = Vec::new();
            match j % 4 {
                0 => {
                    // Full capacity cycle: join the spare, then drain an
                    // original site onto the widened rotation.
                    let t = at(&mut rng);
                    events.push(ScheduleEvent {
                        at_ms: t,
                        inject: Injection::JoinStorage { site: 4 },
                    });
                    events.push(ScheduleEvent {
                        at_ms: t + rng.gen_range(200..800u64),
                        inject: Injection::DrainStorage {
                            site: rng.gen_range(0..4u64) as usize,
                        },
                    });
                }
                1 => {
                    // Rebalance mid-crash: a neighbor of the draining
                    // site crashes while its migrations are in flight.
                    let t = at(&mut rng);
                    let drain_site = rng.gen_range(0..4u64) as usize;
                    events.push(ScheduleEvent {
                        at_ms: t,
                        inject: Injection::JoinStorage { site: 4 },
                    });
                    events.push(ScheduleEvent {
                        at_ms: t + 100,
                        inject: Injection::DrainStorage { site: drain_site },
                    });
                    events.push(ScheduleEvent {
                        at_ms: t + rng.gen_range(150..600u64),
                        inject: Injection::CrashStorage {
                            site: (drain_site + 1) % 4,
                            down_ms: rng.gen_range(1500..2500u64),
                        },
                    });
                }
                2 => {
                    // Demand-driven replication under packet loss.
                    events.push(ScheduleEvent {
                        at_ms: at(&mut rng),
                        inject: Injection::WidenHot,
                    });
                    events.push(ScheduleEvent {
                        at_ms: at(&mut rng),
                        inject: Injection::LossWindow {
                            permille: 20,
                            dur_ms: rng.gen_range(1000..3000u64),
                        },
                    });
                }
                _ => {
                    // Rebalance across a coordinator crash: migration
                    // intents and site changes replay from the WAL.
                    let t = at(&mut rng);
                    events.push(ScheduleEvent {
                        at_ms: t,
                        inject: Injection::JoinStorage { site: 4 },
                    });
                    events.push(ScheduleEvent {
                        at_ms: t + rng.gen_range(50..400u64),
                        inject: Injection::CrashCoord {
                            site: 0,
                            down_ms: rng.gen_range(1500..2500u64),
                        },
                    });
                }
            }
            Schedule { events }
        })
        .collect()
}

/// One failing run inside a [`SweepReport`].
#[derive(Debug)]
pub struct SweepFailure {
    /// Seed whose scenario failed.
    pub seed: u64,
    /// Schedule index, or `None` for the crash-free reference run.
    pub schedule: Option<usize>,
    /// Human-readable schedule.
    pub schedule_desc: String,
    /// What the oracles found.
    pub violations: Vec<Violation>,
}

/// Result of an N-seed × M-schedule sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Total runs executed (references + schedules).
    pub runs: usize,
    /// Total history records checked across all runs.
    pub ops_checked: usize,
    /// Every failing run.
    pub failures: Vec<SweepFailure>,
    /// Deterministic slice-obs JSON: same seeds → byte-identical output,
    /// for any thread count. This is the document CI `cmp`s.
    pub json: String,
    /// The same document plus informational host-timing gauges
    /// (`checker.wall_s`, `checker.threads`, `checker.runs_per_host_s`).
    /// Not deterministic across hosts or runs — never `cmp` this one.
    pub timed_json: String,
}

impl SweepReport {
    /// True when every run passed every oracle.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one seed's portion of the sweep produced, harvested on a
/// worker thread and merged on the caller's thread in seed order.
struct SeedOutcome {
    runs: usize,
    ops_checked: usize,
    violations: u64,
    stalled: u64,
    failures: Vec<SweepFailure>,
}

/// Sweeps `seeds` × `schedules_per_seed`: for each seed, generate a
/// scenario, run it crash-free to establish the reference namespace, then
/// replay it under each fault schedule of the pool `opts` selects and
/// compare. Seeds fan out over the slice-par runtime and the per-seed
/// outcomes are folded into the report strictly in seed order: the
/// report's JSON is a deterministic function of the seeds and the
/// ensemble, byte-identical for any `opts.threads`, because the folded counters are sums of per-seed values that do not
/// depend on scheduling.
pub fn sweep(seeds: &[u64], schedules_per_seed: usize, opts: &ExploreOpts) -> SweepReport {
    let start = std::time::Instant::now();
    let outcomes = slice_sim::par::run_indexed(opts.threads, seeds.to_vec(), |_, seed| {
        let scenario = generate_scenario(seed, 96);
        let reference = run_schedule(seed, &scenario, &Schedule::default(), None, opts);
        let mut o = SeedOutcome {
            runs: 1,
            ops_checked: reference.completed_ops,
            violations: reference.violations.len() as u64,
            stalled: 0,
            failures: Vec::new(),
        };
        if !reference.violations.is_empty() {
            o.failures.push(SweepFailure {
                seed,
                schedule: None,
                schedule_desc: "crash-free".to_string(),
                violations: reference.violations.clone(),
            });
        }

        let horizon_ms = reference.finish.as_nanos() / 1_000_000;
        let schedules = if opts.reconf {
            reconf_schedules(seed, schedules_per_seed, horizon_ms)
        } else if opts.chaos && opts.coded {
            coded_chaos_schedules(seed, schedules_per_seed, horizon_ms)
        } else if opts.chaos {
            chaos_schedules(seed, schedules_per_seed, horizon_ms)
        } else {
            standard_schedules(seed, schedules_per_seed, horizon_ms)
        };
        for (j, sched) in schedules.iter().enumerate() {
            let out = run_schedule(seed, &scenario, sched, Some(&reference.snapshot), opts);
            o.runs += 1;
            o.ops_checked += out.completed_ops;
            o.violations += out.violations.len() as u64;
            if out.stalled {
                o.stalled += 1;
            }
            if !out.violations.is_empty() {
                o.failures.push(SweepFailure {
                    seed,
                    schedule: Some(j),
                    schedule_desc: sched.describe(),
                    violations: out.violations,
                });
            }
        }
        o
    });

    // Merge in seed order. Counter folds are sums, so the final registry
    // matches what the serial loop would have produced, entry for entry.
    let mut obs = Obs::new();
    let mut failures = Vec::new();
    let mut runs = 0usize;
    let mut ops_checked = 0usize;
    for (&seed, o) in seeds.iter().zip(outcomes) {
        let tag = format!("checker.seed.{seed}");
        obs.registry.add(&format!("{tag}.runs"), o.runs as u64);
        obs.registry
            .add(&format!("{tag}.ops"), o.ops_checked as u64);
        obs.registry.add(&format!("{tag}.violations"), o.violations);
        if o.stalled > 0 {
            obs.registry.add(&format!("{tag}.stalled"), o.stalled);
        }
        runs += o.runs;
        ops_checked += o.ops_checked;
        failures.extend(o.failures);
    }

    obs.registry.add("checker.runs", runs as u64);
    obs.registry.add("checker.ops", ops_checked as u64);
    obs.registry
        .add("checker.failing_runs", failures.len() as u64);
    let json = obs.export_json(0);

    // Informational host-timing gauges ride in a second export so the
    // deterministic document above stays byte-comparable.
    let wall_s = start.elapsed().as_secs_f64();
    obs.registry.set_gauge("checker.wall_s", wall_s);
    obs.registry
        .set_gauge("checker.threads", opts.threads as f64);
    if wall_s > 0.0 {
        obs.registry
            .set_gauge("checker.runs_per_host_s", runs as f64 / wall_s);
    }
    let timed_json = obs.export_json(0);

    SweepReport {
        runs,
        ops_checked,
        failures,
        json,
        timed_json,
    }
}

/// Shrinks a failing schedule: first by halving (delta debugging's outer
/// loop), then by dropping single events, re-running the oracles after
/// each candidate. Returns the smallest schedule that still fails (or the
/// input unchanged if it does not fail at all). Bounded at ~32 runs.
///
/// Each shrinking step's candidate schedules are independent runs, so
/// they probe concurrently over `run_indexed` on `threads` workers
/// ([`slice_sim::default_threads`] is the host's parallelism); the serial
/// scan order decides which failing candidate is adopted and how much of
/// the budget each step charges, so the result is identical to the
/// sequential algorithm at any `threads` — probes the serial loop would
/// never have reached are computed speculatively but never consulted.
pub fn minimize(
    seed: u64,
    scenario: &Scenario,
    schedule: &Schedule,
    reference: &VolumeSnapshot,
    threads: usize,
) -> Schedule {
    let fails = |s: &Schedule| {
        !run_schedule(seed, scenario, s, Some(reference), &ExploreOpts::default())
            .violations
            .is_empty()
    };
    if schedule.events.len() <= 1 || !fails(schedule) {
        return schedule.clone();
    }
    let mut cur = schedule.clone();
    let mut budget = 32usize;
    // Halving: probe both halves at once, but consult the second verdict
    // only when the serial loop would have had budget left to probe it.
    while cur.events.len() > 1 && budget > 0 {
        let mid = cur.events.len() / 2;
        let probe_second = budget >= 2;
        let mut candidates = vec![Schedule {
            events: cur.events[..mid].to_vec(),
        }];
        if probe_second {
            candidates.push(Schedule {
                events: cur.events[mid..].to_vec(),
            });
        }
        let verdicts = slice_sim::run_indexed(threads, candidates.clone(), |_, s| fails(&s));
        let mut candidates = candidates.into_iter();
        budget -= 1;
        if verdicts[0] {
            cur = candidates.next().expect("first half");
            continue;
        }
        if !probe_second {
            break;
        }
        budget -= 1;
        if verdicts[1] {
            cur = candidates.nth(1).expect("second half");
            continue;
        }
        break;
    }
    // Single-event drops: the serial scan probes positions i, i+1, ... in
    // order against an unchanged schedule until one fails, so a batch over
    // the remaining positions (capped at the budget) reproduces it exactly
    // — adopt the first failing position, charge for the probes up to it,
    // and rescan from there.
    let mut i = 0;
    while i < cur.events.len() && cur.events.len() > 1 && budget > 0 {
        let positions: Vec<usize> = (i..cur.events.len()).take(budget).collect();
        let verdicts = slice_sim::run_indexed(threads, positions.clone(), |_, j| {
            let mut t = cur.clone();
            t.events.remove(j);
            fails(&t)
        });
        match verdicts.iter().position(|&f| f) {
            Some(k) => {
                budget -= k + 1;
                i = positions[k];
                cur.events.remove(i);
            }
            None => break,
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_is_deterministic() {
        let a = generate_scenario(7, 64);
        let b = generate_scenario(7, 64);
        assert_eq!(a, b);
        assert!(a.ops.len() >= 64);
        assert!(a.epilogue_start <= a.ops.len());
        let c = generate_scenario(8, 64);
        assert_ne!(a, c);
    }

    #[test]
    fn standard_schedules_are_deterministic_and_sized() {
        let a = standard_schedules(3, 8, 4000);
        let b = standard_schedules(3, 8, 4000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|s| !s.events.is_empty()));
    }

    #[test]
    fn schedule_run_is_repeatable() {
        let scenario = generate_scenario(13, 40);
        let schedule = Schedule {
            events: vec![
                ScheduleEvent {
                    at_ms: 40,
                    inject: Injection::CrashStorage {
                        site: 1,
                        down_ms: 1500,
                    },
                },
                ScheduleEvent {
                    at_ms: 60,
                    inject: Injection::LossWindow {
                        permille: 20,
                        dur_ms: 500,
                    },
                },
            ],
        };
        let run = || run_schedule(13, &scenario, &schedule, None, &ExploreOpts::default());
        let (first, again) = (run(), run());
        assert_eq!(first.finish, again.finish);
        assert_eq!(first.stalled, again.stalled);
        assert_eq!(first.completed_ops, again.completed_ops);
        assert_eq!(first.violations, again.violations);
        assert!(
            crate::state::snapshot_diff(&first.snapshot, &again.snapshot).is_empty(),
            "final namespace diverged between two runs of one schedule"
        );
    }

    #[test]
    fn clean_run_passes_all_oracles() {
        let scenario = generate_scenario(11, 40);
        let out = run_schedule(
            11,
            &scenario,
            &Schedule::default(),
            None,
            &ExploreOpts::default(),
        );
        assert!(!out.stalled);
        assert!(
            out.violations.is_empty(),
            "clean run violated: {:?}",
            out.violations
        );
        assert!(out.completed_ops >= 40);
    }

    #[test]
    fn reconf_schedules_are_deterministic_and_cover_drains() {
        let a = reconf_schedules(5, 8, 4000);
        let b = reconf_schedules(5, 8, 4000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().any(|s| s
            .events
            .iter()
            .any(|e| matches!(e.inject, Injection::DrainStorage { .. }))));
        assert!(a.iter().any(|s| s
            .events
            .iter()
            .any(|e| matches!(e.inject, Injection::WidenHot))));
    }

    /// The acceptance criterion for planned removal: run a join + drain
    /// schedule over a real workload and let the drain oracle prove no
    /// chunk is stranded on and no map entry still names the drained
    /// site, with every oracle from the crash pool still in force.
    #[test]
    fn join_then_drain_passes_drain_oracle() {
        let scenario = generate_scenario(17, 40);
        let reconf = ExploreOpts {
            reconf: true,
            ..ExploreOpts::default()
        };
        let reference = run_schedule(17, &scenario, &Schedule::default(), None, &reconf);
        assert!(
            reference.violations.is_empty(),
            "reconf reference run violated: {:?}",
            reference.violations
        );
        let schedule = Schedule {
            events: vec![
                ScheduleEvent {
                    at_ms: 50,
                    inject: Injection::JoinStorage { site: 4 },
                },
                ScheduleEvent {
                    at_ms: 300,
                    inject: Injection::DrainStorage { site: 1 },
                },
            ],
        };
        let out = run_schedule(17, &scenario, &schedule, Some(&reference.snapshot), &reconf);
        assert!(!out.stalled, "join+drain schedule stalled");
        assert!(
            out.violations.is_empty(),
            "join+drain violated: {:?}",
            out.violations
        );
    }

    #[test]
    fn reconf_run_is_repeatable() {
        let scenario = generate_scenario(19, 40);
        let schedule = Schedule {
            events: vec![
                ScheduleEvent {
                    at_ms: 60,
                    inject: Injection::JoinStorage { site: 4 },
                },
                ScheduleEvent {
                    at_ms: 200,
                    inject: Injection::WidenHot,
                },
                ScheduleEvent {
                    at_ms: 400,
                    inject: Injection::DrainStorage { site: 2 },
                },
            ],
        };
        let opts = ExploreOpts {
            reconf: true,
            ..ExploreOpts::default()
        };
        let run = || run_schedule(19, &scenario, &schedule, None, &opts);
        let (first, again) = (run(), run());
        assert_eq!(first.finish, again.finish);
        assert_eq!(first.completed_ops, again.completed_ops);
        assert_eq!(first.violations, again.violations);
        assert!(
            crate::state::snapshot_diff(&first.snapshot, &again.snapshot).is_empty(),
            "final namespace diverged between two runs of one schedule"
        );
    }
}
