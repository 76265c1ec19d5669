//! Deterministic workload generation, crash-schedule exploration, and
//! failing-schedule minimization.
//!
//! A scenario is a seed-derived [`Step`] script ([`generate_scenario`])
//! that the one [`ScriptWorkload`] runs; a [`Schedule`] is a list of
//! fault injections (node crashes with recovery, packet-loss windows)
//! pinned to simulated times. [`run_schedule`] executes one (scenario,
//! schedule) pair in a fresh ensemble and runs every oracle over the
//! outcome; [`sweep`] fans that out over N seeds × M schedules and
//! exports a deterministic slice-obs JSON report; [`minimize`] shrinks a
//! failing schedule by bisection.
//!
//! Everything is a pure function of its seed: the same inputs replay the
//! same packets, crashes, and oracle verdicts, byte for byte.

use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_core::script::{ScriptWorkload, Slot, Step};
use slice_core::{OpHistory, CHUNK_BYTES};
use slice_nfsproto::{NfsStatus, Sattr3, StableHow};
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
/// The slot every generated create and mkdir saves its handle in, and
/// that no step reads: a name's own slot binds only from the lookup that
/// follows it, because a create acknowledged only on a retransmission
/// answers `Exist` without a handle and the bind must still succeed.
const RECEIPT: Slot = 1;

struct FileModel {
    slot: Slot,
    parent: Slot,
    name: String,
    big: bool,
    size: u64,
}

/// Generates a deterministic scenario of roughly `n_ops` steps: a mixed
/// namespace/data workload over ≤ 8 directories and ≤ 24 files (one in
/// five striped "big" files crossing the small-file threshold), all
/// writes FileSync with 1 KiB-aligned uniform-byte payloads so the
/// per-chunk register model sees every transfer, followed by an epilogue
/// that re-looks-up, stats, and fully reads every surviving file. Every
/// create and mkdir is followed by the lookup that binds its slot.
pub fn generate_scenario(seed: u64, n_ops: usize) -> Vec<Step> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut ops = Vec::new();
    let mut next_slot = RECEIPT + 1;
    let mut next_name = 0u64;
    let mut dirs: Vec<Slot> = vec![0];
    let mut files: Vec<FileModel> = Vec::new();
    let bind = |slot, parent, name: &str| Step::Lookup {
        parent,
        name: name.to_string(),
        save: slot,
        expect_ok: true,
    };

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
                ops.push(Step::Create {
                    parent,
                    name: name.clone(),
                    save: RECEIPT,
                    mode_extra: 0,
                });
                ops.push(bind(slot, parent, &name));
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
                ops.push(Step::Mkdir {
                    parent,
                    name: name.clone(),
                    save: RECEIPT,
                });
                ops.push(bind(slot, parent, &name));
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
                        let pattern = rng.gen_range(1..=255u64) as u8;
                        ops.push(Step::Write {
                            fh: f.slot,
                            offset,
                            len: len as u32,
                            pattern,
                            stable: StableHow::FileSync,
                        });
                        f.size = f.size.max(offset + len);
                    }
                    56..=73 => {
                        let f = &files[fi];
                        let span = if f.big { 16 * 1024 } else { CHUNK_BYTES };
                        let offset = span * rng.gen_range(0..8u64);
                        let len = span * rng.gen_range(1..=4u64);
                        ops.push(Step::Read {
                            fh: f.slot,
                            offset,
                            len: len as u32,
                            verify: None,
                        });
                    }
                    74..=79 => {
                        let f = &mut files[fi];
                        let size = CHUNK_BYTES * rng.gen_range(0..=(f.size / CHUNK_BYTES) + 2);
                        ops.push(Step::Setattr {
                            fh: f.slot,
                            attr: Sattr3 {
                                size: Some(size),
                                ..Default::default()
                            },
                        });
                        f.size = size;
                    }
                    80..=84 if files.len() > 1 => {
                        let f = files.remove(fi);
                        ops.push(Step::Remove {
                            parent: f.parent,
                            name: f.name,
                        });
                    }
                    85..=89 => {
                        let to = dirs[rng.gen_range(0..dirs.len() as u64) as usize];
                        let to_name = format!("f{next_name}");
                        next_name += 1;
                        let f = &mut files[fi];
                        ops.push(Step::Rename {
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
                        ops.push(Step::Readdir {
                            fh: d,
                            expect: None,
                        });
                    }
                    94..=97 => ops.push(Step::Getattr {
                        fh: files[fi].slot,
                        expect_size: None,
                    }),
                    _ => ops.push(Step::Commit { fh: files[fi].slot }),
                }
            }
        }
    }

    // Epilogue: verify every surviving file end-to-end.
    for f in &files {
        ops.push(bind(f.slot, f.parent, &f.name));
        ops.push(Step::Getattr {
            fh: f.slot,
            expect_size: None,
        });
        if f.size > 0 {
            ops.push(Step::Read {
                fh: f.slot,
                offset: 0,
                len: f.size.min(MAX_IO_BYTES) as u32,
                verify: None,
            });
        }
    }
    for &d in &dirs[1..] {
        ops.push(Step::Readdir {
            fh: d,
            expect: None,
        });
    }
    ops
}

/// A server class the explorer can crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A directory server.
    Dir,
    /// A small-file server.
    SmallFile,
    /// A storage node; its recovery kicks the coordinator's resync.
    Storage,
    /// The coordinator.
    Coord,
}

impl Role {
    fn nodes(self, ens: &SliceEnsemble) -> &[NodeId] {
        match self {
            Role::Dir => &ens.dirs,
            Role::SmallFile => &ens.sfs,
            Role::Storage => &ens.storage,
            Role::Coord => &ens.coords,
        }
    }

    /// A crash of one of this class's sites, drawn from `rng` (two
    /// directory and two small-file sites, four storage sites, the one
    /// coordinator without a draw).
    fn crash(self, rng: &mut Rng, down_ms: u64) -> Injection {
        let site = match self {
            Role::Dir | Role::SmallFile => rng.gen_range(0..2u64) as usize,
            Role::Storage => rng.gen_range(0..4u64) as usize,
            Role::Coord => 0,
        };
        Injection::Crash {
            role: self,
            site,
            down_ms,
        }
    }
}

/// A network fault held for a while; the same fault at level zero ends
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Drop `level`/1000 of packets.
    Loss,
    /// Duplicate `level`/1000 of datagrams. Only datagram traffic (client
    /// UDP) is eligible; typed control channels model reliable transports
    /// and are exempt.
    Dup,
    /// Reorder datagram arrivals within a `level` ms jitter window.
    Reorder,
}

impl NetFault {
    fn window(self, level: u64, dur_ms: u64) -> Injection {
        Injection::Net {
            fault: self,
            level,
            dur_ms,
        }
    }

    fn set(self, ens: &mut SliceEnsemble, level: u64) {
        match self {
            NetFault::Loss => ens.engine.set_loss_prob(level as f64 / 1000.0),
            NetFault::Dup => ens.engine.set_dup_prob(level as f64 / 1000.0),
            NetFault::Reorder => ens
                .engine
                .set_reorder_window(SimDuration::from_millis(level)),
        }
    }
}

/// One fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injection {
    /// Crash site `site` of `role` (modulo the ensemble's count); it
    /// recovers after `down_ms`.
    Crash {
        role: Role,
        site: usize,
        down_ms: u64,
    },
    /// Hold `fault` at `level` for `dur_ms`.
    Net {
        fault: NetFault,
        level: u64,
        dur_ms: u64,
    },
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

impl Injection {
    /// How long the fault lasts; `None` for a one-shot reconfiguration.
    fn duration(&self) -> Option<u64> {
        match *self {
            Injection::Crash { down_ms, .. } => Some(down_ms),
            Injection::Net { dur_ms, .. } => Some(dur_ms),
            _ => None,
        }
    }
}

/// An [`Injection`] pinned to a simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// Injection time in simulated milliseconds.
    pub at_ms: u64,
    /// What to inject.
    pub inject: Injection,
}

fn event(at_ms: u64, inject: Injection) -> ScheduleEvent {
    ScheduleEvent { at_ms, inject }
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
    /// Scenario steps skipped because a handle slot never bound.
    pub skipped_ops: usize,
    /// Everything every oracle found (empty = run passed).
    pub violations: Vec<Violation>,
    /// Linearizability-search accounting.
    pub oracle_stats: OracleStats,
    /// Final namespace, for reference comparison.
    pub snapshot: VolumeSnapshot,
}

/// How the explorer runs: which ensemble each run is built on and which
/// schedule pool a sweep draws from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// Single-copy striped placement (block maps with the coordinator's
    /// default `Striped`: every map entry is one site wide, so no run
    /// writes, degrades or resyncs a mirror); [`standard_schedules`].
    #[default]
    Standard,
    /// Every mapped file erasure-coded as (4,2) instead of striped, so
    /// the standard schedules exercise striped writes, degraded reads and
    /// shard rebuilds — vetted by the coded-reconstruction oracle.
    Coded,
    /// Single-copy striped placement, as [`Mode::Standard`];
    /// [`chaos_schedules`].
    Chaos,
    /// (4,2) coding; [`coded_chaos_schedules`].
    ChaosCoded,
    /// A fifth storage site in standby and two-way mirrored mapped
    /// placement, so joins, drains and widening have somewhere to go and
    /// replica sets to work on; [`reconf_schedules`]. The drain oracle
    /// ([`crate::state::check_drained`]) runs over every drained site.
    Reconf,
}

impl Mode {
    /// The ensemble every run of this mode is built on: one recorded
    /// client, two directory sites (so reconfig/multisite paths are
    /// live), four storage nodes with block maps on, and data retention
    /// for the structural oracles.
    pub fn config(self, seed: u64) -> SliceConfig {
        let reconf = self == Mode::Reconf;
        SliceConfig {
            clients: 1,
            dir_servers: 2,
            record_history: true,
            retain_data: true,
            use_block_maps: true,
            coded: matches!(self, Mode::Coded | Mode::ChaosCoded).then_some((4, 2)),
            storage_nodes: if reconf { 5 } else { 4 },
            active_storage: reconf.then_some(4),
            mapped_mirror: reconf,
            seed,
            ..SliceConfig::default()
        }
    }

    /// `m` schedules of this mode's pool for `seed`, timed inside
    /// `horizon_ms`.
    pub fn schedules(self, seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
        let pool = match self {
            Mode::Standard | Mode::Coded => standard_schedules,
            Mode::Chaos => chaos_schedules,
            Mode::ChaosCoded => coded_chaos_schedules,
            Mode::Reconf => reconf_schedules,
        };
        pool(seed, m, horizon_ms)
    }

    /// How `checker` names this mode: its schedule pool, what its
    /// ensemble adds to the plain one, and its `BENCH_` file.
    pub fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Mode::Standard => ("standard", "", "checker"),
            Mode::Coded => ("standard", ", coded (4,2)", "checker_coded"),
            Mode::Chaos => ("chaos", "", "checker_chaos"),
            Mode::ChaosCoded => ("chaos", ", coded (4,2)", "checker_chaos_coded"),
            Mode::Reconf => ("reconf", ", standby site 4", "checker_reconf"),
        }
    }
}

/// Runs `scenario` under `schedule` in a fresh ensemble of `mode` and
/// applies every oracle: expected per-op status (with NFS retransmission
/// tolerances), register-model linearizability, structural invariants
/// (strict object backing on crash-free runs), and — when a crash-free
/// `reference` snapshot is supplied — WAL-replay namespace equivalence.
pub fn run_schedule(
    seed: u64,
    scenario: &[Step],
    schedule: &Schedule,
    reference: Option<&VolumeSnapshot>,
    mode: Mode,
) -> RunOutcome {
    let script = ScriptWorkload::new(scenario.to_vec(), RECEIPT + 1);
    let mut ens = SliceEnsemble::build(&mode.config(seed), vec![Box::new(script)]);
    ens.start();

    // Expand events into a sorted `(ms, event, is_end)` timeline: each
    // crash gets its recovery, each network fault its end.
    let mut timeline: Vec<(u64, usize, bool)> = Vec::new();
    for (i, ev) in schedule.events.iter().enumerate() {
        timeline.push((ev.at_ms, i, false));
        if let Some(d) = ev.inject.duration() {
            timeline.push((ev.at_ms + d, i, true));
        }
    }
    timeline.sort_by_key(|&(ms, i, _)| (ms, i));

    let mut drained: Vec<usize> = Vec::new();
    for (ms, i, end) in timeline {
        ens.engine.run_until(SimTime::from_nanos(ms * 1_000_000));
        match schedule.events[i].inject {
            Injection::Crash { role, site, .. } => {
                let nodes = role.nodes(&ens);
                let idx = site % nodes.len();
                let node = nodes[idx];
                match (end, role) {
                    (false, _) => ens.engine.fail_node(node),
                    // Through the ensemble, so the coordinator gets a
                    // resync kick.
                    (true, Role::Storage) => ens.recover_storage_node(idx),
                    (true, _) => ens.engine.recover_node(node),
                }
            }
            Injection::Net { fault, level, .. } => fault.set(&mut ens, if end { 0 } else { level }),
            Injection::JoinStorage { site } => {
                ens.join_storage_node(site % ens.storage.len());
            }
            Injection::DrainStorage { site } => {
                let i = site % ens.storage.len();
                ens.drain_storage_node(i);
                if !drained.contains(&i) {
                    drained.push(i);
                }
            }
            Injection::WidenHot => {
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
    let script = ens.client(0).workload_as::<ScriptWorkload>();
    violations.extend(check_expectations(scenario, script, histories[0]));
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
        skipped_ops: script.skipped.len(),
        violations,
        oracle_stats,
        snapshot: snap,
    }
}

/// Checks every completed call's status against the scenario's
/// expectation. Every generated step expects `Ok`; per NFS retransmission
/// semantics a re-executed non-idempotent op may legally answer `Exist`
/// (create/mkdir) or `NoEnt` (remove/rename), but only when the RPC layer
/// actually retransmitted it. The script's own `errors` are not the
/// verdict: they also hold these tolerated answers and short reads past
/// a file's end.
fn check_expectations(
    scenario: &[Step],
    script: &ScriptWorkload,
    hist: &OpHistory,
) -> Vec<Violation> {
    let records = hist.records();
    if records.len() != script.issued.len() {
        let detail = format!(
            "script issued {} calls, history holds {} records",
            script.issued.len(),
            records.len()
        );
        return vec![Violation::new("recorder", detail)];
    }
    let mut v = Vec::new();
    for (rec, &oi) in records.iter().zip(&script.issued) {
        let Some(status) = rec.status else {
            continue; // incomplete: the stalled check reports it
        };
        let retried = rec.retries > 0;
        let tolerated = match (&scenario[oi], status) {
            (_, NfsStatus::Ok) => true,
            (Step::Create { .. } | Step::Mkdir { .. }, NfsStatus::Exist) => retried,
            (Step::Remove { .. } | Step::Rename { .. }, NfsStatus::NoEnt) => retried,
            _ => false,
        };
        if !tolerated {
            v.push(Violation::new(
                "expected_status",
                format!(
                    "op {oi} {:?} answered {status:?} (retries {})",
                    scenario[oi], rec.retries
                ),
            ));
        }
    }
    v
}

/// A time between a tenth and nine tenths of `horizon_ms` (taken as at
/// least 100 ms).
fn draw_at(rng: &mut Rng, horizon_ms: u64) -> u64 {
    let horizon = horizon_ms.max(100);
    horizon / 10 + rng.gen_range(0..horizon * 8 / 10)
}

/// A crash's downtime.
fn draw_down(rng: &mut Rng) -> u64 {
    rng.gen_range(1500..2500u64)
}

/// A network fault's duration.
fn draw_dur(rng: &mut Rng) -> u64 {
    rng.gen_range(1000..3000u64)
}

/// Generates `m` deterministic fault schedules for a seed, cycling over
/// the four injection kinds (directory crash, storage crash, coordinator
/// crash, 2% loss window) with times drawn inside `horizon_ms` (a sweep
/// passes the reference run's finish time, which includes the quiet tail
/// after its last op). Every other schedule carries a second injection.
pub fn standard_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0xa076_1d64_78bd_642f) ^ 0x5c3d);
    (0..m)
        .map(|j| {
            let events = (0..1 + j % 2)
                .map(|k| {
                    let at_ms = draw_at(&mut rng, horizon_ms);
                    let down_ms = draw_down(&mut rng);
                    let inject = match (j + k) % 4 {
                        3 => NetFault::Loss.window(20, draw_dur(&mut rng)),
                        r => [Role::Dir, Role::Storage, Role::Coord][r].crash(&mut rng, down_ms),
                    };
                    event(at_ms, inject)
                })
                .collect();
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
    (0..m)
        .map(|j| {
            let down_ms = draw_down(&mut rng);
            let dur_ms = draw_dur(&mut rng);
            let inject = match j % 5 {
                0 => NetFault::Dup.window(50, dur_ms),
                1 => NetFault::Reorder.window(rng.gen_range(1..=5u64), dur_ms),
                2 => Role::Storage.crash(&mut rng, down_ms),
                3 => NetFault::Loss.window(20, dur_ms),
                _ => Role::Coord.crash(&mut rng, down_ms),
            };
            let mut events = vec![event(draw_at(&mut rng, horizon_ms), inject)];
            if j % 3 == 2 {
                let down_ms = draw_down(&mut rng);
                let role = [Role::Storage, Role::Dir, Role::Coord, Role::SmallFile][(j / 3) % 4];
                let stacked = role.crash(&mut rng, down_ms);
                events.push(event(draw_at(&mut rng, horizon_ms), stacked));
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
    for sched in pool.iter_mut().step_by(3) {
        let down_ms = draw_down(&mut rng);
        let inject = Role::Storage.crash(&mut rng, down_ms);
        sched
            .events
            .push(event(draw_at(&mut rng, horizon_ms), inject));
    }
    pool
}

/// Generates `m` deterministic reconfiguration schedules: joins of the
/// standby fifth site, planned drains, hot-set widening, and — the
/// rebalance-mid-crash case — a node or coordinator crash landing while
/// migrations are in flight. Only meaningful against the reconf ensemble
/// ([`Mode::Reconf`]); every schedule with a drain is vetted by the drain
/// oracle at quiescence.
pub fn reconf_schedules(seed: u64, m: usize, horizon_ms: u64) -> Vec<Schedule> {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x8f9a_6c44_0b1e_77d3) ^ 0x1d7a2);
    let join = |at_ms| event(at_ms, Injection::JoinStorage { site: 4 });
    (0..m)
        .map(|j| {
            let t = draw_at(&mut rng, horizon_ms);
            let events = match j % 4 {
                // Full capacity cycle: join the spare, then drain an
                // original site onto the widened rotation.
                0 => {
                    let at_ms = t + rng.gen_range(200..800u64);
                    let site = rng.gen_range(0..4u64) as usize;
                    vec![join(t), event(at_ms, Injection::DrainStorage { site })]
                }
                // Rebalance mid-crash: a neighbor of the draining site
                // crashes while its migrations are in flight.
                1 => {
                    let site = rng.gen_range(0..4u64) as usize;
                    let at_ms = t + rng.gen_range(150..600u64);
                    let crash = Injection::Crash {
                        role: Role::Storage,
                        site: (site + 1) % 4,
                        down_ms: draw_down(&mut rng),
                    };
                    let drain = Injection::DrainStorage { site };
                    vec![join(t), event(t + 100, drain), event(at_ms, crash)]
                }
                // Demand-driven replication under packet loss.
                2 => {
                    let at_ms = draw_at(&mut rng, horizon_ms);
                    let loss = NetFault::Loss.window(20, draw_dur(&mut rng));
                    vec![event(t, Injection::WidenHot), event(at_ms, loss)]
                }
                // Rebalance across a coordinator crash: migration
                // intents and site changes replay from the WAL.
                _ => {
                    let at_ms = t + rng.gen_range(50..400u64);
                    let down_ms = draw_down(&mut rng);
                    vec![join(t), event(at_ms, Role::Coord.crash(&mut rng, down_ms))]
                }
            };
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
    /// The smallest part of the schedule that still fails in the sweep's
    /// mode ([`minimize`]); empty for the reference run.
    pub minimal: Schedule,
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
#[derive(Default)]
struct SeedOutcome {
    runs: usize,
    ops_checked: usize,
    violations: u64,
    stalled: u64,
    registers_skipped: u64,
    failures: Vec<SweepFailure>,
}

impl SeedOutcome {
    fn record(
        &mut self,
        seed: u64,
        index: Option<usize>,
        schedule: &Schedule,
        out: &RunOutcome,
        minimal: impl FnOnce() -> Schedule,
    ) {
        self.runs += 1;
        self.ops_checked += out.completed_ops;
        self.violations += out.violations.len() as u64;
        self.stalled += u64::from(out.stalled);
        self.registers_skipped += out.oracle_stats.registers_skipped;
        if !out.violations.is_empty() {
            self.failures.push(SweepFailure {
                seed,
                schedule: index,
                schedule_desc: schedule.describe(),
                minimal: minimal(),
                violations: out.violations.clone(),
            });
        }
    }
}

/// Sweeps `seeds` × `schedules_per_seed`: for each seed, generate a
/// scenario, run it crash-free to establish the reference namespace, then
/// replay it under each schedule of `mode`'s pool and compare, minimising
/// every schedule that fails. Seeds fan
/// out over the slice-par runtime on `threads` workers and the per-seed
/// outcomes are folded into the report strictly in seed order: the
/// report's JSON is a deterministic function of the seeds and the mode,
/// byte-identical for any `threads`, because the folded counters are sums
/// of per-seed values that do not depend on scheduling.
pub fn sweep(seeds: &[u64], schedules_per_seed: usize, mode: Mode, threads: usize) -> SweepReport {
    let start = std::time::Instant::now();
    let outcomes = slice_sim::par::run_indexed(threads, seeds.to_vec(), |_, seed| {
        let scenario = generate_scenario(seed, 96);
        let crash_free = Schedule::default();
        let reference = run_schedule(seed, &scenario, &crash_free, None, mode);
        let mut o = SeedOutcome::default();
        o.record(seed, None, &crash_free, &reference, Schedule::default);
        let horizon_ms = reference.finish.as_nanos() / 1_000_000;
        let schedules = mode.schedules(seed, schedules_per_seed, horizon_ms);
        for (j, sched) in schedules.iter().enumerate() {
            let out = run_schedule(seed, &scenario, sched, Some(&reference.snapshot), mode);
            // On this worker: the sweep's threads already run one seed each.
            o.record(seed, Some(j), sched, &out, || {
                minimize(seed, &scenario, sched, &reference.snapshot, mode)
            });
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
        if o.registers_skipped > 0 {
            obs.registry
                .add(&format!("{tag}.registers_skipped"), o.registers_skipped);
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
    obs.registry.set_gauge("checker.threads", threads as f64);
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

/// Shrinks a schedule that fails in `mode`: first by halving (delta
/// debugging's outer loop), then by dropping single events, re-running
/// the oracles on `mode`'s ensemble after each candidate. Returns the smallest schedule that still fails (or the
/// input unchanged if it does not fail at all). Bounded at 32 probes.
pub fn minimize(
    seed: u64,
    scenario: &[Step],
    schedule: &Schedule,
    reference: &VolumeSnapshot,
    mode: Mode,
) -> Schedule {
    let fails = |s: &Schedule| {
        !run_schedule(seed, scenario, s, Some(reference), mode)
            .violations
            .is_empty()
    };
    if schedule.events.len() <= 1 || !fails(schedule) {
        return schedule.clone();
    }
    let mut cur = schedule.clone();
    // Every probe below costs one unit.
    let mut budget = 32usize;
    // Halving: keep the first half that still fails.
    'halving: while cur.events.len() > 1 {
        let mid = cur.events.len() / 2;
        for events in [cur.events[..mid].to_vec(), cur.events[mid..].to_vec()] {
            if budget == 0 {
                break 'halving;
            }
            budget -= 1;
            let half = Schedule { events };
            if fails(&half) {
                cur = half;
                continue 'halving;
            }
        }
        break;
    }
    // Single-event drops, rescanning from the position just dropped.
    let mut i = 0;
    while i < cur.events.len() && cur.events.len() > 1 && budget > 0 {
        budget -= 1;
        let mut dropped = cur.clone();
        dropped.events.remove(i);
        if fails(&dropped) {
            cur = dropped;
        } else {
            i += 1;
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
        assert!(a.len() >= 64);
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
                event(
                    40,
                    Injection::Crash {
                        role: Role::Storage,
                        site: 1,
                        down_ms: 1500,
                    },
                ),
                event(60, NetFault::Loss.window(20, 500)),
            ],
        };
        let run = || run_schedule(13, &scenario, &schedule, None, Mode::Standard);
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
        let out = run_schedule(11, &scenario, &Schedule::default(), None, Mode::Standard);
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
        let reference = run_schedule(17, &scenario, &Schedule::default(), None, Mode::Reconf);
        assert!(
            reference.violations.is_empty(),
            "reconf reference run violated: {:?}",
            reference.violations
        );
        let schedule = Schedule {
            events: vec![
                event(50, Injection::JoinStorage { site: 4 }),
                event(300, Injection::DrainStorage { site: 1 }),
            ],
        };
        let out = run_schedule(
            17,
            &scenario,
            &schedule,
            Some(&reference.snapshot),
            Mode::Reconf,
        );
        assert!(!out.stalled, "join+drain schedule stalled");
        assert!(
            out.violations.is_empty(),
            "join+drain violated: {:?}",
            out.violations
        );
    }

    /// Defect 1c(xi): draining the standby fifth site before it ever
    /// joined retires it at once, so the drain oracle finds nothing left
    /// (it used to report `drain_incomplete` at these seeds).
    #[test]
    fn draining_the_standby_before_it_joins_passes_drain_oracle() {
        for seed in [3, 7] {
            let scenario = generate_scenario(seed, 40);
            let schedule = Schedule {
                events: vec![event(100, Injection::DrainStorage { site: 4 })],
            };
            let out = run_schedule(seed, &scenario, &schedule, None, Mode::Reconf);
            assert!(!out.stalled, "seed {seed}: the drain stalled");
            assert!(
                out.violations.is_empty(),
                "seed {seed}: {:?}",
                out.violations
            );
        }
    }

    /// A drain in the coded ensemble has no spare site to move shards to,
    /// so the drain oracle fails it, while the standard ensemble drains
    /// the same site cleanly: only a minimisation in the coded mode can
    /// shrink this schedule, and what it keeps must still fail there.
    #[test]
    fn minimize_shrinks_in_the_mode_that_failed() {
        let scenario = generate_scenario(3, 48);
        let reference = run_schedule(3, &scenario, &Schedule::default(), None, Mode::Coded);
        let drain = event(700, Injection::DrainStorage { site: 0 });
        let dir_crash = Injection::Crash {
            role: Role::Dir,
            site: 1,
            down_ms: 1500,
        };
        let schedule = Schedule {
            events: vec![
                event(600, NetFault::Loss.window(20, 500)),
                drain.clone(),
                event(800, dir_crash),
            ],
        };
        let fails = |s: &Schedule, mode, reference| {
            !run_schedule(3, &scenario, s, reference, mode)
                .violations
                .is_empty()
        };
        assert!(fails(&schedule, Mode::Coded, Some(&reference.snapshot)));
        assert!(!fails(&schedule, Mode::Standard, None));
        let minimal = minimize(3, &scenario, &schedule, &reference.snapshot, Mode::Coded);
        assert_eq!(minimal.events, vec![drain]);
        assert!(fails(&minimal, Mode::Coded, Some(&reference.snapshot)));
    }

    #[test]
    fn reconf_run_is_repeatable() {
        let scenario = generate_scenario(19, 40);
        let schedule = Schedule {
            events: vec![
                event(60, Injection::JoinStorage { site: 4 }),
                event(200, Injection::WidenHot),
                event(400, Injection::DrainStorage { site: 2 }),
            ],
        };
        let run = || run_schedule(19, &scenario, &schedule, None, Mode::Reconf);
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
