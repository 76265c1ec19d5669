//! The four workloads: how each ensemble is built from the seed, how one
//! repetition is driven, and what is read back afterwards.
//!
//! Everything here goes through public items of the crates under test.
//! The program under test only ever sees inputs generated from `--seed`:
//! the engine seed, the namespace ids that names (and so hash placement)
//! derive from, and — for bulk I/O — per-client file sizes and start
//! offsets.

use std::collections::BTreeMap;
use std::time::Instant;

use slice_core::actors::{CoordActor, DirActor, SmallFileActor, StorageActor};
use slice_core::{calib, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice_sim::{LatencyStats, NodeId, Rng, SimDuration, SimTime};
use slice_workloads::{BulkIo, SpecSfs, SpecSfsConfig, Untar};

use crate::spans::Recorder;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16 untar processes against four directory servers.
    UntarMeta,
    /// 8 clients write then read one mirrored file each.
    BulkMirror,
    /// 8 SPECsfs-like generators, open loop in simulated time.
    SfsMix,
    /// Crash/resync (mirrored, coded) and join/drain, with real bytes.
    RepairMix,
}

impl Kind {
    /// All workloads in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::UntarMeta,
        Kind::BulkMirror,
        Kind::SfsMix,
        Kind::RepairMix,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::UntarMeta => "untar_meta",
            Kind::BulkMirror => "bulk_mirror",
            Kind::SfsMix => "sfs_mix",
            Kind::RepairMix => "repair_mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Scenario sizes. `full()` is frozen in `BENCHMARK.json`'s run shape;
/// `smoke()` is the same scenarios at about 1/20 size for tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Files and directories each untar process creates.
    pub untar_files: u64,
    /// Bytes each bulk client writes then reads (before the seed trims
    /// up to 2 % off it).
    pub bulk_bytes: u64,
    /// Aggregate offered SPECsfs load, ops per simulated second.
    pub sfs_offered: f64,
    /// SPECsfs warm-up, simulated seconds.
    pub sfs_warmup_s: u64,
    /// SPECsfs measurement window, simulated seconds.
    pub sfs_measure_s: u64,
    /// Bytes each of the two writers writes in the mirrored crash
    /// timeline.
    pub repair_bytes: u64,
    /// Bytes each of the two writers writes in the coded crash timeline
    /// (read-modify-write and real encoding cost about 3x per byte).
    pub coded_bytes: u64,
    /// Bytes each of the two writers writes before join/drain.
    pub migrate_bytes: u64,
}

const MIB: u64 = 1024 * 1024;

impl Scale {
    /// The sizes the benchmark measures at: each repetition takes 2–2.6 s
    /// of host time on the reference box.
    pub const fn full() -> Scale {
        Scale {
            untar_files: 4_800,
            bulk_bytes: 208 * MIB,
            sfs_offered: 1_600.0,
            sfs_warmup_s: 5,
            sfs_measure_s: 20,
            repair_bytes: 96 * MIB,
            coded_bytes: 56 * MIB,
            migrate_bytes: 128 * MIB,
        }
    }

    /// About 1/20 of `full()`: every code path, every check, < 1 s.
    pub const fn smoke() -> Scale {
        Scale {
            untar_files: 240,
            bulk_bytes: 10 * MIB,
            sfs_offered: 160.0,
            sfs_warmup_s: 1,
            sfs_measure_s: 4,
            repair_bytes: 8 * MIB,
            coded_bytes: 4 * MIB,
            migrate_bytes: 8 * MIB,
        }
    }
}

/// How a repetition is driven.
pub enum Drive<'a> {
    /// Tracing off, `run_to_completion` as the product offers it.
    Plain,
    /// Tracing on: slice-obs records into a large ring, the ensemble is
    /// stepped one simulated second at a time (mirroring
    /// `run_to_completion`), and every step is a span.
    Traced(&'a mut Recorder),
}

/// One node's cumulative busy time at a step boundary.
#[derive(Debug, Clone)]
struct Snapshot {
    at: SimTime,
    cpu_busy_ns: Vec<u64>,
    /// Estimated arm-busy nanoseconds per storage node (see `arm_busy`).
    arm_busy_ns: Vec<f64>,
}

/// What one repetition produced.
pub struct Rep {
    /// Host seconds to build the ensemble(s), generate the workload
    /// inputs and start the clients.
    pub setup_s: f64,
    /// Host seconds to run the scenario to completion.
    pub host_s: f64,
    /// Host seconds per scenario ensemble (`repair_mix` only), keyed by
    /// the per-layer share metric they feed.
    pub phase_host_s: Vec<(&'static str, f64)>,
    /// Exact per-layer counts; equal in every repetition of one seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulated-time results that are not counts (`repair.*_sim_*`).
    pub sim_phase: BTreeMap<&'static str, f64>,
    /// Client ops completed per simulated second.
    pub sim_ops_per_s: f64,
    /// Mean client op latency, simulated ms.
    pub sim_op_mean_ms: f64,
    /// Exact median client op latency, simulated ms.
    pub sim_op_p50_ms: f64,
    /// Exact 99th-percentile client op latency, simulated ms.
    pub sim_op_p99_ms: f64,
    /// Latency samples behind the two quantiles.
    pub latency_samples: usize,
    /// Client ops attempted (completed + timed out).
    pub attempted: u64,
    /// Timed-out ops plus every op of a client that never finished.
    pub failed: u64,
    /// Clients whose workload did not report `finished()`.
    pub unfinished_clients: u64,
    /// Highest utilisation per simulated resource class (traced only).
    pub util: BTreeMap<&'static str, f64>,
}

/// Called with each ensemble of a repetition once it has finished and
/// been counted, before it is dropped: the oracle pass and the probes
/// that need a finished ensemble hang off this. The slice names the
/// storage sites that were drained and retired; the recorder is the
/// traced repetition's.
pub type Inspect<'a> = &'a mut dyn FnMut(&mut SliceEnsemble, &[usize], Option<&mut Recorder>);

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn bench_config() -> SliceConfig {
    // The same shape as `slice_bench::bench_config`: metadata-only stores
    // with full CPU accounting on eight storage nodes.
    SliceConfig {
        retain_data: false,
        charge_cpu: true,
        storage_nodes: 8,
        ..SliceConfig::default()
    }
}

/// A five-digit namespace base drawn from the seed, so that names have
/// the same length — and packets the same size — for every seed.
fn namespace_base(seed: u64) -> u64 {
    10_000 + Rng::seed_from_u64(seed ^ 0x51ce_b0a7).gen_range(0..80_000u64)
}

fn boxed<W: Workload>(w: W) -> Box<dyn Workload> {
    Box::new(w)
}

fn workload_of<W: 'static>(ens: &SliceEnsemble, i: usize) -> &W {
    ens.client(i)
        .workload()
        .expect("client has a workload")
        .as_any()
        .downcast_ref::<W>()
        .expect("workload type")
}

/// Estimated busy nanoseconds of a storage node's disk arms from the
/// public counters: per-request overhead, full seeks, and media
/// transfer. Near-sequential skips are not visible from outside and are
/// left out, so this slightly understates a skipping reader.
fn arm_busy(ens: &SliceEnsemble, node: NodeId) -> f64 {
    let p = calib::disk_params();
    let n = &ens.engine.actor::<StorageActor>(node).node;
    let (reads, writes, bytes, _) = n.disk_stats();
    let (_, seek_ns) = n.disk_seeks();
    (reads + writes) as f64 * p.overhead.as_nanos() as f64
        + seek_ns as f64
        + bytes as f64 / p.transfer_bps * 1e9
}

fn snapshot(ens: &SliceEnsemble) -> Snapshot {
    let nodes =
        ens.clients.len() + ens.dirs.len() + ens.sfs.len() + ens.storage.len() + ens.coords.len();
    Snapshot {
        at: ens.engine.now(),
        cpu_busy_ns: (0..nodes as u32)
            .map(|i| ens.engine.node_stats(NodeId(i)).cpu_busy.as_nanos())
            .collect(),
        arm_busy_ns: ens.storage.iter().map(|&s| arm_busy(ens, s)).collect(),
    }
}

/// Drives one ensemble and remembers what utilisation needs.
struct Stepper<'d, 'r> {
    drive: &'d mut Drive<'r>,
    snaps: Vec<Snapshot>,
    /// When the clients of the last `run_to_completion` were seen finished
    /// (before the drain), traced repetitions only.
    finished_at: Option<SimTime>,
    inspect: Inspect<'d>,
    /// Stop after set-up: build and start, run nothing.
    setup_only: bool,
}

impl Stepper<'_, '_> {
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = match self.drive {
            Drive::Traced(rec) => Some(rec.begin(name)),
            Drive::Plain => None,
        };
        let out = f(self);
        if let (Some(id), Drive::Traced(rec)) = (id, &mut *self.drive) {
            rec.end(id);
        }
        out
    }

    /// Tracing off for timed repetitions; a large ring with every
    /// subsystem enabled for the traced one.
    fn configure_obs(&self, ens: &mut SliceEnsemble) {
        match self.drive {
            Drive::Plain => ens.engine.obs_mut().trace.disable_all(),
            Drive::Traced(_) => {
                ens.engine.obs_mut().trace = slice_obs::Trace::with_capacity(1 << 16);
            }
        }
    }

    /// One `run_until` of at most a simulated second, as a span.
    fn step(&mut self, ens: &mut SliceEnsemble, until: SimTime, name: &str) {
        self.span(name, |_| ens.engine.run_until(until));
        if matches!(self.drive, Drive::Traced(_)) {
            self.snaps.push(snapshot(ens));
        }
    }

    /// Runs until every client finished and background work drained.
    /// Untraced, this *is* `SliceEnsemble::run_to_completion`; traced, it
    /// is the same loop spelled out so each simulated second is a span.
    fn run_to_completion(&mut self, ens: &mut SliceEnsemble, deadline: SimTime) {
        if matches!(self.drive, Drive::Plain) {
            ens.run_to_completion(deadline);
            return;
        }
        let second = SimDuration::from_secs(1);
        loop {
            let until = (ens.engine.now() + second).min(deadline);
            self.step(ens, until, "run.step");
            if (0..ens.clients.len()).all(|i| ens.client(i).finished()) {
                self.finished_at = Some(ens.engine.now());
                // The product's drain horizon (10 simulated seconds).
                let cap = ens.engine.now() + SimDuration::from_secs(10);
                while ens.engine.live_events() > 0 && ens.engine.now() < cap {
                    let until = (ens.engine.now() + second).min(cap);
                    self.step(ens, until, "run.drain");
                }
                return;
            }
            if ens.engine.now() >= deadline || ens.engine.live_events() == 0 {
                return;
            }
        }
    }

    /// Steps a simulated second at a time until `done(ens)` or `cap`.
    fn until(
        &mut self,
        ens: &mut SliceEnsemble,
        cap: SimTime,
        done: impl Fn(&SliceEnsemble) -> bool,
    ) {
        while !done(ens) && ens.engine.now() < cap {
            let until = (ens.engine.now() + SimDuration::from_secs(1)).min(cap);
            self.step(ens, until, "run.step");
        }
    }

    /// Highest utilisation per resource class over the `window` simulated
    /// seconds before the clients finished (`None`: since time zero).
    fn utilisation(
        &self,
        ens: &SliceEnsemble,
        window: Option<SimDuration>,
        into: &mut BTreeMap<&'static str, f64>,
    ) {
        let to = self.finished_at.unwrap_or(SimTime::MAX);
        let Some(last) = self.snaps.iter().rfind(|s| s.at <= to) else {
            return;
        };
        let from = match window {
            Some(w) if last.at - SimTime::ZERO > w => last.at - w,
            _ => SimTime::ZERO,
        };
        let first = self
            .snaps
            .iter()
            .rfind(|s| s.at <= from)
            .cloned()
            .unwrap_or(Snapshot {
                at: SimTime::ZERO,
                cpu_busy_ns: vec![0; last.cpu_busy_ns.len()],
                arm_busy_ns: vec![0.0; last.arm_busy_ns.len()],
            });
        let span_ns = (last.at - first.at).as_nanos() as f64;
        if span_ns <= 0.0 {
            return;
        }
        let cpu = |ids: &[NodeId]| {
            ids.iter()
                .map(|n| {
                    let i = n.0 as usize;
                    (last.cpu_busy_ns[i] - first.cpu_busy_ns[i]) as f64 / span_ns
                })
                .fold(0.0, f64::max)
        };
        // Every scenario builds with the default arms per node; the
        // estimate is the mean over a node's arms.
        let arms = last
            .arm_busy_ns
            .iter()
            .zip(&first.arm_busy_ns)
            .map(|(l, f)| (l - f) / (span_ns * calib::DISKS_PER_NODE as f64))
            .fold(0.0, f64::max);
        for (name, v) in [
            ("sim.util.client_cpu", cpu(&ens.clients)),
            ("sim.util.dir_cpu", cpu(&ens.dirs)),
            ("sim.util.sf_cpu", cpu(&ens.sfs)),
            ("sim.util.storage_cpu", cpu(&ens.storage)),
            ("sim.util.coord_cpu", cpu(&ens.coords)),
            ("sim.util.disk_arm", arms),
        ] {
            let slot = into.entry(name).or_insert(0.0);
            *slot = slot.max(v);
        }
    }
}

/// Adds one ensemble's public counters into `c`.
fn harvest(ens: &SliceEnsemble, c: &mut BTreeMap<&'static str, f64>) {
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    let e = &ens.engine;
    add("sim.engine.events", e.events_executed() as f64);
    add("sim.engine.windows", e.shard_windows() as f64);
    add("sim.shard.barrier_rounds", e.shard_barrier_rounds() as f64);
    add("sim.net.packets", e.packets_sent() as f64);
    add("sim.net.bytes", e.bytes_sent() as f64);
    add("sim.net.dropped", e.packets_dropped() as f64);

    let (mut attr_hits, mut attr_misses) = (0u64, 0u64);
    for i in 0..ens.clients.len() {
        let client = ens.client(i);
        let s = client.stats();
        add("core.client.ops", s.ops as f64);
        add("core.client.retransmits", s.retransmits as f64);
        add("core.client.timeouts", s.timeouts as f64);
        add("core.client.bytes_read", s.bytes_read as f64);
        add("core.client.bytes_written", s.bytes_written as f64);
        let p = client.proxy().expect("Slice clients embed a uproxy");
        let (routed, replies, absorbed, initiated) = p.traffic_stats();
        add("uproxy.packets_out", (routed + initiated) as f64);
        add("uproxy.packets_in", (replies + absorbed) as f64);
        let (h, m) = p.attr_cache_stats();
        attr_hits += h;
        attr_misses += m;
        add("uproxy.soft_state_entries", p.soft_state_entries() as f64);
        let (_, coded_writes, degraded_reads, _, recon_bytes) = p.ec_stats();
        add("uproxy.ec.coded_writes", coded_writes as f64);
        add("uproxy.ec.degraded_reads", degraded_reads as f64);
        add("uproxy.ec.reconstructed_bytes", recon_bytes as f64);
        let (failovers, degraded_writes, _, _) = p.ha_stats();
        add("uproxy.ha.read_failovers", failovers as f64);
        add("uproxy.ha.degraded_writes", degraded_writes as f64);
    }
    add("attr.hits", attr_hits as f64);
    add("attr.lookups", (attr_hits + attr_misses) as f64);

    for &d in &ens.dirs {
        let srv = &e.actor::<DirActor>(d).server;
        add("dirsvc.ops_served", srv.ops_served() as f64);
        add("dirsvc.peer_ops", srv.peer_ops() as f64);
        add("dirsvc.multisite_ops", srv.multisite_ops() as f64);
        // `Wal::stats` is (appends, physical batches, bytes): a batch is
        // one log sync.
        add("dirsvc.wal.syncs", srv.wal_stats().1 as f64);
    }
    for &s in &ens.sfs {
        let srv = &e.actor::<SmallFileActor>(s).server;
        let served = srv.served() as f64;
        add("smallfile.served", served);
        add("sf.hit_weight", srv.cache_hit_ratio() * served);
        add("smallfile.alloc.spills", srv.alloc_stats().1 as f64);
    }
    for &s in &ens.storage {
        let node = &e.actor::<StorageActor>(s).node;
        let (reads, writes) = node.op_counts();
        add("storage.node.reads", reads as f64);
        add("storage.node.writes", writes as f64);
        add("st.hit_weight", node.cache_hit_ratio() * reads as f64);
        let (dr, dw, bytes, seq) = node.disk_stats();
        add("disk.ios", (dr + dw) as f64);
        add("disk.seq_hits", seq as f64);
        add("storage.disk.bytes", bytes as f64);
        add("storage.disk.seeks", node.disk_seeks().0 as f64);
    }
    for &co in &ens.coords {
        let coord = &e.actor::<CoordActor>(co).coord;
        add("storage.coord.wal.appends", coord.wal_stats().0 as f64);
        add("storage.coord.map_entries", coord.map_entries() as f64);
        add("storage.coord.resync_bytes", coord.resync_bytes() as f64);
        add(
            "storage.coord.migrated_bytes",
            coord.migrated_bytes() as f64,
        );
        add(
            "storage.coord.dirty_ranges_left",
            coord.dirty_ranges() as f64,
        );
        add("coord.messages", e.node_stats(co).messages_handled as f64);
    }
    let peak = c.entry("sim.engine.peak_live_events").or_insert(0.0);
    *peak = peak.max(e.peak_live_events() as f64);
}

/// Turns the helper sums `harvest` accumulated into the reported ratios.
fn finish_counts(c: &mut BTreeMap<&'static str, f64>) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let take = |c: &mut BTreeMap<&'static str, f64>, k: &str| c.remove(k).unwrap_or(0.0);
    let (hits, lookups) = (take(c, "attr.hits"), take(c, "attr.lookups"));
    c.insert("uproxy.attr_cache.hit_ratio", ratio(hits, lookups));
    let sf = take(c, "sf.hit_weight");
    let served = c.get("smallfile.served").copied().unwrap_or(0.0);
    c.insert("smallfile.cache_hit_ratio", ratio(sf, served));
    let st = take(c, "st.hit_weight");
    let reads = c.get("storage.node.reads").copied().unwrap_or(0.0);
    c.insert("storage.node.cache_hit_ratio", ratio(st, reads));
    let (seq, ios) = (take(c, "disk.seq_hits"), take(c, "disk.ios"));
    c.insert("storage.disk.seq_hit_ratio", ratio(seq, ios));
}

/// Process-wide allocation and payload-copy counters, sampled around a
/// repetition (an ensemble is built, run and harvested on one thread).
struct HostCounters {
    clones: (u64, u64, u64),
}

impl HostCounters {
    fn start() -> Self {
        slice_sim::pool::reset_alloc_stats();
        HostCounters {
            clones: slice_nfsproto::bytes::local_clone_stats(),
        }
    }

    fn finish(self, c: &mut BTreeMap<&'static str, f64>) {
        let (hits, misses, recycled) = slice_sim::pool::alloc_stats();
        c.insert("sim.pool.hits", hits as f64);
        c.insert("sim.pool.misses", misses as f64);
        c.insert(
            "sim.pool.hit_ratio",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        );
        c.insert("sim.pool.recycled_bytes", recycled as f64);
        c.insert("sim.pool.held_bytes", slice_sim::pool::held_bytes() as f64);
        let (s, d, b) = slice_nfsproto::bytes::local_clone_stats();
        c.insert(
            "nfsproto.bytebuf.shallow_clones",
            (s - self.clones.0) as f64,
        );
        c.insert("nfsproto.bytebuf.deep_copies", (d - self.clones.1) as f64);
        c.insert(
            "nfsproto.bytebuf.deep_copy_bytes",
            (b - self.clones.2) as f64,
        );
    }
}

/// Failure accounting shared by every workload.
fn tally_failures(ens: &SliceEnsemble, rep: &mut Rep) {
    for i in 0..ens.clients.len() {
        let client = ens.client(i);
        let s = client.stats();
        rep.attempted += s.ops + s.timeouts;
        rep.failed += s.timeouts;
        if !client.finished() {
            rep.unfinished_clients += 1;
            rep.failed += s.ops;
        }
    }
}

fn set_latency(rep: &mut Rep, mut lat: LatencyStats) {
    rep.latency_samples = lat.count();
    rep.sim_op_mean_ms = lat.mean().as_nanos() as f64 / 1e6;
    rep.sim_op_p50_ms = lat.quantile(0.5).as_nanos() as f64 / 1e6;
    rep.sim_op_p99_ms = lat.quantile(0.99).as_nanos() as f64 / 1e6;
}

fn empty_rep() -> Rep {
    Rep {
        setup_s: 0.0,
        host_s: 0.0,
        phase_host_s: Vec::new(),
        counts: BTreeMap::new(),
        sim_phase: BTreeMap::new(),
        sim_ops_per_s: 0.0,
        sim_op_mean_ms: 0.0,
        sim_op_p50_ms: 0.0,
        sim_op_p99_ms: 0.0,
        latency_samples: 0,
        attempted: 0,
        failed: 0,
        unfinished_clients: 0,
        util: BTreeMap::new(),
    }
}

/// Counts a finished ensemble into `rep`, shows it to the inspector and
/// drops it, so a repetition never holds two ensembles' bytes at once.
fn retire(
    mut ens: SliceEnsemble,
    drained: &[usize],
    lat: &mut LatencyStats,
    st: &mut Stepper<'_, '_>,
    rep: &mut Rep,
) {
    harvest(&ens, &mut rep.counts);
    tally_failures(&ens, rep);
    for i in 0..ens.clients.len() {
        lat.merge(&ens.client(i).stats().latency);
    }
    let rec = match &mut *st.drive {
        Drive::Traced(rec) => Some(&mut **rec),
        Drive::Plain => None,
    };
    (st.inspect)(&mut ens, drained, rec);
}

/// Sets `kind` up once — builds every ensemble of the scenario from the
/// seed and starts its clients — runs nothing, and returns the host
/// seconds that took. Several of these per run give `setup_s` its median.
pub fn setup_only(kind: Kind, seed: u64, scale: &Scale) -> f64 {
    let mut rep = empty_rep();
    let mut st = Stepper {
        drive: &mut Drive::Plain,
        snaps: Vec::new(),
        finished_at: None,
        inspect: &mut |_, _, _| {},
        setup_only: true,
    };
    dispatch(kind, seed, scale, 1, &mut st, &mut rep);
    rep.setup_s
}

fn dispatch(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    shards: usize,
    st: &mut Stepper<'_, '_>,
    rep: &mut Rep,
) {
    match kind {
        Kind::UntarMeta => untar_meta(seed, scale, shards, st, rep),
        Kind::BulkMirror => bulk_mirror(seed, scale, shards, st, rep),
        Kind::SfsMix => {
            sfs_point(seed, scale, scale.sfs_offered, 1, shards, st, rep);
        }
        Kind::RepairMix => repair_mix(seed, scale, shards, st, rep),
    }
}

/// Runs one repetition of `kind` on fresh ensembles.
pub fn run_rep<'d>(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    shards: usize,
    drive: &'d mut Drive<'_>,
    inspect: Inspect<'d>,
) -> Rep {
    let host = HostCounters::start();
    let mut rep = empty_rep();
    let mut st = Stepper {
        drive,
        snaps: Vec::new(),
        finished_at: None,
        inspect,
        setup_only: false,
    };
    dispatch(kind, seed, scale, shards, &mut st, &mut rep);
    finish_counts(&mut rep.counts);
    host.finish(&mut rep.counts);
    rep
}

fn untar_meta(seed: u64, scale: &Scale, shards: usize, st: &mut Stepper<'_, '_>, rep: &mut Rep) {
    const PROCS: usize = 16;
    let t = Instant::now();
    let mut ens = st.span("setup.build", |st| {
        let cfg = SliceConfig {
            clients: PROCS,
            dir_servers: 4,
            policy: EnsemblePolicy::MkdirSwitching {
                redirect_millis: 250,
            },
            shards,
            seed,
            ..bench_config()
        };
        let base = namespace_base(seed);
        let procs = (0..PROCS as u64)
            .map(|i| boxed(Untar::new(base * 100 + i, scale.untar_files)))
            .collect();
        let mut ens = SliceEnsemble::build(&cfg, procs);
        st.configure_obs(&mut ens);
        ens
    });
    st.span("run.start", |_| ens.start());
    rep.setup_s = t.elapsed().as_secs_f64();
    if st.setup_only {
        return;
    }

    let t = Instant::now();
    st.run_to_completion(&mut ens, secs(36_000));
    rep.host_s = t.elapsed().as_secs_f64();

    // Every process starts at simulated time zero, so the longest elapsed
    // time is first issue to last completion.
    let sim_s = (0..PROCS)
        .filter_map(|i| workload_of::<Untar>(&ens, i).elapsed())
        .map(|d| d.as_secs_f64())
        .fold(0.0, f64::max);
    let ops: u64 = (0..PROCS).map(|i| ens.client(i).stats().ops).sum();
    rep.sim_ops_per_s = if sim_s > 0.0 { ops as f64 / sim_s } else { 0.0 };
    st.utilisation(&ens, None, &mut rep.util);
    let mut lat = LatencyStats::new();
    retire(ens, &[], &mut lat, st, rep);
    set_latency(rep, lat);
}

/// Kicks each client at its seeded offset after `origin`: `dd` processes
/// launched from a shell loop never start in the same nanosecond, and a
/// simultaneous start locks all clients into one convoy.
fn staggered_start(ens: &mut SliceEnsemble, origin: SimTime, offsets_us: &[u64]) {
    let mut order: Vec<(u64, usize)> = offsets_us.iter().copied().zip(0..).collect();
    order.sort_unstable();
    for (us, i) in order {
        ens.engine.run_until(origin + SimDuration::from_micros(us));
        let node = ens.clients[i];
        ens.engine.kick(node);
    }
}

/// Longest per-client transfer time of the phase that just finished.
fn bulk_phase_secs(ens: &SliceEnsemble, sizes: &[u64]) -> f64 {
    sizes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| Some(b as f64 / workload_of::<BulkIo>(ens, i).bandwidth()?))
        .fold(0.0, f64::max)
}

fn bulk_mirror(seed: u64, scale: &Scale, shards: usize, st: &mut Stepper<'_, '_>, rep: &mut Rep) {
    const CLIENTS: usize = 8;
    let t = Instant::now();
    let base = namespace_base(seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xb01c);
    // Each file is up to 2 % shorter than the nominal size and each
    // client starts up to 20 simulated ms late.
    let block = u64::from(calib::NFS_BLOCK);
    let sizes: Vec<u64> = (0..CLIENTS)
        .map(|_| scale.bulk_bytes - block * rng.gen_range(0..=scale.bulk_bytes / block / 50))
        .collect();
    let offsets: Vec<u64> = (0..CLIENTS).map(|_| rng.gen_range(0..20_000u64)).collect();
    let name = |i: usize| format!("b{base}c{i}");
    let mut ens = st.span("setup.build", |st| {
        let cfg = SliceConfig {
            clients: CLIENTS,
            shards,
            seed,
            ..bench_config()
        };
        let writers = (0..CLIENTS)
            .map(|i| boxed(BulkIo::writer(&name(i), sizes[i], true)))
            .collect();
        let mut ens = SliceEnsemble::build(&cfg, writers);
        st.configure_obs(&mut ens);
        ens
    });
    rep.setup_s = t.elapsed().as_secs_f64();
    if st.setup_only {
        return;
    }

    let t = Instant::now();
    st.span("run.start", |_| {
        staggered_start(&mut ens, SimTime::ZERO, &offsets)
    });
    st.run_to_completion(&mut ens, secs(3_600));
    let write_s = bulk_phase_secs(&ens, &sizes);
    // Read phase on the same ensemble: server caches hold only the tail
    // of each file, as after a real dd write pass.
    let all_written = (0..CLIENTS).all(|i| ens.client(i).finished());
    if all_written {
        for (i, &bytes) in sizes.iter().enumerate() {
            ens.client_mut(i)
                .set_workload(boxed(BulkIo::reader(&name(i), bytes)));
        }
        let origin = ens.engine.now();
        st.span("run.start", |_| staggered_start(&mut ens, origin, &offsets));
        st.run_to_completion(&mut ens, secs(7_200));
    }
    rep.host_s = t.elapsed().as_secs_f64();

    let sim_s = write_s + bulk_phase_secs(&ens, &sizes);
    let ops: u64 = (0..CLIENTS).map(|i| ens.client(i).stats().ops).sum();
    rep.sim_ops_per_s = if sim_s > 0.0 { ops as f64 / sim_s } else { 0.0 };
    st.utilisation(&ens, None, &mut rep.util);
    let mut lat = LatencyStats::new();
    retire(ens, &[], &mut lat, st, rep);
    set_latency(rep, lat);
}

/// One SPECsfs point against Slice-4 configured as `run_sfs_slice` does.
/// `shrink` divides the file set and both caches alike (1 for the
/// measured scenario), keeping the file set the same multiple of the
/// caches. Returns (delivered IOPS, mean latency ms) over the window.
fn sfs_point(
    seed: u64,
    scale: &Scale,
    offered: f64,
    shrink: u64,
    shards: usize,
    st: &mut Stepper<'_, '_>,
    rep: &mut Rep,
) -> (f64, f64) {
    const PROCS: usize = 8;
    let t = Instant::now();
    let mut ens = st.span("setup.build", |st| {
        let cfg = SliceConfig {
            clients: PROCS,
            storage_nodes: 4,
            dir_servers: 1,
            sf_servers: 2,
            // Caches shrunk with the file-set scale factor (see
            // slice-workloads::specsfs), so the file set overflows them.
            sf_cache_bytes: 64 * MIB / shrink,
            storage_cache_bytes: 32 * MIB / shrink,
            shards,
            seed,
            ..bench_config()
        };
        let base = namespace_base(seed);
        let procs = (0..PROCS as u64)
            .map(|i| {
                boxed(SpecSfs::new(SpecSfsConfig {
                    warmup: SimDuration::from_secs(scale.sfs_warmup_s),
                    measure: SimDuration::from_secs(scale.sfs_measure_s),
                    fileset_bytes_per_ops: MIB / shrink,
                    ..SpecSfsConfig::new(base * 100 + i, offered / PROCS as f64)
                }))
            })
            .collect();
        let mut ens = SliceEnsemble::build(&cfg, procs);
        st.configure_obs(&mut ens);
        ens
    });
    st.span("run.start", |_| ens.start());
    rep.setup_s += t.elapsed().as_secs_f64();
    if st.setup_only {
        return (0.0, 0.0);
    }

    let t = Instant::now();
    st.run_to_completion(&mut ens, secs(36_000));
    rep.host_s += t.elapsed().as_secs_f64();

    let now = ens.engine.now();
    let mut lat = LatencyStats::new();
    let mut delivered = 0.0;
    for i in 0..PROCS {
        let w = workload_of::<SpecSfs>(&ens, i);
        delivered += w.delivered_iops(now);
        lat.merge(&w.latency);
    }
    let mean_ms = lat.mean().as_nanos() as f64 / 1e6;
    rep.sim_ops_per_s = delivered;
    set_latency(rep, lat);
    // Utilisation over the measurement window only: it ends when the
    // last generator stops, and the file-set creation before it is set-up.
    st.utilisation(
        &ens,
        Some(SimDuration::from_secs(scale.sfs_measure_s)),
        &mut rep.util,
    );
    // Client-stack latencies include the unmeasured file-set creation;
    // the workload's own window samples above are what is reported.
    retire(ens, &[], &mut LatencyStats::new(), st, rep);
    (delivered, mean_ms)
}

/// The saturation ladder: the highest offered load whose delivered rate
/// is at least 95 % of it with mean latency at most 10 ms. Each rung is
/// one untimed pass with a shortened window (2 s warm-up, 6 s measured)
/// on a quarter-size file set and quarter-size caches, because creating
/// the file set is most of a rung's host time.
pub fn sfs_saturation(seed: u64, scale: &Scale) -> f64 {
    let ladder = Scale {
        sfs_warmup_s: scale.sfs_warmup_s.min(2),
        sfs_measure_s: scale.sfs_measure_s.min(6),
        ..*scale
    };
    let mut best = 0.0;
    for mult in [0.5, 1.0, 1.5, 2.0] {
        let offered = scale.sfs_offered * mult;
        let mut rep = empty_rep();
        let mut st = Stepper {
            drive: &mut Drive::Plain,
            snaps: Vec::new(),
            finished_at: None,
            inspect: &mut |_, _, _| {},
            setup_only: false,
        };
        let (delivered, mean_ms) = sfs_point(seed, &ladder, offered, 4, 1, &mut st, &mut rep);
        if delivered >= 0.95 * offered && mean_ms <= 10.0 {
            best = offered;
        }
    }
    best
}

const VICTIM: usize = 0;

/// Crash timeline shared by the mirrored and the coded ensemble: crash
/// storage node 0 100 simulated ms into two concurrent writes, finish the
/// writes degraded, read everything back, recover, resync until the dirty
/// log drains, read again.
///
/// Before the concurrent writes, writer 1 alone writes a slightly longer
/// prelude file. That keeps its RPC xids above writer 0's for the whole
/// degraded window, which matters because of a defect this benchmark's
/// oracle pass found: the coordinator remembers acknowledged `MarkDirty`
/// messages by the bare xid (`marks_acked` in `storage::coord`), so two
/// clients writing in lockstep — same xids at the same time — lose one
/// client's dirty ranges and the mirrors never converge. A benchmark must
/// run on inputs the program handles correctly; the prelude is harmless
/// once the defect is fixed.
fn crash_timeline(
    tag: &'static str,
    cfg: SliceConfig,
    names: [String; 2],
    bytes: u64,
    lat: &mut LatencyStats,
    st: &mut Stepper<'_, '_>,
    rep: &mut Rep,
) -> (f64, u64) {
    let t = Instant::now();
    let prelude_bytes = bytes + 2 * u64::from(calib::NFS_BLOCK);
    let mut ens = st.span("setup.build", |st| {
        let writers = vec![
            boxed(BulkIo::writer(&names[0], bytes, true)),
            boxed(BulkIo::writer(
                &format!("{}p", names[1]),
                prelude_bytes,
                true,
            )),
        ];
        let mut ens = SliceEnsemble::build(&cfg, writers);
        st.configure_obs(&mut ens);
        ens
    });
    st.span("run.start", |_| {
        let prelude_writer = ens.clients[1];
        ens.engine.kick(prelude_writer);
    });
    rep.setup_s += t.elapsed().as_secs_f64();
    if st.setup_only {
        return (0.0, 0);
    }

    let t = Instant::now();
    let sizes = [bytes; 2];
    let deadline = secs(600);
    st.until(&mut ens, deadline, |e| e.client(1).finished());
    let mut sim_s = bulk_phase_secs(&ens, &[0, prelude_bytes]);
    if ens.client(1).finished() {
        ens.client_mut(1)
            .set_workload(boxed(BulkIo::writer(&names[1], bytes, true)));
    }
    // About 100 simulated ms in; the seed moves it by up to 20 ms.
    let jitter_us = Rng::seed_from_u64(cfg.seed ^ 0xc4a5).gen_range(0..20_000u64);
    let crash_at = ens.engine.now() + SimDuration::from_micros(100_000 + jitter_us);
    st.span("run.start", |_| ens.start());
    st.step(&mut ens, crash_at, "run.step");
    let victim = ens.storage[VICTIM];
    ens.engine.fail_node(victim);
    st.run_to_completion(&mut ens, deadline);
    sim_s += bulk_phase_secs(&ens, &sizes);

    let read_pass = |ens: &mut SliceEnsemble, st: &mut Stepper<'_, '_>| {
        if !(0..2).all(|i| ens.client(i).finished()) {
            return 0.0;
        }
        for (i, n) in names.iter().enumerate() {
            ens.client_mut(i)
                .set_workload(boxed(BulkIo::reader(n, bytes)));
        }
        st.span("run.start", |_| ens.start());
        st.run_to_completion(ens, deadline);
        bulk_phase_secs(ens, &sizes)
    };
    sim_s += read_pass(&mut ens, st);

    let recover_at = ens.engine.now();
    ens.recover_storage_node(VICTIM);
    let dirty = |ens: &SliceEnsemble| -> usize {
        ens.coords
            .iter()
            .map(|&c| ens.engine.actor::<CoordActor>(c).coord.dirty_ranges())
            .sum()
    };
    st.until(&mut ens, recover_at + SimDuration::from_secs(120), |e| {
        dirty(e) == 0
    });
    sim_s += read_pass(&mut ens, st);
    let host_s = t.elapsed().as_secs_f64();
    rep.host_s += host_s;
    rep.phase_host_s.push((tag, host_s));

    // Resync duration from the coordinator's own log, not the engine
    // clock (which only stops on whole simulated seconds).
    let resync_done = ens
        .coords
        .iter()
        .flat_map(|&c| ens.engine.actor::<CoordActor>(c).coord.resync_history())
        .filter(|&&(site, ..)| site as usize == VICTIM)
        .map(|&(_, _, done, _)| done)
        .max();
    let resync_s = resync_done.map_or(0.0, |d| (d - recover_at).as_secs_f64());
    let suspected_at = (0..2)
        .filter_map(|i| ens.client(i).proxy())
        .flat_map(|p| p.suspicion_log())
        .filter(|&&(_, site, suspected)| site as usize == VICTIM && suspected)
        .map(|&(t, ..)| t)
        .min();
    let failover_ns = suspected_at.map_or(0, |t| (t - crash_at).as_nanos());
    // The whole timeline, repair tail included.
    st.finished_at = None;
    st.utilisation(&ens, None, &mut rep.util);
    st.snaps.clear();
    let ops: u64 = (0..2).map(|i| ens.client(i).stats().ops).sum();
    rep.sim_phase.insert(
        match tag {
            "repair.mirror.host_share" => "repair.mirror.resync_sim_s",
            _ => "repair.coded.rebuild_sim_s",
        },
        resync_s,
    );
    if tag == "repair.mirror.host_share" {
        rep.sim_phase
            .insert("repair.failover_sim_ms", failover_ns as f64 / 1e6);
    }
    retire(ens, &[], lat, st, rep);
    (sim_s, ops)
}

fn repair_mix(seed: u64, scale: &Scale, shards: usize, st: &mut Stepper<'_, '_>, rep: &mut Rep) {
    let base = namespace_base(seed);
    let ha = SliceConfig {
        clients: 2,
        retain_data: true,
        // Fast probe cadence so the recovered site rejoins the read
        // rotation within the final read pass.
        probe_interval_ms: 500,
        shards,
        seed,
        ..SliceConfig::default()
    };
    let mut lat = LatencyStats::new();
    let (mut sim_s, mut ops) = (0.0, 0u64);

    // (A) two-way mirrored striping on four nodes.
    let (s, o) = crash_timeline(
        "repair.mirror.host_share",
        ha.clone(),
        [format!("r{base}m0"), format!("r{base}m1")],
        scale.repair_bytes,
        &mut lat,
        st,
        rep,
    );
    sim_s += s;
    ops += o;

    // (B) the same timeline on a (4,2) code over six nodes: k-of-n
    // degraded reads and shard rebuild instead of mirror failover.
    let (s, o) = crash_timeline(
        "repair.coded.host_share",
        SliceConfig {
            storage_nodes: 6,
            coded: Some((4, 2)),
            ..ha.clone()
        },
        [format!("r{base}k0"), format!("r{base}k1")],
        scale.coded_bytes,
        &mut lat,
        st,
        rep,
    );
    sim_s += s;
    ops += o;

    // (C) mapped mirroring with one standby: write, join the standby,
    // drain a founding site, retire it.
    const JOINER: usize = 4;
    const RETIREE: usize = 1;
    let t = Instant::now();
    let names = [format!("r{base}j0"), format!("r{base}j1")];
    let mut c = st.span("setup.build", |st| {
        let cfg = SliceConfig {
            storage_nodes: 5,
            active_storage: Some(4),
            use_block_maps: true,
            mapped_mirror: true,
            ..ha
        };
        let writers = names
            .iter()
            .map(|n| boxed(BulkIo::writer(n, scale.migrate_bytes, true)))
            .collect();
        let mut ens = SliceEnsemble::build(&cfg, writers);
        st.configure_obs(&mut ens);
        ens
    });
    st.span("run.start", |_| c.start());
    rep.setup_s += t.elapsed().as_secs_f64();
    if st.setup_only {
        return;
    }

    let t = Instant::now();
    st.run_to_completion(&mut c, secs(600));
    sim_s += bulk_phase_secs(&c, &[scale.migrate_bytes; 2]);
    let cap = |ens: &SliceEnsemble| ens.engine.now() + SimDuration::from_secs(120);
    c.join_storage_node(JOINER);
    let until = cap(&c);
    st.until(&mut c, until, |e| e.migrations_pending() == 0);
    c.flush_map_caches();
    c.drain_storage_node(RETIREE);
    let until = cap(&c);
    st.until(&mut c, until, |e| e.migrations_pending() == 0);
    let retired = c.retire_storage_node(RETIREE);
    let host_s = t.elapsed().as_secs_f64();
    rep.host_s += host_s;
    rep.phase_host_s.push(("repair.migrate.host_share", host_s));
    // Drain duration from the coordinator's reconfiguration log.
    let drain_s = c
        .coords
        .iter()
        .flat_map(|&co| c.engine.actor::<CoordActor>(co).coord.reconf_history())
        .filter(|&&(site, ..)| site as usize == RETIREE)
        .map(|&(_, started, retired, _)| (retired - started).as_secs_f64())
        .fold(0.0, f64::max);
    rep.sim_phase.insert("repair.migrate.drain_sim_s", drain_s);
    ops += (0..2).map(|i| c.client(i).stats().ops).sum::<u64>();
    st.finished_at = None;
    st.utilisation(&c, None, &mut rep.util);

    rep.sim_ops_per_s = if sim_s > 0.0 { ops as f64 / sim_s } else { 0.0 };
    let drained: &[usize] = if retired { &[RETIREE] } else { &[] };
    retire(c, drained, &mut lat, st, rep);
    set_latency(rep, lat);
}
