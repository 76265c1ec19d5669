//! `reconfigure` — online reconfiguration timeline: hot-set detection,
//! demand-driven replica widening, node join with background rebalance,
//! and planned drain (migrate-then-retire).
//!
//! Runs a mirrored bulk workload on an ensemble with a fifth storage
//! site held in standby, then walks the full reconfiguration cycle:
//!
//! 1. **detect** — a skewed read pass heats one file; the µproxy hot
//!    trackers (sliding two-half windows over the obs histograms) rank
//!    it first;
//! 2. **widen** — the hottest file's block-map entries are widened by
//!    one replica each; copies ride the dirty-region resync path, and
//!    the µproxy keeps the warming replicas out of the mirror-read
//!    rotation until the log drains and the map epoch flushes;
//! 3. **join** — the standby site enters the placement rotation and the
//!    coordinators rebalance block-map entries onto it in the
//!    background while a read pass keeps running;
//! 4. **drain** — a founding site is drained (its chunks migrate off,
//!    then it retires), distinct from a crash: suspicion tables and
//!    dirty-region logs for the retiree are purged, not leaked.
//!
//! Reports time-to-rebalance for join and drain, migrated bytes, the
//! hot file's read p99 before / during / after widening, and the
//! live-soft-state counts after retirement. A clean baseline run (no
//! reconfiguration, same workload) executes in parallel on slice-par
//! for the comparison gauges. Deterministic: identical arguments yield
//! a byte-identical report at any `--threads`.
//!
//! Usage: `reconfigure [--mb N] [--reads R] [--threads T] [--json-out]`
//! (defaults: 24 MiB per client, 3 hot read passes, threads = available
//! parallelism).

use slice_bench::obs_doc;
use slice_core::actors::CoordActor;
use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_core::Workload;
use slice_sim::{SimDuration, SimTime};
use slice_workloads::BulkIo;

const CLIENTS: usize = 2;
/// Total storage sites; the last starts in standby, outside the rotation.
const STORAGE: usize = 5;
/// Sites initially in the placement rotation.
const ACTIVE: usize = 4;
/// The standby site that joins mid-run.
const JOINER: usize = 4;
/// The founding site that is drained and retired.
const RETIREE: usize = 1;

fn ms_of(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

fn reconf_config() -> SliceConfig {
    SliceConfig {
        clients: CLIENTS,
        storage_nodes: STORAGE,
        active_storage: Some(ACTIVE),
        // Reconfiguration operates on mirrored coordinator block-map
        // entries, so bulk files must route through the block service
        // with two-way mirrored placement.
        use_block_maps: true,
        mapped_mirror: true,
        retain_data: true,
        record_history: true,
        probe_interval_ms: 500,
        // Wide hot window so the detection pass and the widened read
        // passes land in the same sliding window.
        hot_window_ms: 600_000,
        ..SliceConfig::default()
    }
}

fn build_writers(bytes_per_client: u64) -> Vec<Box<dyn Workload>> {
    (0..CLIENTS)
        .map(|i| {
            Box::new(BulkIo::writer(&format!("rc{i}"), bytes_per_client, true)) as Box<dyn Workload>
        })
        .collect()
}

/// Runs until every client's workload finishes (or `deadline`), checking
/// every few events so sweep churn does not drag simulated time out.
fn run_phase(ens: &mut SliceEnsemble, deadline: SimTime) {
    loop {
        let before = ens.engine.now();
        ens.engine.run_until_idle(64);
        let done = (0..CLIENTS).all(|i| ens.client(i).finished());
        if done || ens.engine.now() >= deadline || ens.engine.now() == before {
            return;
        }
    }
}

/// Advances the engine until no migration intent is pending on any
/// coordinator, returning the time the last one completed.
fn run_until_rebalanced(ens: &mut SliceEnsemble, deadline: SimTime) -> SimTime {
    loop {
        if ens.migrations_pending() == 0 {
            return ens.engine.now();
        }
        let before = ens.engine.now();
        ens.engine.run_until_idle(64);
        if ens.engine.now() >= deadline || ens.engine.now() == before {
            return ens.engine.now();
        }
    }
}

/// Starts a fresh read pass of every client's file on all clients.
fn start_read_pass(ens: &mut SliceEnsemble, bytes_per_client: u64) {
    for i in 0..CLIENTS {
        ens.client_mut(i).set_workload(Box::new(BulkIo::reader(
            &format!("rc{i}"),
            bytes_per_client,
        )));
    }
    for &c in &ens.clients.clone() {
        ens.engine.kick(c);
    }
}

/// p99 latency in microseconds of completed reads begun in `[from, to)`.
fn read_p99_us(ens: &SliceEnsemble, from: SimTime, to: SimTime) -> f64 {
    let mut lats: Vec<u64> = Vec::new();
    for hist in ens.histories() {
        for rec in hist.records() {
            if let (Some(end), "read") = (rec.end, rec.op) {
                if rec.begin >= from && rec.begin < to {
                    lats.push((end - rec.begin).as_nanos());
                }
            }
        }
    }
    if lats.is_empty() {
        return 0.0;
    }
    lats.sort_unstable();
    lats[(lats.len() - 1) * 99 / 100] as f64 / 1e3
}

/// Everything harvested from the reconfiguration timeline.
struct ReconfOut {
    write_done: SimTime,
    hot_file: u64,
    hot_count: u64,
    widen_queued: usize,
    widen_done: SimTime,
    widen_start: SimTime,
    p99_before_us: f64,
    p99_during_us: f64,
    p99_after_us: f64,
    join_queued: usize,
    join_start: SimTime,
    join_done: SimTime,
    drain_queued: usize,
    drain_start: SimTime,
    drain_done: SimTime,
    migrated_bytes: u64,
    widen_bytes: u64,
    join_bytes: u64,
    pinned_entries: u64,
    dirty_left: u64,
    suspected_left: u64,
    timeouts: u64,
}

/// The clean comparison run: same workload, no reconfiguration.
struct BaselineOut {
    write_done: SimTime,
    p99_us: f64,
}

fn run_baseline(bytes_per_client: u64, deadline: SimTime) -> BaselineOut {
    let mut ens = SliceEnsemble::build(&reconf_config(), build_writers(bytes_per_client));
    ens.start();
    run_phase(&mut ens, deadline);
    let write_done = ens.engine.now();
    start_read_pass(&mut ens, bytes_per_client);
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "baseline client {i} stalled");
    }
    BaselineOut {
        write_done,
        p99_us: read_p99_us(&ens, write_done, ens.engine.now()),
    }
}

fn run_reconf_timeline(bytes_per_client: u64, reads: u64, deadline: SimTime) -> ReconfOut {
    let mut ens = SliceEnsemble::build(&reconf_config(), build_writers(bytes_per_client));
    ens.start();

    // Phase 0: write the data set mirrored across the four active sites.
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "writer {i} did not finish");
    }
    let write_done = ens.engine.now();

    // Phase 1: heat the working set — `reads` full passes — and measure
    // the pre-widening p99.
    let before_start = ens.engine.now();
    for _ in 0..reads {
        start_read_pass(&mut ens, bytes_per_client);
        run_phase(&mut ens, deadline);
    }
    let before_end = ens.engine.now();
    let p99_before_us = read_p99_us(&ens, before_start, before_end);

    // Detect the hot set from the µproxy sliding-window trackers.
    let hot = ens.hot_files(1);
    let &(hot_file, hot_count) = hot.first().expect("read passes heated no file");

    // Phase 2: widen the hottest file by one replica per entry; a read
    // pass runs while the copies drain so the "during" p99 includes the
    // migration traffic. Warming replicas stay out of the rotation.
    let widen_start = ens.engine.now();
    let bytes_mark = ens.migrated_bytes();
    let widen_queued = ens.widen_file(hot_file);
    start_read_pass(&mut ens, bytes_per_client);
    run_phase(&mut ens, deadline);
    let during_end = ens.engine.now();
    let p99_during_us = read_p99_us(&ens, widen_start, during_end);
    let widen_done = run_until_rebalanced(&mut ens, deadline);
    let widen_bytes = ens.migrated_bytes() - bytes_mark;
    // The log has drained; flush map caches so readers pick up the new
    // replica for the post-widening pass.
    ens.flush_map_caches();

    // Phase 3: the standby site joins; rebalance runs in the background
    // under a concurrent read pass.
    let join_start = ens.engine.now();
    let bytes_mark = ens.migrated_bytes();
    let join_queued = ens.join_storage_node(JOINER);
    start_read_pass(&mut ens, bytes_per_client);
    run_phase(&mut ens, deadline);
    let join_done = run_until_rebalanced(&mut ens, deadline);
    let join_bytes = ens.migrated_bytes() - bytes_mark;
    ens.flush_map_caches();

    // Phase 4: drain a founding site, wait for its chunks to migrate
    // off, then retire it everywhere (coordinators and µproxies).
    let drain_start = ens.engine.now();
    let drain_queued = ens.drain_storage_node(RETIREE);
    let drain_done = run_until_rebalanced(&mut ens, deadline);
    assert!(
        ens.retire_storage_node(RETIREE),
        "drain did not complete on every coordinator"
    );

    // Phase 5: the post-reconfiguration read pass — the widened replica
    // set now serves, the retiree does not.
    let after_start = ens.engine.now();
    start_read_pass(&mut ens, bytes_per_client);
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "post-reconf reader {i} stalled");
    }
    let p99_after_us = read_p99_us(&ens, after_start, ens.engine.now());

    // Harvest soft-state and client-failure evidence.
    let mut timeouts = 0u64;
    let mut suspected_left = 0u64;
    for i in 0..CLIENTS {
        let client = ens.client(i);
        timeouts += client.stats().timeouts;
        let proxy = client.proxy().expect("embedded proxy");
        suspected_left += proxy.suspected_sites().len() as u64;
    }
    let mut dirty_left = 0u64;
    let mut pinned_entries = 0u64;
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        dirty_left += coord.dirty_log_dump().len() as u64;
        pinned_entries += coord.pinned_entries() as u64;
    }

    ReconfOut {
        write_done,
        hot_file,
        hot_count,
        widen_queued,
        widen_start,
        widen_done,
        p99_before_us,
        p99_during_us,
        p99_after_us,
        join_queued,
        join_start,
        join_done,
        drain_queued,
        drain_start,
        drain_done,
        migrated_bytes: ens.migrated_bytes(),
        widen_bytes,
        join_bytes,
        pinned_entries,
        dirty_left,
        suspected_left,
        timeouts,
    }
}

enum Task {
    Reconf,
    Baseline,
}

enum Out {
    Reconf(Box<ReconfOut>),
    Baseline(BaselineOut),
}

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: reconfigure [--mb N] [--reads R] [--threads T] [--json-out]",
    );
    let mb = args.num("--mb", 24);
    let reads = args.num("--reads", 3);
    let threads = args.threads();
    let bytes_per_client = mb * 1024 * 1024;
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);

    let outs =
        slice_sim::run_indexed(
            threads,
            vec![Task::Reconf, Task::Baseline],
            |_, task| match task {
                Task::Reconf => Out::Reconf(Box::new(run_reconf_timeline(
                    bytes_per_client,
                    reads,
                    deadline,
                ))),
                Task::Baseline => Out::Baseline(run_baseline(bytes_per_client, deadline)),
            },
        );
    let mut outs = outs.into_iter();
    let (Some(Out::Reconf(t)), Some(Out::Baseline(base))) = (outs.next(), outs.next()) else {
        unreachable!("run_indexed merges by input index");
    };

    let widen_ms = ms_of(t.widen_done) - ms_of(t.widen_start);
    let join_ms = ms_of(t.join_done) - ms_of(t.join_start);
    let drain_ms = ms_of(t.drain_done) - ms_of(t.drain_start);
    println!(
        "reconfigure: {CLIENTS} clients x {mb} MiB mirrored on {ACTIVE}/{STORAGE} active sites, \
         {reads} hot read passes"
    );
    println!(
        "  detect: file {} ranked hottest ({} reads in window)",
        t.hot_file, t.hot_count
    );
    println!(
        "  widen: {} entries widened, copies drained in {widen_ms:.2} ms, {} bytes; \
         read p99 {:.0} us before, {:.0} us during, {:.0} us after",
        t.widen_queued, t.widen_bytes, t.p99_before_us, t.p99_during_us, t.p99_after_us
    );
    println!(
        "  join: site {JOINER} entered rotation, {} entries rebalanced in {join_ms:.2} ms, \
         {} bytes migrated",
        t.join_queued, t.join_bytes
    );
    println!(
        "  drain: site {RETIREE} retired, {} entries moved off in {drain_ms:.2} ms; \
         {} dirty ranges left, {} suspected sites left, {} client timeouts",
        t.drain_queued, t.dirty_left, t.suspected_left, t.timeouts
    );
    println!(
        "  baseline (no reconfiguration): writes done at {:.2} ms, read p99 {:.0} us",
        ms_of(base.write_done),
        base.p99_us
    );

    let json = obs_doc(|reg| {
        reg.set_gauge("reconfigure.write_done_ms", ms_of(t.write_done));
        reg.set_gauge("reconfigure.hot_file", t.hot_file as f64);
        reg.set_gauge("reconfigure.hot_reads", t.hot_count as f64);
        reg.set_gauge("reconfigure.widen_entries", t.widen_queued as f64);
        reg.set_gauge("reconfigure.widen_ms", widen_ms);
        reg.set_gauge("reconfigure.widen_bytes", t.widen_bytes as f64);
        reg.set_gauge("reconfigure.p99_before_us", t.p99_before_us);
        reg.set_gauge("reconfigure.p99_during_us", t.p99_during_us);
        reg.set_gauge("reconfigure.p99_after_us", t.p99_after_us);
        reg.set_gauge("reconfigure.join_entries", t.join_queued as f64);
        reg.set_gauge("reconfigure.time_to_rebalance_ms", join_ms);
        reg.set_gauge("reconfigure.join_bytes", t.join_bytes as f64);
        reg.set_gauge("reconfigure.drain_entries", t.drain_queued as f64);
        reg.set_gauge("reconfigure.time_to_drain_ms", drain_ms);
        reg.set_gauge("reconfigure.migrated_bytes", t.migrated_bytes as f64);
        reg.set_gauge("reconfigure.pinned_entries", t.pinned_entries as f64);
        reg.set_gauge("reconfigure.dirty_ranges_left", t.dirty_left as f64);
        reg.set_gauge("reconfigure.suspected_left", t.suspected_left as f64);
        reg.set_gauge("reconfigure.client_timeouts", t.timeouts as f64);
        reg.set_gauge("reconfigure.baseline_write_done_ms", ms_of(base.write_done));
        reg.set_gauge("reconfigure.baseline_p99_us", base.p99_us);
    });
    args.emit("reconfigure", &json);

    // The reconfiguration contract: no client-visible failures, every
    // migration intent drained, and the retiree's soft state purged.
    assert_eq!(t.timeouts, 0, "client ops timed out during reconfiguration");
    assert!(t.widen_queued > 0, "widening queued no migrations");
    assert!(t.join_queued > 0, "join rebalanced no entries");
    assert!(t.drain_queued > 0, "drain moved no entries");
    assert_eq!(t.dirty_left, 0, "dirty ranges left after reconfiguration");
    assert_eq!(
        t.suspected_left, 0,
        "suspicion entries leaked past retirement"
    );
    assert!(t.migrated_bytes > 0, "no bytes migrated");
}
