//! `availability` — slice-ha failover / degraded-write / resync timeline.
//!
//! Runs a mirrored bulk workload and walks one storage node through the
//! full availability cycle: crash mid-write (degraded writes at reduced
//! redundancy), a read pass with the node still down (every read of a
//! chunk mirrored on the victim fails over), online resynchronization
//! after recovery, and a final read pass in which the µproxy's probes
//! clear the suspicion and the recovered mirror rejoins the rotation.
//!
//! Reports the timeline as slice-obs gauges: time from crash to µproxy
//! suspicion (failover), the degraded-write window and its latency cost,
//! resync duration and bytes copied, and the bytes the recovered node
//! served after rejoining. All times come from the op histories and the
//! suspicion/resync logs, not the engine clock: with a node down, open
//! intentions keep the coordinator sweep probing, so idle-draining the
//! queue advances simulated time far past the last client op.
//! Deterministic: identical arguments yield a byte-identical report.
//!
//! The four crash-timeline phases share one ensemble and are strictly
//! ordered, so they cannot fan out; what does run in parallel is the
//! independent ensembles: the timeline at every crash instant (on
//! slice-par) and, beside them, the clean baseline — an uncrashed run of
//! the same write workload, used for the undegraded write-latency and
//! completion-time comparison gauges.
//!
//! Usage: `availability [--mb N] [--crash-ms T] [--grid-ms A,B,...]
//! [--threads T] [--json-out]` (defaults: 48 MiB per client,
//! crash at 100 ms, grid 50,150,400,800 ms, threads = available
//! parallelism). Besides the primary `--crash-ms` point, the
//! bench replays the crash timeline at every `--grid-ms` instant and
//! emits the degraded-window curve — how failover time, degraded writes,
//! and their latency cost vary with where in the write stream the crash
//! lands — as `availability.grid.<ms>.*` gauges (`--grid-ms 0` disables
//! the grid).

use slice_bench::obs_doc;
use slice_bench::timeline::{
    bulk_writers, join, ms_of, ops, resync_of, run_phase, start_bulk_readers,
};
use slice_core::actors::StorageActor;
use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_sim::{SimDuration, SimTime};

const CLIENTS: usize = 2;
/// The storage site the bench crashes.
const VICTIM: usize = 0;

fn at_ms(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

fn ha_ensemble(bytes_per_client: u64) -> SliceEnsemble {
    let cfg = SliceConfig {
        clients: CLIENTS,
        retain_data: true,
        record_history: true,
        // Fast probe cadence so the recovered mirror rejoins within the
        // final read pass.
        probe_interval_ms: 500,
        ..SliceConfig::default()
    };
    let mut ens = SliceEnsemble::build(&cfg, bulk_writers("ha", CLIENTS, bytes_per_client, true));
    ens.start();
    ens
}

/// Everything harvested from the crash timeline, so the run can execute
/// on a slice-par worker and be reported from the main thread.
struct CrashOut {
    write_done: SimTime,
    read_down_done: SimTime,
    recover_at: SimTime,
    read_back_done: SimTime,
    suspected_at: Option<SimTime>,
    cleared_at: Option<SimTime>,
    resync_done: Option<SimTime>,
    resync_bytes: u64,
    dirty_after_write: u64,
    dirty_left: u64,
    read_failovers: u64,
    degraded_writes: u64,
    degraded_bytes: u64,
    probes_sent: u64,
    timeouts: u64,
    victim_read_bytes: u64,
    /// Mean latency of the writes begun before the crash, µs.
    normal_us: f64,
    /// Mean latency of the writes begun between the crash and the end of
    /// the write phase, µs.
    degraded_us: f64,
}

/// The clean-baseline comparison run: same write workload, no crash.
struct BaselineOut {
    write_done: SimTime,
    write_us: f64,
}

/// Uncrashed run of the same mirrored write workload.
fn run_clean_baseline(bytes_per_client: u64, deadline: SimTime) -> BaselineOut {
    let mut ens = ha_ensemble(bytes_per_client);
    assert!(
        run_phase(&mut ens, deadline),
        "baseline writers did not finish"
    );
    BaselineOut {
        write_done: ops(&ens, None, SimTime::ZERO, SimTime::MAX).last_end,
        write_us: ops(&ens, Some("write"), SimTime::ZERO, SimTime::MAX).mean_us,
    }
}

/// The full four-phase crash/degrade/resync/rejoin timeline.
fn run_crash_timeline(bytes_per_client: u64, crash_ms: u64, deadline: SimTime) -> CrashOut {
    let mut ens = ha_ensemble(bytes_per_client);
    let since = |ens: &SliceEnsemble, t| ops(ens, None, t, SimTime::MAX).last_end;

    // Phase 1: crash the victim mid-write; writers finish degraded.
    let crash_at = at_ms(crash_ms);
    ens.engine.run_until(crash_at);
    ens.engine.fail_node(ens.storage[VICTIM]);
    assert!(run_phase(&mut ens, deadline), "writers did not finish");
    let write_done = since(&ens, SimTime::ZERO);
    let dirty_after_write = ens.coord().dirty_log_dump().len() as u64;

    // Phase 2: read it all back with the victim still down.
    let read_down_start = ens.engine.now();
    start_bulk_readers(&mut ens, "ha", bytes_per_client);
    assert!(run_phase(&mut ens, deadline), "down-readers did not finish");
    let read_down_done = since(&ens, read_down_start);

    // Phase 3: recover the victim; the coordinator sweep drives resync
    // with no client traffic in flight.
    let recover_at = ens.engine.now();
    ens.recover_storage_node(VICTIM);
    ens.engine
        .run_until(recover_at + SimDuration::from_secs(30));
    let victim_reads = |ens: &SliceEnsemble| {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[VICTIM]).node;
        node.store().io_stats().1
    };
    let victim_reads_before = victim_reads(&ens);

    // Phase 4: read again; ticks probe the suspected site, the clean
    // verdict readmits it, and the tail of the pass reads from it.
    let read_back_start = ens.engine.now();
    start_bulk_readers(&mut ens, "ha", bytes_per_client);
    assert!(run_phase(&mut ens, deadline), "back-readers did not finish");
    let read_back_done = since(&ens, read_back_start);

    // Harvest the timeline.
    let mut suspected_at: Option<SimTime> = None;
    let mut cleared_at: Option<SimTime> = None;
    let mut read_failovers = 0u64;
    let mut degraded_writes = 0u64;
    let mut degraded_bytes = 0u64;
    let mut probes_sent = 0u64;
    let mut timeouts = 0u64;
    for i in 0..CLIENTS {
        let client = ens.client(i);
        timeouts += client.stats().timeouts;
        let proxy = client.proxy().expect("embedded proxy");
        for &(t, site, sus) in proxy.suspicion_log() {
            if site as usize != VICTIM {
                continue;
            }
            if sus {
                suspected_at = Some(suspected_at.map_or(t, |s| s.min(t)));
            } else {
                cleared_at = Some(cleared_at.map_or(t, |s| s.max(t)));
            }
        }
        let (fo, dw, db, pr) = proxy.ha_stats();
        read_failovers += fo;
        degraded_writes += dw;
        degraded_bytes += db;
        probes_sent += pr;
    }
    let (resync_bytes, resync_done) = resync_of(&ens, VICTIM);

    CrashOut {
        write_done,
        read_down_done,
        recover_at,
        read_back_done,
        suspected_at,
        cleared_at,
        resync_done,
        resync_bytes,
        dirty_after_write,
        dirty_left: ens.coord().dirty_log_dump().len() as u64,
        read_failovers,
        degraded_writes,
        degraded_bytes,
        probes_sent,
        timeouts,
        victim_read_bytes: victim_reads(&ens) - victim_reads_before,
        // Degraded-window write latency vs the pre-crash baseline.
        normal_us: ops(&ens, Some("write"), SimTime::ZERO, crash_at).mean_us,
        degraded_us: ops(&ens, Some("write"), crash_at, write_done).mean_us,
    }
}

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: availability [--mb N] [--crash-ms T] [--grid-ms A,B,...] [--threads T] \
         [--json-out]",
    );
    let mb = args.num("--mb", 48);
    let crash_ms = args.num("--crash-ms", 100);
    let grid_ms = args.list("--grid-ms", &[50, 150, 400, 800]);
    let threads = args.threads();
    let bytes_per_client = mb * 1024 * 1024;
    let deadline = at_ms(600_000);

    // The primary crash, then one replay per grid instant, beside the
    // clean baseline.
    let crashes: Vec<u64> = std::iter::once(crash_ms)
        .chain(grid_ms.iter().copied())
        .collect();
    let (mut runs, base) = join(
        threads,
        || {
            slice_sim::run_indexed(threads, crashes, |_, ms| {
                run_crash_timeline(bytes_per_client, ms, deadline)
            })
        },
        || run_clean_baseline(bytes_per_client, deadline),
    );
    let t = runs.remove(0);
    let grid: Vec<(u64, CrashOut)> = grid_ms.into_iter().zip(runs).collect();

    let failover_ms = t.suspected_at.map(|s| ms_of(s) - crash_ms as f64);
    let resync_ms = t.resync_done.map(|d| ms_of(d) - ms_of(t.recover_at));
    println!(
        "availability: {CLIENTS} clients x {mb} MiB mirrored, storage site {VICTIM} \
         crashed at {crash_ms} ms"
    );
    println!(
        "  failover: suspected +{:.2} ms after crash, {} read failovers, {} probes",
        failover_ms.unwrap_or(f64::NAN),
        t.read_failovers,
        t.probes_sent
    );
    println!(
        "  degraded: {} writes / {} bytes at reduced redundancy, {} dirty ranges logged, \
         write latency {:.0} us vs {:.0} us baseline",
        t.degraded_writes, t.degraded_bytes, t.dirty_after_write, t.degraded_us, t.normal_us
    );
    println!(
        "  resync: {} bytes copied, done +{:.2} ms after recovery, {} dirty ranges left",
        t.resync_bytes,
        resync_ms.unwrap_or(f64::NAN),
        t.dirty_left
    );
    println!(
        "  rejoin: cleared +{:.2} ms after recovery, recovered node served {} bytes of \
         reads, {} client timeouts",
        t.cleared_at
            .map(|c| ms_of(c) - ms_of(t.recover_at))
            .unwrap_or(f64::NAN),
        t.victim_read_bytes,
        t.timeouts
    );
    println!(
        "  clean baseline: writes done at {:.2} ms (vs {:.2} ms crashed), \
         write latency {:.0} us",
        ms_of(base.write_done),
        ms_of(t.write_done),
        base.write_us
    );
    if !grid.is_empty() {
        println!("  degraded-window curve (crash instant sweep):");
        for (ms, g) in &grid {
            println!(
                "    crash@{ms} ms: failover +{:.2} ms, {} degraded writes at {:.0} us \
                 (vs {:.0} us normal), window {:.2} ms, {} resync bytes",
                g.suspected_at
                    .map(|s| ms_of(s) - *ms as f64)
                    .unwrap_or(f64::NAN),
                g.degraded_writes,
                g.degraded_us,
                g.normal_us,
                ms_of(g.write_done) - *ms as f64,
                g.resync_bytes
            );
        }
    }

    let json = obs_doc(|reg| {
        reg.set_gauge("availability.crash_ms", crash_ms as f64);
        reg.set_gauge("availability.write_done_ms", ms_of(t.write_done));
        reg.set_gauge("availability.read_down_done_ms", ms_of(t.read_down_done));
        reg.set_gauge("availability.recover_ms", ms_of(t.recover_at));
        reg.set_gauge("availability.read_back_done_ms", ms_of(t.read_back_done));
        reg.set_gauge(
            "availability.suspected_ms",
            t.suspected_at.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.time_to_failover_ms",
            failover_ms.unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.cleared_ms",
            t.cleared_at.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge(
            "availability.resync_done_ms",
            t.resync_done.map(ms_of).unwrap_or(-1.0),
        );
        reg.set_gauge("availability.time_to_resync_ms", resync_ms.unwrap_or(-1.0));
        reg.set_gauge("availability.resync_bytes", t.resync_bytes as f64);
        reg.set_gauge(
            "availability.dirty_ranges_logged",
            t.dirty_after_write as f64,
        );
        reg.set_gauge("availability.dirty_ranges_left", t.dirty_left as f64);
        reg.set_gauge("availability.read_failovers", t.read_failovers as f64);
        reg.set_gauge("availability.degraded_writes", t.degraded_writes as f64);
        reg.set_gauge("availability.degraded_bytes", t.degraded_bytes as f64);
        reg.set_gauge("availability.probes_sent", t.probes_sent as f64);
        reg.set_gauge("availability.client_timeouts", t.timeouts as f64);
        reg.set_gauge("availability.write_latency_normal_us", t.normal_us);
        reg.set_gauge("availability.write_latency_degraded_us", t.degraded_us);
        reg.set_gauge(
            "availability.recovered_read_bytes",
            t.victim_read_bytes as f64,
        );
        reg.set_gauge(
            "availability.baseline_write_done_ms",
            ms_of(base.write_done),
        );
        reg.set_gauge("availability.write_latency_clean_us", base.write_us);
        // The degraded-window curve: one gauge family per crash instant.
        for (ms, g) in &grid {
            let tag = format!("availability.grid.{ms}");
            reg.set_gauge(
                &format!("{tag}.time_to_failover_ms"),
                g.suspected_at
                    .map(|s| ms_of(s) - *ms as f64)
                    .unwrap_or(-1.0),
            );
            reg.set_gauge(
                &format!("{tag}.degraded_window_ms"),
                ms_of(g.write_done) - *ms as f64,
            );
            reg.set_gauge(&format!("{tag}.degraded_writes"), g.degraded_writes as f64);
            reg.set_gauge(&format!("{tag}.degraded_bytes"), g.degraded_bytes as f64);
            reg.set_gauge(&format!("{tag}.write_latency_degraded_us"), g.degraded_us);
            reg.set_gauge(&format!("{tag}.write_latency_normal_us"), g.normal_us);
            reg.set_gauge(&format!("{tag}.resync_bytes"), g.resync_bytes as f64);
            reg.set_gauge(&format!("{tag}.client_timeouts"), g.timeouts as f64);
        }
    });
    args.emit("availability", &json);

    // The availability contract: no client-visible failures, failover
    // within five retransmission timeouts, and a drained dirty log.
    assert_eq!(t.timeouts, 0, "client ops timed out during the cycle");
    assert!(
        failover_ms.is_some_and(|f| f < 4000.0),
        "failover took {failover_ms:?} ms (budget 5 x 800 ms)"
    );
    assert_eq!(t.dirty_left, 0, "resync left dirty ranges behind");
    assert!(
        t.victim_read_bytes > 0,
        "recovered node served no reads after rejoining"
    );
}
