//! The timeline toolkit: what `availability`, `reconfigure`, `ec` and the
//! failover test share. Each walks one ensemble through ordered phases
//! (write, crash, read, recover, reconfigure) and reads every phase back
//! from the clients' op histories and the coordinator's logs, not from
//! the engine clock: with a site down or migrations queued, the
//! coordinator's sweep keeps the event queue busy long after the last
//! client op.

use slice_core::{SliceEnsemble, Workload};
use slice_sim::SimTime;
use slice_workloads::BulkIo;

/// Simulated milliseconds since time zero.
pub fn ms_of(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

/// One mirrored-or-not bulk writer of `bytes` per client, client `i`
/// writing file `{prefix}{i}`.
pub fn bulk_writers(
    prefix: &str,
    clients: usize,
    bytes: u64,
    mirrored: bool,
) -> Vec<Box<dyn Workload>> {
    (0..clients)
        .map(|i| {
            Box::new(BulkIo::writer(&format!("{prefix}{i}"), bytes, mirrored)) as Box<dyn Workload>
        })
        .collect()
}

/// Starts a read pass on every client: client `i` reads back the `bytes`
/// of file `{prefix}{i}`.
pub fn start_bulk_readers(ens: &mut SliceEnsemble, prefix: &str, bytes: u64) {
    for i in 0..ens.clients.len() {
        ens.start_workload(i, Box::new(BulkIo::reader(&format!("{prefix}{i}"), bytes)));
    }
}

/// Steps the engine 64 events at a time until `done` holds, `deadline`
/// passes or simulated time stops advancing. Checking between short
/// slices keeps background sweep and probe churn from carrying simulated
/// time far past the moment `done` became true.
pub fn run_until(
    ens: &mut SliceEnsemble,
    deadline: SimTime,
    done: impl Fn(&SliceEnsemble) -> bool,
) {
    loop {
        let before = ens.engine.now();
        ens.engine.run_until_idle(64);
        if done(ens) || ens.engine.now() >= deadline || ens.engine.now() == before {
            return;
        }
    }
}

/// Runs one phase: until every client's workload finishes (see
/// [`run_until`]). Returns whether they all did.
pub fn run_phase(ens: &mut SliceEnsemble, deadline: SimTime) -> bool {
    let all_done = |e: &SliceEnsemble| (0..e.clients.len()).all(|i| e.client(i).finished());
    run_until(ens, deadline, all_done);
    all_done(ens)
}

/// The completed ops of a window of the clients' histories.
#[derive(Debug, Clone, Copy)]
pub struct Ops {
    /// Mean latency, microseconds (0 with no op).
    pub mean_us: f64,
    /// 99th-percentile latency, microseconds (0 with no op).
    pub p99_us: f64,
    /// The latest completion (time zero with no op).
    pub last_end: SimTime,
}

/// Reads the completed ops named `op` (every op for `None`) that began
/// in `[from, to)`, over every client's history.
pub fn ops(ens: &SliceEnsemble, op: Option<&str>, from: SimTime, to: SimTime) -> Ops {
    let mut lats: Vec<u64> = Vec::new();
    let mut last_end = SimTime::ZERO;
    for hist in ens.histories() {
        for rec in hist.records() {
            let Some(end) = rec.end else { continue };
            if op.is_some_and(|op| op != rec.op) || rec.begin < from || rec.begin >= to {
                continue;
            }
            lats.push((end - rec.begin).as_nanos());
            last_end = last_end.max(end);
        }
    }
    if lats.is_empty() {
        return Ops {
            mean_us: 0.0,
            p99_us: 0.0,
            last_end,
        };
    }
    let mean_us = lats.iter().sum::<u64>() as f64 / lats.len() as f64 / 1e3;
    lats.sort_unstable();
    Ops {
        mean_us,
        p99_us: lats[(lats.len() - 1) * 99 / 100] as f64 / 1e3,
        last_end,
    }
}

/// Bytes the coordinator's resyncs copied back to storage site `site`,
/// and when the last of them finished.
pub fn resync_of(ens: &SliceEnsemble, site: usize) -> (u64, Option<SimTime>) {
    let mut out = (0, None);
    for &(s, _start, done, bytes) in ens.coord().resync_history() {
        if s as usize == site {
            out.0 += bytes;
            out.1 = out.1.max(Some(done));
        }
    }
    out
}

/// Runs `a` and `b`, two independent ensembles, on two threads when
/// `threads` allows it, and returns both results.
pub fn join<A: Send, B: Send>(
    threads: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if threads <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let b = s.spawn(b);
        let a = a();
        (a, b.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    })
}
