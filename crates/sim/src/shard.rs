//! The engine's one window loop.
//!
//! Every run — `run_until`, `run_until_idle`, at any shard count — is
//! [`WorkerPool::run`] driving each [`Shard`] through [`run_shard`], a
//! sequence of lock-step *windows*. A serial engine is the one-shard case
//! of the same loop, not a path beside it: its pool spawns no thread, its
//! barrier has one participant and returns at once, it has no mailboxes
//! to exchange, and the adaptive-widening rule below — a lone active
//! shard may run to the others' earliest event, of which there are none —
//! is what makes an unbudgeted serial `run_until` a single window to the
//! horizon. With several shards each runs on its own OS thread. Each
//! iteration:
//!
//! 1. every shard publishes its earliest pending event time; a barrier
//!    makes all publications visible;
//! 2. every shard independently computes the same global minimum `w0` and
//!    the same stop decision (idle, dispatch budget spent, or horizon
//!    reached) — no coordinator thread exists;
//! 3. every shard runs its events in `[w0, w0 + lookahead)`, which is safe
//!    because no event inside the window can affect another shard earlier
//!    than the window's end (the lookahead is the network's minimum
//!    hop latency);
//! 4. outgoing cross-shard events are deposited into per-`(dst, src)`
//!    mailboxes, a second barrier closes the window, and each shard drains
//!    its own mailboxes in source order. Keys travel with the events, so
//!    the destination heap orders them exactly as a serial run would.
//!
//! A *budgeted* run (`run_until_idle(n)`) keeps every window at the
//! conservative lookahead width and checks the budget between windows
//! only, so it stops after the same event count at any shard count. Its
//! callers are probe loops that step the ensemble a few events at a time
//! and inspect it in between: the `availability` and `reconfigure`
//! benches, `bench/tests/failover.rs`, this crate's tests and the
//! benchmark's `budgeted_ns_per_event` probe.
//!
//! The pool's worker threads are *persistent*: a run hands each worker its
//! shard over a channel and receives it back when the run completes.
//! Those probe loops would otherwise pay a thread spawn and join per
//! call, which dwarfs the windows themselves.
//!
//! The barrier is a sense-reversing spin barrier: windows are microseconds
//! of simulated time and often tens of microseconds of real work, so a
//! waiter first spins. When the spin budget runs out it *parks* and the
//! releasing thread unparks it directly — never `yield_now`: with more
//! runnable threads than cores, CFS treats `sched_yield` from the
//! lowest-vruntime thread as a no-op, and a yield loop burns the whole
//! timeslice the laggard needed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::engine::{Cross, MessageSize, Shard};
use crate::time::{SimDuration, SimTime};

/// A sense-reversing spin-then-park barrier for a fixed set of
/// participants.
pub(crate) struct SpinBarrier {
    n: usize,
    /// Spin iterations before parking. When the host cannot run all
    /// participants concurrently (fewer cores than shards), spinning only
    /// delays the thread whose turn it is — so the limit drops to near
    /// zero and waiters go straight to the parking lot.
    spin_limit: u32,
    count: AtomicUsize,
    sense: AtomicBool,
    /// Per-participant parking slots: a waiter publishes its thread
    /// handle here before parking; the releasing thread takes and
    /// unparks every published handle after flipping the sense.
    parked: Vec<Mutex<Option<std::thread::Thread>>>,
}

impl SpinBarrier {
    pub(crate) fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        SpinBarrier {
            n,
            spin_limit: if cores >= n { 1 << 14 } else { 1 << 4 },
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            parked: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Blocks until all `n` participants have called `wait`. Each caller
    /// owns a `local_sense` flag (initially `false`) that the barrier
    /// flips per round; reuse across rounds is what makes the barrier
    /// safely reusable without a second counter. Because every
    /// participant passes the same number of rounds per run, the flags
    /// stay in lockstep across runs as well.
    ///
    /// `me` is the caller's participant index, naming its parking slot.
    pub(crate) fn wait(&self, me: usize, local_sense: &mut bool) {
        if self.n == 1 {
            return;
        }
        *local_sense = !*local_sense;
        let target = *local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
            for slot in &self.parked {
                if let Some(t) = slot.lock().expect("parking slot").take() {
                    t.unpark();
                }
            }
        } else {
            // A short yield tier sits between spinning and parking: when
            // the scheduler does run the laggard on a yield (the common
            // oversubscribed-but-alternating case), that is far cheaper
            // than a park/unpark futex round-trip. CFS can also treat
            // `sched_yield` as a no-op (lowest-vruntime yielder), so the
            // tier is kept short and parking is the backstop.
            const YIELD_LIMIT: u32 = 64;
            let mut spins: u32 = 0;
            loop {
                if self.sense.load(Ordering::Acquire) == target {
                    break;
                }
                spins = spins.saturating_add(1);
                if spins < self.spin_limit {
                    std::hint::spin_loop();
                    continue;
                }
                if spins < self.spin_limit.saturating_add(YIELD_LIMIT) {
                    std::thread::yield_now();
                    continue;
                }
                // Publish-then-recheck avoids the lost wakeup: the
                // releaser flips the sense before sweeping the slots, so
                // a waiter that misses the sweep sees the flip here. A
                // stale unpark token merely makes one `park` return
                // early — the loop re-checks and parks again. The
                // timeout is a belt-and-braces bound, not the protocol.
                *self.parked[me].lock().expect("parking slot") = Some(std::thread::current());
                if self.sense.load(Ordering::Acquire) == target {
                    self.parked[me].lock().expect("parking slot").take();
                    break;
                }
                std::thread::park_timeout(std::time::Duration::from_millis(1));
            }
        }
    }
}

/// State shared by every participant of a pool, reused across runs. The
/// mailboxes are provably empty between runs: the window loop drains
/// every mailbox right after the barrier that closes the window in which
/// it was filled, and the stop decision happens before any deposit.
struct Shared<M> {
    barrier: SpinBarrier,
    mins: Vec<AtomicU64>,
    counts: Vec<AtomicU64>,
    mailboxes: Vec<Vec<Mutex<Vec<Cross<M>>>>>,
    /// Lifetime windows executed (counted by shard 0).
    windows: AtomicU64,
    /// Lifetime barrier crossings (counted by shard 0): two per executed
    /// window plus one for the terminating round of each run; none when
    /// the barrier has a single participant.
    barrier_rounds: AtomicU64,
}

/// A thread-local statistics snapshot function, run by each worker
/// around its shard's run so per-thread counters can be harvested as
/// deltas (see [`crate::engine::Engine::set_payload_probe`]).
pub(crate) type Probe = Arc<dyn Fn() -> (u64, u64, u64) + Send + Sync>;

/// One run's work order for a worker: its shard (ownership moves to the
/// worker for the duration of the run) and the run bounds.
struct Job<M> {
    shard: Shard<M>,
    limit: u64,
    until_ns: u64,
    probe: Option<Probe>,
}

/// A worker's reply: the shard back, plus this run's thread-local payload
/// statistics delta (measured around the run, so persistent workers do
/// not double-count earlier runs).
type Done<M> = (usize, Shard<M>, (u64, u64, u64));

/// One shard's window loop; all shards run this same function.
///
/// `mins` and `counts` are written with relaxed ordering — the barriers
/// between a write and the reads of it provide the happens-before edge.
#[allow(clippy::too_many_arguments)]
fn run_shard<M: MessageSize + Clone + Send + 'static>(
    shard: &mut Shard<M>,
    me: usize,
    nshards: usize,
    limit: u64,
    until_ns: u64,
    lookahead: SimDuration,
    shared: &Shared<M>,
    sense: &mut bool,
) {
    let (mins, counts) = (&shared.mins, &shared.counts);
    // This shard's cumulative dispatch count, published into `counts[me]`
    // only *before* the barrier. Each slot is single-writer and frozen
    // while decisions are read, so every shard sums identical snapshots.
    // (Updating the slot mid-window instead would race the decision: a
    // fast shard's in-window increment could push a slow shard's sum over
    // `limit`, making it break while the fast shard waits at the second
    // barrier forever.)
    let mut my_done: u64 = 0;
    // Shard 0 keeps the pool's statistics; a lone shard crosses no barrier.
    let count_rounds = me == 0 && nshards > 1;
    loop {
        mins[me].store(
            shard.next_time().map_or(u64::MAX, |t| t.as_nanos()),
            Ordering::Relaxed,
        );
        counts[me].store(my_done, Ordering::Relaxed);
        shared.barrier.wait(me, sense);
        if count_rounds {
            shared.barrier_rounds.fetch_add(1, Ordering::Relaxed);
        }
        // Every shard computes the same w0 and the same stop decision from
        // the same published values, so all break together — no extra
        // barrier needed on exit.
        let w0 = mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .expect("at least one shard");
        let done: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if w0 == u64::MAX || done >= limit || w0 > until_ns {
            break;
        }
        if me == 0 {
            shared.windows.fetch_add(1, Ordering::Relaxed);
        }
        let conservative = w0.saturating_add(lookahead.as_nanos());
        let mut w1 = conservative;
        // Adaptive widening: when exactly one shard has work inside the
        // conservative window, nothing another shard does can influence
        // the run before its own earliest event — so the active shard may
        // run ahead to the others' earliest time (every shard computes the
        // same w1 from the same frozen mins, so the lock-step is kept).
        // Safety rests on the dynamic cap inside run_window: the moment
        // the active shard deposits a cross-shard event at time `t` it
        // stops before `t + lookahead`, i.e. before any reaction to that
        // deposit could reach it. On a one-shard engine the lone shard is
        // always the active one and `others_min` is the end of time: the
        // whole run is one window. Budgeted runs keep the conservative
        // width so the budget is spent at the same window granularity at
        // every shard count.
        if limit == u64::MAX {
            let mut active = 0usize;
            let mut others_min = u64::MAX;
            for m in mins {
                let v = m.load(Ordering::Relaxed);
                if v < conservative {
                    active += 1;
                } else {
                    others_min = others_min.min(v);
                }
            }
            if active == 1 {
                w1 = w1.max(others_min);
            }
        }
        let w1 = w1.min(until_ns.saturating_add(1));
        let n = shard.run_window(SimTime::from_nanos(w1));
        my_done += n;
        for dst in 0..nshards {
            if dst == me {
                continue;
            }
            let batch = shard.drain_outbox(dst);
            if !batch.is_empty() {
                shared.mailboxes[dst][me]
                    .lock()
                    .expect("mailbox")
                    .extend(batch);
            }
        }
        shared.barrier.wait(me, sense);
        if count_rounds {
            shared.barrier_rounds.fetch_add(1, Ordering::Relaxed);
        }
        for src in 0..nshards {
            if src == me {
                continue;
            }
            let batch = std::mem::take(&mut *shared.mailboxes[me][src].lock().expect("mailbox"));
            for c in batch {
                shard.push_cross(c);
            }
        }
    }
}

/// Persistent worker threads for an engine's shards `1..n` (none on a
/// one-shard engine); shard 0 always runs on the calling thread. Created
/// on the first run and kept for the engine's lifetime.
pub(crate) struct WorkerPool<M> {
    n: usize,
    lookahead: SimDuration,
    shared: Arc<Shared<M>>,
    /// `job_tx[w]` feeds the worker owning shard `w + 1`.
    job_tx: Vec<Sender<Job<M>>>,
    done_rx: Receiver<Done<M>>,
    /// Shard 0's barrier sense, persisted across runs like the workers'.
    caller_sense: bool,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<M: MessageSize + Clone + Send + 'static> WorkerPool<M> {
    pub(crate) fn new(n: usize, lookahead: SimDuration) -> Self {
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(n),
            mins: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            windows: AtomicU64::new(0),
            barrier_rounds: AtomicU64::new(0),
        });
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Done<M>>();
        let mut job_tx = Vec::with_capacity(n - 1);
        let mut handles = Vec::with_capacity(n - 1);
        for w in 0..n - 1 {
            let me = w + 1;
            let (tx, rx) = std::sync::mpsc::channel::<Job<M>>();
            job_tx.push(tx);
            let shared = Arc::clone(&shared);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut sense = false;
                while let Ok(job) = rx.recv() {
                    let Job {
                        mut shard,
                        limit,
                        until_ns,
                        probe,
                    } = job;
                    let before = probe.as_ref().map_or((0, 0, 0), |p| p());
                    run_shard(
                        &mut shard, me, n, limit, until_ns, lookahead, &shared, &mut sense,
                    );
                    let delta = probe.map_or((0, 0, 0), |p| {
                        let after = p();
                        (
                            after.0.saturating_sub(before.0),
                            after.1.saturating_sub(before.1),
                            after.2.saturating_sub(before.2),
                        )
                    });
                    if done_tx.send((me, shard, delta)).is_err() {
                        break;
                    }
                }
            }));
        }
        WorkerPool {
            n,
            lookahead,
            shared,
            job_tx,
            done_rx,
            caller_sense: false,
            handles,
        }
    }

    /// Runs all shards in lock-step until idle, the dispatch budget `limit`
    /// is spent, or the horizon passes `until`. Shards `1..n` are handed
    /// to the pool's workers and collected back before returning; `shards`
    /// is restored to its original order. Returns the number of events
    /// dispatched and the payload statistics harvested from the workers.
    pub(crate) fn run(
        &mut self,
        shards: &mut Vec<Shard<M>>,
        limit: u64,
        until: Option<SimTime>,
        probe: Option<&Probe>,
    ) -> (u64, (u64, u64, u64)) {
        debug_assert_eq!(shards.len(), self.n, "pool sized for this engine");
        let until_ns = until.map_or(u64::MAX, |t| t.as_nanos());
        for c in &self.shared.counts {
            c.store(0, Ordering::Relaxed);
        }
        for (w, shard) in shards.drain(1..).enumerate() {
            self.job_tx[w]
                .send(Job {
                    shard,
                    limit,
                    until_ns,
                    probe: probe.cloned(),
                })
                .expect("pool worker alive");
        }
        run_shard(
            &mut shards[0],
            0,
            self.n,
            limit,
            until_ns,
            self.lookahead,
            &self.shared,
            &mut self.caller_sense,
        );
        let mut returned: Vec<Option<Shard<M>>> = (1..self.n).map(|_| None).collect();
        let mut payload = (0u64, 0u64, 0u64);
        for _ in 1..self.n {
            let (me, shard, delta) = self.done_rx.recv().expect("pool worker alive");
            returned[me - 1] = Some(shard);
            payload.0 += delta.0;
            payload.1 += delta.1;
            payload.2 += delta.2;
        }
        for s in returned {
            shards.push(s.expect("every worker returned its shard"));
        }
        let total = self
            .shared
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        (total, payload)
    }

    /// Lifetime window-loop iterations across all runs of this pool.
    pub(crate) fn windows(&self) -> u64 {
        self.shared.windows.load(Ordering::Relaxed)
    }

    /// Lifetime barrier crossings across all runs of this pool.
    pub(crate) fn barrier_rounds(&self) -> u64 {
        self.shared.barrier_rounds.load(Ordering::Relaxed)
    }
}

impl<M> Drop for WorkerPool<M> {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.job_tx.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(THREADS);
        let phase = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for me in 0..THREADS {
                let (barrier, phase) = (&barrier, &phase);
                scope.spawn(move || {
                    let mut sense = false;
                    for round in 0..ROUNDS {
                        // Everyone must observe the phase of the current
                        // round — a broken barrier would let a fast thread
                        // race ahead and bump it early.
                        assert_eq!(phase.load(Ordering::SeqCst) as usize, round);
                        barrier.wait(me, &mut sense);
                        phase
                            .compare_exchange(
                                round as u32,
                                round as u32 + 1,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .ok();
                        barrier.wait(me, &mut sense);
                    }
                });
            }
        });
        assert_eq!(phase.load(Ordering::SeqCst) as usize, ROUNDS);
    }
}
