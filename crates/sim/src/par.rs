//! slice-par — a deterministic parallel scenario runtime.
//!
//! Every verification and benchmark harness in this repository sweeps a
//! grid of *independent* scenarios: checker seeds, chaos schedules, untar
//! configurations, figure cells. Each scenario builds its own engine and
//! shares no mutable state with its neighbours, so the grid is
//! embarrassingly parallel — but the reports derived from it must stay
//! **byte-identical for any thread count, including 1**, because CI
//! `cmp`s the JSON outputs as a correctness oracle.
//!
//! [`run_indexed`] delivers both properties:
//!
//! * **Work distribution** — workers pull `(index, item)` pairs one at a
//!   time from one shared iterator, so a slow item holds up only the
//!   worker running it.
//! * **Determinism** — each worker keeps its `(index, result)` pairs and
//!   the merge sorts them by index, so results come back strictly in
//!   input order. As long as the job function is a pure function of
//!   `(index, item)` — true for every scenario runner here, which builds
//!   a fresh engine per call — the merged output cannot depend on
//!   scheduling.
//! * **Panic propagation** — a panicking job raises a stop flag (the other
//!   workers finish the item they hold and claim no more), the scope
//!   joins everyone, and the panic payload is re-raised on the caller's
//!   thread. No deadlock, no swallowed failures.
//!
//! `threads <= 1` (or fewer than two items) short-circuits to a plain
//! sequential loop on the caller's thread — the parallel machinery is
//! never even constructed, which makes "threads=1 equals the old serial
//! path" true by inspection, not just by test.
//!
//! The payload copy counters in `slice-nfsproto` are thread-local (see
//! `ByteBuf` docs), and a scenario runs entirely on one worker thread, so
//! a before/after delta around a run is that run's own copy traffic at
//! any thread count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The default worker count for `--threads`: the host's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `job(index, item)` for every item, using up to `threads` worker
/// threads, and returns the results **in input order**.
///
/// `job` must be a pure function of its arguments for the output to be
/// thread-count-invariant; every scenario runner in this repository
/// qualifies (fresh engine per call, no shared mutable state).
///
/// # Panics
///
/// Re-raises a job's panic on the calling thread after all workers have
/// stopped (the first worker's, should several panic; items not yet
/// claimed are abandoned).
pub fn run_indexed<T, R, F>(threads: usize, items: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| job(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let stop = AtomicBool::new(false);
    let worker = || -> Result<Vec<(usize, R)>, Box<dyn Any + Send>> {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let Some((i, item)) = queue.lock().expect("queue lock").next() else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| job(i, item))) {
                Ok(r) => done.push((i, r)),
                Err(p) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(p);
                }
            }
        }
        Ok(done)
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n)).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker catches its jobs' panics"))
            .collect()
    });
    let mut results = Vec::with_capacity(n);
    for outcome in outcomes {
        match outcome {
            Ok(done) => results.extend(done),
            Err(p) => resume_unwind(p),
        }
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_input_ordered_and_thread_count_invariant() {
        let items: Vec<u64> = (0..64).collect();
        let serial = run_indexed(1, items.clone(), |i, x| format!("{i}:{}", x * x));
        for threads in [2, 3, 8, 64] {
            let par = run_indexed(threads, items.clone(), |i, x| format!("{i}:{}", x * x));
            assert_eq!(serial, par, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(8, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_indexed(32, vec![10u32, 20, 30], |i, x| x + i as u32);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        // Silence the default panic hook for the intentional panic so the
        // test log stays clean; restored before asserting.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(4, (0..100u32).collect(), |_, x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        std::panic::set_hook(prev);
        let err = caught.expect_err("panic must propagate to the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(msg.contains("boom at 17"), "unexpected payload: {msg}");
    }

    #[test]
    fn a_panicking_item_stops_further_claims() {
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked = AtomicBool::new(false);
        let started = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, (0..64u32).collect(), |_, x| {
                started.fetch_add(1, Ordering::SeqCst);
                if x == 0 {
                    panicked.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                // Slow: still running when item 0 panics, and finishing
                // long after the worker that ran it has raised the stop.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !panicked.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(50));
                x
            })
        }));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "panic must propagate to the caller");
        // Item 0 plus at most the one item the other worker held.
        let started = started.load(Ordering::SeqCst);
        assert!(started <= 2, "{started} items started after a panic");
    }

    #[test]
    fn single_item_runs_inline() {
        let out = run_indexed(8, vec![41u32], |_, x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
