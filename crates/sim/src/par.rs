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
//! * **Work distribution** — a chunked index-ordered work queue: workers
//!   claim contiguous index ranges from a shared atomic cursor, so cheap
//!   items amortize the claim and expensive tails still balance.
//! * **Determinism** — results land in a slot table indexed by input
//!   position and are handed back strictly in input order. As long as the
//!   job function is a pure function of `(index, item)` — true for every
//!   scenario runner here, which builds a fresh engine per call — the
//!   merged output cannot depend on scheduling.
//! * **Panic propagation** — a worker panic aborts the queue (other
//!   workers stop claiming), the scope joins everyone, and the original
//!   panic payload is re-raised on the caller's thread. No deadlock, no
//!   swallowed failures.
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
/// Re-raises the first worker panic on the calling thread after all
/// workers have stopped (remaining queued items are abandoned).
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
    let workers = threads.min(n);
    // Chunked claims: big enough to amortize the atomic, small enough
    // that a slow tail item cannot strand a whole quarter of the grid
    // behind one worker.
    let chunk = (n / (workers * 4)).max(1);

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                if lo >= n {
                    return;
                }
                for i in lo..(lo + chunk).min(n) {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("slot lock")
                        .take()
                        .expect("item claimed once");
                    match catch_unwind(AssertUnwindSafe(|| job(i, item))) {
                        Ok(r) => *results[i].lock().expect("result lock") = Some(r),
                        Err(p) => {
                            // First panic wins; stop the queue and let the
                            // scope join everyone before re-raising.
                            abort.store(true, Ordering::Relaxed);
                            let mut slot = panic_payload.lock().expect("panic slot");
                            if slot.is_none() {
                                *slot = Some(p);
                            }
                            return;
                        }
                    }
                }
            });
        }
    });

    if let Some(p) = panic_payload.into_inner().expect("panic slot") {
        resume_unwind(p);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock")
                .expect("every index completed")
        })
        .collect()
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
    fn single_item_runs_inline() {
        let out = run_indexed(8, vec![41u32], |_, x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
