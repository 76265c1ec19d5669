//! Size-classed free-list recycler for payload backing stores.
//!
//! The hot path allocates one `Vec<u8>` per encoded packet (the XDR
//! encoder's buffer becomes the packet payload) and one per decoded
//! opaque field (READ data, WRITE data). At untar scale that is tens of
//! millions of short-lived heap allocations whose sizes repeat from a
//! tiny set. This module recycles them: a freed buffer parks on a
//! per-thread free list keyed by capacity class and the next `take` of
//! that class reuses it, so the steady state performs no heap traffic at
//! all. The classes are the powers of two from 64 B to 32 KiB and, on
//! top, one 32 KiB NFS block plus [`ENCODE_HEADROOM`]: the buffer a
//! block-sized WRITE call or READ reply is encoded into, and — because a
//! retaining storage node keeps a window of the packet its WRITE arrived
//! in — the buffer a stored block lives in.
//!
//! Design constraints, in order:
//!
//! * **Determinism.** Recycling must never change simulation output. A
//!   buffer re-enters circulation only with `len == 0` (callers observe
//!   only bytes they wrote) and only once no reader can alias it —
//!   [`crate::engine`] never sees pool state, and
//!   `slice_nfsproto::bytes::ByteBuf` only releases its backing store
//!   when its `Arc` is unique (see that module's `Drop`). The pool is
//!   capacity-only bookkeeping; contents are dead on arrival.
//! * **Zero dependencies, zero global locks.** Free lists are
//!   thread-local (`RefCell`, no atomics on the reuse path); only the
//!   statistics counters are shared atomics, updated with relaxed
//!   ordering.
//! * **Bounded memory.** Each class holds at most [`class_cap`] buffers
//!   per thread; overflow is simply dropped to the allocator. A
//!   million-packet churn therefore holds at most the sum over classes
//!   of `cap x class_size` bytes per thread, under 10 MiB (see the
//!   bounded memory test).
//!
//! `set_enabled(false)` turns the pool into a plain allocator (no
//! recycling, no counting) so determinism tests can byte-compare runs
//! with pooling on and off. Setting the environment variable
//! `SLICE_POOL=off` does the same for a whole process, which lets the
//! byte-compare tests drive real figure binaries in both modes.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Smallest recycled class: 2^6 = 64 bytes (below that, malloc wins).
const MIN_SHIFT: u32 = 6;
/// Largest power-of-two class: 2^15 = 32 KiB, one NFS block.
const BLOCK_SHIFT: u32 = 15;
/// Bytes an encoder asks for beyond a message's bulk part (file data,
/// directory entries): the RPC and NFS headers, attributes and padding of
/// the largest call or reply the stack encodes fit in it, so a 32 KiB
/// WRITE call or READ reply is built in the one buffer it took.
pub const ENCODE_HEADROOM: usize = 256;
/// The largest class: one NFS block plus the encoder's headroom. A block
/// message fills all but a few dozen bytes of it; a power of two (64 KiB)
/// would leave half of every such buffer idle, and a retaining store
/// holds one per stored block. Larger buffers go straight to the
/// allocator.
pub const MAX_CLASS: usize = (1 << BLOCK_SHIFT) + ENCODE_HEADROOM;
/// The power-of-two classes, then [`MAX_CLASS`].
const CLASSES: usize = (BLOCK_SHIFT - MIN_SHIFT + 2) as usize;
/// Fewest buffers a class parks per thread before dropping overflow.
const MIN_CLASS_CAP: usize = 64;
/// Bytes a small class may park beyond that floor: header-sized buffers
/// are live by the hundred (every queued disk op holds its encoded
/// reply), and a cap of 64 would drop and re-allocate them on each burst.
const SMALL_CLASS_BYTES: usize = 256 << 10;

/// Bytes of each buffer in class `class`.
fn class_size(class: usize) -> usize {
    if class + 1 == CLASSES {
        MAX_CLASS
    } else {
        1 << (class as u32 + MIN_SHIFT)
    }
}

/// Per-thread buffer cap of class `class`; overflow is dropped.
pub fn class_cap(class: usize) -> usize {
    (SMALL_CLASS_BYTES / class_size(class)).max(MIN_CLASS_CAP)
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently parked on free lists across every thread.
static HELD_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL: RefCell<Vec<Vec<Vec<u8>>>> =
        RefCell::new((0..CLASSES).map(|_| Vec::new()).collect());
}

/// Smallest class index whose buffer size covers `cap`, or `None` when
/// `cap` exceeds the largest class.
fn class_up(cap: usize) -> Option<usize> {
    let bits = usize::BITS - cap.saturating_sub(1).leading_zeros();
    // Everything past one block rounds to the top class.
    let shift = bits.clamp(MIN_SHIFT, BLOCK_SHIFT + 1);
    (cap <= MAX_CLASS).then_some((shift - MIN_SHIFT) as usize)
}

/// The class whose buffers are exactly `cap` bytes, if there is one.
fn class_of(cap: usize) -> Option<usize> {
    class_up(cap).filter(|&class| class_size(class) == cap)
}

/// Returns an empty `Vec<u8>` with at least `min_capacity` capacity,
/// reusing a recycled buffer when one of the right class is parked on
/// this thread's free list.
pub fn take(min_capacity: usize) -> Vec<u8> {
    if !enabled_with_env() {
        return Vec::with_capacity(min_capacity);
    }
    let Some(class) = class_up(min_capacity) else {
        POOL_MISSES.fetch_add(1, Ordering::Relaxed);
        return Vec::with_capacity(min_capacity);
    };
    let reused = POOL
        .try_with(|p| p.borrow_mut()[class].pop())
        .ok()
        .flatten();
    match reused {
        Some(v) => {
            debug_assert!(v.is_empty() && v.capacity() >= min_capacity);
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            HELD_BYTES.fetch_sub(v.capacity() as u64, Ordering::Relaxed);
            v
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            // Round up to the class size so the buffer re-enters the
            // same class on release.
            Vec::with_capacity(class_size(class))
        }
    }
}

/// Releases a buffer back to this thread's free list. Only a buffer of
/// exactly a class's size parks — what `take` hands out, or an equal
/// allocation — so a class holds interchangeable buffers and the pool's
/// counters depend on how many were parked, never on which. Any other
/// capacity, or a buffer arriving when its class is full, falls through
/// to the allocator. The buffer is cleared before parking: recycled
/// bytes are never observable.
pub fn give(mut v: Vec<u8>) {
    if !enabled_with_env() {
        return;
    }
    let Some(class) = class_of(v.capacity()) else {
        return;
    };
    let cap = v.capacity() as u64;
    let parked = POOL
        .try_with(|p| {
            let list = &mut p.borrow_mut()[class];
            if list.len() >= class_cap(class) {
                return false;
            }
            v.clear();
            list.push(std::mem::take(&mut v));
            true
        })
        .unwrap_or(false);
    if parked {
        RECYCLED_BYTES.fetch_add(cap, Ordering::Relaxed);
        HELD_BYTES.fetch_add(cap, Ordering::Relaxed);
    }
}

/// `(pool_hits, pool_misses, recycled_bytes)` since the last reset.
pub fn alloc_stats() -> (u64, u64, u64) {
    (
        POOL_HITS.load(Ordering::Relaxed),
        POOL_MISSES.load(Ordering::Relaxed),
        RECYCLED_BYTES.load(Ordering::Relaxed),
    )
}

/// Zeroes the statistics counters (not the parked buffers).
pub fn reset_alloc_stats() {
    POOL_HITS.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
    RECYCLED_BYTES.store(0, Ordering::Relaxed);
}

/// Bytes currently parked on free lists across all threads — the pool
/// occupancy gauge.
pub fn held_bytes() -> u64 {
    HELD_BYTES.load(Ordering::Relaxed)
}

/// Turns recycling on or off process-wide. Off, `take` is a plain
/// allocation and `give` a plain drop; determinism tests byte-compare
/// both modes.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recycling is currently enabled.
pub fn enabled() -> bool {
    enabled_with_env()
}

/// The enabled flag, after a one-time check of the `SLICE_POOL`
/// environment variable (`off` or `0` disables recycling for the whole
/// process). Lets byte-compare tests run unmodified figure binaries in
/// both modes.
fn enabled_with_env() -> bool {
    static ENV_INIT: std::sync::Once = std::sync::Once::new();
    ENV_INIT.call_once(|| {
        if std::env::var_os("SLICE_POOL").is_some_and(|v| v == "off" || v == "0") {
            ENABLED.store(false, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        assert_eq!(class_up(0), Some(0));
        assert_eq!(class_up(1), Some(0));
        assert_eq!(class_up(64), Some(0));
        assert_eq!(class_up(65), Some(1));
        assert_eq!(class_up(256), Some(2));
        assert_eq!(class_up(1 << 15), Some(CLASSES - 2));
        // One block plus the encoder's headroom is the top class.
        assert_eq!(MAX_CLASS, 33_024);
        assert_eq!(class_up((1 << 15) + 1), Some(CLASSES - 1));
        assert_eq!(class_up(MAX_CLASS), Some(CLASSES - 1));
        assert_eq!(class_up(MAX_CLASS + 1), None);
        assert_eq!(class_up(1 << 16), None);
        assert_eq!(class_of(63), None);
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(127), None);
        assert_eq!(class_of(1 << 15), Some(CLASSES - 2));
        assert_eq!(class_of((1 << 15) + 1), None);
        assert_eq!(class_of(MAX_CLASS), Some(CLASSES - 1));
        assert_eq!(class_of(1 << 16), None);
        assert_eq!(class_of(1 << 20), None);
    }

    /// Serializes tests that depend on (or toggle) the process-global
    /// enabled flag; free lists themselves are thread-local.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn take_reuses_given_buffer() {
        let _g = lock();
        // Distinctive capacity so this test's buffer is identifiable
        // even if other tests on this thread touched the pool.
        let mut v = take(3000);
        assert!(v.capacity() >= 3000);
        v.extend_from_slice(&[7u8; 100]);
        let ptr = v.as_ptr();
        give(v);
        let v2 = take(3000);
        assert_eq!(v2.as_ptr(), ptr, "same-class take must reuse the buffer");
        assert!(v2.is_empty(), "recycled buffer must come back empty");
    }

    #[test]
    fn per_class_cap_bounds_memory() {
        let _g = lock();
        // Churn far more buffers than the cap; the held-bytes gauge for
        // this class can never exceed cap * class_size.
        let before = held_bytes();
        for _ in 0..10_000 {
            let mut v = take(1024);
            v.push(1);
            give(v);
        }
        let mut parked = Vec::new();
        for _ in 0..10_000 {
            parked.push(take(1024));
        }
        for v in parked {
            give(v);
        }
        let after = held_bytes();
        assert!(
            after.saturating_sub(before) <= (class_cap(4) as u64 + 1) * 1024,
            "pool held {} -> {} bytes, cap violated",
            before,
            after
        );
    }

    /// A million take/give cycles across every size class must leave the
    /// pool holding no more than `classes x cap x class_size` bytes and
    /// must settle into pure reuse (hit rate near 1). Guards against a
    /// regression where `give` forgets the per-class cap or `take` stops
    /// finding parked buffers.
    #[test]
    fn million_churn_is_bounded_and_reuses() {
        let _g = lock();
        reset_alloc_stats();
        let before = held_bytes();
        let sizes = [80usize, 512, 1 << 12, 32 << 10];
        for i in 0..1_000_000u64 {
            let sz = sizes[(i % sizes.len() as u64) as usize];
            let mut v = take(sz);
            v.extend_from_slice(&(i.to_le_bytes()));
            give(v);
        }
        let (hits, misses, _) = alloc_stats();
        // Worst-case bound: every class full on this thread.
        let max_held: u64 = (0..CLASSES)
            .map(|c| (class_cap(c) * class_size(c)) as u64)
            .sum();
        let held = held_bytes().saturating_sub(before);
        assert!(
            held <= max_held,
            "pool holds {held} bytes after 1M churn, cap is {max_held}"
        );
        assert!(
            hits + misses >= 1_000_000 && hits * 10 >= (hits + misses) * 9,
            "steady-state churn should be >=90% pool hits, got {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let _g = lock();
        set_enabled(false);
        let (h0, m0, r0) = alloc_stats();
        let v = take(512);
        give(v);
        let (h1, m1, r1) = alloc_stats();
        set_enabled(true);
        assert_eq!((h0, m0, r0), (h1, m1, r1), "disabled pool must not count");
    }
}
