//! Shared, cheaply-clonable payload buffers for the packet fast path.
//!
//! The µproxy's whole premise is that interposed routing is cheap enough
//! to sit on every packet's path. Duplicating a mirrored write to its
//! replica pair, stashing the original packet for RPC retransmission, or
//! re-sending after loss must therefore *share* the payload bytes, not
//! deep-copy 8 KB per duplicate. [`ByteBuf`] is a shared allocation plus
//! an `(offset, len)` window: clones bump a refcount, and the rare in-place
//! mutation (the µproxy's incremental attribute patch) goes through a
//! copy-on-write escape hatch that only copies when the buffer is
//! actually shared.
//!
//! Bytes that already lie in several buffers travel as [`Windows`]: a
//! resync carries the windows of the source's stored extents to the
//! target, which keeps them, so no byte is assembled on the way.
//!
//! Copy traffic is counted in thread-local counters (see
//! [`local_clone_stats`]): no atomic on the clone path, and a run's own
//! traffic is a before/after delta on the thread that runs it. Under
//! `slice-par` each scenario builds, runs, and is harvested on a single
//! worker thread, so concurrent scenarios never see each other's copies.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

thread_local! {
    static TL_SHALLOW_CLONES: Cell<u64> = const { Cell::new(0) };
    static TL_DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
    static TL_DEEP_COPY_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_shallow() {
    TL_SHALLOW_CLONES.with(|c| c.set(c.get() + 1));
}

#[inline]
fn count_deep(bytes: u64) {
    TL_DEEP_COPIES.with(|c| c.set(c.get() + 1));
    TL_DEEP_COPY_BYTES.with(|c| c.set(c.get() + bytes));
}

/// Snapshot of this thread's payload copy counters: `(shallow clones,
/// deep copies, deep-copied bytes)`. Shallow clones are refcount bumps
/// (mirrored-write duplication, retransmission stash, payload windows);
/// deep copies are copy-on-write faults taken when a shared buffer was
/// mutated. Monotonic for the thread's lifetime; callers take
/// before/after deltas to attribute copy traffic to one simulation run
/// (valid because a run executes entirely on one thread).
pub fn local_clone_stats() -> (u64, u64, u64) {
    (
        TL_SHALLOW_CLONES.with(Cell::get),
        TL_DEEP_COPIES.with(Cell::get),
        TL_DEEP_COPY_BYTES.with(Cell::get),
    )
}

/// An immutable shared byte buffer with an `(offset, len)` window.
///
/// Dereferences to `&[u8]`, so read paths (XDR decode, checksum, length
/// checks) are untouched. Equality and hashing are over the visible
/// window, not the backing allocation.
pub struct ByteBuf {
    // `Arc<Vec<u8>>` rather than `Arc<[u8]>`: wrapping the encoder's Vec
    // moves it (one pointer-sized allocation for the arc header) instead
    // of copying every payload byte into a fresh `ArcInner`, which at
    // millions of packets per run is the difference between sharing and
    // re-copying the whole wire volume.
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Clone for ByteBuf {
    fn clone(&self) -> Self {
        count_shallow();
        ByteBuf {
            data: Arc::clone(&self.data),
            off: self.off,
            len: self.len,
        }
    }
}

impl ByteBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        ByteBuf {
            data: Arc::new(Vec::new()),
            off: 0,
            len: 0,
        }
    }

    /// Wraps owned bytes without copying them: the encoder's Vec is moved
    /// into the shared allocation.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        ByteBuf {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// A sub-window sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds this buffer's window.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of bounds");
        count_shallow();
        ByteBuf {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len,
        }
    }

    /// Mutable access to the window, copying first only when the backing
    /// allocation is shared. The hot cases — a packet fresh off the wire
    /// with a single owner, windowed or not — mutate in place; only a
    /// buffer another holder can still observe pays the copy (into a
    /// pool-recycled backing store).
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            count_deep(self.len as u64);
            let mut copy = slice_sim::pool::take(self.len);
            copy.extend_from_slice(&self.data[self.off..self.off + self.len]);
            self.data = Arc::new(copy);
            self.off = 0;
        }
        // The arc is unique; mutate the window in place.
        let (off, len) = (self.off, self.len);
        &mut Arc::get_mut(&mut self.data)
            .expect("unique after COW")
            .as_mut_slice()[off..off + len]
    }

    /// Copies the window out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// Whether `a` and `b` are windows of one allocation, as
    /// [`Arc::ptr_eq`] says of two `Arc`s: what a test asks to tell a
    /// shared buffer from a copy of its bytes.
    pub fn ptr_eq(a: &ByteBuf, b: &ByteBuf) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }
}

impl Default for ByteBuf {
    fn default() -> Self {
        ByteBuf::new()
    }
}

impl Deref for ByteBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for ByteBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for ByteBuf {
    fn from(v: Vec<u8>) -> Self {
        ByteBuf::from_vec(v)
    }
}

impl From<&[u8]> for ByteBuf {
    fn from(s: &[u8]) -> Self {
        let mut v = slice_sim::pool::take(s.len());
        v.extend_from_slice(s);
        ByteBuf::from_vec(v)
    }
}

impl Drop for ByteBuf {
    /// Recycles the backing store through [`slice_sim::pool`] once the
    /// last holder releases it. `Arc::get_mut` succeeds only when this
    /// is the sole reference (no other clone, slice window, or stashed
    /// retransmission copy exists), so a recycled buffer can never alias
    /// a live reader — the pool receives the `Vec` only after every
    /// refcount but ours has dropped.
    fn drop(&mut self) {
        if let Some(v) = Arc::get_mut(&mut self.data) {
            if v.capacity() > 0 {
                slice_sim::pool::give(std::mem::take(v));
            }
        }
    }
}

impl PartialEq for ByteBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for ByteBuf {}

impl std::hash::Hash for ByteBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for ByteBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ByteBuf({} bytes, rc={})",
            self.len,
            Arc::strong_count(&self.data)
        )
    }
}

/// Bytes of the one zero buffer every zero window is cut from.
const ZEROS_LEN: usize = 64 * 1024;

/// A payload held in the buffers it already lies in: windows, in order,
/// whose concatenation is the bytes. Zeros — a hole, or what a store that
/// keeps no contents answers — are windows of one shared zero buffer,
/// which is never freed, so none is allocated per answer. Equality is
/// over the bytes, however they are split.
#[derive(Debug, Clone, Default)]
pub struct Windows(Vec<ByteBuf>);

impl Windows {
    /// Appends `window`'s bytes.
    pub fn push(&mut self, window: ByteBuf) {
        self.0.push(window);
    }

    /// Appends `len` zero bytes.
    pub fn push_zeros(&mut self, len: usize) {
        static ZEROS: OnceLock<ByteBuf> = OnceLock::new();
        let zeros = ZEROS.get_or_init(|| ByteBuf::from_vec(vec![0; ZEROS_LEN]));
        for at in (0..len).step_by(ZEROS_LEN) {
            self.0.push(zeros.slice(0, (len - at).min(ZEROS_LEN)));
        }
    }

    /// Total bytes.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.len()).sum()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The windows, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, ByteBuf> {
        self.0.iter()
    }

    /// The bytes as one buffer of at least `pad_to` bytes, zeros after
    /// the last window: a single window that long is returned as it is;
    /// anything else is assembled by one copy.
    pub fn contiguous(mut self, pad_to: usize) -> ByteBuf {
        if self.0.len() == 1 && self.0[0].len() >= pad_to {
            return self.0.swap_remove(0);
        }
        let mut bytes = Vec::with_capacity(self.len().max(pad_to));
        self.0.iter().for_each(|w| bytes.extend_from_slice(w));
        bytes.resize(bytes.len().max(pad_to), 0);
        ByteBuf::from_vec(bytes)
    }
}

impl From<ByteBuf> for Windows {
    fn from(window: ByteBuf) -> Self {
        Windows(vec![window])
    }
}

impl PartialEq for Windows {
    fn eq(&self, other: &Self) -> bool {
        let theirs = other.0.iter().flat_map(|w| w.iter());
        self.len() == other.len() && self.0.iter().flat_map(|w| w.iter()).eq(theirs)
    }
}

impl Eq for Windows {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = ByteBuf::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert!(ByteBuf::ptr_eq(&a, &b));
        assert!(ByteBuf::ptr_eq(&a, &b.slice(1, 2)));
        assert!(!ByteBuf::ptr_eq(&a, &ByteBuf::from(&a[..])), "a copy");
    }

    #[test]
    fn unique_mutation_is_in_place() {
        let mut a = ByteBuf::from_vec(vec![0u8; 64]);
        let ptr = a.data.as_ptr();
        a.make_mut()[5] = 9;
        assert_eq!(a.data.as_ptr(), ptr, "unique buffer must not reallocate");
        assert_eq!(a[5], 9);
    }

    #[test]
    fn shared_mutation_copies_on_write() {
        let mut a = ByteBuf::from_vec(vec![7u8; 16]);
        let b = a.clone();
        a.make_mut()[0] = 1;
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 7, "clone unaffected by COW mutation");
    }

    #[test]
    fn unique_window_mutates_in_place() {
        let a = ByteBuf::from_vec((0..32u8).collect());
        let mut w = a.slice(8, 8);
        drop(a);
        // Sole owner of a windowed buffer: no copy, no reallocation.
        // Thread-local counters make this assertion immune to other
        // tests running concurrently in this process.
        let (_, deep_before, bytes_before) = local_clone_stats();
        let ptr = Arc::as_ptr(&w.data);
        w.make_mut()[0] = 99;
        let (_, deep_after, bytes_after) = local_clone_stats();
        assert_eq!(deep_after, deep_before, "unique window must not copy");
        assert_eq!(bytes_after, bytes_before);
        assert_eq!(Arc::as_ptr(&w.data), ptr, "must not reallocate");
        assert_eq!(w[0], 99);
        assert_eq!(w[1], 9, "rest of window intact");
    }

    #[test]
    fn shared_window_copy_is_counted_locally() {
        let a = ByteBuf::from_vec(vec![3u8; 24]);
        let mut w = a.slice(4, 16);
        let (_, deep_before, bytes_before) = local_clone_stats();
        w.make_mut()[0] = 1;
        let (_, deep_after, bytes_after) = local_clone_stats();
        assert_eq!(deep_after, deep_before + 1);
        assert_eq!(bytes_after, bytes_before + 16);
        assert_eq!(a[4], 3, "parent untouched by COW");
    }

    /// Serializes tests that depend on (or toggle) the process-global
    /// pool-enabled flag; everything else is thread-local and safe.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn recycled_buffer_never_aliases_live_reader() {
        let _g = pool_lock();
        // Pool-allocated backing store (class-rounded capacity), so it
        // round-trips through the recycler's class it came from.
        let mut v = slice_sim::pool::take(1000);
        v.resize(1000, 0xAA);
        let ptr = v.as_ptr();
        let a = ByteBuf::from_vec(v);
        let b = a.clone();
        // `a` drops while `b` still reads the bytes: the backing store
        // must NOT re-enter circulation.
        drop(a);
        let fresh = slice_sim::pool::take(1000);
        assert_ne!(
            fresh.as_ptr(),
            ptr,
            "backing store reissued while a reader is live"
        );
        assert!(b.iter().all(|&x| x == 0xAA), "live reader sees its bytes");
        drop(fresh);
        // Last holder gone: now (and only now) the buffer is reusable.
        drop(b);
        let reused = slice_sim::pool::take(1000);
        assert_eq!(reused.as_ptr(), ptr, "sole-owner drop must recycle");
        assert!(
            reused.is_empty(),
            "recycled buffer comes back poisoned-empty"
        );
    }

    #[test]
    fn pooling_off_still_correct() {
        let _g = pool_lock();
        slice_sim::pool::set_enabled(false);
        let a = ByteBuf::from_vec(vec![5u8; 256]);
        let b = a.clone();
        drop(a);
        assert_eq!(&b[..], &[5u8; 256][..]);
        drop(b);
        slice_sim::pool::set_enabled(true);
    }

    #[test]
    fn windows_keep_their_buffers_and_zeros_share_one() {
        let a = ByteBuf::from_vec((1..=10u8).collect());
        let mut w = Windows::from(a.slice(2, 3));
        w.push_zeros(0);
        w.push_zeros(ZEROS_LEN + 2);
        w.push(a.slice(0, 1));
        assert_eq!(w.len(), 3 + ZEROS_LEN + 2 + 1);
        let parts: Vec<&ByteBuf> = w.iter().collect();
        assert_eq!(parts.len(), 4, "no zeros add no window; many split");
        assert!(ByteBuf::ptr_eq(parts[0], &a) && ByteBuf::ptr_eq(parts[3], &a));
        assert!(ByteBuf::ptr_eq(parts[1], parts[2]), "one zero buffer");
        let mut z = Windows::default();
        z.push_zeros(1);
        assert!(ByteBuf::ptr_eq(z.iter().next().unwrap(), parts[1]));
        // The same bytes split otherwise are equal.
        let mut flat = vec![3, 4, 5];
        flat.resize(3 + ZEROS_LEN + 2, 0);
        flat.push(1);
        assert_eq!(w, ByteBuf::from(&flat[..]).into());
        assert_ne!(w, ByteBuf::from(&flat[1..]).into());
        // One copy assembles several windows, padded to `pad_to`; one
        // window long enough is handed back as it is.
        let whole = w.contiguous(flat.len() + 5);
        assert_eq!(whole[..flat.len()], flat[..]);
        assert_eq!(whole[flat.len()..], [0; 5]);
        let one = Windows::from(a.slice(4, 6)).contiguous(6);
        assert!(ByteBuf::ptr_eq(&one, &a) && one[..] == a[4..]);
        let padded = Windows::from(a.slice(4, 6)).contiguous(8);
        assert_eq!(&padded[..], &[5, 6, 7, 8, 9, 10, 0, 0]);
    }

    #[test]
    fn slice_windows_share_and_compare() {
        let a = ByteBuf::from_vec((0..32u8).collect());
        let w = a.slice(8, 8);
        assert_eq!(&w[..], &(8..16u8).collect::<Vec<_>>()[..]);
        assert!(Arc::ptr_eq(&a.data, &w.data));
        let mut m = w.clone();
        m.make_mut()[0] = 99;
        assert_eq!(a[8], 8, "window COW leaves parent intact");
        assert_eq!(m[0], 99);
    }
}
