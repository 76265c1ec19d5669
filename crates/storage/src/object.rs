//! Object-based storage: a flat space of storage objects addressed by
//! `(object id, byte offset)`.
//!
//! Slice storage nodes are "object-based rather than sector-based, meaning
//! that requesters address data as logical offsets within storage objects"
//! (§2.2), following the NSIC OBSD proposal and CMU NASD. The store keeps
//! sparse per-object extent maps; unwritten holes read as zeros, as NFS
//! requires of sparse files.
//!
//! Large-scale benchmarks would need gigabytes of backing data, so the
//! store supports a metadata-only mode ([`ObjectStore::new_metadata_only`])
//! that tracks extents and sizes but discards contents; reads then return
//! zero-filled data. Integrity tests run with content retention on.
//!
//! A retaining store keeps the wire's bytes: an extent is a window of the
//! buffer its data arrived in ([`ObjectStore::write_window`]), so the two
//! replicas of a mirrored WRITE — one packet, cloned — hold one
//! allocation between them, and a partial overwrite leaves its remainders
//! as sub-windows of the same buffer. The buffer is immutable while shared
//! (a holder that patches it copies first), so no holder can change what
//! the store reads back. A resync moves windows too: the source answers
//! with the windows of its extents ([`ObjectStore::read_windows`]) and the
//! target keeps them ([`ObjectStore::write_windows`]).

use slice_nfsproto::{ByteBuf, Windows};
use slice_sim::FxHashMap;
use std::collections::BTreeMap;
use std::ops::Range;

/// One stored extent.
#[derive(Debug, Clone)]
struct Extent {
    len: u64,
    /// `len` bytes of a shared buffer; `None` in metadata-only mode.
    data: Option<ByteBuf>,
}

impl Extent {
    /// The `len` bytes from `skip` on: a sub-window of the same buffer.
    fn part(&self, skip: u64, len: u64) -> Extent {
        Extent {
            len,
            data: self
                .data
                .as_ref()
                .map(|d| d.slice(skip as usize, len as usize)),
        }
    }
}

/// A single storage object: an ordered sequence of bytes with an id.
#[derive(Debug, Clone, Default)]
pub struct StorageObject {
    /// Logical size: one past the highest byte ever written (or set by
    /// truncate).
    size: u64,
    /// Extents keyed by start offset; non-overlapping by construction.
    extents: BTreeMap<u64, Extent>,
}

impl StorageObject {
    /// Logical object size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes of actual extent data held (storage consumption).
    pub fn bytes_used(&self) -> u64 {
        self.extents.values().map(|e| e.len).sum()
    }

    fn punch(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        // Collect overlapping extents.
        let overlapping: Vec<u64> = self
            .extents
            .range(..end)
            .rev()
            .take_while(|(&s, e)| s + e.len > offset)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let ext = self.extents.remove(&s).expect("listed extent");
            let e_end = s + ext.len;
            // The remainders left and right of the hole keep their bytes
            // where they lie.
            if s < offset {
                self.extents.insert(s, ext.part(0, offset - s));
            }
            if e_end > end {
                self.extents.insert(end, ext.part(end - s, e_end - end));
            }
        }
    }

    /// Stores `len` bytes at `offset`: `data` is them, or `None` when the
    /// store keeps no contents.
    fn write(&mut self, offset: u64, len: u64, data: Option<ByteBuf>) {
        if len == 0 {
            return;
        }
        self.punch(offset, len);
        self.extents.insert(offset, Extent { len, data });
        self.size = self.size.max(offset + len);
    }

    /// The stored bytes of `[offset, offset + len)`: a window of each
    /// retained extent the range overlaps, and zeros for the holes and
    /// for extents whose bytes are not kept.
    fn windows(&self, offset: u64, len: usize) -> Windows {
        let end = offset + len as u64;
        let (mut out, mut at) = (Windows::default(), offset);
        for (s, ext) in self.overlapping(offset, end) {
            let Some(data) = &ext.data else { continue };
            let (lo, hi) = (s.max(offset), (s + ext.len).min(end));
            out.push_zeros((lo - at) as usize);
            out.push(data.slice((lo - s) as usize, (hi - lo) as usize));
            at = hi;
        }
        out.push_zeros((end - at) as usize);
        out
    }

    /// The extents overlapping `[offset, end)`, in offset order. Seeks to
    /// the one extent that can straddle `offset` (the last starting at or
    /// before it) and walks forward, so the cost is the extents visited
    /// plus a tree descent, whatever lies below `offset`.
    fn overlapping(&self, offset: u64, end: u64) -> impl Iterator<Item = (u64, &Extent)> {
        let first = match self.extents.range(..=offset).next_back() {
            Some((&s, ext)) if s + ext.len > offset => s,
            _ => offset,
        };
        self.extents.range(first..end).map(|(&s, ext)| (s, ext))
    }

    /// Reads `len` bytes at `offset`; holes read as zeros. Does not
    /// touch the store's I/O accounting (audit/oracle use).
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out);
        out
    }

    /// Copies the stored bytes of `[offset, offset + out.len())` over
    /// `out`; bytes in holes (and everything in metadata-only mode) are
    /// left as the caller set them.
    pub fn read_into(&self, offset: u64, out: &mut [u8]) {
        let end = offset + out.len() as u64;
        for (s, ext) in self.overlapping(offset, end) {
            let copy_start = s.max(offset);
            let copy_end = (s + ext.len).min(end);
            if let Some(data) = &ext.data {
                let src = &data[(copy_start - s) as usize..(copy_end - s) as usize];
                out[(copy_start - offset) as usize..(copy_end - offset) as usize]
                    .copy_from_slice(src);
            }
        }
    }

    fn truncate(&mut self, size: u64) {
        if size < self.size {
            self.punch(size, self.size - size);
        }
        self.size = size;
    }
}

/// The flat object namespace of one storage node.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    objects: FxHashMap<u64, StorageObject>,
    retain_data: bool,
    bytes_written: u64,
    bytes_read: u64,
}

impl ObjectStore {
    /// A store that retains written contents (for correctness tests and
    /// real use).
    pub fn new() -> Self {
        ObjectStore {
            objects: FxHashMap::default(),
            retain_data: true,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// A store that tracks extents but discards contents (for large-scale
    /// benchmarks); reads return zeros.
    pub fn new_metadata_only() -> Self {
        ObjectStore {
            objects: FxHashMap::default(),
            retain_data: false,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Whether contents are retained.
    pub fn retains_data(&self) -> bool {
        self.retain_data
    }

    /// Number of objects present.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up an object.
    pub fn get(&self, id: u64) -> Option<&StorageObject> {
        self.objects.get(&id)
    }

    /// Object ids present, sorted (for deterministic audits).
    pub fn ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.objects.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Writes `data` at `offset` within object `id`, creating it if
    /// absent. A retaining store copies the bytes once, into a buffer of
    /// the payload pool that goes back to it with the last extent that
    /// holds it; a metadata-only one keeps the length.
    pub fn write(&mut self, id: u64, offset: u64, data: &[u8]) {
        let kept = self.retain_data.then(|| ByteBuf::from(data));
        self.put(id, offset, data.len() as u64, kept);
    }

    /// Writes the `range` of `payload` at `offset` within object `id`,
    /// creating it if absent, without copying: a retaining store keeps a
    /// window of `payload` (the packet a WRITE arrived in, or a resync's
    /// buffer), which every other holder of it shares; a metadata-only
    /// store keeps the length and leaves `payload` alone.
    pub fn write_window(&mut self, id: u64, offset: u64, payload: &ByteBuf, range: Range<usize>) {
        let kept = self
            .retain_data
            .then(|| payload.slice(range.start, range.len()));
        self.put(id, offset, range.len() as u64, kept);
    }

    /// Writes `windows` back to back from `offset` within object `id`,
    /// creating it (even with no bytes) if absent; each window is kept as
    /// [`write_window`](Self::write_window) keeps one.
    pub fn write_windows(&mut self, id: u64, mut offset: u64, windows: &Windows) {
        self.objects.entry(id).or_default();
        for w in windows.iter() {
            self.write_window(id, offset, w, 0..w.len());
            offset += w.len() as u64;
        }
    }

    fn put(&mut self, id: u64, offset: u64, len: u64, data: Option<ByteBuf>) {
        self.bytes_written += len;
        self.objects.entry(id).or_default().write(offset, len, data);
    }

    /// Reads `len` bytes at `offset`; holes and absent objects read as
    /// zeros. Returns `(data, local_eof)` where `local_eof` is true when
    /// the range reaches or passes the object's local size.
    pub fn read(&mut self, id: u64, offset: u64, len: usize) -> (Vec<u8>, bool) {
        let mut out = vec![0u8; len];
        self.read_into(id, offset, &mut out);
        (out, offset + len as u64 >= self.size(id))
    }

    /// [`read`](Self::read) as the windows the bytes lie in: nothing is
    /// copied, and holes are windows of one shared zero buffer.
    pub fn read_windows(&mut self, id: u64, offset: u64, len: usize) -> Windows {
        self.bytes_read += len as u64;
        match self.objects.get(&id) {
            Some(obj) => obj.windows(offset, len),
            None => StorageObject::default().windows(offset, len),
        }
    }

    /// [`read`](Self::read) into a caller-supplied, already zeroed buffer
    /// (a reply being encoded).
    pub fn read_into(&mut self, id: u64, offset: u64, out: &mut [u8]) {
        self.bytes_read += out.len() as u64;
        if let Some(obj) = self.objects.get(&id) {
            obj.read_into(offset, out);
        }
    }

    /// Truncates object `id` to `size` (creating it if absent, per NFS
    /// setattr-size semantics).
    pub fn truncate(&mut self, id: u64, size: u64) {
        self.objects.entry(id).or_default().truncate(size);
    }

    /// Removes object `id`; returns true if it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        self.objects.remove(&id).is_some()
    }

    /// Local size of object `id` (zero if absent).
    pub fn size(&self, id: u64) -> u64 {
        self.objects.get(&id).map(|o| o.size).unwrap_or(0)
    }

    /// (bytes written, bytes read) through this store.
    pub fn io_stats(&self) -> (u64, u64) {
        (self.bytes_written, self.bytes_read)
    }

    /// Total bytes of extent data across all objects.
    pub fn bytes_used(&self) -> u64 {
        self.objects.values().map(|o| o.bytes_used()).sum()
    }
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut s = ObjectStore::new();
        s.write(1, 0, b"hello world");
        let (data, eof) = s.read(1, 0, 11);
        assert_eq!(&data, b"hello world");
        assert!(eof);
        assert_eq!(s.size(1), 11);
    }

    #[test]
    fn holes_read_zero() {
        let mut s = ObjectStore::new();
        s.write(1, 100, b"xyz");
        let (data, _) = s.read(1, 0, 103);
        assert!(data[..100].iter().all(|&b| b == 0));
        assert_eq!(&data[100..], b"xyz");
    }

    #[test]
    fn overlapping_writes_resolve_to_latest() {
        let mut s = ObjectStore::new();
        s.write(1, 0, b"aaaaaaaaaa");
        s.write(1, 3, b"BBBB");
        let (data, _) = s.read(1, 0, 10);
        assert_eq!(&data, b"aaaBBBBaaa");
        // Write fully covering an extent replaces it.
        s.write(1, 0, b"cccccccccc");
        let (data, _) = s.read(1, 0, 10);
        assert_eq!(&data, b"cccccccccc");
    }

    #[test]
    fn partial_overlap_left_and_right() {
        let mut s = ObjectStore::new();
        s.write(1, 10, b"1111111111"); // 10..20
        s.write(1, 5, b"22222222"); // 5..13
        s.write(1, 18, b"3333"); // 18..22
        let (data, _) = s.read(1, 5, 17);
        assert_eq!(&data, b"22222222111113333");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut s = ObjectStore::new();
        s.write(1, 0, b"abcdefghij");
        s.truncate(1, 4);
        assert_eq!(s.size(1), 4);
        let (data, eof) = s.read(1, 0, 10);
        assert_eq!(&data[..4], b"abcd");
        assert!(data[4..].iter().all(|&b| b == 0));
        assert!(eof);
        s.truncate(1, 20);
        assert_eq!(s.size(1), 20);
        let (data, _) = s.read(1, 0, 20);
        assert_eq!(&data[..4], b"abcd");
        assert!(data[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn remove_deletes_object() {
        let mut s = ObjectStore::new();
        s.write(7, 0, b"x");
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert_eq!(s.size(7), 0);
        let (data, eof) = s.read(7, 0, 1);
        assert_eq!(data, vec![0]);
        assert!(eof);
    }

    #[test]
    fn metadata_only_tracks_sizes_not_contents() {
        let mut s = ObjectStore::new_metadata_only();
        s.write(1, 0, b"real bytes");
        assert_eq!(s.size(1), 10);
        assert_eq!(s.bytes_used(), 10);
        let (data, _) = s.read(1, 0, 10);
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn many_extents_consistency() {
        // Scatter writes, then verify against a flat model.
        let mut s = ObjectStore::new();
        let mut model = vec![0u8; 4096];
        let mut seed = 12345u64;
        for i in 0..200 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let off = (seed % 3800) as usize;
            let len = 1 + (seed >> 32) as usize % 200;
            let byte = (i % 251 + 1) as u8;
            let chunk = vec![byte; len];
            s.write(1, off as u64, &chunk);
            model[off..off + len].fill(byte);
        }
        let (data, _) = s.read(1, 0, 4096);
        assert_eq!(data, model);
    }

    /// Random writes, overwrites and truncates, then random sub-range
    /// reads (mid-extent, in holes, past EOF), against a flat byte model.
    fn check_against_flat_model(retain: bool, seed: u64) {
        let mut rng = slice_sim::Rng::seed_from_u64(seed);
        let mut obj = StorageObject::default();
        let mut model: Vec<u8> = Vec::new();
        // Bytes covered by an extent: what `bytes_used` must report.
        let mut covered: Vec<bool> = Vec::new();
        for step in 0..2_000 {
            if rng.gen_range(0..10u32) == 0 {
                let size = rng.gen_range(0..6_000u64);
                obj.truncate(size);
                model.resize(size as usize, 0);
                covered.resize(size as usize, false);
            } else {
                let off = rng.gen_range(0..5_000usize);
                let len = rng.gen_range(0..300usize);
                let chunk: Vec<u8> = (0..len).map(|i| (step + i) as u8 | 1).collect();
                let kept = retain.then(|| ByteBuf::from(&chunk[..]));
                obj.write(off as u64, len as u64, kept);
                if len > 0 {
                    let size = model.len().max(off + len);
                    model.resize(size, 0);
                    covered.resize(size, false);
                    model[off..off + len].copy_from_slice(&chunk);
                    covered[off..off + len].fill(true);
                }
            }
            assert_eq!(obj.size(), model.len() as u64, "size at step {step}");
            let used = covered.iter().filter(|&&c| c).count() as u64;
            assert_eq!(obj.bytes_used(), used, "bytes_used at step {step}");
            for _ in 0..4 {
                let off = rng.gen_range(0..6_500usize);
                let len = rng.gen_range(0..700usize);
                let want: Vec<u8> = (off..off + len)
                    .map(|p| match model.get(p) {
                        Some(&b) if retain => b,
                        _ => 0,
                    })
                    .collect();
                assert_eq!(
                    obj.read(off as u64, len),
                    want,
                    "read {off}+{len} at {step}"
                );
            }
        }
    }

    #[test]
    fn random_ops_match_flat_model() {
        check_against_flat_model(true, 7);
        check_against_flat_model(true, 8);
        check_against_flat_model(false, 9);
    }

    #[test]
    fn tail_read_visits_only_the_extents_it_overlaps() {
        // 10,000 adjacent 32 KiB extents; a read never walks the prefix.
        const EXT: u64 = 32 * 1024;
        let mut obj = StorageObject::default();
        for i in 0..10_000u64 {
            obj.write(i * EXT, EXT, None);
        }
        let tail = 9_999 * EXT;
        assert_eq!(obj.overlapping(tail, tail + EXT).count(), 1);
        assert_eq!(obj.overlapping(tail - EXT / 2, tail + EXT / 2).count(), 2);
        assert_eq!(obj.overlapping(tail + 100, tail + 200).count(), 1);
        assert_eq!(obj.overlapping(tail + EXT, tail + 2 * EXT).count(), 0);
    }

    /// A retaining store keeps a window of the payload — one refcount, no
    /// copy — and a metadata-only one takes neither; an overwrite leaves
    /// sub-windows either side, and a read inside one extent is a window
    /// of it while a read across two is two windows.
    #[test]
    fn windows_are_kept_without_copies() {
        use slice_nfsproto::bytes::local_clone_stats;
        let payload = ByteBuf::from_vec((0..1_000u32).map(|i| i as u8).collect());
        let (shallow, deep, _) = local_clone_stats();
        let mut meta = ObjectStore::new_metadata_only();
        meta.write_window(1, 0, &payload, 100..600);
        assert_eq!(
            local_clone_stats().0,
            shallow,
            "metadata-only took a refcount"
        );
        let (mut a, mut b) = (ObjectStore::new(), ObjectStore::new());
        a.write_window(1, 0, &payload, 100..600);
        b.write_window(1, 0, &payload, 100..600);
        assert_eq!(local_clone_stats().0, shallow + 2, "one refcount per store");
        a.write(1, 200, b"xy");
        let mut want = payload[100..600].to_vec();
        want[200..202].copy_from_slice(b"xy");
        assert_eq!(a.read(1, 0, 500).0, want);
        assert_eq!(b.read(1, 0, 500).0, &payload[100..600]);
        assert_eq!(meta.read(1, 0, 500).0, vec![0; 500]);
        assert_eq!(local_clone_stats().1, deep, "nothing was copied on write");
        // Inside the right remainder: a window; into the patch: two.
        let before = local_clone_stats().0;
        let inside = a.read_windows(1, 300, 100);
        assert_eq!(inside.iter().count(), 1);
        assert_eq!(inside, ByteBuf::from(&want[300..400]).into());
        assert_eq!(local_clone_stats().0, before + 1);
        let across = a.read_windows(1, 150, 52);
        assert_eq!(across.iter().count(), 2);
        assert_eq!(across, ByteBuf::from(&want[150..202]).into());
        assert_eq!(local_clone_stats().0, before + 3);
        assert_eq!(local_clone_stats().1, deep, "nothing was copied on read");
        assert_eq!(a.io_stats(), (502, 652));
    }

    #[test]
    fn read_absent_object() {
        let mut s = ObjectStore::new();
        let (data, eof) = s.read(99, 50, 8);
        assert_eq!(data, vec![0u8; 8]);
        assert!(eof);
    }
}
