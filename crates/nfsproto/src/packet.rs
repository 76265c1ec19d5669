//! Simulated UDP datagrams: the unit the µproxy intercepts and rewrites.
//!
//! A [`Packet`] carries a real XDR-encoded RPC payload plus the header
//! fields the µproxy manipulates: source/destination address and port, and
//! a UDP-style ones-complement checksum over a pseudo-header and the
//! payload. Rewriting an address or port goes through
//! [`Packet::rewrite_src`]/[`Packet::rewrite_dst`], which repair the
//! checksum *incrementally* (RFC 1624), exactly as the paper's µproxy does
//! with code derived from FreeBSD NAT (§4.1).
//!
//! The payload is an RPC header followed by data windows: the header holds
//! every field, and a WRITE call's or READ reply's data stays in the
//! buffers it already lies in — the workload's own `Vec`, a store's
//! extents, the one shared zero buffer — so no hop copies file data into
//! a datagram. The checksum is summed over the parts: a window of the
//! zero buffer adds nothing without being read, and a window's whole
//! 4 KiB chunks add the sums its buffer remembers, so bytes sent again
//! are not read again.

use crate::bytes::{ByteBuf, Windows};
use slice_hashes::checksum::{incremental_update16, incremental_update32, PartSum};
use slice_sim::MessageSize;
use std::ops::Range;

/// Simulated IPv4 + UDP header bytes added to every datagram on the wire.
pub const UDP_IP_HEADER_BYTES: usize = 28;

/// An IPv4-style socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockAddr {
    /// Host address.
    pub ip: u32,
    /// UDP port.
    pub port: u16,
}

impl SockAddr {
    /// Convenience constructor.
    pub const fn new(ip: u32, port: u16) -> Self {
        SockAddr { ip, port }
    }
}

impl std::fmt::Display for SockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.ip.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}:{}", self.port)
    }
}

/// A simulated UDP datagram with a live checksum.
///
/// The payload is shared [`ByteBuf`]s: cloning a packet (mirrored-write
/// duplication) bumps refcounts instead of deep-copying the payload, and
/// address rewrites never touch payload bytes at all — the checksum is
/// patched incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source endpoint.
    pub src: SockAddr,
    /// Destination endpoint.
    pub dst: SockAddr,
    /// The RPC header: every field up to a WRITE call's or READ reply's
    /// data, or every byte of a packet built from one buffer.
    pub payload: ByteBuf,
    /// The payload's bytes after the header ([`Packet::windows`]), boxed
    /// so a packet without them is no larger than one buffer made it.
    windows: Option<Box<Windows>>,
    /// Ones-complement checksum over the pseudo-header and payload.
    pub checksum: u16,
}

impl Packet {
    /// Builds a packet of one buffer, computing the checksum in full.
    pub fn new(src: SockAddr, dst: SockAddr, payload: impl Into<ByteBuf>) -> Self {
        Self::with_windows(src, dst, payload, Windows::default())
    }

    /// Builds a packet of a header and the data `windows` after it,
    /// summing the parts: a window of the shared zero buffer is not read,
    /// and a window's whole chunks are added from their remembered sums.
    pub fn with_windows(
        src: SockAddr,
        dst: SockAddr,
        header: impl Into<ByteBuf>,
        windows: Windows,
    ) -> Self {
        let payload = header.into();
        let len = payload.len() + windows.len();
        let mut sum = PartSum::default();
        sum.add(&Self::pseudo_header(src, dst, len));
        sum.add(&payload);
        for w in windows.iter() {
            if w.is_zeros() {
                sum.add_zeros(w.len());
            } else {
                w.sum_into(&mut sum);
            }
        }
        Packet {
            src,
            dst,
            payload,
            windows: (!windows.is_empty()).then(|| Box::new(windows)),
            checksum: sum.checksum(),
        }
    }

    /// The payload's bytes after the header: file data and its XDR
    /// padding, in the buffers they lie in; none for a packet built from
    /// one buffer.
    pub fn windows(&self) -> &Windows {
        self.windows.as_deref().unwrap_or(Windows::empty())
    }

    fn pseudo_header(src: SockAddr, dst: SockAddr, len: usize) -> [u8; 16] {
        let mut h = [0u8; 16];
        h[0..4].copy_from_slice(&src.ip.to_be_bytes());
        h[4..8].copy_from_slice(&dst.ip.to_be_bytes());
        h[8..10].copy_from_slice(&src.port.to_be_bytes());
        h[10..12].copy_from_slice(&dst.port.to_be_bytes());
        h[12..16].copy_from_slice(&(len as u32).to_be_bytes());
        h
    }

    /// Payload bytes: the header and every window.
    pub fn payload_len(&self) -> usize {
        self.payload.len() + self.windows().len()
    }

    /// The payload's bytes in one buffer (one copy; tests and digests).
    pub fn bytes(&self) -> Vec<u8> {
        let mut bytes = self.payload.to_vec();
        bytes.extend_from_slice(&self.windows().to_vec());
        bytes
    }

    /// The payload bytes of `range` — an offset range over the header
    /// followed by the windows, as a parser hands it out — as windows of
    /// the buffers they lie in.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the payload.
    pub fn range(&self, range: Range<usize>) -> Windows {
        let head = self.payload.len();
        let mut out = Windows::default();
        if range.start < head {
            let end = range.end.min(head);
            out.push(self.payload.slice(range.start, end - range.start));
        }
        if range.end > head {
            let tail = self
                .windows()
                .slice(range.start.max(head) - head..range.end - head);
            tail.iter().for_each(|w| out.push(w.clone()));
        }
        out
    }

    /// True when the stored checksum matches the contents. The payload is
    /// summed in one piece, not part by part as it was built, so a sum
    /// that composed its parts wrongly shows here.
    pub fn verify(&self) -> bool {
        let bytes = self.bytes();
        let ph = Self::pseudo_header(self.src, self.dst, bytes.len());
        self.checksum == slice_hashes::checksum::inet_checksum_parts(&[&ph, &bytes])
    }

    /// Rewrites the destination endpoint, patching the checksum
    /// incrementally.
    pub fn rewrite_dst(&mut self, new: SockAddr) {
        self.checksum = incremental_update32(self.checksum, self.dst.ip, new.ip);
        self.checksum = incremental_update16(self.checksum, self.dst.port, new.port);
        self.dst = new;
    }

    /// Rewrites the source endpoint, patching the checksum incrementally.
    pub fn rewrite_src(&mut self, new: SockAddr) {
        self.checksum = incremental_update32(self.checksum, self.src.ip, new.ip);
        self.checksum = incremental_update16(self.checksum, self.src.port, new.port);
        self.src = new;
    }

    /// Rewrites an even-aligned region of the header in place, patching
    /// the checksum incrementally. `offset` must be even and the
    /// replacement must fit and have even length.
    ///
    /// # Panics
    ///
    /// Panics if the region is misaligned or out of bounds.
    pub fn rewrite_payload(&mut self, offset: usize, new_bytes: &[u8]) {
        assert!(
            offset.is_multiple_of(2),
            "payload rewrite must be 16-bit aligned"
        );
        assert!(
            new_bytes.len().is_multiple_of(2),
            "payload rewrite must have even length"
        );
        assert!(
            offset + new_bytes.len() <= self.payload.len(),
            "rewrite out of bounds"
        );
        let old = &self.payload[offset..offset + new_bytes.len()];
        if old == new_bytes {
            // The patch is a no-op (the cached attributes already match
            // the reply's authoritative block, the common case right
            // after a create or store). Skipping it keeps the payload
            // shared: no checksum work and, crucially, no copy-on-write
            // fault when the buffer is also stashed elsewhere.
            return;
        }
        self.checksum =
            slice_hashes::checksum::incremental_update_bytes(self.checksum, old, new_bytes);
        // Copy-on-write: in the hot case (a reply fresh off the wire with
        // one owner) this mutates in place; only a shared buffer copies.
        self.payload.make_mut()[offset..offset + new_bytes.len()].copy_from_slice(new_bytes);
    }

    /// Total bytes on the wire including simulated headers.
    pub fn wire_size(&self) -> usize {
        self.payload_len() + UDP_IP_HEADER_BYTES
    }
}

impl MessageSize for Packet {
    fn wire_size(&self) -> usize {
        Packet::wire_size(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(ip: u32, port: u16) -> SockAddr {
        SockAddr::new(ip, port)
    }

    #[test]
    fn checksum_verifies_on_build() {
        let p = Packet::new(
            addr(0x0a000001, 700),
            addr(0x0a0000fe, 2049),
            b"payload!".to_vec(),
        );
        assert!(p.verify());
    }

    #[test]
    fn rewrite_dst_keeps_checksum_valid() {
        let mut p = Packet::new(
            addr(0x0a000001, 700),
            addr(0x0a0000fe, 2049),
            vec![7u8; 301],
        );
        p.rewrite_dst(addr(0x0a000042, 3049));
        assert_eq!(p.dst, addr(0x0a000042, 3049));
        assert!(p.verify(), "incremental dst rewrite broke checksum");
    }

    #[test]
    fn rewrite_src_keeps_checksum_valid() {
        let mut p = Packet::new(
            addr(0x0a000001, 700),
            addr(0x0a0000fe, 2049),
            vec![0xffu8; 64],
        );
        p.rewrite_src(addr(0xc0a80101, 999));
        assert!(p.verify(), "incremental src rewrite broke checksum");
    }

    #[test]
    fn chained_rewrites_stay_valid() {
        let mut p = Packet::new(addr(1, 1), addr(2, 2), (0..255u8).collect::<Vec<u8>>());
        // Odd payload length exercises the padded final word.
        for i in 0..20u32 {
            p.rewrite_dst(addr(i * 7 + 3, (i * 13 + 1) as u16));
            p.rewrite_src(addr(i * 11 + 5, (i * 17 + 2) as u16));
            assert!(p.verify(), "iteration {i}");
        }
    }

    #[test]
    fn payload_rewrite_keeps_checksum_valid() {
        let mut p = Packet::new(addr(1, 1), addr(2, 2), vec![0x33u8; 128]);
        p.rewrite_payload(40, &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(&p.payload[40..44], &[0xde, 0xad, 0xbe, 0xef]);
        assert!(p.verify());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn payload_rewrite_bounds_checked() {
        let mut p = Packet::new(addr(1, 1), addr(2, 2), vec![0u8; 8]);
        p.rewrite_payload(6, &[0, 0, 0, 0]);
    }

    #[test]
    fn corruption_detected() {
        let mut p = Packet::new(addr(1, 1), addr(2, 2), vec![9u8; 40]);
        p.payload.make_mut()[17] ^= 0x40;
        assert!(!p.verify());
    }

    /// Windows cost a packet nothing until it has some: a packet is the
    /// size a packet of one buffer was, so the engine's event slots do not
    /// grow.
    #[test]
    fn a_packet_is_no_larger_than_one_buffer_made_it() {
        assert_eq!(std::mem::size_of::<ByteBuf>(), 16);
        assert_eq!(std::mem::size_of::<Packet>(), 48);
        assert!(Packet::new(addr(1, 1), addr(2, 2), vec![1u8; 8])
            .windows()
            .is_empty());
    }

    #[test]
    fn wire_size_includes_headers() {
        let p = Packet::new(addr(1, 1), addr(2, 2), vec![0u8; 100]);
        assert_eq!(MessageSize::wire_size(&p), 128);
        let mut w = Windows::from(ByteBuf::from_vec(vec![5; 33]));
        w.push_zeros(3);
        let p = Packet::with_windows(addr(1, 1), addr(2, 2), vec![0u8; 100], w);
        assert_eq!(MessageSize::wire_size(&p), 164);
    }

    /// A header and windows — odd lengths, zero windows between data —
    /// carry the checksum of the same bytes in one buffer, and a range
    /// over them resolves to the buffers the bytes lie in.
    #[test]
    fn windows_sum_and_resolve_as_the_flat_bytes() {
        let data = ByteBuf::from_vec((0..255u8).collect());
        let mut w = Windows::from(data.slice(0, 7));
        w.push_zeros(5);
        w.push(data.slice(7, 100));
        w.push_zeros(1);
        w.push(data.slice(107, 13));
        let head: Vec<u8> = (0..36u8).map(|b| b.wrapping_mul(37)).collect();
        let p = Packet::with_windows(addr(3, 4), addr(5, 6), head.clone(), w);
        let flat = Packet::new(addr(3, 4), addr(5, 6), p.bytes());
        assert_eq!(p.checksum, flat.checksum);
        assert_eq!(p.payload_len(), 36 + 126);
        assert!(p.verify());
        for (lo, hi) in [(0, 36), (30, 40), (36, 48), (40, 162), (0, 162), (161, 162)] {
            let r = p.range(lo..hi);
            assert_eq!(r.to_vec(), &flat.payload[lo..hi], "{lo}..{hi}");
        }
        assert!(p
            .range(36..162)
            .iter()
            .all(|w| ByteBuf::ptr_eq(w, &data) || w.is_zeros()));
    }

    fn seeded_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The checksum of `head` then `windows`, and of the same bytes in
    /// one buffer, which is summed in full.
    fn windowed_and_flat(head: &[u8], windows: Windows) -> (u16, u16) {
        let p = Packet::with_windows(addr(9, 1), addr(8, 2), head.to_vec(), windows);
        let flat = Packet::new(addr(9, 1), addr(8, 2), p.bytes());
        (p.checksum, flat.checksum)
    }

    /// Windows cut at every offset parity and every length around 4 KiB
    /// edges, from buffers summed before — overlapping slices, summed in
    /// ascending order in one buffer and descending in its twin — carry
    /// the checksum of the same bytes held flat, behind a header of either
    /// parity. One buffer runs past 64 KiB, and one holds words that sum
    /// to 0xffff.
    #[test]
    fn windows_of_summed_buffers_carry_the_flat_checksum() {
        const EDGE: usize = 4096;
        let mut ones = vec![0xffu8; 3 * EDGE + 11];
        ones[EDGE + 5] = 0;
        for bytes in [
            seeded_bytes(3 * EDGE + 777, 17),
            seeded_bytes(17 * EDGE + 5, 29),
            ones,
        ] {
            let offsets: Vec<usize> = [0, 1, 2, 3, EDGE - 3, EDGE - 2, EDGE - 1]
                .into_iter()
                .flat_map(|o| [o, o + EDGE, o + 2 * EDGE])
                .chain([EDGE, 16 * EDGE - 1, 16 * EDGE, 16 * EDGE + 1])
                .filter(|&o| o < bytes.len())
                .collect();
            let lens: Vec<usize> = [0, 1, 2, 3]
                .into_iter()
                .chain((1..=3).flat_map(|k| [k * EDGE - 1, k * EDGE, k * EDGE + 1]))
                .chain([EDGE + 2, 2 * EDGE - 2, 16 * EDGE + 3])
                .collect();
            let cuts: Vec<(usize, usize)> = offsets
                .iter()
                .flat_map(|&o| lens.iter().map(move |&l| (o, l)))
                .filter(|&(o, l)| o + l <= bytes.len())
                .collect();
            let up = ByteBuf::from_vec(bytes.clone());
            let down = ByteBuf::from_vec(bytes.clone());
            for (buf, order) in [
                (&up, cuts.clone()),
                (&down, cuts.iter().rev().copied().collect()),
            ] {
                for (i, &(o, l)) in order.iter().enumerate() {
                    let head = &bytes[..35 + i % 2];
                    let (got, want) = windowed_and_flat(head, buf.slice(o, l).into());
                    assert_eq!(got, want, "offset {o} len {l} head {}", head.len());
                }
                // Overlapping windows of one buffer in one packet, and a
                // zero window between them.
                let mut w = Windows::default();
                for &(o, l) in order.iter().step_by(7) {
                    w.push(buf.slice(o, l));
                    w.push_zeros(o % 3);
                }
                let (got, want) = windowed_and_flat(&bytes[..3], w);
                assert_eq!(got, want, "overlapping windows");
            }
            let whole = windowed_and_flat(&[], up.clone().into());
            assert_eq!(whole.0, whole.1, "the whole buffer");
        }
    }

    /// A buffer whose windows were summed sums to its new bytes once it
    /// is mutated: in place when it has one owner, copied on write when a
    /// packet still holds it.
    #[test]
    fn a_summed_buffer_mutated_sums_to_its_new_bytes() {
        let bytes = seeded_bytes(5 * 4096 + 3, 41);
        for (off, len) in [(0, bytes.len()), (4095, 3 * 4096 + 2)] {
            // One owner: the window is patched where it lies.
            let mut buf = ByteBuf::from_vec(bytes.clone()).slice(off, len);
            let (got, want) = windowed_and_flat(&[1, 2], buf.clone().into());
            assert_eq!(got, want);
            let at = buf.as_ptr();
            for i in [0, 1, 4096, 8191, 9000, len - 1] {
                buf.make_mut()[i] ^= 0x5a;
            }
            assert_eq!(buf.as_ptr(), at, "a unique buffer is patched in place");
            let (got, want) = windowed_and_flat(&[1, 2], buf.clone().into());
            assert_eq!(got, want, "in place, window at {off}");
            // Shared: the packet keeps the old bytes, the copy the new.
            let held = Packet::with_windows(addr(9, 1), addr(8, 2), vec![1], buf.clone().into());
            buf.make_mut()[4097] ^= 0xa5;
            assert_ne!(buf.as_ptr(), at, "a shared buffer is copied");
            assert!(held.verify());
            let (got, want) = windowed_and_flat(&[1, 2], buf.clone().into());
            assert_eq!(got, want, "copied on write, window at {off}");
        }
    }
}
