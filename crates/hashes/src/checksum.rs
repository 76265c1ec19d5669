//! Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! The µproxy rewrites addresses, ports, and occasionally attribute fields
//! inside UDP packets, so it must restore the UDP checksum to match the new
//! contents. The paper's prototype does this *incrementally*: the cost is
//! proportional to the number of modified bytes and independent of packet
//! size (§4.1, derived from FreeBSD's NAT code). This module implements both
//! the full ones-complement checksum and the RFC 1624 differential update
//! the µproxy uses on its fast path.

/// Computes the 16-bit ones-complement Internet checksum of `data`.
///
/// A trailing odd byte is padded with a zero byte, per RFC 1071. The value
/// returned is the checksum field value (i.e. the complement of the
/// ones-complement sum).
pub fn inet_checksum(data: &[u8]) -> u16 {
    !fold(raw_sum(data))
}

/// Checksum over the logical concatenation of `parts` without
/// materializing it: the ones-complement sum is associative over 16-bit
/// words, so parts can be summed independently and folded together —
/// provided every part except the last has even length (so the 16-bit
/// word grid stays aligned across the seam).
pub fn inet_checksum_parts(parts: &[&[u8]]) -> u16 {
    let mut sum: u64 = 0;
    for (i, p) in parts.iter().enumerate() {
        debug_assert!(
            i == parts.len() - 1 || p.len().is_multiple_of(2),
            "only the last part may have odd length"
        );
        sum += u64::from(raw_sum(p));
    }
    while sum > 0xffff_ffff {
        sum = (sum & 0xffff_ffff) + (sum >> 32);
    }
    !fold(sum as u32)
}

/// Bytes summed per iteration of the wide kernel: eight 32-bit lanes.
const WIDE_BLOCK: usize = 32;

/// Ones-complement sum of `data` as a 32-bit accumulator (not folded).
///
/// The bulk of the buffer is summed as *native-endian* 32-bit lanes into
/// eight independent accumulators, one 32-byte block per iteration, so
/// the loop carries no serial dependency and the compiler vectorises it.
/// The ones-complement sum is byte-order independent (RFC 1071 §2(B)):
/// summing byte-swapped words yields the byte-swapped sum, so the lanes
/// are folded to 16 bits and swapped once at the end. The tail shorter
/// than a block is summed big-endian; a block is an even number of bytes,
/// so the 16-bit word grid is the same in both.
fn raw_sum(data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(WIDE_BLOCK);
    let mut lanes = [0u64; WIDE_BLOCK / 4];
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane += u64::from(u32::from_ne_bytes(word.try_into().expect("4-byte lane")));
        }
    }
    // A u64 lane of u32 addends cannot overflow below 2^32 blocks
    // (128 GiB). Fold lanes to 32 bits, then to the 16-bit native-endian
    // sum, whose in-memory bytes are the big-endian sum's.
    let mut wide: u64 = lanes.iter().map(|&l| (l & 0xffff_ffff) + (l >> 32)).sum();
    while wide > 0xffff_ffff {
        wide = (wide & 0xffff_ffff) + (wide >> 32);
    }
    let mut sum = u64::from(u16::from_be_bytes(fold(wide as u32).to_ne_bytes()));
    let mut chunks8 = blocks.remainder().chunks_exact(8);
    for c in &mut chunks8 {
        let x = u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
        sum += (x >> 32) + (x & 0xffff_ffff);
    }
    let mut chunks2 = chunks8.remainder().chunks_exact(2);
    for pair in &mut chunks2 {
        sum += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    if let [last] = chunks2.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff_ffff {
        sum = (sum & 0xffff_ffff) + (sum >> 32);
    }
    sum as u32
}

/// Folds a 32-bit accumulator into 16 bits of ones-complement.
fn fold(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Incrementally updates a checksum after a 16-bit field changed from
/// `old` to `new` (RFC 1624 equation 3: `HC' = ~(~HC + ~m + m')`).
pub fn incremental_update16(checksum: u16, old: u16, new: u16) -> u16 {
    let sum = u32::from(!checksum) + u32::from(!old) + u32::from(new);
    !fold(sum)
}

/// Incrementally updates a checksum after a 32-bit field changed.
pub fn incremental_update32(checksum: u16, old: u32, new: u32) -> u16 {
    let c = incremental_update16(checksum, (old >> 16) as u16, (new >> 16) as u16);
    incremental_update16(c, old as u16, new as u16)
}

/// Incrementally updates a checksum after an even-aligned byte region
/// changed from `old` to `new` (slices must be the same, even, length and
/// start at an even offset within the checksummed data).
///
/// # Panics
///
/// Panics if the slices differ in length or have odd length.
pub fn incremental_update_bytes(mut checksum: u16, old: &[u8], new: &[u8]) -> u16 {
    assert_eq!(old.len(), new.len(), "old/new regions must match in length");
    assert_eq!(old.len() % 2, 0, "regions must be 16-bit aligned");
    for (o, n) in old.chunks_exact(2).zip(new.chunks_exact(2)) {
        checksum = incremental_update16(
            checksum,
            u16::from_be_bytes([o[0], o[1]]),
            u16::from_be_bytes([n[0], n[1]]),
        );
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // Classic RFC 1071 example: the sum of these words is 0xddf2,
        // so the checksum field is !0xddf2 = 0x220d.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(inet_checksum(&data), !0xddf2);
    }

    /// RFC 1071 verbatim: big-endian 16-bit words, a trailing odd byte
    /// padded with zero, end-around carry, complement.
    fn reference_checksum(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for pair in data.chunks(2) {
            let word = u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]);
            sum += u32::from(word);
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn wide_kernel_matches_reference_at_every_length_and_alignment() {
        let buf = seeded_bytes(4_100 + 8);
        for start in 0..8 {
            for len in 0..=4_100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    inet_checksum(data),
                    reference_checksum(data),
                    "start {start} len {len}"
                );
            }
        }
        // Saturated lanes: every carry path taken.
        let ones = vec![0xffu8; 70_000];
        assert_eq!(inet_checksum(&ones), reference_checksum(&ones));
    }

    #[test]
    fn parts_match_the_concatenation() {
        let buf = seeded_bytes(2_048);
        for head in (0..=96).step_by(2) {
            for tail in [0, 1, 2, 31, 32, 33, 64, 1_001] {
                let (a, b) = (&buf[..head], &buf[head..head + tail]);
                let joined = [a, b].concat();
                assert_eq!(
                    inet_checksum_parts(&[a, b]),
                    reference_checksum(&joined),
                    "head {head} tail {tail}"
                );
            }
        }
    }

    #[test]
    fn odd_length_pads_zero() {
        assert_eq!(inet_checksum(&[0xab]), inet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_property() {
        // Appending the checksum to the data makes the total sum all-ones.
        let data = b"slice interposed request routing";
        let c = inet_checksum(data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(fold(raw_sum(&with)), 0xffff);
    }

    #[test]
    fn incremental16_matches_full() {
        let mut data = vec![0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31 % 256) as u8;
        }
        let before = inet_checksum(&data);
        let old = u16::from_be_bytes([data[10], data[11]]);
        data[10] = 0xde;
        data[11] = 0xad;
        let new = u16::from_be_bytes([data[10], data[11]]);
        assert_eq!(incremental_update16(before, old, new), inet_checksum(&data));
    }

    #[test]
    fn incremental32_matches_full() {
        let mut data: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        let before = inet_checksum(&data);
        let old = u32::from_be_bytes([data[20], data[21], data[22], data[23]]);
        data[20..24].copy_from_slice(&0xc0a8_0101u32.to_be_bytes());
        assert_eq!(
            incremental_update32(before, old, 0xc0a8_0101),
            inet_checksum(&data)
        );
    }

    #[test]
    fn incremental_bytes_matches_full() {
        let mut data: Vec<u8> = (0..256).map(|i| (i ^ 0x5a) as u8).collect();
        let before = inet_checksum(&data);
        let old = data[32..48].to_vec();
        let new: Vec<u8> = (0..16).map(|i| (i * 13 + 1) as u8).collect();
        data[32..48].copy_from_slice(&new);
        assert_eq!(
            incremental_update_bytes(before, &old, &new),
            inet_checksum(&data)
        );
    }

    #[test]
    fn incremental_update_chain() {
        // Many successive field rewrites must stay consistent.
        let mut data = vec![0x11u8; 128];
        let mut c = inet_checksum(&data);
        for step in 0..50u16 {
            let off = (step as usize * 2) % 126;
            let old = u16::from_be_bytes([data[off], data[off + 1]]);
            let new = step.wrapping_mul(257) ^ 0xbeef;
            data[off..off + 2].copy_from_slice(&new.to_be_bytes());
            c = incremental_update16(c, old, new);
            assert_eq!(c, inet_checksum(&data), "step {step}");
        }
    }
}
