//! Hash and checksum primitives for the Slice reproduction.
//!
//! Three families live here, all implemented from scratch:
//!
//! * [`mod@md5`] — the routing hash the paper selected empirically for its
//!   balanced distribution (RFC 1321).
//! * [`fnv`] — a cheap comparison hash and internal-table hash.
//! * [`checksum`] — the Internet checksum with RFC 1624 incremental update,
//!   used by the µproxy's differential packet rewriting.
//!
//! Beside them, [`routing`] says once where a name operation goes, for
//! the µproxy and the directory servers alike.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod fnv;
pub mod md5;
pub mod routing;

pub use checksum::{
    incremental_update16, incremental_update32, incremental_update_bytes, inet_checksum, PartSum,
};
pub use fnv::{fnv1a, fnv1a_continue};
pub use md5::{md5, md5_u64, Md5};
pub use routing::{NamePolicy, RoutingTable};

/// Fingerprints a `(parent fhandle, name)` pair the way the paper's µproxy
/// and directory servers do: MD5 over the handle bytes followed by the name
/// bytes, truncated to 64 bits.
pub fn name_fingerprint(parent_fh: &[u8], name: &[u8]) -> u64 {
    let mut ctx = Md5::new();
    ctx.update(parent_fh);
    ctx.update(&(name.len() as u32).to_le_bytes());
    ctx.update(name);
    let d = ctx.finish();
    u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

/// Number of logical server slots in the default routing tables: the
/// rebalancing granularity shared by the µproxy and the servers.
pub const LOGICAL_SLOTS: usize = 64;

/// The system-wide default mapping from a fingerprint to a physical site:
/// hash into [`LOGICAL_SLOTS`] logical slots, then round-robin the slots
/// over `sites`. The µproxy's balanced routing tables and the directory
/// servers' fixed-placement decisions must agree on this function.
///
/// # Panics
///
/// Panics if `sites` is zero.
pub fn default_site_of(fingerprint: u64, sites: usize) -> usize {
    assert!(sites > 0, "default_site_of requires at least one site");
    bucket_of(fingerprint, LOGICAL_SLOTS) % sites
}

/// Maps a 64-bit fingerprint onto one of `buckets` logical server slots.
///
/// # Panics
///
/// Panics if `buckets` is zero.
pub fn bucket_of(fingerprint: u64, buckets: usize) -> usize {
    assert!(buckets > 0, "bucket_of requires at least one bucket");
    // Multiply-shift avoids the bias of `% buckets` for power-of-two-hostile
    // bucket counts while staying cheap.
    ((u128::from(fingerprint) * buckets as u128) >> 64) as usize
}

/// The small-file server, of `servers`, that holds the data of `file`
/// below the threshold offset.
///
/// # Panics
///
/// Panics if `servers` is zero.
pub fn sf_server_of(file: u64, servers: usize) -> usize {
    default_site_of(fnv1a(&file.to_le_bytes()), servers)
}

/// Static bulk placement: the slots, of `sites`, that hold stripe
/// `stripe` of `file`. `copies` consecutive slots (at most `sites`) of a
/// rotation that starts at a per-file base and advances one slot a
/// stripe: the copies of a stripe are disjoint, and a file's stripes
/// spread over every site. A slot is a site under static placement and
/// an index into the coordinator's list of assignable sites under block
/// maps.
///
/// # Panics
///
/// Panics if `sites` is zero.
pub fn stripe_slots(file: u64, stripe: u64, copies: u32, sites: u32) -> impl Iterator<Item = u32> {
    assert!(sites > 0, "stripe_slots requires at least one site");
    let n = u64::from(sites);
    let first = (fnv1a(&file.to_le_bytes()) % n + stripe % n) % n;
    (0..u64::from(copies.min(sites))).map(move |c| ((first + c) % n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_slots_are_disjoint_and_rotate() {
        for file in 0..50u64 {
            let at = |stripe| stripe_slots(file, stripe, 2, 5).collect::<Vec<_>>();
            let first = at(0);
            assert_eq!(first[1], (first[0] + 1) % 5, "copies are consecutive");
            assert_eq!(at(1)[0], first[1], "one slot a stripe");
            assert_eq!(at(5), first, "period = sites");
        }
        // More copies than sites: every site once.
        let mut all: Vec<u32> = stripe_slots(9, 3, 8, 4).collect();
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3]);
    }

    #[test]
    fn fingerprint_sensitive_to_both_fields() {
        let base = name_fingerprint(b"fh-A", b"name");
        assert_ne!(base, name_fingerprint(b"fh-B", b"name"));
        assert_ne!(base, name_fingerprint(b"fh-A", b"eman"));
    }

    #[test]
    fn fingerprint_is_unambiguous_across_boundary() {
        // Length framing prevents (fh="a", name="bc") colliding with
        // (fh="ab", name="c").
        assert_ne!(name_fingerprint(b"a", b"bc"), name_fingerprint(b"ab", b"c"));
    }

    #[test]
    fn buckets_cover_range_evenly() {
        let buckets = 7;
        let mut counts = vec![0usize; buckets];
        for i in 0..70_000u32 {
            let f = name_fingerprint(b"dir", format!("file{i}").as_bytes());
            counts[bucket_of(f, buckets)] += 1;
        }
        let expect = 70_000 / buckets;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 9 / 10 && c < expect * 11 / 10,
                "bucket {b} skewed: {c} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        bucket_of(1, 0);
    }
}
