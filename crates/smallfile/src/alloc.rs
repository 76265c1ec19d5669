//! Zone allocation for small-file data: power-of-two fragments with
//! best-fit reuse (paper §4.4, after Squid-MLA and FFS fragments).
//!
//! Each small-file server allocates storage for file blocks from *zones*,
//! one per storage site, each backed by a large storage object in the
//! network storage array. Physical storage for a logical 8 KB block is
//! rounded up to the next power of two ("a 8300 byte file would consume
//! only 8320 bytes of physical storage space, 8192 bytes for the first
//! block, and 128 for the remaining 108 bytes"). Freed fragments go on
//! per-class free lists; allocation takes an exact-class fragment when one
//! is free, otherwise appends a new region at the end of a backing object,
//! which lays create-heavy workloads out sequentially.

/// Logical block size for small files.
pub const SF_BLOCK: u32 = 8192;
/// Smallest physical fragment.
pub const MIN_FRAG: u32 = 128;

/// Size classes: 128, 256, ..., 8192.
pub const NUM_CLASSES: usize = 7;

/// Rounds a byte count up to its physical fragment size.
pub fn frag_size(bytes: u32) -> u32 {
    debug_assert!(bytes <= SF_BLOCK);
    bytes.max(MIN_FRAG).next_power_of_two()
}

fn class_of(frag: u32) -> usize {
    debug_assert!(frag.is_power_of_two() && (MIN_FRAG..=SF_BLOCK).contains(&frag));
    (frag.trailing_zeros() - MIN_FRAG.trailing_zeros()) as usize
}

/// A physical region within a zone's backing object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Zone (and therefore storage site) index.
    pub zone: u32,
    /// Byte offset within the zone's backing object.
    pub offset: u64,
    /// Physical fragment size (power of two).
    pub frag: u32,
}

/// One zone: an append tail plus per-class free lists.
#[derive(Debug, Clone, Default)]
struct Zone {
    tail: u64,
    free: [Vec<u64>; NUM_CLASSES],
    free_bytes: u64,
}

/// The allocator across all of a server's zones.
#[derive(Debug, Clone)]
pub struct ZoneAllocator {
    zones: Vec<Zone>,
    /// Round-robin cursor for appends (spreads load across storage sites).
    next_zone: u32,
    allocated_bytes: u64,
}

impl ZoneAllocator {
    /// Creates an allocator over `zones` zones.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is zero.
    pub fn new(zones: u32) -> Self {
        assert!(zones > 0, "need at least one zone");
        ZoneAllocator {
            zones: (0..zones).map(|_| Zone::default()).collect(),
            next_zone: 0,
            allocated_bytes: 0,
        }
    }

    /// Number of zones.
    pub fn zones(&self) -> u32 {
        self.zones.len() as u32
    }

    /// Allocates a fragment holding `bytes` (≤ 8 KB): best fit from a free
    /// list if an exact-class fragment exists, otherwise appended at a
    /// zone tail.
    pub fn alloc(&mut self, bytes: u32) -> Region {
        let frag = frag_size(bytes);
        let class = class_of(frag);
        // Best fit: an exact-class free fragment from any zone
        // (deterministic first-zone order).
        for (zi, zone) in self.zones.iter_mut().enumerate() {
            if let Some(offset) = zone.free[class].pop() {
                zone.free_bytes -= u64::from(frag);
                self.allocated_bytes += u64::from(frag);
                return Region {
                    zone: zi as u32,
                    offset,
                    frag,
                };
            }
        }
        // No good fragment: append at the end of the next zone's backing
        // object (sequential batched layout for create-heavy loads).
        let zi = self.next_zone as usize;
        self.next_zone = (self.next_zone + 1) % self.zones.len() as u32;
        let zone = &mut self.zones[zi];
        let offset = zone.tail;
        zone.tail += u64::from(frag);
        self.allocated_bytes += u64::from(frag);
        Region {
            zone: zi as u32,
            offset,
            frag,
        }
    }

    /// Returns a fragment to its zone's free list.
    pub fn free(&mut self, region: Region) {
        let class = class_of(region.frag);
        let zone = &mut self.zones[region.zone as usize];
        zone.free[class].push(region.offset);
        zone.free_bytes += u64::from(region.frag);
        self.allocated_bytes -= u64::from(region.frag);
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Bytes sitting on free lists.
    pub fn free_bytes(&self) -> u64 {
        self.zones.iter().map(|z| z.free_bytes).sum()
    }

    /// High-water mark of a zone's backing object.
    pub fn zone_tail(&self, zone: u32) -> u64 {
        self.zones[zone as usize].tail
    }

    /// Forces a zone's append tail forward (crash recovery: nothing below
    /// the recovered high-water mark is handed out again).
    pub fn set_tail(&mut self, zone: u32, tail: u64) {
        let z = &mut self.zones[zone as usize];
        z.tail = z.tail.max(tail);
    }

    /// Counts `region` as allocated (crash recovery: a recovered map still
    /// names it, and will free it).
    pub fn claim(&mut self, region: Region) {
        self.allocated_bytes += u64::from(region.frag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frag_rounding_matches_paper_example() {
        // 8300-byte file: first block 8192 (full), second block 108 bytes
        // rounds to 128; total physical 8320.
        assert_eq!(frag_size(8192), 8192);
        assert_eq!(frag_size(108), 128);
        assert_eq!(frag_size(8192) + frag_size(108), 8320);
    }

    #[test]
    fn frag_classes() {
        assert_eq!(frag_size(1), 128);
        assert_eq!(frag_size(128), 128);
        assert_eq!(frag_size(129), 256);
        assert_eq!(frag_size(4097), 8192);
        assert_eq!(class_of(128), 0);
        assert_eq!(class_of(8192), 6);
    }

    #[test]
    fn append_is_sequential_within_zone() {
        let mut a = ZoneAllocator::new(1);
        let r1 = a.alloc(8192);
        let r2 = a.alloc(8192);
        assert_eq!(r1.offset, 0);
        assert_eq!(r2.offset, 8192);
    }

    #[test]
    fn round_robin_spreads_zones() {
        let mut a = ZoneAllocator::new(4);
        let zones: Vec<u32> = (0..8).map(|_| a.alloc(1024).zone).collect();
        assert_eq!(zones, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn free_then_alloc_reuses_exact_class() {
        let mut a = ZoneAllocator::new(2);
        let r = a.alloc(1000); // 1024-byte class
        a.free(r);
        let r2 = a.alloc(900); // same class: must reuse
        assert_eq!((r2.zone, r2.offset, r2.frag), (r.zone, r.offset, r.frag));
        // A different class does not reuse it.
        let r3 = a.alloc(100);
        assert_ne!((r3.zone, r3.offset), (r.zone, r.offset));
    }

    #[test]
    fn accounting_balances() {
        let mut a = ZoneAllocator::new(3);
        let regions: Vec<Region> = (0..30).map(|i| a.alloc((i % 8192 + 1) as u32)).collect();
        let total = a.allocated_bytes();
        assert!(total >= 30 * 128);
        for r in regions {
            a.free(r);
        }
        assert_eq!(a.allocated_bytes(), 0);
        assert_eq!(a.free_bytes(), total);
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn zero_zones_rejected() {
        ZoneAllocator::new(0);
    }
}
