//! Randomized property tests: object-store consistency against a flat
//! model, WAL recovery invariants, and cache accounting.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_sim::time::{SimDuration, SimTime};
use slice_sim::Rng;
use slice_storage::{ObjectStore, Wal, WalParams};

const CASES: usize = 128;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u16, data: Vec<u8> },
    Truncate { size: u16 },
    Read { offset: u16, len: u16 },
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => {
            let len = rng.gen_range(1usize..128);
            Op::Write {
                offset: rng.gen_range(0..4096u16),
                data: (0..len).map(|_| rng.gen::<u8>()).collect(),
            }
        }
        1 => Op::Truncate {
            size: rng.gen_range(0..5000u16),
        },
        _ => Op::Read {
            offset: rng.gen_range(0..5000u16),
            len: rng.gen_range(0..512u16),
        },
    }
}

/// The sparse extent store always agrees with a flat byte-array model.
#[test]
fn object_store_matches_flat_model() {
    let mut rng = Rng::seed_from_u64(0x5354_4f01);
    for _ in 0..CASES {
        let nops = rng.gen_range(1usize..60);
        let ops: Vec<Op> = (0..nops).map(|_| random_op(&mut rng)).collect();
        let mut store = ObjectStore::new();
        let mut model = vec![0u8; 1 << 16];
        let mut size = 0usize;
        for op in ops {
            match op {
                Op::Write { offset, data } => {
                    let off = offset as usize;
                    store.write(1, off as u64, &data);
                    model[off..off + data.len()].copy_from_slice(&data);
                    size = size.max(off + data.len());
                }
                Op::Truncate { size: s } => {
                    let s = s as usize;
                    store.truncate(1, s as u64);
                    if s < size {
                        model[s..size].fill(0);
                    }
                    size = s;
                }
                Op::Read { offset, len } => {
                    let (data, _) = store.read(1, u64::from(offset), len as usize);
                    for (i, b) in data.iter().enumerate() {
                        let pos = offset as usize + i;
                        let want = if pos < size { model[pos] } else { 0 };
                        assert_eq!(*b, want, "mismatch at {}", pos);
                    }
                }
            }
            assert_eq!(store.size(1), size as u64);
        }
    }
}

/// WAL recovery returns exactly the durable prefix, in order.
#[test]
fn wal_recovery_is_a_prefix() {
    let mut rng = Rng::seed_from_u64(0x5354_4f02);
    for _ in 0..CASES {
        let ngaps = rng.gen_range(1usize..40);
        let gaps: Vec<u64> = (0..ngaps).map(|_| rng.gen_range(0u64..2000)).collect();
        let crash_ms = rng.gen_range(0u64..20_000);
        let mut wal: Wal<usize> = Wal::new(WalParams::default());
        let mut now = SimTime::ZERO;
        let mut durable_times = Vec::new();
        for (i, gap) in gaps.iter().enumerate() {
            now += SimDuration::from_millis(*gap);
            durable_times.push(wal.append(now, i, 64));
        }
        let crash = SimTime::ZERO + SimDuration::from_millis(crash_ms);
        wal.recover(crash);
        let recovered: Vec<usize> = wal.iter().map(|(_, &i)| i).collect();
        // Durable times are monotone, so recovery yields 0..k.
        let expect: Vec<usize> = durable_times
            .iter()
            .enumerate()
            .filter(|(_, d)| **d <= crash)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(recovered, expect);
    }
}

/// LRU cache accounting never exceeds capacity with multi-entry
/// contents, and get() reflects insertions.
#[test]
fn lru_budget_invariant() {
    let mut rng = Rng::seed_from_u64(0x5354_4f03);
    for _ in 0..CASES {
        let nops = rng.gen_range(1usize..200);
        let mut cache = slice_sim::LruCache::new(256);
        for _ in 0..nops {
            let key: u8 = rng.gen();
            let sz = rng.gen_range(1u64..64);
            cache.insert(u64::from(key), sz);
            assert!(
                cache.used() <= 256 || cache.len() == 1,
                "budget exceeded with {} entries ({} bytes)",
                cache.len(),
                cache.used()
            );
            assert!(cache.contains(&u64::from(key)), "just-inserted key evicted");
        }
    }
}
