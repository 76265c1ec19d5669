//! Randomized property tests: XDR roundtrips and decoder robustness.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_sim::Rng;
use slice_xdr::{XdrDecoder, XdrEncoder};

const CASES: usize = 256;

/// One encodable item for roundtrip scripts.
#[derive(Debug, Clone)]
enum Item {
    U32(u32),
    U64(u64),
    Bool(bool),
    Opaque(Vec<u8>),
    Str(String),
}

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-";

fn random_item(rng: &mut Rng) -> Item {
    match rng.gen_range(0u32..5) {
        0 => Item::U32(rng.gen()),
        1 => Item::U64(rng.gen()),
        2 => Item::Bool(rng.gen()),
        3 => {
            let len = rng.gen_range(0usize..200);
            Item::Opaque((0..len).map(|_| rng.gen::<u8>()).collect())
        }
        _ => {
            let len = rng.gen_range(0usize..64);
            Item::Str(
                (0..len)
                    .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())] as char)
                    .collect(),
            )
        }
    }
}

/// Any sequence of items encodes and decodes back identically.
#[test]
fn roundtrip_sequences() {
    let mut rng = Rng::seed_from_u64(0x7844_5201);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..32);
        let items: Vec<Item> = (0..n).map(|_| random_item(&mut rng)).collect();
        let mut enc = XdrEncoder::new();
        for item in &items {
            match item {
                Item::U32(v) => enc.put_u32(*v),
                Item::U64(v) => enc.put_u64(*v),
                Item::Bool(v) => enc.put_bool(*v),
                Item::Opaque(v) => enc.put_opaque(v),
                Item::Str(s) => enc.put_string(s),
            }
        }
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len() % 4, 0, "xdr output is 4-byte aligned");
        let mut dec = XdrDecoder::new(&bytes);
        for item in &items {
            match item {
                Item::U32(v) => assert_eq!(dec.get_u32().unwrap(), *v),
                Item::U64(v) => assert_eq!(dec.get_u64().unwrap(), *v),
                Item::Bool(v) => assert_eq!(dec.get_bool().unwrap(), *v),
                Item::Opaque(v) => assert_eq!(dec.get_opaque().unwrap(), &v[..]),
                Item::Str(s) => assert_eq!(dec.get_string().unwrap(), s.as_str()),
            }
        }
        assert!(dec.is_empty());
    }
}

/// The decoder never panics or over-reads on arbitrary input.
#[test]
fn decoder_is_total_on_garbage() {
    let mut rng = Rng::seed_from_u64(0x7844_5202);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let mut dec = XdrDecoder::new(&bytes);
        // Exercise every accessor; all must return Ok or Err, never panic.
        let _ = dec.get_u32();
        let _ = dec.get_bool();
        let _ = dec.get_opaque();
        let _ = dec.get_string();
        let _ = dec.skip_opaque();
        let _ = dec.get_u64();
        assert!(dec.position() <= bytes.len());
    }
}

/// Truncating an encoding at any point yields an error, not a panic.
#[test]
fn truncation_always_errors_cleanly() {
    let mut rng = Rng::seed_from_u64(0x7844_5203);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..64);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let cut_frac: f64 = rng.gen();
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&data);
        enc.put_u64(0xdead_beef_0000_0001);
        let bytes = enc.into_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let mut dec = XdrDecoder::new(&bytes[..cut]);
        let a = dec.get_opaque().map(|s| s.to_vec());
        let b = dec.get_u64();
        assert!(a.is_err() || b.is_err());
    }
}
