//! Randomized property tests: object-store consistency against a flat
//! model, mirrored storage nodes fed the same WRITE packets, WAL recovery
//! invariants, and cache accounting.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_nfsproto::{
    decode_reply, encode_call, view_call, AuthUnix, ByteBuf, CallView, Fhandle, NfsProc,
    NfsRequest, Packet, ReplyBody, SockAddr, StableHow,
};
use slice_sim::time::{SimDuration, SimTime};
use slice_sim::Rng;
use slice_storage::{
    ObjectStore, StorageCtl, StorageCtlReply, StorageNode, StorageNodeConfig, Wal, WalParams,
};

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

/// A storage node serves a WRITE packet as its actor does: the call is
/// viewed in place and the node is handed the data where it lies.
fn serve_write(node: &mut StorageNode, now: SimTime, pkt: &Packet) {
    let Ok((
        _,
        CallView::Write {
            fh,
            offset,
            stable,
            data,
        },
    )) = view_call(&pkt.payload)
    else {
        panic!("not a WRITE call");
    };
    node.write(now, &fh, offset, stable, &pkt.payload, data);
}

/// The data a node's encoded READ reply for `count` bytes at `offset`
/// carries: the bytes of the range that exist locally.
fn serve_read(node: &mut StorageNode, now: SimTime, obj: u64, offset: u64, count: u32) -> Vec<u8> {
    let fh = Fhandle::new(obj, 0, 0, 0, 0);
    let (_, payload) = node.read_encoded(now, 1, &fh, offset, count);
    match decode_reply(&payload, NfsProc::Read) {
        Ok((_, reply)) => match reply.body {
            ReplyBody::Read { data, .. } => data,
            other => panic!("READ answered with {other:?}"),
        },
        Err(e) => panic!("undecodable READ reply: {e:?}"),
    }
}

fn resync_read(node: &mut StorageNode, now: SimTime, obj: u64, offset: u64, len: u64) -> ByteBuf {
    match node.handle_ctl(now, &StorageCtl::ResyncRead { obj, offset, len }) {
        (_, StorageCtlReply::ResyncData { data, .. }) => data,
        (_, other) => panic!("ResyncRead answered with {other:?}"),
    }
}

/// The bytes of `[offset, offset + len)` a node with `model` must answer:
/// up to the object's end, holes as zeros.
fn expected(model: &[u8], offset: u64, len: u64) -> &[u8] {
    let start = (offset as usize).min(model.len());
    let end = (offset.saturating_add(len) as usize).min(model.len());
    &model[start..end]
}

/// Two retaining storage nodes are fed the same encoded WRITE packets —
/// one packet, cloned, as the µproxy's mirrored `pkt.clone()` sends it —
/// through random partial overwrites, truncates, removes, degraded writes
/// that reach one node only and resyncs that copy a range from one node
/// to the other. Every READ and every resync read answers what a flat
/// model per node holds. Then, after both nodes stored a packet, its
/// payload is patched in place ([`Packet::rewrite_payload`]): copy on
/// write must keep the patch from both stores.
#[test]
fn mirrored_write_packets_read_back_and_a_later_patch_is_unseen() {
    const OBJS: u64 = 3;
    const SPAN: u64 = 200_000;
    let client = SockAddr::new(0x0a00_0001, 700);
    let server = SockAddr::new(0x0a00_00fe, 2049);
    let cred = AuthUnix::default();
    let mut rng = Rng::seed_from_u64(0x5354_4f04);
    let config = StorageNodeConfig::default();
    assert!(config.retain_data);
    let mut nodes = [StorageNode::new(&config), StorageNode::new(&config)];
    let mut models: [Vec<Vec<u8>>; 2] = Default::default();
    for m in &mut models {
        m.resize(OBJS as usize, Vec::new());
    }
    let mut now = SimTime::ZERO;
    for step in 0..3_000u64 {
        now += SimDuration::from_millis(1);
        let obj = rng.gen_range(0..OBJS);
        let o = obj as usize;
        match rng.gen_range(0u32..100) {
            0..=54 => {
                // A WRITE: a whole block, a partial one, or a sliver.
                let len = match rng.gen_range(0u32..3) {
                    0 => 32 * 1024,
                    1 => rng.gen_range(1usize..32 * 1024),
                    _ => rng.gen_range(1usize..64),
                };
                let offset = rng.gen_range(0..SPAN);
                let data: Vec<u8> = (0..len)
                    .map(|i| (step as usize * 7 + i) as u8 | 1)
                    .collect();
                let stable = match rng.gen_range(0u32..3) {
                    0 => StableHow::Unstable,
                    1 => StableHow::DataSync,
                    _ => StableHow::FileSync,
                };
                let req = NfsRequest::Write {
                    fh: Fhandle::new(obj, 0, 0, 0, 0),
                    offset,
                    stable,
                    data: data.clone(),
                };
                let pkt = Packet::new(client, server, encode_call(step as u32, &cred, &req));
                // One node in ten misses a write (a degraded mirror).
                let to = match rng.gen_range(0u32..10) {
                    0 => 0..1,
                    1 => 1..2,
                    _ => 0..2,
                };
                for n in to {
                    serve_write(&mut nodes[n], now, &pkt.clone());
                    let m = &mut models[n][o];
                    let end = offset as usize + len;
                    if m.len() < end {
                        m.resize(end, 0);
                    }
                    m[offset as usize..end].copy_from_slice(&data);
                }
            }
            55..=74 => {
                let offset = rng.gen_range(0..SPAN + 1_000);
                let count = rng.gen_range(0u32..40_000);
                for n in 0..2 {
                    let got = serve_read(&mut nodes[n], now, obj, offset, count);
                    let want = expected(&models[n][o], offset, u64::from(count));
                    assert!(
                        got == want,
                        "node {n} READ {obj}@{offset}+{count} at {step}"
                    );
                }
            }
            75..=84 => {
                // Resync a range from one node to the other, as the
                // coordinator does after a degraded write.
                let (from, to) = if rng.gen_bool(0.5) { (0, 1) } else { (1, 0) };
                let offset = rng.gen_range(0..SPAN);
                let len = rng.gen_range(1u64..64 * 1024);
                let data = resync_read(&mut nodes[from], now, obj, offset, len);
                assert!(
                    data[..] == *expected(&models[from][o], offset, len),
                    "node {from} ResyncRead {obj}@{offset}+{len} at {step}"
                );
                let bytes = data.to_vec();
                let write = StorageCtl::ResyncWrite { obj, offset, data };
                nodes[to].handle_ctl(now, &write);
                // An empty range (the source is shorter) writes nothing.
                let m = &mut models[to][o];
                let end = offset as usize + bytes.len();
                if !bytes.is_empty() {
                    if m.len() < end {
                        m.resize(end, 0);
                    }
                    m[offset as usize..end].copy_from_slice(&bytes);
                }
            }
            85..=95 => {
                let size = rng.gen_range(0..SPAN);
                for n in 0..2 {
                    let truncate = StorageCtl::Truncate {
                        obj,
                        size,
                        intent: step,
                    };
                    nodes[n].handle_ctl(now, &truncate);
                    models[n][o].resize(size as usize, 0);
                }
            }
            _ => {
                for n in 0..2 {
                    nodes[n].handle_ctl(now, &StorageCtl::Remove { obj, intent: step });
                    models[n][o].clear();
                }
            }
        }
        for n in 0..2 {
            let size = models[n][o].len() as u64;
            assert_eq!(nodes[n].store().size(obj), size, "node {n} size at {step}");
        }
    }
    // Both nodes store one packet; then its payload is patched where the
    // data lies. Neither store may see the patch.
    now += SimDuration::from_millis(1);
    let (obj, offset) = (1u64, 4_096u64);
    let req = NfsRequest::Write {
        fh: Fhandle::new(obj, 0, 0, 0, 0),
        offset,
        stable: StableHow::Unstable,
        data: vec![0x11; 8_192],
    };
    let mut pkt = Packet::new(client, server, encode_call(9_999, &cred, &req));
    for (node, model) in nodes.iter_mut().zip(&mut models) {
        serve_write(node, now, &pkt.clone());
        let m = &mut model[obj as usize];
        if m.len() < (offset + 8_192) as usize {
            m.resize((offset + 8_192) as usize, 0);
        }
        m[offset as usize..(offset + 8_192) as usize].fill(0x11);
    }
    let Ok((_, CallView::Write { data, .. })) = view_call(&pkt.payload) else {
        panic!("not a WRITE call");
    };
    pkt.rewrite_payload(data.start + 512, &[0xee; 1_024]);
    assert!(pkt.verify(), "the patch keeps the checksum");
    assert_eq!(
        pkt.payload[data.start + 512],
        0xee,
        "the packet holds the patch"
    );
    for (n, node) in nodes.iter_mut().enumerate() {
        let model = &models[n][obj as usize];
        let got = serve_read(node, now, obj, 0, 40_000);
        assert!(got == expected(model, 0, 40_000), "node {n} saw the patch");
        let got = resync_read(node, now, obj, offset, 8_192);
        assert!(
            got.iter().all(|&b| b == 0x11),
            "node {n} resync saw the patch"
        );
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
