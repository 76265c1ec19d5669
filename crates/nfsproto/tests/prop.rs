//! Randomized property tests: NFS message roundtrips, packet rewriting
//! invariants, and decoder totality.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_nfsproto::{
    decode_call, decode_reply, encode_call, encode_reply, view_call, view_reply, AuthUnix,
    BodyView, CallView, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus,
    NfsTime, Packet, ReplyBody, Sattr3, SockAddr, StableHow,
};
use slice_sim::Rng;

const CASES: usize = 256;

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

fn random_fh(rng: &mut Rng) -> Fhandle {
    Fhandle::new(
        rng.gen(),
        rng.gen_range(0u32..16),
        rng.gen(),
        rng.gen(),
        rng.gen_range(0..=u16::MAX),
    )
}

fn random_name(rng: &mut Rng) -> String {
    let len = rng.gen_range(1usize..48);
    (0..len)
        .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())] as char)
        .collect()
}

fn random_bytes(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn random_req(rng: &mut Rng) -> NfsRequest {
    match rng.gen_range(0u32..9) {
        0 => NfsRequest::Getattr { fh: random_fh(rng) },
        1 => NfsRequest::Lookup {
            dir: random_fh(rng),
            name: random_name(rng),
        },
        2 => NfsRequest::Read {
            fh: random_fh(rng),
            offset: rng.gen(),
            count: rng.gen_range(0u32..100_000),
        },
        3 => NfsRequest::Write {
            fh: random_fh(rng),
            offset: rng.gen(),
            stable: StableHow::Unstable,
            data: random_bytes(rng, 0, 2048),
        },
        4 => NfsRequest::Create {
            dir: random_fh(rng),
            name: random_name(rng),
            attr: Sattr3::default(),
        },
        5 => NfsRequest::Remove {
            dir: random_fh(rng),
            name: random_name(rng),
        },
        6 => NfsRequest::Rename {
            from_dir: random_fh(rng),
            from_name: random_name(rng),
            to_dir: random_fh(rng),
            to_name: random_name(rng),
        },
        7 => NfsRequest::Readdir {
            dir: random_fh(rng),
            cookie: rng.gen(),
            cookieverf: rng.gen(),
            count: rng.gen_range(0u32..65536),
        },
        _ => NfsRequest::Commit {
            fh: random_fh(rng),
            offset: rng.gen(),
            count: rng.gen_range(0u32..100_000),
        },
    }
}

fn random_attr(rng: &mut Rng) -> Fattr3 {
    let mut a = Fattr3::new(
        FileType::Regular,
        rng.gen(),
        0o644,
        NfsTime {
            secs: rng.gen(),
            nsecs: rng.gen_range(0u32..1_000_000_000),
        },
    );
    a.size = rng.gen();
    a
}

/// Every generated call survives an encode/decode roundtrip.
#[test]
fn calls_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x4e46_5301);
    for _ in 0..CASES {
        let req = random_req(&mut rng);
        let xid: u32 = rng.gen();
        let payload = encode_call(xid, &AuthUnix::default(), &req);
        let (hdr, got) = decode_call(&payload).expect("decode");
        assert_eq!(hdr.xid, xid);
        assert_eq!(got, req);
    }
}

/// Replies roundtrip, preserving the attribute block exactly.
#[test]
fn replies_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x4e46_5302);
    for _ in 0..CASES {
        let attr = random_attr(&mut rng);
        let xid: u32 = rng.gen();
        let data = random_bytes(&mut rng, 0, 1024);
        let reply = NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: Some(attr),
            body: ReplyBody::Read {
                data: data.clone(),
                eof: data.is_empty(),
            },
        };
        let payload = encode_reply(xid, &reply);
        let (got_xid, got) = decode_reply(&payload, NfsProc::Read).expect("decode");
        assert_eq!(got_xid, xid);
        assert_eq!(got, reply);
    }
}

/// The call decoder never panics on arbitrary bytes.
#[test]
fn call_decoder_total() {
    let mut rng = Rng::seed_from_u64(0x4e46_5303);
    for _ in 0..CASES {
        let bytes = random_bytes(&mut rng, 0, 512);
        let _ = decode_call(&bytes);
    }
}

/// The reply decoder never panics on arbitrary bytes for any proc.
#[test]
fn reply_decoder_total() {
    let mut rng = Rng::seed_from_u64(0x4e46_5304);
    for _ in 0..CASES {
        let bytes = random_bytes(&mut rng, 0, 512);
        let p = rng.gen_range(0u32..22);
        if let Ok(proc) = NfsProc::from_u32(p) {
            let _ = decode_reply(&bytes, proc);
        }
    }
}

/// Every prefix of `wire`, and `wire` with each of its first 256 bytes
/// set to each of a few values: the malformed inputs the lazy parsers
/// must judge exactly as the materializing decoders do.
fn mangled(wire: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..wire.len().min(400))
        .chain(wire.len().saturating_sub(8)..=wire.len())
        .map(|cut| wire[..cut].to_vec());
    let flips = (0..wire.len().min(256)).flat_map(move |i| {
        [0x00, 0x01, 0x7f, 0x80, 0xff].into_iter().map(move |v| {
            let mut m = wire.to_vec();
            m[i] = if m[i] == v { v ^ 0x55 } else { v };
            m
        })
    });
    cuts.chain(flips)
}

/// The range-returning WRITE parser accepts and rejects exactly what
/// `decode_call` does, with equal fields, and never hands out a range
/// outside the payload — a malformed WRITE can be dropped, not forwarded.
#[test]
fn lazy_write_parse_agrees_with_decode_call() {
    let mut rng = Rng::seed_from_u64(0x4e46_5307);
    for len in [0usize, 1, 2, 3, 4, 1021, 32 * 1024] {
        let req = NfsRequest::Write {
            fh: random_fh(&mut rng),
            offset: rng.gen(),
            stable: StableHow::FileSync,
            data: (0..len).map(|_| rng.gen::<u8>()).collect(),
        };
        let wire = encode_call(rng.gen(), &AuthUnix::default(), &req);
        let mut accepted = 0;
        for m in mangled(&wire) {
            match (view_call(&m), decode_call(&m)) {
                (Ok((vh, view)), Ok((dh, decoded))) => {
                    accepted += 1;
                    assert_eq!(vh, dh);
                    if let (
                        CallView::Write {
                            fh,
                            offset,
                            stable,
                            data,
                        },
                        NfsRequest::Write {
                            fh: dfh,
                            offset: doffset,
                            stable: dstable,
                            data: ddata,
                        },
                    ) = (&view, &decoded)
                    {
                        assert_eq!((fh, offset, stable), (dfh, doffset, dstable));
                        assert_eq!(&m[data.clone()], &ddata[..]);
                    }
                    assert_eq!(view.into_request(&m), decoded);
                }
                (Err(v), Err(d)) => assert_eq!(v, d),
                (v, d) => panic!("parsers disagree: view {v:?}, decode {d:?}"),
            }
        }
        assert!(accepted > 0, "the unmangled call must be among the cases");
    }
}

/// The same for the READ-result layout and `decode_reply`.
#[test]
fn lazy_read_parse_agrees_with_decode_reply() {
    let mut rng = Rng::seed_from_u64(0x4e46_5308);
    for len in [0usize, 1, 2, 3, 4, 1021, 32 * 1024] {
        let reply = NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: Some(random_attr(&mut rng)),
            body: ReplyBody::Read {
                data: (0..len).map(|_| rng.gen::<u8>()).collect(),
                eof: len % 2 == 0,
            },
        };
        let wire = encode_reply(rng.gen(), &reply);
        let mut accepted = 0;
        for m in mangled(&wire) {
            match (
                view_reply(&m, NfsProc::Read),
                decode_reply(&m, NfsProc::Read),
            ) {
                (Ok((vx, view)), Ok((dx, decoded))) => {
                    accepted += 1;
                    assert_eq!(vx, dx);
                    assert_eq!((view.status, view.attr), (decoded.status, decoded.attr));
                    if let (
                        BodyView::Read { data, eof },
                        ReplyBody::Read {
                            data: ddata,
                            eof: deof,
                        },
                    ) = (&view.body, &decoded.body)
                    {
                        assert_eq!(eof, deof);
                        assert_eq!(&m[data.clone()], &ddata[..]);
                    }
                    assert_eq!(view.into_reply(&m), decoded);
                }
                (Err(v), Err(d)) => assert_eq!(v, d),
                (v, d) => panic!("parsers disagree: view {v:?}, decode {d:?}"),
            }
        }
        assert!(accepted > 0, "the unmangled reply must be among the cases");
    }
}

/// Any chain of address/port rewrites preserves checksum validity —
/// the µproxy's core packet invariant.
#[test]
fn rewrite_chains_keep_checksums_valid() {
    let mut rng = Rng::seed_from_u64(0x4e46_5305);
    for _ in 0..CASES {
        let payload = random_bytes(&mut rng, 0, 512);
        let mut pkt = Packet::new(SockAddr::new(1, 1), SockAddr::new(2, 2), payload);
        assert!(pkt.verify());
        let hops = rng.gen_range(0usize..12);
        for _ in 0..hops {
            let ip: u32 = rng.gen();
            let port: u16 = rng.gen_range(0..=u16::MAX);
            if rng.gen::<bool>() {
                pkt.rewrite_src(SockAddr::new(ip, port));
            } else {
                pkt.rewrite_dst(SockAddr::new(ip, port));
            }
            assert!(pkt.verify(), "checksum broke mid-chain");
        }
    }
}

/// In-place payload rewrites (the attribute patch) preserve validity.
#[test]
fn payload_patch_keeps_checksum_valid() {
    let mut rng = Rng::seed_from_u64(0x4e46_5306);
    for _ in 0..CASES {
        let payload = random_bytes(&mut rng, 16, 512);
        let mut patch = random_bytes(&mut rng, 1, 8);
        if patch.len() % 2 == 1 {
            patch.push(0);
        }
        let mut pkt = Packet::new(SockAddr::new(1, 1), SockAddr::new(2, 2), payload);
        let max_off = pkt.payload.len() - patch.len();
        let off = (rng.gen_range(0..max_off + 1) / 2) * 2;
        pkt.rewrite_payload(off, &patch);
        assert!(pkt.verify());
        assert_eq!(&pkt.payload[off..off + patch.len()], &patch[..]);
    }
}
