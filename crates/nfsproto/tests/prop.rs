//! Randomized property tests: NFS message roundtrips, packet rewriting
//! invariants, and decoder totality.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_nfsproto::{
    decode_call, decode_reply, encode_call, encode_reply, AuthUnix, ByteBuf, CallView, Fattr3,
    Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, Packet, ReplyBody,
    Sattr3, SockAddr, StableHow, Windows, MSG_CALL, NFS_PROGRAM, NFS_V3,
};
use slice_sim::Rng;
use slice_xdr::{XdrDecoder, XdrEncoder, XdrError};

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

/// `m` as a packet of one buffer.
fn packet(m: &[u8]) -> Packet {
    Packet::new(SockAddr::new(1, 1), SockAddr::new(2, 2), m.to_vec())
}

/// `m` as a packet whose header is its first `head` bytes and whose one
/// window is the rest, as an encoder splits a message at its data.
fn split(m: &[u8], head: usize) -> Packet {
    let window = Windows::from(ByteBuf::from(&m[head..]));
    Packet::with_windows(SockAddr::new(1, 1), SockAddr::new(2, 2), &m[..head], window)
}

/// A call split at `head` parses as its flat bytes do: the same request,
/// or a refusal. It is refused where the flat bytes are accepted only
/// when a mangled header no longer ends where the WRITE data begins.
fn split_call_agrees(m: &[u8], head: usize) {
    if m.len() <= head {
        return;
    }
    let (s, f) = (split(m, head), packet(m));
    match (s.view_call(), f.view_call()) {
        (Ok((sh, sv)), Ok((fh, fv))) => {
            assert_eq!(sh, fh);
            let (sr, fr) = (
                sv.into_request(|r| s.range(r).to_vec()),
                fv.into_request(|r| f.range(r).to_vec()),
            );
            assert_eq!(sr, fr);
        }
        (Ok(v), Err(e)) => panic!("split accepts {v:?}, flat refuses: {e:?}"),
        (Err(e), Ok((_, CallView::Write { data, .. }))) => {
            assert_ne!(data.start, head, "split refuses {e:?}")
        }
        _ => {}
    }
}

/// The same for a READ reply.
fn split_reply_agrees(m: &[u8], head: usize) {
    if m.len() <= head {
        return;
    }
    let (s, f) = (split(m, head), packet(m));
    match (s.view_reply(NfsProc::Read), f.view_reply(NfsProc::Read)) {
        (Ok((sx, sv)), Ok((fx, fv))) => {
            assert_eq!(sx, fx);
            let (sr, fr) = (
                sv.map_data(|r| s.range(r).to_vec()),
                fv.map_data(|r| f.range(r).to_vec()),
            );
            assert_eq!(sr, fr);
        }
        (Ok(v), Err(e)) => panic!("split accepts {v:?}, flat refuses: {e:?}"),
        (
            Err(e),
            Ok((
                _,
                slice_nfsproto::ReplyView {
                    body: ReplyBody::Read { data, .. },
                    ..
                },
            )),
        ) => assert_ne!(data.start, head, "split refuses {e:?}"),
        _ => {}
    }
}

/// The range-returning WRITE parser accepts and rejects exactly what
/// `decode_call` does, with equal fields, and never hands out a range
/// outside the payload — a malformed WRITE can be dropped, not forwarded.
/// Split at its data, as a packet's header and window, it agrees too.
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
        let head = wire.len() - len.next_multiple_of(4);
        let mut accepted = 0;
        for m in mangled(&wire) {
            split_call_agrees(&m, head);
            match (packet(&m).view_call(), decode_call(&m)) {
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
                    assert_eq!(view.into_request(|r| m[r].to_vec()), decoded);
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
        let head = wire.len() - len.next_multiple_of(4);
        let mut accepted = 0;
        for m in mangled(&wire) {
            split_reply_agrees(&m, head);
            match (
                packet(&m).view_reply(NfsProc::Read),
                decode_reply(&m, NfsProc::Read),
            ) {
                (Ok((vx, view)), Ok((dx, decoded))) => {
                    accepted += 1;
                    assert_eq!(vx, dx);
                    assert_eq!((view.status, view.attr), (decoded.status, decoded.attr));
                    if let (
                        ReplyBody::Read { data, eof },
                        ReplyBody::Read {
                            data: ddata,
                            eof: deof,
                        },
                    ) = (&view.body, &decoded.body)
                    {
                        assert_eq!(eof, deof);
                        assert_eq!(&m[data.clone()], &ddata[..]);
                    }
                    assert_eq!(view.map_data(|r| m[r].to_vec()), decoded);
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

/// One call of each procedure, its fields drawn from `rng`; a WRITE's
/// data is short, so that every prefix of every call stays cheap to try.
fn call_of_every_proc(rng: &mut Rng) -> Vec<NfsRequest> {
    let attr = Sattr3 {
        mode: Some(rng.gen_range(0u32..0o7777)),
        size: rng.gen::<bool>().then(|| rng.gen()),
        ..Sattr3::default()
    };
    vec![
        NfsRequest::Null,
        NfsRequest::Getattr { fh: random_fh(rng) },
        NfsRequest::Setattr {
            fh: random_fh(rng),
            attr,
        },
        NfsRequest::Lookup {
            dir: random_fh(rng),
            name: random_name(rng),
        },
        NfsRequest::Access {
            fh: random_fh(rng),
            mask: rng.gen(),
        },
        NfsRequest::Readlink { fh: random_fh(rng) },
        NfsRequest::Read {
            fh: random_fh(rng),
            offset: rng.gen(),
            count: rng.gen(),
        },
        NfsRequest::Write {
            fh: random_fh(rng),
            offset: rng.gen(),
            stable: StableHow::DataSync,
            data: random_bytes(rng, 0, 40),
        },
        NfsRequest::Create {
            dir: random_fh(rng),
            name: random_name(rng),
            attr,
        },
        NfsRequest::Mkdir {
            dir: random_fh(rng),
            name: random_name(rng),
            attr,
        },
        NfsRequest::Symlink {
            dir: random_fh(rng),
            name: random_name(rng),
            target: random_name(rng),
            attr,
        },
        NfsRequest::Remove {
            dir: random_fh(rng),
            name: random_name(rng),
        },
        NfsRequest::Rmdir {
            dir: random_fh(rng),
            name: random_name(rng),
        },
        NfsRequest::Rename {
            from_dir: random_fh(rng),
            from_name: random_name(rng),
            to_dir: random_fh(rng),
            to_name: random_name(rng),
        },
        NfsRequest::Link {
            fh: random_fh(rng),
            dir: random_fh(rng),
            name: random_name(rng),
        },
        NfsRequest::Readdir {
            dir: random_fh(rng),
            cookie: rng.gen(),
            cookieverf: rng.gen(),
            count: rng.gen(),
        },
        NfsRequest::Readdirplus {
            dir: random_fh(rng),
            cookie: rng.gen(),
            cookieverf: rng.gen(),
            dircount: rng.gen(),
            maxcount: rng.gen(),
        },
        NfsRequest::Fsstat { fh: random_fh(rng) },
        NfsRequest::Commit {
            fh: random_fh(rng),
            offset: rng.gen(),
            count: rng.gen(),
        },
    ]
}

/// An `AUTH_UNIX` credential's fields, its machine name as raw bytes so
/// that a name which is not UTF-8 can be laid out too.
struct UnixCred {
    stamp: u32,
    machine: Vec<u8>,
    uid: u32,
    gid: u32,
    gids: Vec<u32>,
}

impl UnixCred {
    fn random(rng: &mut Rng, machine_len: usize, n_gids: usize) -> Self {
        UnixCred {
            stamp: rng.gen(),
            machine: (0..machine_len)
                .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
                .collect(),
            uid: rng.gen(),
            gid: rng.gen(),
            gids: (0..n_gids).map(|_| rng.gen()).collect(),
        }
    }

    fn auth_unix(&self) -> AuthUnix {
        AuthUnix {
            stamp: self.stamp,
            machine: String::from_utf8(self.machine.clone()).expect("a UTF-8 name"),
            uid: self.uid,
            gid: self.gid,
            gids: self.gids.clone(),
        }
    }

    /// The credential body as an encoder of its own laid it out, which
    /// the call header then carried as one opaque.
    fn body(&self) -> Vec<u8> {
        let mut e = XdrEncoder::new();
        e.put_u32(self.stamp);
        e.put_opaque(&self.machine);
        e.put_u32(self.uid);
        e.put_u32(self.gid);
        e.put_u32(self.gids.len() as u32);
        for g in &self.gids {
            e.put_u32(*g);
        }
        e.into_bytes()
    }
}

/// An RPC call header carrying a credential of `flavor` whose body is
/// `cred`, laid out field by field.
fn reference_header(xid: u32, proc: NfsProc, flavor: u32, cred: &[u8]) -> Vec<u8> {
    let mut e = XdrEncoder::new();
    for word in [xid, MSG_CALL, 2, NFS_PROGRAM, NFS_V3, proc as u32, flavor] {
        e.put_u32(word);
    }
    e.put_opaque(cred);
    e.put_u32(0); // verifier flavor: AUTH_NONE
    e.put_u32(0); // verifier length
    e.into_bytes()
}

/// What a call decoder makes of the RPC header of `m`, field by field
/// as RFC 1831 and an `AUTH_UNIX` body of at most 16 gids allow: where
/// the procedure arguments begin, or the error that refuses the call.
fn reference_decode_header(m: &[u8]) -> Result<usize, XdrError> {
    let mut d = XdrDecoder::new(m);
    let _xid = d.get_u32()?;
    for (what, want) in [
        ("rpc msg_type (call)", MSG_CALL),
        ("rpc version", 2),
        ("rpc program", NFS_PROGRAM),
        ("nfs version", NFS_V3),
    ] {
        let value = d.get_u32()?;
        if value != want {
            return Err(XdrError::InvalidValue { what, value });
        }
    }
    let _proc = d.get_u32()?;
    match d.get_u32()? {
        1 => {
            let mut body = XdrDecoder::new(d.get_opaque()?);
            body.get_u32()?;
            body.get_string()?;
            body.get_u32()?;
            body.get_u32()?;
            let n = body.get_u32()?;
            if n > 16 {
                return Err(XdrError::InvalidValue {
                    what: "auth_unix gid count",
                    value: n,
                });
            }
            for _ in 0..n {
                body.get_u32()?;
            }
        }
        0 => {
            d.skip_opaque()?;
        }
        value => {
            return Err(XdrError::InvalidValue {
                what: "cred flavor",
                value,
            })
        }
    }
    d.get_u32()?;
    d.skip_opaque()?;
    Ok(d.position())
}

/// `decode_call` judges `m` as the reference header decoder does: the
/// same error where the header is refused, and where it is accepted,
/// the same verdict on the arguments as under the default credential.
fn decode_agrees_with_reference(m: &[u8], default_header: &[u8]) {
    match reference_decode_header(m) {
        Err(want) => match decode_call(m) {
            Err(got) => assert_eq!(got, want),
            Ok((hdr, req)) => panic!("accepted {} {req:?}, wanted {want:?}", hdr.xid),
        },
        Ok(args) => {
            let plain = [default_header, &m[args..]].concat();
            match (decode_call(m), decode_call(&plain)) {
                (Ok((hdr, req)), Ok((plain_hdr, plain_req))) => {
                    assert_eq!((hdr.xid, hdr.proc), (plain_hdr.xid, plain_hdr.proc));
                    assert_eq!(req, plain_req);
                }
                (Err(_), Err(_)) => {}
                (got, plain) => panic!("decoded {got:?}, under the default credential {plain:?}"),
            }
        }
    }
}

/// Credentials of every machine-name length from 0 to 64 bytes (every
/// length mod 4) and 0 to 16 gids, over a call of every procedure:
/// `encode_call` lays each out as the reference header does, and
/// `decode_call` accepts and refuses what the reference decoder does —
/// the call, every prefix of it, 17 gids, a name that is not UTF-8, an
/// `AUTH_NONE` credential and an unknown flavor.
#[test]
fn credentials_encode_and_decode_as_the_reference_lays_them_out() {
    let mut rng = Rng::seed_from_u64(0x4e46_5308);
    let default_body = UnixCred {
        stamp: 0,
        machine: b"client".to_vec(),
        uid: 0,
        gid: 0,
        gids: vec![0, 1, 2, 3],
    };
    assert_eq!(default_body.auth_unix(), AuthUnix::default());
    let mut checked = 0;
    for machine_len in 0..=64 {
        let reqs = call_of_every_proc(&mut rng);
        let at = rng.gen_range(0..reqs.len());
        for (i, req) in reqs.into_iter().enumerate() {
            let xid: u32 = rng.gen();
            let proc = req.proc();
            let default_header = reference_header(xid, proc, 1, &default_body.body());
            let args =
                encode_call(xid, &AuthUnix::default(), &req)[default_header.len()..].to_vec();
            let n_gids = rng.gen_range(0..=16);
            let cred = UnixCred::random(&mut rng, machine_len, n_gids);
            let wire = [reference_header(xid, proc, 1, &cred.body()), args.clone()].concat();
            assert_eq!(encode_call(xid, &cred.auth_unix(), &req), wire);
            decode_agrees_with_reference(&wire, &default_header);
            checked += 1;
            if i != at {
                continue;
            }
            // One procedure per name length: every prefix, and the
            // credentials a decoder must refuse or pass over.
            for cut in 0..wire.len() {
                decode_agrees_with_reference(&wire[..cut], &default_header);
            }
            let mut many = UnixCred::random(&mut rng, machine_len, 17);
            let seventeen = [reference_header(xid, proc, 1, &many.body()), args.clone()].concat();
            assert_eq!(encode_call(xid, &many.auth_unix(), &req), seventeen);
            decode_agrees_with_reference(&seventeen, &default_header);
            many.gids.truncate(16);
            if machine_len > 0 {
                many.machine[rng.gen_range(0..machine_len)] = 0xff;
            }
            let not_utf8 = [reference_header(xid, proc, 1, &many.body()), args.clone()].concat();
            decode_agrees_with_reference(&not_utf8, &default_header);
            let opaque = random_bytes(&mut rng, 0, 24);
            for flavor in [0, 2] {
                let other = [reference_header(xid, proc, flavor, &opaque), args.clone()].concat();
                decode_agrees_with_reference(&other, &default_header);
            }
        }
    }
    assert_eq!(checked, 65 * 19);
}
