//! µproxy tests: drive real packets through the filter and inspect the
//! rewritten outputs.

use slice_nfsproto::{
    encode_call, encode_reply, AuthUnix, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest,
    NfsStatus, NfsTime, Packet, ReplyBody, Sattr3, SockAddr, StableHow, FH_FLAG_MIRRORED,
};
use slice_sim::{FxHashMap, FxHashSet, SimDuration, SimTime};
use slice_storage::{CoordMsg, CoordReply};

use crate::proxy::{ProxyConfig, ProxyOut, Uproxy, ATTR_CACHE_ENTRIES};
use slice_hashes::NamePolicy;

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn cfg() -> ProxyConfig {
    let mut c = ProxyConfig::test_default();
    c.dir_sites = vec![
        SockAddr::new(0x0a001000, 2049),
        SockAddr::new(0x0a001001, 2049),
    ];
    c.storage_sites = (0..4)
        .map(|i| SockAddr::new(0x0a003000 + i, 2049))
        .collect();
    c
}

fn call_pkt(p: &ProxyConfig, xid: u32, req: &NfsRequest) -> Packet {
    Packet::new(
        p.client_addr,
        p.virtual_addr,
        encode_call(xid, &AuthUnix::default(), req),
    )
}

fn reply_pkt(from: SockAddr, to: SockAddr, xid: u32, reply: &NfsReply) -> Packet {
    Packet::new(from, to, encode_reply(xid, reply))
}

fn fh(id: u64, flags: u8) -> Fhandle {
    Fhandle::new(id, 0, flags, 0, 0)
}

/// The xid a forwarded or µproxy-built call packet travels under: a
/// server answers under that xid, whatever the client's was.
fn xid_of(p: &Packet) -> u32 {
    slice_nfsproto::peek_xid_type(&p.payload)
        .expect("rpc header")
        .0
}

/// The xid of a reply delivered to the client.
fn client_xid(out: &[ProxyOut]) -> Option<u32> {
    out.iter().find_map(|o| match o {
        ProxyOut::Client(p) => Some(xid_of(p)),
        _ => None,
    })
}

fn net_pkts(out: &[ProxyOut]) -> Vec<&Packet> {
    out.iter()
        .filter_map(|o| match o {
            ProxyOut::Net(p) => Some(p),
            _ => None,
        })
        .collect()
}

#[test]
fn non_virtual_traffic_passes_through() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let other = SockAddr::new(0x01020304, 80);
    let pkt = Packet::new(c.client_addr, other, vec![1, 2, 3]);
    let out = u.outbound(t(0), pkt.clone());
    assert_eq!(out.len(), 1);
    match &out[0] {
        ProxyOut::Net(p) => assert_eq!(*p, pkt),
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn bulk_read_routes_to_storage_with_valid_checksum() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Read {
        fh: fh(10, 0),
        offset: 128 * 1024,
        count: 32768,
    };
    let out = u.outbound(t(0), call_pkt(&c, 1, &req));
    let pkts = net_pkts(&out);
    assert_eq!(pkts.len(), 1);
    let p = pkts[0];
    assert!(
        c.storage_sites.contains(&p.dst),
        "must target a storage node, got {}",
        p.dst
    );
    assert!(p.verify(), "rewrite must leave a valid checksum");
    // Same offset routes to the same node; next stripe to a different one.
    let out2 = u.outbound(t(1), call_pkt(&c, 2, &req));
    assert_eq!(net_pkts(&out2)[0].dst, p.dst);
    let req3 = NfsRequest::Read {
        fh: fh(10, 0),
        offset: 192 * 1024,
        count: 32768,
    };
    let out3 = u.outbound(t(2), call_pkt(&c, 3, &req3));
    assert_ne!(net_pkts(&out3)[0].dst, p.dst, "striping must rotate sites");
}

#[test]
fn small_io_routes_to_smallfile_server() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Read {
        fh: fh(10, 0),
        offset: 0,
        count: 8192,
    };
    let out = u.outbound(t(0), call_pkt(&c, 1, &req));
    assert_eq!(net_pkts(&out)[0].dst, c.sf_sites[0]);
    // Below-threshold I/O on a *large* file still goes to the small-file
    // server (the threshold is on offset, not size).
    let req = NfsRequest::Write {
        fh: fh(11, 0),
        offset: 32768,
        stable: StableHow::Unstable,
        data: vec![0u8; 1000],
    };
    let out = u.outbound(t(1), call_pkt(&c, 2, &req));
    assert_eq!(net_pkts(&out)[0].dst, c.sf_sites[0]);
}

#[test]
fn no_smallfile_servers_sends_everything_to_storage() {
    let mut c = cfg();
    c.sf_sites.clear();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Read {
        fh: fh(10, 0),
        offset: 0,
        count: 8192,
    };
    let out = u.outbound(t(0), call_pkt(&c, 1, &req));
    assert!(c.storage_sites.contains(&net_pkts(&out)[0].dst));
}

#[test]
fn mirrored_write_duplicates_to_replicas() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Write {
        fh: fh(20, FH_FLAG_MIRRORED),
        offset: 128 * 1024,
        stable: StableHow::Unstable,
        data: vec![7u8; 4096],
    };
    let out = u.outbound(t(0), call_pkt(&c, 5, &req));
    let pkts = net_pkts(&out);
    assert_eq!(pkts.len(), 2, "two replicas");
    assert_ne!(pkts[0].dst, pkts[1].dst);
    assert!(pkts.iter().all(|p| p.verify()));
    // Only one merged reply reaches the client.
    let reply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            20,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 4096,
            committed: StableHow::Unstable,
            verf: 1,
        },
    };
    let r1 = u.inbound(t(1), reply_pkt(pkts[0].dst, c.client_addr, 5, &reply));
    assert!(
        r1.iter().all(|o| !matches!(o, ProxyOut::Client(_))),
        "first reply absorbed"
    );
    let r2 = u.inbound(t(2), reply_pkt(pkts[1].dst, c.client_addr, 5, &reply));
    assert!(
        r2.iter().any(|o| matches!(o, ProxyOut::Client(_))),
        "second reply forwarded to client"
    );
}

#[test]
fn mirrored_reads_balance_across_all_nodes() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    // Reading a long mirrored file must touch every storage node (load-
    // balanced mirrors), the same stripe must always hit the same replica,
    // and each node must serve only about half the stripes it stores.
    let r_at = |u: &mut Uproxy, xid: u32, offset: u64| {
        let req = NfsRequest::Read {
            fh: fh(21, FH_FLAG_MIRRORED),
            offset,
            count: 65536,
        };
        net_pkts(&u.outbound(t(u64::from(xid)), call_pkt(&c, xid, &req)))[0].dst
    };
    let mut counts = FxHashMap::default();
    let stripes = 64u64;
    // Stripe 0 sits below the threshold offset and would route to the
    // small-file server; bulk striping starts at stripe 1.
    for s in 1..=stripes {
        let dst = r_at(&mut u, s as u32 + 1, s * 65536);
        *counts.entry(dst).or_insert(0u64) += 1;
        // Re-read of the same stripe is deterministic.
        assert_eq!(dst, r_at(&mut u, 1000 + s as u32, s * 65536));
    }
    assert_eq!(counts.len(), c.storage_sites.len(), "all nodes serve reads");
    for (&node, &n) in &counts {
        let share = n as f64 / stripes as f64;
        assert!(share > 0.15 && share < 0.35, "node {node} share {share}");
    }
}

#[test]
fn reply_src_is_rewritten_to_virtual_addr() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Getattr { fh: fh(30, 0) };
    let out = u.outbound(t(0), call_pkt(&c, 9, &req));
    let dest = net_pkts(&out)[0].dst;
    let reply = NfsReply::ok(
        NfsProc::Getattr,
        Fattr3::new(FileType::Regular, 30, 0o644, NfsTime::default()),
    );
    let back = u.inbound(t(1), reply_pkt(dest, c.client_addr, 9, &reply));
    let client_pkt = back
        .iter()
        .find_map(|o| match o {
            ProxyOut::Client(p) => Some(p),
            _ => None,
        })
        .expect("reply to client");
    assert_eq!(
        client_pkt.src, c.virtual_addr,
        "client must see the virtual server"
    );
    assert!(client_pkt.verify());
}

#[test]
fn attr_cache_patches_storage_replies() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    // Seed authoritative attrs via a getattr reply from the dir server.
    let f = fh(40, 0);
    let out = u.outbound(t(0), call_pkt(&c, 1, &NfsRequest::Getattr { fh: f }));
    let dir_dst = net_pkts(&out)[0].dst;
    let mut auth = Fattr3::new(FileType::Regular, 40, 0o640, NfsTime { secs: 10, nsecs: 0 });
    auth.nlink = 3;
    auth.uid = 42;
    u.inbound(
        t(1),
        reply_pkt(
            dir_dst,
            c.client_addr,
            1,
            &NfsReply::ok(NfsProc::Getattr, auth),
        ),
    );
    // Bulk write inside one block, so it is forwarded: the reply from the
    // storage node carries placeholder attrs; the µproxy must patch in the
    // authoritative ones, with size grown.
    let req = NfsRequest::Write {
        fh: f,
        offset: 96 * 1024,
        stable: StableHow::Unstable,
        data: vec![1u8; 32768],
    };
    let out = u.outbound(t(2), call_pkt(&c, 2, &req));
    let storage_dst = net_pkts(&out)[0].dst;
    let placeholder = Fattr3::new(FileType::Regular, 40, 0o644, NfsTime::default());
    let reply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(placeholder),
        body: ReplyBody::Write {
            count: 32768,
            committed: StableHow::Unstable,
            verf: 9,
        },
    };
    let back = u.inbound(t(3), reply_pkt(storage_dst, c.client_addr, 2, &reply));
    let client_pkt = back
        .iter()
        .find_map(|o| match o {
            ProxyOut::Client(p) => Some(p),
            _ => None,
        })
        .expect("reply to client");
    assert!(
        client_pkt.verify(),
        "in-place attr patch must fix the checksum"
    );
    let (_, patched) = client_pkt.decode_reply(NfsProc::Write).unwrap();
    let a = patched.attr.expect("attrs present");
    assert_eq!(a.uid, 42, "authoritative uid patched in");
    assert_eq!(a.nlink, 3);
    assert_eq!(a.size, 96 * 1024 + 32768, "size reflects the write");
}

#[test]
fn commit_pushes_dirty_attrs_to_dir_server() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let f = fh(50, 0);
    // A bulk write marks attrs dirty.
    let out = u.outbound(
        t(0),
        call_pkt(
            &c,
            1,
            &NfsRequest::Write {
                fh: f,
                offset: 80 * 1024,
                stable: StableHow::Unstable,
                data: vec![0u8; 8192],
            },
        ),
    );
    let storage_dst = net_pkts(&out)[0].dst;
    let reply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            50,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 8192,
            committed: StableHow::Unstable,
            verf: 1,
        },
    };
    u.inbound(t(1), reply_pkt(storage_dst, c.client_addr, 1, &reply));
    // Commit: the µproxy initiates a SETATTR to the dir server.
    let out = u.outbound(
        t(2),
        call_pkt(
            &c,
            2,
            &NfsRequest::Commit {
                fh: f,
                offset: 0,
                count: 0,
            },
        ),
    );
    let setattrs: Vec<&Packet> = net_pkts(&out)
        .into_iter()
        .filter(|p| c.dir_sites.contains(&p.dst))
        .collect();
    assert_eq!(setattrs.len(), 1, "one attribute push-back expected");
    let (hdr, req) = setattrs[0].decode_call().unwrap();
    assert!(hdr.xid >= 0x8000_0000, "µproxy-initiated xid namespace");
    match req {
        NfsRequest::Setattr { fh: got, attr } => {
            assert_eq!(got.file_id(), 50);
            assert_eq!(attr.size, Some(80 * 1024 + 8192));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Commit itself goes through the intent path (coordinator first).
    assert!(out
        .iter()
        .any(|o| matches!(o, ProxyOut::Coord(CoordMsg::BeginIntent { .. }))));
}

#[test]
fn intent_ack_releases_commit_fanout() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let f = fh(60, 0);
    // Make the file "large" in the attr cache so commit is multisite.
    let out = u.outbound(
        t(0),
        call_pkt(
            &c,
            1,
            &NfsRequest::Write {
                fh: f,
                offset: 256 * 1024,
                stable: StableHow::Unstable,
                data: vec![0u8; 8192],
            },
        ),
    );
    let sdst = net_pkts(&out)[0].dst;
    let wreply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            60,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 8192,
            committed: StableHow::Unstable,
            verf: 1,
        },
    };
    u.inbound(t(1), reply_pkt(sdst, c.client_addr, 1, &wreply));
    let out = u.outbound(
        t(2),
        call_pkt(
            &c,
            7,
            &NfsRequest::Commit {
                fh: f,
                offset: 0,
                count: 0,
            },
        ),
    );
    assert!(
        net_pkts(&out)
            .iter()
            .all(|p| !c.storage_sites.contains(&p.dst)),
        "commit must wait for the intent ack"
    );
    let out = u.coord_reply(
        t(3),
        CoordReply::IntentAck {
            op_id: 7,
            intent: 99,
        },
    );
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    // Fanned out to all storage sites plus the small-file server.
    assert_eq!(pkts.len(), c.storage_sites.len() + 1);
    // Completion of all replies emits CompleteIntent and one client reply.
    let creply = NfsReply {
        proc: NfsProc::Commit,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            60,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Commit { verf: 4 },
    };
    let mut client_replies = 0;
    let mut completes = 0;
    for p in &pkts {
        let back = u.inbound(t(4), reply_pkt(p.dst, c.client_addr, 7, &creply));
        for o in back {
            match o {
                ProxyOut::Client(_) => client_replies += 1,
                ProxyOut::Coord(CoordMsg::CompleteIntent { intent }) => {
                    assert_eq!(intent, 99);
                    completes += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(client_replies, 1, "exactly one merged commit reply");
    assert_eq!(completes, 1);
}

#[test]
fn name_hashing_spreads_creates_across_dir_sites() {
    let mut c = cfg();
    c.name_policy = NamePolicy::NameHashing;
    let mut u = Uproxy::new(c.clone());
    let root = Fhandle::root();
    let mut seen = FxHashSet::default();
    for i in 0..32 {
        let req = NfsRequest::Create {
            dir: root,
            name: format!("file{i}"),
            attr: Sattr3::default(),
        };
        let out = u.outbound(t(i), call_pkt(&c, 100 + i as u32, &req));
        seen.insert(net_pkts(&out)[0].dst);
    }
    assert_eq!(
        seen.len(),
        c.dir_sites.len(),
        "hashing must use every dir site"
    );
}

#[test]
fn mkdir_switching_routes_by_home_and_redirects() {
    let mut c = cfg();
    c.name_policy = NamePolicy::MkdirSwitching { redirect_millis: 0 };
    let mut u = Uproxy::new(c.clone());
    let root = Fhandle::root();
    // p = 0: every mkdir goes to the parent home site.
    for i in 0..16 {
        let req = NfsRequest::Mkdir {
            dir: root,
            name: format!("d{i}"),
            attr: Sattr3::default(),
        };
        let out = u.outbound(t(i), call_pkt(&c, i as u32, &req));
        assert_eq!(net_pkts(&out)[0].dst, c.dir_sites[0]);
    }
    // p = 1: every mkdir is redirected by hash — both sites appear.
    c.name_policy = NamePolicy::MkdirSwitching {
        redirect_millis: 1000,
    };
    let mut u = Uproxy::new(c.clone());
    let mut seen = FxHashSet::default();
    for i in 0..32 {
        let req = NfsRequest::Mkdir {
            dir: root,
            name: format!("r{i}"),
            attr: Sattr3::default(),
        };
        let out = u.outbound(t(i), call_pkt(&c, i as u32, &req));
        seen.insert(net_pkts(&out)[0].dst);
    }
    assert_eq!(seen.len(), 2, "full redirect must spread mkdirs");
}

#[test]
fn lookup_routes_by_policy() {
    // Mkdir switching: lookups follow the parent's home site.
    let mut c = cfg();
    c.name_policy = NamePolicy::MkdirSwitching { redirect_millis: 0 };
    let mut u = Uproxy::new(c.clone());
    let dir_on_1 = Fhandle::new(77, 1, slice_nfsproto::FH_FLAG_DIR, 0, 0);
    let req = NfsRequest::Lookup {
        dir: dir_on_1,
        name: "x".into(),
    };
    let out = u.outbound(t(0), call_pkt(&c, 1, &req));
    assert_eq!(net_pkts(&out)[0].dst, c.dir_sites[1]);
}

#[test]
fn state_loss_is_tolerated() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let req = NfsRequest::Getattr { fh: fh(1, 0) };
    let out = u.outbound(t(0), call_pkt(&c, 77, &req));
    let dest = net_pkts(&out)[0].dst;
    u.lose_state();
    // The reply still reaches the client with the virtual source, so the
    // client's RPC layer can pair it after retransmission.
    let reply = NfsReply::ok(
        NfsProc::Getattr,
        Fattr3::new(FileType::Regular, 1, 0o644, NfsTime::default()),
    );
    let back = u.inbound(t(1), reply_pkt(dest, c.client_addr, 77, &reply));
    match &back[0] {
        ProxyOut::Client(p) => {
            assert_eq!(p.src, c.virtual_addr);
            assert!(p.verify());
        }
        o => panic!("unexpected {o:?}"),
    }
}

#[test]
fn block_map_routing_parks_and_releases() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let mapped = Fhandle::new(90, 0, slice_nfsproto::FH_FLAG_MAPPED, 0, 0);
    let req = NfsRequest::Read {
        fh: mapped,
        offset: 128 * 1024,
        count: 32768,
    };
    let out = u.outbound(t(0), call_pkt(&c, 3, &req));
    assert!(net_pkts(&out).is_empty(), "request parks on the map fetch");
    let mapget = out.iter().find_map(|o| match o {
        ProxyOut::Coord(CoordMsg::MapGet {
            file,
            first_block,
            count,
        }) => Some((*file, *first_block, *count)),
        _ => None,
    });
    let (file, first, count) = mapget.expect("MapGet emitted");
    assert_eq!(file, 90);
    // Fragment arrives: the parked read is released to the mapped site.
    let sites: Vec<Vec<u32>> = (0..count).map(|_| vec![2u32]).collect();
    let warming = vec![Vec::new(); sites.len()];
    let out = u.coord_reply(
        t(1),
        CoordReply::MapFragment {
            file,
            first_block: first,
            sites,
            warming,
        },
    );
    let pkts = net_pkts(&out);
    assert_eq!(pkts.len(), 1);
    assert_eq!(pkts[0].dst, c.storage_sites[2]);
    // The client sent one request: parking and re-admitting it counts it
    // once, as a packet, as a routed request and in the hot-set window.
    assert_eq!(u.traffic_stats().0, 1, "requests routed");
    assert_eq!(u.phase_stats().packets, 1);
    assert_eq!(u.hot_files(1), vec![(90, 1)]);
    // Next read on a covered block routes immediately.
    let req = NfsRequest::Read {
        fh: mapped,
        offset: 192 * 1024,
        count: 32768,
    };
    let out = u.outbound(t(2), call_pkt(&c, 4, &req));
    assert_eq!(net_pkts(&out).len(), 1);
}

#[test]
fn tick_writes_back_stale_attrs() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let f = fh(70, 0);
    let out = u.outbound(
        t(0),
        call_pkt(
            &c,
            1,
            &NfsRequest::Write {
                fh: f,
                offset: 100 * 1024,
                stable: StableHow::Unstable,
                data: vec![0u8; 1024],
            },
        ),
    );
    let sdst = net_pkts(&out)[0].dst;
    let reply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            70,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 1024,
            committed: StableHow::Unstable,
            verf: 1,
        },
    };
    u.inbound(t(1), reply_pkt(sdst, c.client_addr, 1, &reply));
    assert!(u.tick(t(100)).is_empty(), "too early for write-back");
    let out = u.tick(t(10_000));
    assert_eq!(net_pkts(&out).len(), 1, "stale dirty attrs pushed back");
    assert!(c.dir_sites.contains(&net_pkts(&out)[0].dst));
}

/// A mixed replay — lookups, bulk reads and writes, each answered — with
/// the wall time spent inside the µproxy's two packet entry points.
fn timed_replay(u: &mut Uproxy, c: &ProxyConfig) -> std::time::Duration {
    let mut wall = std::time::Duration::ZERO;
    for i in 0..60u32 {
        let f = fh(500 + u64::from(i % 7), 0);
        let (req, body) = match i % 3 {
            0 => (
                NfsRequest::Lookup {
                    dir: Fhandle::root(),
                    name: format!("n{i}"),
                },
                ReplyBody::Lookup {
                    fh: f,
                    dir_attr: None,
                },
            ),
            1 => (
                NfsRequest::Write {
                    fh: f,
                    offset: 128 * 1024,
                    stable: StableHow::Unstable,
                    data: vec![7u8; 4096],
                },
                ReplyBody::Write {
                    count: 4096,
                    committed: StableHow::Unstable,
                    verf: 1,
                },
            ),
            _ => (
                NfsRequest::Read {
                    fh: f,
                    offset: 128 * 1024,
                    count: 4096,
                },
                ReplyBody::Read {
                    data: vec![7u8; 4096],
                    eof: true,
                },
            ),
        };
        let pkt = call_pkt(c, i, &req);
        let started = std::time::Instant::now();
        let out = u.outbound(t(u64::from(i)), pkt);
        wall += started.elapsed();
        let reply = NfsReply {
            proc: req.proc(),
            status: NfsStatus::Ok,
            attr: Some(Fattr3::new(
                FileType::Regular,
                f.file_id(),
                0o644,
                NfsTime::default(),
            )),
            body,
        };
        for dst in net_pkts(&out).iter().map(|p| p.dst).collect::<Vec<_>>() {
            let pkt = reply_pkt(dst, c.client_addr, i, &reply);
            let started = std::time::Instant::now();
            u.inbound(t(u64::from(i)), pkt);
            wall += started.elapsed();
        }
    }
    wall
}

#[test]
fn phase_stats_accumulate() {
    let mut c = cfg();
    c.measure_phases = true;
    let mut u = Uproxy::new(c.clone());
    let wall = timed_replay(&mut u, &c);
    let ph = u.phase_stats();
    assert!(ph.packets >= 120, "requests and replies both count");
    for (phase, ns) in [
        ("intercept", ph.intercept_ns),
        ("decode", ph.decode_ns),
        ("rewrite", ph.rewrite_ns),
        ("soft", ph.soft_ns),
    ] {
        assert!(ns > 0, "{phase} must be measured");
    }
    // One lap stopwatch: no nanosecond is charged to two phases.
    let charged = ph.intercept_ns + ph.decode_ns + ph.rewrite_ns + ph.soft_ns;
    assert!(
        u128::from(charged) <= wall.as_nanos(),
        "phases sum to {charged} ns of {} ns spent in the µproxy",
        wall.as_nanos()
    );
    // Off (the default): no clock is read, packets still count.
    c.measure_phases = false;
    let mut u = Uproxy::new(c.clone());
    timed_replay(&mut u, &c);
    let off = u.phase_stats();
    assert_eq!(off.packets, ph.packets);
    assert_eq!(
        (off.intercept_ns, off.decode_ns, off.rewrite_ns, off.soft_ns),
        (0, 0, 0, 0)
    );
}

/// The paper's µproxy is "free to discard its state": every table that
/// holds per-request or cached state must be reachable from
/// `lose_state()` and counted by `soft_state_entries()`.
#[test]
fn lose_state_empties_every_waiting_table() {
    let mut c = cfg();
    c.coded = Some((4, 2));
    let mut u = Uproxy::new(c.clone());
    let held = std::cell::Cell::new(0);
    let grew = |u: &Uproxy, what: &str| {
        let now = u.soft_state_entries();
        assert!(now > held.get(), "{what} holds no soft state");
        held.set(now);
    };
    let mapped = |id| Fhandle::new(id, 0, slice_nfsproto::FH_FLAG_MAPPED, 0, 0);
    let write = |fh, offset, len: usize| NfsRequest::Write {
        fh,
        offset,
        stable: StableHow::Unstable,
        data: vec![1u8; len],
    };
    // map_waiters: a mapped file whose fragment is not cached.
    u.outbound(t(0), call_pkt(&c, 1, &write(mapped(90), 128 * 1024, 512)));
    grew(&u, "a request parked on a map fetch");
    // coded_ops + stripe_locks + pending legs: a partial-stripe write
    // gathers the old contents first; a second write to the stripe waits
    // for the lock (coded_waiters).
    let sites: Vec<Vec<u32>> = (0..16).map(|_| vec![0, 1, 2, 3]).collect();
    u.coord_reply(
        t(1),
        CoordReply::MapFragment {
            file: 91,
            first_block: 0,
            warming: vec![Vec::new(); sites.len()],
            sites,
        },
    );
    let out = u.outbound(t(2), call_pkt(&c, 2, &write(mapped(91), 128 * 1024, 512)));
    assert!(!net_pkts(&out).is_empty(), "gather legs went out");
    grew(&u, "a coded op mid-gather");
    let out = u.outbound(t(3), call_pkt(&c, 3, &write(mapped(91), 129 * 1024, 512)));
    assert!(net_pkts(&out).is_empty(), "the stripe is locked");
    grew(&u, "a coded request parked on a stripe lock");
    // A straddling read with one leg answered.
    let plain = fh(92, 0);
    let req = NfsRequest::Read {
        fh: plain,
        offset: 60 * 1024,
        count: 8 * 1024,
    };
    let out = u.outbound(t(4), call_pkt(&c, 4, &req));
    let head = net_pkts(&out)
        .into_iter()
        .find(|p| c.sf_sites.contains(&p.dst))
        .cloned()
        .expect("head leg to the small-file server");
    grew(&u, "a split read");
    let attr = Fattr3::new(FileType::Regular, 92, 0o644, NfsTime::default());
    let half = NfsReply {
        proc: NfsProc::Read,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Read {
            data: vec![2u8; 4096],
            eof: false,
        },
    };
    let back = u.inbound(
        t(5),
        reply_pkt(head.dst, c.client_addr, xid_of(&head), &half),
    );
    assert!(back.is_empty(), "half a merge is absorbed");
    held.set(held.get() - 1); // the answered leg's record is gone
    assert_eq!(u.soft_state_entries(), held.get());
    // intent_waiters: a commit of a file the attribute cache knows to be
    // large waits for the coordinator's intent ack.
    let out = u.outbound(t(6), call_pkt(&c, 5, &write(plain, 256 * 1024, 8192)));
    let sdst = net_pkts(&out)[0].dst;
    let wrote = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Write {
            count: 8192,
            committed: StableHow::Unstable,
            verf: 1,
        },
    };
    u.inbound(t(7), reply_pkt(sdst, c.client_addr, 5, &wrote));
    grew(&u, "a cached attribute");
    let commit = NfsRequest::Commit {
        fh: plain,
        offset: 0,
        count: 0,
    };
    let out = u.outbound(t(8), call_pkt(&c, 6, &commit));
    assert!(out
        .iter()
        .any(|o| matches!(o, ProxyOut::Coord(CoordMsg::BeginIntent { .. }))));
    grew(&u, "a commit parked on its intent");
    // degrade_pending: a mirrored write whose replica set includes a
    // suspected site waits for the coordinator's dirty-region ack.
    let mirrored = fh(93, FH_FLAG_MIRRORED);
    let read = NfsRequest::Read {
        fh: mirrored,
        offset: 128 * 1024,
        count: 1024,
    };
    u.outbound(t(9), call_pkt(&c, 7, &read));
    u.note_retransmit(t(100), 7);
    u.note_retransmit(t(200), 7);
    assert_eq!(u.suspected_sites().len(), 1);
    grew(&u, "a pending read");
    let out = u.outbound(t(300), call_pkt(&c, 8, &write(mirrored, 128 * 1024, 512)));
    assert!(out
        .iter()
        .any(|o| matches!(o, ProxyOut::Coord(CoordMsg::MarkDirty { .. }))));
    grew(&u, "a write parked on a dirty-region ack");
    // A second commit pushes the same attribute version again: a retry.
    u.outbound(t(301), call_pkt(&c, 9, &commit));
    let (stats, retries) = (u.attr_cache_stats(), u.push_retries());
    assert!(stats.0 > 0 && retries == 1, "{stats:?}, {retries} retries");

    u.lose_state();
    assert_eq!(u.soft_state_entries(), 0, "a table survived lose_state()");
    assert_eq!(
        (u.attr_cache_stats(), u.push_retries()),
        (stats, retries),
        "lifetime statistics are not state: the client subtracts from them"
    );
    assert!(
        u.suspected_sites().is_empty(),
        "suspicion is soft state too"
    );
}

/// What a request leaves behind once it is answered is bounded by the
/// attribute cache, however many distinct files a client touches.
#[test]
fn soft_state_is_bounded_by_the_attribute_cache() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    for i in 0..10_000u32 {
        let f = fh(1_000 + u64::from(i), 0);
        let out = u.outbound(t(0), call_pkt(&c, i, &NfsRequest::Getattr { fh: f }));
        let dst = net_pkts(&out)[0].dst;
        let attr = Fattr3::new(FileType::Regular, f.file_id(), 0o644, NfsTime::default());
        let reply = NfsReply::ok(NfsProc::Getattr, attr);
        let back = u.inbound(t(0), reply_pkt(dst, c.client_addr, i, &reply));
        assert!(matches!(back[..], [ProxyOut::Client(_)]));
    }
    assert!(u.soft_state_entries() > 0, "attributes are cached");
    assert!(
        u.soft_state_entries() <= ATTR_CACHE_ENTRIES,
        "{} entries left behind by 10,000 answered requests",
        u.soft_state_entries()
    );
}

#[test]
fn straddling_write_splits_and_merges() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    // 32 KB write at 48 KB: 16 KB belongs below the threshold, 16 KB above.
    let req = NfsRequest::Write {
        fh: fh(80, 0),
        offset: 48 * 1024,
        stable: StableHow::FileSync,
        data: vec![0x9u8; 32 * 1024],
    };
    let out = u.outbound(t(0), call_pkt(&c, 11, &req));
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    assert_eq!(pkts.len(), 2, "one half per side of the threshold");
    let low = pkts
        .iter()
        .find(|p| c.sf_sites.contains(&p.dst))
        .expect("sf half");
    let high = pkts
        .iter()
        .find(|p| c.storage_sites.contains(&p.dst))
        .expect("storage half");
    let (_, low_req) = low.decode_call().unwrap();
    let (_, high_req) = high.decode_call().unwrap();
    match (low_req, high_req) {
        (
            NfsRequest::Write {
                offset: lo,
                data: ld,
                ..
            },
            NfsRequest::Write {
                offset: ho,
                data: hd,
                ..
            },
        ) => {
            assert_eq!(lo, 48 * 1024);
            assert_eq!(ld.len(), 16 * 1024);
            assert_eq!(ho, 64 * 1024);
            assert_eq!(hd.len(), 16 * 1024);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Replies from both halves merge into one write reply with the full
    // byte count.
    let half_reply = |count| NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            80,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count,
            committed: StableHow::FileSync,
            verf: 3,
        },
    };
    let r1 = u.inbound(
        t(1),
        reply_pkt(low.dst, c.client_addr, xid_of(low), &half_reply(16 * 1024)),
    );
    assert!(r1.iter().all(|o| !matches!(o, ProxyOut::Client(_))));
    let r2 = u.inbound(
        t(2),
        reply_pkt(
            high.dst,
            c.client_addr,
            xid_of(high),
            &half_reply(16 * 1024),
        ),
    );
    assert_eq!(client_xid(&r2), Some(11), "merged under the client's xid");
    let merged = r2
        .iter()
        .find_map(|o| match o {
            ProxyOut::Client(p) => Some(p),
            _ => None,
        })
        .expect("merged reply");
    assert!(merged.verify());
    let (_, reply) = merged.decode_reply(NfsProc::Write).unwrap();
    match reply.body {
        ReplyBody::Write { count, .. } => assert_eq!(count, 32 * 1024, "full count reported"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn straddling_read_splits_and_reassembles() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let f = fh(81, 0);
    // Teach the attr cache the file size via a write covering the range.
    let w = NfsRequest::Write {
        fh: f,
        offset: 48 * 1024,
        stable: StableHow::FileSync,
        data: vec![0u8; 32 * 1024],
    };
    let wout = u.outbound(t(0), call_pkt(&c, 20, &w));
    let wpkts: Vec<Packet> = net_pkts(&wout).into_iter().cloned().collect();
    let half_wreply = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            81,
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 16 * 1024,
            committed: StableHow::FileSync,
            verf: 1,
        },
    };
    for p in &wpkts {
        u.inbound(
            t(1),
            reply_pkt(p.dst, c.client_addr, xid_of(p), &half_wreply),
        );
    }
    // Now a straddling read: the halves return distinct patterns and the
    // client must see them joined in order.
    let r = NfsRequest::Read {
        fh: f,
        offset: 48 * 1024,
        count: 32 * 1024,
    };
    let out = u.outbound(t(2), call_pkt(&c, 21, &r));
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    assert_eq!(pkts.len(), 2);
    let mut final_out = Vec::new();
    for p in &pkts {
        let is_low = c.sf_sites.contains(&p.dst);
        let data = if is_low {
            vec![0xAA; 16 * 1024]
        } else {
            vec![0xBB; 16 * 1024]
        };
        let reply = NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: Some(Fattr3::new(
                FileType::Regular,
                81,
                0o644,
                NfsTime::default(),
            )),
            body: ReplyBody::Read { data, eof: false },
        };
        final_out = u.inbound(t(3), reply_pkt(p.dst, c.client_addr, xid_of(p), &reply));
    }
    assert_eq!(
        client_xid(&final_out),
        Some(21),
        "merged under the client's xid"
    );
    let merged = final_out
        .iter()
        .find_map(|o| match o {
            ProxyOut::Client(p) => Some(p),
            _ => None,
        })
        .expect("merged read");
    assert!(merged.verify());
    let (_, reply) = merged.decode_reply(NfsProc::Read).unwrap();
    match reply.body {
        ReplyBody::Read { data, .. } => {
            assert_eq!(data.len(), 32 * 1024);
            assert!(
                data[..16 * 1024].iter().all(|&b| b == 0xAA),
                "low half first"
            );
            assert!(
                data[16 * 1024..].iter().all(|&b| b == 0xBB),
                "high half second"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn warming_replica_stays_out_of_read_rotation_until_epoch_flush() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    let mapped = Fhandle::new(91, 0, slice_nfsproto::FH_FLAG_MAPPED, 0, 0);
    let read_at = |off: u64| NfsRequest::Read {
        fh: mapped,
        offset: off,
        count: 32768,
    };
    // Park the first read, then answer with a fragment whose entries all
    // mirror on sites {2, 3} with 3 still warming (migration copy owed).
    let out = u.outbound(t(0), call_pkt(&c, 1, &read_at(128 * 1024)));
    assert!(net_pkts(&out).is_empty());
    let (file, first, count) = out
        .iter()
        .find_map(|o| match o {
            ProxyOut::Coord(CoordMsg::MapGet {
                file,
                first_block,
                count,
            }) => Some((*file, *first_block, *count)),
            _ => None,
        })
        .expect("MapGet emitted");
    let fragment = |warm: bool| CoordReply::MapFragment {
        file,
        first_block: first,
        sites: (0..count).map(|_| vec![2u32, 3u32]).collect(),
        warming: (0..count)
            .map(|_| if warm { vec![3u32] } else { Vec::new() })
            .collect(),
    };
    let out = u.coord_reply(t(1), fragment(true));
    assert_eq!(net_pkts(&out)[0].dst, c.storage_sites[2]);
    // Every covered stripe reads from site 2: 3 is warming.
    for b in 0..u64::from(count) {
        let out = u.outbound(
            t(2 + b),
            call_pkt(&c, 10 + b as u32, &read_at((first + b) * 64 * 1024)),
        );
        for p in net_pkts(&out) {
            assert_ne!(
                p.dst, c.storage_sites[3],
                "warming replica must not serve reads"
            );
        }
    }
    // The log drains; the epoch flush refetches a clean fragment and the
    // rotation picks the new replica back up.
    u.flush_map_cache();
    assert_eq!(u.map_epoch, 1);
    let out = u.outbound(t(100), call_pkt(&c, 40, &read_at(128 * 1024)));
    assert!(net_pkts(&out).is_empty(), "flush forces a refetch");
    u.coord_reply(t(101), fragment(false));
    let mut hit3 = false;
    for b in 0..u64::from(count) {
        let out = u.outbound(
            t(102 + b),
            call_pkt(&c, 50 + b as u32, &read_at((first + b) * 64 * 1024)),
        );
        hit3 |= net_pkts(&out).iter().any(|p| p.dst == c.storage_sites[3]);
    }
    assert!(hit3, "clean replica rejoins the rotation after the flush");
}

#[test]
fn retire_site_purges_suspicion_and_leaves_probe_loop() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    // Drive site 1 into suspicion: route a mirrored read there, then
    // strike it past the threshold via retransmissions.
    let mirrored = fh(40, FH_FLAG_MIRRORED);
    let mut victim = None;
    for (xid, off) in (0u32..8).map(|i| (i + 1, u64::from(i) * 64 * 1024)) {
        let out = u.outbound(
            t(u64::from(xid)),
            call_pkt(
                &c,
                xid,
                &NfsRequest::Read {
                    fh: mirrored,
                    offset: off,
                    count: 1024,
                },
            ),
        );
        if net_pkts(&out).first().map(|p| p.dst) == Some(c.storage_sites[1]) {
            u.note_retransmit(t(100), xid);
            u.note_retransmit(t(200), xid);
            victim = Some(xid);
            break;
        }
    }
    assert!(victim.is_some(), "some stripe must route to site 1");
    assert_eq!(u.suspected_sites(), vec![1]);
    assert!(!u.tick(t(3000)).is_empty(), "suspected sites are probed");
    // Planned removal: suspicion soft state is purged for good and the
    // probe loop drops the site.
    u.retire_site(t(4000), 1);
    assert!(u.suspected_sites().is_empty(), "retire purges suspicion");
    assert_eq!(u.retired_sites(), vec![1]);
    assert!(u.tick(t(6000)).is_empty(), "retired sites are never probed");
    // Reads never route to the retired site again.
    for (xid, off) in (20u32..40).map(|i| (i, u64::from(i) * 64 * 1024)) {
        let out = u.outbound(
            t(10_000 + u64::from(xid)),
            call_pkt(
                &c,
                xid,
                &NfsRequest::Read {
                    fh: mirrored,
                    offset: off,
                    count: 1024,
                },
            ),
        );
        for p in net_pkts(&out) {
            assert_ne!(p.dst, c.storage_sites[1], "retired site must not serve");
        }
    }
}

#[test]
fn hot_trackers_count_and_age_out() {
    let c = cfg();
    let mut u = Uproxy::new(c.clone());
    // Three data ops on file 7, one on file 8, plus name traffic on dir 3,
    // which the hot set does not count.
    for i in 0..3u64 {
        u.outbound(
            t(i),
            call_pkt(
                &c,
                i as u32 + 1,
                &NfsRequest::Read {
                    fh: fh(7, 0),
                    offset: 128 * 1024,
                    count: 1024,
                },
            ),
        );
    }
    u.outbound(
        t(5),
        call_pkt(
            &c,
            9,
            &NfsRequest::Read {
                fh: fh(8, 0),
                offset: 128 * 1024,
                count: 1024,
            },
        ),
    );
    u.outbound(
        t(6),
        call_pkt(
            &c,
            10,
            &NfsRequest::Lookup {
                dir: fh(3, slice_nfsproto::FH_FLAG_DIR),
                name: "x".into(),
            },
        ),
    );
    assert_eq!(u.hot_files(1), vec![(7, 3), (8, 1)]);
    assert_eq!(u.hot_files(2), vec![(7, 3)]);
    // A quiet gap of two half-windows ages everything out; fresh traffic
    // starts a new window.
    u.outbound(
        t(60_000),
        call_pkt(
            &c,
            11,
            &NfsRequest::Read {
                fh: fh(9, 0),
                offset: 128 * 1024,
                count: 1024,
            },
        ),
    );
    assert_eq!(u.hot_files(1), vec![(9, 1)], "stale window must age out");
}

/// Every packet a fresh µproxy emits for `req`, in emission order.
fn emitted(c: &ProxyConfig, xid: u32, req: &NfsRequest) -> (Uproxy, Vec<Packet>) {
    let mut u = Uproxy::new(c.clone());
    let out = u.outbound(t(0), call_pkt(c, xid, req));
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    assert!(pkts.iter().all(|p| p.verify() && p.src == c.client_addr));
    (u, pkts)
}

/// `(dst, checksum, FNV-1a of the payload)` per packet: every byte.
fn digests(pkts: &[Packet]) -> Vec<(SockAddr, u16, u64)> {
    pkts.iter()
        .map(|p| (p.dst, p.checksum, slice_hashes::fnv1a(&p.bytes())))
        .collect()
}

/// `(dst, length, FNV-1a of the payload after its xid word)` per packet:
/// everything but the xid (and the checksum that covers it).
fn bodies(pkts: &[Packet]) -> Vec<(SockAddr, usize, u64)> {
    pkts.iter()
        .map(|p| (p.dst, p.payload_len(), slice_hashes::fnv1a(&p.bytes()[4..])))
        .collect()
}

/// Answers every leg under the xid it was sent with; the one reply the
/// client gets must carry the client's xid.
fn answer_legs(c: &ProxyConfig, u: &mut Uproxy, pkts: &[Packet], xid: u32, reply: &NfsReply) {
    let mut delivered = Vec::new();
    for p in pkts {
        let back = u.inbound(t(1), reply_pkt(p.dst, c.client_addr, xid_of(p), reply));
        delivered.extend(client_xid(&back));
    }
    assert_eq!(delivered, vec![xid], "one reply, under the client's xid");
}

/// Pins the bulk planner's legs byte for byte (destination, checksum,
/// payload digest). A non-straddling request (xids 12, 14) is the client's
/// own packet re-addressed in place (reference values from commit
/// 6f849b5). A straddling one (11, 13) is re-encoded as a head and a tail
/// (one tail per replica for a write) under µproxy-owned xids; for those,
/// `bodies` pins everything but the xid word to what commit 901b509
/// emitted, when the legs still travelled under the client's xid — the
/// move to leg ops changed that word, the checksum over it, and nothing
/// else.
#[test]
fn bulk_planner_emits_golden_mirrored_legs() {
    let c = cfg();
    let (sf, node) = (c.sf_sites[0], |i: usize| c.storage_sites[i]);
    let mirrored = fh(80, FH_FLAG_MIRRORED);
    let data: Vec<u8> = (0..32 * 1024).map(|i| (i % 251) as u8).collect();
    let write = |offset| NfsRequest::Write {
        fh: mirrored,
        offset,
        stable: StableHow::FileSync,
        data: data.clone(),
    };
    let read = |offset| NfsRequest::Read {
        fh: mirrored,
        offset,
        count: 32 * 1024,
    };
    let attr = Fattr3::new(FileType::Regular, 80, 0o644, NfsTime::default());
    let wrote = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Write {
            count: 16 * 1024,
            committed: StableHow::FileSync,
            verf: 1,
        },
    };
    let got = NfsReply {
        proc: NfsProc::Read,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Read {
            data: vec![5u8; 16 * 1024],
            eof: false,
        },
    };

    let (mut u, pkts) = emitted(&c, 11, &write(48 * 1024));
    assert_eq!(
        digests(&pkts),
        vec![
            (sf, 61381, 0x6c60_4cbc_aae7_40da),
            (node(2), 50927, 0xe6e1_1c41_5b6b_73ff),
            (node(3), 50925, 0x14ad_adf9_2f1f_10b6),
        ]
    );
    assert_eq!(
        bodies(&pkts),
        vec![
            (sf, 16524, 0x58c1_679e_24c1_b3ca),
            (node(2), 16524, 0x95bb_6f6a_d833_1678),
            (node(3), 16524, 0x95bb_6f6a_d833_1678),
        ]
    );
    answer_legs(&c, &mut u, &pkts, 11, &wrote);

    assert_eq!(
        digests(&emitted(&c, 12, &write(128 * 1024)).1),
        vec![
            (node(3), 7875, 0x8858_738c_f633_55f6),
            (node(0), 7878, 0x8858_738c_f633_55f6),
        ]
    );

    let (mut u, pkts) = emitted(&c, 13, &read(48 * 1024));
    assert_eq!(
        digests(&pkts),
        vec![
            (sf, 64771, 0xb46b_f1af_e9af_9ea2),
            (node(2), 44288, 0xe486_6665_a007_2ebe),
        ]
    );
    assert_eq!(
        bodies(&pkts),
        vec![
            (sf, 132, 0x9ad6_0fd3_fca6_1ef2),
            (node(2), 132, 0xf110_652b_da96_db8d)
        ]
    );
    answer_legs(&c, &mut u, &pkts, 13, &got);

    assert_eq!(
        digests(&emitted(&c, 14, &read(128 * 1024)).1),
        vec![(node(3), 4613, 0xdedf_da2c_ff6a_d3b8)]
    );
}

/// `(destination site, offset, length, FNV-1a of the data)` of every
/// storage leg in `pkts`: a READ's length is its count, its data none.
fn storage_legs(c: &ProxyConfig, pkts: &[Packet]) -> Vec<(usize, u64, usize, u64)> {
    let site = |p: &Packet| c.storage_sites.iter().position(|&s| s == p.dst);
    pkts.iter()
        .map(|p| match p.decode_call().expect("a call").1 {
            NfsRequest::Write { offset, data, .. } => {
                let digest = slice_hashes::fnv1a(&data);
                (site(p).unwrap(), offset, data.len(), digest)
            }
            NfsRequest::Read { offset, count, .. } => {
                let digest = slice_hashes::fnv1a(&[]);
                (site(p).unwrap(), offset, count as usize, digest)
            }
            other => panic!("unexpected leg {other:?}"),
        })
        .collect()
}

/// Defect 1c(xii): a request is owed to every block it touches. A 64 KiB
/// WRITE at 96 KiB covers the end of block 1 and the start of block 2,
/// whose replica pairs differ; each block's replicas get that block's
/// bytes and no others, and a READ across 128 KiB reads each block from
/// a replica of its own. `sites(b)` is the placement of block `b`.
fn cut_at_the_block_boundary(
    c: &ProxyConfig,
    u: &mut Uproxy,
    f: Fhandle,
    sites: impl Fn(u64) -> Vec<usize>,
    release: impl Fn(&mut Uproxy, Vec<ProxyOut>) -> Vec<ProxyOut>,
) {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let write = NfsRequest::Write {
        fh: f,
        offset: 96 * 1024,
        stable: StableHow::FileSync,
        data: data.clone(),
    };
    let out = u.outbound(t(0), call_pkt(c, 60, &write));
    let out = release(u, out);
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    let mut want = Vec::new();
    for (b, lo) in [(1, 0), (2, 32 * 1024)] {
        let digest = slice_hashes::fnv1a(&data[lo..lo + 32 * 1024]);
        for s in sites(b) {
            want.push((s, 96 * 1024 + lo as u64, 32 * 1024, digest));
        }
    }
    assert_eq!(
        storage_legs(c, &pkts),
        want,
        "one leg per block per replica"
    );
    let wrote = NfsReply {
        proc: NfsProc::Write,
        status: NfsStatus::Ok,
        attr: Some(Fattr3::new(
            FileType::Regular,
            f.file_id(),
            0o644,
            NfsTime::default(),
        )),
        body: ReplyBody::Write {
            count: 32 * 1024,
            committed: StableHow::FileSync,
            verf: 1,
        },
    };
    answer_legs(c, u, &pkts, 60, &wrote);

    let read = NfsRequest::Read {
        fh: f,
        offset: 96 * 1024,
        count: 64 * 1024,
    };
    let out = u.outbound(t(2), call_pkt(c, 61, &read));
    let pkts: Vec<Packet> = net_pkts(&out).into_iter().cloned().collect();
    let none = slice_hashes::fnv1a(&[]);
    assert_eq!(
        storage_legs(c, &pkts),
        vec![
            (sites(1)[0], 96 * 1024, 32 * 1024, none),
            (sites(2)[0], 128 * 1024, 32 * 1024, none),
        ],
        "each block read from a replica of its own"
    );
    let mut delivered = None;
    for (p, fill) in pkts.iter().zip([0xB1u8, 0xB2]) {
        let reply = NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Read {
                data: vec![fill; 32 * 1024],
                eof: false,
            },
        };
        let back = u.inbound(t(3), reply_pkt(p.dst, c.client_addr, xid_of(p), &reply));
        delivered = delivered.or(back.into_iter().find_map(|o| match o {
            ProxyOut::Client(p) => Some(p),
            _ => None,
        }));
    }
    let (_, reply) = delivered
        .expect("one reply")
        .decode_reply(NfsProc::Read)
        .unwrap();
    let ReplyBody::Read { data, .. } = reply.body else {
        panic!("a read reply");
    };
    assert_eq!(data.len(), 64 * 1024);
    assert!(
        data[..32 * 1024].iter().all(|&b| b == 0xB1),
        "block 1 first"
    );
    assert!(
        data[32 * 1024..].iter().all(|&b| b == 0xB2),
        "block 2 second"
    );
}

#[test]
fn a_request_across_a_block_boundary_goes_to_each_blocks_sites() {
    let c = cfg();
    // A mapped mirror: block b on sites {b + 1, b + 2} (mod 4), so blocks
    // 1 and 2 share site 3 only.
    let mut u = Uproxy::new(c.clone());
    let mapped = fh(93, slice_nfsproto::FH_FLAG_MAPPED);
    let pair = |b: u64| vec![(b as usize + 1) % 4, (b as usize + 2) % 4];
    cut_at_the_block_boundary(&c, &mut u, mapped, pair, |u, out| {
        let (file, first_block, count) = out
            .iter()
            .find_map(|o| match o {
                ProxyOut::Coord(CoordMsg::MapGet {
                    file,
                    first_block,
                    count,
                }) => Some((*file, *first_block, *count)),
                _ => None,
            })
            .expect("the write parks on a map fetch");
        let blocks = first_block..first_block + u64::from(count);
        let fragment = CoordReply::MapFragment {
            file,
            first_block,
            sites: blocks
                .map(|b| pair(b).iter().map(|&s| s as u32).collect())
                .collect(),
            warming: vec![Vec::new(); count as usize],
        };
        u.coord_reply(t(1), fragment)
    });
    // A static striped file: block b on its one striping site.
    let mut u = Uproxy::new(c.clone());
    let striped = fh(94, 0);
    let slot = |b: u64| {
        slice_hashes::stripe_slots(94, b, 1, 4)
            .map(|s| s as usize)
            .collect()
    };
    cut_at_the_block_boundary(&c, &mut u, striped, slot, |_, out| out);
}

/// A name-hashing READDIR whose site answers with only the chain marker
/// is re-issued to the next site under the caller's own RPC header: an
/// `AUTH_NONE` caller is not forwarded as `AUTH_UNIX` uid 0.
#[test]
fn a_readdir_chain_reissues_the_callers_credential() {
    let mut c = cfg();
    c.name_policy = NamePolicy::NameHashing;
    let mut u = Uproxy::new(c.clone());
    let call = |cookie: u64| {
        let mut e = slice_xdr::XdrEncoder::new();
        let words = [7, slice_nfsproto::MSG_CALL, 2, slice_nfsproto::NFS_PROGRAM];
        for word in words.into_iter().chain([slice_nfsproto::NFS_V3, 16]) {
            e.put_u32(word);
        }
        e.put_u32(0); // credential flavor: AUTH_NONE
        e.put_opaque(&[]);
        e.put_u32(0); // verifier flavor: AUTH_NONE
        e.put_opaque(&[]);
        Fhandle::root().encode(&mut e);
        e.put_u64(cookie);
        e.put_u64(0); // cookie verifier
        e.put_u32(4096);
        e.into_bytes()
    };
    let out = u.outbound(t(0), Packet::new(c.client_addr, c.virtual_addr, call(0)));
    let first = net_pkts(&out)[0].clone();
    assert_eq!(first.payload[..], call(0)[..]);
    let next = slice_hashes::routing::cookie(1, 0);
    let marker = NfsReply {
        proc: NfsProc::Readdir,
        status: NfsStatus::Ok,
        attr: None,
        body: ReplyBody::Readdir {
            entries: vec![slice_nfsproto::DirEntry {
                fileid: 0,
                name: String::new(),
                cookie: next,
            }],
            cookieverf: 0,
            eof: false,
        },
    };
    let out = u.inbound(t(1), reply_pkt(first.dst, first.src, 7, &marker));
    assert_eq!(client_xid(&out), None, "the marker is not handed up");
    let reissued = net_pkts(&out);
    assert_eq!(reissued.len(), 1);
    assert_eq!(reissued[0].dst, c.dir_sites[1]);
    assert_eq!(reissued[0].payload[..], call(next)[..]);
}
