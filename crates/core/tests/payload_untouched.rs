//! The forwarding hops never touch file data: a 32 KiB WRITE or READ
//! reply crosses the µproxy, and a WRITE lands on a metadata-only storage
//! node, without its payload being copied, re-allocated or re-encoded. A
//! packet is a header and data windows, and the windows are the buffers
//! the bytes already lay in: a client WRITE's is the workload's own `Vec`,
//! a READ reply's the extent its store kept or the shared zero buffer.
//!
//! "Did not touch" is pinned two ways: by pointer identity (the packet
//! that leaves holds the very allocation that arrived; the storage node
//! keeps no window of the packet, only the shared zero buffer), and by no
//! `ByteBuf` copy-on-write fault firing. One thing is no longer pinned: a
//! fresh allocation made elsewhere on the hop and then discarded leaves
//! neither trace.

use std::cell::Cell;
use std::rc::Rc;

use slice_core::actors::{CoordActor, SmallFileActor, StorageActor};
use slice_core::{AddrPlan, ClientActor, ClientConfig, ClientIo, Router, Wire, Workload};
use slice_nfsproto::{
    encode_call, encode_reply, AuthUnix, ByteBuf, CallView, Fattr3, Fhandle, FileType, NfsProc,
    NfsReply, NfsRequest, NfsStatus, NfsTime, Packet, ReplyBody, SockAddr, StableHow, Windows,
    FH_FLAG_MAPPED, FH_FLAG_MIRRORED,
};
use slice_sim::{Actor, Ctx, Engine, NetConfig, NodeId, Rng, SimDuration, SimTime};
use slice_smallfile::{SmallFileConfig, SmallFileServer};
use slice_storage::{Coordinator, Placement, StorageNode, StorageNodeConfig};
use slice_uproxy::{ProxyConfig, ProxyOut, Uproxy};

const BLOCK: usize = 32 * 1024;

fn deep_copies() -> u64 {
    slice_nfsproto::bytes::local_clone_stats().1
}

fn write_call(xid: u32, fh: Fhandle, offset: u64) -> Vec<u8> {
    let req = NfsRequest::Write {
        fh,
        offset,
        stable: StableHow::Unstable,
        data: (0..BLOCK).map(|i| (i % 251) as u8).collect(),
    };
    encode_call(xid, &AuthUnix::default(), &req)
}

/// The datagrams the µproxy sends to servers, each checked to carry a
/// checksum of its bytes.
fn net_packets(out: Vec<ProxyOut>) -> Vec<Packet> {
    out.into_iter()
        .filter_map(|o| match o {
            ProxyOut::Net(p) => Some(p),
            _ => None,
        })
        .inspect(|p| assert!(p.verify(), "a leg left with a stale checksum"))
        .collect()
}

#[test]
fn uproxy_forwards_a_mirrored_write_and_its_read_reply_in_place() {
    let cfg = ProxyConfig::test_default();
    let mut proxy = Uproxy::new(cfg.clone());
    let fh = Fhandle::new(20, 0, FH_FLAG_MIRRORED, 0, 0);
    let offset = 128 * 1024;
    let now = SimTime::ZERO + SimDuration::from_millis(1);

    // WRITE out: one packet in, one per mirror out, all the same bytes.
    let call = Packet::new(cfg.client_addr, cfg.virtual_addr, write_call(5, fh, offset));
    let backing = call.payload.as_ptr();
    let deep = deep_copies();
    let out = proxy.outbound(now, call);
    assert_eq!(deep_copies() - deep, 0, "outbound WRITE deep-copied");
    let legs = net_packets(out);
    assert_eq!(legs.len(), 2, "one leg per mirror");
    for leg in &legs {
        assert_eq!(
            leg.payload.as_ptr(),
            backing,
            "leg re-materialized the payload"
        );
        assert!(leg.verify(), "incremental rewrite must keep the checksum");
    }
    // Both mirrors acknowledge, so the next request starts clean.
    for leg in &legs {
        let ack = NfsReply {
            proc: NfsProc::Write,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Write {
                count: BLOCK as u32,
                committed: StableHow::Unstable,
                verf: 1,
            },
        };
        proxy.inbound(
            now,
            Packet::new(leg.dst, cfg.client_addr, encode_reply(5, &ack)),
        );
    }

    // READ back: route the call, then carry the 32 KiB reply inbound.
    let read = NfsRequest::Read {
        fh,
        offset,
        count: BLOCK as u32,
    };
    let call = Packet::new(
        cfg.client_addr,
        cfg.virtual_addr,
        encode_call(6, &AuthUnix::default(), &read),
    );
    let leg = net_packets(proxy.outbound(now, call)).remove(0);
    let mut attr = Fattr3::new(FileType::Regular, 20, 0o644, NfsTime::default());
    attr.size = offset + BLOCK as u64;
    let data: Vec<u8> = (0..BLOCK).map(|i| (i % 241) as u8).collect();
    let reply = NfsReply {
        proc: NfsProc::Read,
        status: NfsStatus::Ok,
        attr: Some(attr),
        body: ReplyBody::Read {
            data: data.clone(),
            eof: true,
        },
    };
    let reply = Packet::new(leg.dst, cfg.client_addr, encode_reply(6, &reply));
    let backing = reply.payload.as_ptr();
    let deep = deep_copies();
    let out = proxy.inbound(now, reply);
    assert_eq!(deep_copies() - deep, 0, "inbound READ reply deep-copied");
    let [ProxyOut::Client(delivered)] = &out[..] else {
        panic!("expected exactly the forwarded reply, got {out:?}");
    };
    assert_eq!(delivered.payload.as_ptr(), backing, "reply was re-encoded");
    assert_eq!(delivered.src, cfg.virtual_addr);
    assert!(delivered.verify());
    let (_, view) = delivered
        .view_reply(NfsProc::Read)
        .expect("forwarded reply");
    let ReplyBody::Read { data: range, .. } = view.body else {
        panic!("not a READ body");
    };
    assert_eq!(&delivered.payload[range], &data[..]);
}

/// Collects the datagrams a server under test sends back, each checked
/// to carry a checksum of its bytes.
#[derive(Default)]
struct Sink {
    got: Vec<Packet>,
}

impl Actor<Wire> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        if let Wire::Udp(p) = msg {
            assert!(p.verify(), "a datagram arrived with a stale checksum");
            self.got.push(p);
        }
    }
}

#[test]
fn metadata_only_storage_actor_applies_a_write_without_reading_it() {
    let client_addr = SockAddr::new(0x0a00_0001, 700);
    let storage_addr = SockAddr::new(0x0a00_3000, 2049);
    let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), 1);
    let client = engine.add_node("client", Box::new(Sink::default()));
    let mut router = Router::new();
    router.register(client_addr, client);
    let node = StorageNode::new(&StorageNodeConfig {
        retain_data: false,
        ..Default::default()
    });
    let storage = engine.add_node(
        "storage",
        Box::new(StorageActor::new(node, storage_addr, router)),
    );

    let fh = Fhandle::new(9, 0, 0, 0, 0);
    let call = Packet::new(client_addr, storage_addr, write_call(77, fh, 64 * 1024));
    let deep = deep_copies();
    engine.inject(client, storage, Wire::Udp(call));
    engine.run_until_idle(1_000);
    assert_eq!(deep_copies() - deep, 0);

    let actor = engine.actor_mut::<StorageActor>(storage);
    assert_eq!(actor.node.store().size(9), 64 * 1024 + BLOCK as u64);
    assert_eq!(actor.node.op_counts(), (0, 1));
    // The node kept the length only: what it holds for the written range
    // is windows of the one shared zero buffer, not of the packet or of a
    // copy of its data.
    let mut zeros = Windows::default();
    zeros.push_zeros(1);
    let zeros = zeros.iter().next().expect("a zero window");
    let held = actor.node.store_mut().read_windows(9, 64 * 1024, BLOCK);
    assert_eq!(held.len(), BLOCK);
    assert!(held.iter().all(|w| ByteBuf::ptr_eq(w, zeros)));
    let got = &engine.actor::<Sink>(client).got;
    assert_eq!(got.len(), 1, "one WRITE reply");
    let (xid, view) = got[0].view_reply(NfsProc::Write).expect("reply decodes");
    assert_eq!(xid, 77);
    assert_eq!(
        view.body,
        ReplyBody::Write {
            count: BLOCK as u32,
            committed: StableHow::Unstable,
            verf: 1,
        }
    );
}

/// A storage node with one 32 KiB WRITE applied, and the READ reply it
/// sends back for the same range: `(the WRITE's packet, the reply)`.
fn write_then_read(retain_data: bool) -> (Packet, Packet) {
    let client_addr = SockAddr::new(0x0a00_0001, 700);
    let storage_addr = SockAddr::new(0x0a00_3000, 2049);
    let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), 1);
    let client = engine.add_node("client", Box::new(Sink::default()));
    let mut router = Router::new();
    router.register(client_addr, client);
    let node = StorageNode::new(&StorageNodeConfig {
        retain_data,
        ..Default::default()
    });
    let storage = engine.add_node(
        "storage",
        Box::new(StorageActor::new(node, storage_addr, router)),
    );
    let fh = Fhandle::new(9, 0, 0, 0, 0);
    let write = Packet::new(client_addr, storage_addr, write_call(77, fh, 0));
    engine.inject(client, storage, Wire::Udp(write.clone()));
    engine.run_until_idle(1_000);
    let read = NfsRequest::Read {
        fh,
        offset: 0,
        count: BLOCK as u32,
    };
    let read = encode_call(78, &AuthUnix::default(), &read);
    engine.inject(
        client,
        storage,
        Wire::Udp(Packet::new(client_addr, storage_addr, read)),
    );
    engine.run_until_idle(1_000);
    let got = &engine.actor::<Sink>(client).got;
    assert_eq!(got.len(), 2, "a WRITE reply and a READ reply");
    (write, got[1].clone())
}

/// The data windows of a READ reply, checked to carry `want`.
fn read_windows(reply: &Packet, want: &[u8]) -> Windows {
    assert!(reply.verify());
    let (_, view) = reply.view_reply(NfsProc::Read).expect("READ reply");
    let ReplyBody::Read { data, .. } = view.body else {
        panic!("not a READ body");
    };
    let windows = reply.range(data);
    assert_eq!(windows.to_vec(), want);
    windows
}

#[test]
fn a_retaining_read_reply_is_the_extent_the_write_left() {
    let (write, reply) = write_then_read(true);
    let (_, CallView::Write { data, .. }) = write.view_call().expect("WRITE") else {
        panic!("not a WRITE view");
    };
    let windows = read_windows(&reply, &write.range(data).to_vec());
    // The store kept a window of the WRITE's packet and the reply carries
    // that window: one allocation from the wire in to the wire out.
    assert_eq!(windows.iter().count(), 1);
    assert!(windows.iter().all(|w| ByteBuf::ptr_eq(w, &write.payload)));
    assert!(
        reply.payload.len() < 256,
        "the reply's header holds no data"
    );
}

#[test]
fn a_metadata_only_read_reply_is_the_shared_zero_buffer() {
    let (_, reply) = write_then_read(false);
    let windows = read_windows(&reply, &[0; BLOCK]);
    assert!(reply.windows().iter().all(ByteBuf::is_zeros));
    assert!(windows.iter().all(ByteBuf::is_zeros));
}

/// Issues one WRITE whose data is a `Vec` it remembers the address of.
struct OneWrite {
    data_at: Rc<Cell<usize>>,
}

impl Workload for OneWrite {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        let data: Vec<u8> = (0..BLOCK).map(|i| (i % 239) as u8).collect();
        self.data_at.set(data.as_ptr() as usize);
        let req = NfsRequest::Write {
            fh: Fhandle::new(21, 0, 0, 0, 0),
            offset: 128 * 1024,
            stable: StableHow::Unstable,
            data,
        };
        io.call(1, req);
    }

    fn on_reply(&mut self, _io: &mut ClientIo<'_, '_>, _tag: u64, _reply: &NfsReply<Windows>) {}
}

#[test]
fn a_client_write_carries_the_workloads_vec_through_the_uproxy() {
    let cfg = ProxyConfig::test_default();
    let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), 1);
    let mut router = Router::new();
    router.register(cfg.client_addr, NodeId(0));
    for &site in &cfg.storage_sites {
        router.register(site, NodeId(1));
    }
    let data_at = Rc::new(Cell::new(0));
    let workload = OneWrite {
        data_at: Rc::clone(&data_at),
    };
    let client_cfg = ClientConfig {
        addr: cfg.client_addr,
        server_addr: cfg.virtual_addr,
        cred: AuthUnix::default(),
        record_history: false,
    };
    let proxy = Some((Uproxy::new(cfg.clone()), NodeId(1)));
    let client = ClientActor::new(client_cfg, proxy, router, Box::new(workload));
    assert_eq!(engine.add_node("client", Box::new(client)), NodeId(0));
    assert_eq!(
        engine.add_node("storage", Box::new(Sink::default())),
        NodeId(1)
    );
    let deep = deep_copies();
    engine.kick(NodeId(0));
    engine.run_until(SimTime::ZERO + SimDuration::from_millis(10));
    assert_eq!(deep_copies() - deep, 0, "the WRITE was copied on its way");
    let got = &engine.actor::<Sink>(NodeId(1)).got;
    assert_eq!(got.len(), 1, "one WRITE reached the storage site");
    let pkt = &got[0];
    assert!(pkt.verify());
    let (_, CallView::Write { data, .. }) = pkt.view_call().expect("WRITE") else {
        panic!("not a WRITE view");
    };
    let windows = pkt.range(data);
    assert_eq!(windows.iter().count(), 1, "the data is one window");
    let window = windows.iter().next().expect("a window");
    assert_eq!(
        window.as_ptr() as usize,
        data_at.get(),
        "not the workload's Vec"
    );
    assert!(pkt.payload.len() < 256, "the call's header holds no data");
}

/// Wraps a server or client actor and folds every datagram it is handed
/// — endpoints, checksum and every logical byte — into a shared FNV-1a,
/// in delivery order.
struct Tap<A> {
    inner: A,
    fold: Rc<Cell<u64>>,
}

impl<A> Tap<A> {
    fn new(inner: A, fold: &Rc<Cell<u64>>) -> Self {
        Tap {
            inner,
            fold: Rc::clone(fold),
        }
    }
}

fn fold_bytes(fold: &Cell<u64>, bytes: &[u8]) {
    let mut h = fold.get();
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    fold.set(h);
}

/// The bytes a datagram carries after its UDP header, in wire order.
fn logical_bytes(p: &Packet) -> Vec<u8> {
    p.bytes()
}

fn fold_packet(fold: &Cell<u64>, p: &Packet) {
    assert!(p.verify(), "a datagram arrived with a stale checksum");
    let mut head = Vec::with_capacity(14);
    for a in [p.src, p.dst] {
        head.extend_from_slice(&a.ip.to_be_bytes());
        head.extend_from_slice(&a.port.to_be_bytes());
    }
    head.extend_from_slice(&p.checksum.to_be_bytes());
    fold_bytes(fold, &head);
    fold_bytes(fold, &logical_bytes(p));
}

impl<A: Actor<Wire>> Actor<Wire> for Tap<A> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: Wire) {
        if let Wire::Udp(p) = &msg {
            fold_packet(&self.fold, p);
        }
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.inner.on_timer(ctx, tag);
    }
}

/// Files of every placement the µproxy serves without a directory
/// server: striped, statically mirrored, and coded (4,2) through the
/// coordinator's block maps.
fn stream_files() -> [Fhandle; 5] {
    [
        Fhandle::new(101, 0, 0, 0, 0),
        Fhandle::new(102, 0, FH_FLAG_MIRRORED, 0, 0),
        Fhandle::new(103, 0, FH_FLAG_MAPPED, 0, 0),
        Fhandle::new(104, 0, FH_FLAG_MAPPED, 0, 0),
        Fhandle::new(105, 0, 0, 0, 0),
    ]
}

/// A seeded, windowed READ / WRITE / COMMIT mix: odd and even lengths,
/// writes of all-zero and of random bytes, reads over holes, across the
/// small-file threshold and past the end. Every reply's status and data
/// is folded as the client stack receives it.
struct ByteMix {
    rng: Rng,
    left: u32,
    outstanding: u32,
    fold: Rc<Cell<u64>>,
}

impl ByteMix {
    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        self.left -= 1;
        self.outstanding += 1;
        let files = stream_files();
        let fh = files[self.rng.gen_range(0..files.len())];
        let offset = match self.rng.gen_range(0..4u32) {
            0 => self.rng.gen_range(0..256 * 1024u64),
            1 => 64 * 1024 - self.rng.gen_range(1..4_096u64),
            _ => 32 * 1024 * self.rng.gen_range(0..8u64),
        };
        let len = match self.rng.gen_range(0..3u32) {
            0 => self.rng.gen_range(1..=40_000u32),
            _ => 32 * 1024,
        };
        let req = match self.rng.gen_range(0..100u32) {
            0..=54 => {
                let data = if self.rng.gen_range(0..4u32) == 0 {
                    vec![0; len as usize]
                } else {
                    (0..len).map(|_| self.rng.gen::<u8>()).collect()
                };
                NfsRequest::Write {
                    fh,
                    offset,
                    stable: if self.rng.gen_bool(0.3) {
                        StableHow::FileSync
                    } else {
                        StableHow::Unstable
                    },
                    data,
                }
            }
            55..=94 => NfsRequest::Read {
                fh,
                offset,
                count: len,
            },
            _ => NfsRequest::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        };
        io.call(u64::from(self.left), req);
    }
}

impl Workload for ByteMix {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        while self.outstanding < 4 && self.left > 0 {
            self.issue(io);
        }
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        self.outstanding -= 1;
        fold_bytes(&self.fold, &tag.to_be_bytes());
        fold_bytes(&self.fold, &(reply.status as u32).to_be_bytes());
        if let ReplyBody::Read { data, eof } = &reply.body {
            fold_bytes(&self.fold, &[u8::from(*eof)]);
            data.iter().for_each(|w| fold_bytes(&self.fold, w));
        }
        if self.left > 0 {
            self.issue(io);
        }
    }

    fn finished(&self) -> bool {
        self.left == 0 && self.outstanding == 0
    }
}

/// A seeded mix through a client with its µproxy, a small-file server,
/// four storage nodes (two retaining, two metadata-only) and the
/// coordinator: every datagram delivered and every reply the client stack
/// takes, folded into one FNV-1a. How packets are assembled may change;
/// their bytes and checksums may not.
#[test]
fn mixed_stream_wire_bytes_and_checksums_are_pinned() {
    let plan = AddrPlan::new(1, 1, 1, 4);
    let mut engine: Engine<Wire> = Engine::new(NetConfig::gigabit(), 7);
    let (client_id, sf_id, coord_id) = (NodeId(0), NodeId(1), NodeId(6));
    let storage_ids: Vec<NodeId> = (2..6).map(NodeId).collect();
    let mut router = Router::new();
    router.register(plan.clients[0], client_id);
    router.register(plan.sfs[0], sf_id);
    for (i, &id) in storage_ids.iter().enumerate() {
        router.register(plan.storage[i], id);
    }
    let fold = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325u64));
    let proxy = Uproxy::new(ProxyConfig {
        virtual_addr: plan.virtual_addr,
        client_addr: plan.clients[0],
        dir_sites: plan.dirs.clone(),
        sf_sites: plan.sfs.clone(),
        storage_sites: plan.storage.clone(),
        coded: Some((4, 2)),
        ..ProxyConfig::test_default()
    });
    let mix = ByteMix {
        rng: Rng::stream(42, 1),
        left: 600,
        outstanding: 0,
        fold: fold.clone(),
    };
    let client = ClientActor::new(
        ClientConfig {
            addr: plan.clients[0],
            server_addr: plan.virtual_addr,
            cred: AuthUnix::default(),
            record_history: false,
        },
        Some((proxy, coord_id)),
        router.clone(),
        Box::new(mix),
    );
    assert_eq!(
        engine.add_node("client", Box::new(Tap::new(client, &fold))),
        client_id
    );
    let sf = SmallFileServer::new(SmallFileConfig {
        server_id: 0,
        storage_sites: 4,
        cache_bytes: 64 * 1024,
        retain_data: true,
    });
    let sf = SmallFileActor::new(sf, plan.sfs[0], router.clone(), plan.storage.clone());
    assert_eq!(engine.add_node("sf", Box::new(Tap::new(sf, &fold))), sf_id);
    for (i, &id) in storage_ids.iter().enumerate() {
        let node = StorageNode::new(&StorageNodeConfig {
            retain_data: i % 2 == 0,
            ..Default::default()
        });
        let actor = StorageActor::new(node, plan.storage[i], router.clone());
        assert_eq!(
            engine.add_node("storage", Box::new(Tap::new(actor, &fold))),
            id
        );
    }
    let mut coord = Coordinator::new(4);
    coord.set_default_placement(Placement::Coded { n: 4, k: 2 });
    let coord = CoordActor::new(coord, storage_ids);
    assert_eq!(engine.add_node("coord", Box::new(coord)), coord_id);
    engine.kick(coord_id);
    engine.kick(client_id);
    engine.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(
        engine.actor::<Tap<ClientActor>>(client_id).inner.finished(),
        "the mix ran to the end"
    );
    // Re-pinned once when every bulk request came to be cut at block
    // boundaries: 27 of the mix's requests on the striped and statically
    // mirrored files cross one above the threshold (16 more on the coded
    // files were cut per stripe before).
    let got = fold.get();
    assert_eq!(
        got, 0x37ae_6b18_f6bf_a41d,
        "wire bytes or checksums of the mixed stream changed: now {got:#018x}"
    );
}
