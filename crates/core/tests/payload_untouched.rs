//! The forwarding hops never touch file data: a 32 KiB WRITE or READ
//! reply crosses the µproxy, and a WRITE lands on a metadata-only storage
//! node, without its payload being copied, re-allocated or re-encoded.
//!
//! "Did not touch" is pinned two ways: by pointer identity (the packet
//! that leaves holds the very allocation that arrived; the storage node
//! keeps no window of the packet, only the shared zero buffer), and by no
//! `ByteBuf` copy-on-write fault firing. One thing is no longer pinned: a
//! fresh allocation made elsewhere on the hop and then discarded leaves
//! neither trace.

use slice_core::actors::StorageActor;
use slice_core::{Router, Wire};
use slice_nfsproto::{
    encode_call, encode_reply, view_reply, AuthUnix, BodyView, ByteBuf, Fattr3, Fhandle, FileType,
    NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, Packet, ReplyBody, SockAddr, StableHow,
    Windows, FH_FLAG_MIRRORED,
};
use slice_sim::{Actor, Ctx, Engine, NetConfig, NodeId, SimDuration, SimTime};
use slice_storage::{StorageNode, StorageNodeConfig};
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

fn net_packets(out: Vec<ProxyOut>) -> Vec<Packet> {
    out.into_iter()
        .filter_map(|o| match o {
            ProxyOut::Net(p) => Some(p),
            _ => None,
        })
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
    let (_, view) = view_reply(&delivered.payload, NfsProc::Read).expect("forwarded reply");
    let BodyView::Read { data: range, .. } = view.body else {
        panic!("not a READ body");
    };
    assert_eq!(&delivered.payload[range], &data[..]);
}

/// Collects the datagrams a server under test sends back.
#[derive(Default)]
struct Sink {
    got: Vec<Packet>,
}

impl Actor<Wire> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        if let Wire::Udp(p) = msg {
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
    let (xid, view) = view_reply(&got[0].payload, NfsProc::Write).expect("reply decodes");
    assert_eq!(xid, 77);
    assert_eq!(
        view.body,
        BodyView::Other(ReplyBody::Write {
            count: BLOCK as u32,
            committed: StableHow::Unstable,
            verf: 1,
        })
    );
}
