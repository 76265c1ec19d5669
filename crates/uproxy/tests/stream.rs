//! A seeded request stream through the µproxy's four public entry points
//! (`outbound`, `inbound`, `coord_reply`, `tick`) against a fake back end
//! that answers every `ProxyOut::Net` from its destination and every
//! `ProxyOut::Coord` as a coordinator would.
//!
//! The mix: name operations, small-file I/O, plain / mirrored / mapped (or
//! coded) bulk I/O, aligned and straddling the threshold, commits with
//! intents, block-map misses, one client retransmission per kind of
//! request, one `lose_state` with requests in flight, and a storage site
//! that dies and is suspected. What is asserted, through the public API
//! only:
//!
//! * every client request gets a reply under its own xid, and only one
//!   unless it was retransmitted or in flight when state was lost;
//! * READ bytes equal a byte model of every file, WRITE counts equal the
//!   bytes sent;
//! * at quiescence the soft state is the attribute cache plus the cached
//!   map fragments and nothing else;
//! * for the sub-mix without straddling requests, an FNV-1a over every
//!   emitted `(dst, checksum, payload)` in order — pinned, so a refactor
//!   of the forward path, the coded planner or the write-back machinery
//!   shows up as a changed constant (the failure prints the new one; a
//!   behaviour change re-pins it on purpose and says why).
//!
//! `name_routing_is_pinned` pins the name-space routing decision on its
//! own: the `(proc, dst)` of every packet a name-operation mix sends, at
//! 1, 2 and 4 directory sites, under both policies, with the balanced
//! routing table and after loading a skewed one.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use slice_hashes::{fnv1a, NamePolicy, RoutingTable};
use slice_nfsproto::{
    decode_call, decode_reply, encode_call, encode_reply, peek_xid_type, AuthUnix, Fattr3, Fhandle,
    FileType, NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime, Packet, ReplyBody, Sattr3,
    SockAddr, StableHow, FH_FLAG_DIR, FH_FLAG_MAPPED, FH_FLAG_MIRRORED,
};
use slice_sim::{Rng, SimDuration, SimTime};
use slice_storage::{CoordMsg, CoordReply};
use slice_uproxy::{ProxyConfig, ProxyOut, Uproxy};

const STORAGE_SITES: u32 = 6;
/// The storage site that dies in the last phase.
const DOWN: u32 = 1;
const UNIT: u64 = 64 * 1024;
const OWN_XIDS: u32 = 0x8000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Name,
    Small,
    Plain,
    Mirrored,
    Mapped,
    Straddle,
    Commit,
}

/// A data range a request in flight reads or writes.
#[derive(Debug, Clone)]
struct Io {
    file: usize,
    offset: u64,
    len: u32,
    /// The bytes, for a write.
    data: Option<Vec<u8>>,
    /// A read that crosses EOF: nothing else may touch the file meanwhile.
    exclusive: bool,
}

#[derive(Debug, Clone)]
struct Req {
    pkt: Packet,
    proc: NfsProc,
    io: Option<Io>,
    /// In flight when the µproxy lost its state: whatever answers it is
    /// accepted unchecked (the paper promises recovery, not content).
    shaken: bool,
}

struct File {
    fh: Fhandle,
    name: String,
    kind: Kind,
    /// Every byte a completed write put there; its length is the size.
    model: Vec<u8>,
}

enum Delivery {
    /// A storage or small-file server's reply, built when the call left.
    Reply(Packet),
    /// A call on its way to a directory server, answered on arrival from
    /// the attributes current then.
    DirCall(Packet),
    Coord(CoordReply),
}

struct Stream {
    cfg: ProxyConfig,
    u: Uproxy,
    rng: Rng,
    now: SimTime,
    steps: u64,
    straddles: bool,
    files: Vec<File>,
    /// Per (server address, file): the object as that server holds it.
    stores: BTreeMap<(SockAddr, u64), Vec<u8>>,
    queue: VecDeque<Delivery>,
    outstanding: BTreeMap<u32, Req>,
    /// Xids that may be answered more than once.
    loose: BTreeSet<u32>,
    retransmitted: BTreeSet<Kind>,
    next_xid: u32,
    next_intent: u64,
    /// (file, block) map entries handed out since state was last lost.
    fragments: BTreeSet<(u64, u64)>,
    down: Option<SockAddr>,
    hash: u64,
    answered: u64,
}

fn cred() -> AuthUnix {
    AuthUnix::default()
}

impl Stream {
    fn new(seed: u64, coded: Option<(u32, u32)>, straddles: bool) -> Self {
        let mut cfg = ProxyConfig::test_default();
        cfg.dir_sites = (0..2)
            .map(|i| SockAddr::new(0x0a00_1000 + i, 2049))
            .collect();
        cfg.storage_sites = (0..STORAGE_SITES)
            .map(|i| SockAddr::new(0x0a00_3000 + i, 2049))
            .collect();
        cfg.use_block_maps = true;
        cfg.coded = coded;
        let files = (0..12u64)
            .map(|i| {
                let (kind, flags) = match i % 3 {
                    0 => (Kind::Plain, 0),
                    1 => (Kind::Mirrored, FH_FLAG_MIRRORED),
                    _ => (Kind::Mapped, FH_FLAG_MAPPED),
                };
                File {
                    fh: Fhandle::new(100 + i, (i % 2) as u32, flags, 0, 0),
                    name: format!("f{i}"),
                    kind,
                    model: Vec::new(),
                }
            })
            .collect();
        Stream {
            u: Uproxy::new(cfg.clone()),
            cfg,
            rng: Rng::seed_from_u64(seed),
            now: SimTime::ZERO,
            steps: 0,
            straddles,
            files,
            stores: BTreeMap::new(),
            queue: VecDeque::new(),
            outstanding: BTreeMap::new(),
            loose: BTreeSet::new(),
            retransmitted: BTreeSet::new(),
            next_xid: 1,
            next_intent: 1,
            fragments: BTreeSet::new(),
            down: None,
            hash: 0,
            answered: 0,
        }
    }

    fn attr_of(&self, file: usize) -> Fattr3 {
        let f = &self.files[file];
        let mut a = Fattr3::new(FileType::Regular, f.fh.file_id(), 0o644, NfsTime::default());
        a.size = f.model.len() as u64;
        a.used = a.size;
        a
    }

    fn file_by_id(&self, id: u64) -> Option<usize> {
        self.files.iter().position(|f| f.fh.file_id() == id)
    }

    // ---- the fake back end -------------------------------------------

    /// A storage or small-file server executes `call` on its own object
    /// and answers from its own address.
    fn serve_data(&mut self, call: &Packet) -> Packet {
        let (hdr, req) = decode_call(&call.payload).expect("µproxy emits decodable calls");
        let local_attr = |file: u64, size: usize| {
            let mut a = Fattr3::new(FileType::Regular, file, 0o644, NfsTime::default());
            a.size = size as u64;
            a
        };
        let reply = match req {
            NfsRequest::Read { fh, offset, count } => {
                let obj = self.stores.entry((call.dst, fh.file_id())).or_default();
                let start = (offset as usize).min(obj.len());
                let end = (offset as usize + count as usize).min(obj.len());
                NfsReply {
                    proc: NfsProc::Read,
                    status: NfsStatus::Ok,
                    attr: Some(local_attr(fh.file_id(), obj.len())),
                    body: ReplyBody::Read {
                        data: obj[start..end].to_vec(),
                        eof: offset as usize + count as usize >= obj.len(),
                    },
                }
            }
            NfsRequest::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                let obj = self.stores.entry((call.dst, fh.file_id())).or_default();
                let end = offset as usize + data.len();
                if obj.len() < end {
                    obj.resize(end, 0);
                }
                obj[offset as usize..end].copy_from_slice(&data);
                NfsReply {
                    proc: NfsProc::Write,
                    status: NfsStatus::Ok,
                    attr: Some(local_attr(fh.file_id(), obj.len())),
                    body: ReplyBody::Write {
                        count: data.len() as u32,
                        committed: stable,
                        verf: 7,
                    },
                }
            }
            NfsRequest::Commit { fh, .. } => NfsReply {
                proc: NfsProc::Commit,
                status: NfsStatus::Ok,
                attr: Some(local_attr(fh.file_id(), 0)),
                body: ReplyBody::Commit { verf: 7 },
            },
            other => panic!("{} is not a data server's call: {other:?}", call.dst),
        };
        Packet::new(call.dst, call.src, encode_reply(hdr.xid, &reply))
    }

    /// A directory server answers `call` from the attributes current now.
    fn serve_dir(&mut self, call: &Packet) -> Packet {
        let (hdr, req) = decode_call(&call.payload).expect("µproxy emits decodable calls");
        let proc = req.proc();
        let target = |s: &Self, fh: &Fhandle| s.file_by_id(fh.file_id()).map(|i| s.attr_of(i));
        let reply = match &req {
            NfsRequest::Lookup { name, .. } | NfsRequest::Create { name, .. } => {
                match self.files.iter().position(|f| &f.name == name) {
                    Some(i) => NfsReply {
                        proc,
                        status: NfsStatus::Ok,
                        attr: Some(self.attr_of(i)),
                        body: if proc == NfsProc::Lookup {
                            ReplyBody::Lookup {
                                fh: self.files[i].fh,
                                dir_attr: None,
                            }
                        } else {
                            ReplyBody::Create {
                                fh: Some(self.files[i].fh),
                            }
                        },
                    },
                    None => NfsReply::error(proc, NfsStatus::NoEnt),
                }
            }
            NfsRequest::Getattr { fh } | NfsRequest::Setattr { fh, .. } => match target(self, fh) {
                Some(attr) => NfsReply::ok(proc, attr),
                None => NfsReply::error(proc, NfsStatus::Stale),
            },
            NfsRequest::Access { fh, mask } => NfsReply {
                proc,
                status: NfsStatus::Ok,
                attr: target(self, fh),
                body: ReplyBody::Access { mask: *mask },
            },
            NfsRequest::Remove { .. } => NfsReply::error(proc, NfsStatus::NoEnt),
            other => panic!("{} is not a directory server's call: {other:?}", call.dst),
        };
        Packet::new(call.dst, call.src, encode_reply(hdr.xid, &reply))
    }

    fn serve_coord(&mut self, msg: CoordMsg) {
        let reply = match msg {
            CoordMsg::MapGet {
                file,
                first_block,
                count,
            } => {
                let width = if self.cfg.coded.is_some() { 4 } else { 2 };
                let sites: Vec<Vec<u32>> = (first_block..first_block + u64::from(count))
                    .map(|b| {
                        (0..width)
                            .map(|j| ((file + b + j) % u64::from(STORAGE_SITES)) as u32)
                            .collect()
                    })
                    .collect();
                CoordReply::MapFragment {
                    file,
                    first_block,
                    warming: vec![Vec::new(); sites.len()],
                    sites,
                }
            }
            CoordMsg::BeginIntent { op_id, .. } => {
                self.next_intent += 1;
                CoordReply::IntentAck {
                    op_id,
                    intent: self.next_intent,
                }
            }
            CoordMsg::MarkDirty { op_id, .. } => CoordReply::DirtyAck { op_id },
            // The dead site never comes back clean.
            CoordMsg::ProbeSite { site } => CoordReply::SiteProbe { site, clean: false },
            CoordMsg::CompleteIntent { .. } => return,
            other => panic!("the µproxy does not send {other:?}"),
        };
        self.queue.push_back(Delivery::Coord(reply));
    }

    // ---- the µproxy's outputs ----------------------------------------

    fn absorb(&mut self, outs: Vec<ProxyOut>) {
        for o in outs {
            match o {
                ProxyOut::Net(p) => {
                    assert!(p.verify(), "emitted packet with a bad checksum");
                    let mut bytes = self.hash.to_le_bytes().to_vec();
                    bytes.extend_from_slice(&p.dst.ip.to_be_bytes());
                    bytes.extend_from_slice(&p.dst.port.to_be_bytes());
                    bytes.extend_from_slice(&p.checksum.to_be_bytes());
                    bytes.extend_from_slice(&p.payload);
                    self.hash = fnv1a(&bytes);
                    if Some(p.dst) == self.down {
                        continue;
                    }
                    if self.cfg.dir_sites.contains(&p.dst) {
                        self.queue.push_back(Delivery::DirCall(p));
                    } else {
                        let reply = self.serve_data(&p);
                        self.queue.push_back(Delivery::Reply(reply));
                    }
                }
                ProxyOut::Client(p) => self.client_receive(p),
                ProxyOut::Coord(msg) => self.serve_coord(msg),
                ProxyOut::NeedDirTable | ProxyOut::Trace(_) => {}
            }
        }
    }

    fn client_receive(&mut self, p: Packet) {
        assert!(p.verify(), "reply with a bad checksum");
        assert_eq!(
            p.src, self.cfg.virtual_addr,
            "client sees the virtual server"
        );
        assert_eq!(p.dst, self.cfg.client_addr);
        let xid = peek_xid_type(&p.payload).expect("rpc header").0;
        let Some(req) = self.outstanding.remove(&xid) else {
            // Under a µproxy-owned xid: a leg of an op the µproxy forgot
            // or restarted, which no client ever waits for.
            assert!(
                xid >= OWN_XIDS || self.loose.contains(&xid),
                "second reply to xid {xid}"
            );
            return;
        };
        self.answered += 1;
        let (_, reply) = decode_reply(&p.payload, req.proc).expect("decodable reply");
        let Some(io) = req.io else {
            return;
        };
        assert_eq!(reply.status, NfsStatus::Ok, "xid {xid} {:?}", req.proc);
        let model = &mut self.files[io.file].model;
        match (&io.data, &reply.body) {
            (Some(data), ReplyBody::Write { count, .. }) => {
                assert!(req.shaken || *count == io.len, "xid {xid}: short write");
                let end = io.offset as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[io.offset as usize..end].copy_from_slice(data);
            }
            (None, ReplyBody::Read { data, .. }) => {
                let start = (io.offset as usize).min(model.len());
                let end = (io.offset as usize + io.len as usize).min(model.len());
                assert!(
                    req.shaken || data[..] == model[start..end],
                    "xid {xid}: READ [{}, +{}) of file {} returned {} bytes that differ from \
                     the model's {}",
                    io.offset,
                    io.len,
                    io.file,
                    data.len(),
                    end - start
                );
            }
            (_, body) => panic!("xid {xid}: unexpected body {body:?}"),
        }
    }

    // ---- the client --------------------------------------------------

    fn conflicts(&self, io: &Io) -> bool {
        self.outstanding
            .values()
            .filter_map(|r| r.io.as_ref())
            .filter(|o| o.file == io.file)
            .any(|o| {
                let overlap = o.offset < io.offset + u64::from(io.len)
                    && io.offset < o.offset + u64::from(o.len);
                o.exclusive || io.exclusive || (overlap && (o.data.is_some() || io.data.is_some()))
            })
    }

    fn send(&mut self, kind: Kind, req: NfsRequest, io: Option<Io>) {
        let xid = self.next_xid;
        self.next_xid += 1;
        let pkt = Packet::new(
            self.cfg.client_addr,
            self.cfg.virtual_addr,
            encode_call(xid, &cred(), &req),
        );
        self.outstanding.insert(
            xid,
            Req {
                pkt: pkt.clone(),
                proc: req.proc(),
                io,
                shaken: false,
            },
        );
        let outs = self.u.outbound(self.now, pkt);
        self.absorb(outs);
        // One retransmission per kind, while the first transmission's
        // replies are still on their way.
        if self.down.is_none() && self.retransmitted.insert(kind) {
            self.retransmit(xid);
            self.drain();
        }
    }

    fn retransmit(&mut self, xid: u32) {
        let Some(req) = self.outstanding.get(&xid) else {
            return;
        };
        let pkt = req.pkt.clone();
        self.loose.insert(xid);
        let outs = self.u.note_retransmit(self.now, xid);
        self.absorb(outs);
        let outs = self.u.outbound(self.now, pkt);
        self.absorb(outs);
    }

    /// Issues one random request (or none, when the draw conflicts with a
    /// request in flight). `bulk_ok` says which files may take bulk I/O.
    fn issue(&mut self, bulk_ok: impl Fn(Kind) -> bool) {
        let file = self.rng.gen_range(0..self.files.len());
        let fh = self.files[file].fh;
        let size = self.files[file].model.len() as u64;
        let draw = self.rng.gen_range(0..100u32);
        if draw < 20 {
            let req = match draw % 5 {
                0 => NfsRequest::Lookup {
                    dir: Fhandle::root(),
                    name: self.files[file].name.clone(),
                },
                1 => NfsRequest::Getattr { fh },
                2 => NfsRequest::Access { fh, mask: 0x3f },
                3 => NfsRequest::Create {
                    dir: Fhandle::root(),
                    name: self.files[file].name.clone(),
                    attr: Sattr3::default(),
                },
                _ => NfsRequest::Remove {
                    dir: Fhandle::root(),
                    name: format!("gone{draw}"),
                },
            };
            return self.send(Kind::Name, req, None);
        }
        if draw < 30 {
            let req = NfsRequest::Commit {
                fh,
                offset: 0,
                count: 0,
            };
            return self.send(Kind::Commit, req, None);
        }
        // Data: 1 byte to 32 KiB, never crossing a stripe unit except at
        // the threshold (a straddle) or on a coded file.
        let len = match self.rng.gen_range(0..4u32) {
            0 => self.rng.gen_range(1..2048u32),
            1 => 8 * 1024,
            2 => 32 * 1024,
            _ => self.rng.gen_range(2048..32 * 1024u32),
        };
        let coded = self.cfg.coded.is_some() && self.files[file].kind == Kind::Mapped;
        let (kind, offset) = if draw < 45 {
            (
                Kind::Small,
                self.rng.gen_range(0..UNIT - u64::from(len) + 1),
            )
        } else if draw < 55 && self.straddles && len >= 2 {
            // At least one byte on each side of the threshold.
            (Kind::Straddle, UNIT - u64::from(self.rng.gen_range(1..len)))
        } else {
            let unit = self.rng.gen_range(1..8u64);
            let within = self.rng.gen_range(0..UNIT);
            let offset = if coded {
                unit * UNIT + within
            } else {
                unit * UNIT + within.min(UNIT - u64::from(len))
            };
            (self.files[file].kind, offset)
        };
        if kind != Kind::Small && !bulk_ok(self.files[file].kind) {
            return;
        }
        let write = self.rng.gen_bool(0.5);
        let io = Io {
            file,
            offset,
            len,
            data: write.then(|| {
                let salt = self.rng.next_u32();
                (0..len)
                    .map(|i| (i.wrapping_mul(31).wrapping_add(salt) >> 3) as u8)
                    .collect()
            }),
            exclusive: !write && offset + u64::from(len) > size,
        };
        if self.conflicts(&io) {
            return;
        }
        let req = match &io.data {
            Some(data) => NfsRequest::Write {
                fh,
                offset,
                stable: StableHow::Unstable,
                data: data.clone(),
            },
            None => NfsRequest::Read {
                fh,
                offset,
                count: len,
            },
        };
        self.send(kind, req, Some(io));
    }

    // ---- the driver --------------------------------------------------

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
        self.steps += 1;
        if self.steps.is_multiple_of(50) {
            let outs = self.u.tick(self.now);
            self.absorb(outs);
        }
    }

    /// Map fragments are counted where the coordinator's answer is
    /// delivered, so `run` can compare against `soft_state_entries`.
    fn note_fragment(&mut self, r: &CoordReply) {
        if let CoordReply::MapFragment {
            file,
            first_block,
            sites,
            ..
        } = r
        {
            for i in 0..sites.len() as u64 {
                self.fragments.insert((*file, first_block + i));
            }
        }
    }

    /// Delivers one queued item, picked among the oldest four.
    fn deliver(&mut self) {
        let pick = self.rng.gen_range(0..self.queue.len().min(4));
        let outs = match self.queue.remove(pick).expect("in range") {
            Delivery::Reply(p) => self.u.inbound(self.now, p),
            Delivery::DirCall(call) => {
                let reply = self.serve_dir(&call);
                self.u.inbound(self.now, reply)
            }
            Delivery::Coord(r) => {
                self.note_fragment(&r);
                self.u.coord_reply(self.now, r)
            }
        };
        self.absorb(outs);
    }

    fn drain(&mut self) {
        while !self.queue.is_empty() {
            self.advance(SimDuration::from_millis(1));
            self.deliver();
        }
    }

    /// `n` steps, each a delivery or a new request.
    fn traffic(&mut self, n: u32, bulk_ok: impl Fn(Kind) -> bool + Copy) {
        for _ in 0..n {
            self.advance(SimDuration::from_millis(10));
            if !self.queue.is_empty() && self.rng.gen_bool(0.55) {
                self.deliver();
            } else {
                self.issue(bulk_ok);
            }
        }
    }

    /// The client's RPC timer: everything unanswered is retransmitted,
    /// until nothing is.
    fn time_out_until_answered(&mut self) {
        for _round in 0..8 {
            self.drain();
            if self.outstanding.is_empty() {
                return;
            }
            self.advance(SimDuration::from_secs(1));
            for xid in self.outstanding.keys().copied().collect::<Vec<_>>() {
                self.retransmit(xid);
            }
        }
        panic!(
            "requests never answered: {:?}",
            self.outstanding.keys().collect::<Vec<_>>()
        );
    }

    fn run(mut self) -> (u64, u64) {
        let all = |_| true;
        self.traffic(900, all);

        // State loss with requests in flight, parked and half assembled.
        assert!(self.outstanding.len() > 2, "lose_state must interrupt work");
        self.u.lose_state();
        assert_eq!(self.u.soft_state_entries(), 0);
        self.fragments.clear();
        for r in self.outstanding.values_mut() {
            r.shaken = true;
        }
        self.loose.extend(self.outstanding.keys().copied());
        self.drain();
        // The client revalidates what it had open — attributes, and one
        // read per mapped file, past anything written, which refetches the
        // file's map fragment — then its RPC timers fire.
        for i in 0..self.files.len() {
            let fh = self.files[i].fh;
            self.send(Kind::Name, NfsRequest::Getattr { fh }, None);
            self.drain();
            if self.files[i].kind == Kind::Mapped {
                let (offset, len) = (15 * UNIT, 1);
                let req = NfsRequest::Read {
                    fh,
                    offset,
                    count: len,
                };
                let io = Io {
                    file: i,
                    offset,
                    len,
                    data: None,
                    exclusive: false,
                };
                self.send(Kind::Mapped, req, Some(io));
                self.drain();
            }
        }
        self.time_out_until_answered();
        self.traffic(600, all);
        self.time_out_until_answered();

        // A storage site dies: reads fail over, writes degrade, coded
        // stripes reconstruct. Unmirrored files on it would simply hang.
        self.down = Some(self.cfg.storage_sites[DOWN as usize]);
        self.traffic(500, |k| k != Kind::Plain);
        self.time_out_until_answered();
        assert_eq!(self.u.suspected_sites(), vec![DOWN]);
        self.traffic(300, |k| k != Kind::Plain);
        self.time_out_until_answered();

        // Quiescence: write-backs flush, and nothing but caches is left.
        for _ in 0..10 {
            self.advance(SimDuration::from_secs(4));
            let outs = self.u.tick(self.now);
            self.absorb(outs);
            self.drain();
            if !self.u.has_dirty_attrs() {
                break;
            }
        }
        assert!(!self.u.has_dirty_attrs(), "write-backs never settled");
        assert!(self.outstanding.is_empty());
        assert_eq!(
            self.u.soft_state_entries(),
            self.u.audit_attr_cache().len() + self.fragments.len(),
            "soft state at quiescence is the attribute cache and the map fragments"
        );
        let (ha_failovers, ha_degraded, _, _) = self.u.ha_stats();
        assert!(
            ha_failovers > 0 && ha_degraded > 0,
            "the dead site was felt"
        );
        for kind in [
            Kind::Name,
            Kind::Small,
            Kind::Plain,
            Kind::Mirrored,
            Kind::Mapped,
            Kind::Commit,
        ] {
            assert!(
                self.retransmitted.contains(&kind),
                "{kind:?} never retransmitted"
            );
        }
        assert_eq!(self.retransmitted.contains(&Kind::Straddle), self.straddles);
        if self.cfg.coded.is_some() {
            let (reads, writes, degraded, rebuilt, _) = self.u.ec_stats();
            assert!(
                reads > 0 && writes > 0 && degraded > 0 && rebuilt > 0,
                "coded stripes were read, written and reconstructed"
            );
        }
        (self.hash, self.answered)
    }
}

fn check(coded: Option<(u32, u32)>, pinned: u64) {
    // With straddling requests: the invariants only.
    let (_, answered) = Stream::new(0x51ce, coded, true).run();
    assert!(answered > 500, "{answered} requests answered");
    // Without: the invariants and every emitted byte.
    let (hash, answered) = Stream::new(0x51ce, coded, false).run();
    assert!(answered > 500, "{answered} requests answered");
    assert_eq!(
        hash, pinned,
        "emitted (dst, checksum, payload) stream changed: now {hash:#018x}"
    );
}

/// Where the µproxy sends a seeded name-operation mix: an FNV-1a over the
/// `(proc, dst)` of every packet `outbound` emits, at `dirs` directory
/// sites under `policy`, with the balanced table or after `load_dir_table`
/// of a table that moves every logical slot (`skewed`). Handles name every
/// home site and one past the last; READDIR cookies name every site.
fn routing_hash(dirs: u32, policy: NamePolicy, skewed: bool) -> u64 {
    let mut cfg = ProxyConfig::test_default();
    cfg.dir_sites = (0..dirs)
        .map(|i| SockAddr::new(0x0a00_1000 + i, 2049))
        .collect();
    cfg.name_policy = policy;
    let mut u = Uproxy::new(cfg.clone());
    if skewed {
        let slots = (0..64u32).map(|i| (i / 3 + 1) % dirs).collect();
        u.load_dir_table(RoutingTable::from_slots(slots, 2));
    }
    let mut rng = Rng::seed_from_u64(0x7a61_0000 + u64::from(dirs));
    let mut hash = 0u64;
    let mut xid = 0u32;
    let mut send = |u: &mut Uproxy, req: &NfsRequest| {
        xid += 1;
        let call = encode_call(xid, &cred(), req);
        let pkt = Packet::new(cfg.client_addr, cfg.virtual_addr, call);
        let mut emitted = Vec::new();
        for o in u.outbound(SimTime::ZERO, pkt) {
            if let ProxyOut::Net(p) = o {
                let (_, call) = decode_call(&p.payload).expect("µproxy emits decodable calls");
                let mut bytes = hash.to_le_bytes().to_vec();
                bytes.extend_from_slice(&(call.proc() as u32).to_be_bytes());
                bytes.extend_from_slice(&p.dst.ip.to_be_bytes());
                bytes.extend_from_slice(&p.dst.port.to_be_bytes());
                hash = fnv1a(&bytes);
                emitted.push(p);
            }
        }
        (xid, emitted)
    };
    for i in 0..400u64 {
        let home = rng.gen_range(0..dirs + 1);
        let fh = Fhandle::new(1000 + i, home, 0, i, 0);
        let dir = Fhandle::new(
            2000 + i % 7,
            rng.gen_range(0..dirs + 1),
            FH_FLAG_DIR,
            i % 7,
            0,
        );
        let name = format!("n{}", rng.gen_range(0..50u32));
        let req = match rng.gen_range(0..13u32) {
            0 => NfsRequest::Lookup { dir, name },
            1 => NfsRequest::Create {
                dir,
                name,
                attr: Sattr3::default(),
            },
            2 => NfsRequest::Mkdir {
                dir,
                name,
                attr: Sattr3::default(),
            },
            3 => NfsRequest::Remove { dir, name },
            4 => NfsRequest::Rename {
                from_dir: dir,
                from_name: name,
                to_dir: Fhandle::new(3000, rng.gen_range(0..dirs), FH_FLAG_DIR, 5, 0),
                to_name: format!("m{i}"),
            },
            5 => NfsRequest::Link { fh, dir, name },
            6 => NfsRequest::Getattr { fh },
            7 => NfsRequest::Setattr {
                fh,
                attr: Sattr3::default(),
            },
            8 => NfsRequest::Access { fh, mask: 0x3f },
            9 | 10 => {
                let site = u64::from(rng.gen_range(0..dirs));
                let cookie = (site << 56) | rng.gen_range(0..3u64);
                if rng.gen_bool(0.5) {
                    NfsRequest::Readdir {
                        dir,
                        cookie,
                        cookieverf: 1,
                        count: 4096,
                    }
                } else {
                    NfsRequest::Readdirplus {
                        dir,
                        cookie,
                        cookieverf: 1,
                        dircount: 4096,
                        maxcount: 8192,
                    }
                }
            }
            _ => {
                // A small write makes the file's cached attributes dirty;
                // the commit after it pushes them back to the home site.
                let write = NfsRequest::Write {
                    fh,
                    offset: 0,
                    stable: StableHow::Unstable,
                    data: vec![7; 100],
                };
                let (wxid, sent) = send(&mut u, &write);
                let reply = NfsReply {
                    proc: NfsProc::Write,
                    status: NfsStatus::Ok,
                    attr: None,
                    body: ReplyBody::Write {
                        count: 100,
                        committed: StableHow::Unstable,
                        verf: 7,
                    },
                };
                let at = sent[0].dst;
                u.inbound(
                    SimTime::ZERO,
                    Packet::new(at, cfg.client_addr, encode_reply(wxid, &reply)),
                );
                NfsRequest::Commit {
                    fh,
                    offset: 0,
                    count: 0,
                }
            }
        };
        send(&mut u, &req);
    }
    hash
}

#[test]
fn name_routing_is_pinned() {
    let mkdir_switching = NamePolicy::MkdirSwitching {
        redirect_millis: 500,
    };
    let cases = [
        (1, mkdir_switching, false, 0x0bc3_735c_561c_9130),
        (2, mkdir_switching, false, 0xa482_659d_7244_56e6),
        (4, mkdir_switching, false, 0x97a3_7e66_ee93_158c),
        (1, NamePolicy::NameHashing, false, 0x0bc3_735c_561c_9130),
        (2, NamePolicy::NameHashing, false, 0xe672_1662_ed17_c6ac),
        (4, NamePolicy::NameHashing, false, 0xf89c_bda9_53bd_9b96),
        (1, mkdir_switching, true, 0x0bc3_735c_561c_9130),
        (2, mkdir_switching, true, 0xa482_659d_7244_56e6),
        (4, mkdir_switching, true, 0x97a3_7e66_ee93_158c),
        (1, NamePolicy::NameHashing, true, 0x0bc3_735c_561c_9130),
        (2, NamePolicy::NameHashing, true, 0x6fa9_d089_c4e6_d86e),
        (4, NamePolicy::NameHashing, true, 0xc3eb_b4d0_0894_efee),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter_map(|&(dirs, policy, skewed, pinned)| {
            let got = routing_hash(dirs, policy, skewed);
            (got != pinned)
                .then(|| format!("{dirs} sites, {policy:?}, skewed {skewed}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "routing changed:\n{}", moved.join("\n"));
}

#[test]
fn mirrored_and_mapped_stream_is_answered_and_pinned() {
    check(None, 0x395c_ba1d_52f7_4447);
}

#[test]
fn coded_stream_is_answered_and_pinned() {
    check(Some((4, 2)), 0x06c9_0197_458c_51ac);
}
