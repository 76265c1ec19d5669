//! Layer probes: each public function a run spends its time in, called in
//! isolation on inputs shaped like the workload, batched until a batch
//! lasts long enough to time, best of five batch means.
//!
//! A probe's number is host nanoseconds per call (or per KiB) of that
//! one function with warm caches and nothing else running; multiplied by
//! the calls counted in the run it gives that layer's share of `host_s`
//! in the ledger. Shares are estimates from outside and need not sum to
//! one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use slice_dirsvc::{DirAction, DirServer, DirServerConfig};
use slice_ec::Codec;
use slice_hashes::checksum::{incremental_update16, incremental_update32};
use slice_hashes::{inet_checksum, name_fingerprint};
use slice_nfsproto::rpc::decode_call_header;
use slice_nfsproto::{
    decode_call, decode_reply, encode_call, encode_reply, AuthUnix, ByteBuf, DirEntry,
    DirEntryPlus, Fattr3, Fhandle, FileType, NfsProc, NfsReply, NfsRequest, NfsStatus, NfsTime,
    Packet, ReplyBody, Sattr3, SetTime, SockAddr, StableHow, FH_FLAG_DIR, FH_FLAG_MIRRORED,
    FH_FLAG_SYMLINK,
};
use slice_sim::{
    Actor, Ctx, DiskArray, DiskParams, Engine, LruCache, NetConfig, NodeId, Rng, SimDuration,
    SimTime, START_TAG,
};
use slice_smallfile::{SfAction, SmallFileConfig, SmallFileServer};
use slice_storage::coord::{CoordAction, CoordMsg, CoordReply, IntentKind};
use slice_storage::{Coordinator, ObjectStore, StorageNode, StorageNodeConfig};
use slice_uproxy::{ProxyConfig, ProxyNamePolicy, ProxyOut, Uproxy};
use slice_workloads::SFS97_MIX;
use slice_xdr::{XdrDecoder, XdrEncoder};

use crate::scenario::Kind;
use crate::spans::Recorder;

/// How long one timed batch must last. Five batches are timed per probe
/// after a calibration pass of about the same length.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Minimum duration of a timed batch.
    pub batch: Duration,
}

const BATCHES: usize = 5;

/// Best-of-five mean nanoseconds per call of `f`, batched to the budget.
fn per_call<T>(budget: Budget, mut f: impl FnMut() -> T) -> f64 {
    let mut iters = 4u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let took = t.elapsed();
        if took >= budget.batch || iters >= 1 << 30 {
            break;
        }
        // Aim straight at the budget once the batch is long enough for
        // the estimate to mean something.
        iters = if took.as_micros() < 200 {
            iters * 8
        } else {
            (iters as f64 * budget.batch.as_secs_f64() / took.as_secs_f64() * 1.1) as u64 + 1
        };
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Best-of-five mean nanoseconds per call where one `round` does its own
/// timing around `calls` calls (untimed preparation in between) and
/// returns `(timed, calls)`; rounds repeat until a batch is long enough.
fn per_round(budget: Budget, mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut batch = || {
        let (mut timed, mut calls) = (Duration::ZERO, 0u64);
        while timed < budget.batch {
            let (t, c) = round();
            assert!(c > 0, "a probe round made no calls");
            timed += t;
            calls += c;
        }
        timed.as_nanos() as f64 / calls as f64
    };
    batch(); // warm-up
    (0..BATCHES).map(|_| batch()).fold(f64::INFINITY, f64::min)
}

/// One client operation of a workload with the reply a healthy server
/// gives it.
#[derive(Debug, Clone)]
pub struct Op {
    /// The call.
    pub call: NfsRequest,
    /// Its reply.
    pub reply: NfsReply,
}

/// Inputs shaped like one workload.
pub struct Mix {
    /// The operation sequence (untar's seven-op create sequence, 32 KiB
    /// WRITE/READ pairs, or 100 ops in `SFS97_MIX` proportions).
    pub ops: Vec<Op>,
    /// Payload size of the workload's data operations.
    pub data_len: usize,
    /// Directory servers the workload's ensemble has.
    pub dir_sites: u32,
    /// Storage nodes the workload's ensemble has.
    pub storage_sites: u32,
    /// Whether storage keeps real bytes.
    pub retain_data: bool,
}

fn attr_of(file: u64, ftype: FileType, size: u64) -> Fattr3 {
    let mut a = Fattr3::new(ftype, file, 0o644, NfsTime::default());
    a.size = size;
    a
}

fn file_fh(file: u64, flags: u8) -> Fhandle {
    Fhandle::new(file, 0, flags, file.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0)
}

fn ok(call: NfsRequest, attr: Fattr3, body: ReplyBody) -> Op {
    let reply = NfsReply {
        proc: call.proc(),
        status: NfsStatus::Ok,
        attr: Some(attr),
        body,
    };
    Op { call, reply }
}

/// Builds the operation mix for `kind` from `seed`.
pub fn mix_for(kind: Kind, seed: u64) -> Mix {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3a1c);
    let base = 10_000 + rng.gen_range(0..80_000u64);
    let mut ops = Vec::new();
    match kind {
        Kind::UntarMeta => {
            // What `slice_workloads::Untar` issues: a mkdir, then per file
            // lookup, access, create, getattr, lookup, setattr, setattr.
            let mut dir = Fhandle::root();
            for f in 0..96u64 {
                if f % 12 == 0 {
                    let id = 500_000 + f;
                    let fh = file_fh(id, FH_FLAG_DIR);
                    ops.push(ok(
                        NfsRequest::Mkdir {
                            dir,
                            name: format!("p{base}d{f}"),
                            attr: Sattr3::default(),
                        },
                        attr_of(id, FileType::Directory, 512),
                        ReplyBody::Create { fh: Some(fh) },
                    ));
                    dir = fh;
                    continue;
                }
                let id = 600_000 + f;
                let fh = file_fh(id, 0);
                let name = format!("p{base}f{f}.c");
                let attr = attr_of(id, FileType::Regular, 0);
                let dir_attr = attr_of(dir.file_id(), FileType::Directory, 512);
                let lookup = NfsRequest::Lookup {
                    dir,
                    name: name.clone(),
                };
                ops.push(Op {
                    call: lookup.clone(),
                    reply: NfsReply::error(NfsProc::Lookup, NfsStatus::NoEnt),
                });
                ops.push(ok(
                    NfsRequest::Access {
                        fh: dir,
                        mask: 0x3f,
                    },
                    dir_attr,
                    ReplyBody::Access { mask: 0x3f },
                ));
                ops.push(ok(
                    NfsRequest::Create {
                        dir,
                        name,
                        attr: Sattr3 {
                            mode: Some(0o644),
                            ..Default::default()
                        },
                    },
                    attr,
                    ReplyBody::Create { fh: Some(fh) },
                ));
                ops.push(ok(NfsRequest::Getattr { fh }, attr, ReplyBody::None));
                ops.push(ok(
                    lookup,
                    attr,
                    ReplyBody::Lookup {
                        fh,
                        dir_attr: Some(dir_attr),
                    },
                ));
                ops.push(ok(
                    NfsRequest::Setattr {
                        fh,
                        attr: Sattr3 {
                            mtime: SetTime::ServerTime,
                            ..Default::default()
                        },
                    },
                    attr,
                    ReplyBody::None,
                ));
                ops.push(ok(
                    NfsRequest::Setattr {
                        fh,
                        attr: Sattr3 {
                            mode: Some(0o644),
                            atime: SetTime::ServerTime,
                            ..Default::default()
                        },
                    },
                    attr,
                    ReplyBody::None,
                ));
            }
            Mix {
                ops,
                data_len: 8192,
                dir_sites: 4,
                storage_sites: 8,
                retain_data: false,
            }
        }
        Kind::BulkMirror | Kind::RepairMix => {
            // 32 KiB mirrored WRITEs then READs above the 64 KiB threshold.
            const LEN: usize = 32 * 1024;
            let id = 700_000 + base;
            let fh = file_fh(id, FH_FLAG_MIRRORED);
            let attr = attr_of(id, FileType::Regular, 64 << 20);
            for i in 0..32u64 {
                ops.push(ok(
                    NfsRequest::Write {
                        fh,
                        offset: (2 + i) * LEN as u64,
                        stable: StableHow::Unstable,
                        data: vec![0x5a; LEN],
                    },
                    attr,
                    ReplyBody::Write {
                        count: LEN as u32,
                        committed: StableHow::Unstable,
                        verf: 1,
                    },
                ));
            }
            for i in 0..32u64 {
                ops.push(ok(
                    NfsRequest::Read {
                        fh,
                        offset: (2 + i) * LEN as u64,
                        count: LEN as u32,
                    },
                    attr,
                    ReplyBody::Read {
                        data: vec![0x5a; LEN],
                        eof: false,
                    },
                ));
            }
            let repair = kind == Kind::RepairMix;
            Mix {
                ops,
                data_len: LEN,
                dir_sites: 1,
                storage_sites: if repair { 4 } else { 8 },
                retain_data: repair,
            }
        }
        Kind::SfsMix => {
            // 100 operations in the published SFS97 proportions, on small
            // files (8 KiB data ops below the threshold), shuffled.
            const LEN: usize = 8192;
            let dir = file_fh(800_000, FH_FLAG_DIR);
            let dir_attr = attr_of(800_000, FileType::Directory, 4096);
            let entries = |n: u64| -> Vec<DirEntry> {
                (0..n)
                    .map(|i| DirEntry {
                        fileid: 810_000 + i,
                        name: format!("sfs{base}f{i}"),
                        cookie: i + 1,
                    })
                    .collect()
            };
            for &(proc, weight) in SFS97_MIX {
                for n in 0..u64::from(weight) {
                    let id = 810_000 + (n * 7 + proc as u64) % 64;
                    let fh = file_fh(id, 0);
                    let attr = attr_of(id, FileType::Regular, 48 * 1024);
                    let block = (n % 6) * LEN as u64;
                    ops.push(match proc {
                        NfsProc::Lookup => Op {
                            call: NfsRequest::Lookup {
                                dir,
                                name: format!("sfs{base}probe{n}"),
                            },
                            reply: NfsReply::error(NfsProc::Lookup, NfsStatus::NoEnt),
                        },
                        NfsProc::Read => ok(
                            NfsRequest::Read {
                                fh,
                                offset: block,
                                count: LEN as u32,
                            },
                            attr,
                            ReplyBody::Read {
                                data: vec![0x5a; LEN],
                                eof: false,
                            },
                        ),
                        NfsProc::Write => ok(
                            NfsRequest::Write {
                                fh,
                                offset: block,
                                stable: StableHow::Unstable,
                                data: vec![0x5a; LEN],
                            },
                            attr,
                            ReplyBody::Write {
                                count: LEN as u32,
                                committed: StableHow::Unstable,
                                verf: 1,
                            },
                        ),
                        NfsProc::Getattr => ok(NfsRequest::Getattr { fh }, attr, ReplyBody::None),
                        NfsProc::Setattr => ok(
                            NfsRequest::Setattr {
                                fh,
                                attr: Sattr3 {
                                    mode: Some(0o644),
                                    ..Default::default()
                                },
                            },
                            attr,
                            ReplyBody::None,
                        ),
                        NfsProc::Access => ok(
                            NfsRequest::Access { fh, mask: 0x3f },
                            attr,
                            ReplyBody::Access { mask: 0x3f },
                        ),
                        NfsProc::Readlink => {
                            let l = file_fh(820_000 + n, FH_FLAG_SYMLINK);
                            ok(
                                NfsRequest::Readlink { fh: l },
                                attr_of(820_000 + n, FileType::Symlink, 16),
                                ReplyBody::Readlink {
                                    target: "target/elsewhere".into(),
                                },
                            )
                        }
                        NfsProc::Readdir => ok(
                            NfsRequest::Readdir {
                                dir,
                                cookie: 0,
                                cookieverf: 0,
                                count: 4096,
                            },
                            dir_attr,
                            ReplyBody::Readdir {
                                entries: entries(16),
                                cookieverf: 1,
                                eof: true,
                            },
                        ),
                        NfsProc::Readdirplus => ok(
                            NfsRequest::Readdirplus {
                                dir,
                                cookie: 0,
                                cookieverf: 0,
                                dircount: 1024,
                                maxcount: 4096,
                            },
                            dir_attr,
                            ReplyBody::Readdirplus {
                                entries: entries(16)
                                    .into_iter()
                                    .map(|entry| DirEntryPlus {
                                        attr: Some(attr_of(
                                            entry.fileid,
                                            FileType::Regular,
                                            48 * 1024,
                                        )),
                                        fh: Some(file_fh(entry.fileid, 0)),
                                        entry,
                                    })
                                    .collect(),
                                cookieverf: 1,
                                eof: true,
                            },
                        ),
                        NfsProc::Fsstat => ok(
                            NfsRequest::Fsstat {
                                fh: Fhandle::root(),
                            },
                            dir_attr,
                            ReplyBody::Fsstat {
                                tbytes: 1 << 40,
                                fbytes: 1 << 39,
                                abytes: 1 << 39,
                                tfiles: 1 << 20,
                                ffiles: 1 << 19,
                            },
                        ),
                        NfsProc::Commit => ok(
                            NfsRequest::Commit {
                                fh,
                                offset: 0,
                                count: 0,
                            },
                            attr,
                            ReplyBody::Commit { verf: 1 },
                        ),
                        NfsProc::Create => {
                            let nid = 830_000 + n;
                            ok(
                                NfsRequest::Create {
                                    dir,
                                    name: format!("sfs{base}dyn{n}"),
                                    attr: Sattr3 {
                                        mode: Some(0o644),
                                        ..Default::default()
                                    },
                                },
                                attr_of(nid, FileType::Regular, 0),
                                ReplyBody::Create {
                                    fh: Some(file_fh(nid, 0)),
                                },
                            )
                        }
                        NfsProc::Remove => ok(
                            NfsRequest::Remove {
                                dir,
                                name: format!("sfs{base}dyn{n}"),
                            },
                            dir_attr,
                            ReplyBody::None,
                        ),
                        other => unreachable!("{other:?} is not in SFS97_MIX"),
                    });
                }
            }
            // Fisher-Yates with the seeded generator.
            for i in (1..ops.len()).rev() {
                ops.swap(i, rng.gen_range(0..=i));
            }
            Mix {
                ops,
                data_len: LEN,
                dir_sites: 1,
                storage_sites: 4,
                retain_data: false,
            }
        }
    }
}

/// Results of the probes, keyed by per-layer metric name.
pub type Results = BTreeMap<&'static str, f64>;

struct Probe<'a> {
    rec: &'a mut Recorder,
    out: Results,
}

impl Probe<'_> {
    /// Runs the probes of one layer inside a `probe.<layer>` span.
    fn layer(&mut self, layer: &str, f: impl FnOnce(&mut Results)) {
        let id = self.rec.begin(&format!("probe.{layer}"));
        f(&mut self.out);
        self.rec.end(id);
    }
}

const CLIENT: SockAddr = SockAddr::new(0x0a00_0001, 700);
const VIRTUAL: SockAddr = SockAddr::new(0x0a00_00ff, 2049);

fn sites(base: u32, n: u32) -> Vec<SockAddr> {
    (0..n).map(|i| SockAddr::new(base + i, 2049)).collect()
}

fn at(i: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(160 * i)
}

/// Runs every standalone layer probe for one workload.
pub fn run_all(kind: Kind, seed: u64, budget: Budget, rec: &mut Recorder) -> Results {
    let mix = mix_for(kind, seed);
    let cred = AuthUnix::default();
    let calls: Vec<Vec<u8>> = mix
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| encode_call(i as u32 + 1, &cred, &op.call))
        .collect();
    let replies: Vec<Vec<u8>> = mix
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| encode_reply(i as u32 + 1, &op.reply))
        .collect();
    let n_ops = mix.ops.len() as f64;
    let mut p = Probe {
        rec,
        out: Results::new(),
    };

    p.layer("hashes", |out| {
        let bytes: usize = calls.iter().chain(&replies).map(Vec::len).sum();
        let ns = per_call(budget, || {
            calls
                .iter()
                .chain(&replies)
                .fold(0u16, |acc, b| acc ^ inet_checksum(black_box(b)))
        });
        out.insert(
            "hashes.inet_checksum_ns_per_kb",
            ns / (bytes as f64 / 1024.0),
        );
        // One address-and-port patch, as `Packet::rewrite_dst` does it.
        out.insert(
            "hashes.incremental_update_ns",
            per_call(budget, || {
                let c = incremental_update32(black_box(0x1234), black_box(VIRTUAL.ip), 0x0a00_3001);
                incremental_update16(c, black_box(2049), black_box(3049))
            }),
        );
        let names: Vec<(Fhandle, &str)> = mix
            .ops
            .iter()
            .filter_map(|op| match &op.call {
                NfsRequest::Lookup { dir, name }
                | NfsRequest::Create { dir, name, .. }
                | NfsRequest::Mkdir { dir, name, .. }
                | NfsRequest::Remove { dir, name } => Some((*dir, name.as_str())),
                _ => None,
            })
            .collect();
        let fallback = [(Fhandle::root(), "b12345c0")];
        let names: &[(Fhandle, &str)] = if names.is_empty() { &fallback } else { &names };
        let ns = per_call(budget, || {
            names.iter().fold(0u64, |acc, (fh, name)| {
                acc ^ name_fingerprint(black_box(&fh.0), black_box(name.as_bytes()))
            })
        });
        out.insert("hashes.name_fingerprint_ns", ns / names.len() as f64);
    });

    p.layer("xdr", |out| {
        // The field shapes of one call: header words, a handle-sized fixed
        // opaque, a name, and the data payload of the workload's size.
        let data = vec![
            0x5au8;
            if kind == Kind::UntarMeta {
                0
            } else {
                mix.data_len
            }
        ];
        let mut encoded = 0usize;
        let ns = per_call(budget, || {
            let mut e = XdrEncoder::with_capacity(data.len() + 128);
            for w in 0..6u32 {
                e.put_u32(black_box(w));
            }
            e.put_u64(black_box(1 << 20));
            e.put_opaque_fixed(black_box(&[7u8; 32]));
            e.put_string(black_box("p1234567f4242.c"));
            e.put_opaque(black_box(&data));
            let bytes = e.into_bytes();
            encoded = bytes.len();
            let mut d = XdrDecoder::new(&bytes);
            let mut acc = 0u64;
            for _ in 0..6 {
                acc += u64::from(d.get_u32().expect("u32"));
            }
            acc += d.get_u64().expect("u64");
            acc += d.get_opaque_fixed(32).expect("fixed").len() as u64;
            acc += d.get_string().expect("string").len() as u64;
            acc + d.get_opaque().expect("opaque").len() as u64
        });
        out.insert("xdr.roundtrip_ns_per_kb", ns / (encoded as f64 / 1024.0));
    });

    p.layer("nfsproto", |out| {
        let ns = per_call(budget, || {
            mix.ops.iter().enumerate().fold(0usize, |acc, (i, op)| {
                acc + encode_call(i as u32, black_box(&cred), black_box(&op.call)).len()
            })
        });
        out.insert("nfsproto.encode_call_ns", ns / n_ops);
        let ns = per_call(budget, || {
            calls.iter().fold(0u32, |acc, b| {
                acc ^ decode_call(black_box(b)).expect("own encoding").0.xid
            })
        });
        out.insert("nfsproto.decode_call_ns", ns / n_ops);
        let ns = per_call(budget, || {
            mix.ops.iter().enumerate().fold(0usize, |acc, (i, op)| {
                acc + encode_reply(i as u32, black_box(&op.reply)).len()
            })
        });
        out.insert("nfsproto.encode_reply_ns", ns / n_ops);
        let ns = per_call(budget, || {
            replies.iter().zip(&mix.ops).fold(0u32, |acc, (b, op)| {
                acc ^ decode_reply(black_box(b), op.call.proc())
                    .expect("own encoding")
                    .0
            })
        });
        out.insert("nfsproto.decode_reply_ns", ns / n_ops);
        // Building a packet checksums the whole payload; the shared
        // buffers make the clone itself a reference-count bump.
        let bufs: Vec<ByteBuf> = calls
            .iter()
            .chain(&replies)
            .map(|b| ByteBuf::from_vec(b.clone()))
            .collect();
        let ns = per_call(budget, || {
            bufs.iter().fold(0u16, |acc, b| {
                acc ^ Packet::new(CLIENT, VIRTUAL, black_box(b.clone())).checksum
            })
        });
        out.insert("nfsproto.packet_new_ns", ns / bufs.len() as f64);
        let pkts: Vec<Packet> = bufs
            .iter()
            .map(|b| Packet::new(CLIENT, VIRTUAL, b.clone()))
            .collect();
        let ns = per_call(budget, || {
            pkts.iter().fold(0u16, |acc, pkt| {
                let mut p = black_box(pkt).clone();
                p.rewrite_dst(SockAddr::new(0x0a00_3003, 2049));
                p.rewrite_src(SockAddr::new(0x0a00_0007, 701));
                acc ^ p.checksum
            })
        });
        out.insert("nfsproto.packet_rewrite_ns", ns / pkts.len() as f64);
    });

    p.layer("uproxy", |out| uproxy_probes(&mix, budget, out));
    p.layer("dirsvc", |out| {
        out.insert("dirsvc.handle_nfs_ns", dirsvc_probe(kind, seed, budget));
    });
    p.layer("smallfile", |out| {
        out.insert("smallfile.handle_nfs_ns", smallfile_probe(&mix, budget));
    });
    p.layer("storage", |out| storage_probes(&mix, budget, out));
    p.layer("ec", |out| ec_probes(budget, out));
    p.layer("sim", |out| sim_probes(&mix, budget, out));
    p.out
}

/// Replays the mix through a real µproxy: every request goes out, every
/// packet the µproxy forwards is answered from its destination, every
/// answer comes back in. Outbound and inbound calls are timed in
/// separate loops; building packets and replies is not timed.
struct Replay<'a> {
    mix: &'a Mix,
    cfg: ProxyConfig,
    proxy: Uproxy,
    cred: AuthUnix,
    xid: u32,
    tick: u64,
}

impl<'a> Replay<'a> {
    fn new(mix: &'a Mix, measure_phases: bool) -> Self {
        let cfg = ProxyConfig {
            virtual_addr: VIRTUAL,
            client_addr: CLIENT,
            dir_sites: sites(0x0a00_1000, mix.dir_sites),
            sf_sites: sites(0x0a00_2000, 2),
            storage_sites: sites(0x0a00_3000, mix.storage_sites),
            name_policy: ProxyNamePolicy::MkdirSwitching {
                redirect_millis: 250,
            },
            measure_phases,
            ..ProxyConfig::test_default()
        };
        Replay {
            mix,
            proxy: Uproxy::new(cfg.clone()),
            cfg,
            cred: AuthUnix::default(),
            xid: 1,
            tick: 0,
        }
    }

    /// One pass over the mix: `((outbound time, calls), (inbound time,
    /// calls))`.
    fn round(&mut self) -> ((Duration, u64), (Duration, u64)) {
        // Soft state is bounded per op, but a fresh µproxy per round keeps
        // every round identical.
        self.proxy = Uproxy::new(self.cfg.clone());
        let first_xid = self.xid;
        let requests: Vec<Packet> = self
            .mix
            .ops
            .iter()
            .map(|op| {
                let xid = self.xid;
                self.xid += 1;
                Packet::new(CLIENT, VIRTUAL, encode_call(xid, &self.cred, &op.call))
            })
            .collect();
        let now = at(self.tick);
        self.tick += 1;
        let n_out = requests.len() as u64;
        let t = Instant::now();
        let routed: Vec<Vec<ProxyOut>> = requests
            .into_iter()
            .map(|pkt| self.proxy.outbound(now, pkt))
            .collect();
        let out_time = t.elapsed();

        // Answer every forwarded packet from the site it was sent to.
        let mut answers = Vec::new();
        for outs in routed {
            for o in outs {
                let ProxyOut::Net(p) = o else { continue };
                let Ok(hdr) = decode_call_header(&mut XdrDecoder::new(&p.payload)) else {
                    continue;
                };
                let idx = hdr.xid.wrapping_sub(first_xid) as usize;
                let reply = match self.mix.ops.get(idx) {
                    Some(op) if op.call.proc() as u32 == hdr.proc => op.reply.clone(),
                    // A packet the µproxy initiated itself (attribute
                    // write-back, the small-file half of a split write).
                    _ => match NfsProc::from_u32(hdr.proc) {
                        Ok(proc) => NfsReply::ok(proc, attr_of(1, FileType::Regular, 0)),
                        Err(_) => continue,
                    },
                };
                answers.push(Packet::new(p.dst, CLIENT, encode_reply(hdr.xid, &reply)));
            }
        }
        let n_in = answers.len() as u64;
        let t = Instant::now();
        let delivered: usize = answers
            .into_iter()
            .map(|pkt| self.proxy.inbound(now, pkt).len())
            .sum();
        let in_time = t.elapsed();
        black_box(delivered);
        ((out_time, n_out), (in_time, n_in))
    }
}

fn uproxy_probes(mix: &Mix, budget: Budget, out: &mut Results) {
    let mut replay = Replay::new(mix, false);
    out.insert("uproxy.outbound_ns", per_round(budget, || replay.round().0));
    out.insert("uproxy.inbound_ns", per_round(budget, || replay.round().1));
    // Table 3: the same replay with the µproxy's own phase timers on.
    let both = |r: ((Duration, u64), (Duration, u64))| (r.0 .0 + r.1 .0, r.0 .1 + r.1 .1);
    let plain = per_round(budget, || both(replay.round()));
    let mut timed = Replay::new(mix, true);
    let mut phases = slice_uproxy::PhaseStats::default();
    let measured = per_round(budget, || {
        let r = both(timed.round());
        phases.absorb(&timed.proxy.phase_stats());
        r
    });
    let per_packet = |ns: u64| ns as f64 / phases.packets.max(1) as f64;
    out.insert("uproxy.phase.intercept_ns", per_packet(phases.intercept_ns));
    out.insert("uproxy.phase.decode_ns", per_packet(phases.decode_ns));
    out.insert("uproxy.phase.rewrite_ns", per_packet(phases.rewrite_ns));
    out.insert("uproxy.phase.soft_ns", per_packet(phases.soft_ns));
    out.insert("uproxy.phase.overhead_frac", measured / plain - 1.0);
}

/// Executes `req` on a single-site directory server and returns the reply.
fn dir_call(srv: &mut DirServer, i: u64, req: &NfsRequest) -> NfsReply {
    srv.handle_nfs(at(i), i, req)
        .into_iter()
        .find_map(|a| match a {
            DirAction::Reply { reply, .. } => Some(reply),
            _ => None,
        })
        .expect("a single-site directory server answers at once")
}

fn created_fh(reply: &NfsReply) -> Fhandle {
    match &reply.body {
        ReplyBody::Create { fh: Some(fh) } => *fh,
        other => panic!("create did not mint a handle: {:?} {other:?}", reply.status),
    }
}

/// Records the workload's directory-server request sequence by running
/// it once against a scratch server (handles come from its replies):
/// `(set-up requests, measured requests)`.
fn dir_script(kind: Kind, seed: u64) -> (Vec<NfsRequest>, Vec<NfsRequest>) {
    let mut srv = DirServer::new(DirServerConfig::default());
    let mut n = 0u64;
    let mut run = |log: &mut Vec<NfsRequest>, req: NfsRequest| -> NfsReply {
        n += 1;
        let reply = dir_call(&mut srv, n, &req);
        log.push(req);
        reply
    };
    let base = 10_000 + Rng::seed_from_u64(seed ^ 0xd125).gen_range(0..80_000u64);
    let root = Fhandle::root();
    let mode = |m: u32| Sattr3 {
        mode: Some(m),
        ..Default::default()
    };
    let (mut setup, mut measured) = (Vec::new(), Vec::new());
    match kind {
        Kind::UntarMeta => {
            let mut cwd = root;
            for f in 0..480u64 {
                if f % 12 == 0 {
                    let r = run(
                        &mut measured,
                        NfsRequest::Mkdir {
                            dir: cwd,
                            name: format!("p{base}d{f}"),
                            attr: Sattr3::default(),
                        },
                    );
                    cwd = created_fh(&r);
                    continue;
                }
                let name = format!("p{base}f{f}.c");
                let lookup = NfsRequest::Lookup {
                    dir: cwd,
                    name: name.clone(),
                };
                run(&mut measured, lookup.clone());
                run(
                    &mut measured,
                    NfsRequest::Access {
                        fh: cwd,
                        mask: 0x3f,
                    },
                );
                let r = run(
                    &mut measured,
                    NfsRequest::Create {
                        dir: cwd,
                        name,
                        attr: mode(0o644),
                    },
                );
                let fh = created_fh(&r);
                run(&mut measured, NfsRequest::Getattr { fh });
                run(&mut measured, lookup);
                run(
                    &mut measured,
                    NfsRequest::Setattr {
                        fh,
                        attr: Sattr3 {
                            mtime: SetTime::ServerTime,
                            ..Default::default()
                        },
                    },
                );
                run(
                    &mut measured,
                    NfsRequest::Setattr {
                        fh,
                        attr: Sattr3 {
                            atime: SetTime::ServerTime,
                            ..mode(0o644)
                        },
                    },
                );
            }
        }
        Kind::BulkMirror | Kind::RepairMix => {
            // What bulk I/O asks of the directory server: one create per
            // file, then attribute write-backs and refreshes.
            let files: Vec<Fhandle> = (0..8)
                .map(|i| {
                    created_fh(&run(
                        &mut setup,
                        NfsRequest::Create {
                            dir: root,
                            name: format!("b{base}c{i}"),
                            attr: mode(0o644 | slice_workloads::MODE_MIRRORED),
                        },
                    ))
                })
                .collect();
            for round in 0..16u64 {
                for &fh in &files {
                    run(
                        &mut measured,
                        NfsRequest::Setattr {
                            fh,
                            attr: Sattr3 {
                                size: Some((round + 1) << 20),
                                mtime: SetTime::ServerTime,
                                ..Default::default()
                            },
                        },
                    );
                    run(&mut measured, NfsRequest::Getattr { fh });
                }
            }
        }
        Kind::SfsMix => {
            let dirs: Vec<Fhandle> = (0..4)
                .map(|i| {
                    created_fh(&run(
                        &mut setup,
                        NfsRequest::Mkdir {
                            dir: root,
                            name: format!("sfs{base}d{i}"),
                            attr: Sattr3::default(),
                        },
                    ))
                })
                .collect();
            let files: Vec<Fhandle> = (0..64usize)
                .map(|i| {
                    created_fh(&run(
                        &mut setup,
                        NfsRequest::Create {
                            dir: dirs[i % 4],
                            name: format!("sfs{base}f{i}"),
                            attr: mode(0o644),
                        },
                    ))
                })
                .collect();
            let links: Vec<Fhandle> = (0..4usize)
                .map(|i| {
                    created_fh(&run(
                        &mut setup,
                        NfsRequest::Symlink {
                            dir: dirs[i],
                            name: format!("sfs{base}l{i}"),
                            target: "target/elsewhere".into(),
                            attr: Sattr3::default(),
                        },
                    ))
                })
                .collect();
            // The directory-server share of SFS97_MIX (data ops go to the
            // small-file servers), four times over.
            let mut dynamic = Vec::new();
            let mut k = 0usize;
            for _ in 0..4 {
                for &(proc, weight) in SFS97_MIX {
                    for _ in 0..weight {
                        k += 1;
                        let (fh, dir) = (files[k * 7 % 64], dirs[k % 4]);
                        let req = match proc {
                            NfsProc::Lookup => NfsRequest::Lookup {
                                dir,
                                name: format!("sfs{base}probe{}", k % 1000),
                            },
                            NfsProc::Getattr => NfsRequest::Getattr { fh },
                            NfsProc::Setattr => NfsRequest::Setattr {
                                fh,
                                attr: mode(0o644),
                            },
                            NfsProc::Access => NfsRequest::Access { fh, mask: 0x3f },
                            NfsProc::Readlink => NfsRequest::Readlink { fh: links[k % 4] },
                            NfsProc::Readdir => NfsRequest::Readdir {
                                dir,
                                cookie: 0,
                                cookieverf: 0,
                                count: 4096,
                            },
                            NfsProc::Readdirplus => NfsRequest::Readdirplus {
                                dir,
                                cookie: 0,
                                cookieverf: 0,
                                dircount: 1024,
                                maxcount: 4096,
                            },
                            NfsProc::Fsstat => NfsRequest::Fsstat { fh: root },
                            NfsProc::Create => {
                                let name = format!("sfs{base}dyn{k}");
                                dynamic.push((dir, name.clone()));
                                NfsRequest::Create {
                                    dir,
                                    name,
                                    attr: mode(0o644),
                                }
                            }
                            NfsProc::Remove => match dynamic.pop() {
                                Some((dir, name)) => NfsRequest::Remove { dir, name },
                                None => NfsRequest::Getattr { fh },
                            },
                            _ => continue, // READ/WRITE/COMMIT: not this server's
                        };
                        run(&mut measured, req);
                    }
                }
            }
        }
    }
    (setup, measured)
}

/// Replays the recorded sequence on a fresh server each round; only the
/// measured requests are timed.
fn dirsvc_probe(kind: Kind, seed: u64, budget: Budget) -> f64 {
    let (setup, measured) = dir_script(kind, seed);
    per_round(budget, || {
        let mut srv = DirServer::new(DirServerConfig::default());
        let mut n = 0u64;
        for req in &setup {
            n += 1;
            black_box(srv.handle_nfs(at(n), n, req));
        }
        let t = Instant::now();
        let mut actions = 0usize;
        for req in &measured {
            n += 1;
            actions += srv.handle_nfs(at(n), n, req).len();
        }
        let took = t.elapsed();
        black_box(actions);
        (took, measured.len() as u64)
    })
}

/// Small-file reads and writes of the workload's data size against one
/// server: every file is written once (set-up), then the mix's data ops
/// are timed. Backing I/O the server asks for completes between calls.
fn smallfile_probe(mix: &Mix, budget: Budget) -> f64 {
    let len = mix.data_len.min(slice_smallfile::SF_THRESHOLD as usize / 2);
    let blocks = slice_smallfile::SF_THRESHOLD / len as u64;
    const FILES: u64 = 64;
    let settle = |srv: &mut SmallFileServer, now: SimTime, actions: Vec<SfAction>| {
        let mut work = actions;
        while let Some(a) = work.pop() {
            match a {
                SfAction::BackingRead { tag, len, .. } => {
                    work.extend(srv.handle_backing_done(now, tag, Some(vec![0; len as usize])));
                }
                SfAction::BackingWrite { tag, .. } if tag != 0 => {
                    work.extend(srv.handle_backing_done(now, tag, None));
                }
                _ => {}
            }
        }
    };
    let write = |file: u64, block: u64| NfsRequest::Write {
        fh: file_fh(900_000 + file, 0),
        offset: block * len as u64,
        stable: StableHow::Unstable,
        data: vec![0x5a; len],
    };
    per_round(budget, || {
        let mut srv = SmallFileServer::new(SmallFileConfig {
            server_id: 0,
            storage_sites: mix.storage_sites,
            cache_bytes: 64 << 20,
            retain_data: mix.retain_data,
        });
        let mut n = 0u64;
        for file in 0..FILES {
            for block in 0..blocks {
                n += 1;
                let acts = srv.handle_nfs(at(n), n, write(file, block));
                settle(&mut srv, at(n), acts);
            }
        }
        // Requests are taken by value: build them before the clock starts.
        let reqs: Vec<NfsRequest> = (0..FILES * 4)
            .map(|i| {
                let (file, block) = (i * 7 % FILES, i % blocks);
                if i % 3 == 0 {
                    write(file, block)
                } else {
                    NfsRequest::Read {
                        fh: file_fh(900_000 + file, 0),
                        offset: block * len as u64,
                        count: len as u32,
                    }
                }
            })
            .collect();
        let calls = reqs.len() as u64;
        let mut pending = Vec::with_capacity(reqs.len());
        let t = Instant::now();
        for req in reqs {
            n += 1;
            pending.push(srv.handle_nfs(at(n), n, req));
        }
        let took = t.elapsed();
        for acts in pending {
            settle(&mut srv, at(n), acts);
        }
        (took, calls)
    })
}

fn storage_probes(mix: &Mix, budget: Budget, out: &mut Results) {
    let len = mix.data_len;
    // Offsets wrap at 32 MiB so a retaining store stays bounded.
    let slots = (32 << 20) / len as u64;
    let fh = file_fh(910_000, FH_FLAG_MIRRORED);
    let data = vec![0x5au8; len];
    {
        let mut node = StorageNode::new(&StorageNodeConfig {
            cache_bytes: 32 << 20,
            retain_data: mix.retain_data,
            ..StorageNodeConfig::default()
        });
        let reqs: Vec<NfsRequest> = (0..slots)
            .map(|i| NfsRequest::Write {
                fh,
                offset: i * len as u64,
                stable: StableHow::Unstable,
                data: data.clone(),
            })
            .chain((0..slots).map(|i| NfsRequest::Read {
                fh,
                offset: i * len as u64,
                count: len as u32,
            }))
            .collect();
        let mut i = 0usize;
        let ns = per_call(budget, || {
            i += 1;
            node.handle_nfs(at(i as u64), black_box(&reqs[i % reqs.len()]))
        });
        out.insert("storage.node.handle_nfs_ns", ns);
    }
    {
        let mut store = ObjectStore::new();
        let mut i = 0u64;
        let ns = per_call(budget, || {
            i += 1;
            store.write(7, (i % slots) * len as u64, black_box(&data));
        });
        out.insert("storage.object.write_ns_per_kb", ns / (len as f64 / 1024.0));
    }
    {
        // Block-map fetches and commit intentions: what the µproxies and
        // the directory servers ask of a coordinator.
        const N: u64 = 512;
        let ns = per_round(budget, || {
            let mut coord = Coordinator::new(mix.storage_sites);
            let begins: Vec<CoordMsg> = (0..N)
                .flat_map(|i| {
                    [
                        CoordMsg::MapGet {
                            file: 920_000 + i % 16,
                            first_block: i / 16 * 16,
                            count: 16,
                        },
                        CoordMsg::BeginIntent {
                            op_id: i,
                            kind: IntentKind::Commit {
                                obj: 920_000 + i % 16,
                            },
                            participants: (0..mix.storage_sites).collect(),
                        },
                    ]
                })
                .collect();
            let mut calls = begins.len() as u64;
            let mut intents = Vec::new();
            let t = Instant::now();
            for (i, msg) in begins.into_iter().enumerate() {
                for a in coord.handle(at(i as u64), 1, msg) {
                    if let CoordAction::Reply {
                        reply: CoordReply::IntentAck { intent, .. },
                        ..
                    } = a
                    {
                        intents.push(intent);
                    }
                }
            }
            let mut took = t.elapsed();
            let completes: Vec<CoordMsg> = intents
                .into_iter()
                .map(|intent| CoordMsg::CompleteIntent { intent })
                .collect();
            calls += completes.len() as u64;
            let t = Instant::now();
            for (i, msg) in completes.into_iter().enumerate() {
                black_box(coord.handle(at(N * 2 + i as u64), 1, msg));
            }
            took += t.elapsed();
            (took, calls)
        });
        out.insert("storage.coord.handle_ns", ns);
    }
}

fn ec_probes(budget: Budget, out: &mut Results) {
    // The (4,2) geometry `repair_mix` runs: a 64 KiB stripe unit split
    // into two 32 KiB data shards plus two parity shards.
    const SHARD: usize = 32 * 1024;
    let codec = Codec::new(4, 2);
    let d0 = vec![0x5au8; SHARD];
    let d1: Vec<u8> = (0..SHARD).map(|i| (i * 31 % 251) as u8).collect();
    let kib = |bytes: usize| bytes as f64 / 1024.0;
    let ns = per_call(budget, || codec.encode(black_box(&[&d0[..], &d1[..]])));
    out.insert("ec.encode_ns_per_kb", ns / kib(2 * SHARD));
    let parity = codec.encode(&[&d0[..], &d1[..]]);
    let shards = [None, Some(&d1[..]), Some(&parity[0][..]), None];
    let ns = per_call(budget, || {
        codec
            .reconstruct_shard(black_box(&shards), 0)
            .expect("k shards present")
    });
    out.insert("ec.reconstruct_ns_per_kb", ns / kib(SHARD));
    let mut p0 = parity[0].clone();
    let ns = per_call(budget, || {
        codec.update_parity(&mut p0, 0, 1, black_box(&d1), black_box(&d0));
    });
    out.insert("ec.update_parity_ns_per_kb", ns / kib(SHARD));
}

/// A node of the null engine: answers every message while it has budget
/// left, and arms a timer on every eighth one.
struct Pinger {
    peer: NodeId,
    remaining: u64,
    in_flight: u64,
}

impl Actor<Vec<u8>> for Pinger {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, from: NodeId, msg: Vec<u8>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        if self.remaining.is_multiple_of(8) {
            ctx.set_timer(SimDuration::from_micros(50), 1);
        }
        ctx.send(from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
        if tag == START_TAG {
            for _ in 0..self.in_flight {
                ctx.send(self.peer, vec![0u8; 120]);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sets and cancels `n` timers inside one handler.
struct TimerChurn {
    n: u64,
}

impl Actor<Vec<u8>> for TimerChurn {
    fn on_message(&mut self, _: &mut Ctx<'_, Vec<u8>>, _: NodeId, _: Vec<u8>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
        if tag == START_TAG {
            for i in 0..self.n {
                let id = ctx.set_timer(SimDuration::from_millis(800), i + 1);
                ctx.cancel_timer(id);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A 16-node engine of `Pinger`s, each pair bouncing four messages.
fn ping_engine(messages_per_node: u64) -> Engine<Vec<u8>> {
    const NODES: u32 = 16;
    let mut engine: Engine<Vec<u8>> = Engine::new(NetConfig::gigabit(), 42);
    for i in 0..NODES {
        engine.add_node(
            &format!("ping{i}"),
            Box::new(Pinger {
                peer: NodeId(i ^ 1),
                remaining: messages_per_node,
                in_flight: 4,
            }),
        );
    }
    engine.obs_mut().trace.disable_all();
    for i in 0..NODES {
        engine.kick(NodeId(i));
    }
    engine
}

fn sim_probes(mix: &Mix, budget: Budget, out: &mut Results) {
    const PER_NODE: u64 = 4_000;
    out.insert(
        "sim.engine.ns_per_event",
        per_round(budget, || {
            let mut engine = ping_engine(PER_NODE);
            let t = Instant::now();
            engine.run_until_idle(u64::MAX);
            (t.elapsed(), engine.events_executed())
        }),
    );
    out.insert(
        "sim.engine.budgeted_ns_per_event",
        per_round(budget, || {
            let mut engine = ping_engine(PER_NODE);
            let t = Instant::now();
            while engine.run_until_idle(64) > 0 {}
            (t.elapsed(), engine.events_executed())
        }),
    );
    out.insert(
        "sim.engine.timer_ns",
        per_round(budget, || {
            const N: u64 = 20_000;
            let mut engine: Engine<Vec<u8>> = Engine::new(NetConfig::gigabit(), 42);
            let node = engine.add_node("timers", Box::new(TimerChurn { n: N }));
            engine.obs_mut().trace.disable_all();
            engine.kick(node);
            let t = Instant::now();
            engine.run_until_idle(u64::MAX);
            (t.elapsed(), N)
        }),
    );
    // A packet-sized buffer leaves the pool and comes back.
    let packet = mix.data_len.max(64) + 200;
    out.insert(
        "sim.pool.cycle_ns",
        per_call(budget, || {
            let mut v = slice_sim::pool::take(black_box(packet));
            v.push(1);
            slice_sim::pool::give(v);
        }),
    );
    {
        let mut disks = DiskArray::new(8, DiskParams::cheetah(), 58_000_000.0);
        let mut i = 0u64;
        out.insert(
            "sim.disk.submit_ns",
            per_call(budget, || {
                i += 1;
                // Three sequential requests, then a seek to another stream.
                let (stream, offset) = if i.is_multiple_of(4) {
                    (i * 7919 % 64, i * 65_536)
                } else {
                    (i / 4 % 8, i * mix.data_len as u64)
                };
                disks.submit(at(i), stream, offset, mix.data_len, i.is_multiple_of(3))
            }),
        );
    }
    {
        // A working set four times the cache, so inserts evict.
        let mut cache: LruCache<u64> = LruCache::new(32 << 20);
        let keys = 4 * (32 << 20) / 8192u64;
        let mut i = 0u64;
        out.insert(
            "sim.cache.op_ns",
            per_call(budget, || {
                i += 1;
                let key = i.wrapping_mul(0x9e37_79b9) % keys;
                if !cache.get(&key) {
                    black_box(cache.insert(key, 8192));
                }
            }),
        );
    }
}
