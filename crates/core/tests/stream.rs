//! The glue under a seeded ensemble: what `crates/core` sends, charges
//! and arms, pinned per placement.
//!
//! Two clients, two directory sites, two small-file servers and four
//! storage nodes run a seeded, paced mix (name ops, small and bulk I/O,
//! commits, truncates, remove + re-create, renames, listings) through a
//! fixed fault timeline that reaches the paths of `actors.rs`,
//! `client.rs` and `ensemble.rs` the unit tests and
//! `payload_untouched.rs` do not:
//!
//! * five seconds of datagram loss and duplication — a duplicate of a
//!   cross-site create lands while the first copy waits for its peer
//!   (the DRC's in-progress drop), a lost reply is answered again from
//!   the ring (the DRC's replay);
//! * a crash and restart of a small-file server, a directory site, a
//!   storage node and the coordinator, each at an instant when the
//!   server owes a deferred reply (or, the small-file server, backing
//!   I/O), which dies with the incarnation that owed it;
//! * the crashed storage node is struck by retransmissions, suspected,
//!   recovered, resynchronized and cleared by a coordinator probe;
//! * directory site 0 then stays down past `MAX_RETRIES`, so every slot
//!   of both clients ends in a client-visible timeout;
//! * small-file caches of a few blocks, so READs park on backing fetches
//!   and dirty blocks are flushed by eviction.
//!
//! The whole trace ring — every packet with its time, endpoints and
//! size, every op start and completion, every retransmission, crash and
//! suspicion — is folded into one FNV-1a, and pinned with the engine's
//! event, packet and byte counts as the parent of the PR that rewrote the
//! glue emitted them. A refactor leaves the constants alone; a behaviour
//! change re-pins them on purpose and says why. Re-pinned once since:
//! the µproxy came to look a READ reply's attributes up once, not twice,
//! so the ring holds fewer attribute `CacheHit` events (mirrored-mapped
//! 8,956 → 7,320, coded 9,062 → 7,310) and nothing else moved.
//!
//! Reach, counted once on a copy of that parent with a print at each
//! path (mirrored-mapped / coded): DRC replays at a directory actor
//! 15 / 9, in-progress drops 35 / 107; deferred sends lost at the crash
//! of a directory site 1 + 1 / 1 + 1, of the storage node 1 / 1, of the
//! coordinator 1 / 1; at the small-file server's crash 8 / 1 requests and
//! 8 / 1 backing calls open; backing completions at a small-file actor
//! 2,552 / 2,922. The mix's seed and the coordinator's crash instant were
//! chosen for that: the probes below see a log append, not the reply it
//! defers.

use slice_core::actors::{CoordActor, DirActor, SmallFileActor, StorageActor};
use slice_core::{ClientIo, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice_nfsproto::{
    Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow, Windows,
};
use slice_sim::{EventKind, Obs, Rng, SimDuration, SimTime};

const FILES: usize = 10;
const WINDOW: u32 = 4;
const OPS_PER_CLIENT: u32 = 3_400;
const BLOCK: u32 = 32 * 1024;
const THRESHOLD: u64 = 64 * 1024;

/// From just before storage node 2 goes down until directory site 0
/// does (the resync has long drained when it returns), no file is
/// removed: a range owed to a site is copied back even if its file has
/// been removed since, onto an object the site has forgotten.
const NO_REMOVES: std::ops::Range<u64> = 19_000..40_000; // ms

/// What a reply is for, carried in the op's tag.
#[derive(Clone, Copy)]
enum Kind {
    Mkdir,
    Create,
    Remove,
    Other,
}

fn tag(kind: Kind, file: usize) -> u64 {
    (kind as u64) << 32 | file as u64
}

/// A paced, windowed, seeded mix over one directory of `FILES` files.
/// Replies are tallied, never asserted on: ops fail while servers are
/// down, and the point is the stream they produce.
struct Mix {
    id: usize,
    rng: Rng,
    dir: Option<Fhandle>,
    /// Current name generation and handle of each file.
    files: Vec<(u32, Option<Fhandle>)>,
    /// Ops in flight per file. A file is removed only when it has none,
    /// and not during [`NO_REMOVES`]: where a storage node puts a block of
    /// an object it was told to remove is that node's business, not the
    /// glue's, and this stream must not move with it.
    busy: Vec<u32>,
    created: usize,
    left: u32,
    outstanding: u32,
    waking: bool,
    ok: u64,
    failed: u64,
}

impl Mix {
    fn new(id: usize, seed: u64) -> Self {
        Mix {
            id,
            rng: Rng::stream(seed, id as u64),
            dir: None,
            files: vec![(0, None); FILES],
            busy: vec![0; FILES],
            created: 0,
            left: OPS_PER_CLIENT,
            outstanding: 0,
            waking: false,
            ok: 0,
            failed: 0,
        }
    }

    /// The upper half of the files is removed and re-created, the lower
    /// half truncated, no file both: a coded truncate queues a parity
    /// rebuild, which is carried out even if the file has gone since.
    fn removable(file: usize) -> bool {
        file >= FILES / 2
    }

    fn may_remove(&self, io: &ClientIo<'_, '_>, file: usize) -> bool {
        self.busy[file] == 0 && !NO_REMOVES.contains(&(io.now().as_nanos() / 1_000_000))
    }

    fn name(&self, file: usize) -> String {
        format!("c{}f{}g{}", self.id, file, self.files[file].0)
    }

    fn call(&mut self, io: &mut ClientIo<'_, '_>, kind: Kind, file: usize, req: NfsRequest) {
        self.outstanding += 1;
        self.busy[file] += 1;
        io.call(tag(kind, file), req);
    }

    fn create(&mut self, io: &mut ClientIo<'_, '_>, file: usize) {
        // Every other file asks for the mirrored policy bit.
        let mode = 0o644 | if file.is_multiple_of(2) { 1 << 16 } else { 0 };
        let req = NfsRequest::Create {
            dir: self.dir.expect("directory made first"),
            name: self.name(file),
            attr: Sattr3 {
                mode: Some(mode),
                ..Default::default()
            },
        };
        self.call(io, Kind::Create, file, req);
    }

    /// Arms the next pacing wake-up while there is room in the window.
    fn pump(&mut self, io: &mut ClientIo<'_, '_>) {
        if !self.waking && self.left > 0 && self.outstanding < WINDOW {
            self.waking = true;
            let think = 8_000 + self.rng.gen_range(0..8_000u64);
            io.wake_in(SimDuration::from_micros(think));
        }
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        self.left -= 1;
        let dir = self.dir.expect("directory made first");
        let file = self.rng.gen_range(0..FILES);
        let Some(fh) = self.files[file].1 else {
            // Lost to a failed create or a remove in flight: look it up.
            let name = self.name(file);
            return self.call(io, Kind::Other, file, NfsRequest::Lookup { dir, name });
        };
        let pick = self.rng.gen_range(0..100u32);
        let stable = match self.rng.gen_range(0..3u32) {
            0 => StableHow::FileSync,
            _ => StableHow::Unstable,
        };
        let fill = self.rng.gen_range(0..=255u32) as u8;
        let small_at = self.rng.gen_range(0..48 * 1024u64);
        let small_len = self.rng.gen_range(1..=8 * 1024u32);
        let block = self.rng.gen_range(0..8u64);
        let bulk_len = if self.rng.gen_range(0..4u32) == 0 {
            self.rng.gen_range(1..BLOCK)
        } else {
            BLOCK
        };
        let bulk_at = THRESHOLD + block * u64::from(BLOCK);
        let req = match pick {
            0..=9 => NfsRequest::Lookup {
                dir,
                name: self.name(file),
            },
            10..=17 => NfsRequest::Getattr { fh },
            18..=31 => NfsRequest::Write {
                fh,
                offset: small_at,
                stable,
                data: vec![fill; small_len as usize],
            },
            32..=45 => NfsRequest::Read {
                fh,
                offset: small_at,
                count: small_len,
            },
            46..=59 => NfsRequest::Write {
                fh,
                offset: bulk_at,
                stable,
                data: vec![fill; bulk_len as usize],
            },
            60..=73 => NfsRequest::Read {
                fh,
                offset: bulk_at,
                count: bulk_len,
            },
            74..=79 => NfsRequest::Commit {
                fh,
                offset: 0,
                count: 0,
            },
            80..=83 if !Self::removable(file) => NfsRequest::Setattr {
                fh,
                attr: Sattr3 {
                    size: Some(self.rng.gen_range(0..400 * 1024u64)),
                    ..Default::default()
                },
            },
            84..=87 if Self::removable(file) && self.may_remove(io, file) => {
                // Remove now; the reply re-creates it under a new name.
                self.files[file].1 = None;
                let name = self.name(file);
                return self.call(io, Kind::Remove, file, NfsRequest::Remove { dir, name });
            }
            80..=91 => {
                let from_name = self.name(file);
                self.files[file].0 += 1;
                NfsRequest::Rename {
                    from_dir: dir,
                    from_name,
                    to_dir: dir,
                    to_name: self.name(file),
                }
            }
            92..=95 => NfsRequest::Readdir {
                dir,
                cookie: 0,
                cookieverf: 0,
                count: 4096,
            },
            _ => NfsRequest::Mkdir {
                dir,
                name: format!("c{}sub{}", self.id, self.left),
                attr: Sattr3::default(),
            },
        };
        self.call(io, Kind::Other, file, req);
    }
}

impl Workload for Mix {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        let req = NfsRequest::Mkdir {
            dir: Fhandle::root(),
            name: format!("client{}", self.id),
            attr: Sattr3::default(),
        };
        self.call(io, Kind::Mkdir, 0, req);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        self.outstanding -= 1;
        self.busy[(tag & 0xffff_ffff) as usize] -= 1;
        if reply.status == NfsStatus::Ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        let file = (tag & 0xffff_ffff) as usize;
        let made = match &reply.body {
            ReplyBody::Create { fh } => *fh,
            _ => None,
        };
        match tag >> 32 {
            k if k == Kind::Mkdir as u64 => {
                self.dir = Some(made.expect("the setup runs before any fault"));
                self.create(io, 0);
                return;
            }
            k if k == Kind::Create as u64 => {
                self.files[file].1 = made;
                if self.created < FILES {
                    self.created += 1;
                    if self.created < FILES {
                        self.create(io, self.created);
                        return;
                    }
                }
            }
            k if k == Kind::Remove as u64 => {
                self.files[file].0 += 1;
                self.create(io, file);
            }
            _ => {
                if let ReplyBody::Lookup { fh, .. } = &reply.body {
                    if reply.status == NfsStatus::Ok {
                        self.files[file].1 = Some(*fh);
                    }
                }
            }
        }
        self.pump(io);
    }

    fn on_wake(&mut self, io: &mut ClientIo<'_, '_>) {
        self.waking = false;
        if self.left > 0 && self.outstanding < WINDOW {
            self.issue(io);
        }
        self.pump(io);
    }

    fn finished(&self) -> bool {
        self.created == FILES && self.left == 0 && self.outstanding == 0
    }
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    trace_fnv: u64,
    events: u64,
    packets: u64,
    bytes: u64,
}

fn run(coded: Option<(u32, u32)>, policy: EnsemblePolicy) -> Pinned {
    let cfg = SliceConfig {
        clients: 2,
        dir_servers: 2,
        sf_servers: 2,
        storage_nodes: 4,
        policy,
        coded,
        mapped_mirror: true,
        use_block_maps: true,
        // A few blocks: fetch parks and dirty evictions happen.
        sf_cache_bytes: 6 * 8192,
        storage_cache_bytes: 1024 * 1024,
        probe_interval_ms: 500,
        seed: 24,
        ..Default::default()
    };
    let workloads: Vec<Box<dyn Workload>> = (0..cfg.clients)
        .map(|i| Box::new(Mix::new(i, 5)) as Box<dyn Workload>)
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    // The whole run must fit the ring: the hash is of every event.
    *ens.engine.obs_mut() = Obs::with_trace_capacity(1 << 20);
    ens.start();

    let e = &mut ens;
    // Crashes `node` at the end of the first 20 µs step after `ms` in
    // which both of `probe`'s counters rose: a log append or a disk
    // submission, and the reply that now waits on a deferred-send timer.
    let fail = |e: &mut SliceEnsemble, ms: u64, node, probe: fn(&SliceEnsemble) -> [u64; 2]| {
        e.engine.run_until(at(ms));
        loop {
            let before = probe(e);
            e.engine
                .run_until(e.engine.now() + SimDuration::from_micros(20));
            let after = probe(e);
            if after[0] > before[0] && after[1] > before[1] {
                break;
            }
        }
        e.engine.fail_node(node);
    };
    let recover = |e: &mut SliceEnsemble, ms: u64, node| {
        e.engine.run_until(at(ms));
        e.engine.recover_node(node);
    };
    let (sf0, dir0, dir1, coord) = (e.sfs[0], e.dirs[0], e.dirs[1], e.coords[0]);
    let storage2 = e.storage[2];
    fn dir_probe(e: &SliceEnsemble, site: usize) -> [u64; 2] {
        let server = &e.engine.actor::<DirActor>(e.dirs[site]).server;
        [server.wal_stats().0, server.ops_served()]
    }
    let sf0_served = |e: &SliceEnsemble| {
        let served = e.engine.actor::<SmallFileActor>(e.sfs[0]).server.served();
        [served; 2]
    };
    let storage2_disk = |e: &SliceEnsemble| {
        let node = &e.engine.actor::<StorageActor>(e.storage[2]).node;
        let (reads, writes, ..) = node.disk_stats();
        [reads + writes; 2]
    };
    let coord_log = |e: &SliceEnsemble| {
        let coord = &e.engine.actor::<CoordActor>(e.coords[0]).coord;
        [coord.wal_stats().0, coord.open_intents() as u64]
    };

    // Loss and duplication on the datagram path.
    e.engine.run_until(at(5_000));
    e.engine.set_loss_prob(0.03);
    e.engine.set_dup_prob(0.05);
    e.engine.run_until(at(10_000));
    e.engine.set_loss_prob(0.0);
    e.engine.set_dup_prob(0.0);
    // One crash and restart per server class, under load.
    fail(e, 12_000, sf0, sf0_served);
    recover(e, 13_200, sf0);
    fail(e, 16_000, dir1, |e| dir_probe(e, 1));
    recover(e, 17_500, dir1);
    fail(e, 20_000, storage2, storage2_disk);
    e.engine.run_until(at(26_000));
    e.recover_storage_node(2);
    fail(e, 33_000, coord, coord_log);
    recover(e, 34_500, coord);
    // Directory site 0 stays down until every slot has timed out.
    fail(e, 36_000, dir0, |e| dir_probe(e, 0));
    recover(e, 290_000, dir0);
    let end = e.run_to_completion(at(600_000));
    assert!(end < at(600_000), "the mix did not finish");

    let mut timeouts = 0;
    let mut retransmits = 0;
    for i in 0..cfg.clients {
        let client = e.client(i);
        assert!(client.finished(), "client {i} did not finish");
        timeouts += client.stats().timeouts;
        retransmits += client.stats().retransmits;
        let mix = client.workload_as::<Mix>();
        assert!(mix.ok > 2_000, "client {i}: {} ok", mix.ok);
        assert!(
            mix.failed >= u64::from(WINDOW),
            "client {i}: {} failed",
            mix.failed
        );
    }
    assert!(
        timeouts >= 2 * u64::from(WINDOW),
        "{timeouts} RPCs ran out of retries"
    );
    assert!(retransmits > 240, "{retransmits} retransmissions");
    assert!(e.engine.packets_dropped() > 0 && e.engine.packets_duplicated() > 0);

    let trace = &e.engine.obs().trace;
    assert_eq!(trace.evicted(), 0, "the ring must hold the whole run");
    let count = |want: fn(&EventKind) -> bool| trace.events().filter(|ev| want(&ev.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::Crash { .. })), 5);
    assert_eq!(count(|k| matches!(k, EventKind::Recover { .. })), 5);
    assert!(count(|k| matches!(k, EventKind::SiteSuspected { site: 2 })) > 0);
    assert!(count(|k| matches!(k, EventKind::SiteCleared { site: 2 })) > 0);
    assert!(count(|k| matches!(k, EventKind::ResyncDone { site: 2, .. })) > 0);
    assert!(count(|k| matches!(k, EventKind::DegradedWrite { .. })) > 0);
    let mut h = slice_hashes::fnv1a(b"");
    for ev in trace.events() {
        h = slice_hashes::fnv1a_continue(h, format!("{ev:?}").as_bytes());
    }
    Pinned {
        trace_fnv: h,
        events: e.engine.events_executed(),
        packets: e.engine.packets_sent(),
        bytes: e.engine.bytes_sent(),
    }
}

#[test]
fn mirrored_mapped_stream_is_pinned() {
    let got = run(
        None,
        EnsemblePolicy::MkdirSwitching {
            redirect_millis: 500,
        },
    );
    let want = Pinned {
        trace_fnv: 17451544400178422771,
        events: 128_001,
        packets: 33_225,
        bytes: 114_085_328,
    };
    assert_eq!(got, want, "mirrored-mapped stream moved");
}

#[test]
fn coded_stream_is_pinned() {
    let got = run(Some((4, 2)), EnsemblePolicy::NameHashing);
    let want = Pinned {
        trace_fnv: 2364415460370317645,
        events: 162_341,
        packets: 42_229,
        bytes: 207_214_252,
    };
    assert_eq!(got, want, "coded (4,2) stream moved");
}
