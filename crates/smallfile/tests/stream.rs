//! A seeded request stream through the small-file server's public entry
//! points (`handle_nfs`, `handle_backing_done`, `handle_ctl`, `crash` /
//! `recover`) against a fake storage array: an [`ObjectStore`] that takes
//! a backing write when it is emitted and hands every completion back
//! one to three rounds later, in shuffled order.
//!
//! The mix: READ and WRITE (stable and unstable; block-aligned, partial,
//! appending, tiny and zero-length) and COMMIT over a few dozen files,
//! `SfCtl::{Remove, Truncate}` aimed at files whose ops are parked, a
//! buffer cache of 64 blocks under a working set of a few hundred — so
//! dirty blocks are evicted, which no benchmark workload and no unit test
//! makes happen — and one crash with requests in flight. What is
//! asserted, through the public API only:
//!
//! * every token gets exactly one reply, in the call that executes it or
//!   in the call that completes its last stable flush — none if the
//!   server crashed under it;
//! * every READ returns the bytes (retain mode) or the byte count
//!   (metadata mode) of a flat per-file model, every reply the size the
//!   file had when the op executed;
//! * an FNV-1a over every emitted action in order, tags and data
//!   included — pinned per retain mode, so a refactor that moves a
//!   flush, a fetch or a tag shows up as a changed constant (the failure
//!   prints the new one; a behaviour change re-pins it on purpose and
//!   says why).
//!
//! Ops on one file overlap freely: a WRITE may execute while a READ of
//! the same block waits on its fetch, and the model applies each op when
//! the server executes it. Two things the harness steers around, each a
//! property of the server recorded in ROADMAP rather than a choice of the
//! test: it keeps the blocks of the ops in flight well below the cache
//! size (a parked op executes without re-checking that what it fetched is
//! still resident); and after the crash it leaves alone every file that
//! held uncommitted data (its bytes are not predictable from the log: a
//! dirty block's new extent was never written).

use std::collections::BTreeMap;

use slice_hashes::fnv::FNV_OFFSET;
use slice_hashes::{fnv1a, fnv1a_continue};
use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, StableHow};
use slice_sim::{Rng, SimDuration, SimTime};
use slice_smallfile::{SfAction, SfCtl, SmallFileConfig, SmallFileServer, SF_BLOCK, SF_THRESHOLD};
use slice_storage::ObjectStore;

const FILES: usize = 36;
const SITES: u32 = 3;
const CACHE_BLOCKS: u64 = 64;
const ROUNDS: u64 = 1500;
const CRASH_ROUND: u64 = 1000;
/// At most this many ops wait on backing I/O at once.
const MAX_IN_FLIGHT: usize = 6;

#[derive(Debug)]
enum Op {
    Read {
        file: usize,
        offset: u64,
        count: u32,
    },
    Write {
        file: usize,
        offset: u64,
        data: Vec<u8>,
        stable: StableHow,
    },
    Commit {
        file: usize,
    },
}

impl Op {
    fn file(&self) -> usize {
        match self {
            Op::Read { file, .. } | Op::Write { file, .. } | Op::Commit { file } => *file,
        }
    }
}

/// A request the server has not answered yet.
#[derive(Debug)]
struct Flight {
    op: Op,
    /// Backing reads it still waits for; it executes when the last lands.
    fetches: usize,
    /// Stable flushes it still waits for; it replies when the last lands.
    flushes: usize,
    executed: bool,
    replied: bool,
    /// The file's size when the op executed (what its reply reports).
    size_at_exec: u64,
}

/// A backing completion on its way back to the server.
#[derive(Debug)]
struct Done {
    tag: u64,
    due: u64,
    /// What to read, for a backing read.
    read: Option<(u64, u64, u32)>,
}

/// What the harness may still do with a file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Use {
    #[default]
    Anything,
    /// Not predictable after the crash: left alone.
    Nothing,
}

#[derive(Debug, Default)]
struct File {
    id: u64,
    /// Every byte a WRITE that executed put there; its length is the size.
    bytes: Vec<u8>,
    usable: Use,
    /// A WRITE has executed since the last remove: the server holds a
    /// map record for it.
    mapped: bool,
    /// Holds unstable data no COMMIT has executed over since.
    uncommitted: bool,
}

#[derive(Debug, Default)]
struct Seen {
    fetch_parks: u64,
    flush_parks: u64,
    dirty_evictions: u64,
    multi_block_commits: u64,
    ctl_on_fetch_parked: u64,
    ctl_on_flush_parked: u64,
    crashes: u64,
    lost_at_crash: u64,
    executed: u64,
    replies: u64,
}

struct Harness {
    server: SmallFileServer,
    backing: ObjectStore,
    retain: bool,
    rng: Rng,
    now_ms: u64,
    round: u64,
    files: Vec<File>,
    flights: BTreeMap<u64, Flight>,
    /// Outstanding backing tag -> the token that waits for it.
    tags: BTreeMap<u64, u64>,
    pending: Vec<Done>,
    next_token: u64,
    hash: u64,
    seen: Seen,
}

impl Harness {
    fn new(retain: bool) -> Self {
        Harness {
            server: SmallFileServer::new(SmallFileConfig {
                server_id: 2,
                storage_sites: SITES,
                cache_bytes: CACHE_BLOCKS * u64::from(SF_BLOCK),
                retain_data: retain,
            }),
            backing: ObjectStore::new(),
            retain,
            rng: Rng::seed_from_u64(0x5346_5354_5245_414d),
            now_ms: 0,
            round: 0,
            files: (0..FILES as u64)
                .map(|i| File {
                    id: 7 + i * 53,
                    ..File::default()
                })
                .collect(),
            flights: BTreeMap::new(),
            tags: BTreeMap::new(),
            pending: Vec::new(),
            next_token: 1,
            hash: FNV_OFFSET,
            seen: Seen::default(),
        }
    }

    fn tick(&mut self) -> SimTime {
        self.now_ms += 1;
        SimTime::ZERO + SimDuration::from_millis(self.now_ms)
    }

    fn fold(&mut self, text: String) {
        self.hash = fnv1a_continue(self.hash, text.as_bytes());
    }

    /// Applies an op to the model at the instant the server executes it.
    fn execute(&mut self, token: u64) {
        let flight = self.flights.get_mut(&token).expect("executing token");
        assert!(!flight.executed, "token {token} executed twice");
        let file = &mut self.files[flight.op.file()];
        match &flight.op {
            Op::Read { .. } => {}
            Op::Write {
                offset,
                data,
                stable,
                ..
            } => {
                let (start, end) = (*offset as usize, *offset as usize + data.len());
                if file.bytes.len() < end {
                    file.bytes.resize(end, 0);
                }
                file.bytes[start..end].copy_from_slice(data);
                file.mapped = true;
                file.uncommitted |= matches!(stable, StableHow::Unstable);
            }
            Op::Commit { .. } => file.uncommitted = false,
        }
        flight.executed = true;
        flight.size_at_exec = file.bytes.len() as u64;
        self.seen.executed += 1;
    }

    fn check_reply(&self, flight: &Flight, reply: &NfsReply) {
        assert_eq!(reply.status, NfsStatus::Ok, "{:?}", flight.op);
        let attr = reply.attr.as_ref().expect("every reply carries attributes");
        assert_eq!(attr.size, flight.size_at_exec, "{:?}", flight.op);
        match (&flight.op, &reply.body) {
            (
                Op::Read {
                    file,
                    offset,
                    count,
                },
                ReplyBody::Read { data, eof },
            ) => {
                // A READ replies in the call that executes it, so the
                // model is the file as the server saw it.
                let bytes = &self.files[*file].bytes;
                let size = bytes.len() as u64;
                let avail = size.saturating_sub(*offset).min(u64::from(*count)) as usize;
                assert_eq!(data.len(), avail, "{:?}", flight.op);
                assert_eq!(*eof, offset + u64::from(*count) >= size, "{:?}", flight.op);
                if self.retain {
                    let start = *offset as usize;
                    assert!(
                        data[..] == bytes[start.min(bytes.len())..][..avail],
                        "wrong bytes for {:?}",
                        flight.op
                    );
                } else {
                    assert!(data.iter().all(|&b| b == 0));
                }
            }
            (
                Op::Write { data, stable, .. },
                ReplyBody::Write {
                    count, committed, ..
                },
            ) => {
                assert_eq!(*count as usize, data.len());
                assert_eq!(committed, stable);
            }
            (Op::Commit { .. }, ReplyBody::Commit { .. }) => {}
            (op, body) => panic!("{op:?} answered with {body:?}"),
        }
    }

    /// Takes what one server call emitted. `owner` is the token the call
    /// was made for: the request itself, or the op the completed tag
    /// belonged to.
    fn absorb(&mut self, actions: Vec<SfAction>, owner: Option<u64>) {
        let mut tagged_flushes = 0;
        for action in actions {
            match action {
                SfAction::Reply { token, reply } => {
                    self.fold(format!(
                        "R {token} {:?} {:?} {:?} {}",
                        reply.proc,
                        reply.status,
                        reply.attr.as_ref().map(|a| (a.size, a.used, a.mtime)),
                        match &reply.body {
                            ReplyBody::Read { data, eof } =>
                                format!("{} {:x} {eof}", data.len(), fnv1a(data)),
                            other => format!("{other:?}"),
                        }
                    ));
                    assert_eq!(Some(token), owner, "a reply for somebody else's token");
                    let flight = &self.flights[&token];
                    assert!(!flight.replied, "token {token} answered twice");
                    self.check_reply(flight, &reply);
                    self.flights.get_mut(&token).expect("checked").replied = true;
                }
                SfAction::BackingRead {
                    tag,
                    site,
                    obj,
                    offset,
                    len,
                } => {
                    self.fold(format!("F {tag} {site} {obj} {offset} {len}"));
                    let owner = owner.expect("a fetch belongs to a request");
                    assert!(!self.flights[&owner].executed, "a fetch after execution");
                    assert!(tag != 0 && self.tags.insert(tag, owner).is_none());
                    let due = self.round + self.rng.gen_range(1u64..4);
                    self.pending.push(Done {
                        tag,
                        due,
                        read: Some((obj, offset, len)),
                    });
                }
                SfAction::BackingWrite {
                    tag,
                    site,
                    obj,
                    offset,
                    data,
                    stable,
                } => {
                    let data = data.to_vec();
                    self.fold(format!(
                        "W {tag} {site} {obj} {offset} {} {:x} {stable}",
                        data.len(),
                        fnv1a(&data)
                    ));
                    self.backing.write(obj, offset, &data);
                    if tag == 0 {
                        self.seen.dirty_evictions += 1;
                        continue;
                    }
                    let owner = owner.expect("a stable flush belongs to a request");
                    assert!(self.tags.insert(tag, owner).is_none());
                    self.flights.get_mut(&owner).expect("owner").flushes += 1;
                    tagged_flushes += 1;
                    let due = self.round + self.rng.gen_range(1u64..4);
                    self.pending.push(Done {
                        tag,
                        due,
                        read: None,
                    });
                }
            }
        }
        let Some(owner) = owner else { return };
        let flight = &self.flights[&owner];
        assert_eq!(
            flight.replied,
            flight.executed && flight.flushes == 0,
            "token {owner}: {flight:?}"
        );
        if tagged_flushes > 0 {
            assert!(flight.executed, "flushes come from the op that executed");
            self.seen.flush_parks += 1;
            if tagged_flushes > 1 && matches!(flight.op, Op::Commit { .. }) {
                self.seen.multi_block_commits += 1;
            }
        }
        if flight.replied {
            self.flights.remove(&owner);
            self.seen.replies += 1;
        }
    }

    fn admit(&mut self, op: Op) {
        let token = self.next_token;
        self.next_token += 1;
        let fh = Fhandle::new(self.files[op.file()].id, 0, 0, 0, 0);
        let req = match &op {
            Op::Read { offset, count, .. } => NfsRequest::Read {
                fh,
                offset: *offset,
                count: *count,
            },
            Op::Write {
                offset,
                data,
                stable,
                ..
            } => NfsRequest::Write {
                fh,
                offset: *offset,
                stable: *stable,
                data: data.clone(),
            },
            Op::Commit { .. } => NfsRequest::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        };
        let now = self.tick();
        let actions = self.server.handle_nfs(now, token, req);
        let fetches = actions
            .iter()
            .filter(|a| matches!(a, SfAction::BackingRead { .. }))
            .count();
        if fetches > 0 {
            self.seen.fetch_parks += 1;
        }
        self.flights.insert(
            token,
            Flight {
                op,
                fetches,
                flushes: 0,
                executed: false,
                replied: false,
                size_at_exec: 0,
            },
        );
        if fetches == 0 {
            self.execute(token);
        }
        self.absorb(actions, Some(token));
    }

    fn deliver(&mut self, done: Done) {
        let owner = self
            .tags
            .remove(&done.tag)
            .expect("a tag the server issued");
        let data = done
            .read
            .filter(|_| self.retain)
            .map(|(obj, offset, len)| self.backing.read(obj, offset, len as usize).0);
        let flight = self.flights.get_mut(&owner).expect("owner in flight");
        if done.read.is_none() {
            flight.flushes -= 1;
        } else {
            flight.fetches -= 1;
            if flight.fetches == 0 {
                self.execute(owner);
            }
        }
        let now = self.tick();
        let actions = self.server.handle_backing_done(now, done.tag, data);
        self.absorb(actions, Some(owner));
    }

    /// Delivers every completion that is due, in shuffled order.
    fn deliver_due(&mut self) {
        let round = self.round;
        let (mut due, later): (Vec<Done>, Vec<Done>) =
            self.pending.drain(..).partition(|d| d.due <= round);
        self.pending = later;
        for i in (1..due.len()).rev() {
            due.swap(i, self.rng.gen_range(0..=i));
        }
        for done in due {
            self.deliver(done);
        }
    }

    fn ctl(&mut self, ctl: SfCtl) {
        let (SfCtl::Remove { file: id } | SfCtl::Truncate { file: id, .. }) = ctl;
        let file = self
            .files
            .iter_mut()
            .find(|f| f.id == id)
            .expect("a file of the set");
        match ctl {
            SfCtl::Remove { .. } => {
                file.bytes.clear();
                (file.mapped, file.uncommitted) = (false, false);
            }
            SfCtl::Truncate { size, .. } => file.bytes.truncate(size as usize),
        }
        let now = self.tick();
        let actions = self.server.handle_ctl(now, &ctl);
        self.absorb(actions, None);
    }

    /// A control op, aimed at a file with a parked op when there is one.
    fn random_ctl(&mut self) {
        let parked: Vec<(usize, bool)> = self
            .flights
            .values()
            .map(|f| (f.op.file(), f.executed))
            .filter(|(file, _)| self.files[*file].usable == Use::Anything)
            .collect();
        let file = if !parked.is_empty() && self.rng.gen_bool(0.7) {
            let (file, executed) = parked[self.rng.gen_range(0..parked.len())];
            if executed {
                self.seen.ctl_on_flush_parked += 1;
            } else {
                self.seen.ctl_on_fetch_parked += 1;
            }
            file
        } else {
            self.rng.gen_range(0..FILES)
        };
        if self.files[file].usable != Use::Anything {
            return;
        }
        let id = self.files[file].id;
        let len = self.files[file].bytes.len() as u64;
        let ctl = if self.rng.gen_bool(0.4) {
            SfCtl::Remove { file: id }
        } else {
            SfCtl::Truncate {
                file: id,
                size: self.rng.gen_range(0..=len + 100),
            }
        };
        self.ctl(ctl);
    }

    fn random_op(&mut self) -> Option<Op> {
        let file = self.rng.gen_range(0..FILES);
        let size = self.files[file].bytes.len() as u64;
        let block = u64::from(SF_BLOCK);
        if self.files[file].usable == Use::Nothing {
            return None;
        }
        match self.rng.gen_range(0u32..100) {
            0..=39 => {
                let offset = match self.rng.gen_range(0u32..3) {
                    0 => 0,
                    1 => self.rng.gen_range(0u64..5) * block,
                    _ => self.rng.gen_range(0..=size + 1000).min(SF_THRESHOLD),
                };
                let count = match self.rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => block,
                    _ => self.rng.gen_range(1u64..20_000),
                };
                let count = count.min(SF_THRESHOLD - offset) as u32;
                Some(Op::Read {
                    file,
                    offset,
                    count,
                })
            }
            40..=84 => {
                let (offset, len) = match self.rng.gen_range(0u32..5) {
                    0 => (
                        self.rng.gen_range(0u64..4) * block,
                        self.rng.gen_range(1u64..3) * block,
                    ),
                    1 => (
                        self.rng.gen_range(0u64..30_000),
                        self.rng.gen_range(1u64..12_000),
                    ),
                    2 => (size.min(40_000), self.rng.gen_range(1u64..9_000)),
                    3 => (self.rng.gen_range(0..=size.min(40_000) + 500), 0),
                    _ => (self.rng.gen_range(0..=size), self.rng.gen_range(1u64..200)),
                };
                let len = len.min(SF_THRESHOLD - offset);
                let stable = match self.rng.gen_range(0u32..9) {
                    0..=3 => StableHow::Unstable,
                    4 => StableHow::DataSync,
                    _ => StableHow::FileSync,
                };
                let seq = self.next_token;
                let data = (0..len).map(|i| ((seq * 31 + i) % 251) as u8 + 1).collect();
                Some(Op::Write {
                    file,
                    offset,
                    data,
                    stable,
                })
            }
            _ => Some(Op::Commit { file }),
        }
    }

    /// Crashes the server under whatever is in flight and recovers it from
    /// its log, every record durable.
    fn crash(&mut self) {
        assert!(!self.flights.is_empty(), "crash with nothing in flight");
        let wal = self.server.crash();
        self.now_ms += 1000;
        let now = self.tick();
        self.server.recover(wal, now);
        self.seen.crashes += 1;
        self.seen.lost_at_crash += self.flights.len() as u64;
        self.flights.clear();
        self.tags.clear();
        self.pending.clear();
        for file in &mut self.files {
            if file.mapped && file.uncommitted {
                file.usable = Use::Nothing;
            }
        }
    }

    fn drain(&mut self) {
        while !self.pending.is_empty() {
            self.round += 1;
            self.deliver_due();
        }
        assert!(self.flights.is_empty(), "{:?}", self.flights);
        assert!(self.tags.is_empty());
    }

    fn run(mut self) -> (u64, Seen) {
        let mut crashed = false;
        while self.round < ROUNDS {
            self.round += 1;
            for _ in 0..self.rng.gen_range(0u32..3) {
                if self.flights.len() < MAX_IN_FLIGHT {
                    if let Some(op) = self.random_op() {
                        self.admit(op);
                    }
                }
            }
            if self.rng.gen_bool(0.12) {
                self.random_ctl();
            }
            if !crashed && self.round >= CRASH_ROUND && !self.flights.is_empty() {
                self.crash();
                crashed = true;
            }
            self.deliver_due();
        }
        self.drain();
        // What is left reads back whole.
        for file in 0..FILES {
            if self.files[file].usable != Use::Nothing {
                self.admit(Op::Read {
                    file,
                    offset: 0,
                    count: SF_THRESHOLD as u32,
                });
            }
        }
        self.drain();
        assert_eq!(
            self.seen.replies + self.seen.lost_at_crash,
            self.next_token - 1,
            "one reply per token"
        );
        assert_eq!(self.server.served(), self.seen.executed);
        (self.hash, self.seen)
    }
}

fn stream(retain: bool) -> u64 {
    let (hash, seen) = Harness::new(retain).run();
    println!("retain_data {retain}: {seen:?}");
    assert!(seen.fetch_parks > 100 && seen.flush_parks > 100, "{seen:?}");
    assert!(seen.dirty_evictions > 0, "no dirty block was evicted");
    assert!(seen.multi_block_commits > 0, "no commit flushed two blocks");
    assert!(
        seen.ctl_on_fetch_parked > 0 && seen.ctl_on_flush_parked > 0,
        "{seen:?}"
    );
    assert_eq!(seen.crashes, 1);
    assert!(seen.lost_at_crash > 0);
    hash
}

/// The backing reads `actions` asks for, as `(tag, obj, offset, len)`.
fn fetches(actions: &[SfAction]) -> Vec<(u64, u64, u64, u32)> {
    actions
        .iter()
        .filter_map(|a| match a {
            SfAction::BackingRead {
                tag,
                obj,
                offset,
                len,
                ..
            } => Some((*tag, *obj, *offset, *len)),
            _ => None,
        })
        .collect()
}

/// A READ parks on the fetch of a block; a WRITE that covers the block
/// executes first; the READ's fetch lands late with the bytes the backing
/// object still holds. The block's resident bytes are the WRITE's, and the
/// READ, which executes after the WRITE, must return them — a late fetch
/// that replaced them lost an acknowledged unstable WRITE.
#[test]
fn a_late_fetch_keeps_newer_resident_bytes() {
    let mut server = SmallFileServer::new(SmallFileConfig {
        server_id: 2,
        storage_sites: 1,
        cache_bytes: 64 * u64::from(SF_BLOCK),
        retain_data: true,
    });
    let mut backing = ObjectStore::new();
    let mut ms = 0u64;
    let mut tick = || {
        ms += 1;
        SimTime::ZERO + SimDuration::from_millis(ms)
    };
    let fh = Fhandle::new(7, 0, 0, 0, 0);
    let block = SF_BLOCK as usize;
    let write = |data: u8, stable| NfsRequest::Write {
        fh,
        offset: 0,
        stable,
        data: vec![data; block],
    };
    // Lay the block down stably: its map block is fetched first.
    let actions = server.handle_nfs(tick(), 1, write(b'a', StableHow::FileSync));
    for (tag, ..) in fetches(&actions) {
        let actions = server.handle_backing_done(tick(), tag, Some(vec![0; block]));
        for a in &actions {
            if let SfAction::BackingWrite {
                tag,
                obj,
                offset,
                data,
                ..
            } = a
            {
                backing.write(*obj, *offset, &data.to_vec());
                server.handle_backing_done(tick(), *tag, None);
            }
        }
    }
    // A restart empties the cache; the map comes back from the log.
    let wal = server.crash();
    let at = tick() + SimDuration::from_secs(1);
    server.recover(wal, at);
    // The READ parks on the map block and on the data block.
    let read = NfsRequest::Read {
        fh,
        offset: 0,
        count: 100,
    };
    let read_fetches = fetches(&server.handle_nfs(at, 2, read));
    assert_eq!(read_fetches.len(), 2, "{read_fetches:?}");
    // The WRITE covers the block, so it waits on the map block only, and
    // executes once that lands: unstable, so the backing object keeps 'a'.
    let write_fetches = fetches(&server.handle_nfs(at, 3, write(b'b', StableHow::Unstable)));
    assert_eq!(write_fetches.len(), 1, "{write_fetches:?}");
    let (tag, obj, offset, len) = write_fetches[0];
    let done = server.handle_backing_done(at, tag, Some(backing.read(obj, offset, len as usize).0));
    assert!(
        matches!(done[..], [SfAction::Reply { token: 3, .. }]),
        "{done:?}"
    );
    // The READ's fetches land late, carrying the older bytes.
    let mut replies = Vec::new();
    for (tag, obj, offset, len) in read_fetches {
        let data = backing.read(obj, offset, len as usize).0;
        replies.extend(server.handle_backing_done(at, tag, Some(data)));
    }
    let [SfAction::Reply { token: 2, reply }] = &replies[..] else {
        panic!("the READ did not reply once: {replies:?}");
    };
    let ReplyBody::Read { data, .. } = &reply.body else {
        panic!("READ answered with {reply:?}");
    };
    assert!(
        data.iter().all(|&b| b == b'b'),
        "the READ returned bytes the WRITE before it had replaced"
    );
}

// Both constants were re-pinned once when the mix stopped steering ops
// away from a file with a fetch in flight (a late fetch no longer
// replaces newer resident bytes): the mix changed, so the stream did.
// Re-pinned once more when the mix stopped steering around the fixed
// truncate replay and post-recovery allocator count: shrunk and recovered
// files now take every op after the crash.
#[test]
fn action_stream_is_pinned_retaining_data() {
    assert_eq!(
        stream(true),
        8339312523727803591,
        "retain-mode action stream changed"
    );
}

#[test]
fn action_stream_is_pinned_metadata_only() {
    assert_eq!(
        stream(false),
        14474109213804486018,
        "metadata-mode action stream changed"
    );
}
