//! A seeded request stream through one `StorageNode`'s public entry points
//! (`handle_nfs`, `read_encoded`, `write`, `handle_ctl`, `crash_restart`),
//! pinned as one FNV-1a over everything the node answers.
//!
//! The node's cache holds a few blocks — fewer than one prefetch run in
//! one configuration, a little more in the others — so the stream covers:
//!
//! * sequential reads that prefetch, and a read that waits on a block
//!   whose prefetch is still in flight;
//! * eviction of a block whose prefetch is still pending, and its later
//!   re-admission by a demand read or a write;
//! * unstable writes that accumulate into a cluster flush;
//! * COMMIT, and FILE_SYNC / DATA_SYNC writes that wait for the disk;
//! * `crash_restart`, `Remove` and `Truncate`;
//! * `ResyncRead` and `ResyncWrite`, and `Probe`.
//!
//! Every completion time, every reply (encoded as it goes on the wire),
//! the verifier, `cache_hit_ratio()` and `disk_stats()` after every step
//! are folded into [`PINNED`]. A change to which block is resident, when a
//! prefetched block may be consumed, or where a block lies on disk moves
//! it; a refactor of the node's tables leaves it alone. A retaining node's
//! answers are also held to a flat model of every object's bytes.

use std::collections::BTreeMap;

use slice_hashes::fnv::FNV_OFFSET;
use slice_hashes::fnv1a_continue;
use slice_nfsproto::{encode_reply, ByteBuf, Fhandle, NfsRequest, ReplyBody, StableHow, Windows};
use slice_sim::{Rng, SimDuration, SimTime};
use slice_storage::{
    StorageCtl, StorageCtlReply, StorageNode, StorageNodeConfig, PREFETCH_BYTES, STORAGE_BLOCK,
};

/// The hash of every configuration's stream, in order.
const PINNED: u64 = 6283119812976046657;

const OBJECTS: u64 = 6;
const STEPS: usize = 3_000;
/// Objects stay below this size, so a stream revisits its blocks.
const MAX_SIZE: u64 = 1 << 20;

fn fh(obj: u64) -> Fhandle {
    Fhandle::new(obj, 0, 0, 0, 0)
}

/// What the harness saw, so a weak stream fails loudly rather than
/// pinning a hash of nothing.
#[derive(Debug, Default)]
struct Seen {
    /// Reads whose completion lay after their arrival.
    waited_reads: u64,
    /// Reads served at arrival (every block resident and ready).
    instant_reads: u64,
    /// Unstable writes that submitted a cluster flush.
    cluster_flushes: u64,
    /// COMMITs that waited for the disk.
    waiting_commits: u64,
    crashes: u64,
    resyncs: u64,
}

struct Harness {
    node: StorageNode,
    /// Each object's bytes, for a retaining node.
    model: Option<BTreeMap<u64, Vec<u8>>>,
    hash: u64,
    xid: u32,
    seen: Seen,
}

impl Harness {
    fn new(cache_blocks: u64, retain_data: bool) -> Self {
        let config = StorageNodeConfig {
            disks: 2,
            channel_bps: 70_000_000.0,
            cache_bytes: cache_blocks * STORAGE_BLOCK,
            retain_data,
        };
        Harness {
            node: StorageNode::new(&config),
            model: retain_data.then(BTreeMap::new),
            hash: FNV_OFFSET,
            xid: 0,
            seen: Seen::default(),
        }
    }

    fn fold(&mut self, v: u64) {
        self.hash = fnv1a_continue(self.hash, &v.to_le_bytes());
    }

    fn fold_bytes(&mut self, bytes: &[u8]) {
        self.fold(bytes.len() as u64);
        self.hash = fnv1a_continue(self.hash, bytes);
    }

    /// Folds a step's completion time and the node's counters after it.
    fn fold_step(&mut self, done: SimTime) {
        self.fold(done.as_nanos());
        self.fold(self.node.verifier());
        self.fold(self.node.cache_hit_ratio().to_bits());
        let (reads, writes, bytes, seq) = self.node.disk_stats();
        for v in [reads, writes, bytes, seq] {
            self.fold(v);
        }
        let (a, b) = self.node.op_counts();
        self.fold(a);
        self.fold(b);
    }

    fn model_write(&mut self, obj: u64, offset: u64, data: &[u8]) {
        if let Some(model) = &mut self.model {
            let bytes = model.entry(obj).or_default();
            let end = (offset as usize) + data.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[offset as usize..end].copy_from_slice(data);
        }
    }

    /// The bytes a retaining node must answer for `len` at `offset`.
    fn expected(&self, obj: u64, offset: u64, len: usize) -> Option<Vec<u8>> {
        let model = self.model.as_ref()?;
        let bytes = model.get(&obj).map(Vec::as_slice).unwrap_or(&[]);
        let start = (offset as usize).min(bytes.len());
        let end = (start + len).min(bytes.len());
        Some(bytes[start..end].to_vec())
    }

    fn read(&mut self, now: SimTime, obj: u64, offset: u64, count: u32) -> SimTime {
        let req = NfsRequest::Read {
            fh: fh(obj),
            offset,
            count,
        };
        let (done, reply) = self.node.handle_nfs(now, &req);
        if let ReplyBody::Read { data, .. } = &reply.body {
            if let Some(want) = self.expected(obj, offset, data.len()) {
                assert_eq!(data, &want, "read of {obj} at {offset}");
            }
            assert_eq!(
                data.len() as u64,
                self.node
                    .store()
                    .size(obj)
                    .saturating_sub(offset)
                    .min(count as u64)
            );
        } else {
            panic!("READ answered {reply:?}");
        }
        let wire = encode_reply(self.xid, &reply);
        self.fold_bytes(&wire);
        self.note_read(now, done);
        done
    }

    fn read_encoded(&mut self, now: SimTime, obj: u64, offset: u64, count: u32) -> SimTime {
        self.xid += 1;
        let (done, mut payload, windows) =
            self.node
                .read_encoded(now, self.xid, &fh(obj), offset, count);
        payload.extend_from_slice(&windows.to_vec());
        self.fold_bytes(&payload);
        self.note_read(now, done);
        done
    }

    fn note_read(&mut self, now: SimTime, done: SimTime) {
        if done > now {
            self.seen.waited_reads += 1;
        } else {
            self.seen.instant_reads += 1;
        }
        self.fold_step(done);
    }

    fn write(&mut self, now: SimTime, obj: u64, offset: u64, data: Vec<u8>, stable: StableHow) {
        self.model_write(obj, offset, &data);
        let writes_before = self.node.disk_stats().1;
        self.xid += 1;
        // Half the writes arrive as a packet the store keeps a window of,
        // half as a decoded request whose bytes it copies.
        let (done, reply) = if self.xid.is_multiple_of(2) {
            let len = data.len();
            let mut packet = vec![0xa5; 40];
            packet.extend_from_slice(&data);
            let payload = ByteBuf::from_vec(packet);
            let window = Windows::from(payload.slice(40, len));
            self.node.write(now, &fh(obj), offset, stable, &window)
        } else {
            let req = NfsRequest::Write {
                fh: fh(obj),
                offset,
                stable,
                data,
            };
            self.node.handle_nfs(now, &req)
        };
        if stable == StableHow::Unstable {
            assert_eq!(done, now, "an unstable write is memory speed");
            if self.node.disk_stats().1 > writes_before {
                self.seen.cluster_flushes += 1;
            }
        }
        let wire = encode_reply(self.xid, &reply);
        self.fold_bytes(&wire);
        self.fold_step(done);
    }

    fn commit(&mut self, now: SimTime, obj: u64) {
        let req = NfsRequest::Commit {
            fh: fh(obj),
            offset: 0,
            count: 0,
        };
        let (done, reply) = self.node.handle_nfs(now, &req);
        if done > now {
            self.seen.waiting_commits += 1;
        }
        self.xid += 1;
        let wire = encode_reply(self.xid, &reply);
        self.fold_bytes(&wire);
        self.fold_step(done);
    }

    fn ctl(&mut self, now: SimTime, ctl: StorageCtl) -> StorageCtlReply {
        match &ctl {
            StorageCtl::Remove { obj, .. } => {
                if let Some(model) = &mut self.model {
                    model.remove(obj);
                }
            }
            StorageCtl::Truncate { obj, size, .. } => {
                if let Some(model) = &mut self.model {
                    model.entry(*obj).or_default().resize(*size as usize, 0);
                }
            }
            StorageCtl::ResyncWrite { obj, offset, data } => {
                let bytes: Vec<u8> = data.iter().flat_map(|w| w.iter().copied()).collect();
                self.model_write(*obj, *offset, &bytes);
            }
            StorageCtl::ResyncRead { .. } | StorageCtl::Probe { .. } => {}
        }
        let (done, reply) = self.node.handle_ctl(now, &ctl);
        match &reply {
            StorageCtlReply::Done { intent } => {
                self.fold(1);
                self.fold(*intent);
            }
            StorageCtlReply::ProbeResult { intent, completed } => {
                self.fold(2);
                self.fold(*intent);
                self.fold(*completed as u64);
            }
            StorageCtlReply::ResyncData { obj, offset, data } => {
                let bytes: Vec<u8> = data.iter().flat_map(|w| w.iter().copied()).collect();
                if let Some(want) = self.expected(*obj, *offset, bytes.len()) {
                    assert_eq!(bytes, want, "resync read of {obj} at {offset}");
                }
                self.fold(3);
                self.fold(*obj);
                self.fold(*offset);
                self.fold_bytes(&bytes);
            }
            StorageCtlReply::ResyncApplied { obj, offset } => {
                self.fold(4);
                self.fold(*obj);
                self.fold(*offset);
            }
        }
        self.fold_step(done);
        reply
    }

    fn crash(&mut self) {
        self.node.crash_restart();
        self.seen.crashes += 1;
        self.fold(5);
        self.fold_step(SimTime::ZERO);
    }
}

fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let seed = rng.next_u64();
    (0..len)
        .map(|i| (seed.rotate_left(i as u32 % 64) as u8) ^ i as u8)
        .collect()
}

/// A scripted opening: a file laid down stably, the cache emptied by a
/// restart, then one sequential read and its successor at once. The
/// successor's blocks were prefetched by the first read and are still on
/// their way from the disk, so it waits for them — and, when the cache is
/// smaller than one prefetch run, some of them were evicted while pending.
fn prelude(h: &mut Harness, mut now: SimTime) -> SimTime {
    let run = PREFETCH_BYTES as usize * 2;
    let data = vec![0x3c; run];
    h.write(now, 0, 0, data, StableHow::FileSync);
    now += SimDuration::from_secs(1);
    h.crash();
    let d0 = h.read(now, 0, 0, 32 * 1024);
    assert!(d0 > now, "a cold read waits for the disk");
    let d1 = h.read(d0, 0, 32 * 1024, 32 * 1024);
    assert!(d1 > d0, "the prefetched successor waits for its disk read");
    d1 + SimDuration::from_secs(1)
}

/// One seeded stream: per object, a read cursor and a write cursor that
/// mostly advance sequentially and sometimes jump.
fn stream(h: &mut Harness, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = prelude(h, SimTime::ZERO + SimDuration::from_secs(1));
    let mut read_at = [0u64; OBJECTS as usize];
    let mut write_at = [0u64; OBJECTS as usize];
    let mut intent = 100;
    for _ in 0..STEPS {
        // Steps closer together than one disk read, so prefetches are
        // often still in flight when their blocks are asked for.
        now += SimDuration::from_micros(rng.gen_range(0..4_000u64));
        let obj = rng.gen_range(0..OBJECTS);
        let o = obj as usize;
        match rng.gen_range(0..100u32) {
            0..=34 => {
                if rng.gen_bool(0.1) {
                    read_at[o] = rng.gen_range(0..MAX_SIZE / STORAGE_BLOCK) * STORAGE_BLOCK;
                }
                let count = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(1..20_000u32),
                    _ => 32 * 1024,
                };
                let offset = read_at[o];
                if rng.gen_bool(0.3) {
                    h.read_encoded(now, obj, offset, count);
                } else {
                    h.read(now, obj, offset, count);
                }
                read_at[o] = (offset + count as u64) % MAX_SIZE;
            }
            35..=69 => {
                if rng.gen_bool(0.1) {
                    write_at[o] = rng.gen_range(0..MAX_SIZE);
                }
                let len = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(1..12_000usize),
                    _ => 32 * 1024,
                };
                let stable = match rng.gen_range(0..10u32) {
                    0 => StableHow::FileSync,
                    1 => StableHow::DataSync,
                    _ => StableHow::Unstable,
                };
                let offset = write_at[o];
                let data = bytes(&mut rng, len);
                h.write(now, obj, offset, data, stable);
                write_at[o] = (offset + len as u64) % MAX_SIZE;
            }
            70..=72 => h.commit(now, obj),
            73..=74 => {
                intent += 1;
                h.ctl(now, StorageCtl::Remove { obj, intent });
                read_at[o] = 0;
                write_at[o] = 0;
            }
            75..=77 => {
                intent += 1;
                let size = rng.gen_range(0..MAX_SIZE);
                h.ctl(now, StorageCtl::Truncate { obj, size, intent });
            }
            78..=84 => {
                let offset = rng.gen_range(0..MAX_SIZE / STORAGE_BLOCK) * STORAGE_BLOCK;
                let len = rng.gen_range(1..64 * 1024u64);
                h.ctl(now, StorageCtl::ResyncRead { obj, offset, len });
                h.seen.resyncs += 1;
            }
            85..=91 => {
                let offset = rng.gen_range(0..MAX_SIZE);
                let len = rng.gen_range(1..40_000usize);
                let mut data = Windows::default();
                let head = len / 3;
                data.push(ByteBuf::from_vec(bytes(&mut rng, head)));
                data.push_zeros(len / 3);
                data.push(ByteBuf::from_vec(bytes(&mut rng, len - head - len / 3)));
                h.ctl(now, StorageCtl::ResyncWrite { obj, offset, data });
                h.seen.resyncs += 1;
            }
            92..=96 => {
                let probed = rng.gen_range(100..intent + 2);
                h.ctl(now, StorageCtl::Probe { intent: probed });
            }
            _ => {
                if rng.gen_bool(0.3) {
                    h.crash();
                }
            }
        }
    }
}

/// (cache blocks, retain data): smaller than one prefetch run, and a
/// little larger, retaining and metadata-only.
const CONFIGS: [(u64, bool); 3] = [(5, true), (40, true), (40, false)];

#[test]
fn node_stream_is_pinned() {
    let mut hash = FNV_OFFSET;
    for (i, (cache_blocks, retain)) in CONFIGS.into_iter().enumerate() {
        let mut h = Harness::new(cache_blocks, retain);
        stream(&mut h, 0x5107 + i as u64);
        let seen = &h.seen;
        assert!(
            seen.waited_reads > 100
                && seen.instant_reads > 5
                && seen.cluster_flushes > 10
                && seen.waiting_commits > 10
                && seen.crashes > 2
                && seen.resyncs > 100,
            "weak coverage in config {i}: {seen:?}"
        );
        hash = fnv1a_continue(hash, &h.hash.to_le_bytes());
    }
    assert_eq!(hash, PINNED, "node stream moved: {hash}");
}
