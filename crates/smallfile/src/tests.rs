//! Tests for the small-file server state machine. The backing storage
//! array is emulated inline: `BackingRead`/`BackingWrite` actions are
//! resolved against an [`ObjectStore`] and fed back as completions.

use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, StableHow};
use slice_sim::{SimDuration, SimTime};
use slice_storage::ObjectStore;

use crate::server::*;

fn fh(id: u64) -> Fhandle {
    Fhandle::new(id, 0, 0, 0, 0)
}

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Drives the server against an in-memory backing store until the reply
/// for `token` appears; panics if the op never completes.
struct Harness {
    server: SmallFileServer,
    backing: ObjectStore,
}

impl Harness {
    fn new(sites: u32) -> Self {
        Harness {
            server: SmallFileServer::new(SmallFileConfig {
                server_id: 1,
                storage_sites: sites,
                cache_bytes: 1 << 20,
                retain_data: true,
            }),
            backing: ObjectStore::new(),
        }
    }

    fn resolve(&mut self, now: SimTime, actions: Vec<SfAction>) -> Vec<(u64, NfsReply)> {
        let mut replies = Vec::new();
        let mut queue = actions;
        let mut steps = 0;
        while let Some(action) = queue.pop() {
            steps += 1;
            assert!(steps < 10_000, "runaway action loop");
            match action {
                SfAction::Reply { token, reply } => replies.push((token, reply)),
                SfAction::BackingRead {
                    tag,
                    obj,
                    offset,
                    len,
                    ..
                } => {
                    let (data, _) = self.backing.read(obj, offset, len as usize);
                    queue.extend(self.server.handle_backing_done(now, tag, Some(data)));
                }
                SfAction::BackingWrite {
                    tag,
                    obj,
                    offset,
                    data,
                    ..
                } => {
                    self.backing.write(obj, offset, &data);
                    if tag != 0 {
                        queue.extend(self.server.handle_backing_done(now, tag, None));
                    }
                }
            }
        }
        replies
    }

    fn run(&mut self, now: SimTime, token: u64, req: NfsRequest) -> NfsReply {
        let actions = self.server.handle_nfs(now, token, req);
        let replies = self.resolve(now, actions);
        assert_eq!(replies.len(), 1, "expected exactly one reply");
        assert_eq!(replies[0].0, token);
        replies[0].1.clone()
    }
}

#[test]
fn write_then_read_roundtrip() {
    let mut h = Harness::new(2);
    let reply = h.run(
        t(1),
        10,
        NfsRequest::Write {
            fh: fh(100),
            offset: 0,
            stable: StableHow::FileSync,
            data: b"small file contents".to_vec(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert!(matches!(reply.body, ReplyBody::Write { count: 19, .. }));
    let reply = h.run(
        t(2),
        11,
        NfsRequest::Read {
            fh: fh(100),
            offset: 0,
            count: 19,
        },
    );
    match reply.body {
        ReplyBody::Read { data, eof } => {
            assert_eq!(&data, b"small file contents");
            assert!(eof);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Attributes carry the local size.
    assert_eq!(reply.attr.unwrap().size, 19);
}

#[test]
fn paper_example_physical_layout() {
    // An 8300-byte file consumes 8192 + 128 = 8320 physical bytes.
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(5),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![7u8; 8300],
        },
    );
    let (allocated, _) = h.server.alloc_stats();
    assert_eq!(allocated, 8320);
    let map = h.server.map_of(5).unwrap();
    assert_eq!(map.size, 8300);
    assert_eq!(map.extents[0].unwrap().bytes, 8192);
    assert_eq!(map.extents[1].unwrap().bytes, 108);
    assert_eq!(map.extents[1].unwrap().region.frag, 128);
}

#[test]
fn unstable_write_and_commit() {
    let mut h = Harness::new(1);
    let reply = h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(9),
            offset: 0,
            stable: StableHow::Unstable,
            data: vec![3u8; 4000],
        },
    );
    assert!(matches!(
        reply.body,
        ReplyBody::Write {
            committed: StableHow::Unstable,
            ..
        }
    ));
    // Nothing reached backing yet.
    assert_eq!(h.backing.bytes_used(), 0);
    let reply = h.run(
        t(2),
        2,
        NfsRequest::Commit {
            fh: fh(9),
            offset: 0,
            count: 0,
        },
    );
    assert!(matches!(reply.body, ReplyBody::Commit { .. }));
    assert!(
        h.backing.bytes_used() >= 4000,
        "commit must flush to backing"
    );
}

#[test]
fn read_miss_fetches_from_backing() {
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(20),
            offset: 0,
            stable: StableHow::FileSync,
            data: b"persistent".to_vec(),
        },
    );
    // Crash volatile state; recovery rebuilds the map from the WAL.
    let wal = h.server.crash();
    h.server.recover(wal, t(1000));
    let reply = h.run(
        t(2000),
        2,
        NfsRequest::Read {
            fh: fh(20),
            offset: 0,
            count: 10,
        },
    );
    match reply.body {
        ReplyBody::Read { data, .. } => assert_eq!(&data, b"persistent"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn partial_overwrite_read_modify_write() {
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(30),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![b'a'; 1000],
        },
    );
    // Evict everything, then partially overwrite: the server must fetch
    // the old block first.
    let wal = h.server.crash();
    h.server.recover(wal, t(500));
    h.run(
        t(600),
        2,
        NfsRequest::Write {
            fh: fh(30),
            offset: 500,
            stable: StableHow::FileSync,
            data: vec![b'B'; 100],
        },
    );
    let reply = h.run(
        t(700),
        3,
        NfsRequest::Read {
            fh: fh(30),
            offset: 0,
            count: 1000,
        },
    );
    match reply.body {
        ReplyBody::Read { data, .. } => {
            assert!(data[..500].iter().all(|&b| b == b'a'));
            assert!(data[500..600].iter().all(|&b| b == b'B'));
            assert!(data[600..].iter().all(|&b| b == b'a'));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn growth_reallocates_larger_fragment() {
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(40),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![1u8; 100], // 128-byte fragment
        },
    );
    let frag_before = h.server.map_of(40).unwrap().extents[0].unwrap().region.frag;
    assert_eq!(frag_before, 128);
    h.run(
        t(2),
        2,
        NfsRequest::Write {
            fh: fh(40),
            offset: 100,
            stable: StableHow::FileSync,
            data: vec![2u8; 400], // grows block to 500 bytes -> 512 fragment
        },
    );
    let ext = h.server.map_of(40).unwrap().extents[0].unwrap();
    assert_eq!(ext.region.frag, 512);
    assert_eq!(ext.bytes, 500);
    // The freed 128-byte fragment is reusable.
    let (_, free) = h.server.alloc_stats();
    assert_eq!(free, 128);
}

#[test]
fn remove_frees_storage() {
    let mut h = Harness::new(2);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(50),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![1u8; 10_000],
        },
    );
    let (allocated, _) = h.server.alloc_stats();
    assert!(allocated > 0);
    h.server.handle_ctl(t(2), &SfCtl::Remove { file: 50 });
    let (allocated, free) = h.server.alloc_stats();
    assert_eq!(allocated, 0);
    assert!(free >= 10_000);
    assert!(h.server.map_of(50).is_none());
    let reply = h.run(
        t(3),
        2,
        NfsRequest::Read {
            fh: fh(50),
            offset: 0,
            count: 100,
        },
    );
    match reply.body {
        ReplyBody::Read { data, eof } => {
            assert!(data.is_empty());
            assert!(eof);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn truncate_trims_extents() {
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(60),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![9u8; 20_000], // blocks 0,1,2
        },
    );
    h.server.handle_ctl(
        t(2),
        &SfCtl::Truncate {
            file: 60,
            size: 9000,
        },
    );
    let map = h.server.map_of(60).unwrap();
    assert_eq!(map.size, 9000);
    assert!(map.extents[0].is_some());
    assert_eq!(map.extents[1].unwrap().bytes, 9000 - 8192);
    assert!(map.extents[2].is_none());
}

/// Defect 1(ii): replaying a truncate shortens the extent the new end
/// falls in, as the live truncate did — or a write that extends the file
/// after a crash fetches the cut bytes back in.
#[test]
fn truncate_then_crash_then_extending_write_reads_zeros() {
    let mut h = Harness::new(1);
    let write = |offset, data| NfsRequest::Write {
        fh: fh(61),
        offset,
        stable: StableHow::FileSync,
        data,
    };
    h.run(t(1), 1, write(0, vec![b'a'; 1000]));
    h.server.handle_ctl(
        t(2),
        &SfCtl::Truncate {
            file: 61,
            size: 100,
        },
    );
    let wal = h.server.crash();
    h.server.recover(wal, t(500));
    assert_eq!(h.server.map_of(61).unwrap().extents[0].unwrap().bytes, 100);
    h.run(t(600), 2, write(500, vec![b'B'; 100]));
    let read = NfsRequest::Read {
        fh: fh(61),
        offset: 0,
        count: 600,
    };
    match h.run(t(700), 3, read).body {
        ReplyBody::Read { data, .. } => {
            assert_eq!(&data[..100], &[b'a'; 100][..]);
            assert!(
                data[100..500].iter().all(|&b| b == 0),
                "cut bytes came back"
            );
            assert_eq!(&data[500..], &[b'B'; 100][..]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Defect 1(iii): the extents a recovery replays are allocated bytes
/// again, so freeing one afterwards has something to subtract from.
#[test]
fn recovery_restores_the_allocators_byte_count() {
    let mut h = Harness::new(2);
    let write = |file, len| NfsRequest::Write {
        fh: fh(file),
        offset: 0,
        stable: StableHow::FileSync,
        data: vec![7u8; len],
    };
    h.run(t(1), 1, write(80, 9000));
    h.run(t(2), 2, write(81, 100));
    h.server.handle_ctl(t(3), &SfCtl::Remove { file: 81 });
    let live = h.server.alloc_stats().0;
    assert_eq!(live, 8192 + 1024);
    let wal = h.server.crash();
    h.server.recover(wal, t(1000));
    assert_eq!(
        h.server.alloc_stats().0,
        live,
        "what the maps name is allocated"
    );
    h.server.handle_ctl(t(2000), &SfCtl::Remove { file: 80 });
    assert_eq!(h.server.alloc_stats().0, 0);
}

#[test]
fn verifier_changes_on_crash() {
    let mut h = Harness::new(1);
    let v1 = h.server.verifier();
    let wal = h.server.crash();
    h.server.recover(wal, t(0));
    assert_ne!(h.server.verifier(), v1);
}

#[test]
fn recovery_drops_nondurable_updates() {
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(70),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![1u8; 100],
        },
    );
    // Crash "before" the WAL write became durable: recover at time zero.
    let wal = h.server.crash();
    h.server.recover(wal, SimTime::ZERO);
    assert!(
        h.server.map_of(70).is_none(),
        "non-durable map update must vanish"
    );
}

#[test]
fn misrouted_op_rejected() {
    let mut h = Harness::new(1);
    let reply = h.run(t(1), 1, NfsRequest::Getattr { fh: fh(1) });
    assert_eq!(reply.status, NfsStatus::NotSupp);
}

#[test]
fn create_heavy_layout_is_sequential() {
    // Batched small creates append tightly packed into zone objects.
    let mut h = Harness::new(1);
    for i in 0..50u64 {
        h.run(
            t(i),
            i,
            NfsRequest::Write {
                fh: fh(1000 + i),
                offset: 0,
                stable: StableHow::FileSync,
                data: vec![i as u8; 2000], // 2048-byte fragments
            },
        );
    }
    let (allocated, free) = h.server.alloc_stats();
    assert_eq!(allocated, 50 * 2048);
    assert_eq!(free, 0);
    // Offsets are consecutive within the zone.
    let mut offsets: Vec<u64> = (0..50)
        .map(|i| {
            h.server.map_of(1000 + i).unwrap().extents[0]
                .unwrap()
                .region
                .offset
        })
        .collect();
    offsets.sort_unstable();
    for (i, off) in offsets.iter().enumerate() {
        assert_eq!(*off, i as u64 * 2048);
    }
}

/// A request that reaches past the threshold is refused whole: nothing is
/// allocated, mapped or logged for it.
fn assert_refused(h: &mut Harness, token: u64, req: NfsRequest) {
    let reply = h.run(t(token), token, req);
    assert_eq!(reply.status, NfsStatus::Inval);
    assert!(
        h.server.map_of(80).is_none(),
        "a refused request left a map"
    );
    assert_eq!(h.server.alloc_stats(), (0, 0));
    assert_eq!(h.server.served(), 0);
}

#[test]
fn write_far_past_threshold_is_refused() {
    // Block index 259 used to be cast to `u8` before it was clamped: it
    // aliased block 3 and the copy into the block's content panicked.
    let mut h = Harness::new(1);
    assert_refused(
        &mut h,
        1,
        NfsRequest::Write {
            fh: fh(80),
            offset: 2 * 1024 * 1024 + 24 * 1024,
            stable: StableHow::FileSync,
            data: vec![5u8; 100],
        },
    );
    assert_refused(
        &mut h,
        2,
        NfsRequest::Read {
            fh: fh(80),
            offset: u64::MAX - 10,
            count: 100,
        },
    );
}

#[test]
fn write_just_past_threshold_is_refused() {
    // Used to answer `Ok`, store nothing, and leave the local size at
    // 102,500 with no extent under it.
    let mut h = Harness::new(1);
    assert_refused(
        &mut h,
        1,
        NfsRequest::Write {
            fh: fh(80),
            offset: 100 * 1024,
            stable: StableHow::FileSync,
            data: vec![5u8; 100],
        },
    );
    // The last byte below the threshold is still served; one more is not.
    assert_refused(
        &mut h,
        2,
        NfsRequest::Write {
            fh: fh(80),
            offset: SF_THRESHOLD - 99,
            stable: StableHow::FileSync,
            data: vec![5u8; 100],
        },
    );
    let reply = h.run(
        t(3),
        3,
        NfsRequest::Write {
            fh: fh(80),
            offset: SF_THRESHOLD - 100,
            stable: StableHow::FileSync,
            data: vec![5u8; 100],
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(h.server.map_of(80).unwrap().size, SF_THRESHOLD);
}

#[test]
fn truncate_above_4gib_keeps_small_file_bytes() {
    // The bytes a block keeps were computed through `as u32`: growing a
    // file to 4 GiB + 5 cut its first block to 5 bytes.
    let mut h = Harness::new(1);
    h.run(
        t(1),
        1,
        NfsRequest::Write {
            fh: fh(90),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![6u8; 100],
        },
    );
    h.server.handle_ctl(
        t(2),
        &SfCtl::Truncate {
            file: 90,
            size: (1 << 32) + 5,
        },
    );
    assert_eq!(h.server.map_of(90).unwrap().extents[0].unwrap().bytes, 100);
    let reply = h.run(
        t(3),
        2,
        NfsRequest::Read {
            fh: fh(90),
            offset: 0,
            count: 100,
        },
    );
    match reply.body {
        ReplyBody::Read { data, .. } => assert_eq!(data, vec![6u8; 100]),
        other => panic!("unexpected {other:?}"),
    }
}
