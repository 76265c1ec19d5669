//! Directory-service tests: a multi-site harness delivers the peer
//! protocol between `DirServer` instances instantly and collects client
//! replies and data-management side effects.

use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3};
use slice_sim::time::{SimDuration, SimTime};

use crate::server::{DirAction, DirServer, DirServerConfig};
use slice_hashes::NamePolicy;

const MKDIR_SWITCHING: NamePolicy = NamePolicy::MkdirSwitching { redirect_millis: 0 };

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

struct Cluster {
    sites: Vec<DirServer>,
    policy: NamePolicy,
    replies: Vec<(u64, NfsReply)>,
    data_removes: Vec<u64>,
    data_truncates: Vec<(u64, u64)>,
}

impl Cluster {
    fn new(n: u32, policy: NamePolicy) -> Self {
        Cluster {
            sites: (0..n)
                .map(|site| {
                    DirServer::new(DirServerConfig {
                        site,
                        sites: n,
                        policy,
                        clock_skew: SimDuration::ZERO,
                        wal_group_commit: true,
                        default_mapped: false,
                    })
                })
                .collect(),
            policy,
            replies: Vec::new(),
            data_removes: Vec::new(),
            data_truncates: Vec::new(),
        }
    }

    fn dispatch(&mut self, now: SimTime, from_site: u32, actions: Vec<DirAction>) {
        for action in actions {
            match action {
                DirAction::Reply { token, reply, .. } => self.replies.push((token, reply)),
                DirAction::Peer { site, msg } => {
                    let more = self.sites[site as usize].handle_peer(now, from_site, msg);
                    self.dispatch(now, site, more);
                }
                DirAction::DataRemove { file } => self.data_removes.push(file),
                DirAction::DataTruncate { file, size } => self.data_truncates.push((file, size)),
            }
        }
    }

    fn run(&mut self, now: SimTime, site: u32, token: u64, req: NfsRequest) -> NfsReply {
        let actions = self.sites[site as usize].handle_nfs(now, token, &req);
        self.dispatch(now, site, actions);
        let pos = self
            .replies
            .iter()
            .position(|(tk, _)| *tk == token)
            .unwrap_or_else(|| panic!("no reply for token {token} ({req:?})"));
        self.replies.remove(pos).1
    }

    /// Routes like the µproxy would: name ops to the policy site, handle
    /// ops to the home site.
    fn route_site(&self, req: &NfsRequest) -> u32 {
        let n = self.sites.len();
        let by_name = |dir: &Fhandle, name: &str| match self.policy {
            NamePolicy::MkdirSwitching { .. } => dir.home_site(),
            NamePolicy::NameHashing => slice_hashes::default_site_of(
                slice_hashes::name_fingerprint(&dir.0, name.as_bytes()),
                n,
            ) as u32,
        };
        match req {
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name, .. }
            | NfsRequest::Mkdir { dir, name, .. }
            | NfsRequest::Symlink { dir, name, .. }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Rmdir { dir, name } => by_name(dir, name),
            NfsRequest::Rename {
                from_dir,
                from_name,
                ..
            } => by_name(from_dir, from_name),
            NfsRequest::Link { dir, name, .. } => by_name(dir, name),
            NfsRequest::Getattr { fh }
            | NfsRequest::Setattr { fh, .. }
            | NfsRequest::Access { fh, .. }
            | NfsRequest::Readlink { fh } => fh.home_site(),
            NfsRequest::Readdir { dir, cookie, .. }
            | NfsRequest::Readdirplus { dir, cookie, .. } => match self.policy {
                NamePolicy::MkdirSwitching { .. } => dir.home_site(),
                NamePolicy::NameHashing => slice_hashes::routing::split_cookie(*cookie).0,
            },
            _ => 0,
        }
    }

    /// The site a name under the root routes to.
    fn name_site(&self, name: &str) -> u32 {
        self.route_site(&NfsRequest::Lookup {
            dir: Fhandle::root(),
            name: name.into(),
        })
    }

    fn auto(&mut self, now: SimTime, token: u64, req: NfsRequest) -> NfsReply {
        let site = self.route_site(&req);
        self.run(now, site, token, req)
    }

    fn create(&mut self, now: SimTime, dir: &Fhandle, name: &str) -> Fhandle {
        let reply = self.auto(
            now,
            9_000_000 + now.as_nanos(),
            NfsRequest::Create {
                dir: *dir,
                name: name.into(),
                attr: Sattr3::default(),
            },
        );
        assert_eq!(reply.status, NfsStatus::Ok, "create {name}");
        match reply.body {
            ReplyBody::Create { fh: Some(fh) } => fh,
            other => panic!("unexpected create body {other:?}"),
        }
    }

    fn mkdir(&mut self, now: SimTime, dir: &Fhandle, name: &str) -> Fhandle {
        let reply = self.auto(
            now,
            7_000_000 + now.as_nanos(),
            NfsRequest::Mkdir {
                dir: *dir,
                name: name.into(),
                attr: Sattr3::default(),
            },
        );
        assert_eq!(reply.status, NfsStatus::Ok, "mkdir {name}");
        match reply.body {
            ReplyBody::Create { fh: Some(fh) } => fh,
            other => panic!("unexpected mkdir body {other:?}"),
        }
    }

    fn lookup(&mut self, now: SimTime, dir: &Fhandle, name: &str) -> NfsReply {
        self.auto(
            now,
            5_000_000 + now.as_nanos(),
            NfsRequest::Lookup {
                dir: *dir,
                name: name.into(),
            },
        )
    }
}

#[test]
fn single_site_create_lookup_remove() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let fh = c.create(t(1), &root, "hello.txt");
    assert!(!fh.is_dir());
    let reply = c.lookup(t(2), &root, "hello.txt");
    assert_eq!(reply.status, NfsStatus::Ok);
    match reply.body {
        ReplyBody::Lookup { fh: got, dir_attr } => {
            assert_eq!(got, fh);
            assert!(dir_attr.is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Parent mtime and entry count moved.
    let root_attr = c.sites[0].attr_of(1).unwrap();
    assert!(root_attr.mtime.as_nanos() > 0);
    let reply = c.auto(
        t(3),
        1,
        NfsRequest::Remove {
            dir: root,
            name: "hello.txt".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.data_removes, vec![fh.file_id()]);
    let reply = c.lookup(t(4), &root, "hello.txt");
    assert_eq!(reply.status, NfsStatus::NoEnt);
}

#[test]
fn duplicate_create_is_exist() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    c.create(t(1), &root, "x");
    let reply = c.auto(
        t(2),
        1,
        NfsRequest::Create {
            dir: root,
            name: "x".into(),
            attr: Sattr3::default(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Exist);
}

#[test]
fn mkdir_rmdir_with_nlink() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let d = c.mkdir(t(1), &root, "sub");
    assert!(d.is_dir());
    assert_eq!(c.sites[0].attr_of(1).unwrap().nlink, 3); // root gained a subdir
                                                         // Non-empty rmdir fails.
    c.create(t(2), &d, "inner");
    let reply = c.auto(
        t(3),
        1,
        NfsRequest::Rmdir {
            dir: root,
            name: "sub".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::NotEmpty);
    // Empty it, then rmdir succeeds.
    let reply = c.auto(
        t(4),
        2,
        NfsRequest::Remove {
            dir: d,
            name: "inner".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    let reply = c.auto(
        t(5),
        3,
        NfsRequest::Rmdir {
            dir: root,
            name: "sub".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.sites[0].attr_of(1).unwrap().nlink, 2);
    assert!(c.sites[0].attr_of(d.file_id()).is_none());
}

#[test]
fn rename_within_and_across_dirs() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let d1 = c.mkdir(t(1), &root, "a");
    let d2 = c.mkdir(t(2), &root, "b");
    let f = c.create(t(3), &d1, "file");
    let reply = c.auto(
        t(4),
        1,
        NfsRequest::Rename {
            from_dir: d1,
            from_name: "file".into(),
            to_dir: d2,
            to_name: "moved".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.lookup(t(5), &d1, "file").status, NfsStatus::NoEnt);
    let got = c.lookup(t(6), &d2, "moved");
    assert_eq!(got.status, NfsStatus::Ok);
    match got.body {
        ReplyBody::Lookup { fh, .. } => assert_eq!(fh.file_id(), f.file_id()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn rename_replaces_and_unlinks_target() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let victim = c.create(t(1), &root, "target");
    c.create(t(2), &root, "source");
    let reply = c.auto(
        t(3),
        1,
        NfsRequest::Rename {
            from_dir: root,
            from_name: "source".into(),
            to_dir: root,
            to_name: "target".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert!(
        c.data_removes.contains(&victim.file_id()),
        "displaced file must lose its data"
    );
}

#[test]
fn rename_onto_itself_is_a_noop() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let f = c.create(t(1), &root, "same");
    let reply = c.auto(
        t(2),
        1,
        NfsRequest::Rename {
            from_dir: root,
            from_name: "same".into(),
            to_dir: root,
            to_name: "same".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert!(
        c.data_removes.is_empty(),
        "self-rename must not destroy data"
    );
    let got = c.lookup(t(3), &root, "same");
    assert_eq!(got.status, NfsStatus::Ok);
    match got.body {
        ReplyBody::Lookup { fh, .. } => assert_eq!(fh.file_id(), f.file_id()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn hard_links_share_attrs() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let f = c.create(t(1), &root, "orig");
    let reply = c.auto(
        t(2),
        1,
        NfsRequest::Link {
            fh: f,
            dir: root,
            name: "alias".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(reply.attr.unwrap().nlink, 2);
    // Removing one name keeps the data; removing both removes it.
    c.auto(
        t(3),
        2,
        NfsRequest::Remove {
            dir: root,
            name: "orig".into(),
        },
    );
    assert!(c.data_removes.is_empty());
    c.auto(
        t(4),
        3,
        NfsRequest::Remove {
            dir: root,
            name: "alias".into(),
        },
    );
    assert_eq!(c.data_removes, vec![f.file_id()]);
}

#[test]
fn symlink_and_readlink() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let reply = c.auto(
        t(1),
        1,
        NfsRequest::Symlink {
            dir: root,
            name: "ln".into(),
            target: "../elsewhere".into(),
            attr: Sattr3::default(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    let fh = match reply.body {
        ReplyBody::Create { fh: Some(fh) } => fh,
        other => panic!("unexpected {other:?}"),
    };
    assert!(fh.is_symlink());
    let reply = c.auto(t(2), 2, NfsRequest::Readlink { fh });
    match reply.body {
        ReplyBody::Readlink { target } => assert_eq!(target, "../elsewhere"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn setattr_truncate_triggers_data_truncate() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let f = c.create(t(1), &root, "grow");
    // Grow via a µproxy attribute write-back — these always carry explicit
    // client timestamps — so no data action is required.
    let reply = c.auto(
        t(2),
        1,
        NfsRequest::Setattr {
            fh: f,
            attr: Sattr3 {
                size: Some(100_000),
                mtime: slice_nfsproto::SetTime::Client(slice_nfsproto::NfsTime {
                    secs: 2,
                    nsecs: 0,
                }),
                ..Default::default()
            },
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(reply.attr.unwrap().size, 100_000);
    assert!(c.data_truncates.is_empty());
    // Shrink: data truncate required.
    c.auto(
        t(3),
        2,
        NfsRequest::Setattr {
            fh: f,
            attr: Sattr3 {
                size: Some(10),
                ..Default::default()
            },
        },
    );
    assert_eq!(c.data_truncates, vec![(f.file_id(), 10)]);
}

#[test]
fn readdir_lists_local_entries() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    for i in 0..10 {
        c.create(t(i), &root, &format!("f{i}"));
    }
    let reply = c.auto(
        t(20),
        1,
        NfsRequest::Readdir {
            dir: root,
            cookie: 0,
            cookieverf: 0,
            count: 65536,
        },
    );
    match reply.body {
        ReplyBody::Readdir { entries, eof, .. } => {
            assert!(eof);
            let mut names: Vec<String> = entries.into_iter().map(|e| e.name).collect();
            names.sort();
            assert_eq!(names, (0..10).map(|i| format!("f{i}")).collect::<Vec<_>>());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn readdir_paginates_with_cookies() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    for i in 0..30 {
        c.create(t(i), &root, &format!("f{i:02}"));
    }
    let mut cookie = 0;
    let mut seen = Vec::new();
    loop {
        let reply = c.auto(
            t(100),
            1,
            NfsRequest::Readdir {
                dir: root,
                cookie,
                cookieverf: 0,
                count: 320,
            },
        );
        match reply.body {
            ReplyBody::Readdir { entries, eof, .. } => {
                assert!(!entries.is_empty() || eof);
                for e in &entries {
                    seen.push(e.name.clone());
                    cookie = e.cookie;
                }
                if eof {
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    seen.sort();
    seen.dedup();
    assert_eq!(
        seen.len(),
        30,
        "pagination must cover every entry exactly once"
    );
}

#[test]
fn orphan_mkdir_crosses_sites() {
    // Site 1 receives a redirected mkdir whose parent (root) lives on
    // site 0: entry goes to site 0, attr cell stays on site 1.
    let mut c = Cluster::new(2, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let actions = c.sites[1].handle_nfs(
        t(1),
        42,
        &NfsRequest::Mkdir {
            dir: root,
            name: "orphan".into(),
            attr: Sattr3::default(),
        },
    );
    c.dispatch(t(1), 1, actions);
    let (_, reply) = c.replies.pop().expect("mkdir reply");
    assert_eq!(reply.status, NfsStatus::Ok);
    let fh = match reply.body {
        ReplyBody::Create { fh: Some(fh) } => fh,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        fh.home_site(),
        1,
        "orphan directory lives on the redirect site"
    );
    // The name entry is at site 0 (parent home): lookup routed there finds it.
    let got = c.run(
        t(2),
        0,
        43,
        NfsRequest::Lookup {
            dir: root,
            name: "orphan".into(),
        },
    );
    assert_eq!(got.status, NfsStatus::Ok);
    assert!(got.attr.is_some(), "cross-site getattr fills attributes");
    // Root picked up the link count for the new subdir.
    assert_eq!(c.sites[0].attr_of(1).unwrap().nlink, 3);
    // Ops under the orphan go to site 1 and stay local there.
    let inner = c.run(
        t(3),
        1,
        44,
        NfsRequest::Create {
            dir: fh,
            name: "deep".into(),
            attr: Sattr3::default(),
        },
    );
    assert_eq!(inner.status, NfsStatus::Ok);
    assert_eq!(
        c.sites[1].multisite_ops(),
        1,
        "only the orphan mkdir crossed sites"
    );
}

#[test]
fn name_hashing_spreads_entries() {
    let mut c = Cluster::new(4, NamePolicy::NameHashing);
    let root = Fhandle::root();
    for i in 0..64 {
        c.create(t(i), &root, &format!("spread{i}"));
    }
    let counts: Vec<usize> = c.sites.iter().map(|s| s.name_cells()).collect();
    assert!(
        counts.iter().all(|&n| n > 4),
        "entries should spread: {counts:?}"
    );
    assert_eq!(counts.iter().sum::<usize>(), 64);
    // Every file is still reachable.
    for i in 0..64 {
        let got = c.lookup(t(100 + i), &root, &format!("spread{i}"));
        assert_eq!(got.status, NfsStatus::Ok, "spread{i}");
    }
}

#[test]
fn name_hashing_readdir_chains_sites() {
    let mut c = Cluster::new(3, NamePolicy::NameHashing);
    let root = Fhandle::root();
    for i in 0..40 {
        c.create(t(i), &root, &format!("e{i:02}"));
    }
    let mut cookie = 0u64;
    let mut names = Vec::new();
    for _ in 0..200 {
        let site = slice_hashes::routing::split_cookie(cookie).0;
        let reply = c.run(
            t(500),
            site,
            90_000 + cookie,
            NfsRequest::Readdir {
                dir: root,
                cookie,
                cookieverf: 0,
                count: 4096,
            },
        );
        match reply.body {
            ReplyBody::Readdir { entries, eof, .. } => {
                for e in &entries {
                    if !e.name.is_empty() {
                        names.push(e.name.clone());
                    }
                    cookie = e.cookie;
                }
                if entries.is_empty() && !eof {
                    panic!("empty non-eof page without continuation marker");
                }
                if eof {
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 40, "chained readdir must see all entries");
}

#[test]
fn name_hashing_remove_crosses_sites_for_linkcount() {
    let mut c = Cluster::new(4, NamePolicy::NameHashing);
    let root = Fhandle::root();
    let fh = c.create(t(1), &root, "far-file");
    let reply = c.auto(
        t(2),
        1,
        NfsRequest::Remove {
            dir: root,
            name: "far-file".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.data_removes, vec![fh.file_id()]);
    // The attribute cell is gone from its home site.
    assert!(c.sites[fh.home_site() as usize]
        .attr_of(fh.file_id())
        .is_none());
}

#[test]
fn cross_site_rename_over_existing_removes_displaced_data() {
    // The rename runs at the source name's site; the displaced child's
    // name and attribute cells both live at the target name's site, so
    // the last link goes through InsertEntry and then LinkDelta.
    let mut c = Cluster::new(4, NamePolicy::NameHashing);
    let root = Fhandle::root();
    let src = "src0";
    let dst = (0..)
        .map(|i| format!("dst{i}"))
        .find(|d| c.name_site(d) != c.name_site(src))
        .unwrap();
    let moved = c.create(t(1), &root, src);
    let victim = c.create(t(2), &root, &dst);
    assert_ne!(victim.home_site(), c.name_site(src));
    let reply = c.auto(
        t(3),
        1,
        NfsRequest::Rename {
            from_dir: root,
            from_name: src.into(),
            to_dir: root,
            to_name: dst.clone(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.data_removes, vec![victim.file_id()]);
    assert!(c.sites[victim.home_site() as usize]
        .attr_of(victim.file_id())
        .is_none());
    match c.lookup(t(4), &root, &dst).body {
        ReplyBody::Lookup { fh, .. } => assert_eq!(fh.file_id(), moved.file_id()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn remote_rmdir_of_nonempty_dir_leaves_parent_alone() {
    // After a slot migration a directory's name entry can sit on a site
    // that is neither the directory's home nor its parent's: rmdir then
    // asks the one and updates the other, and must not do the second
    // before the first said yes.
    let mut c = Cluster::new(4, NamePolicy::NameHashing);
    let root = Fhandle::root();
    let name = (0..)
        .map(|i| format!("dir{i}"))
        .find(|n| c.name_site(n) != 0)
        .unwrap();
    let d = c.mkdir(t(1), &root, &name);
    c.create(t(2), &d, "inner");
    let from = d.home_site();
    let to = (1..4).find(|&s| s != from).unwrap();
    let map: Vec<u32> = c.sites[0]
        .table()
        .slots()
        .iter()
        .map(|&s| if s == from { to } else { s })
        .collect();
    for s in &mut c.sites {
        s.set_slot_map(map.clone());
    }
    let moved = c.sites[from as usize].export_entries(t(3));
    c.sites[to as usize].import_entries(t(3), moved);
    let rmdir = NfsRequest::Rmdir {
        dir: root,
        name: name.clone(),
    };
    let before = c.sites[0].dump_attr_cells()[0].clone();
    assert_eq!(
        c.run(t(4), to, 1, rmdir.clone()).status,
        NfsStatus::NotEmpty
    );
    assert_eq!(c.sites[0].dump_attr_cells()[0], before);
    // "inner" hashes somewhere under the new map; ask every site.
    let remove = NfsRequest::Remove {
        dir: d,
        name: "inner".into(),
    };
    let removed =
        (0..4).any(|s| c.run(t(5), s, 2 + u64::from(s), remove.clone()).status == NfsStatus::Ok);
    assert!(removed);
    assert_eq!(c.run(t(6), to, 9, rmdir).status, NfsStatus::Ok);
    let root_cell = &c.sites[0].dump_attr_cells()[0].1;
    assert_eq!((root_cell.entry_count, root_cell.attr.nlink), (0, 2));
}

#[test]
fn rmdir_heals_a_name_whose_remote_cell_is_gone() {
    // An orphan directory's home site loses the cell (it crashed before
    // the record was durable) while the name entry at the parent's site
    // survives: rmdir must still unbind the name, as it does when name
    // and cell share a site.
    let mut c = Cluster::new(2, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let mkdir = NfsRequest::Mkdir {
        dir: root,
        name: "orphan".into(),
        attr: Sattr3::default(),
    };
    assert_eq!(c.run(t(1), 1, 1, mkdir).status, NfsStatus::Ok);
    let wal = c.sites[1].crash();
    c.sites[1].recover(wal, t(1));
    assert_eq!(c.sites[1].attr_cells(), 0);
    let reply = c.auto(
        t(2),
        2,
        NfsRequest::Rmdir {
            dir: root,
            name: "orphan".into(),
        },
    );
    assert_eq!(reply.status, NfsStatus::Ok);
    assert_eq!(c.lookup(t(3), &root, "orphan").status, NfsStatus::NoEnt);
    assert_eq!(c.sites[0].attr_of(1).unwrap().nlink, 2);
}

#[test]
fn recovery_replays_durable_state() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let d = c.mkdir(t(1), &root, "kept");
    c.create(t(2), &d, "kid");
    // Crash at t=10s: everything above is durable by then.
    let wal = c.sites[0].crash();
    assert_eq!(c.sites[0].name_cells(), 0);
    c.sites[0].recover(wal, t(10_000));
    let got = c.lookup(t(20_000), &root, "kept");
    assert_eq!(got.status, NfsStatus::Ok);
    let got = c.lookup(t(20_001), &d, "kid");
    assert_eq!(got.status, NfsStatus::Ok);
    assert_eq!(c.sites[0].attr_of(1).unwrap().nlink, 3);
}

#[test]
fn recovery_drops_nondurable_tail() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let root = Fhandle::root();
    c.create(t(1), &root, "early");
    // A create an instant before the crash point cannot be durable.
    c.create(t(5000), &root, "late");
    let wal = c.sites[0].crash();
    c.sites[0].recover(wal, t(5000));
    assert_eq!(c.lookup(t(6000), &root, "early").status, NfsStatus::Ok);
    assert_eq!(c.lookup(t(6001), &root, "late").status, NfsStatus::NoEnt);
}

#[test]
fn peer_ops_are_idempotent() {
    use crate::types::{PeerInfo, PeerMsg};
    let mut c = Cluster::new(2, MKDIR_SWITCHING);
    let root = Fhandle::root();
    let f = c.create(t(1), &root, "file");
    let msg = PeerMsg::LinkDelta {
        op: 0xdead,
        file: f.file_id(),
        delta: 1,
        ctime: slice_nfsproto::NfsTime { secs: 9, nsecs: 0 },
    };
    let a1 = c.sites[0].handle_peer(t(2), 1, msg.clone());
    let a2 = c.sites[0].handle_peer(t(3), 1, msg);
    // Re-delivery acks identically without double-applying.
    let get_ack = |a: &Vec<DirAction>| match &a[0] {
        DirAction::Peer {
            msg: PeerMsg::Ack { status, info, .. },
            ..
        } => (*status, info.clone()),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(get_ack(&a1), get_ack(&a2));
    match get_ack(&a1).1 {
        PeerInfo::Attr { attr, .. } => assert_eq!(attr.nlink, 2),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn getattr_unknown_handle_is_stale() {
    let mut c = Cluster::new(1, MKDIR_SWITCHING);
    let bogus = Fhandle::new(999_999, 0, 0, 0, 0);
    let reply = c.auto(t(1), 1, NfsRequest::Getattr { fh: bogus });
    assert_eq!(reply.status, NfsStatus::Stale);
}
