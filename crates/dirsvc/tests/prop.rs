//! Model-based randomized test: a multi-site directory service, driven
//! with random operation sequences under both distribution policies, must
//! always agree with a flat in-memory model of the name space and of every
//! file's link count — including which files lost their last link and had
//! their data removed, exactly once.
//!
//! The twelve names live in the root and in one work directory per extra
//! site (created through a redirected mkdir, so its attribute cell and its
//! name entry sit on different sites): renames and links cross
//! directories, and so sites, under either policy. Half way through, one
//! site crashes and replays its log and two peer operations that were
//! already applied are delivered again; none of that may show.
//!
//! The harness also folds every action the servers emit into a hash
//! ([`Cluster::fingerprint`]); `action_stream_is_pinned` holds one fixed
//! sequence per policy to a committed value, so a change to the order of
//! peer op ids, WAL appends or actions is a reviewed change.
//!
//! Beside the servers the harness keeps a *shadow* of each site's log:
//! every record as it was appended, with the instant it is durable. Every
//! crash in this file is followed by a check that what the site recovered
//! — name cells, attribute cells, the readdir index, the applied peer ops
//! — is what replaying the shadow's durable prefix onto an empty site
//! gives. `recovery_equals_replay_of_the_durable_prefix` drives that with
//! no model, several crashes a run, at any site.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_dirsvc::{AttrCell, DirAction, DirLog, DirServer, DirServerConfig, NameCell, PeerMsg};
use slice_hashes::fnv::FNV_OFFSET;
use slice_hashes::{default_site_of, fnv1a_continue, name_fingerprint, NamePolicy};
use slice_nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3};
use slice_sim::time::{SimDuration, SimTime};
use slice_sim::FxHashMap;
use slice_sim::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Directory servers ignore the redirect probability; the model's mkdirs
/// pick their site themselves.
const MKDIR_SWITCHING: NamePolicy = NamePolicy::MkdirSwitching { redirect_millis: 0 };

const CASES: usize = 64;
const NAMES: usize = 12;

#[derive(Debug, Clone)]
enum ModelOp {
    Create { name_ix: usize },
    Remove { name_ix: usize },
    Lookup { name_ix: usize },
    Rename { from_ix: usize, to_ix: usize },
    Link { from_ix: usize, to_ix: usize },
}

/// Weighted op choice matching the original strategy (3:2:3:1:1).
fn random_op(rng: &mut Rng, names: usize) -> ModelOp {
    let ix = |rng: &mut Rng| rng.gen_range(0..names);
    match rng.gen_range(0u32..10) {
        0..=2 => ModelOp::Create { name_ix: ix(rng) },
        3..=4 => ModelOp::Remove { name_ix: ix(rng) },
        5..=7 => ModelOp::Lookup { name_ix: ix(rng) },
        8 => ModelOp::Rename {
            from_ix: ix(rng),
            to_ix: ix(rng),
        },
        _ => ModelOp::Link {
            from_ix: ix(rng),
            to_ix: ix(rng),
        },
    }
}

struct Cluster {
    sites: Vec<DirServer>,
    policy: NamePolicy,
    replies: Vec<(u64, NfsReply)>,
    next_token: u64,
    now: SimTime,
    /// Files whose data the service asked to remove, in dispatch order.
    data_removes: Vec<u64>,
    /// Every mutating peer op as delivered: `(from, to, message)`.
    delivered: Vec<(u32, u32, PeerMsg)>,
    /// FNV-1a over the `Debug` text of every action, in dispatch order.
    stream: u64,
    /// Per site, what its log device was given: every record with the
    /// instant it is durable, less what a crash lost.
    shadow: Vec<Vec<(SimTime, DirLog)>>,
    /// Per site, how many of its lifetime appends the shadow has seen.
    seen: Vec<u64>,
}

fn site_config(site: u32, sites: u32, policy: NamePolicy) -> DirServerConfig {
    DirServerConfig {
        site,
        sites,
        policy,
        clock_skew: SimDuration::ZERO,
        wal_group_commit: true,
        default_mapped: false,
    }
}

impl Cluster {
    fn new(n: u32, policy: NamePolicy) -> Self {
        Cluster {
            sites: (0..n)
                .map(|site| DirServer::new(site_config(site, n, policy)))
                .collect(),
            policy,
            replies: Vec::new(),
            next_token: 1,
            now: SimTime::ZERO,
            data_removes: Vec::new(),
            delivered: Vec::new(),
            stream: FNV_OFFSET,
            shadow: vec![Vec::new(); n as usize],
            seen: vec![0; n as usize],
        }
    }

    /// Copies what `site` appended since the last look into its shadow: a
    /// record appended now is durable later, so the newest are all held.
    fn observe(&mut self, site: u32) {
        let server = &self.sites[site as usize];
        let (appends, _, _) = server.wal_stats();
        let new = (appends - self.seen[site as usize]) as usize;
        self.seen[site as usize] = appends;
        let wal = server.wal();
        let newest = wal.iter().skip(wal.held() - new);
        self.shadow[site as usize].extend(newest.map(|(durable, rec)| (durable, rec.clone())));
    }

    fn serve_peer(&mut self, to: u32, from: u32, msg: PeerMsg) -> Vec<DirAction> {
        let actions = self.sites[to as usize].handle_peer(self.now, from, msg);
        self.observe(to);
        actions
    }

    fn dispatch(&mut self, from: u32, actions: Vec<DirAction>) {
        for a in actions {
            self.stream = fnv1a_continue(self.stream, format!("{a:?}").as_bytes());
            match a {
                DirAction::Reply { token, reply, .. } => self.replies.push((token, reply)),
                DirAction::Peer { site, msg } => {
                    if !matches!(msg, PeerMsg::Ack { .. } | PeerMsg::GetAttr { .. }) {
                        self.delivered.push((from, site, msg.clone()));
                    }
                    let more = self.serve_peer(site, from, msg);
                    self.dispatch(site, more);
                }
                DirAction::DataRemove { file } => self.data_removes.push(file),
                DirAction::DataTruncate { .. } => {}
            }
        }
    }

    fn site_for(&self, dir: &Fhandle, name: &str) -> u32 {
        match self.policy {
            NamePolicy::MkdirSwitching { .. } => dir.home_site(),
            NamePolicy::NameHashing => {
                default_site_of(name_fingerprint(&dir.0, name.as_bytes()), self.sites.len()) as u32
            }
        }
    }

    /// Serves `req` at `site`, `step` after the previous request.
    fn run_at(&mut self, site: u32, step: SimDuration, req: NfsRequest) -> NfsReply {
        self.now += step;
        let token = self.next_token;
        self.next_token += 1;
        let actions = self.sites[site as usize].handle_nfs(self.now, token, &req);
        self.observe(site);
        self.dispatch(site, actions);
        let pos = self
            .replies
            .iter()
            .position(|(t, _)| *t == token)
            .expect("reply must arrive synchronously in the test harness");
        self.replies.remove(pos).1
    }

    /// Routes like the µproxy would.
    fn run(&mut self, req: NfsRequest) -> NfsReply {
        let site = match &req {
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name, .. }
            | NfsRequest::Mkdir { dir, name, .. }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Link { dir, name, .. } => self.site_for(dir, name),
            NfsRequest::Rename {
                from_dir,
                from_name,
                ..
            } => self.site_for(from_dir, from_name),
            _ => 0,
        };
        self.run_at(site, SimDuration::from_millis(20), req)
    }

    /// A mkdir under the root that mkdir switching redirects to `site`.
    fn mkdir_at(&mut self, site: u32, name: &str) -> NfsReply {
        let req = NfsRequest::Mkdir {
            dir: Fhandle::root(),
            name: name.into(),
            attr: Sattr3::default(),
        };
        match self.policy {
            NamePolicy::MkdirSwitching { .. } => {
                self.run_at(site, SimDuration::from_millis(20), req)
            }
            NamePolicy::NameHashing => self.run(req),
        }
    }

    /// Walks `dir` page by page (four entries each), chaining across
    /// sites under name hashing, and returns the names seen.
    fn list(&mut self, dir: Fhandle, plus: bool) -> Vec<String> {
        let mut names = Vec::new();
        let mut cookie = 0u64;
        loop {
            let site = match self.policy {
                NamePolicy::MkdirSwitching { .. } => dir.home_site(),
                NamePolicy::NameHashing => slice_hashes::routing::split_cookie(cookie).0,
            };
            let req = if plus {
                NfsRequest::Readdirplus {
                    dir,
                    cookie,
                    cookieverf: 0,
                    dircount: 128,
                    maxcount: 128,
                }
            } else {
                NfsRequest::Readdir {
                    dir,
                    cookie,
                    cookieverf: 0,
                    count: 128,
                }
            };
            let (page, eof): (Vec<_>, bool) =
                match self.run_at(site, SimDuration::from_millis(1), req).body {
                    ReplyBody::Readdir { entries, eof, .. } => (entries, eof),
                    ReplyBody::Readdirplus { entries, eof, .. } => {
                        (entries.into_iter().map(|e| e.entry).collect(), eof)
                    }
                    other => panic!("unexpected readdir body {other:?}"),
                };
            assert!(eof || !page.is_empty(), "page neither ends nor continues");
            for e in page {
                cookie = e.cookie;
                if !e.name.is_empty() {
                    names.push(e.name);
                }
            }
            if eof {
                names.sort();
                return names;
            }
        }
    }

    /// Crashes `site` at `at` and recovers it there. What comes back must
    /// be what the records durable by `at` say, replayed in order onto an
    /// empty site; returns how many records the crash lost.
    fn crash_site(&mut self, site: usize, at: SimTime) -> usize {
        self.now = at;
        let disk = self.sites[site].crash();
        self.sites[site].recover(disk, at);
        let log = &mut self.shadow[site];
        let held = log.len();
        log.retain(|(durable, _)| *durable <= at);
        let lost = held - log.len();

        let config = site_config(site as u32, self.sites.len() as u32, self.policy);
        let empty = DirServer::new(config);
        let mut names: BTreeMap<u64, NameCell> = BTreeMap::new();
        let mut attrs: BTreeMap<u64, AttrCell> = empty.dump_attr_cells().into_iter().collect();
        let mut applied: BTreeSet<u64> = BTreeSet::new();
        for (_, rec) in log.iter().cloned() {
            match rec {
                DirLog::PutName { key, cell } => drop(names.insert(key, cell)),
                DirLog::DelName { key } => drop(names.remove(&key)),
                DirLog::PutAttr { file, cell } => drop(attrs.insert(file, cell)),
                DirLog::DelAttr { file } => drop(attrs.remove(&file)),
                DirLog::AppliedPeer { op } => drop(applied.insert(op)),
                DirLog::Intent { .. } | DirLog::IntentDone { .. } => {}
            }
        }
        let mut index: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&key, cell) in &names {
            index.entry(cell.parent).or_default().push(key);
        }
        let got = &self.sites[site];
        let what = format!("site {site} recovered at {at:?}, {lost} records lost");
        let names: Vec<_> = names.into_iter().collect();
        assert_eq!(got.dump_name_cells(), names, "name cells: {what}");
        let attrs: Vec<_> = attrs.into_iter().collect();
        assert_eq!(got.dump_attr_cells(), attrs, "attribute cells: {what}");
        let index: Vec<_> = index.into_iter().collect();
        assert_eq!(got.dump_dir_index(), index, "readdir index: {what}");
        let applied: Vec<_> = applied.into_iter().collect();
        assert_eq!(got.dump_applied_peer(), applied, "applied peer ops: {what}");
        lost
    }

    /// Crashes the last site, replays its log (every record is durable by
    /// now), and delivers two applied peer ops a second time: the first
    /// one the crashed site ever served, answered from its replayed table,
    /// and the last one any other site served, answered from a live one.
    fn crash_and_resend(&mut self) {
        let last = self.sites.len() - 1;
        let lost = self.crash_site(last, self.now + SimDuration::from_millis(20));
        assert_eq!(lost, 0, "every record was durable");
        let to_crashed = self.delivered.iter().find(|d| d.1 == last as u32);
        let to_live = self.delivered.iter().rev().find(|d| d.1 != last as u32);
        let again: Vec<_> = to_crashed.into_iter().chain(to_live).cloned().collect();
        for (from, to, msg) in again {
            let acks = self.serve_peer(to, from, msg);
            self.dispatch(to, acks);
        }
    }

    /// The action stream, then each site's log statistics and cells.
    fn fingerprint(&self) -> u64 {
        self.sites.iter().fold(self.stream, |h, s| {
            let text = format!(
                "{:?}{:?}{:?}",
                s.wal_stats(),
                s.dump_name_cells(),
                s.dump_attr_cells()
            );
            fnv1a_continue(h, text.as_bytes())
        })
    }
}

/// What the service must agree with.
#[derive(Default)]
struct Model {
    /// Name -> file id of the bound child.
    names: FxHashMap<String, u64>,
    /// File id -> live links.
    nlink: FxHashMap<u64, u32>,
    /// Files whose last link went.
    gone: Vec<u64>,
}

impl Model {
    fn unlink(&mut self, id: u64) {
        let n = self.nlink.get_mut(&id).expect("linked file is live");
        *n -= 1;
        if *n == 0 {
            self.nlink.remove(&id);
            self.gone.push(id);
        }
    }
}

fn check_model(policy: NamePolicy, sites: u32, ops: Vec<ModelOp>) -> u64 {
    let names: Vec<String> = (0..NAMES).map(|i| format!("n{i}")).collect();
    let mut cluster = Cluster::new(sites, policy);
    let mut model = Model::default();
    let mut fh_of: FxHashMap<u64, Fhandle> = FxHashMap::default();
    let root = Fhandle::root();
    // One work directory per extra site; a second mkdir of the same name
    // from another site loses to the first (the EXIST rollback).
    let mut dirs = vec![root];
    for site in 1..sites {
        let name = format!("w{site}");
        let reply = cluster.mkdir_at(site, &name);
        assert_eq!(reply.status, NfsStatus::Ok, "mkdir {name}");
        if let ReplyBody::Create { fh: Some(fh) } = reply.body {
            dirs.push(fh);
        }
        let reply = cluster.mkdir_at(site - 1, &name);
        assert_eq!(reply.status, NfsStatus::Exist, "second mkdir {name}");
    }
    let dir_of = |name_ix: usize| dirs[name_ix % dirs.len()];
    let crash_at = ops.len() / 2;
    for (i, op) in ops.into_iter().enumerate() {
        if i == crash_at {
            cluster.crash_and_resend();
        }
        match op {
            ModelOp::Create { name_ix } => {
                let name = &names[name_ix];
                let reply = cluster.run(NfsRequest::Create {
                    dir: dir_of(name_ix),
                    name: name.clone(),
                    attr: Sattr3::default(),
                });
                if model.names.contains_key(name) {
                    assert_eq!(reply.status, NfsStatus::Exist, "create {}", name);
                } else {
                    assert_eq!(reply.status, NfsStatus::Ok, "create {}", name);
                    if let ReplyBody::Create { fh: Some(fh) } = reply.body {
                        model.names.insert(name.clone(), fh.file_id());
                        model.nlink.insert(fh.file_id(), 1);
                        fh_of.insert(fh.file_id(), fh);
                    }
                }
            }
            ModelOp::Remove { name_ix } => {
                let name = &names[name_ix];
                let reply = cluster.run(NfsRequest::Remove {
                    dir: dir_of(name_ix),
                    name: name.clone(),
                });
                if let Some(id) = model.names.remove(name) {
                    assert_eq!(reply.status, NfsStatus::Ok, "remove {}", name);
                    model.unlink(id);
                } else {
                    assert_eq!(reply.status, NfsStatus::NoEnt, "remove {}", name);
                }
            }
            ModelOp::Lookup { name_ix } => {
                let name = &names[name_ix];
                let reply = cluster.run(NfsRequest::Lookup {
                    dir: dir_of(name_ix),
                    name: name.clone(),
                });
                match model.names.get(name) {
                    Some(&id) => {
                        assert_eq!(reply.status, NfsStatus::Ok, "lookup {}", name);
                        let nlink = reply.attr.map(|a| a.nlink);
                        assert_eq!(nlink, Some(model.nlink[&id]), "lookup {} nlink", name);
                        if let ReplyBody::Lookup { fh, .. } = reply.body {
                            assert_eq!(fh.file_id(), id, "lookup {} id", name);
                        }
                    }
                    None => assert_eq!(reply.status, NfsStatus::NoEnt, "lookup {}", name),
                }
            }
            ModelOp::Rename { from_ix, to_ix } => {
                let from = &names[from_ix];
                let to = &names[to_ix];
                if from == to {
                    continue;
                }
                let reply = cluster.run(NfsRequest::Rename {
                    from_dir: dir_of(from_ix),
                    from_name: from.clone(),
                    to_dir: dir_of(to_ix),
                    to_name: to.clone(),
                });
                match model.names.remove(from) {
                    Some(id) => {
                        assert_eq!(reply.status, NfsStatus::Ok, "rename {}->{}", from, to);
                        if let Some(displaced) = model.names.insert(to.clone(), id) {
                            model.unlink(displaced);
                        }
                    }
                    None => {
                        assert_eq!(reply.status, NfsStatus::NoEnt, "rename {}->{}", from, to)
                    }
                }
            }
            ModelOp::Link { from_ix, to_ix } => {
                let from = &names[from_ix];
                let to = &names[to_ix];
                let Some(&id) = model.names.get(from) else {
                    continue;
                };
                let reply = cluster.run(NfsRequest::Link {
                    fh: fh_of[&id],
                    dir: dir_of(to_ix),
                    name: to.clone(),
                });
                if model.names.contains_key(to) {
                    assert_eq!(reply.status, NfsStatus::Exist, "link {}", to);
                } else {
                    assert_eq!(reply.status, NfsStatus::Ok, "link {}", to);
                    model.names.insert(to.clone(), id);
                    *model.nlink.get_mut(&id).unwrap() += 1;
                }
            }
        }
    }
    // Final sweep: the distributed service agrees with the model on every
    // name ...
    for (name_ix, name) in names.iter().enumerate() {
        let reply = cluster.run(NfsRequest::Lookup {
            dir: dir_of(name_ix),
            name: name.clone(),
        });
        match model.names.get(name) {
            Some(&id) => {
                assert_eq!(reply.status, NfsStatus::Ok);
                if let ReplyBody::Lookup { fh, .. } = reply.body {
                    assert_eq!(fh.file_id(), id);
                }
            }
            None => assert_eq!(reply.status, NfsStatus::NoEnt),
        }
    }
    // The names the model holds in directory `d`, sorted.
    let live_in = |d: usize| -> Vec<String> {
        let in_d = (0..NAMES).filter(|i| i % dirs.len() == d);
        let live = in_d.filter(|&i| model.names.contains_key(&names[i]));
        live.map(|i| names[i].clone()).collect()
    };
    for (d, dir) in dirs.iter().enumerate() {
        let mut want = live_in(d);
        if d == 0 {
            want.extend((1..dirs.len()).map(|w| format!("w{w}")));
        }
        want.sort();
        // Plain and plus, in an order that alternates by directory.
        assert_eq!(cluster.list(*dir, d % 2 == 1), want, "listing of dir {d}");
        assert_eq!(cluster.list(*dir, d % 2 == 0), want, "listing of dir {d}");
    }
    let total_cells: usize = cluster.sites.iter().map(|s| s.name_cells()).sum();
    assert_eq!(
        total_cells,
        model.names.len() + dirs.len() - 1,
        "cell count vs model"
    );
    // ... every file whose last link went had its data removed, once, and
    // has no attribute cell; every live file has one, with the model's
    // link count ...
    let mut removed = cluster.data_removes.clone();
    removed.sort_unstable();
    model.gone.sort_unstable();
    assert_eq!(removed, model.gone, "data removes vs last links gone");
    let mut cells: Vec<(u64, u32)> = cluster
        .sites
        .iter()
        .flat_map(|s| s.dump_attr_cells())
        .filter(|(_, c)| fh_of.contains_key(&c.attr.fileid))
        .map(|(file, c)| (file, c.attr.nlink))
        .collect();
    cells.sort_unstable();
    let mut live: Vec<(u64, u32)> = model.nlink.iter().map(|(&f, &n)| (f, n)).collect();
    live.sort_unstable();
    assert_eq!(cells, live, "attribute cells vs live link counts");
    // ... and every directory's live-entry count is right: a work
    // directory can be removed exactly when the model has emptied it.
    let fingerprint = cluster.fingerprint();
    for d in 1..dirs.len() {
        let name = format!("w{d}");
        let rmdir = NfsRequest::Rmdir {
            dir: root,
            name: name.clone(),
        };
        if !live_in(d).is_empty() {
            let reply = cluster.run(rmdir.clone());
            assert_eq!(reply.status, NfsStatus::NotEmpty, "rmdir {name}");
            for i in (0..NAMES).filter(|i| i % dirs.len() == d) {
                cluster.run(NfsRequest::Remove {
                    dir: dirs[d],
                    name: names[i].clone(),
                });
            }
        }
        assert_eq!(cluster.run(rmdir).status, NfsStatus::Ok, "rmdir {name}");
    }
    let root_cell = &cluster.sites[0].dump_attr_cells()[0].1;
    let in_root = live_in(0).len();
    assert_eq!(root_cell.entry_count as usize, in_root, "root entries");
    assert_eq!(root_cell.attr.nlink, 2, "root links after every rmdir");
    fnv1a_continue(fingerprint, &cluster.fingerprint().to_le_bytes())
}

/// Random ops, no model, a crash of some site after every third of them.
/// Replies are not judged here (a crash inside a batch window takes back
/// updates the harness has already seen answered); every recovery is
/// (`crash_site`). Returns how many records the crashes lost.
fn check_recovery(policy: NamePolicy, sites: u32, nops: usize, rng: &mut Rng) -> usize {
    let names: Vec<String> = (0..NAMES).map(|i| format!("n{i}")).collect();
    let mut cluster = Cluster::new(sites, policy);
    let mut dirs = vec![Fhandle::root()];
    for site in 1..sites {
        if let ReplyBody::Create { fh: Some(fh) } = cluster.mkdir_at(site, &format!("w{site}")).body
        {
            dirs.push(fh);
        }
    }
    let dir_of = |name_ix: usize| dirs[name_ix % dirs.len()];
    // Name -> the handle its last create returned (stale or not).
    let mut made: FxHashMap<usize, Fhandle> = FxHashMap::default();
    let mut lost = 0;
    for i in 0..nops {
        let mut created = None;
        let req = match random_op(rng, NAMES) {
            ModelOp::Create { name_ix } => {
                created = Some(name_ix);
                NfsRequest::Create {
                    dir: dir_of(name_ix),
                    name: names[name_ix].clone(),
                    attr: Sattr3::default(),
                }
            }
            ModelOp::Remove { name_ix } => NfsRequest::Remove {
                dir: dir_of(name_ix),
                name: names[name_ix].clone(),
            },
            ModelOp::Lookup { name_ix } => NfsRequest::Lookup {
                dir: dir_of(name_ix),
                name: names[name_ix].clone(),
            },
            ModelOp::Rename { from_ix, to_ix } => NfsRequest::Rename {
                from_dir: dir_of(from_ix),
                from_name: names[from_ix].clone(),
                to_dir: dir_of(to_ix),
                to_name: names[to_ix].clone(),
            },
            ModelOp::Link { from_ix, to_ix } => match made.get(&from_ix) {
                Some(&fh) => NfsRequest::Link {
                    fh,
                    dir: dir_of(to_ix),
                    name: names[to_ix].clone(),
                },
                None => continue,
            },
        };
        if let (Some(ix), ReplyBody::Create { fh: Some(fh) }) = (created, cluster.run(req).body) {
            made.insert(ix, fh);
        }
        if (i + 1) % (nops / 3) == 0 {
            // Inside a group-commit window the last op opened, at the
            // instant one of its records reaches the disk and the rest
            // have not; or between two steps, when every record has.
            let now = cluster.now;
            let logs = cluster.shadow.iter().enumerate();
            let open = logs.flat_map(|(site, log)| log.iter().map(move |&(d, _)| (site, d)));
            let open: Vec<(usize, SimTime)> = open.filter(|&(_, d)| d > now).collect();
            let (site, at) = if !open.is_empty() && rng.gen_range(0u32..2) == 0 {
                open[rng.gen_range(0..open.len())]
            } else {
                let site = rng.gen_range(0..sites) as usize;
                (site, now + SimDuration::from_millis(20))
            };
            lost += cluster.crash_site(site, at);
        }
    }
    lost
}

#[test]
fn recovery_equals_replay_of_the_durable_prefix() {
    for policy in [NamePolicy::NameHashing, MKDIR_SWITCHING] {
        let mut rng = Rng::seed_from_u64(0x4449_5204);
        let mut lost = 0;
        for _ in 0..CASES {
            let sites = rng.gen_range(1u32..5);
            let nops = rng.gen_range(9usize..120);
            lost += check_recovery(policy, sites, nops, &mut rng);
        }
        assert!(
            lost >= 16,
            "{policy:?}: crashes inside a window lost {lost}"
        );
    }
}

/// The log holds the batch on its way to the disk, not the run's history:
/// 50,000 creates, 100 µs apart, under the log device the ensembles are
/// built with, append 150,000 records and leave a handful held.
#[test]
fn held_records_stay_bounded() {
    let mut cluster = Cluster::new(1, MKDIR_SWITCHING);
    let mut most = 0;
    for i in 0..50_000 {
        let req = NfsRequest::Create {
            dir: Fhandle::root(),
            name: format!("f{i}"),
            attr: Sattr3::default(),
        };
        let reply = cluster.run_at(0, SimDuration::from_micros(100), req);
        assert_eq!(reply.status, NfsStatus::Ok);
        most = most.max(cluster.sites[0].wal().held());
    }
    let site = &cluster.sites[0];
    assert_eq!(site.wal_stats().0, 150_000, "appends are a lifetime count");
    assert!(most < 1_024, "the log held {most} records at once");
    assert_eq!(site.name_cells(), 50_000);
}

fn run_policy(policy: NamePolicy, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..CASES {
        let sites = rng.gen_range(1u32..5);
        let nops = rng.gen_range(1usize..80);
        let ops: Vec<ModelOp> = (0..nops).map(|_| random_op(&mut rng, NAMES)).collect();
        check_model(policy, sites, ops);
    }
}

#[test]
fn name_hashing_matches_model() {
    run_policy(NamePolicy::NameHashing, 0x4449_5201);
}

#[test]
fn mkdir_switching_matches_model() {
    run_policy(MKDIR_SWITCHING, 0x4449_5202);
}

/// One 400-op sequence over four sites per policy, held to the value it
/// had when the `DataRemove` rule moved to the cell's owner (PR 17). The
/// hash covers every action in order (so peer op ids, reply gates and
/// therefore WAL append order), each site's WAL statistics and its final
/// cells. A refactor must not move it; a behaviour change re-pins it and
/// says why.
#[test]
fn action_stream_is_pinned() {
    for (policy, pinned) in [
        (NamePolicy::NameHashing, 0x7163_2b0c_3523_a1cf_u64),
        (MKDIR_SWITCHING, 0xe932_7fe0_cd03_0c98),
    ] {
        let mut rng = Rng::seed_from_u64(0x4449_5203);
        let ops: Vec<ModelOp> = (0..400).map(|_| random_op(&mut rng, NAMES)).collect();
        let got = check_model(policy, 4, ops);
        assert_eq!(got, pinned, "{policy:?}: action stream is {got:#018x}");
    }
}
