//! Full-stack stress: a randomized operation stream driven through the
//! complete ensemble (real packets, µproxy, every server class), checked
//! against a flat in-memory model of the volume. This is the end-to-end
//! analogue of the per-crate model-based property tests.

mod common;

use common::deadline;
use slice::core::{ClientIo, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice::nfsproto::{
    Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow, Windows,
};
use slice::sim::{FxHashMap, Rng};

/// A model file: pattern byte per written 1 KB chunk (0 = hole).
#[derive(Debug, Clone, Default)]
struct ModelFile {
    chunks: Vec<u8>,
}

impl ModelFile {
    fn write(&mut self, offset: u64, len: u32, pattern: u8) {
        let first = (offset / 1024) as usize;
        let last = ((offset + u64::from(len)) / 1024) as usize;
        if self.chunks.len() < last {
            self.chunks.resize(last, 0);
        }
        for c in &mut self.chunks[first..last] {
            *c = pattern;
        }
    }

    fn size(&self) -> u64 {
        self.chunks.len() as u64 * 1024
    }
}

#[derive(Debug)]
struct Model {
    names: FxHashMap<String, u64>,
    files: FxHashMap<u64, ModelFile>,
    fhs: FxHashMap<u64, Fhandle>,
}

/// The randomized workload: issues one op at a time, validating each
/// reply against the model before issuing the next.
struct Stress {
    rng: Rng,
    ops_left: u32,
    model: Model,
    pending: Option<PendingCheck>,
    errors: Vec<String>,
    done: bool,
    next_name: u32,
}

#[derive(Debug)]
enum PendingCheck {
    Create {
        name: String,
    },
    Remove {
        name: String,
        existed: bool,
    },
    Lookup {
        name: String,
    },
    Write {
        id: u64,
        offset: u64,
        len: u32,
        pattern: u8,
    },
    Read {
        id: u64,
        offset: u64,
        len: u32,
    },
    Getattr {
        id: u64,
    },
    Rename {
        from: String,
        to: String,
        existed: bool,
    },
    Commit,
}

impl Stress {
    fn new(seed: u64, ops: u32) -> Self {
        Stress {
            rng: Rng::seed_from_u64(seed),
            ops_left: ops,
            model: Model {
                names: Default::default(),
                files: Default::default(),
                fhs: Default::default(),
            },
            pending: None,
            errors: Vec::new(),
            done: false,
            next_name: 0,
        }
    }

    fn random_name(&mut self) -> String {
        // Small namespace: plenty of create/remove collisions.
        format!("s{}", self.rng.gen_range(0..24u32))
    }

    fn random_file(&mut self) -> Option<u64> {
        if self.model.names.is_empty() {
            return None;
        }
        let keys: Vec<&String> = self.model.names.keys().collect();
        let k = keys[self.rng.gen_range(0..keys.len())];
        Some(self.model.names[k])
    }

    fn issue(&mut self, io: &mut ClientIo<'_, '_>) {
        if self.ops_left == 0 {
            self.done = true;
            return;
        }
        self.ops_left -= 1;
        let root = Fhandle::root();
        let dice = self.rng.gen_range(0..100u32);
        let (req, check) = if dice < 25 || self.model.names.is_empty() {
            let name = self.random_name();
            self.next_name += 1;
            (
                NfsRequest::Create {
                    dir: root,
                    name: name.clone(),
                    attr: Sattr3 {
                        mode: Some(0o644),
                        ..Default::default()
                    },
                },
                PendingCheck::Create { name },
            )
        } else if dice < 35 {
            let name = self.random_name();
            let existed = self.model.names.contains_key(&name);
            (
                NfsRequest::Remove {
                    dir: root,
                    name: name.clone(),
                },
                PendingCheck::Remove { name, existed },
            )
        } else if dice < 50 {
            let name = self.random_name();
            (
                NfsRequest::Lookup {
                    dir: root,
                    name: name.clone(),
                },
                PendingCheck::Lookup { name },
            )
        } else if dice < 70 {
            let id = self.random_file().expect("nonempty");
            let fh = self.model.fhs[&id];
            // 1 KB-aligned writes from tiny to threshold-crossing.
            let offset = u64::from(self.rng.gen_range(0..96u32)) * 1024;
            let len = self.rng.gen_range(1..16u32) * 1024;
            let pattern = self.rng.gen_range(1..=255u8);
            (
                NfsRequest::Write {
                    fh,
                    offset,
                    stable: StableHow::FileSync,
                    data: vec![pattern; len as usize],
                },
                PendingCheck::Write {
                    id,
                    offset,
                    len,
                    pattern,
                },
            )
        } else if dice < 88 {
            let id = self.random_file().expect("nonempty");
            let fh = self.model.fhs[&id];
            let offset = u64::from(self.rng.gen_range(0..96u32)) * 1024;
            let len = self.rng.gen_range(1..16u32) * 1024;
            (
                NfsRequest::Read {
                    fh,
                    offset,
                    count: len,
                },
                PendingCheck::Read { id, offset, len },
            )
        } else if dice < 93 {
            let id = self.random_file().expect("nonempty");
            (
                NfsRequest::Getattr {
                    fh: self.model.fhs[&id],
                },
                PendingCheck::Getattr { id },
            )
        } else if dice < 97 {
            let from = self.random_name();
            let to = self.random_name();
            let existed = self.model.names.contains_key(&from);
            (
                NfsRequest::Rename {
                    from_dir: root,
                    from_name: from.clone(),
                    to_dir: root,
                    to_name: to.clone(),
                },
                PendingCheck::Rename { from, to, existed },
            )
        } else {
            let id = self.random_file().expect("nonempty");
            (
                NfsRequest::Commit {
                    fh: self.model.fhs[&id],
                    offset: 0,
                    count: 0,
                },
                PendingCheck::Commit,
            )
        };
        if std::env::var("STRESS_TRACE").is_ok() {
            eprintln!("op: {check:?}");
        }
        self.pending = Some(check);
        io.call(0, req);
    }

    fn check(&mut self, reply: &NfsReply<Windows>) {
        let check = self.pending.take().expect("pending");
        let mut fail = |msg: String| self.errors.push(msg);
        match check {
            PendingCheck::Create { name } => match self.model.names.entry(name.clone()) {
                std::collections::hash_map::Entry::Occupied(_) => {
                    if reply.status != NfsStatus::Exist {
                        fail(format!("create {name}: {:?}, wanted Exist", reply.status));
                    }
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    if reply.status != NfsStatus::Ok {
                        fail(format!("create {name}: {:?}", reply.status));
                    } else if let ReplyBody::Create { fh: Some(fh) } = &reply.body {
                        slot.insert(fh.file_id());
                        self.model.files.insert(fh.file_id(), ModelFile::default());
                        self.model.fhs.insert(fh.file_id(), *fh);
                    }
                }
            },
            PendingCheck::Remove { name, existed } => {
                let want = if existed {
                    NfsStatus::Ok
                } else {
                    NfsStatus::NoEnt
                };
                if reply.status != want {
                    fail(format!(
                        "remove {name}: {:?}, wanted {want:?}",
                        reply.status
                    ));
                }
                if existed {
                    if let Some(id) = self.model.names.remove(&name) {
                        self.model.files.remove(&id);
                        self.model.fhs.remove(&id);
                    }
                }
            }
            PendingCheck::Lookup { name } => match self.model.names.get(&name) {
                Some(&id) => {
                    if reply.status != NfsStatus::Ok {
                        fail(format!("lookup {name}: {:?}", reply.status));
                    } else if let ReplyBody::Lookup { fh, .. } = &reply.body {
                        if fh.file_id() != id {
                            fail(format!("lookup {name}: id {} wanted {id}", fh.file_id()));
                        }
                    }
                }
                None => {
                    if reply.status != NfsStatus::NoEnt {
                        fail(format!("lookup {name}: {:?}, wanted NoEnt", reply.status));
                    }
                }
            },
            PendingCheck::Write {
                id,
                offset,
                len,
                pattern,
            } => {
                if reply.status != NfsStatus::Ok {
                    fail(format!("write: {:?}", reply.status));
                } else if let Some(f) = self.model.files.get_mut(&id) {
                    f.write(offset, len, pattern);
                }
            }
            PendingCheck::Read { id, offset, len } => {
                if reply.status != NfsStatus::Ok {
                    fail(format!("read: {:?}", reply.status));
                } else if let (Some(f), ReplyBody::Read { data, .. }) =
                    (self.model.files.get(&id), &reply.body)
                {
                    let avail = f.size().saturating_sub(offset).min(u64::from(len)) as usize;
                    if data.len() != avail {
                        fail(format!("read: got {} bytes, wanted {avail}", data.len()));
                    }
                    for (i, &b) in data.iter().flat_map(|w| w.iter()).enumerate() {
                        let chunk = ((offset + i as u64) / 1024) as usize;
                        let want = f.chunks.get(chunk).copied().unwrap_or(0);
                        if b != want {
                            fail(format!(
                                "read: byte {} of file {id} is {b:#x}, wanted {want:#x}",
                                offset + i as u64
                            ));
                            break;
                        }
                    }
                }
            }
            PendingCheck::Getattr { id } => {
                if reply.status != NfsStatus::Ok {
                    fail(format!("getattr: {:?}", reply.status));
                } else if let (Some(f), Some(attr)) =
                    (self.model.files.get(&id), reply.attr.as_ref())
                {
                    if attr.size != f.size() {
                        fail(format!(
                            "getattr file {id}: size {} wanted {}",
                            attr.size,
                            f.size()
                        ));
                    }
                }
            }
            PendingCheck::Rename { from, to, existed } => {
                let want = if existed {
                    NfsStatus::Ok
                } else {
                    NfsStatus::NoEnt
                };
                if reply.status != want {
                    fail(format!(
                        "rename {from}->{to}: {:?}, wanted {want:?}",
                        reply.status
                    ));
                }
                if existed {
                    if let Some(id) = self.model.names.remove(&from) {
                        if let Some(old) = self.model.names.insert(to, id) {
                            // Displaced file is gone.
                            self.model.files.remove(&old);
                            self.model.fhs.remove(&old);
                        }
                    }
                }
            }
            PendingCheck::Commit => {
                if reply.status != NfsStatus::Ok {
                    fail(format!("commit: {:?}", reply.status));
                }
            }
        }
    }
}

impl Workload for Stress {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        self.issue(io);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, _tag: u64, reply: &NfsReply<Windows>) {
        self.check(reply);
        if !self.errors.is_empty() {
            self.done = true;
            return;
        }
        self.issue(io);
    }

    fn finished(&self) -> bool {
        self.done
    }
}

fn run_stress(cfg: SliceConfig, seed: u64, ops: u32) {
    let cfg = SliceConfig {
        record_history: true,
        ..cfg
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(Stress::new(seed, ops))]);
    ens.start();
    ens.run_to_completion(deadline());
    let client = ens.client(0);
    assert!(client.finished(), "stress did not finish");
    let s = client.workload_as::<Stress>();
    assert!(
        s.errors.is_empty(),
        "model divergence: {:?}",
        &s.errors[..s.errors.len().min(5)]
    );
    // Independent of the model: the recorded history must linearize and
    // the quiesced server state must satisfy every structural invariant.
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
}

#[test]
fn randomized_ops_match_model_mkdir_switching() {
    run_stress(
        SliceConfig {
            dir_servers: 2,
            policy: EnsemblePolicy::MkdirSwitching {
                redirect_millis: 300,
            },
            ..Default::default()
        },
        1001,
        600,
    );
}

#[test]
fn randomized_ops_match_model_name_hashing() {
    run_stress(
        SliceConfig {
            dir_servers: 3,
            policy: EnsemblePolicy::NameHashing,
            ..Default::default()
        },
        2002,
        600,
    );
}

#[test]
fn randomized_ops_match_model_under_packet_loss() {
    let cfg = SliceConfig {
        seed: 3003,
        record_history: true,
        ..Default::default()
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(Stress::new(77, 300))]);
    ens.engine.set_loss_prob(0.01);
    ens.start();
    ens.run_to_completion(deadline());
    let client = ens.client(0);
    assert!(client.finished(), "stress did not finish under loss");
    let s = client.workload_as::<Stress>();
    assert!(
        s.errors.is_empty(),
        "model divergence: {:?}",
        &s.errors[..s.errors.len().min(5)]
    );
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
}

#[test]
fn randomized_ops_match_model_with_block_maps() {
    run_stress(
        SliceConfig {
            use_block_maps: true,
            ..Default::default()
        },
        4004,
        400,
    );
}
