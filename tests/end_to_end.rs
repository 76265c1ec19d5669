//! End-to-end integration: full ensembles carrying real encoded NFS
//! packets through the simulated network, the µproxy, and every server
//! class.

mod common;

use common::{assert_errors, deadline, run_script};
use slice::core::{ClientIo, EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice::nfsproto::{Fhandle, NfsReply, NfsRequest, ReplyBody, Sattr3, StableHow, Windows};
use slice::workloads::{ScriptWorkload, Step, MODE_MIRRORED};

#[test]
fn smoke_create_write_read() {
    let cfg = SliceConfig::default();
    let steps = vec![
        Step::Mkdir {
            parent: 0,
            name: "dir".into(),
            save: 1,
        },
        Step::Create {
            parent: 1,
            name: "file".into(),
            save: 2,
            mode_extra: 0,
        },
        Step::Write {
            fh: 2,
            offset: 0,
            len: 8192,
            pattern: 0xAB,
            stable: StableHow::FileSync,
        },
        Step::Read {
            fh: 2,
            offset: 0,
            len: 8192,
            verify: Some(0xAB),
        },
        Step::Getattr {
            fh: 2,
            expect_size: Some(8192),
        },
    ];
    run_script(&cfg, ScriptWorkload::new(steps, 3));
}

#[test]
fn large_file_spans_threshold() {
    // A file larger than the 64 KB threshold: its head lives on the
    // small-file servers, its tail is striped over the storage array, and
    // a reader must see one coherent byte sequence.
    let cfg = SliceConfig::default();
    let mut steps = vec![Step::Create {
        parent: 0,
        name: "big".into(),
        save: 1,
        mode_extra: 0,
    }];
    // Write 8 x 32 KB = 256 KB with distinct patterns.
    for i in 0..8u64 {
        steps.push(Step::Write {
            fh: 1,
            offset: i * 32768,
            len: 32768,
            pattern: 0x10 + i as u8,
            stable: StableHow::Unstable,
        });
    }
    steps.push(Step::Commit { fh: 1 });
    for i in 0..8u64 {
        steps.push(Step::Read {
            fh: 1,
            offset: i * 32768,
            len: 32768,
            verify: Some(0x10 + i as u8),
        });
    }
    steps.push(Step::Getattr {
        fh: 1,
        expect_size: Some(256 * 1024),
    });
    run_script(&cfg, ScriptWorkload::new(steps, 2));
}

#[test]
fn commit_pushes_size_to_directory_server() {
    // After a commit, the directory server's *authoritative* attributes
    // must reflect bulk writes that bypassed it entirely.
    let cfg = SliceConfig::default();
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "pushed".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 32768,
            pattern: 1,
            stable: StableHow::Unstable,
        },
        Step::Commit { fh: 1 },
    ];
    let ens = run_script(&cfg, ScriptWorkload::new(steps, 2));
    // Inspect the file's attribute cell on the directory server directly.
    // File ids from site 0 start at 2; "pushed" is the first created file.
    let dir = ens
        .engine
        .actor::<slice::core::actors::DirActor>(ens.dirs[0]);
    let attr = dir.server.attr_of(2).expect("attr cell");
    assert_eq!(
        attr.size,
        128 * 1024 + 32768,
        "setattr push-back must update size"
    );
}

#[test]
fn mirrored_file_lands_on_two_nodes() {
    let cfg = SliceConfig {
        storage_nodes: 4,
        ..Default::default()
    };
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "m".into(),
            save: 1,
            mode_extra: MODE_MIRRORED,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 65536,
            pattern: 0x77,
            stable: StableHow::FileSync,
        },
        Step::Read {
            fh: 1,
            offset: 128 * 1024,
            len: 65536,
            verify: Some(0x77),
        },
    ];
    let ens = run_script(&cfg, ScriptWorkload::new(steps, 2));
    // The stripe must exist on exactly two storage nodes.
    let holders = ens
        .storage
        .iter()
        .filter(|&&n| {
            let actor = ens.engine.actor::<slice::core::actors::StorageActor>(n);
            actor.node.store().size(2) > 0
        })
        .count();
    assert_eq!(holders, 2, "mirrored stripe must have two replicas");
}

#[test]
fn rename_link_remove_flow() {
    let cfg = SliceConfig::default();
    let steps = vec![
        Step::Mkdir {
            parent: 0,
            name: "a".into(),
            save: 1,
        },
        Step::Mkdir {
            parent: 0,
            name: "b".into(),
            save: 2,
        },
        Step::Create {
            parent: 1,
            name: "f".into(),
            save: 3,
            mode_extra: 0,
        },
        Step::Write {
            fh: 3,
            offset: 0,
            len: 100,
            pattern: 9,
            stable: StableHow::FileSync,
        },
        Step::Rename {
            from: 1,
            from_name: "f".into(),
            to: 2,
            to_name: "g".into(),
        },
        Step::Lookup {
            parent: 1,
            name: "f".into(),
            save: 4,
            expect_ok: false,
        },
        Step::Lookup {
            parent: 2,
            name: "g".into(),
            save: 4,
            expect_ok: true,
        },
        Step::Read {
            fh: 4,
            offset: 0,
            len: 100,
            verify: Some(9),
        },
        Step::Link {
            fh: 4,
            parent: 1,
            name: "hard".into(),
        },
        Step::Remove {
            parent: 2,
            name: "g".into(),
        },
        // Data survives through the second link.
        Step::Lookup {
            parent: 1,
            name: "hard".into(),
            save: 5,
            expect_ok: true,
        },
        Step::Read {
            fh: 5,
            offset: 0,
            len: 100,
            verify: Some(9),
        },
        Step::Remove {
            parent: 1,
            name: "hard".into(),
        },
        Step::Lookup {
            parent: 1,
            name: "hard".into(),
            save: 5,
            expect_ok: false,
        },
    ];
    run_script(&cfg, ScriptWorkload::new(steps, 6));
}

#[test]
fn symlink_readdir_and_truncate() {
    let cfg = SliceConfig::default();
    let steps = vec![
        Step::Mkdir {
            parent: 0,
            name: "d".into(),
            save: 1,
        },
        Step::Create {
            parent: 1,
            name: "f1".into(),
            save: 2,
            mode_extra: 0,
        },
        Step::Create {
            parent: 1,
            name: "f2".into(),
            save: 3,
            mode_extra: 0,
        },
        Step::Symlink {
            parent: 1,
            name: "ln".into(),
            target: "f1".into(),
            save: 4,
        },
        Step::Readlink {
            fh: 4,
            expect: "f1".into(),
        },
        Step::Readdir {
            fh: 1,
            expect: Some(3),
        },
        // Truncate shrinks data.
        Step::Write {
            fh: 2,
            offset: 0,
            len: 20000,
            pattern: 5,
            stable: StableHow::FileSync,
        },
        Step::Setattr {
            fh: 2,
            attr: Sattr3 {
                size: Some(100),
                ..Default::default()
            },
        },
        Step::Getattr {
            fh: 2,
            expect_size: Some(100),
        },
    ];
    run_script(&cfg, ScriptWorkload::new(steps, 5));
}

#[test]
fn name_hashing_ensemble_end_to_end() {
    let cfg = SliceConfig {
        dir_servers: 4,
        policy: EnsemblePolicy::NameHashing,
        ..Default::default()
    };
    let mut steps = vec![Step::Mkdir {
        parent: 0,
        name: "spread".into(),
        save: 1,
    }];
    for i in 0..24 {
        steps.push(Step::Create {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            mode_extra: 0,
        });
    }
    for i in 0..24 {
        steps.push(Step::Lookup {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            expect_ok: true,
        });
    }
    // Readdir chains across all four sites.
    steps.push(Step::Readdir {
        fh: 1,
        expect: Some(24),
    });
    let ens = run_script(&cfg, ScriptWorkload::new(steps, 3));
    // Entries really are spread over the sites.
    let counts: Vec<usize> = ens
        .dirs
        .iter()
        .map(|&d| {
            ens.engine
                .actor::<slice::core::actors::DirActor>(d)
                .server
                .name_cells()
        })
        .collect();
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 3,
        "spread: {counts:?}"
    );
}

#[test]
fn mkdir_switching_redirects_under_load() {
    let cfg = SliceConfig {
        dir_servers: 4,
        policy: EnsemblePolicy::MkdirSwitching {
            redirect_millis: 1000,
        },
        ..Default::default()
    };
    let mut steps = Vec::new();
    for i in 0..16 {
        steps.push(Step::Mkdir {
            parent: 0,
            name: format!("d{i}"),
            save: 1,
        });
        steps.push(Step::Create {
            parent: 1,
            name: "kid".into(),
            save: 2,
            mode_extra: 0,
        });
        steps.push(Step::Lookup {
            parent: 1,
            name: "kid".into(),
            save: 2,
            expect_ok: true,
        });
    }
    let ens = run_script(&cfg, ScriptWorkload::new(steps, 3));
    // With p = 1 the directories spread across sites.
    let with_cells = ens
        .dirs
        .iter()
        .filter(|&&d| {
            ens.engine
                .actor::<slice::core::actors::DirActor>(d)
                .server
                .attr_cells()
                > 0
        })
        .count();
    assert!(with_cells >= 3, "redirected mkdirs must spread attr cells");
}

#[test]
fn two_clients_share_the_volume() {
    let cfg = SliceConfig {
        clients: 2,
        ..Default::default()
    };
    let w0 = ScriptWorkload::new(
        vec![
            Step::Mkdir {
                parent: 0,
                name: "shared".into(),
                save: 1,
            },
            Step::Create {
                parent: 1,
                name: "from0".into(),
                save: 2,
                mode_extra: 0,
            },
            Step::Write {
                fh: 2,
                offset: 0,
                len: 512,
                pattern: 0xA0,
                stable: StableHow::FileSync,
            },
        ],
        3,
    );
    let idle = ScriptWorkload::new(vec![], 1);
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(w0), Box::new(idle)]);
    // Client 0 sets up; client 1 then reads what client 0 wrote.
    ens.engine.kick(ens.clients[0]);
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    // Start a second phase on client 1.
    let w1 = ScriptWorkload::new(
        vec![
            Step::Lookup {
                parent: 0,
                name: "shared".into(),
                save: 1,
                expect_ok: true,
            },
            Step::Lookup {
                parent: 1,
                name: "from0".into(),
                save: 2,
                expect_ok: true,
            },
            Step::Read {
                fh: 2,
                offset: 0,
                len: 512,
                verify: Some(0xA0),
            },
        ],
        3,
    );
    ens.start_workload(1, Box::new(w1));
    ens.run_to_completion(deadline());
    assert_errors(&ens, 1);
}

#[test]
fn packet_loss_is_recovered_by_retransmission() {
    let cfg = SliceConfig {
        seed: 7,
        ..Default::default()
    };
    let steps = vec![
        Step::Mkdir {
            parent: 0,
            name: "lossy".into(),
            save: 1,
        },
        Step::Create {
            parent: 1,
            name: "f".into(),
            save: 2,
            mode_extra: 0,
        },
        Step::Write {
            fh: 2,
            offset: 0,
            len: 4096,
            pattern: 3,
            stable: StableHow::FileSync,
        },
        Step::Read {
            fh: 2,
            offset: 0,
            len: 4096,
            verify: Some(3),
        },
        Step::Remove {
            parent: 1,
            name: "f".into(),
        },
        Step::Lookup {
            parent: 1,
            name: "f".into(),
            save: 2,
            expect_ok: false,
        },
    ];
    let script = ScriptWorkload::new(steps, 3);
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(script)]);
    ens.engine.set_loss_prob(0.05);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    let stats = ens.client(0).stats();
    // With 5% loss over several dozen packets, retransmissions are
    // overwhelmingly likely (the seed makes this deterministic).
    assert!(
        stats.retransmits > 0,
        "expected at least one retransmission"
    );
}

#[test]
fn untar_runs_clean() {
    let cfg = SliceConfig::default();
    let untar = slice::workloads::Untar::new(0, 600);
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(untar)]);
    ens.start();
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "untar did not finish");
    let u = ens.client(0).workload_as::<slice::workloads::Untar>();
    assert!(u.elapsed().is_some());
    assert!(u.nfs_ops() > 3000, "ops {}", u.nfs_ops());
}

/// A two-site ensemble under `policy` holding directory `r` with twelve
/// files, with every logical slot then moved to site 1.
fn populate_and_move_slots(policy: EnsemblePolicy) -> SliceEnsemble {
    let cfg = SliceConfig {
        dir_servers: 2,
        policy,
        ..Default::default()
    };
    let mut steps = vec![Step::Mkdir {
        parent: 0,
        name: "r".into(),
        save: 1,
    }];
    for i in 0..12 {
        steps.push(Step::Create {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            mode_extra: 0,
        });
    }
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, 3))]);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    ens.reconfigure_dir_servers(vec![1u32; slice::hashes::LOGICAL_SLOTS]);
    ens
}

#[test]
#[should_panic(expected = "mkdir switching")]
fn reconfiguring_mkdir_switching_directory_servers_is_refused() {
    // Mkdir switching keeps a name at its parent's home site, not at a
    // hash slot: moving name cells by slot would lose them, and no bounce
    // would ever send a µproxy for a fresh table.
    let mut ens = populate_and_move_slots(EnsemblePolicy::MkdirSwitching { redirect_millis: 0 });
    let mut steps = vec![Step::Lookup {
        parent: 0,
        name: "r".into(),
        save: 1,
        expect_ok: true,
    }];
    steps.extend((0..12).map(|i| Step::Lookup {
        parent: 1,
        name: format!("f{i}"),
        save: 2,
        expect_ok: true,
    }));
    ens.start_workload(0, Box::new(ScriptWorkload::new(steps, 3)));
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
}

#[test]
fn reconfiguration_with_lazy_table_refresh() {
    // Build a 2-site name-hashing ensemble, populate it, then move every
    // logical slot to site 1. µproxies discover the change lazily: their
    // first misdirected request is bounced (JUKEBOX), they refetch the
    // table, and RPC retransmission re-routes through it (§3.3.1).
    let mut ens = populate_and_move_slots(EnsemblePolicy::NameHashing);
    let site1_cells = ens
        .engine
        .actor::<slice::core::actors::DirActor>(ens.dirs[1])
        .server
        .name_cells();
    assert!(
        site1_cells >= 13,
        "entries migrated to site 1: {site1_cells}"
    );
    // Phase 2: the same client (stale table) looks everything up again,
    // and reads each file's attributes: attribute cells never migrate, so
    // a GETATTR still goes to the home site the handle names.
    let mut steps = vec![Step::Lookup {
        parent: 0,
        name: "r".into(),
        save: 1,
        expect_ok: true,
    }];
    for i in 0..12 {
        steps.push(Step::Lookup {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            expect_ok: true,
        });
        steps.push(Step::Getattr {
            fh: 2,
            expect_size: None,
        });
    }
    steps.push(Step::Create {
        parent: 1,
        name: "post".into(),
        save: 2,
        mode_extra: 0,
    });
    ens.start_workload(0, Box::new(ScriptWorkload::new(steps, 3)));
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    // The µproxy observed at least one bounce and refreshed its table.
    let proxy = ens.client(0).proxy().unwrap();
    assert!(
        proxy.stale_table_bounces() > 0,
        "expected a misdirect bounce"
    );
    assert!(proxy.dir_table_generation() >= 2, "table refreshed");
    let d1 = ens
        .engine
        .actor::<slice::core::actors::DirActor>(ens.dirs[1]);
    assert!(d1.server.misdirected() == 0 || d1.server.misdirected() > 0); // touch API
    let d0 = ens
        .engine
        .actor::<slice::core::actors::DirActor>(ens.dirs[0]);
    assert!(d0.server.misdirected() > 0, "site 0 bounced stale requests");
}

/// MKDIR one directory, then READDIR its first page, keeping the reply.
#[derive(Default)]
struct FirstPage {
    page: Option<NfsReply<Windows>>,
}

impl Workload for FirstPage {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        let mkdir = NfsRequest::Mkdir {
            dir: Fhandle::root(),
            name: "empty".into(),
            attr: Sattr3::default(),
        };
        io.call(0, mkdir);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply<Windows>) {
        match (tag, &reply.body) {
            (0, ReplyBody::Create { fh: Some(dir) }) => {
                let readdir = NfsRequest::Readdir {
                    dir: *dir,
                    cookie: 0,
                    cookieverf: 0,
                    count: 8192,
                };
                io.call(1, readdir);
            }
            _ => self.page = Some(reply.clone()),
        }
    }

    fn finished(&self) -> bool {
        self.page.is_some()
    }
}

#[test]
fn an_empty_directory_lists_empty_under_name_hashing() {
    // A listing chains from site to site by cookie; a site with nothing
    // to list answers with a chain marker, which must never reach the
    // client as an entry.
    let cfg = SliceConfig {
        dir_servers: 2,
        policy: EnsemblePolicy::NameHashing,
        ..Default::default()
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(FirstPage::default())]);
    ens.start();
    ens.run_to_completion(deadline());
    let page = ens.client(0).workload_as::<FirstPage>().page.clone();
    match page.map(|p| p.body) {
        Some(ReplyBody::Readdir { entries, eof, .. }) => assert!(
            entries.is_empty() && eof,
            "page 1 of an empty directory: {entries:?}, eof {eof}"
        ),
        other => panic!("no listing: {other:?}"),
    }
}
