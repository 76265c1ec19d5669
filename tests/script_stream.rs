//! Pins what a scripted workload sends and concludes, through the public
//! API only. Four scripts run on four ensembles — a quickstart-like tree
//! under mkdir switching, a 24-file listing paged over four name-hashing
//! directory sites, a link / symlink / rename / rmdir / truncate script,
//! and a mirrored write-and-read script with a storage node crashed and
//! recovered mid-run — and every run's op history (xid, procedure, begin,
//! end, status, retries) plus the script's errors and verdict are folded
//! with FNV-1a into one constant. A refactor of the script leaves the
//! constant alone; a change of behaviour re-pins on purpose and says why
//! (the failure message prints the new value).

mod common;

use common::deadline;
use slice::core::{EnsemblePolicy, SliceConfig, SliceEnsemble};
use slice::hashes::{fnv1a, fnv1a_continue};
use slice::nfsproto::{Sattr3, StableHow};
use slice::sim::SimDuration;
use slice::workloads::{ScriptWorkload, Step, MODE_MIRRORED};

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a_continue(h, &v.to_le_bytes())
}

/// Builds `cfg` with history recording on around one script, lets
/// `drive` run it (faults included), folds the outcome into `h` and hands
/// back the quiesced ensemble.
fn fold_run(
    h: u64,
    cfg: SliceConfig,
    steps: Vec<Step>,
    slots: usize,
    drive: impl FnOnce(&mut SliceEnsemble),
) -> (u64, SliceEnsemble) {
    let cfg = SliceConfig {
        record_history: true,
        ..cfg
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, slots))]);
    ens.start();
    drive(&mut ens);
    ens.run_to_completion(deadline());
    let client = ens.client(0);
    let mut h = fold_u64(h, client.history().len() as u64);
    for r in client.history().records() {
        h = fold_u64(h, u64::from(r.xid));
        h = fnv1a_continue(h, r.op.as_bytes());
        h = fold_u64(h, r.begin.as_nanos());
        h = fold_u64(h, r.end.map_or(u64::MAX, |t| t.as_nanos()));
        h = fold_u64(h, r.status.map_or(u64::MAX, |s| s as u64));
        h = fold_u64(h, u64::from(r.retries));
    }
    let script = client.workload_as::<ScriptWorkload>();
    for e in &script.errors {
        h = fnv1a_continue(h, e.as_bytes());
    }
    assert!(script.passed(), "script failed: {:?}", script.errors);
    h = fold_u64(h, u64::from(script.passed()));
    (h, ens)
}

/// How many READDIR calls the run's history holds.
fn readdirs(ens: &SliceEnsemble) -> usize {
    let records = ens.client(0).history().records();
    records.iter().filter(|r| r.op == "readdir").count()
}

fn mkdir(parent: usize, name: &str, save: usize) -> Step {
    Step::Mkdir {
        parent,
        name: name.into(),
        save,
    }
}

fn create(parent: usize, name: &str, save: usize, mode_extra: u32) -> Step {
    Step::Create {
        parent,
        name: name.into(),
        save,
        mode_extra,
    }
}

fn lookup(parent: usize, name: &str, save: usize, expect_ok: bool) -> Step {
    Step::Lookup {
        parent,
        name: name.into(),
        save,
        expect_ok,
    }
}

fn write(fh: usize, offset: u64, len: u32, pattern: u8, stable: StableHow) -> Step {
    Step::Write {
        fh,
        offset,
        len,
        pattern,
        stable,
    }
}

fn read(fh: usize, offset: u64, len: u32, pattern: u8) -> Step {
    Step::Read {
        fh,
        offset,
        len,
        verify: Some(pattern),
    }
}

/// The quickstart's tree, small and striped writes, a commit and a
/// counted listing, on two directory sites that redirect every mkdir.
fn quickstart(h: u64) -> u64 {
    let cfg = SliceConfig {
        dir_servers: 2,
        policy: EnsemblePolicy::MkdirSwitching {
            redirect_millis: 1000,
        },
        ..SliceConfig::default()
    };
    let steps = vec![
        mkdir(0, "home", 1),
        mkdir(1, "user", 2),
        create(2, "notes.txt", 3, 0),
        write(3, 0, 4000, b'a', StableHow::FileSync),
        write(3, 128 * 1024, 32768, b'z', StableHow::Unstable),
        Step::Commit { fh: 3 },
        read(3, 0, 4000, b'a'),
        read(3, 128 * 1024, 32768, b'z'),
        Step::Getattr {
            fh: 3,
            expect_size: Some(128 * 1024 + 32768),
        },
        Step::Readdir {
            fh: 2,
            expect: Some(1),
        },
        Step::Readdir {
            fh: 0,
            expect: Some(1),
        },
    ];
    fold_run(h, cfg, steps, 4, |_| {}).0
}

/// 24 files in one directory spread over four name-hashing sites; the
/// listing chains from site to site.
fn name_hashing_listing(h: u64) -> u64 {
    let cfg = SliceConfig {
        dir_servers: 4,
        policy: EnsemblePolicy::NameHashing,
        ..SliceConfig::default()
    };
    let mut steps = vec![mkdir(0, "spread", 1)];
    for i in 0..24 {
        steps.push(create(1, &format!("f{i}"), 2, 0));
    }
    for i in 0..24 {
        steps.push(lookup(1, &format!("f{i}"), 2, true));
    }
    steps.push(Step::Readdir {
        fh: 1,
        expect: Some(24),
    });
    let (h, ens) = fold_run(h, cfg, steps, 3, |_| {});
    assert!(readdirs(&ens) > 1, "the listing must page across sites");
    h
}

/// Hard and symbolic links, a cross-directory rename, a truncate, and a
/// directory emptied and removed.
fn namespace_ops(h: u64) -> u64 {
    let truncate = |fh, size| Step::Setattr {
        fh,
        attr: Sattr3 {
            size: Some(size),
            ..Default::default()
        },
    };
    let steps = vec![
        mkdir(0, "a", 1),
        mkdir(0, "b", 2),
        create(1, "f", 3, 0),
        write(3, 0, 20000, 5, StableHow::FileSync),
        Step::Link {
            fh: 3,
            parent: 2,
            name: "hard".into(),
        },
        Step::Symlink {
            parent: 2,
            name: "ln".into(),
            target: "../a/f".into(),
            save: 4,
        },
        Step::Readlink {
            fh: 4,
            expect: "../a/f".into(),
        },
        Step::Rename {
            from: 1,
            from_name: "f".into(),
            to: 2,
            to_name: "g".into(),
        },
        lookup(1, "f", 5, false),
        lookup(2, "g", 5, true),
        truncate(5, 100),
        Step::Getattr {
            fh: 5,
            expect_size: Some(100),
        },
        read(5, 0, 100, 5),
        Step::Readdir {
            fh: 2,
            expect: Some(3),
        },
        Step::Readdir {
            fh: 1,
            expect: Some(0),
        },
        Step::Rmdir {
            parent: 0,
            name: "a".into(),
        },
        lookup(0, "a", 6, false),
        Step::Remove {
            parent: 2,
            name: "g".into(),
        },
        lookup(2, "hard", 6, true),
        read(6, 0, 100, 5),
        Step::Readdir {
            fh: 0,
            expect: Some(1),
        },
    ];
    fold_run(h, SliceConfig::default(), steps, 7, |_| {}).0
}

/// Mirrored striped writes and verified reads; a storage node is down
/// from 20 ms to 1.5 s of simulated time and recovers through the
/// ensemble, so the coordinator resynchronizes it.
fn mirrored_crash(h: u64) -> u64 {
    let cfg = SliceConfig {
        probe_interval_ms: 300,
        ..SliceConfig::default()
    };
    let mut steps = vec![create(0, "mir", 1, MODE_MIRRORED)];
    for round in 0..3u8 {
        for i in 0..8u64 {
            let pattern = 0x40 + 8 * round + i as u8;
            steps.push(write(
                1,
                128 * 1024 + i * 32768,
                32768,
                pattern,
                StableHow::FileSync,
            ));
        }
        for i in 0..8u64 {
            let pattern = 0x40 + 8 * round + i as u8;
            steps.push(read(1, 128 * 1024 + i * 32768, 32768, pattern));
        }
    }
    steps.push(Step::Commit { fh: 1 });
    steps.push(Step::Getattr {
        fh: 1,
        expect_size: Some(128 * 1024 + 8 * 32768),
    });
    let (h, ens) = fold_run(h, cfg, steps, 2, |ens| {
        let t0 = ens.engine.now();
        ens.engine.run_until(t0 + SimDuration::from_millis(20));
        ens.engine.fail_node(ens.storage[1]);
        ens.engine.run_until(t0 + SimDuration::from_millis(1500));
        assert!(
            !ens.client(0).finished(),
            "the crash must outlast no script"
        );
        ens.recover_storage_node(1);
    });
    let (_, degraded_writes, _, _) = ens.client(0).proxy().unwrap().ha_stats();
    assert!(
        degraded_writes > 0,
        "writes must run degraded while the node is down"
    );
    h
}

#[test]
fn four_scripts_reach_the_pinned_histories() {
    let mut h = fnv1a(b"");
    h = quickstart(h);
    h = name_hashing_listing(h);
    h = namespace_ops(h);
    h = mirrored_crash(h);
    assert_eq!(h, 14957849568911799248, "script fold moved: {h}");
}

/// A step naming a slot whose lookup failed is skipped and fails the
/// script; the steps after it still run.
#[test]
fn a_step_on_an_unbound_slot_fails_the_script() {
    let steps = vec![
        lookup(0, "absent", 1, false),
        Step::Getattr {
            fh: 1,
            expect_size: None,
        },
        mkdir(0, "after", 2),
    ];
    let mut ens = SliceEnsemble::build(
        &SliceConfig::default(),
        vec![Box::new(ScriptWorkload::new(steps, 3))],
    );
    ens.start();
    ens.run_to_completion(deadline());
    let client = ens.client(0);
    let script = client.workload_as::<ScriptWorkload>();
    assert!(client.finished(), "the script must finish");
    assert_eq!(script.skipped, vec![1]);
    assert_eq!(script.errors.len(), 1, "{:?}", script.errors);
    assert!(!script.passed());
    assert_eq!(client.stats().ops, 2, "the lookup and the mkdir ran");
}
