//! End-to-end tests of the `slice-check` verification subsystem itself:
//! clean runs pass every oracle deterministically, crashed runs converge
//! to the crash-free reference, and deliberately injected corruption —
//! mutations of server state or of the recorded history — is caught.

mod common;

use common::deadline;
use slice::check::{
    check_histories, check_structural, check_structural_strict, generate_scenario, run_schedule,
    standard_schedules, sweep, Injection, Mode, NetFault, Role, Schedule, ScheduleEvent,
};
use slice::core::actors::{DirActor, StorageActor};
use slice::core::{OpHistory, SliceConfig, SliceEnsemble};
use slice::nfsproto::{
    ByteBuf, Fhandle, NfsProc, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow,
};
use slice::sim::SimTime;
use slice::workloads::{ScriptWorkload, Step};

#[test]
fn clean_sweep_passes_and_is_deterministic() {
    let a = sweep(&[5], 1, Mode::Standard, 1);
    assert!(a.passed(), "clean sweep failed: {:?}", a.failures);
    assert!(a.ops_checked > 0, "sweep checked nothing");
    let b = sweep(&[5], 1, Mode::Standard, 1);
    assert_eq!(a.json, b.json, "identical sweeps must be byte-identical");
}

#[test]
fn crash_schedule_converges_to_crash_free_reference() {
    let seed = 12;
    let scenario = generate_scenario(seed, 64);
    let reference = run_schedule(seed, &scenario, &Schedule::default(), None, Mode::Standard);
    assert!(
        reference.violations.is_empty(),
        "reference run: {:?}",
        reference.violations
    );
    let horizon = reference.finish.as_nanos() / 1_000_000;
    for (i, schedule) in standard_schedules(seed, 2, horizon).iter().enumerate() {
        let out = run_schedule(
            seed,
            &scenario,
            schedule,
            Some(&reference.snapshot),
            Mode::Standard,
        );
        assert!(
            out.violations.is_empty(),
            "schedule {i} ({}): {:?}",
            schedule.describe(),
            out.violations
        );
    }
}

#[test]
fn explorer_exercises_crash_machinery() {
    // A schedule whose crash window certainly overlaps the workload: the
    // run must still finish and pass (this guards against the explorer
    // silently injecting nothing).
    let seed = 3;
    let scenario = generate_scenario(seed, 48);
    let schedule = Schedule {
        events: vec![
            ScheduleEvent {
                at_ms: 40,
                inject: Injection::Crash {
                    role: Role::Dir,
                    site: 0,
                    down_ms: 1500,
                },
            },
            ScheduleEvent {
                at_ms: 60,
                inject: Injection::Net {
                    fault: NetFault::Loss,
                    level: 20,
                    dur_ms: 1000,
                },
            },
        ],
    };
    let out = run_schedule(seed, &scenario, &schedule, None, Mode::Standard);
    assert!(!out.stalled, "run stalled under injected faults");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.completed_ops > 0);
}

/// Runs a tiny scripted workload with history recording on, returning the
/// quiesced ensemble for mutation.
fn small_run(cfg: SliceConfig, steps: Vec<Step>, slots: usize) -> SliceEnsemble {
    let cfg = SliceConfig {
        record_history: true,
        retain_data: true,
        ..cfg
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, slots))]);
    ens.start();
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "script did not finish");
    ens
}

#[test]
fn mutation_forgotten_name_cell_is_caught() {
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "victim".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 1024,
            pattern: 0x5a,
            stable: StableHow::FileSync,
        },
    ];
    let mut ens = small_run(SliceConfig::default(), steps, 2);
    assert!(
        check_structural(&ens).is_empty(),
        "clean run must pass before mutation"
    );
    // Mutation: drop the name cell for "victim" behind the server's back,
    // leaving its attribute cell and the parent's entry count behind.
    let dir = ens.dirs[0];
    let key = {
        let srv = &ens.engine.actor::<DirActor>(dir).server;
        srv.dump_name_cells()
            .into_iter()
            .find(|(_, c)| c.name == "victim")
            .expect("victim cell")
            .0
    };
    assert!(ens
        .engine
        .actor_mut::<DirActor>(dir)
        .server
        .forget_name(key));
    let violations = check_structural(&ens);
    assert!(
        !violations.is_empty(),
        "structural oracle missed the forgotten name cell"
    );
    let oracles: Vec<&str> = violations.iter().map(|v| v.oracle).collect();
    assert!(
        oracles
            .iter()
            .any(|o| *o == "dirsvc_entry_count" || *o == "dirsvc_orphan" || *o == "dirsvc_nlink"),
        "unexpected oracle set: {oracles:?}"
    );
}

#[test]
fn mutation_dropped_storage_object_is_caught() {
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "bulk".into(),
            save: 1,
            mode_extra: 0,
        },
        // A large write routed through the coordinator so the block map
        // records object placements.
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 64 * 1024,
            pattern: 0x33,
            stable: StableHow::FileSync,
        },
    ];
    let cfg = SliceConfig {
        use_block_maps: true,
        ..SliceConfig::default()
    };
    let mut ens = small_run(cfg, steps, 2);
    assert!(
        check_structural_strict(&ens).is_empty(),
        "clean run must pass before mutation"
    );
    // Mutation: delete every storage node's backing object for the file
    // while the coordinator's block map still claims placements.
    let mut dropped = false;
    for &s in &ens.storage.clone() {
        let store = ens.engine.actor_mut::<StorageActor>(s).node.store_mut();
        let files: Vec<u64> = (2..32).filter(|&id| store.get(id).is_some()).collect();
        for id in files {
            dropped |= store.remove(id);
        }
    }
    assert!(dropped, "no storage object found to drop");
    let violations = check_structural_strict(&ens);
    assert!(
        violations.iter().any(|v| v.oracle.starts_with("block_map")),
        "block-map oracle missed the dropped object: {violations:?}"
    );
}

#[test]
fn mutation_corrupted_history_is_caught() {
    // A synthetic recorded history in which a stable write of 0x55 is
    // followed by a read observing 0x66: no register assignment explains
    // it, so the data oracle must flag the file.
    let fh = Fhandle::new(7, 0, 0, 0, 1);
    let t = SimTime::from_nanos;
    let mut h = OpHistory::new();
    h.begin(
        t(10),
        1,
        &NfsRequest::Write {
            fh,
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![0x55; 1024],
        }
        .into(),
    );
    h.complete(
        t(20),
        1,
        0,
        &NfsReply {
            proc: NfsProc::Write,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Write {
                count: 1024,
                committed: StableHow::FileSync,
                verf: 1,
            },
        },
    );
    h.begin(
        t(30),
        2,
        &NfsRequest::Read {
            fh,
            offset: 0,
            count: 1024,
        }
        .into(),
    );
    h.complete(
        t(40),
        2,
        0,
        &NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Read {
                data: ByteBuf::from(vec![0x66; 1024]).into(),
                eof: true,
            },
        },
    );
    let (violations, stats) = check_histories(&[&h]);
    assert!(stats.registers_checked >= 1);
    assert!(
        violations
            .iter()
            .any(|v| v.oracle == "close_to_open" || v.oracle == "linearizability"),
        "data oracle missed the corrupted history: {violations:?}"
    );
}

#[test]
fn mutation_lost_truncate_is_caught() {
    // Regression shape for a real bug the explorer found: a truncate whose
    // data-plane clamp is lost resurrects old bytes on the next read. Here
    // the full stack executes correctly, so the oracle must stay quiet —
    // and the synthetic variant (truncate recorded, old value read back)
    // must fire.
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "t".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 4096,
            pattern: 0x42,
            stable: StableHow::FileSync,
        },
        Step::Setattr {
            fh: 1,
            attr: Sattr3 {
                size: Some(0),
                ..Default::default()
            },
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 1024,
            pattern: 0x43,
            stable: StableHow::FileSync,
        },
        Step::Read {
            fh: 1,
            offset: 0,
            len: 4096,
            verify: None,
        },
    ];
    let ens = small_run(SliceConfig::default(), steps, 2);
    let (violations, _) = check_histories(&ens.histories());
    assert!(violations.is_empty(), "real stack: {violations:?}");

    // Synthetic lost-truncate history: write 0x42, truncate to 0, then a
    // read past the truncation point still sees 0x42 in chunk 1.
    let fh = Fhandle::new(9, 0, 0, 0, 1);
    let t = SimTime::from_nanos;
    let mut h = OpHistory::new();
    h.begin(
        t(10),
        1,
        &NfsRequest::Write {
            fh,
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![0x42; 2048],
        }
        .into(),
    );
    h.complete(
        t(20),
        1,
        0,
        &NfsReply {
            proc: NfsProc::Write,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Write {
                count: 2048,
                committed: StableHow::FileSync,
                verf: 1,
            },
        },
    );
    h.begin(
        t(30),
        2,
        &NfsRequest::Setattr {
            fh,
            attr: Sattr3 {
                size: Some(0),
                ..Default::default()
            },
        }
        .into(),
    );
    h.complete(
        t(40),
        2,
        0,
        &NfsReply {
            proc: NfsProc::Setattr,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::None,
        },
    );
    h.begin(
        t(50),
        3,
        &NfsRequest::Read {
            fh,
            offset: 1024,
            count: 1024,
        }
        .into(),
    );
    h.complete(
        t(60),
        3,
        0,
        &NfsReply {
            proc: NfsProc::Read,
            status: NfsStatus::Ok,
            attr: None,
            body: ReplyBody::Read {
                data: ByteBuf::from(vec![0x42; 1024]).into(),
                eof: true,
            },
        },
    );
    let (violations, _) = check_histories(&[&h]);
    assert!(
        !violations.is_empty(),
        "data oracle missed the lost truncate"
    );
}

/// A generated scenario is a plain `Step` script: one seed gives one
/// sequence, and a clean ensemble runs it to the end with every call
/// recorded. (Its reads may run past a file's end, so the script's own
/// checks are not the explorer's verdict.)
#[test]
fn driver_workload_scenarios_are_deterministic() {
    let steps = generate_scenario(21, 80);
    assert_eq!(steps, generate_scenario(21, 80));
    let ens = small_run(SliceConfig::default(), steps, 2);
    let script = ens.client(0).workload_as::<ScriptWorkload>();
    assert!(script.skipped.is_empty(), "{:?}", script.skipped);
    assert_eq!(script.issued.len(), ens.histories()[0].len());
}
