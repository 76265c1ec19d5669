//! Failure injection and recovery: dataless file managers recover from
//! their write-ahead logs in shared network storage (paper §2.3, §3.3.2),
//! and the µproxy may lose its soft state without compromising
//! correctness (§2.1).

mod common;

use common::{assert_errors, deadline};
use slice::core::{SliceConfig, SliceEnsemble};
use slice::nfsproto::StableHow;
use slice::sim::SimDuration;
use slice::workloads::{ScriptWorkload, Step};

/// Builds, runs phase one to completion, applies `fault`, then runs phase
/// two on the same client and asserts it passes. Every run also records
/// the client-visible op history and is vetted by the slice-check
/// consistency oracles after quiescing.
fn two_phase(
    cfg: &SliceConfig,
    phase1: Vec<Step>,
    slots1: usize,
    fault: impl FnOnce(&mut SliceEnsemble),
    phase2: Vec<Step>,
    slots2: usize,
) -> SliceEnsemble {
    let cfg = SliceConfig {
        record_history: true,
        ..cfg.clone()
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(phase1, slots1))]);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    fault(&mut ens);
    ens.client_mut(0)
        .set_workload(Box::new(ScriptWorkload::new(phase2, slots2)));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    ens
}

#[test]
fn directory_server_recovers_from_wal() {
    let cfg = SliceConfig::default();
    let phase1 = vec![
        Step::Mkdir {
            parent: 0,
            name: "stable".into(),
            save: 1,
        },
        Step::Create {
            parent: 1,
            name: "kept".into(),
            save: 2,
            mode_extra: 0,
        },
        Step::Write {
            fh: 2,
            offset: 0,
            len: 3000,
            pattern: 0x42,
            stable: StableHow::FileSync,
        },
    ];
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "stable".into(),
            save: 1,
            expect_ok: true,
        },
        Step::Lookup {
            parent: 1,
            name: "kept".into(),
            save: 2,
            expect_ok: true,
        },
        Step::Read {
            fh: 2,
            offset: 0,
            len: 3000,
            verify: Some(0x42),
        },
        // The volume is fully writable again after failover.
        Step::Create {
            parent: 1,
            name: "after".into(),
            save: 3,
            mode_extra: 0,
        },
    ];
    two_phase(
        &cfg,
        phase1,
        3,
        |ens| {
            // Crash and restart the (only) directory server: volatile
            // cells are lost, the WAL in shared storage survives.
            let dir = ens.dirs[0];
            ens.engine.fail_node(dir);
            ens.engine
                .run_until(ens.engine.now() + SimDuration::from_secs(2));
            ens.engine.recover_node(dir);
        },
        phase2,
        4,
    );
}

#[test]
fn smallfile_server_recovers_from_wal() {
    let cfg = SliceConfig {
        sf_servers: 1,
        ..Default::default()
    };
    let phase1 = vec![
        Step::Create {
            parent: 0,
            name: "small".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 10_000,
            pattern: 0x66,
            stable: StableHow::FileSync,
        },
    ];
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "small".into(),
            save: 1,
            expect_ok: true,
        },
        // The data was stable in the backing storage objects before the
        // crash; recovery rebuilds the map records and re-fetches it.
        Step::Read {
            fh: 1,
            offset: 0,
            len: 10_000,
            verify: Some(0x66),
        },
    ];
    two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            let sf = ens.sfs[0];
            ens.engine.fail_node(sf);
            ens.engine
                .run_until(ens.engine.now() + SimDuration::from_secs(2));
            ens.engine.recover_node(sf);
        },
        phase2,
        2,
    );
}

#[test]
fn storage_node_restart_changes_verifier_but_keeps_stable_data() {
    let cfg = SliceConfig::default();
    let phase1 = vec![
        Step::Create {
            parent: 0,
            name: "bulk".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 32768,
            pattern: 0x11,
            stable: StableHow::FileSync,
        },
    ];
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "bulk".into(),
            save: 1,
            expect_ok: true,
        },
        Step::Read {
            fh: 1,
            offset: 128 * 1024,
            len: 32768,
            verify: Some(0x11),
        },
    ];
    let ens = two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            for &s in &ens.storage.clone() {
                ens.engine.fail_node(s);
            }
            ens.engine
                .run_until(ens.engine.now() + SimDuration::from_secs(1));
            for &s in &ens.storage.clone() {
                ens.engine.recover_node(s);
            }
        },
        phase2,
        2,
    );
    for &s in &ens.storage {
        let actor = ens.engine.actor::<slice::core::actors::StorageActor>(s);
        assert!(
            actor.node.verifier() > 1,
            "restart must change the write verifier"
        );
    }
}

#[test]
fn uproxy_state_loss_is_transparent() {
    // Drop the µproxy's entire soft state between phases: the paper
    // requires this to be safe ("free to discard its state ... without
    // compromising correctness").
    let cfg = SliceConfig::default();
    let phase1 = vec![
        Step::Create {
            parent: 0,
            name: "f".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 5000,
            pattern: 0x33,
            stable: StableHow::FileSync,
        },
    ];
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "f".into(),
            save: 1,
            expect_ok: true,
        },
        Step::Read {
            fh: 1,
            offset: 0,
            len: 5000,
            verify: Some(0x33),
        },
        Step::Write {
            fh: 1,
            offset: 0,
            len: 100,
            pattern: 0x44,
            stable: StableHow::FileSync,
        },
        Step::Read {
            fh: 1,
            offset: 0,
            len: 100,
            verify: Some(0x44),
        },
    ];
    two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            ens.client_mut(0)
                .proxy_mut()
                .expect("slice client")
                .lose_state();
        },
        phase2,
        2,
    );
}

#[test]
fn coordinator_recovers_open_intents() {
    // Crash the coordinator right after work that opened intents; its
    // recovery scan must resolve them (probe, then complete or abort) and
    // the service must keep working.
    let cfg = SliceConfig::default();
    let phase1 = vec![
        Step::Create {
            parent: 0,
            name: "c".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 32768,
            pattern: 0x21,
            stable: StableHow::Unstable,
        },
        Step::Commit { fh: 1 },
    ];
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "c".into(),
            save: 1,
            expect_ok: true,
        },
        Step::Write {
            fh: 1,
            offset: 192 * 1024,
            len: 32768,
            pattern: 0x22,
            stable: StableHow::Unstable,
        },
        Step::Commit { fh: 1 },
        Step::Read {
            fh: 1,
            offset: 192 * 1024,
            len: 32768,
            verify: Some(0x22),
        },
    ];
    let ens = two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            let coord = ens.coords[0];
            ens.engine.fail_node(coord);
            ens.engine
                .run_until(ens.engine.now() + SimDuration::from_secs(1));
            ens.engine.recover_node(coord);
        },
        phase2,
        2,
    );
    let coord = ens
        .engine
        .actor::<slice::core::actors::CoordActor>(ens.coords[0]);
    assert_eq!(
        coord.coord.open_intents(),
        0,
        "no intents may dangle after recovery"
    );
}

/// A truncate whose leg is lost at a crashed replica is carried through
/// when the replica returns: the coordinator's probe finds the truncate
/// done everywhere else, re-issues the leg, and logs the intention
/// `Repaired`. (With no intention id on the leg every probe answered "not
/// done", the intention was logged `Aborted`, and the recovered replica
/// kept the bytes past the new size.)
#[test]
fn truncate_lost_at_a_crashed_replica_is_reissued() {
    use slice::core::actors::{CoordActor, StorageActor};
    use slice::nfsproto::Sattr3;
    use slice::storage::IntentOutcome;
    use slice::workloads::MODE_MIRRORED;

    let cfg = SliceConfig::default();
    let (obj, end, cut) = (2, 192 * 1024, 128 * 1024 + 1000);
    let phase1 = vec![
        Step::Create {
            parent: 0,
            name: "t".into(),
            save: 1,
            mode_extra: MODE_MIRRORED,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 65536,
            pattern: 0x31,
            stable: StableHow::FileSync,
        },
    ];
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(phase1, 2))]);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    let size_at = |ens: &SliceEnsemble, i: usize| {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[i]).node;
        node.store().size(obj)
    };
    let holders: Vec<usize> = (0..ens.storage.len())
        .filter(|&i| size_at(&ens, i) == end)
        .collect();
    assert_eq!(holders.len(), 2, "two replicas hold the stripe");
    let (victim, survivor) = (holders[0], holders[1]);

    ens.engine.fail_node(ens.storage[victim]);
    let phase2 = vec![
        Step::Lookup {
            parent: 0,
            name: "t".into(),
            save: 1,
            expect_ok: true,
        },
        Step::Setattr {
            fh: 1,
            attr: Sattr3 {
                size: Some(cut),
                ..Default::default()
            },
        },
    ];
    ens.client_mut(0)
        .set_workload(Box::new(ScriptWorkload::new(phase2, 2)));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(1));
    assert_eq!(size_at(&ens, survivor), cut);
    assert_eq!(size_at(&ens, victim), end, "the leg was lost with the node");

    ens.recover_storage_node(victim);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(12));
    assert_eq!(size_at(&ens, victim), cut, "the lost leg was re-issued");
    let coord = &ens.engine.actor::<CoordActor>(ens.coords[0]).coord;
    assert_eq!(coord.open_intents(), 0);
    assert_eq!(
        coord.resolutions()[IntentOutcome::Repaired as usize],
        1,
        "{:?}",
        coord.resolutions()
    );
}

#[test]
fn sustained_packet_loss_with_bulk_transfer() {
    // 2% loss under a multi-block transfer: the end-to-end retransmission
    // machinery must deliver a fully intact file.
    let cfg = SliceConfig {
        seed: 99,
        record_history: true,
        ..Default::default()
    };
    let mut steps = vec![Step::Create {
        parent: 0,
        name: "lossy".into(),
        save: 1,
        mode_extra: 0,
    }];
    for i in 0..6u64 {
        steps.push(Step::Write {
            fh: 1,
            offset: i * 32768,
            len: 32768,
            pattern: 0x80 + i as u8,
            stable: StableHow::FileSync,
        });
    }
    for i in 0..6u64 {
        steps.push(Step::Read {
            fh: 1,
            offset: i * 32768,
            len: 32768,
            verify: Some(0x80 + i as u8),
        });
    }
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, 2))]);
    ens.engine.set_loss_prob(0.02);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
}

/// With one storage node crashed and never recovered, a mirrored-read
/// workload completes with zero failed ops: the µproxy's suspicion table
/// steers every read of a victim-mirrored chunk to the surviving replica.
#[test]
fn mirrored_reads_fail_over_while_node_stays_down() {
    use slice::workloads::MODE_MIRRORED;
    let cfg = SliceConfig::default();
    let mut phase1 = vec![Step::Create {
        parent: 0,
        name: "mir".into(),
        save: 1,
        mode_extra: MODE_MIRRORED,
    }];
    for i in 0..8u64 {
        phase1.push(Step::Write {
            fh: 1,
            offset: 128 * 1024 + i * 32768,
            len: 32768,
            pattern: 0x50 + i as u8,
            stable: StableHow::FileSync,
        });
    }
    let mut phase2 = vec![Step::Lookup {
        parent: 0,
        name: "mir".into(),
        save: 1,
        expect_ok: true,
    }];
    for i in 0..8u64 {
        phase2.push(Step::Read {
            fh: 1,
            offset: 128 * 1024 + i * 32768,
            len: 32768,
            verify: Some(0x50 + i as u8),
        });
    }
    let ens = two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            // Crash one replica holder; it never comes back.
            let s = ens.storage[0];
            ens.engine.fail_node(s);
        },
        phase2,
        2,
    );
    assert_eq!(
        ens.client(0).stats().timeouts,
        0,
        "reads must fail over, not time out"
    );
    let proxy = ens.client(0).proxy().expect("slice client");
    assert!(
        proxy.suspected_sites().contains(&0),
        "the dead site must be under suspicion"
    );
    let (failovers, _, _, _) = proxy.ha_stats();
    assert!(
        failovers > 0,
        "reads of victim-mirrored chunks must re-route"
    );
}

/// A mirrored write issued while one replica is down completes at reduced
/// redundancy, lands in the coordinator's dirty-region log, is copied
/// back by the online resync after `recover_storage_node`, and the
/// recovered node then serves reads once a probe clears its suspicion.
#[test]
fn degraded_write_resyncs_and_recovered_mirror_serves_reads() {
    use slice::core::actors::{CoordActor, StorageActor};
    use slice::workloads::BulkIo;

    let cfg = SliceConfig {
        clients: 1,
        record_history: true,
        probe_interval_ms: 300,
        ..Default::default()
    };
    let total = 16 * 1024 * 1024u64;
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(BulkIo::writer("ha0", total, true))]);
    ens.start();
    // Crash a replica holder mid-write: the remainder of the stream
    // continues against the surviving mirrors.
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_millis(50));
    ens.engine.fail_node(ens.storage[0]);
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "degraded writer must finish");
    assert_eq!(ens.client(0).stats().timeouts, 0);
    let dirty: usize = ens
        .coords
        .iter()
        .map(|&c| {
            ens.engine
                .actor::<CoordActor>(c)
                .coord
                .dirty_log_dump()
                .len()
        })
        .sum();
    assert!(dirty > 0, "missed mirror writes must be logged as dirty");

    // Recover: the coordinator sweep copies the dirty ranges back.
    ens.recover_storage_node(0);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(20));
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        assert_eq!(coord.dirty_log_dump().len(), 0, "resync must drain the log");
        assert!(
            coord.resync_history().iter().any(|&(s, _, _, _)| s == 0),
            "a resync of the victim must be on record"
        );
    }
    let violations = slice::check::check_structural(&ens);
    assert!(
        violations.is_empty(),
        "mirrors must converge after resync: {violations:?}"
    );

    // First read pass: still suspected, every read lands on the
    // survivors; the pass's trailing tick probes the recovered site and
    // the clean verdict readmits it.
    ens.client_mut(0)
        .set_workload(Box::new(BulkIo::reader("ha0", total)));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "reader must finish");
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(1));
    let proxy = ens.client(0).proxy().expect("slice client");
    assert!(
        proxy.suspected_sites().is_empty(),
        "probes must clear the suspicion after resync"
    );

    // Second pass: the readmitted mirror takes its share of the rotation.
    let before = {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[0]).node;
        node.store().io_stats().1
    };
    ens.client_mut(0)
        .set_workload(Box::new(BulkIo::reader("ha0", total)));
    ens.engine.kick(c0);
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "second reader must finish");
    assert_eq!(ens.client(0).stats().timeouts, 0);
    let after = {
        let node = &ens.engine.actor::<StorageActor>(ens.storage[0]).node;
        node.store().io_stats().1
    };
    assert!(after > before, "the recovered mirror must serve reads");
}

/// Defect 1(ix): a resync shelved because its only *source* was down must
/// start again when that source returns. Site 0 misses writes whose other
/// copy is on site 1 or 3; site 0 comes back while site 1 is down, so its
/// copy-back stalls on the first range only site 1 can supply and is
/// shelved after `RESYNC_MAX_ATTEMPTS`; then site 1 returns.
#[test]
fn resync_shelved_for_a_dead_source_restarts_when_the_source_returns() {
    use slice::core::actors::CoordActor;
    use slice::workloads::BulkIo;

    let cfg = SliceConfig {
        clients: 1,
        ..Default::default()
    };
    let total = 4 * 1024 * 1024u64;
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(BulkIo::writer("ha1", total, true))]);
    ens.start();
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_millis(20));
    ens.engine.fail_node(ens.storage[0]);
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "degraded writer must finish");
    fn coord(ens: &SliceEnsemble) -> &slice::storage::Coordinator {
        &ens.engine.actor::<CoordActor>(ens.coords[0]).coord
    }
    let owed = coord(&ens).dirty_log_dump();
    assert!(owed.iter().all(|r| r.0 == 0) && !owed.is_empty());

    // The target returns, one of its two sources is gone.
    ens.engine.fail_node(ens.storage[1]);
    ens.recover_storage_node(0);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(90));
    let left = coord(&ens).dirty_log_dump().len();
    assert!(
        left > 0 && left < owed.len(),
        "ranges site 3 can supply are copied, the rest wait: {left} of {}",
        owed.len()
    );
    assert!(!coord(&ens).needs_sweep(), "the stalled resync is shelved");

    // The source returns: nothing is owed to *it*, the shelved site is 0.
    ens.recover_storage_node(1);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(30));
    assert_eq!(
        coord(&ens).dirty_log_dump(),
        vec![],
        "the shelved resync must restart when its source returns"
    );
    let violations = slice::check::check_structural(&ens);
    assert!(violations.is_empty(), "mirrors converge: {violations:?}");
}

/// Two mirrored writers in lockstep issue degraded writes with equal RPC
/// xids (every client numbers from 1). Both clients' missed ranges must
/// reach the dirty log, or the recovered mirror keeps stale bytes forever.
#[test]
fn lockstep_writers_with_equal_xids_both_resync() {
    use slice::core::actors::CoordActor;
    use slice::workloads::BulkIo;

    let cfg = SliceConfig {
        clients: 2,
        ..Default::default()
    };
    let total = 8 * 1024 * 1024u64;
    let writers: Vec<Box<dyn slice::core::Workload>> = vec![
        Box::new(BulkIo::writer("lock0", total, true)),
        Box::new(BulkIo::writer("lock1", total, true)),
    ];
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_millis(50));
    ens.engine.fail_node(ens.storage[0]);
    ens.run_to_completion(deadline());
    assert!((0..2).all(|i| ens.client(i).finished()));

    ens.recover_storage_node(0);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(30));
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        assert_eq!(coord.dirty_ranges(), 0, "resync must drain the log");
    }
    let violations = slice::check::state::check_mirror_convergence(&ens);
    assert!(
        violations.is_empty(),
        "both writers' mirrors must converge: {violations:?}"
    );
}

/// The chaos schedule pool (datagram duplication, bounded reordering,
/// storage/coordinator crashes, loss) passes every oracle, and two
/// processes produce identical outcomes.
#[test]
fn chaos_schedules_pass_oracles_deterministically() {
    use slice::check::{chaos_schedules, generate_scenario, run_schedule, Mode, Schedule};
    let plain = Mode::Standard;
    let run = || {
        let scenario = generate_scenario(21, 48);
        let reference = run_schedule(21, &scenario, &Schedule::default(), None, plain);
        assert!(
            reference.violations.is_empty(),
            "reference run violated: {:?}",
            reference.violations
        );
        let horizon_ms = reference.finish.as_nanos() / 1_000_000;
        let mut outcomes = Vec::new();
        for sched in chaos_schedules(21, 5, horizon_ms) {
            let out = run_schedule(21, &scenario, &sched, Some(&reference.snapshot), plain);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                sched.describe(),
                out.violations
            );
            outcomes.push((out.finish, out.completed_ops, out.skipped_ops));
        }
        outcomes
    };
    assert_eq!(run(), run(), "chaos runs must replay identically");
}

#[test]
fn run_is_deterministic() {
    let run = |seed: u64| {
        let cfg = SliceConfig {
            seed,
            ..Default::default()
        };
        let untar = slice::workloads::Untar::new(0, 120);
        let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(untar)]);
        ens.start();
        ens.run_to_completion(deadline());
        let u = ens
            .client(0)
            .workload()
            .unwrap()
            .as_any()
            .downcast_ref::<slice::workloads::Untar>()
            .unwrap()
            .elapsed()
            .expect("finished");
        (u, ens.engine.packets_sent())
    };
    assert_eq!(run(5), run(5), "same seed, same trace");
}

/// Crash-window hazards at system scale: three different node classes
/// crash back-to-back while requests are in flight, so wire packets
/// outlive their destination's crash (and are dropped at arrival if the
/// node is still down), while queued local work and pending timers die
/// with the old incarnation instead of firing into the new one. Every
/// oracle passes.
#[test]
fn mid_flight_crash_windows_pass_oracles() {
    use slice::check::{
        generate_scenario, run_schedule, Injection, Mode, Role, Schedule, ScheduleEvent,
    };
    let plain = Mode::Standard;
    let crash = |role, down_ms| Injection::Crash {
        role,
        site: 0,
        down_ms,
    };
    let scenario = generate_scenario(33, 48);
    let reference = run_schedule(33, &scenario, &Schedule::default(), None, plain);
    assert!(
        reference.violations.is_empty(),
        "reference run violated: {:?}",
        reference.violations
    );
    // Land the crashes mid-workload, with client requests in flight.
    let t0 = (reference.finish.as_nanos() / 1_000_000) / 4;
    let schedule = Schedule {
        events: vec![
            ScheduleEvent {
                at_ms: t0,
                inject: crash(Role::Dir, 400),
            },
            ScheduleEvent {
                at_ms: t0 + 1,
                inject: crash(Role::Storage, 400),
            },
            ScheduleEvent {
                at_ms: t0 + 3,
                inject: crash(Role::Coord, 300),
            },
        ],
    };
    let crashed = run_schedule(33, &scenario, &schedule, Some(&reference.snapshot), plain);
    assert!(
        crashed.violations.is_empty(),
        "crash-window run violated: {:?}",
        crashed.violations
    );
    assert!(!crashed.stalled, "crash-window run stalled");
}

/// Two crash/recover cycles of the same storage node in quick succession
/// while mirrored writes are flowing: each crash bumps the node's
/// incarnation, so timers and queued work from the first life cannot
/// fire into the second. The workload finishes, resync drains the dirty
/// log, and every oracle passes.
#[test]
fn rapid_double_crash_recover_discards_stale_incarnation_work() {
    use slice::core::Workload;
    use slice::sim::SimTime;
    use slice::workloads::BulkIo;
    let cfg = SliceConfig {
        record_history: true,
        retain_data: true,
        ..Default::default()
    };
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(BulkIo::writer("dd0", 4 << 20, true))]);
    ens.start();
    for k in 0..2u64 {
        ens.engine
            .run_until(SimTime::from_nanos((20 + k * 15) * 1_000_000));
        ens.engine.fail_node(ens.storage[0]);
        ens.engine
            .run_until(SimTime::from_nanos((28 + k * 15) * 1_000_000));
        ens.recover_storage_node(0);
    }
    ens.run_to_completion(deadline());
    let w = common::workload_of::<BulkIo>(&ens, 0);
    assert!(w.finished(), "writer did not finish after double crash");
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
}

/// Clean coded roundtrip: pipelined writes to an erasure-coded file are
/// striped into k data + n−k parity shards, reads come back byte-exact,
/// and the coded-reconstruction oracle verifies every stripe decodes from
/// every k-subset of its shards.
#[test]
fn coded_write_read_roundtrip() {
    let cfg = SliceConfig {
        coded: Some((4, 2)),
        record_history: true,
        ..Default::default()
    };
    let mut script = vec![Step::Create {
        parent: 0,
        name: "ec0".into(),
        save: 1,
        mode_extra: 0,
    }];
    for i in 0..8u64 {
        script.push(Step::Write {
            fh: 1,
            offset: 64 * 1024 + i * 32768,
            len: 32768,
            pattern: 0x60 + i as u8,
            stable: StableHow::FileSync,
        });
    }
    for i in 0..8u64 {
        script.push(Step::Read {
            fh: 1,
            offset: 64 * 1024 + i * 32768,
            len: 32768,
            verify: Some(0x60 + i as u8),
        });
    }
    let ens = common::run_script(&cfg, ScriptWorkload::new(script, 4));
    assert_eq!(ens.client(0).stats().timeouts, 0);
    let proxy = ens.client(0).proxy().expect("slice client");
    let (coded_reads, coded_writes, degraded, recon, _) = proxy.ec_stats();
    assert!(coded_writes >= 8, "bulk writes must take the coded path");
    assert!(coded_reads >= 8, "bulk reads must take the coded path");
    assert_eq!(degraded, 0, "no degraded reads on a healthy ensemble");
    assert_eq!(recon, 0, "no reconstruction on a healthy ensemble");
    let mut violations = slice::check::check_structural_strict(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
}

/// With one storage node down and never recovered, reads of a coded file
/// reconstruct the missing shards from any k survivors: the workload
/// completes with zero timeouts and byte-exact data.
#[test]
fn coded_reads_reconstruct_while_node_stays_down() {
    let cfg = SliceConfig {
        coded: Some((4, 2)),
        ..Default::default()
    };
    let mut phase1 = vec![Step::Create {
        parent: 0,
        name: "ec1".into(),
        save: 1,
        mode_extra: 0,
    }];
    for i in 0..8u64 {
        phase1.push(Step::Write {
            fh: 1,
            offset: 64 * 1024 + i * 32768,
            len: 32768,
            pattern: 0x70 + i as u8,
            stable: StableHow::FileSync,
        });
    }
    let mut phase2 = vec![Step::Lookup {
        parent: 0,
        name: "ec1".into(),
        save: 1,
        expect_ok: true,
    }];
    for i in 0..8u64 {
        phase2.push(Step::Read {
            fh: 1,
            offset: 64 * 1024 + i * 32768,
            len: 32768,
            verify: Some(0x70 + i as u8),
        });
    }
    let ens = two_phase(
        &cfg,
        phase1,
        2,
        |ens| {
            let s = ens.storage[0];
            ens.engine.fail_node(s);
        },
        phase2,
        2,
    );
    assert_eq!(
        ens.client(0).stats().timeouts,
        0,
        "reads must reconstruct, not time out"
    );
    let proxy = ens.client(0).proxy().expect("slice client");
    assert!(
        proxy.suspected_sites().contains(&0),
        "the dead site must be under suspicion"
    );
    let (_, _, degraded, recon, recon_bytes) = proxy.ec_stats();
    assert!(degraded > 0, "reads of victim-held shards must degrade");
    assert!(recon > 0, "degraded reads must decode from k survivors");
    assert!(recon_bytes > 0, "reconstruction must account its bytes");
}

/// A coded write issued while one shard holder is down completes at
/// reduced redundancy, parks the dead legs in the dirty-region log, and
/// the post-recovery resync rebuilds the missing shards from k survivors
/// — after which every stripe again decodes from every k-subset.
#[test]
fn coded_degraded_write_resyncs_and_restores_redundancy() {
    use slice::core::actors::CoordActor;
    use slice::workloads::BulkIo;

    let cfg = SliceConfig {
        clients: 1,
        coded: Some((4, 2)),
        record_history: true,
        probe_interval_ms: 300,
        ..Default::default()
    };
    let total = 8 * 1024 * 1024u64;
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(BulkIo::writer("ec2", total, true))]);
    ens.start();
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_millis(50));
    ens.engine.fail_node(ens.storage[0]);
    ens.run_to_completion(deadline());
    assert!(ens.client(0).finished(), "degraded writer must finish");
    assert_eq!(ens.client(0).stats().timeouts, 0);
    let dirty: usize = ens
        .coords
        .iter()
        .map(|&c| {
            ens.engine
                .actor::<CoordActor>(c)
                .coord
                .dirty_log_dump()
                .len()
        })
        .sum();
    assert!(dirty > 0, "missed shard writes must be logged as dirty");

    ens.recover_storage_node(0);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(20));
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        assert_eq!(
            coord.dirty_log_dump().len(),
            0,
            "shard rebuild must drain the log"
        );
        assert!(
            coord.resync_history().iter().any(|&(s, _, _, _)| s == 0),
            "a rebuild of the victim must be on record"
        );
    }
    let violations = slice::check::check_structural(&ens);
    assert!(
        violations.is_empty(),
        "stripes must re-satisfy the code after rebuild: {violations:?}"
    );
}
