//! Failover: crash a directory server mid-life and watch it recover from
//! its write-ahead log in shared network storage (paper §2.3).
//!
//! Run with: `cargo run --example failover`

use slice::core::{actors::DirActor, SliceConfig, SliceEnsemble};
use slice::nfsproto::StableHow;
use slice::sim::{SimDuration, SimTime};
use slice::workloads::{ScriptWorkload, Step};

fn main() {
    let cfg = SliceConfig {
        record_history: true,
        ..SliceConfig::default()
    };
    let phase1 = ScriptWorkload::new(
        vec![
            Step::Mkdir {
                parent: 0,
                name: "projects".into(),
                save: 1,
            },
            Step::Create {
                parent: 1,
                name: "paper.tex".into(),
                save: 2,
                mode_extra: 0,
            },
            Step::Write {
                fh: 2,
                offset: 0,
                len: 2000,
                pattern: b'S',
                stable: StableHow::FileSync,
            },
        ],
        3,
    );
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(phase1)]);
    ens.start();
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(30));
    // The ensemble is idle: every record is durable, so these are the
    // counts the site must come back with.
    let durable_cells = {
        let dir = ens.engine.actor::<DirActor>(ens.dirs[0]);
        println!(
            "before crash: directory server holds {} name cells, {} attr cells",
            dir.server.name_cells(),
            dir.server.attr_cells()
        );
        let (appends, batches, bytes) = dir.server.wal_stats();
        println!("  WAL: {appends} records in {batches} batched log writes ({bytes} bytes)");
        (dir.server.name_cells(), dir.server.attr_cells())
    };

    println!("\n!! crashing the directory server (volatile state lost)");
    let dir_node = ens.dirs[0];
    ens.engine.fail_node(dir_node);
    {
        let dir = ens.engine.actor::<DirActor>(dir_node);
        println!(
            "after crash: {} name cells, {} attr cells",
            dir.server.name_cells(),
            dir.server.attr_cells()
        );
    }
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_secs(2));
    println!("recovering: failover replays backing objects + write-ahead log");
    ens.engine.recover_node(dir_node);
    ens.engine
        .run_until(ens.engine.now() + SimDuration::from_millis(100));
    {
        let dir = ens.engine.actor::<DirActor>(dir_node);
        let recovered = (dir.server.name_cells(), dir.server.attr_cells());
        assert_eq!(recovered, durable_cells, "image + log give the cells back");
    }

    // Phase two: everything is still there, and the volume is writable.
    let phase2 = ScriptWorkload::new(
        vec![
            Step::Lookup {
                parent: 0,
                name: "projects".into(),
                save: 1,
                expect_ok: true,
            },
            Step::Lookup {
                parent: 1,
                name: "paper.tex".into(),
                save: 2,
                expect_ok: true,
            },
            Step::Read {
                fh: 2,
                offset: 0,
                len: 2000,
                verify: Some(b'S'),
            },
            Step::Create {
                parent: 1,
                name: "rebuttal.tex".into(),
                save: 3,
                mode_extra: 0,
            },
        ],
        4,
    );
    ens.client_mut(0).set_workload(Box::new(phase2));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(60));

    let script = ens
        .client(0)
        .workload()
        .unwrap()
        .as_any()
        .downcast_ref::<ScriptWorkload>()
        .unwrap();
    assert!(
        script.errors.is_empty(),
        "post-recovery errors: {:?}",
        script.errors
    );
    {
        let dir = ens.engine.actor::<DirActor>(dir_node);
        println!(
            "after recovery: {} name cells, {} attr cells — all data verified, new create succeeded",
            dir.server.name_cells(),
            dir.server.attr_cells()
        );
    }

    // Final audit: the slice-check oracles vet the recorded op history and
    // the quiesced server state.
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    println!("slice-check: structural + history oracles passed");
}
