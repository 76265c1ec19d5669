//! Reconfiguration: rebalance the directory service onto a new routing
//! table while clients keep running (paper §3.3.1).
//!
//! The µproxy's routing table is a *hint*: after the rebalance, its next
//! misdirected request is bounced by the server, it refetches the table,
//! and the client's RPC retransmission re-routes the operation — no
//! client-visible errors, no volume boundaries moved.
//!
//! Run with: `cargo run --release --example reconfigure`

use slice::core::{actors::DirActor, EnsemblePolicy, SliceConfig, SliceEnsemble};
use slice::hashes::LOGICAL_SLOTS;
use slice::sim::{SimDuration, SimTime};
use slice::workloads::{ScriptWorkload, Step};

fn cells(ens: &SliceEnsemble) -> Vec<usize> {
    ens.dirs
        .iter()
        .map(|&d| ens.engine.actor::<DirActor>(d).server.name_cells())
        .collect()
}

fn main() {
    let cfg = SliceConfig {
        dir_servers: 3,
        policy: EnsemblePolicy::NameHashing,
        record_history: true,
        ..Default::default()
    };
    // Phase 1: populate the volume.
    let mut steps = vec![Step::Mkdir {
        parent: 0,
        name: "data".into(),
        save: 1,
    }];
    for i in 0..48 {
        steps.push(Step::Create {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            mode_extra: 0,
        });
    }
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, 3))]);
    ens.start();
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(60));
    println!("name cells per site before rebalance: {:?}", cells(&ens));

    // Rebalance: spread site 2's slots over sites 0 and 1. Its name cells
    // move away, but site 2 stays in service: it keeps every attribute
    // cell it minted, since the handles name it as their home site.
    let new_map: Vec<u32> = (0..LOGICAL_SLOTS).map(|i| (i % 2) as u32).collect();
    ens.reconfigure_dir_servers(new_map);
    println!("name cells per site after  rebalance: {:?}", cells(&ens));

    // Phase 2: the client (whose µproxy still holds the old table) reads
    // everything back and creates new files.
    let mut steps = vec![Step::Lookup {
        parent: 0,
        name: "data".into(),
        save: 1,
        expect_ok: true,
    }];
    for i in 0..48 {
        steps.push(Step::Lookup {
            parent: 1,
            name: format!("f{i}"),
            save: 2,
            expect_ok: true,
        });
    }
    steps.push(Step::Create {
        parent: 1,
        name: "after".into(),
        save: 2,
        mode_extra: 0,
    });
    ens.start_workload(0, Box::new(ScriptWorkload::new(steps, 3)));
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(120));

    let script = ens.client(0).workload_as::<ScriptWorkload>();
    assert!(script.errors.is_empty(), "errors: {:?}", script.errors);
    let proxy = ens.client(0).proxy().unwrap();
    println!(
        "client finished cleanly: {} stale-table bounce(s), table generation {}",
        proxy.stale_table_bounces(),
        proxy.dir_table_generation()
    );
    let bounced: u64 = ens
        .dirs
        .iter()
        .map(|&d| ens.engine.actor::<DirActor>(d).server.misdirected())
        .sum();
    println!("servers bounced {bounced} misdirected request(s); all ops succeeded via retry");

    // Final audit: the slice-check oracles vet the recorded op history and
    // the rebalanced directory state (entry counts, hash chains, orphans).
    let mut violations = slice::check::check_structural(&ens);
    violations.extend(slice::check::check_histories(&ens.histories()).0);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    println!("slice-check: structural + history oracles passed");
}
