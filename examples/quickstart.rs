//! Quickstart: build a Slice ensemble, make a directory tree, write a
//! file, and read it back — all through the interposed µproxy.
//!
//! Run with: `cargo run --example quickstart`

use slice::core::{SliceConfig, SliceEnsemble};
use slice::nfsproto::StableHow;
use slice::sim::{SimDuration, SimTime};
use slice::workloads::{ScriptWorkload, Step};

fn main() {
    // An ensemble: 1 client (with embedded µproxy), 1 directory server,
    // 2 small-file servers, 4 storage nodes, 1 coordinator.
    let cfg = SliceConfig::default();
    println!(
        "building Slice ensemble: {} dir / {} small-file / {} storage nodes",
        cfg.dir_servers, cfg.sf_servers, cfg.storage_nodes
    );

    let script = ScriptWorkload::new(
        vec![
            Step::Mkdir {
                parent: 0,
                name: "home".into(),
                save: 1,
            },
            Step::Mkdir {
                parent: 1,
                name: "user".into(),
                save: 2,
            },
            Step::Create {
                parent: 2,
                name: "notes.txt".into(),
                save: 3,
                mode_extra: 0,
            },
            // A small write lands on a small-file server...
            Step::Write {
                fh: 3,
                offset: 0,
                len: 4000,
                pattern: b'a',
                stable: StableHow::FileSync,
            },
            // ...while a write past the 64 KB threshold is striped
            // directly over the storage nodes, bypassing the managers.
            Step::Write {
                fh: 3,
                offset: 128 * 1024,
                len: 32768,
                pattern: b'z',
                stable: StableHow::Unstable,
            },
            Step::Commit { fh: 3 },
            Step::Read {
                fh: 3,
                offset: 0,
                len: 4000,
                verify: Some(b'a'),
            },
            Step::Read {
                fh: 3,
                offset: 128 * 1024,
                len: 32768,
                verify: Some(b'z'),
            },
            Step::Getattr {
                fh: 3,
                expect_size: Some(128 * 1024 + 32768),
            },
            Step::Readdir {
                fh: 2,
                expect: Some(1),
            },
        ],
        4,
    );

    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(script)]);
    ens.start();
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(60));

    let client = ens.client(0);
    let script = client.workload_as::<ScriptWorkload>();
    assert!(
        script.errors.is_empty(),
        "script errors: {:?}",
        script.errors
    );

    let stats = client.stats();
    println!("all steps verified");
    println!(
        "client issued {} NFS operations (mean latency {})",
        stats.ops,
        stats.latency.mean()
    );
    let proxy = client.proxy().unwrap();
    let (reqs, replies, absorbed, initiated) = proxy.traffic_stats();
    println!(
        "µproxy routed {reqs} requests / {replies} replies; absorbed {absorbed}, initiated {initiated} (attribute write-backs, intentions)"
    );
}
