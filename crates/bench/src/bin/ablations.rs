//! Ablations: measure the design choices DESIGN.md calls out, each
//! isolated with everything else held fixed.
//!
//! 1. **Name hashing vs mkdir switching on one big directory** — the
//!    workload class the paper introduces name hashing for (§3.2).
//! 2. **The threshold split** — small-file servers present vs all I/O on
//!    the storage nodes, under the SPECsfs-like mix (§3.1).
//! 3. **WAL group commit** — untar on one directory server with and
//!    without log batching (§3.3.2).
//! 4. **Coordinator intents** — commit latency with and without
//!    intention logging on multisite commits (§3.3.2).
//!
//! Usage: `ablations` (no options; any option is refused).

use slice_core::{EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice_sim::{SimDuration, SimTime};
use slice_workloads::{BigDir, BulkIo, ScriptWorkload, SpecSfs, SpecSfsConfig, Step, Untar};

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(36_000)
}

/// Runs `cfg` with one `make(i)` workload per client and returns their
/// mean elapsed seconds.
fn mean_run<W: Workload>(
    cfg: SliceConfig,
    make: impl Fn(u64) -> W,
    elapsed: impl Fn(&W) -> Option<SimDuration>,
) -> f64 {
    let workloads: Vec<Box<dyn Workload>> = (0..cfg.clients as u64)
        .map(|i| Box::new(make(i)) as Box<dyn Workload>)
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    ens.start();
    ens.run_to_completion(deadline());
    slice_bench::mean_elapsed_secs(cfg.clients, |i| ens.client(i), elapsed)
}

fn bigdir_latency(policy: EnsemblePolicy, procs: usize, files: u64) -> f64 {
    let cfg = SliceConfig {
        clients: procs,
        dir_servers: 4,
        policy,
        retain_data: false,
        ..Default::default()
    };
    mean_run(cfg, |i| BigDir::new(i, files), BigDir::elapsed)
}

/// Interference experiment: a disk-bound bulk *read* stream shares the
/// storage nodes with small-file traffic whose working set fits the
/// small-file servers' caches. With the threshold split, the small I/O is
/// absorbed by the small-file servers; without it, 8 KB randoms seek the
/// same arms the stream is using.
fn interference(sf_servers: usize) -> (f64, f64) {
    let small_clients = 4usize;
    let cfg = SliceConfig {
        clients: 1 + small_clients,
        storage_nodes: 4,
        sf_servers,
        sf_cache_bytes: 128 * 1024 * 1024,
        storage_cache_bytes: 16 * 1024 * 1024,
        retain_data: false,
        ..Default::default()
    };
    let mut workloads: Vec<Box<dyn Workload>> =
        vec![Box::new(BulkIo::writer("stream", 256 << 20, false))];
    for i in 0..small_clients {
        let mut sc = SpecSfsConfig::new(i as u64, 400.0);
        sc.fileset_bytes_per_ops = 128 * 1024; // working set ~200 MB
        sc.measure = SimDuration::from_secs(60);
        workloads.push(Box::new(SpecSfs::new(sc)));
    }
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    ens.start();
    ens.run_to_completion(deadline());
    // Phase two: read the stream back while the small traffic continues.
    ens.start_workload(0, Box::new(BulkIo::reader("stream", 256 << 20)));
    ens.run_to_completion(deadline());
    let bulk = ens.client(0).workload_as::<BulkIo>();
    let bw = bulk.bandwidth().expect("finished") / 1e6;
    let small = (1..=small_clients).map(|i| ens.client(i));
    (
        bw,
        slice_bench::collect_sfs(ens.engine.now(), small).latency_ms,
    )
}

/// Group-commit experiment: untar against one directory server with and
/// without WAL batching (paper §3.3.2 amortization).
fn untar_group_commit(procs: usize, batched: bool) -> f64 {
    let cfg = SliceConfig {
        clients: procs,
        dir_servers: 1,
        wal_group_commit: batched,
        retain_data: false,
        ..Default::default()
    };
    mean_run(cfg, |i| Untar::new(i, 1800), Untar::elapsed)
}

/// Commit-latency experiment: a commit with no dirty data isolates the
/// pure protocol cost of the coordinator intention (round trip + logged
/// intent before the fan-out).
fn commit_latency(use_intents: bool) -> f64 {
    let cfg = SliceConfig {
        use_intents,
        retain_data: false,
        record_history: true,
        ..Default::default()
    };
    let steps = vec![
        Step::Create {
            parent: 0,
            name: "c".into(),
            save: 1,
            mode_extra: 0,
        },
        Step::Write {
            fh: 1,
            offset: 128 * 1024,
            len: 32 * 1024,
            pattern: 1,
            stable: slice_nfsproto::StableHow::FileSync,
        },
        Step::Commit { fh: 1 },
    ];
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(ScriptWorkload::new(steps, 2))]);
    ens.start();
    ens.run_to_completion(deadline());
    let client = ens.client(0);
    let s = client.workload_as::<ScriptWorkload>();
    assert!(s.errors.is_empty(), "{:?}", s.errors);
    // Recording a history costs no simulated time.
    let commit = &client.history().records()[2];
    (commit.end.expect("the commit completed") - commit.begin).as_secs_f64() * 1e3
}

fn main() {
    slice_bench::BenchArgs::from_env("usage: ablations");
    println!("=== Ablation 1: one big shared directory, 4 dir servers ===");
    println!(
        "{:>6} {:>18} {:>14}",
        "procs", "mkdir-switching", "name-hashing"
    );
    for procs in [2usize, 4, 8] {
        let ms = bigdir_latency(
            EnsemblePolicy::MkdirSwitching {
                redirect_millis: 250,
            },
            procs,
            2000,
        );
        let nh = bigdir_latency(EnsemblePolicy::NameHashing, procs, 2000);
        println!("{procs:>6} {ms:>17.2}s {nh:>13.2}s");
    }
    println!("(mkdir switching binds the directory to one server; name hashing");
    println!(" spreads its entries — the paper's §3.2 tradeoff)\n");

    println!("=== Ablation 2: the threshold split under bulk/small interference ===");
    for sf in [0usize, 2] {
        let (bw, lat) = interference(sf);
        println!(
            "{} small-file servers: bulk stream {:>6.1} MB/s, small-file latency {:>6.2} ms",
            sf, bw, lat
        );
    }
    println!("(the split keeps 8 KB randoms out of the bulk nodes' request streams)\n");

    println!("=== Ablation 3: WAL group commit (untar, 1 directory server) ===");
    println!(
        "{:>6} {:>14} {:>14}",
        "procs", "group commit", "no batching"
    );
    for procs in [2usize, 8] {
        let on = untar_group_commit(procs, true);
        let off = untar_group_commit(procs, false);
        println!("{procs:>6} {on:>13.2}s {off:>13.2}s");
    }
    println!("(batching amortizes the per-record log write across concurrent ops)\n");

    println!("=== Ablation 4: coordinator intention logging on multisite commit ===");
    println!(
        "commit latency with intents   : {:>7.2} ms",
        commit_latency(true)
    );
    println!(
        "commit latency without intents: {:>7.2} ms",
        commit_latency(false)
    );
    println!("(the intention adds one coordinator round trip plus a group-committed");
    println!(" log write before the commit may fan out — the price of atomicity)");
}
