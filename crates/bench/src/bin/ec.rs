//! `ec` — erasure-coded striping ablation: mirror vs (4,2) vs (6,4).
//!
//! Runs the same sequential bulk workload against three placement
//! layouts on an identical six-node storage ensemble — two-way mirroring,
//! (4,2) Reed-Solomon, and (6,4) Reed-Solomon — and reports the paper's
//! storage-efficiency-vs-latency trade (§3.2 discusses mirrored striping;
//! slice-ec generalizes it to (n,k) codes):
//!
//! * **storage overhead** — bytes held on storage nodes over logical
//!   bulk bytes (2.0× for mirroring, n/k for a code);
//! * **clean read latency** — a full read pass on a healthy ensemble
//!   (coded clean reads are plain per-shard reads at natural offsets);
//! * **degraded read latency** — the same pass with one storage site
//!   down (mirrors fail over to the surviving copy; codes gather k
//!   shards and decode);
//! * **reconstruction** — bytes decoded at read time, and the bytes and
//!   time the post-recovery resync spends restoring redundancy.
//!
//! The three cells are independent ensembles and fan out over the
//! slice-par pool. Deterministic: every gauge derives from simulated
//! state, so the report is byte-identical for identical `--mb` at any
//! `--threads`.
//!
//! Usage: `ec [--mb N] [--threads T] [--json-out]`
//! (defaults: 24 MiB, T = available parallelism).

use slice_bench::obs_doc;
use slice_core::actors::{CoordActor, StorageActor};
use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_sim::{SimDuration, SimTime};
use slice_workloads::BulkIo;

/// Storage nodes in every cell, so the hardware is held constant.
const NODES: usize = 6;
/// The storage site crashed for the degraded pass.
const VICTIM: usize = 0;

fn ms_of(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

#[derive(Clone, Copy)]
enum Layout {
    Mirror,
    Coded(u32, u32),
}

impl Layout {
    fn tag(self) -> &'static str {
        match self {
            Layout::Mirror => "mirror",
            Layout::Coded(4, 2) => "c42",
            Layout::Coded(6, 4) => "c64",
            Layout::Coded(..) => "coded",
        }
    }
    fn describe(self) -> String {
        match self {
            Layout::Mirror => "2-way mirror".to_string(),
            Layout::Coded(n, k) => format!("({n},{k}) code"),
        }
    }
}

/// Everything one layout cell produced.
struct CellOut {
    layout: Layout,
    logical_bytes: u64,
    stored_bytes: u64,
    write_done_ms: f64,
    clean_read_us: f64,
    degraded_read_us: f64,
    read_recon_bytes: u64,
    read_reconstructions: u64,
    resync_bytes: u64,
    resync_ms: f64,
    timeouts: u64,
}

fn mean_read_us(ens: &SliceEnsemble, from: usize) -> f64 {
    let hist = ens.histories()[0];
    let (mut n, mut total) = (0u64, 0u64);
    for rec in &hist.records()[from..] {
        if let (Some(end), "read") = (rec.end, rec.op) {
            n += 1;
            total += (end - rec.begin).as_nanos();
        }
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e3
    }
}

/// Clean write → clean read pass → crash → degraded read pass →
/// recover → resync, all on one ensemble.
fn run_cell(layout: Layout, bytes: u64) -> CellOut {
    let cfg = SliceConfig {
        clients: 1,
        storage_nodes: NODES,
        retain_data: true,
        record_history: true,
        // The mirror cell uses the classic static mirrored striping;
        // coded layouts imply block maps.
        coded: match layout {
            Layout::Mirror => None,
            Layout::Coded(n, k) => Some((n, k)),
        },
        probe_interval_ms: 500,
        ..SliceConfig::default()
    };
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);
    let mut ens = SliceEnsemble::build(&cfg, vec![Box::new(BulkIo::writer("ec0", bytes, true))]);
    ens.start();
    ens.run_to_completion(deadline);
    assert!(ens.client(0).finished(), "{}: writer stalled", layout.tag());
    let write_done_ms = ms_of(ens.engine.now());

    let stored_bytes: u64 = ens
        .storage
        .iter()
        .map(|&s| {
            ens.engine
                .actor::<StorageActor>(s)
                .node
                .store()
                .bytes_used()
        })
        .sum();
    // The first SF_THRESHOLD bytes live on the small-file servers.
    let logical_bytes = bytes.saturating_sub(slice_smallfile::SF_THRESHOLD);

    // Clean read pass.
    let mark = ens.histories()[0].records().len();
    ens.client_mut(0)
        .set_workload(Box::new(BulkIo::reader("ec0", bytes)));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(deadline);
    assert!(
        ens.client(0).finished(),
        "{}: clean reader stalled",
        layout.tag()
    );
    let clean_read_us = mean_read_us(&ens, mark);

    // Degraded write pass with one site down: a fresh file of the same
    // size, so resync has real redundancy to restore after recovery.
    ens.engine.fail_node(ens.storage[VICTIM]);
    ens.client_mut(0)
        .set_workload(Box::new(BulkIo::writer("ec1", bytes, true)));
    let c0 = ens.clients[0];
    ens.engine.kick(c0);
    ens.run_to_completion(deadline);
    assert!(
        ens.client(0).finished(),
        "{}: degraded writer stalled",
        layout.tag()
    );

    // Degraded read pass over the pre-crash file.
    let mark = ens.histories()[0].records().len();
    let recon_before = ens
        .client(0)
        .proxy()
        .map(|p| p.ec_stats())
        .unwrap_or_default();
    ens.client_mut(0)
        .set_workload(Box::new(BulkIo::reader("ec0", bytes)));
    ens.engine.kick(c0);
    ens.run_to_completion(deadline);
    assert!(
        ens.client(0).finished(),
        "{}: degraded reader stalled",
        layout.tag()
    );
    let degraded_read_us = mean_read_us(&ens, mark);
    let recon_after = ens
        .client(0)
        .proxy()
        .map(|p| p.ec_stats())
        .unwrap_or_default();

    // Recover and let the coordinator sweep restore redundancy.
    let recover_at = ens.engine.now();
    ens.recover_storage_node(VICTIM);
    ens.engine
        .run_until(recover_at + SimDuration::from_secs(30));
    let mut resync_bytes = 0u64;
    let mut resync_done: Option<SimTime> = None;
    let mut dirty_left = 0u64;
    for &c in &ens.coords {
        let coord = &ens.engine.actor::<CoordActor>(c).coord;
        for &(site, _start, done, b) in coord.resync_history() {
            if site as usize == VICTIM {
                resync_bytes += b;
                resync_done = Some(resync_done.map_or(done, |d| d.max(done)));
            }
        }
        dirty_left += coord.dirty_log_dump().len() as u64;
    }
    assert_eq!(dirty_left, 0, "{}: resync left dirty ranges", layout.tag());

    CellOut {
        layout,
        logical_bytes,
        stored_bytes,
        write_done_ms,
        clean_read_us,
        degraded_read_us,
        read_recon_bytes: recon_after.4 - recon_before.4,
        read_reconstructions: recon_after.3 - recon_before.3,
        resync_bytes,
        resync_ms: resync_done.map_or(-1.0, |d| ms_of(d) - ms_of(recover_at)),
        timeouts: ens.client(0).stats().timeouts,
    }
}

fn main() {
    let args = slice_bench::BenchArgs::from_env("usage: ec [--mb N] [--threads T] [--json-out]");
    let mb = args.num("--mb", 24);
    let threads = args.threads();
    let bytes = mb * 1024 * 1024;

    let layouts = vec![Layout::Mirror, Layout::Coded(4, 2), Layout::Coded(6, 4)];
    let cells = slice_sim::run_indexed(threads, layouts, |_, l| run_cell(l, bytes));

    println!("ec: {mb} MiB bulk ablation on {NODES} storage nodes, site {VICTIM} crashed for the degraded pass");
    for c in &cells {
        let overhead = c.stored_bytes as f64 / c.logical_bytes.max(1) as f64;
        println!(
            "  {:>12}: {:.2}x storage, write done {:.1} ms, read {:.0} us clean / {:.0} us degraded, \
             {} bytes decoded at read, resync {} bytes in {:.1} ms",
            c.layout.describe(),
            overhead,
            c.write_done_ms,
            c.clean_read_us,
            c.degraded_read_us,
            c.read_recon_bytes,
            c.resync_bytes,
            c.resync_ms,
        );
    }

    let json = obs_doc(|reg| {
        reg.set_gauge("ec.logical_mb", mb as f64);
        for c in &cells {
            let tag = c.layout.tag();
            let overhead = c.stored_bytes as f64 / c.logical_bytes.max(1) as f64;
            reg.set_gauge(&format!("ec.{tag}.stored_bytes"), c.stored_bytes as f64);
            reg.set_gauge(&format!("ec.{tag}.storage_overhead"), overhead);
            reg.set_gauge(&format!("ec.{tag}.write_done_ms"), c.write_done_ms);
            reg.set_gauge(&format!("ec.{tag}.clean_read_us"), c.clean_read_us);
            reg.set_gauge(&format!("ec.{tag}.degraded_read_us"), c.degraded_read_us);
            reg.set_gauge(
                &format!("ec.{tag}.read_reconstructions"),
                c.read_reconstructions as f64,
            );
            reg.set_gauge(
                &format!("ec.{tag}.read_reconstructed_bytes"),
                c.read_recon_bytes as f64,
            );
            reg.set_gauge(&format!("ec.{tag}.resync_bytes"), c.resync_bytes as f64);
            reg.set_gauge(&format!("ec.{tag}.resync_ms"), c.resync_ms);
            reg.set_gauge(&format!("ec.{tag}.client_timeouts"), c.timeouts as f64);
        }
    });
    args.emit("ec", &json);

    for c in &cells {
        assert_eq!(
            c.timeouts,
            0,
            "{}: client ops timed out during the cycle",
            c.layout.tag()
        );
        assert!(
            c.resync_bytes > 0,
            "{}: recovery restored no redundancy",
            c.layout.tag()
        );
        if matches!(c.layout, Layout::Coded(..)) {
            assert!(
                c.read_reconstructions > 0,
                "{}: degraded pass performed no reconstructions",
                c.layout.tag()
            );
        }
    }
}
