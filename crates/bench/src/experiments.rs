//! Experiment runners: one grid per paper table/figure, shared by the
//! bench binaries. A grid takes its scale and its axes and runs its cells;
//! a binary parses its command line, calls its grid and prints.

use slice_core::{
    BaselineEnsemble, BaselineKind, ClientActor, EnsemblePolicy, SliceConfig, SliceEnsemble,
    Workload,
};
use slice_nfsproto::{encode_call, encode_reply, AuthUnix, Packet};
use slice_sim::{Series, SimDuration, SimTime};
use slice_uproxy::{PhaseStats, ProxyConfig, Uproxy};
use slice_workloads::{BulkIo, SpecSfs, SpecSfsConfig, Untar};

use crate::timeline::{bulk_writers, start_bulk_readers};

fn deadline_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A benchmark-friendly Slice configuration: eight storage nodes whose
/// stores keep metadata only, not data bytes.
pub fn bench_config() -> SliceConfig {
    SliceConfig {
        retain_data: false,
        storage_nodes: 8,
        ..Default::default()
    }
}

/// Figure 3's process counts and directory-server counts (the paper's
/// grid; `fig3`, `perf` and `all_experiments` sweep it).
pub const UNTAR_PROCS: &[usize] = &[1, 2, 4, 8, 16];
/// Figure 3's Slice-N lines.
pub const UNTAR_DIRS: &[usize] = &[1, 2, 4];
/// Figures 5 and 6's offered loads (aggregate IOPS).
pub const SFS_LOADS: &[f64] = &[
    200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0, 3200.0, 4800.0, 6400.0,
];
/// The `--quick` offered loads of `fig5` and `fig6`.
pub const SFS_QUICK_LOADS: &[f64] = &[400.0, 800.0, 1600.0, 3200.0];
/// Figures 5 and 6's storage-node counts.
pub const SFS_NODES: &[usize] = &[1, 2, 4, 8];

/// One Table 2 cell: bulk bandwidth in MB/s.
#[derive(Debug, Clone, Copy)]
pub struct BulkResult {
    /// Delivered bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

impl BulkResult {
    /// MB/s (decimal, as the paper reports).
    fn mbs(&self) -> f64 {
        self.bandwidth_bps / 1e6
    }
}

/// Runs the Table 2 bulk I/O experiment: `clients` writers (then readers)
/// of `bytes_per_client`, mirrored or not. Returns (write, read) aggregate
/// bandwidth and the engine totals.
pub fn run_bulk(
    clients: usize,
    bytes_per_client: u64,
    mirrored: bool,
) -> (BulkResult, BulkResult, EngineTotals) {
    let base = slice_nfsproto::bytes::local_clone_stats();
    let cfg = SliceConfig {
        clients,
        ..bench_config()
    };
    let writers = bulk_writers("dd", clients, bytes_per_client, mirrored);
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.run_to_completion(deadline_secs(3600));
    // Aggregate bandwidth of a finished pass: all bytes over the slowest
    // client's time.
    let aggregate_bw = |ens: &SliceEnsemble, pass: &str| {
        let mut secs: f64 = 0.0;
        for i in 0..clients {
            let io = ens.client(i).workload_as::<BulkIo>();
            assert!(io.finished(), "{pass} {i} incomplete");
            secs = secs.max(bytes_per_client as f64 / io.bandwidth().expect("bw"));
        }
        clients as f64 * bytes_per_client as f64 / secs
    };
    let write_bw = aggregate_bw(&ens, "writer");
    // Read phase on the same ensemble (server caches hold only the tail of
    // each file, as after a real dd write pass).
    start_bulk_readers(&mut ens, "dd", bytes_per_client);
    ens.run_to_completion(deadline_secs(7200));
    let read_bw = aggregate_bw(&ens, "reader");
    (
        BulkResult {
            bandwidth_bps: write_bw,
        },
        BulkResult {
            bandwidth_bps: read_bw,
        },
        EngineTotals::harvest(&ens.engine, base),
    )
}

/// One Table 2 row: measured MB/s with one client and at saturation,
/// beside the paper's.
#[derive(Debug, Clone, Copy)]
pub struct BulkRow {
    /// `read`, `write`, `read-mirrored` or `write-mirrored`.
    pub name: &'static str,
    /// MB/s with one client.
    pub single: f64,
    /// The paper's single-client MB/s.
    pub paper_single: f64,
    /// MB/s with the saturating client count.
    pub sat: f64,
    /// The paper's saturated MB/s.
    pub paper_sat: f64,
}

/// Table 2: bulk bandwidth of `bytes`-long files with one client and with
/// `sat_clients`, plain and mirrored — four runs, four rows.
pub fn bulk_table(bytes: u64, sat_clients: usize) -> [BulkRow; 4] {
    let (w1, r1, _) = run_bulk(1, bytes, false);
    let (w1m, r1m, _) = run_bulk(1, bytes, true);
    let (ws, rs, _) = run_bulk(sat_clients, bytes, false);
    let (wsm, rsm, _) = run_bulk(sat_clients, bytes, true);
    let row = |name, single: BulkResult, paper_single, sat: BulkResult, paper_sat| BulkRow {
        name,
        single: single.mbs(),
        paper_single,
        sat: sat.mbs(),
        paper_sat,
    };
    [
        row("read", r1, 62.5, rs, 437.0),
        row("write", w1, 38.9, ws, 479.0),
        row("read-mirrored", r1m, 52.9, rsm, 222.0),
        row("write-mirrored", w1m, 32.2, wsm, 251.0),
    ]
}

/// The paper's Table 3: µproxy CPU % per phase at 6250 packets/s, in the
/// order interception, decode, redirection/rewriting, soft state.
const TABLE3_PAPER_CPU_PCT: [f64; 4] = [0.7, 4.1, 0.5, 0.8];

/// Table 3 rows: each phase's measured nanoseconds beside the paper's
/// share of the µproxy total (percent), in [`TABLE3_PAPER_CPU_PCT`]'s
/// order.
pub fn table3_rows(ph: &PhaseStats) -> [(u64, f64); 4] {
    let ours = [ph.intercept_ns, ph.decode_ns, ph.rewrite_ns, ph.soft_ns];
    let paper_total: f64 = TABLE3_PAPER_CPU_PCT.iter().sum();
    std::array::from_fn(|i| (ours[i], TABLE3_PAPER_CPU_PCT[i] / paper_total * 100.0))
}

/// Table 3: replay an untar-shaped packet stream through a real µproxy and
/// report its measured per-phase CPU cost. Splits the file range across
/// `threads` workers, each replaying its slice through a private µproxy
/// (disjoint file ids, its own xid stream), then sums the phase timers in
/// range order. Packet counts are thread-count-invariant; the nanosecond
/// timers are host measurements and vary run to run regardless of
/// threads.
pub fn run_uproxy_phases(pairs: usize, threads: usize) -> PhaseStats {
    let files = pairs / 7;
    let workers = threads.clamp(1, files.max(1));
    let per = files.div_ceil(workers);
    let ranges: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * per, ((w + 1) * per).min(files)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    let parts = slice_sim::run_indexed(threads, ranges, |_, (lo, hi)| run_uproxy_range(lo, hi));
    let mut total = PhaseStats::default();
    for p in &parts {
        total.absorb(p);
    }
    total
}

/// Replays the untar seven-op sequence for file indices `[lo, hi)`
/// through a fresh µproxy and returns its phase timers.
fn run_uproxy_range(lo: usize, hi: usize) -> PhaseStats {
    use slice_nfsproto::{NfsRequest, Sattr3, SetTime, SockAddr};
    let cfg = ProxyConfig {
        dir_sites: (0..4)
            .map(|i| SockAddr::new(0x0a00_1000 + i, 2049))
            .collect(),
        storage_sites: (0..8)
            .map(|i| SockAddr::new(0x0a00_3000 + i, 2049))
            .collect(),
        measure_phases: true,
        ..ProxyConfig::test_default()
    };
    let mut proxy = Uproxy::new(cfg.clone());
    let cred = AuthUnix::default();
    let root = slice_nfsproto::Fhandle::root();
    let mut now = SimTime::ZERO;
    let mut xid = 1u32;
    // The untar seven-op sequence per created file.
    for i in lo..hi {
        let name = format!("src{i}.c");
        let file = slice_nfsproto::Fhandle::new(1000 + i as u64, 0, 0, 7 * i as u64, 0);
        let reqs = [
            NfsRequest::Lookup {
                dir: root,
                name: name.clone(),
            },
            NfsRequest::Access {
                fh: root,
                mask: 0x3f,
            },
            NfsRequest::Create {
                dir: root,
                name,
                attr: Sattr3::default(),
            },
            NfsRequest::Getattr { fh: file },
            NfsRequest::Lookup {
                dir: root,
                name: format!("src{i}.c"),
            },
            NfsRequest::Setattr {
                fh: file,
                attr: Sattr3 {
                    mtime: SetTime::ServerTime,
                    ..Default::default()
                },
            },
            NfsRequest::Setattr {
                fh: file,
                attr: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
        ];
        for req in reqs {
            let pkt = Packet::new(
                cfg.client_addr,
                cfg.virtual_addr,
                encode_call(xid, &cred, &req),
            );
            let outs = proxy.outbound(now, pkt);
            // Synthesize the matching reply from the routed destination.
            for o in outs {
                if let slice_uproxy::ProxyOut::Net(p) = o {
                    let attr = slice_nfsproto::Fattr3::new(
                        slice_nfsproto::FileType::Regular,
                        1000 + i as u64,
                        0o644,
                        slice_nfsproto::NfsTime::default(),
                    );
                    let reply = slice_nfsproto::NfsReply::ok(req.proc(), attr);
                    let rp = Packet::new(p.dst, cfg.client_addr, encode_reply(xid, &reply));
                    proxy.inbound(now, rp);
                }
            }
            xid += 1;
            now += SimDuration::from_micros(160);
        }
    }
    proxy.phase_stats()
}

/// Engine-level totals harvested after a run, for the `perf` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Packets handed to the network model.
    pub packets: u64,
    /// Payload bytes handed to the network model.
    pub bytes: u64,
    /// Logical events executed.
    pub events: u64,
    /// Physical heap entries pushed (at most one per logical event).
    pub heap_pushes: u64,
    /// Handlers dispatched inline, without a heap entry for their `Process`.
    pub inline_dispatches: u64,
    /// High-water mark of concurrently live events in the slab.
    pub peak_live_events: usize,
    /// `ByteBuf` copy traffic of the run: shallow clones, deep copies and
    /// deep-copied bytes. The counters are thread-local and a run stays on
    /// the thread that starts it, so the delta is the run's own.
    pub payload: [u64; 3],
}

impl EngineTotals {
    /// Totals of the run on `engine`; `base` is this thread's
    /// `local_clone_stats` from before the run was built.
    fn harvest<M: slice_sim::MessageSize + Clone + 'static>(
        engine: &slice_sim::Engine<M>,
        base: (u64, u64, u64),
    ) -> Self {
        let (s, d, b) = slice_nfsproto::bytes::local_clone_stats();
        EngineTotals {
            packets: engine.packets_sent(),
            bytes: engine.bytes_sent(),
            events: engine.events_executed(),
            heap_pushes: engine.heap_pushes(),
            inline_dispatches: engine.inline_dispatches(),
            peak_live_events: engine.peak_live_events(),
            payload: [s - base.0, d - base.1, b - base.2],
        }
    }

    /// Accumulates another run's totals (peaks take the max).
    pub fn absorb(&mut self, other: EngineTotals) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.events += other.events;
        self.heap_pushes += other.heap_pushes;
        self.inline_dispatches += other.inline_dispatches;
        self.peak_live_events = self.peak_live_events.max(other.peak_live_events);
        for (sum, n) in self.payload.iter_mut().zip(other.payload) {
            *sum += n;
        }
    }
}

/// Figure 3: mean untar latency per process (s), `files` files and
/// directories per process, for the N-MFS baseline and for Slice-N with
/// p = 1/N mkdir switching at every N in `dirs`, across the process
/// counts `procs`. The cells are independent runs and fan out over
/// `threads` workers. Returns one series per line, N-MFS first, and every
/// run's engine totals folded in cell order (sums and maxes, so they do
/// not depend on the thread count).
pub fn untar_grid(
    files: u64,
    procs: &[usize],
    dirs: &[usize],
    threads: usize,
) -> (Vec<Series>, EngineTotals) {
    // A line is `None` for N-MFS, `Some(n)` for Slice-n.
    let lines: Vec<Option<usize>> = std::iter::once(None)
        .chain(dirs.iter().copied().map(Some))
        .collect();
    let cells: Vec<(usize, usize)> = procs
        .iter()
        .flat_map(|&p| (0..lines.len()).map(move |l| (p, l)))
        .collect();
    let runs = slice_sim::run_indexed(threads, cells.clone(), |_, (p, l)| match lines[l] {
        None => run_untar_mfs(p, files),
        Some(n) => {
            let policy = EnsemblePolicy::MkdirSwitching {
                redirect_millis: (1000 / n as u32).max(1),
            };
            run_untar_slice(p, n, files, policy)
        }
    });
    let mut series: Vec<Series> = lines
        .iter()
        .map(|l| Series::new(l.map_or("N-MFS".to_string(), |n| format!("Slice-{n}"))))
        .collect();
    let mut totals = EngineTotals::default();
    for ((p, l), (latency, t)) in cells.into_iter().zip(runs) {
        series[l].push(p as f64, latency);
        totals.absorb(t);
    }
    (series, totals)
}

/// Figure 4: mean untar latency per process (s) on four directory
/// servers, `files` files and directories per process, at every affinity
/// in `affinities` (‰ of mkdirs kept on their parent's server, so
/// p = 1 − affinity) for every process count in `procs`. One series per
/// process count, x in percent.
pub fn affinity_grid(files: u64, procs: &[usize], affinities: &[u32]) -> Vec<Series> {
    let mut series: Vec<Series> = procs
        .iter()
        .map(|p| Series::new(format!("{p} procs")))
        .collect();
    for &aff in affinities {
        for (s, &p) in series.iter_mut().zip(procs) {
            let policy = EnsemblePolicy::MkdirSwitching {
                redirect_millis: 1000 - aff,
            };
            s.push(aff as f64 / 10.0, run_untar_slice(p, 4, files, policy).0);
        }
    }
    series
}

/// Figures 5 and 6: SPECsfs-like runs at every offered load in `loads`
/// (aggregate IOPS over ⌈load / 200⌉ generator processes, 1 to 32), for
/// Slice at every storage-node count in `nodes` and, at loads up to
/// `baseline_max`, for the monolithic NFS baseline. A Slice configuration
/// skips loads above twice its guessed capacity (1,000 IOPS a node plus
/// 1,500): well past saturation it stays saturated. Returns Figure 5's
/// delivered-versus-offered series (the baseline first) and Figure 6's
/// latency-versus-delivered series (Slice only).
pub fn sfs_grid(loads: &[f64], nodes: &[usize], baseline_max: f64) -> (Vec<Series>, Vec<Series>) {
    let mut tput = vec![Series::new("FreeBSD-NFS")];
    let mut lat = Vec::new();
    for n in nodes {
        tput.push(Series::new(format!("Slice-{n}")));
        lat.push(Series::new(format!("Slice-{n}")));
    }
    for &offered in loads {
        let procs = ((offered / 200.0).ceil() as usize).clamp(1, 32);
        if offered <= baseline_max {
            tput[0].push(offered, run_sfs_baseline(procs, offered).delivered);
        }
        for (i, &n) in nodes.iter().enumerate() {
            if offered > (1000.0 * n as f64 + 1500.0) * 2.0 {
                continue;
            }
            let r = run_sfs_slice(n, procs, offered);
            tput[i + 1].push(offered, r.delivered);
            lat[i].push(r.delivered, r.latency_ms);
        }
    }
    (tput, lat)
}

fn untars(processes: usize, files_per_process: u64) -> Vec<Box<dyn Workload>> {
    (0..processes)
        .map(|i| Box::new(Untar::new(i as u64, files_per_process)) as Box<dyn Workload>)
        .collect()
}

/// Figure 3 / Figure 4: untar latency per process.
///
/// Returns the mean elapsed seconds per process and the engine totals.
fn run_untar_slice(
    processes: usize,
    dir_servers: usize,
    files_per_process: u64,
    policy: EnsemblePolicy,
) -> (f64, EngineTotals) {
    let base = slice_nfsproto::bytes::local_clone_stats();
    let cfg = SliceConfig {
        clients: processes,
        dir_servers,
        policy,
        ..bench_config()
    };
    let mut ens = SliceEnsemble::build(&cfg, untars(processes, files_per_process));
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    let mean = mean_elapsed_secs(processes, |i| ens.client(i), Untar::elapsed);
    (mean, EngineTotals::harvest(&ens.engine, base))
}

/// Figure 3 baseline: untar against the MFS memory file server. Returns
/// the mean elapsed seconds per process and the engine totals.
fn run_untar_mfs(processes: usize, files_per_process: u64) -> (f64, EngineTotals) {
    let base = slice_nfsproto::bytes::local_clone_stats();
    let workloads = untars(processes, files_per_process);
    let mut ens = BaselineEnsemble::build(BaselineKind::Mfs, 8, false, 42, workloads);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    let mean = mean_elapsed_secs(processes, |i| ens.client(i), Untar::elapsed);
    (mean, EngineTotals::harvest(&ens.engine, base))
}

/// Mean elapsed seconds of the finished `W` workloads on clients
/// `0..n`; `elapsed` reads one's run time.
pub fn mean_elapsed_secs<'a, W: Workload>(
    n: usize,
    client: impl Fn(usize) -> &'a ClientActor,
    elapsed: impl Fn(&W) -> Option<SimDuration>,
) -> f64 {
    let total: f64 = (0..n)
        .map(|i| {
            let took = elapsed(client(i).workload_as::<W>());
            took.unwrap_or_else(|| panic!("client {i} unfinished"))
                .as_secs_f64()
        })
        .sum();
    total / n as f64
}

/// Result of one SPECsfs-like run.
#[derive(Debug, Clone, Copy)]
pub struct SfsResult {
    /// Delivered throughput, IOPS (aggregate).
    pub delivered: f64,
    /// Mean latency, milliseconds.
    pub latency_ms: f64,
}

fn sfs_generators(processes: usize, offered: f64) -> Vec<Box<dyn Workload>> {
    let per = offered / processes as f64;
    (0..processes)
        .map(|i| Box::new(SpecSfs::new(SpecSfsConfig::new(i as u64, per))) as Box<dyn Workload>)
        .collect()
}

/// Runs a SPECsfs-like point against a Slice ensemble with
/// `storage_nodes` nodes at aggregate `offered` IOPS over `processes`
/// generator processes.
fn run_sfs_slice(storage_nodes: usize, processes: usize, offered: f64) -> SfsResult {
    let cfg = SliceConfig {
        clients: processes,
        storage_nodes,
        dir_servers: 1,
        sf_servers: 2,
        // Scale the small-file caches with the reduced file-set scale
        // factor (see slice-workloads::specsfs docs).
        sf_cache_bytes: 64 * 1024 * 1024,
        storage_cache_bytes: 32 * 1024 * 1024,
        ..bench_config()
    };
    let mut ens = SliceEnsemble::build(&cfg, sfs_generators(processes, offered));
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    collect_sfs(ens.engine.now(), (0..processes).map(|i| ens.client(i)))
}

/// Runs a SPECsfs-like point against the monolithic NFS baseline.
fn run_sfs_baseline(processes: usize, offered: f64) -> SfsResult {
    let workloads = sfs_generators(processes, offered);
    let mut ens = BaselineEnsemble::build(BaselineKind::NfsFfs, 8, false, 42, workloads);
    ens.start();
    ens.run_to_completion(deadline_secs(36_000));
    collect_sfs(ens.engine.now(), (0..processes).map(|i| ens.client(i)))
}

/// Aggregate IOPS and mean latency (weighted by each generator's samples)
/// of the SPECsfs generators on `clients` at `now`.
pub fn collect_sfs<'a>(now: SimTime, clients: impl Iterator<Item = &'a ClientActor>) -> SfsResult {
    let mut delivered = 0.0;
    let mut lat_weighted = 0.0;
    let mut samples = 0usize;
    for c in clients {
        let (iops, mean_ms, n) = c.workload_as::<SpecSfs>().summary(now);
        delivered += iops;
        lat_weighted += mean_ms * n as f64;
        samples += n;
    }
    SfsResult {
        delivered,
        latency_ms: if samples == 0 {
            0.0
        } else {
            lat_weighted / samples as f64
        },
    }
}

/// Renders a labelled series list for terminal output.
pub fn print_series(x_label: &str, y_label: &str, series: &[Series]) {
    println!("{}", slice_sim::render_table(x_label, y_label, series));
}

/// Builds a one-off slice-obs document: `fill` populates the registry and
/// the deterministic JSON export comes back — the canonical
/// machine-readable output of every figure/table binary.
pub fn obs_doc(fill: impl FnOnce(&mut slice_obs::Registry)) -> String {
    let mut obs = slice_obs::Obs::with_trace_capacity(1);
    fill(&mut obs.registry);
    obs.export_json(0)
}

/// Folds result series into a slice-obs document. Gauge names are
/// `<figure>.<series label>.<x>`.
pub fn series_obs_json(figure: &str, series: &[Series]) -> String {
    obs_doc(|reg| {
        for s in series {
            for &(x, y) in &s.points {
                reg.set_gauge(&format!("{figure}.{}.{x}", s.label), y);
            }
        }
    })
}

/// Folds measured µproxy phase costs into a slice-obs document.
pub fn phases_obs_json(table: &str, ph: &PhaseStats) -> String {
    obs_doc(|reg| {
        reg.set(&format!("{table}.packets"), ph.packets);
        reg.set(&format!("{table}.intercept_ns"), ph.intercept_ns);
        reg.set(&format!("{table}.decode_ns"), ph.decode_ns);
        reg.set(&format!("{table}.rewrite_ns"), ph.rewrite_ns);
        reg.set(&format!("{table}.soft_ns"), ph.soft_ns);
    })
}

/// Locates the repository root at runtime: the first ancestor of the
/// current working directory (then of the binary's own path) containing a
/// `Cargo.lock`. Compile-time `CARGO_MANIFEST_DIR` is wrong whenever the
/// binary runs from a different checkout or a CI workspace; walking up at
/// runtime finds the root of whichever tree actually invoked us. Falls
/// back to `.` when no lockfile is found (bare binary outside any
/// checkout).
pub fn repo_root() -> std::path::PathBuf {
    fn ascend(start: &std::path::Path) -> Option<std::path::PathBuf> {
        let mut dir = start;
        loop {
            if dir.join("Cargo.lock").exists() {
                return Some(dir.to_path_buf());
            }
            dir = dir.parent()?;
        }
    }
    if let Some(root) = std::env::current_dir().ok().and_then(|d| ascend(&d)) {
        return root;
    }
    if let Some(root) = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().and_then(ascend))
    {
        return root;
    }
    std::path::PathBuf::from(".")
}

/// Writes `json` to `BENCH_<name>.json` at the repository root (resolved
/// at runtime; see [`repo_root`]). The snapshot files are gitignored run
/// artifacts consumed by plotting and regression tooling. Most binaries
/// write theirs through [`crate::BenchArgs::emit`], under `--json-out`.
pub fn write_json(name: &str, json: &str) {
    let file = repo_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&file, json).unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
    eprintln!("wrote {}", file.display());
}
