//! perf — wall-clock baseline of the simulator's hot path.
//!
//! Times the Figure 3 untar mix (the same grid the `fig3` binary sweeps)
//! and a saturating mirrored bulk-I/O run end-to-end on the host, then
//! emits `BENCH_perf.json` with wall-clock seconds, simulated packet and
//! event throughput per host second, the event slab's high-water mark,
//! and the payload copy counters from `ByteBuf`. The untar grid's 20
//! independent configurations fan out over the slice-par worker pool;
//! the deterministic counters are identical at any thread count.
//!
//! Every PR gets a trajectory point; CI's `perf-smoke` job fails when any
//! *deterministic* counter (packets, bytes, events, heap entries, inline
//! dispatches, payload copies) regresses against the committed reference
//! (`ci/perf_reference.txt`).
//! Wall-clock is machine-dependent — it would flake on slower CI runners
//! — so it is reported but never gated on.
//!
//! Usage: `perf [--full] [--threads T] [--check <reference-file>]`
//!
//! * `--full` — paper-scale untar (36,000 files/process) and 256 MB bulk
//!   files instead of the 1/10-scale defaults.
//! * `--threads T` — worker threads for the untar grid (default: available
//!   parallelism).
//! * `--check <file>` — exit nonzero if a deterministic counter exceeds
//!   its reference value by more than 25% (plus a small absolute slack so
//!   near-zero references don't gate on noise-sized drifts) — or, for the
//!   `*.inline_handlers` counters, where *fewer* is the regression, falls
//!   short of it by as much. Lines are `<name> <value>`; `#` starts a
//!   comment; a `wall_s` entry is informational only.

use slice_bench::EngineTotals;
use slice_core::EnsemblePolicy;
use std::time::Instant;

/// Relative headroom for `--check`: fail above `reference * (1 + 0.25)`.
const PERF_TOLERANCE: f64 = 0.25;
/// Absolute slack added on top, so a reference of (say) zero deep copies
/// doesn't fail on a handful of incidental ones.
const PERF_ABS_SLACK: u64 = 65_536;

struct PhaseReport {
    wall_s: f64,
    totals: EngineTotals,
}

/// Runs `f` and returns its result with the `ByteBuf` copy counters
/// (shallow clones, deep copies, deep-copied bytes) it moved. The
/// counters are thread-local and a simulation run stays on the thread
/// that starts it, so the before/after delta is that run's own.
fn with_payload_delta<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let (s0, d0, b0) = slice_nfsproto::bytes::local_clone_stats();
    let out = f();
    let (s1, d1, b1) = slice_nfsproto::bytes::local_clone_stats();
    (out, [s1 - s0, d1 - d0, b1 - b0])
}

/// One cell of the fig3 grid: `dirs == None` is the N-MFS baseline.
#[derive(Clone, Copy)]
struct Cell {
    procs: usize,
    dirs: Option<usize>,
}

/// The fig3 grid: N-MFS plus Slice-{1,2,4} across the process sweep,
/// fanned out over the slice-par pool. Cells are independent runs;
/// totals are folded in cell order (they are sums and maxes, so the
/// result is thread-count-invariant).
fn untar_phase(files: u64, threads: usize) -> (PhaseReport, [u64; 3]) {
    let start = Instant::now();
    let mut cells = Vec::new();
    for &procs in &[1usize, 2, 4, 8, 16] {
        cells.push(Cell { procs, dirs: None });
        for &dirs in &[1usize, 2, 4] {
            cells.push(Cell {
                procs,
                dirs: Some(dirs),
            });
        }
    }
    let per_cell = slice_sim::run_indexed(threads, cells, |_, cell| {
        with_payload_delta(|| match cell.dirs {
            None => slice_bench::run_untar_mfs(cell.procs, files).1,
            Some(dirs) => {
                let p_millis = (1000 / dirs as u32).max(1);
                let policy = EnsemblePolicy::MkdirSwitching {
                    redirect_millis: p_millis,
                };
                slice_bench::run_untar_slice(cell.procs, dirs, files, policy).1
            }
        })
    });
    let mut totals = EngineTotals::default();
    let mut payload = [0; 3];
    for (t, p) in per_cell {
        totals.absorb(t);
        for (sum, n) in payload.iter_mut().zip(p) {
            *sum += n;
        }
    }
    let report = PhaseReport {
        wall_s: start.elapsed().as_secs_f64(),
        totals,
    };
    (report, payload)
}

/// Saturating mirrored bulk I/O: 16 writers then 16 readers, so the run
/// exercises mirrored-write duplication (the payload-sharing fast path)
/// at full load.
fn bulk_phase(bytes_per_client: u64) -> (PhaseReport, [u64; 3]) {
    let start = Instant::now();
    let ((_w, _r, totals), payload) =
        with_payload_delta(|| slice_bench::run_bulk(16, bytes_per_client, true));
    let report = PhaseReport {
        wall_s: start.elapsed().as_secs_f64(),
        totals,
    };
    (report, payload)
}

/// Live-state sizes at the end of a mapped mirrored bulk run: coordinator
/// block-map entries and open dirty ranges, µproxy soft-state entries
/// (pending ops, map-cache fragments, cached attrs, parked packets,
/// coded ops) and suspected sites, and the engine's peak live events —
/// the simulator's working-set gauges for capacity planning, and the
/// leak canaries for the per-site soft state that planned removal must
/// purge. All are deterministic.
fn live_state_phase(bytes_per_client: u64) -> (u64, u64, u64, u64, u64) {
    use slice_core::actors::CoordActor;
    use slice_core::ensemble::{SliceConfig, SliceEnsemble};
    use slice_core::Workload;
    use slice_workloads::BulkIo;
    const CLIENTS: usize = 4;
    let cfg = SliceConfig {
        clients: CLIENTS,
        use_block_maps: true,
        ..SliceConfig::default()
    };
    let writers: Vec<Box<dyn Workload>> = (0..CLIENTS)
        .map(|i| {
            Box::new(BulkIo::writer(&format!("ls{i}"), bytes_per_client, true)) as Box<dyn Workload>
        })
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.run_to_completion(slice_sim::SimTime::ZERO + slice_sim::SimDuration::from_secs(600));
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "live-state writer {i} stalled");
    }
    let maps: usize = ens
        .coords
        .iter()
        .map(|&c| ens.engine.actor::<CoordActor>(c).coord.map_entries())
        .sum();
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
    let soft: usize = (0..CLIENTS)
        .filter_map(|i| ens.client(i).proxy())
        .map(|p| p.soft_state_entries())
        .sum();
    let suspected: usize = (0..CLIENTS)
        .filter_map(|i| ens.client(i).proxy())
        .map(|p| p.suspected_sites().len())
        .sum();
    (
        maps as u64,
        dirty as u64,
        soft as u64,
        suspected as u64,
        ens.engine.peak_live_events() as u64,
    )
}

/// Peak resident set in kilobytes from `/proc/self/status` (`VmHWM`).
/// Linux-only; reported as an informational gauge, zero elsewhere.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

fn fold_phase(reg: &mut slice_obs::Registry, name: &str, ph: &PhaseReport) {
    reg.set_gauge(&format!("perf.{name}.wall_s"), ph.wall_s);
    reg.set(&format!("perf.{name}.packets"), ph.totals.packets);
    reg.set(&format!("perf.{name}.bytes"), ph.totals.bytes);
    reg.set(&format!("perf.{name}.events"), ph.totals.events);
    reg.set(&format!("perf.{name}.heap_pushes"), ph.totals.heap_pushes);
    reg.set(
        &format!("perf.{name}.inline_handlers"),
        ph.totals.inline_dispatches,
    );
    reg.set(
        &format!("perf.{name}.peak_live_events"),
        ph.totals.peak_live_events as u64,
    );
    if ph.wall_s > 0.0 {
        reg.set_gauge(
            &format!("perf.{name}.packets_per_host_s"),
            ph.totals.packets as f64 / ph.wall_s,
        );
        reg.set_gauge(
            &format!("perf.{name}.events_per_host_s"),
            ph.totals.events as f64 / ph.wall_s,
        );
    }
}

/// Checks measured counters against a `<name> <value>` reference file.
/// Returns the failure messages (empty = pass). Wall-clock entries are
/// compared informationally but never fail the gate.
fn check_counters(text: &str, measured: &[(&str, u64)], untar_wall_s: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            failures.push(format!("malformed reference line: {line:?}"));
            continue;
        };
        if name == "wall_s" {
            let reference: f64 = value.parse().unwrap_or(0.0);
            eprintln!(
                "perf: untar wall {untar_wall_s:.3}s vs reference {reference:.3}s (informational)"
            );
            continue;
        }
        let reference: u64 = match value.parse() {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("bad reference value for {name}: {e}"));
                continue;
            }
        };
        let Some(&(_, got)) = measured.iter().find(|(n, _)| *n == name) else {
            failures.push(format!("reference names unknown counter {name}"));
            continue;
        };
        if name.ends_with(".inline_handlers") {
            // The one counter where less is worse: a change that disables
            // the inline path drives it to zero. No absolute slack: the
            // count is exact.
            let floor = (reference as f64 * (1.0 - PERF_TOLERANCE)) as u64;
            if got < floor {
                failures.push(format!(
                    "{name} = {got} falls short of reference {reference} by more than {:.0}% (floor {floor})",
                    PERF_TOLERANCE * 100.0
                ));
            }
            continue;
        }
        let limit = (reference as f64 * (1.0 + PERF_TOLERANCE)) as u64 + PERF_ABS_SLACK;
        if got > limit {
            failures.push(format!(
                "{name} = {got} exceeds reference {reference} by more than {:.0}% (limit {limit})",
                PERF_TOLERANCE * 100.0
            ));
        }
    }
    failures
}

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: perf [--full] [--threads T] [--check <reference-file>]",
    );
    let full = args.flag("--full");
    let threads = args.threads();
    let check_ref = args.opt::<String>("--check");
    let files: u64 = if full { 36_000 } else { 3_600 };
    let bulk_bytes: u64 = if full { 256 << 20 } else { 32 << 20 };

    slice_sim::pool::reset_alloc_stats();
    let (untar, untar_payload) = untar_phase(files, threads);
    let (bulk, bulk_payload) = bulk_phase(bulk_bytes);
    let [shallow, deep, deep_bytes] = [0, 1, 2].map(|i| untar_payload[i] + bulk_payload[i]);
    let (pool_hits, pool_misses, recycled_bytes) = slice_sim::pool::alloc_stats();
    let (map_entries, dirty_ranges, soft_entries, suspected_sites, live_peak) =
        live_state_phase(bulk_bytes / 4);

    println!(
        "perf: hot-path wall-clock baseline ({}, {threads} thread{})",
        if full {
            "full scale"
        } else {
            "default 1/10 scale"
        },
        if threads == 1 { "" } else { "s" }
    );
    for (name, ph) in [("untar", &untar), ("bulk", &bulk)] {
        println!(
            "  {name:>6}: {:>7.3}s wall | {:>12} packets ({:>9.0}/host-s) | {:>12} events \
             ({} heap entries, {} handlers inline) | peak live {}",
            ph.wall_s,
            ph.totals.packets,
            ph.totals.packets as f64 / ph.wall_s.max(1e-9),
            ph.totals.events,
            ph.totals.heap_pushes,
            ph.totals.inline_dispatches,
            ph.totals.peak_live_events,
        );
    }
    println!("  payload: {shallow} shallow clones, {deep} deep copies ({deep_bytes} bytes copied)");
    println!(
        "  alloc: {pool_hits} pool hits, {pool_misses} pool misses ({recycled_bytes} bytes \
         recycled, {} held)",
        slice_sim::pool::held_bytes()
    );
    println!(
        "  live state: {map_entries} coordinator map entries, {soft_entries} uproxy soft-state \
         entries, {live_peak} peak live events (mapped bulk)"
    );

    let json = slice_bench::obs_doc(|reg| {
        fold_phase(reg, "untar", &untar);
        fold_phase(reg, "bulk", &bulk);
        reg.set("perf.payload.shallow_clones", shallow);
        reg.set("perf.payload.deep_copies", deep);
        reg.set("perf.payload.deep_copy_bytes", deep_bytes);
        reg.set("perf.alloc.pool_hits", pool_hits);
        reg.set("perf.alloc.pool_misses", pool_misses);
        reg.set("perf.alloc.recycled_bytes", recycled_bytes);
        reg.set("perf.alloc.pool_held_bytes", slice_sim::pool::held_bytes());
        reg.set("perf.live_state.peak_rss_kb", peak_rss_kb());
        reg.set("perf.live_state.coord_map_entries", map_entries);
        reg.set("perf.live_state.coord_dirty_ranges", dirty_ranges);
        reg.set("perf.live_state.uproxy_soft_state_entries", soft_entries);
        reg.set("perf.live_state.uproxy_suspected_sites", suspected_sites);
        reg.set("perf.live_state.peak_live_events", live_peak);
        reg.set_gauge("perf.threads", threads as f64);
        reg.set_gauge("perf.total.wall_s", untar.wall_s + bulk.wall_s);
    });
    println!("{json}");
    slice_bench::write_json("perf", &json);

    if let Some(path) = check_ref {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read reference {path}: {e}"));
        let measured = [
            ("untar.packets", untar.totals.packets),
            ("untar.bytes", untar.totals.bytes),
            ("untar.events", untar.totals.events),
            ("untar.heap_pushes", untar.totals.heap_pushes),
            ("untar.inline_handlers", untar.totals.inline_dispatches),
            ("bulk.packets", bulk.totals.packets),
            ("bulk.bytes", bulk.totals.bytes),
            ("bulk.events", bulk.totals.events),
            ("bulk.heap_pushes", bulk.totals.heap_pushes),
            ("bulk.inline_handlers", bulk.totals.inline_dispatches),
            ("payload.shallow_clones", shallow),
            ("payload.deep_copies", deep),
            ("payload.deep_copy_bytes", deep_bytes),
            ("alloc.pool_hits", pool_hits),
            ("alloc.pool_misses", pool_misses),
            ("alloc.recycled_bytes", recycled_bytes),
        ];
        let failures = check_counters(&text, &measured, untar.wall_s);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf: REGRESSION — {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "perf: all deterministic counters within {:.0}% of reference",
            PERF_TOLERANCE * 100.0
        );
    }
}
