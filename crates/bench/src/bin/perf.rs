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

/// Runs one phase and times it on the host.
fn timed(phase: impl FnOnce() -> EngineTotals) -> PhaseReport {
    let start = Instant::now();
    let totals = phase();
    PhaseReport {
        wall_s: start.elapsed().as_secs_f64(),
        totals,
    }
}

/// Live-state sizes at the end of a mapped mirrored bulk run: coordinator
/// block-map entries and open dirty ranges, µproxy soft-state entries
/// (pending ops, map-cache fragments, cached attrs, parked packets,
/// coded ops) and suspected sites, and the engine's peak live events —
/// the simulator's working-set gauges for capacity planning, and the
/// leak canaries for the per-site soft state that planned removal must
/// purge. All are deterministic.
fn live_state_phase(bytes_per_client: u64) -> (u64, u64, u64, u64, u64) {
    use slice_core::ensemble::{SliceConfig, SliceEnsemble};
    const CLIENTS: usize = 4;
    let cfg = SliceConfig {
        clients: CLIENTS,
        use_block_maps: true,
        ..SliceConfig::default()
    };
    let writers = slice_bench::timeline::bulk_writers("ls", CLIENTS, bytes_per_client, true);
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.run_to_completion(slice_sim::SimTime::ZERO + slice_sim::SimDuration::from_secs(600));
    for i in 0..CLIENTS {
        assert!(ens.client(i).finished(), "live-state writer {i} stalled");
    }
    let proxies = || (0..CLIENTS).filter_map(|i| ens.client(i).proxy());
    let soft: usize = proxies().map(|p| p.soft_state_entries()).sum();
    let suspected: usize = proxies().map(|p| p.suspected_sites().len()).sum();
    (
        ens.coord().map_entries() as u64,
        ens.coord().dirty_log_dump().len() as u64,
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
    let untar = timed(|| {
        let procs = slice_bench::UNTAR_PROCS;
        slice_bench::untar_grid(files, procs, slice_bench::UNTAR_DIRS, threads).1
    });
    // Saturating mirrored bulk I/O: 16 writers then 16 readers, so the run
    // exercises mirrored-write duplication (the payload-sharing fast path)
    // at full load.
    let bulk = timed(|| slice_bench::run_bulk(16, bulk_bytes, true).2);
    let [shallow, deep, deep_bytes] =
        [0, 1, 2].map(|i| untar.totals.payload[i] + bulk.totals.payload[i]);
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
