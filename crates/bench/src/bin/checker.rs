//! `checker` — N-seed × M-schedule consistency sweep.
//!
//! For each seed, generates a deterministic mixed workload, runs it
//! crash-free to establish the reference namespace, then replays it under
//! M fault schedules (directory/storage/coordinator crashes with
//! recovery, packet-loss windows) and applies every `slice-check` oracle:
//! per-chunk register linearizability, close-to-open, expected statuses
//! under NFS retransmission semantics, directory-service structural
//! invariants, coordinator block maps, attr-cache audit, and WAL-replay
//! namespace equivalence against the reference run.
//!
//! Usage: `checker [--seeds N] [--schedules M] [[--chaos] [--coded] |
//! --reconf] [--threads T] [--json-out] [--report-out FILE]`
//! (defaults: 8 seeds × 4 schedules, T = available parallelism).
//! `--chaos` swaps the standard schedule pool for the chaos pool
//! (datagram duplication and reordering windows, stacked storage
//! crashes). `--coded` runs every ensemble with (4,2) erasure coding for
//! mapped files — the coded-reconstruction oracle then vets every stripe
//! — and with `--chaos` widens the pool with stacked storage crashes.
//! `--reconf` runs every ensemble with a fifth standby storage site and
//! swaps the pool for reconfiguration schedules (joins, planned drains,
//! hot-set widening, rebalance-mid-crash stacks); the drain oracle then
//! proves no chunk is stranded and no map entry orphaned after removal;
//! it takes neither `--chaos` nor `--coded`.
//! Seeds fan out over the slice-par worker pool; the printed
//! report is byte-identical for identical arguments at *any* thread
//! count. `--report-out` writes that deterministic report to a file (CI
//! `cmp`s it across thread counts); `--json-out` writes
//! `BENCH_checker[_coded|_chaos|_chaos_coded|_reconf].json`, the same
//! report plus informational host-timing gauges. Exits nonzero if any run
//! violated any oracle.

use slice_check::{sweep, Mode};

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: checker [--seeds N] [--schedules M] [[--chaos] [--coded] | --reconf] \
         [--threads T] [--json-out] [--report-out FILE]",
    );
    let n_seeds = args.num("--seeds", 8);
    let n_schedules = args.num("--schedules", 4) as usize;
    let threads = args.threads();
    let flags = ["--chaos", "--coded", "--reconf"].map(|f| args.flag(f));
    let mode = match flags {
        [false, false, false] => Mode::Standard,
        [false, true, false] => Mode::Coded,
        [true, false, false] => Mode::Chaos,
        [true, true, false] => Mode::ChaosCoded,
        [false, false, true] => Mode::Reconf,
        // The reconfiguration ensemble has its own pool and mirrored
        // placement.
        _ => args.bad_usage(),
    };
    let (pool, ensemble, bench_name) = mode.names();
    let seeds: Vec<u64> = (1..=n_seeds).collect();

    println!(
        "checker: sweeping {n_seeds} seeds x {n_schedules} {pool} schedules (+1 reference each) \
         on {threads} thread{}{ensemble}",
        if threads == 1 { "" } else { "s" },
    );
    let report = sweep(&seeds, n_schedules, mode, threads);
    println!(
        "checker: {} runs, {} client-visible ops checked, {} failing",
        report.runs,
        report.ops_checked,
        report.failures.len()
    );
    for f in &report.failures {
        let which = match f.schedule {
            Some(j) => format!("schedule {j}"),
            None => "reference".to_string(),
        };
        println!("FAIL seed {} {} ({})", f.seed, which, f.schedule_desc);
        println!("  minimal: {}", f.minimal.describe());
        for v in &f.violations {
            println!("  {v}");
        }
    }
    println!("{}", report.json);
    if let Some(path) = args.opt::<String>("--report-out") {
        std::fs::write(&path, &report.json).unwrap_or_else(|e| panic!("write report {path}: {e}"));
        eprintln!("wrote {path}");
    }
    // What `--json-out` saves is not what stdout ends with: the file adds
    // the informational host-timing gauges.
    if args.flag("--json-out") {
        slice_bench::write_json(bench_name, &report.timed_json);
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
