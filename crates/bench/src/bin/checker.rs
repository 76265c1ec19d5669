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
//! Usage: `checker [--seeds N] [--schedules M] [--chaos] [--coded]
//! [--reconf] [--threads T] [--json-out] [--report-out FILE]`
//! (defaults: 8 seeds × 4 schedules, T = available parallelism).
//! `--chaos` swaps the standard schedule pool for the chaos pool
//! (datagram duplication and reordering windows, stacked storage
//! crashes). `--coded` runs every ensemble with (4,2) erasure coding for
//! mapped files — the coded-reconstruction oracle then vets every stripe
//! — and with `--chaos` widens the pool with stacked storage crashes.
//! `--reconf` runs every ensemble with a fifth standby storage site and
//! swaps the pool for reconfiguration schedules (joins, planned drains,
//! hot-set widening, rebalance-mid-crash stacks); the drain oracle then
//! proves no chunk is stranded and no map entry orphaned after removal.
//! Seeds fan out over the slice-par worker pool; the printed
//! report is byte-identical for identical arguments at *any* thread
//! count. `--report-out` writes that deterministic report to a file (CI
//! `cmp`s it across thread counts); `--json-out` writes
//! `BENCH_checker[_chaos].json`, the same report plus informational
//! host-timing gauges. Exits nonzero if any run violated any oracle.

use slice_check::{sweep, ExploreOpts};

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: checker [--seeds N] [--schedules M] [--chaos] [--coded] [--reconf] \
         [--threads T] [--json-out] [--report-out FILE]",
    );
    let n_seeds = args.num("--seeds", 8);
    let n_schedules = args.num("--schedules", 4) as usize;
    let opts = ExploreOpts {
        chaos: args.flag("--chaos"),
        coded: args.flag("--coded"),
        reconf: args.flag("--reconf"),
        threads: args.threads(),
    };
    let seeds: Vec<u64> = (1..=n_seeds).collect();

    println!(
        "checker: sweeping {} seeds x {} {} schedules (+1 reference each) on {} thread{}{}{}",
        seeds.len(),
        n_schedules,
        if opts.reconf {
            "reconf"
        } else if opts.chaos {
            "chaos"
        } else {
            "standard"
        },
        opts.threads,
        if opts.threads == 1 { "" } else { "s" },
        if opts.coded { ", coded (4,2)" } else { "" },
        if opts.reconf { ", standby site 4" } else { "" }
    );
    let report = sweep(&seeds, n_schedules, &opts);
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
        let name = if opts.reconf {
            "checker_reconf"
        } else {
            match (opts.chaos, opts.coded) {
                (false, false) => "checker",
                (true, false) => "checker_chaos",
                (false, true) => "checker_coded",
                (true, true) => "checker_chaos_coded",
            }
        };
        slice_bench::write_json(name, &report.timed_json);
    }
    if !report.passed() {
        std::process::exit(1);
    }
}
