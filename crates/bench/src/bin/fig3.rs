//! Figure 3 — directory service scaling.
//!
//! Untar latency per client process versus the number of concurrent
//! processes, for the N-MFS baseline and Slice with 1, 2, and 4 directory
//! servers. The paper's qualitative results: MFS is initially faster
//! (no logging) but its single CPU saturates quickly; Slice-N scales with
//! more directory servers, each saturating near 6000 ops/s.
//!
//! Usage: `fig3 [--full | --files N] [--threads T] [--fine]` —
//! default creates 3,600 files/dirs per process (a documented 1/10 scale
//! of the paper's 36,000); `--full` runs the paper's size, and
//! `--files N` sets an explicit per-process count (used by the
//! cross-process determinism test to keep runs short); the two together
//! are refused. The 20 grid cells (`slice_bench::untar_grid`) are
//! independent simulations and fan out over the slice-par worker pool
//! (`--threads`, default available parallelism); series are rebuilt in
//! grid order, so the printed table and JSON are byte-identical at any
//! thread count.

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: fig3 [--full | --files N] [--threads T] [--fine] [--json-out]",
    );
    let files = match (args.flag("--full"), args.opt("--files")) {
        (false, None) => 3_600,
        (true, None) => 36_000,
        (false, Some(n)) => n,
        (true, Some(_)) => args.bad_usage(),
    };
    // `--fine` doubles the sweep resolution (intermediate process counts
    // and a Slice-3 series) for smoother published curves; the default
    // grid stays the paper's, so existing baselines remain comparable.
    let (procs, dirs): (&[usize], &[usize]) = if args.flag("--fine") {
        (&[1, 2, 3, 4, 6, 8, 12, 16], &[1, 2, 3, 4])
    } else {
        (slice_bench::UNTAR_PROCS, slice_bench::UNTAR_DIRS)
    };
    let (all, _) = slice_bench::untar_grid(files, procs, dirs, args.threads());
    println!("Figure 3: directory service scaling — mean untar latency (s) per process");
    println!(
        "({files} files/dirs per process, ~{} NFS ops each)",
        files * 7
    );
    slice_bench::print_series("processes", "latency s", &all);
    println!("Paper shape: MFS fastest lightly loaded, saturating first; Slice-N");
    println!("lines flatten with more directory servers (each ~6000 ops/s).");
    // Machine-readable output: the slice-obs JSON snapshot of the figure.
    let json = slice_bench::series_obs_json("fig3", &all);
    args.emit("fig3", &json);
}
