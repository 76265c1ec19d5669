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
//! cross-process determinism test to keep runs short). The 20 grid cells
//! are independent simulations and fan out over the slice-par worker pool
//! (`--threads`, default available parallelism); series are rebuilt in
//! grid order, so the printed table and JSON are byte-identical at any
//! thread count.

use slice_core::EnsemblePolicy;
use slice_sim::Series;

fn main() {
    let args = slice_bench::BenchArgs::from_env(
        "usage: fig3 [--full | --files N] [--threads T] [--fine] [--json-out]",
    );
    let default_files = if args.flag("--full") { 36_000 } else { 3_600 };
    let files = args.num("--files", default_files);
    let threads = args.threads();
    // `--fine` doubles the sweep resolution (intermediate process counts
    // and a Slice-3 series) for smoother published curves; the default
    // grid stays the paper's, so existing baselines remain comparable.
    let fine = args.flag("--fine");
    let process_counts: &[usize] = if fine {
        &[1, 2, 3, 4, 6, 8, 12, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let dir_counts: &[usize] = if fine { &[1, 2, 3, 4] } else { &[1, 2, 4] };

    // Flatten the grid into (procs, Option<dirs>) cells — None is the
    // N-MFS baseline — and fan out. Each cell is a self-contained
    // deterministic run, so only the merge order matters for output
    // stability, and run_indexed merges by cell index.
    let mut cells: Vec<(usize, Option<usize>)> = Vec::new();
    for &procs in process_counts {
        cells.push((procs, None));
        for &dirs in dir_counts {
            cells.push((procs, Some(dirs)));
        }
    }
    let latencies = slice_sim::run_indexed(threads, cells.clone(), |_, (procs, dirs)| match dirs {
        None => slice_bench::run_untar_mfs(procs, files).0,
        Some(dirs) => {
            // The paper uses p = 1/N for mkdir switching.
            let p_millis = (1000 / dirs as u32).max(1);
            slice_bench::run_untar_slice(
                procs,
                dirs,
                files,
                EnsemblePolicy::MkdirSwitching {
                    redirect_millis: p_millis,
                },
            )
            .0
        }
    });

    let mut mfs = Series::new("N-MFS");
    let mut slice_n: Vec<Series> = dir_counts
        .iter()
        .map(|n| Series::new(format!("Slice-{n}")))
        .collect();
    for ((procs, dirs), lat) in cells.into_iter().zip(latencies) {
        match dirs {
            None => mfs.push(procs as f64, lat),
            Some(d) => {
                let i = dir_counts.iter().position(|&x| x == d).unwrap();
                slice_n[i].push(procs as f64, lat);
            }
        }
    }
    println!("Figure 3: directory service scaling — mean untar latency (s) per process");
    println!(
        "({files} files/dirs per process, ~{} NFS ops each)",
        files * 7
    );
    let mut all = vec![mfs];
    all.extend(slice_n);
    slice_bench::print_series("processes", "latency s", &all);
    println!("Paper shape: MFS fastest lightly loaded, saturating first; Slice-N");
    println!("lines flatten with more directory servers (each ~6000 ops/s).");
    // Machine-readable output: the slice-obs JSON snapshot of the figure.
    let json = slice_bench::series_obs_json("fig3", &all);
    args.emit("fig3", &json);
}
