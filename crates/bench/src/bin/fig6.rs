//! Figure 6 — SPECsfs97-like latency versus delivered throughput.
//!
//! Mean request latency as a function of delivered IOPS for Slice with
//! 1, 2, 4, and 8 storage nodes. The paper notes latency jumps where the
//! ensemble overflows the small-file servers' cache, with acceptable
//! latency at all load levels up to saturation.

fn main() {
    let quick = slice_bench::BenchArgs::from_env("usage: fig6 [--quick]").flag("--quick");
    let loads = if quick {
        slice_bench::SFS_QUICK_LOADS
    } else {
        slice_bench::SFS_LOADS
    };
    // No baseline: Figure 6 plots Slice latency against *delivered* IOPS.
    let (_, series) = slice_bench::sfs_grid(loads, slice_bench::SFS_NODES, 0.0);
    println!("Figure 6: SPECsfs-like mean latency (ms) vs delivered IOPS");
    // Each configuration has its own delivered-IOPS axis; print blocks.
    for s in &series {
        println!("{}:  (delivered IOPS, latency ms)", s.label);
        print!("{}", s.to_rows());
    }
    println!("Paper shape: latency rises as the small-file caches overflow, but");
    println!("remains serviceable up to each configuration's saturation point.");
}
