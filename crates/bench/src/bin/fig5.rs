//! Figure 5 — SPECsfs97-like throughput at saturation.
//!
//! Delivered IOPS versus offered load for the monolithic FreeBSD-style
//! NFS baseline (saturating near 850 IOPS in the paper) and Slice with
//! 1, 2, 4, and 8 storage nodes (the paper reaches 6600 IOPS at 8 nodes /
//! 64 disks). All Slice configurations use one directory server and two
//! small-file servers, exactly as the paper's SPECsfs runs.

fn main() {
    let quick = slice_bench::BenchArgs::from_env("usage: fig5 [--quick]").flag("--quick");
    let loads = if quick {
        slice_bench::SFS_QUICK_LOADS
    } else {
        slice_bench::SFS_LOADS
    };
    let (all, _) = slice_bench::sfs_grid(loads, slice_bench::SFS_NODES, f64::INFINITY);
    println!("Figure 5: SPECsfs-like delivered throughput (IOPS) vs offered load");
    slice_bench::print_series("offered", "delivered IOPS", &all);
    println!("Paper shape: baseline saturates ~850 IOPS; Slice-1 exceeds it via");
    println!("faster directory ops; throughput scales with storage nodes (6600");
    println!("IOPS at Slice-8 in the paper).");
}
