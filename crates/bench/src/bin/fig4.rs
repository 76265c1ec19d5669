//! Figure 4 — impact of directory affinity for mkdir switching.
//!
//! Untar latency versus affinity (1 − p) with four directory servers and
//! 1/4/8/16 client processes. The paper's findings: light loads are
//! insensitive to affinity; under heavy load, raising affinity slightly
//! helps (fewer cross-server operations) until load imbalance dominates
//! near 100 %; balanced distributions need fewer than 20 % of mkdirs
//! redirected.
//!
//! `--fine` doubles the affinity-axis resolution around the knee
//! (800–1000 ‰) where the curve bends hardest; the default grid stays
//! the paper's so existing baselines remain comparable.

fn main() {
    let args = slice_bench::BenchArgs::from_env("usage: fig4 [--full] [--fine]");
    let files: u64 = if args.flag("--full") { 36_000 } else { 2_400 };
    let affinities: &[u32] = if args.flag("--fine") {
        &[
            0, 100, 200, 300, 400, 500, 600, 700, 800, 850, 900, 925, 950, 975, 1000,
        ]
    } else {
        &[0, 200, 400, 600, 800, 900, 950, 1000]
    };
    let series = slice_bench::affinity_grid(files, &[1, 4, 8, 16], affinities);
    println!("Figure 4: mkdir switching affinity — mean untar latency (s)");
    println!("(4 directory servers, {files} files/dirs per process)");
    slice_bench::print_series("affinity %", "latency s", &series);
    println!("Paper shape: flat for light loads; heavy loads degrade sharply as");
    println!("affinity approaches 100% (all directories bound to one server).");
}
