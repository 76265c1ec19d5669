//! Runs every table and figure at a benchmark-friendly scale and prints
//! the paper-versus-measured summary recorded in EXPERIMENTS.md.
//!
//! Usage: `all_experiments [--full]` (full uses paper-scale parameters
//! everywhere; expect a long run).

fn main() {
    let full = slice_bench::BenchArgs::from_env("usage: all_experiments [--full]").flag("--full");
    let t0 = std::time::Instant::now();

    // ---------------- Table 2 ----------------
    println!("=== Table 2: bulk I/O bandwidth (MB/s) ===");
    let bytes: u64 = if full { (125 << 20) * 10 } else { 512 << 20 };
    println!(
        "{:>16} {:>9} {:>9} {:>11} {:>11}",
        "", "measured", "paper", "meas(sat)", "paper(sat)"
    );
    for r in slice_bench::bulk_table(bytes, 16) {
        println!(
            "{:>16} {:>9.1} {:>9.1} {:>11.1} {:>11.1}",
            r.name, r.single, r.paper_single, r.sat, r.paper_sat
        );
    }

    // ---------------- Table 3 ----------------
    println!("\n=== Table 3: µproxy CPU phases ===");
    let ph = slice_bench::run_uproxy_phases(140_000, 1);
    let total = (ph.intercept_ns + ph.decode_ns + ph.rewrite_ns + ph.soft_ns) as f64;
    let names = ["interception", "decode", "redirect/rewrite", "soft state"];
    println!(
        "{:>18} {:>9} {:>11} {:>12}",
        "phase", "ns/pkt", "share %", "paper share %"
    );
    for (name, (ns, paper_share)) in names.iter().zip(slice_bench::table3_rows(&ph)) {
        println!(
            "{:>18} {:>9.1} {:>11.1} {:>12.1}",
            name,
            ns as f64 / ph.packets as f64,
            ns as f64 / total * 100.0,
            paper_share
        );
    }

    // ---------------- Figure 3 ----------------
    println!("\n=== Figure 3: directory service scaling (untar latency s) ===");
    let files: u64 = if full { 36_000 } else { 3_600 };
    let (all, _) =
        slice_bench::untar_grid(files, slice_bench::UNTAR_PROCS, slice_bench::UNTAR_DIRS, 1);
    slice_bench::print_series("processes", "latency s", &all);

    // ---------------- Figure 4 ----------------
    println!("=== Figure 4: mkdir switching affinity (untar latency s) ===");
    let files4: u64 = if full { 36_000 } else { 2_400 };
    let series4 = slice_bench::affinity_grid(files4, &[1, 8, 16], &[0, 400, 800, 950, 1000]);
    slice_bench::print_series("affinity %", "latency s", &series4);

    // ---------------- Figures 5 and 6 ----------------
    println!("=== Figures 5/6: SPECsfs-like throughput and latency ===");
    let loads: &[f64] = if full {
        slice_bench::SFS_LOADS
    } else {
        &[400.0, 800.0, 1600.0, 3200.0, 6400.0]
    };
    let (tput, lat) = slice_bench::sfs_grid(loads, slice_bench::SFS_NODES, 3200.0);
    println!("-- Figure 5 (delivered IOPS vs offered) --");
    slice_bench::print_series("offered", "IOPS", &tput);
    println!("-- Figure 6 (mean latency ms vs delivered IOPS) --");
    for s in &lat {
        println!("{}:  (delivered IOPS, latency ms)", s.label);
        print!("{}", s.to_rows());
    }

    println!("total wall time {:?}", t0.elapsed());
}
