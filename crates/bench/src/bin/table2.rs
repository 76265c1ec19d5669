//! Table 2 — bulk I/O bandwidth in the test ensemble.
//!
//! Paper values (MB/s): read 62.5 single / 437 saturated; write 38.9 /
//! 479; read-mirrored 52.9 / 222; write-mirrored 32.2 / 251.
//!
//! Usage: `table2 [--quick]` (quick: 256 MB files instead of 1.25 GB).

fn main() {
    let quick = slice_bench::BenchArgs::from_env("usage: table2 [--quick]").flag("--quick");
    let bytes: u64 = if quick { 256 << 20 } else { (125 << 20) * 10 };
    println!(
        "Table 2: bulk I/O bandwidth (MB/s), file size {} MB",
        bytes >> 20
    );
    println!(
        "{:>16} {:>10} {:>10} {:>12} {:>12}",
        "", "measured", "paper", "measured", "paper"
    );
    println!(
        "{:>16} {:>10} {:>10} {:>12} {:>12}",
        "", "single", "single", "saturation", "saturation"
    );
    for r in slice_bench::bulk_table(bytes, 16) {
        println!(
            "{:>16} {:>10.1} {:>10.1} {:>12.1} {:>12.1}",
            r.name, r.single, r.paper_single, r.sat, r.paper_sat
        );
    }
}
