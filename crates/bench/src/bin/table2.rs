//! Table 2 — bulk I/O bandwidth in the test ensemble.
//!
//! Paper values (MB/s): read 62.5 single / 437 saturated; write 38.9 /
//! 479; read-mirrored 52.9 / 222; write-mirrored 32.2 / 251.
//!
//! Usage: `table2 [--quick]` (quick: 256 MB files instead of 1.25 GB).

fn main() {
    let quick = slice_bench::BenchArgs::from_env("usage: table2 [--quick]").flag("--quick");
    let bytes: u64 = if quick { 256 << 20 } else { (125 << 20) * 10 };
    let sat_clients = 16;
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
    let rows: [(&str, bool, bool, f64, f64); 4] = [
        ("read", false, false, 62.5, 437.0),
        ("write", false, true, 38.9, 479.0),
        ("read-mirrored", true, false, 52.9, 222.0),
        ("write-mirrored", true, true, 32.2, 251.0),
    ];
    // Run each (mirrored x clients) combination once; reuse for rows.
    let (w1, r1, _) = slice_bench::run_bulk(1, bytes, false);
    let (w1m, r1m, _) = slice_bench::run_bulk(1, bytes, true);
    let (ws, rs, _) = slice_bench::run_bulk(sat_clients, bytes, false);
    let (wsm, rsm, _) = slice_bench::run_bulk(sat_clients, bytes, true);
    for (name, mirrored, is_write, paper_single, paper_sat) in rows {
        let (single, sat) = match (mirrored, is_write) {
            (false, false) => (r1.mbs(), rs.mbs()),
            (false, true) => (w1.mbs(), ws.mbs()),
            (true, false) => (r1m.mbs(), rsm.mbs()),
            (true, true) => (w1m.mbs(), wsm.mbs()),
        };
        println!("{name:>16} {single:>10.1} {paper_single:>10.1} {sat:>12.1} {paper_sat:>12.1}");
    }
}
