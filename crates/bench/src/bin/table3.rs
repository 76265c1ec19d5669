//! Table 3 — µproxy CPU cost per phase.
//!
//! Paper values, measured with iprobe on a 500 MHz Alpha 21264 at 6250
//! packets/second: interception 0.7 %, decode 4.1 %, redirect/rewrite
//! 0.5 %, soft state 0.8 % (6.1 % total).
//!
//! We replay the same untar packet mix (seven NFS request/response pairs
//! per created file) through the real µproxy code and measure each phase
//! with CPU timers. Absolute percentages land far below the paper's —
//! this host is an order of magnitude faster than a 1999 Alpha — so the
//! table reports measured ns/packet, the equivalent CPU share at 6250
//! packets/s, and each phase's share of the µproxy total next to the
//! paper's shares.
//!
//! Usage: `table3 [--threads T] [--json-out]` — the replayed file range
//! is split over T workers (default: available parallelism), each with a
//! private µproxy.

fn main() {
    // Workers replay disjoint slices of the file range through private
    // µproxies; packet counts are thread-count-invariant, the ns timers
    // are host measurements either way.
    let args = slice_bench::BenchArgs::from_env("usage: table3 [--threads T] [--json-out]");
    let ph = slice_bench::run_uproxy_phases(350_000, args.threads());
    let total_ns = ph.intercept_ns + ph.decode_ns + ph.rewrite_ns + ph.soft_ns;
    let per_packet = |ns: u64| ns as f64 / ph.packets as f64;
    let cpu_pct = |ns: u64| per_packet(ns) * 6250.0 / 1e9 * 100.0;
    let share = |ns: u64| ns as f64 / total_ns as f64 * 100.0;
    let names = [
        "Packet interception",
        "Packet decode",
        "Redirection/rewriting",
        "Soft state logic",
    ];
    println!(
        "Table 3: µproxy CPU cost at 6250 packets/s ({} packets measured)",
        ph.packets
    );
    println!(
        "{:>24} {:>10} {:>10} {:>12} {:>12}",
        "phase", "ns/pkt", "CPU %", "share %", "paper share %"
    );
    for (name, (ns, paper_share)) in names.iter().zip(slice_bench::table3_rows(&ph)) {
        println!(
            "{:>24} {:>10.1} {:>10.3} {:>12.1} {:>12.1}",
            name,
            per_packet(ns),
            cpu_pct(ns),
            share(ns),
            paper_share
        );
    }
    println!(
        "{:>24} {:>10.1} {:>10.3} {:>12} {:>12}",
        "total",
        per_packet(total_ns),
        cpu_pct(total_ns),
        "100.0",
        "100.0 (=6.1% CPU)"
    );
    // Machine-readable output: the slice-obs JSON snapshot of the table.
    let json = slice_bench::phases_obs_json("table3", &ph);
    args.emit("table3", &json);
}
