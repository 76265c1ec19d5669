//! Bulk I/O: the Table 2 scenario as a runnable demo — stream a large
//! file through the µproxy's striping (and mirrored-striping) policies
//! and report delivered bandwidth.
//!
//! Run with: `cargo run --release --example bulk_io`

use slice::core::{SliceConfig, SliceEnsemble, Workload};
use slice::sim::{SimDuration, SimTime};
use slice::workloads::BulkIo;

fn run(clients: usize, bytes: u64, mirrored: bool) -> (f64, f64) {
    let cfg = SliceConfig {
        clients,
        storage_nodes: 8,
        retain_data: false,
        ..Default::default()
    };
    let writers: Vec<Box<dyn Workload>> = (0..clients)
        .map(|i| Box::new(BulkIo::writer(&format!("dd{i}"), bytes, mirrored)) as Box<dyn Workload>)
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, writers);
    ens.start();
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(3600));
    let mut slowest_write = f64::MAX;
    for i in 0..clients {
        let w = ens.client(i).workload_as::<BulkIo>();
        slowest_write = slowest_write.min(w.bandwidth().expect("finished"));
    }
    // Read the files back.
    for i in 0..clients {
        ens.start_workload(i, Box::new(BulkIo::reader(&format!("dd{i}"), bytes)));
    }
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(7200));
    let mut slowest_read = f64::MAX;
    for i in 0..clients {
        let r = ens.client(i).workload_as::<BulkIo>();
        slowest_read = slowest_read.min(r.bandwidth().expect("finished"));
    }
    (
        slowest_write * clients as f64,
        slowest_read * clients as f64,
    )
}

fn main() {
    let bytes: u64 = 256 << 20;
    println!(
        "streaming {} MB per client over 8 storage nodes\n",
        bytes >> 20
    );
    let (w, r) = run(1, bytes, false);
    println!(
        "1 client,  striped : write {:6.1} MB/s   read {:6.1} MB/s",
        w / 1e6,
        r / 1e6
    );
    let (w, r) = run(1, bytes, true);
    println!(
        "1 client,  mirrored: write {:6.1} MB/s   read {:6.1} MB/s",
        w / 1e6,
        r / 1e6
    );
    let (w, r) = run(8, bytes, false);
    println!(
        "8 clients, striped : write {:6.1} MB/s   read {:6.1} MB/s",
        w / 1e6,
        r / 1e6
    );
    let (w, r) = run(8, bytes, true);
    println!(
        "8 clients, mirrored: write {:6.1} MB/s   read {:6.1} MB/s",
        w / 1e6,
        r / 1e6
    );
    println!("\n(mirroring halves aggregate bandwidth: every block is written twice,");
    println!(" and mirror-alternating reads leave prefetched data unused — Table 2)");
}
