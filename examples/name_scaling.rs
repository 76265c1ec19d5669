//! Name-space scaling: run the paper's untar benchmark against one and
//! four directory servers under both distribution policies, showing how
//! interposed request routing spreads a single volume's name space
//! (paper §3.2, Figure 3).
//!
//! Run with: `cargo run --release --example name_scaling`

use slice::core::{EnsemblePolicy, SliceConfig, SliceEnsemble, Workload};
use slice::sim::{SimDuration, SimTime};
use slice::workloads::Untar;

fn run(procs: usize, dirs: usize, policy: EnsemblePolicy, files: u64) -> (f64, Vec<usize>) {
    let cfg = SliceConfig {
        clients: procs,
        dir_servers: dirs,
        policy,
        retain_data: false,
        ..Default::default()
    };
    let workloads: Vec<Box<dyn Workload>> = (0..procs)
        .map(|i| Box::new(Untar::new(i as u64, files)) as Box<dyn Workload>)
        .collect();
    let mut ens = SliceEnsemble::build(&cfg, workloads);
    ens.start();
    ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(3600));
    let mut total = 0.0;
    for i in 0..procs {
        let u = ens.client(i).workload_as::<Untar>();
        total += u.elapsed().expect("finished").as_secs_f64();
    }
    let cells: Vec<usize> = ens
        .dirs
        .iter()
        .map(|&d| {
            ens.engine
                .actor::<slice::core::actors::DirActor>(d)
                .server
                .name_cells()
        })
        .collect();
    (total / procs as f64, cells)
}

fn main() {
    let files = 1200u64;
    let procs = 8;
    println!("untar: {procs} processes x {files} files/dirs each\n");

    let (lat, cells) = run(
        procs,
        1,
        EnsemblePolicy::MkdirSwitching { redirect_millis: 0 },
        files,
    );
    println!("1 dir server               : {lat:6.2} s/process   cells {cells:?}");

    let (lat, cells) = run(
        procs,
        4,
        EnsemblePolicy::MkdirSwitching {
            redirect_millis: 250,
        },
        files,
    );
    println!("4 servers, mkdir switching : {lat:6.2} s/process   cells {cells:?}");

    let (lat, cells) = run(procs, 4, EnsemblePolicy::NameHashing, files);
    println!("4 servers, name hashing    : {lat:6.2} s/process   cells {cells:?}");

    println!("\nBoth policies spread one unified volume across the servers with no");
    println!("user-visible volume boundaries; each added directory server absorbs");
    println!("~6000 ops/s of name traffic (Figure 3).");
}
