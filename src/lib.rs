//! # Slice: Interposed Request Routing for Scalable Network Storage
//!
//! A comprehensive Rust reproduction of Anderson, Chase & Vahdat,
//! *"Interposed Request Routing for Scalable Network Storage"*
//! (OSDI 2000). Slice virtualizes the NFS V3 protocol by interposing a
//! request-switching packet filter — the **µproxy** — on each client's
//! network path, distributing requests across an ensemble of network
//! storage nodes, small-file servers, and directory servers that together
//! present one unified file volume.
//!
//! The crates re-exported here are documented individually; start with
//! [`core`] (ensembles) and [`uproxy`] (the routing filter). See DESIGN.md
//! for the system inventory and EXPERIMENTS.md for paper-vs-measured
//! results.
//!
//! ## Quickstart
//!
//! ```
//! use slice::core::{SliceConfig, SliceEnsemble};
//! use slice::workloads::{ScriptWorkload, Step};
//! use slice::sim::{SimDuration, SimTime};
//! use slice::nfsproto::StableHow;
//!
//! let script = ScriptWorkload::new(
//!     vec![
//!         Step::Mkdir { parent: 0, name: "home".into(), save: 1 },
//!         Step::Create { parent: 1, name: "hello".into(), save: 2, mode_extra: 0 },
//!         Step::Write { fh: 2, offset: 0, len: 1024, pattern: 7, stable: StableHow::FileSync },
//!         Step::Read { fh: 2, offset: 0, len: 1024, verify: Some(7) },
//!     ],
//!     3,
//! );
//! let mut ens = SliceEnsemble::build(&SliceConfig::default(), vec![Box::new(script)]);
//! ens.start();
//! ens.run_to_completion(SimTime::ZERO + SimDuration::from_secs(60));
//! let wl = ens.client(0).workload().unwrap();
//! # let _ = wl;
//! ```

#![forbid(unsafe_code)]

pub use slice_check as check;
pub use slice_core as core;
pub use slice_dirsvc as dirsvc;
pub use slice_hashes as hashes;
pub use slice_nfsproto as nfsproto;
pub use slice_obs as obs;
pub use slice_sim as sim;
pub use slice_smallfile as smallfile;
pub use slice_storage as storage;
pub use slice_uproxy as uproxy;
pub use slice_workloads as workloads;
pub use slice_xdr as xdr;
