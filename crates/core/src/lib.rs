//! Slice core: ensemble assembly, the client/µproxy actor, server actors,
//! baselines, and calibration.
//!
//! This crate glues the subsystem crates into runnable deployments inside
//! the deterministic simulator:
//!
//! * [`calib`] — one shared set of testbed-derived model parameters;
//! * [`wire`] — the unified message envelope and address plan;
//! * [`client`] — the NFS client actor with embedded µproxy and the
//!   [`client::Workload`] trait that drives it;
//! * [`actors`] — storage, directory, small-file, and coordinator actors;
//! * [`baseline`] — the monolithic NFS and MFS comparison servers;
//! * [`ensemble`] — builders for Slice and baseline deployments.

#![forbid(unsafe_code)]

pub mod actors;
pub mod baseline;
pub mod calib;
pub mod client;
pub mod ensemble;
pub mod history;
pub mod wire;

pub use baseline::{BaselineActor, BaselineKind, MonoFs};
pub use client::{ClientActor, ClientConfig, ClientIo, ClientStats, Workload};
pub use ensemble::{BaselineEnsemble, SliceConfig, SliceEnsemble};
pub use history::{OpHistory, OpRecord, CHUNK_BYTES};
/// The name-space policy under the ensemble's older name.
pub use slice_hashes::NamePolicy as EnsemblePolicy;
/// The static placement's replication degree, for auditors that recompute
/// it (`slice-check` reaches the µproxy through this crate).
pub use slice_uproxy::MIRROR_COPIES;
pub use wire::{AddrPlan, Router, Wire};
