//! Consistency oracles and deterministic crash-schedule exploration for
//! the Slice reproduction.
//!
//! The paper's central correctness claims — that interposed request
//! routing keeps the ensemble "equivalent to a monolithic NFS server"
//! and that write-ahead intention logging makes multisite operations
//! atomic across crashes (§3.3–§3.4) — are mechanical properties of the
//! deterministic simulation. This crate checks them mechanically, in
//! three layers:
//!
//! * **recorder** — `slice-core` captures a begin/end invocation record
//!   for every client-visible NFS call (`slice_core::history`, enabled by
//!   `SliceConfig::record_history`);
//! * **oracles** — [`oracle`] replays recorded histories against a
//!   per-chunk register model (bounded Wing & Gong linearizability plus a
//!   close-to-open fast path), and [`state`] checks structural invariants
//!   of the final ensemble state: directory hash-chain integrity and link
//!   counts, coordinator block maps vs. storage objects, attr-cache
//!   subsumption, and namespace equivalence against a crash-free
//!   reference run (the WAL-replay oracle);
//! * **explorer** — [`explore`] generates deterministic workloads and
//!   crash/recover/packet-loss schedules from a seed, runs every oracle
//!   after each schedule, and minimizes failing schedules by bisection.
//!
//! Everything here is deterministic: the same seed produces byte-identical
//! reports, so a failing schedule is a reproducible artifact, not a flake.

#![forbid(unsafe_code)]

pub mod explore;
pub mod oracle;
pub mod state;

pub use explore::{
    chaos_schedules, coded_chaos_schedules, generate_scenario, minimize, reconf_schedules,
    run_schedule, standard_schedules, sweep, DriverWorkload, GenOp, Injection, Mode, NetFault,
    Role, RunOutcome, Scenario, Schedule, ScheduleEvent, SweepFailure, SweepReport,
};
pub use oracle::{check_histories, OracleStats};
pub use state::{
    check_coded_reconstruction, check_drained, check_structural, check_structural_strict, snapshot,
    snapshot_diff, SnapEntry, VolumeSnapshot,
};

/// One oracle violation: which oracle fired and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle name (`linearizability`, `dirsvc_hash_chain`, ...).
    pub oracle: &'static str,
    /// What exactly was inconsistent.
    pub detail: String,
}

impl Violation {
    /// Builds a violation.
    pub fn new(oracle: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            oracle,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}
