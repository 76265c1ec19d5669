//! Workload generators for the Slice reproduction.
//!
//! * [`ScriptWorkload`] / [`Step`] — deterministic scripted file-system
//!   sequences with verification, re-exported from `slice_core::script`,
//!   where they live so the `slice-check` explorer runs them too;
//! * [`bulk`] — `dd`-style sequential bulk I/O (Table 2);
//! * [`untar`] — the name-intensive FreeBSD-src untar benchmark
//!   (Table 3, Figures 3 and 4);
//! * [`specsfs`] — a SPECsfs97-like self-scaling mixed workload
//!   (Figures 5 and 6).

#![forbid(unsafe_code)]

pub mod bigdir;
pub mod bulk;
pub mod specsfs;
pub mod untar;

pub use bigdir::BigDir;
pub use bulk::{BulkIo, BulkMode, MODE_MIRRORED};
pub use slice_core::script::{ScriptWorkload, Slot, Step};
pub use specsfs::{SpecSfs, SpecSfsConfig, SFS97_MIX};
pub use untar::Untar;
