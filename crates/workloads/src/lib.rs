//! Workload generators for the Slice reproduction.
//!
//! * [`script`] — deterministic scripted file-system sequences with
//!   verification (integration tests, examples);
//! * [`bulk`] — `dd`-style sequential bulk I/O (Table 2);
//! * [`untar`] — the name-intensive FreeBSD-src untar benchmark
//!   (Table 3, Figures 3 and 4);
//! * [`specsfs`] — a SPECsfs97-like self-scaling mixed workload
//!   (Figures 5 and 6).

#![forbid(unsafe_code)]

pub mod bigdir;
pub mod bulk;
pub mod script;
pub mod specsfs;
pub mod untar;

pub use bigdir::BigDir;
pub use bulk::{BulkIo, BulkMode, MODE_MIRRORED};
pub use script::{ScriptWorkload, Slot, Step};
pub use specsfs::{SpecSfs, SpecSfsConfig, SFS97_MIX};
pub use untar::Untar;
