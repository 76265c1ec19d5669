//! Deterministic discrete-event simulation substrate for the Slice
//! reproduction.
//!
//! The paper evaluates Slice on a hardware testbed — a switched Gigabit
//! Ethernet LAN, storage nodes with eight-disk SCSI arrays, Pentium-III
//! clients and servers. This crate substitutes that testbed with a
//! deterministic simulator that models the resources whose saturation the
//! paper's results turn on:
//!
//! * **CPU** — each node serializes message handling on one simulated CPU
//!   ([`engine`]); a handler charges the time its work costs, so a server's
//!   throughput ceiling emerges from its per-op cost.
//! * **Network** — a star-topology store-and-forward switch with per-frame
//!   serialization at 1 Gb/s and jumbo frames ([`net`]).
//! * **Disks** — per-arm seek/rotation/transfer with sequential-access
//!   detection behind a shared channel cap ([`disk`]).
//! * **Memory** — byte-budget LRU residency tracking ([`cache`]), indexed
//!   by key or by pages of blocks ([`block_table`]).
//!
//! Everything is deterministic under a fixed seed: the event queue breaks
//! ties by insertion order and all randomness flows from one seeded RNG.

#![forbid(unsafe_code)]

pub mod block_table;
pub mod cache;
pub mod disk;
pub mod engine;
pub mod fxmap;
pub mod net;
pub mod par;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use block_table::{BlockKey, BlockTable};
pub use cache::{LruCache, SlotIndex};
// Observability vocabulary, re-exported so actor crates can emit trace
// events without naming slice-obs directly.
pub use disk::{DiskArray, DiskParams};
pub use engine::{Actor, Ctx, Engine, MessageSize, NodeId, NodeStats, TimerId, START_TAG};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use net::NetConfig;
pub use par::{default_threads, run_indexed};
pub use rng::Rng;
pub use slice_obs::{EventKind, Obs, Subsystem};
pub use stats::{render_table, LatencyStats, Series};
pub use time::{SimDuration, SimTime};
