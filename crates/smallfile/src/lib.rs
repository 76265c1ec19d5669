//! The Slice small-file server.
//!
//! Slice separates small-file I/O from the request stream (after the Amoeba
//! Bullet Server): the µproxy directs read/write traffic below a threshold
//! offset (64 KB) to small-file servers selected by hashing the file
//! handle, keeping high-volume bulk I/O off these servers while letting
//! them specialize their layout for small objects — power-of-two
//! fragments, best-fit reuse, sequential batched creates (paper §3.1,
//! §4.4).
//!
//! * [`alloc`] — zone allocation with power-of-two fragments;
//! * [`server`] — the asynchronous server state machine (map records,
//!   buffer cache, backing I/O to the storage array, WAL + recovery).

#![forbid(unsafe_code)]

pub mod alloc;
pub mod server;

pub use alloc::{frag_size, Region, ZoneAllocator, MIN_FRAG, SF_BLOCK};
pub use server::{
    map_object, zone_object, MapExtent, MapRecord, SfAction, SfCtl, SfLog, SmallFileConfig,
    SmallFileServer, MAP_EXTENTS, MAP_RECORDS_PER_BLOCK, SF_THRESHOLD,
};

#[cfg(test)]
mod tests;
