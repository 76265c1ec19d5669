//! The Slice µproxy: interposed request routing for NFS.
//!
//! This crate is the paper's central contribution — a small packet filter
//! interposed on each client's network path that virtualizes the NFS
//! protocol: it decodes intercepted request packets, applies configurable
//! routing policies (threshold-split I/O, static and map-driven striping,
//! mirrored striping, mkdir switching, name hashing), rewrites addresses
//! and selected payload fields with incremental checksum repair, and keeps
//! bounded soft state (pending-request records, routing tables, a block-map
//! cache, and an attribute cache with write-back).
//!
//! * [`attrcache`] — the attribute cache (§4.1);
//! * [`proxy`] — the packet filter state machine with per-phase cost
//!   accounting (Table 3).

#![forbid(unsafe_code)]

pub mod attrcache;
pub mod proxy;

pub use attrcache::{AttrCache, CachedAttr};
pub use proxy::{
    PhaseStats, ProxyConfig, ProxyOut, Uproxy, ATTR_CACHE_ENTRIES, ATTR_WRITEBACK, MIRROR_COPIES,
    STRIPE_UNIT, SUSPECT_AFTER, THRESHOLD,
};
/// The name-space policy under the µproxy's older name.
pub use slice_hashes::NamePolicy as ProxyNamePolicy;

#[cfg(test)]
mod tests;
