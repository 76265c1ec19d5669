//! The Slice directory service: scalable name space management.
//!
//! Slice distributes the name space of a *single* file volume across
//! multiple directory servers, without user-visible volume boundaries
//! (paper §3.2). The µproxy picks a site per request (mkdir switching or
//! name hashing); the sites cooperate through a peer protocol with
//! write-ahead intent logging, and recover by replaying their logs
//! (§3.3, §4.3).

#![forbid(unsafe_code)]

pub mod server;
pub mod types;

pub use server::{DirAction, DirDurable, DirServer, DirServerConfig};
pub use types::{AttrCell, ChildRef, DirLog, NameCell, PeerInfo, PeerMsg};

#[cfg(test)]
mod tests;
