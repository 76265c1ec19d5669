//! Name-space routing: which directory site a name operation goes to.
//!
//! "The µproxy directs most requests by extracting relevant fields from
//! the request, perhaps hashing to combine multiple fields, and
//! interpreting the result as a logical server site ID ... It then looks
//! up the corresponding physical server in a compact routing table.
//! Multiple logical sites may map to the same physical server, leaving
//! flexibility for reconfiguration" (paper §3). The µproxy routes by
//! these functions and a directory server checks what it owns by them, so
//! the two ends cannot disagree. A handle's home site is a physical site
//! at both ends: attribute cells never move, so it needs no table.

use crate::{bucket_of, default_site_of, LOGICAL_SLOTS};

/// The name-space distribution policy (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePolicy {
    /// A name entry lives at its parent directory's home site; the µproxy
    /// sends a mkdir elsewhere with probability `redirect_millis / 1000`
    /// (directory servers ignore the field).
    MkdirSwitching {
        /// Redirect probability in thousandths (p × 1000).
        redirect_millis: u32,
    },
    /// A name entry lives at the site its `(parent fh, name)` fingerprint
    /// routes to through the [`RoutingTable`]; a listing chains across
    /// the sites by cookie.
    NameHashing,
}

impl NamePolicy {
    /// The site that holds the name entry of a parent whose home site is
    /// `home`; `key` is the entry's fingerprint, computed only when the
    /// policy reads it.
    pub fn entry_site(self, table: &RoutingTable, home: u32, key: impl FnOnce() -> u64) -> u32 {
        match self {
            NamePolicy::MkdirSwitching { .. } => home,
            NamePolicy::NameHashing => table.route(key()),
        }
    }

    /// The site a MKDIR of fingerprint `key` goes to, of `sites`: under
    /// mkdir switching a draw from the fingerprint's top bits redirects it
    /// to the fixed default site of the fingerprint.
    pub fn mkdir_site(self, table: &RoutingTable, sites: usize, home: u32, key: u64) -> u32 {
        match self {
            NamePolicy::MkdirSwitching { redirect_millis }
                if (key >> 48) % 1000 < u64::from(redirect_millis) =>
            {
                default_site_of(key, sites) as u32
            }
            _ => self.entry_site(table, home, || key),
        }
    }

    /// The site a READDIR page of a directory whose home site is `home`
    /// comes from.
    pub fn readdir_site(self, home: u32, cookie: u64) -> u32 {
        match self {
            NamePolicy::MkdirSwitching { .. } => home,
            NamePolicy::NameHashing => split_cookie(cookie).0,
        }
    }
}

/// A READDIR cookie: the site being listed in the top byte, and how many
/// of that site's entries are done below it.
pub fn cookie(site: u32, done: u64) -> u64 {
    (u64::from(site) << 56) | done
}

/// A READDIR cookie's `(site, done)`.
pub fn split_cookie(cookie: u64) -> (u32, u64) {
    ((cookie >> 56) as u32, cookie & ((1 << 56) - 1))
}

/// The slot table: [`LOGICAL_SLOTS`] logical slots, each naming the
/// physical directory site that owns the names hashed to it. Directory
/// servers hold the authoritative copy; a µproxy's is a hint, refreshed
/// when a server bounces a request it no longer owns (§3.3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    slots: Vec<u32>,
    generation: u64,
}

impl RoutingTable {
    /// The first table: the slots spread round-robin over `sites`, so a
    /// fingerprint routes to its [`default_site_of`].
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    pub fn balanced(sites: u32) -> Self {
        assert!(sites > 0, "need at least one site");
        RoutingTable {
            slots: (0..LOGICAL_SLOTS as u32).map(|i| i % sites).collect(),
            generation: 1,
        }
    }

    /// A table of explicit slot assignments.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn from_slots(slots: Vec<u32>, generation: u64) -> Self {
        assert!(!slots.is_empty(), "need at least one logical slot");
        RoutingTable { slots, generation }
    }

    /// The table's generation, bumped on every reconfiguration.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The site each logical slot names.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The site that owns fingerprint `key`.
    pub fn route(&self, key: u64) -> u32 {
        self.slots[bucket_of(key, self.slots.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_table_routes_to_the_default_site() {
        let t = RoutingTable::balanced(3);
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(t.route(key) as usize, default_site_of(key, 3));
        }
    }

    #[test]
    fn cookie_round_trips() {
        assert_eq!(split_cookie(cookie(3, 17)), (3, 17));
        assert_eq!(split_cookie(0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one logical slot")]
    fn empty_table_rejected() {
        RoutingTable::from_slots(vec![], 1);
    }
}
