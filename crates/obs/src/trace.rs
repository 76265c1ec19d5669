//! Structured event trace: a bounded ring buffer of typed simulation
//! events with per-subsystem enable flags.
//!
//! The trace is for *debugging and figure generation*, not accounting —
//! aggregate numbers belong in the [`crate::Registry`]. The ring keeps
//! the most recent `capacity` events; older events are evicted and only
//! counted. Every record carries a `u64` nanosecond timestamp supplied
//! by the caller (the sim clock), so traces from same-seed runs are
//! identical.

use std::collections::VecDeque;

/// Default ring capacity (events retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// The subsystem that emitted an event. Used both to tag records and to
/// gate recording via [`Trace::enable`]/[`Trace::disable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Event-loop core: scheduling, crash/recovery.
    Engine,
    /// Switched network: per-packet routing and loss.
    Net,
    /// Disk model: seeks and transfers.
    Disk,
    /// Client actor and its embedded request router.
    Client,
    /// The µproxy request-routing layer itself.
    Uproxy,
    /// Directory servers.
    DirSvc,
    /// Small-file servers.
    SmallFile,
    /// Bulk storage nodes.
    Storage,
    /// Coordinators (two-phase mirrored writes).
    Coord,
    /// Workload generators.
    Workload,
}

impl Subsystem {
    /// All subsystems, in declaration order (indexes match the enable
    /// bitmask).
    pub const ALL: [Subsystem; 10] = [
        Subsystem::Engine,
        Subsystem::Net,
        Subsystem::Disk,
        Subsystem::Client,
        Subsystem::Uproxy,
        Subsystem::DirSvc,
        Subsystem::SmallFile,
        Subsystem::Storage,
        Subsystem::Coord,
        Subsystem::Workload,
    ];

    /// Stable lowercase name used in JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Net => "net",
            Subsystem::Disk => "disk",
            Subsystem::Client => "client",
            Subsystem::Uproxy => "uproxy",
            Subsystem::DirSvc => "dirsvc",
            Subsystem::SmallFile => "smallfile",
            Subsystem::Storage => "storage",
            Subsystem::Coord => "coord",
            Subsystem::Workload => "workload",
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// What happened. Variants carry just enough to reconstruct the story;
/// node identities are small integers (sim node ids) and operation names
/// are static strings so records stay `Copy`-cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A packet left `from` for `to` over the switched network.
    PacketRouted {
        from: usize,
        to: usize,
        bytes: usize,
    },
    /// A packet was dropped by injected loss.
    PacketDropped {
        from: usize,
        to: usize,
        bytes: usize,
    },
    /// A packet was delivered twice by injected duplication.
    PacketDuplicated {
        from: usize,
        to: usize,
        bytes: usize,
    },
    /// An operation began (client issued an RPC).
    OpStart { op: &'static str, xid: u64 },
    /// An operation finished; `latency_ns` is issue-to-reply time.
    OpComplete {
        op: &'static str,
        xid: u64,
        latency_ns: u64,
    },
    /// A request was retransmitted (client RPC timeout or µproxy
    /// write-back re-push).
    Retransmit { xid: u64, retries: u32 },
    /// A lookup hit in the named cache.
    CacheHit { cache: &'static str },
    /// A lookup missed in the named cache.
    CacheMiss { cache: &'static str },
    /// The disk model charged a seek of `nanos` on `node`.
    DiskSeek { node: usize, nanos: u64 },
    /// Node `node` crashed.
    Crash { node: usize },
    /// Node `node` recovered.
    Recover { node: usize },
    /// A µproxy started suspecting storage site `site` of being down.
    SiteSuspected { site: usize },
    /// A µproxy cleared its suspicion of storage site `site`.
    SiteCleared { site: usize },
    /// A mirrored read was steered away from suspected site `site`.
    ReadFailover { site: usize, xid: u64 },
    /// A mirrored write completed at reduced redundancy, skipping `site`.
    DegradedWrite { site: usize, bytes: u64 },
    /// The coordinator began resynchronizing storage site `site`.
    ResyncStart { site: usize },
    /// Resynchronization of `site` finished after copying `bytes`.
    ResyncDone { site: usize, bytes: u64 },
}

impl EventKind {
    /// Stable snake_case tag used in JSON export.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::PacketRouted { .. } => "packet_routed",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::PacketDuplicated { .. } => "packet_duplicated",
            EventKind::OpStart { .. } => "op_start",
            EventKind::OpComplete { .. } => "op_complete",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::DiskSeek { .. } => "disk_seek",
            EventKind::Crash { .. } => "crash",
            EventKind::Recover { .. } => "recover",
            EventKind::SiteSuspected { .. } => "site_suspected",
            EventKind::SiteCleared { .. } => "site_cleared",
            EventKind::ReadFailover { .. } => "read_failover",
            EventKind::DegradedWrite { .. } => "degraded_write",
            EventKind::ResyncStart { .. } => "resync_start",
            EventKind::ResyncDone { .. } => "resync_done",
        }
    }
}

/// One trace record: when, who, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds.
    pub at_ns: u64,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// The event payload.
    pub kind: EventKind,
}

/// Bounded ring of [`TraceEvent`]s with per-subsystem enable flags.
///
/// All subsystems start enabled. Disabled subsystems' events are
/// discarded at the door — they are neither stored nor counted as
/// recorded.
#[derive(Debug, Clone)]
pub struct Trace {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    enabled: u16,
    recorded: u64,
    evicted: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Trace {
    /// Creates a trace retaining at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Trace {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            enabled: u16::MAX,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Enables recording for `sub`.
    pub fn enable(&mut self, sub: Subsystem) {
        self.enabled |= sub.bit();
    }

    /// Disables recording for `sub`.
    pub fn disable(&mut self, sub: Subsystem) {
        self.enabled &= !sub.bit();
    }

    /// Disables every subsystem (tracing off).
    pub fn disable_all(&mut self) {
        self.enabled = 0;
    }

    /// True if events from `sub` are currently recorded.
    fn is_enabled(&self, sub: Subsystem) -> bool {
        self.enabled & sub.bit() != 0
    }

    /// Records an event if its subsystem is enabled, evicting the oldest
    /// record when the ring is full.
    pub fn record(&mut self, at_ns: u64, subsystem: Subsystem, kind: EventKind) {
        if !self.is_enabled(subsystem) {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(TraceEvent {
            at_ns,
            subsystem,
            kind,
        });
        self.recorded += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events accepted since creation (including later-evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events pushed out by newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::with_capacity(2);
        t.record(1, Subsystem::Net, EventKind::Crash { node: 0 });
        t.record(2, Subsystem::Net, EventKind::Crash { node: 1 });
        t.record(3, Subsystem::Net, EventKind::Crash { node: 2 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 3);
        assert_eq!(t.evicted(), 1);
        let ts: Vec<u64> = t.events().map(|e| e.at_ns).collect();
        assert_eq!(ts, vec![2, 3]);
    }

    #[test]
    fn disabled_subsystem_is_not_recorded() {
        let mut t = Trace::with_capacity(8);
        t.disable(Subsystem::Disk);
        t.record(
            1,
            Subsystem::Disk,
            EventKind::DiskSeek { node: 0, nanos: 9 },
        );
        t.record(2, Subsystem::Net, EventKind::Crash { node: 0 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.recorded(), 1);
        assert!(!t.is_enabled(Subsystem::Disk));
        t.enable(Subsystem::Disk);
        assert!(t.is_enabled(Subsystem::Disk));
    }

    #[test]
    fn subsystem_bits_are_distinct() {
        let mut t = Trace::with_capacity(1);
        t.disable_all();
        for s in Subsystem::ALL {
            assert!(!t.is_enabled(s));
            t.enable(s);
            assert!(t.is_enabled(s));
        }
    }
}
