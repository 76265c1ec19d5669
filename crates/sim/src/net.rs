//! Network model parameters: a star-topology switched LAN.
//!
//! The paper's testbed is a 32-port Extreme Summit-7i Gigabit Ethernet
//! switch with Alteon ACEnic adapters running 9 KB jumbo frames. The model
//! charges per-frame serialization on the sender's NIC and again on the
//! switch egress port (store-and-forward), plus propagation and switch
//! forwarding latency. That reproduces the two effects the paper depends
//! on: links saturate at wire speed under bulk I/O, and small-RPC latency
//! is microseconds, not milliseconds.

use crate::time::SimDuration;

/// Parameters of the simulated switched LAN.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Link rate in bytes per second (both NIC and switch ports).
    pub bandwidth_bps: f64,
    /// Maximum frame payload (jumbo frames: 9000 bytes).
    pub frame_payload: usize,
    /// Per-frame framing overhead in bytes (Ethernet + IP + UDP headers,
    /// preamble, inter-frame gap).
    pub frame_overhead: usize,
    /// One-way propagation delay per hop.
    pub prop_delay: SimDuration,
    /// Switch forwarding decision latency.
    pub switch_latency: SimDuration,
    /// Probability that any given packet is dropped (loss injection).
    pub loss_prob: f64,
    /// Probability that any given packet is delivered twice (duplication
    /// injection; the copy takes an independent trip through the switch).
    pub dup_prob: f64,
    /// Bounded reordering window: each delivered packet picks up an extra
    /// uniformly-drawn delay in `[0, reorder_window)` after the switch, so
    /// packets may overtake each other by at most the window.
    pub reorder_window: SimDuration,
}

impl NetConfig {
    /// Gigabit Ethernet with 9 KB jumbo frames, matching the testbed.
    pub fn gigabit() -> Self {
        NetConfig {
            bandwidth_bps: 125_000_000.0, // 1 Gb/s
            frame_payload: 9000,
            frame_overhead: 70,
            prop_delay: SimDuration::from_micros(1),
            switch_latency: SimDuration::from_micros(4),
            loss_prob: 0.0,
            dup_prob: 0.0,
            reorder_window: SimDuration::ZERO,
        }
    }

    /// Serialization time for a `size`-byte message on one link.
    pub fn tx_time(&self, size: usize) -> SimDuration {
        let frames = size.div_ceil(self.frame_payload).max(1);
        let wire_bytes = size + frames * self.frame_overhead;
        SimDuration::from_secs_f64(wire_bytes as f64 / self.bandwidth_bps)
    }

    /// Minimum latency from a send decision on one node to the switch
    /// egress port of any other node: one empty frame of sender-side
    /// serialization plus propagation and switch forwarding.
    ///
    /// No event executed now on one node can affect another node's switch
    /// port earlier than `now + min_hop_latency()`. The star topology
    /// makes it the same for every node pair; the engine uses it as the
    /// width of a budgeted run's windows. Always strictly positive (an
    /// empty message still occupies a frame of overhead).
    pub fn min_hop_latency(&self) -> SimDuration {
        self.tx_time(0) + self.prop_delay + self.switch_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_rates() {
        let net = NetConfig::gigabit();
        // A full jumbo frame: (9000 + 70) bytes at 125 MB/s = 72.56 µs.
        let t = net.tx_time(9000);
        assert!(t >= SimDuration::from_micros(72) && t <= SimDuration::from_micros(73));
        // An empty message still occupies one frame of overhead.
        assert!(net.tx_time(0) > SimDuration::ZERO);
    }

    #[test]
    fn min_hop_latency_is_positive_and_bounds_any_packet() {
        let net = NetConfig::gigabit();
        let hop = net.min_hop_latency();
        assert!(hop > SimDuration::ZERO);
        // Any real packet takes at least the empty-frame hop time to
        // reach the destination's switch port.
        for size in [0usize, 1, 128, 9000, 65536] {
            let at_switch = net.tx_time(size) + net.prop_delay + net.switch_latency;
            assert!(at_switch >= hop);
        }
    }

    #[test]
    fn large_transfers_scale_linearly() {
        let net = NetConfig::gigabit();
        let one = net.tx_time(9000).as_nanos();
        let ten = net.tx_time(90_000).as_nanos();
        assert!((ten as i64 - 10 * one as i64).unsigned_abs() < one);
    }

    #[test]
    fn fragmentation_adds_overhead() {
        let net = NetConfig::gigabit();
        // 32 KB needs four frames; overhead must exceed a single frame's.
        let t32k = net.tx_time(32 * 1024);
        let ideal = SimDuration::from_secs_f64(32.0 * 1024.0 / net.bandwidth_bps);
        assert!(t32k > ideal);
        assert!(t32k < ideal + SimDuration::from_micros(4));
    }
}
