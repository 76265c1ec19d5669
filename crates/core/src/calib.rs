//! Calibration: simulator parameters derived from the paper's testbed.
//!
//! All experiments share these constants so that no figure is tuned in
//! isolation. Sources (paper §5):
//!
//! * clients/servers are 450 MHz Pentium-III PCs; storage nodes are Dell
//!   PowerEdge 4400s (733 MHz Xeon) with eight Cheetah drives behind one
//!   Ultra-2-mode SCSI channel;
//! * the client NFS/UDP stack saturates below 40 MB/s of writes; reads are
//!   zero-copy with a prefetch depth bound of four 32 KB blocks;
//! * each storage node sources reads at ~55 MB/s and sinks writes at
//!   ~60 MB/s;
//! * a Slice directory server saturates at ~6000 ops/s (≈166 µs/op) while
//!   generating ~0.5 MB/s of log traffic; the MFS baseline is cheaper per
//!   op (no logging) but a single server;
//! * the client-based µproxy consumes ~6 % of a CPU at 6250 packets/s
//!   (≈10 µs/packet).

use slice_sim::{DiskParams, SimDuration};

/// CPU cost on the client to issue one NFS request through its
/// kernel NFS/UDP stack (per-op portion).
pub const CLIENT_SEND_CPU: SimDuration = SimDuration::from_micros(60);

/// Extra client CPU per 4 KB of outgoing write payload (copy + checksum:
/// ~90 µs per 4 KB gives the ~40 MB/s single-client write ceiling).
pub const CLIENT_WRITE_CPU_PER_4K: SimDuration = SimDuration::from_micros(90);

/// Client CPU to consume one reply (zero-copy read path).
pub const CLIENT_RECV_CPU: SimDuration = SimDuration::from_micros(50);

/// Extra client CPU per 4 KB of incoming read payload with the modified
/// zero-copy client (header split: no copy, just page flips).
pub const CLIENT_READ_CPU_PER_4K: SimDuration = SimDuration::from_micros(45);

/// µproxy CPU per intercepted packet (paper Table 3: ~6 % of a CPU at
/// 6250 packets/s).
pub const UPROXY_PACKET_CPU: SimDuration = SimDuration::from_micros(10);

/// Client CPU for each packet the µproxy *initiates* beyond the original
/// (mirrored-write duplicates): driver + DMA submission per duplicate.
pub const UPROXY_DUP_CPU: SimDuration = SimDuration::from_micros(15);

/// Client CPU per 4 KB of duplicated payload (the mirror copy crosses the
/// host bus again).
pub const UPROXY_DUP_CPU_PER_4K: SimDuration = SimDuration::from_micros(20);

/// FreeBSD read-ahead: blocks in flight per sequential stream.
pub const CLIENT_READAHEAD: usize = 4;

/// Client write-behind window (async writes in flight).
pub const CLIENT_WRITE_WINDOW: usize = 8;

/// NFS block size used by the bulk-I/O experiments (32 KB mounts).
pub const NFS_BLOCK: u32 = 32 * 1024;

/// Storage node CPU per I/O request (driver + VM + UDP processing).
pub const STORAGE_REQ_CPU: SimDuration = SimDuration::from_micros(70);

/// Storage node CPU per 4 KB of payload moved.
pub const STORAGE_CPU_PER_4K: SimDuration = SimDuration::from_micros(8);

/// Directory server CPU per name-space operation (≈6000 ops/s ceiling).
pub const DIR_OP_CPU: SimDuration = SimDuration::from_micros(166);

/// Directory server CPU per peer-protocol message.
pub const DIR_PEER_CPU: SimDuration = SimDuration::from_micros(40);

/// Small-file server CPU per request.
pub const SF_OP_CPU: SimDuration = SimDuration::from_micros(90);

/// Coordinator CPU per message.
pub const COORD_MSG_CPU: SimDuration = SimDuration::from_micros(25);

/// Monolithic NFS baseline: CPU per operation (a tuned kernel server).
pub const MONO_OP_CPU: SimDuration = SimDuration::from_micros(130);

/// MFS baseline: CPU per operation (memory filesystem, no disk or log).
pub const MFS_OP_CPU: SimDuration = SimDuration::from_micros(110);

/// Client RPC retransmission timeout.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(800);

/// Storage node channel bandwidth (Ultra-2-mode SCSI shared by 8 drives:
/// the node sources ~55 MB/s / sinks ~60 MB/s).
pub const STORAGE_CHANNEL_BPS: f64 = 58_000_000.0;

/// Storage node buffer cache bytes (256 MB RAM machines).
pub const STORAGE_CACHE_BYTES: u64 = 200 * 1024 * 1024;

/// Small-file server cache bytes (the SPECsfs ensembles have ~1 GB across
/// two servers).
pub const SF_CACHE_BYTES: u64 = 512 * 1024 * 1024;

/// Monolithic-baseline metadata (inode/dir block) cache bytes. Scaled
/// 1:10 with the benchmark file-set scale factor, like the data caches.
pub const MONO_META_CACHE_BYTES: u64 = 1024 * 1024;

/// Disks per storage node.
pub const DISKS_PER_NODE: usize = 8;

/// The per-arm disk model.
pub fn disk_params() -> DiskParams {
    DiskParams::cheetah()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cpu_matches_paper_ceiling() {
        // One 32 KB write: send CPU + 8 x per-4K cost ~= 780 µs
        // => ~42 MB/s ceiling, matching the sub-40 MB/s observation once
        // µproxy and reply costs are added.
        let per_op = CLIENT_SEND_CPU.as_nanos() + 8 * CLIENT_WRITE_CPU_PER_4K.as_nanos();
        let bw = 32_768.0 / (per_op as f64 / 1e9);
        assert!(bw > 38e6 && bw < 46e6, "write ceiling {bw}");
    }

    #[test]
    fn dir_cpu_matches_ops_ceiling() {
        let ops_per_sec = 1e9 / DIR_OP_CPU.as_nanos() as f64;
        assert!(ops_per_sec > 5500.0 && ops_per_sec < 6500.0);
    }
}
