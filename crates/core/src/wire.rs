//! The unified message envelope carried by the simulated network, and the
//! address plan for an ensemble.
//!
//! Client-visible NFS traffic travels as real encoded UDP [`Packet`]s —
//! those are what the µproxy intercepts and rewrites. Internal server
//! protocols (coordinator, storage control, directory peer protocol,
//! small-file control) are typed messages; they still pay network time via
//! their estimated wire sizes.

use slice_dirsvc::PeerMsg;
use slice_hashes::RoutingTable;
use slice_nfsproto::{Packet, SockAddr};
use slice_sim::{MessageSize, NodeId};
use slice_smallfile::SfCtl;
use slice_storage::{CoordMsg, CoordReply, StorageCtl, StorageCtlReply};

/// Every message exchanged between ensemble nodes.
#[derive(Debug, Clone)]
pub enum Wire {
    /// An NFS RPC datagram (the client-visible protocol).
    Udp(Packet),
    /// A message to a block-service coordinator.
    Coord(CoordMsg),
    /// A coordinator's reply.
    CoordReply(CoordReply),
    /// A coordinator-to-storage control operation.
    Ctl(StorageCtl),
    /// A storage node's control reply.
    CtlReply(StorageCtlReply),
    /// Directory-server peer protocol.
    Peer {
        /// Originating directory site.
        from_site: u32,
        /// The message.
        msg: PeerMsg,
    },
    /// Directory-service to small-file-server control.
    SfCtl(SfCtl),
    /// A µproxy asking a directory server for the current routing table.
    TableFetch,
    /// The directory servers' current slot table.
    TableData(RoutingTable),
}

impl MessageSize for Wire {
    fn wire_size(&self) -> usize {
        match self {
            Wire::Udp(p) => MessageSize::wire_size(p),
            Wire::Coord(_) | Wire::CoordReply(_) => 96,
            // Resync bulk transfers carry real payloads; other control
            // messages are small fixed-size frames.
            Wire::Ctl(StorageCtl::ResyncWrite { data, .. }) => 64 + data.len(),
            Wire::CtlReply(StorageCtlReply::ResyncData { data, .. }) => 64 + data.len(),
            Wire::Ctl(_) | Wire::CtlReply(_) => 64,
            Wire::Peer { msg, .. } => match msg {
                PeerMsg::InsertEntry { name, .. } => 128 + name.len(),
                _ => 96,
            },
            Wire::SfCtl(_) => 64,
            Wire::TableFetch => 32,
            Wire::TableData(table) => 16 + table.slots().len() * 4,
        }
    }

    /// Only client/server NFS traffic rides UDP datagrams; typed control
    /// channels model reliable transports and are exempt from datagram
    /// fault injection (duplication, reordering).
    fn datagram(&self) -> bool {
        matches!(self, Wire::Udp(_))
    }
}

/// The ensemble address plan: deterministic IPs per server class.
#[derive(Debug, Clone)]
pub struct AddrPlan {
    /// Client addresses by index.
    pub clients: Vec<SockAddr>,
    /// Directory server addresses by site.
    pub dirs: Vec<SockAddr>,
    /// Small-file server addresses by index.
    pub sfs: Vec<SockAddr>,
    /// Storage node addresses by site.
    pub storage: Vec<SockAddr>,
    /// The virtual NFS server address clients mount.
    pub virtual_addr: SockAddr,
}

impl AddrPlan {
    /// Builds the plan for an ensemble of the given sizes.
    pub fn new(clients: usize, dirs: usize, sfs: usize, storage: usize) -> Self {
        let mk = |base: u32, i: usize| SockAddr::new(base + i as u32, 2049);
        AddrPlan {
            clients: (0..clients)
                .map(|i| SockAddr::new(0x0a00_0100 + i as u32, 700))
                .collect(),
            dirs: (0..dirs).map(|i| mk(0x0a00_1000, i)).collect(),
            sfs: (0..sfs).map(|i| mk(0x0a00_2000, i)).collect(),
            storage: (0..storage).map(|i| mk(0x0a00_3000, i)).collect(),
            virtual_addr: SockAddr::new(0x0a00_ffff, 2049),
        }
    }
}

/// Maps wire addresses to engine nodes (each actor holds a copy).
#[derive(Debug, Clone, Default)]
pub struct Router {
    entries: Vec<(u32, NodeId)>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `addr` as belonging to `node`.
    pub fn register(&mut self, addr: SockAddr, node: NodeId) {
        self.entries.push((addr.ip, node));
    }

    /// The node owning `addr`'s IP, if registered.
    pub fn try_node_of(&self, addr: SockAddr) -> Option<NodeId> {
        self.entries
            .iter()
            .find(|(ip, _)| *ip == addr.ip)
            .map(|(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_plan_is_disjoint() {
        let p = AddrPlan::new(4, 3, 2, 8);
        let mut all: Vec<u32> = p
            .clients
            .iter()
            .chain(&p.dirs)
            .chain(&p.sfs)
            .chain(&p.storage)
            .map(|a| a.ip)
            .collect();
        all.push(p.virtual_addr.ip);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "addresses must not collide");
    }

    #[test]
    fn router_resolves() {
        let mut r = Router::new();
        let a = SockAddr::new(7, 2049);
        r.register(a, NodeId(3));
        assert_eq!(r.try_node_of(a), Some(NodeId(3)));
        assert_eq!(r.try_node_of(SockAddr::new(8, 1)), None);
    }

    #[test]
    fn wire_sizes_are_sane() {
        let plan = AddrPlan::new(1, 1, 1, 1);
        let pkt = Packet::new(plan.clients[0], plan.virtual_addr, vec![0u8; 100]);
        assert_eq!(Wire::Udp(pkt).wire_size(), 128);
        assert!(Wire::Ctl(StorageCtl::Remove { obj: 1, intent: 0 }).wire_size() > 0);
    }
}
