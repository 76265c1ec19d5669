//! Baseline servers: a monolithic NFS server (the FreeBSD/FFS box of
//! Figure 5) and a memory-based file server (the N-MFS line of Figure 3).
//!
//! Both serve the *entire* NFS protocol at one node, with no µproxy, no
//! ensemble, and no request routing. The monolithic server pays
//! synchronous metadata disk writes (FFS-style) and disk time for data
//! misses on its local array; the MFS variant keeps everything in memory
//! and pays only CPU — which is why it is fast until its single CPU
//! saturates, exactly the crossover Figure 3 shows.

use std::any::Any;

use slice_dirsvc::{DirAction, DirServer, DirServerConfig};
use slice_hashes::NamePolicy;
use slice_nfsproto::{decode_call, NfsReply, NfsRequest, ReplyBody, SockAddr};
use slice_sim::{Actor, Ctx, DiskArray, LruCache, NodeId, SimTime};
use slice_storage::{StorageNode, StorageNodeConfig};

use crate::actors::{io_cpu, Port, ReplyCache};
use crate::calib;
use crate::wire::{Router, Wire};

/// Which baseline is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// FreeBSD NFS over FFS on a CCD-concatenated disk array.
    NfsFfs,
    /// FreeBSD MFS: a memory filesystem, no stable storage.
    Mfs,
}

/// A complete single-node NFS file service.
pub struct MonoFs {
    kind: BaselineKind,
    dir: DirServer,
    data: StorageNode,
    /// Extra arm pool for synchronous metadata updates (shared array in
    /// reality; a stream id namespace keeps them distinct).
    meta_disks: Option<DiskArray>,
    /// FFS metadata (inode + directory block) cache: unlike Slice's
    /// dataless, memory-resident directory servers, the monolithic server
    /// pays disk reads for cold name-space metadata — the reason its
    /// SPECsfs throughput is bound by the disk arms (Figure 5).
    meta_cache: Option<LruCache<u64>>,
    ops: u64,
}

impl MonoFs {
    /// Creates a baseline server of the given kind with `disks` arms.
    pub fn new(kind: BaselineKind, disks: usize, retain_data: bool) -> Self {
        let storage_cfg = StorageNodeConfig {
            disks,
            channel_bps: calib::STORAGE_CHANNEL_BPS,
            cache_bytes: calib::STORAGE_CACHE_BYTES,
            retain_data,
            ..Default::default()
        };
        MonoFs {
            kind,
            dir: DirServer::new(DirServerConfig {
                site: 0,
                sites: 1,
                policy: NamePolicy::MkdirSwitching { redirect_millis: 0 },
                clock_skew: slice_sim::SimDuration::ZERO,
                wal: Default::default(),
                default_mapped: false,
            }),
            data: StorageNode::new(&storage_cfg),
            meta_disks: match kind {
                BaselineKind::NfsFfs => Some(DiskArray::new(
                    disks,
                    calib::disk_params(),
                    calib::STORAGE_CHANNEL_BPS,
                )),
                BaselineKind::Mfs => None,
            },
            meta_cache: match kind {
                BaselineKind::NfsFfs => Some(LruCache::new(calib::MONO_META_CACHE_BYTES)),
                BaselineKind::Mfs => None,
            },
            ops: 0,
        }
    }

    /// Operations served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The namespace component (inspection).
    pub fn dir(&self) -> &DirServer {
        &self.dir
    }

    /// The data path's answer to `req`. A memory filesystem pays no disk
    /// time, only the CPU the actor charges.
    fn data_io(&mut self, now: SimTime, req: &NfsRequest) -> (SimTime, NfsReply) {
        let (done, reply) = self.data.handle_nfs(now, req);
        match self.kind {
            BaselineKind::NfsFfs => (done, reply),
            BaselineKind::Mfs => (now, reply),
        }
    }

    /// Serves one request, returning the completion time and reply.
    pub fn handle(&mut self, now: SimTime, token: u64, req: &NfsRequest) -> (SimTime, NfsReply) {
        self.ops += 1;
        match req {
            NfsRequest::Read { fh, offset, count } => {
                let (done, mut reply) = self.data_io(now, req);
                self.dir
                    .apply_io(now, fh.file_id(), offset + u64::from(*count), false);
                reply.attr = self.dir.attr_of(fh.file_id()).copied().or(reply.attr);
                // EOF from the authoritative size, not the object store.
                if let (Some(attr), ReplyBody::Read { data, eof }) =
                    (reply.attr.as_ref(), &mut reply.body)
                {
                    let avail = attr.size.saturating_sub(*offset).min(u64::from(*count)) as usize;
                    data.truncate(avail);
                    *eof = offset + data.len() as u64 >= attr.size;
                }
                (done, reply)
            }
            NfsRequest::Write {
                fh, offset, data, ..
            } => {
                let (done, mut reply) = self.data_io(now, req);
                self.dir
                    .apply_io(now, fh.file_id(), offset + data.len() as u64, true);
                reply.attr = self.dir.attr_of(fh.file_id()).copied().or(reply.attr);
                (done, reply)
            }
            NfsRequest::Commit { .. } => self.data_io(now, req),
            other => {
                // Cold FFS metadata: a miss costs a directory-block read
                // plus an inode read on the shared arms.
                let mut meta_done = now;
                if let (Some(cache), Some(disks)) = (&mut self.meta_cache, &mut self.meta_disks) {
                    let key = match other {
                        NfsRequest::Lookup { dir, name }
                        | NfsRequest::Create { dir, name, .. }
                        | NfsRequest::Remove { dir, name }
                        | NfsRequest::Mkdir { dir, name, .. }
                        | NfsRequest::Rmdir { dir, name }
                        | NfsRequest::Symlink { dir, name, .. } => {
                            slice_hashes::name_fingerprint(&dir.0, name.as_bytes())
                        }
                        _ => other.primary_fh().map(|f| f.file_id()).unwrap_or(0),
                    };
                    if !cache.get(&key) {
                        let d1 = disks.submit(now, key, (key % 4096) * 8192, 8192, false);
                        let d2 = disks.submit(now, key ^ 1, (key % 2048) * 8192, 512, false);
                        meta_done = d1.max(d2);
                        cache.insert(key, 512);
                    }
                }
                // Name-space operation through the single-site directory
                // component; all actions are local.
                let actions = self.dir.handle_nfs(now, token, other);
                let mut reply_out: Option<(SimTime, NfsReply)> = None;
                for action in actions {
                    match action {
                        DirAction::Reply { reply, at, .. } => {
                            reply_out = Some((at, reply));
                        }
                        DirAction::DataRemove { file } => {
                            let remove = slice_storage::StorageCtl::Remove {
                                obj: file,
                                intent: 0,
                            };
                            self.data.handle_ctl(now, &remove);
                        }
                        DirAction::DataTruncate { file, size } => {
                            let truncate = slice_storage::StorageCtl::Truncate {
                                obj: file,
                                size,
                                intent: 0,
                            };
                            self.data.handle_ctl(now, &truncate);
                        }
                        DirAction::Peer { .. } => unreachable!("single-site baseline"),
                    }
                }
                let (at, reply) = reply_out.unwrap_or((
                    now,
                    NfsReply::error(other.proc(), slice_nfsproto::NfsStatus::ServerFault),
                ));
                let done = match (self.kind, &mut self.meta_disks) {
                    (BaselineKind::Mfs, _) => now, // no log, no disk
                    (BaselineKind::NfsFfs, Some(disks)) if Self::is_update(other) => {
                        // FFS synchronous metadata: an inode write and a
                        // directory block write.
                        let dirid = other.primary_fh().map(|f| f.file_id()).unwrap_or(0);
                        disks.submit(now, dirid, now.as_nanos() % (1 << 30), 512, true);
                        let d2 =
                            disks.submit(now, dirid, now.as_nanos() % (1 << 30) + 4096, 512, true);
                        at.max(d2).max(meta_done)
                    }
                    _ => at.max(now).max(meta_done),
                };
                (done, reply)
            }
        }
    }

    fn is_update(req: &NfsRequest) -> bool {
        matches!(
            req,
            NfsRequest::Create { .. }
                | NfsRequest::Mkdir { .. }
                | NfsRequest::Symlink { .. }
                | NfsRequest::Remove { .. }
                | NfsRequest::Rmdir { .. }
                | NfsRequest::Rename { .. }
                | NfsRequest::Link { .. }
                | NfsRequest::Setattr { .. }
        )
    }
}

/// Actor hosting a baseline server.
pub struct BaselineActor {
    /// The server.
    pub fs: MonoFs,
    port: Port,
}

impl BaselineActor {
    /// Creates a baseline actor at `addr`.
    pub fn new(fs: MonoFs, addr: SockAddr, router: Router) -> Self {
        BaselineActor {
            fs,
            port: Port::new(addr, router, Some(ReplyCache::default())),
        }
    }
}

impl Actor<Wire> for BaselineActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        let Wire::Udp(pkt) = msg else {
            return;
        };
        let Ok((hdr, req)) = decode_call(&pkt.payload) else {
            return;
        };
        let base = match self.fs.kind {
            BaselineKind::NfsFfs => calib::MONO_OP_CPU,
            BaselineKind::Mfs => calib::MFS_OP_CPU,
        };
        ctx.use_cpu(base + io_cpu(&req));
        let Some(token) = self.port.admit(ctx, pkt.src, hdr.xid) else {
            return;
        };
        let (done, reply) = self.fs.handle(ctx.now(), token, &req);
        self.port.reply(ctx, token, reply, done);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        self.port.on_timer(ctx, tag);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
