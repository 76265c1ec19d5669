//! Leg ops: the requests the µproxy cannot forward.
//!
//! A request that is one piece above the threshold — one block's, by
//! [`cut`] — leaves the µproxy as the client's own packet (`route_bulk`).
//! Any other cannot: a request that straddles the threshold offset, whose
//! low bytes belong to the small-file server and the rest to the storage
//! array, a request across a block boundary, whose blocks each have their
//! own sites, and a request to an erasure-coded file. Each is served as one
//! *leg op* filed under the client's xid: the µproxy encodes *legs* — RPCs
//! of its own, under xids of its own — absorbs their replies, and assembles
//! the one reply the client gets. `route_legs` walks the request's pieces
//! once: the piece below the threshold is a leg to the small-file server,
//! and the plain planner (one leg per piece per target) or the coded one
//! (shard legs per stripe) plans the rest, for one `start_op`;
//! `leg_reply`, `finish_op` and the restart rule are shared. The client's
//! RPC retransmission of the *parent* xid aborts and re-plans the whole op,
//! so a leg lost to a dead site can never wedge the machine.
//!
//! # Erasure-coded striping (slice-ec)
//!
//! When the ensemble runs an (n,k) coded layout, the bulk region of every
//! mapped file is striped as Reed-Solomon groups: one stripe unit U per
//! block-map block, split into k data shards of S = U/k bytes plus n−k
//! parity shards, placed on the n disjoint sites the coordinator's block
//! map names for that block. Data shard j of stripe s holds file bytes
//! `[s·U + j·S, s·U + (j+1)·S)` at those *same* object offsets, so a clean
//! read is an ordinary per-shard READ and the storage nodes need no coded
//! awareness at all; parity shard p lives at object offsets
//! `[s·U + p·S, s·U + (p+1)·S)` on site `sites[k+p]`.
//!
//! The µproxy drives every coded request as a small state machine of legs:
//!
//! * clean reads — one READ leg per touched data shard;
//! * degraded reads — when a needed shard's site is suspected, the hull
//!   window of any k live shards is gathered and the stripe decoded,
//!   reconstructing the missing bytes in flight;
//! * full-stripe writes — encode and fan n shard WRITE legs;
//! * partial writes — read-modify-write: gather the hull window from k
//!   live shards, decode, overlay the new bytes, re-encode parity, then
//!   write the touched data windows and all parity windows;
//! * degraded writes — suspected legs are skipped once the coordinator
//!   has logged their shard-local dirty windows (the same WAL-backed
//!   `MarkDirty` gate mirrored writes use); resync later rebuilds the
//!   skipped shards from k survivors.
//!
//! Because a partial write reads shards it does not overwrite, two
//! in-flight ops on the same stripe could interleave their
//! read-modify-write cycles and tear the parity. Ops that touch a stripe's
//! parity therefore hold per-(file, stripe) locks for their lifetime;
//! later ops on a locked stripe park and re-enter when the lock drops.

use super::*;
use slice_ec::{Codec, CodedLayout};

/// What a leg's reply means to its op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LegRole {
    /// A survivor-window read feeding a stripe decode: (stripe index
    /// within the op, shard index within the stripe).
    Gather { stripe: u32, shard: u32 },
    /// A read whose bytes go straight to the client, at the file offset
    /// the leg read from (a data shard's object offsets are the file's).
    Read,
    /// A write acknowledgement.
    WriteAck,
}

/// One stripe touched by a coded op.
#[derive(Debug, Clone)]
pub(super) struct CodedStripe {
    /// Stripe (block) index.
    s: u64,
    /// The op's file range within the stripe: its piece.
    piece: Range<u64>,
    /// The n placement sites, data shards first.
    sites: Vec<u32>,
    /// Hull window `[lo, hi)` of shard-local positions this op touches.
    lo: u64,
    hi: u64,
    /// True when survivor windows must be gathered and decoded (partial
    /// write, or degraded read of this stripe).
    gather: bool,
    /// Gathered survivor windows by shard index, zero-padded to hull len
    /// (a full-length window stays a window of the packet it arrived in).
    got: Vec<Option<ByteBuf>>,
}

/// A client request in flight as legs.
#[derive(Debug, Clone)]
pub(super) struct LegOp {
    /// The client's request; the storage array serves its bulk sub-range
    /// `[call.lo, call.end())`.
    call: BulkCall,
    write: bool,
    stable: StableHow,
    /// Client write payload, indexed from `call.offset` (empty for reads):
    /// the windows of the client's packet.
    data: Windows,
    /// The coded stripes touched; none for a plain op.
    stripes: Vec<CodedStripe>,
    /// Sites a coded op routes to: the DirtyAck-approved live set when
    /// degraded, every placement site otherwise (none for a plain op).
    live: Vec<u32>,
    /// Legs still outstanding in the current phase.
    outstanding: u32,
    /// Storage site per outstanding leg; a client retransmission of the
    /// parent xid strikes exactly these.
    pub(super) awaiting: Vec<u32>,
    /// Every leg xid issued (removed from `pending` on abort).
    leg_xids: Vec<u32>,
    /// First WRITE-leg reply: template for the merged client reply (its
    /// verifier stands in for the fan-out, as with mirrored writes).
    template: Option<NfsReply>,
    /// Read windows collected: (file offset, bytes).
    reads: Vec<(u64, Windows)>,
    /// A coded write whose shard writes are still to be computed (the
    /// survivor windows they need may be on their way).
    shards_due: bool,
}

/// A planned leg, computed before any state is mutated.
pub(super) struct LegPlan {
    /// Storage site, or `None` for the file's small-file server (the
    /// below-threshold head of a straddling request).
    site: Option<u32>,
    /// Where in the object the leg reads or writes.
    offset: u64,
    io: LegIo,
    role: LegRole,
}

/// What a leg asks of its site.
pub(super) enum LegIo {
    /// A READ of this many bytes.
    Read(u32),
    /// A WRITE of these bytes, sent as the windows they lie in.
    Write(StableHow, Windows),
}

impl LegOp {
    /// An op for `call` with no leg out yet. Write legs are cut from a
    /// window of the client's packet `pkt`.
    fn new(
        pkt: &Packet,
        call: BulkCall,
        write: Option<(Range<usize>, StableHow)>,
        stripes: Vec<CodedStripe>,
        live: Vec<u32>,
    ) -> Self {
        let is_write = write.is_some();
        let (data, stable) = match write {
            Some((data, stable)) => (pkt.range(data), stable),
            None => (Windows::default(), StableHow::Unstable),
        };
        LegOp {
            call,
            write: is_write,
            stable,
            data,
            shards_due: is_write && !stripes.is_empty(),
            stripes,
            live,
            outstanding: 0,
            awaiting: Vec::new(),
            leg_xids: Vec::new(),
            template: None,
            reads: Vec::new(),
        }
    }

    /// A leg carrying the client's own request, restricted to file range
    /// `piece`, to `site`.
    fn part_leg(&self, site: Option<u32>, piece: &Range<u64>) -> LegPlan {
        let (io, role) = if self.write {
            let base = self.call.offset;
            let window = (piece.start - base) as usize..(piece.end - base) as usize;
            let io = LegIo::Write(self.stable, self.data.slice(window));
            (io, LegRole::WriteAck)
        } else {
            (LegIo::Read((piece.end - piece.start) as u32), LegRole::Read)
        };
        LegPlan {
            site,
            offset: piece.start,
            io,
            role,
        }
    }
}

impl Uproxy {
    /// The coded layout geometry, when `fh`'s bulk region is coded.
    pub(crate) fn coded_geom(&self, fh: &Fhandle) -> Option<CodedLayout> {
        let (n, k) = self.cfg.coded?;
        if !fh.is_mapped() || fh.is_dir() || fh.is_symlink() {
            return None;
        }
        Some(CodedLayout::new(n, k, STRIPE_UNIT))
    }

    /// Takes the per-(file, stripe) locks for `xid`, or parks the packet
    /// on the first busy stripe and returns false. An op re-entering with
    /// locks it already owns passes.
    fn lock_stripes(&mut self, file: u64, stripes: &[u64], xid: u32, pkt: &Packet) -> bool {
        for &s in stripes {
            if let Some(&owner) = self.soft.stripe_locks.get(&(file, s)) {
                if owner != xid {
                    self.soft.coded_waiters.push(((file, s), pkt.clone()));
                    return false;
                }
            }
        }
        for &s in stripes {
            self.soft.stripe_locks.insert((file, s), xid);
        }
        true
    }

    /// Releases every stripe lock `xid` owns and re-admits parked ops.
    fn unlock_stripes(&mut self, xid: u32) {
        let mut keys: Vec<(u64, u64)> = self
            .soft
            .stripe_locks
            .iter()
            .filter(|&(_, &o)| o == xid)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        for k in &keys {
            self.soft.stripe_locks.remove(k);
        }
        if keys.is_empty() {
            return;
        }
        let mut rest = Vec::new();
        let mut release = Vec::new();
        for (k, p) in std::mem::take(&mut self.soft.coded_waiters) {
            if keys.contains(&k) {
                release.push(p);
            } else {
                rest.push((k, p));
            }
        }
        self.soft.coded_waiters = rest;
        // Each released request restarts the phase clock as a packet of its
        // own; what the releasing packet has spent so far is lock upkeep.
        self.clock.lap(&mut self.phases.soft_ns);
        for p in release {
            self.admit(p, false);
        }
    }

    /// Discards a leg op and its legs (client restart or fatal leg error)
    /// and releases its stripe locks.
    pub(super) fn abort_op(&mut self, xid: u32) {
        if let Some(op) = self.soft.ops.remove(&xid) {
            for leg in op.leg_xids {
                self.soft.pending.remove(&leg);
            }
        }
        self.unlock_stripes(xid);
    }

    /// Issues one leg of op `parent` under a µproxy-owned xid: a WRITE's
    /// windows go out as they are.
    fn send_leg(&mut self, parent: u32, fh: Fhandle, plan: LegPlan) {
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let (dst, class) = match plan.site {
            Some(site) => (self.cfg.storage_sites[site as usize], Class::Storage),
            None => (self.sf_dest(fh.file_id()), Class::SmallFile),
        };
        let own = self.cfg.client_addr;
        let offset = plan.offset;
        let (proc, len, (header, windows)) = match plan.io {
            LegIo::Read(count) => {
                let req = NfsRequest::Read { fh, offset, count };
                let header = encode_call(xid, &self.cred, &req);
                (NfsProc::Read, count, (header, Windows::default()))
            }
            LegIo::Write(stable, data) => {
                let len = data.len() as u32;
                let call = encode_write_call(xid, &self.cred, &fh, offset, stable, data);
                (NfsProc::Write, len, call)
            }
        };
        let pkt = Packet::with_windows(own, dst, header, windows);
        let mut rec = PendingReq::new(proc, Some(fh), offset, len, class, own);
        rec.kind = Pending::Leg {
            parent,
            role: plan.role,
        };
        self.soft.pending.insert(xid, rec);
        self.stats.initiated += 1;
        if let Some(op) = self.soft.ops.get_mut(&parent) {
            op.outstanding += 1;
            op.awaiting.extend(plan.site);
            op.leg_xids.push(xid);
        }
        self.out.push(ProxyOut::Net(pkt));
    }

    /// Serves `call` as a leg op over its pieces ([`cut`]): the piece
    /// below the threshold is a leg to the small-file server; the pieces
    /// above it are planned by the placement of their blocks — one leg
    /// per piece per target for a plain file (`plain_targets`), shard
    /// legs per stripe for a coded one (`coded_plan`). The request waits
    /// for a block-map fragment or, planned, for a stripe lock or a
    /// dirty-region ack, and re-enters here; the op is made only once it
    /// is planned, so a parked request takes no window of its packet.
    pub(super) fn route_legs(
        &mut self,
        pkt: Packet,
        call: BulkCall,
        write: Option<(Range<usize>, StableHow)>,
        geom: Option<CodedLayout>,
    ) {
        let pieces: Vec<(u64, Range<u64>)> = cut(call.offset..call.end(), STRIPE_UNIT).collect();
        let (below, above) = pieces.split_at(pieces.partition_point(|(_, r)| r.end <= call.lo));
        let blocks = above[0].0..=above[above.len() - 1].0;
        let Some((pkt, site_lists)) = self.block_sites(pkt, &call.fh, blocks) else {
            return;
        };
        let is_write = write.is_some();
        let (stripes, live, mut legs, targets) = if let Some(geom) = geom {
            let planned = self.coded_plan(&pkt, &call, is_write, above, site_lists, geom);
            let Some((stripes, live, legs)) = planned else {
                return;
            };
            (stripes, live, legs, Vec::new())
        } else {
            let planned = self.plain_targets(&pkt, &call, is_write, above, site_lists);
            let Some(targets) = planned else {
                return;
            };
            (Vec::new(), Vec::new(), Vec::new(), targets)
        };
        self.clock.lap(&mut self.phases.soft_ns);
        let op = LegOp::new(&pkt, call, write, stripes, live);
        let mut plans: Vec<LegPlan> = below.iter().map(|(_, r)| op.part_leg(None, r)).collect();
        for ((_, r), sites) in above.iter().zip(targets) {
            plans.extend(sites.into_iter().map(|site| op.part_leg(Some(site), r)));
        }
        plans.append(&mut legs);
        self.start_op(op, plans);
    }

    /// The targets of each bulk piece of a plain (single-copy or
    /// mirrored) op, whose placements `site_lists` names: the block's
    /// `pick_read_site` replica for a read, its live replicas for a
    /// write. `None` when the write was parked awaiting a dirty-region
    /// ack.
    fn plain_targets(
        &mut self,
        pkt: &Packet,
        call: &BulkCall,
        is_write: bool,
        pieces: &[(u64, Range<u64>)],
        site_lists: Vec<Vec<u32>>,
    ) -> Option<Vec<Vec<u32>>> {
        if is_write {
            return self.degrade_gate(pkt, call, site_lists);
        }
        let (xid, file) = (call.xid, call.fh.file_id());
        let picked = pieces.iter().zip(&site_lists);
        let pick =
            picked.map(|((_, r), sites)| vec![self.pick_read_site(file, sites, r.start, xid)]);
        Some(pick.collect())
    }

    /// Files `op` under the client's xid and issues its first legs.
    fn start_op(&mut self, op: LegOp, plans: Vec<LegPlan>) {
        let (xid, fh) = (op.call.xid, op.call.fh);
        // A coded write with nothing to gather computes its shard writes
        // at once.
        let direct = op.shards_due && !op.stripes.iter().any(|st| st.gather);
        self.soft.ops.insert(xid, op);
        for plan in plans {
            self.send_leg(xid, fh, plan);
        }
        if direct {
            self.coded_write_phase1(xid);
        }
    }

    /// Plans the coded `pieces` of `op`, one per stripe, whose placements
    /// `site_lists` names, as shard legs:
    ///
    /// * a read takes per-shard legs at natural offsets, or — when a
    ///   needed shard's site is suspected and k others are not — gathers
    ///   k survivor windows and reconstructs through parity;
    /// * a write stripes the payload into (n,k) shard legs
    ///   (`coded_write_phase1`), first gathering and decoding the old
    ///   contents of partial stripes (read-modify-write).
    ///
    /// Returns the stripes, the sites the op may route to and its first
    /// legs — or `None` when the packet was parked on a stripe lock or a
    /// dirty-region ack.
    fn coded_plan(
        &mut self,
        pkt: &Packet,
        call: &BulkCall,
        is_write: bool,
        pieces: &[(u64, Range<u64>)],
        site_lists: Vec<Vec<u32>>,
        geom: CodedLayout,
    ) -> Option<(Vec<CodedStripe>, Vec<u32>, Vec<LegPlan>)> {
        let k = geom.k as usize;
        let (xid, file) = (call.xid, call.fh.file_id());
        // The sites the op may route to. A write takes every stripe lock
        // first (its parity update reads shards it does not overwrite)
        // and degrades to the DirtyAck-approved live set.
        let live: Vec<u32> = if is_write {
            let ids: Vec<u64> = pieces.iter().map(|&(s, _)| s).collect();
            if !self.lock_stripes(file, &ids, xid, pkt) {
                return None;
            }
            // With fewer than k live shards in some stripe there is
            // nothing to degrade to: route everywhere so retransmissions
            // keep probing.
            let fallback = site_lists
                .iter()
                .any(|sl| sl.iter().filter(|&&s| !self.suspected(s)).count() < k);
            // When parked awaiting DirtyAck, the locks stay held so no
            // other write can slip in ahead of the logged ranges.
            let lives = if fallback {
                site_lists.clone()
            } else {
                self.degrade_gate(pkt, call, site_lists.clone())?
            };
            let mut union: Vec<u32> = Vec::new();
            for &s in lives.iter().flatten() {
                if !union.contains(&s) {
                    union.push(s);
                }
            }
            union
        } else {
            site_lists.iter().flatten().copied().collect()
        };
        // Plan each stripe before mutating op state. A gather reads the
        // hull window from the first k usable shards.
        let usable = |site: u32| {
            if is_write {
                live.contains(&site)
            } else {
                !self.suspected(site)
            }
        };
        let mut stripes = Vec::new();
        let mut plans = Vec::new();
        let mut failovers = Vec::new();
        for (i, ((s, piece), sites)) in pieces.iter().zip(site_lists).enumerate() {
            let (s, plen) = (*s, piece.end - piece.start);
            let (lo, hi) = geom.parity_window(s, piece.start, plen);
            let needed: Vec<(u32, u64, u64)> = (0..geom.k)
                .filter_map(|j| {
                    let (a, b) = geom.data_window(s, j, piece.start, plen);
                    (a < b).then_some((j, a, b))
                })
                .collect();
            let full = plen == geom.stripe_unit;
            let gather = if is_write {
                !full && k > 1
            } else {
                let lost = needed
                    .iter()
                    .map(|&(j, _, _)| sites[j as usize])
                    .find(|&x| !usable(x));
                let survivors = sites.iter().filter(|&&x| usable(x)).count();
                let lost = lost.filter(|_| survivors >= k);
                failovers.extend(lost);
                lost.is_some()
            };
            if gather {
                let picked = sites.iter().enumerate().filter(|&(_, &x)| usable(x));
                plans.extend(picked.take(k).map(|(idx, &site)| LegPlan {
                    site: Some(site),
                    offset: geom.shard_obj_offset(s, idx as u32, lo),
                    io: LegIo::Read((hi - lo) as u32),
                    role: LegRole::Gather {
                        stripe: i as u32,
                        shard: idx as u32,
                    },
                }));
            } else if !is_write {
                // Clean (or <k survivors: route to the suspected shard
                // anyway so retransmissions keep probing it).
                plans.extend(needed.iter().map(|&(j, a, b)| LegPlan {
                    site: Some(sites[j as usize]),
                    offset: geom.shard_obj_offset(s, j, a),
                    io: LegIo::Read((b - a) as u32),
                    role: LegRole::Read,
                }));
            }
            stripes.push(CodedStripe {
                s,
                piece: piece.clone(),
                sites,
                lo,
                hi,
                gather,
                got: vec![None; geom.n as usize],
            });
        }
        let gathering: Vec<u64> = stripes
            .iter()
            .filter(|st| st.gather)
            .map(|st| st.s)
            .collect();
        if is_write {
            self.stats.coded_writes += 1;
        } else {
            // Decoding mixes windows of several shards: hold the stripe
            // locks so a concurrent read-modify-write cannot tear the
            // reconstruction.
            if !gathering.is_empty() && !self.lock_stripes(file, &gathering, xid, pkt) {
                return None;
            }
            self.stats.coded_reads += 1;
            self.stats.ec_degraded_reads += failovers.len() as u64;
            for site in failovers {
                self.stats.read_failovers += 1;
                self.out.push(ProxyOut::Trace(EventKind::ReadFailover {
                    site: site as usize,
                    xid: u64::from(xid),
                }));
            }
        }
        Some((stripes, live, plans))
    }

    /// Computes and issues the final shard writes of a coded write op:
    /// overlays the client bytes on the (decoded or direct) old data,
    /// re-encodes parity, and writes every touched live shard window. A
    /// full stripe's data shards are windows of the client's payload, and
    /// each leg carries a window of its shard.
    fn coded_write_phase1(&mut self, xid: u32) {
        let Some(op) = self.soft.ops.get_mut(&xid) else {
            return;
        };
        op.shards_due = false;
        // One buffer: the client's own when its data is one window.
        let data = std::mem::take(&mut op.data).contiguous(0);
        let op = &self.soft.ops[&xid];
        let (fh, offset, stable) = (op.call.fh, op.call.offset, op.stable);
        let geom = self.coded_geom(&fh).expect("op exists only when coded");
        let (n, k) = (geom.n as usize, geom.k as usize);
        let codec = Codec::new(n, k);
        let shard = geom.shard_size();
        let mut plans = Vec::new();
        let mut torn = false;
        for st in &op.stripes {
            let wlen = (st.hi - st.lo) as usize;
            let (plo, plen) = (st.piece.start, st.piece.end - st.piece.start);
            let full = plen == geom.stripe_unit;
            // Old data windows over the hull, one per data shard.
            let mut datw: Vec<Vec<u8>> = if st.gather {
                let slots: Vec<Option<&[u8]>> = st.got.iter().map(|g| g.as_deref()).collect();
                match codec.decode(&slots) {
                    Some(w) => w,
                    None => {
                        torn = true;
                        break;
                    }
                }
            } else if full {
                // Every byte comes from the client payload.
                Vec::new()
            } else {
                // k == 1 partial write: the hull is exactly the written
                // window, fully known from the payload after the overlay.
                vec![vec![0u8; wlen]; k]
            };
            // Overlay the new client bytes.
            for (j, w) in datw.iter_mut().enumerate() {
                let (a, b) = geom.data_window(st.s, j as u32, plo, plen);
                if a < b {
                    let src = (st.s * geom.stripe_unit + j as u64 * shard + a - offset) as usize;
                    w[(a - st.lo) as usize..(b - st.lo) as usize]
                        .copy_from_slice(&data[src..src + (b - a) as usize]);
                }
            }
            let shards: Vec<ByteBuf> = if full {
                (0..k as u64)
                    .map(|j| {
                        let base = (st.s * geom.stripe_unit + j * shard - offset) as usize;
                        data.slice(base, shard as usize)
                    })
                    .collect()
            } else {
                datw.into_iter().map(ByteBuf::from).collect()
            };
            let refs: Vec<&[u8]> = shards.iter().map(|w| &w[..]).collect();
            // One write leg per touched window of a live shard.
            let live = |idx: usize| op.live.contains(&st.sites[idx]);
            let mut leg = |idx: usize, pos: u64, data: ByteBuf| {
                plans.push(LegPlan {
                    site: Some(st.sites[idx]),
                    offset: geom.shard_obj_offset(st.s, idx as u32, pos),
                    io: LegIo::Write(stable, data.into()),
                    role: LegRole::WriteAck,
                })
            };
            for p in (0..n - k).filter(|&p| live(k + p)) {
                leg(k + p, st.lo, codec.parity_row(p, &refs).into());
            }
            for (j, w) in shards.iter().enumerate().filter(|&(j, _)| live(j)) {
                let (a, b) = geom.data_window(st.s, j as u32, plo, plen);
                if a < b {
                    leg(j, a, w.slice((a - st.lo) as usize, (b - a) as usize));
                }
            }
        }
        if torn {
            // Unreachable with k gathered windows; drop the op and let the
            // client's retransmission restart it.
            self.abort_op(xid);
            return;
        }
        for plan in plans {
            self.send_leg(xid, fh, plan);
        }
        if self.soft.ops[&xid].outstanding == 0 {
            self.finish_op(xid);
        }
    }

    /// Absorbs the reply `rx` to one leg of op `parent` — `pos` is the
    /// offset the leg read or wrote at — and advances the op.
    pub(super) fn leg_reply(&mut self, parent: u32, role: LegRole, pos: u64, rx: Inbound) {
        let Some(op) = self.soft.ops.get_mut(&parent) else {
            return;
        };
        if let Some(s) = rx.src_site {
            if let Some(i) = op.awaiting.iter().position(|&x| x == s) {
                op.awaiting.remove(i);
            }
        }
        op.outstanding = op.outstanding.saturating_sub(1);
        let Some(reply) = rx.reply else {
            // Undecodable leg reply: drop the op; retransmission restarts.
            self.abort_op(parent);
            return;
        };
        if !reply.status.is_ok() {
            // Surface the first leg failure as the op's outcome; the
            // client's RPC layer retries (JUKEBOX) or errors out.
            let proc = if op.write {
                NfsProc::Write
            } else {
                NfsProc::Read
            };
            let client = op.call.client_src;
            self.abort_op(parent);
            self.reply_to_client(parent, client, &NfsReply::error(proc, reply.status));
            return;
        }
        // READ data stays in the leg's reply packet; the op keeps windows.
        let read_window = match &reply.body {
            ReplyBody::Read { data, .. } => Some(rx.pkt.range(data.clone())),
            _ => None,
        };
        match role {
            LegRole::Gather { stripe, shard } => {
                let st = &mut op.stripes[stripe as usize];
                let wlen = (st.hi - st.lo) as usize;
                // Short reads are holes or truncated tails: zeros under
                // the linear code.
                let window = read_window.unwrap_or_default().contiguous(wlen);
                st.got[shard as usize] = Some(window);
            }
            LegRole::Read => op.reads.extend(read_window.map(|w| (pos, w))),
            LegRole::WriteAck => {
                if op.template.is_none() {
                    op.template = Some(reply.map_data(|r| rx.pkt.range(r).to_vec()));
                }
            }
        }
        if op.outstanding == 0 {
            if op.shards_due {
                self.coded_write_phase1(parent);
            } else {
                self.finish_op(parent);
            }
        }
    }

    /// Completes a leg op: synthesizes the merged client reply, updates
    /// the attribute cache, and releases stripe locks.
    fn finish_op(&mut self, xid: u32) {
        let Some(mut op) = self.soft.ops.remove(&xid) else {
            return;
        };
        self.soft.degrade_ok.remove(&xid);
        let call = op.call;
        let t = Self::nfs_time(self.now);
        let mut evicted = Vec::new();
        if op.write {
            evicted.extend(self.attrs.apply_write(self.now, &call.fh, call.end(), t));
            let mut r = op.template.take().unwrap_or(NfsReply {
                proc: NfsProc::Write,
                status: slice_nfsproto::NfsStatus::Ok,
                attr: None,
                body: ReplyBody::Write {
                    count: 0,
                    committed: op.stable,
                    verf: 0,
                },
            });
            if let ReplyBody::Write { count, .. } = &mut r.body {
                *count = call.len;
            }
            if let Some(attr) = self.attrs.get(call.fh.file_id()) {
                r.attr = Some(attr);
            }
            self.reply_to_client(xid, call.client_src, &r);
        } else {
            evicted.extend(self.attrs.apply_read(self.now, &call.fh, t));
            // Decode the gathered stripes into served read windows.
            for st in op.stripes.iter().filter(|st| st.gather) {
                let geom = self.coded_geom(&call.fh).expect("stripes only when coded");
                let codec = Codec::new(geom.n as usize, geom.k as usize);
                let slots: Vec<Option<&[u8]>> = st.got.iter().map(|g| g.as_deref()).collect();
                let Some(datw) = codec.decode(&slots) else {
                    // Unreachable with k gathered windows; drop the op.
                    self.abort_op(xid);
                    return;
                };
                self.stats.ec_reconstructions += 1;
                for (j, w) in datw.into_iter().enumerate() {
                    let (plo, plen) = (st.piece.start, st.piece.end - st.piece.start);
                    let (a, b) = geom.data_window(st.s, j as u32, plo, plen);
                    if a < b {
                        self.stats.ec_reconstructed_bytes += b - a;
                        let pos = geom.shard_obj_offset(st.s, j as u32, a);
                        let w = ByteBuf::from(w);
                        let window = w.slice((a - st.lo) as usize, (b - a) as usize);
                        op.reads.push((pos, window.into()));
                    }
                }
            }
            // Lay the windows out against the global size.
            let attr = self.attrs.get(call.fh.file_id());
            let size = attr.map_or(call.end(), |a| a.size);
            let data = read_data(call.offset, call.len, size, op.reads);
            self.read_reply_to_client(xid, call.client_src, attr, data);
        }
        for e in evicted {
            self.push_attrs(&e);
        }
        self.unlock_stripes(xid);
    }
}
