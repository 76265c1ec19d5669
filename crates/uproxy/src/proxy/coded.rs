//! Erasure-coded striping at the µproxy (slice-ec).
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
//! The µproxy drives every coded request as a small state machine of
//! internal "legs" (µproxy-initiated RPCs with their own xids):
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
//! The client's RPC retransmission of the *parent* xid aborts and restarts
//! the whole op, so a leg lost to a dead site can never wedge the machine.

use super::*;
use slice_ec::{Codec, CodedLayout};
use slice_nfsproto::ReplyView;

/// What a coded leg's reply means to its parent op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodedLegRole {
    /// A survivor-window read feeding a stripe decode: (stripe index
    /// within the op, shard index within the stripe).
    Gather { stripe: u32, shard: u32 },
    /// A clean data-shard read whose bytes go straight to the client.
    Data { stripe: u32, shard: u32 },
    /// A shard write acknowledgement.
    WriteAck,
    /// The below-threshold half of a straddling request.
    SmallFile,
}

/// One stripe touched by a coded op.
#[derive(Debug, Clone)]
struct CodedStripe {
    /// Stripe (block) index.
    s: u64,
    /// The n placement sites, data shards first.
    sites: Vec<u32>,
    /// Hull window `[lo, hi)` of shard-local positions this op touches.
    lo: u64,
    hi: u64,
    /// True when survivor windows must be gathered and decoded (partial
    /// write, or degraded read of this stripe).
    gather: bool,
    /// Gathered survivor windows by shard index, zero-padded to hull len
    /// (a full-length window stays a view of the packet it arrived in).
    got: Vec<Option<ByteBuf>>,
}

/// A client request in flight as coded shard legs.
#[derive(Debug, Clone)]
pub(crate) struct CodedOp {
    fh: Fhandle,
    /// Original request range (including any below-threshold head).
    offset: u64,
    len: u32,
    /// Bulk sub-range served by the coded layout.
    blo: u64,
    bhi: u64,
    write: bool,
    stable: StableHow,
    /// Client write payload, indexed from `offset` (empty for reads): a
    /// window of the client's packet.
    data: ByteBuf,
    client_src: SockAddr,
    stripes: Vec<CodedStripe>,
    /// Sites this op routes to: the DirtyAck-approved live set when
    /// degraded, every placement site otherwise.
    live: Vec<u32>,
    /// Storage legs still outstanding in the current phase.
    outstanding: u32,
    /// Storage site per outstanding leg; a client retransmission of the
    /// parent xid strikes exactly these.
    pub(crate) awaiting: Vec<u32>,
    /// Every leg xid issued (removed from `pending` on abort).
    leg_xids: Vec<u32>,
    /// Below-threshold read data from the straddle low half.
    sf_data: Option<ByteBuf>,
    sf_outstanding: bool,
    /// First WRITE-leg reply: template for the merged client reply (its
    /// verifier stands in for the fan-out, as with mirrored writes).
    template: Option<NfsReply>,
    /// Clean read windows collected: (stripe, shard, bytes).
    reads: Vec<(u32, u32, ByteBuf)>,
    /// 0 = gathering survivor windows, 1 = final shard writes.
    phase: u8,
}

/// A planned leg, computed before any state is mutated.
struct LegPlan {
    /// Storage site, or `None` for the file's small-file server (the
    /// below-threshold head of a straddling request).
    site: Option<u32>,
    req: NfsRequest,
    role: CodedLegRole,
}

impl Uproxy {
    /// The coded layout geometry, when `fh`'s bulk region is coded.
    pub(crate) fn coded_geom(&self, fh: &Fhandle) -> Option<CodedLayout> {
        let (n, k) = self.cfg.coded?;
        if !self.cfg.use_block_maps || !fh.is_mapped() || fh.is_dir() || fh.is_symlink() {
            return None;
        }
        Some(CodedLayout::new(n, k, self.cfg.stripe_unit))
    }

    /// Takes the per-(file, stripe) locks for `xid`, or parks the packet
    /// on the first busy stripe and returns false. An op re-entering with
    /// locks it already owns passes.
    fn lock_stripes(&mut self, file: u64, stripes: &[u64], xid: u32, pkt: &Packet) -> bool {
        for &s in stripes {
            if let Some(&owner) = self.stripe_locks.get(&(file, s)) {
                if owner != xid {
                    self.coded_waiters.push(((file, s), pkt.clone()));
                    return false;
                }
            }
        }
        for &s in stripes {
            self.stripe_locks.insert((file, s), xid);
        }
        true
    }

    /// Releases every stripe lock `xid` owns and re-admits parked ops.
    fn unlock_stripes(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let mut keys: Vec<(u64, u64)> = self
            .stripe_locks
            .iter()
            .filter(|&(_, &o)| o == xid)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        for k in &keys {
            self.stripe_locks.remove(k);
        }
        if keys.is_empty() {
            return;
        }
        let mut rest = Vec::new();
        let mut release = Vec::new();
        for (k, p) in std::mem::take(&mut self.coded_waiters) {
            if keys.contains(&k) {
                release.push(p);
            } else {
                rest.push((k, p));
            }
        }
        self.coded_waiters = rest;
        // Each released request restarts the phase clock as a packet of its
        // own; what the releasing packet has spent so far is lock upkeep.
        self.clock.lap(&mut self.phases.soft_ns);
        for p in release {
            self.admit(now, out, p, false);
        }
    }

    /// Discards a coded op and its legs (client restart or fatal leg
    /// error) and releases its stripe locks.
    pub(crate) fn abort_coded(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        if let Some(op) = self.coded_ops.remove(&xid) {
            for leg in op.leg_xids {
                self.pending.remove(&leg);
            }
        }
        self.unlock_stripes(now, out, xid);
    }

    /// Issues one leg of a coded op under a µproxy-owned xid.
    fn send_leg(&mut self, out: &mut Vec<ProxyOut>, parent: u32, fh: Fhandle, plan: &LegPlan) {
        let xid = self.next_own_xid;
        self.next_own_xid = self.next_own_xid.wrapping_add(1);
        let (dst, class) = match plan.site {
            Some(site) => (self.cfg.storage_sites[site as usize], Class::Storage),
            None => (self.sf_dest(fh.file_id()), Class::SmallFile),
        };
        let own = self.cfg.client_addr;
        let pkt = Packet::new(own, dst, encode_call(xid, &self.cred, &plan.req));
        let (proc, offset, len) = match &plan.req {
            NfsRequest::Read { offset, count, .. } => (NfsProc::Read, *offset, *count),
            NfsRequest::Write { offset, data, .. } => (NfsProc::Write, *offset, data.len() as u32),
            _ => unreachable!("coded legs are reads and writes"),
        };
        let mut rec = PendingReq::new(proc, Some(fh), offset, len, class, own);
        rec.awaiting = plan.site.into_iter().collect();
        rec.coded = Some((parent, plan.role));
        self.pending.insert(xid, rec);
        self.stats.initiated += 1;
        if let Some(op) = self.coded_ops.get_mut(&parent) {
            match plan.site {
                Some(site) => {
                    op.outstanding += 1;
                    op.awaiting.push(site);
                }
                None => op.sf_outstanding = true,
            }
            op.leg_xids.push(xid);
        }
        out.push(ProxyOut::Net(pkt));
    }

    /// Routes the coded part `[blo, offset+len)` of a READ (`write ==
    /// None`) or WRITE over the stripes whose placements `site_lists`
    /// names, as µproxy-owned shard legs:
    ///
    /// * a read takes per-shard legs at natural offsets, or — when a
    ///   needed shard's site is suspected and k others are not — gathers
    ///   k survivor windows and reconstructs through parity;
    /// * a write stripes the payload into (n,k) shard legs, first
    ///   gathering and decoding the old contents of partial stripes
    ///   (read-modify-write).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn coded_route(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        pkt: Packet,
        xid: u32,
        fh: Fhandle,
        offset: u64,
        len: u32,
        blo: u64,
        write: Option<(ByteBuf, StableHow)>,
        site_lists: Vec<Vec<u32>>,
        geom: CodedLayout,
    ) {
        let k = geom.k as usize;
        let file = fh.file_id();
        let bhi = offset + u64::from(len);
        let blen = bhi - blo;
        let first = geom.stripe_of(blo);
        let is_write = write.is_some();
        // The sites the op may route to. A write takes every stripe lock
        // first (its parity update reads shards it does not overwrite)
        // and degrades to the DirtyAck-approved live set.
        let live: Vec<u32> = if is_write {
            let ids: Vec<u64> = (first..first + site_lists.len() as u64).collect();
            if !self.lock_stripes(file, &ids, xid, &pkt) {
                return;
            }
            let mut union: Vec<u32> = Vec::new();
            for &s in site_lists.iter().flatten() {
                if !union.contains(&s) {
                    union.push(s);
                }
            }
            // With fewer than k live shards in some stripe there is
            // nothing to degrade to: route everywhere so retransmissions
            // keep probing.
            let fallback = site_lists.iter().any(|sl| {
                sl.iter()
                    .filter(|&&s| !self.health[s as usize].suspected)
                    .count()
                    < k
            });
            if fallback {
                union
            } else {
                match self.degrade_gate(out, &pkt, xid, file, blo, blen, union) {
                    Some(live) => live,
                    // Parked awaiting DirtyAck; locks stay held so no
                    // other write can slip in ahead of the logged ranges.
                    None => return,
                }
            }
        } else {
            site_lists.iter().flatten().copied().collect()
        };
        // Plan each stripe before mutating op state. A gather reads the
        // hull window from the first k usable shards.
        let usable = |site: u32| {
            if is_write {
                live.contains(&site)
            } else {
                !self.health[site as usize].suspected
            }
        };
        let mut stripes = Vec::new();
        let mut plans = Vec::new();
        let mut failovers = Vec::new();
        for (i, sites) in site_lists.into_iter().enumerate() {
            let s = first + i as u64;
            let (lo, hi) = geom.parity_window(s, blo, blen);
            let needed: Vec<(u32, u64, u64)> = (0..geom.k)
                .filter_map(|j| {
                    let (a, b) = geom.data_window(s, j, blo, blen);
                    (a < b).then_some((j, a, b))
                })
                .collect();
            let gather = if is_write {
                let full = blo <= s * geom.stripe_unit && bhi >= (s + 1) * geom.stripe_unit;
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
                    req: NfsRequest::Read {
                        fh,
                        offset: geom.shard_obj_offset(s, idx as u32, lo),
                        count: (hi - lo) as u32,
                    },
                    role: CodedLegRole::Gather {
                        stripe: i as u32,
                        shard: idx as u32,
                    },
                }));
            } else if !is_write {
                // Clean (or <k survivors: route to the suspected shard
                // anyway so retransmissions keep probing it).
                plans.extend(needed.iter().map(|&(j, a, b)| LegPlan {
                    site: Some(sites[j as usize]),
                    req: NfsRequest::Read {
                        fh,
                        offset: geom.shard_obj_offset(s, j, a),
                        count: (b - a) as u32,
                    },
                    role: CodedLegRole::Data {
                        stripe: i as u32,
                        shard: j,
                    },
                }));
            }
            stripes.push(CodedStripe {
                s,
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
            if !gathering.is_empty() && !self.lock_stripes(file, &gathering, xid, &pkt) {
                return;
            }
            self.stats.coded_reads += 1;
            self.stats.ec_degraded_reads += failovers.len() as u64;
            for site in failovers {
                self.stats.read_failovers += 1;
                out.push(ProxyOut::Trace(slice_obs::EventKind::ReadFailover {
                    site: site as usize,
                    xid: u64::from(xid),
                }));
            }
        }
        let (data, stable) = write.unwrap_or((ByteBuf::new(), StableHow::Unstable));
        if blo > offset {
            let cut = (blo - offset) as usize;
            let head = if is_write {
                NfsRequest::Write {
                    fh,
                    offset,
                    stable,
                    data: data[..cut].to_vec(),
                }
            } else {
                NfsRequest::Read {
                    fh,
                    offset,
                    count: cut as u32,
                }
            };
            plans.insert(
                0,
                LegPlan {
                    site: None,
                    req: head,
                    role: CodedLegRole::SmallFile,
                },
            );
        }
        let op = CodedOp {
            fh,
            offset,
            len,
            blo,
            bhi,
            write: is_write,
            stable,
            data,
            client_src: pkt.src,
            stripes,
            live,
            outstanding: 0,
            awaiting: Vec::new(),
            leg_xids: Vec::new(),
            sf_data: None,
            sf_outstanding: false,
            template: None,
            reads: Vec::new(),
            phase: u8::from(!is_write),
        };
        self.coded_ops.insert(xid, op);
        for plan in &plans {
            self.send_leg(out, xid, fh, plan);
        }
        if is_write && gathering.is_empty() {
            self.coded_write_phase1(now, out, xid);
        }
    }

    /// Computes and issues the final shard writes of a coded write op:
    /// overlays the client bytes on the (decoded or direct) old data,
    /// re-encodes parity, and writes every touched live shard window.
    fn coded_write_phase1(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let Some(op) = self.coded_ops.get_mut(&xid) else {
            return;
        };
        op.phase = 1;
        let data = std::mem::take(&mut op.data);
        let op = &self.coded_ops[&xid];
        let (fh, offset, blo, bhi, stable) = (op.fh, op.offset, op.blo, op.bhi, op.stable);
        let geom = self.coded_geom(&fh).expect("op exists only when coded");
        let (n, k) = (geom.n as usize, geom.k as usize);
        let codec = Codec::new(n, k);
        let blen = bhi - blo;
        let mut plans = Vec::new();
        let mut torn = false;
        for st in &op.stripes {
            let wlen = (st.hi - st.lo) as usize;
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
            } else if blo <= st.s * geom.stripe_unit && bhi >= (st.s + 1) * geom.stripe_unit {
                // Full stripe: every byte comes from the client payload.
                (0..k)
                    .map(|j| {
                        let base = (st.s * geom.stripe_unit + j as u64 * geom.shard_size() - offset)
                            as usize;
                        data[base..base + geom.shard_size() as usize].to_vec()
                    })
                    .collect()
            } else {
                // k == 1 partial write: the hull is exactly the written
                // window, fully known from the payload after the overlay.
                vec![vec![0u8; wlen]; k]
            };
            // Overlay the new client bytes.
            for (j, w) in datw.iter_mut().enumerate() {
                let (a, b) = geom.data_window(st.s, j as u32, blo, blen);
                if a < b {
                    let src = (st.s * geom.stripe_unit + j as u64 * geom.shard_size() + a - offset)
                        as usize;
                    w[(a - st.lo) as usize..(b - st.lo) as usize]
                        .copy_from_slice(&data[src..src + (b - a) as usize]);
                }
            }
            let refs: Vec<&[u8]> = datw.iter().map(|w| w.as_slice()).collect();
            // One write leg per touched window of a live shard.
            let live = |idx: usize| op.live.contains(&st.sites[idx]);
            let mut leg = |idx: usize, pos: u64, data: Vec<u8>| {
                plans.push(LegPlan {
                    site: Some(st.sites[idx]),
                    req: NfsRequest::Write {
                        fh,
                        offset: geom.shard_obj_offset(st.s, idx as u32, pos),
                        stable,
                        data,
                    },
                    role: CodedLegRole::WriteAck,
                })
            };
            for p in (0..n - k).filter(|&p| live(k + p)) {
                leg(k + p, st.lo, codec.parity_row(p, &refs));
            }
            for (j, w) in datw.iter().enumerate().filter(|&(j, _)| live(j)) {
                let (a, b) = geom.data_window(st.s, j as u32, blo, blen);
                if a < b {
                    leg(j, a, w[(a - st.lo) as usize..(b - st.lo) as usize].to_vec());
                }
            }
        }
        if torn {
            // Unreachable with k gathered windows; drop the op and let the
            // client's retransmission restart it.
            self.abort_coded(now, out, xid);
            return;
        }
        for plan in &plans {
            self.send_leg(out, xid, fh, plan);
        }
        let op = &self.coded_ops[&xid];
        if op.outstanding == 0 && !op.sf_outstanding {
            self.coded_finish(now, out, xid);
        }
    }

    /// Absorbs one coded leg's reply (with the packet payload it was
    /// parsed from) and advances the parent op.
    pub(crate) fn coded_leg_reply(
        &mut self,
        now: SimTime,
        out: &mut Vec<ProxyOut>,
        parent: u32,
        role: CodedLegRole,
        src_site: Option<u32>,
        reply: Option<(ReplyView, &ByteBuf)>,
    ) {
        let Some(op) = self.coded_ops.get_mut(&parent) else {
            return;
        };
        if let Some(s) = src_site {
            if let Some(pos) = op.awaiting.iter().position(|&x| x == s) {
                op.awaiting.remove(pos);
            }
        }
        match role {
            CodedLegRole::SmallFile => op.sf_outstanding = false,
            _ => op.outstanding = op.outstanding.saturating_sub(1),
        }
        let Some((reply, payload)) = reply else {
            // Undecodable leg reply: drop the op; retransmission restarts.
            self.abort_coded(now, out, parent);
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
            let client = op.client_src;
            self.abort_coded(now, out, parent);
            self.reply_to_client(out, parent, client, &NfsReply::error(proc, reply.status));
            return;
        }
        // READ data stays in the leg's reply packet; the op keeps windows.
        let read_window = match &reply.body {
            BodyView::Read { data, .. } => Some(payload.slice(data.start, data.len())),
            BodyView::Other(_) => None,
        };
        match role {
            CodedLegRole::SmallFile => {
                if read_window.is_some() {
                    op.sf_data = read_window;
                }
            }
            CodedLegRole::Gather { stripe, shard } => {
                let st = &mut op.stripes[stripe as usize];
                let wlen = (st.hi - st.lo) as usize;
                let window = read_window.unwrap_or_default();
                // Short reads are holes or truncated tails: zeros under
                // the linear code.
                st.got[shard as usize] = Some(if window.len() == wlen {
                    window
                } else {
                    let mut bytes = window.to_vec();
                    bytes.resize(wlen, 0);
                    bytes.into()
                });
            }
            CodedLegRole::Data { stripe, shard } => {
                if let Some(window) = read_window {
                    op.reads.push((stripe, shard, window));
                }
            }
            CodedLegRole::WriteAck => {
                if op.template.is_none() {
                    op.template = Some(reply.into_reply(payload));
                }
            }
        }
        let op = self.coded_ops.get_mut(&parent).expect("still present");
        if op.outstanding == 0 && !op.sf_outstanding {
            if op.write && op.phase == 0 {
                self.coded_write_phase1(now, out, parent);
            } else {
                self.coded_finish(now, out, parent);
            }
        }
    }

    /// Completes a coded op: synthesizes the merged client reply, updates
    /// the attribute cache, and releases stripe locks.
    fn coded_finish(&mut self, now: SimTime, out: &mut Vec<ProxyOut>, xid: u32) {
        let Some(mut op) = self.coded_ops.remove(&xid) else {
            return;
        };
        self.degrade_ok.remove(&xid);
        let geom = self.coded_geom(&op.fh).expect("op exists only when coded");
        let t = Self::nfs_time(now);
        let mut evicted = Vec::new();
        let mut reply = if op.write {
            evicted.extend(
                self.attrs
                    .apply_write(now, &op.fh, op.offset + u64::from(op.len), t),
            );
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
                *count = op.len;
            }
            r
        } else {
            evicted.extend(self.attrs.apply_read(now, &op.fh, t));
            // Decode the gathered stripes into served read windows.
            let codec = Codec::new(geom.n as usize, geom.k as usize);
            let blen = op.bhi - op.blo;
            let mut rebuilt = Vec::new();
            for (i, st) in op.stripes.iter().enumerate() {
                if !st.gather {
                    continue;
                }
                let slots: Vec<Option<&[u8]>> = st.got.iter().map(|g| g.as_deref()).collect();
                let Some(datw) = codec.decode(&slots) else {
                    // Unreachable with k gathered windows; drop the op.
                    self.abort_coded(now, out, xid);
                    return;
                };
                self.stats.ec_reconstructions += 1;
                for (j, w) in datw.iter().enumerate() {
                    let (a, b) = geom.data_window(st.s, j as u32, op.blo, blen);
                    if a < b {
                        self.stats.ec_reconstructed_bytes += b - a;
                        rebuilt.push((
                            i as u32,
                            j as u32,
                            w[(a - st.lo) as usize..(b - st.lo) as usize].into(),
                        ));
                    }
                }
            }
            op.reads.append(&mut rebuilt);
            // Assemble the client buffer against the global size.
            let size = self
                .attrs
                .get(op.fh.file_id())
                .map(|a| a.size)
                .unwrap_or(op.offset + u64::from(op.len));
            let expected = size.saturating_sub(op.offset).min(u64::from(op.len)) as usize;
            let mut data = vec![0u8; expected];
            if let Some(sf) = &op.sf_data {
                let nb = sf.len().min(expected);
                data[..nb].copy_from_slice(&sf[..nb]);
            }
            for (i, j, bytes) in &op.reads {
                let st = &op.stripes[*i as usize];
                let (a, b) = geom.data_window(st.s, *j, op.blo, blen);
                if a >= b {
                    continue;
                }
                let file_pos = st.s * geom.stripe_unit + u64::from(*j) * geom.shard_size() + a;
                let start = (file_pos - op.offset) as usize;
                if start >= expected {
                    continue;
                }
                let want = ((b - a) as usize).min(expected - start);
                let nb = bytes.len().min(want);
                data[start..start + nb].copy_from_slice(&bytes[..nb]);
            }
            let eof = op.offset + expected as u64 >= size;
            NfsReply {
                proc: NfsProc::Read,
                status: slice_nfsproto::NfsStatus::Ok,
                attr: None,
                body: ReplyBody::Read { data, eof },
            }
        };
        if let Some(attr) = self.attrs.get(op.fh.file_id()) {
            reply.attr = Some(attr);
        }
        self.reply_to_client(out, xid, op.client_src, &reply);
        for e in evicted {
            self.push_attrs(out, &e);
        }
        self.unlock_stripes(now, out, xid);
    }
}
