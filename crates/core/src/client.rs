//! The client actor: an NFS client stack with an embedded µproxy.
//!
//! The paper's preferred deployment places the µproxy "below the IP stack
//! on each client node, to avoid the store-and-forward delays imposed by
//! host-based intermediaries" (§4.1). This actor models exactly that: the
//! client's RPC layer emits real encoded NFS packets addressed to the
//! virtual server; the packets pass through the embedded [`Uproxy`] on the
//! way out (its CPU cost charged to the client host, as in the paper's
//! client-based configuration) and replies pass back through it on the way
//! in. Baseline configurations omit the µproxy and talk to a single server
//! directly.
//!
//! Workloads drive the client through the [`Workload`] trait and the
//! [`ClientIo`] handle; the RPC layer handles xids, latency accounting,
//! and timeout-based retransmission (the end-to-end recovery the µproxy's
//! statelessness relies on).

use slice_sim::FxHashMap;

use slice_nfsproto::{
    decode_reply, encode_call, AuthUnix, NfsProc, NfsReply, NfsRequest, Packet, SockAddr,
};
use slice_sim::{
    Actor, Ctx, EventKind, LatencyStats, NodeId, SimDuration, SimTime, Subsystem, TimerId,
    START_TAG,
};
use slice_uproxy::{ProxyOut, Uproxy};

use crate::calib;
use crate::history::OpHistory;
use crate::wire::{Router, Wire};

const TAG_TICK: u64 = 1 << 40;
const TAG_RPC: u64 = 2 << 40;
const TAG_WAKE: u64 = 3 << 40;
const TICK_INTERVAL: SimDuration = SimDuration::from_millis(500);
const MAX_RETRIES: u32 = 30;

/// A workload driving one client.
pub trait Workload: 'static {
    /// Called once at simulation start; issue initial operations here.
    fn start(&mut self, io: &mut ClientIo<'_, '_>);

    /// Called for every completed operation (tag matches the `call`).
    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply);

    /// Called when a wake-up requested via [`ClientIo::wake_in`] fires.
    fn on_wake(&mut self, io: &mut ClientIo<'_, '_>) {
        let _ = io;
    }

    /// True when the workload has finished its run (inspection only).
    fn finished(&self) -> bool {
        false
    }

    /// `Any` access so harnesses can downcast workloads for results.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// This client's address.
    pub addr: SockAddr,
    /// Where requests go: the virtual server (Slice) or a real server
    /// (baselines).
    pub server_addr: SockAddr,
    /// RPC credential.
    pub cred: AuthUnix,
    /// Record an [`OpHistory`] of every call for the consistency oracles
    /// (off by default: the big benchmarks should not pay for it).
    pub record_history: bool,
}

/// Per-client statistics.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Completed operations.
    pub ops: u64,
    /// Latency distribution over completed operations.
    pub latency: LatencyStats,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Retransmissions: client RPCs resent on timeout, plus attribute
    /// write-backs the embedded µproxy re-pushed because an earlier push
    /// of the same version went unacknowledged.
    pub retransmits: u64,
    /// Operations surfaced to the workload as failed after exhausting
    /// every retransmission (client-visible timeout).
    pub timeouts: u64,
}

struct PendingRpc {
    tag: u64,
    proc: NfsProc,
    /// The decoded request, kept for timeout retransmission. Re-encoding
    /// under the original xid reproduces the first transmission byte for
    /// byte, so stashing the request (moved in, no payload copy) replaces
    /// the per-RPC packet clone that used to dominate the shallow-clone
    /// counter — retransmissions are rare; sends are not.
    request: NfsRequest,
    sent_at: SimTime,
    first_sent_at: SimTime,
    retries: u32,
    timer: TimerId,
    write_bytes: u64,
}

/// Internal client state shared with [`ClientIo`].
pub struct ClientInner {
    cfg: ClientConfig,
    proxy: Option<Uproxy>,
    router: Router,
    /// The block-service coordinator the µproxy talks to.
    coord: Option<NodeId>,
    /// Where to fetch fresh routing tables (directory site 0).
    dir_table_source: Option<NodeId>,
    pending: FxHashMap<u32, PendingRpc>,
    next_xid: u32,
    stats: ClientStats,
    /// Last observed value of the µproxy's push-retry counter, so each
    /// interposed-layer retransmission is folded into the stats once.
    seen_push_retries: u64,
    /// Last observed µproxy attribute-cache hit/miss counts, so each
    /// hit/miss becomes exactly one trace event.
    seen_attr_hits: u64,
    seen_attr_misses: u64,
    /// Begin/end invocation records for the consistency oracles
    /// (populated only when [`ClientConfig::record_history`] is set).
    history: OpHistory,
}

impl ClientInner {
    fn dispatch_proxy_out(&mut self, ctx: &mut Ctx<'_, Wire>, outs: Vec<ProxyOut>) -> Vec<Packet> {
        let mut to_client = Vec::new();
        for o in outs {
            match o {
                ProxyOut::Net(p) => {
                    if let Some(node) = self.router.try_node_of(p.dst) {
                        ctx.trace(
                            Subsystem::Uproxy,
                            EventKind::PacketRouted {
                                from: ctx.node().0 as usize,
                                to: node.0 as usize,
                                bytes: p.payload.len(),
                            },
                        );
                        ctx.send(node, Wire::Udp(p));
                    }
                }
                ProxyOut::Client(p) => to_client.push(p),
                ProxyOut::Coord(msg) => {
                    if let Some(node) = self.coord {
                        ctx.send(node, Wire::Coord(msg));
                    }
                }
                ProxyOut::NeedDirTable => {
                    // Lazily refresh the µproxy's routing table from the
                    // ensemble's table authority (directory site 0).
                    if let Some(node) = self.router.try_node_of(self.cfg.server_addr) {
                        ctx.send(node, Wire::TableFetch);
                    } else if let Some(node) = self.dir_table_source {
                        ctx.send(node, Wire::TableFetch);
                    }
                }
                ProxyOut::Trace(kind) => ctx.trace(Subsystem::Uproxy, kind),
            }
        }
        to_client
    }

    fn send_call(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64, req: NfsRequest) {
        let write_bytes = match &req {
            NfsRequest::Write { data, .. } => data.len() as u64,
            _ => 0,
        };
        let mut cpu = calib::CLIENT_SEND_CPU;
        if write_bytes > 0 {
            cpu += calib::CLIENT_WRITE_CPU_PER_4K.mul_f64(write_bytes as f64 / 4096.0);
        }
        ctx.use_cpu(cpu);
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let payload = encode_call(xid, &self.cfg.cred, &req);
        let pkt = Packet::new(self.cfg.addr, self.cfg.server_addr, payload);
        ctx.trace(
            Subsystem::Client,
            EventKind::OpStart {
                op: req.proc().name(),
                xid: u64::from(xid),
            },
        );
        if self.cfg.record_history {
            self.history.begin(ctx.now(), xid, &req);
        }
        let timer = ctx.set_timer(calib::RPC_TIMEOUT, TAG_RPC | u64::from(xid));
        self.pending.insert(
            xid,
            PendingRpc {
                tag,
                proc: req.proc(),
                request: req,
                sent_at: ctx.now(),
                first_sent_at: ctx.now(),
                retries: 0,
                timer,
                write_bytes,
            },
        );
        self.transmit(ctx, pkt);
    }

    /// Runs one µproxy entry point, sends what it emits, folds its
    /// counters into the stats and the trace, and returns the packets it
    /// addressed to the local client stack (none without a µproxy).
    fn through_proxy(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        entry: impl FnOnce(&mut Uproxy, &mut Ctx<'_, Wire>) -> Vec<ProxyOut>,
    ) -> Vec<Packet> {
        let Some(proxy) = &mut self.proxy else {
            return Vec::new();
        };
        let outs = entry(proxy, ctx);
        let to_client = self.dispatch_proxy_out(ctx, outs);
        self.sync_proxy_obs(ctx);
        to_client
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet) {
        if self.proxy.is_none() {
            if let Some(node) = self.router.try_node_of(pkt.dst) {
                ctx.send(node, Wire::Udp(pkt));
            }
            return;
        }
        let to_client = self.through_proxy(ctx, |proxy, ctx| {
            ctx.use_cpu(calib::UPROXY_PACKET_CPU);
            let outs = proxy.outbound(ctx.now(), pkt);
            // Duplicates the µproxy initiates (mirrored writes) cost the
            // client host extra driver/DMA work.
            let nets = outs.iter().filter_map(|o| match o {
                ProxyOut::Net(p) => Some(p.payload.len()),
                _ => None,
            });
            for bytes in nets.skip(1) {
                ctx.use_cpu(
                    calib::UPROXY_DUP_CPU
                        + calib::UPROXY_DUP_CPU_PER_4K.mul_f64(bytes as f64 / 4096.0),
                );
            }
            outs
        });
        debug_assert!(
            to_client.is_empty(),
            "outbound packets cannot target the client"
        );
    }

    /// Folds µproxy-side observability into the client's stats and the
    /// engine trace: retransmissions performed by the interposed layer
    /// (attribute pushes re-issued after an unacknowledged push) count
    /// into [`ClientStats::retransmits`] once each, and attribute-cache
    /// hit/miss deltas become one trace event apiece.
    fn sync_proxy_obs(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let Some(p) = &self.proxy else {
            return;
        };
        let pr = p.push_retries();
        let (hits, misses) = p.attr_cache_stats();
        for _ in self.seen_push_retries..pr {
            // The re-pushed SETATTR carries a µproxy-owned xid the client
            // RPC layer never sees; 0 marks it as interposed-initiated.
            ctx.trace(
                Subsystem::Uproxy,
                EventKind::Retransmit { xid: 0, retries: 1 },
            );
        }
        for _ in self.seen_attr_hits..hits {
            ctx.trace(Subsystem::Uproxy, EventKind::CacheHit { cache: "attr" });
        }
        for _ in self.seen_attr_misses..misses {
            ctx.trace(Subsystem::Uproxy, EventKind::CacheMiss { cache: "attr" });
        }
        self.stats.retransmits += pr - self.seen_push_retries;
        self.seen_push_retries = pr;
        self.seen_attr_hits = hits;
        self.seen_attr_misses = misses;
    }
}

/// The handle workloads use to issue operations.
pub struct ClientIo<'a, 'b> {
    ctx: &'a mut Ctx<'b, Wire>,
    inner: &'a mut ClientInner,
}

impl ClientIo<'_, '_> {
    /// Issues an NFS call; the reply arrives at `on_reply` with `tag`.
    /// Takes the request by value: it is stashed for retransmission (and
    /// a WRITE's data moves with it rather than being copied).
    pub fn call(&mut self, tag: u64, req: NfsRequest) {
        self.inner.send_call(self.ctx, tag, req);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut slice_sim::Rng {
        self.ctx.rng()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ClientStats {
        &self.inner.stats
    }

    /// Requests an [`Workload::on_wake`] callback after `delay`.
    pub fn wake_in(&mut self, delay: SimDuration) {
        self.ctx.set_timer(delay, TAG_WAKE);
    }
}

/// The client actor.
pub struct ClientActor {
    inner: ClientInner,
    workload: Option<Box<dyn Workload>>,
}

impl ClientActor {
    /// Creates a client. `proxy` is the embedded µproxy and the node of
    /// the coordinator it talks to for Slice configurations, `None` for
    /// direct-to-server baselines.
    pub fn new(
        cfg: ClientConfig,
        proxy: Option<(Uproxy, NodeId)>,
        router: Router,
        workload: Box<dyn Workload>,
    ) -> Self {
        let (proxy, coord) = proxy.unzip();
        ClientActor {
            inner: ClientInner {
                cfg,
                proxy,
                router,
                coord,
                dir_table_source: None,
                pending: FxHashMap::default(),
                next_xid: 1,
                stats: ClientStats::default(),
                seen_push_retries: 0,
                seen_attr_hits: 0,
                seen_attr_misses: 0,
                history: OpHistory::new(),
            },
            workload: Some(workload),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ClientStats {
        &self.inner.stats
    }

    /// The recorded op history (empty unless `record_history` was set).
    pub fn history(&self) -> &OpHistory {
        &self.inner.history
    }

    /// The embedded µproxy (for phase statistics and fault injection).
    pub fn proxy(&self) -> Option<&Uproxy> {
        self.inner.proxy.as_ref()
    }

    /// Mutable µproxy access (state-loss injection, table reloads).
    pub fn proxy_mut(&mut self) -> Option<&mut Uproxy> {
        self.inner.proxy.as_mut()
    }

    /// The driving workload, downcast by the caller.
    pub fn workload(&self) -> Option<&dyn Workload> {
        self.workload.as_deref()
    }

    /// The driving workload as a `W`.
    ///
    /// # Panics
    ///
    /// If the client has no workload, or its workload is not a `W`.
    pub fn workload_as<W: Workload>(&self) -> &W {
        let w = self.workload().and_then(|w| w.as_any().downcast_ref());
        w.unwrap_or_else(|| panic!("client workload is not a {}", std::any::type_name::<W>()))
    }

    /// Replaces the workload (e.g. to start a second phase on this client
    /// after an earlier one completed); kick the client to start it.
    pub fn set_workload(&mut self, w: Box<dyn Workload>) {
        self.workload = Some(w);
    }

    /// Sets where the µproxy fetches fresh routing tables.
    pub fn set_dir_table_source(&mut self, node: NodeId) {
        self.inner.dir_table_source = Some(node);
    }

    /// True once the workload reports completion.
    pub fn finished(&self) -> bool {
        self.workload.as_ref().map(|w| w.finished()).unwrap_or(true)
    }

    fn with_workload(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        f: impl FnOnce(&mut dyn Workload, &mut ClientIo<'_, '_>),
    ) {
        let mut w = self.workload.take().expect("workload reentrancy");
        {
            let mut io = ClientIo {
                ctx,
                inner: &mut self.inner,
            };
            f(w.as_mut(), &mut io);
        }
        self.workload = Some(w);
    }

    fn deliver_reply(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet) {
        let Ok((xid, _)) = slice_nfsproto::peek_xid_type(&pkt.payload) else {
            return;
        };
        let Some(rec) = self.inner.pending.remove(&xid) else {
            return; // duplicate reply after retransmission
        };
        ctx.cancel_timer(rec.timer);
        let Ok((_, reply)) = decode_reply(&pkt.payload, rec.proc) else {
            return;
        };
        let mut cpu = calib::CLIENT_RECV_CPU;
        if let slice_nfsproto::ReplyBody::Read { data, .. } = &reply.body {
            cpu += calib::CLIENT_READ_CPU_PER_4K.mul_f64(data.len() as f64 / 4096.0);
            self.inner.stats.bytes_read += data.len() as u64;
        }
        ctx.use_cpu(cpu);
        self.inner.stats.ops += 1;
        self.inner.stats.bytes_written += rec.write_bytes;
        let latency = ctx.now() - rec.first_sent_at;
        self.inner.stats.latency.record(latency);
        ctx.obs()
            .registry
            .observe("client.op_latency_ns", latency.as_nanos());
        self.complete(ctx, xid, rec, reply);
    }

    /// The one exit of an RPC, taken by a reply and by the error that
    /// stands in for one when the retries run out: the trace, the
    /// history and the workload all see the op end here.
    fn complete(&mut self, ctx: &mut Ctx<'_, Wire>, xid: u32, rec: PendingRpc, reply: NfsReply) {
        ctx.trace(
            Subsystem::Client,
            EventKind::OpComplete {
                op: rec.proc.name(),
                xid: u64::from(xid),
                latency_ns: (ctx.now() - rec.first_sent_at).as_nanos(),
            },
        );
        if self.inner.cfg.record_history {
            self.inner
                .history
                .complete(ctx.now(), xid, rec.retries, &reply);
        }
        // The stashed WRITE data and the reply's READ payload are dead
        // once the workload has seen the reply; hand them back to the
        // recycler instead of dropping them on the allocator.
        if let NfsRequest::Write { data, .. } = rec.request {
            slice_sim::pool::give(data);
        }
        self.with_workload(ctx, |w, io| w.on_reply(io, rec.tag, &reply));
        if let slice_nfsproto::ReplyBody::Read { data, .. } = reply.body {
            slice_sim::pool::give(data);
        }
    }
}

impl Actor<Wire> for ClientActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        match msg {
            Wire::Udp(pkt) => {
                let replies = if self.inner.proxy.is_some() {
                    self.inner.through_proxy(ctx, |proxy, ctx| {
                        ctx.use_cpu(calib::UPROXY_PACKET_CPU);
                        proxy.inbound(ctx.now(), pkt)
                    })
                } else {
                    vec![pkt]
                };
                for p in replies {
                    self.deliver_reply(ctx, p);
                }
            }
            Wire::CoordReply(reply) => {
                let replies = self
                    .inner
                    .through_proxy(ctx, |proxy, ctx| proxy.coord_reply(ctx.now(), reply));
                for p in replies {
                    self.deliver_reply(ctx, p);
                }
            }
            Wire::TableData(table) => {
                // A refreshed routing table from the ensemble's table
                // authority; load it if newer than what we hold.
                if let Some(proxy) = self.inner.proxy.as_mut() {
                    if table.generation() > proxy.dir_table_generation() {
                        proxy.load_dir_table(table);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: u64) {
        if tag == START_TAG {
            ctx.set_timer(TICK_INTERVAL, TAG_TICK);
            self.with_workload(ctx, |w, io| w.start(io));
            return;
        }
        if tag == TAG_WAKE {
            self.with_workload(ctx, |w, io| w.on_wake(io));
            return;
        }
        if tag == TAG_TICK {
            let to_client = self
                .inner
                .through_proxy(ctx, |proxy, ctx| proxy.tick(ctx.now()));
            debug_assert!(to_client.is_empty());
            // The tick keeps running while anything is outstanding: an
            // unfinished workload, an unanswered RPC, or a dirty attribute
            // awaiting write-back acknowledgement. Once fully quiescent it
            // stops rearming so the event queue can drain — otherwise a
            // finished ensemble ticks (and pushes write-backs) forever and
            // `run_to_completion` burns events long past the workload.
            // Quiescence is decided *after* the proxy tick above, so dirt
            // created by a just-delivered reply is always pushed first.
            let quiescent = self.finished()
                && self.inner.pending.is_empty()
                && self
                    .inner
                    .proxy
                    .as_ref()
                    .map(|p| !p.has_dirty_attrs())
                    .unwrap_or(true);
            if !quiescent {
                ctx.set_timer(TICK_INTERVAL, TAG_TICK);
            }
            return;
        }
        if tag & TAG_RPC != 0 {
            let xid = (tag & 0xffff_ffff) as u32;
            // Retransmit: the µproxy may have lost state or packets may
            // have been dropped; resend the original virtual-addressed
            // packet through the full path.
            let Some(rec) = self.inner.pending.get_mut(&xid) else {
                return;
            };
            if rec.retries >= MAX_RETRIES {
                // Out of retries: the op fails with a client-visible
                // timeout instead of silently vanishing — the workload
                // gets an error reply so its slot frees, the history
                // records the outcome, and the stats count it.
                let rec = self.inner.pending.remove(&xid).expect("checked");
                self.inner.stats.timeouts += 1;
                ctx.obs().registry.add("client.rpc_timeouts", 1);
                let reply = NfsReply::error(rec.proc, slice_nfsproto::NfsStatus::Io);
                self.complete(ctx, xid, rec, reply);
                return;
            }
            rec.retries += 1;
            rec.sent_at = ctx.now();
            // Capped exponential backoff (1x, 2x, 4x, 8x the RPC timeout)
            // with deterministic jitter from the sim RNG, so a herd of
            // timed-out clients does not hammer a recovering node in
            // lockstep.
            let shift = (rec.retries - 1).min(3);
            let base = calib::RPC_TIMEOUT.mul_f64((1u64 << shift) as f64);
            let backoff = base + base.mul_f64(0.25 * ctx.rng().gen::<f64>());
            rec.timer = ctx.set_timer(backoff, TAG_RPC | u64::from(xid));
            // Re-encode the stashed request under its original xid —
            // byte-identical to the first transmission, without keeping a
            // packet clone alive for every in-flight RPC.
            let payload = encode_call(xid, &self.inner.cfg.cred, &rec.request);
            let pkt = Packet::new(self.inner.cfg.addr, self.inner.cfg.server_addr, payload);
            let retries = rec.retries;
            self.inner.stats.retransmits += 1;
            ctx.trace(
                Subsystem::Client,
                EventKind::Retransmit {
                    xid: u64::from(xid),
                    retries,
                },
            );
            // Observed retransmissions feed the µproxy's failure-suspicion
            // table: the interposed layer learns a routed-to site is not
            // answering and steers the retry (and later traffic) away.
            let to_client = self
                .inner
                .through_proxy(ctx, |proxy, ctx| proxy.note_retransmit(ctx.now(), xid));
            debug_assert!(to_client.is_empty());
            self.inner.transmit(ctx, pkt);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
