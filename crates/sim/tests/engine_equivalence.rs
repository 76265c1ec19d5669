//! The engine's logical event sequence, pinned from outside.
//!
//! The engine may skip *physical* work — a heap entry, a move of the
//! message — only where the *logical* sequence of `(time, src, seq)` keys,
//! seq draws and RNG draws is unchanged. These tests hold it to that
//! through the public API alone, so they compile against any commit: the
//! expected values were captured at `bb5ec86` (the last engine with one
//! heap entry per logical event and no inline dispatch), and the mixed
//! scenario's re-captured at `45275de`, an engine that still matched
//! them, when its neighbour sends stopped bypassing the network.

use slice_sim::{Actor, Ctx, Engine, NetConfig, NodeId, SimDuration, SimTime, TimerId, START_TAG};

const NODES: u32 = 8;
/// Trace marker for timer fires (message entries carry the sender id).
const TIMER: u64 = 1 << 40;
const RESTART: u64 = 1 << 41;
/// Timer tags at or above this cancel the timer stamped right after them.
const KILLER: u64 = 1 << 20;

/// An actor that exercises every engine path from seeded choices: network
/// sends to seeded peers and to a fixed neighbour, timers with zero and
/// non-zero delays, cancels (of pending timers, of timers firing in the
/// same nanosecond, of timers long gone), and handlers with and without
/// CPU cost.
struct Mixer {
    me: u32,
    /// `(now, node, from | TIMER + tag | RESTART)` per handler invocation.
    trace: Vec<(u64, u32, u64)>,
    next_tag: u64,
    last_timer: Option<TimerId>,
    /// `killer tag -> the timer it cancels when it fires`.
    victims: Vec<(u64, TimerId)>,
    /// Cap on sends so the scenario terminates whatever the seed does.
    budget: u32,
}

impl Mixer {
    fn new(me: u32) -> Self {
        Mixer {
            me,
            trace: Vec::new(),
            next_tag: 1,
            last_timer: None,
            victims: Vec::new(),
            budget: 600,
        }
    }

    fn peer(&self, ctx: &mut Ctx<'_, Vec<u8>>) -> NodeId {
        let step = ctx.rng().gen_range(1..NODES);
        NodeId((self.me + step) % NODES)
    }

    fn forward(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, ttl: u8, neighbour: bool) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let len = ctx.rng().gen_range(1..300usize);
        let mut msg = vec![0u8; len];
        msg[0] = ttl;
        let to = if neighbour {
            NodeId(self.me ^ 1)
        } else {
            self.peer(ctx)
        };
        ctx.send(to, msg);
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, delay_ns: u64, killer: bool) -> TimerId {
        let tag = self.next_tag + if killer { KILLER } else { 0 };
        self.next_tag += 1;
        let id = ctx.set_timer(SimDuration::from_nanos(delay_ns), tag);
        self.last_timer = Some(id);
        id
    }
}

impl Actor<Vec<u8>> for Mixer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, from: NodeId, msg: Vec<u8>) {
        self.trace
            .push((ctx.now().as_nanos(), self.me, u64::from(from.0)));
        let ttl = msg[0];
        let r = ctx.rng().gen_range(0..20u32);
        match r % 4 {
            0 | 1 => {}
            2 => ctx.use_cpu(SimDuration::from_micros(3)),
            _ => ctx.use_cpu(SimDuration::from_micros(20)),
        }
        if ttl == 0 {
            return;
        }
        let delay = [0, 1_000, 7_000][(r % 3) as usize];
        match r / 4 {
            0 => self.forward(ctx, ttl - 1, false),
            1 => self.forward(ctx, ttl - 1, true),
            2 => {
                self.arm(ctx, delay, false);
                self.forward(ctx, ttl - 1, false);
            }
            3 => {
                if let Some(id) = self.last_timer.take() {
                    ctx.cancel_timer(id);
                }
                self.forward(ctx, ttl - 1, r.is_multiple_of(2));
            }
            _ => {
                // Two timers due in the same nanosecond; the first to fire
                // cancels the second, which by then sits in the queue or
                // at the top of the heap.
                let killer_tag = self.next_tag + KILLER;
                self.arm(ctx, delay, true);
                let victim = self.arm(ctx, delay, false);
                self.victims.push((killer_tag, victim));
                self.forward(ctx, ttl - 1, false);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
        if tag == START_TAG {
            self.trace
                .push((ctx.now().as_nanos(), self.me, TIMER + (1 << 30)));
            for _ in 0..8 {
                self.forward(ctx, 30, false);
            }
            return;
        }
        self.trace
            .push((ctx.now().as_nanos(), self.me, TIMER + tag));
        if let Some(ix) = self.victims.iter().position(|(t, _)| *t == tag) {
            let (_, victim) = self.victims.swap_remove(ix);
            ctx.cancel_timer(victim);
        }
        if ctx.rng().gen_range(0..10u32) < 4 {
            self.forward(ctx, 4, false);
        }
    }

    fn on_fail(&mut self, _now: SimTime) {
        self.last_timer = None;
        self.victims.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Vec<u8>>) {
        self.trace.push((ctx.now().as_nanos(), self.me, RESTART));
        self.forward(ctx, 6, false);
    }
}

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What the driver sees after one run call: the call's return value (0
/// for `run_until`), then `Engine::now()` and `events_executed()`.
type Checkpoint = (u64, u64, u64);

/// Runs the mixed scenario; returns the hash of every node's handler
/// trace plus the final logical event count and clock, the driver's
/// checkpoints, and the engine.
fn run_mixed() -> (u64, u64, u64, Vec<Checkpoint>, Engine<Vec<u8>>) {
    let mut net = NetConfig::gigabit();
    net.loss_prob = 0.05;
    net.dup_prob = 0.05;
    net.reorder_window = SimDuration::from_micros(20);
    let mut eng = Engine::new(net, 0x51ce);
    for i in 0..NODES {
        eng.add_node(&format!("mix{i}"), Box::new(Mixer::new(i)));
    }
    for i in 0..NODES {
        eng.kick(NodeId(i));
    }
    let mut steps: Vec<Checkpoint> = Vec::new();
    let mut mark = |eng: &Engine<Vec<u8>>, ret: u64| {
        steps.push((ret, eng.now().as_nanos(), eng.events_executed()));
    };
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    eng.run_until(at(150));
    mark(&eng, 0);
    // An unbudgeted run takes the whole busy interval as a single window.
    assert_eq!(eng.shard_windows(), 1, "run_until is one window");
    // Node 3 dies with work queued behind its CPU and packets in flight
    // toward it; some land while it is down, some after it is back.
    eng.fail_node(NodeId(3));
    eng.inject(NodeId(0), NodeId(3), vec![5; 40]);
    eng.run_until(at(220));
    mark(&eng, 0);
    eng.recover_node(NodeId(3));
    eng.inject(NodeId(1), NodeId(3), vec![9; 40]);
    eng.set_loss_prob(0.0);
    for _ in 0..8 {
        let n = eng.run_until_idle(64);
        mark(&eng, n);
    }
    eng.fail_node(NodeId(6));
    eng.recover_node(NodeId(6));
    eng.set_loss_prob(0.02);
    // A budgeted probe loop to the end: where it stops — after which
    // event counts, at which instants — is pinned by `STEPS_AT_PARENT`.
    loop {
        let n = eng.run_until_idle(64);
        mark(&eng, n);
        if n == 0 {
            break;
        }
    }
    let (events, now) = (eng.events_executed(), eng.now().as_nanos());
    // Nothing is pending: running on executes no window, only moves the
    // clock.
    let windows = eng.shard_windows();
    assert_eq!(windows, WINDOWS_AT_PARENT);
    eng.run_until(eng.now() + SimDuration::from_millis(1));
    assert_eq!(eng.shard_windows(), windows, "an idle run counted a window");
    assert_eq!(eng.now().as_nanos(), now + 1_000_000);
    assert_eq!(eng.shard_barrier_rounds(), 0);

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut handled = 0u64;
    for i in 0..NODES {
        for &(now, node, what) in &eng.actor::<Mixer>(NodeId(i)).trace {
            fnv(&mut hash, now);
            fnv(&mut hash, u64::from(node));
            fnv(&mut hash, what);
            handled += 1;
        }
    }
    assert!(handled > 2_000, "scenario too small: {handled} handlers");
    (hash, events, now, steps, eng)
}

/// Captured at `45275de`: `(trace hash, events_executed, now)`.
const MIXED_AT_PARENT: (u64, u64, u64) = (0xbacd_1c27_b0e8_9118, 19_451, 3_746_661);

/// What the driver saw at `45275de` (whose pins before the re-capture
/// were those of `ecc66a5`, the last engine with a multi-shard window
/// loop, at 1, 2 and 4 shards): the first 25 checkpoints — the two
/// `run_until` calls, the eight budgeted steps after node 3 recovers,
/// the first fifteen of the final probe loop — then the length and FNV
/// hash of all of them, and the lifetime window count.
const STEPS_AT_PARENT: [Checkpoint; 25] = [
    (0, 150_000, 859),
    (0, 220_000, 1_198),
    (71, 231_819, 1_269),
    (70, 243_559, 1_339),
    (68, 254_976, 1_407),
    (84, 272_560, 1_491),
    (71, 289_576, 1_562),
    (64, 306_640, 1_626),
    (77, 318_945, 1_703),
    (90, 336_066, 1_793),
    (65, 347_232, 1_858),
    (85, 364_678, 1_943),
    (68, 376_064, 2_011),
    (81, 387_507, 2_092),
    (78, 399_064, 2_170),
    (101, 410_496, 2_271),
    (76, 421_949, 2_347),
    (84, 433_473, 2_431),
    (67, 451_324, 2_498),
    (81, 468_884, 2_579),
    (80, 480_404, 2_659),
    (100, 497_288, 2_759),
    (76, 508_760, 2_835),
    (67, 525_553, 2_902),
    (68, 543_832, 2_970),
];
const ALL_STEPS_AT_PARENT: (usize, u64) = (231, 0x9997_d205_fac7_e7d1);
const WINDOWS_AT_PARENT: u64 = 597;

#[test]
fn mixed_scenario_matches_the_parent_engine() {
    let (hash, events, now, steps, eng) = run_mixed();
    assert_eq!(
        (hash, events, now),
        MIXED_AT_PARENT,
        "logical event sequence moved"
    );
    assert_eq!(
        steps[..STEPS_AT_PARENT.len()],
        STEPS_AT_PARENT,
        "the driver's view between runs moved"
    );
    let mut steps_hash = 0xcbf2_9ce4_8422_2325;
    for &(ret, now, events) in &steps {
        fnv(&mut steps_hash, ret);
        fnv(&mut steps_hash, now);
        fnv(&mut steps_hash, events);
    }
    assert_eq!(
        (steps.len(), steps_hash),
        ALL_STEPS_AT_PARENT,
        "a later probe step moved"
    );
    assert_eq!(eng.live_events(), 0, "drained");
    assert_eq!(eng.event_slab_free(), eng.event_slab_slots(), "slot leaked");
}

/// Kicked while a big packet is crossing its switch port: the kick arms
/// a timer, the packet's handler cancels it. Records what ran when.
struct Fallback {
    fire_at: Option<SimTime>,
    timer: Option<TimerId>,
    ran: Vec<(u64, &'static str)>,
}

impl Actor<Vec<u8>> for Fallback {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _from: NodeId, _msg: Vec<u8>) {
        self.ran.push((ctx.now().as_nanos(), "packet"));
        if let Some(id) = self.timer.take() {
            ctx.cancel_timer(id);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
        if tag == START_TAG {
            self.ran.push((ctx.now().as_nanos(), "kick"));
            if let Some(t) = self.fire_at {
                self.timer = Some(ctx.set_timer(t - ctx.now(), 7));
            }
        } else {
            self.ran.push((ctx.now().as_nanos(), "timer"));
        }
    }
}

/// The one case where a handler may *not* run the moment its packet
/// arrives at an idle node. The packet's arrival event is stamped (by the
/// receiver) when it reaches the switch port, ~800 µs before it lands; in
/// between, the receiver is kicked and arms a timer for the very
/// nanosecond of the landing. The timer's key then sits between the
/// arrival's and its `Process`'s, so the timer *fires* (joins the queue)
/// before the packet's handler runs — and that handler's cancel comes too
/// late. An engine that ran the handler straight from the arrival would
/// cancel the timer in the heap instead.
#[test]
fn timer_stamped_between_an_arrival_and_its_process_still_fires() {
    let run = |fire_at: Option<SimTime>| {
        let mut eng = Engine::new(NetConfig::gigabit(), 1);
        let rx = eng.add_node(
            "rx",
            Box::new(Fallback {
                fire_at,
                timer: None,
                ran: Vec::new(),
            }),
        );
        let tx = eng.add_node(
            "tx",
            Box::new(Fallback {
                fire_at: None,
                timer: None,
                ran: Vec::new(),
            }),
        );
        eng.inject(tx, rx, vec![0; 100 * 1024]);
        eng.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        eng.kick(rx);
        eng.run_until_idle(u64::MAX);
        let ran = eng.actor::<Fallback>(rx).ran.clone();
        (ran, eng.events_executed())
    };
    // First pass: learn when the packet lands.
    let (ran, _) = run(None);
    let names: Vec<&str> = ran.iter().map(|r| r.1).collect();
    assert_eq!(names, ["kick", "packet"]);
    let landing = ran[1].0;
    assert!(ran[0].0 < landing);
    // Second pass: the kick arms the timer for that nanosecond.
    let (ran, events) = run(Some(SimTime::from_nanos(landing)));
    let names: Vec<&str> = ran.iter().map(|r| r.1).collect();
    assert_eq!(names, ["kick", "packet", "timer"], "the parent's outcome");
    assert_eq!((ran[1].0, ran[2].0), (landing, landing));
    // Packet: switch port, arrival, process; kick and timer: fire, process.
    assert_eq!(events, 7);
}

/// Returns every message to its sender until `left` runs out.
struct Bouncer {
    peer: NodeId,
    left: u32,
}

impl Actor<Vec<u8>> for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, from: NodeId, msg: Vec<u8>) {
        ctx.use_cpu(SimDuration::from_micros(5));
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _tag: u64) {
        ctx.send(self.peer, vec![0; 150]);
    }
}

/// A hop is three logical events — switch port, landing, `Process` — and
/// stays three in `events_executed()`; on an idle receiver the third runs
/// inline, so the heap sees two entries per hop, not three.
#[test]
fn an_uncontended_hop_is_three_events_and_two_heap_entries() {
    let mut eng = Engine::new(NetConfig::gigabit(), 1);
    let a = eng.add_node(
        "a",
        Box::new(Bouncer {
            peer: NodeId(1),
            left: 500,
        }),
    );
    let b = eng.add_node("b", Box::new(Bouncer { peer: a, left: 500 }));
    eng.kick(a);
    eng.run_until_idle(u64::MAX);
    let hops = eng.packets_sent();
    assert_eq!(hops, 1_001);
    assert_eq!(eng.actor::<Bouncer>(b).left, 0);
    // The kick is a timer fire and its `Process`.
    assert_eq!(eng.events_executed(), 3 * hops + 2);
    assert_eq!(eng.inline_dispatches(), hops + 1);
    assert!(
        eng.heap_pushes() <= 2 * hops + 1,
        "{} heap entries for {hops} hops",
        eng.heap_pushes()
    );
}
