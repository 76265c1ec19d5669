//! Randomized property tests for the simulation engine: message
//! conservation, time monotonicity, and determinism across random
//! topologies and traffic.
//!
//! Driven by the in-tree seeded PRNG (`slice_sim::Rng`) instead of
//! proptest so the workspace tests offline; each property runs a fixed
//! number of cases from a pinned seed, so failures replay exactly.

use slice_sim::{Actor, Ctx, Engine, NetConfig, NodeId, Rng, SimDuration, SimTime, START_TAG};

const CASES: usize = 64;

/// Forwards each received message along a route, recording receipt times.
struct Hop {
    route: Vec<NodeId>,
    service_us: u64,
    received: Vec<(SimTime, usize)>,
}

impl Actor<Vec<u8>> for Hop {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, _from: NodeId, msg: Vec<u8>) {
        ctx.use_cpu(SimDuration::from_micros(self.service_us));
        self.received.push((ctx.now(), msg.len()));
        // Forward to the next hop named by the first byte, consuming it.
        if let Some((&next_ix, rest)) = msg.split_first() {
            if let Some(&next) = self.route.get(next_ix as usize) {
                ctx.send(next, rest.to_vec());
            }
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Vec<u8>>, _tag: u64) {}
}

/// Injects a batch of routed messages at start.
struct Source {
    batches: Vec<(NodeId, Vec<u8>)>,
}

impl Actor<Vec<u8>> for Source {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Vec<u8>>, _from: NodeId, _msg: Vec<u8>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Vec<u8>>, tag: u64) {
        if tag == START_TAG {
            for (to, msg) in self.batches.drain(..) {
                ctx.send(to, msg);
            }
        }
    }
}

fn build(
    nodes: usize,
    service_us: u64,
    routes: &[Vec<u8>],
) -> (Engine<Vec<u8>>, Vec<NodeId>, NodeId) {
    let mut eng: Engine<Vec<u8>> = Engine::new(NetConfig::gigabit(), 7);
    let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    for i in 0..nodes {
        let id = eng.add_node(
            &format!("hop{i}"),
            Box::new(Hop {
                route: ids.clone(),
                service_us,
                received: vec![],
            }),
        );
        assert_eq!(id, ids[i]);
    }
    let batches: Vec<(NodeId, Vec<u8>)> = routes
        .iter()
        .map(|r| {
            let first = NodeId(u32::from(*r.first().unwrap_or(&0)) % nodes as u32);
            let mut msg: Vec<u8> = r.iter().map(|b| b % nodes as u8).collect();
            msg.remove(0);
            (first, msg)
        })
        .collect();
    let src = eng.add_node("source", Box::new(Source { batches }));
    eng.kick(src);
    (eng, ids, src)
}

fn random_routes(rng: &mut Rng, max_routes: usize, max_len: usize) -> Vec<Vec<u8>> {
    let n = rng.gen_range(1..max_routes);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        })
        .collect()
}

/// Every injected message visits exactly `route length` hops: nothing
/// is lost, duplicated, or delivered out of causal order, and receipt
/// times are monotone per hop chain.
#[test]
fn message_conservation() {
    let mut rng = Rng::seed_from_u64(0x5349_4d01);
    for _ in 0..CASES {
        let nodes = rng.gen_range(2usize..8);
        let routes = random_routes(&mut rng, 20, 10);
        let service_us = rng.gen_range(0u64..200);
        let expected_hops: usize = routes.iter().map(|r| r.len()).sum();
        let (mut eng, ids, _src) = build(nodes, service_us, &routes);
        eng.run_until_idle(1_000_000);
        let mut total = 0usize;
        for &id in &ids {
            let hop: &Hop = eng.actor(id);
            total += hop.received.len();
            // Receipt times at a node are monotone (FIFO CPU queue).
            for w in hop.received.windows(2) {
                assert!(w[1].0 >= w[0].0);
            }
        }
        assert_eq!(total, expected_hops, "hop count mismatch");
    }
}

/// The same seed and inputs produce the identical trace.
#[test]
fn runs_are_deterministic() {
    let mut rng = Rng::seed_from_u64(0x5349_4d02);
    for _ in 0..CASES {
        let nodes = rng.gen_range(2usize..6);
        let routes = random_routes(&mut rng, 10, 8);
        let trace = |routes: &[Vec<u8>]| {
            let (mut eng, ids, _src) = build(nodes, 50, routes);
            eng.run_until_idle(1_000_000);
            let mut out = Vec::new();
            for &id in &ids {
                let hop: &Hop = eng.actor(id);
                out.extend(hop.received.iter().map(|(t, l)| (id.0, t.as_nanos(), *l)));
            }
            (out, eng.now().as_nanos(), eng.packets_sent())
        };
        assert_eq!(trace(&routes), trace(&routes));
    }
}

/// Under total loss nothing is delivered beyond the first (local)
/// injection hop, and the engine still terminates.
#[test]
fn total_loss_terminates() {
    let mut rng = Rng::seed_from_u64(0x5349_4d03);
    for _ in 0..CASES {
        let nodes = rng.gen_range(2usize..6);
        let routes = random_routes(&mut rng, 10, 8);
        let (mut eng, ids, _src) = build(nodes, 10, &routes);
        eng.set_loss_prob(1.0);
        eng.run_until_idle(1_000_000);
        for &id in &ids {
            let hop: &Hop = eng.actor(id);
            assert!(hop.received.is_empty());
        }
    }
}
