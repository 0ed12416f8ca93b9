//! Per-layer probes of a traced run: tight loops over one public function
//! of one layer, on the workload's own identifiers or final state, with
//! seeded arguments. They run after the timed region, so they cost the
//! end-to-end metrics nothing.

use crate::stats;
use crate::sys::CpuTimes;
use crate::{labels, ratio, Outcome};
use oscar_keydist::{GnutellaKeys, KeyDistribution};
use oscar_protocol::{Command, FaultPlan, Message, ProtocolDriver};
use oscar_ring::Ring;
use oscar_runtime::{Runtime, RuntimeStats};
use oscar_sim::{
    route_to_owner, DesDriver, EventQueue, Network, PeerIdx, RoutePolicy, WalkConfig, Walker,
};
use oscar_types::{Arc, Id, SeedTree};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Timer-round budget of the `settle` probes (the churn engine's own).
const SETTLE_ROUNDS: u64 = 4096;

/// Mean nanoseconds per call of `f` over `ops` calls.
fn ns_per_op(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Operations per micro-probe: a million at the declared sizes, fewer on
/// a smoke-sized ring.
fn micro_ops(n: usize) -> usize {
    (100 * n).clamp(1_000, 1_000_000)
}

/// `ring.*`, `types.*`, `keydist.*`, `events.*` and `fault.*`: layers
/// every workload sits on, probed on a ring holding the workload's ids.
pub fn micro(out: &mut Outcome, ids: &[Id], seed: SeedTree) {
    let n = ids.len();
    let ops = micro_ops(n);
    let mut rng = seed.child(labels::IDS).rng();
    let mut ring = Ring::from_ids(ids.to_vec());
    let pick = |rng: &mut rand::rngs::SmallRng| ids[rng.gen_range(0..n)];

    // Insert and remove in blocks, so the ring stays at its own size.
    const BLOCK: usize = 1000;
    let (mut insert_ns, mut remove_ns) = (0u128, 0u128);
    let blocks = ops.div_ceil(BLOCK);
    for _ in 0..blocks {
        let fresh: Vec<Id> = (0..BLOCK).map(|_| Id::new(rng.gen::<u64>())).collect();
        let t = Instant::now();
        for &id in &fresh {
            black_box(ring.insert(id));
        }
        insert_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for &id in &fresh {
            black_box(ring.remove(id));
        }
        remove_ns += t.elapsed().as_nanos();
    }
    out.set("ring.insert_ns", insert_ns as f64 / (blocks * BLOCK) as f64);
    out.set("ring.remove_ns", remove_ns as f64 / (blocks * BLOCK) as f64);

    let keys: Vec<Id> = (0..ops).map(|_| Id::new(rng.gen::<u64>())).collect();
    let members: Vec<Id> = (0..ops).map(|_| pick(&mut rng)).collect();
    let steps: Vec<usize> = (0..ops).map(|_| rng.gen_range(0..n)).collect();
    let arcs: Vec<Arc> = (0..ops)
        .map(|_| Arc::between(pick(&mut rng), pick(&mut rng)))
        .collect();
    out.set(
        "ring.owner_of_ns",
        ns_per_op(ops, |i| {
            black_box(ring.owner_of(keys[i]));
        }),
    );
    out.set(
        "ring.successor_of_ns",
        ns_per_op(ops, |i| {
            black_box(ring.successor_of(members[i]));
        }),
    );
    out.set(
        "ring.nth_clockwise_ns",
        ns_per_op(ops, |i| {
            black_box(ring.nth_clockwise_of(members[i], steps[i]));
        }),
    );
    out.set(
        "ring.median_in_arc_ns",
        ns_per_op(ops, |i| {
            black_box(ring.median_in_arc(&arcs[i]));
        }),
    );
    out.set(
        "ring.count_in_arc_ns",
        ns_per_op(ops, |i| {
            black_box(ring.count_in_arc(&arcs[i]));
        }),
    );

    out.set(
        "types.seed_child_rng_ns",
        ns_per_op(ops, |i| {
            black_box(seed.child2(labels::PROBE, i as u64).rng());
        }),
    );
    let gnutella = GnutellaKeys::default();
    out.set(
        "keydist.gnutella_sample_ns",
        ns_per_op(ops, |_| {
            black_box(gnutella.sample(&mut rng));
        }),
    );

    // One pop and one schedule at a standing depth of 10⁴ events.
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..10_000u64 {
        queue.schedule_in(rng.gen_range(1..1000), i);
    }
    let delays: Vec<u64> = (0..ops).map(|_| rng.gen_range(1..1000)).collect();
    out.set(
        "events.schedule_pop_ns",
        ns_per_op(ops, |i| {
            let (_, payload) = queue.pop().expect("the queue never drains");
            queue.schedule_in(delays[i], black_box(payload));
        }),
    );

    let plan = FaultPlan::new(seed.seed()).with_drop(0.01);
    out.set(
        "fault.decide_ns",
        ns_per_op(ops, |i| {
            let msg = Message::Ping { nonce: i as u64 };
            black_box(plan.decide(members[i], keys[i], &msg));
        }),
    );
}

/// `network.*`, `walker.*` and `routing.*` on a grown network.
pub fn network(out: &mut Outcome, net: &Network, seed: SeedTree) {
    let n = net.len();
    let ops = micro_ops(n);
    let mut rng = seed.child(labels::QUERY).rng();
    let peers: Vec<PeerIdx> = (0..ops)
        .map(|_| PeerIdx(rng.gen_range(0..n) as u32))
        .collect();
    out.set(
        "network.walk_degree_ns",
        ns_per_op(ops, |i| {
            black_box(net.walk_degree(peers[i], None));
        }),
    );

    let samples = ops / 50;
    let mut walker = Walker::new(net, WalkConfig::default());
    let t = Instant::now();
    for &start in &peers[..samples] {
        black_box(walker.sample(start, None, &mut rng).expect("live start"));
    }
    let walk_ns = t.elapsed().as_nanos() as f64;
    let steps = walker.take_steps() as f64;
    out.set("walker.sample_ns", walk_ns / samples as f64);
    out.set("walker.step_ns", ratio(walk_ns, steps));
    out.set("walker.steps_per_sample", steps / samples as f64);

    let routes = ops / 5;
    let policy = RoutePolicy::default();
    let (mut hops, mut cost) = (0u64, 0u64);
    let t = Instant::now();
    for pair in peers[..2 * routes].chunks_exact(2) {
        let outcome = route_to_owner(net, pair[0], net.peer(pair[1]).id, &policy);
        hops += outcome.hops as u64;
        cost += outcome.cost() as u64;
    }
    let route_ns = t.elapsed().as_nanos() as f64;
    out.set("routing.route_ns", route_ns / routes as f64);
    out.set("routing.ns_per_hop", ratio(route_ns, hops as f64));
    out.set("routing.hops_mean", cost as f64 / routes as f64);
}

/// Identifiers no fleet holds, for the spawn and remove probes.
fn fresh_ids(seed: SeedTree, taken: &[Id], count: usize) -> Vec<Id> {
    let mut rng = seed.child(labels::FLEET).rng();
    std::iter::repeat_with(|| Id::new(rng.gen::<u64>()))
        .filter(|id| taken.binary_search(id).is_err())
        .take(count)
        .collect()
}

/// `des.*` call costs on a settled DES fleet. The fleet is left as found.
pub fn des(out: &mut Outcome, des: &mut DesDriver, seed: SeedTree) {
    const CALLS: usize = 200;
    ProtocolDriver::settle(des, SETTLE_ROUNDS);
    out.set(
        "des.settle_idle_ns",
        ns_per_op(CALLS, |_| {
            black_box(ProtocolDriver::settle(des, SETTLE_ROUNDS));
        }),
    );
    out.set(
        "des.peer_ids_ns",
        ns_per_op(CALLS, |_| {
            black_box(ProtocolDriver::peer_ids(des));
        }),
    );
    let fresh = fresh_ids(seed, &des.peer_ids(), 1000);
    out.set(
        "des.spawn_peer_ns",
        ns_per_op(fresh.len(), |i| ProtocolDriver::spawn_peer(des, fresh[i])),
    );
    out.set(
        "des.remove_peer_ns",
        ns_per_op(fresh.len(), |i| ProtocolDriver::remove_peer(des, fresh[i])),
    );
}

/// `runtime.*` rates from two reads of the runtime's counters `wall_s`
/// apart, during which the process used `cpu`. Returns the busy time per
/// message, for the caller to take the protocol's own time out of.
pub fn runtime_counters(
    out: &mut Outcome,
    before: &RuntimeStats,
    after: &RuntimeStats,
    wall_s: f64,
    cpu: &CpuTimes,
) -> f64 {
    let delivered = (after.delivered - before.delivered) as f64;
    let busy_ns: u64 = after
        .busy_ns
        .iter()
        .zip(&before.busy_ns)
        .map(|(a, b)| a - b)
        .sum();
    let per_worker: Vec<f64> = after
        .per_worker_msgs
        .iter()
        .zip(&before.per_worker_msgs)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
    let spread = per_worker.iter().copied().fold(f64::MIN, f64::max)
        - per_worker.iter().copied().fold(f64::MAX, f64::min);
    let busy_ns_per_msg = ratio(busy_ns as f64, delivered);
    out.set("runtime.msgs_per_s", delivered / wall_s);
    out.set("runtime.busy_ns_per_msg", busy_ns_per_msg);
    out.set("runtime.cores_busy", busy_ns as f64 / (wall_s * 1e9));
    out.set("runtime.sys_cpu_share", ratio(cpu.sys_s, cpu.total()));
    out.set("runtime.worker_imbalance", ratio(spread, mean));
    busy_ns_per_msg
}

/// `runtime.*` call costs on a quiescent runtime fleet, which is shut
/// down afterwards.
pub fn runtime(out: &mut Outcome, mut rt: Runtime, seed: SeedTree) {
    const CALLS: usize = 200;
    ProtocolDriver::settle(&mut rt, SETTLE_ROUNDS);
    rt.drain_events();
    out.set(
        "runtime.settle_idle_us",
        ns_per_op(CALLS, |_| {
            black_box(ProtocolDriver::settle(&mut rt, SETTLE_ROUNDS));
        }) / 1e3,
    );
    out.set(
        "runtime.peer_ids_ns",
        ns_per_op(CALLS, |_| {
            black_box(rt.peer_ids());
        }),
    );
    out.set(
        "runtime.drain_events_ns",
        ns_per_op(CALLS, |_| {
            black_box(rt.drain_events());
        }),
    );

    // The churn engine's unit of work: one command, then wait for silence.
    let live = rt.peer_ids();
    let mut rng = seed.child(labels::QUERY).rng();
    let round_trips_us: Vec<f64> = (0..500)
        .map(|_| {
            let id = live[rng.gen_range(0..live.len())];
            let t = Instant::now();
            rt.inject(id, Command::ProbeRing);
            ProtocolDriver::settle(&mut rt, SETTLE_ROUNDS);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    rt.drain_events();
    out.set("runtime.settle_one_us_p50", stats::median(&round_trips_us));
    out.set(
        "runtime.settle_one_us_p90",
        stats::percentile(&round_trips_us, 90),
    );

    let fresh = fresh_ids(seed, &live, 1000);
    out.set(
        "runtime.spawn_peer_ns",
        ns_per_op(fresh.len(), |i| rt.spawn_peer(fresh[i])),
    );
    for id in fresh {
        rt.remove_peer(id);
    }
}
