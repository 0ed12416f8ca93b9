//! `grow` — the paper's own experiment on the snapshot world: bootstrap
//! from an 8-peer cohort, grow to n peers on Gnutella-skewed identifiers,
//! rewire everyone once, then route uniform-peer queries.
//!
//! Set-up grows the network to `n/2` with the same join loop; the timed
//! region is the second `n/2` joins (the join rate near n is what the 10⁶
//! goal scales from), one `rewire_all_peers` over all n peers, and
//! waves of `WAVE` queries through `run_query_batch`. Everything is ring,
//! walker and core work: no messages, no threads.

use crate::stats::{self, Fnv};
use crate::sys::{self, CpuTimes};
use crate::trace::{self, Recorder, Shares};
use crate::{labels, probes, ratio, Outcome, RunCfg};
use oscar_core::links::acquire_links;
use oscar_core::{estimate_partitions, OscarBuilder, OscarConfig};
use oscar_degree::{ConstantDegrees, DegreeCaps, DegreeDistribution};
use oscar_keydist::{GnutellaKeys, KeyDistribution, QueryWorkload};
use oscar_sim::{
    rewire_all_peers, run_query_batch, FaultModel, MsgKind, Network, OverlayBuilder, PeerIdx,
    RoutePolicy,
};
use oscar_types::labels::sim_growth::{LBL_REWIRE, LBL_SHUFFLE};
use oscar_types::{Id, SeedTree};
use rand::Rng;
use std::collections::HashSet;
use std::time::Instant;

/// Peers the declared workload grows to.
pub const N: usize = 10_000;
/// Queries per wave.
const WAVE: usize = 5_000;
/// The bootstrap cohort: added first, linked once all of them exist.
const COHORT: usize = 8;

/// Joins in the timed region: the second half of the growth.
fn timed_joins(n: usize) -> usize {
    n / 2
}

/// Query waves for a run sized for `seconds`.
fn waves_for(seconds: u64) -> usize {
    (30 * seconds as usize).max(1)
}

/// The generated inputs: the program under test sees only these.
struct Inputs {
    peers: Vec<(Id, DegreeCaps)>,
    seed: SeedTree,
}

fn inputs(n: usize, seed: u64) -> Inputs {
    let seed = SeedTree::new(seed);
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();
    let mut rng = seed.child(labels::IDS).rng();
    let mut seen = HashSet::with_capacity(n);
    let mut peers = Vec::with_capacity(n);
    while peers.len() < n {
        // Skewed key distributions repeat themselves; a ring takes each
        // identifier once.
        let id = keys.sample(&mut rng);
        if seen.insert(id) {
            peers.push((id, degrees.sample(&mut rng)));
        }
    }
    Inputs { peers, seed }
}

/// Joins `inputs.peers[from..to]` one at a time, the way the growth
/// driver does: the cohort is linked once complete, everyone after it on
/// arrival.
fn join_range(net: &mut Network, builder: &OscarBuilder, inputs: &Inputs, from: usize, to: usize) {
    for i in from..to {
        let (id, caps) = inputs.peers[i];
        let p = net.add_peer(id, caps).expect("generated ids are distinct");
        let link = |net: &mut Network, p: PeerIdx| {
            let mut rng = inputs.seed.child2(labels::JOIN, p.as_usize() as u64).rng();
            builder
                .build_links(net, p, &mut rng)
                .expect("link building tolerates every network size");
        };
        match net.len() {
            len if len < COHORT => {}
            COHORT => net
                .all_peers()
                .collect::<Vec<_>>()
                .into_iter()
                .for_each(|q| link(net, q)),
            _ => link(net, p),
        }
    }
}

/// `Partitions` and `LinkStats` totals over the traced link builds.
#[derive(Default)]
struct LinkCounts {
    partitions: u64,
    established: u64,
    unfilled: u64,
}

/// What one pass over the timed region measured.
struct Pass {
    join_s: f64,
    rewire_s: f64,
    query_s: f64,
    wave_ms: Vec<f64>,
    queries: u64,
    successes: u64,
    cost_sum: f64,
    query_msgs: u64,
    walk_steps_join: u64,
    links: LinkCounts,
    cpu: CpuTimes,
    digest: u64,
    net: Network,
}

/// Link building as `OscarBuilder::build_links` does it above the
/// direct-wiring size, split at its one internal boundary so a span fits
/// around each half. Same calls, same rng, same draws.
fn build_links_traced(
    net: &mut Network,
    p: PeerIdx,
    cfg: &OscarConfig,
    rng: &mut rand::rngs::SmallRng,
    rec: &mut Recorder,
    op: u64,
    counts: &mut LinkCounts,
) {
    let parts = rec.time("core.estimate_partitions", op, || {
        estimate_partitions(net, p, cfg, rng).expect("partition estimation")
    });
    let links = rec.time("core.acquire_links", op, || {
        acquire_links(net, p, &parts, cfg, rng).expect("link acquisition")
    });
    counts.partitions += parts.len() as u64;
    counts.established += links.established as u64;
    counts.unfilled += links.unfilled as u64;
}

/// Runs the timed region on `net` (the set-up state). With a recorder the
/// joins and rewires go through [`build_links_traced`]; the digest proves
/// both ways build the same overlay.
fn pass(
    mut net: Network,
    builder: &OscarBuilder,
    inputs: &Inputs,
    waves: usize,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let n = inputs.peers.len();
    let first_timed = net.len();
    assert!(
        first_timed > COHORT,
        "the split halves of build_links apply above the direct-wiring size"
    );
    let cfg = *builder.config();
    let mut links = LinkCounts::default();
    let cpu0 = CpuTimes::now();
    let root = rec.as_deref_mut().map(|r| r.open("timed", 0));

    // --- joins ------------------------------------------------------------
    let steps0 = net.metrics.get(MsgKind::WalkStep);
    let t = Instant::now();
    match rec.as_deref_mut() {
        None => join_range(&mut net, builder, inputs, first_timed, n),
        Some(rec) => {
            for i in first_timed..n {
                let op = i as u64;
                let span = rec.open("join", op);
                let (id, caps) = inputs.peers[i];
                let p = rec.time("network.add_peer", op, || {
                    net.add_peer(id, caps).expect("generated ids are distinct")
                });
                let mut rng = inputs.seed.child2(labels::JOIN, p.as_usize() as u64).rng();
                build_links_traced(&mut net, p, &cfg, &mut rng, rec, op, &mut links);
                rec.close(span);
            }
        }
    }
    let join_s = t.elapsed().as_secs_f64();
    let walk_steps_join = net.metrics.get(MsgKind::WalkStep) - steps0;

    // --- one rewire of every peer -----------------------------------------
    let rewire_seed = inputs.seed.child(labels::REWIRE);
    let t = Instant::now();
    match rec.as_deref_mut() {
        None => rewire_all_peers(&mut net, builder, rewire_seed).expect("rewire"),
        Some(rec) => {
            // `rewire_all_peers`, restated so spans fit inside it: the
            // same shuffled order and per-peer streams.
            let mut order: Vec<PeerIdx> = net.live_peers().collect();
            let mut shuffle = rewire_seed.child(LBL_SHUFFLE).rng();
            for i in (1..order.len()).rev() {
                let j = shuffle.gen_range(0..=i);
                order.swap(i, j);
            }
            for p in order {
                let op = (n + p.as_usize()) as u64;
                let span = rec.open("rewire", op);
                let mut rng = rewire_seed.child2(LBL_REWIRE, p.as_usize() as u64).rng();
                rec.time("network.unlink_long_out", op, || net.unlink_long_out(p));
                build_links_traced(&mut net, p, &cfg, &mut rng, rec, op, &mut links);
                rec.close(span);
            }
        }
    }
    let rewire_s = t.elapsed().as_secs_f64();

    // --- query waves ------------------------------------------------------
    let mut digest = Fnv::default();
    let mut wave_ms = Vec::with_capacity(waves);
    let (mut queries, mut successes, mut cost_sum) = (0u64, 0u64, 0.0f64);
    let policy = RoutePolicy::default();
    let mut rng = inputs.seed.child(labels::QUERY).rng();
    let msgs0 = net.metrics.get(MsgKind::QueryHop) + net.metrics.get(MsgKind::QueryWasted);
    let t = Instant::now();
    for w in 0..waves {
        let op = (2 * n + w) as u64;
        let span = rec.as_deref_mut().map(|r| r.open("wave", op));
        let t_wave = Instant::now();
        let batch = run_query_batch(
            &mut net,
            &QueryWorkload::UniformPeers,
            WAVE,
            &policy,
            &mut rng,
        );
        let t_end = Instant::now();
        if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
            rec.leaf("routing.run_query_batch", op, t_wave, t_end);
            rec.close(span);
        }
        wave_ms.push(t_end.duration_since(t_wave).as_secs_f64() * 1e3);
        let delivered = (batch.success_rate * batch.queries as f64).round();
        queries += batch.queries as u64;
        successes += delivered as u64;
        cost_sum += batch.mean_cost * delivered;
        digest.float(batch.mean_cost);
        digest.float(batch.success_rate);
    }
    let query_s = t.elapsed().as_secs_f64();
    let query_msgs =
        net.metrics.get(MsgKind::QueryHop) + net.metrics.get(MsgKind::QueryWasted) - msgs0;
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.close(root);
    }
    let cpu = CpuTimes::now().since(&cpu0);

    // Link fingerprint: every peer's long out-links, in peer order.
    for p in net.all_peers() {
        let peer = net.peer(p);
        digest.word(peer.id.raw());
        for &t in &peer.long_out {
            digest.word(t.0 as u64);
        }
    }
    digest.word(net.metrics.total());
    Pass {
        join_s,
        rewire_s,
        query_s,
        wave_ms,
        queries,
        successes,
        cost_sum,
        query_msgs,
        walk_steps_join,
        links,
        cpu,
        digest: digest.finish(),
        net,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let n = cfg.n.unwrap_or(N);
    let timed_joins = timed_joins(n);
    let mut out = Outcome::default();

    // --- set-up: inputs, then the first half of the joins ------------------
    let t = Instant::now();
    let inputs = inputs(n, cfg.seed);
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut base = Network::new(FaultModel::StabilizedRing);
    join_range(&mut base, &builder, &inputs, 0, n - timed_joins);
    let setup_s = t.elapsed().as_secs_f64();

    let waves = waves_for(cfg.pass_seconds());
    if !cfg.trace {
        let p = pass(base, &builder, &inputs, waves, None);
        end_to_end(&mut out, &p, n, setup_s);
        return out;
    }

    // Both passes of a traced run start from the same set-up state.
    let plain = pass(base.clone(), &builder, &inputs, waves, None);
    let mut rec = Recorder::default();
    let traced = pass(base, &builder, &inputs, waves, Some(&mut rec));
    out.check(plain.digest == traced.digest, || {
        format!(
            "the traced join and rewire loops built another overlay: digest {:016x} vs {:016x}",
            traced.digest, plain.digest
        )
    });
    checks(&mut out, &traced, n);

    let spans = rec.spans();
    let shares = Shares::of(spans);
    let share = |name: &str| shares.total(name);
    let add_peer = trace::durations_of(spans, "network.add_peer");
    let partitions = trace::durations_of(spans, "core.estimate_partitions");
    let links = trace::durations_of(spans, "core.acquire_links");
    out.set("network.add_peer_ns_p50", stats::median(&add_peer));
    out.set("network.add_peer_share", share("network.add_peer"));
    out.set("network.unlink_share", share("network.unlink_long_out"));
    out.set(
        "core.estimate_partitions_ns_p50",
        stats::median(&partitions),
    );
    out.set(
        "core.estimate_partitions_ns_p90",
        stats::percentile(&partitions, 90),
    );
    out.set("core.acquire_links_ns_p50", stats::median(&links));
    out.set("core.acquire_links_ns_p90", stats::percentile(&links, 90));
    out.set("core.partitions_share", share("core.estimate_partitions"));
    out.set("core.links_share", share("core.acquire_links"));
    out.set("routing.batch_share", share("routing.run_query_batch"));
    let self_share =
        shares.own("timed") + shares.own("join") + shares.own("rewire") + shares.own("wave");
    out.set("trace.self_share", self_share);
    let built = (timed_joins + n) as f64;
    out.set(
        "core.partitions_per_peer",
        traced.links.partitions as f64 / built,
    );
    out.set(
        "core.links_unfilled_rate",
        ratio(
            traced.links.unfilled as f64,
            (traced.links.established + traced.links.unfilled) as f64,
        ),
    );
    out.set(
        "walker.steps_per_join",
        traced.walk_steps_join as f64 / timed_joins as f64,
    );
    let plain_s = plain.join_s + plain.rewire_s + plain.query_s;
    let traced_s = traced.join_s + traced.rewire_s + traced.query_s;
    out.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    let (tail, pct) = stats::tail_percentile(&plain.wave_ms);
    out.set("wave_ms_p90", tail);
    out.note(format!(
        "wave_ms_p90 is the p{pct} of {} untraced waves",
        plain.wave_ms.len()
    ));
    out.note(format!(
        "shares of the timed region sum to {:.4} (layers {:.4} + self {:.4})",
        share("network.add_peer")
            + share("network.unlink_long_out")
            + share("core.estimate_partitions")
            + share("core.acquire_links")
            + share("routing.run_query_batch")
            + self_share,
        1.0 - self_share,
        self_share
    ));

    let probe_seed = inputs.seed.child(labels::PROBE);
    let ids: Vec<Id> = inputs.peers.iter().map(|&(id, _)| id).collect();
    probes::micro(&mut out, &ids, probe_seed);
    probes::network(&mut out, &traced.net, probe_seed);

    crate::report::write_trace(&mut out, &cfg.workload, &rec);
    out
}

/// The output checks of `grow`.
fn checks(out: &mut Outcome, p: &Pass, n: usize) {
    out.check(p.net.live_count() == n, || {
        format!("grew to {} live peers, not {n}", p.net.live_count())
    });
    out.check(p.successes == p.queries, || {
        format!(
            "{} of {} queries were not delivered",
            p.queries - p.successes,
            p.queries
        )
    });
    out.attempted = (timed_joins(n) + n) as u64 + p.queries;
    out.failed = p.queries - p.successes;
    out.digest = p.digest;
}

fn end_to_end(out: &mut Outcome, p: &Pass, n: usize, setup_s: f64) {
    checks(out, p, n);
    let waves = p.wave_ms.len() as f64;
    let wave_s = stats::median(&p.wave_ms) / 1e3;
    out.set("setup_s", setup_s);
    // The join phase and the one `rewire_all_peers` call are timed whole:
    // the cost of a join climbs by half over the phase, and a median
    // of blocks on a slope moves with whichever blocks the host slowed.
    // Routing is stationary, so its rate is the median wave's.
    out.set("joins_per_s", timed_joins(n) as f64 / p.join_s);
    out.set("rewires_per_s", n as f64 / p.rewire_s);
    out.set("routes_per_s", WAVE as f64 / wave_s);
    // The whole timed region, joins and rewires included: what a user
    // issuing queries while the overlay grows would get.
    out.set(
        "queries_per_s",
        p.queries as f64 / (p.join_s + p.rewire_s + p.query_s),
    );
    out.set("wave_ms_p50", wave_s * 1e3);
    // On this workload a window is a query wave.
    out.set("windows_per_s", 1.0 / wave_s);
    out.set("msgs_per_window", p.query_msgs as f64 / waves);
    out.set("search_cost_hops", ratio(p.cost_sum, p.successes as f64));
    out.set("delivery_rate", ratio(p.successes as f64, p.queries as f64));
    out.set("cpu_s", p.cpu.total());
    out.set("peak_rss_mb", sys::peak_rss_mb());
    out.note(format!(
        "{} joins, {n} rewires, {} waves of {WAVE} queries; routes_per_s from the median wave",
        timed_joins(n),
        waves as u64
    ));
}
