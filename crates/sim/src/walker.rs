//! Random-walk peer sampling (the Mercury technique, plus Oscar's
//! sub-population restriction).
//!
//! Oscar's median estimation needs (near-)uniform samples from arbitrary
//! sub-populations of peers without any global knowledge. The mechanism is
//! a random walk over the overlay graph:
//!
//! * walks traverse the **undirected** link graph (ring + long-range links
//!   in either direction) — a link is a connection both endpoints can use;
//! * a **Metropolis–Hastings** correction (move `u → v` accepted with
//!   probability `min(1, deg(u)/deg(v))`) makes the stationary distribution
//!   uniform over peers despite degree heterogeneity — without it, spiky
//!   degree distributions would bias every estimate toward hubs;
//! * for sub-population sampling, the walk simply refuses to leave the
//!   identifier arc ("random walkers which do not visit nodes with
//!   identifiers that do not belong to the current population", §2 of the
//!   paper). The induced subgraph always contains the arc's ring path, so
//!   it is connected and the restricted walk converges on the arc.
//!
//! How far a sample walks depends on where it starts. The MH walk's
//! stationary distribution is uniform, so a walk that starts at a peer
//! already drawn uniformly from the arc stays uniform at any length: its
//! steps only decorrelate the sample from its start, and
//! `UNIFORM_START_STEPS` of them do. A walk from a fixed entry (the
//! successor, a partition border) must first mix, and walks `BURN_IN` steps.
//!
//! The `count` walks of one [`sample_peers`] call advance together, as
//! the lanes of `Network::walk_lanes`, so that their cache misses
//! overlap. Each lane draws from its own `SmallRng`, seeded from one draw
//! of the caller's stream, in lane order: the caller's stream pays
//! exactly `count` draws per call, and a lane's walk does not depend on
//! how many lanes step beside it. [`Walker::sample`] is the one-lane
//! call, drawing from the caller's stream itself.
//!
//! Every step is a simulated message ([`MsgKind::WalkStep`]); rejected MH
//! moves and forced stays still consume a step, because the probe that
//! discovered the rejection travelled the wire.

use crate::metrics::MsgKind;
use crate::network::Network;
use crate::peer::PeerIdx;
use oscar_types::{Arc, Error, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random-walk parameters of a [`Walker`].
#[derive(Copy, Clone, Debug)]
pub struct WalkConfig {
    /// Steps a walk takes before emitting a sample (`BURN_IN` by default).
    pub burn_in: u32,
}

/// Steps a walk from a fixed entry takes before emitting a sample: the
/// mixing time from a start that is not a uniform draw. The graph is an
/// expander once long links exist, so a few dozen steps suffice; this is
/// the `O(log N)`-ish walk length Mercury uses.
const BURN_IN: u32 = 24;

/// Steps a walk takes from a start already uniform over its arc. Such a
/// walk needs no mixing, only enough steps that the samples drawn from one
/// start are not that start over again.
const UNIFORM_START_STEPS: u32 = 6;

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig { burn_in: BURN_IN }
    }
}

/// A reusable sampler bound to a network snapshot.
pub struct Walker<'a> {
    net: &'a Network,
    cfg: WalkConfig,
    /// Walk steps consumed since the last [`Walker::take_steps`] call.
    steps: u64,
}

impl<'a> Walker<'a> {
    /// New sampler over `net`.
    pub fn new(net: &'a Network, cfg: WalkConfig) -> Self {
        Walker { net, cfg, steps: 0 }
    }

    /// Steps consumed since last drained; the caller credits them to
    /// [`MsgKind::WalkStep`] if it wants them counted (a walker leaves
    /// the network's metrics alone).
    pub fn take_steps(&mut self) -> u64 {
        std::mem::take(&mut self.steps)
    }

    /// One (near-)uniform sample from the peers of `arc` (or the whole
    /// live network when `arc` is `None`): a walk of
    /// [`WalkConfig::burn_in`] steps from `start`, drawing from `rng`.
    ///
    /// `start` must be live and inside the arc — callers reach an entry
    /// point by ring routing first (counted separately).
    pub fn sample(
        &mut self,
        start: PeerIdx,
        arc: Option<&Arc>,
        rng: &mut SmallRng,
    ) -> Result<PeerIdx> {
        check_start(self.net, start, arc)?;
        let (mut at, steps) = ([start], self.cfg.burn_in);
        self.net
            .walk_lanes(arc, steps, &mut at, std::slice::from_mut(rng));
        self.steps += u64::from(steps);
        Ok(at[0])
    }
}

/// Validates a walk start: live, and inside the arc.
fn check_start(net: &Network, start: PeerIdx, arc: Option<&Arc>) -> Result<()> {
    if !net.is_alive(start) {
        return Err(Error::PeerDead(start.as_usize()));
    }
    if let Some(a) = arc {
        if !a.contains(net.peer(start).id) {
            return Err(Error::SamplingFailed {
                reason: "walk start outside the restricted arc",
            });
        }
    }
    Ok(())
}

/// `count` samples of `arc` (or of the whole live network when `arc` is
/// `None`), each a fresh walk, with the walk steps credited to the
/// network's metrics.
///
/// `uniform` holds peers already drawn uniformly from the same arc. When
/// it is empty, every sample walks `BURN_IN` steps from `entry`; otherwise
/// sample `k` walks `UNIFORM_START_STEPS` from `uniform[k % len]` and
/// `entry` is not used. Sample `k` is lane `k` of one
/// `Network::walk_lanes` call, on a stream seeded from the `k`-th of
/// `count` draws from `rng`.
///
/// Every start must be live and inside the arc. All starts are checked
/// before any lane steps: if one is not, the first such start's `Err` is
/// returned, no step is taken or credited, and `rng` is not drawn from.
pub fn sample_peers(
    net: &Network,
    entry: PeerIdx,
    arc: Option<&Arc>,
    count: usize,
    uniform: &[PeerIdx],
    rng: &mut SmallRng,
) -> Result<Vec<PeerIdx>> {
    let (steps, mut at) = match uniform {
        [] => (BURN_IN, vec![entry; count]),
        _ => {
            let starts = uniform.iter().cycle().take(count).copied();
            (UNIFORM_START_STEPS, starts.collect())
        }
    };
    for &start in &at {
        check_start(net, start, arc)?;
    }
    let mut rngs: Vec<SmallRng> = (0..count)
        .map(|_| SmallRng::seed_from_u64(rng.gen()))
        .collect();
    net.walk_lanes(arc, steps, &mut at, &mut rngs);
    net.metrics
        .add(MsgKind::WalkStep, count as u64 * u64::from(steps));
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::FaultModel;
    use oscar_degree::DegreeCaps;
    use oscar_types::{Id, SeedTree};

    /// Ring of n evenly spaced peers with `extra` random long links each.
    fn test_net(n: u64, extra: usize, seed: u64) -> Network {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let step = u64::MAX / n;
        let idxs: Vec<PeerIdx> = (0..n)
            .map(|i| {
                net.add_peer(Id::new(i * step), DegreeCaps::symmetric(64))
                    .unwrap()
            })
            .collect();
        let mut rng = SeedTree::new(seed).rng();
        for &i in &idxs {
            for _ in 0..extra {
                let j = idxs[rng.gen_range(0..idxs.len())];
                let _ = net.try_link(i, j);
            }
        }
        net
    }

    #[test]
    fn unrestricted_sampling_is_roughly_uniform() {
        let net = test_net(64, 4, 1);
        let mut walker = Walker::new(&net, WalkConfig { burn_in: 48 });
        let mut rng = SeedTree::new(2).rng();
        let mut counts = vec![0u32; 64];
        let trials = 6400;
        for _ in 0..trials {
            let s = walker.sample(PeerIdx(0), None, &mut rng).unwrap();
            counts[s.as_usize()] += 1;
        }
        // Expect 100 per peer; demand every peer sampled and no peer > 4x.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 20, "peer {i} sampled {c} times (starved)");
            assert!(c < 400, "peer {i} sampled {c} times (hub bias)");
        }
    }

    #[test]
    fn mh_correction_bounds_hub_bias() {
        // Build a star-ish topology: peer 0 is a hub with many in-links.
        // An uncorrected walk visits a peer in proportion to its degree,
        // and the hub's is ten times anyone else's; MH must keep its
        // share near uniform.
        let mut net = test_net(32, 0, 3);
        let hub = PeerIdx(0);
        for i in 1..32u32 {
            let _ = net.try_link(PeerIdx(i), hub);
        }
        let trials = 4000;
        let mut walker = Walker::new(&net, WalkConfig { burn_in: 16 });
        let mut rng = SeedTree::new(4).rng();
        let at_hub = (0..trials)
            .filter(|_| walker.sample(PeerIdx(7), None, &mut rng).unwrap() == hub)
            .count();
        let uniform = trials / 32;
        assert!(
            at_hub > uniform / 2 && at_hub < uniform * 2,
            "hub share must stay within 2x of 1/32: {at_hub} of {trials}"
        );
    }

    #[test]
    fn restricted_walk_never_leaves_arc() {
        let net = test_net(64, 4, 5);
        // Arc covering roughly a quarter of the ring.
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 4));
        let start = net.idx_of(Id::new(0)).unwrap();
        let mut walker = Walker::new(&net, WalkConfig::default());
        let mut rng = SeedTree::new(6).rng();
        for _ in 0..500 {
            let s = walker.sample(start, Some(&arc), &mut rng).unwrap();
            assert!(arc.contains(net.peer(s).id), "escaped the arc");
        }
    }

    #[test]
    fn restricted_walk_covers_arc_members() {
        let net = test_net(64, 4, 7);
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let start = net.idx_of(Id::new(0)).unwrap();
        let mut walker = Walker::new(&net, WalkConfig { burn_in: 48 });
        let mut rng = SeedTree::new(8).rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(walker.sample(start, Some(&arc), &mut rng).unwrap());
        }
        // 32 members in the arc; a healthy walk reaches nearly all.
        assert!(seen.len() >= 28, "only {} members reached", seen.len());
    }

    #[test]
    fn single_member_arc_returns_start() {
        let net = test_net(16, 2, 9);
        let start = net.idx_of(Id::new(0)).unwrap();
        let tiny = Arc::between(Id::new(0), Id::new(1)); // only peer 0
        let mut walker = Walker::new(&net, WalkConfig::default());
        let mut rng = SeedTree::new(10).rng();
        assert_eq!(walker.sample(start, Some(&tiny), &mut rng).unwrap(), start);
    }

    #[test]
    fn start_outside_arc_errors() {
        let net = test_net(16, 2, 11);
        let start = net.idx_of(Id::new(0)).unwrap();
        let far = Arc::between(Id::new(u64::MAX / 2), Id::new(u64::MAX / 2 + 1000));
        let mut walker = Walker::new(&net, WalkConfig::default());
        let mut rng = SeedTree::new(12).rng();
        assert!(matches!(
            walker.sample(start, Some(&far), &mut rng),
            Err(Error::SamplingFailed { .. })
        ));
    }

    #[test]
    fn dead_start_errors() {
        let mut net = test_net(16, 2, 13);
        let start = net.idx_of(Id::new(0)).unwrap();
        net.kill(start).unwrap();
        let mut walker = Walker::new(&net, WalkConfig::default());
        let mut rng = SeedTree::new(14).rng();
        assert!(matches!(
            walker.sample(start, None, &mut rng),
            Err(Error::PeerDead(_))
        ));
    }

    #[test]
    fn walks_avoid_dead_peers() {
        let mut net = test_net(32, 4, 15);
        // Kill a third of the network.
        let victims: Vec<PeerIdx> = (0..32).step_by(3).map(PeerIdx).collect();
        for v in &victims {
            if v.as_usize() != 1 {
                let _ = net.kill(*v);
            }
        }
        let start = PeerIdx(1);
        let mut walker = Walker::new(&net, WalkConfig::default());
        let mut rng = SeedTree::new(16).rng();
        for _ in 0..300 {
            let s = walker.sample(start, None, &mut rng).unwrap();
            assert!(net.is_alive(s));
        }
    }

    #[test]
    fn steps_are_accounted() {
        let net = test_net(16, 2, 17);
        let mut walker = Walker::new(&net, WalkConfig { burn_in: 10 });
        let mut rng = SeedTree::new(18).rng();
        for _ in 0..5 {
            walker.sample(PeerIdx(0), None, &mut rng).unwrap();
        }
        assert_eq!(walker.take_steps(), 50, "5 walks x 10 steps");
        assert_eq!(walker.take_steps(), 0, "drained");
    }

    #[test]
    fn restricted_walk_among_corpses_is_accounted_live_and_uniform() {
        // Coverage of the walk under a restriction with corpses inside
        // it: exact step accounting, every sample live and in the arc,
        // and near-uniformity over the restricted population.
        let mut net = test_net(64, 4, 21);
        for v in [3u32, 9, 27] {
            net.kill(PeerIdx(v)).unwrap();
        }
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let cfg = WalkConfig::default();
        let mut walker = Walker::new(&net, cfg);
        let mut rng = SeedTree::new(22).rng();
        let mut counts = std::collections::HashMap::new();
        let trials = 3000;
        for _ in 0..trials {
            let s = walker.sample(PeerIdx(0), Some(&arc), &mut rng).unwrap();
            assert!(net.is_alive(s));
            assert!(arc.contains(net.peer(s).id));
            *counts.entry(s).or_insert(0u32) += 1;
        }
        assert_eq!(walker.take_steps(), trials * cfg.burn_in as u64);
        // ~29 live members in the half arc → ~100 samples each.
        assert!(counts.len() >= 26, "starved");
        assert!(counts.values().all(|&c| c < 400), "hub bias");
    }

    #[test]
    fn cache_sees_membership_and_link_changes() {
        // After each mutation kind, and walks in between, the cached
        // degree/pick view must agree with a fresh `walk_neighbors_into`
        // collection for every live peer.
        let mut net = test_net(32, 3, 23);
        let check = |net: &Network, seed: u64| {
            let mut walker = Walker::new(net, WalkConfig::default());
            let mut rng = SeedTree::new(seed).rng();
            for _ in 0..10 {
                let s = walker.sample(PeerIdx(1), None, &mut rng).unwrap();
                assert!(net.is_alive(s));
            }
            let mut plain = Vec::new();
            for p in net.all_peers().filter(|&p| net.is_alive(p)) {
                net.walk_neighbors_into(p, &mut plain);
                plain.retain(|&c| net.is_alive(c));
                let deg = plain.len();
                assert_eq!(net.walk_degree(p, None), deg, "peer {p:?}");
                let mut picks: Vec<PeerIdx> = (0..deg).map(|k| net.walk_pick(p, None, k)).collect();
                picks.sort_unstable();
                plain.sort_unstable();
                assert_eq!(picks, plain, "peer {p:?}");
            }
        };
        check(&net, 31);
        net.kill(PeerIdx(5)).unwrap();
        check(&net, 32);
        net.try_link(PeerIdx(1), PeerIdx(9)).unwrap();
        check(&net, 33);
        net.unlink_long_out(PeerIdx(1));
        check(&net, 34);
        net.depart(PeerIdx(7)).unwrap();
        check(&net, 35);
        net.add_peer(Id::new(12345), DegreeCaps::symmetric(64))
            .unwrap();
        check(&net, 36);
        net.set_fault_model(FaultModel::UnstabilizedRing);
        check(&net, 37);
    }

    /// Total-variation distance from uniform over the half-ring arc's
    /// members of 6 400 walks of `UNIFORM_START_STEPS` steps, `lanes` to
    /// a call: `sample_peers` draws from uniformly drawn members or, when
    /// `uniform_starts` is false, `Network::walk_lanes` calls from the
    /// arc's first peer, seeded as `sample_peers` seeds its lanes.
    fn half_ring_tv(net: &Network, uniform_starts: bool, lanes: usize, seed: u64) -> f64 {
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let members: Vec<PeerIdx> = net
            .live_peers()
            .filter(|&p| arc.contains(net.peer(p).id))
            .collect();
        let entry = net.idx_of(Id::new(0)).unwrap();
        let mut rng = SeedTree::new(seed).rng();
        let trials: usize = 6400;
        let mut counts = std::collections::HashMap::new();
        for call in 0..trials.div_ceil(lanes) {
            let count = lanes.min(trials - call * lanes);
            let got = if uniform_starts {
                let draw = |_| members[rng.gen_range(0..members.len())];
                let starts: Vec<PeerIdx> = (0..count).map(draw).collect();
                sample_peers(net, entry, Some(&arc), count, &starts, &mut rng).unwrap()
            } else {
                let mut at = vec![entry; count];
                let mut rngs: Vec<SmallRng> = (0..count)
                    .map(|_| SmallRng::seed_from_u64(rng.gen()))
                    .collect();
                net.walk_lanes(Some(&arc), UNIFORM_START_STEPS, &mut at, &mut rngs);
                at
            };
            for s in got {
                *counts.entry(s).or_insert(0usize) += 1;
            }
        }
        let uniform = 1.0 / members.len() as f64;
        let tv: f64 = members
            .iter()
            .map(|m| (counts.get(m).copied().unwrap_or(0) as f64 / trials as f64 - uniform).abs())
            .sum();
        tv / 2.0
    }

    #[test]
    fn short_walks_from_uniform_starts_stay_uniform_and_from_an_entry_do_not() {
        // The rule `sample_peers` rests on: MH's stationary distribution is
        // uniform, so a walk from a uniform start needs no burn-in. At
        // 6 400 trials over 33 members the sampling noise alone reads
        // about 0.03. It holds however many lanes step together: one, a
        // partition round's 12, and a count that is neither.
        for seed in [7, 21, 33] {
            let net = test_net(64, 4, seed);
            for lanes in [1, 7, 12] {
                let from_uniform = half_ring_tv(&net, true, lanes, seed + 100);
                let from_entry = half_ring_tv(&net, false, lanes, seed + 100);
                println!(
                    "seed {seed}, {lanes} lanes: TV {from_uniform:.3} from uniform starts, \
                     {from_entry:.3} from the entry"
                );
                assert!(
                    from_uniform < 0.05,
                    "seed {seed}, {lanes} lanes: uniform starts read TV {from_uniform:.3}"
                );
                assert!(
                    from_entry > 0.05,
                    "seed {seed}, {lanes} lanes: {UNIFORM_START_STEPS} steps from the entry \
                     already mix (TV {from_entry:.3}), so the check cannot tell"
                );
            }
        }
    }

    #[test]
    fn the_lanes_of_one_call_are_independent() {
        // Twelve lanes from one entry: were their streams related, their
        // samples would coincide more often than independent draws from
        // the samples' own distribution do, Σ p². With 33 members that is
        // about 0.03, over 33 000 lane pairs; all lanes on one stream read 1.
        let net = test_net(64, 4, 41);
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let entry = net.idx_of(Id::new(0)).unwrap();
        let mut rng = SeedTree::new(42).rng();
        let (calls, lanes) = (500, 12);
        let (mut pairs, mut equal) = (0usize, 0usize);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..calls {
            let got = sample_peers(&net, entry, Some(&arc), lanes, &[], &mut rng).unwrap();
            for (i, a) in got.iter().enumerate() {
                *counts.entry(*a).or_insert(0usize) += 1;
                for b in &got[i + 1..] {
                    pairs += 1;
                    equal += usize::from(a == b);
                }
            }
        }
        let total = (calls * lanes) as f64;
        let independent: f64 = counts.values().map(|&c| (c as f64 / total).powi(2)).sum();
        let observed = equal as f64 / pairs as f64;
        println!("equal lane pairs {observed:.4}, independent draws {independent:.4}");
        assert!(
            (observed / independent - 1.0).abs() < 0.2,
            "{observed:.4} of lane pairs agree; independent draws would agree {independent:.4}"
        );
    }

    #[test]
    fn lanes_walk_as_each_walk_would_alone() {
        // Lock-step changes when a lane's loads are issued, never what it
        // draws or where it moves: 40 lanes stepped together (two chunks)
        // end where each ends walked alone on a copy of its stream, with
        // their streams left alike. Some candidates are proposed by two
        // lanes in one step, some are neighbours of a peer killed just
        // before. About 26 neighbours a peer, so the arc counts cross
        // block edges; the second arc wraps.
        let mut net = test_net(96, 12, 45);
        let mut rng = SeedTree::new(46).rng();
        let (q1, q3) = (Id::new(u64::MAX / 4), Id::new(u64::MAX / 4 * 3));
        let arcs = [Arc::between(q1, q3), Arc::between(q3, q1)];
        for (round, arc) in [None, Some(&arcs[0]), Some(&arcs[1])]
            .into_iter()
            .enumerate()
        {
            net.kill(PeerIdx(10 * round as u32 + 5)).unwrap();
            let members: Vec<PeerIdx> = net
                .live_peers()
                .filter(|&p| arc.is_none_or(|a| a.contains(net.peer(p).id)))
                .collect();
            let starts: Vec<PeerIdx> = (0..40)
                .map(|_| members[rng.gen_range(0..members.len())])
                .collect();
            let rngs: Vec<SmallRng> = (0..40)
                .map(|_| SmallRng::seed_from_u64(rng.gen()))
                .collect();
            let (mut together, mut streams) = (starts.clone(), rngs.clone());
            net.walk_lanes(arc, 24, &mut together, &mut streams);
            let mut walker = Walker::new(&net, WalkConfig { burn_in: 24 });
            for (j, (&start, lane_rng)) in starts.iter().zip(&rngs).enumerate() {
                let mut alone = lane_rng.clone();
                let sample = walker.sample(start, arc, &mut alone).unwrap();
                assert_eq!(together[j], sample, "lane {j}, arc {arc:?}");
                assert_eq!(streams[j].gen::<u64>(), alone.gen::<u64>(), "lane {j}");
            }
        }
    }

    #[test]
    fn an_invalid_start_in_any_lane_fails_the_call_before_any_step() {
        let mut net = test_net(16, 2, 43);
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let (inside, other, outside, dead) = (PeerIdx(1), PeerIdx(3), PeerIdx(12), PeerIdx(5));
        net.kill(dead).unwrap();
        let rng = SeedTree::new(44).rng();
        for (starts, far) in [
            (vec![inside, other, outside], true),
            (vec![outside, inside], true),
            (vec![inside, dead, other], false),
        ] {
            let mut drawn = rng.clone();
            let count = starts.len();
            let got = sample_peers(&net, inside, Some(&arc), count, &starts, &mut drawn);
            match got {
                Err(Error::SamplingFailed { .. }) => assert!(far, "{starts:?}"),
                Err(Error::PeerDead(p)) => assert_eq!((far, p), (false, dead.as_usize())),
                other => panic!("{starts:?}: {other:?}"),
            }
            assert_eq!(net.metrics.get(MsgKind::WalkStep), 0, "{starts:?}");
            assert_eq!(drawn.gen::<u64>(), rng.clone().gen::<u64>(), "{starts:?}");
        }
        // A bad entry fails the same way when every lane starts from it.
        let got = sample_peers(&net, outside, Some(&arc), 4, &[], &mut rng.clone());
        assert!(matches!(got, Err(Error::SamplingFailed { .. })));
        assert_eq!(net.metrics.get(MsgKind::WalkStep), 0);
    }

    #[test]
    fn uniform_starts_walk_the_short_length_and_are_checked() {
        let mut net = test_net(16, 2, 25);
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let (inside, outside) = (PeerIdx(1), PeerIdx(12));
        let mut rng = SeedTree::new(26).rng();
        let mut from = |net: &Network, starts: &[PeerIdx], count| {
            sample_peers(net, PeerIdx(0), Some(&arc), count, starts, &mut rng)
        };
        let got = from(&net, &[inside, PeerIdx(3)], 5).unwrap();
        assert!(got.iter().all(|&s| arc.contains(net.peer(s).id)));
        assert_eq!(
            net.metrics.get(MsgKind::WalkStep),
            5 * UNIFORM_START_STEPS as u64
        );
        let far = from(&net, &[outside], 2);
        assert!(matches!(far, Err(Error::SamplingFailed { .. })));
        net.kill(inside).unwrap();
        let dead = from(&net, &[inside], 2);
        assert!(matches!(dead, Err(Error::PeerDead(_))));
    }

    #[test]
    fn sample_peers_wrapper_credits_metrics() {
        let net = test_net(16, 2, 19);
        let mut rng = SeedTree::new(20).rng();
        sample_peers(&net, PeerIdx(0), None, 3, &[], &mut rng).unwrap();
        assert_eq!(net.metrics.get(MsgKind::WalkStep), 3 * BURN_IN as u64);
    }
}
