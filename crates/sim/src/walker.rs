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
//! successor, a partition border) must first mix, and walks
//! [`WalkConfig::burn_in`] steps.
//!
//! Every step is a simulated message ([`MsgKind::WalkStep`]); rejected MH
//! moves and forced stays still consume a step, because the probe that
//! discovered the rejection travelled the wire.

use crate::metrics::MsgKind;
use crate::network::Network;
use crate::peer::PeerIdx;
use oscar_protocol::logic;
use oscar_types::{Arc, Error, Result};
use rand::rngs::SmallRng;
use rand::Rng;

/// Random-walk parameters.
#[derive(Copy, Clone, Debug)]
pub struct WalkConfig {
    /// Steps a walk from a fixed entry takes before emitting a sample:
    /// the mixing time from a start that is not a uniform draw. The graph
    /// is an expander once long links exist, so a few dozen steps suffice;
    /// this is the `O(log N)`-ish walk length Mercury uses.
    pub burn_in: u32,
}

/// Steps a walk takes from a start already uniform over its arc. Such a
/// walk needs no mixing, only enough steps that the samples drawn from one
/// start are not that start over again.
const UNIFORM_START_STEPS: u32 = 6;

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig { burn_in: 24 }
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
    /// [`MsgKind::WalkStep`] (the walker holds `&Network`, so it cannot
    /// write metrics itself).
    pub fn take_steps(&mut self) -> u64 {
        std::mem::take(&mut self.steps)
    }

    /// Advances the walk by `steps` Metropolis–Hastings steps from
    /// `current`, proposing straight off the network's sorted
    /// walk-adjacency cache: the current position's arc runs are resolved
    /// once per move, every proposal is a direct index into the cached
    /// adjacency, and the candidate's runs — computed for the MH ratio —
    /// are promoted wholesale on acceptance. Two block counts over the
    /// candidate's sorted keys per step.
    fn advance(
        &mut self,
        mut current: PeerIdx,
        arc: Option<&Arc>,
        steps: u32,
        rng: &mut SmallRng,
    ) -> PeerIdx {
        let mut runs = self.net.walk_runs(current, arc);
        for _ in 0..steps {
            self.steps += 1;
            if runs.count == 0 {
                // Isolated within the restriction (single-member arc):
                // the walk stays put; the sample is `current` itself.
                continue;
            }
            let k = logic::uniform_index(runs.count, rng);
            let cand = self.net.walk_neighbor_at(current, runs, k);
            let cand_runs = self.net.walk_runs(cand, arc);
            // min(1, deg(u)/deg(v)) — uniform stationary distribution.
            // Shared kernel: the protocol crate's PeerMachine applies
            // the same rule to its token walks.
            let accept = logic::mh_accept(runs.count, cand_runs.count, || rng.gen::<f64>());
            if accept && cand_runs.count > 0 {
                current = cand;
                runs = cand_runs;
            }
        }
        current
    }

    /// Validates the walk start: live, and inside the arc.
    fn check_start(&self, start: PeerIdx, arc: Option<&Arc>) -> Result<()> {
        if !self.net.is_alive(start) {
            return Err(Error::PeerDead(start.as_usize()));
        }
        if let Some(a) = arc {
            if !a.contains(self.net.peer(start).id) {
                return Err(Error::SamplingFailed {
                    reason: "walk start outside the restricted arc",
                });
            }
        }
        Ok(())
    }

    /// One (near-)uniform sample from the peers of `arc` (or the whole
    /// live network when `arc` is `None`), starting the walk at `start`.
    ///
    /// `start` must be live and inside the arc — callers reach an entry
    /// point by ring routing first (counted separately).
    pub fn sample(
        &mut self,
        start: PeerIdx,
        arc: Option<&Arc>,
        rng: &mut SmallRng,
    ) -> Result<PeerIdx> {
        self.walk(start, arc, self.cfg.burn_in, rng)
    }

    /// A `steps`-step walk from `start`, which must be live and in the arc.
    fn walk(
        &mut self,
        start: PeerIdx,
        arc: Option<&Arc>,
        steps: u32,
        rng: &mut SmallRng,
    ) -> Result<PeerIdx> {
        self.check_start(start, arc)?;
        Ok(self.advance(start, arc, steps, rng))
    }
}

/// `count` samples of `arc` (or of the whole live network when `arc` is
/// `None`), each a fresh walk, with the walk steps credited to the
/// network's metrics (for callers holding `&mut Network`).
///
/// `uniform` holds peers already drawn uniformly from the same arc. When
/// it is empty, every sample walks `burn_in` steps from `entry`; otherwise
/// sample `k` walks `UNIFORM_START_STEPS` from `uniform[k % len]` and
/// `entry` is not used. Every start must be live and inside the arc.
pub fn sample_peers(
    net: &mut Network,
    cfg: WalkConfig,
    entry: PeerIdx,
    arc: Option<&Arc>,
    count: usize,
    uniform: &[PeerIdx],
    rng: &mut SmallRng,
) -> Result<Vec<PeerIdx>> {
    let mut walker = Walker::new(net, cfg);
    let result = (0..count)
        .map(|k| match uniform {
            [] => walker.sample(entry, arc, rng),
            _ => walker.walk(uniform[k % uniform.len()], arc, UNIFORM_START_STEPS, rng),
        })
        .collect();
    let steps = walker.take_steps();
    net.metrics.add(MsgKind::WalkStep, steps);
    result
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
        // Mutations between walks must invalidate the cache: after each
        // mutation kind, the cached degree/pick view must agree with a
        // fresh `walk_neighbors_into` collection for every live peer (walks
        // in between warm the cache so staleness would be visible).
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
        check(&net, 31); // populate the cache
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
    /// members of 6 400 `sample_peers` draws, each a walk of
    /// `UNIFORM_START_STEPS` steps from a uniformly drawn member or, when
    /// `uniform_starts` is false, from the arc's first peer.
    fn half_ring_tv(net: &mut Network, uniform_starts: bool, seed: u64) -> f64 {
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let members: Vec<PeerIdx> = net
            .live_peers()
            .filter(|&p| arc.contains(net.peer(p).id))
            .collect();
        let entry = net.idx_of(Id::new(0)).unwrap();
        let mut rng = SeedTree::new(seed).rng();
        let trials = 6400;
        let starts: Vec<PeerIdx> = if uniform_starts {
            let draw = |_| members[rng.gen_range(0..members.len())];
            (0..trials).map(draw).collect()
        } else {
            Vec::new()
        };
        let cfg = WalkConfig {
            burn_in: UNIFORM_START_STEPS,
        };
        let got = sample_peers(net, cfg, entry, Some(&arc), trials, &starts, &mut rng).unwrap();
        let mut counts = std::collections::HashMap::new();
        for s in got {
            *counts.entry(s).or_insert(0usize) += 1;
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
        // about 0.03.
        for seed in [7, 21, 33] {
            let mut net = test_net(64, 4, seed);
            let from_uniform = half_ring_tv(&mut net, true, seed + 100);
            let from_entry = half_ring_tv(&mut net, false, seed + 100);
            println!("seed {seed}: TV {from_uniform:.3} from uniform starts, {from_entry:.3} from the entry");
            assert!(
                from_uniform < 0.05,
                "seed {seed}: uniform starts read TV {from_uniform:.3}"
            );
            assert!(
                from_entry > 0.05,
                "seed {seed}: {UNIFORM_START_STEPS} steps from the entry already mix \
                 (TV {from_entry:.3}), so the check cannot tell"
            );
        }
    }

    #[test]
    fn uniform_starts_walk_the_short_length_and_are_checked() {
        let mut net = test_net(16, 2, 25);
        let arc = Arc::between(Id::new(0), Id::new(u64::MAX / 2));
        let (inside, outside) = (PeerIdx(1), PeerIdx(12));
        let mut rng = SeedTree::new(26).rng();
        let mut from = |net: &mut Network, starts: &[PeerIdx], count| {
            let cfg = WalkConfig::default();
            sample_peers(net, cfg, PeerIdx(0), Some(&arc), count, starts, &mut rng)
        };
        let got = from(&mut net, &[inside, PeerIdx(3)], 5).unwrap();
        assert!(got.iter().all(|&s| arc.contains(net.peer(s).id)));
        assert_eq!(
            net.metrics.get(MsgKind::WalkStep),
            5 * UNIFORM_START_STEPS as u64
        );
        let far = from(&mut net, &[outside], 2);
        assert!(matches!(far, Err(Error::SamplingFailed { .. })));
        net.kill(inside).unwrap();
        let dead = from(&mut net, &[inside], 2);
        assert!(matches!(dead, Err(Error::PeerDead(_))));
    }

    #[test]
    fn sample_peers_wrapper_credits_metrics() {
        let mut net = test_net(16, 2, 19);
        let mut rng = SeedTree::new(20).rng();
        sample_peers(
            &mut net,
            WalkConfig::default(),
            PeerIdx(0),
            None,
            3,
            &[],
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            net.metrics.get(MsgKind::WalkStep),
            3 * WalkConfig::default().burn_in as u64
        );
    }
}
