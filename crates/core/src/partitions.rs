//! Median-chain partition estimation (§2 of the paper).
//!
//! Node `u` partitions the identifier space clockwise into `A₁ … A_k`:
//! `A₁` is the far half of the *population*, `A₂` the next quarter, and so
//! on, the border between consecutive partitions being the median of the
//! peers not yet cut away. Ideally `|A_i| = N/2^i` — a logarithmic number
//! of partitions whose borders adapt to the key density instead of the key
//! metric, which is the whole trick: a uniform choice of partition followed
//! by a uniform choice within realises the harmonic rank-distance
//! distribution regardless of how skewed the identifiers are.
//!
//! Medians are estimated from small samples gathered by random walks that
//! never leave the current sub-population's arc (`oscar-sim::walker`). The
//! chain *discovers* `k ≈ log₂N` adaptively: it keeps halving until the
//! sample collapses onto ≤ 2 distinct peers, so no network-size estimate is
//! needed anywhere.
//!
//! Every sample is spent once. Given a round's median, the samples that
//! fell nearer are independent uniform draws from exactly the arc the
//! next round samples, so they *are* its first samples and only the
//! remainder is walked; the samples that fell beyond it are uniform draws
//! from the partition just cut off, and are kept with it as the pool
//! [`acquire_links`](crate::links::acquire_links) draws its link
//! candidates from before it walks for any; the innermost partition's pool
//! is what the last round held. Both stay in arrival order —
//! sorted by distance, a pool's first sample would be the nearest of
//! several, not a uniform one. The split is
//! [`oscar_protocol::logic::split_at_median`].

use crate::config::{MedianSource, OscarConfig};
use oscar_protocol::logic;
use oscar_sim::{sample_peers, Network, PeerIdx};
use oscar_types::{Arc, Id, Result};
use rand::rngs::SmallRng;

/// Hard cap on the partition chain length (safety bound well above
/// `log₂` of any simulated size).
const MAX_PARTITIONS: usize = 48;

/// The logarithmic partitions of one node, far → near.
///
/// Each partition carries a known live member (the border peer for interior
/// partitions, the ring successor for the innermost) used as the entry
/// point for subsequent sampling walks, and the pool of uniform samples of
/// it that estimation had in hand (empty under [`MedianSource::Oracle`],
/// which samples nothing).
#[derive(Clone, Debug)]
pub struct Partitions {
    origin: Id,
    /// `(arc, entry peer, pool)` per partition.
    parts: Vec<(Arc, PeerIdx, Vec<PeerIdx>)>,
}

impl Partitions {
    /// An empty partition set (what a singleton network gets).
    pub fn empty(origin: Id) -> Self {
        Partitions {
            origin,
            parts: Vec::new(),
        }
    }

    /// The partitioning node's identifier.
    pub fn origin(&self) -> Id {
        self.origin
    }

    /// Number of partitions (`k ≈ log₂N`).
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True iff no partitions could be built (singleton network).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Partition `i` (0 = farthest) and its entry peer.
    pub fn get(&self, i: usize) -> (Arc, PeerIdx) {
        let (arc, entry, _) = self.parts[i];
        (arc, entry)
    }

    /// The uniform samples of partition `i` left over from estimation, in
    /// the order the walks returned them. A border peer is never in the
    /// pool of the partition it opens: its samples chose it as the border.
    pub fn pool(&self, i: usize) -> &[PeerIdx] {
        &self.parts[i].2
    }

    /// All partition arcs, far → near.
    pub fn arcs(&self) -> impl Iterator<Item = Arc> + '_ {
        self.parts.iter().map(|&(a, _, _)| a)
    }
}

/// Estimates the partitions of node `u` on the current network.
///
/// Returns an empty set when `u` is the only live peer. Walk steps are
/// credited to the network's metrics.
pub fn estimate_partitions(
    net: &mut Network,
    u: PeerIdx,
    cfg: &OscarConfig,
    rng: &mut SmallRng,
) -> Result<Partitions> {
    let uid = net.peer(u).id;
    let mut parts = Partitions::empty(uid);
    // Nearest clockwise live peer: entry point for near-region walks.
    let Some(succ_id) = net.ring_live().successor_of(uid) else {
        return Ok(parts);
    };
    if succ_id == uid {
        return Ok(parts); // singleton network
    }
    let succ = net.idx_of(succ_id).expect("ring ids are registered");

    // The population clockwise of u: everything except u itself.
    let mut current = Arc::between(uid.add(1), uid);
    // The last round's samples that fell inside `current`.
    let mut samples: Vec<PeerIdx> = Vec::with_capacity(cfg.median_sample_size);

    for _ in 0..MAX_PARTITIONS {
        if !current.contains(succ_id) {
            // Not even the nearest peer is left: the previous border was
            // the innermost peer; nothing more to partition.
            return Ok(parts);
        }
        let (median, pool) = match cfg.median_source {
            MedianSource::Sampled => {
                // A split drops its median, so fewer than a full sample carry over.
                let fresh = cfg.median_sample_size - samples.len();
                samples.extend(sample_peers(
                    net,
                    cfg.walk,
                    succ,
                    Some(&current),
                    fresh,
                    rng,
                )?);
                let by_dist: Vec<(u64, PeerIdx)> = samples
                    .iter()
                    .map(|&s| (uid.cw_dist(net.peer(s).id), s))
                    .collect();
                let Some(split) = logic::split_at_median(&by_dist) else {
                    // Sub-population (as far as sampling can tell) has
                    // collapsed: `current` is the innermost partition.
                    break;
                };
                samples = split.near;
                (split.median, split.far)
            }
            MedianSource::Oracle => {
                if net.ring_live().count_in_arc(&current) <= 2 {
                    break;
                }
                let m_id = net
                    .ring_live()
                    .median_in_arc(&current)
                    .expect("non-empty arc");
                let m = net.idx_of(m_id).expect("ring ids are registered");
                (m, Vec::new())
            }
        };
        let m_id = net.peer(median).id;
        // Far partition: [median, end of current arc).
        parts
            .parts
            .push((current.truncate_from(m_id), median, pool));
        // Remaining sub-population: strictly closer than the median.
        current = current.truncate_at(m_id);
        if current.is_empty() {
            return Ok(parts);
        }
    }
    // Innermost partition: whatever remains (contains at least succ).
    if current.contains(succ_id) {
        parts.parts.push((current, succ, samples));
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_degree::DegreeCaps;
    use oscar_keydist::{sample_n, ClusteredKeys, KeyDistribution, UniformKeys};
    use oscar_sim::{FaultModel, MsgKind};
    use oscar_types::{SeedTree, RING_SIZE};
    use rand::Rng;

    /// Network with given ids, ring + `extra` random long links per peer
    /// (so sampling walks can mix).
    fn test_net(ids: Vec<Id>, extra: usize, seed: u64) -> Network {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let idxs: Vec<PeerIdx> = ids
            .into_iter()
            .map(|id| net.add_peer(id, DegreeCaps::symmetric(64)).unwrap())
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

    fn uniform_ids(n: u64) -> Vec<Id> {
        let step = u64::MAX / n;
        (0..n).map(|i| Id::new(i * step + 7)).collect()
    }

    #[test]
    fn singleton_network_has_no_partitions() {
        let mut net = test_net(vec![Id::new(42)], 0, 1);
        let u = net.idx_of(Id::new(42)).unwrap();
        let mut rng = SeedTree::new(2).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn two_peer_network_gets_one_partition() {
        let mut net = test_net(vec![Id::new(10), Id::new(u64::MAX / 2)], 0, 3);
        let u = net.idx_of(Id::new(10)).unwrap();
        let mut rng = SeedTree::new(4).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        assert_eq!(p.len(), 1);
        let (arc, entry) = p.get(0);
        assert!(arc.contains(Id::new(u64::MAX / 2)));
        assert_eq!(net.peer(entry).id, Id::new(u64::MAX / 2));
    }

    #[test]
    fn partitions_tile_the_ring_minus_origin() {
        let mut net = test_net(uniform_ids(256), 5, 5);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(6).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        assert!(!p.is_empty());
        // Total coverage: everything except the origin position.
        let total: u128 = p.arcs().map(|a| a.len()).sum();
        assert_eq!(total, RING_SIZE - 1);
        // Pairwise disjoint (probe a few hundred random points).
        let mut probe_rng = SeedTree::new(7).rng();
        for _ in 0..300 {
            let x = Id::new(probe_rng.gen());
            let hits = p.arcs().filter(|a| a.contains(x)).count();
            assert!(hits <= 1, "point {x:?} in {hits} partitions");
        }
    }

    #[test]
    fn partition_count_is_logarithmic() {
        for (n, seed) in [(64u64, 8u64), (256, 9), (1024, 10)] {
            let mut net = test_net(uniform_ids(n), 5, seed);
            let u = net.idx_of(Id::new(7)).unwrap();
            let mut rng = SeedTree::new(seed + 100).rng();
            let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
            let expect = (n as f64).log2();
            assert!(
                (p.len() as f64) > expect * 0.5 && (p.len() as f64) < expect * 1.8,
                "n={n}: {} partitions vs log2={expect:.1}",
                p.len()
            );
        }
    }

    #[test]
    fn oracle_partitions_halve_population_exactly() {
        let mut net = test_net(uniform_ids(512), 5, 11);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(12).rng();
        let cfg = OscarConfig::default().with_oracle_medians();
        let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
        // |A_1| must be exactly ⌈(N-1)/2⌉ + (0 or 1): the far half of the
        // 511 other peers under the lower-median convention.
        let far_count = net.ring_live().count_in_arc(&p.get(0).0);
        assert!(
            (250..=260).contains(&far_count),
            "far partition holds {far_count}/511"
        );
        // Each subsequent partition roughly halves.
        for i in 1..p.len().min(5) {
            let prev = net.ring_live().count_in_arc(&p.get(i - 1).0);
            let cur = net.ring_live().count_in_arc(&p.get(i).0);
            assert!(
                cur * 2 >= prev.saturating_sub(2) / 2 && cur <= prev,
                "partition {i}: {cur} vs prev {prev}"
            );
        }
    }

    #[test]
    fn sampled_partitions_approximate_halving() {
        let mut net = test_net(uniform_ids(512), 5, 13);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(14).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        let n = net.ring_live().len() - 1;
        let far = net.ring_live().count_in_arc(&p.get(0).0);
        let frac = far as f64 / n as f64;
        // Sampled median of 12 points: the far half should hold 30-70%.
        assert!(
            (0.30..=0.70).contains(&frac),
            "far partition fraction {frac:.2}"
        );
    }

    #[test]
    fn a_pool_is_in_arrival_order_not_distance_order() {
        // The first pooled sample of the far partition must be a uniform
        // draw from it: its rank among the partition's members (border
        // excluded) averages one half. Were the pool kept sorted by
        // distance, that sample would be the nearest of about six and
        // the mean rank would sit near one seventh.
        let mut net = test_net(uniform_ids(256), 5, 24);
        let u = net.idx_of(Id::new(7)).unwrap();
        let (mut sum, mut seen) = (0.0, 0);
        for seed in 0..300 {
            let mut rng = SeedTree::new(1000 + seed).rng();
            let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
            let (arc, _) = p.get(0);
            let Some(&first) = p.pool(0).first() else {
                continue;
            };
            let upto = Arc::between(arc.start(), net.peer(first).id);
            // Members strictly between the border and the sample, of the
            // `members - 1` that are not the border.
            let rank = net.ring_live().count_in_arc(&upto) - 1;
            let members = net.ring_live().count_in_arc(&arc);
            sum += (rank as f64 + 0.5) / (members - 1) as f64;
            seen += 1;
        }
        assert!(seen >= 200, "only {seen} runs pooled anything");
        let mean = sum / seen as f64;
        assert!(
            (0.45..=0.55).contains(&mean),
            "first pooled sample's mean rank is {mean:.3}, not one half"
        );
    }

    #[test]
    fn every_sample_is_walked_once_and_kept_where_it_fell() {
        // The sampling plan replayed from outside with nothing but arcs:
        // each round holds on to what fell inside the next `current`,
        // walks for the rest of its `median_sample_size` and no more, and
        // leaves what fell beyond the border — its copies excluded — with
        // the partition cut off. The replay must draw the same samples,
        // and so end on the same rng state and step count, as the real one.
        let cfg = OscarConfig::default();
        for seed in 0..25u64 {
            let mut net = test_net(uniform_ids(256), 5, 25);
            let u = net.live_peer_by_rank(seed as usize * 9);
            let mut rng = SeedTree::new(2000 + seed).rng();
            let (mut replay_net, mut replay_rng) = (net.clone(), rng.clone());
            let before = net.metrics.get(MsgKind::WalkStep);
            let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
            let steps = net.metrics.get(MsgKind::WalkStep) - before;

            let ids: Vec<Id> = net.all_peers().map(|q| net.peer(q).id).collect();
            let id_of = |s: PeerIdx| ids[s.as_usize()];
            let uid = id_of(u);
            let succ = replay_net.ring_successor(u).unwrap();
            let mut current = Arc::between(uid.add(1), uid);
            let mut held: Vec<PeerIdx> = Vec::new();
            let mut walked = 0;
            for i in 0..p.len() {
                held.retain(|&s| current.contains(id_of(s)));
                let fresh = cfg.median_sample_size - held.len();
                walked += fresh as u64;
                let arc = Some(&current);
                let drawn =
                    sample_peers(&mut replay_net, cfg.walk, succ, arc, fresh, &mut replay_rng);
                held.extend(drawn.unwrap());
                let (arc, entry) = p.get(i);
                let innermost = i + 1 == p.len();
                let fell_here =
                    |&&s: &&PeerIdx| arc.contains(id_of(s)) && (innermost || s != entry);
                let expected: Vec<PeerIdx> = held.iter().filter(fell_here).copied().collect();
                assert_eq!(p.pool(i), expected, "seed {seed}, partition {i}");
                if !innermost {
                    current = current.truncate_at(id_of(entry));
                }
            }
            assert_eq!(steps, walked * cfg.walk.burn_in as u64, "seed {seed}");
            assert_eq!(rng.gen::<u64>(), replay_rng.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn oracle_medians_pool_nothing() {
        let mut net = test_net(uniform_ids(256), 5, 26);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(27).rng();
        let cfg = OscarConfig::default().with_oracle_medians();
        let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
        assert!((0..p.len()).all(|i| p.pool(i).is_empty()));
        assert_eq!(net.metrics.get(MsgKind::WalkStep), 0);
    }

    #[test]
    fn skewed_keys_get_density_adapted_partitions() {
        // With a spiky key distribution, partitions must track population,
        // not key-space width: the far partition can be a tiny arc if the
        // mass sits just clockwise of the origin.
        let keys = ClusteredKeys::new(6, 1e-3, 1.0, 15);
        let mut id_rng = SeedTree::new(16).rng();
        let mut ids = sample_n(&keys, 512, &mut id_rng);
        ids.sort_unstable();
        ids.dedup();
        let mut net = test_net(ids, 5, 17);
        let u = net.live_peer_by_rank(3);
        let mut rng = SeedTree::new(18).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        let n = net.ring_live().len() - 1;
        let far = net.ring_live().count_in_arc(&p.get(0).0);
        let frac = far as f64 / n as f64;
        assert!(
            (0.25..=0.75).contains(&frac),
            "population-median split should hold under skew, got {frac:.2}"
        );
        // And the innermost partitions must hold *few* peers even though
        // the key space near a cluster is dense.
        let last = net.ring_live().count_in_arc(&p.get(p.len() - 1).0);
        assert!(last <= n / 4, "innermost partition holds {last}/{n}");
    }

    #[test]
    fn entry_points_are_members_of_their_partitions() {
        let mut net = test_net(uniform_ids(128), 4, 19);
        let u = net.live_peer_by_rank(0);
        let mut rng = SeedTree::new(20).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        for i in 0..p.len() {
            let (arc, entry) = p.get(i);
            assert!(
                arc.contains(net.peer(entry).id),
                "partition {i} entry outside its arc"
            );
            assert!(net.is_alive(entry));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut net = test_net(uniform_ids(128), 4, 21);
            let u = net.live_peer_by_rank(5);
            let mut rng = SeedTree::new(22).rng();
            let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
            p.arcs()
                .map(|a| (a.start().raw(), a.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn uniform_keys_sanity_for_keydist_integration() {
        // Smoke-check the helper distributions wired into these tests.
        let mut rng = SeedTree::new(23).rng();
        let k = UniformKeys.sample(&mut rng);
        let _ = k.to_unit();
    }
}
