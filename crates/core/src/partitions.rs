//! Partition estimation on the simulated network (§2 of the paper): the
//! median chain [`PartitionChain`] decides, this module answers it with
//! walks that never leave the arc still to halve (`oscar-sim::walker`) or,
//! under [`MedianSource::Oracle`], with the ring's exact median.

use crate::config::{MedianSource, OscarConfig};
use oscar_protocol::logic::{Partition, PartitionChain};
use oscar_sim::{sample_peers, Network, PeerIdx, WalkConfig};
use oscar_types::Result;
use rand::rngs::SmallRng;

/// Estimates the partitions of node `u` on the current network, far →
/// near; none when `u` is the only live peer. Walk steps are credited to
/// the network's metrics.
pub fn estimate_partitions(
    net: &mut Network,
    u: PeerIdx,
    cfg: &OscarConfig,
    rng: &mut SmallRng,
) -> Result<Vec<Partition<PeerIdx>>> {
    let uid = net.peer(u).id;
    let Some(succ_id) = net.ring_live().successor_of(uid) else {
        return Ok(Vec::new());
    };
    // Nearest clockwise live peer: entry point for near-region walks.
    let succ = net.idx_of(succ_id).expect("ring ids are registered");
    let mut chain = PartitionChain::new(uid, (succ_id, succ), cfg.median_sample_size);
    while let Some((arc, fresh)) = chain.want() {
        match cfg.median_source {
            MedianSource::Sampled => {
                // Round 1 walks from the successor; later rounds from the
                // samples carried over, which are uniform over `arc`.
                let held: Vec<PeerIdx> = chain.held().collect();
                let cfg = WalkConfig::default();
                let walked = sample_peers(net, cfg, succ, Some(&arc), fresh, &held, rng)?;
                chain.offer(walked.into_iter().map(|s| (net.peer(s).id, s)));
            }
            MedianSource::Oracle => {
                let ring = net.ring_live();
                let median = (ring.count_in_arc(&arc) > 2).then(|| {
                    let id = ring.median_in_arc(&arc).expect("non-empty arc");
                    (id, net.idx_of(id).expect("ring ids are registered"))
                });
                chain.cut(median);
            }
        }
    }
    Ok(chain.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaced_ids;
    use oscar_degree::DegreeCaps;
    use oscar_keydist::{sample_n, ClusteredKeys};
    use oscar_sim::MsgKind;
    use oscar_types::{Arc, Id, SeedTree, RING_SIZE};
    use rand::Rng;

    /// Network with given ids, ring + `extra` random long links per peer
    /// (so sampling walks can mix).
    fn test_net(ids: Vec<Id>, extra: usize, seed: u64) -> Network {
        crate::test_net(ids, DegreeCaps::symmetric(64), extra, seed)
    }

    #[test]
    fn a_lone_peer_has_no_partitions_and_a_pair_one() {
        let (far, cfg) = (Id::new(u64::MAX / 2), OscarConfig::default());
        let mut net = test_net(vec![Id::new(10)], 0, 3);
        let u = net.idx_of(Id::new(10)).unwrap();
        let mut rng = SeedTree::new(4).rng();
        assert!(estimate_partitions(&mut net, u, &cfg, &mut rng)
            .unwrap()
            .is_empty());
        net.add_peer(far, DegreeCaps::symmetric(64)).unwrap();
        let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p[0].arc.contains(far));
        assert_eq!(net.peer(p[0].entry).id, far);
    }

    #[test]
    fn partitions_tile_the_ring_minus_origin() {
        let mut net = test_net(spaced_ids(256, 7), 5, 5);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(6).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        assert!(!p.is_empty());
        // Total coverage: everything except the origin position.
        let total: u128 = p.iter().map(|q| q.arc.len()).sum();
        assert_eq!(total, RING_SIZE - 1);
        // Pairwise disjoint (probe a few hundred random points).
        let mut probe_rng = SeedTree::new(7).rng();
        for _ in 0..300 {
            let x = Id::new(probe_rng.gen());
            let hits = p.iter().filter(|q| q.arc.contains(x)).count();
            assert!(hits <= 1, "point {x:?} in {hits} partitions");
        }
    }

    #[test]
    fn partition_count_is_logarithmic() {
        for (n, seed) in [(64u64, 8u64), (256, 9), (1024, 10)] {
            let mut net = test_net(spaced_ids(n, 7), 5, seed);
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
        let mut net = test_net(spaced_ids(512, 7), 5, 11);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(12).rng();
        let cfg = OscarConfig::default().with_oracle_medians();
        let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
        // |A_1| must be exactly ⌈(N-1)/2⌉ + (0 or 1): the far half of the
        // 511 other peers under the lower-median convention.
        let far_count = net.ring_live().count_in_arc(&p[0].arc);
        assert!(
            (250..=260).contains(&far_count),
            "far partition holds {far_count}/511"
        );
        // Each subsequent partition roughly halves.
        for i in 1..p.len().min(5) {
            let prev = net.ring_live().count_in_arc(&p[i - 1].arc);
            let cur = net.ring_live().count_in_arc(&p[i].arc);
            assert!(
                cur * 2 >= prev.saturating_sub(2) / 2 && cur <= prev,
                "partition {i}: {cur} vs prev {prev}"
            );
        }
    }

    #[test]
    fn sampled_partitions_approximate_halving() {
        // The far partition's share of the other peers is one minus the
        // lower median of 12 samples: for uniform samples about
        // 1 − Beta(6, 7), mean ≈ 0.538, and outside [0.30, 0.70] with
        // probability ≈ 0.156. One draw of it proves little, so the check
        // is on its distribution over many seeds: the mean within 0.02
        // (about five standard errors at 1 000 seeds) and the
        // out-of-band share at most 0.20. A sampler whose 12 samples are
        // one sample fails both: with no median to cut at, one partition
        // holds every peer, a share of 1.
        let mut net = test_net(spaced_ids(512, 7), 5, 13);
        let u = net.idx_of(Id::new(7)).unwrap();
        let n = net.ring_live().len() - 1;
        let seeds = 1000;
        let (mut sum, mut out_of_band) = (0.0, 0);
        for seed in 0..seeds {
            let mut rng = SeedTree::new(14 + seed).rng();
            let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
            let frac = net.ring_live().count_in_arc(&p[0].arc) as f64 / n as f64;
            sum += frac;
            out_of_band += usize::from(!(0.30..=0.70).contains(&frac));
        }
        let mean = sum / seeds as f64;
        let share = out_of_band as f64 / seeds as f64;
        println!("far share over {seeds} seeds: mean {mean:.4}, out of [0.30, 0.70] {share:.4}");
        assert!(
            (mean - 0.538).abs() <= 0.02,
            "mean far share {mean:.4}, want 0.538 ± 0.02"
        );
        assert!(share <= 0.20, "{share:.4} of draws outside [0.30, 0.70]");
    }

    #[test]
    fn a_pool_is_in_arrival_order_not_distance_order() {
        // The first pooled sample of the far partition must be a uniform
        // draw from it: its rank among the partition's members (border
        // excluded) averages one half. Were the pool kept sorted by
        // distance, that sample would be the nearest of about six and
        // the mean rank would sit near one seventh.
        let mut net = test_net(spaced_ids(256, 7), 5, 24);
        let u = net.idx_of(Id::new(7)).unwrap();
        let (mut sum, mut seen) = (0.0, 0);
        for seed in 0..300 {
            let mut rng = SeedTree::new(1000 + seed).rng();
            let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
            let arc = p[0].arc;
            let Some(&first) = p[0].pool.first() else {
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
    fn oracle_medians_pool_nothing() {
        let mut net = test_net(spaced_ids(256, 7), 5, 26);
        let u = net.idx_of(Id::new(7)).unwrap();
        let mut rng = SeedTree::new(27).rng();
        let cfg = OscarConfig::default().with_oracle_medians();
        let p = estimate_partitions(&mut net, u, &cfg, &mut rng).unwrap();
        assert!(p.iter().all(|q| q.pool.is_empty()));
        assert_eq!(net.metrics.get(MsgKind::WalkStep), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut net = test_net(spaced_ids(128, 7), 4, 21);
            let u = net.live_peer_by_rank(5);
            let mut rng = SeedTree::new(22).rng();
            estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap()
        };
        assert_eq!(build(), build());
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
        let far = net.ring_live().count_in_arc(&p[0].arc);
        let frac = far as f64 / n as f64;
        assert!(
            (0.25..=0.75).contains(&frac),
            "population-median split should hold under skew, got {frac:.2}"
        );
        // And the innermost partitions must hold *few* peers even though
        // the key space near a cluster is dense.
        let last = net.ring_live().count_in_arc(&p[p.len() - 1].arc);
        assert!(last <= n / 4, "innermost partition holds {last}/{n}");
    }

    #[test]
    fn entry_points_are_members_of_their_partitions() {
        let mut net = test_net(spaced_ids(128, 7), 4, 19);
        let u = net.live_peer_by_rank(0);
        let mut rng = SeedTree::new(20).rng();
        let p = estimate_partitions(&mut net, u, &OscarConfig::default(), &mut rng).unwrap();
        for (i, q) in p.iter().enumerate() {
            assert!(
                q.arc.contains(net.peer(q.entry).id),
                "partition {i} entry outside its arc"
            );
            assert!(net.is_alive(q.entry));
        }
    }
}
