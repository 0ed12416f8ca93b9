//! Long-range link acquisition (§2 of the paper).
//!
//! Given its partitions, a peer fills each of its `ρ_out_max` long-range
//! slots by:
//!
//! 1. choosing a partition **uniformly at random** — every `A_i` is equally
//!    likely, which weights rank-distance scales harmonically;
//! 2. taking peers sampled **uniformly within** the chosen partition: first
//!    from the pool partition estimation left with it (each pooled sample
//!    is used once, in arrival order), then, for what the pool cannot
//!    supply, by restricted random walks. Those walks start at the pool's
//!    live samples, which are already uniform over the partition, so they
//!    only decorrelate; a partition with no pool walks from its border
//!    and must mix first (`oscar-sim::walker`);
//! 3. with the **power-of-two-choices** technique, taking two candidates
//!    and probing their current in-degree — at link time, however long ago
//!    a candidate was sampled — and linking to the less loaded: this is
//!    what spreads in-degree across heterogeneous budgets;
//! 4. requesting the link; the target *refuses* if its `ρ_in_max` budget is
//!    exhausted (its local decision, the paper's contribution-control
//!    mechanism), in which case the slot retries with a fresh partition
//!    draw, and is left unfilled after `LINK_RETRIES` failures.

use crate::config::OscarConfig;
use oscar_protocol::logic::{self, Partition};
use oscar_sim::{sample_peers, LinkError, MsgKind, Network, PeerIdx};
use oscar_types::Result;
use rand::rngs::SmallRng;
use rand::Rng;

/// Additional attempts per link slot when targets refuse (their
/// in-degree budget is exhausted).
const LINK_RETRIES: usize = 3;

/// Outcome of one link-building pass for one peer.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Links successfully established.
    pub established: u32,
    /// Slots left unfilled after exhausting retries.
    pub unfilled: u32,
    /// Candidates whose in-degree was probed.
    pub probed: u64,
}

/// Fills `u`'s remaining out-link budget using its partitions. The
/// probes are credited to [`MsgKind::Probe`] once, when the call returns.
pub fn acquire_links(
    net: &mut Network,
    u: PeerIdx,
    parts: &[Partition<PeerIdx>],
    cfg: &OscarConfig,
    rng: &mut SmallRng,
) -> Result<LinkStats> {
    let mut stats = LinkStats::default();
    if parts.is_empty() {
        return Ok(stats);
    }
    let budget = {
        let p = net.peer(u);
        p.caps.rho_out.saturating_sub(p.out_degree())
    };
    // `u`'s out-links, sorted for `admits_link`: only this loop's own
    // `try_link`s change them, and each `Ok` goes in at its place.
    let mut existing = net.peer(u).long_out.clone();
    existing.sort_unstable();
    let mut candidates: Vec<PeerIdx> = Vec::with_capacity(cfg.link_candidates);
    let mut starts: Vec<PeerIdx> = Vec::new();
    // How much of each partition's pool earlier slots have used up.
    let mut used = vec![0usize; parts.len()];
    'slots: for _ in 0..budget {
        for _attempt in 0..=LINK_RETRIES {
            let i = rng.gen_range(0..parts.len());
            let Partition { arc, entry, .. } = parts[i];
            if !net.is_alive(entry) {
                continue; // stale partition info under churn; try another
            }
            let unused = &parts[i].pool[used[i]..];
            let pooled = &unused[..unused.len().min(cfg.link_candidates)];
            used[i] += pooled.len();
            candidates.clear();
            candidates.extend_from_slice(pooled);
            let missing = cfg.link_candidates - pooled.len();
            if missing > 0 {
                starts.clear();
                starts.extend(parts[i].pool.iter().filter(|&&s| net.is_alive(s)));
                let walked = sample_peers(net, entry, Some(&arc), missing, &starts, rng)
                    .inspect_err(|_| net.metrics.add(MsgKind::Probe, stats.probed))?;
                candidates.extend(walked);
            }
            candidates.sort_unstable();
            candidates.dedup();
            // Admission and least-loaded selection both go through the
            // shared protocol kernels (one implementation for the oracle
            // simulator and the distributed machine).
            // Probe in-degrees; pick the least-loaded candidate
            // (power-of-two choices when link_candidates == 2).
            let mut best = None;
            for &c in &candidates {
                if !net.is_alive(c) || !logic::admits_link(u, c, &[], &existing) {
                    continue;
                }
                stats.probed += 1;
                let load = net.peer(c).in_degree() as usize;
                best = logic::pick_least_loaded(best, load, c);
            }
            let Some((_, target)) = best else {
                continue; // all candidates unusable; retry
            };
            match net.try_link(u, target) {
                Ok(()) => {
                    let at = existing.partition_point(|&e| e < target);
                    existing.insert(at, target);
                    stats.established += 1;
                    continue 'slots;
                }
                Err(LinkError::TargetFull) => continue, // refused: retry
                Err(LinkError::Duplicate) | Err(LinkError::SelfLink) | Err(LinkError::Dead) => {
                    continue
                }
                Err(LinkError::SourceFull) => break 'slots, // budget gone
            }
        }
        stats.unfilled += 1;
    }
    net.metrics.add(MsgKind::Probe, stats.probed);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitions::estimate_partitions;
    use oscar_degree::DegreeCaps;
    use oscar_sim::FaultModel;
    use oscar_types::SeedTree;

    /// Evenly spaced ring with bootstrap links for walk mixing.
    fn test_net(n: u64, caps: DegreeCaps, seed: u64) -> Network {
        crate::test_net(crate::spaced_ids(n, 3), caps, 4, seed)
    }

    type Parts = Vec<Partition<PeerIdx>>;

    fn parts_for(net: &Network, u: PeerIdx, cfg: &OscarConfig, seed: u64) -> Parts {
        let mut rng = SeedTree::new(seed).rng();
        estimate_partitions(net, u, cfg, &mut rng).unwrap()
    }

    #[test]
    fn fills_the_out_budget_when_capacity_abounds() {
        let mut net = test_net(256, DegreeCaps::symmetric(64), 1);
        let u = net.live_peer_by_rank(0);
        let cfg = OscarConfig::default();
        let parts = parts_for(&net, u, &cfg, 2);
        let before = net.peer(u).out_degree();
        let mut rng = SeedTree::new(3).rng();
        let stats = acquire_links(&mut net, u, &parts, &cfg, &mut rng).unwrap();
        let budget = 64 - before;
        // Nearly the whole budget fills; a few slots may exhaust their
        // retries on duplicate candidates (64 links on 256 peers means the
        // near partitions keep re-sampling already-linked peers).
        assert!(
            stats.established >= budget - 8,
            "only {}/{budget} established",
            stats.established
        );
        assert_eq!(stats.established + stats.unfilled, budget);
        assert!(net.peer(u).out_degree() >= 64 - 8);
    }

    #[test]
    fn links_land_in_many_partitions() {
        let mut net = test_net(512, DegreeCaps::symmetric(64), 4);
        let u = net.live_peer_by_rank(0);
        let cfg = OscarConfig::default();
        let parts = parts_for(&net, u, &cfg, 5);
        net.unlink_long_out(u); // drop bootstrap links; rebuild via Oscar
        let mut rng = SeedTree::new(6).rng();
        acquire_links(&mut net, u, &parts, &cfg, &mut rng).unwrap();
        // Count how many distinct partitions received a link.
        let hit = parts
            .iter()
            .filter(|q| {
                net.peer(u)
                    .long_out
                    .iter()
                    .any(|&t| q.arc.contains(net.peer(t).id))
            })
            .count();
        assert!(
            hit >= parts.len() / 2,
            "links concentrated: {hit}/{} partitions hit",
            parts.len()
        );
    }

    #[test]
    fn respects_target_budgets_strictly() {
        // Tight in-budgets: nobody may exceed ρ_in no matter the pressure.
        let mut net = test_net(
            64,
            DegreeCaps {
                rho_in: 6,
                rho_out: 24,
            },
            7,
        );
        let cfg = OscarConfig::default();
        for rank in 0..64 {
            let u = net.live_peer_by_rank(rank);
            let parts = parts_for(&net, u, &cfg, 100 + rank as u64);
            let mut rng = SeedTree::new(200 + rank as u64).rng();
            let _ = acquire_links(&mut net, u, &parts, &cfg, &mut rng).unwrap();
        }
        for p in net.all_peers() {
            assert!(
                net.peer(p).in_degree() <= net.peer(p).caps.rho_in,
                "peer {p:?} over budget"
            );
        }
    }

    #[test]
    fn power_of_two_balances_in_degree() {
        // Same network, same demand; compare in-degree spread with 1 vs 2
        // candidates. Power-of-two should shrink the spread (variance).
        let spread = |candidates: usize, seed: u64| -> f64 {
            // Generous in-budget (uncapped regime), 8 out-links demanded.
            let mut net = test_net(
                256,
                DegreeCaps {
                    rho_in: 200,
                    rho_out: 12,
                },
                seed,
            );
            // Remove bootstrap links so only Oscar links count.
            let peers: Vec<PeerIdx> = net.live_peers().collect();
            let cfg = OscarConfig {
                link_candidates: candidates,
                ..OscarConfig::default()
            };
            // Partitions estimated while bootstrap links still exist (for
            // walk mixing), then links rebuilt from scratch.
            let parts: Vec<Parts> = peers
                .iter()
                .enumerate()
                .map(|(i, &u)| parts_for(&net, u, &cfg, seed + 1000 + i as u64))
                .collect();
            for &p in &peers {
                net.unlink_long_out(p);
            }
            for (i, &u) in peers.iter().enumerate() {
                let mut rng = SeedTree::new(seed + 5000 + i as u64).rng();
                acquire_links(&mut net, u, &parts[i], &cfg, &mut rng).unwrap();
            }
            let degs: Vec<f64> = net
                .live_peers()
                .map(|p| net.peer(p).in_degree() as f64)
                .collect();
            let mean = degs.iter().sum::<f64>() / degs.len() as f64;
            degs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / degs.len() as f64
        };
        let var1 = spread(1, 11);
        let var2 = spread(2, 11);
        assert!(
            var2 < var1,
            "power-of-two should reduce in-degree variance: {var2:.2} !< {var1:.2}"
        );
    }

    #[test]
    fn refusals_leave_slots_unfilled_not_overfilled() {
        // Tiny in-budgets force refusals; total in-links == total capacity.
        let mut net = test_net(
            32,
            DegreeCaps {
                rho_in: 2,
                rho_out: 16,
            },
            13,
        );
        let peers: Vec<PeerIdx> = net.live_peers().collect();
        for &p in &peers {
            net.unlink_long_out(p);
        }
        let cfg = OscarConfig::default();
        let mut total_unfilled = 0;
        for (i, &u) in peers.iter().enumerate() {
            let parts = parts_for(&net, u, &cfg, 300 + i as u64);
            let mut rng = SeedTree::new(400 + i as u64).rng();
            let stats = acquire_links(&mut net, u, &parts, &cfg, &mut rng).unwrap();
            total_unfilled += stats.unfilled;
        }
        let total_in: u32 = peers.iter().map(|&p| net.peer(p).in_degree()).sum();
        assert!(total_in <= 32 * 2, "capacity violated");
        assert!(
            total_unfilled > 0,
            "demand (16/peer) far exceeds supply (2/peer)"
        );
    }

    #[test]
    fn oracle_medians_link_exactly_as_before_there_was_a_pool() {
        // Oracle medians sample nothing, so nothing is pooled and every
        // candidate is walked for from its partition's border: adding the
        // pool left this digest as it was, and only a change to those
        // walks' draws moves it. It moved once since, when the samples of
        // one call became lanes on streams of their own (ROADMAP item
        // 17(a)). Ablation A3's oracle column rests on it.
        let cfg = OscarConfig::default().with_oracle_medians();
        let builder = crate::OscarBuilder::new(cfg);
        let mut ov = oscar_sim::Overlay::new(builder, FaultModel::StabilizedRing, 42);
        let degrees = oscar_degree::ConstantDegrees::paper();
        ov.grow_to(150, &oscar_keydist::GnutellaKeys::default(), &degrees)
            .unwrap();
        let net = ov.network();
        let mut digest = net.metrics.get(MsgKind::WalkStep);
        for p in net.all_peers() {
            for &t in &net.peer(p).long_out {
                digest = oscar_types::mix64(digest ^ ((p.0 as u64) << 32 | t.0 as u64));
            }
        }
        println!("oracle-median overlay digest: {digest:#018x}");
        assert_eq!(digest, 0x400fda8033b658da, "oracle-median overlay moved");
    }

    #[test]
    fn empty_partitions_are_a_noop() {
        let mut net = test_net(4, DegreeCaps::symmetric(4), 15);
        let u = net.live_peer_by_rank(0);
        let mut rng = SeedTree::new(16).rng();
        let stats = acquire_links(&mut net, u, &[], &OscarConfig::default(), &mut rng).unwrap();
        assert_eq!(stats, LinkStats::default());
    }

    #[test]
    fn probes_are_counted() {
        let mut net = test_net(128, DegreeCaps::symmetric(32), 17);
        let u = net.live_peer_by_rank(0);
        let cfg = OscarConfig::default();
        let parts = parts_for(&net, u, &cfg, 18);
        let before = net.metrics.get(MsgKind::Probe);
        let mut rng = SeedTree::new(19).rng();
        let stats = acquire_links(&mut net, u, &parts, &cfg, &mut rng).unwrap();
        assert_eq!(net.metrics.get(MsgKind::Probe) - before, stats.probed);
        assert!(stats.probed > 0);
    }
}
