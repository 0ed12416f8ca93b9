//! The Mercury baseline.
//!
//! Mercury (Bharambe, Agrawal, Seshan — SIGCOMM'04) is the overlay the
//! paper compares against: a ring of peers with long-range links whose
//! *distances* follow a harmonic distribution over estimated node ranks.
//! Mercury learns the node-density function by sampling the network
//! **uniformly** and building an empirical CDF, then places each link by
//! drawing a harmonic rank distance and inverting the CDF into a target
//! key, which it routes to.
//!
//! The reproduction keeps Mercury's documented structure and its documented
//! weakness: a fixed-size uniform sample has uniform *resolution* over the
//! key space, so spiky densities (Gnutella filenames) are misestimated —
//! links miss their intended rank distances and in-degree piles up on the
//! peers owning the deserts. Oscar's median chain spends its samples
//! adaptively and does not have this failure mode; that asymmetry is the
//! point of the comparison (experiments E3/E7).
//!
//! Deliberate generosity: our Mercury gets the *exact* live network size
//! for its harmonic draw (the real one estimates it from histograms).
//! Giving the baseline oracle information it would have to estimate makes
//! the measured gap a lower bound on the real one.

use oscar_keydist::EmpiricalCdf;
use oscar_sim::{
    route_to_owner, sample_peers, wire_directly, LinkError, MsgKind, Network, OverlayBuilder,
    PeerIdx, RoutePolicy, WalkConfig,
};
use oscar_types::{Id, Result};
use rand::rngs::SmallRng;
use rand::Rng;

/// Uniform samples used to build the node-density CDF estimate.
/// Mercury's papers use `k ≈ log N`-ish sample counts; 24 is generous
/// at the simulated scales (log₂ 10⁴ ≈ 13).
const CDF_SAMPLE_SIZE: usize = 24;

/// Additional attempts per link slot when targets refuse.
const LINK_RETRIES: usize = 3;

/// Mercury's [`OverlayBuilder`]: uniform sampling → empirical CDF →
/// harmonic rank-distance links.
#[derive(Clone, Debug, Default)]
pub struct MercuryBuilder;

impl MercuryBuilder {
    /// The one Mercury construction.
    pub fn new() -> Self {
        MercuryBuilder
    }
}

impl OverlayBuilder for MercuryBuilder {
    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        if wire_directly(net, p) {
            return Ok(());
        }
        let cdf = estimate_cdf(net, p, rng)?;
        acquire_links(net, p, &cdf, rng)?;
        Ok(())
    }
}

/// Builds Mercury's density estimate for peer `p`: an empirical CDF over
/// `CDF_SAMPLE_SIZE` (near-)uniform node-id samples, plus `p`'s own id.
fn estimate_cdf(net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<EmpiricalCdf> {
    let walk = WalkConfig::default();
    let samples = sample_peers(net, walk, p, None, CDF_SAMPLE_SIZE, &[], rng)?;
    let mut ids: Vec<Id> = samples.iter().map(|&s| net.peer(s).id).collect();
    ids.push(net.peer(p).id);
    Ok(EmpiricalCdf::new(ids))
}

/// Draws a harmonic rank distance `r ∈ [1, n-1]`: `P(r) ∝ 1/r`.
///
/// Inverse transform on the continuous harmonic density, the standard
/// small-world long-link distance law Mercury adopts.
fn harmonic_rank<R: Rng + ?Sized>(n_live: usize, rng: &mut R) -> f64 {
    let max = (n_live.saturating_sub(1)).max(1) as f64;
    let u: f64 = rng.gen();
    max.powf(u).clamp(1.0, max)
}

/// One harmonic link-target draw: a *key* estimated to sit `r` node ranks
/// clockwise of `p`, per the sampled CDF.
fn draw_target_key(cdf: &EmpiricalCdf, own_id: Id, n_live: usize, rng: &mut SmallRng) -> Id {
    let r = harmonic_rank(n_live, rng);
    // The CDF was built from `len()` samples representing `n_live` peers:
    // convert the rank distance into sample-rank units.
    let sample_ranks = r * cdf.len() as f64 / n_live.max(1) as f64;
    cdf.advance_by_ranks(own_id, sample_ranks)
}

/// Fills `p`'s out-link budget with harmonic-distance links.
///
/// Each slot draws a target key, routes to its owner (hops are counted as
/// construction traffic — Mercury pays real messages for link discovery),
/// and requests the link; refusals retry with a fresh draw.
fn acquire_links(
    net: &mut Network,
    p: PeerIdx,
    cdf: &EmpiricalCdf,
    rng: &mut SmallRng,
) -> Result<()> {
    let own_id = net.peer(p).id;
    let n_live = net.live_count();
    if n_live <= 1 {
        return Ok(());
    }
    let budget = {
        let peer = net.peer(p);
        peer.caps.rho_out.saturating_sub(peer.out_degree())
    };
    let policy = RoutePolicy::default();
    'slots: for _ in 0..budget {
        for _attempt in 0..=LINK_RETRIES {
            let key = draw_target_key(cdf, own_id, n_live, rng);
            let outcome = route_to_owner(net, p, key, &policy);
            net.metrics
                .add(MsgKind::ConstructionHop, outcome.cost() as u64);
            let Some(target) = outcome.dest else {
                continue;
            };
            if target == p || net.peer(p).long_out.contains(&target) {
                continue;
            }
            // The owner is contacted once before the link request; Mercury
            // as published takes the first draw, it does not compare loads.
            net.metrics.inc(MsgKind::Probe);
            match net.try_link(p, target) {
                Ok(()) => continue 'slots,
                Err(LinkError::TargetFull) => continue,
                Err(LinkError::Duplicate) | Err(LinkError::SelfLink) | Err(LinkError::Dead) => {
                    continue
                }
                Err(LinkError::SourceFull) => break 'slots,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_degree::{ConstantDegrees, DegreeCaps};
    use oscar_keydist::{GnutellaKeys, QueryWorkload, UniformKeys};
    use oscar_sim::{FaultModel, Overlay};
    use oscar_types::SeedTree;

    fn test_net(n: u64, caps: DegreeCaps, seed: u64) -> Network {
        crate::test_net(crate::spaced_ids(n, 5), caps, 4, seed)
    }

    #[test]
    fn harmonic_rank_is_heavy_on_short_distances() {
        let mut rng = SeedTree::new(1).rng();
        let n = 10_000;
        let short = (0..20_000)
            .filter(|_| harmonic_rank(n, &mut rng) < 100.0)
            .count();
        // P(r < 100) = ln(100)/ln(9999) ≈ 0.50
        let frac = short as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.05, "short-distance mass {frac}");
    }

    #[test]
    fn harmonic_rank_bounds() {
        let mut rng = SeedTree::new(2).rng();
        for _ in 0..1000 {
            let r = harmonic_rank(500, &mut rng);
            assert!((1.0..=499.0).contains(&r));
        }
        // degenerate sizes
        assert_eq!(harmonic_rank(1, &mut rng), 1.0);
        assert_eq!(harmonic_rank(0, &mut rng), 1.0);
    }

    #[test]
    fn cdf_estimate_covers_the_ring() {
        let mut net = test_net(256, DegreeCaps::symmetric(64), 3);
        let p = net.live_peer_by_rank(0);
        let mut rng = SeedTree::new(4).rng();
        let cdf = estimate_cdf(&mut net, p, &mut rng).unwrap();
        assert_eq!(cdf.len(), 25, "24 samples + own id");
        // Quantiles should span a decent portion of the (uniform) ring.
        let spread = cdf.quantile(0.95).to_unit() - cdf.quantile(0.05).to_unit();
        assert!(spread > 0.5, "sampled CDF too narrow: {spread}");
    }

    #[test]
    fn acquire_links_fills_budget_with_capacity() {
        let mut net = test_net(256, DegreeCaps::symmetric(64), 5);
        let p = net.live_peer_by_rank(0);
        let mut rng = SeedTree::new(6).rng();
        let cdf = estimate_cdf(&mut net, p, &mut rng).unwrap();
        let before = net.peer(p).out_degree();
        acquire_links(&mut net, p, &cdf, &mut rng).unwrap();
        let (budget, established) = (64 - before, net.peer(p).out_degree() - before);
        // Nearly the whole budget fills; a handful of slots may exhaust
        // retries on duplicate draws (64 links on 256 peers means the
        // harmonic short-distance mass keeps re-drawing the same owners).
        assert!(
            established >= budget - 8,
            "only {established}/{budget} established"
        );
        let hops = net.metrics.get(MsgKind::ConstructionHop);
        assert!(hops > 0, "link discovery routes messages");
        // Each link request follows one probe of the owner.
        assert!(net.metrics.get(MsgKind::Probe) >= established as u64);
    }

    #[test]
    fn link_distances_skew_short() {
        // Mercury's harmonic law: many short links, few long ones. A
        // modest out-budget keeps duplicate re-draws (which flatten the
        // distance distribution) rare, and pooling several peers averages
        // out CDF sampling luck (a bad 24-point sample can leave large
        // holes — that sensitivity is Mercury's documented weakness).
        let mut net = test_net(
            512,
            DegreeCaps {
                rho_in: 64,
                rho_out: 12,
            },
            7,
        );
        let n = net.live_count();
        let mut rank_dists: Vec<usize> = Vec::new();
        for (i, rank) in [0usize, 100, 200, 300, 400].into_iter().enumerate() {
            let p = net.live_peer_by_rank(rank);
            let own = net.peer(p).id;
            let mut rng = SeedTree::new(21 + i as u64).rng();
            let cdf = estimate_cdf(&mut net, p, &mut rng).unwrap();
            net.unlink_long_out(p);
            acquire_links(&mut net, p, &cdf, &mut rng).unwrap();
            let r_own = net.ring_live().rank_of(own).unwrap();
            rank_dists.extend(net.peer(p).long_out.iter().map(|&t| {
                let tid = net.peer(t).id;
                let r_t = net.ring_live().rank_of(tid).unwrap();
                (r_t + n - r_own) % n
            }));
        }
        rank_dists.sort_unstable();
        let median = rank_dists[rank_dists.len() / 2];
        // True harmonic median over [1,511] is √511 ≈ 23; leave generous
        // room for CDF estimation noise while excluding the uniform
        // alternative (median ≈ n/2 = 256).
        assert!(
            median < n / 3,
            "harmonic links should be mostly short: median rank distance {median} of {n}"
        );
    }

    #[test]
    fn budgets_respected_under_pressure() {
        let mut net = test_net(
            64,
            DegreeCaps {
                rho_in: 4,
                rho_out: 16,
            },
            9,
        );
        let peers: Vec<PeerIdx> = net.live_peers().collect();
        for (i, &p) in peers.iter().enumerate() {
            let mut rng = SeedTree::new(100 + i as u64).rng();
            let cdf = estimate_cdf(&mut net, p, &mut rng).unwrap();
            acquire_links(&mut net, p, &cdf, &mut rng).unwrap();
        }
        for &p in &peers {
            assert!(net.peer(p).in_degree() <= net.peer(p).caps.rho_in);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut net = test_net(128, DegreeCaps::symmetric(16), 11);
            let p = net.live_peer_by_rank(3);
            let mut rng = SeedTree::new(12).rng();
            let cdf = estimate_cdf(&mut net, p, &mut rng).unwrap();
            acquire_links(&mut net, p, &cdf, &mut rng).unwrap();
            net.peer(p).long_out.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mercury_routes_fine_on_uniform_keys() {
        let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 1);
        ov.grow_to(500, &UniformKeys, &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 500);
        assert_eq!(stats.success_rate, 1.0);
        assert!(
            stats.mean_cost < 10.0,
            "uniform keys are Mercury's home turf: {}",
            stats.mean_cost
        );
    }

    #[test]
    fn mercury_still_correct_on_skewed_keys() {
        // Correctness is never in question (the ring guarantees delivery);
        // the cost difference vs Oscar is measured in integration tests.
        let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 2);
        ov.grow_to(400, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 400);
        assert_eq!(stats.success_rate, 1.0);
    }

    #[test]
    fn budgets_hold_after_growth() {
        let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 3);
        ov.grow_to(300, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        for p in ov.network().all_peers() {
            let peer = ov.network().peer(p);
            assert!(peer.in_degree() <= peer.caps.rho_in);
            assert!(peer.out_degree() <= peer.caps.rho_out);
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 4);
            ov.grow_to(200, &GnutellaKeys::default(), &ConstantDegrees::paper())
                .unwrap();
            ov.run_queries(&QueryWorkload::UniformPeers, 200).mean_cost
        };
        assert_eq!(run(), run());
    }
}
