//! The Chord finger-table baseline.
//!
//! Chord places long links ("fingers") at exponentially growing **key
//! space** distances: finger `i` of node `n` is the owner of
//! `n + 2^i`. That metric is blind to where peers actually are: under a
//! skewed identifier distribution most fingers land in deserts and
//! collapse onto the handful of peers owning them, so
//!
//! * the *effective* out-degree shrinks (duplicate fingers are useless),
//! * desert-owners absorb enormous in-degree (and, with budgets, refuse —
//!   losing fingers outright), and
//! * greedy routing loses its halving guarantee in *population* distance.
//!
//! This is exactly the failure Oscar's population-median partitions fix,
//! which makes Chord the clean "skew-oblivious" control for the
//! comparison benches. With uniform keys the two coincide in spirit and
//! Chord performs fine — the gap opens exactly when the key space skews.
//!
//! The implementation reuses the whole simulator substrate: fingers are
//! discovered by actual greedy routing (construction hops are counted)
//! and in-degree budgets are enforced by refusal like everywhere else.

use oscar_sim::{
    route_to_owner, wire_directly, LinkError, MsgKind, Network, OverlayBuilder, PeerIdx,
    RoutePolicy,
};
use oscar_types::Result;
use rand::rngs::SmallRng;

/// Number of finger targets probed, from the largest span (`2^63`)
/// downwards. 64 probes covers every span of the 64-bit ring; the
/// peer's `ρ_out_max` budget caps how many *distinct, accepting*
/// owners actually become links.
const FINGER_PROBES: u32 = 64;

/// Chord's [`OverlayBuilder`]: deterministic fingers at `n + 2^i`.
#[derive(Clone, Debug, Default)]
pub struct ChordBuilder;

impl ChordBuilder {
    /// The one Chord construction.
    pub fn new() -> Self {
        ChordBuilder
    }
}

impl OverlayBuilder for ChordBuilder {
    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        let _ = rng; // Chord's construction is deterministic
        if wire_directly(net, p) {
            return Ok(());
        }
        let own = net.peer(p).id;
        let policy = RoutePolicy::default();
        // Largest spans first: when the budget runs out, the long fingers
        // (the valuable ones) are already in place.
        for i in (0..FINGER_PROBES).rev() {
            if !net.peer(p).can_open_out() {
                break;
            }
            let target = own.add(1u64 << i);
            let outcome = route_to_owner(net, p, target, &policy);
            net.metrics
                .add(MsgKind::ConstructionHop, outcome.cost() as u64);
            let Some(owner) = outcome.dest else {
                continue;
            };
            match net.try_link(p, owner) {
                // Duplicate: the finger collapsed onto an owner we already
                // have — the skew signature. TargetFull: the owner refused
                // (no alternative exists for a deterministic finger).
                Ok(()) | Err(LinkError::Duplicate) | Err(LinkError::TargetFull) => {}
                Err(LinkError::SelfLink) | Err(LinkError::Dead) => {}
                Err(LinkError::SourceFull) => break,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_degree::ConstantDegrees;
    use oscar_keydist::{GnutellaKeys, QueryWorkload, UniformKeys};
    use oscar_sim::{FaultModel, Overlay};

    #[test]
    fn chord_routes_well_on_uniform_keys() {
        // Home turf: uniform keys make key-space spans proportional to
        // population spans, so fingers work as designed.
        let mut ov = Overlay::new(ChordBuilder::new(), FaultModel::StabilizedRing, 1);
        ov.grow_to(500, &UniformKeys, &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 500);
        assert_eq!(stats.success_rate, 1.0);
        assert!(
            stats.mean_cost < 8.0,
            "uniform-key chord cost {}",
            stats.mean_cost
        );
    }

    #[test]
    fn fingers_collapse_under_skew() {
        // The skew signature: far fewer distinct fingers than probes.
        let mut ov = Overlay::new(ChordBuilder::new(), FaultModel::StabilizedRing, 2);
        ov.grow_to(500, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let net = ov.network();
        let mean_out: f64 = net
            .live_peers()
            .map(|p| net.peer(p).out_degree() as f64)
            .sum::<f64>()
            / net.live_count() as f64;
        // 64 probes, budget 27 — but collapses leave far fewer links.
        assert!(
            mean_out < 20.0,
            "skew should collapse fingers, mean out-degree {mean_out}"
        );
    }

    #[test]
    fn skew_degrades_chord_routing() {
        let cost = |keys: &dyn oscar_keydist::KeyDistribution, seed| {
            let mut ov = Overlay::new(ChordBuilder::new(), FaultModel::StabilizedRing, seed);
            ov.grow_to(600, keys, &ConstantDegrees::paper()).unwrap();
            let stats = ov.run_queries(&QueryWorkload::UniformPeers, 600);
            assert_eq!(stats.success_rate, 1.0, "ring still guarantees delivery");
            stats.mean_cost
        };
        let uniform = cost(&UniformKeys, 3);
        let skewed = cost(&GnutellaKeys::default(), 3);
        // At 600 peers the gap is ~1.4x and it widens with N (the full
        // comparison lives in the repro harness at 10k).
        assert!(
            skewed > uniform * 1.25,
            "skew should hurt chord clearly: uniform {uniform:.2} vs skewed {skewed:.2}"
        );
    }

    #[test]
    fn budgets_respected() {
        let mut ov = Overlay::new(ChordBuilder::new(), FaultModel::StabilizedRing, 4);
        ov.grow_to(300, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        for p in ov.network().all_peers() {
            let peer = ov.network().peer(p);
            assert!(peer.in_degree() <= peer.caps.rho_in);
            assert!(peer.out_degree() <= peer.caps.rho_out);
        }
    }

    #[test]
    fn deterministic_construction() {
        let run = || {
            let mut ov = Overlay::new(ChordBuilder::new(), FaultModel::StabilizedRing, 5);
            ov.grow_to(200, &GnutellaKeys::default(), &ConstantDegrees::paper())
                .unwrap();
            ov.run_queries(&QueryWorkload::UniformPeers, 200).mean_cost
        };
        assert_eq!(run(), run());
    }
}
