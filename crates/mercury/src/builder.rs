//! Mercury's link-building strategy, packaged for the growth driver.

use crate::links::{acquire_links, estimate_cdf};
use oscar_sim::{wire_directly, Network, OverlayBuilder, PeerIdx};
use oscar_types::Result;
use rand::rngs::SmallRng;

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
    fn name(&self) -> &str {
        "mercury"
    }

    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        if wire_directly(net, p) {
            return Ok(());
        }
        let cdf = estimate_cdf(net, p, rng)?;
        acquire_links(net, p, &cdf, rng)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::new_overlay;
    use oscar_degree::ConstantDegrees;
    use oscar_keydist::{GnutellaKeys, QueryWorkload, UniformKeys};
    use oscar_sim::FaultModel;

    #[test]
    fn builder_reports_name() {
        assert_eq!(MercuryBuilder::new().name(), "mercury");
    }

    #[test]
    fn mercury_routes_fine_on_uniform_keys() {
        let mut ov = new_overlay(FaultModel::StabilizedRing, 1);
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
        let mut ov = new_overlay(FaultModel::StabilizedRing, 2);
        ov.grow_to(400, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 400);
        assert_eq!(stats.success_rate, 1.0);
    }

    #[test]
    fn budgets_hold_after_growth() {
        let mut ov = new_overlay(FaultModel::StabilizedRing, 3);
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
            let mut ov = new_overlay(FaultModel::StabilizedRing, 4);
            ov.grow_to(200, &GnutellaKeys::default(), &ConstantDegrees::paper())
                .unwrap();
            ov.run_queries(&QueryWorkload::UniformPeers, 200).mean_cost
        };
        assert_eq!(run(), run());
    }
}
