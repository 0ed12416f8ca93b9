//! The Oscar link-building strategy, packaged for the growth driver.

use crate::config::OscarConfig;
use crate::links::acquire_links;
use crate::partitions::estimate_partitions;
use oscar_sim::{wire_directly, Network, OverlayBuilder, PeerIdx};
use oscar_types::Result;
use rand::rngs::SmallRng;

/// Oscar's [`OverlayBuilder`]: partition estimation + harmonic-by-rank
/// link acquisition with power-of-two in-degree balancing.
#[derive(Clone, Debug)]
pub struct OscarBuilder {
    config: OscarConfig,
}

impl OscarBuilder {
    /// Builder with the given configuration.
    ///
    /// # Panics
    /// On invalid configuration (zero sample size etc.) — configs are
    /// experiment constants, so failing fast beats threading errors.
    pub fn new(config: OscarConfig) -> Self {
        config.validate().expect("invalid OscarConfig");
        OscarBuilder { config }
    }

    /// The configuration.
    pub fn config(&self) -> &OscarConfig {
        &self.config
    }
}

impl OverlayBuilder for OscarBuilder {
    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        if wire_directly(net, p) {
            return Ok(());
        }
        let parts = estimate_partitions(net, p, &self.config, rng)?;
        acquire_links(net, p, &parts, &self.config, rng)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_degree::{ConstantDegrees, SpikyDegrees, SteppedDegrees};
    use oscar_keydist::{GnutellaKeys, QueryWorkload, UniformKeys};
    use oscar_sim::{FaultModel, Overlay};
    use oscar_types::SeedTree;

    /// A default-configured Oscar overlay on the stabilised ring.
    fn overlay(seed: u64) -> Overlay<OscarBuilder> {
        let builder = OscarBuilder::new(OscarConfig::default());
        Overlay::new(builder, FaultModel::StabilizedRing, seed)
    }

    #[test]
    #[should_panic(expected = "invalid OscarConfig")]
    fn bad_config_panics_at_construction() {
        let cfg = OscarConfig {
            median_sample_size: 0,
            ..OscarConfig::default()
        };
        let _ = OscarBuilder::new(cfg);
    }

    #[test]
    fn tiny_networks_are_wired_directly() {
        let mut ov = overlay(1);
        ov.grow_to(4, &UniformKeys, &ConstantDegrees::new(8))
            .unwrap();
        // each of the 4 peers links to the 3 others
        for p in ov.network().all_peers() {
            assert_eq!(ov.network().peer(p).out_degree(), 3);
        }
    }

    #[test]
    fn oscar_overlay_routes_efficiently_uniform() {
        let mut ov = overlay(2);
        ov.grow_to(500, &UniformKeys, &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 500);
        assert_eq!(stats.success_rate, 1.0);
        // log2(500)^2 ≈ 80; Oscar with 27 links/peer lands way below.
        assert!(stats.mean_cost < 10.0, "mean cost {}", stats.mean_cost);
    }

    #[test]
    fn oscar_overlay_routes_efficiently_gnutella_keys() {
        let mut ov = overlay(3);
        ov.grow_to(500, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 500);
        assert_eq!(stats.success_rate, 1.0);
        assert!(
            stats.mean_cost < 12.0,
            "skewed keys should not break routing: {}",
            stats.mean_cost
        );
    }

    #[test]
    fn heterogeneous_degrees_respect_budgets() {
        let mut ov = overlay(4);
        ov.grow_to(400, &GnutellaKeys::default(), &SpikyDegrees::paper())
            .unwrap();
        for p in ov.network().all_peers() {
            let peer = ov.network().peer(p);
            assert!(peer.in_degree() <= peer.caps.rho_in, "in budget violated");
            assert!(
                peer.out_degree() <= peer.caps.rho_out,
                "out budget violated"
            );
        }
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 400);
        assert_eq!(stats.success_rate, 1.0);
    }

    #[test]
    fn stepped_degrees_work_too() {
        let mut ov = overlay(5);
        ov.grow_to(300, &GnutellaKeys::default(), &SteppedDegrees::paper())
            .unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 300);
        assert_eq!(stats.success_rate, 1.0);
        assert!(stats.mean_cost < 12.0);
    }

    #[test]
    fn overlay_survives_churn() {
        let mut ov = overlay(6);
        ov.grow_to(400, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let baseline = ov.run_queries(&QueryWorkload::UniformPeers, 300);
        ov.kill_fraction(0.33).unwrap();
        let after = ov.run_queries(&QueryWorkload::UniformPeers, 300);
        assert_eq!(after.success_rate, 1.0, "stabilised ring always delivers");
        assert!(
            after.mean_cost > baseline.mean_cost,
            "dead links must cost something: {} vs {}",
            after.mean_cost,
            baseline.mean_cost
        );
        assert!(after.mean_wasted > 0.0);
    }

    #[test]
    fn build_links_is_estimate_then_acquire_on_one_rng() {
        // Callers that put a span around each half (the benchmark's traced
        // run) must build the very overlay `build_links` builds.
        let cfg = OscarConfig::default();
        let mut ov = overlay(8);
        ov.grow_to(200, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let builder = OscarBuilder::new(cfg);
        for rank in [0, 77, 199] {
            let mut whole = ov.network().clone();
            let mut halves = whole.clone();
            let p = whole.live_peer_by_rank(rank);
            whole.unlink_long_out(p);
            halves.unlink_long_out(p);
            let mut rng = SeedTree::new(rank as u64).rng();
            let mut rng_halves = rng.clone();
            builder.build_links(&mut whole, p, &mut rng).unwrap();
            let parts = estimate_partitions(&halves, p, &cfg, &mut rng_halves).unwrap();
            acquire_links(&mut halves, p, &parts, &cfg, &mut rng_halves).unwrap();
            assert!(whole.peer(p).out_degree() > 0);
            for q in whole.all_peers() {
                assert_eq!(whole.peer(q).long_out, halves.peer(q).long_out);
                assert_eq!(whole.peer(q).long_in, halves.peer(q).long_in);
            }
            assert!(whole.metrics == halves.metrics, "message counts differ");
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut ov = overlay(7);
            ov.grow_to(200, &GnutellaKeys::default(), &ConstantDegrees::paper())
                .unwrap();
            ov.run_queries(&QueryWorkload::UniformPeers, 200).mean_cost
        };
        assert_eq!(run(), run());
    }
}
