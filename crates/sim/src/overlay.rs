//! High-level overlay facade.
//!
//! [`Overlay`] bundles a [`Network`], an [`OverlayBuilder`] strategy and a
//! deterministic seed into the object users actually interact with:
//! grow it, rewire it, crash it, query it. Oscar and Mercury are the same
//! facade with different builders, which guarantees the comparison
//! benchmarks treat both identically.

use crate::churn::{kill_fraction, FaultModel};
use crate::churn_engine::{ChurnSchedule, ChurnWindowStats};
use crate::churn_oracle::run_continuous_churn;
use crate::growth::{rewire_all_peers, Checkpoint, GrowthConfig, OverlayBuilder};
use crate::network::Network;
use crate::peer::PeerIdx;
use crate::routing::{run_query_batch, QueryBatchStats, RoutePolicy};
use oscar_degree::DegreeDistribution;
use oscar_keydist::{KeyDistribution, QueryWorkload};
use oscar_types::labels::sim_overlay::{
    LBL_CHURN, LBL_CONTINUOUS, LBL_GROW, LBL_QUERY, LBL_REWIRE,
};
use oscar_types::{Result, SeedTree};

/// A running overlay: network + link-building strategy + seed.
pub struct Overlay<B: OverlayBuilder> {
    net: Network,
    builder: B,
    seed: SeedTree,
    rewire_rounds: u64,
    query_batches: u64,
    churn_waves: u64,
    churn_runs: u64,
}

impl<B: OverlayBuilder> Overlay<B> {
    /// New empty overlay.
    pub fn new(builder: B, fault_model: FaultModel, seed: u64) -> Self {
        Overlay {
            net: Network::new(fault_model),
            builder,
            #[expect(
                clippy::disallowed_methods,
                reason = "the overlay facade is the experiment entry point that roots the tree"
            )]
            seed: SeedTree::new(seed),
            rewire_rounds: 0,
            query_batches: 0,
            churn_waves: 0,
            churn_runs: 0,
        }
    }

    /// The underlying network (read access).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The underlying network (mutable access, for custom experiments).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The link-building strategy.
    pub fn builder(&self) -> &B {
        &self.builder
    }

    /// Grows the overlay under `config`, invoking `on_checkpoint` at each
    /// configured size (after the rewire-all pass).
    pub fn grow<F>(
        &mut self,
        keys: &dyn KeyDistribution,
        degrees: &dyn DegreeDistribution,
        config: GrowthConfig,
        on_checkpoint: F,
    ) -> Result<()>
    where
        F: FnMut(&Network, Checkpoint) -> Result<()>,
    {
        config.run(
            &mut self.net,
            &self.builder,
            keys,
            degrees,
            self.seed.child(LBL_GROW),
            on_checkpoint,
        )
    }

    /// Convenience: grow straight to `n` peers (no intermediate
    /// checkpoints), then rewire everyone once so every peer's links
    /// reflect the final population.
    pub fn grow_to(
        &mut self,
        n: usize,
        keys: &dyn KeyDistribution,
        degrees: &dyn DegreeDistribution,
    ) -> Result<()> {
        self.grow(
            keys,
            degrees,
            GrowthConfig {
                target_size: n,
                checkpoints: vec![],
            },
            |_, _| Ok(()),
        )?;
        self.rewire_all()
    }

    /// Rewires every live peer's long-range links once.
    pub fn rewire_all(&mut self) -> Result<()> {
        self.rewire_rounds += 1;
        let seed = self.seed.child2(LBL_REWIRE, self.rewire_rounds);
        rewire_all_peers(&mut self.net, &self.builder, seed)
    }

    /// Issues `n` queries and aggregates the costs. Each call uses a fresh
    /// derived RNG stream, so repeated batches are independent but the
    /// whole experiment stays reproducible.
    pub fn run_queries(&mut self, workload: &QueryWorkload, n: usize) -> QueryBatchStats {
        self.query_batches += 1;
        let mut rng = self.seed.child2(LBL_QUERY, self.query_batches).rng();
        run_query_batch(&self.net, workload, n, &RoutePolicy::default(), &mut rng)
    }

    /// Crashes a uniform fraction of live peers. Each wave draws from its
    /// own derived RNG stream (mirroring [`Overlay::run_queries`]), so
    /// repeated waves on one overlay are independent — the previous
    /// fixed-label derivation replayed the identical stream every call,
    /// silently correlating repeated-churn experiments.
    pub fn kill_fraction(&mut self, fraction: f64) -> Result<Vec<PeerIdx>> {
        self.churn_waves += 1;
        let mut rng = self.seed.child2(LBL_CHURN, self.churn_waves).rng();
        kill_fraction(&mut self.net, fraction, &mut rng)
    }

    /// Runs `windows` measurement windows of continuous churn (Poisson
    /// join/crash/depart arrivals on the event queue — see
    /// [`crate::churn_engine`]). Each call uses a fresh derived seed, so
    /// repeated runs on one overlay are independent but reproducible.
    pub fn run_continuous_churn(
        &mut self,
        keys: &dyn KeyDistribution,
        degrees: &dyn DegreeDistribution,
        schedule: &ChurnSchedule,
        windows: usize,
    ) -> Result<Vec<ChurnWindowStats>> {
        self.churn_runs += 1;
        run_continuous_churn(
            &mut self.net,
            &self.builder,
            keys,
            degrees,
            schedule,
            windows,
            self.seed.child2(LBL_CONTINUOUS, self.churn_runs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::LinkError;
    use oscar_degree::{ConstantDegrees, DegreeCaps};
    use oscar_keydist::UniformKeys;
    use rand::rngs::SmallRng;

    struct RandomBuilder;

    impl OverlayBuilder for RandomBuilder {
        fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
            for _ in 0..20 {
                if net.peer(p).out_degree() >= 5 {
                    break;
                }
                if let Some(t) = net.random_live_peer(rng) {
                    match net.try_link(p, t) {
                        Ok(())
                        | Err(LinkError::SelfLink)
                        | Err(LinkError::Duplicate)
                        | Err(LinkError::TargetFull) => {}
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn grow_query_churn_cycle() {
        let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 7);
        ov.grow_to(200, &UniformKeys, &ConstantDegrees::new(8))
            .unwrap();
        assert_eq!(ov.network().live_count(), 200);

        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 100);
        assert_eq!(stats.success_rate, 1.0);
        assert!(stats.mean_cost > 0.0);

        let killed = ov.kill_fraction(0.10).unwrap();
        assert_eq!(killed.len(), 20);
        let stats2 = ov.run_queries(&QueryWorkload::UniformPeers, 100);
        assert_eq!(stats2.success_rate, 1.0, "stabilised ring still delivers");
    }

    #[test]
    fn query_batches_are_independent_but_reproducible() {
        let run = || {
            let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 9);
            ov.grow_to(100, &UniformKeys, &ConstantDegrees::new(6))
                .unwrap();
            let a = ov.run_queries(&QueryWorkload::UniformPeers, 50);
            let b = ov.run_queries(&QueryWorkload::UniformPeers, 50);
            (a.mean_cost, b.mean_cost)
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_eq!(a1, a2, "same seed, same first batch");
        assert_eq!(b1, b2, "same seed, same second batch");
        assert_ne!(a1, b1, "different batches draw different queries");
    }

    #[test]
    fn rewire_all_preserves_caps() {
        let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 11);
        ov.grow_to(150, &UniformKeys, &ConstantDegrees::new(6))
            .unwrap();
        ov.rewire_all().unwrap();
        ov.rewire_all().unwrap();
        for p in ov.network().all_peers() {
            let peer = ov.network().peer(p);
            assert!(peer.in_degree() <= peer.caps.rho_in);
            assert!(peer.out_degree() <= peer.caps.rho_out);
        }
    }

    #[test]
    fn successive_kill_waves_draw_independent_streams() {
        // Regression for the wave-counter fix: the old derivation rebuilt
        // `seed.child(LBL_CHURN)` on every call, so two waves over
        // equal-sized populations replayed the identical RNG stream and
        // selected the identical *positions* in the live-peer list. Restore
        // the population between waves to make that replay observable.
        let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 21);
        ov.grow_to(100, &UniformKeys, &ConstantDegrees::new(6))
            .unwrap();

        let positions_of = |pre: &[PeerIdx], killed: &[PeerIdx]| -> Vec<usize> {
            killed
                .iter()
                .map(|k| pre.iter().position(|p| p == k).expect("victim was live"))
                .collect()
        };

        let pre1: Vec<PeerIdx> = ov.network().live_peers().collect();
        let wave1 = ov.kill_fraction(0.10).unwrap();
        let pos1 = positions_of(&pre1, &wave1);

        // Refill to exactly 100 live peers so wave 2 samples from a
        // same-length list — a replayed stream would pick the same spots.
        for i in 0..wave1.len() {
            ov.network_mut()
                .add_peer(
                    oscar_types::Id::new(u64::MAX - i as u64),
                    DegreeCaps::symmetric(6),
                )
                .unwrap();
        }
        assert_eq!(ov.network().live_count(), 100);
        let pre2: Vec<PeerIdx> = ov.network().live_peers().collect();
        let wave2 = ov.kill_fraction(0.10).unwrap();
        let pos2 = positions_of(&pre2, &wave2);

        assert_ne!(
            pos1, pos2,
            "waves replayed the same RNG stream: victims at identical list positions"
        );
        // And the wave sequence stays reproducible under the same seed.
        let mut ov2 = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 21);
        ov2.grow_to(100, &UniformKeys, &ConstantDegrees::new(6))
            .unwrap();
        assert_eq!(ov2.kill_fraction(0.10).unwrap(), wave1);
    }

    #[test]
    fn grow_to_tiny_targets() {
        // n < 2 has no link targets; it must come back as InvalidConfig,
        // not something silent. n = 2 is the smallest runnable overlay.
        for n in [0usize, 1] {
            let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 31);
            match ov.grow_to(n, &UniformKeys, &ConstantDegrees::new(4)) {
                Err(oscar_types::Error::InvalidConfig(msg)) => {
                    assert!(
                        msg.contains("target_size"),
                        "unhelpful message for n={n}: {msg}"
                    );
                }
                other => panic!("grow_to({n}) should be InvalidConfig, got {other:?}"),
            }
        }
        let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 31);
        ov.grow_to(2, &UniformKeys, &ConstantDegrees::new(4))
            .unwrap();
        assert_eq!(ov.network().live_count(), 2);
    }

    #[test]
    fn continuous_churn_runs_are_independent_but_reproducible() {
        use crate::churn_engine::{ChurnSchedule, QueryBudget};
        let schedule = ChurnSchedule {
            query_budget: QueryBudget::Fixed(50),
            ..ChurnSchedule::symmetric(0.05)
        };
        let run = || {
            let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 19);
            ov.grow_to(150, &UniformKeys, &ConstantDegrees::new(6))
                .unwrap();
            let a = ov
                .run_continuous_churn(&UniformKeys, &ConstantDegrees::new(6), &schedule, 2)
                .unwrap();
            let b = ov
                .run_continuous_churn(&UniformKeys, &ConstantDegrees::new(6), &schedule, 2)
                .unwrap();
            (a, b)
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_eq!(a1, a2, "same seed, same first run");
        assert_eq!(b1, b2, "same seed, same second run");
        assert_ne!(a1, b1, "repeated runs draw fresh streams");
        for w in &a1 {
            assert!(w.queries.queries > 0);
        }
    }

    #[test]
    fn grow_with_checkpoints_reports_sizes() {
        let mut ov = Overlay::new(RandomBuilder, FaultModel::StabilizedRing, 13);
        let mut sizes = Vec::new();
        ov.grow(
            &UniformKeys,
            &ConstantDegrees::new(6),
            GrowthConfig {
                target_size: 120,
                checkpoints: vec![40, 80, 120],
            },
            |net, cp| {
                sizes.push((cp.size, net.live_count()));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(sizes, vec![(40, 40), (80, 80), (120, 120)]);
    }
}
