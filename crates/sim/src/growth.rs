//! Bootstrap-and-grow driver.
//!
//! The paper's experiments "simulate the bootstrap of the Oscar network
//! starting from scratch and simulating the network growth until it reaches
//! 10000 peers", periodically rewiring all long-range links and measuring
//! at checkpoints. This driver implements that protocol generically over an
//! [`OverlayBuilder`], so Oscar and Mercury run under *identical* growth,
//! rewiring and measurement schedules.

use crate::network::Network;
use crate::peer::{LinkError, PeerIdx};
use oscar_degree::DegreeDistribution;
use oscar_keydist::KeyDistribution;
use oscar_types::labels::sim_growth::{LBL_IDS, LBL_JOIN, LBL_REWIRE, LBL_SHUFFLE};
use oscar_types::{Error, Id, Result, SeedTree};
use rand::rngs::SmallRng;
use rand::Rng;

/// Strategy that (re)builds a peer's long-range links.
///
/// Implemented by `oscar-core`'s three builders: `OscarBuilder`
/// (partition sampling + power-of-two), `MercuryBuilder` (sampled CDF +
/// harmonic distances) and `ChordBuilder` (fingers at `n + 2^i`).
pub trait OverlayBuilder {
    /// Builds long-range links for `p` (which has none yet from this
    /// builder's perspective). Must tolerate tiny networks (n = 1, 2, …;
    /// open with [`wire_directly`]) and exhausted in-degree budgets —
    /// partial success is success.
    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()>;

    /// Rewires `p`: tears its outgoing links down and rebuilds them.
    fn rewire(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        net.unlink_long_out(p);
        self.build_links(net, p, rng)
    }
}

/// Networks at or below this size are wired directly (everyone links to
/// everyone, budget permitting): sampling walks need a graph to walk on,
/// and at this scale "everyone" *is* the logarithmic partition set.
const DIRECT_WIRING_THRESHOLD: usize = 8;

/// The small-network preamble every [`OverlayBuilder::build_links`] opens
/// with, the same for all overlays so their comparison starts from one
/// bootstrap: returns `true` when `p` needs nothing further — it is dead
/// or alone, or the network is small enough that `p` was just linked to
/// every live peer its budgets admit.
pub fn wire_directly(net: &mut Network, p: PeerIdx) -> bool {
    if !net.is_alive(p) || net.live_count() <= 1 {
        return true;
    }
    if net.live_count() > DIRECT_WIRING_THRESHOLD {
        return false;
    }
    let targets: Vec<PeerIdx> = net.live_peers().filter(|&t| t != p).collect();
    for t in targets {
        if !net.peer(p).can_open_out() {
            break;
        }
        match net.try_link(p, t) {
            Ok(()) | Err(LinkError::TargetFull) | Err(LinkError::Duplicate) => {}
            Err(LinkError::SelfLink) | Err(LinkError::Dead) => {}
            Err(LinkError::SourceFull) => break,
        }
    }
    true
}

/// Size of the bootstrap cohort, capped at the target: the peers added
/// before any links are built (they are each other's only possible
/// targets; 8 matches a realistic seeded deployment and makes early
/// sampling walks meaningful).
const SEED_COHORT: usize = 8;

/// Growth schedule.
#[derive(Clone, Debug)]
pub struct GrowthConfig {
    /// Final network size.
    pub target_size: usize,
    /// Network sizes at which to rewire every live peer's long-range
    /// links (the paper's protocol) and then invoke the measurement
    /// callback. Strictly ascending, each between the bootstrap cohort's
    /// size and `target_size`.
    pub checkpoints: Vec<usize>,
}

/// Identifies a checkpoint in the callback.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// 0-based index into `GrowthConfig::checkpoints`.
    pub index: usize,
    /// Network size at this checkpoint.
    pub size: usize,
}

impl GrowthConfig {
    fn seed_cohort(&self) -> usize {
        SEED_COHORT.min(self.target_size)
    }

    fn validate(&self) -> Result<()> {
        if self.target_size < 2 {
            return Err(Error::InvalidConfig(format!(
                "target_size must be >= 2 (a one-peer network has no link targets), got {}",
                self.target_size
            )));
        }
        if self.checkpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::InvalidConfig(
                "checkpoints must be strictly ascending".into(),
            ));
        }
        let reachable = self.seed_cohort()..=self.target_size;
        if let Some(cp) = self.checkpoints.iter().find(|cp| !reachable.contains(cp)) {
            return Err(Error::InvalidConfig(format!(
                "checkpoint {cp} is outside [{}, {}]: growth would never reach it, or \
                 would measure it at a larger size",
                reachable.start(),
                reachable.end()
            )));
        }
        Ok(())
    }

    /// Grows `net` to `target_size`, invoking `on_checkpoint` at each
    /// configured size (after the rewire-all pass).
    ///
    /// Determinism: all randomness derives from `seed`; identical inputs
    /// give bit-identical networks and metrics.
    pub fn run<B, F>(
        &self,
        net: &mut Network,
        builder: &B,
        keys: &dyn KeyDistribution,
        degrees: &dyn DegreeDistribution,
        seed: SeedTree,
        mut on_checkpoint: F,
    ) -> Result<()>
    where
        B: OverlayBuilder + ?Sized,
        F: FnMut(&Network, Checkpoint) -> Result<()>,
    {
        self.validate()?;
        let mut id_rng = seed.child(LBL_IDS).rng();
        let mut next_checkpoint = 0usize;

        // Bootstrap cohort: ids and caps only; links follow once all the
        // seeds exist (they need each other as targets).
        while net.len() < self.seed_cohort() {
            admit_peer(net, keys, degrees, &mut id_rng)?;
        }
        for (i, p) in net.all_peers().enumerate().collect::<Vec<_>>() {
            let mut rng = seed.child2(LBL_JOIN, i as u64).rng();
            builder.build_links(net, p, &mut rng)?;
        }
        self.fire_checkpoints(
            net,
            builder,
            &seed,
            &mut next_checkpoint,
            &mut on_checkpoint,
        )?;

        // Incremental growth.
        while net.len() < self.target_size {
            let p = admit_peer(net, keys, degrees, &mut id_rng)?;
            let mut rng = seed.child2(LBL_JOIN, p.as_usize() as u64).rng();
            builder.build_links(net, p, &mut rng)?;
            self.fire_checkpoints(
                net,
                builder,
                &seed,
                &mut next_checkpoint,
                &mut on_checkpoint,
            )?;
        }
        Ok(())
    }

    fn fire_checkpoints<B, F>(
        &self,
        net: &mut Network,
        builder: &B,
        seed: &SeedTree,
        next_checkpoint: &mut usize,
        on_checkpoint: &mut F,
    ) -> Result<()>
    where
        B: OverlayBuilder + ?Sized,
        F: FnMut(&Network, Checkpoint) -> Result<()>,
    {
        while *next_checkpoint < self.checkpoints.len()
            && net.len() >= self.checkpoints[*next_checkpoint]
        {
            let cp = Checkpoint {
                index: *next_checkpoint,
                size: self.checkpoints[*next_checkpoint],
            };
            rewire_all_peers(net, builder, seed.child2(LBL_REWIRE, cp.index as u64))?;
            on_checkpoint(net, cp)?;
            *next_checkpoint += 1;
        }
        Ok(())
    }
}

/// Samples an identifier no peer holds yet, resampling collisions (key
/// distributions are allowed to produce duplicates). `taken` answers
/// whether a draw is already in use.
pub(crate) fn fresh_id(
    keys: &dyn KeyDistribution,
    rng: &mut SmallRng,
    mut taken: impl FnMut(Id) -> bool,
) -> Result<Id> {
    for _ in 0..1000 {
        let id = keys.sample(rng);
        if !taken(id) {
            return Ok(id);
        }
    }
    Err(Error::InvalidConfig(
        "key distribution too degenerate: 1000 consecutive id collisions".into(),
    ))
}

/// Adds one peer with sampled degree caps and a fresh identifier; its
/// links are the caller's to build. Shared by [`GrowthConfig::run`] and the
/// churn engine's oracle world, so a join draws the same way in both.
pub(crate) fn admit_peer(
    net: &mut Network,
    keys: &dyn KeyDistribution,
    degrees: &dyn DegreeDistribution,
    rng: &mut SmallRng,
) -> Result<PeerIdx> {
    let caps = degrees.sample(rng);
    let id = fresh_id(keys, rng, |id| net.idx_of(id).is_some())?;
    net.add_peer(id, caps)
}

/// Rewires every live peer's long-range links once, in a deterministically
/// shuffled order (rewiring order matters: early peers grab in-degree
/// budget first, so a fixed order would bias utilisation). Shared by the
/// growth checkpoints, the facade's `rewire_all` and the
/// continuous-churn engine's periodic sweeps.
pub fn rewire_all_peers<B>(net: &mut Network, builder: &B, seed: SeedTree) -> Result<()>
where
    B: OverlayBuilder + ?Sized,
{
    let mut order: Vec<PeerIdx> = net.live_peers().collect();
    let mut shuffle_rng = seed.child(LBL_SHUFFLE).rng();
    for i in (1..order.len()).rev() {
        let j = shuffle_rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for p in order {
        let mut rng = seed.child2(LBL_REWIRE, p.as_usize() as u64).rng();
        builder.rewire(net, p, &mut rng)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::FaultModel;
    use oscar_degree::ConstantDegrees;
    use oscar_keydist::UniformKeys;

    /// Toy builder: links to up to 3 random live peers.
    struct RandomBuilder;

    impl OverlayBuilder for RandomBuilder {
        fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
            for _ in 0..12 {
                if net.peer(p).out_degree() >= 3 {
                    break;
                }
                let Some(t) = net.random_live_peer(rng) else {
                    break;
                };
                match net.try_link(p, t) {
                    Ok(()) | Err(LinkError::SelfLink) | Err(LinkError::Duplicate) => {}
                    Err(LinkError::TargetFull) => {}
                    Err(e) => panic!("unexpected link error {e:?}"),
                }
            }
            Ok(())
        }
    }

    /// Grows a toy overlay under `config`: the network and the sizes of
    /// the checkpoints that fired, or the config error.
    fn grow(config: GrowthConfig, seed: u64) -> Result<(Network, Vec<usize>)> {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let mut fired = Vec::new();
        config.run(
            &mut net,
            &RandomBuilder,
            &UniformKeys,
            &ConstantDegrees::new(8),
            SeedTree::new(seed),
            |net, cp| {
                assert_eq!(net.len(), cp.size, "checkpoint fired at the wrong size");
                fired.push(cp.size);
                Ok(())
            },
        )?;
        Ok((net, fired))
    }

    fn run_growth(target: usize, checkpoints: Vec<usize>, seed: u64) -> (Network, Vec<usize>) {
        let config = GrowthConfig {
            target_size: target,
            checkpoints,
        };
        grow(config, seed).unwrap()
    }

    #[test]
    fn grows_to_target_and_fires_checkpoints() {
        let (net, fired) = run_growth(200, vec![50, 100, 200], 1);
        assert_eq!(net.len(), 200);
        assert_eq!(net.live_count(), 200);
        assert_eq!(fired, vec![50, 100, 200]);
    }

    #[test]
    fn all_peers_get_links() {
        let (net, _) = run_growth(100, vec![100], 2);
        let linked = net
            .all_peers()
            .filter(|&p| net.peer(p).out_degree() > 0)
            .count();
        assert!(linked >= 99, "{linked}/100 peers have out-links");
    }

    #[test]
    fn invariants_hold_after_growth_and_rewiring() {
        for (target, checkpoints, seed) in [(150, vec![50, 100, 150], 3), (80, vec![80], 4)] {
            let (net, _) = run_growth(target, checkpoints, seed);
            net.check_invariants().unwrap();
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (a, _) = run_growth(120, vec![60, 120], 42);
        let (b, _) = run_growth(120, vec![60, 120], 42);
        assert_eq!(a.metrics, b.metrics);
        for p in a.all_peers() {
            assert_eq!(a.peer(p).id, b.peer(p).id);
            assert_eq!(a.peer(p).long_out, b.peer(p).long_out);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = run_growth(120, vec![120], 1);
        let (b, _) = run_growth(120, vec![120], 2);
        let same = a
            .all_peers()
            .take(50)
            .filter(|&p| a.peer(p).id == b.peer(p).id)
            .count();
        assert!(same < 50, "seeds produced identical id streams");
    }

    #[test]
    fn invalid_configs_rejected() {
        for (target_size, checkpoints) in [(1, vec![]), (10, vec![8, 8])] {
            let config = GrowthConfig {
                target_size,
                checkpoints,
            };
            let outcome = grow(config.clone(), 1);
            assert!(
                matches!(outcome, Err(Error::InvalidConfig(_))),
                "{config:?}"
            );
        }
    }

    #[test]
    fn checkpoints_growth_cannot_measure_at_their_size_are_rejected() {
        // Past the target a checkpoint never fires; below the bootstrap
        // cohort it fires once 8 peers exist, labelled with a size the
        // network no longer has. Both used to pass silently.
        for checkpoints in [vec![50, 200], vec![3, 50]] {
            let config = GrowthConfig {
                target_size: 100,
                checkpoints,
            };
            let outcome = grow(config.clone(), 1);
            assert!(
                matches!(outcome, Err(Error::InvalidConfig(_))),
                "{config:?}"
            );
        }
        // The cohort's own size and the target are both measurable.
        let (_, fired) = run_growth(100, vec![8, 100], 1);
        assert_eq!(fired, vec![8, 100]);
    }
}
