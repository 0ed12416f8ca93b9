//! Mixtures of narrow clusters — "totally arbitrary" spiky distributions.
//!
//! The paper's argument against Mercury is that real key densities are
//! arbitrary: sharp spikes separated by deserts, at unpredictable places.
//! [`MixtureKeys`] composes any weighted set of component distributions;
//! [`ClusteredKeys`] is the ready-made spiky instance used in tests and
//! ablations (Zipf-weighted narrow Gaussian clusters at random centres).

use crate::{zipf_cdf_table, KeyDistribution};
use oscar_types::{Id, SeedTree};
use rand::{Rng, RngCore};

/// A normal (Gaussian) cluster wrapped onto the ring.
///
/// Sampling uses Box–Muller; the result wraps around the ring, which is the
/// natural way to put a bump of width `sigma` at `center` on circular space.
#[derive(Copy, Clone, Debug)]
pub struct NormalCluster {
    /// Cluster centre on the unit interval.
    pub center: f64,
    /// Standard deviation on the unit interval (e.g. `1e-3` = very sharp).
    pub sigma: f64,
}

impl NormalCluster {
    fn sample_unit(&self, rng: &mut dyn RngCore) -> f64 {
        // Box-Muller transform; one draw per call is fine at our rates.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.center + z * self.sigma
    }
}

impl KeyDistribution for NormalCluster {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        Id::from_unit(self.sample_unit(rng))
    }

    fn name(&self) -> &str {
        "normal-cluster"
    }
}

/// Weighted mixture of key distributions.
pub struct MixtureKeys {
    components: Vec<Box<dyn KeyDistribution>>,
    /// Cumulative weights, last element exactly 1.0.
    cum_weights: Vec<f64>,
    name: String,
}

impl MixtureKeys {
    /// Builds a mixture; weights are normalised.
    ///
    /// # Panics
    /// If empty, lengths differ, or weights are non-positive.
    pub fn new(components: Vec<Box<dyn KeyDistribution>>, weights: &[f64]) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        assert_eq!(components.len(), weights.len(), "weight per component");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        let mut cum = 0.0;
        let mut cum_weights: Vec<f64> = weights
            .iter()
            .map(|w| {
                cum += w / total;
                cum
            })
            .collect();
        *cum_weights.last_mut().expect("non-empty") = 1.0;
        let name = format!("mixture({} components)", components.len());
        MixtureKeys {
            components,
            cum_weights,
            name,
        }
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.components.len()
    }
}

impl KeyDistribution for MixtureKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        let u: f64 = rng.gen();
        let idx = match self
            .cum_weights
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.components.len() - 1),
        };
        self.components[idx].sample(rng)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Ready-made spiky distribution: `k` sharp Gaussian clusters at
/// deterministic random centres with Zipf(`s`) weights.
pub struct ClusteredKeys {
    inner: MixtureKeys,
    centers: Vec<f64>,
}

impl ClusteredKeys {
    /// `k` clusters of width `sigma`, Zipf exponent `s`, deterministic in
    /// `seed`.
    pub fn new(k: usize, sigma: f64, s: f64, seed: u64) -> Self {
        assert!(k > 0);
        #[expect(
            clippy::disallowed_methods,
            reason = "cluster centers are rooted at an explicit caller-provided seed — a distribution entry point"
        )]
        let mut rng = SeedTree::new(seed).child(0xC1u64).rng();
        let centers: Vec<f64> = (0..k).map(|_| rng.gen::<f64>()).collect();
        let cdf = zipf_cdf_table(k, s);
        let mut weights = Vec::with_capacity(k);
        let mut prev = 0.0;
        for &c in &cdf {
            weights.push(c - prev);
            prev = c;
        }
        let components: Vec<Box<dyn KeyDistribution>> = centers
            .iter()
            .map(|&center| Box::new(NormalCluster { center, sigma }) as Box<dyn KeyDistribution>)
            .collect();
        ClusteredKeys {
            inner: MixtureKeys::new(components, &weights),
            centers,
        }
    }

    /// The cluster centres (unit interval), heaviest first.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }
}

impl KeyDistribution for ClusteredKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        self.inner.sample(rng)
    }

    fn name(&self) -> &str {
        "clustered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mass_in_top_bins, sample_n, UniformKeys};
    use oscar_types::SeedTree;

    #[test]
    fn normal_cluster_concentrates_near_center() {
        let c = NormalCluster {
            center: 0.5,
            sigma: 0.01,
        };
        let keys = sample_n(&c, 2_000, &mut SeedTree::new(1).rng());
        let near = keys
            .iter()
            .filter(|k| (k.to_unit() - 0.5).abs() < 0.03)
            .count();
        assert!(near > 1_900, "within 3 sigma: {near}");
    }

    #[test]
    fn normal_cluster_wraps_at_ring_edge() {
        let c = NormalCluster {
            center: 0.001,
            sigma: 0.01,
        };
        let keys = sample_n(&c, 2_000, &mut SeedTree::new(2).rng());
        // Roughly half the mass wraps to the top of the unit interval.
        let wrapped = keys.iter().filter(|k| k.to_unit() > 0.9).count();
        assert!(wrapped > 400, "wrapped: {wrapped}");
    }

    #[test]
    fn mixture_respects_weights() {
        let comps: Vec<Box<dyn KeyDistribution>> = vec![
            Box::new(NormalCluster {
                center: 0.25,
                sigma: 1e-4,
            }),
            Box::new(NormalCluster {
                center: 0.75,
                sigma: 1e-4,
            }),
        ];
        let m = MixtureKeys::new(comps, &[0.9, 0.1]);
        let keys = sample_n(&m, 5_000, &mut SeedTree::new(3).rng());
        let near_heavy = keys
            .iter()
            .filter(|k| (k.to_unit() - 0.25).abs() < 0.01)
            .count();
        let frac = near_heavy as f64 / 5_000.0;
        assert!((frac - 0.9).abs() < 0.03, "heavy component fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "needs components")]
    fn empty_mixture_panics() {
        MixtureKeys::new(vec![], &[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_panics() {
        let comps: Vec<Box<dyn KeyDistribution>> = vec![Box::new(UniformKeys)];
        MixtureKeys::new(comps, &[0.0]);
    }

    #[test]
    fn clustered_is_much_spikier_than_uniform() {
        let d = ClusteredKeys::new(12, 5e-4, 1.0, 99);
        let keys = sample_n(&d, 20_000, &mut SeedTree::new(4).rng());
        let m = mass_in_top_bins(&keys, 1000, 0.02);
        assert!(
            m > 0.8,
            "top 2% of fine bins should hold most mass, got {m}"
        );
    }

    #[test]
    fn clustered_deterministic_centers() {
        let a = ClusteredKeys::new(5, 1e-3, 1.0, 7);
        let b = ClusteredKeys::new(5, 1e-3, 1.0, 7);
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.inner.arity(), 5);
    }
}
