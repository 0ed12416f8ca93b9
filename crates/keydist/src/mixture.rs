//! Zipf-weighted mixtures of narrow clusters — "totally arbitrary" spiky
//! distributions.
//!
//! The paper's argument against Mercury is that real key densities are
//! arbitrary: sharp spikes separated by deserts, at unpredictable places.
//! [`ClusteredKeys`] is such a density; `oscar-core`'s partition tests and
//! the facade's overlay property tests grow overlays on it.

use crate::{zipf_cdf_table, KeyDistribution};
use oscar_types::{Id, SeedTree};
use rand::{Rng, RngCore};

/// Ready-made spiky distribution: `k` sharp Gaussian clusters at
/// deterministic random centres with Zipf(`s`) weights. A draw picks a
/// cluster by weight, then a normal offset from its centre, wrapped onto
/// the ring.
pub struct ClusteredKeys {
    /// Cluster centres on the unit interval, heaviest first.
    centers: Vec<f64>,
    /// Every cluster's standard deviation on the unit interval (e.g.
    /// `1e-3` = very sharp).
    sigma: f64,
    /// Cumulative cluster weights, last element exactly 1.0.
    cum_weights: Vec<f64>,
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
        // The weights renormalised and accumulated again, as a mixture of
        // arbitrary weights would be: the same floats, so the same draws.
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
        ClusteredKeys {
            centers,
            sigma,
            cum_weights,
        }
    }
}

impl KeyDistribution for ClusteredKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        let u: f64 = rng.gen();
        let idx = match self
            .cum_weights
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.centers.len() - 1),
        };
        // Box-Muller transform; one draw per call is fine at our rates.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        Id::from_unit(self.centers[idx] + z * self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mass_in_top_bins, sample_n};
    use oscar_types::SeedTree;

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
    fn clusters_are_sharp_and_zipf_weighted() {
        // Two clusters at s = 1 weigh 2/3 and 1/3; at sigma 1e-4 nearly
        // every draw lands within 1e-3 of its centre, measured around the
        // ring.
        let d = ClusteredKeys::new(2, 1e-4, 1.0, 5);
        let keys = sample_n(&d, 6_000, &mut SeedTree::new(3).rng());
        let near = |c: f64| {
            keys.iter()
                .filter(|k| {
                    let dist = (k.to_unit() - c).abs();
                    dist.min(1.0 - dist) < 1e-3
                })
                .count() as f64
                / keys.len() as f64
        };
        let (heavy, light) = (near(d.centers[0]), near(d.centers[1]));
        assert!((heavy - 2.0 / 3.0).abs() < 0.03, "heavy cluster {heavy}");
        assert!(heavy + light > 0.999, "draws off both clusters");
    }

    #[test]
    fn clustered_deterministic_centers() {
        let a = ClusteredKeys::new(5, 1e-3, 1.0, 7);
        let b = ClusteredKeys::new(5, 1e-3, 1.0, 7);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.centers.len(), 5);
        assert_ne!(a.centers, ClusteredKeys::new(5, 1e-3, 1.0, 8).centers);
    }
}
