//! The "realistic" synthetic spiky degree distribution (Figure 1(a)).
//!
//! Measurement studies of unstructured overlays (Stutzbach et al., IMC'05 —
//! the paper's reference \[12\]) show node-degree distributions that are
//! *not* smooth power laws: they carry sharp probability spikes at the
//! default neighbour-count settings of popular client builds, sitting on a
//! heavy-tailed bulk from user customisation and capacity differences.
//!
//! The ICDE paper uses a synthetic distribution of exactly this shape with
//! mean 27. We reconstruct it as:
//!
//! * **spikes** at typical client defaults (10, 16, 20, 27, 30, 32, 40, 50,
//!   64, 100), dominated by the modal default 27;
//! * a **power-law bulk** `p(d) ∝ d^-1.8` over `2..=150` modelling
//!   customised/constrained peers;
//! * exact-mean **calibration to 27.0** via [`DiscretePmf::calibrate_mean`]
//!   so the three experimental distributions are directly comparable.
//!
//! The pmf itself is exported ([`SpikyDegrees::pmf_points`]) — that is what
//! `oscar-repro fig1a` plots.

use crate::{DegreeCaps, DegreeDistribution, DiscretePmf};
use rand::RngCore;

/// Spike positions and weights: `(degree, weight)`.
///
/// Chosen to mimic default-configuration pile-ups with the mode at the
/// paper's mean of 27; the exact values are calibrated afterwards anyway.
const SPIKES: &[(u32, f64)] = &[
    (10, 0.05),
    (16, 0.07),
    (20, 0.10),
    (27, 0.24),
    (30, 0.12),
    (32, 0.10),
    (40, 0.06),
    (50, 0.05),
    (64, 0.04),
    (100, 0.02),
];

/// Total probability mass assigned to the spikes (the rest is bulk).
const SPIKE_MASS: f64 = 0.85;

/// Power-law exponent of the bulk.
const BULK_EXPONENT: f64 = 1.8;

/// Bulk support range.
const BULK_RANGE: std::ops::RangeInclusive<u32> = 2..=150;

/// The synthetic spiky ("realistic") degree distribution, mean exactly 27.
#[derive(Clone, Debug)]
pub struct SpikyDegrees {
    pmf: DiscretePmf,
}

impl SpikyDegrees {
    /// The paper's distribution: spiky, heavy-tailed, mean 27.
    pub fn paper() -> Self {
        let mut points: Vec<(u32, f64)> = Vec::new();
        // Bulk: power law, scaled to (1 - SPIKE_MASS) total mass.
        let bulk_norm: f64 = BULK_RANGE
            .clone()
            .map(|d| (d as f64).powf(-BULK_EXPONENT))
            .sum();
        for d in BULK_RANGE {
            let w = (1.0 - SPIKE_MASS) * (d as f64).powf(-BULK_EXPONENT) / bulk_norm;
            points.push((d, w));
        }
        // Spikes: sum of SPIKES weights is 0.85 by construction.
        let spike_total: f64 = SPIKES.iter().map(|&(_, w)| w).sum();
        for &(d, w) in SPIKES {
            points.push((d, SPIKE_MASS * w / spike_total));
        }
        let pmf = DiscretePmf::new(&points)
            .calibrate_mean(27.0)
            .expect("spiky support spans the target mean");
        SpikyDegrees { pmf }
    }

    /// `(degree, probability)` pairs for plotting Figure 1(a).
    pub fn pmf_points(&self) -> Vec<(u32, f64)> {
        self.pmf.points()
    }

    /// Probability of an exact degree.
    pub fn prob(&self, degree: u32) -> f64 {
        self.pmf.prob(degree)
    }
}

impl DegreeDistribution for SpikyDegrees {
    fn sample(&self, rng: &mut dyn RngCore) -> DegreeCaps {
        DegreeCaps::symmetric(self.pmf.sample(rng).max(1))
    }

    fn mean_degree(&self) -> f64 {
        self.pmf.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_types::SeedTree;

    #[test]
    fn mean_is_exactly_27() {
        let d = SpikyDegrees::paper();
        assert!((d.mean_degree() - 27.0).abs() < 1e-9);
    }

    #[test]
    fn is_spiky_modal_at_27() {
        let d = SpikyDegrees::paper();
        // The spike at 27 dominates its smooth neighbours by an order of
        // magnitude — the defining feature of Figure 1(a).
        assert!(d.prob(27) > 10.0 * d.prob(26).max(d.prob(28)).max(1e-9));
        assert!(d.prob(27) > 0.1);
    }

    #[test]
    fn has_heavy_tail() {
        let d = SpikyDegrees::paper();
        // Bulk support reaches 150 with small but non-zero mass.
        assert!(d.prob(150) > 0.0);
        assert!(d.prob(150) < 1e-3);
    }

    #[test]
    fn spikes_all_present() {
        let d = SpikyDegrees::paper();
        for &(deg, _) in SPIKES {
            assert!(d.prob(deg) > 0.0, "spike at {deg} missing");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = SpikyDegrees::paper();
        let total: f64 = d.pmf_points().iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_mean_matches() {
        let d = SpikyDegrees::paper();
        let mut rng = SeedTree::new(1).rng();
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| d.sample(&mut rng).rho_in as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 27.0).abs() < 0.3, "empirical mean {mean}");
    }

    #[test]
    fn caps_are_symmetric_and_positive() {
        let d = SpikyDegrees::paper();
        let mut rng = SeedTree::new(2).rng();
        for _ in 0..1_000 {
            let caps = d.sample(&mut rng);
            assert_eq!(caps.rho_in, caps.rho_out);
            assert!(caps.rho_in >= 1);
        }
    }

    #[test]
    fn degrees_span_two_orders_of_magnitude() {
        // Figure 1(a)'s x-axis runs 10^0..10^2.
        let d = SpikyDegrees::paper();
        let pts = d.pmf_points();
        let min = pts.first().unwrap().0;
        let max = pts.last().unwrap().0;
        assert!(min <= 2, "min degree {min}");
        assert!(max >= 100, "max degree {max}");
    }
}
