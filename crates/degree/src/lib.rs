//! # oscar-degree — node degree-cap distributions
//!
//! Oscar models peer heterogeneity through per-peer link budgets: each peer
//! `p` locally fixes `ρ_in_max(p)` and `ρ_out_max(p)`, the maximum number of
//! incoming and outgoing **long-range** links it is willing to carry (ring
//! links are mandatory for correctness and not counted against the budget —
//! a peer cannot opt out of being reachable).
//!
//! The paper's three experimental distributions, all with mean 27:
//!
//! * [`ConstantDegrees`] — everyone gets 27/27 (the homogeneous control);
//! * [`SteppedDegrees`] — uniform over `{19, 23, 27, 39}`;
//! * [`SpikyDegrees`] — the "realistic" synthetic spiky distribution of
//!   Figure 1(a), modelled after measured unstructured-overlay degree
//!   distributions: probability spikes at popular client default settings
//!   on top of a power-law bulk, calibrated to mean 27 exactly.
//!
//! [`DiscretePmf`] is the shared engine: an explicit probability mass
//!   function over degrees with exact-mean calibration, inverse-CDF
//!   sampling, and pmf export (which is how Figure 1(a) is regenerated).

// The determinism rules in force in this crate's library code; `clippy.toml`
// lists the disallowed methods (ARCHITECTURE.md § "Static analysis &
// determinism rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason,
        clippy::iter_over_hash_type
    )
)]

pub mod pmf;
pub mod spiky;

pub use pmf::DiscretePmf;
pub use spiky::SpikyDegrees;

use rand::{Rng, RngCore};

/// Per-peer link budget: maximum in/out **long-range** degree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct DegreeCaps {
    /// Maximum number of incoming long-range links the peer accepts.
    pub rho_in: u32,
    /// Maximum number of outgoing long-range links the peer establishes.
    pub rho_out: u32,
}

impl DegreeCaps {
    /// Symmetric caps (the paper draws one willingness value per peer).
    pub fn symmetric(rho: u32) -> Self {
        DegreeCaps {
            rho_in: rho,
            rho_out: rho,
        }
    }
}

/// A distribution over per-peer degree caps.
pub trait DegreeDistribution: Send + Sync {
    /// Draws the caps for one peer.
    fn sample(&self, rng: &mut dyn RngCore) -> DegreeCaps;

    /// Exact mean of the per-peer degree value.
    fn mean_degree(&self) -> f64;
}

/// Every peer gets the same symmetric budget (paper: 27).
#[derive(Copy, Clone, Debug)]
pub struct ConstantDegrees {
    degree: u32,
}

impl ConstantDegrees {
    /// Constant caps of `degree` in and out.
    pub fn new(degree: u32) -> Self {
        assert!(degree >= 1, "peers need at least one long-range link");
        ConstantDegrees { degree }
    }

    /// The paper's setting: 27 links.
    pub fn paper() -> Self {
        ConstantDegrees::new(27)
    }
}

impl DegreeDistribution for ConstantDegrees {
    fn sample(&self, _rng: &mut dyn RngCore) -> DegreeCaps {
        DegreeCaps::symmetric(self.degree)
    }

    fn mean_degree(&self) -> f64 {
        self.degree as f64
    }
}

/// Uniform over a small set of steps (paper: `{19, 23, 27, 39}`, mean 27).
#[derive(Clone, Debug)]
pub struct SteppedDegrees {
    steps: Vec<u32>,
}

impl SteppedDegrees {
    /// Uniform over the given steps.
    ///
    /// # Panics
    /// If `steps` is empty or contains zero.
    pub fn new(steps: Vec<u32>) -> Self {
        assert!(!steps.is_empty(), "need at least one step");
        assert!(steps.iter().all(|&s| s >= 1), "degrees must be >= 1");
        SteppedDegrees { steps }
    }

    /// The paper's setting: `{19, 23, 27, 39}` (mean 27).
    pub fn paper() -> Self {
        SteppedDegrees::new(vec![19, 23, 27, 39])
    }
}

impl DegreeDistribution for SteppedDegrees {
    fn sample(&self, rng: &mut dyn RngCore) -> DegreeCaps {
        let idx = rng.gen_range(0..self.steps.len());
        DegreeCaps::symmetric(self.steps[idx])
    }

    fn mean_degree(&self) -> f64 {
        self.steps.iter().map(|&s| s as f64).sum::<f64>() / self.steps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_types::SeedTree;

    #[test]
    fn constant_always_27() {
        let d = ConstantDegrees::paper();
        let mut rng = SeedTree::new(1).rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), DegreeCaps::symmetric(27));
        }
        assert_eq!(d.mean_degree(), 27.0);
    }

    #[test]
    #[should_panic(expected = "at least one long-range link")]
    fn constant_zero_panics() {
        ConstantDegrees::new(0);
    }

    #[test]
    fn stepped_paper_mean_is_27() {
        let d = SteppedDegrees::paper();
        assert_eq!(d.mean_degree(), 27.0);
    }

    #[test]
    fn stepped_samples_only_steps() {
        let d = SteppedDegrees::paper();
        let mut rng = SeedTree::new(2).rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let caps = d.sample(&mut rng);
            assert_eq!(caps.rho_in, caps.rho_out, "caps drawn jointly");
            assert!([19, 23, 27, 39].contains(&caps.rho_in));
            seen.insert(caps.rho_in);
        }
        assert_eq!(seen.len(), 4, "all four steps should appear");
    }

    #[test]
    fn stepped_empirical_mean_close() {
        let d = SteppedDegrees::paper();
        let mut rng = SeedTree::new(3).rng();
        let mean: f64 = (0..20_000)
            .map(|_| d.sample(&mut rng).rho_in as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 27.0).abs() < 0.3, "empirical mean {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_steps_panic() {
        SteppedDegrees::new(vec![]);
    }
}
