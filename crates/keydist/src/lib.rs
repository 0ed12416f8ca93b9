//! # oscar-keydist — key distributions and query workloads
//!
//! Data-oriented overlays are exercised by *where the keys are*. This crate
//! provides the key distributions used by the paper's experiments and the
//! machinery to build arbitrary skewed distributions:
//!
//! * [`UniformKeys`] — the homogeneity baseline.
//! * [`ZipfKeys`] — Zipf mass over equal-width bins of the key space.
//! * [`ClusteredKeys`] / [`MixtureKeys`] — spiky mixtures of narrow clusters,
//!   the "totally arbitrary" distributions the paper argues Mercury cannot
//!   learn from uniform-resolution samples.
//! * [`GnutellaKeys`] — a synthetic Gnutella **filename** distribution: a
//!   Zipf-popular vocabulary composed into file names, order-preservingly
//!   encoded into the ring. This substitutes for the proprietary trace the
//!   authors used (see DESIGN.md §2); what matters is the shape — heavy
//!   lexical clustering with spikes and deserts.
//! * [`EmpiricalKeys`] — inverse-CDF sampling from an observed sample.
//! * [`QueryWorkload`] — how query targets are drawn (uniform over peers,
//!   uniform over the key space, or Zipf-skewed access load).
//!
//! All distributions implement [`KeyDistribution`], are deterministic under
//! a seeded RNG, and are object-safe so they can be boxed into experiment
//! configurations.

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

pub mod empirical;
pub mod gnutella;
pub mod mixture;
pub mod strings;
pub mod uniform;
pub mod workload;
pub mod zipf;

pub use empirical::{EmpiricalCdf, EmpiricalKeys};
pub use gnutella::{GnutellaConfig, GnutellaKeys};
pub use mixture::{ClusteredKeys, MixtureKeys, NormalCluster};
pub use strings::{encode_filename_key, encode_string_key};
pub use uniform::UniformKeys;
pub use workload::{QueryTarget, QueryWorkload};
pub use zipf::{zipf_cdf_table, ZipfKeys};

use oscar_types::Id;
use rand::RngCore;

/// A distribution over the identifier ring.
///
/// Implementations must be deterministic given the RNG stream; any internal
/// tables must be built at construction time so `sample` is cheap and
/// allocation-free where possible.
pub trait KeyDistribution: Send + Sync {
    /// Draws one key.
    fn sample(&self, rng: &mut dyn RngCore) -> Id;

    /// Short human-readable name for experiment reports.
    fn name(&self) -> &str;
}

impl<T: KeyDistribution + ?Sized> KeyDistribution for Box<T> {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        (**self).sample(rng)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Draws `n` keys into a vector (test/bench convenience).
pub fn sample_n<D: KeyDistribution + ?Sized>(dist: &D, n: usize, rng: &mut dyn RngCore) -> Vec<Id> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dist.sample(rng));
    }
    out
}

/// Skewness diagnostic: fraction of `keys` falling into the most-populated
/// `top_fraction` of `bins` equal-width bins.
///
/// Uniform keys give ≈ `top_fraction`; the Gnutella model gives ≫ that.
/// Used by tests and reported in EXPERIMENTS.md.
pub fn mass_in_top_bins(keys: &[Id], bins: usize, top_fraction: f64) -> f64 {
    assert!(bins > 0 && !keys.is_empty());
    let mut counts = vec![0usize; bins];
    for k in keys {
        let b = ((k.to_unit()) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top = ((bins as f64) * top_fraction).ceil() as usize;
    let in_top: usize = counts.iter().take(top.max(1)).sum();
    in_top as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_types::SeedTree;

    #[test]
    fn sample_n_length_and_determinism() {
        let d = UniformKeys;
        let a = sample_n(&d, 50, &mut SeedTree::new(1).rng());
        let b = sample_n(&d, 50, &mut SeedTree::new(1).rng());
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn mass_in_top_bins_uniform_close_to_fraction() {
        let d = UniformKeys;
        let keys = sample_n(&d, 20_000, &mut SeedTree::new(2).rng());
        let m = mass_in_top_bins(&keys, 100, 0.10);
        // The top 10% bins of a uniform sample hold a bit more than 10%
        // (they are the luckiest bins) but nowhere near a skewed pile-up.
        assert!(m > 0.10 && m < 0.20, "mass {m}");
    }

    #[test]
    fn boxed_distribution_is_usable() {
        let d: Box<dyn KeyDistribution> = Box::new(UniformKeys);
        let mut rng = SeedTree::new(3).rng();
        let _ = d.sample(&mut rng);
        assert_eq!(d.name(), "uniform");
    }
}
