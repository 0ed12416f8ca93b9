//! # oscar-keydist — key distributions and query workloads
//!
//! Data-oriented overlays are exercised by *where the keys are*. This crate
//! holds the distributions the reproduction draws peer identifiers from and
//! the query workloads it draws targets from:
//!
//! * [`UniformKeys`] — the homogeneity baseline.
//! * [`ClusteredKeys`] — Zipf-weighted sharp clusters, the "totally
//!   arbitrary" spiky density the paper argues Mercury cannot learn from
//!   uniform-resolution samples.
//! * [`GnutellaKeys`] — a synthetic Gnutella **filename** distribution: a
//!   Zipf-popular vocabulary composed into file names, order-preservingly
//!   encoded into the ring. This substitutes for the proprietary trace the
//!   authors used; what matters is the shape — heavy lexical clustering
//!   with spikes and deserts.
//! * [`EmpiricalCdf`] — the estimator Mercury builds from its walk samples.
//! * [`QueryWorkload`] — which live peer a query targets (uniform,
//!   Zipf-skewed access, or a drifting hot spot).
//!
//! All distributions implement [`KeyDistribution`], are deterministic under
//! a seeded RNG, and are object-safe: the worlds take them as
//! `&dyn KeyDistribution`.

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

pub use empirical::EmpiricalCdf;
pub use gnutella::GnutellaKeys;
pub use mixture::ClusteredKeys;
pub use strings::encode_filename_key;
pub use uniform::UniformKeys;
pub use workload::QueryWorkload;

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
}

/// Draws `n` keys into a vector (test/bench convenience).
pub fn sample_n<D: KeyDistribution + ?Sized>(dist: &D, n: usize, rng: &mut dyn RngCore) -> Vec<Id> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dist.sample(rng));
    }
    out
}

/// Builds the cumulative mass table of a Zipf distribution over
/// `n` ranks with exponent `s` (`P(rank=r) ∝ 1/r^s`).
///
/// The returned vector is non-decreasing with final element exactly `1.0`.
pub(crate) fn zipf_cdf_table(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf table needs at least one rank");
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for r in 1..=n {
        total += 1.0 / (r as f64).powf(s);
        cdf.push(total);
    }
    for v in cdf.iter_mut() {
        *v /= total;
    }
    // Guard the binary search against floating error.
    *cdf.last_mut().expect("non-empty") = 1.0;
    cdf
}

/// Skewness diagnostic: fraction of `keys` falling into the most-populated
/// `top_fraction` of `bins` equal-width bins.
///
/// Uniform keys give ≈ `top_fraction`; the Gnutella model gives ≫ that.
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
    fn cdf_table_shape() {
        let cdf = zipf_cdf_table(5, 1.0);
        assert_eq!(cdf.len(), 5);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // rank-1 mass for s=1, n=5 is (1/1)/H_5 ≈ 0.4379
        assert!((cdf[0] - 0.4379).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_table_panics() {
        zipf_cdf_table(0, 1.0);
    }

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
}
