//! Zipf-distributed keys over equal-width bins of the ring.
//!
//! A coarse but controllable skew: the ring is divided into `bins`
//! equal-width bins; bin *ranks* get Zipf mass `∝ 1/rank^s`; within a bin
//! keys are uniform. A deterministic permutation scatters ranks across the
//! ring so the heavy bins are not all adjacent (matching the "spiky, not
//! monotone" shapes of real corpora).

use crate::KeyDistribution;
use oscar_types::{Id, SeedTree, RING_SIZE};
use rand::{Rng, RngCore};

/// Builds the cumulative mass table of a Zipf distribution over
/// `n` ranks with exponent `s` (`P(rank=r) ∝ 1/r^s`).
///
/// The returned vector is non-decreasing with final element exactly `1.0`.
pub fn zipf_cdf_table(n: usize, s: f64) -> Vec<f64> {
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

/// Zipf mass over equal-width ring bins.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    /// Cumulative probability per rank.
    cdf: Vec<f64>,
    /// `rank -> bin index` scatter permutation.
    rank_to_bin: Vec<u32>,
    exponent: f64,
    name: String,
}

impl ZipfKeys {
    /// Zipf keys with `bins` bins and exponent `s`, scattered by `seed`.
    pub fn new(bins: usize, s: f64, seed: u64) -> Self {
        assert!(bins > 0 && bins <= u32::MAX as usize);
        let cdf = zipf_cdf_table(bins, s);
        let mut rank_to_bin: Vec<u32> = (0..bins as u32).collect();
        // Fisher-Yates with a derived RNG: deterministic scatter.
        #[expect(
            clippy::disallowed_methods,
            reason = "rank scatter is rooted at an explicit caller-provided seed — a distribution entry point"
        )]
        let mut rng = SeedTree::new(seed).child(0x5CA7).rng();
        for i in (1..bins).rev() {
            let j = rng.gen_range(0..=i);
            rank_to_bin.swap(i, j);
        }
        ZipfKeys {
            cdf,
            rank_to_bin,
            exponent: s,
            name: format!("zipf(s={s}, bins={bins})"),
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.cdf.len()
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability mass of the bin at `bin_index`.
    pub fn bin_mass(&self, bin_index: usize) -> f64 {
        // invert the scatter: find the rank mapped to this bin
        let rank = self
            .rank_to_bin
            .iter()
            .position(|&b| b as usize == bin_index)
            .expect("bin index in range");
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }
}

impl KeyDistribution for ZipfKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        let u: f64 = rng.gen();
        // First rank whose cumulative mass covers u.
        let rank = match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        };
        let bin = self.rank_to_bin[rank] as u128;
        let bin_width = RING_SIZE / self.cdf.len() as u128;
        let start = (bin * bin_width) as u64;
        let within: u64 = rng.gen_range(0..bin_width.max(1) as u64);
        Id::new(start.wrapping_add(within))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mass_in_top_bins, sample_n};
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
    fn strong_zipf_is_heavily_skewed() {
        let d = ZipfKeys::new(256, 1.1, 42);
        let keys = sample_n(&d, 20_000, &mut SeedTree::new(1).rng());
        let m = mass_in_top_bins(&keys, 256, 0.05);
        assert!(m > 0.5, "top 5% of bins should hold >50% of mass, got {m}");
    }

    #[test]
    fn weak_zipf_is_mild() {
        let d = ZipfKeys::new(256, 0.2, 42);
        let keys = sample_n(&d, 20_000, &mut SeedTree::new(2).rng());
        let m = mass_in_top_bins(&keys, 256, 0.05);
        assert!(m < 0.25, "got {m}");
    }

    #[test]
    fn bin_mass_sums_to_one() {
        let d = ZipfKeys::new(32, 0.9, 7);
        let total: f64 = (0..32).map(|b| d.bin_mass(b)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed_and_scattered() {
        let d1 = ZipfKeys::new(64, 1.0, 10);
        let d2 = ZipfKeys::new(64, 1.0, 10);
        let d3 = ZipfKeys::new(64, 1.0, 11);
        assert_eq!(d1.rank_to_bin, d2.rank_to_bin);
        assert_ne!(
            d1.rank_to_bin, d3.rank_to_bin,
            "different seeds scatter differently"
        );
        // The heaviest bin should not always be bin 0 (scatter works).
        // The heaviest rank should rarely land on bin 0 for both seeds.
        assert!(d1.rank_to_bin[0] != 0 || d3.rank_to_bin[0] != 0);
    }

    #[test]
    fn samples_fall_in_heavy_bin_often() {
        let d = ZipfKeys::new(16, 1.2, 3);
        let heavy_bin = d.rank_to_bin[0] as usize;
        let keys = sample_n(&d, 5_000, &mut SeedTree::new(4).rng());
        let in_heavy = keys
            .iter()
            .filter(|k| (k.to_unit() * 16.0) as usize == heavy_bin)
            .count();
        // rank-1 mass for s=1.2,n=16 ≈ 0.30
        assert!(in_heavy > 1_000, "heavy bin hits: {in_heavy}");
    }
}
