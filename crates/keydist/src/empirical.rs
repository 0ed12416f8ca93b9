//! The empirical CDF Mercury builds from its uniform random-walk samples;
//! `oscar_core::mercury` uses it to place long links. Its resolution is
//! limited by the sample size — precisely the weakness the paper exploits.

use oscar_types::Id;

/// Empirical CDF over ring positions built from a sample.
///
/// The CDF treats the sample as sorted points `x_1 <= … <= x_n` on the
/// *linearised* ring (raw `u64` order) and interpolates linearly between
/// them. `quantile` is the inverse map.
#[derive(Clone, Debug)]
pub struct EmpiricalCdf {
    points: Vec<Id>,
}

impl EmpiricalCdf {
    /// Builds from any sample (sorted internally, duplicates allowed).
    ///
    /// # Panics
    /// If the sample is empty.
    pub fn new(mut sample: Vec<Id>) -> Self {
        assert!(!sample.is_empty(), "empirical CDF needs at least one point");
        sample.sort_unstable();
        EmpiricalCdf { points: sample }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false`: construction guarantees at least one point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), with linear interpolation between
    /// adjacent sample points.
    pub fn quantile(&self, q: f64) -> Id {
        let q = q.clamp(0.0, 1.0);
        let n = self.points.len();
        if n == 1 {
            return self.points[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        let a = self.points[lo];
        let b = self.points[hi];
        // interpolate along the short linear segment a..b
        let span = b.raw().wrapping_sub(a.raw());
        a.add((span as f64 * frac) as u64)
    }

    /// Rank-space walk: the key located `delta_ranks` **sample**-ranks
    /// clockwise of `from` under this estimate, with circular wrap. This
    /// is Mercury's "move r node-ranks along the estimated density"
    /// operation.
    ///
    /// Works directly in circular sample-index space (position of `from`
    /// among the sorted sample points plus the fractional advance,
    /// interpolating clockwise inside the hit gap) — composing a CDF with
    /// `quantile` instead would be off by up to a whole sample gap, which
    /// destroys short-distance (harmonic) link placement.
    pub fn advance_by_ranks(&self, from: Id, delta_ranks: f64) -> Id {
        let n = self.points.len();
        if n == 1 {
            return self.points[0];
        }
        let k = self.points.partition_point(|&p| p < from);
        let pos = (k as f64 + delta_ranks).rem_euclid(n as f64);
        let lo = (pos.floor() as usize).min(n - 1);
        let hi = (lo + 1) % n;
        let frac = pos - pos.floor();
        let a = self.points[lo];
        let b = self.points[hi];
        // Clockwise gap a -> b; when hi wraps to 0 this is the arc through
        // the top of the ring, exactly the circular reading of the sample.
        let span = a.cw_dist(b);
        a.add((span as f64 * frac) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_n, ClusteredKeys};
    use oscar_types::SeedTree;

    fn ids(xs: &[u64]) -> Vec<Id> {
        xs.iter().map(|&x| Id::new(x)).collect()
    }

    #[test]
    fn quantile_interpolates() {
        let c = EmpiricalCdf::new(ids(&[0, 100]));
        assert_eq!(c.quantile(0.0), Id::new(0));
        assert_eq!(c.quantile(0.5), Id::new(50));
        assert_eq!(c.quantile(1.0), Id::new(100));
    }

    #[test]
    fn quantile_single_point() {
        let c = EmpiricalCdf::new(ids(&[77]));
        assert_eq!(c.quantile(0.3), Id::new(77));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sample_panics() {
        EmpiricalCdf::new(vec![]);
    }

    #[test]
    fn quantile_monotone() {
        let c = EmpiricalCdf::new(ids(&[5, 9, 20, 21, 500, 1000]));
        let mut prev = c.quantile(0.0);
        for i in 1..=100 {
            let q = c.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn advance_by_ranks_moves_clockwise_in_rank_space() {
        let c = EmpiricalCdf::new(ids(&[0, 10, 20, 30, 40, 50, 60, 70, 80, 90]));
        let moved = c.advance_by_ranks(Id::new(10), 3.0);
        // 3 ranks from rank 2/10 → quantile 0.5 = interpolated midpoint
        assert!(
            moved >= Id::new(40) && moved <= Id::new(50),
            "moved to {moved:?}"
        );
    }

    #[test]
    fn coarse_cdf_misses_narrow_spikes() {
        // The Mercury failure mode in miniature: a 16-point CDF cannot
        // resolve a 1e-4-wide spike; its quantiles smear mass broadly.
        let src = ClusteredKeys::new(8, 1e-4, 1.0, 13);
        let tiny_sample = sample_n(&src, 16, &mut SeedTree::new(3).rng());
        let coarse = EmpiricalCdf::new(tiny_sample);
        let big_sample = sample_n(&src, 8_192, &mut SeedTree::new(4).rng());
        let fine = EmpiricalCdf::new(big_sample);
        // Compare quantile curves: coarse deviates notably from fine.
        let mut max_dev = 0.0f64;
        for i in 1..100 {
            let q = i as f64 / 100.0;
            let a = coarse.quantile(q).to_unit();
            let b = fine.quantile(q).to_unit();
            let d = (a - b).abs();
            max_dev = max_dev.max(d.min(1.0 - d));
        }
        assert!(
            max_dev > 0.01,
            "coarse CDF suspiciously accurate: {max_dev}"
        );
    }
}
