//! Streaming quantile estimation: the P² algorithm.
//!
//! Jain & Chlamtac's P² (1985) tracks one quantile of a stream with five
//! markers and O(1) memory — no buffering, no sorting. The measurement
//! windows of the churn engine used to collect every query cost into a
//! `Vec` and sort it per window; at million-peer scale (ROADMAP items 1
//! and 5) those batches are exactly the allocation the engine cannot
//! afford. The estimator lives here in `oscar-types`, at the bottom of the
//! dependency graph, so any crate's batch statistics can stream through
//! it; today the simulator's per-window query stats do. Its property tests
//! against the exact nearest-rank oracle sit beside it.
//!
//! Exactness: for 5 or fewer observations the estimate *is* the
//! nearest-rank value (the markers are still raw observations). Beyond
//! that the estimate is approximate but always bounded by the observed
//! min and max, and the marker heights stay sorted — so `p50 ≤ p95`
//! comparisons between two estimators on the same stream hold whenever
//! the true quantiles are separated by at least the marker error.

/// Streaming estimator of a single quantile, 40 bytes of state.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    /// The target quantile in (0, 1), e.g. 0.5 or 0.95.
    p: f64,
    /// Observations seen so far.
    count: u64,
    /// Marker heights: q[0] = min, q[4] = max, q[2] ≈ the quantile.
    q: [f64; 5],
    /// Actual marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
}

impl P2Quantile {
    /// A fresh estimator for quantile `p` (0 < p < 1). Panics outside
    /// that range — a fixed quantile is a programming constant, not data.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    /// The target quantile.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            // Bootstrap: the first five observations are kept sorted
            // verbatim.
            let k = self.count as usize;
            self.q[k] = x;
            self.count += 1;
            let filled = self.count as usize;
            self.q[..filled].sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
            return;
        }
        self.count += 1;

        // Which cell the observation falls into; extremes adjust the
        // boundary markers themselves.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[j] <= x < q[j+1]
            (1..4).find(|&j| x < self.q[j]).unwrap_or(4) - 1
        };
        for j in (k + 1)..5 {
            self.n[j] += 1.0;
        }
        for j in 0..5 {
            self.np[j] += self.dn[j];
        }

        // Nudge the three interior markers toward their desired ranks.
        for j in 1..4 {
            let d = self.np[j] - self.n[j];
            let right = self.n[j + 1] - self.n[j];
            let left = self.n[j - 1] - self.n[j];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(j, d);
                self.q[j] = if self.q[j - 1] < candidate && candidate < self.q[j + 1] {
                    candidate
                } else {
                    self.linear(j, d)
                };
                self.n[j] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `j`.
    fn parabolic(&self, j: usize, d: f64) -> f64 {
        let (nm, n0, np1) = (self.n[j - 1], self.n[j], self.n[j + 1]);
        let (qm, q0, qp1) = (self.q[j - 1], self.q[j], self.q[j + 1]);
        q0 + d / (np1 - nm)
            * ((n0 - nm + d) * (qp1 - q0) / (np1 - n0) + (np1 - n0 - d) * (q0 - qm) / (n0 - nm))
    }

    /// Linear fallback when the parabola would leave the bracket.
    fn linear(&self, j: usize, d: f64) -> f64 {
        let jd = if d > 0.0 { j + 1 } else { j - 1 };
        self.q[j] + d * (self.q[jd] - self.q[j]) / (self.n[jd] - self.n[j])
    }

    /// The current estimate. For 5 or fewer observations this is the
    /// exact nearest-rank quantile; afterwards the P² marker height.
    /// Returns 0.0 before any observation.
    pub fn value(&self) -> f64 {
        match self.count {
            0 => 0.0,
            c if c <= 5 => {
                // Nearest-rank over the raw sorted bootstrap sample.
                let rank = ((self.p * c as f64).ceil() as usize).max(1);
                self.q[rank - 1]
            }
            _ => self.q[2],
        }
    }

    /// Smallest observation so far (0.0 before any).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.q[0]
        }
    }

    /// Largest observation so far (0.0 before any).
    pub fn max(&self) -> f64 {
        match self.count {
            0 => 0.0,
            c if c <= 5 => self.q[c as usize - 1],
            _ => self.q[4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact nearest-rank oracle (1-based rank `⌈p·len⌉`), the rule the
    /// estimator must reproduce verbatim on bootstrap-sized samples.
    fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// The estimate after a whole sample has streamed through.
    fn estimate(xs: &[f64], p: f64) -> f64 {
        let mut est = P2Quantile::new(p);
        for &x in xs {
            est.observe(x);
        }
        est.value()
    }

    proptest! {
        #[test]
        fn estimate_is_bounded_by_the_sample(
            xs in prop::collection::vec(0u32..10_000, 1..400),
            pq in 1u32..100,
        ) {
            let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
            let v = estimate(&xs, pq as f64 / 100.0);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo && v <= hi, "estimate {v} outside [{lo}, {hi}]");
        }

        #[test]
        fn bootstrap_samples_match_nearest_rank_exactly(
            xs in prop::collection::vec(0u32..10_000, 1..6),
            pq in 1u32..100,
        ) {
            let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
            let p = pq as f64 / 100.0;
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(estimate(&xs, p), nearest_rank(&sorted, p));
        }

        #[test]
        fn constant_streams_estimate_the_constant(
            x in 0u32..10_000,
            n in 1usize..300,
            pq in 1u32..100,
        ) {
            let xs = vec![x as f64; n];
            prop_assert_eq!(estimate(&xs, pq as f64 / 100.0), x as f64);
        }

        #[test]
        fn count_and_extremes_are_exact(
            xs in prop::collection::vec(0u32..10_000, 1..400),
        ) {
            let mut est = P2Quantile::new(0.5);
            for &x in &xs {
                est.observe(x as f64);
            }
            prop_assert_eq!(est.count(), xs.len() as u64);
            let lo = *xs.iter().min().unwrap() as f64;
            let hi = *xs.iter().max().unwrap() as f64;
            prop_assert_eq!(est.min(), lo);
            prop_assert_eq!(est.max(), hi);
        }
    }

    #[test]
    fn small_samples_are_exact() {
        for p in [0.5, 0.95] {
            let mut est = P2Quantile::new(p);
            let xs = [7.0, 3.0, 9.0, 1.0, 5.0];
            let mut sorted = Vec::new();
            for &x in &xs {
                est.observe(x);
                sorted.push(x);
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert_eq!(
                    est.value(),
                    nearest_rank(&sorted, p),
                    "p={p} n={}",
                    sorted.len()
                );
            }
        }
    }

    #[test]
    fn median_of_a_shuffled_range_converges() {
        let mut est = P2Quantile::new(0.5);
        // 0..=1000 in a scrambled deterministic order.
        for i in 0..=1000u64 {
            est.observe((i.wrapping_mul(541) % 1001) as f64);
        }
        assert_eq!(est.count(), 1001);
        let v = est.value();
        assert!(
            (v - 500.0).abs() < 25.0,
            "median estimate {v} too far from 500"
        );
        assert!(est.min() == 0.0 && est.max() == 1000.0);
    }

    #[test]
    fn p95_tracks_the_tail() {
        let mut est = P2Quantile::new(0.95);
        for i in 0..2000u64 {
            est.observe((i.wrapping_mul(733) % 2000) as f64);
        }
        let v = est.value();
        assert!(
            (v - 1900.0).abs() < 60.0,
            "p95 estimate {v} too far from 1900"
        );
    }

    #[test]
    fn estimate_stays_within_observed_range() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..500u64 {
            // A nasty bimodal stream.
            let x = if i % 3 == 0 { 1.0 } else { 1000.0 + i as f64 };
            est.observe(x);
            let v = est.value();
            assert!(
                v >= est.min() && v <= est.max(),
                "estimate {v} escaped the sample range"
            );
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_degenerate_quantiles() {
        P2Quantile::new(1.0);
    }
}
