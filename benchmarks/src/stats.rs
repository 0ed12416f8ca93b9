//! Order statistics, the percentile picker and the output digest.

/// Median of `values` (mean of the two middle ones for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so spreads computed here agree
/// with the driver's. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the steadiness
/// figure the contract bounds.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest whole percentile, at most `cap`, that still has at least
/// ten of `samples` observations beyond it; `None` when even the median
/// has fewer. With 120 samples and `cap` 90 this is 90 (twelve beyond);
/// with 50 samples it is 80.
pub fn pick_percentile(samples: usize, cap: u32) -> Option<u32> {
    (50..=cap.min(99))
        .rev()
        .find(|&p| samples * (100 - p as usize) >= 10 * 100)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentile reported under a `_p90` name: the picked
/// percentile when the sample supports one, else the median. Returns the
/// percentile actually used so the caller can print it.
pub fn tail_percentile(values: &[f64]) -> (f64, u32) {
    let p = pick_percentile(values.len(), 90).unwrap_or(50);
    (percentile(values, p), p)
}

/// FNV-1a over 64-bit words: the digest of a workload's deterministic
/// outputs. Not `std::hash` — the value is printed and compared across
/// builds and must never drift with the toolchain.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(pick_percentile(120, 90), Some(90));
        assert_eq!(pick_percentile(100, 90), Some(90));
        assert_eq!(pick_percentile(99, 90), Some(89));
        assert_eq!(pick_percentile(50, 90), Some(80));
        assert_eq!(pick_percentile(20, 90), Some(50));
        assert_eq!(pick_percentile(19, 90), None);
        assert_eq!(pick_percentile(10_000, 99), Some(99));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }
}
