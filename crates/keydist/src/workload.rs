//! Query workloads: how search targets are drawn.
//!
//! The paper measures "the average search cost induced by N random queries".
//! The natural reading — and our default — is that each query originates at
//! a random live peer and targets the identifier of another random live
//! peer (data lives where peers are, because the overlay is
//! order-preserving). Two more workloads skew which peers are asked for:
//!
//! * `ZipfPeers`: skewed *access* load (the paper's intro motivates
//!   disproportionate bandwidth use under skewed access patterns) — ablation
//!   A5 and the `skewed_access` example;
//! * `Hotspot`: a hot region that scenario drivers move between windows.
//!
//! The workload is pure: it draws a live-peer *rank* (0-based, in ring
//! order); resolving the rank to a peer and its identifier is the caller's
//! job.

use crate::zipf_cdf_table;
use rand::{Rng, RngCore};

/// A generator of query targets.
#[derive(Clone, Debug)]
pub enum QueryWorkload {
    /// Each query targets a live peer chosen uniformly at random.
    UniformPeers,
    /// Skewed access: peer ranks get Zipf(`exponent`) popularity, scattered
    /// deterministically so the hot peers are not ring-adjacent.
    ZipfPeers {
        /// Zipf exponent of the access skew.
        exponent: f64,
    },
    /// A *drifting* hot region: with probability `hot_fraction` the query
    /// targets a live rank near `center` (a ring position expressed as a
    /// fraction in `[0, 1)`), with the offset concentrated toward the
    /// centre; otherwise it falls back to a uniform live-peer target.
    /// Scenario drivers advance `center` between measurement windows to
    /// model a flash-crowd topic moving through the key space.
    Hotspot {
        /// Ring position of the hot spot's centre, as a fraction of the
        /// live ring (values outside `[0, 1)` wrap).
        center: f64,
        /// Half-width of the hot region, as a fraction of the live ring.
        width: f64,
        /// Probability that a query is hot (the rest are uniform).
        hot_fraction: f64,
    },
}

impl QueryWorkload {
    /// Draws the rank of the live peer a query targets, in `0..n_live`.
    /// One draw of [`QueryWorkload::sampler`]; a loop that draws many
    /// ranks from one live count builds the sampler once instead.
    ///
    /// # Panics
    /// If `n_live == 0`.
    pub fn draw(&self, n_live: usize, rng: &mut dyn RngCore) -> usize {
        self.sampler(n_live).draw(rng)
    }

    /// A sampler of live-peer ranks in `0..n_live`, holding what every
    /// draw at this live count shares: Zipf's exact discrete CDF table
    /// (n `powf`s) is built here once, not once per draw. Its draws
    /// consume the RNG exactly as [`QueryWorkload::draw`] does.
    ///
    /// # Panics
    /// If `n_live == 0`.
    pub fn sampler(&self, n_live: usize) -> RankSampler<'_> {
        assert!(n_live > 0, "cannot query an empty network");
        // The exact discrete table for n <= ZIPF_TABLE_MAX; beyond it the
        // continuous approximation, whose small-n bias has faded.
        let zipf_cdf = match self {
            QueryWorkload::ZipfPeers { exponent } if n_live <= ZIPF_TABLE_MAX => {
                zipf_cdf_table(n_live, *exponent)
            }
            _ => Vec::new(),
        };
        RankSampler {
            workload: self,
            n_live,
            zipf_cdf,
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            QueryWorkload::UniformPeers => "uniform-peers".into(),
            QueryWorkload::ZipfPeers { exponent } => format!("zipf-peers(s={exponent})"),
            QueryWorkload::Hotspot {
                center,
                width,
                hot_fraction,
            } => format!("hotspot(c={center:.3},w={width},f={hot_fraction})"),
        }
    }
}

/// Live counts up to which a Zipf draw inverts the exact discrete CDF.
const ZIPF_TABLE_MAX: usize = 4096;

/// Draws live-peer ranks for one [`QueryWorkload`] at one live count; see
/// [`QueryWorkload::sampler`].
#[derive(Clone, Debug)]
pub struct RankSampler<'w> {
    workload: &'w QueryWorkload,
    n_live: usize,
    /// Zipf's discrete CDF over `n_live` ranks; empty for every other
    /// workload and for live counts above [`ZIPF_TABLE_MAX`].
    zipf_cdf: Vec<f64>,
}

impl RankSampler<'_> {
    /// Draws the rank of the live peer a query targets, in `0..n_live`.
    pub fn draw(&self, rng: &mut dyn RngCore) -> usize {
        let n_live = self.n_live;
        match self.workload {
            QueryWorkload::UniformPeers => rng.gen_range(0..n_live),
            QueryWorkload::ZipfPeers { exponent } => {
                let rank = if self.zipf_cdf.is_empty() {
                    continuous_zipf_rank(n_live, *exponent, rng)
                } else {
                    let u: f64 = rng.gen();
                    match self
                        .zipf_cdf
                        .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
                    {
                        Ok(i) => i,
                        Err(i) => i.min(n_live - 1),
                    }
                };
                // Scatter so Zipf rank is decoupled from ring order.
                scatter_rank(rank, n_live)
            }
            QueryWorkload::Hotspot {
                center,
                width,
                hot_fraction,
            } => {
                let u: f64 = rng.gen();
                if u < *hot_fraction {
                    let span = ((n_live as f64 * width).ceil() as usize).clamp(1, n_live);
                    // Squared-uniform offset: mass concentrates toward the
                    // centre (a cheap Zipf-like falloff over the window).
                    let v: f64 = rng.gen();
                    let dist = ((v * v) * span as f64) as usize % span;
                    let c = (center.rem_euclid(1.0) * n_live as f64) as usize % n_live;
                    if rng.gen::<bool>() {
                        (c + dist) % n_live
                    } else {
                        (c + n_live - (dist % n_live)) % n_live
                    }
                } else {
                    rng.gen_range(0..n_live)
                }
            }
        }
    }
}

/// Continuous approximation to a Zipf rank draw (for large `n`).
///
/// Uses inverse-transform on the continuous density `x^-s` over `[1, n+1)`.
fn continuous_zipf_rank(n: usize, s: f64, rng: &mut dyn RngCore) -> usize {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let nf = (n + 1) as f64;
    let rank_f = if (s - 1.0).abs() < 1e-9 {
        // integral of 1/x is ln; invert u = ln(x)/ln(n+1)
        nf.powf(u)
    } else {
        let a = 1.0 - s;
        // u = (x^a - 1) / ((n+1)^a - 1)
        ((u * (nf.powf(a) - 1.0)) + 1.0).powf(1.0 / a)
    };
    (rank_f.floor() as usize).clamp(1, n) - 1
}

/// Deterministic rank scatter: `rank · m mod n`, a permutation of `0..n`
/// because the multiplier `m` is coprime to `n`. `m` starts near the
/// golden-ratio fraction of `n`, so consecutive Zipf ranks land far apart
/// on the ring, and steps up to the first value coprime to `n`. The goal
/// is decorrelation with every peer reachable, not cryptography.
fn scatter_rank(rank: usize, n: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut m = ((n as u128 * 0x9E37_79B9) >> 32).max(1) as usize;
    while gcd(m, n) != 1 {
        m += 1;
    }
    (rank as u128 * m as u128 % n as u128) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_types::SeedTree;

    #[test]
    fn uniform_peers_in_range() {
        let w = QueryWorkload::UniformPeers;
        let mut rng = SeedTree::new(1).rng();
        for _ in 0..1000 {
            assert!(w.draw(37, &mut rng) < 37);
        }
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_network_panics() {
        let mut rng = SeedTree::new(3).rng();
        QueryWorkload::UniformPeers.draw(0, &mut rng);
    }

    /// `draw` as it was before the sampler: the Zipf table rebuilt on
    /// every call. The oracle for the sampler's RNG consumption.
    fn draw_rebuilding_per_call(w: &QueryWorkload, n_live: usize, rng: &mut dyn RngCore) -> usize {
        match w {
            QueryWorkload::ZipfPeers { exponent } => {
                let rank = if n_live <= 4096 {
                    let cdf = zipf_cdf_table(n_live, *exponent);
                    let u: f64 = rng.gen();
                    match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN")) {
                        Ok(i) => i,
                        Err(i) => i.min(n_live - 1),
                    }
                } else {
                    continuous_zipf_rank(n_live, *exponent, rng)
                };
                scatter_rank(rank, n_live)
            }
            // Uniform and hotspot draws built nothing per call; the
            // sampler moved their bodies unchanged.
            _ => w.draw(n_live, rng),
        }
    }

    #[test]
    fn sampler_draws_are_draws_one_by_one() {
        let workloads = [
            QueryWorkload::UniformPeers,
            QueryWorkload::ZipfPeers { exponent: 1.0 },
            QueryWorkload::ZipfPeers { exponent: 0.8 },
            QueryWorkload::Hotspot {
                center: 0.3,
                width: 0.05,
                hot_fraction: 0.7,
            },
        ];
        for w in &workloads {
            for n in [1, 37, 4096, 4097] {
                let sampler = w.sampler(n);
                let (mut a, mut b, mut c) = (
                    SeedTree::new(n as u64).rng(),
                    SeedTree::new(n as u64).rng(),
                    SeedTree::new(n as u64).rng(),
                );
                for _ in 0..500 {
                    let got = sampler.draw(&mut a);
                    assert!(got < n);
                    assert_eq!(got, w.draw(n, &mut b), "{} n {n}", w.name());
                    assert_eq!(
                        got,
                        draw_rebuilding_per_call(w, n, &mut c),
                        "{} n {n}",
                        w.name()
                    );
                }
                // Same stream consumed: the next raw draws agree.
                let next = a.next_u64();
                assert_eq!(next, b.next_u64());
                assert_eq!(next, c.next_u64());
            }
        }
    }

    #[test]
    fn zipf_peers_concentrates_access() {
        let w = QueryWorkload::ZipfPeers { exponent: 1.1 };
        let mut rng = SeedTree::new(4).rng();
        let n = 500;
        let mut counts = vec![0usize; n];
        for _ in 0..20_000 {
            counts[w.draw(n, &mut rng)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        // Under Zipf(1.1) over 500 ranks the top-10 ranks carry ≳35% of mass.
        assert!(top10 > 5_000, "top-10 peers got only {top10}/20000 queries");
    }

    #[test]
    fn zipf_large_n_uses_continuous_path() {
        let w = QueryWorkload::ZipfPeers { exponent: 1.0 };
        let mut rng = SeedTree::new(5).rng();
        for _ in 0..1000 {
            assert!(w.draw(10_000, &mut rng) < 10_000);
        }
    }

    #[test]
    fn scatter_rank_is_a_permutation() {
        let mut hit = Vec::new();
        for n in 1..=5_000 {
            hit.clear();
            hit.resize(n, false);
            for rank in 0..n {
                let r = scatter_rank(rank, n);
                assert!(r < n && !hit[r], "n {n}: rank {rank} lands on taken {r}");
                hit[r] = true;
            }
        }
    }

    #[test]
    fn continuous_zipf_rank_skews_low_ranks() {
        let mut rng = SeedTree::new(6).rng();
        let hits_low = (0..10_000)
            .filter(|_| continuous_zipf_rank(100_000, 1.0, &mut rng) < 100)
            .count();
        // For s=1 over 1e5 ranks, P(rank<100) = ln(100)/ln(1e5) ≈ 0.40.
        assert!(hits_low > 3_000, "low ranks hit {hits_low}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QueryWorkload::UniformPeers.name(), "uniform-peers");
        assert_eq!(
            QueryWorkload::ZipfPeers { exponent: 0.8 }.name(),
            "zipf-peers(s=0.8)"
        );
        assert_eq!(
            QueryWorkload::Hotspot {
                center: 0.25,
                width: 0.05,
                hot_fraction: 0.8,
            }
            .name(),
            "hotspot(c=0.250,w=0.05,f=0.8)"
        );
    }

    #[test]
    fn hotspot_concentrates_near_center() {
        let n = 1000;
        let w = QueryWorkload::Hotspot {
            center: 0.5,
            width: 0.05,
            hot_fraction: 0.9,
        };
        let mut rng = SeedTree::new(8).rng();
        let mut in_window = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            let r = w.draw(n, &mut rng);
            assert!(r < n);
            // The hot window is centre ± width·n = 500 ± 50.
            if (450..=550).contains(&r) {
                in_window += 1;
            }
        }
        // ~90% of draws are hot and land inside the window; uniform draws
        // contribute ~10% of the remaining mass spread over the ring.
        assert!(
            in_window > draws / 2,
            "only {in_window}/{draws} draws hit the hot window"
        );
    }

    #[test]
    fn hotspot_center_wraps_and_drifts() {
        let n = 100;
        let mut rng = SeedTree::new(9).rng();
        // Centres outside [0, 1) wrap instead of panicking.
        for center in [-0.25, 1.75, 0.999] {
            let w = QueryWorkload::Hotspot {
                center,
                width: 0.1,
                hot_fraction: 1.0,
            };
            for _ in 0..200 {
                assert!(w.draw(n, &mut rng) < n);
            }
        }
        // Drifting the centre moves the hot mass: disjoint centres give
        // (mostly) disjoint hot ranks.
        let hits = |center: f64, rng: &mut rand::rngs::SmallRng| {
            let w = QueryWorkload::Hotspot {
                center,
                width: 0.02,
                hot_fraction: 1.0,
            };
            let mut counts = vec![0usize; n];
            for _ in 0..2000 {
                counts[w.draw(n, rng)] += 1;
            }
            counts
        };
        let a = hits(0.1, &mut rng);
        let b = hits(0.6, &mut rng);
        let overlap: usize = (0..n).map(|i| a[i].min(b[i])).sum();
        assert!(
            overlap < 200,
            "drifted hotspots overlap too much: {overlap}"
        );
    }
}
