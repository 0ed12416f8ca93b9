//! Synthetic Gnutella filename key distribution.
//!
//! The paper draws peer identifiers "from the Gnutella filename
//! distribution" — a trace we do not have. This module substitutes a
//! generative model that reproduces the *shape* that matters to Oscar
//! (DESIGN.md §2):
//!
//! * a Zipf-popular vocabulary (few words dominate file names, long tail);
//! * file names composed of one to a few words plus a media extension;
//! * order-preserving encoding, so popular leading words create sharp
//!   spikes in the key space separated by large deserts.
//!
//! The resulting density over the ring is wildly non-uniform and "spiky" —
//! the regime in which Mercury's uniform-resolution sampling fails while
//! Oscar's median chain adapts.

use crate::strings::encode_filename_key;
use crate::zipf::zipf_cdf_table;
use crate::KeyDistribution;
use oscar_types::{Id, SeedTree};
use rand::{Rng, RngCore};

/// Tuning knobs of the synthetic filename corpus.
#[derive(Clone, Debug)]
pub struct GnutellaConfig {
    /// Vocabulary size.
    pub vocabulary: usize,
    /// Zipf exponent of word popularity (≈0.9–1.0 for file-sharing corpora).
    pub zipf_exponent: f64,
    /// Maximum words per file name.
    pub max_words: usize,
    /// Probability of adding one more word (geometric length model).
    pub continuation_prob: f64,
    /// Seed for vocabulary construction (not per-sample randomness).
    pub corpus_seed: u64,
}

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            vocabulary: 4096,
            zipf_exponent: 0.95,
            max_words: 4,
            continuation_prob: 0.55,
            corpus_seed: 0x006E_7574_656C_6C61, // "nutella"
        }
    }
}

/// File extensions with Gnutella-era popularity (media-heavy).
const EXTENSIONS: &[(&str, f64)] = &[
    (".mp3", 0.58),
    (".avi", 0.14),
    (".mpg", 0.08),
    (".zip", 0.07),
    (".exe", 0.05),
    (".jpg", 0.05),
    (".wav", 0.03),
];

/// Synthetic Gnutella filename key distribution.
pub struct GnutellaKeys {
    words: Vec<String>,
    word_cdf: Vec<f64>,
    ext_cdf: Vec<f64>,
    config: GnutellaConfig,
}

impl GnutellaKeys {
    /// Builds the corpus model from a configuration.
    pub fn new(config: GnutellaConfig) -> Self {
        assert!(config.vocabulary > 0, "vocabulary must be non-empty");
        assert!(config.max_words >= 1);
        assert!((0.0..1.0).contains(&config.continuation_prob));
        #[expect(
            clippy::disallowed_methods,
            reason = "the corpus is rooted at an explicit caller-provided seed — a distribution entry point"
        )]
        let mut rng = SeedTree::new(config.corpus_seed).child(0x90).rng();
        // Letter frequencies for leading characters: realistic corpora are
        // *not* uniform over the alphabet, which concentrates mass further.
        const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        const LETTER_WEIGHTS: [f64; 26] = [
            8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.2, 0.8, 4.0, 2.4, 6.7, 7.5, 1.9, 0.1,
            6.0, 6.3, 9.1, 2.8, 1.0, 2.4, 0.2, 2.0, 0.1,
        ];
        let letter_total: f64 = LETTER_WEIGHTS.iter().sum();
        let pick_letter = |rng: &mut rand::rngs::SmallRng| {
            let mut u: f64 = rng.gen::<f64>() * letter_total;
            for (i, &w) in LETTER_WEIGHTS.iter().enumerate() {
                if u < w {
                    return LETTERS[i] as char;
                }
                u -= w;
            }
            'z'
        };
        let mut words = Vec::with_capacity(config.vocabulary);
        for _ in 0..config.vocabulary {
            let len = rng.gen_range(3..=9);
            let w: String = (0..len).map(|_| pick_letter(&mut rng)).collect();
            words.push(w);
        }
        let word_cdf = zipf_cdf_table(config.vocabulary, config.zipf_exponent);
        let mut cum = 0.0;
        let mut ext_cdf: Vec<f64> = EXTENSIONS
            .iter()
            .map(|&(_, w)| {
                cum += w;
                cum
            })
            .collect();
        let total = *ext_cdf.last().expect("non-empty");
        for v in ext_cdf.iter_mut() {
            *v /= total;
        }
        GnutellaKeys {
            words,
            word_cdf,
            ext_cdf,
            config,
        }
    }

    fn pick_word(&self, rng: &mut dyn RngCore) -> &str {
        let u: f64 = rng.gen();
        let idx = match self
            .word_cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.words.len() - 1),
        };
        &self.words[idx]
    }

    fn pick_extension(&self, rng: &mut dyn RngCore) -> &'static str {
        let u: f64 = rng.gen();
        let idx = match self
            .ext_cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(EXTENSIONS.len() - 1),
        };
        EXTENSIONS[idx].0
    }

    /// Generates one synthetic file name (also used by examples).
    pub fn sample_filename(&self, rng: &mut dyn RngCore) -> String {
        let mut name = String::with_capacity(32);
        name.push_str(self.pick_word(rng));
        for _ in 1..self.config.max_words {
            if rng.gen::<f64>() >= self.config.continuation_prob {
                break;
            }
            name.push('_');
            name.push_str(self.pick_word(rng));
        }
        name.push_str(self.pick_extension(rng));
        name
    }

    /// The vocabulary (test/diagnostic access).
    pub fn vocabulary(&self) -> &[String] {
        &self.words
    }
}

impl Default for GnutellaKeys {
    fn default() -> Self {
        GnutellaKeys::new(GnutellaConfig::default())
    }
}

impl KeyDistribution for GnutellaKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        let name = self.sample_filename(rng);
        encode_filename_key(&name)
    }

    fn name(&self) -> &str {
        "gnutella-filenames"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mass_in_top_bins, sample_n};
    use oscar_types::SeedTree;

    #[test]
    fn filenames_look_like_filenames() {
        let g = GnutellaKeys::default();
        let mut rng = SeedTree::new(5).rng();
        for _ in 0..100 {
            let f = g.sample_filename(&mut rng);
            assert!(f.contains('.'), "no extension in {f}");
            assert!(f.len() >= 4, "too short: {f}");
            assert!(f
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b == b'_' || b == b'.' || b.is_ascii_digit()));
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = GnutellaKeys::default();
        let b = GnutellaKeys::default();
        assert_eq!(a.vocabulary(), b.vocabulary());
        let ka = sample_n(&a, 32, &mut SeedTree::new(1).rng());
        let kb = sample_n(&b, 32, &mut SeedTree::new(1).rng());
        assert_eq!(ka, kb);
    }

    #[test]
    fn key_distribution_is_heavily_skewed() {
        let g = GnutellaKeys::default();
        let keys = sample_n(&g, 30_000, &mut SeedTree::new(2).rng());
        let m = mass_in_top_bins(&keys, 1000, 0.05);
        // Spiky: the top 5% of fine bins should hold well over half the mass.
        assert!(m > 0.5, "Gnutella model insufficiently skewed: {m}");
    }

    #[test]
    fn popular_word_dominates_prefix_region() {
        let g = GnutellaKeys::default();
        let top_word = &g.vocabulary()[0];
        let mut rng = SeedTree::new(3).rng();
        let hits = (0..5000)
            .filter(|_| g.sample_filename(&mut rng).starts_with(top_word.as_str()))
            .count();
        // Zipf rank-1 mass over 4096 words with s=.95 is ≈ 7-9%.
        assert!(hits > 150, "rank-1 word frequency too low: {hits}");
    }

    #[test]
    fn different_corpus_seed_changes_vocabulary() {
        let a = GnutellaKeys::default();
        let b = GnutellaKeys::new(GnutellaConfig {
            corpus_seed: 999,
            ..GnutellaConfig::default()
        });
        assert_ne!(a.vocabulary(), b.vocabulary());
    }

    #[test]
    #[should_panic(expected = "vocabulary must be non-empty")]
    fn zero_vocabulary_panics() {
        GnutellaKeys::new(GnutellaConfig {
            vocabulary: 0,
            ..GnutellaConfig::default()
        });
    }
}
