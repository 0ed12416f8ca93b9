//! Synthetic Gnutella filename key distribution.
//!
//! The paper draws peer identifiers "from the Gnutella filename
//! distribution" — a trace we do not have. This module substitutes a
//! generative model that reproduces the *shape* that matters to Oscar:
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
use crate::{zipf_cdf_table, KeyDistribution};
use oscar_types::{Id, SeedTree};
use rand::{Rng, RngCore};

/// Vocabulary size.
const VOCABULARY: usize = 4096;
/// Zipf exponent of word popularity (≈0.9–1.0 for file-sharing corpora).
const ZIPF_EXPONENT: f64 = 0.95;
/// Maximum words per file name.
const MAX_WORDS: usize = 4;
/// Probability of adding one more word (geometric length model).
const CONTINUATION_PROB: f64 = 0.55;
/// Seed for vocabulary construction (not per-sample randomness).
const CORPUS_SEED: u64 = 0x006E_7574_656C_6C61; // "nutella"

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
}

impl Default for GnutellaKeys {
    /// Builds the corpus model: the vocabulary and both popularity tables.
    fn default() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "the corpus is rooted at its own fixed seed — a distribution entry point"
        )]
        let mut rng = SeedTree::new(CORPUS_SEED).child(0x90).rng();
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
        let mut words = Vec::with_capacity(VOCABULARY);
        for _ in 0..VOCABULARY {
            let len = rng.gen_range(3..=9);
            let w: String = (0..len).map(|_| pick_letter(&mut rng)).collect();
            words.push(w);
        }
        let word_cdf = zipf_cdf_table(VOCABULARY, ZIPF_EXPONENT);
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
        }
    }
}

impl GnutellaKeys {
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
        for _ in 1..MAX_WORDS {
            if rng.gen::<f64>() >= CONTINUATION_PROB {
                break;
            }
            name.push('_');
            name.push_str(self.pick_word(rng));
        }
        name.push_str(self.pick_extension(rng));
        name
    }
}

impl KeyDistribution for GnutellaKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        let name = self.sample_filename(rng);
        encode_filename_key(&name)
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
        assert_eq!(a.words, b.words);
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
        let top_word = &g.words[0];
        let mut rng = SeedTree::new(3).rng();
        let hits = (0..5000)
            .filter(|_| g.sample_filename(&mut rng).starts_with(top_word.as_str()))
            .count();
        // Zipf rank-1 mass over 4096 words with s=.95 is ≈ 7-9%.
        assert!(hits > 150, "rank-1 word frequency too low: {hits}");
    }
}
