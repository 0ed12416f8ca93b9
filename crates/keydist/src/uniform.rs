//! Uniform key distribution — the homogeneity baseline.

use crate::KeyDistribution;
use oscar_types::Id;
use rand::RngCore;

/// Keys uniform over the whole ring.
#[derive(Copy, Clone, Debug, Default)]
pub struct UniformKeys;

impl KeyDistribution for UniformKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> Id {
        Id::new(rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_n;
    use oscar_types::SeedTree;

    #[test]
    fn covers_the_ring_roughly_evenly() {
        let keys = sample_n(&UniformKeys, 10_000, &mut SeedTree::new(7).rng());
        let mut counts = [0usize; 8];
        for k in keys {
            counts[(k.to_unit() * 8.0) as usize % 8] += 1;
        }
        for c in counts {
            // expectation 1250; allow generous slack
            assert!((800..1800).contains(&c), "octant count {c}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = sample_n(&UniformKeys, 16, &mut SeedTree::new(9).rng());
        let b = sample_n(&UniformKeys, 16, &mut SeedTree::new(9).rng());
        assert_eq!(a, b);
    }
}
