//! Mercury construction parameters.

use oscar_sim::WalkConfig;
use oscar_types::{Error, Result};

/// Tuning knobs of the Mercury construction.
#[derive(Copy, Clone, Debug)]
pub struct MercuryConfig {
    /// Uniform samples used to build the node-density CDF estimate.
    /// Mercury's papers use `k ≈ log N`-ish sample counts; 24 is generous
    /// at the simulated scales (log₂ 10⁴ ≈ 13).
    pub cdf_sample_size: usize,
    /// Additional attempts per link slot when targets refuse.
    pub link_retries: usize,
    /// Random-walk parameters for the uniform sampling.
    pub walk: WalkConfig,
}

impl Default for MercuryConfig {
    fn default() -> Self {
        MercuryConfig {
            cdf_sample_size: 24,
            link_retries: 3,
            walk: WalkConfig::default(),
        }
    }
}

impl MercuryConfig {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<()> {
        if self.cdf_sample_size < 2 {
            return Err(Error::InvalidConfig(
                "cdf_sample_size must be >= 2 (a CDF needs at least two points)".into(),
            ));
        }
        if self.walk.burn_in == 0 {
            return Err(Error::InvalidConfig("walk.burn_in must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MercuryConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = MercuryConfig {
            cdf_sample_size: 1,
            ..MercuryConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = MercuryConfig::default();
        c.walk.burn_in = 0;
        assert!(c.validate().is_err());
    }
}
