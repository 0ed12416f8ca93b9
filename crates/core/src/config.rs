//! Oscar construction parameters.

use oscar_types::{Error, Result};

/// Where partition medians come from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MedianSource {
    /// Estimate medians from restricted random-walk samples — the paper's
    /// algorithm and the default.
    Sampled,
    /// Read exact medians off the live ring (global knowledge). Not
    /// implementable in a real deployment; exists to isolate how much
    /// search-cost the sampling error contributes (ablation A3).
    Oracle,
}

/// Tuning knobs of the Oscar construction.
#[derive(Copy, Clone, Debug)]
pub struct OscarConfig {
    /// Peers sampled per median estimate. The paper stresses that "very
    /// low sample sizes" already work; 12 is our default, swept in
    /// ablation A2.
    pub median_sample_size: usize,
    /// Link candidates sampled per slot: 2 = the power-of-two-choices
    /// technique the paper cites; 1 disables it (ablation A1).
    pub link_candidates: usize,
    /// Median source (sampled vs oracle).
    pub median_source: MedianSource,
}

impl Default for OscarConfig {
    fn default() -> Self {
        OscarConfig {
            median_sample_size: 12,
            link_candidates: 2,
            median_source: MedianSource::Sampled,
        }
    }
}

impl OscarConfig {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<()> {
        if self.median_sample_size == 0 {
            return Err(Error::InvalidConfig(
                "median_sample_size must be >= 1".into(),
            ));
        }
        if self.link_candidates == 0 {
            return Err(Error::InvalidConfig("link_candidates must be >= 1".into()));
        }
        Ok(())
    }

    /// Convenience: same config with power-of-two choices disabled.
    pub fn without_power_of_two(mut self) -> Self {
        self.link_candidates = 1;
        self
    }

    /// Convenience: same config with oracle medians.
    pub fn with_oracle_medians(mut self) -> Self {
        self.median_source = MedianSource::Oracle;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let c = OscarConfig::default();
        c.validate().unwrap();
        assert_eq!(c.link_candidates, 2, "power of two by default");
        assert_eq!(c.median_source, MedianSource::Sampled);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            OscarConfig {
                median_sample_size: 0,
                ..OscarConfig::default()
            },
            OscarConfig {
                link_candidates: 0,
                ..OscarConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn builders_toggle_features() {
        let c = OscarConfig::default().without_power_of_two();
        assert_eq!(c.link_candidates, 1);
        let c = OscarConfig::default().with_oracle_medians();
        assert_eq!(c.median_source, MedianSource::Oracle);
    }
}
