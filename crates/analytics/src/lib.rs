//! # oscar-analytics — statistics and reporting for the experiment harness
//!
//! Everything the `oscar-repro` experiments need to turn simulator
//! observations into the paper's tables and figures:
//!
//! * [`stats`] — means, variances, percentiles;
//! * [`series`] — labelled `(x, y)` series with CSV and Markdown rendering;
//! * [`degree_load`] — the Figure 1(b) analysis: per-peer relative degree
//!   load and total degree-volume utilisation.

// The determinism rules in force in this crate's library code; `clippy.toml`
// lists the disallowed methods (ARCHITECTURE.md § "Static analysis &
// determinism rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason,
        clippy::iter_over_hash_type
    )
)]

pub mod degree_load;
pub mod series;
pub mod stats;

pub use degree_load::{degree_load_curve, degree_volume_utilization};
pub use series::Series;
pub use stats::{mean, percentile, std_dev, Summary};
