//! # oscar-analytics — statistics and reporting for the experiment harness
//!
//! Everything the `oscar-repro` experiments need to turn simulator
//! observations into the paper's tables and figures:
//!
//! * [`stats`] — means, variances, percentiles;
//! * [`series`] — labelled `(x, y)` series with CSV and Markdown rendering;
//! * [`degree_load`] — the Figure 1(b) analysis: per-peer relative degree
//!   load and total degree-volume utilisation.

pub mod degree_load;
pub mod series;
pub mod stats;

pub use degree_load::{degree_load_curve, degree_volume_utilization};
pub use series::Series;
pub use stats::{mean, percentile, std_dev, Summary};
