//! # oscar-core — the Oscar overlay construction
//!
//! The paper's contribution: a small-world, range-queriable overlay that
//! tolerates arbitrary key distributions *and* heterogeneous per-peer link
//! budgets simultaneously. The construction, per node `u`:
//!
//! 1. **Partition estimation** ([`partitions`]): split the identifier
//!    space clockwise from `u` into `k ≈ log₂N` partitions `A₁ … A_k`, the
//!    border between `A_i` and `A_{i+1}` being the median of the remaining
//!    sub-population. Medians are estimated from small random-walk samples
//!    restricted to the sub-population's arc — Oscar never needs a global
//!    view, and the adaptive halving chain discovers `log₂N` by itself.
//! 2. **Link acquisition** ([`links`]): for each of the peer's `ρ_out_max`
//!    long-range slots, pick a partition uniformly at random, then a peer
//!    uniformly at random inside it. That realises Kleinberg's harmonic
//!    distribution over population *rank* distance, the density-aware
//!    generalisation that keeps greedy routing `O(log²N)` no matter how
//!    skewed the key space is. In-degree budgets are respected via refusal
//!    plus the **power-of-two-choices** probe (sample two candidates, link
//!    to the less loaded), which is what lets Oscar exploit ~85% of the
//!    heterogeneous in-degree "volume" (Figure 1(b)).
//! 3. **Routing** is plain greedy clockwise (in `oscar-sim::routing`) —
//!    Oscar changes where the links go, not how queries travel.
//!
//! [`OscarBuilder`] packages the construction as an
//! [`oscar_sim::OverlayBuilder`]; [`OscarOverlay`] is the ready-to-use
//! facade.

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

pub mod builder;
pub mod config;
pub mod links;
pub mod partitions;
pub mod range;
pub mod theory;

pub use builder::OscarBuilder;
pub use config::{MedianSource, OscarConfig};
pub use links::LinkStats;
pub use partitions::{estimate_partitions, Partitions};
pub use range::{range_scan, RangeScanOutcome};

use oscar_sim::{FaultModel, Overlay};

/// The Oscar overlay: the generic facade specialised to Oscar's builder.
pub type OscarOverlay = Overlay<OscarBuilder>;

/// Creates a new (empty) Oscar overlay.
///
/// ```
/// use oscar_core::{new_overlay, OscarConfig};
/// use oscar_sim::FaultModel;
/// use oscar_keydist::UniformKeys;
/// use oscar_degree::ConstantDegrees;
/// use oscar_keydist::QueryWorkload;
///
/// let mut overlay = new_overlay(OscarConfig::default(), FaultModel::StabilizedRing, 42);
/// overlay.grow_to(300, &UniformKeys, &ConstantDegrees::paper()).unwrap();
/// let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 200);
/// assert_eq!(stats.success_rate, 1.0);
/// assert!(stats.mean_cost < 20.0);
/// ```
pub fn new_overlay(config: OscarConfig, fault_model: FaultModel, seed: u64) -> OscarOverlay {
    Overlay::new(OscarBuilder::new(config), fault_model, seed)
}
