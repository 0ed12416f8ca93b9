//! # oscar-mercury — the Mercury baseline
//!
//! Mercury (Bharambe, Agrawal, Seshan — SIGCOMM'04) is the overlay the
//! paper compares against: a ring of peers with long-range links whose
//! *distances* follow a harmonic distribution over estimated node ranks.
//! Mercury learns the node-density function by sampling the network
//! **uniformly** and building an empirical CDF, then places each link by
//! drawing a harmonic rank distance and inverting the CDF into a target
//! key, which it routes to.
//!
//! The reproduction keeps Mercury's documented structure and its documented
//! weakness: a fixed-size uniform sample has uniform *resolution* over the
//! key space, so spiky densities (Gnutella filenames) are misestimated —
//! links miss their intended rank distances and in-degree piles up on the
//! peers owning the deserts. Oscar's median chain spends its samples
//! adaptively and does not have this failure mode; that asymmetry is the
//! point of the comparison (experiments E3/E7).
//!
//! Deliberate generosity: our Mercury gets the *exact* live network size
//! for its harmonic draw (the real one estimates it from histograms).
//! Giving the baseline oracle information it would have to estimate makes
//! the measured gap a lower bound on the real one.

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
pub mod links;

pub use builder::MercuryBuilder;

use oscar_sim::{FaultModel, Overlay};

/// The Mercury overlay: the generic facade specialised to Mercury's builder.
pub type MercuryOverlay = Overlay<MercuryBuilder>;

/// Creates a new (empty) Mercury overlay.
///
/// ```
/// use oscar_mercury::new_overlay;
/// use oscar_sim::FaultModel;
/// use oscar_keydist::{UniformKeys, QueryWorkload};
/// use oscar_degree::ConstantDegrees;
///
/// let mut overlay = new_overlay(FaultModel::StabilizedRing, 42);
/// overlay.grow_to(300, &UniformKeys, &ConstantDegrees::paper()).unwrap();
/// let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 200);
/// assert_eq!(stats.success_rate, 1.0);
/// ```
pub fn new_overlay(fault_model: FaultModel, seed: u64) -> MercuryOverlay {
    Overlay::new(MercuryBuilder::new(), fault_model, seed)
}
