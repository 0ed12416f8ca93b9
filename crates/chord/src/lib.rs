//! # oscar-chord — the Chord finger-table baseline
//!
//! Chord places long links ("fingers") at exponentially growing **key
//! space** distances: finger `i` of node `n` is the owner of
//! `n + 2^i`. That metric is blind to where peers actually are: under a
//! skewed identifier distribution most fingers land in deserts and
//! collapse onto the handful of peers owning them, so
//!
//! * the *effective* out-degree shrinks (duplicate fingers are useless),
//! * desert-owners absorb enormous in-degree (and, with budgets, refuse —
//!   losing fingers outright), and
//! * greedy routing loses its halving guarantee in *population* distance.
//!
//! This is exactly the failure Oscar's population-median partitions fix,
//! which makes Chord the clean "skew-oblivious" control for the
//! comparison benches. With uniform keys the two coincide in spirit and
//! Chord performs fine — the gap opens exactly when the key space skews.
//!
//! The implementation reuses the whole simulator substrate: fingers are
//! discovered by actual greedy routing (construction hops are counted)
//! and in-degree budgets are enforced by refusal like everywhere else.

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

pub use builder::ChordBuilder;

use oscar_sim::{FaultModel, Overlay};

/// The Chord overlay: the generic facade specialised to Chord's builder.
pub type ChordOverlay = Overlay<ChordBuilder>;

/// Creates a new (empty) Chord overlay.
///
/// ```
/// use oscar_chord::new_overlay;
/// use oscar_sim::FaultModel;
/// use oscar_keydist::{UniformKeys, QueryWorkload};
/// use oscar_degree::ConstantDegrees;
///
/// let mut overlay = new_overlay(FaultModel::StabilizedRing, 42);
/// overlay.grow_to(300, &UniformKeys, &ConstantDegrees::paper()).unwrap();
/// let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 200);
/// assert_eq!(stats.success_rate, 1.0);
/// ```
pub fn new_overlay(fault_model: FaultModel, seed: u64) -> ChordOverlay {
    Overlay::new(ChordBuilder::new(), fault_model, seed)
}
