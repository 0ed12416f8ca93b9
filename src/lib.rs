//! # oscar — a data-oriented overlay for heterogeneous environments
//!
//! Reproduction of *Girdzijauskas, Datta, Aberer: "Oscar: A Data-Oriented
//! Overlay For Heterogeneous Environments" (ICDE 2007)*: a range-queriable
//! small-world P2P overlay that tolerates arbitrarily skewed key
//! distributions and heterogeneous per-peer link budgets at the same time,
//! together with the Mercury baseline, a Chord control and the
//! deterministic simulator the evaluation runs on.
//!
//! ## Quickstart
//!
//! ```
//! use oscar::prelude::*;
//!
//! // Skewed (Gnutella-filename-like) peer identifiers, heterogeneous
//! // per-peer degree budgets, deterministic seed.
//! let builder = OscarBuilder::new(OscarConfig::default());
//! let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 42);
//! overlay
//!     .grow_to(500, &GnutellaKeys::default(), &SpikyDegrees::paper())
//!     .unwrap();
//!
//! let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 500);
//! assert_eq!(stats.success_rate, 1.0);
//! assert!(stats.mean_cost < 12.0); // ≪ log₂²(500) ≈ 80
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | ring identifiers, arcs, seeds, errors |
//! | [`keydist`] | key distributions (uniform, clustered, Gnutella) and query workloads |
//! | [`degree`] | degree-cap distributions (constant / stepped / spiky-realistic) |
//! | [`ring`] | the sorted identifier ring |
//! | [`sim`] | the network simulator: walks, routing, churn, growth |
//! | [`protocol`] | runtime-agnostic protocol core: decision kernels + per-peer state machines |
//! | [`runtime`] | threaded actor driver for the protocol core (wall-clock, all cores) |
//! | [`core`] | **the paper's contribution**: Oscar partition estimation + link acquisition; the Mercury baseline ([`core::mercury`]) and the Chord finger-table control ([`core::chord`]) |

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

pub use oscar_core as core;
pub use oscar_degree as degree;
pub use oscar_keydist as keydist;
pub use oscar_protocol as protocol;
pub use oscar_ring as ring;
pub use oscar_runtime as runtime;
pub use oscar_sim as sim;
pub use oscar_types as types;

/// The names most programs want in scope.
pub mod prelude {
    pub use oscar_core::{
        range_scan, ChordBuilder, MedianSource, MercuryBuilder, OscarBuilder, OscarConfig,
        RangeScanOutcome,
    };
    pub use oscar_degree::{
        ConstantDegrees, DegreeCaps, DegreeDistribution, SpikyDegrees, SteppedDegrees,
    };
    pub use oscar_keydist::{
        ClusteredKeys, GnutellaKeys, KeyDistribution, QueryWorkload, UniformKeys,
    };
    pub use oscar_protocol::{Command, PeerConfig, PeerMachine, ProtocolEvent};
    pub use oscar_runtime::{Runtime, RuntimeConfig};
    pub use oscar_sim::{
        ChurnSchedule, ChurnWindowStats, DesDriver, FaultModel, GrowthConfig, Network, Overlay,
        OverlayBuilder, QueryBatchStats, QueryBudget, RepairPolicy, RoutePolicy,
    };
    pub use oscar_types::{Arc, Error, Id, Result, SeedTree};
}
