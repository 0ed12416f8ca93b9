//! # oscar-core — the Oscar overlay construction and its two baselines
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
//! [`oscar_sim::OverlayBuilder`]. The paper's comparison overlays are the
//! two other builders: [`MercuryBuilder`] ([`mercury`], the baseline of
//! E3/E7) and [`ChordBuilder`] ([`chord`], the skew-oblivious control).
//! [`oscar_sim::Overlay::new`] turns any of the three into an overlay.

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
pub mod chord;
pub mod config;
pub mod links;
pub mod mercury;
pub mod partitions;
pub mod range;
pub mod theory;

pub use builder::OscarBuilder;
pub use chord::ChordBuilder;
pub use config::{MedianSource, OscarConfig};
pub use links::LinkStats;
pub use mercury::MercuryBuilder;
pub use partitions::estimate_partitions;
pub use range::{range_scan, RangeScanOutcome};

#[cfg(test)]
use {oscar_degree::DegreeCaps, oscar_sim::Network, oscar_types::Id};

#[cfg(test)]
/// A network of peers at `ids`, each with `extra` random long links (so
/// sampling walks can mix) drawn from `seed`.
fn test_net(ids: Vec<Id>, caps: DegreeCaps, extra: usize, seed: u64) -> Network {
    use rand::Rng;
    let mut net = Network::new(oscar_sim::FaultModel::StabilizedRing);
    let idxs: Vec<_> = ids
        .into_iter()
        .map(|id| net.add_peer(id, caps).unwrap())
        .collect();
    let mut rng = oscar_types::SeedTree::new(seed).rng();
    for &i in &idxs {
        for _ in 0..extra {
            let j = idxs[rng.gen_range(0..idxs.len())];
            let _ = net.try_link(i, j);
        }
    }
    net
}

/// `n` evenly spaced identifiers, the first at `offset`.
#[cfg(test)]
fn spaced_ids(n: u64, offset: u64) -> Vec<Id> {
    let step = u64::MAX / n;
    (0..n).map(|i| Id::new(i * step + offset)).collect()
}
