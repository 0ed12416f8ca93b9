//! # oscar-types — identifier-space primitives
//!
//! Foundation crate for the Oscar overlay reproduction. It defines the
//! one-dimensional circular identifier space all other crates operate on:
//!
//! * [`Id`] — a position on the ring `[0, 2^64)`, used both for peer
//!   identifiers and data keys (Oscar is order-preserving: keys and peers
//!   share the space, so a single type avoids pointless conversions).
//! * [`Arc`] — a wrap-around, half-open arc `[start, start+len)` of the
//!   ring, the unit in which Oscar's logarithmic partitions are expressed.
//! * [`SeedTree`] — hierarchical deterministic seed derivation so that every
//!   experiment, peer, and stochastic sub-activity gets an independent but
//!   reproducible RNG stream.
//! * [`labels`] — every `LBL_*` seed-derivation label, one module per
//!   derivation scope; a value repeated within a scope does not compile.
//! * [`Error`] — the shared error type of the workspace.
//!
//! Everything here is plain data with no I/O and no global state.

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

pub mod arc;
pub mod error;
pub mod id;
pub mod labels;
pub mod seed;

pub use arc::Arc;
pub use error::{Error, Result};
pub use id::{Id, IdHasher};
pub use seed::{mix64, SeedTree};

/// Number of distinct positions on the identifier ring (`2^64`), as `u128`.
///
/// Arc lengths may span the full ring, which does not fit in `u64`; all arc
/// arithmetic is therefore done in `u128` against this constant.
pub const RING_SIZE: u128 = 1u128 << 64;
