//! # oscar-ring — the ordered identifier ring
//!
//! Every overlay in this workspace (Oscar, Mercury) sits on the same
//! substrate the paper assumes: a ring of peers ordered by identifier with
//! Chord-style successor/predecessor maintenance. This crate is that
//! substrate: an ordered set of [`Id`](oscar_types::Id)s with
//!
//! * successor / predecessor / owner-of-key queries (wrap-around),
//! * rank / select (needed to resolve "query the k-th live peer" workloads
//!   and to compute exact medians as test oracles),
//! * arc population counts and exact arc medians (the oracles against which
//!   sampling-based estimation is validated).
//!
//! The representation is an **order-statistic treap** (the private `treap` module): a BST
//! keyed by id, heap-ordered on hash-derived priorities, with subtree
//! counts. Every operation — insert, remove, rank, select, and the arc
//! queries via rank arithmetic — runs in O(log n) expected, which keeps
//! bootstrap-and-grow linearithmic and makes 10⁵–10⁶-peer simulations
//! feasible. The previous sorted-`Vec` representation (O(n) memmove per
//! membership change, Θ(n²) growth) survives as the test-only
//! `reference::VecRing`, the oracle for the equivalence property tests.

// The determinism rules in force in this crate's library code; `clippy.toml`
// lists the disallowed methods (ARCHITECTURE.md § "Static analysis &
// determinism rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

#[cfg(test)]
pub mod reference;
pub mod ring;
mod treap;

pub use ring::Ring;
