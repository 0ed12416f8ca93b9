//! Deliberate violations, compiled only under clippy: one per determinism
//! rule in force in this crate. Each `#[expect]` is fulfilled only while
//! clippy still reports the violation under it; what that catches, and what
//! it cannot, is in ARCHITECTURE.md § "Static analysis & determinism rules".

#![allow(dead_code, reason = "canaries are linted, never called")]

#[expect(clippy::disallowed_methods, reason = "canary: rng-discipline")]
fn rng_discipline() -> crate::SeedTree {
    crate::SeedTree::new(0)
}

#[expect(clippy::disallowed_methods, reason = "canary: wall-clock")]
fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::iter_over_hash_type, reason = "canary: iter-order")]
fn iter_order(set: &std::collections::HashSet<u64>) {
    for _ in set {}
}

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "canary: mandatory-reason"
)]
fn mandatory_reason() {
    #[allow(unused_variables)]
    let waived_without_saying_why = 0;
}
