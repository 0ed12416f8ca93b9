//! Deliberate violations, compiled only under clippy: one per determinism
//! rule in force in this crate. Each `#[expect]` is fulfilled only while
//! clippy still reports the violation under it; what that catches, and what
//! it cannot, is in ARCHITECTURE.md § "Static analysis & determinism rules".

#![allow(dead_code, reason = "canaries are linted, never called")]

#[expect(clippy::disallowed_methods, reason = "canary: rng-discipline")]
fn rng_discipline() -> oscar_types::SeedTree {
    oscar_types::SeedTree::new(0)
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

fn panic_policy(slot: Option<u64>) -> u64 {
    match slot {
        #[expect(clippy::unwrap_used, reason = "canary: panic-policy")]
        Some(0) => slot.unwrap(),
        #[expect(clippy::expect_used, reason = "canary: panic-policy")]
        Some(1) => slot.expect("canary"),
        #[expect(clippy::panic, reason = "canary: panic-policy")]
        Some(2) => panic!("canary"),
        #[expect(clippy::unreachable, reason = "canary: panic-policy")]
        Some(3) => unreachable!(),
        #[expect(clippy::todo, reason = "canary: panic-policy")]
        Some(4) => todo!(),
        #[expect(clippy::unimplemented, reason = "canary: panic-policy")]
        _ => unimplemented!(),
    }
}
