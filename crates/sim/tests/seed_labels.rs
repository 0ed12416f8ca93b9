//! Seed-label registry invariants for the simulator's derivation scopes.
//!
//! `LBL_REWIRE` exists in two scopes (`sim_overlay` = 11,
//! `sim_churn_engine` = 7). That is deliberate — the scopes root at
//! different `SeedTree` nodes — but the values are part of the
//! reproduction contract: every seeded CSV and report is produced
//! through these exact labels, so this test pins them and proves the two
//! rewire streams never collapsed onto one another.

use oscar_types::labels::{sim_churn_engine, sim_overlay};
use oscar_types::SeedTree;
use rand::RngCore;

/// The registry values the committed baselines were generated with.
#[test]
fn rewire_labels_are_pinned() {
    assert_eq!(sim_overlay::LBL_REWIRE, 11);
    assert_eq!(sim_churn_engine::LBL_REWIRE, 7);
}

/// The two rewire streams are (and remain) distinct: even when both
/// scopes happen to share a root seed and a round counter, the derived
/// RNG streams diverge because the labels differ.
#[test]
fn rewire_streams_are_distinct() {
    for root in [0u64, 42, 0xA5A5_5A5A] {
        let tree = SeedTree::new(root);
        for round in 0..4u64 {
            let overlay_seed = tree.child2(sim_overlay::LBL_REWIRE, round).seed();
            let churn_seed = tree.child2(sim_churn_engine::LBL_REWIRE, round).seed();
            assert_ne!(
                overlay_seed, churn_seed,
                "rewire streams collided at root={root} round={round}"
            );
            let mut a = tree.child2(sim_overlay::LBL_REWIRE, round).rng();
            let mut b = tree.child2(sim_churn_engine::LBL_REWIRE, round).rng();
            let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
            let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
            assert_ne!(draws_a, draws_b);
        }
    }
}
