//! GENERATED — the workspace seed-label registry.
//!
//! Regenerate with `cargo run -p oscar-lint -- --write-registry`; the
//! lint gate (`oscar-lint`) rejects `const LBL_*` declarations anywhere
//! else and duplicate values within a scope. One module = one
//! **derivation scope** (the labels address children of a single
//! `SeedTree` node, so equal values within a module would correlate
//! streams; across modules the parents differ and reuse is harmless).
//!
//! Values are part of the reproduction contract: changing one changes
//! every committed seeded artifact downstream of its stream.

/// Seed-tree labels of derivation scope `bench_experiments`.
pub mod bench_experiments {
    /// Label `LBL_GROWTH` (= 1).
    pub const LBL_GROWTH: u64 = 1;
    /// Label `LBL_QUERIES` (= 2).
    pub const LBL_QUERIES: u64 = 2;
    /// Label `LBL_CHURN` (= 3).
    pub const LBL_CHURN: u64 = 3;
    /// Label `LBL_STEADY` (= 4).
    pub const LBL_STEADY: u64 = 4;
    /// Label `LBL_PHASE` (= 5).
    pub const LBL_PHASE: u64 = 5;
    /// Label `LBL_MACHINE` (= 6).
    pub const LBL_MACHINE: u64 = 6;
}

/// Seed-tree labels of derivation scope `bench_scenario`.
pub mod bench_scenario {
    /// Label `LBL_RUN` (= 1).
    pub const LBL_RUN: u64 = 1;
    /// Label `LBL_PHASE` (= 2).
    pub const LBL_PHASE: u64 = 2;
    /// Label `LBL_WINDOW` (= 3).
    pub const LBL_WINDOW: u64 = 3;
    /// Label `LBL_GROW` (= 4).
    pub const LBL_GROW: u64 = 4;
}

/// Seed-tree labels of derivation scope `bench_storm`.
pub mod bench_storm {
    /// Label `LBL_IDS` (= 469).
    pub const LBL_IDS: u64 = 0x1D5;
    /// Label `LBL_KEYS` (= 20037).
    pub const LBL_KEYS: u64 = 0x4E45;
}

/// Seed-tree labels of derivation scope `protocol_machine`.
pub mod protocol_machine {
    /// Label `LBL_LINK` (= 76).
    pub const LBL_LINK: u64 = 0x4C;
    /// Label `LBL_RETRY` (= 82).
    pub const LBL_RETRY: u64 = 0x52;
    /// Label `LBL_WALK` (= 87).
    pub const LBL_WALK: u64 = 0x57;
    /// Label `LBL_PEER` (= 158).
    pub const LBL_PEER: u64 = 0x9E;
}

/// Seed-tree labels of derivation scope `runtime`.
pub mod runtime {
    /// Label `LBL_WORKER` (= 176).
    pub const LBL_WORKER: u64 = 0xB0;
    /// Label `LBL_GOSSIP` (= 177).
    pub const LBL_GOSSIP: u64 = 0xB1;
}

/// Seed-tree labels of derivation scope `sim_churn_engine`.
pub mod sim_churn_engine {
    /// Label `LBL_JOIN_GAPS` (= 1).
    pub const LBL_JOIN_GAPS: u64 = 1;
    /// Label `LBL_CRASH_GAPS` (= 2).
    pub const LBL_CRASH_GAPS: u64 = 2;
    /// Label `LBL_DEPART_GAPS` (= 3).
    pub const LBL_DEPART_GAPS: u64 = 3;
    /// Label `LBL_JOIN` (= 4).
    pub const LBL_JOIN: u64 = 4;
    /// Label `LBL_CRASH_PICK` (= 5).
    pub const LBL_CRASH_PICK: u64 = 5;
    /// Label `LBL_DEPART_PICK` (= 6).
    pub const LBL_DEPART_PICK: u64 = 6;
    /// Label `LBL_REWIRE` (= 7).
    pub const LBL_REWIRE: u64 = 7;
    /// Label `LBL_MEASURE` (= 8).
    pub const LBL_MEASURE: u64 = 8;
    /// Label `LBL_REPAIR` (= 9).
    pub const LBL_REPAIR: u64 = 9;
    /// Label `LBL_BOOT` (= 10).
    pub const LBL_BOOT: u64 = 10;
}

/// Seed-tree labels of derivation scope `sim_churn_shock`.
pub mod sim_churn_shock {
    /// Label `LBL_BURST` (= 1).
    pub const LBL_BURST: u64 = 1;
    /// Label `LBL_HEAL` (= 2).
    pub const LBL_HEAL: u64 = 2;
}

/// Seed-tree labels of derivation scope `sim_growth`.
pub mod sim_growth {
    /// Label `LBL_IDS` (= 1).
    pub const LBL_IDS: u64 = 1;
    /// Label `LBL_JOIN` (= 2).
    pub const LBL_JOIN: u64 = 2;
    /// Label `LBL_REWIRE` (= 3).
    pub const LBL_REWIRE: u64 = 3;
    /// Label `LBL_SHUFFLE` (= 4).
    pub const LBL_SHUFFLE: u64 = 4;
}

/// Seed-tree labels of derivation scope `sim_overlay`.
pub mod sim_overlay {
    /// Label `LBL_GROW` (= 10).
    pub const LBL_GROW: u64 = 10;
    /// Label `LBL_REWIRE` (= 11).
    pub const LBL_REWIRE: u64 = 11;
    /// Label `LBL_QUERY` (= 12).
    pub const LBL_QUERY: u64 = 12;
    /// Label `LBL_CHURN` (= 13).
    pub const LBL_CHURN: u64 = 13;
    /// Label `LBL_CONTINUOUS` (= 14).
    pub const LBL_CONTINUOUS: u64 = 14;
}

/// Seed-tree labels of derivation scope `sim_protocol_des`.
pub mod sim_protocol_des {
    /// Label `LBL_CMD` (= 3557).
    pub const LBL_CMD: u64 = 0xDE5;
}
