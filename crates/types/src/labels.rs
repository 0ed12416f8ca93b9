//! The workspace's seed-derivation labels — every `LBL_*` constant lives
//! here, hand-maintained (`tests/tree_rules.rs` rejects one declared
//! anywhere else).
//!
//! One `scope!` = one module = one **derivation scope**, named after the
//! deriving file: its labels address children of a single `SeedTree`
//! node, so two equal values within a scope would silently correlate two
//! "independent" streams. `scope!` makes that a compile error (a repeated
//! name already is one); across scopes the parents differ and reuse is
//! harmless.
//!
//! To add a label, add one `LBL_NAME = <literal>,` line to its scope and
//! import it — the compiler rejects a collision. Existing values are
//! frozen: they are part of the reproduction contract, and changing one
//! changes every committed seeded artifact downstream of its stream
//! (`tests/pinned_artifacts.rs`).

/// `scope!(name { LBL_A = 1, … })` expands to `pub mod name` holding one
/// `pub const LBL_A: u64 = 1;` per label, and fails the build when two of
/// the scope's values are equal.
macro_rules! scope {
    ($scope:ident { $($name:ident = $value:literal),+ $(,)? }) => {
        #[doc = concat!("Seed-tree labels of derivation scope `", stringify!($scope), "`.")]
        pub mod $scope {
            $(
                #[doc = concat!("Label `", stringify!($name), "` (= ", stringify!($value), ").")]
                pub const $name: u64 = $value;
            )+
            const _: () = {
                let values = [$($name),+];
                let mut i = 0;
                while i < values.len() {
                    let mut j = i + 1;
                    while j < values.len() {
                        assert!(
                            values[i] != values[j],
                            concat!("two labels of scope `", stringify!($scope), "` share a value")
                        );
                        j += 1;
                    }
                    i += 1;
                }
            };
        }
    };
}

scope!(bench_experiments {
    LBL_GROWTH = 1,
    LBL_QUERIES = 2,
    LBL_CHURN = 3,
    LBL_STEADY = 4,
    LBL_PHASE = 5,
    LBL_MACHINE = 6,
});

scope!(bench_scenario {
    LBL_RUN = 1,
    LBL_PHASE = 2,
    LBL_WINDOW = 3,
    LBL_GROW = 4,
});

scope!(bench_storm {
    LBL_IDS = 0x1D5,
    LBL_KEYS = 0x4E45,
});

scope!(protocol_machine {
    LBL_LINK = 0x4C,
    LBL_RETRY = 0x52,
    LBL_WALK = 0x57,
    LBL_PEER = 0x9E,
});

scope!(runtime {
    LBL_WORKER = 0xB0,
});

scope!(sim_churn_engine {
    LBL_JOIN_GAPS = 1,
    LBL_CRASH_GAPS = 2,
    LBL_DEPART_GAPS = 3,
    LBL_JOIN = 4,
    LBL_CRASH_PICK = 5,
    LBL_DEPART_PICK = 6,
    LBL_REWIRE = 7,
    LBL_MEASURE = 8,
    LBL_REPAIR = 9,
    LBL_BOOT = 10,
});

scope!(sim_churn_shock {
    LBL_BURST = 1,
    LBL_HEAL = 2,
});

scope!(sim_growth {
    LBL_IDS = 1,
    LBL_JOIN = 2,
    LBL_REWIRE = 3,
    LBL_SHUFFLE = 4,
});

scope!(sim_overlay {
    LBL_GROW = 10,
    LBL_REWIRE = 11,
    LBL_QUERY = 12,
    LBL_CHURN = 13,
    LBL_CONTINUOUS = 14,
});

scope!(sim_protocol_des {
    LBL_CMD = 0xDE5,
});
