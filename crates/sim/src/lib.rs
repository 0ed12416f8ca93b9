//! # oscar-sim — deterministic P2P network simulator
//!
//! The substrate on which the Oscar and Mercury overlays are built and
//! measured. The authors used a custom simulator; we rebuild one with the
//! same observables (message counts, degrees, search cost) and strict
//! determinism (every stochastic step draws from an explicitly seeded RNG).
//!
//! Layering:
//!
//! * [`network::Network`] — peer table, liveness, degree budgets,
//!   long-range adjacency, and the two ring views (stabilised = live-only,
//!   unstabilised = including crashed peers).
//! * [`walker`] — Metropolis–Hastings random-walk sampling, optionally
//!   restricted to an identifier arc: the Mercury sampling technique plus
//!   Oscar's sub-population restriction.
//! * [`routing`] — greedy clockwise routing with dead-link probing and
//!   backtracking; returns hop/wasted-traffic accounting.
//! * [`churn`] — crash injection and fault models.
//! * [`growth`] — the one growth schedule, [`GrowthConfig`] (a target
//!   and its checkpoints): bootstrap an 8-peer cohort, grow one join at a
//!   time through an [`OverlayBuilder`] (Oscar, Mercury and Chord
//!   implement it), rewire everyone and call back at each checkpoint.
//! * [`events`] — a small discrete-event queue with virtual time.
//! * [`churn_engine`] — continuous churn, once: [`run_churn`] owns the
//!   Poisson join/crash/depart arrivals on the event queue, the window
//!   timers, the `min_live` floor and the window books, over any
//!   [`ChurnWorld`] — the seam a churned substrate implements
//!   (membership, upkeep events on the engine's clock, measurement,
//!   [`Shock`]s). Exactly two worlds implement it:
//! * [`churn_oracle`] — [`OracleWorld`]: the snapshot `Network` running
//!   an `OverlayBuilder`'s links (for Oscar: partition-median links under
//!   per-peer degree caps), repaired by direct rewires, and able to
//!   express every shock (arc kills, top-degree kills, mass joins,
//!   partition masks, heals).
//! * [`churn_machine`] — [`MachineWorld`]: a fleet of
//!   [`oscar_protocol::PeerMachine`]s on any `ProtocolDriver` (the DES or
//!   the threaded runtime), where failure detection and repair are real
//!   protocol messages. Its peers link to unrestricted walk samples, not
//!   Oscar's partition medians — the gap that keeps `OracleWorld` alive.
//!   Those samples are not uniform: the walk drifts clockwise (ROADMAP
//!   item 14).
//! * [`metrics`] — message accounting by category.
//!
//! Each `Network` is single-threaded and allocation-conscious: a full
//! paper-scale run (10⁴ peers, nine rewiring checkpoints) performs on the
//! order of 10⁸ walk steps, served from a per-peer walk-adjacency cache
//! that every mutation keeps current (see [`network`]). `Network` is
//! `Send + Sync`: walkers read the cache through `&Network`, and the
//! parallel experiment drivers in `oscar-bench` let each task clone a
//! shared network for itself.

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

#[cfg(clippy)]
mod lint_canaries;

pub mod churn;
pub mod churn_engine;
pub mod churn_machine;
pub mod churn_oracle;
pub mod events;
pub mod growth;
pub mod metrics;
pub mod network;
pub mod overlay;
pub mod peer;
pub mod protocol_des;
pub mod routing;
pub mod walker;

pub use churn::{kill_fraction, FaultModel};
pub use churn_engine::{
    run_churn, ChurnSchedule, ChurnWindowStats, ChurnWorld, Maintenance, Measured, QueryBudget,
    RepairPolicy, Shock, ShockReport, Span, VictimPick,
};
pub use churn_machine::{
    grow_fleet, machine_repair_policy, run_machine_churn, MachineChurnConfig, MachineUpkeep,
    MachineWorld,
};
pub use churn_oracle::{run_continuous_churn, OracleUpkeep, OracleWorld};
pub use events::{EventQueue, VirtualTime};
pub use growth::{rewire_all_peers, wire_directly, Checkpoint, GrowthConfig, OverlayBuilder};
pub use metrics::{Metrics, MsgKind};
pub use network::Network;
pub use overlay::Overlay;
pub use peer::{LinkError, Peer, PeerIdx};
pub use protocol_des::{DesDriver, Envelope};
pub use routing::{
    route_to_owner, run_query_batch, run_query_batch_observed, QueryBatchStats, RouteOutcome,
    RoutePolicy,
};
pub use walker::{sample_peers, WalkConfig, Walker};
