//! # oscar-protocol — the runtime-agnostic protocol core
//!
//! Everything Oscar *decides* — Metropolis–Hastings sampling walks,
//! greedy clockwise routing, ring splicing, long-link negotiation —
//! extracted from the simulator into pure, side-effect-free per-peer
//! state machines. A [`PeerMachine`] owns only its local link table and
//! successor list and advances via
//! `on_message(&mut self, from, msg, rng) -> Vec<Outbound>`; it has no
//! global snapshot and no notion of time or transport.
//!
//! Two layers:
//!
//! * [`logic`] — stateless decision kernels (MH acceptance, progress
//!   ranking, ownership). The discrete-event simulator in `oscar-sim`
//!   delegates its hot loops to these functions *without changing a
//!   single RNG draw*, so all committed baselines stay byte-identical.
//! * [`machine`] — the full message-driven peer. Driven by two worlds:
//!   the DES adapter in `oscar-sim` (virtual time, one event queue) and
//!   the threaded actor runtime in `oscar-runtime` (wall-clock, one
//!   mailbox per peer, all cores busy).
//!
//! Determinism boundary: walk and query tokens carry their own
//! [`TokenRng`] stream, so a token realises the same random choices no
//! matter which peer, thread, or driver advances it. Only gossip draws
//! from the driver-supplied RNG.

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

pub mod driver;
pub mod fault;
pub mod logic;
pub mod machine;
pub mod message;
pub mod token;

pub use driver::{ProtocolDriver, Rounds, TimerIndex};
pub use fault::{FaultDecision, FaultPlan};
pub use machine::{PeerConfig, PeerMachine, RepairPolicy};
pub use message::{Command, Message, OpKind, Outbound, ProtocolEvent, QueryReport, RepairTrigger};
pub use token::{QueryToken, TokenRng, WalkToken};
