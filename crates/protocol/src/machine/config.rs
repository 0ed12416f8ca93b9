//! A peer's tunables and its repair policy.

/// How a peer reacts to a neighbour it has declared dead.
///
/// The machine-side port of the churn engine's repair family: detection
/// is always timer-table-driven (probe retries drain, or a send bounces),
/// and the policy decides whether detection additionally triggers a
/// long-link rewire. Ring splicing (successor-list surgery, predecessor
/// hand-off) happens on every detection regardless of policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Detection only splices the ring; long links are left to sweeps
    /// (the driver periodically issuing
    /// [`Command::Rewire`](crate::Command::Rewire)) or to rot.
    Off,
    /// Ring-probe detection of a dead neighbour triggers a full long-link
    /// rewire of the detector. `k` is the probe depth: each
    /// [`Command::ProbeRing`](crate::Command::ProbeRing) pings the
    /// predecessor and the first `k` successors.
    ReactiveK {
        /// Successors probed per ring-probe round (>= 1 effective).
        k: usize,
    },
    /// A query forward bouncing off a corpse triggers the prober's own
    /// rewire — repair lands exactly where traffic finds the damage.
    /// Ring probes still run at depth 1 (ring maintenance only).
    OnProbe,
}

/// What differs between fleets (both drivers hand every machine of one
/// the same value); the rest is a constant beside the sub-machine it tunes.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerConfig {
    /// Message budget per query.
    pub query_budget: u32,
    /// Retries per pending operation before giving up gracefully.
    pub max_retries: u32,
    /// What a detected dead neighbour triggers beyond the ring splice.
    pub repair: RepairPolicy,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            query_budget: 4096,
            max_retries: 3,
            repair: RepairPolicy::Off,
        }
    }
}
