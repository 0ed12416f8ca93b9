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
    /// rewire of the detector ([`PeerConfig::repair_walks`] fresh walks).
    /// `k` is the probe depth: each
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

/// Tunables of one peer. Both drivers hand every machine of a fleet the
/// same value; per-peer caps are ROADMAP item 1(b).
#[derive(Clone, Debug, PartialEq)]
pub struct PeerConfig {
    /// Successor-list length (ring resilience).
    pub succ_len: usize,
    /// Long out-link budget (links this peer initiates).
    pub max_long_out: usize,
    /// Long in-link budget (links this peer accepts).
    pub max_long_in: usize,
    /// MH walk length per sample (burn-in of the sampling chain).
    pub walk_ttl: u32,
    /// Message budget per query.
    pub query_budget: u32,
    /// Peers contacted per gossip round.
    pub gossip_fanout: usize,
    /// View entries shipped per gossip message.
    pub gossip_sample: usize,
    /// Bound on the membership view.
    pub view_cap: usize,
    /// Base deadline for pending operations, in driver timer rounds.
    pub retry_timeout: u64,
    /// Retries per pending operation before giving up gracefully.
    pub max_retries: u32,
    /// Cap on the exponential retry backoff, in timer rounds.
    pub max_backoff: u64,
    /// Recently-seen message instance keys kept for duplicate
    /// suppression (a ring buffer per peer).
    pub dedup_window: usize,
    /// What a detected dead neighbour triggers beyond the ring splice.
    pub repair: RepairPolicy,
    /// Fresh MH walks launched by a policy-triggered rewire.
    pub repair_walks: u32,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            succ_len: 8,
            max_long_out: 5,
            max_long_in: 10,
            walk_ttl: 16,
            query_budget: 4096,
            gossip_fanout: 2,
            gossip_sample: 8,
            view_cap: 128,
            retry_timeout: 1,
            max_retries: 3,
            max_backoff: 8,
            dedup_window: 128,
            repair: RepairPolicy::Off,
            repair_walks: 3,
        }
    }
}
