//! Workspace-wide error type.
//!
//! The simulator and the overlay algorithms share one small error enum:
//! almost all "errors" in a P2P simulation are *modelled* conditions (a
//! refused link, a dead peer) rather than programming faults, so they are
//! ordinary values that the drivers react to.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the simulator and overlay algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Referenced a peer index that does not exist in the network.
    UnknownPeer(usize),
    /// Operation requires a live peer but the peer has crashed.
    PeerDead(usize),
    /// A random-walk sampler could not produce a sample (e.g. the restricted
    /// sub-population is empty or unreachable).
    SamplingFailed {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Invalid experiment or overlay configuration.
    InvalidConfig(String),
    /// A protocol driver was still not idle after its whole timer-round
    /// budget: some operation keeps re-arming its timer and never
    /// completes or gives up.
    Livelock {
        /// What the engine had just asked of the fleet.
        during: &'static str,
        /// Timer rounds spent, i.e. the budget.
        rounds: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownPeer(idx) => write!(f, "unknown peer index {idx}"),
            Error::PeerDead(idx) => write!(f, "peer {idx} is dead"),
            Error::SamplingFailed { reason } => {
                write!(f, "sampling failed: {reason}")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Livelock { during, rounds } => write!(
                f,
                "protocol livelock: the fleet was still not idle {rounds} timer rounds after {during}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::UnknownPeer(3), "unknown peer index 3"),
            (Error::PeerDead(9), "peer 9 is dead"),
            (
                Error::SamplingFailed {
                    reason: "empty interval",
                },
                "sampling failed: empty interval",
            ),
            (
                Error::Livelock {
                    during: "a join",
                    rounds: 4096,
                },
                "protocol livelock: the fleet was still not idle 4096 timer rounds after a join",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_: &dyn std::error::Error) {}
        takes_std_error(&Error::PeerDead(1));
    }

    #[test]
    fn invalid_config_carries_message() {
        let e = Error::InvalidConfig("sample size must be > 0".into());
        assert!(e.to_string().contains("sample size"));
    }
}
