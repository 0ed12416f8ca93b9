//! Per-peer simulator state.

use oscar_degree::DegreeCaps;
use oscar_types::Id;

/// Dense index of a peer inside [`crate::Network`].
///
/// Indices are stable for the lifetime of the network (peers are never
/// compacted away; crashes only flip liveness), so they can be stored in
/// adjacency lists without generation counters.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerIdx(pub u32);

impl PeerIdx {
    /// The index as `usize` for slice addressing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Why a link attempt was rejected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// Target's `ρ_in_max` budget is exhausted — the peer *refuses*, which
    /// is the heterogeneity mechanism of the paper (not an error in the
    /// simulation; callers retry elsewhere).
    TargetFull,
    /// Source's `ρ_out_max` budget is exhausted.
    SourceFull,
    /// Self-links are meaningless.
    SelfLink,
    /// The link already exists.
    Duplicate,
    /// Either endpoint is dead.
    Dead,
}

/// The most link slots reserved up front for one direction of a peer's
/// long-range adjacency. A cap is a budget, not a promise, and
/// `DegreeCaps::symmetric(u32::MAX)` must not reserve gigabytes; a table
/// that fills its reservation grows on demand.
pub(crate) const RESERVED_LINKS: u32 = 64;

/// Simulator state of one peer.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Position on the identifier ring.
    pub id: Id,
    /// Willingness budget: max in/out long-range degree.
    pub caps: DegreeCaps,
    /// Liveness flag; crashes flip this to `false`.
    pub alive: bool,
    /// Outgoing long-range links (targets).
    pub long_out: Vec<PeerIdx>,
    /// Incoming long-range links (sources); kept for undirected random
    /// walks and in-degree accounting.
    pub long_in: Vec<PeerIdx>,
}

impl Peer {
    /// Fresh, live peer with no long-range links.
    pub fn new(id: Id, caps: DegreeCaps) -> Self {
        Peer {
            id,
            caps,
            alive: true,
            long_out: Vec::with_capacity(caps.rho_out.min(RESERVED_LINKS) as usize),
            long_in: Vec::with_capacity(caps.rho_in.min(RESERVED_LINKS) as usize),
        }
    }

    /// Current long-range in-degree.
    #[inline]
    pub fn in_degree(&self) -> u32 {
        self.long_in.len() as u32
    }

    /// Current long-range out-degree.
    #[inline]
    pub fn out_degree(&self) -> u32 {
        self.long_out.len() as u32
    }

    /// Whether this peer would accept one more incoming link.
    #[inline]
    pub fn accepts_in(&self) -> bool {
        self.alive && self.in_degree() < self.caps.rho_in
    }

    /// Whether this peer may open one more outgoing link.
    #[inline]
    pub fn can_open_out(&self) -> bool {
        self.alive && self.out_degree() < self.caps.rho_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_peer_state() {
        let p = Peer::new(Id::new(7), DegreeCaps::symmetric(3));
        assert!(p.alive);
        assert_eq!(p.in_degree(), 0);
        assert_eq!(p.out_degree(), 0);
        assert!(p.accepts_in());
        assert!(p.can_open_out());
    }

    #[test]
    fn budgets_gate_acceptance() {
        let mut p = Peer::new(
            Id::new(7),
            DegreeCaps {
                rho_in: 1,
                rho_out: 2,
            },
        );
        p.long_in.push(PeerIdx(9));
        assert!(!p.accepts_in(), "in budget of 1 exhausted");
        p.long_out.push(PeerIdx(1));
        assert!(p.can_open_out(), "out budget of 2 has room");
        p.long_out.push(PeerIdx(2));
        assert!(!p.can_open_out());
    }

    #[test]
    fn dead_peer_participates_in_nothing() {
        let mut p = Peer::new(Id::new(7), DegreeCaps::symmetric(5));
        p.alive = false;
        assert!(!p.accepts_in());
        assert!(!p.can_open_out());
    }

    #[test]
    fn peer_idx_roundtrip() {
        assert_eq!(PeerIdx(42).as_usize(), 42);
    }
}
