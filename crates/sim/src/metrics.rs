//! Message accounting.
//!
//! The paper's metrics are message counts: search cost is hops plus wasted
//! traffic; construction cost (sampling walks, probes, link handshakes) is
//! what makes Oscar's `O(log N)`-medians claim interesting. Every simulated
//! message increments exactly one counter here.

use std::fmt;

/// Categories of simulated messages.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum MsgKind {
    /// One step of a random sampling walk.
    WalkStep = 0,
    /// In-degree probe of a link candidate (power-of-two choices).
    Probe = 1,
    /// Link establishment request.
    LinkRequest = 2,
    /// Link accepted.
    LinkAccept = 3,
    /// Link refused (in-degree budget exhausted).
    LinkRefuse = 4,
    /// Routing hop during construction (entry discovery etc.).
    ConstructionHop = 5,
    /// Productive query routing hop.
    QueryHop = 6,
    /// Wasted query traffic: probing dead neighbours, backtracking.
    QueryWasted = 7,
}

/// Number of message categories.
pub const MSG_KINDS: usize = 8;

/// All message categories, in counter order.
pub const ALL_MSG_KINDS: [MsgKind; MSG_KINDS] = [
    MsgKind::WalkStep,
    MsgKind::Probe,
    MsgKind::LinkRequest,
    MsgKind::LinkAccept,
    MsgKind::LinkRefuse,
    MsgKind::ConstructionHop,
    MsgKind::QueryHop,
    MsgKind::QueryWasted,
];

impl MsgKind {
    /// Stable label for CSV/report output.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::WalkStep => "walk_step",
            MsgKind::Probe => "probe",
            MsgKind::LinkRequest => "link_request",
            MsgKind::LinkAccept => "link_accept",
            MsgKind::LinkRefuse => "link_refuse",
            MsgKind::ConstructionHop => "construction_hop",
            MsgKind::QueryHop => "query_hop",
            MsgKind::QueryWasted => "query_wasted",
        }
    }
}

/// Message counters by category.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counts: [u64; MSG_KINDS],
}

impl Metrics {
    /// Zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments one counter.
    #[inline]
    pub fn inc(&mut self, kind: MsgKind) {
        self.counts[kind as usize] += 1;
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&mut self, kind: MsgKind, n: u64) {
        self.counts[kind as usize] += n;
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, kind: MsgKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Metrics");
        for kind in ALL_MSG_KINDS {
            d.field(kind.label(), &self.get(kind));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_add_get() {
        let mut m = Metrics::new();
        m.inc(MsgKind::QueryHop);
        m.add(MsgKind::QueryHop, 4);
        m.inc(MsgKind::Probe);
        assert_eq!(m.get(MsgKind::QueryHop), 5);
        assert_eq!(m.get(MsgKind::Probe), 1);
        assert_eq!(m.total(), 6);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_MSG_KINDS {
            assert!(seen.insert(k.label()));
        }
    }
}
