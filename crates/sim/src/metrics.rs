//! Message accounting.
//!
//! The paper's metrics are message counts: search cost is hops plus wasted
//! traffic; construction cost (sampling walks, probes, link handshakes) is
//! what makes Oscar's `O(log N)`-medians claim interesting. Every simulated
//! message increments exactly one counter here.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

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

/// Message counters by category: atomic, so that walks and query batches
/// credit them through `&Network`, and `Relaxed`, because a count orders
/// nothing. A hot loop counts locally and credits once.
#[derive(Default)]
pub struct Metrics {
    counts: [AtomicU64; MSG_KINDS],
}

impl Metrics {
    /// Zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments one counter.
    #[inline]
    pub fn inc(&self, kind: MsgKind) {
        self.add(kind, 1);
    }

    /// Adds `n` to one counter.
    #[inline]
    pub fn add(&self, kind: MsgKind, n: u64) {
        self.counts[kind as usize].fetch_add(n, Relaxed);
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, kind: MsgKind) -> u64 {
        self.counts[kind as usize].load(Relaxed)
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        ALL_MSG_KINDS.iter().map(|&kind| self.get(kind)).sum()
    }
}

/// A snapshot of the counts.
impl Clone for Metrics {
    fn clone(&self) -> Self {
        Metrics {
            counts: ALL_MSG_KINDS.map(|kind| AtomicU64::new(self.get(kind))),
        }
    }
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        ALL_MSG_KINDS
            .iter()
            .all(|&kind| self.get(kind) == other.get(kind))
    }
}

impl Eq for Metrics {}

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
        let m = Metrics::new();
        m.inc(MsgKind::QueryHop);
        m.add(MsgKind::QueryHop, 4);
        m.inc(MsgKind::Probe);
        assert_eq!(m.get(MsgKind::QueryHop), 5);
        assert_eq!(m.get(MsgKind::Probe), 1);
        assert_eq!(m.total(), 6);
    }

    #[test]
    fn a_clone_is_a_snapshot_and_eq_compares_counts() {
        let m = Metrics::new();
        m.add(MsgKind::WalkStep, 3);
        let snap = m.clone();
        assert_eq!(snap, m);
        snap.inc(MsgKind::WalkStep);
        assert_eq!(
            m.get(MsgKind::WalkStep),
            3,
            "crediting the clone moved the original"
        );
        assert_eq!(snap.get(MsgKind::WalkStep), 4);
        assert_ne!(snap, m);
        // Equal totals in other kinds are not equal counts.
        let other = Metrics::new();
        other.add(MsgKind::Probe, 3);
        assert_eq!(other.total(), m.total());
        assert_ne!(other, m);
    }

    #[test]
    fn two_threads_crediting_one_metrics_sum_exactly() {
        let (m, start) = (Metrics::new(), std::sync::Barrier::new(2));
        let per_thread = 100_000u64;
        std::thread::scope(|s| {
            for kind in [MsgKind::QueryHop, MsgKind::QueryWasted] {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..per_thread {
                        m.inc(MsgKind::WalkStep);
                        m.add(kind, 2);
                    }
                });
            }
        });
        assert_eq!(m.get(MsgKind::WalkStep), 2 * per_thread);
        assert_eq!(m.get(MsgKind::QueryHop), 2 * per_thread);
        assert_eq!(m.get(MsgKind::QueryWasted), 2 * per_thread);
        assert_eq!(m.total(), 6 * per_thread);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL_MSG_KINDS {
            assert!(seen.insert(k.label()));
        }
    }
}
