//! The ordered ring of peer identifiers.

use crate::treap::Treap;
use oscar_types::{Arc, Id};

/// An ordered set of peer identifiers on the ring.
///
/// Backed by an order-statistic treap (`crate::treap`): insert, remove,
/// membership, rank/select, neighbour and owner lookups are all O(log n)
/// expected, and the arc queries reduce to rank arithmetic on subtree
/// counts. This is what lets `Network` growth scale far past the paper's
/// 10k peers — the previous sorted-`Vec` representation (preserved as the
/// test-only `crate::reference::VecRing`, the property-test oracle) paid
/// an O(n) memmove per membership change, making bootstrap-and-grow Θ(n²).
///
/// Invariants (enforced by construction, checked by property tests against
/// the oracle):
/// * stored ids are strictly ascending in iteration order (no duplicates);
/// * all queries treat the order as circular.
#[derive(Clone, Default)]
pub struct Ring {
    tree: Treap,
}

impl Ring {
    /// Empty ring.
    pub fn new() -> Self {
        Ring { tree: Treap::new() }
    }

    /// Ring pre-populated from arbitrary (unsorted, possibly duplicate) ids.
    pub fn from_ids(ids: Vec<Id>) -> Self {
        let mut ring = Ring::new();
        for id in ids {
            ring.tree.insert(id);
        }
        ring
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True iff no peers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.len() == 0
    }

    /// The identifiers in ascending order (in-order tree walk, O(n) total).
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.tree.iter()
    }

    /// Membership test.
    pub fn contains(&self, id: Id) -> bool {
        self.tree.rank_of(id).is_some()
    }

    /// Inserts a peer; returns `false` if the identifier was present.
    pub fn insert(&mut self, id: Id) -> bool {
        self.tree.insert(id)
    }

    /// Removes a peer; returns `false` if absent.
    pub fn remove(&mut self, id: Id) -> bool {
        self.tree.remove(id)
    }

    /// Rank of `id` in ascending identifier order, if present.
    pub fn rank_of(&self, id: Id) -> Option<usize> {
        self.tree.rank_of(id)
    }

    /// The peer with the given ascending rank.
    ///
    /// # Panics
    /// If `rank >= len`.
    pub fn select(&self, rank: usize) -> Id {
        self.tree.select(rank)
    }

    /// The **owner** of `key`: the first peer at-or-after `key` clockwise
    /// (Chord successor convention — a peer owns the arc
    /// `(predecessor, self]`). `None` on an empty ring.
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        if self.is_empty() {
            return None;
        }
        let pos = self.tree.count_lt(key);
        Some(if pos == self.len() {
            self.select(0) // wrap
        } else {
            self.select(pos)
        })
    }

    /// The first peer **strictly after** `id` clockwise (wraps; returns
    /// `id` itself only when it is the sole peer). `None` on empty ring.
    pub fn successor_of(&self, id: Id) -> Option<Id> {
        if self.is_empty() {
            return None;
        }
        let pos = self.tree.count_le(id);
        Some(if pos == self.len() {
            self.select(0)
        } else {
            self.select(pos)
        })
    }

    /// The first peer **strictly before** `id` clockwise (wraps; returns
    /// `id` itself only when it is the sole peer). `None` on empty ring.
    pub fn predecessor_of(&self, id: Id) -> Option<Id> {
        if self.is_empty() {
            return None;
        }
        let pos = self.tree.count_lt(id);
        Some(if pos == 0 {
            self.select(self.len() - 1)
        } else {
            self.select(pos - 1)
        })
    }

    /// The peer `k` clockwise steps after `id` (which must be present).
    pub fn nth_clockwise_of(&self, id: Id, k: usize) -> Option<Id> {
        let rank = self.rank_of(id)?;
        let n = self.len();
        Some(self.select((rank + k) % n))
    }

    /// Number of peers whose identifiers lie in `arc` — pure rank
    /// arithmetic, O(log n).
    pub fn count_in_arc(&self, arc: &Arc) -> usize {
        if arc.is_empty() || self.is_empty() {
            return 0;
        }
        if arc.is_full() {
            return self.len();
        }
        let start = arc.start();
        let end = arc.end(); // exclusive
        if start < end {
            // non-wrapping: [start, end)
            self.tree.count_lt(end) - self.tree.count_lt(start)
        } else {
            // wrapping: [start, MAX] ∪ [0, end)
            (self.len() - self.tree.count_lt(start)) + self.tree.count_lt(end)
        }
    }

    /// Exact median of the peers in `arc`, measured by clockwise distance
    /// from `arc.start()` — the oracle for Oscar's sampled medians.
    ///
    /// With `m` peers the median is the peer at clockwise rank
    /// `⌈m/2⌉ - 1` within the arc (lower median). `None` if the arc holds
    /// no peer.
    pub fn median_in_arc(&self, arc: &Arc) -> Option<Id> {
        let members = self.count_in_arc(arc);
        if members == 0 {
            return None;
        }
        let start_pos = self.tree.count_lt(arc.start());
        let n = self.len();
        let median_offset = members.div_ceil(2) - 1;
        Some(self.select((start_pos + median_offset) % n))
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.ids()).finish()
    }
}

/// Logical (set) equality: same ids, regardless of tree shape.
impl PartialEq for Ring {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.ids().eq(other.ids())
    }
}

impl Eq for Ring {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring(ids: &[u64]) -> Ring {
        Ring::from_ids(ids.iter().map(|&x| Id::new(x)).collect())
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Ring::new();
        assert!(r.insert(Id::new(5)));
        assert!(!r.insert(Id::new(5)), "duplicate refused");
        assert!(r.contains(Id::new(5)));
        assert!(r.remove(Id::new(5)));
        assert!(!r.remove(Id::new(5)));
        assert!(r.is_empty());
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let r = ring(&[30, 10, 20, 10]);
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.ids().collect::<Vec<_>>(),
            vec![Id::new(10), Id::new(20), Id::new(30)]
        );
    }

    #[test]
    fn owner_is_chord_successor() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.owner_of(Id::new(5)), Some(Id::new(10)));
        assert_eq!(r.owner_of(Id::new(10)), Some(Id::new(10)), "exact hit owns");
        assert_eq!(r.owner_of(Id::new(11)), Some(Id::new(20)));
        assert_eq!(r.owner_of(Id::new(31)), Some(Id::new(10)), "wraps");
    }

    #[test]
    fn successor_predecessor_wrap() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.successor_of(Id::new(10)), Some(Id::new(20)));
        assert_eq!(r.successor_of(Id::new(30)), Some(Id::new(10)));
        assert_eq!(r.predecessor_of(Id::new(10)), Some(Id::new(30)));
        assert_eq!(r.predecessor_of(Id::new(25)), Some(Id::new(20)));
        // non-member queries are fine too
        assert_eq!(r.successor_of(Id::new(15)), Some(Id::new(20)));
    }

    #[test]
    fn single_peer_is_its_own_neighbourhood() {
        let r = ring(&[42]);
        assert_eq!(r.successor_of(Id::new(42)), Some(Id::new(42)));
        assert_eq!(r.predecessor_of(Id::new(42)), Some(Id::new(42)));
        assert_eq!(r.owner_of(Id::new(7)), Some(Id::new(42)));
    }

    #[test]
    fn empty_ring_has_no_answers() {
        let r = Ring::new();
        assert_eq!(r.owner_of(Id::new(1)), None);
        assert_eq!(r.successor_of(Id::new(1)), None);
        assert_eq!(r.predecessor_of(Id::new(1)), None);
    }

    #[test]
    fn rank_and_select_roundtrip() {
        let r = ring(&[10, 20, 30, 40]);
        for (expect_rank, id) in [(0usize, 10u64), (1, 20), (2, 30), (3, 40)] {
            assert_eq!(r.rank_of(Id::new(id)), Some(expect_rank));
            assert_eq!(r.select(expect_rank), Id::new(id));
        }
        assert_eq!(r.rank_of(Id::new(15)), None);
    }

    #[test]
    fn nth_clockwise_wraps() {
        let r = ring(&[10, 20, 30]);
        assert_eq!(r.nth_clockwise_of(Id::new(20), 1), Some(Id::new(30)));
        assert_eq!(r.nth_clockwise_of(Id::new(20), 2), Some(Id::new(10)));
        assert_eq!(r.nth_clockwise_of(Id::new(20), 3), Some(Id::new(20)));
        assert_eq!(r.nth_clockwise_of(Id::new(15), 1), None, "non-member");
    }

    #[test]
    fn count_in_arc_plain_and_wrapping() {
        let r = ring(&[10, 20, 30, 40]);
        assert_eq!(r.count_in_arc(&Arc::between(Id::new(10), Id::new(30))), 2); // 10, 20
        assert_eq!(r.count_in_arc(&Arc::between(Id::new(35), Id::new(15))), 2); // 40, 10
        assert_eq!(r.count_in_arc(&Arc::FULL), 4);
        assert_eq!(r.count_in_arc(&Arc::EMPTY), 0);
    }

    #[test]
    fn median_in_arc_oracle() {
        let r = ring(&[10, 20, 30, 40, 50]);
        // arc [5, 55) holds all five; lower median is the 3rd (rank 2): 30
        let arc = Arc::between(Id::new(5), Id::new(55));
        assert_eq!(r.median_in_arc(&arc), Some(Id::new(30)));
        // arc with four members [10,50): 10,20,30,40 -> lower median 20
        let arc4 = Arc::between(Id::new(10), Id::new(50));
        assert_eq!(r.median_in_arc(&arc4), Some(Id::new(20)));
        // empty arc
        assert_eq!(
            r.median_in_arc(&Arc::between(Id::new(11), Id::new(19))),
            None
        );
    }

    #[test]
    fn median_in_wrapping_arc() {
        let r = ring(&[10, 20, 900, 950]);
        // arc starting at 895 wrapping to 25: members 900, 950, 10, 20 -> lower median 950
        let arc = Arc::between(Id::new(895), Id::new(25));
        assert_eq!(r.median_in_arc(&arc), Some(Id::new(950)));
    }

    #[test]
    fn equality_is_content_not_history() {
        // Same set via different operation histories must compare equal.
        let mut a = ring(&[10, 20, 30, 40]);
        a.remove(Id::new(40));
        let b = ring(&[30, 20, 10]);
        assert_eq!(a, b);
        assert_ne!(a, ring(&[10, 20]));
        assert_eq!(
            format!("{a:?}"),
            format!("{:?}", b.ids().collect::<Vec<_>>())
        );
    }

    proptest! {
        #[test]
        fn prop_sorted_unique(ids in prop::collection::vec(any::<u64>(), 0..200)) {
            let r = Ring::from_ids(ids.into_iter().map(Id::new).collect());
            let s: Vec<Id> = r.ids().collect();
            for w in s.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        #[test]
        fn prop_owner_owns_its_arc(ids in prop::collection::vec(any::<u64>(), 1..100), key: u64) {
            let r = Ring::from_ids(ids.into_iter().map(Id::new).collect());
            let key = Id::new(key);
            let owner = r.owner_of(key).unwrap();
            let pred = r.predecessor_of(owner).unwrap();
            // key ∈ (pred, owner]  (full ring when pred == owner)
            prop_assert!(key.in_cw_open_closed(pred, owner));
        }

        #[test]
        fn prop_successor_cycle_covers_ring(ids in prop::collection::vec(any::<u64>(), 1..50)) {
            let r = Ring::from_ids(ids.into_iter().map(Id::new).collect());
            let n = r.len();
            let start = r.select(0);
            let mut cur = start;
            for _ in 0..n {
                cur = r.successor_of(cur).unwrap();
            }
            prop_assert_eq!(cur, start, "n successor hops return to start");
        }

        #[test]
        fn prop_count_in_complementary_arcs(ids in prop::collection::vec(any::<u64>(), 0..100), a: u64, b: u64) {
            prop_assume!(a != b);
            let r = Ring::from_ids(ids.into_iter().map(Id::new).collect());
            let x = Arc::between(Id::new(a), Id::new(b));
            let y = Arc::between(Id::new(b), Id::new(a));
            prop_assert_eq!(r.count_in_arc(&x) + r.count_in_arc(&y), r.len());
        }

        #[test]
        fn prop_median_is_member_and_halves(ids in prop::collection::hash_set(any::<u64>(), 1..80)) {
            let ids: Vec<Id> = ids.into_iter().map(Id::new).collect();
            let r = Ring::from_ids(ids);
            let arc = Arc::FULL;
            let m = r.median_in_arc(&arc).unwrap();
            prop_assert!(r.contains(m));
            // Count members at-or-before the median (clockwise from arc
            // start): must be ⌈n/2⌉ by the lower-median convention.
            let upto = Arc::between(arc.start(), m);
            let at_or_before = r.count_in_arc(&upto) + 1; // +1 for m itself
            prop_assert_eq!(at_or_before, r.len().div_ceil(2));
        }
    }

    /// Operational equivalence against the sorted-Vec reference model: any
    /// interleaving of mutations and queries must be indistinguishable.
    mod oracle_equivalence {
        use super::*;
        use crate::reference::VecRing;

        /// Compare every read-only query on both structures.
        fn assert_same_views(
            treap: &Ring,
            oracle: &VecRing,
            probe: Id,
            arc: &Arc,
        ) -> std::result::Result<(), TestCaseError> {
            prop_assert_eq!(treap.len(), oracle.len());
            prop_assert_eq!(treap.is_empty(), oracle.is_empty());
            prop_assert_eq!(treap.ids().collect::<Vec<_>>(), oracle.ids().to_vec());
            prop_assert_eq!(treap.contains(probe), oracle.contains(probe));
            prop_assert_eq!(treap.rank_of(probe), oracle.rank_of(probe));
            prop_assert_eq!(treap.owner_of(probe), oracle.owner_of(probe));
            prop_assert_eq!(treap.successor_of(probe), oracle.successor_of(probe));
            prop_assert_eq!(treap.predecessor_of(probe), oracle.predecessor_of(probe));
            prop_assert_eq!(
                treap.nth_clockwise_of(probe, 3),
                oracle.nth_clockwise_of(probe, 3)
            );
            for rank in 0..treap.len() {
                prop_assert_eq!(treap.select(rank), oracle.select(rank));
            }
            prop_assert_eq!(treap.count_in_arc(arc), oracle.count_in_arc(arc));
            prop_assert_eq!(treap.median_in_arc(arc), oracle.median_in_arc(arc));
            Ok(())
        }

        proptest! {
            #[test]
            fn prop_treap_matches_vec_reference(
                // Small id universe (0..64) forces frequent duplicate
                // inserts and hits on remove; raw u64 arc endpoints produce
                // wrapping and non-wrapping arcs alike.
                ops in prop::collection::vec((0u8..2, 0u64..64), 1..200),
                probe: u64,
                a: u64,
                b: u64,
            ) {
                let mut treap = Ring::new();
                let mut oracle = VecRing::new();
                let arcs = [
                    Arc::between(Id::new(a), Id::new(b)),
                    Arc::between(Id::new(b), Id::new(a)),
                    Arc::FULL,
                    Arc::EMPTY,
                ];
                for (op, x) in ops {
                    let id = Id::new(x);
                    match op {
                        0 => prop_assert_eq!(treap.insert(id), oracle.insert(id)),
                        _ => prop_assert_eq!(treap.remove(id), oracle.remove(id)),
                    }
                    for arc in &arcs {
                        assert_same_views(&treap, &oracle, Id::new(probe), arc)?;
                    }
                }
            }

            #[test]
            fn prop_from_ids_matches_vec_reference(
                ids in prop::collection::vec(any::<u64>(), 0..150),
                probe: u64,
                a: u64,
                b: u64,
            ) {
                let ids: Vec<Id> = ids.into_iter().map(Id::new).collect();
                let treap = Ring::from_ids(ids.clone());
                let oracle = VecRing::from_ids(ids);
                let arc = Arc::between(Id::new(a), Id::new(b));
                assert_same_views(&treap, &oracle, Id::new(probe), &arc)?;
            }
        }
    }
}
