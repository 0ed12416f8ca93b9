//! The original sorted-`Vec` ring, kept as a **reference model**.
//!
//! [`VecRing`] is the implementation `Ring` shipped with before the
//! order-statistic treap rewrite: a sorted `Vec<Id>` with binary search for
//! queries and O(n) memmove for insert/remove. It stays in the tree as the
//! **oracle** of the equivalence property tests in `crate::ring`, which
//! drive random operation interleavings through both structures and demand
//! identical answers — and is compiled under `cfg(test)` only, so nothing
//! else can depend on it.

use oscar_types::{Arc, Id};

/// Sorted-`Vec` ordered id set: O(log n) queries, O(n) insert/remove.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecRing {
    ids: Vec<Id>,
}

impl VecRing {
    /// Empty ring.
    pub fn new() -> Self {
        VecRing { ids: Vec::new() }
    }

    /// Ring pre-populated from arbitrary (unsorted, possibly duplicate) ids.
    pub fn from_ids(mut ids: Vec<Id>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        VecRing { ids }
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no peers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted identifier slice.
    #[inline]
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Membership test.
    pub fn contains(&self, id: Id) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Inserts a peer; returns `false` if the identifier was present.
    pub fn insert(&mut self, id: Id) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Removes a peer; returns `false` if absent.
    pub fn remove(&mut self, id: Id) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Rank of `id` in ascending identifier order, if present.
    pub fn rank_of(&self, id: Id) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The peer with the given ascending rank.
    ///
    /// # Panics
    /// If `rank >= len`.
    pub fn select(&self, rank: usize) -> Id {
        self.ids[rank]
    }

    /// The owner of `key` (first peer at-or-after, wrapping).
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        if self.ids.is_empty() {
            return None;
        }
        let pos = self.ids.partition_point(|&p| p < key);
        Some(if pos == self.ids.len() {
            self.ids[0]
        } else {
            self.ids[pos]
        })
    }

    /// The first peer strictly after `id` clockwise (wraps).
    pub fn successor_of(&self, id: Id) -> Option<Id> {
        if self.ids.is_empty() {
            return None;
        }
        let pos = self.ids.partition_point(|&p| p <= id);
        Some(if pos == self.ids.len() {
            self.ids[0]
        } else {
            self.ids[pos]
        })
    }

    /// The first peer strictly before `id` clockwise (wraps).
    pub fn predecessor_of(&self, id: Id) -> Option<Id> {
        if self.ids.is_empty() {
            return None;
        }
        let pos = self.ids.partition_point(|&p| p < id);
        Some(if pos == 0 {
            self.ids[self.ids.len() - 1]
        } else {
            self.ids[pos - 1]
        })
    }

    /// The peer `k` clockwise steps after `id` (which must be present).
    pub fn nth_clockwise_of(&self, id: Id, k: usize) -> Option<Id> {
        let rank = self.rank_of(id)?;
        let n = self.ids.len();
        Some(self.ids[(rank + k) % n])
    }

    /// Number of peers whose identifiers lie in `arc`.
    pub fn count_in_arc(&self, arc: &Arc) -> usize {
        if arc.is_empty() || self.ids.is_empty() {
            return 0;
        }
        if arc.is_full() {
            return self.ids.len();
        }
        let start = arc.start();
        let end = arc.end(); // exclusive
        if start < end {
            self.ids.partition_point(|&p| p < end) - self.ids.partition_point(|&p| p < start)
        } else {
            (self.ids.len() - self.ids.partition_point(|&p| p < start))
                + self.ids.partition_point(|&p| p < end)
        }
    }

    /// Exact lower median of the peers in `arc` by clockwise distance from
    /// `arc.start()`.
    pub fn median_in_arc(&self, arc: &Arc) -> Option<Id> {
        let members = self.count_in_arc(arc);
        if members == 0 {
            return None;
        }
        let start_pos = self.ids.partition_point(|&p| p < arc.start());
        let n = self.ids.len();
        let median_offset = members.div_ceil(2) - 1;
        Some(self.ids[(start_pos + median_offset) % n])
    }
}
