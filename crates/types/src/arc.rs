//! Wrap-around arcs of the identifier ring.
//!
//! Oscar's logarithmic partitions `A_1 … A_k` are arcs of the ring measured
//! clockwise from the partitioning node. An [`Arc`] is half-open
//! `[start, start + len)`, where `len` may be anything from `0` (empty) to
//! the full ring (`2^64`, hence stored as `u128`).

use crate::{Id, RING_SIZE};
use rand::Rng;

/// A half-open clockwise arc `[start, start + len)` of the ring.
///
/// `len == 0` is the empty arc; `len == RING_SIZE` is the full ring. Arcs
/// are plain values: cheap to copy, no allocation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Arc {
    start: Id,
    len: u128,
}

impl Arc {
    /// The full ring (starting at an arbitrary canonical point).
    pub const FULL: Arc = Arc {
        start: Id::ZERO,
        len: RING_SIZE,
    };

    /// The empty arc.
    pub const EMPTY: Arc = Arc {
        start: Id::ZERO,
        len: 0,
    };

    /// Arc of `len` positions beginning (inclusive) at `start`.
    ///
    /// # Panics
    /// If `len > RING_SIZE`.
    pub fn new(start: Id, len: u128) -> Self {
        assert!(len <= RING_SIZE, "arc longer than the ring");
        Arc { start, len }
    }

    /// The half-open arc `[from, to)`. If `from == to` the arc is **empty**
    /// (use [`Arc::FULL`] for the whole ring).
    pub fn between(from: Id, to: Id) -> Self {
        Arc {
            start: from,
            len: from.cw_dist(to) as u128,
        }
    }

    /// First position inside the arc.
    #[inline]
    pub fn start(&self) -> Id {
        self.start
    }

    /// Number of ring positions covered.
    #[inline]
    pub fn len(&self) -> u128 {
        self.len
    }

    /// First position *after* the arc (equals `start` for empty and full
    /// arcs; disambiguate with [`Arc::is_full`]).
    #[inline]
    pub fn end(&self) -> Id {
        self.start.add(self.len as u64) // wraps correctly for len == 2^64
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == RING_SIZE
    }

    /// Fraction of the ring covered, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.len as f64 / RING_SIZE as f64
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: Id) -> bool {
        (self.start.cw_dist(p) as u128) < self.len
    }

    /// Uniformly random position inside the arc.
    ///
    /// # Panics
    /// If the arc is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Id {
        assert!(!self.is_empty(), "cannot sample the empty arc");
        let offset = if self.is_full() {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0..self.len as u64)
        };
        self.start.add(offset)
    }

    /// Splits at clockwise offset `at` into `([start, start+at), rest)`.
    ///
    /// # Panics
    /// If `at > len`.
    pub fn split_at(&self, at: u128) -> (Arc, Arc) {
        assert!(at <= self.len, "split point outside arc");
        let head = Arc {
            start: self.start,
            len: at,
        };
        let tail = Arc {
            start: self.start.add(at as u64),
            len: self.len - at,
        };
        (head, tail)
    }

    /// The sub-arc from position `from` (inclusive, must lie inside the
    /// arc) to the arc's end.
    pub fn truncate_from(&self, from: Id) -> Arc {
        let d = self.start.cw_dist(from) as u128;
        assert!(
            d <= self.len,
            "truncation point outside arc (d={d}, len={})",
            self.len
        );
        Arc {
            start: from,
            len: self.len - d,
        }
    }

    /// The sub-arc from `start` up to (exclusive) position `to`, which must
    /// lie inside the arc or be its end.
    pub fn truncate_at(&self, to: Id) -> Arc {
        let d = self.start.cw_dist(to) as u128;
        assert!(
            d <= self.len,
            "truncation point outside arc (d={d}, len={})",
            self.len
        );
        Arc {
            start: self.start,
            len: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn full_and_empty() {
        assert!(Arc::FULL.is_full());
        assert!(!Arc::FULL.is_empty());
        assert!(Arc::EMPTY.is_empty());
        assert!(Arc::FULL.contains(Id::new(12345)));
        assert!(!Arc::EMPTY.contains(Id::new(12345)));
        assert_eq!(Arc::FULL.fraction(), 1.0);
        assert_eq!(Arc::EMPTY.fraction(), 0.0);
    }

    #[test]
    fn between_basic_and_wrapping() {
        let a = Arc::between(Id::new(10), Id::new(20));
        assert_eq!(a.len(), 10);
        assert!(a.contains(Id::new(10)));
        assert!(a.contains(Id::new(19)));
        assert!(!a.contains(Id::new(20)));

        let w = Arc::between(Id::new(u64::MAX - 1), Id::new(2));
        assert_eq!(w.len(), 4);
        assert!(w.contains(Id::new(u64::MAX)));
        assert!(w.contains(Id::new(0)));
        assert!(w.contains(Id::new(1)));
        assert!(!w.contains(Id::new(2)));
    }

    #[test]
    fn between_equal_points_is_empty() {
        let a = Arc::between(Id::new(7), Id::new(7));
        assert!(a.is_empty());
    }

    #[test]
    fn end_of_full_arc_wraps_to_start() {
        let f = Arc::new(Id::new(5), RING_SIZE);
        assert_eq!(f.end(), Id::new(5));
        assert!(f.is_full());
    }

    #[test]
    fn sample_stays_inside() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Arc::between(Id::new(u64::MAX - 10), Id::new(10));
        for _ in 0..1000 {
            assert!(a.contains(a.sample(&mut rng)));
        }
    }

    #[test]
    fn sample_full_ring() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let p = Arc::FULL.sample(&mut rng);
            assert!(Arc::FULL.contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sample_empty_panics() {
        let mut rng = SmallRng::seed_from_u64(3);
        Arc::EMPTY.sample(&mut rng);
    }

    #[test]
    fn split_at_partitions() {
        let a = Arc::between(Id::new(0), Id::new(100));
        let (h, t) = a.split_at(40);
        assert_eq!(h.len(), 40);
        assert_eq!(t.len(), 60);
        assert_eq!(t.start(), Id::new(40));
        for x in 0..100u64 {
            let p = Id::new(x);
            assert!(h.contains(p) != t.contains(p));
        }
    }

    #[test]
    fn truncate_from_and_at_partition_the_arc() {
        let a = Arc::between(Id::new(1000), Id::new(3000));
        let near = a.truncate_at(Id::new(2000));
        let far = a.truncate_from(Id::new(2000));
        assert_eq!(near.len() + far.len(), a.len());
        assert!(near.contains(Id::new(1999)));
        assert!(!near.contains(Id::new(2000)));
        assert!(far.contains(Id::new(2000)));
        assert!(far.contains(Id::new(2999)));
        assert!(!far.contains(Id::new(3000)));
    }

    #[test]
    fn truncate_at_median_like_point() {
        // This is exactly the operation partition estimation performs:
        // shrink the current sub-population arc at the estimated median.
        let a = Arc::between(Id::new(1000), Id::new(3000));
        let t = a.truncate_at(Id::new(2000));
        assert_eq!(t.len(), 1000);
        assert_eq!(t.start(), Id::new(1000));
    }

    proptest! {
        #[test]
        fn prop_contains_iff_cw_dist_lt_len(start: u64, len in 0u128..=RING_SIZE, p: u64) {
            let a = Arc::new(Id::new(start), len);
            let d = Id::new(start).cw_dist(Id::new(p)) as u128;
            prop_assert_eq!(a.contains(Id::new(p)), d < len);
        }

        #[test]
        fn prop_split_conserves_membership(start: u64, len in 1u128..=RING_SIZE, at_frac in 0.0f64..1.0, p: u64) {
            let a = Arc::new(Id::new(start), len);
            let at = ((len as f64) * at_frac) as u128;
            let (h, t) = a.split_at(at);
            let p = Id::new(p);
            prop_assert_eq!(a.contains(p), h.contains(p) || t.contains(p));
            prop_assert!(!(h.contains(p) && t.contains(p)));
        }

        #[test]
        fn prop_sample_in_arc(start: u64, len in 1u128..=RING_SIZE, seed: u64) {
            let a = Arc::new(Id::new(start), len);
            let mut rng = SmallRng::seed_from_u64(seed);
            prop_assert!(a.contains(a.sample(&mut rng)));
        }

        #[test]
        fn prop_between_complement_lengths(from: u64, to: u64) {
            let (from, to) = (Id::new(from), Id::new(to));
            prop_assume!(from != to);
            let a = Arc::between(from, to);
            let b = Arc::between(to, from);
            prop_assert_eq!(a.len() + b.len(), RING_SIZE);
        }
    }
}
