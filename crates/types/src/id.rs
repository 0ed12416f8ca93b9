//! Positions on the circular identifier space.
//!
//! The identifier space is the ring `[0, 2^64)` with wrap-around. Both peer
//! identifiers and data keys are [`Id`]s; Oscar is an order-preserving
//! overlay, so the two deliberately share one type.
//!
//! The one distance is the **clockwise distance** `cw_dist(a, b)` — the
//! number of positions walked from `a` towards increasing identifiers
//! (wrapping) until `b` is reached. Oscar's partitions and greedy routing
//! are defined clockwise, exactly like Chord's finger geometry.

use crate::seed::mix64;
use std::fmt;
use std::hash::Hasher;

/// A position on the identifier ring `[0, 2^64)`.
///
/// `Id` is a transparent wrapper over `u64` with ring (modular) geometry.
/// The natural `Ord` instance is the *linear* order of the underlying
/// integer; it is what sorted ring structures use. Distances must go through
/// [`Id::cw_dist`], never through subtraction of raw values, because of
/// wrap-around.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(u64);

impl Id {
    /// The zero position.
    pub const ZERO: Id = Id(0);
    /// The largest position (`2^64 - 1`).
    pub const MAX: Id = Id(u64::MAX);

    /// Wraps a raw `u64` as a ring position.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Id(raw)
    }

    /// The underlying integer.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Maps a point of the unit interval `[0, 1)` onto the ring.
    ///
    /// Values outside `[0, 1)` are wrapped by taking the fractional part;
    /// NaN maps to zero. This is the bridge from analytic key
    /// distributions (which are naturally expressed on `[0,1)`) to the
    /// integer ring.
    pub fn from_unit(x: f64) -> Self {
        if x.is_nan() {
            return Id(0);
        }
        let frac = x - x.floor();
        // 2^64 as f64; the cast saturates but frac < 1.0 keeps us in range.
        let scaled = frac * 18_446_744_073_709_551_616.0;
        if scaled >= 18_446_744_073_709_551_615.0 {
            Id(u64::MAX)
        } else {
            Id(scaled as u64)
        }
    }

    /// Maps the ring position back to the unit interval `[0, 1)`.
    pub fn to_unit(self) -> f64 {
        self.0 as f64 / 18_446_744_073_709_551_616.0
    }

    /// Clockwise distance from `self` to `other`: how far to travel in the
    /// direction of increasing identifiers (wrapping) to reach `other`.
    ///
    /// `cw_dist(a, a) == 0`; for `a != b`,
    /// `cw_dist(a, b) + cw_dist(b, a) == 2^64` (in `u128`).
    #[inline]
    pub fn cw_dist(self, other: Id) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// The position reached by walking `offset` steps clockwise.
    ///
    /// Deliberately not `std::ops::Add`: the operand is a *distance*, not
    /// another position, and the semantics are wrapping.
    #[allow(
        clippy::should_implement_trait,
        reason = "the operand is a distance, not a position, and the semantics are wrapping"
    )]
    #[inline]
    pub fn add(self, offset: u64) -> Id {
        Id(self.0.wrapping_add(offset))
    }

    /// The position reached by walking `offset` steps counter-clockwise.
    #[allow(
        clippy::should_implement_trait,
        reason = "the operand is a distance, not a position, and the semantics are wrapping"
    )]
    #[inline]
    pub fn sub(self, offset: u64) -> Id {
        Id(self.0.wrapping_sub(offset))
    }

    /// True iff `self` lies in the half-open clockwise interval `(from, to]`.
    ///
    /// This is the membership test used for ring responsibility: the peer
    /// with identifier `to` is responsible for every key in
    /// `(predecessor, to]`. When `from == to` the interval is the full ring,
    /// matching the single-peer case where one peer owns everything.
    #[inline]
    pub fn in_cw_open_closed(self, from: Id, to: Id) -> bool {
        if from == to {
            return true;
        }
        // Walk clockwise from `from`; `self` must be reached no later than
        // `to` and must not equal `from` itself.
        let to_self = from.cw_dist(self);
        let to_end = from.cw_dist(to);
        to_self != 0 && to_self <= to_end
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:#018x})", self.0)
    }
}

impl fmt::Display for Id {
    /// Renders as the unit-interval position with 6 decimals — the most
    /// readable form for skewed key distributions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_unit())
    }
}

impl From<u64> for Id {
    fn from(raw: u64) -> Self {
        Id(raw)
    }
}

impl From<Id> for u64 {
    fn from(id: Id) -> Self {
        id.0
    }
}

/// Hashes an [`Id`] as one [`mix64`] of its raw value: the hasher of the
/// drivers' `Id`-keyed tables, whose keys are ring positions the program
/// drew itself, never outside input.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, raw: u64) {
        self.0 = mix64(self.0 ^ raw);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cw_dist_basics() {
        let a = Id::new(10);
        let b = Id::new(25);
        assert_eq!(a.cw_dist(b), 15);
        assert_eq!(b.cw_dist(a), u64::MAX - 14); // wraps the long way
        assert_eq!(a.cw_dist(a), 0);
    }

    #[test]
    fn cw_dist_wraps() {
        let a = Id::new(u64::MAX - 4);
        let b = Id::new(5);
        assert_eq!(a.cw_dist(b), 10);
        assert_eq!(a.add(10), b);
    }

    #[test]
    fn unit_roundtrip_monotone() {
        let xs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.999_999];
        let ids: Vec<Id> = xs.iter().map(|&x| Id::from_unit(x)).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "from_unit must preserve order");
        }
        for (&x, id) in xs.iter().zip(&ids) {
            assert!((id.to_unit() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn from_unit_edge_cases() {
        assert_eq!(Id::from_unit(0.0), Id::ZERO);
        assert_eq!(Id::from_unit(1.0), Id::ZERO); // wraps
        assert_eq!(Id::from_unit(-0.25), Id::from_unit(0.75));
        assert_eq!(Id::from_unit(f64::NAN), Id::ZERO);
    }

    #[test]
    fn interval_open_closed() {
        let a = Id::new(10);
        let b = Id::new(20);
        assert!(!Id::new(10).in_cw_open_closed(a, b)); // open at from
        assert!(Id::new(11).in_cw_open_closed(a, b));
        assert!(Id::new(20).in_cw_open_closed(a, b)); // closed at to
        assert!(!Id::new(21).in_cw_open_closed(a, b));
        // wrap-around interval (20, 10]
        assert!(Id::new(5).in_cw_open_closed(b, a));
        assert!(Id::new(u64::MAX).in_cw_open_closed(b, a));
        assert!(!Id::new(15).in_cw_open_closed(b, a));
    }

    #[test]
    fn interval_degenerate_is_full_ring() {
        let a = Id::new(42);
        for x in [0u64, 41, 42, 43, u64::MAX] {
            assert!(Id::new(x).in_cw_open_closed(a, a));
        }
    }

    proptest! {
        #[test]
        fn prop_cw_dist_antisymmetric(a: u64, b: u64) {
            let (a, b) = (Id::new(a), Id::new(b));
            if a != b {
                let sum = a.cw_dist(b) as u128 + b.cw_dist(a) as u128;
                prop_assert_eq!(sum, crate::RING_SIZE);
            }
        }

        #[test]
        fn prop_add_then_dist(a: u64, d: u64) {
            let a = Id::new(a);
            prop_assert_eq!(a.cw_dist(a.add(d)), d);
        }

        #[test]
        fn prop_membership_complement(x: u64, from: u64, to: u64) {
            let (x, from, to) = (Id::new(x), Id::new(from), Id::new(to));
            prop_assume!(from != to);
            // (from, to] and (to, from] partition the ring
            prop_assert!(
                x.in_cw_open_closed(from, to) != x.in_cw_open_closed(to, from)
            );
        }
    }
}
