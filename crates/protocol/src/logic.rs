//! Pure decision kernels shared by every driver.
//!
//! These functions are the protocol's *decisions* stripped of any
//! transport: the Metropolis–Hastings acceptance rule of the sampling
//! walk, the clockwise-progress ranking of greedy routing, ring
//! ownership, link admission, least-loaded choice and the median split
//! of partition estimation. The discrete-event simulator calls them
//! from its global walk/routing loops (`oscar-sim`), and the message-driven
//! [`PeerMachine`](crate::PeerMachine) calls the very same code from its
//! per-peer handlers — one implementation, two worlds.
//!
//! Every function here is side-effect free and consumes randomness only
//! through explicitly passed draws, so callers keep full control of
//! their RNG streams (the simulator's byte-identical baselines depend
//! on that).

use oscar_types::Id;
use rand::Rng;
use std::cmp::Ordering;

/// Uniform proposal: an index into the current peer's neighbour table.
///
/// Exactly one `gen_range(0..n)` draw — the first half of an MH step.
/// Panics when `n == 0` (callers must handle isolated peers before
/// proposing).
#[inline]
pub fn uniform_index<R: Rng + ?Sized>(n: usize, rng: &mut R) -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "shared MH kernel — the caller passes its own stream and owns the draw order"
    )]
    rng.gen_range(0..n)
}

/// Metropolis–Hastings acceptance for a degree-corrected uniform walk.
///
/// A move from a peer of degree `cur_deg` to a candidate of degree
/// `cand_deg` is accepted with probability `min(1, cur_deg/cand_deg)`,
/// which makes the walk's stationary distribution uniform over peers
/// instead of degree-biased.
///
/// The unit draw is passed lazily: when the candidate is isolated
/// (`cand_deg == 0`) the rule short-circuits to "accept" *without
/// consuming randomness*, which existing simulator streams rely on.
/// (An accepted move onto an isolated candidate is still a non-move —
/// the walk cannot continue from a degree-0 peer — so callers treat
/// `cand_deg == 0` as "stay put, step consumed".)
#[inline]
pub fn mh_accept(cur_deg: usize, cand_deg: usize, unit_draw: impl FnOnce() -> f64) -> bool {
    cand_deg == 0 || unit_draw() < cur_deg as f64 / cand_deg as f64
}

/// Greedy clockwise progress of `cand` toward `target`.
///
/// `cur_potential` is the current position's clockwise distance to the
/// target. Returns the candidate's remaining potential when it makes
/// strict progress (`Some`, smaller is better), `None` otherwise.
///
/// The simulator ranks candidates against the oracle *owner* of a key;
/// the distributed peer machine, which has no oracle, ranks against the
/// *key itself* — both are this one comparison, because "strictly
/// smaller clockwise distance to the target" is exactly "lies on the
/// arc `(current, target]`".
#[inline]
pub fn progress_toward(cand: Id, target: Id, cur_potential: u64) -> Option<u64> {
    let p = cand.cw_dist(target);
    if p < cur_potential {
        Some(p)
    } else {
        None
    }
}

/// Ring ownership: does `peer` (whose predecessor is `pred`) own `key`?
///
/// A peer owns the half-open arc `(pred, peer]`; a peer that is its own
/// predecessor is alone on the ring and owns everything.
#[inline]
pub fn owns(pred: Id, peer: Id, key: Id) -> bool {
    if pred == peer {
        return true;
    }
    let d = pred.cw_dist(key);
    d != 0 && d <= pred.cw_dist(peer)
}

/// Is `cand` an admissible new long-link target for `me`?
///
/// A candidate is rejected when it is the peer itself, already among the
/// targets chosen in this selection round, or already linked (callers
/// pass their sorted out-link table). Liveness is *not* checked here:
/// the oracle-backed simulator filters corpses before calling, and the
/// distributed machine discovers death the hard way (bounce/timeout).
#[inline]
pub fn admits_link(me: Id, cand: Id, chosen_so_far: &[Id], existing_sorted: &[Id]) -> bool {
    cand != me && !chosen_so_far.contains(&cand) && existing_sorted.binary_search(&cand).is_err()
}

/// Fold one candidate into a least-loaded selection.
///
/// Strictly-smaller load wins; ties keep the earlier candidate, so the
/// result depends only on candidate order — the property the simulator's
/// probe loops and their byte-identical baselines rely on.
#[inline]
pub fn pick_least_loaded(best: Option<(usize, Id)>, load: usize, cand: Id) -> Option<(usize, Id)> {
    match best {
        Some((b, _)) if b <= load => best,
        _ => Some((load, cand)),
    }
}

/// One halving round's samples, cut at their median (see
/// [`split_at_median`]). `near` and `far` keep the samples' arrival
/// order and their repeats; the median's own copies are in neither.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MedianSplit<T> {
    /// The border: the lower median of the distinct samples.
    pub median: T,
    /// Samples strictly nearer than the median.
    pub near: Vec<T>,
    /// Samples strictly beyond the median.
    pub far: Vec<T>,
}

/// Cuts `(clockwise distance, sample)` pairs at the median of the
/// distinct samples — the lower one on an even count.
///
/// `None` when at most two distinct samples remain: the sub-population
/// has collapsed and cannot be halved again. Given the median, the near
/// samples are independent uniform draws from the arc before it and the
/// far ones from the arc beyond it, which is why a caller may spend
/// each of them once more — *in arrival order*: sorted, their first
/// element would be an order statistic, not a uniform draw.
pub fn split_at_median<T: Copy + Ord>(samples: &[(u64, T)]) -> Option<MedianSplit<T>> {
    let mut distinct = samples.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() <= 2 {
        return None;
    }
    let (cut, median) = distinct[distinct.len().div_ceil(2) - 1];
    let side = |of_cut: Ordering| {
        let on_it = samples.iter().filter(|&&(d, _)| d.cmp(&cut) == of_cut);
        on_it.map(|&(_, s)| s).collect()
    };
    Some(MedianSplit {
        median,
        near: side(Ordering::Less),
        far: side(Ordering::Greater),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_types::SeedTree;

    #[test]
    fn mh_accept_matches_ratio() {
        // cur 4, cand 2: ratio 2.0 -> always accept
        assert!(mh_accept(4, 2, || 0.999));
        // cur 2, cand 4: ratio 0.5 -> accept iff u < 0.5
        assert!(mh_accept(2, 4, || 0.49));
        assert!(!mh_accept(2, 4, || 0.51));
    }

    #[test]
    fn mh_accept_isolated_candidate_consumes_no_draw() {
        // The closure must not run when cand_deg == 0.
        let accepted = mh_accept(3, 0, || panic!("draw consumed for isolated candidate"));
        assert!(accepted);
    }

    #[test]
    fn uniform_index_is_in_range_and_deterministic() {
        let mut a = SeedTree::new(7).rng();
        let mut b = SeedTree::new(7).rng();
        for n in 1..50usize {
            let ka = uniform_index(n, &mut a);
            assert_eq!(ka, uniform_index(n, &mut b));
            assert!(ka < n);
        }
    }

    #[test]
    fn progress_requires_strictly_smaller_potential() {
        let cur = Id::new(100);
        let target = Id::new(500);
        let pot = cur.cw_dist(target);
        // Candidate between current and target: progress.
        assert_eq!(progress_toward(Id::new(300), target, pot), Some(200));
        // The target itself: maximal progress.
        assert_eq!(progress_toward(Id::new(500), target, pot), Some(0));
        // The current position: no progress.
        assert_eq!(progress_toward(cur, target, pot), None);
        // Behind the current position (wraps past the target): none.
        assert_eq!(progress_toward(Id::new(600), target, pot), None);
        assert_eq!(progress_toward(Id::new(50), target, pot), None);
    }

    #[test]
    fn progress_is_arc_membership() {
        // Some(p) iff cand lies on (cur, target], for wrapping arcs too.
        let cur = Id::new(u64::MAX - 10);
        let target = Id::new(20);
        let pot = cur.cw_dist(target); // 31
        assert_eq!(progress_toward(Id::new(5), target, pot), Some(15));
        assert_eq!(progress_toward(Id::new(u64::MAX), target, pot), Some(21));
        assert_eq!(progress_toward(Id::new(21), target, pot), None);
    }

    #[test]
    fn ownership_covers_the_predecessor_arc() {
        let pred = Id::new(100);
        let peer = Id::new(200);
        assert!(owns(pred, peer, Id::new(150)));
        assert!(owns(pred, peer, Id::new(200))); // exact hit
        assert!(!owns(pred, peer, Id::new(100))); // pred owns its own id
        assert!(!owns(pred, peer, Id::new(250)));
        assert!(!owns(pred, peer, Id::new(50)));
        // Wrapping arc (pred > peer).
        assert!(owns(peer, pred, Id::new(250)));
        assert!(owns(peer, pred, Id::new(50)));
        assert!(!owns(peer, pred, Id::new(150)));
        // Sole peer owns everything, including its own id.
        assert!(owns(peer, peer, Id::new(0)));
        assert!(owns(peer, peer, peer));
    }

    #[test]
    fn link_admission_rejects_self_dupes_and_existing() {
        let me = Id::new(10);
        let chosen = [Id::new(20)];
        let existing = [Id::new(5), Id::new(30)]; // sorted
        assert!(!admits_link(me, me, &chosen, &existing));
        assert!(!admits_link(me, Id::new(20), &chosen, &existing));
        assert!(!admits_link(me, Id::new(30), &chosen, &existing));
        assert!(admits_link(me, Id::new(40), &chosen, &existing));
        assert!(admits_link(me, Id::new(40), &[], &[]));
    }

    #[test]
    fn least_loaded_is_strict_and_first_wins_ties() {
        let a = Id::new(1);
        let b = Id::new(2);
        let c = Id::new(3);
        let mut best = None;
        best = pick_least_loaded(best, 5, a);
        assert_eq!(best, Some((5, a)));
        // Equal load does not displace the incumbent.
        best = pick_least_loaded(best, 5, b);
        assert_eq!(best, Some((5, a)));
        // Strictly smaller load does.
        best = pick_least_loaded(best, 4, c);
        assert_eq!(best, Some((4, c)));
        best = pick_least_loaded(best, 9, a);
        assert_eq!(best, Some((4, c)));
    }

    /// `(distance, sample)` pairs whose sample is `'a' + distance`.
    fn at(dists: &[u64]) -> Vec<(u64, char)> {
        let name = |&d: &u64| (d, (b'a' + d as u8) as char);
        dists.iter().map(name).collect()
    }

    #[test]
    fn median_split_collapses_on_two_or_fewer_distinct_samples() {
        assert_eq!(split_at_median::<char>(&[]), None);
        assert_eq!(split_at_median(&at(&[3])), None);
        assert_eq!(split_at_median(&at(&[3, 3, 3])), None);
        assert_eq!(split_at_median(&at(&[3, 7, 3, 7, 7])), None);
    }

    #[test]
    fn median_split_takes_the_lower_median_of_the_distinct_samples() {
        // Odd count: the middle one.
        let odd = split_at_median(&at(&[9, 1, 5])).unwrap();
        assert_eq!((odd.median, odd.near, odd.far), ('f', vec!['b'], vec!['j']));
        // Even count: the lower of the two middle ones.
        let even = split_at_median(&at(&[9, 1, 5, 7])).unwrap();
        assert_eq!(even.median, 'f');
        assert_eq!((even.near, even.far), (vec!['b'], vec!['j', 'h']));
        // Repeats do not vote: {1, 5, 9} has median 5 however often 9 came.
        let repeats = split_at_median(&at(&[9, 9, 9, 1, 5])).unwrap();
        assert_eq!(repeats.median, 'f');
    }

    #[test]
    fn median_split_keeps_arrival_order_and_repeats_but_no_copy_of_the_median() {
        let s = split_at_median(&at(&[8, 4, 2, 4, 6, 2, 8, 0, 4])).unwrap();
        // distinct {0, 2, 4, 6, 8} -> median 4, every copy of it dropped
        assert_eq!(s.median, 'e');
        assert_eq!(s.near, vec!['c', 'c', 'a']);
        assert_eq!(s.far, vec!['i', 'g', 'i']);
    }
}
