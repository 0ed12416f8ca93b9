//! Pure decision kernels shared by every driver.
//!
//! These functions are the protocol's *decisions* stripped of any
//! transport: the Metropolis–Hastings acceptance rule of the sampling
//! walk, the clockwise-progress ranking of greedy routing, ring
//! ownership, link admission, least-loaded choice and the median chain
//! of partition estimation. The discrete-event simulator calls them
//! from its global walk/routing loops (`oscar-sim`), and the message-driven
//! [`PeerMachine`](crate::PeerMachine) calls the very same code from its
//! per-peer handlers — one implementation, two worlds.
//!
//! Every function here is side-effect free and consumes randomness only
//! through explicitly passed draws, so callers keep full control of
//! their RNG streams (the simulator's byte-identical baselines depend
//! on that).

use oscar_types::{Arc, Id};
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
/// instead of degree-biased — *provided the proposal is symmetric*: `v`
/// lists `u` as a neighbour whenever `u` lists `v`. The peer machine's
/// `neighbor_table()` is not (a successor lists this peer only when this
/// peer is its predecessor), so its walks drift clockwise, about four
/// ranks a step (ROADMAP item 14).
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
pub fn admits_link<T: Ord>(me: T, cand: T, chosen_so_far: &[T], existing_sorted: &[T]) -> bool {
    cand != me && !chosen_so_far.contains(&cand) && existing_sorted.binary_search(&cand).is_err()
}

/// Fold one candidate into a least-loaded selection.
///
/// Strictly-smaller load wins; ties keep the earlier candidate, so the
/// result depends only on candidate order — the property the simulator's
/// probe loops and their byte-identical baselines rely on.
#[inline]
pub fn pick_least_loaded<T>(best: Option<(usize, T)>, load: usize, cand: T) -> Option<(usize, T)> {
    match best {
        Some((b, _)) if b <= load => best,
        _ => Some((load, cand)),
    }
}

/// One halving round's samples, cut at their median (see
/// [`split_at_median`]). `near` and `far` keep the samples' arrival
/// order and their repeats; the median's own copies are in neither.
#[derive(Clone, Debug, PartialEq, Eq)]
struct MedianSplit<T> {
    /// The border and its distance: the lower median of the distinct
    /// samples.
    median: (u64, T),
    /// Samples strictly nearer than the median, with their distances
    /// (the next round measures them again).
    near: Vec<(u64, T)>,
    /// Samples strictly beyond the median.
    far: Vec<T>,
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
fn split_at_median<T: Copy + Ord>(samples: &[(u64, T)]) -> Option<MedianSplit<T>> {
    let mut distinct = samples.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() <= 2 {
        return None;
    }
    let median = distinct[distinct.len().div_ceil(2) - 1];
    let cut = median.0;
    let side = |of_cut| samples.iter().filter(move |(d, _)| d.cmp(&cut) == of_cut);
    Some(MedianSplit {
        median,
        near: side(Ordering::Less).copied().collect(),
        far: side(Ordering::Greater).map(|&(_, s)| s).collect(),
    })
}

/// Hard cap on the partition chain length (safety bound well above
/// `log₂` of any simulated size).
const MAX_PARTITIONS: usize = 48;

/// One of a node's logarithmic partitions (see [`PartitionChain`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition<T> {
    /// The identifier arc it covers.
    pub arc: Arc,
    /// A known live member to enter walks at: the border peer, or the
    /// successor for the innermost partition.
    pub entry: T,
    /// The uniform samples of it the chain held, in arrival order; never
    /// its own border, and empty when borders are [`cut`](PartitionChain::cut).
    pub pool: Vec<T>,
}

/// The median chain of partition estimation (§2 of the paper), as a
/// resumable kernel: it decides, its caller only delivers samples.
///
/// Node `u` partitions the identifier space clockwise into `A₁ … A_k`:
/// `A₁` is the far half of the *population*, `A₂` the next quarter, and so
/// on, the border between consecutive partitions being the median of the
/// peers not yet cut away. Ideally `|A_i| = N/2^i` — a logarithmic number
/// of partitions whose borders adapt to the key density instead of the key
/// metric, which is the whole trick: a uniform choice of partition followed
/// by a uniform choice within realises the harmonic rank-distance
/// distribution regardless of how skewed the identifiers are.
///
/// Medians are estimated from small samples drawn by random walks that
/// never leave the arc still to halve. The chain *discovers* `k ≈ log₂N`
/// adaptively: it keeps halving until the sample collapses onto ≤ 2
/// distinct peers (or a border reaches the successor, or the chain hits
/// its length cap), so no network-size estimate is needed.
///
/// Every sample is spent once. Given a round's median, the samples that
/// fell nearer are independent uniform draws from exactly the arc the next
/// round samples, so they *are* its first samples and [`want`](Self::want)
/// asks only for the remainder; the samples that fell beyond it are
/// uniform draws from the partition just cut off and become its pool, for
/// link acquisition to draw candidates from before it walks for any. The
/// innermost partition's pool is what the last round held. Both stay in
/// arrival order — sorted by distance, a pool's first sample would be the
/// nearest of several, not a uniform one.
///
/// `T` names a peer: a simulator index or the peer's [`Id`] itself.
#[derive(Clone, Debug)]
pub struct PartitionChain<T> {
    origin: Id,
    succ: (Id, T),
    sample_size: usize,
    /// The population still to halve; `None` once the chain is closed.
    rest: Option<Arc>,
    /// The last round's samples that fell inside `rest`, with their
    /// distances from the origin.
    held: Vec<(u64, T)>,
    parts: Vec<Partition<T>>,
}

impl<T: Copy + Ord> PartitionChain<T> {
    /// The chain of the node at `origin`, whose ring successor is `succ`
    /// (the origin itself when it is alone), sampling `sample_size` peers
    /// per round.
    pub fn new(origin: Id, succ: (Id, T), sample_size: usize) -> Self {
        // The population clockwise of the origin: everything but itself.
        let rest = Some(Arc::between(origin.add(1), origin)).filter(|a| a.contains(succ.0));
        PartitionChain {
            origin,
            succ,
            sample_size,
            rest,
            held: Vec::with_capacity(sample_size),
            parts: Vec::new(),
        }
    }

    /// The arc still to halve and how many fresh uniform samples of it
    /// the next round needs — `sample_size` less the samples carried over;
    /// `None` once the chain is complete.
    pub fn want(&self) -> Option<(Arc, usize)> {
        let fresh = self.sample_size.saturating_sub(self.held.len());
        let open = self.rest.filter(|_| self.parts.len() < MAX_PARTITIONS);
        open.map(|arc| (arc, fresh))
    }

    /// The samples carried over into the next round, in arrival order:
    /// uniform draws from the arc [`want`](Self::want) names, so a walk
    /// that starts at one of them needs no mixing. Empty before the first
    /// round.
    pub fn held(&self) -> impl Iterator<Item = T> + '_ {
        self.held.iter().map(|&(_, s)| s)
    }

    /// Answers [`want`](Self::want) with samples `(id, peer)` of its arc,
    /// in the order they arrived, and halves that arc at their median.
    pub fn offer(&mut self, samples: impl IntoIterator<Item = (Id, T)>) {
        let origin = self.origin;
        let measured = samples.into_iter().map(|(id, s)| (origin.cw_dist(id), s));
        self.held.extend(measured);
        let Some(split) = split_at_median(&self.held) else {
            return self.collapse();
        };
        self.held = split.near;
        let (dist, median) = split.median;
        self.split_off((origin.add(dist), median), split.far);
    }

    /// Answers [`want`](Self::want) with the arc's exact median instead
    /// of samples, or `None` when the arc holds at most two peers.
    pub fn cut(&mut self, median: Option<(Id, T)>) {
        // Held samples would land in the wrong partition's pool; a chain
        // answered by cuts never offers, so it holds none.
        debug_assert!(self.held.is_empty(), "an offered chain is cut");
        match median {
            Some(border) => self.split_off(border, Vec::new()),
            None => self.collapse(),
        }
    }

    /// Splits the partition `[border, end of rest)` off, with `pool`.
    fn split_off(&mut self, (id, entry): (Id, T), pool: Vec<T>) {
        let Some(rest) = self.rest else { return };
        let arc = rest.truncate_from(id);
        self.parts.push(Partition { arc, entry, pool });
        self.rest = Some(rest.truncate_at(id)).filter(|a| a.contains(self.succ.0));
    }

    /// Closes the chain: what remains is the innermost partition, entered
    /// at the successor and pooling the samples held.
    fn collapse(&mut self) {
        if let Some(arc) = self.rest.take() {
            let pool = self.held.drain(..).map(|(_, s)| s).collect();
            let entry = self.succ.1;
            self.parts.push(Partition { arc, entry, pool });
        }
    }

    /// The partitions, far → near; none when the origin is alone.
    pub fn finish(mut self) -> Vec<Partition<T>> {
        self.collapse();
        self.parts
    }
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
        assert_eq!(
            (odd.median, odd.near, odd.far),
            ((5, 'f'), at(&[1]), vec!['j'])
        );
        // Even count: the lower of the two middle ones.
        let even = split_at_median(&at(&[9, 1, 5, 7])).unwrap();
        assert_eq!(even.median, (5, 'f'));
        assert_eq!((even.near, even.far), (at(&[1]), vec!['j', 'h']));
        // Repeats do not vote: {1, 5, 9} has median 5 however often 9 came.
        let repeats = split_at_median(&at(&[9, 9, 9, 1, 5])).unwrap();
        assert_eq!(repeats.median, (5, 'f'));
    }

    #[test]
    fn median_split_keeps_arrival_order_and_repeats_but_no_copy_of_the_median() {
        let s = split_at_median(&at(&[8, 4, 2, 4, 6, 2, 8, 0, 4])).unwrap();
        // distinct {0, 2, 4, 6, 8} -> median 4, every copy of it dropped
        assert_eq!(s.median, (4, 'e'));
        assert_eq!(s.near, at(&[2, 2, 0]));
        assert_eq!(s.far, vec!['i', 'g', 'i']);
    }

    /// Peers named by their identifiers.
    fn peers(ids: &[u64]) -> Vec<(Id, u64)> {
        ids.iter().map(|&i| (Id::new(i), i)).collect()
    }

    fn arc(from: u64, to: u64) -> Arc {
        Arc::between(Id::new(from), Id::new(to))
    }

    fn part(from: u64, to: u64, entry: u64, pool: &[u64]) -> Partition<u64> {
        let (arc, pool) = (arc(from, to), pool.to_vec());
        Partition { arc, entry, pool }
    }

    #[test]
    fn the_chain_carries_what_fell_near_and_pools_what_fell_far() {
        // Origin 0, successor 1, six samples a round.
        let mut chain = PartitionChain::new(Id::new(0), (Id::new(1), 1), 6);
        assert_eq!(chain.want(), Some((arc(1, 0), 6)));
        assert_eq!(chain.held().count(), 0);
        // distinct {10, 30, 50, 70, 90} -> border 50; 30, 30, 10 carry over.
        chain.offer(peers(&[70, 30, 90, 50, 30, 10]));
        assert_eq!(chain.want(), Some((arc(1, 50), 3)));
        assert_eq!(chain.held().collect::<Vec<_>>(), [30, 30, 10]);
        // distinct {10, 20, 30, 40} -> border 20, both its copies dropped.
        chain.offer(peers(&[20, 40, 20]));
        assert_eq!(chain.want(), Some((arc(1, 20), 5)));
        assert_eq!(chain.held().collect::<Vec<_>>(), [10]);
        // Two distinct samples: collapsed, the rest is the innermost.
        chain.offer(peers(&[5, 10, 5, 10, 5]));
        assert_eq!(chain.want(), None);
        assert_eq!(
            chain.finish(),
            [
                part(50, 0, 50, &[70, 90]),
                part(20, 50, 20, &[30, 30, 40]),
                part(1, 20, 1, &[10, 5, 10, 5, 10, 5]),
            ]
        );
    }

    #[test]
    fn cut_pools_nothing_and_a_border_at_the_successor_ends_the_chain() {
        let mut chain = PartitionChain::new(Id::new(0), (Id::new(10), 10), 4);
        chain.cut(Some((Id::new(50), 50)));
        assert_eq!(chain.want(), Some((arc(1, 50), 4)));
        let (mut collapsed, far) = (chain.clone(), part(50, 0, 50, &[]));
        chain.cut(Some((Id::new(10), 10)));
        assert_eq!(chain.want(), None);
        assert_eq!(chain.finish(), [far.clone(), part(10, 50, 10, &[])]);
        collapsed.cut(None);
        assert_eq!(collapsed.want(), None);
        assert_eq!(collapsed.finish(), [far, part(1, 50, 10, &[])]);
    }

    #[test]
    fn the_chain_stops_at_max_partitions() {
        // Three distinct samples a round halve forever: the cap ends it.
        let mut chain = PartitionChain::new(Id::new(0), (Id::new(1), 1), 3);
        while let Some((rest, fresh)) = chain.want() {
            // The carried sample is the arc's last peer; walk just below it.
            let last = rest.start().add(rest.len() as u64 - 1);
            chain.offer((1..=fresh as u64).map(|k| (last.sub(k), last.sub(k).raw())));
        }
        let parts = chain.finish();
        assert_eq!(parts.len(), MAX_PARTITIONS + 1);
        assert_eq!(parts[MAX_PARTITIONS].entry, 1);
        assert_eq!(parts[MAX_PARTITIONS].pool.len(), 1);
    }

    #[test]
    fn a_lone_origin_has_no_partitions() {
        let chain = PartitionChain::new(Id::new(5), (Id::new(5), 5), 4);
        assert_eq!(chain.want(), None);
        assert!(chain.finish().is_empty());
    }
}
