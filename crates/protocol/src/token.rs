//! Tokens that travel inside protocol messages.
//!
//! A walk or a query is a *token* forwarded peer-to-peer; everything the
//! in-flight activity needs — including its random stream — rides in the
//! token itself. That makes the realised randomness a pure function of
//! the token's seed, independent of which peer, thread, or driver
//! advances it: the determinism boundary of the whole protocol layer.

use oscar_types::{mix64, Id};

/// A self-contained deterministic random stream carried by a token.
///
/// A SplitMix64 sequence (same mixer as [`oscar_types::SeedTree`]): the
/// state advances by the golden-ratio increment and each output is the
/// finalised state. Scheduling, thread placement, and driver choice
/// cannot perturb it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenRng {
    state: u64,
}

impl TokenRng {
    /// A stream derived from `seed` (pre-mixed, so low-entropy seeds —
    /// peer ids, walk counters — are fine).
    pub fn new(seed: u64) -> Self {
        TokenRng { state: mix64(seed) }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform draw on `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (fixed-point scaling; `n` is a neighbour
    /// table size, so the 2^-64 bias is irrelevant). Panics when `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// The current stream position, without advancing it. Folded into
    /// message instance keys so that every step of a forwarded token is
    /// content-distinguishable (duplicate suppression, fault decisions).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.state
    }
}

/// A Metropolis–Hastings sampling walk in flight.
///
/// The walk visits peers along existing links; after `remaining` steps
/// the holder reports itself to `origin` as an (approximately) uniform
/// sample. `holder_deg` carries the sending holder's degree to the
/// probed candidate, which applies the MH acceptance rule locally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkToken {
    /// Origin-unique walk identifier.
    pub walk_id: u64,
    /// Peer that launched the walk and collects the sample.
    pub origin: Id,
    /// Steps left; every probe (accepted or rejected) consumes one.
    pub remaining: u32,
    /// The walk's own random stream.
    pub rng: TokenRng,
    /// Degree of the holder that sent the current probe.
    pub holder_deg: usize,
    /// Which launch of this walk the token belongs to (0 = first try;
    /// retries after a timeout re-launch with a fresh derived stream).
    pub attempt: u32,
}

/// Backtrack-stack entries a fresh [`QueryToken`] reserves (fewer when its
/// budget is smaller), so the stack of a long query grows by a couple of
/// reallocations, not by doubling its way up from a few entries.
const QUERY_STACK_HINT: usize = 32;

/// A greedy-routed query in flight.
///
/// Mirrors the simulator's observed-routing bookkeeping, but distributed:
/// each field is knowledge the query itself has gathered, never a global
/// snapshot. `known_dead` and `exhausted` are small sorted vectors (query
/// paths are O(log n), so linear/binary ops on them are cheap).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryToken {
    /// Harness-assigned query identifier.
    pub qid: u64,
    /// Peer that issued the query and receives the report.
    pub origin: Id,
    /// The key being resolved (owner = first live peer at-or-after it).
    pub key: Id,
    /// Useful forward hops taken.
    pub hops: u32,
    /// Messages that did not advance the query (dead probes, backtracks).
    pub wasted: u32,
    /// Times the query retreated from a dead end.
    pub backtracks: u32,
    /// Remaining message budget; at zero the query fails.
    pub budget: u32,
    /// Which issue of this query the token belongs to (0 = first try;
    /// a timeout at the origin re-issues with a fresh token).
    pub attempt: u32,
    /// Peers discovered dead (delivery failures), sorted.
    pub known_dead: Vec<Id>,
    /// Peers whose candidate sets were exhausted, sorted.
    pub exhausted: Vec<Id>,
    /// Return path for backtracking.
    pub stack: Vec<Id>,
}

impl QueryToken {
    /// A fresh token for `key`, issued by `origin` with a message budget.
    pub fn new(qid: u64, origin: Id, key: Id, budget: u32) -> Self {
        QueryToken {
            qid,
            origin,
            key,
            hops: 0,
            wasted: 0,
            backtracks: 0,
            budget,
            attempt: 0,
            known_dead: Vec::new(),
            exhausted: Vec::new(),
            stack: Vec::with_capacity((budget as usize).min(QUERY_STACK_HINT)),
        }
    }

    /// True iff `id` is recorded dead or exhausted.
    pub fn is_excluded(&self, id: Id) -> bool {
        self.known_dead.binary_search(&id).is_ok() || self.exhausted.binary_search(&id).is_ok()
    }

    /// Records a dead peer (idempotent).
    pub fn mark_dead(&mut self, id: Id) {
        if let Err(pos) = self.known_dead.binary_search(&id) {
            self.known_dead.insert(pos, id);
        }
    }

    /// Records an exhausted peer (idempotent).
    pub fn mark_exhausted(&mut self, id: Id) {
        if let Err(pos) = self.exhausted.binary_search(&id) {
            self.exhausted.insert(pos, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_rng_is_deterministic_and_spread() {
        let mut a = TokenRng::new(42);
        let mut b = TokenRng::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            seen.insert(x);
        }
        assert_eq!(seen.len(), 1000, "stream must not cycle early");
    }

    #[test]
    fn token_rng_unit_and_index_bounds() {
        let mut r = TokenRng::new(7);
        let mut mean = 0.0;
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
            mean += u;
        }
        mean /= 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        for n in 1..40 {
            assert!(r.index(n) < n);
        }
    }

    #[test]
    fn token_rng_is_schedule_independent() {
        // Interleaving draws with clones (as different peers advancing a
        // forwarded token would) yields the same realised sequence.
        let mut direct = TokenRng::new(9);
        let direct_seq: Vec<u64> = (0..10).map(|_| direct.next_u64()).collect();
        let mut hop = TokenRng::new(9);
        let mut hopped = Vec::new();
        for _ in 0..10 {
            let mut moved = hop.clone(); // token serialised to the next peer
            hopped.push(moved.next_u64());
            hop = moved;
        }
        assert_eq!(direct_seq, hopped);
    }

    #[test]
    fn query_token_exclusion_sets_stay_sorted() {
        let mut t = QueryToken::new(1, Id::new(0), Id::new(10), 64);
        for raw in [5u64, 1, 9, 5, 3] {
            t.mark_dead(Id::new(raw));
        }
        assert_eq!(t.known_dead.len(), 4);
        assert!(t.known_dead.windows(2).all(|w| w[0] < w[1]));
        assert!(t.is_excluded(Id::new(9)));
        t.mark_exhausted(Id::new(2));
        assert!(t.is_excluded(Id::new(2)));
        assert!(!t.is_excluded(Id::new(4)));
    }
}
