//! The simulated network: peers, liveness, rings, long-range adjacency.

use crate::churn::FaultModel;
use crate::metrics::{Metrics, MsgKind};
use crate::peer::{LinkError, Peer, PeerIdx, RESERVED_LINKS};
use oscar_degree::DegreeCaps;
use oscar_protocol::logic;
use oscar_ring::Ring;
use oscar_types::{Arc, Error, Id, Result};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// Per-peer runs of `(Id, PeerIdx)` pairs in two network-wide arenas:
/// peer `p`'s run is `ids[start..start + len]` beside
/// `idxs[start..start + len]`, at the front of a slab of `cap` slots
/// reserved when the peer was added ([`Slabs::add`]). A reader of one
/// peer's run touches one `Slab` and one contiguous stretch of each
/// arena, not a heap allocation per peer.
///
/// The network sizes each slab from the peer's [`DegreeCaps`], so a run
/// the caps bound always fits. The reservation is clamped
/// ([`RESERVED_LINKS`]), though, and a run that outgrows its slab moves
/// to the arenas' end at twice the size, leaving its old slots unused.
#[derive(Clone, Debug, Default)]
struct Slabs {
    per_peer: Vec<Slab>,
    ids: Vec<Id>,
    idxs: Vec<PeerIdx>,
}

/// One peer's place in the [`Slabs`] arenas.
#[derive(Copy, Clone, Debug)]
struct Slab {
    start: u32,
    len: u32,
    cap: u32,
}

impl Slab {
    /// The arena positions of the run.
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl Slabs {
    /// Reserves the next peer's slab, of `cap` slots, at the arenas' end.
    fn add(&mut self, cap: usize) {
        let start = self.ids.len();
        self.ids.resize(start + cap, Id::default());
        self.idxs.resize(start + cap, PeerIdx(0));
        self.per_peer.push(Slab {
            start: start as u32,
            len: 0,
            cap: cap as u32,
        });
    }

    /// `p`'s run: its identifiers and, position for position, its peers.
    fn run(&self, p: PeerIdx) -> (&[Id], &[PeerIdx]) {
        let r = self.per_peer[p.as_usize()].range();
        (&self.ids[r.clone()], &self.idxs[r])
    }

    /// Makes room for one more pair in `p`'s slab and returns the slab: a
    /// full one moves to the arenas' end at twice its size.
    fn room_for_one(&mut self, p: PeerIdx) -> Slab {
        let slab = &mut self.per_peer[p.as_usize()];
        if slab.len < slab.cap {
            return *slab;
        }
        let start = self.ids.len();
        let cap = (2 * slab.cap).max(1) as usize;
        self.ids.extend_from_within(slab.range());
        self.idxs.extend_from_within(slab.range());
        self.ids.resize(start + cap, Id::default());
        self.idxs.resize(start + cap, PeerIdx(0));
        slab.start = start as u32;
        slab.cap = cap as u32;
        *slab
    }

    /// Appends a pair to `p`'s run.
    fn push(&mut self, p: PeerIdx, id: Id, idx: PeerIdx) {
        let end = self.room_for_one(p).range().end;
        self.ids[end] = id;
        self.idxs[end] = idx;
        self.per_peer[p.as_usize()].len += 1;
    }

    /// Removes the pair at position `pos` of `p`'s run; the run's last
    /// pair takes its place (`Vec::swap_remove`).
    fn swap_remove(&mut self, p: PeerIdx, pos: usize) {
        let slab = &mut self.per_peer[p.as_usize()];
        slab.len -= 1;
        let (at, last) = (slab.start as usize + pos, slab.range().end);
        self.ids[at] = self.ids[last];
        self.idxs[at] = self.idxs[last];
    }

    /// Empties `p`'s run; its slab stays reserved.
    fn clear(&mut self, p: PeerIdx) {
        self.per_peer[p.as_usize()].len = 0;
    }

    /// Inserts a pair into `p`'s run, kept sorted by identifier, before
    /// any equal key.
    fn insert_sorted(&mut self, p: PeerIdx, id: Id, idx: PeerIdx) {
        let r = self.room_for_one(p).range();
        let at = r.start + count_below(&self.ids[r.clone()], id);
        self.ids.copy_within(at..r.end, at + 1);
        self.idxs.copy_within(at..r.end, at + 1);
        self.ids[at] = id;
        self.idxs[at] = idx;
        self.per_peer[p.as_usize()].len += 1;
    }

    /// Takes one copy of the pair out of `p`'s sorted run; a run without
    /// it is left as it is.
    fn remove_sorted(&mut self, p: PeerIdx, id: Id, idx: PeerIdx) {
        let r = self.per_peer[p.as_usize()].range();
        let at = r.start + count_below(&self.ids[r.clone()], id);
        if at < r.end && self.ids[at] == id && self.idxs[at] == idx {
            self.ids.copy_within(at + 1..r.end, at);
            self.idxs.copy_within(at + 1..r.end, at);
            self.per_peer[p.as_usize()].len -= 1;
        }
    }
}

/// One peer's cached walk adjacency, borrowed from `Network::walk`:
/// the 8-byte keys the arc arithmetic reads (`ids`) and the 4-byte
/// indices a proposal reads (`idxs[i]` is the peer whose id is
/// `ids[i]`). Sorting is the fast path's trick: an [`Arc`] restriction
/// selects at most two contiguous runs of the sorted keys, so the
/// restricted degree and a uniform restricted pick are two
/// [`count_below`]s instead of an O(deg) filter pass per
/// Metropolis–Hastings step.
#[derive(Copy, Clone, Debug)]
struct WalkCacheEntry<'a> {
    ids: &'a [Id],
    idxs: &'a [PeerIdx],
}

/// How many of the sorted `ids` are strictly below `x` — what
/// `ids.partition_point(|&k| k < x)` returns — as a block count with no
/// data-dependent branch: count the block heads (every 8th key) below
/// `x` ([`heads_below`]), then the keys below `x` inside the one 8-key
/// block that straddles it ([`count_below_from`]). Every earlier block
/// lies wholly below `x` and every later one wholly at or above it. The
/// loads within each phase are independent, where a binary search's are
/// a chain of dependent misses.
fn count_below(ids: &[Id], x: Id) -> usize {
    count_below_from(ids, x, heads_below(ids, x))
}

/// The first phase of [`count_below`]: block heads below `x`. It reads one
/// key per 8, so it touches every cache line of `ids`.
fn heads_below(ids: &[Id], x: Id) -> usize {
    ids.iter().step_by(8).map(|&k| usize::from(k < x)).sum()
}

/// The second phase of [`count_below`], from the first phase's `heads`.
fn count_below_from(ids: &[Id], x: Id, heads: usize) -> usize {
    let block = heads.saturating_sub(1) * 8;
    let straddle = &ids[block..ids.len().min(block + 8)];
    block + straddle.iter().map(|&k| usize::from(k < x)).sum::<usize>()
}

impl WalkCacheEntry<'_> {
    /// [`heads_below`] of the arc's start and end: the keys
    /// [`WalkCacheEntry::runs`] compares first.
    fn arc_heads(&self, arc: &Arc) -> [usize; 2] {
        [
            heads_below(self.ids, arc.start()),
            heads_below(self.ids, arc.end()),
        ]
    }

    /// The arc's members within the sorted keys, from its ends' `heads`
    /// ([`WalkCacheEntry::arc_heads`]; unread without an arc): one run
    /// for a non-wrapping arc, two (tail ∪ head) for a wrapping one.
    fn runs(&self, arc: Option<&Arc>, heads: [usize; 2]) -> WalkRuns {
        let len = self.ids.len();
        let (lo, first, second) = match arc {
            Some(a) if a.is_empty() => (0, 0, 0),
            Some(a) if !a.is_full() => {
                let (s, e) = (a.start(), a.end());
                let lo = count_below_from(self.ids, s, heads[0]);
                let hi = count_below_from(self.ids, e, heads[1]);
                if s < e {
                    (lo, hi - lo, 0)
                } else {
                    (lo, len - lo, hi)
                }
            }
            _ => (0, len, 0),
        };
        WalkRuns {
            lo,
            first,
            count: first + second,
        }
    }

    /// [`WalkCacheEntry::runs`] with its heads counted here.
    fn arc_runs(&self, arc: Option<&Arc>) -> WalkRuns {
        let heads = arc.map_or([0, 0], |a| self.arc_heads(a));
        self.runs(arc, heads)
    }

    /// The `k`-th restricted neighbour under `runs`, in clockwise order
    /// from the arc's start — a direct index, no search.
    ///
    /// # Panics
    /// If `k >= runs.count`.
    fn pick(&self, runs: WalkRuns, k: usize) -> PeerIdx {
        let i = if k < runs.first {
            runs.lo + k
        } else {
            k - runs.first
        };
        self.idxs[i]
    }
}

/// Position of an arc restriction within one peer's sorted cached walk
/// adjacency: the restricted neighbours are `idxs[lo..lo + first]`
/// followed by `idxs[..count - first]` (the wrapped head), `count` in
/// total. Valid until the next mutation of the peer's run.
#[derive(Copy, Clone, Debug, Default)]
struct WalkRuns {
    lo: usize,
    first: usize,
    /// Restricted degree: total neighbours inside the arc.
    count: usize,
}

/// Lanes [`Network::walk_lanes`] steps together, on the stack: a
/// partition round's 12 samples and a Mercury CDF's 24 each fit in one
/// chunk. Lane state on the heap, allocated per call, raised `grow`'s
/// peak RSS at n = 10⁴ from 16.9 to 17.6 MB.
const LANES: usize = 32;

/// One walk of [`Network::walk_lanes`] between its passes: the runs of
/// the arc at its position, and this step's proposal.
#[derive(Copy, Clone, Debug, Default)]
struct Lane {
    runs: WalkRuns,
    /// The proposed neighbour; `None` while the walk is isolated within
    /// the restriction.
    cand: Option<PeerIdx>,
    /// The candidate's [`WalkCacheEntry::arc_heads`].
    heads: [usize; 2],
}

/// The live ring by rank, both ways, as one query batch reads it:
/// `by_rank[r]` is [`Network::live_peer_by_rank`]`(r)`, and
/// `rank_of[p]` is live peer `p`'s rank, or [`LiveRanks::NOT_LIVE`].
/// Built by [`Network::live_ranks`]; valid until the next membership change.
pub(crate) struct LiveRanks {
    pub(crate) by_rank: Vec<PeerIdx>,
    pub(crate) rank_of: Vec<u32>,
}

impl LiveRanks {
    /// The `rank_of` entry of a dead or departed peer.
    pub(crate) const NOT_LIVE: u32 = u32::MAX;
}

/// The whole simulated network.
///
/// Two ring views coexist:
/// * `ring_all` — every peer ever added, dead or alive. This is the
///   *unstabilised* view: a peer's successor pointer may dangle onto a
///   crashed peer.
/// * `ring_live` — live peers only, i.e. the state Chord-style
///   stabilisation converges to. The paper's churn experiments assume this
///   view for ring links.
///
/// Long-range links are directed; crashing a peer leaves the links pointing
/// *at* it dangling in the owners' adjacency (probing them is the "wasted
/// traffic" of the paper), while its own outgoing links are torn down.
///
/// `Network` is `Clone`, deliberately: churn experiments snapshot the grown
/// network, crash the clone, and measure it, so one growth run feeds many
/// failure scenarios. It is `Send + Sync` (plain tables, and atomic
/// [`Network::metrics`] that readers credit through `&Network`), so
/// parallel tasks share one borrow, or clone their own from it.
#[derive(Clone)]
pub struct Network {
    peers: Vec<Peer>,
    by_id: HashMap<u64, PeerIdx>,
    ring_all: Ring,
    ring_live: Ring,
    // O(1) ring-neighbour pointers (the construction/measurement hot path
    // walks these hundreds of millions of times per figure; binary
    // searches here would dominate the whole simulation).
    //
    // The "all" list is spliced at insert only — crashed peers stay in
    // their neighbours' pointers, which is exactly the unstabilised-ring
    // semantics. The "live" list is additionally spliced at kill, giving
    // the stabilised (converged Chord maintenance) semantics.
    next_all: Vec<PeerIdx>,
    prev_all: Vec<PeerIdx>,
    next_live: Vec<PeerIdx>,
    prev_live: Vec<PeerIdx>,
    fault_model: FaultModel,
    succ_list_len: usize,
    // The walk-adjacency cache: per peer, the live walk neighbours
    // **sorted by identifier** (a multiset — a neighbour reachable by
    // ring and long link appears once per role, exactly like the uncached
    // collection), in a slab of `2 + ρ_out + ρ_in` pairs (`try_link`
    // enforces both caps and the ring adds at most a successor and a
    // predecessor). Every mutation leaves every live peer's run current:
    // a long link, the one mutation the join hot loop makes, edits its
    // two endpoints' runs in place (`edit_walk`), and so does each link
    // a leaving peer takes with it; a membership change rebuilds the
    // runs of the ring neighbours its splice changed (`rebuild_walks`)
    // and empties the leaver's; a fault-model flip rebuilds every run.
    // Walkers read it through `&self`.
    walk: Slabs,
    // A mirror of every peer's `long_out`, in `long_out` order, with each
    // target's identifier beside it, in a slab of `ρ_out` pairs: the
    // greedy hop reads it instead of `long_out` and the targets' `Peer`
    // lines. `long_out` stays the source of truth; every change to it
    // goes through `try_link`, `drop_long_out` or `take_long_out`, which
    // keep the mirror in step.
    out_links: Slabs,
    /// Message accounting for the whole simulation.
    pub metrics: Metrics,
}

impl Network {
    /// Empty network under the given fault model.
    pub fn new(fault_model: FaultModel) -> Self {
        Network {
            peers: Vec::new(),
            by_id: HashMap::new(),
            ring_all: Ring::new(),
            ring_live: Ring::new(),
            next_all: Vec::new(),
            prev_all: Vec::new(),
            next_live: Vec::new(),
            prev_live: Vec::new(),
            fault_model,
            succ_list_len: 8,
            walk: Slabs::default(),
            out_links: Slabs::default(),
            metrics: Metrics::new(),
        }
    }

    /// A long link between `idx` and `other` was made (`linked`) or torn
    /// down, or `other` crashed with it: the one pair moves in or out of
    /// `idx`'s walk run at its sorted position — a link changes one
    /// neighbour, and a rebuild re-reads all ~56. An `other` dead before
    /// was never in the live-filtered run, so removing it finds nothing.
    fn edit_walk(&mut self, idx: PeerIdx, other: PeerIdx, linked: bool) {
        let id = self.peers[other.as_usize()].id;
        if linked {
            self.walk.insert_sorted(idx, id, other);
        } else {
            self.walk.remove_sorted(idx, id, other);
        }
    }

    /// Rebuilds the walk runs of `peers` from their live walk adjacency,
    /// at the end of a membership change or a view flip; a dead peer's
    /// run is emptied. A peer named more than once is rebuilt once: the
    /// two views usually give a splice the same neighbours.
    fn rebuild_walks(&mut self, peers: impl IntoIterator<Item = PeerIdx>) {
        let mut peers: Vec<PeerIdx> = peers.into_iter().collect();
        peers.sort_unstable();
        peers.dedup();
        let mut pairs = Vec::new();
        for p in peers {
            pairs.clear();
            if self.is_alive(p) {
                pairs.extend(self.live_walk_adjacency(p));
                pairs.sort_unstable();
            }
            self.walk.clear(p);
            for &(id, c) in &pairs {
                self.walk.push(p, id, c);
            }
        }
    }

    /// Length of the Chord-style successor list peers maintain. Only the
    /// unstabilised view consults entries beyond the first: with a single
    /// successor pointer a crash wave partitions the ring, which is why
    /// Chord prescribes `O(log N)` successors. Default 8.
    pub fn succ_list_len(&self) -> usize {
        self.succ_list_len
    }

    /// Sets the successor-list length (ablation A4 uses 1 to show how much
    /// backtracking the list prevents).
    pub fn set_succ_list_len(&mut self, len: usize) {
        assert!(len >= 1, "peers always know at least their successor");
        self.succ_list_len = len;
    }

    /// The configured fault model.
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Changes the fault model (used by ablations and the unstabilised
    /// churn cells). Both ring views are maintained continuously, but
    /// every walk run is rebuilt, O(n · degree).
    pub fn set_fault_model(&mut self, fm: FaultModel) {
        self.fault_model = fm;
        // Every walk adjacency reads ring pointers through the view, so a
        // view flip rebuilds every run.
        self.rebuild_walks(self.all_peers());
    }

    /// Total peers ever added (live + dead).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True iff no peer was ever added.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Number of live peers.
    pub fn live_count(&self) -> usize {
        self.ring_live.len()
    }

    /// Adds a live peer; errors on duplicate identifier.
    pub fn add_peer(&mut self, id: Id, caps: DegreeCaps) -> Result<PeerIdx> {
        if self.by_id.contains_key(&id.raw()) {
            return Err(Error::InvalidConfig(format!(
                "duplicate peer identifier {id}"
            )));
        }
        let idx = PeerIdx(self.peers.len() as u32);
        // Splice into the "all" ring list: between the current owner's
        // predecessor and the owner (i.e. at the sorted position).
        let (next_a, prev_a) = match self.ring_all.successor_of(id) {
            Some(succ_id) if succ_id != id => {
                let succ = self.by_id[&succ_id.raw()];
                (succ, self.prev_all[succ.as_usize()])
            }
            _ => (idx, idx), // first peer: self-loop
        };
        let (next_l, prev_l) = match self.ring_live.successor_of(id) {
            Some(succ_id) if succ_id != id => {
                let succ = self.by_id[&succ_id.raw()];
                (succ, self.prev_live[succ.as_usize()])
            }
            _ => (idx, idx),
        };
        self.peers.push(Peer::new(id, caps));
        self.next_all.push(next_a);
        self.prev_all.push(prev_a);
        self.next_live.push(next_l);
        self.prev_live.push(prev_l);
        self.next_all[prev_a.as_usize()] = idx;
        self.prev_all[next_a.as_usize()] = idx;
        self.next_live[prev_l.as_usize()] = idx;
        self.prev_live[next_l.as_usize()] = idx;
        self.by_id.insert(id.raw(), idx);
        self.ring_all.insert(id);
        self.ring_live.insert(id);
        // The peer's slabs, sized from its caps and clamped as
        // `Peer::new` clamps its vectors.
        let (rho_in, rho_out) = (
            caps.rho_in.min(RESERVED_LINKS) as usize,
            caps.rho_out.min(RESERVED_LINKS) as usize,
        );
        self.walk.add(2 + rho_out + rho_in);
        self.out_links.add(rho_out);
        // The splice changed the ring adjacency of the new peer and of its
        // (up to four) new ring neighbours — nobody else's.
        self.rebuild_walks([idx, prev_a, next_a, prev_l, next_l]);
        Ok(idx)
    }

    /// Peer state by index.
    ///
    /// # Panics
    /// On out-of-range index (indices come from this network, so a bad one
    /// is a programming error, not a simulation condition).
    pub fn peer(&self, idx: PeerIdx) -> &Peer {
        &self.peers[idx.as_usize()]
    }

    /// Index of the peer with identifier `id`.
    pub fn idx_of(&self, id: Id) -> Option<PeerIdx> {
        self.by_id.get(&id.raw()).copied()
    }

    /// Liveness of a peer.
    #[inline]
    pub fn is_alive(&self, idx: PeerIdx) -> bool {
        self.peers[idx.as_usize()].alive
    }

    /// The live ring — the stabilised view.
    pub fn ring_live(&self) -> &Ring {
        &self.ring_live
    }

    /// The live peer owning `key` (ground truth for query success).
    pub fn live_owner_of(&self, key: Id) -> Option<PeerIdx> {
        self.ring_live.owner_of(key).and_then(|id| self.idx_of(id))
    }

    /// The live peer with the given ring rank (for workload resolution).
    ///
    /// # Panics
    /// If `rank >= live_count()`.
    pub fn live_peer_by_rank(&self, rank: usize) -> PeerIdx {
        let id = self.ring_live.select(rank);
        #[expect(
            clippy::expect_used,
            reason = "every id in `ring_live` is a key of `by_id`: peers enter both together and leave `ring_live` first"
        )]
        self.idx_of(id).expect("live ring ids are registered")
    }

    /// A uniformly random live peer (experimenter's view; used to pick
    /// query sources, matching the paper's "N random queries").
    pub fn random_live_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PeerIdx> {
        if self.ring_live.is_empty() {
            return None;
        }
        Some(self.live_peer_by_rank(rng.gen_range(0..self.ring_live.len())))
    }

    /// The live ring by rank, both ways: the peers in rank order and each
    /// peer's rank. One `select` finds rank 0, then the live ring's
    /// successor list (`next_live`, spliced on every kill and depart
    /// under both fault models) is followed `live_count() − 1` times,
    /// filling both tables in the one pass.
    ///
    /// A query batch builds it once and indexes it per draw and per hop.
    /// A `select` descends about 2 ln n boxed treap nodes, each a
    /// dependent cache miss; the build follows one 4n-byte array. Measured
    /// at 10⁴ peers, the build costs what 90 `select` draws cost (2.8 ns a
    /// peer against 310 ns a draw), at 10⁵ what 560 do: it pays off once a
    /// batch makes more than about n/200 queries. The in-tree batches do:
    /// the figures issue n queries, the churn windows n/4, and A4 and A5
    /// 2000 and 4000 at the ablations' n ≤ 4000. The smallest batch
    /// relative to n is `QueryBudget::SqrtLive`'s √n, in the churn tests
    /// at n ≤ 300, still ten times n/200.
    ///
    /// Single draws keep [`Network::live_peer_by_rank`], and the tables
    /// live for one batch, so the network holds no cache to invalidate.
    pub(crate) fn live_ranks(&self) -> LiveRanks {
        let n = self.live_count();
        let mut ranks = LiveRanks {
            by_rank: Vec::with_capacity(n),
            rank_of: vec![LiveRanks::NOT_LIVE; self.peers.len()],
        };
        if n == 0 {
            return ranks;
        }
        let first = self.live_peer_by_rank(0);
        let mut cur = first;
        for rank in 0..n as u32 {
            ranks.by_rank.push(cur);
            ranks.rank_of[cur.as_usize()] = rank;
            cur = self.next_live[cur.as_usize()];
        }
        debug_assert_eq!(cur, first, "the live successor chain is not one ring");
        ranks
    }

    /// Ring successor of peer `idx` under the current fault-model view
    /// (O(1) pointer read). Returns `idx` itself in a singleton network,
    /// mirroring `Ring::successor_of`.
    pub fn ring_successor(&self, idx: PeerIdx) -> Option<PeerIdx> {
        if self.peers.is_empty() {
            return None;
        }
        Some(match self.fault_model {
            FaultModel::StabilizedRing => self.next_live[idx.as_usize()],
            FaultModel::UnstabilizedRing => self.next_all[idx.as_usize()],
        })
    }

    /// The `k` nearest live ring successors and `k` nearest live ring
    /// predecessors of `idx` in the **stabilised** (live) ring view,
    /// excluding `idx` itself, deduplicated — the peers whose ring
    /// neighbourhood changes when `idx` crashes or departs, i.e. the
    /// repair set of a reactive maintenance policy. Successors first
    /// (nearest outward), then predecessors; O(k).
    ///
    /// # Panics
    /// If `idx` is not alive (a dead peer's live-ring pointers are stale,
    /// so its neighbourhood is meaningless).
    pub fn live_ring_neighborhood(&self, idx: PeerIdx, k: usize) -> Vec<PeerIdx> {
        assert!(
            self.is_alive(idx),
            "live_ring_neighborhood of a dead peer is undefined"
        );
        let mut out = Vec::with_capacity(2 * k);
        let mut cur = idx;
        for _ in 0..k {
            cur = self.next_live[cur.as_usize()];
            if cur == idx || out.contains(&cur) {
                break; // wrapped around: the whole ring is closer than k
            }
            out.push(cur);
        }
        cur = idx;
        for _ in 0..k {
            cur = self.prev_live[cur.as_usize()];
            if cur == idx || out.contains(&cur) {
                break;
            }
            out.push(cur);
        }
        out
    }

    /// Ring predecessor of peer `idx` under the current fault-model view
    /// (O(1) pointer read).
    pub fn ring_predecessor(&self, idx: PeerIdx) -> Option<PeerIdx> {
        if self.peers.is_empty() {
            return None;
        }
        Some(match self.fault_model {
            FaultModel::StabilizedRing => self.prev_live[idx.as_usize()],
            FaultModel::UnstabilizedRing => self.prev_all[idx.as_usize()],
        })
    }

    /// Attempts to establish the directed long-range link `from -> to`,
    /// enforcing both degree budgets. Refusals due to the target's
    /// `ρ_in_max` are the paper's heterogeneity mechanism and are counted
    /// in the metrics; other rejections are caller bugs or races and are
    /// not.
    pub fn try_link(&mut self, from: PeerIdx, to: PeerIdx) -> std::result::Result<(), LinkError> {
        if from == to {
            return Err(LinkError::SelfLink);
        }
        let (fi, ti) = (from.as_usize(), to.as_usize());
        if !self.peers[fi].alive || !self.peers[ti].alive {
            return Err(LinkError::Dead);
        }
        if self.peers[fi].long_out.contains(&to) {
            return Err(LinkError::Duplicate);
        }
        if !self.peers[fi].can_open_out() {
            return Err(LinkError::SourceFull);
        }
        self.metrics.inc(MsgKind::LinkRequest);
        if !self.peers[ti].accepts_in() {
            self.metrics.inc(MsgKind::LinkRefuse);
            return Err(LinkError::TargetFull);
        }
        self.metrics.inc(MsgKind::LinkAccept);
        self.peers[fi].long_out.push(to);
        self.out_links.push(from, self.peers[ti].id, to);
        self.peers[ti].long_in.push(from);
        self.edit_walk(from, to, true);
        self.edit_walk(to, from, true);
        Ok(())
    }

    /// Tears down the single directed long-range link `from -> to`,
    /// releasing the in-degree budget at `to`. Returns whether the link
    /// existed. Used by the scenario partition hook to sever exactly the
    /// links that cross a cut, leaving the rest of both peers' link
    /// tables intact.
    pub fn unlink(&mut self, from: PeerIdx, to: PeerIdx) -> bool {
        if !self.drop_long_out(from, to) {
            return false;
        }
        self.drop_long_in(to, from);
        self.edit_walk(from, to, false);
        true
    }

    /// The source's half of tearing down `from -> to`: `to` leaves
    /// `from`'s `long_out` and its mirror, at the same position. Returns
    /// whether it was there.
    fn drop_long_out(&mut self, from: PeerIdx, to: PeerIdx) -> bool {
        let fp = &mut self.peers[from.as_usize()];
        let Some(pos) = fp.long_out.iter().position(|&t| t == to) else {
            return false;
        };
        fp.long_out.swap_remove(pos);
        self.out_links.swap_remove(from, pos);
        true
    }

    /// Takes all of `from`'s `long_out` and empties its mirror.
    fn take_long_out(&mut self, from: PeerIdx) -> Vec<PeerIdx> {
        self.out_links.clear(from);
        std::mem::take(&mut self.peers[from.as_usize()].long_out)
    }

    /// The target's half of tearing down `from -> to`. A crashed target
    /// has already cleared its in-links; there is then nothing to drop.
    fn drop_long_in(&mut self, to: PeerIdx, from: PeerIdx) {
        let tp = &mut self.peers[to.as_usize()];
        if let Some(pos) = tp.long_in.iter().position(|&s| s == from) {
            tp.long_in.swap_remove(pos);
            self.edit_walk(to, from, false);
        }
    }

    /// Tears down all outgoing long-range links of `from` (rewiring step),
    /// releasing the corresponding in-degree budget at the targets.
    pub fn unlink_long_out(&mut self, from: PeerIdx) {
        for t in self.take_long_out(from) {
            self.drop_long_in(t, from);
            self.edit_walk(from, t, false);
        }
    }

    /// Graceful departure: the peer announces it is leaving, so *all* of
    /// its links (in and out) are torn down cleanly — no dangling
    /// references, unlike [`Network::kill`]. The ring re-stitches in both
    /// views (a leaving peer hands over to its neighbours before going).
    pub fn depart(&mut self, idx: PeerIdx) -> Result<()> {
        let i = idx.as_usize();
        if i >= self.peers.len() {
            return Err(Error::UnknownPeer(i));
        }
        if !self.peers[i].alive {
            return Err(Error::PeerDead(i));
        }
        // Notify in-link sources: they drop their links to us.
        for s in std::mem::take(&mut self.peers[i].long_in) {
            self.drop_long_out(s, idx);
            self.edit_walk(s, idx, false);
        }
        // Tear down our own out-links (releases budget at targets).
        self.unlink_long_out(idx);
        self.peers[i].alive = false;
        let id = self.peers[i].id;
        self.ring_live.remove(id);
        self.ring_all.remove(id);
        // Splice out of both ring lists: a graceful leave repairs pointers.
        let (ln, lp) = (self.next_live[i], self.prev_live[i]);
        self.next_live[lp.as_usize()] = ln;
        self.prev_live[ln.as_usize()] = lp;
        let (an, ap) = (self.next_all[i], self.prev_all[i]);
        self.next_all[ap.as_usize()] = an;
        self.prev_all[an.as_usize()] = ap;
        self.by_id.remove(&id.raw());
        // The ring neighbours in both views were spliced.
        self.rebuild_walks([ln, lp, an, ap, idx]);
        Ok(())
    }

    /// Crashes a peer: removes it from the live ring, tears down its
    /// outgoing links (releasing budget at targets), and clears its
    /// incoming bookkeeping — while the *sources* of those incoming links
    /// keep dangling references to it (the wasted-traffic source).
    pub fn kill(&mut self, idx: PeerIdx) -> Result<()> {
        let i = idx.as_usize();
        if i >= self.peers.len() {
            return Err(Error::UnknownPeer(i));
        }
        if !self.peers[i].alive {
            return Err(Error::PeerDead(i));
        }
        self.peers[i].alive = false;
        let id = self.peers[i].id;
        self.ring_live.remove(id);
        // Splice out of the live ring list (stabilisation); the "all" list
        // keeps pointing at the corpse (unstabilised semantics). The dead
        // peer's own live pointers go stale, which is fine: nothing reads
        // a dead peer's ring neighbours in the stabilised view.
        let (ln, lp) = (self.next_live[i], self.prev_live[i]);
        self.next_live[lp.as_usize()] = ln;
        self.prev_live[ln.as_usize()] = lp;
        // Outgoing links vanish with the peer.
        for t in self.take_long_out(idx) {
            self.drop_long_in(t, idx);
        }
        // Incoming bookkeeping is cleared; the sources keep dangling
        // `long_out` entries pointing here until they rewire — their
        // live-filtered walk adjacency just lost this peer, one copy per
        // link, taken out in place.
        for s in std::mem::take(&mut self.peers[i].long_in) {
            self.edit_walk(s, idx, false);
        }
        // Ring neighbours in *both* views see the corpse disappear from
        // their filtered adjacency (the "all" pointers still aim at it,
        // but the liveness filter now drops it), and the live splice
        // gives two of them a new neighbour.
        let (an, ap) = (self.next_all[i], self.prev_all[i]);
        self.rebuild_walks([ln, lp, an, ap, idx]);
        Ok(())
    }

    /// Visits the **routing** neighbours of `idx` in place, in order: the
    /// successor list and predecessor under the fault-model view, then all
    /// outgoing long-range links (possibly dangling).
    ///
    /// Both views expose the same-length successor list (peers maintain it
    /// regardless of fault state); they differ in *which ring* it is read
    /// from — the stabilised list contains live peers only, the
    /// unstabilised one may contain corpses. Duplicates between the ring
    /// and the long links are tolerated (routing keeps the least potential,
    /// and a repeat ties with itself), which keeps this hot path scan-free.
    #[inline]
    pub(crate) fn for_each_routing_neighbor(&self, idx: PeerIdx, mut visit: impl FnMut(PeerIdx)) {
        let next: &[PeerIdx] = match self.fault_model {
            FaultModel::StabilizedRing => &self.next_live,
            FaultModel::UnstabilizedRing => &self.next_all,
        };
        let mut cur = idx;
        for _ in 0..self.succ_list_len {
            cur = next[cur.as_usize()];
            if cur == idx {
                break; // wrapped all the way around
            }
            visit(cur);
        }
        if let Some(p) = self.ring_predecessor(idx) {
            if p != idx {
                visit(p);
            }
        }
        for &c in &self.peers[idx.as_usize()].long_out {
            visit(c);
        }
    }

    /// `idx`'s `long_out` targets with their identifiers, in `long_out`
    /// order: one contiguous run of each, read without touching
    /// `long_out` or any target's `Peer`.
    #[inline]
    pub(crate) fn long_out_links(&self, idx: PeerIdx) -> (&[Id], &[PeerIdx]) {
        self.out_links.run(idx)
    }

    /// Collects the routing neighbours of `idx` into `buf` (cleared
    /// first): the successor list and predecessor under the fault-model
    /// view, then all outgoing long-range links (possibly dangling). The
    /// router reads the same relation in place, through the visitor this
    /// collects from; the list is what tests inspect.
    #[cfg(test)]
    pub(crate) fn routing_neighbors_into(&self, idx: PeerIdx, buf: &mut Vec<PeerIdx>) {
        buf.clear();
        self.for_each_routing_neighbor(idx, |c| buf.push(c));
    }

    /// Collects the **walk** neighbours of `idx` into `buf` (cleared
    /// first): the undirected view — one ring successor and predecessor
    /// plus outgoing and incoming long-range links. Random walks mix much
    /// faster on the undirected graph, and a link is a TCP connection both
    /// endpoints can send on, so this is also the realistic choice.
    ///
    /// The collection is multiset semantics (duplicates possible between
    /// ring and long links): a Metropolis–Hastings walk over a multigraph
    /// with multiset degrees still converges to the uniform distribution,
    /// and skipping deduplication keeps the hottest loop in the simulator
    /// linear in the degree. The cache's test oracle.
    #[cfg(test)]
    pub(crate) fn walk_neighbors_into(&self, idx: PeerIdx, buf: &mut Vec<PeerIdx>) {
        buf.clear();
        if let Some(s) = self.ring_successor(idx) {
            if s != idx {
                buf.push(s);
            }
        }
        if let Some(p) = self.ring_predecessor(idx) {
            if p != idx {
                buf.push(p);
            }
        }
        let peer = &self.peers[idx.as_usize()];
        buf.extend_from_slice(&peer.long_out);
        buf.extend_from_slice(&peer.long_in);
    }

    /// What a cache entry holds, unsorted: the live members of
    /// `Network::walk_neighbors_into`'s multiset with their identifiers.
    fn live_walk_adjacency(&self, idx: PeerIdx) -> impl Iterator<Item = (Id, PeerIdx)> + '_ {
        let peer = &self.peers[idx.as_usize()];
        let ring = [self.ring_successor(idx), self.ring_predecessor(idx)];
        let ring = ring.into_iter().flatten().filter(move |&n| n != idx);
        let links = peer.long_out.iter().chain(&peer.long_in).copied();
        ring.chain(links).filter_map(|c| {
            let p = &self.peers[c.as_usize()];
            p.alive.then_some((p.id, c))
        })
    }

    /// `idx`'s walk-cache entry.
    fn walk_entry(&self, idx: PeerIdx) -> WalkCacheEntry<'_> {
        let (ids, idxs) = self.walk.run(idx);
        WalkCacheEntry { ids, idxs }
    }

    /// The number of walk neighbours of `idx` that are alive and (when
    /// `arc` is given) inside the arc — two block counts over the sorted
    /// cached keys, no list materialised.
    pub fn walk_degree(&self, idx: PeerIdx, arc: Option<&Arc>) -> usize {
        self.walk_entry(idx).arc_runs(arc).count
    }

    /// Advances one Metropolis–Hastings walk per lane by `steps` steps
    /// inside `arc` (the whole live network when `None`): lane `j` starts
    /// at `at[j]`, which must be live and inside the arc, draws from
    /// `rngs[j]` alone, and ends at `at[j]`. A lane's draws and moves are
    /// those of the same walk run alone, so one lane is one walk.
    ///
    /// The lanes step together so that their cache misses overlap. Each
    /// step is three passes over the lanes, each issuing every lane's
    /// loads before any lane consumes them:
    /// 1. *propose*: draw `k` and read the pick from the current entry's
    ///    `idxs`;
    /// 2. *load* (only with an arc): count the block heads of each
    ///    candidate's sorted `ids` below the arc's two ends, the keys
    ///    [`count_below`] compares first;
    /// 3. *decide*: finish the candidate's arc runs and run
    ///    [`logic::mh_accept`] on the lane's stream.
    ///
    /// A lane isolated within the restriction (a single-member arc) stays
    /// put, and a rejected move or an isolated candidate consumes its step
    /// as well: every lane takes exactly `steps` steps. At most [`LANES`]
    /// step together; a longer call steps its lanes in chunks of that
    /// many, which changes no lane's walk.
    ///
    /// # Panics
    /// If `at` and `rngs` differ in length.
    pub(crate) fn walk_lanes(
        &self,
        arc: Option<&Arc>,
        steps: u32,
        at: &mut [PeerIdx],
        rngs: &mut [SmallRng],
    ) {
        assert_eq!(at.len(), rngs.len(), "one stream per lane");
        for (at, rngs) in at.chunks_mut(LANES).zip(rngs.chunks_mut(LANES)) {
            let mut lanes = [Lane::default(); LANES];
            let lanes = &mut lanes[..at.len()];
            for (lane, &p) in lanes.iter_mut().zip(at.iter()) {
                lane.runs = self.walk_entry(p).arc_runs(arc);
            }
            for _ in 0..steps {
                for ((lane, &p), rng) in lanes.iter_mut().zip(at.iter()).zip(rngs.iter_mut()) {
                    lane.cand = (lane.runs.count > 0).then(|| {
                        let k = logic::uniform_index(lane.runs.count, rng);
                        self.walk_entry(p).pick(lane.runs, k)
                    });
                }
                if let Some(a) = arc {
                    for lane in lanes.iter_mut() {
                        if let Some(c) = lane.cand {
                            lane.heads = self.walk_entry(c).arc_heads(a);
                        }
                    }
                }
                for ((lane, p), rng) in lanes.iter_mut().zip(at.iter_mut()).zip(rngs.iter_mut()) {
                    let Some(c) = lane.cand else { continue };
                    let cand_runs = self.walk_entry(c).runs(arc, lane.heads);
                    // min(1, deg(u)/deg(v)) — uniform stationary
                    // distribution. Shared kernel: the protocol crate's
                    // PeerMachine applies the same rule to its token walks.
                    let accept =
                        logic::mh_accept(lane.runs.count, cand_runs.count, || rng.gen::<f64>());
                    if accept && cand_runs.count > 0 {
                        *p = c;
                        lane.runs = cand_runs;
                    }
                }
            }
        }
    }

    /// The `k`-th (0-based) live walk neighbour of `idx` inside `arc`, in
    /// clockwise order from the arc's start: the walk's own runs and pick.
    ///
    /// # Panics
    /// If `k >= walk_degree(idx, arc)`.
    #[cfg(test)]
    pub(crate) fn walk_pick(&self, idx: PeerIdx, arc: Option<&Arc>, k: usize) -> PeerIdx {
        let e = self.walk_entry(idx);
        e.pick(e.arc_runs(arc), k)
    }

    /// The walk neighbours of `idx` that are alive and (when `arc` is
    /// given) inside the arc, collected into `buf` (cleared first) in
    /// clockwise order from the arc's start; returns the restricted
    /// degree. Same multiset as `Network::walk_neighbors_into` followed by
    /// an alive+arc `retain`, served from the cache by slicing, not by
    /// [`Network::walk_pick`].
    #[cfg(test)]
    pub(crate) fn walk_neighbors_restricted(
        &self,
        idx: PeerIdx,
        arc: Option<&Arc>,
        buf: &mut Vec<PeerIdx>,
    ) -> usize {
        let e = self.walk_entry(idx);
        let WalkRuns { lo, first, count } = e.arc_runs(arc);
        buf.clear();
        buf.extend_from_slice(&e.idxs[lo..lo + first]);
        buf.extend_from_slice(&e.idxs[..count - first]);
        buf.len()
    }

    /// Figure 1(b)'s curve: every **live** peer's relative degree load
    /// `in_degree / ρ_in_max`, ascending — it hugs 1.0 when the overlay
    /// exploits the heterogeneous capacity well.
    pub fn degree_load_curve(&self) -> Vec<f64> {
        let mut ratios: Vec<f64> = self
            .peers
            .iter()
            .filter(|p| p.alive)
            .map(|p| match p.caps.rho_in {
                0 => 0.0,
                cap => p.in_degree() as f64 / cap as f64,
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios
    }

    /// Figure 1(b)'s headline, the degree-volume utilisation: established
    /// in-links over offered in-capacity, `Σ in_degree / Σ ρ_in_max` over
    /// live peers, in `[0, 1]` (Oscar ≈ 85%, Mercury ≈ 61% in the paper).
    pub fn degree_volume_utilization(&self) -> f64 {
        let (used, cap) = self
            .peers
            .iter()
            .filter(|p| p.alive)
            .fold((0u64, 0u64), |(u, c), p| {
                (u + p.in_degree() as u64, c + p.caps.rho_in as u64)
            });
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }

    /// Checks the structural invariants every mutation must preserve, on
    /// every peer ever added: degree caps respected, no self-link, no
    /// duplicate out-link, each out-link to a live target has its reverse
    /// `long_in` entry (a dangling link to a corpse is legal — it is the
    /// wasted-traffic source) and each in-link its forward one, the
    /// long-out mirror the hop reads is `long_out` with each target's
    /// identifier, the live ring holds exactly the peers flagged alive,
    /// and every live peer's walk-cache entry is what a rebuild gives. `Err` names the first violation. The one
    /// oracle the snapshot-world tests share.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for p in self.all_peers() {
            let peer = self.peer(p);
            if peer.in_degree() > peer.caps.rho_in || peer.out_degree() > peer.caps.rho_out {
                return Err(format!(
                    "{p:?} exceeds its caps: in {}/{}, out {}/{}",
                    peer.in_degree(),
                    peer.caps.rho_in,
                    peer.out_degree(),
                    peer.caps.rho_out
                ));
            }
            for (k, &t) in peer.long_out.iter().enumerate() {
                if t == p {
                    return Err(format!("{p:?} links to itself"));
                }
                if peer.long_out[..k].contains(&t) {
                    return Err(format!("{p:?} links to {t:?} twice"));
                }
                if self.is_alive(t) && !self.peer(t).long_in.contains(&p) {
                    return Err(format!("out-link {p:?}->{t:?} has no reverse entry"));
                }
            }
            if let Some(s) = peer
                .long_in
                .iter()
                .find(|s| !self.peer(**s).long_out.contains(&p))
            {
                return Err(format!("in-link {s:?}->{p:?} has no forward entry"));
            }
            let (ids, targets) = self.out_links.run(p);
            let ids_match = ids
                .iter()
                .zip(targets)
                .all(|(&id, &t)| id == self.peer(t).id);
            if targets != peer.long_out.as_slice() || !ids_match {
                return Err(format!("{p:?}'s long-out mirror is out of step"));
            }
            if peer.alive && !self.ring_live.contains(peer.id) {
                return Err(format!("{p:?} is alive but not on the live ring"));
            }
        }
        // Every live peer is on the ring; equal counts make it exactly them.
        let flagged = self.live_peers().count();
        if flagged != self.ring_live.len() {
            return Err(format!(
                "{flagged} peers flagged alive, {} on the live ring",
                self.ring_live.len()
            ));
        }
        // Every mutation keeps every live peer's walk run current.
        for p in self.live_peers() {
            let entry = self.walk_entry(p);
            if !entry.ids.is_sorted() {
                return Err(format!("{p:?}'s cached walk keys are not sorted"));
            }
            let mut rebuilt: Vec<(Id, PeerIdx)> = self.live_walk_adjacency(p).collect();
            rebuilt.sort_unstable();
            if !rebuilt.iter().copied().eq(entry
                .ids
                .iter()
                .copied()
                .zip(entry.idxs.iter().copied()))
            {
                return Err(format!("{p:?}'s cached walk adjacency is out of date"));
            }
        }
        Ok(())
    }

    /// Iterates all peer indices (live and dead).
    pub fn all_peers(&self) -> impl Iterator<Item = PeerIdx> {
        (0..self.peers.len() as u32).map(PeerIdx)
    }

    /// Iterates live peer indices.
    pub fn live_peers(&self) -> impl Iterator<Item = PeerIdx> + '_ {
        self.all_peers().filter(|&i| self.is_alive(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(n: u32) -> DegreeCaps {
        DegreeCaps::symmetric(n)
    }

    fn net_with(ids: &[u64]) -> (Network, Vec<PeerIdx>) {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let idxs = ids
            .iter()
            .map(|&id| net.add_peer(Id::new(id), caps(4)).unwrap())
            .collect();
        (net, idxs)
    }

    #[test]
    fn add_and_lookup() {
        let (net, idxs) = net_with(&[10, 20, 30]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.live_count(), 3);
        assert_eq!(net.idx_of(Id::new(20)), Some(idxs[1]));
        assert_eq!(net.peer(idxs[0]).id, Id::new(10));
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut net = Network::new(FaultModel::StabilizedRing);
        net.add_peer(Id::new(5), caps(2)).unwrap();
        assert!(net.add_peer(Id::new(5), caps(2)).is_err());
    }

    #[test]
    fn link_budgets_enforced() {
        let (mut net, idxs) = net_with(&[10, 20, 30]);
        // shrink 20's in budget to 1
        let mut small = Network::new(FaultModel::StabilizedRing);
        let a = small.add_peer(Id::new(1), caps(5)).unwrap();
        let b = small
            .add_peer(
                Id::new(2),
                DegreeCaps {
                    rho_in: 1,
                    rho_out: 5,
                },
            )
            .unwrap();
        let c = small.add_peer(Id::new(3), caps(5)).unwrap();
        assert_eq!(small.try_link(a, b), Ok(()));
        assert_eq!(small.try_link(c, b), Err(LinkError::TargetFull));
        assert_eq!(small.metrics.get(MsgKind::LinkRefuse), 1);
        assert_eq!(small.metrics.get(MsgKind::LinkAccept), 1);

        // self / duplicate / source-full on the other network
        assert_eq!(net.try_link(idxs[0], idxs[0]), Err(LinkError::SelfLink));
        net.try_link(idxs[0], idxs[1]).unwrap();
        assert_eq!(net.try_link(idxs[0], idxs[1]), Err(LinkError::Duplicate));
    }

    #[test]
    fn source_budget_enforced() {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let a = net
            .add_peer(
                Id::new(1),
                DegreeCaps {
                    rho_in: 9,
                    rho_out: 1,
                },
            )
            .unwrap();
        let b = net.add_peer(Id::new(2), caps(9)).unwrap();
        let c = net.add_peer(Id::new(3), caps(9)).unwrap();
        net.try_link(a, b).unwrap();
        assert_eq!(net.try_link(a, c), Err(LinkError::SourceFull));
    }

    #[test]
    fn unlink_releases_budget() {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let a = net.add_peer(Id::new(1), caps(3)).unwrap();
        let b = net
            .add_peer(
                Id::new(2),
                DegreeCaps {
                    rho_in: 1,
                    rho_out: 3,
                },
            )
            .unwrap();
        let c = net.add_peer(Id::new(3), caps(3)).unwrap();
        net.try_link(a, b).unwrap();
        assert_eq!(net.try_link(c, b), Err(LinkError::TargetFull));
        net.unlink_long_out(a);
        assert_eq!(net.peer(b).in_degree(), 0);
        assert_eq!(net.try_link(c, b), Ok(()));
    }

    #[test]
    fn unlink_is_the_exact_inverse_of_try_link() {
        let (mut net, idxs) = net_with(&[10, 20]);
        let (a, b) = (idxs[0], idxs[1]);
        net.try_link(a, b).unwrap();
        assert!(net.unlink(a, b));
        assert!(!net.unlink(a, b), "double-unlink reports absence");
        assert!(net.peer(a).long_out.is_empty());
        assert!(net.peer(b).long_in.is_empty());
        // Budget released: the link can be re-opened.
        net.try_link(a, b).unwrap();
    }

    #[test]
    fn kill_updates_views_and_budgets() {
        let (mut net, idxs) = net_with(&[10, 20, 30, 40]);
        net.try_link(idxs[0], idxs[2]).unwrap(); // 10 -> 30
        net.try_link(idxs[2], idxs[3]).unwrap(); // 30 -> 40
        net.kill(idxs[2]).unwrap(); // kill 30
        assert!(!net.is_alive(idxs[2]));
        assert_eq!(net.live_count(), 3);
        assert!(net.ring_all.contains(Id::new(30)), "full ring keeps dead");
        assert!(!net.ring_live().contains(Id::new(30)));
        // 30's outgoing link to 40 released 40's in budget
        assert_eq!(net.peer(idxs[3]).in_degree(), 0);
        // 10 keeps a dangling long_out to 30
        assert!(net.peer(idxs[0]).long_out.contains(&idxs[2]));
        // double-kill errors
        assert!(net.kill(idxs[2]).is_err());
    }

    #[test]
    fn ring_neighbors_follow_fault_model() {
        let (mut net, idxs) = net_with(&[10, 20, 30]);
        net.kill(idxs[1]).unwrap(); // kill 20
                                    // stabilised: successor of 10 skips the dead 20
        assert_eq!(net.ring_successor(idxs[0]), Some(idxs[2]));
        net.set_fault_model(FaultModel::UnstabilizedRing);
        // unstabilised: successor pointer still aims at dead 20
        assert_eq!(net.ring_successor(idxs[0]), Some(idxs[1]));
    }

    #[test]
    fn owner_lookup_uses_live_ring() {
        let (mut net, idxs) = net_with(&[10, 20, 30]);
        assert_eq!(net.live_owner_of(Id::new(15)), Some(idxs[1]));
        net.kill(idxs[1]).unwrap();
        assert_eq!(net.live_owner_of(Id::new(15)), Some(idxs[2]));
    }

    #[test]
    fn routing_neighbors_exclude_self() {
        let (mut net, idxs) = net_with(&[10, 20]);
        net.try_link(idxs[0], idxs[1]).unwrap();
        let mut buf = Vec::new();
        net.routing_neighbors_into(idxs[0], &mut buf);
        // successor == predecessor == long target == peer 1; multiset
        // semantics allow repeats, but never the peer itself.
        assert!(!buf.is_empty());
        assert!(buf.iter().all(|&c| c == idxs[1]));
    }

    #[test]
    fn walk_neighbors_include_in_links() {
        // Network must be larger than the successor list (8), otherwise
        // every peer is a ring neighbour of every other.
        // Peer 10's successor list reaches 11..=18 and its predecessor is
        // 9, so peer 0 can only appear via the long-range in-link.
        let ids: Vec<u64> = (1..=20).map(|i| i * 100).collect();
        let (mut net, idxs) = net_with(&ids);
        net.try_link(idxs[0], idxs[10]).unwrap();
        let mut buf = Vec::new();
        net.walk_neighbors_into(idxs[10], &mut buf);
        assert!(buf.contains(&idxs[0]), "in-link usable for walks");
        net.routing_neighbors_into(idxs[10], &mut buf);
        assert!(!buf.contains(&idxs[0]), "in-link NOT usable for routing");
    }

    #[test]
    fn single_peer_network_has_no_neighbors() {
        let (net, idxs) = net_with(&[10]);
        let mut buf = vec![PeerIdx(99)];
        net.routing_neighbors_into(idxs[0], &mut buf);
        assert!(buf.is_empty());
    }

    fn net_with_caps(caps: &[(u32, u32)]) -> (Network, Vec<PeerIdx>) {
        let mut net = Network::new(FaultModel::StabilizedRing);
        let idxs = caps
            .iter()
            .enumerate()
            .map(|(i, &(rho_in, rho_out))| {
                let id = Id::new((i as u64 + 1) * 1000);
                net.add_peer(id, DegreeCaps { rho_in, rho_out }).unwrap()
            })
            .collect();
        (net, idxs)
    }

    #[test]
    fn utilization_counts_links_over_capacity() {
        let (mut net, p) = net_with_caps(&[(2, 8); 4]);
        // 3 links into a total capacity of 8
        net.try_link(p[0], p[1]).unwrap();
        net.try_link(p[2], p[1]).unwrap();
        net.try_link(p[0], p[3]).unwrap();
        assert!((net.degree_volume_utilization() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn degree_load_curve_is_sorted_and_sized() {
        let (mut net, p) = net_with_caps(&[(4, 8), (1, 8), (2, 8), (0, 8)]);
        net.try_link(p[0], p[1]).unwrap(); // peer1: 1/1
        net.try_link(p[1], p[2]).unwrap(); // peer2: 1/2
        assert_eq!(net.degree_load_curve(), vec![0.0, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn degree_load_counts_live_peers_only() {
        let (mut net, p) = net_with_caps(&[(2, 8); 3]);
        net.try_link(p[0], p[1]).unwrap();
        net.kill(p[2]).unwrap();
        assert_eq!(net.degree_load_curve().len(), 2);
        // capacity now 4, used 1
        assert!((net.degree_volume_utilization() - 0.25).abs() < 1e-12);
        // peer 2000 loses its in-link when 1000 dies
        net.kill(p[0]).unwrap();
        assert_eq!(net.degree_load_curve(), vec![0.0]);
    }

    #[test]
    fn empty_network_has_no_degree_load() {
        let net = Network::new(FaultModel::StabilizedRing);
        assert_eq!(net.degree_volume_utilization(), 0.0);
        assert!(net.degree_load_curve().is_empty());
    }

    #[test]
    fn random_live_peer_is_live() {
        let (mut net, idxs) = net_with(&[10, 20, 30, 40, 50]);
        net.kill(idxs[1]).unwrap();
        net.kill(idxs[3]).unwrap();
        let mut rng = oscar_types::SeedTree::new(1).rng();
        for _ in 0..100 {
            let p = net.random_live_peer(&mut rng).unwrap();
            assert!(net.is_alive(p));
        }
    }

    #[test]
    fn the_rank_table_is_select_rank_for_rank() {
        fn agrees(net: &Network) {
            let select: Vec<PeerIdx> = (0..net.live_count())
                .map(|r| net.live_peer_by_rank(r))
                .collect();
            let ranks = net.live_ranks();
            assert_eq!(ranks.by_rank, select);
            for p in (0..net.len() as u32).map(PeerIdx) {
                let want = select.iter().position(|&q| q == p);
                let want = want.map_or(LiveRanks::NOT_LIVE, |r| r as u32);
                assert_eq!(ranks.rank_of[p.as_usize()], want, "{p:?}");
            }
        }
        for fm in [FaultModel::StabilizedRing, FaultModel::UnstabilizedRing] {
            // n = 0, 1 and 2, and a ring emptied by a kill and a departure.
            let mut net = Network::new(fm);
            agrees(&net);
            let a = net.add_peer(Id::new(500), caps(4)).unwrap();
            agrees(&net);
            let b = net.add_peer(Id::new(100), caps(4)).unwrap();
            agrees(&net);
            net.kill(b).unwrap();
            agrees(&net);
            net.depart(a).unwrap();
            agrees(&net);
            net.add_peer(Id::new(300), caps(4)).unwrap();
            agrees(&net);

            let mut rng = oscar_types::SeedTree::new(9).rng();
            for _ in 0..60 {
                let id = rng.gen_range(1 << 20..u64::MAX - (1 << 20));
                net.add_peer(Id::new(id), caps(4)).unwrap();
            }
            agrees(&net);
            // The lowest-id peer goes, by crash and then by departure.
            net.kill(net.live_peer_by_rank(0)).unwrap();
            agrees(&net);
            net.depart(net.live_peer_by_rank(0)).unwrap();
            agrees(&net);
            net.kill(net.live_peer_by_rank(net.live_count() - 1))
                .unwrap();
            agrees(&net);
            for k in 0..20 {
                let victim = net.live_peer_by_rank(rng.gen_range(0..net.live_count()));
                if k % 2 == 0 {
                    net.kill(victim).unwrap();
                } else {
                    net.depart(victim).unwrap();
                }
                agrees(&net);
            }
            // Later joins below the current minimum and above the maximum.
            for id in [7, u64::MAX - 3, 0, u64::MAX] {
                net.add_peer(Id::new(id), caps(4)).unwrap();
                agrees(&net);
            }
            net.kill(net.live_peer_by_rank(0)).unwrap();
            agrees(&net);
        }
    }

    #[test]
    fn live_ring_neighborhood_walks_both_ways_live_only() {
        let (mut net, idxs) = net_with(&[10, 20, 30, 40, 50, 60]);
        // k = 2 around 30: successors 40, 50; predecessors 20, 10.
        assert_eq!(
            net.live_ring_neighborhood(idxs[2], 2),
            vec![idxs[3], idxs[4], idxs[1], idxs[0]]
        );
        // Dead peers are skipped: kill 40, the successor side walks on.
        net.kill(idxs[3]).unwrap();
        assert_eq!(
            net.live_ring_neighborhood(idxs[2], 2),
            vec![idxs[4], idxs[5], idxs[1], idxs[0]]
        );
        // k exceeding the ring dedups and never includes the peer itself:
        // 5 live peers -> at most the 4 others.
        let hood = net.live_ring_neighborhood(idxs[2], 10);
        assert_eq!(hood.len(), 4);
        assert!(!hood.contains(&idxs[2]));
        assert!(!hood.contains(&idxs[3]), "corpse excluded");
        // Singleton ring: no neighbours at all.
        let (single, s_idxs) = net_with(&[7]);
        assert!(single.live_ring_neighborhood(s_idxs[0], 3).is_empty());
    }

    #[test]
    fn depart_leaves_no_dangling_links() {
        let (mut net, idxs) = net_with(&[10, 20, 30, 40]);
        net.try_link(idxs[0], idxs[2]).unwrap(); // 10 -> 30
        net.try_link(idxs[2], idxs[3]).unwrap(); // 30 -> 40
        net.depart(idxs[2]).unwrap();
        // source dropped its link (vs kill, which leaves it dangling)
        assert!(!net.peer(idxs[0]).long_out.contains(&idxs[2]));
        // target's budget released
        assert_eq!(net.peer(idxs[3]).in_degree(), 0);
        // gone from both ring views
        assert!(!net.ring_all.contains(Id::new(30)));
        assert!(!net.ring_live().contains(Id::new(30)));
        net.set_fault_model(FaultModel::UnstabilizedRing);
        assert_eq!(
            net.ring_successor(idxs[1]),
            Some(idxs[3]),
            "all-list re-stitched"
        );
        // departing twice errors
        assert!(net.depart(idxs[2]).is_err());
    }

    #[test]
    fn check_invariants_passes_legal_states_and_names_each_violation() {
        // Every legal mutation, dangling link and reused id included.
        let (mut net, idxs) = net_with(&[10, 20, 30, 40, 50]);
        net.try_link(idxs[0], idxs[2]).unwrap();
        net.try_link(idxs[0], idxs[3]).unwrap();
        net.try_link(idxs[1], idxs[2]).unwrap();
        net.kill(idxs[2]).unwrap(); // 10 and 20 keep dangling links to it
        net.depart(idxs[4]).unwrap();
        net.add_peer(Id::new(50), caps(4)).unwrap();
        // Link changes edit the walk cache in place.
        net.try_link(idxs[3], idxs[0]).unwrap();
        net.try_link(idxs[1], idxs[0]).unwrap();
        assert!(net.unlink(idxs[1], idxs[0]));
        assert_eq!(net.check_invariants(), Ok(()));

        let broken = |mutate: fn(&mut Network), expect: &str| {
            let mut bad = net.clone();
            mutate(&mut bad);
            let err = bad.check_invariants().unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        };
        broken(|n| n.peers[0].caps.rho_out = 1, "exceeds its caps");
        broken(|n| n.peers[1].long_out.push(PeerIdx(1)), "links to itself");
        broken(|n| n.peers[0].long_out.push(PeerIdx(3)), "twice");
        broken(|n| n.peers[3].long_in.clear(), "no reverse entry");
        broken(|n| n.peers[1].long_in.push(PeerIdx(3)), "no forward entry");
        broken(
            |n| assert!(n.ring_live.remove(Id::new(40))),
            "not on the live ring",
        );
        // The departed peer's id is back on the ring under a new index.
        broken(|n| n.peers[4].alive = true, "flagged alive");
        // Peer 0's long links: to 30 (dangling) and to 40.
        broken(
            |n| run_mut(&mut n.out_links, 0).0[1] = Id::new(41),
            "mirror",
        );
        broken(|n| n.out_links.swap_remove(PeerIdx(0), 0), "mirror");
        // Peer 3's entry: keys [10, 10, 20, 50] (peer 0 by its in- and
        // out-link, the ring neighbours 20 and the new 50).
        broken(
            |n| run_mut(&mut n.walk, 3).0.reverse(),
            "keys are not sorted",
        );
        broken(
            |n| run_mut(&mut n.walk, 3).1[0] = PeerIdx(1),
            "adjacency is out of date",
        );
        broken(|n| n.walk.clear(PeerIdx(3)), "adjacency is out of date");
    }

    #[test]
    fn a_hub_outgrows_its_slabs_and_every_table_stays_in_step() {
        // Caps of 200 reserve 2 + 64 + 64 walk slots and 64 mirror slots,
        // so everyone linking to the hub and the hub to everyone move both
        // of its slabs to the arenas' end, more than once.
        let mut net = Network::new(FaultModel::StabilizedRing);
        let peers: Vec<PeerIdx> = (1..=250u64)
            .map(|i| net.add_peer(Id::new(i << 50), caps(200)).unwrap())
            .collect();
        let hub = peers[0];
        for &p in &peers[1..] {
            let _ = net.try_link(p, hub);
            let _ = net.try_link(hub, p);
        }
        assert_eq!(
            (net.peer(hub).in_degree(), net.peer(hub).out_degree()),
            (200, 200)
        );
        assert!(net.out_links.per_peer[0].cap >= 200);
        assert!(net.walk.per_peer[0].cap >= 402);
        assert_eq!(net.walk_degree(hub, None), 402);
        assert_eq!(net.check_invariants(), Ok(()));
        // A debug build holds every hop, the hub's relocated mirror
        // included, to the constrained scan over `long_out`.
        let mut rng = oscar_types::SeedTree::new(3).rng();
        let workload = oscar_keydist::QueryWorkload::UniformPeers;
        let policy = crate::routing::RoutePolicy::default();
        let stats = crate::routing::run_query_batch(&net, &workload, 300, &policy, &mut rng);
        assert_eq!(stats.success_rate, 1.0);
        // Tearing down after the moves.
        for &p in &peers[1..40] {
            net.unlink(hub, p);
        }
        net.kill(peers[60]).unwrap();
        net.depart(peers[70]).unwrap();
        net.unlink_long_out(peers[80]);
        assert_eq!(net.check_invariants(), Ok(()));
        net.kill(hub).unwrap();
        assert_eq!(net.check_invariants(), Ok(()));

        // Unbounded caps reserve the clamped slabs, not gigabytes.
        let before = (net.walk.ids.len(), net.out_links.ids.len());
        net.add_peer(Id::new(7), caps(u32::MAX)).unwrap();
        let after = (net.walk.ids.len(), net.out_links.ids.len());
        assert_eq!((after.0 - before.0, after.1 - before.1), (130, 64));
    }

    /// Peer `p`'s run in `slabs`, for writing a broken state.
    fn run_mut(slabs: &mut Slabs, p: u32) -> (&mut [Id], &mut [PeerIdx]) {
        let r = slabs.per_peer[p as usize].range();
        (&mut slabs.ids[r.clone()], &mut slabs.idxs[r])
    }

    #[test]
    fn network_is_send_and_sync() {
        // Parallel tasks read one shared network, crediting its atomic
        // counters, or clone it; a field that is not `Sync` (a `Cell`
        // counter, say) would take that away, and this stops compiling.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
    }

    #[test]
    fn departed_identifier_can_rejoin() {
        let (mut net, idxs) = net_with(&[10, 20, 30]);
        net.depart(idxs[1]).unwrap();
        let again = net.add_peer(Id::new(20), caps(4)).unwrap();
        assert_ne!(again, idxs[1], "rejoin gets a fresh index");
        assert_eq!(net.live_owner_of(Id::new(20)), Some(again));
    }

    #[test]
    fn cached_walk_neighbors_match_uncached() {
        let (mut net, idxs) = net_with(&[10, 20, 30, 40, 50, 60]);
        net.try_link(idxs[0], idxs[3]).unwrap();
        net.try_link(idxs[4], idxs[0]).unwrap();
        net.kill(idxs[3]).unwrap(); // dangling long_out at idxs[0]
        let arcs = [
            None,
            Some(Arc::between(Id::new(15), Id::new(45))),
            Some(Arc::between(Id::new(45), Id::new(15))), // wrapping
        ];
        for p in net.all_peers() {
            if !net.is_alive(p) {
                continue;
            }
            for arc in &arcs {
                let mut cached = Vec::new();
                let deg = net.walk_neighbors_restricted(p, arc.as_ref(), &mut cached);
                let mut plain = Vec::new();
                net.walk_neighbors_into(p, &mut plain);
                plain.retain(|&c| {
                    net.is_alive(c) && arc.as_ref().is_none_or(|a| a.contains(net.peer(c).id))
                });
                // Same multiset (the cached order is identifier-sorted).
                let mut cached_sorted = cached.clone();
                cached_sorted.sort_unstable();
                plain.sort_unstable();
                assert_eq!(cached_sorted, plain, "peer {p:?} arc {arc:?}");
                // Degree and picks agree with the materialised list.
                assert_eq!(net.walk_degree(p, arc.as_ref()), deg);
                for (k, &c) in cached.iter().enumerate() {
                    assert_eq!(net.walk_pick(p, arc.as_ref(), k), c);
                }
            }
        }
    }

    #[test]
    fn unlinking_a_ring_neighbour_takes_one_copy_out_of_the_cached_multiset() {
        // 20 is 10's ring successor *and* its long-link target: two copies
        // in the walk adjacency, and the unlink must remove exactly one.
        let (mut net, idxs) = net_with(&[10, 20, 30, 40]);
        let (a, b) = (idxs[0], idxs[1]);
        net.try_link(a, b).unwrap();
        let mut buf = Vec::new();
        net.walk_neighbors_restricted(a, None, &mut buf);
        assert_eq!(buf, vec![b, b, idxs[3]]);
        assert!(net.unlink(a, b));
        net.walk_neighbors_restricted(a, None, &mut buf);
        assert_eq!(buf, vec![b, idxs[3]], "the ring role stays");
        net.walk_neighbors_restricted(b, None, &mut buf);
        assert_eq!(buf, vec![a, idxs[2]]);
        assert_eq!(net.check_invariants(), Ok(()));
    }

    mod block_count_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The block count is `partition_point` on every sorted key
            /// slice: lengths 0–130 cross several 8-key block edges, the
            /// keys are 48 odd values so they repeat (a neighbour can hold
            /// two roles), and `x` runs over every point from below the
            /// smallest key through each key and gap to above the largest.
            #[test]
            fn block_count_is_partition_point(raw in prop::collection::vec(0u64..48, 0..131)) {
                let mut ids: Vec<Id> = raw.iter().map(|&v| Id::new(2 * v + 1)).collect();
                ids.sort_unstable();
                for x in (0..=97).chain([u64::MAX]).map(Id::new) {
                    let want = ids.partition_point(|&k| k < x);
                    prop_assert_eq!(count_below(&ids, x), want, "x {:?}, {} keys", x, ids.len());
                }
            }
        }
    }

    mod walk_cache_props {
        use super::*;
        use proptest::prelude::*;

        /// Uncached reference for one peer's restricted walk adjacency,
        /// sorted for multiset comparison.
        fn plain(net: &Network, p: PeerIdx, arc: Option<&Arc>) -> Vec<PeerIdx> {
            let mut buf = Vec::new();
            net.walk_neighbors_into(p, &mut buf);
            buf.retain(|&c| net.is_alive(c) && arc.is_none_or(|a| a.contains(net.peer(c).id)));
            buf.sort_unstable();
            buf
        }

        proptest! {
            /// The membership rebuilds and the in-place link edits must
            /// keep every live peer's cached entry current through
            /// arbitrary interleavings of joins, crashes, departures,
            /// links, unlinks and view flips: a run a mutation should have
            /// rebuilt, or a wrong edit, fails the comparison after that
            /// op.
            #[test]
            fn cache_matches_uncached_under_random_ops(
                ops in prop::collection::vec((any::<u64>(), 0u8..10), 1..80),
                a: u64,
                b: u64,
            ) {
                let mut net = Network::new(FaultModel::StabilizedRing);
                let mut added: Vec<PeerIdx> = Vec::new();
                let arc = Arc::between(Id::new(a), Id::new(b));
                let mut buf = Vec::new();
                for (x, op) in ops {
                    let pick = |added: &[PeerIdx], salt: u64| {
                        added[((x ^ salt) % added.len() as u64) as usize]
                    };
                    match op {
                        0..=2 => {
                            if let Ok(p) = net.add_peer(Id::new(x), DegreeCaps::symmetric(4)) {
                                added.push(p);
                            }
                        }
                        3 if !added.is_empty() => {
                            let _ = net.kill(pick(&added, 1));
                        }
                        4 if !added.is_empty() => {
                            let _ = net.depart(pick(&added, 2));
                        }
                        5 | 6 if !added.is_empty() => {
                            let _ = net.try_link(pick(&added, 3), pick(&added, 5));
                        }
                        7 if !added.is_empty() => {
                            net.unlink_long_out(pick(&added, 7));
                        }
                        8 if !added.is_empty() => {
                            let from = pick(&added, 9);
                            if let Some(&to) = net.peer(from).long_out.first() {
                                prop_assert!(net.unlink(from, to));
                            }
                        }
                        9 => net.set_fault_model(match net.fault_model() {
                            FaultModel::StabilizedRing => FaultModel::UnstabilizedRing,
                            FaultModel::UnstabilizedRing => FaultModel::StabilizedRing,
                        }),
                        _ => {}
                    }
                    prop_assert_eq!(net.check_invariants(), Ok(()));
                    for &p in &added {
                        if !net.is_alive(p) {
                            continue;
                        }
                        for arc in [None, Some(&arc)] {
                            let deg = net.walk_neighbors_restricted(p, arc, &mut buf);
                            prop_assert_eq!(deg, net.walk_degree(p, arc));
                            for (k, &c) in buf.iter().enumerate() {
                                prop_assert_eq!(net.walk_pick(p, arc, k), c);
                            }
                            buf.sort_unstable();
                            prop_assert_eq!(&buf, &plain(&net, p, arc), "peer {:?}", p);
                        }
                    }
                }
            }

            /// The walk's runs and pick (`walk_degree` + `walk_pick`) list
            /// exactly what a collect-and-filter finds, in clockwise order
            /// from the arc's start, for the full and the empty arc and for
            /// arcs with free ends and with ends on peer identifiers,
            /// wrapping or not.
            #[test]
            fn walk_runs_match_collect_and_filter(
                ids in prop::collection::vec(any::<u64>(), 2..40),
                links in prop::collection::vec((any::<u64>(), any::<u64>()), 0..120),
                kills in prop::collection::vec(any::<u64>(), 0..6),
                ends in prop::collection::vec((any::<u64>(), any::<u64>()), 1..6),
            ) {
                let mut net = Network::new(FaultModel::StabilizedRing);
                let peers: Vec<PeerIdx> = ids
                    .iter()
                    .filter_map(|&x| net.add_peer(Id::new(x), DegreeCaps::symmetric(8)).ok())
                    .collect();
                let pick = |x: u64| peers[(x % peers.len() as u64) as usize];
                for (a, b) in links {
                    let _ = net.try_link(pick(a), pick(b));
                }
                for k in kills {
                    let _ = net.kill(pick(k));
                }
                let mut arcs = vec![Arc::FULL, Arc::EMPTY];
                for (a, b) in ends {
                    arcs.push(Arc::between(Id::new(a), Id::new(b)));
                    arcs.push(Arc::between(net.peer(pick(a)).id, net.peer(pick(b)).id));
                }
                let live: Vec<PeerIdx> = net.live_peers().collect();
                for p in live {
                    for arc in &arcs {
                        let mut want = Vec::new();
                        net.walk_neighbors_into(p, &mut want);
                        want.retain(|&c| net.is_alive(c) && arc.contains(net.peer(c).id));
                        want.sort_by_key(|&c| arc.start().cw_dist(net.peer(c).id));
                        let deg = net.walk_degree(p, Some(arc));
                        let got: Vec<PeerIdx> =
                            (0..deg).map(|k| net.walk_pick(p, Some(arc), k)).collect();
                        prop_assert_eq!(got, want, "peer {:?} arc {:?}", p, arc);
                    }
                }
            }
        }
    }

    mod linked_ring_props {
        use super::*;
        use proptest::prelude::*;

        /// Oracle check: the O(1) ring pointers must always agree with the
        /// authoritative sorted rings, for every live peer, in both views.
        fn check_pointers(net: &mut Network) -> std::result::Result<(), TestCaseError> {
            let live: Vec<PeerIdx> = net.live_peers().collect();
            for &p in &live {
                let id = net.peer(p).id;
                net.set_fault_model(FaultModel::StabilizedRing);
                let s = net.ring_successor(p).unwrap();
                prop_assert_eq!(
                    net.peer(s).id,
                    net.ring_live().successor_of(id).unwrap(),
                    "live successor pointer diverged"
                );
                let q = net.ring_predecessor(p).unwrap();
                prop_assert_eq!(
                    net.peer(q).id,
                    net.ring_live().predecessor_of(id).unwrap(),
                    "live predecessor pointer diverged"
                );
                net.set_fault_model(FaultModel::UnstabilizedRing);
                let s = net.ring_successor(p).unwrap();
                prop_assert_eq!(
                    net.peer(s).id,
                    net.ring_all.successor_of(id).unwrap(),
                    "all successor pointer diverged"
                );
            }
            net.set_fault_model(FaultModel::StabilizedRing);
            Ok(())
        }

        proptest! {
            #[test]
            fn pointers_match_rings_under_random_ops(
                ops in prop::collection::vec((any::<u64>(), 0u8..4), 1..120),
            ) {
                let mut net = Network::new(FaultModel::StabilizedRing);
                let mut added: Vec<PeerIdx> = Vec::new();
                for (x, op) in ops {
                    match op {
                        // add (dedup happens naturally via error)
                        0 | 1 => {
                            if let Ok(p) = net.add_peer(Id::new(x), DegreeCaps::symmetric(4)) {
                                added.push(p);
                            }
                        }
                        // crash some existing peer
                        2 if !added.is_empty() => {
                            let v = added[(x % added.len() as u64) as usize];
                            let _ = net.kill(v);
                        }
                        // graceful departure
                        _ if !added.is_empty() => {
                            let v = added[(x % added.len() as u64) as usize];
                            let _ = net.depart(v);
                        }
                        _ => {}
                    }
                }
                check_pointers(&mut net)?;
            }
        }
    }
}
