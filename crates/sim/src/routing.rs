//! Greedy clockwise routing with dead-link probing and backtracking.
//!
//! Oscar routes like Chord: a query for key `k` travels clockwise, each
//! peer forwarding to its neighbour that makes the most clockwise progress
//! without overshooting the owner (the first live peer at-or-after `k`).
//! Ring links guarantee progress; long-range links provide the
//! `O(log²N)` shortcuts.
//!
//! Under churn the paper modifies the algorithm: neighbours may be dead, a
//! forwarding attempt to a dead neighbour is discovered (timeout) and
//! counted as **wasted traffic**, and if a peer has no live neighbour that
//! makes progress the query **backtracks** to the previous peer — also
//! wasted traffic. Search cost = productive hops + wasted messages.

use crate::churn::FaultModel;
use crate::metrics::MsgKind;
use crate::network::{LiveRanks, Network};
use crate::peer::PeerIdx;
use oscar_keydist::QueryWorkload;
use oscar_protocol::logic;
use oscar_types::Id;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

/// Routing parameters.
#[derive(Copy, Clone, Debug)]
pub struct RoutePolicy {
    /// Give-up bound on total messages per query (safety net; fault-free
    /// routing never comes near it).
    pub max_messages: u32,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy { max_messages: 4096 }
    }
}

/// Outcome of routing one query; the default is a query that has not
/// moved (no success, no messages, no destination).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Query reached the live owner of the key.
    pub success: bool,
    /// Productive forwarding hops.
    pub hops: u32,
    /// Wasted messages: probes of dead neighbours + backtrack moves.
    pub wasted: u32,
    /// Number of backtrack moves (subset of `wasted`).
    pub backtracks: u32,
    /// The live owner, when the query reached it.
    pub dest: Option<PeerIdx>,
}

impl RouteOutcome {
    /// The paper's search cost: every message the query generated.
    pub fn cost(&self) -> u32 {
        self.hops + self.wasted
    }
}

/// Routes a query from `src` to the live owner of `key`.
///
/// The simulation-level success criterion is oracle-checked (reaching
/// [`Network::live_owner_of`]); the *routing decisions* only use knowledge
/// a real peer has: its own neighbour list and the probe results the query
/// accumulated.
pub fn route_to_owner(net: &Network, src: PeerIdx, key: Id, policy: &RoutePolicy) -> RouteOutcome {
    let Some(owner) = net.live_owner_of(key) else {
        return RouteOutcome::default(); // empty live ring: nothing to reach
    };
    route_observed(net, src, owner, policy, &mut Carried::default(), None, None)
}

/// What a query learns on its way — the peers it found dead, the peers
/// it found to be dead ends, its path. A batch keeps one and
/// [`route_observed`] clears it per query, so the sets are allocated once
/// per batch, not per query.
#[derive(Default)]
struct Carried {
    known_dead: HashSet<PeerIdx>,
    exhausted: HashSet<PeerIdx>,
    stack: Vec<PeerIdx>,
}

impl Carried {
    /// Forgets the last query; keeps the allocations.
    fn clear(&mut self) {
        self.known_dead.clear();
        self.exhausted.clear();
        self.stack.clear();
    }

    /// Whether the query may no longer pick `c`: it probed `c` dead, or
    /// backtracked out of `c` as a dead end.
    fn excludes(&self, c: PeerIdx) -> bool {
        self.exhausted.contains(&c) || self.known_dead.contains(&c)
    }
}

/// Routes a query from `src` to `owner`, the live owner of its key, and
/// additionally reports, into `probers`, every peer that probed a dead
/// neighbour along the way (possibly repeated) — the peers that just
/// *detected a failure* and, under a probe-triggered maintenance policy,
/// would now repair themselves.
///
/// The caller names the owner: [`route_to_owner`] looks it up once, a
/// batch already holds it (its key is the id of the live peer it drew).
/// A batch also passes its [`LiveRanks`], which turn a stabilised hop's
/// successor list into rank arithmetic ([`rank_best`]); the picks are
/// those of the scan without them. `carried` is cleared first, so one
/// value serves query after query.
fn route_observed(
    net: &Network,
    src: PeerIdx,
    owner: PeerIdx,
    policy: &RoutePolicy,
    carried: &mut Carried,
    ranks: Option<&LiveRanks>,
    mut probers: Option<&mut Vec<PeerIdx>>,
) -> RouteOutcome {
    let mut out = RouteOutcome::default();
    carried.clear();
    let owner_id = net.peer(owner).id;
    // Only the stabilised successor lists are runs of the live ring; the
    // unstabilised ones hold corpses, and are left to the scan.
    let ring = ranks
        .filter(|_| net.fault_model() == FaultModel::StabilizedRing)
        .map(|r| (r, r.rank_of[owner.as_usize()] as usize));
    let mut current = src;

    'hop: loop {
        // Success check first: arriving at the owner costs no extra
        // message, so a query that lands exactly on the budget succeeds.
        if current == owner {
            out.success = true;
            out.dest = Some(owner);
            return out;
        }
        if out.cost() >= policy.max_messages {
            return out;
        }
        let cur_potential = net.peer(current).id.cw_dist(owner_id);

        // The pick: the neighbour with the least clockwise distance to the
        // owner among those that beat the current peer's (strict progress)
        // and are neither known dead nor exhausted. With the batch's ranks
        // the unconstrained best is found first, without reading the
        // exclusions; distinct peers have distinct potentials, so when it
        // is allowed it is the pick. Otherwise the constrained scan, the
        // reference, picks.
        let mut pick = match ring {
            Some((ranks, owner_rank)) => {
                let best = rank_best(net, ranks, current, owner, owner_rank, owner_id);
                let pick = if best == current {
                    None // nothing makes progress: a dead end
                } else if carried.excludes(best) {
                    constrained_pick(net, current, owner_id, cur_potential, carried)
                } else {
                    Some(best)
                };
                debug_assert_eq!(
                    pick,
                    constrained_pick(net, current, owner_id, cur_potential, carried),
                    "the hop's pick from {current:?} toward {owner:?} is not the scan's"
                );
                pick
            }
            None => constrained_pick(net, current, owner_id, cur_potential, carried),
        };
        // A dead pick costs one probe and joins `known_dead`; the rescan
        // then picks the next best, so the probe order is the
        // sort-then-scan order exactly, and a healthy hop reads no
        // exclusion but its pick's.
        while let Some(c) = pick {
            if out.cost() >= policy.max_messages {
                return out; // budget exhausted mid-probe sequence
            }
            if !net.is_alive(c) {
                // Probe timed out: wasted traffic, remember the corpse.
                out.wasted += 1;
                carried.known_dead.insert(c);
                if let Some(obs) = probers.as_deref_mut() {
                    obs.push(current);
                }
                pick = constrained_pick(net, current, owner_id, cur_potential, carried);
                continue;
            }
            // Forward.
            out.hops += 1;
            carried.stack.push(current);
            current = c;
            continue 'hop;
        }

        // Dead end: backtrack (wasted message back along the path).
        carried.exhausted.insert(current);
        match carried.stack.pop() {
            Some(prev) => {
                if out.cost() >= policy.max_messages {
                    return out; // no budget left for the backtrack message
                }
                out.wasted += 1;
                out.backtracks += 1;
                current = prev;
            }
            None => return out, // nowhere left to go
        }
    }
}

/// The unconstrained best of `current`'s routing neighbours on the
/// stabilised ring, from the batch's ranks: the one nearest the owner, or
/// `current` itself when none makes progress; exclusions are not read.
/// With r the rank of `current`, o the owner's, n live peers,
/// d = (o − r) mod n and L = min(`succ_list_len`, n − 1), the successor
/// list is ranks
/// r + 1 ..= r + L, the predecessor rank r − 1, and a peer makes progress
/// iff it lies in ranks r + 1 ..= o. So the owner is the best when d ≤ L
/// (a successor) or d = n − 1 (the predecessor, which makes progress in no
/// other case). Otherwise the ring's best is rank r + L, and the long
/// links are folded in from [`Network::long_out_links`], which hold each
/// target's id beside it: the hop reads neither `long_out` nor a
/// target's `Peer`. `current` must be live: sources are drawn live,
/// forwards go to live peers only, and a backtrack returns to a peer the
/// query already left.
fn rank_best(
    net: &Network,
    ranks: &LiveRanks,
    current: PeerIdx,
    owner: PeerIdx,
    owner_rank: usize,
    owner_id: Id,
) -> PeerIdx {
    let n = ranks.by_rank.len();
    let r = ranks.rank_of[current.as_usize()] as usize;
    debug_assert!(r < n && owner_rank < n, "only live peers route");
    let d = if owner_rank >= r {
        owner_rank - r
    } else {
        owner_rank + n - r
    };
    let l = net.succ_list_len().min(n - 1);
    if d <= l || d == n - 1 {
        return owner;
    }
    let ring = ranks.by_rank[if r + l >= n { r + l - n } else { r + l }];
    let mut best = (net.peer(ring).id.cw_dist(owner_id), ring);
    let (ids, targets) = net.long_out_links(current);
    for (&id, &c) in ids.iter().zip(targets) {
        // A select, not a branch: which link is nearer is close to a coin
        // flip per link.
        let p = id.cw_dist(owner_id);
        best = std::hint::select_unpredictable(p < best.0, (p, c), best);
    }
    best.1
}

/// The reference pick, in one in-place pass: the neighbour nearest the
/// owner among those that make strict progress and that `carried` does
/// not exclude.
fn constrained_pick(
    net: &Network,
    current: PeerIdx,
    owner_id: Id,
    cur_potential: u64,
    carried: &Carried,
) -> Option<PeerIdx> {
    let mut best: (u64, Option<PeerIdx>) = (cur_potential, None);
    net.for_each_routing_neighbor(current, |c| {
        // Shared kernel: the same progress ranking drives the distributed
        // PeerMachine's per-hop forwarding decision.
        if let Some(p) = logic::progress_toward(net.peer(c).id, owner_id, best.0) {
            if !carried.excludes(c) {
                best = (p, Some(c));
            }
        }
    });
    best.1
}

/// Aggregate statistics over a batch of queries (one figure data point).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryBatchStats {
    /// Number of queries issued: all that were asked for, or none when
    /// no peer is live.
    pub queries: usize,
    /// Mean search cost (hops + wasted), successful queries only.
    pub mean_cost: f64,
    /// Mean productive hops, successful queries only (pairs with
    /// `mean_cost`).
    pub mean_hops: f64,
    /// Mean wasted messages over **all** issued queries, failed included —
    /// the paper's wasted-traffic signal. A failed query's probes and
    /// backtracks are traffic the network paid for; dropping them would
    /// make heavy churn look cheaper the more queries it kills.
    pub mean_wasted: f64,
    /// Fraction of issued queries that reached the owner.
    pub success_rate: f64,
    /// Standard error of `mean_cost` (`s / √m` over the m successful
    /// queries) — the error bar that makes sublinear
    /// [`QueryBudget`](crate::churn_engine::QueryBudget) batches
    /// honest about their precision. Zero with fewer than two samples.
    pub se_cost: f64,
    /// Maximum observed cost among successful queries.
    pub max_cost: u32,
    /// Median cost, successful queries only: the nearest-rank value, the
    /// ⌈m/2⌉-th smallest of the m delivered costs.
    pub p50_cost: f64,
    /// 95th-percentile cost, successful queries only: the ⌈0.95·m⌉-th
    /// smallest delivered cost.
    pub p95_cost: f64,
}

impl QueryBatchStats {
    /// The statistics of a batch of `issued` queries, from the
    /// `(delivered, hops, wasted)` of each query that finished: wasted
    /// traffic over all `issued` (a query that never reported counts as
    /// failed with no observed waste), cost over the delivered ones. It
    /// keeps each delivered cost (4 bytes a query) and sorts them once, so
    /// every statistic is exact and independent of the order `outcomes`
    /// arrive in. The oracle batch runner, the machine fleet and the fault
    /// sweep all summarise their batches here.
    pub fn of(issued: usize, outcomes: impl IntoIterator<Item = (bool, u32, u32)>) -> Self {
        let mut costs: Vec<u32> = Vec::new();
        let (mut hops_sum, mut wasted_sum) = (0u64, 0u64);
        for (delivered, hops, wasted) in outcomes {
            // Waste is traffic whether or not the query delivered.
            wasted_sum += wasted as u64;
            if delivered {
                hops_sum += hops as u64;
                costs.push(hops + wasted);
            }
        }
        costs.sort_unstable();
        let mut stats = QueryBatchStats {
            queries: issued,
            success_rate: costs.len() as f64 / issued.max(1) as f64,
            mean_wasted: wasted_sum as f64 / issued.max(1) as f64,
            ..Default::default()
        };
        let Some(&max_cost) = costs.last() else {
            return stats;
        };
        // Integer sums: exact in f64, whatever the fold order.
        let sum = costs.iter().map(|&c| c as u64).sum::<u64>() as f64;
        let sumsq = costs.iter().map(|&c| c as u64 * c as u64).sum::<u64>() as f64;
        let m = costs.len() as f64;
        let nearest_rank = |p: f64| costs[(m * p).ceil() as usize - 1] as f64;
        stats.mean_cost = sum / m;
        stats.mean_hops = hops_sum as f64 / m;
        stats.max_cost = max_cost;
        stats.p50_cost = nearest_rank(0.50);
        stats.p95_cost = nearest_rank(0.95);
        if costs.len() > 1 {
            let var = ((sumsq - sum * sum / m) / (m - 1.0)).max(0.0);
            stats.se_cost = (var / m).sqrt();
        }
        stats
    }
}

/// Issues `n` queries from uniformly random live sources with targets
/// drawn from `workload`, and aggregates the costs.
///
/// Metrics are credited to the network ([`MsgKind::QueryHop`] /
/// [`MsgKind::QueryWasted`]) once, when the batch ends.
pub fn run_query_batch(
    net: &Network,
    workload: &QueryWorkload,
    n: usize,
    policy: &RoutePolicy,
    rng: &mut SmallRng,
) -> QueryBatchStats {
    run_batch_observed(net, workload, n, policy, rng, None)
}

/// [`run_query_batch`] that additionally collects, into `corpse_probers`,
/// the distinct peers that probed a dead neighbour during the batch —
/// sorted by peer index, so the set is deterministic for a given network
/// and RNG stream. The continuous-churn engine's `OnProbe` repair policy
/// turns each of them into a scheduled rewire.
pub fn run_query_batch_observed(
    net: &Network,
    workload: &QueryWorkload,
    n: usize,
    policy: &RoutePolicy,
    rng: &mut SmallRng,
    corpse_probers: &mut Vec<PeerIdx>,
) -> QueryBatchStats {
    let stats = run_batch_observed(net, workload, n, policy, rng, Some(corpse_probers));
    corpse_probers.sort_unstable();
    corpse_probers.dedup();
    stats
}

fn run_batch_observed(
    net: &Network,
    workload: &QueryWorkload,
    n: usize,
    policy: &RoutePolicy,
    rng: &mut SmallRng,
    mut probers: Option<&mut Vec<PeerIdx>>,
) -> QueryBatchStats {
    let n_live = net.live_count();
    if n_live == 0 {
        return QueryBatchStats::of(0, []); // nothing can be issued
    }
    let targets = workload.sampler(n_live);
    // The draws of `random_live_peer` and `live_peer_by_rank`, from the
    // same stream, read off one rank table instead of two treap descents;
    // the hops read the same tables.
    let ranks = net.live_ranks();
    let by_rank = &ranks.by_rank;
    let mut carried = Carried::default();
    let mut outcomes = Vec::with_capacity(n);
    let (mut hops, mut wasted) = (0, 0);
    for _ in 0..n {
        let src = by_rank[rng.gen_range(0..n_live)];
        // The key is the drawn live peer's own id, so that peer owns it.
        let owner = by_rank[targets.draw(rng)];
        let outcome = route_observed(
            net,
            src,
            owner,
            policy,
            &mut carried,
            Some(&ranks),
            probers.as_deref_mut(),
        );
        hops += u64::from(outcome.hops);
        wasted += u64::from(outcome.wasted);
        outcomes.push((outcome.success, outcome.hops, outcome.wasted));
    }
    net.metrics.add(MsgKind::QueryHop, hops);
    net.metrics.add(MsgKind::QueryWasted, wasted);
    QueryBatchStats::of(outcomes.len(), outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_degree::DegreeCaps;
    use oscar_types::SeedTree;
    use rand::Rng;

    /// Evenly spaced ring; optional random long links.
    fn test_net(n: u64, extra: usize, seed: u64, fm: FaultModel) -> Network {
        let mut net = Network::new(fm);
        let step = u64::MAX / n;
        for i in 0..n {
            net.add_peer(Id::new(i * step), DegreeCaps::symmetric(64))
                .unwrap();
        }
        let mut rng = SeedTree::new(seed).rng();
        if extra > 0 {
            for i in 0..n {
                for _ in 0..extra {
                    let j = rng.gen_range(0..n);
                    let _ = net.try_link(PeerIdx(i as u32), PeerIdx(j as u32));
                }
            }
        }
        net
    }

    #[test]
    fn self_query_costs_nothing() {
        let net = test_net(8, 0, 1, FaultModel::StabilizedRing);
        let src = PeerIdx(3);
        let key = net.peer(src).id;
        let o = route_to_owner(&net, src, key, &RoutePolicy::default());
        assert!(o.success);
        assert_eq!(o.cost(), 0);
    }

    #[test]
    fn arriving_on_exactly_the_budget_is_a_success() {
        // One hop to the ring successor, budget of exactly one message:
        // arrival itself costs nothing, so the query must succeed.
        let net = test_net(8, 0, 1, FaultModel::StabilizedRing);
        let src = PeerIdx(3);
        let owner = net.ring_successor(src).unwrap();
        let key = net.peer(owner).id;
        let policy = RoutePolicy { max_messages: 1 };
        let o = route_to_owner(&net, src, key, &policy);
        assert!(o.success, "owner reached within budget must count");
        assert_eq!(o.dest, Some(owner));
        assert_eq!(o.cost(), 1);
    }

    #[test]
    fn ring_only_routing_reaches_owner() {
        let net = test_net(32, 0, 2, FaultModel::StabilizedRing);
        let policy = RoutePolicy::default();
        let mut rng = SeedTree::new(3).rng();
        for _ in 0..100 {
            let src = net.random_live_peer(&mut rng).unwrap();
            let key = Id::new(rng.gen());
            let o = route_to_owner(&net, src, key, &policy);
            assert!(o.success);
            assert_eq!(o.wasted, 0, "no faults, no waste");
            assert!(o.hops <= 32);
        }
    }

    #[test]
    fn long_links_cut_path_length() {
        let n = 256;
        let ring_only = test_net(n, 0, 4, FaultModel::StabilizedRing);
        let with_links = test_net(n, 6, 4, FaultModel::StabilizedRing);
        let policy = RoutePolicy::default();
        let mut rng = SeedTree::new(5).rng();
        let mut cost = |net: &Network| {
            let mut total = 0u64;
            for _ in 0..200 {
                let src = net.random_live_peer(&mut rng).unwrap();
                let key = Id::new(rng.gen());
                let o = route_to_owner(net, src, key, &policy);
                assert!(o.success);
                total += o.cost() as u64;
            }
            total
        };
        let slow = cost(&ring_only);
        let fast = cost(&with_links);
        assert!(
            fast * 3 < slow,
            "random long links should cut cost ≥3x: ring={slow}, links={fast}"
        );
    }

    #[test]
    fn routing_makes_clockwise_progress_only() {
        // Query the immediate predecessor: clockwise routing must walk
        // nearly the whole ring (it never steps backwards past the owner).
        let net = test_net(16, 0, 7, FaultModel::StabilizedRing);
        let src = PeerIdx(1);
        let key = net.peer(PeerIdx(0)).id;
        let o = route_to_owner(&net, src, key, &RoutePolicy::default());
        assert!(o.success);
        // owner is peer 0, one counter-clockwise step away but 15 clockwise
        // hops; the predecessor ring link gives exactly one hop though,
        // since pred(1) == 0 makes progress in clockwise potential.
        assert_eq!(o.hops, 1, "predecessor link is a valid progress step");
    }

    #[test]
    fn stabilized_churn_wastes_but_succeeds() {
        let mut net = test_net(128, 5, 8, FaultModel::StabilizedRing);
        let mut rng = SeedTree::new(9).rng();
        crate::churn::kill_fraction(&mut net, 0.33, &mut rng).unwrap();
        let policy = RoutePolicy::default();
        let mut any_waste = false;
        for _ in 0..300 {
            let src = net.random_live_peer(&mut rng).unwrap();
            // target a live peer's id so the owner is that peer
            let key = net.peer(net.random_live_peer(&mut rng).unwrap()).id;
            let o = route_to_owner(&net, src, key, &policy);
            assert!(o.success, "stabilised ring must always deliver");
            any_waste |= o.wasted > 0;
        }
        assert!(any_waste, "33% dead long-links should cause some waste");
    }

    #[test]
    fn observed_batch_reports_corpse_probers_without_changing_stats() {
        let mut net = test_net(128, 5, 8, FaultModel::StabilizedRing);
        let mut rng = SeedTree::new(9).rng();
        crate::churn::kill_fraction(&mut net, 0.33, &mut rng).unwrap();
        let policy = RoutePolicy::default();
        let workload = QueryWorkload::UniformPeers;

        // Same derived stream for both batches: the observer must be a
        // pure tap, not a behaviour change.
        let mut plain_rng = SeedTree::new(77).rng();
        let plain = run_query_batch(&net, &workload, 200, &policy, &mut plain_rng);
        let mut obs_rng = SeedTree::new(77).rng();
        let mut probers = Vec::new();
        let observed =
            run_query_batch_observed(&net, &workload, 200, &policy, &mut obs_rng, &mut probers);
        assert_eq!(plain, observed);

        // Waste happened, so somebody probed a corpse; each reported
        // prober is live and actually holds a dangling out-link or a
        // view-visible dead ring neighbour.
        assert!(observed.mean_wasted > 0.0);
        assert!(!probers.is_empty(), "corpse probes imply probers");
        let mut sorted = probers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(probers, sorted, "probers are sorted + deduplicated");
        let mut buf = Vec::new();
        for &p in &probers {
            assert!(net.is_alive(p), "a dead peer cannot probe");
            net.routing_neighbors_into(p, &mut buf);
            assert!(
                buf.iter().any(|&c| !net.is_alive(c)),
                "{p:?} reported as prober but has no dead routing neighbour"
            );
        }

        // A fault-free network never reports probers.
        let clean = test_net(64, 4, 12, FaultModel::StabilizedRing);
        let net = clean;
        let mut rng = SeedTree::new(13).rng();
        let mut none = Vec::new();
        run_query_batch_observed(&net, &workload, 100, &policy, &mut rng, &mut none);
        assert!(none.is_empty());
    }

    /// The hop loop as it was before it took its best candidate in place:
    /// collect, sort every candidate by potential, scan. The same logic
    /// but for an always-on prober list and `mid_probe`, which counts
    /// the returns from inside a probe sequence so the test can show its
    /// budgets reach that exit.
    fn route_sorted(
        net: &Network,
        src: PeerIdx,
        key: Id,
        policy: &RoutePolicy,
        probers: &mut Vec<PeerIdx>,
        mid_probe: &mut usize,
    ) -> RouteOutcome {
        let mut out = RouteOutcome::default();
        let Some(owner) = net.live_owner_of(key) else {
            return out;
        };
        let owner_id = net.peer(owner).id;
        if src == owner {
            out.success = true;
            out.dest = Some(owner);
            return out;
        }
        let mut known_dead: HashSet<PeerIdx> = HashSet::new();
        let mut exhausted: HashSet<PeerIdx> = HashSet::new();
        let mut stack: Vec<PeerIdx> = Vec::new();
        let mut current = src;
        let mut neighbors: Vec<PeerIdx> = Vec::with_capacity(64);
        let mut candidates: Vec<(u64, PeerIdx)> = Vec::with_capacity(64);
        loop {
            if current == owner {
                out.success = true;
                out.dest = Some(owner);
                return out;
            }
            if out.cost() >= policy.max_messages {
                return out;
            }
            let cur_potential = net.peer(current).id.cw_dist(owner_id);
            net.routing_neighbors_into(current, &mut neighbors);
            candidates.clear();
            for &c in neighbors.iter() {
                if exhausted.contains(&c) {
                    continue;
                }
                if let Some(p) = logic::progress_toward(net.peer(c).id, owner_id, cur_potential) {
                    candidates.push((p, c));
                }
            }
            candidates.sort_unstable_by_key(|&(p, _)| p);
            let mut forwarded = false;
            for &(_, c) in candidates.iter() {
                if known_dead.contains(&c) {
                    continue;
                }
                if out.cost() >= policy.max_messages {
                    *mid_probe += 1;
                    return out;
                }
                if !net.is_alive(c) {
                    out.wasted += 1;
                    known_dead.insert(c);
                    probers.push(current);
                    continue;
                }
                out.hops += 1;
                stack.push(current);
                current = c;
                forwarded = true;
                break;
            }
            if forwarded {
                continue;
            }
            exhausted.insert(current);
            match stack.pop() {
                Some(prev) => {
                    if out.cost() >= policy.max_messages {
                        return out;
                    }
                    out.wasted += 1;
                    out.backtracks += 1;
                    current = prev;
                }
                None => return out,
            }
        }
    }

    #[test]
    fn best_first_hop_loop_matches_the_sort_then_scan_loop() {
        let mut mid_probe = 0usize;
        let mut queries = 0usize;
        // One `Carried` for every query, as a batch keeps it.
        let mut carried = Carried::default();
        for fm in [FaultModel::StabilizedRing, FaultModel::UnstabilizedRing] {
            for (dead, seed) in [(0.3, 30u64), (0.5, 50)] {
                for succ in [1, 8] {
                    let mut net = test_net(300, 4, seed, fm);
                    net.set_succ_list_len(succ);
                    let mut rng = SeedTree::new(seed + 1).rng();
                    crate::churn::kill_fraction(&mut net, dead, &mut rng).unwrap();
                    for max_messages in [2, 3, 5, 8, 4096] {
                        let policy = RoutePolicy { max_messages };
                        for _ in 0..200 {
                            let src = net.random_live_peer(&mut rng).unwrap();
                            let key = Id::new(rng.gen());
                            let (mut want_probers, mut got_probers) = (Vec::new(), Vec::new());
                            let want = route_sorted(
                                &net,
                                src,
                                key,
                                &policy,
                                &mut want_probers,
                                &mut mid_probe,
                            );
                            let owner = net.live_owner_of(key).unwrap();
                            let got = route_observed(
                                &net,
                                src,
                                owner,
                                &policy,
                                &mut carried,
                                None,
                                Some(&mut got_probers),
                            );
                            assert_eq!(got, want, "{fm:?} dead {dead} succ {succ} budget {max_messages} src {src:?} key {key:?}");
                            assert_eq!(got_probers, want_probers);
                            queries += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(queries, 2 * 2 * 2 * 5 * 200);
        assert!(mid_probe > 0, "no budget ran out inside a probe sequence");
    }

    #[test]
    fn a_batch_is_its_queries_one_by_one() {
        let workloads = [
            QueryWorkload::UniformPeers,
            QueryWorkload::ZipfPeers { exponent: 1.0 },
            QueryWorkload::Hotspot {
                center: 0.4,
                width: 0.1,
                hot_fraction: 0.8,
            },
        ];
        let mut batches = 0usize;
        for fm in [FaultModel::StabilizedRing, FaultModel::UnstabilizedRing] {
            for succ in [1, 8] {
                for (dead, seed) in [(0.3, 60u64), (0.5, 70)] {
                    let mut net = test_net(300, 4, seed, fm);
                    net.set_succ_list_len(succ);
                    let mut rng = SeedTree::new(seed + 1).rng();
                    crate::churn::kill_fraction(&mut net, dead, &mut rng).unwrap();
                    for max_messages in [3, 8, 4096] {
                        let policy = RoutePolicy { max_messages };
                        for (wi, workload) in workloads.iter().enumerate() {
                            let stream = seed * 100 + max_messages as u64 + wi as u64;
                            let (hop0, waste0) = (
                                net.metrics.get(MsgKind::QueryHop),
                                net.metrics.get(MsgKind::QueryWasted),
                            );
                            let mut probers = Vec::new();
                            let batch = run_query_batch_observed(
                                &net,
                                workload,
                                150,
                                &policy,
                                &mut SeedTree::new(stream).rng(),
                                &mut probers,
                            );
                            let hops = net.metrics.get(MsgKind::QueryHop) - hop0;
                            let wasted = net.metrics.get(MsgKind::QueryWasted) - waste0;

                            // The same draws, each query routed by a fresh
                            // call that shares nothing with the others.
                            let mut rng = SeedTree::new(stream).rng();
                            let (mut want_probers, mut outcomes) = (Vec::new(), Vec::new());
                            for _ in 0..150 {
                                let src = net.random_live_peer(&mut rng).unwrap();
                                let rank = workload.draw(net.live_count(), &mut rng);
                                let key = net.peer(net.live_peer_by_rank(rank)).id;
                                let o = route_to_owner(&net, src, key, &policy);
                                let owner = net.live_owner_of(key).unwrap();
                                let observed = route_observed(
                                    &net,
                                    src,
                                    owner,
                                    &policy,
                                    &mut Carried::default(),
                                    None,
                                    Some(&mut want_probers),
                                );
                                assert_eq!(observed, o);
                                outcomes.push(o);
                            }
                            want_probers.sort_unstable();
                            want_probers.dedup();
                            let want = QueryBatchStats::of(
                                outcomes.len(),
                                outcomes.iter().map(|o| (o.success, o.hops, o.wasted)),
                            );
                            let case = format!(
                                "{fm:?} succ {succ} dead {dead} budget {max_messages} {}",
                                workload.name()
                            );
                            assert_eq!(batch, want, "{case}");
                            assert_eq!(
                                (hops, wasted),
                                (
                                    outcomes.iter().map(|o| o.hops as u64).sum(),
                                    outcomes.iter().map(|o| o.wasted as u64).sum()
                                ),
                                "{case}"
                            );
                            assert_eq!(probers, want_probers, "{case}");
                            batches += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(batches, 2 * 2 * 2 * 3 * 3);
    }

    #[test]
    fn the_rank_hop_is_the_scan_hop() {
        // Small rings around the successor-list wrap (n − 1 against L),
        // with and without long links, before and after a kill and a
        // departure: every (src, owner) pair routes alike with the batch's
        // rank context and without it.
        let mut pairs = 0usize;
        for n in 2..=10u64 {
            for fm in [FaultModel::StabilizedRing, FaultModel::UnstabilizedRing] {
                for succ in [1, 8] {
                    for extra in [0, 2] {
                        let mut net = test_net(n, extra, n * 10 + extra as u64, fm);
                        net.set_succ_list_len(succ);
                        for faults in 0..=2 {
                            match faults {
                                0 => {}
                                1 => net.kill(PeerIdx(1)).unwrap(),
                                _ => net.depart(PeerIdx(0)).unwrap(),
                            }
                            if net.live_count() == 0 {
                                continue;
                            }
                            let ranks = net.live_ranks();
                            for max_messages in [1, 2, 4096] {
                                let policy = RoutePolicy { max_messages };
                                for &src in &ranks.by_rank {
                                    for &owner in &ranks.by_rank {
                                        let route = |ranks| {
                                            let mut probers = Vec::new();
                                            let o = route_observed(
                                                &net,
                                                src,
                                                owner,
                                                &policy,
                                                &mut Carried::default(),
                                                ranks,
                                                Some(&mut probers),
                                            );
                                            (o, probers)
                                        };
                                        assert_eq!(
                                            route(Some(&ranks)),
                                            route(None),
                                            "n {n} {fm:?} succ {succ} extra {extra} faults {faults} budget {max_messages} {src:?} → {owner:?}"
                                        );
                                        pairs += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(pairs > 10_000, "{pairs} pairs");
    }

    #[test]
    fn unstabilized_churn_succeeds_via_successor_lists() {
        let mut net = test_net(128, 3, 10, FaultModel::UnstabilizedRing);
        let mut rng = SeedTree::new(11).rng();
        crate::churn::kill_fraction(&mut net, 0.33, &mut rng).unwrap();
        let policy = RoutePolicy::default();
        let mut successes = 0usize;
        let mut wasted = 0u64;
        for _ in 0..300 {
            let src = net.random_live_peer(&mut rng).unwrap();
            let key = net.peer(net.random_live_peer(&mut rng).unwrap()).id;
            let o = route_to_owner(&net, src, key, &policy);
            successes += o.success as usize;
            wasted += o.wasted as u64;
        }
        assert!(wasted > 0, "dead pointers should cost probes");
        // Chord-length successor lists keep the ring navigable.
        assert!(successes > 280, "only {successes}/300 succeeded");
    }

    #[test]
    fn unstabilized_short_successor_list_backtracks() {
        let mut net = test_net(128, 3, 10, FaultModel::UnstabilizedRing);
        net.set_succ_list_len(1);
        let mut rng = SeedTree::new(11).rng();
        crate::churn::kill_fraction(&mut net, 0.33, &mut rng).unwrap();
        let policy = RoutePolicy::default();
        let mut backtracks = 0u64;
        let mut successes = 0usize;
        for _ in 0..300 {
            let src = net.random_live_peer(&mut rng).unwrap();
            let key = net.peer(net.random_live_peer(&mut rng).unwrap()).id;
            let o = route_to_owner(&net, src, key, &policy);
            successes += o.success as usize;
            backtracks += o.backtracks as u64;
        }
        assert!(
            backtracks > 0,
            "single successor pointers should force backtracking"
        );
        // Some queries succeed through long-link detours, many dead-end.
        assert!(successes > 60, "only {successes}/300 succeeded");
        assert!(
            successes < 300,
            "a 1-entry successor list cannot be perfect"
        );
    }

    #[test]
    fn message_budget_bounds_cost() {
        let mut net = test_net(64, 0, 12, FaultModel::UnstabilizedRing);
        let mut rng = SeedTree::new(13).rng();
        crate::churn::kill_fraction(&mut net, 0.5, &mut rng).unwrap();
        let policy = RoutePolicy { max_messages: 16 };
        for _ in 0..100 {
            let Some(src) = net.random_live_peer(&mut rng) else {
                break;
            };
            let key = Id::new(rng.gen());
            let o = route_to_owner(&net, src, key, &policy);
            assert!(o.cost() <= 17, "cost {} blew the budget", o.cost());
        }
    }

    #[test]
    fn batch_stats_are_consistent() {
        let net = test_net(128, 5, 14, FaultModel::StabilizedRing);
        let mut rng = SeedTree::new(15).rng();
        let stats = run_query_batch(
            &net,
            &QueryWorkload::UniformPeers,
            200,
            &RoutePolicy::default(),
            &mut rng,
        );
        assert_eq!(stats.queries, 200);
        assert_eq!(stats.success_rate, 1.0);
        assert!(stats.mean_cost >= stats.mean_hops);
        assert!(stats.p50_cost <= stats.p95_cost);
        assert!(stats.p95_cost <= stats.max_cost as f64);
        assert!(stats.mean_cost > 0.0, "nonzero cost expected");
        assert!(net.metrics.get(MsgKind::QueryHop) > 0);
    }

    #[test]
    fn batch_on_empty_network_is_safe() {
        let net = Network::new(FaultModel::StabilizedRing);
        let mut rng = SeedTree::new(16).rng();
        let stats = run_query_batch(
            &net,
            &QueryWorkload::UniformPeers,
            10,
            &RoutePolicy::default(),
            &mut rng,
        );
        assert_eq!(stats.success_rate, 0.0);
        // Nothing could be issued, so nothing may be counted: reporting the
        // requested 10 here would fabricate a denominator.
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.mean_wasted, 0.0);
    }

    #[test]
    fn failed_queries_count_their_waste() {
        // Ring 10,20,30,40 with 20 crashed, unstabilised pointers, and a
        // single-entry successor list: a query from 10 toward 30 has the
        // dead 20 as its only progress candidate — one wasted probe, then a
        // dead end. Every successful route in this topology is probe-free,
        // so the former successful-only accounting reported mean_wasted = 0
        // while the network was in fact paying for the failures.
        let mut net = Network::new(FaultModel::UnstabilizedRing);
        for id in [10u64, 20, 30, 40] {
            net.add_peer(Id::new(id), DegreeCaps::symmetric(8)).unwrap();
        }
        net.set_succ_list_len(1);
        net.kill(net.idx_of(Id::new(20)).unwrap()).unwrap();
        let mut rng = SeedTree::new(17).rng();
        let stats = run_query_batch(
            &net,
            &QueryWorkload::UniformPeers,
            200,
            &RoutePolicy::default(),
            &mut rng,
        );
        assert_eq!(stats.queries, 200);
        assert!(stats.success_rate > 0.0 && stats.success_rate < 1.0);
        assert!(
            stats.mean_wasted > 0.0,
            "failed queries' probes must appear in mean_wasted"
        );
    }

    #[test]
    fn batch_stats_are_exact_and_order_free() {
        // Costs 1..=20, each followed by a failed query that wasted 2:
        // p50 is the ⌈0.5·20⌉ = 10th smallest, p95 the 19th.
        let batch = |costs: &[u32]| {
            let outcomes = costs.iter().flat_map(|&c| [(true, c, 0), (false, 0, 2)]);
            QueryBatchStats::of(2 * costs.len(), outcomes)
        };
        let ascending: Vec<u32> = (1..=20).collect();
        let stats = batch(&ascending);
        assert_eq!(
            (stats.p50_cost, stats.p95_cost, stats.max_cost),
            (10.0, 19.0, 20)
        );
        assert_eq!(stats.mean_cost, 10.5);
        assert_eq!(stats.success_rate, 0.5);
        assert_eq!(stats.mean_wasted, 1.0);
        let scrambled = [
            7, 19, 2, 13, 20, 5, 11, 1, 16, 9, 4, 18, 14, 3, 10, 17, 6, 12, 15, 8,
        ];
        assert_eq!(batch(&scrambled), stats, "fold order leaked into the stats");
        // A single delivered query is every percentile, with no spread.
        let one = batch(&[7]);
        assert_eq!((one.p50_cost, one.p95_cost, one.max_cost), (7.0, 7.0, 7));
        assert_eq!(one.se_cost, 0.0);
    }

    #[test]
    fn se_cost_reports_the_batch_standard_error() {
        let net = test_net(128, 5, 14, FaultModel::StabilizedRing);
        let mut rng = SeedTree::new(23).rng();
        let stats = run_query_batch(
            &net,
            &QueryWorkload::UniformPeers,
            200,
            &RoutePolicy::default(),
            &mut rng,
        );
        assert!(stats.se_cost > 0.0, "non-degenerate costs have spread");
        // s/√m is far below the spread itself for a 200-query batch.
        assert!(stats.se_cost < stats.mean_cost);
    }
}
