//! Range queries — the application feature order preservation buys.
//!
//! Because Oscar never hashes keys, the owners of a key range
//! `[lo, hi)` are a *contiguous* arc of the ring: a range query routes to
//! the owner of `lo` (greedy, `O(log²N)`) and then walks live successors
//! until it leaves the range. This module implements that scan and
//! accounts its cost the way the paper accounts search cost.

use oscar_sim::{route_to_owner, Network, PeerIdx, RouteOutcome, RoutePolicy};
use oscar_types::{Arc, Id};

/// Result of a range scan.
#[derive(Clone, Debug)]
pub struct RangeScanOutcome {
    /// Routing outcome of reaching the range entry (owner of `lo`).
    pub entry: RouteOutcome,
    /// The peers owning parts of `[lo, hi)`, in clockwise order. Contains
    /// at least the owner of `lo` when routing succeeded (the owner of a
    /// range's first key may itself sit just past `hi` on the ring — it
    /// still owns keys inside the range).
    pub owners: Vec<PeerIdx>,
    /// Successor hops taken during the scan phase.
    pub scan_hops: u32,
}

impl RangeScanOutcome {
    /// Total message cost: entry routing + scan hops.
    pub fn cost(&self) -> u32 {
        self.entry.cost() + self.scan_hops
    }
}

/// Scans the key range `[lo, hi)` starting from `src`.
///
/// Returns the contiguous owners of the range. An empty range (`lo == hi`)
/// scans nothing but still routes to the entry (cheap way to probe a
/// position). Under churn the entry routing may fail (unstabilised ring);
/// the scan itself walks only live ring successors.
pub fn range_scan(
    net: &Network,
    src: PeerIdx,
    lo: Id,
    hi: Id,
    policy: &RoutePolicy,
) -> RangeScanOutcome {
    let entry = route_to_owner(net, src, lo, policy);
    let mut outcome = RangeScanOutcome {
        owners: Vec::new(),
        scan_hops: 0,
        entry,
    };
    let Some(first) = outcome.entry.dest else {
        return outcome;
    };
    let range = Arc::between(lo, hi);
    if range.is_empty() {
        return outcome;
    }
    // The owner of `lo` always owns the range's first keys.
    outcome.owners.push(first);
    let mut cursor = first;
    // Walk successors while they still own something inside [lo, hi).
    while let Some(next) = net.ring_successor(cursor) {
        if next == cursor || next == first {
            break; // wrapped: the whole ring is covered
        }
        // `next` owns (cursor, next]; walking in order from the owner of
        // `lo`, that arc holds range keys iff its first key does.
        if !range.contains(net.peer(cursor).id.add(1)) {
            break;
        }
        outcome.scan_hops += 1;
        outcome.owners.push(next);
        cursor = next;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OscarBuilder, OscarConfig};
    use oscar_degree::ConstantDegrees;
    use oscar_keydist::UniformKeys;
    use oscar_sim::{FaultModel, Overlay};
    use oscar_types::SeedTree;

    fn grown(n: usize, seed: u64) -> Overlay<OscarBuilder> {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed);
        ov.grow_to(n, &UniformKeys, &ConstantDegrees::paper())
            .unwrap();
        ov
    }

    #[test]
    fn scan_covers_exactly_the_range_owners() {
        let ov = grown(300, 1);
        let net = ov.network();
        let lo = Id::from_unit(0.30);
        let hi = Id::from_unit(0.45);
        let mut rng = SeedTree::new(2).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let out = range_scan(net, src, lo, hi, &RoutePolicy::default());
        assert!(out.entry.success);

        // Oracle: owners of [lo, hi) = peers with id in [lo, hi) plus the
        // owner of the range's last key (owns the tail of the range).
        let mut owners: Vec<PeerIdx> = net
            .live_peers()
            .filter(|&p| Arc::between(lo, hi).contains(net.peer(p).id))
            .collect();
        let tail = net.ring_live().owner_of(hi.sub(1)).unwrap();
        owners.push(net.idx_of(tail).unwrap());
        owners.sort_unstable_by_key(|&p| lo.cw_dist(net.peer(p).id));
        owners.dedup();
        assert_eq!(out.owners, owners);
        assert_eq!(out.scan_hops as usize, out.owners.len() - 1);
    }

    #[test]
    fn a_range_ending_just_past_a_peer_stops_at_its_successor() {
        // Ring {10, 20, 30}: [5, 21) is owned by 10 and 20, while 30 owns
        // only (20, 30] — from 21 on, outside the range.
        let ids = [10, 20, 30].map(Id::new).to_vec();
        let net = crate::test_net(ids, oscar_degree::DegreeCaps::symmetric(4), 0, 1);
        let at = |id| net.idx_of(Id::new(id)).unwrap();
        let policy = RoutePolicy::default();
        let out = range_scan(&net, at(10), Id::new(5), Id::new(21), &policy);
        assert_eq!(out.owners, [at(10), at(20)]);
        assert_eq!(out.scan_hops, 1);
    }

    #[test]
    fn owners_are_ring_contiguous() {
        let ov = grown(200, 3);
        let net = ov.network();
        let mut rng = SeedTree::new(4).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let out = range_scan(
            net,
            src,
            Id::from_unit(0.7),
            Id::from_unit(0.9),
            &RoutePolicy::default(),
        );
        for w in out.owners.windows(2) {
            assert_eq!(
                net.ring_successor(w[0]),
                Some(w[1]),
                "scan must follow the ring"
            );
        }
    }

    #[test]
    fn wrapping_range_scans_through_zero() {
        let ov = grown(200, 5);
        let net = ov.network();
        let mut rng = SeedTree::new(6).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let lo = Id::from_unit(0.95);
        let hi = Id::from_unit(0.05);
        let out = range_scan(net, src, lo, hi, &RoutePolicy::default());
        assert!(out.entry.success);
        // ~10% of 200 uniform peers
        assert!(
            (10..=35).contains(&out.owners.len()),
            "wrapped scan found {} owners",
            out.owners.len()
        );
    }

    #[test]
    fn empty_range_only_routes() {
        let ov = grown(100, 7);
        let net = ov.network();
        let mut rng = SeedTree::new(8).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let p = Id::from_unit(0.5);
        let out = range_scan(net, src, p, p, &RoutePolicy::default());
        assert!(out.entry.success);
        assert_eq!(out.scan_hops, 0);
        assert!(out.owners.is_empty());
    }

    #[test]
    fn full_ring_range_visits_everyone_once() {
        let ov = grown(60, 9);
        let net = ov.network();
        let mut rng = SeedTree::new(10).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let lo = Id::from_unit(0.1);
        let hi = lo.sub(1); // everything except one position
        let out = range_scan(net, src, lo, hi, &RoutePolicy::default());
        assert_eq!(out.owners.len(), 60, "every peer owns part of the ring");
        let mut dedup = out.owners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 60, "no owner visited twice");
    }

    #[test]
    fn scan_cost_scales_with_selectivity() {
        let ov = grown(400, 11);
        let net = ov.network();
        let mut rng = SeedTree::new(12).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let narrow = range_scan(
            net,
            src,
            Id::from_unit(0.2),
            Id::from_unit(0.21),
            &RoutePolicy::default(),
        );
        let wide = range_scan(
            net,
            src,
            Id::from_unit(0.2),
            Id::from_unit(0.6),
            &RoutePolicy::default(),
        );
        assert!(wide.scan_hops > narrow.scan_hops * 5);
        // entry cost is range-size independent (both routed to 0.2)
        assert_eq!(narrow.entry.hops, wide.entry.hops);
    }
}
