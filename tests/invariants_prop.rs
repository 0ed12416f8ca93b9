//! Property-based integration tests: random small configurations must
//! never violate the overlay's structural or delivery guarantees.

use oscar::prelude::*;
use proptest::prelude::*;

proptest! {
    // Each case grows a real overlay; keep the case count modest.
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn oscar_invariants_hold_for_random_configs(
        seed in 0u64..1000,
        n in 50usize..250,
        degree in 4u32..40,
        sample_size in 4usize..24,
        candidates in 1usize..3,
    ) {
        let cfg = OscarConfig {
            median_sample_size: sample_size,
            link_candidates: candidates,
            ..OscarConfig::default()
        };
        let mut ov = Overlay::new(OscarBuilder::new(cfg), FaultModel::StabilizedRing, seed);
        ov.grow_to(n, &GnutellaKeys::default(), &ConstantDegrees::new(degree)).unwrap();
        prop_assert_eq!(ov.network().check_invariants(), Ok(()));
        // Delivery is total in the fault-free regime.
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 100);
        prop_assert_eq!(stats.success_rate, 1.0);
        // And the cost respects the worst-case bound.
        let bound = oscar::core::theory::worst_case_search_bound(n);
        prop_assert!(stats.mean_cost <= bound, "cost {} vs bound {}", stats.mean_cost, bound);
    }

    #[test]
    fn churn_never_breaks_invariants_or_delivery(
        seed in 0u64..1000,
        kill in 0.05f64..0.5,
    ) {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed);
        ov.grow_to(150, &UniformKeys, &SteppedDegrees::paper()).unwrap();
        ov.kill_fraction(kill).unwrap();
        prop_assert_eq!(ov.network().check_invariants(), Ok(()));
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 80);
        prop_assert_eq!(stats.success_rate, 1.0);
    }

    #[test]
    fn mercury_invariants_hold(
        seed in 0u64..1000,
        n in 50usize..200,
    ) {
        let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, seed);
        ov.grow_to(n, &GnutellaKeys::default(), &ConstantDegrees::paper()).unwrap();
        prop_assert_eq!(ov.network().check_invariants(), Ok(()));
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 80);
        prop_assert_eq!(stats.success_rate, 1.0);
    }

    #[test]
    fn any_key_is_owned_and_reachable(
        seed in 0u64..1000,
        key in any::<u64>(),
    ) {
        let builder = OscarBuilder::new(OscarConfig::default());
        // Reuse a few networks' worth of variety.
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed % 7);
        ov.grow_to(100, &ClusteredKeys::new(5, 1e-3, 1.0, seed), &ConstantDegrees::new(8)).unwrap();
        let net = ov.network();
        let key = Id::new(key);
        let owner = net.live_owner_of(key).expect("non-empty ring");
        // ownership invariant: key in (pred(owner), owner]
        let owner_id = net.peer(owner).id;
        let pred_id = net.peer(net.ring_predecessor(owner).unwrap()).id;
        prop_assert!(key.in_cw_open_closed(pred_id, owner_id) || pred_id == owner_id);
        // routing from anywhere reaches it
        let mut rng = SeedTree::new(seed).rng();
        let src = net.random_live_peer(&mut rng).unwrap();
        let outcome = oscar::sim::route_to_owner(net, src, key, &RoutePolicy::default());
        prop_assert!(outcome.success);
        prop_assert_eq!(outcome.dest, Some(owner));
    }
}
