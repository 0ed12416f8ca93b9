//! End-to-end integration: grow → rewire → query across all crates,
//! checking the paper's qualitative claims at test scale.

use oscar::prelude::*;

#[test]
fn oscar_paper_protocol_small_scale() {
    // The paper's growth protocol at 1/20 scale: grow to 500, rewire +
    // measure at every 100 peers.
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 1);
    let mut costs: Vec<(usize, f64)> = Vec::new();
    overlay
        .grow(
            &GnutellaKeys::default(),
            &ConstantDegrees::paper(),
            GrowthConfig {
                target_size: 500,
                checkpoints: vec![100, 200, 300, 400, 500],
            },
            |net, cp| {
                net.check_invariants().unwrap();
                let mut rng = SeedTree::new(1000 + cp.index as u64).rng();
                let stats = oscar::sim::run_query_batch(
                    net,
                    &QueryWorkload::UniformPeers,
                    cp.size,
                    &RoutePolicy::default(),
                    &mut rng,
                );
                assert_eq!(stats.success_rate, 1.0, "at size {}", cp.size);
                costs.push((cp.size, stats.mean_cost));
                Ok(())
            },
        )
        .unwrap();
    assert_eq!(costs.len(), 5);
    // Cost stays well under the paper's worst-case bound at every size.
    for &(size, cost) in &costs {
        let bound = oscar::core::theory::worst_case_search_bound(size);
        assert!(
            cost < bound / 2.0,
            "size {size}: cost {cost:.2} vs bound {bound:.0}"
        );
    }
    // And grows slowly: 5x the network should not even double the cost.
    let first = costs.first().unwrap().1;
    let last = costs.last().unwrap().1;
    assert!(
        last < first * 2.0 + 2.0,
        "cost exploded: {first:.2} -> {last:.2}"
    );
}

#[test]
fn oscar_beats_mercury_on_skewed_keys() {
    // E7: same growth schedule, same skewed keys, same budgets — Oscar's
    // density-adaptive links should outperform Mercury's sampled-CDF links.
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();

    let builder = OscarBuilder::new(OscarConfig::default());
    let mut oscar_ov = Overlay::new(builder, FaultModel::StabilizedRing, 7);
    oscar_ov.grow_to(600, &keys, &degrees).unwrap();
    let oscar_stats = oscar_ov.run_queries(&QueryWorkload::UniformPeers, 600);

    let mut mercury_ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 7);
    mercury_ov.grow_to(600, &keys, &degrees).unwrap();
    let mercury_stats = mercury_ov.run_queries(&QueryWorkload::UniformPeers, 600);

    assert_eq!(oscar_stats.success_rate, 1.0);
    assert_eq!(mercury_stats.success_rate, 1.0);
    assert!(
        oscar_stats.mean_cost < mercury_stats.mean_cost,
        "oscar {:.2} should beat mercury {:.2} on skewed keys",
        oscar_stats.mean_cost,
        mercury_stats.mean_cost
    );
}

#[test]
fn oscar_exploits_more_degree_volume_than_mercury() {
    // E2/E3 at small scale: constant caps, skewed keys.
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();

    let builder = OscarBuilder::new(OscarConfig::default());
    let mut oscar_ov = Overlay::new(builder, FaultModel::StabilizedRing, 9);
    oscar_ov.grow_to(500, &keys, &degrees).unwrap();
    let oscar_util = oscar_ov.network().degree_volume_utilization();

    let mut mercury_ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 9);
    mercury_ov.grow_to(500, &keys, &degrees).unwrap();
    let mercury_util = mercury_ov.network().degree_volume_utilization();

    assert!(
        oscar_util > mercury_util,
        "oscar {oscar_util:.2} should exploit more volume than mercury {mercury_util:.2}"
    );
    assert!(
        oscar_util > 0.7,
        "oscar utilisation too low: {oscar_util:.2}"
    );
}

#[test]
fn in_degree_distributions_do_not_change_search_cost_much() {
    // Figure 1(c)'s claim: constant / realistic / stepped in-degree
    // distributions give near-identical search performance.
    let keys = GnutellaKeys::default();
    let mut costs = Vec::new();
    let dists: Vec<(&str, Box<dyn DegreeDistribution>)> = vec![
        ("constant", Box::new(ConstantDegrees::paper())),
        ("realistic", Box::new(SpikyDegrees::paper())),
        ("stepped", Box::new(SteppedDegrees::paper())),
    ];
    for (name, dist) in dists {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, 11);
        ov.grow_to(500, &keys, dist.as_ref()).unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 500);
        assert_eq!(stats.success_rate, 1.0, "{name}");
        costs.push((name, stats.mean_cost));
    }
    let min = costs.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
    let max = costs.iter().map(|&(_, c)| c).fold(0.0, f64::max);
    assert!(
        max / min < 1.5,
        "degree distributions should perform within 50% of each other: {costs:?}"
    );
}

#[test]
fn range_scan_visits_contiguous_owners() {
    // Order preservation end-to-end: the owners of a key range form a
    // contiguous arc of the ring.
    use oscar::keydist::encode_filename_key;
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, 13);
    ov.grow_to(300, &GnutellaKeys::default(), &ConstantDegrees::paper())
        .unwrap();
    let net = ov.network();
    let lo = encode_filename_key("d");
    let hi = encode_filename_key("f");
    // All peers with ids in [lo, hi) must be reachable from the owner of
    // `lo` by successor walks without ever leaving the range.
    let Some(start) = net.live_owner_of(lo) else {
        panic!("no owner")
    };
    let mut cursor = start;
    let mut in_range = 0;
    for _ in 0..net.live_count() {
        let id = net.peer(cursor).id;
        if id >= lo && id < hi {
            in_range += 1;
        } else if in_range > 0 {
            break; // left the range: contiguity check done
        }
        cursor = net.ring_successor(cursor).unwrap();
    }
    let expected = net
        .live_peers()
        .filter(|&p| {
            let id = net.peer(p).id;
            id >= lo && id < hi
        })
        .count();
    assert_eq!(in_range, expected, "range owners are contiguous");
}

#[test]
fn construction_cost_is_scalable() {
    // The paper's scalability claim: only O(log N) medians are sampled, so
    // per-peer construction traffic grows logarithmically, not linearly.
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();
    let walk_steps_per_peer = |n: usize, seed: u64| -> f64 {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed);
        ov.grow_to(n, &keys, &degrees).unwrap();
        ov.network().metrics.get(oscar::sim::MsgKind::WalkStep) as f64 / n as f64
    };
    let small = walk_steps_per_peer(200, 17);
    let large = walk_steps_per_peer(800, 17);
    // 4x the network: log-growth means the per-peer cost grows by at most
    // ~log(800)/log(200) ≈ 1.26; allow 1.8 for constants.
    assert!(
        large / small < 1.8,
        "per-peer construction cost not scalable: {small:.0} -> {large:.0} walk steps"
    );
}
