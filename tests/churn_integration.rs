//! Churn integration: the Figure 2 protocol at test scale, plus the
//! unstabilised-ring ablation.

use oscar::prelude::*;

fn grown_overlay(seed: u64) -> Overlay<OscarBuilder> {
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed);
    ov.grow_to(600, &GnutellaKeys::default(), &ConstantDegrees::paper())
        .unwrap();
    ov
}

#[test]
fn search_cost_rises_monotonically_with_crash_fraction() {
    // Figure 2's shape: no faults < 10% < 33%, all with full delivery.
    let mut costs = Vec::new();
    for (i, fraction) in [0.0, 0.10, 0.33].into_iter().enumerate() {
        let mut ov = grown_overlay(100 + i as u64);
        if fraction > 0.0 {
            ov.kill_fraction(fraction).unwrap();
        }
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 600);
        assert_eq!(
            stats.success_rate, 1.0,
            "stabilised ring delivers at {fraction}"
        );
        costs.push(stats.mean_cost);
    }
    assert!(
        costs[0] < costs[1] && costs[1] < costs[2],
        "costs should rise with crashes: {costs:?}"
    );
    // And stay "fairly low": far under the ring-walk O(N) regime.
    assert!(costs[2] < 30.0, "33% crash cost blew up: {}", costs[2]);
}

#[test]
fn wasted_traffic_tracks_crash_fraction() {
    let mut wasted = Vec::new();
    for fraction in [0.10, 0.33] {
        let mut ov = grown_overlay(42);
        ov.kill_fraction(fraction).unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 600);
        wasted.push(stats.mean_wasted);
    }
    assert!(
        wasted[1] > wasted[0] * 1.5,
        "3.3x the corpses should waste clearly more traffic: {wasted:?}"
    );
}

#[test]
fn snapshot_clone_isolates_crash_waves() {
    // The harness measures each crash fraction on a clone of one grown
    // network; verify clones do not bleed state into each other.
    let ov = grown_overlay(7);
    let pristine_live = ov.network().live_count();

    let mut clone_a = ov.network().clone();
    let mut clone_b = ov.network().clone();
    let mut rng_a = SeedTree::new(1).rng();
    let mut rng_b = SeedTree::new(2).rng();
    oscar::sim::kill_fraction(&mut clone_a, 0.33, &mut rng_a).unwrap();
    oscar::sim::kill_fraction(&mut clone_b, 0.10, &mut rng_b).unwrap();

    assert_eq!(
        ov.network().live_count(),
        pristine_live,
        "original untouched"
    );
    assert_eq!(
        clone_a.live_count(),
        pristine_live - (pristine_live as f64 * 0.33).round() as usize
    );
    assert_eq!(
        clone_b.live_count(),
        pristine_live - (pristine_live as f64 * 0.10).round() as usize
    );
}

#[test]
fn unstabilized_ring_is_strictly_worse() {
    // Ablation A4: the same crashed network measured under both fault
    // models. Stabilisation (the paper's assumption) must help.
    let ov = grown_overlay(11);
    let mut net = ov.network().clone();
    let mut rng = SeedTree::new(3).rng();
    oscar::sim::kill_fraction(&mut net, 0.33, &mut rng).unwrap();

    let mut measure = |fm: FaultModel, seed: u64| {
        net.set_fault_model(fm);
        let mut qrng = SeedTree::new(seed).rng();
        oscar::sim::run_query_batch(
            &mut net,
            &QueryWorkload::UniformPeers,
            500,
            &RoutePolicy::default(),
            &mut qrng,
        )
    };
    let stabilized = measure(FaultModel::StabilizedRing, 50);
    let unstabilized = measure(FaultModel::UnstabilizedRing, 50);

    assert_eq!(stabilized.success_rate, 1.0);
    assert!(
        unstabilized.mean_cost > stabilized.mean_cost,
        "unstabilised {:.2} should cost more than stabilised {:.2}",
        unstabilized.mean_cost,
        stabilized.mean_cost
    );
}

#[test]
fn rewiring_after_churn_repairs_the_overlay() {
    // Beyond the paper: dangling links are purged by a rewire-all pass,
    // restoring near-fault-free cost.
    let mut ov = grown_overlay(13);
    let healthy = ov.run_queries(&QueryWorkload::UniformPeers, 500);
    ov.kill_fraction(0.33).unwrap();
    let wounded = ov.run_queries(&QueryWorkload::UniformPeers, 500);
    ov.rewire_all().unwrap();
    let repaired = ov.run_queries(&QueryWorkload::UniformPeers, 500);

    assert!(wounded.mean_wasted > 0.2, "expected waste after crashes");
    assert!(
        repaired.mean_wasted < wounded.mean_wasted / 4.0,
        "rewiring should purge dangling links: {} -> {}",
        wounded.mean_wasted,
        repaired.mean_wasted
    );
    assert!(
        repaired.mean_cost < wounded.mean_cost,
        "repair should reduce cost"
    );
    // Not necessarily as good as healthy (fewer peers now), but close.
    assert!(repaired.mean_cost < healthy.mean_cost * 1.6);
}

#[test]
fn churn_engine_under_unstabilized_ring_degrades_monotonically_in_succ_list() {
    // The continuous-churn engine under the harsher fault model: ring
    // pointers keep aiming at corpses and no repair rewires the long
    // links, so delivery degrades as crashes accumulate — but the whole
    // run remains a pure function of the seed, and the successor list is
    // exactly what keeps the corpse-riddled ring navigable: delivery must
    // be monotone in its length.
    let schedule = ChurnSchedule {
        join_rate: 0.02,
        crash_rate: 0.30,
        depart_rate: 0.0,
        repair: RepairPolicy::SweepEvery(0),
        window_ticks: 500,
        query_budget: QueryBudget::Fixed(300),
        min_live: 60,
    };
    let run = |fm: FaultModel, succ_list_len: usize| {
        let mut ov = Overlay::new(OscarBuilder::new(OscarConfig::default()), fm, 23);
        ov.grow_to(600, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        // Short successor lists (ablation A4): without the O(log N)
        // successor list, corpse-riddled ring pointers actually strand
        // queries instead of merely costing probes.
        ov.network_mut().set_succ_list_len(succ_list_len);
        ov.run_continuous_churn(
            &GnutellaKeys::default(),
            &ConstantDegrees::paper(),
            &schedule,
            4,
        )
        .unwrap()
    };
    let mean_success = |ws: &[ChurnWindowStats]| {
        ws.iter().map(|w| w.queries.success_rate).sum::<f64>() / ws.len() as f64
    };

    let a = run(FaultModel::UnstabilizedRing, 1);
    let b = run(FaultModel::UnstabilizedRing, 1);
    assert_eq!(a, b, "engine run must be deterministic under seed");

    let stabilized = run(FaultModel::StabilizedRing, 1);
    let last = a.last().unwrap();
    let last_stab = stabilized.last().unwrap();
    assert_eq!(
        last_stab.queries.success_rate, 1.0,
        "stabilised ring still delivers everything"
    );
    assert!(
        last.queries.success_rate < 1.0,
        "unstabilised ring under sustained crashes must drop queries, got {:.3}",
        last.queries.success_rate
    );
    assert!(
        last.queries.success_rate > 0.2,
        "but not collapse outright, got {:.3}",
        last.queries.success_rate
    );
    assert!(
        last.queries.mean_wasted > last_stab.queries.mean_wasted,
        "corpse probing must waste more traffic than the stabilised view"
    );

    // Delivery is monotone in the successor-list length: every extra
    // successor is another way past a corpse.
    let s1 = mean_success(&a);
    let s2 = mean_success(&run(FaultModel::UnstabilizedRing, 2));
    let s4 = mean_success(&run(FaultModel::UnstabilizedRing, 4));
    assert!(
        s1 <= s2 && s2 <= s4,
        "delivery must not drop with a longer successor list: \
         succ 1 -> {s1:.3}, succ 2 -> {s2:.3}, succ 4 -> {s4:.3}"
    );
    assert!(
        s4 > s1,
        "a 4-entry successor list must measurably beat a single pointer \
         ({s4:.3} vs {s1:.3})"
    );
}

#[test]
fn reactive_repair_matches_sweep_delivery_at_strictly_lower_cost() {
    // The per-event repair acceptance criterion (its full-scale variant —
    // OSCAR_SCALE=2000, 2%/window — is visible in `oscar-repro phase`'s
    // churn_phase_*.csv; this is the same protocol at test scale): at
    // 2%/window turnover, `Reactive { neighbors_k: 2 }` must reach steady
    // delivery at least as good as the sweep baseline while recording
    // strictly lower total repair cost per window — O(k) per membership
    // event instead of an O(n) rebuild per window.
    let ov = grown_overlay(29);
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();
    let n = ov.network().live_count() as f64;
    let run = |repair: RepairPolicy| {
        let mut net = ov.network().clone();
        // 2% of the population per 1000-tick window, 80% crashes and 20%
        // graceful departures, population-neutral.
        let rate = 0.02 * n / 1000.0;
        let schedule = ChurnSchedule {
            join_rate: rate,
            crash_rate: rate * 0.8,
            depart_rate: rate * 0.2,
            repair,
            window_ticks: 1000,
            query_budget: QueryBudget::Fixed(150),
            min_live: 60,
        };
        oscar::sim::run_continuous_churn(
            &mut net,
            ov.builder(),
            &keys,
            &degrees,
            &schedule,
            6,
            SeedTree::new(97),
        )
        .unwrap()
    };
    let sweep = run(RepairPolicy::SweepEvery(1000));
    let reactive = run(RepairPolicy::Reactive { neighbors_k: 2 });

    let steady_success = |ws: &[ChurnWindowStats]| {
        let tail = &ws[ws.len() / 2..];
        tail.iter().map(|w| w.queries.success_rate).sum::<f64>() / tail.len() as f64
    };
    assert!(
        steady_success(&reactive) >= steady_success(&sweep),
        "reactive delivery {:.4} fell below the sweep baseline {:.4}",
        steady_success(&reactive),
        steady_success(&sweep)
    );

    let cost_per_window =
        |ws: &[ChurnWindowStats]| ws.iter().map(|w| w.repair_cost).sum::<u64>() / ws.len() as u64;
    let (rc, sc) = (cost_per_window(&reactive), cost_per_window(&sweep));
    assert!(
        rc < sc,
        "reactive repair must cost strictly less per window: {rc} vs {sc}"
    );
    // And not marginally so: per-event repair is an order of magnitude
    // cheaper at 2%/window.
    assert!(rc * 5 < sc, "expected a wide margin, got {rc} vs {sc}");
    assert!(
        reactive.iter().map(|w| w.repairs).sum::<u64>() > 0,
        "the reactive policy must actually have fired"
    );
}

#[test]
fn machine_backend_reactive_sustains_delivery_for_a_fraction_of_sweep_traffic() {
    // The PR 5 phase-diagram claim replayed through the protocol
    // machines, where detection is honest messages instead of oracle
    // knowledge (the oracle backend's test is
    // `reactive_repair_matches_sweep_delivery_at_strictly_lower_cost`
    // above; same margin discipline here). Two corners of the phase
    // diagram:
    //
    // * 10%/window, tight probing: reactive-k2 holds >= 99% delivery
    //   where the once-a-window sweep has already collapsed below 90%,
    //   and still spends strictly less on maintenance.
    // * 2%/window, relaxed probing: delivery stays perfect for a wide
    //   (>= 5x) traffic gap — the probes-plus-repairs bill is bounded by
    //   damage, not population, while every sweep rebuilds all n peers.
    //
    // The oracle backend shows a bigger gap at the same points because
    // its failure detection is free; the machines pay for theirs in
    // probe traffic, which is exactly what `repair_cost` now meters.
    use oscar::keydist::UniformKeys;
    use oscar::protocol::PeerConfig;
    use oscar::sim::{machine_repair_policy, run_machine_churn, DesDriver, MachineChurnConfig};

    let n = 256usize;
    let run = |turnover: f64, repair: RepairPolicy, probe_every: u64| {
        let rate = turnover * n as f64 / 1000.0;
        let schedule = ChurnSchedule {
            join_rate: rate,
            crash_rate: rate * 0.8,
            depart_rate: rate * 0.2,
            repair,
            window_ticks: 1000,
            query_budget: QueryBudget::Fixed(128),
            min_live: 64,
        };
        let peer_cfg = PeerConfig {
            repair: machine_repair_policy(&schedule.repair),
            ..PeerConfig::default()
        };
        let cfg = MachineChurnConfig {
            initial_peers: n,
            build_walks: 3,
            probe_every,
        };
        let mut des = DesDriver::new(41, peer_cfg);
        let windows = run_machine_churn(
            &mut des,
            &UniformKeys,
            &cfg,
            &schedule,
            4,
            SeedTree::new(41),
        )
        .unwrap();
        assert_eq!(des.fault_count(), 0, "machine faults in a seeded run");
        windows
    };
    let delivery = |ws: &[ChurnWindowStats]| {
        ws.iter().map(|w| w.queries.success_rate).sum::<f64>() / ws.len() as f64
    };
    let cost = |ws: &[ChurnWindowStats]| ws.iter().map(|w| w.repair_cost).sum::<u64>();
    let reactive_k2 = RepairPolicy::Reactive { neighbors_k: 2 };

    // Deep churn: 10% of the population per window.
    let deep_r = run(0.10, reactive_k2.clone(), 300);
    let deep_s = run(0.10, RepairPolicy::SweepEvery(1000), 300);
    let churned: u64 = deep_r.iter().map(|w| w.joins + w.crashes + w.departs).sum();
    assert!(
        churned as f64 >= 0.05 * n as f64,
        "schedule must churn: {churned}"
    );
    assert!(
        delivery(&deep_r) >= 0.99,
        "reactive-k2 delivery {:.4} below 99% at 10%/window",
        delivery(&deep_r)
    );
    assert!(
        delivery(&deep_s) < 0.99,
        "the sweep baseline was supposed to be degraded here, got {:.4}",
        delivery(&deep_s)
    );
    assert!(
        cost(&deep_r) < cost(&deep_s),
        "better delivery must not cost more: {} vs {}",
        cost(&deep_r),
        cost(&deep_s)
    );

    // Light churn: 2% per window, probes relaxed to once a window.
    let light_r = run(0.02, reactive_k2, 900);
    let light_s = run(0.02, RepairPolicy::SweepEvery(1000), 900);
    assert!(
        delivery(&light_r) >= delivery(&light_s),
        "reactive delivery {:.4} fell below the sweep baseline {:.4}",
        delivery(&light_r),
        delivery(&light_s)
    );
    let (rc, sc) = (cost(&light_r), cost(&light_s));
    assert!(
        rc * 5 < sc,
        "expected a wide repair-traffic margin at light churn: {rc} vs {sc}"
    );
}

#[test]
fn deep_churn_degrades_gracefully() {
    // Well beyond the paper's 33%: kill 60%; the stabilised ring still
    // delivers everything, cost rises but stays polylogarithmic-ish.
    let mut ov = grown_overlay(17);
    ov.kill_fraction(0.60).unwrap();
    let stats = ov.run_queries(&QueryWorkload::UniformPeers, 400);
    assert_eq!(stats.success_rate, 1.0);
    assert!(stats.mean_cost < 60.0, "cost {:.1}", stats.mean_cost);
}
