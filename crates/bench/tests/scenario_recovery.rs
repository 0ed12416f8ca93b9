//! Scenario-engine acceptance: the regional-outage campaign must
//! actually recover, and the same interpreter must run a campaign
//! bit-deterministically on a protocol driver's fleet.

use oscar_bench::{run_phases, run_scenario, standard_scenarios, PhaseSpec, Scale, Scenario};
use oscar_keydist::GnutellaKeys;
use oscar_protocol::{FaultPlan, PeerConfig, RepairPolicy};
use oscar_sim::{DesDriver, MachineChurnConfig, MachineWorld, Shock};
use oscar_types::SeedTree;

fn by_name(name: &str) -> Scenario {
    standard_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

#[test]
fn regional_outage_recovers_to_pre_outage_delivery() {
    // The scenario kills a contiguous 15% ring arc under reactive-k2,
    // heals, and must end at least as deliverable as before the outage.
    // The shipped check carries 0.005 slack (background churn can cost
    // a stray query in any window); this test re-asserts the strict
    // recovered >= pre comparison at a pinned scale and seed so a
    // future check edit cannot silently weaken the criterion.
    let sc = by_name("regional_outage");
    let out = run_scenario(&sc, &Scale::small(300, 17)).unwrap();
    let pre = out.phase_tail_mean(0, |w| w.queries.success_rate);
    let recovered = out.phase_tail_mean(3, |w| w.queries.success_rate);
    assert!(pre > 0.9, "steady phase must be healthy, got {pre}");
    // Backtracking routes around the hole, so the outage shows up as
    // wasted traffic (dead-link probes) and tail cost, not lost
    // deliveries — the unstabilised-ring waste story.
    let steady_waste = out.phase_tail_mean(0, |w| w.queries.mean_wasted);
    let damaged_waste = out.phase_tail_mean(1, |w| w.queries.mean_wasted);
    assert!(
        damaged_waste > steady_waste * 5.0 + 0.1,
        "killing 15% of the ring must be observable as wasted traffic: \
         steady {steady_waste}, outage {damaged_waste}"
    );
    let healed_waste = out.phase_tail_mean(3, |w| w.queries.mean_wasted);
    assert!(
        healed_waste < damaged_waste / 2.0,
        "healing must clear the dead-link probing: outage {damaged_waste}, \
         recovery {healed_waste}"
    );
    assert!(
        recovered >= pre,
        "delivery must recover to >= pre-outage after heal: pre {pre}, recovered {recovered}"
    );
    assert!(
        out.passed(),
        "regional_outage checks failed: {:?}",
        out.checks
    );
}

/// A 48-machine fleet on the DES under reactive-k2, handed to `script`
/// as a bootstrapped [`MachineWorld`] with the seed it grew from.
fn on_a_fleet<T>(
    scale: &Scale,
    script: impl FnOnce(&mut MachineWorld<'_, DesDriver>, &SeedTree) -> T,
) -> T {
    let peer_cfg = PeerConfig {
        repair: RepairPolicy::ReactiveK { k: 2 },
        ..PeerConfig::default()
    };
    let mut driver = DesDriver::new_with_faults(scale.seed, peer_cfg, FaultPlan::reliable());
    let cfg = MachineChurnConfig {
        initial_peers: scale.target,
        build_walks: 3,
        probe_every: 100,
    };
    let keys = GnutellaKeys::default();
    let seed = SeedTree::new(scale.seed);
    let mut world = MachineWorld::bootstrap(&mut driver, &keys, &cfg, &seed).unwrap();
    script(&mut world, &seed)
}

#[test]
fn machine_backend_runs_flash_crowd_deterministically() {
    // `run_phases` is generic over the churned world: on a `MachineWorld`
    // the same phases run through real protocol messages, with
    // bit-identical windows per (phases, seed).
    let scale = Scale::small(48, 19);
    // An outage first, so the crowd arrives at a fleet well off its
    // bootstrapped size.
    let mut phases = vec![PhaseSpec::Shock {
        label: "outage",
        shock: Shock::KillArc {
            start: 0.0,
            fraction: 0.3,
        },
    }];
    phases.extend(by_name("flash_crowd").phases);
    let run = || {
        on_a_fleet(&scale, |world, seed| {
            run_phases(world, &phases, &scale, seed).unwrap()
        })
    };
    let a = run();
    let b = run();
    let books = |rows: &[oscar_bench::ScenarioRow]| -> Vec<_> {
        rows.iter().map(|r| (r.phase, r.stats.clone())).collect()
    };
    assert_eq!(
        books(&a),
        books(&b),
        "machine scenario runs must be bit-deterministic"
    );
    // Shape: the outage's aftermath window, 3 steady windows, the burst's
    // aftermath window, 5 aftermath windows — the rows the oracle world
    // produces for the same phases.
    assert_eq!(a.len(), 10);
    assert_eq!(a[0].stats.crashes, 15, "ceil(48 * 0.3) killed");
    assert_eq!(a[4].phase_label, "burst");
    let steady_live = a[3].stats.live_at_end;
    let after_burst = a[4].stats.live_at_end;
    // The burst is a fraction of the *current live* population, not of
    // the grown size (which would make it ceil(48 * 0.10) = 5).
    let burst = (steady_live as f64 * 0.10).ceil() as usize;
    assert_eq!(
        burst, 4,
        "{steady_live} peers were live when the crowd arrived"
    );
    assert_eq!(after_burst, steady_live + burst);
    assert_eq!(a[4].stats.joins, burst as u64);
    assert_eq!(a[4].note, format!("{burst} joined at once"));
}

#[test]
fn phases_that_need_the_oracles_view_are_an_error_on_machines() {
    // Partition masks, targeted-degree kills and heals read and cut links
    // fleet-wide; a machine world says so instead of approximating.
    let scale = Scale::small(48, 19);
    for name in ["regional_outage", "targeted_attack", "partition_heal"] {
        let sc = by_name(name);
        let err = on_a_fleet(&scale, |world, seed| {
            run_phases(world, &sc.phases, &scale, seed)
        })
        .expect_err("a Heal phase cannot run on machines");
        assert!(err.to_string().contains("OracleWorld"), "{name}: {err}");
    }
}
