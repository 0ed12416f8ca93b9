//! Whole-experiment determinism: every figure must regenerate
//! bit-identically from its seed, and seeds must actually matter.

use oscar::prelude::*;

fn oscar_fingerprint(seed: u64) -> (Vec<u64>, f64, f64) {
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, seed);
    ov.grow_to(300, &GnutellaKeys::default(), &SpikyDegrees::paper())
        .unwrap();
    let ids: Vec<u64> = ov
        .network()
        .all_peers()
        .map(|p| ov.network().peer(p).id.raw())
        .collect();
    let stats = ov.run_queries(&QueryWorkload::UniformPeers, 300);
    let util = ov.network().degree_volume_utilization();
    (ids, stats.mean_cost, util)
}

#[test]
fn oscar_experiment_is_bit_reproducible() {
    let a = oscar_fingerprint(12345);
    let b = oscar_fingerprint(12345);
    assert_eq!(a.0, b.0, "identical peer id streams");
    assert_eq!(a.1, b.1, "identical query costs");
    assert_eq!(a.2, b.2, "identical utilisation");
}

#[test]
fn different_seeds_give_different_networks() {
    let a = oscar_fingerprint(1);
    let b = oscar_fingerprint(2);
    assert_ne!(a.0, b.0, "seeds must matter");
}

#[test]
fn mercury_experiment_is_bit_reproducible() {
    let run = || {
        let mut ov = Overlay::new(MercuryBuilder::new(), FaultModel::StabilizedRing, 777);
        ov.grow_to(250, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        ov.run_queries(&QueryWorkload::UniformPeers, 250).mean_cost
    };
    assert_eq!(run(), run());
}

#[test]
fn churn_waves_are_reproducible() {
    let run = || {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, 31);
        ov.grow_to(300, &GnutellaKeys::default(), &ConstantDegrees::paper())
            .unwrap();
        let killed = ov.kill_fraction(0.33).unwrap();
        let stats = ov.run_queries(&QueryWorkload::UniformPeers, 300);
        (killed, stats.mean_cost, stats.mean_wasted)
    };
    let (ka, ca, wa) = run();
    let (kb, cb, wb) = run();
    assert_eq!(ka, kb, "same victims");
    assert_eq!(ca, cb);
    assert_eq!(wa, wb);
}

#[test]
fn metrics_are_reproducible_too() {
    let run = || {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut ov = Overlay::new(builder, FaultModel::StabilizedRing, 99);
        ov.grow_to(200, &UniformKeys, &ConstantDegrees::paper())
            .unwrap();
        ov.network().metrics.clone()
    };
    assert_eq!(run(), run());
}
