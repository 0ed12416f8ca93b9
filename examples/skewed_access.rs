//! Skewed access load: when queries themselves are Zipf-distributed.
//!
//! The paper's introduction motivates heterogeneity not just in key
//! placement but in *access* patterns — some data is hot. This example
//! compares uniform and Zipf query workloads on the same Oscar overlay and
//! reports how per-peer forwarding load concentrates, and why in-degree
//! budgets still protect weak peers.
//!
//! Run with:
//! ```sh
//! cargo run --release --example skewed_access
//! ```

use oscar::prelude::*;
use oscar::sim::{route_to_owner, RoutePolicy};

fn per_peer_delivery_load(
    overlay: &Overlay<OscarBuilder>,
    workload: &QueryWorkload,
    queries: usize,
    seed: u64,
) -> Vec<u64> {
    let net = overlay.network();
    let mut rng = SeedTree::new(seed).rng();
    let mut deliveries = vec![0u64; net.len()];
    let targets = workload.sampler(net.live_count());
    for _ in 0..queries {
        let src = net.random_live_peer(&mut rng).expect("live peers exist");
        let rank = targets.draw(&mut rng);
        let key = net.peer(net.live_peer_by_rank(rank)).id;
        let outcome = route_to_owner(net, src, key, &RoutePolicy::default());
        if let Some(dest) = outcome.dest {
            deliveries[dest.as_usize()] += 1;
        }
    }
    deliveries
}

fn gini(loads: &[u64]) -> f64 {
    let mut xs: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

fn main() -> Result<()> {
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 21);
    println!("growing 800-peer Oscar overlay...");
    overlay.grow_to(800, &GnutellaKeys::default(), &SpikyDegrees::paper())?;

    let queries = 8000;
    println!("replaying {queries} queries under two access workloads:\n");
    for workload in [
        QueryWorkload::UniformPeers,
        QueryWorkload::ZipfPeers { exponent: 1.0 },
    ] {
        let loads = per_peer_delivery_load(&overlay, &workload, queries, 1234);
        let mut sorted = loads.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: u64 = sorted.iter().take(loads.len() / 100).sum();
        println!("  workload {:<18}", workload.name());
        println!(
            "    delivery load: gini {:.3}, hottest peer served {} queries, top-1% of peers served {:.1}%",
            gini(&loads),
            sorted[0],
            100.0 * top1pct as f64 / queries as f64
        );
    }

    println!(
        "\nnote: hot *delivery* load is a property of the workload — what Oscar\n\
         controls is forwarding fan-in: every peer's in-degree stays within its\n\
         declared budget, so hot traffic cannot recruit unlimited neighbours."
    );
    let util = overlay.network().degree_volume_utilization();
    println!("degree-volume utilisation stays at {:.1}%", util * 100.0);
    Ok(())
}
