//! Quickstart: build an Oscar overlay on a skewed key space and query it.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use oscar::prelude::*;

fn main() -> Result<()> {
    // 1. An Oscar overlay: skewed Gnutella-like peer identifiers and the
    //    paper's constant 27-link budget, fault-free, seeded for
    //    reproducibility.
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 42);

    println!("growing Oscar overlay to 1000 peers (skewed key space)...");
    overlay.grow_to(1000, &GnutellaKeys::default(), &ConstantDegrees::paper())?;

    // 2. Query it: 1000 lookups between random peers.
    let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 1000);
    println!(
        "search cost: mean {:.2} hops (p50 {:.0}, p95 {:.0}, max {}), success rate {:.1}%",
        stats.mean_cost,
        stats.p50_cost,
        stats.p95_cost,
        stats.max_cost,
        stats.success_rate * 100.0
    );
    println!(
        "theory: worst-case bound log2^2(N) = {:.0}",
        oscar::core::theory::worst_case_search_bound(1000)
    );

    // 3. How well is the heterogeneous in-degree capacity used?
    let utilization = overlay.network().degree_volume_utilization();
    println!("degree-volume utilisation: {:.1}%", utilization * 100.0);

    // 4. Crash a third of the network; the ring self-stabilises, long
    //    links dangle, queries keep working at a higher cost.
    overlay.kill_fraction(0.33)?;
    let after = overlay.run_queries(&QueryWorkload::UniformPeers, 1000);
    println!(
        "after 33% crashes: mean cost {:.2} ({:.2} wasted per query), success rate {:.1}%",
        after.mean_cost,
        after.mean_wasted,
        after.success_rate * 100.0
    );
    Ok(())
}
