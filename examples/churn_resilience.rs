//! Churn resilience: crash waves and continuous churn on a virtual clock.
//!
//! Part 1 replays the paper's crash-wave experiment interactively (kill
//! 10% / 33%, measure the cost climb). Part 2 runs the continuous-churn
//! engine — joins, crashes and graceful departures as independent Poisson
//! processes on the discrete-event queue, with periodic rewire sweeps and
//! steady-state measurement windows — the regime the paper calls
//! orthogonal future work.
//!
//! Run with:
//! ```sh
//! cargo run --release --example churn_resilience
//! ```

use oscar::prelude::*;

fn main() -> Result<()> {
    // ---- Part 1: crash waves (the paper's Figure 2 protocol). ----
    println!("== crash waves ==");
    for fraction in [0.0, 0.10, 0.33] {
        let builder = OscarBuilder::new(OscarConfig::default());
        let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 5);
        overlay.grow_to(1000, &GnutellaKeys::default(), &ConstantDegrees::paper())?;
        if fraction > 0.0 {
            overlay.kill_fraction(fraction)?;
        }
        let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 1000);
        println!(
            "  {:>3.0}% crashed: mean cost {:>6.2} (hops {:.2} + wasted {:.2}), success {:.1}%",
            fraction * 100.0,
            stats.mean_cost,
            stats.mean_hops,
            stats.mean_wasted,
            stats.success_rate * 100.0
        );
    }

    // ---- Part 2: continuous churn on the event queue. ----
    //
    // Everything — join identities, link construction, victim picks,
    // inter-arrival gaps — derives from the overlay's own seed tree, so
    // the run below is reproducible from the single seed `6`.
    println!("\n== continuous churn (event-driven) ==");
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 6);
    let keys = GnutellaKeys::default();
    let degrees = ConstantDegrees::paper();
    overlay.grow_to(500, &keys, &degrees)?;

    // ~0.33 joins and ~0.25 failures per tick (four-fifths of them
    // crashes, the rest graceful departures): the population climbs
    // slowly while reactive repair rewires the two nearest live ring
    // neighbours of every casualty — O(k) maintenance per event instead
    // of the O(n) whole-network sweeps of `RepairPolicy::SweepEvery`.
    let schedule = ChurnSchedule {
        join_rate: 1.0 / 3.0,
        crash_rate: 0.20,
        depart_rate: 0.05,
        repair: RepairPolicy::Reactive { neighbors_k: 2 },
        window_ticks: 100,
        query_budget: QueryBudget::Fixed(300),
        min_live: 50,
    };
    let windows = overlay.run_continuous_churn(&keys, &degrees, &schedule, 10)?;
    let mut joins = 0u64;
    let mut crashes = 0u64;
    let mut departs = 0u64;
    let mut repairs = 0u64;
    let mut repair_cost = 0u64;
    for w in &windows {
        println!(
            "  t={:>4}  live={:>4}  mean cost {:>6.2}  wasted/query {:>5.2}  success {:>5.1}%  \
             repairs {:>3} ({} msgs)",
            w.end.0,
            w.live_at_end,
            w.queries.mean_cost,
            w.queries.mean_wasted,
            w.queries.success_rate * 100.0,
            w.repairs,
            w.repair_cost,
        );
        joins += w.joins;
        crashes += w.crashes;
        departs += w.departs;
        repairs += w.repairs;
        repair_cost += w.repair_cost;
    }
    println!(
        "  ({joins} joins, {crashes} crashes, {departs} departures; \
         {repairs} reactive repairs costing {repair_cost} messages)"
    );
    Ok(())
}
