//! Ablations A1–A5 (DESIGN.md §4): which design choices buy what.
//!
//! * A1 — power-of-two choices on/off: degree-volume utilisation & cost
//! * A2 — median sample size sweep: cost vs sampling effort
//! * A3 — sampled vs oracle medians: what the sampling error costs;
//!   gated — the run fails if sampled medians cost more than
//!   `A3_MAX_COST_RATIO` × the oracle's search cost
//! * A4 — stabilised vs unstabilised ring at 33% crashes (+ successor-list
//!   length): what the paper's ring assumption is worth
//! * A5 — skewed (Zipf) access load: delivery concentration
//!
//! Runs at `min(OSCAR_SCALE, 4000)` — ablations need many full growths.

use crate::experiments::{run_growth_experiment, GrowthRunResult};
use crate::registry::RunResult;
use crate::report::Report;
use crate::scale::Scale;
use crate::series::Series;
use oscar_core::{OscarBuilder, OscarConfig};
use oscar_degree::ConstantDegrees;
use oscar_keydist::{GnutellaKeys, QueryWorkload};
use oscar_sim::{kill_fraction, run_query_batch, FaultModel, Network, RoutePolicy};
use oscar_types::SeedTree;

fn grow_with(config: OscarConfig, scale: &Scale, label: &str) -> GrowthRunResult {
    let builder = OscarBuilder::new(config);
    run_growth_experiment(
        &builder,
        &GnutellaKeys::default(),
        &ConstantDegrees::paper(),
        scale,
        label,
        &[],
    )
    .expect("growth run")
}

fn a1_power_of_two(scale: &Scale, with: &GrowthRunResult) -> std::io::Result<()> {
    eprintln!("[A1] power-of-two choices on/off...");
    let without = grow_with(
        OscarConfig::default().without_power_of_two(),
        scale,
        "po2 off",
    );
    let mut report = Report::new("A1: power-of-two choices", "variant (0 = off, 1 = on)");
    let mut util = Series::new("degree volume utilisation");
    util.push(0.0, without.final_utilization);
    util.push(1.0, with.final_utilization);
    let mut cost = Series::new("final mean search cost");
    cost.push(0.0, without.final_cost());
    cost.push(1.0, with.final_cost());
    report.add_series(util);
    report.add_series(cost);
    report.add_note(format!(
        "utilisation: off {:.1}% -> on {:.1}%; cost: off {:.2} -> on {:.2}",
        without.final_utilization * 100.0,
        with.final_utilization * 100.0,
        without.final_cost(),
        with.final_cost()
    ));
    report.emit("ablation_a1_power_of_two")?;
    Ok(())
}

fn a2_sample_size(scale: &Scale, base: &GrowthRunResult) -> std::io::Result<()> {
    eprintln!("[A2] median sample size sweep...");
    let mut cost = Series::new("final mean search cost");
    let mut walks = Series::new("walk steps per peer (x1000)");
    let default_size = OscarConfig::default().median_sample_size;
    for s in [4usize, 8, 12, 24, 48] {
        let cfg = OscarConfig {
            median_sample_size: s,
            ..OscarConfig::default()
        };
        let grown = (s != default_size).then(|| grow_with(cfg, scale, "sweep"));
        let run = grown.as_ref().unwrap_or(base);
        cost.push(s as f64, run.final_cost());
        let steps = run.network.metrics.get(oscar_sim::MsgKind::WalkStep) as f64
            / run.network.len() as f64
            / 1000.0;
        walks.push(s as f64, steps);
    }
    let mut report = Report::new("A2: median sample size sweep", "sample size");
    report.add_series(cost);
    report.add_series(walks);
    report.add_note(
        "the paper: 'very good results in practice even with very low sample sizes'".to_string(),
    );
    report.emit("ablation_a2_sample_size")?;
    Ok(())
}

/// A3's gate: search cost with sampled medians over search cost with
/// oracle medians. 0.99–1.03 at scales 400–2000; a sampling plan that
/// spends fewer walk steps by placing links worse shows here as hops.
const A3_MAX_COST_RATIO: f64 = 1.08;

fn a3_oracle_medians(scale: &Scale, sampled: &GrowthRunResult) -> RunResult {
    eprintln!("[A3] sampled vs oracle medians...");
    let oracle = grow_with(
        OscarConfig::default().with_oracle_medians(),
        scale,
        "oracle",
    );
    let mut report = Report::new(
        "A3: sampled vs oracle medians",
        "variant (0 = sampled, 1 = oracle)",
    );
    let mut cost = Series::new("final mean search cost");
    cost.push(0.0, sampled.final_cost());
    cost.push(1.0, oracle.final_cost());
    report.add_series(cost);
    report.add_note(format!(
        "sampled {:.2} vs oracle {:.2}: the gap is the price of 12-point median estimation",
        sampled.final_cost(),
        oracle.final_cost()
    ));
    report.emit("ablation_a3_oracle_medians")?;
    let ratio = sampled.final_cost() / oracle.final_cost();
    if ratio > A3_MAX_COST_RATIO {
        return Err(format!(
            "A3: sampled medians cost {ratio:.3}x the oracle's search cost, over the \
             {A3_MAX_COST_RATIO} gate — the sampling plan is placing links worse"
        )
        .into());
    }
    Ok(())
}

fn a4_ring_stabilization(scale: &Scale, base: &GrowthRunResult) -> std::io::Result<()> {
    eprintln!("[A4] ring stabilisation under 33% crashes...");
    let mut crashed = base.network.clone();
    let mut rng = SeedTree::new(scale.seed).child(0xC4A5).rng();
    kill_fraction(&mut crashed, 0.33, &mut rng).expect("churn");

    let mut report = Report::new(
        "A4: what the stabilised-ring assumption is worth (33% crashes)",
        "successor list length",
    );
    let mut cost = Series::new("mean cost (unstabilised)");
    let mut success = Series::new("success rate (unstabilised)");
    let measure = |net: &mut Network, seed: u64| {
        let mut qrng = SeedTree::new(seed).rng();
        run_query_batch(
            net,
            &QueryWorkload::UniformPeers,
            2000,
            &RoutePolicy::default(),
            &mut qrng,
        )
    };
    crashed.set_fault_model(FaultModel::StabilizedRing);
    let stabilized = measure(&mut crashed, 1);
    for sl in [1usize, 2, 4, 8, 16] {
        crashed.set_fault_model(FaultModel::UnstabilizedRing);
        crashed.set_succ_list_len(sl);
        let stats = measure(&mut crashed, 100 + sl as u64);
        cost.push(sl as f64, stats.mean_cost);
        success.push(sl as f64, stats.success_rate);
    }
    crashed.set_succ_list_len(8);
    report.add_series(cost);
    report.add_series(success);
    report.add_note(format!(
        "stabilised ring reference: cost {:.2}, success {:.1}% — the paper assumes this state",
        stabilized.mean_cost,
        stabilized.success_rate * 100.0
    ));
    report.add_note(
        "backtracking keeps queries alive when successor lists are short, at real cost".to_string(),
    );
    report.emit("ablation_a4_ring_stabilization")?;
    Ok(())
}

fn a5_skewed_access(scale: &Scale, base: &GrowthRunResult) -> std::io::Result<()> {
    eprintln!("[A5] skewed access load...");
    let mut net = base.network.clone();
    let mut report = Report::new("A5: skewed (Zipf) access load", "zipf exponent");
    let mut cost = Series::new("mean search cost");
    for (x, workload) in [
        (0.0, QueryWorkload::UniformPeers),
        (0.8, QueryWorkload::ZipfPeers { exponent: 0.8 }),
        (1.0, QueryWorkload::ZipfPeers { exponent: 1.0 }),
        (1.2, QueryWorkload::ZipfPeers { exponent: 1.2 }),
    ] {
        let mut qrng = SeedTree::new(scale.seed)
            .child(0xA5)
            .child((x * 10.0) as u64)
            .rng();
        let stats = run_query_batch(
            &mut net,
            &workload,
            4000,
            &RoutePolicy::default(),
            &mut qrng,
        );
        cost.push(x, stats.mean_cost);
    }
    report.add_series(cost);
    report.add_note(
        "search cost is access-skew-insensitive: routing shortcuts do not depend on \
         which keys are hot; per-peer fan-in stays capped by rho_in"
            .to_string(),
    );
    report.emit("ablation_a5_skewed_access")?;
    Ok(())
}

/// The `ablations` experiment: A1–A5 in order, one CSV each.
pub fn run(scale: &Scale) -> RunResult {
    let mut scale = scale.clone();
    if scale.target > 4000 {
        scale.target = 4000;
        scale.step = 400;
    }
    eprintln!(
        "running ablations at scale {} (step {}, seed {})",
        scale.target, scale.step, scale.seed
    );
    // A1's "on", A2's default sample size, A3's "sampled" and A4/A5's
    // base are one overlay: grow it once. Each reader clones its network
    // before querying it.
    let base = grow_with(OscarConfig::default(), &scale, "default");
    a1_power_of_two(&scale, &base)?;
    a2_sample_size(&scale, &base)?;
    a3_oracle_medians(&scale, &base)?;
    a4_ring_stabilization(&scale, &base)?;
    a5_skewed_access(&scale, &base)?;
    Ok(())
}
