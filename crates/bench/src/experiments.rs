//! The experiment drivers behind every figure.

use crate::parallel::{run_tasks, Task};
use crate::scale::Scale;
use oscar_degree::DegreeDistribution;
use oscar_keydist::{KeyDistribution, QueryWorkload};
use oscar_protocol::PeerConfig;
use oscar_sim::{
    kill_fraction, machine_repair_policy, run_continuous_churn, run_machine_churn, run_query_batch,
    ChurnSchedule, ChurnWindowStats, DesDriver, FaultModel, GrowthConfig, MachineChurnConfig,
    Network, OverlayBuilder, QueryBatchStats, QueryBudget, RoutePolicy,
};
use oscar_types::labels::bench_experiments::{LBL_CHURN, LBL_GROWTH, LBL_MACHINE, LBL_QUERIES};
use oscar_types::{Result, SeedTree};

/// Everything one growth run produces.
pub struct GrowthRunResult {
    /// Curve label (e.g. "constant", "realistic").
    pub label: String,
    /// Per-checkpoint query statistics (`N` queries at network size `N`,
    /// the paper's protocol), measured after the rewire-all pass.
    pub cost_by_size: Vec<(usize, QueryBatchStats)>,
    /// One series per requested crash fraction, in request order: the
    /// same checkpoints measured on crashed clones (Figure 2).
    pub crashed: Vec<ChurnResult>,
    /// Sorted per-peer relative degree load at the final size (Fig 1(b)).
    pub final_degree_load: Vec<f64>,
    /// Total degree-volume utilisation at the final size (E2/E3).
    pub final_utilization: f64,
    /// The grown network (for follow-up analyses, e.g. churn clones).
    pub network: Network,
}

impl GrowthRunResult {
    /// Mean search cost at the final checkpoint (0 for an empty run).
    pub fn final_cost(&self) -> f64 {
        self.cost_by_size.last().map_or(0.0, |(_, s)| s.mean_cost)
    }
}

/// One churn measurement series: search cost per network size for a fixed
/// crash fraction.
pub struct ChurnResult {
    /// Crash fraction (0.0, 0.10, 0.33, …).
    pub fraction: f64,
    /// Per-checkpoint query statistics on the crashed clone.
    pub cost_by_size: Vec<(usize, QueryBatchStats)>,
}

/// The crash fractions of Figure 2's three curves.
pub const FIG2_CRASHES: [f64; 3] = [0.0, 0.10, 0.33];

/// Grows an overlay under the paper's protocol and measures search cost at
/// every checkpoint: `N` queries on the network itself, then — the
/// Figure 2 protocol — for each of `crash_fractions`, `N` queries among
/// the survivors of a crashed *clone* (wasted traffic included).
///
/// The growth itself is inherently sequential, but the per-checkpoint
/// fraction measurements are independent (each owns a clone and its own
/// seed-tree child), so they fan out over [`Scale::thread_count`] workers;
/// results are byte-identical to the sequential order. The in-place batch
/// touches only the network's metrics, which no builder reads, so the
/// grown topology does not depend on `crash_fractions`.
pub fn run_growth_experiment(
    builder: &dyn OverlayBuilder,
    keys: &dyn KeyDistribution,
    degrees: &dyn DegreeDistribution,
    scale: &Scale,
    label: &str,
    crash_fractions: &[f64],
) -> Result<GrowthRunResult> {
    let seed = SeedTree::new(scale.seed);
    let threads = scale.thread_count();
    let mut net = Network::new(FaultModel::StabilizedRing);
    let growth = GrowthConfig {
        target_size: scale.target,
        checkpoints: scale.checkpoints(),
    };
    let mut cost_by_size = Vec::new();
    let mut crashed: Vec<ChurnResult> = crash_fractions
        .iter()
        .map(|&fraction| ChurnResult {
            fraction,
            cost_by_size: Vec::new(),
        })
        .collect();
    growth.run(
        &mut net,
        builder,
        keys,
        degrees,
        seed.child(LBL_GROWTH),
        |net, cp| {
            let mut rng = seed.child2(LBL_QUERIES, cp.index as u64).rng();
            let stats = run_query_batch(
                net,
                &QueryWorkload::UniformPeers,
                cp.size,
                &RoutePolicy::default(),
                &mut rng,
            );
            cost_by_size.push((cp.size, stats));
            // Each measurement task clones the network into its own
            // crashed copy.
            let net: &Network = net;
            let tasks: Vec<Task<Result<QueryBatchStats>>> = crash_fractions
                .iter()
                .enumerate()
                .map(|(fi, &fraction)| {
                    let churn_seed = seed.child2(LBL_CHURN, (cp.index * 16 + fi) as u64);
                    Box::new(move || {
                        let mut clone = net.clone();
                        if fraction > 0.0 {
                            kill_fraction(&mut clone, fraction, &mut churn_seed.rng())?;
                        }
                        Ok(run_query_batch(
                            &mut clone,
                            &QueryWorkload::UniformPeers,
                            cp.size,
                            &RoutePolicy::default(),
                            &mut churn_seed.child(LBL_QUERIES).rng(),
                        ))
                    }) as Task<Result<QueryBatchStats>>
                })
                .collect();
            for (series, stats) in crashed.iter_mut().zip(run_tasks(threads, tasks)) {
                series.cost_by_size.push((cp.size, stats?));
            }
            Ok(())
        },
    )?;
    let final_degree_load = net.degree_load_curve();
    let final_utilization = net.degree_volume_utilization();
    Ok(GrowthRunResult {
        label: label.to_string(),
        cost_by_size,
        crashed,
        final_degree_load,
        final_utilization,
        network: net,
    })
}

/// One continuous-churn series: steady-state windows at a fixed churn
/// level on the common grown network.
pub struct SteadyChurnResult {
    /// Human label for the churn level ("1.0%/win", …).
    pub label: String,
    /// The schedule that produced it.
    pub schedule: ChurnSchedule,
    /// Per-window measurements, in virtual-time order.
    pub windows: Vec<ChurnWindowStats>,
}

/// Mean of `f` over the steady-state tail of `windows` (the last half —
/// the early windows still carry the pristine pre-churn topology).
pub fn steady_mean_of(windows: &[ChurnWindowStats], f: impl Fn(&ChurnWindowStats) -> f64) -> f64 {
    let tail = &windows[windows.len() / 2..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().map(f).sum::<f64>() / tail.len() as f64
}

impl SteadyChurnResult {
    /// Mean of `f` over the steady-state windows (the last half — the
    /// early windows still carry the pristine pre-churn topology).
    pub fn steady_mean(&self, f: impl Fn(&ChurnWindowStats) -> f64) -> f64 {
        steady_mean_of(&self.windows, f)
    }
}

/// One schedule of the churn ladders: per-window peer turnover of
/// `turnover` of the grown population, symmetric join/failure rates with
/// a small graceful-departure share, one repair sweep per window.
pub fn churn_schedule_for(turnover: f64, scale: &Scale) -> ChurnSchedule {
    let base = ChurnSchedule::symmetric(0.0);
    let events_per_window = turnover * scale.target as f64;
    let rate = events_per_window / base.window_ticks as f64;
    ChurnSchedule {
        join_rate: rate,
        crash_rate: rate * 0.8,
        depart_rate: rate * 0.2,
        query_budget: QueryBudget::Fixed((scale.target / 4).max(100)),
        min_live: (scale.target / 10).max(16),
        ..base
    }
}

/// Human label for a turnover fraction ("2.0%/win").
pub(crate) fn turnover_label(turnover: f64) -> String {
    format!("{:.1}%/win", turnover * 100.0)
}

/// The standard churn-level ladder for a given scale: per-window peer
/// turnover of 0.5%, 1%, 2% and 5% of the grown population.
pub fn standard_churn_schedules(scale: &Scale) -> Vec<(String, ChurnSchedule)> {
    [0.005, 0.01, 0.02, 0.05]
        .into_iter()
        .map(|turnover| {
            (
                turnover_label(turnover),
                churn_schedule_for(turnover, scale),
            )
        })
        .collect()
}

/// Grows the substrate network the churn cells start from: the paper's
/// growth protocol to `target` peers with one final rewire-all pass, so
/// window 0 measures churn damage on a repaired topology, not growth-era
/// link bias (comparable to the fig1c/fig2 checkpoints at the same size).
/// Determinism: all randomness derives from `seed`.
pub fn grow_substrate<B: OverlayBuilder + ?Sized>(
    builder: &B,
    keys: &dyn KeyDistribution,
    degrees: &dyn DegreeDistribution,
    target: usize,
    seed: SeedTree,
) -> Result<Network> {
    let mut net = Network::new(FaultModel::StabilizedRing);
    GrowthConfig {
        target_size: target,
        checkpoints: vec![target],
    }
    .run(&mut net, builder, keys, degrees, seed, |_, _| Ok(()))?;
    Ok(net)
}

/// Runs the continuous-churn engine once per *cell* — a schedule, a
/// successor-list length and a seed — on that cell's own clone of `net`,
/// and measures `windows` windows of each. `Some(k)` switches the clone
/// to [`FaultModel::UnstabilizedRing`] with `k` successors; `None` keeps
/// the substrate's stabilised ring.
///
/// Cells are independent — each owns its clone and draws only from its
/// own seed — so they fan out over [`Scale::thread_count`] workers with
/// byte-identical results at any thread count
/// (`tests/parallel_determinism.rs` pins the rendered CSVs). Clones are
/// what dominates memory (a full `Network` per cell), so each task clones
/// the substrate itself when a worker picks it up: at most `threads`
/// clones are alive at once, not every cell's.
pub fn run_churn_cells<B: OverlayBuilder + Sync + ?Sized>(
    net: &Network,
    builder: &B,
    keys: &dyn KeyDistribution,
    degrees: &dyn DegreeDistribution,
    scale: &Scale,
    cells: &[(ChurnSchedule, Option<usize>, SeedTree)],
    windows: usize,
) -> Result<Vec<Vec<ChurnWindowStats>>> {
    let tasks: Vec<Task<Result<Vec<ChurnWindowStats>>>> = cells
        .iter()
        .map(|(schedule, succ_list_len, seed)| {
            Box::new(move || {
                let mut cell_net = net.clone();
                if let Some(k) = *succ_list_len {
                    cell_net.set_fault_model(FaultModel::UnstabilizedRing);
                    cell_net.set_succ_list_len(k);
                }
                run_continuous_churn(
                    &mut cell_net,
                    builder,
                    keys,
                    degrees,
                    schedule,
                    windows,
                    *seed,
                )
            }) as Task<Result<Vec<ChurnWindowStats>>>
        })
        .collect();
    run_tasks(scale.thread_count(), tasks).into_iter().collect()
}

/// The steady-state churn protocol through the **machine world**: every
/// churn level of `schedules` runs on its own [`DesDriver`]-hosted
/// [`oscar_protocol::PeerMachine`] fleet (bootstrapped to `scale.target`
/// peers by real joins), with the level's repair policy mapped onto the
/// machines via [`machine_repair_policy`].
///
/// Unlike the oracle world there is no pre-grown substrate and no free
/// failure detection — every repair in the window books is protocol
/// messages. Levels are independent (each owns its driver and derives all
/// randomness from its own seed-tree child), so they fan out over
/// [`Scale::thread_count`] workers with byte-identical results.
///
/// One churn level's outcome: its windowed books plus the driver's
/// fault count.
type MachineLevelRun = Result<(Vec<ChurnWindowStats>, u64)>;

/// Returns the per-level results plus the summed
/// [`oscar_protocol::ProtocolEvent::Fault`] count across every driver —
/// faults are machine invariant violations, so seeded runs gate on zero.
pub fn run_machine_churn_experiment(
    keys: &dyn KeyDistribution,
    scale: &Scale,
    schedules: &[(String, ChurnSchedule)],
    windows: usize,
) -> Result<(Vec<SteadyChurnResult>, u64)> {
    let seed = SeedTree::new(scale.seed);
    let tasks: Vec<Task<MachineLevelRun>> = schedules
        .iter()
        .enumerate()
        .map(|(i, (_, schedule))| {
            let run_seed = seed.child2(LBL_MACHINE, i as u64);
            Box::new(move || {
                let peer_cfg = PeerConfig {
                    repair: machine_repair_policy(&schedule.repair),
                    ..PeerConfig::default()
                };
                let mut driver = DesDriver::new(run_seed.seed(), peer_cfg);
                let cfg = MachineChurnConfig {
                    initial_peers: scale.target,
                    probe_every: (schedule.window_ticks / 10).max(1),
                    ..MachineChurnConfig::default()
                };
                let windows =
                    run_machine_churn(&mut driver, keys, &cfg, schedule, windows, run_seed)?;
                Ok((windows, driver.fault_count()))
            }) as Task<Result<(Vec<ChurnWindowStats>, u64)>>
        })
        .collect();
    let mut faults = 0u64;
    let results = schedules
        .iter()
        .zip(run_tasks(scale.thread_count(), tasks))
        .map(|((label, schedule), outcome)| {
            let (windows, level_faults) = outcome?;
            faults += level_faults;
            Ok(SteadyChurnResult {
                label: label.clone(),
                schedule: schedule.clone(),
                windows,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((results, faults))
}

/// One cell of the churn phase diagram: a fixed (churn level, repair
/// policy, successor-list length) combination measured at steady state
/// under the **unstabilised** ring — the regime where the successor list
/// is what keeps routing alive and delivery can actually break.
pub struct PhaseCell {
    /// Per-window turnover fraction of the grown population.
    pub turnover: f64,
    /// Repair-policy label ("none", "sweep", "reactive-k2", "on-probe").
    pub policy: &'static str,
    /// Successor-list length this cell ran with.
    pub succ_list_len: usize,
    /// The cell's run, labelled with its churn level ("10.0%/win"); its
    /// schedule carries the cell's repair policy.
    pub run: SteadyChurnResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_core::{MercuryBuilder, OscarBuilder, OscarConfig};
    use oscar_degree::ConstantDegrees;
    use oscar_keydist::GnutellaKeys;
    use oscar_sim::RepairPolicy;

    #[test]
    fn growth_experiment_produces_full_series() {
        let scale = Scale::small(300, 5);
        let builder = OscarBuilder::new(OscarConfig::default());
        let r = run_growth_experiment(
            &builder,
            &GnutellaKeys::default(),
            &ConstantDegrees::paper(),
            &scale,
            "constant",
            &[],
        )
        .unwrap();
        assert_eq!(r.label, "constant");
        assert_eq!(r.cost_by_size.len(), scale.checkpoints().len());
        assert_eq!(r.final_degree_load.len(), 300);
        assert!(r.final_utilization > 0.5);
        for (size, stats) in &r.cost_by_size {
            assert_eq!(stats.success_rate, 1.0, "at size {size}");
        }
    }

    #[test]
    fn churn_experiment_orders_fractions() {
        let scale = Scale::small(300, 7);
        let builder = OscarBuilder::new(OscarConfig::default());
        let rs = run_growth_experiment(
            &builder,
            &GnutellaKeys::default(),
            &ConstantDegrees::paper(),
            &scale,
            "constant",
            &FIG2_CRASHES,
        )
        .unwrap()
        .crashed;
        assert_eq!(rs.len(), 3);
        // At the final checkpoint the ordering must match Figure 2.
        let last = |r: &ChurnResult| r.cost_by_size.last().unwrap().1.mean_cost;
        assert!(last(&rs[0]) < last(&rs[1]));
        assert!(last(&rs[1]) < last(&rs[2]));
        // All fractions keep full delivery under the stabilised ring.
        for r in &rs {
            for (_, stats) in &r.cost_by_size {
                assert_eq!(stats.success_rate, 1.0);
            }
        }
    }

    #[test]
    fn churn_cells_measure_every_window_on_either_ring() {
        let scale = Scale::small(200, 13);
        let builder = OscarBuilder::new(OscarConfig::default());
        let (keys, degrees) = (GnutellaKeys::default(), ConstantDegrees::paper());
        let seed = SeedTree::new(scale.seed);
        let net = grow_substrate(&builder, &keys, &degrees, 200, seed.child(LBL_GROWTH)).unwrap();
        let at_two_percent = |repair| ChurnSchedule {
            repair,
            ..churn_schedule_for(0.02, &scale)
        };
        let window_ticks = ChurnSchedule::symmetric(0.0).window_ticks;
        let cells = [
            // Two rungs of the standard ladder on the stabilised ring...
            (churn_schedule_for(0.005, &scale), None, seed.child(1)),
            (churn_schedule_for(0.01, &scale), None, seed.child(2)),
            // ...and two repair policies on the unstabilised one.
            (
                at_two_percent(RepairPolicy::SweepEvery(window_ticks)),
                Some(4),
                seed.child(3),
            ),
            (
                at_two_percent(RepairPolicy::Reactive { neighbors_k: 2 }),
                Some(4),
                seed.child(4),
            ),
        ];
        let runs = run_churn_cells(&net, &builder, &keys, &degrees, &scale, &cells, 3).unwrap();
        assert_eq!(runs.len(), cells.len());
        for ((schedule, succ, _), windows) in cells.iter().zip(&runs) {
            assert_eq!(windows.len(), 3, "{succ:?}");
            for w in windows {
                assert!(w.queries.queries > 0, "{succ:?}: empty window");
                assert!(w.live_at_end >= schedule.min_live);
            }
            assert!(steady_mean_of(windows, |w| w.queries.mean_cost) > 0.0);
        }
        // Every cell churned its own clone of the substrate, so histories
        // diverge only through the engine: the rungs must actually differ
        // in intensity, and repair accounting must tell the policies
        // apart (sweeps rewire the population, reactive repairs scale
        // with the membership events).
        assert_eq!(net.live_count(), 200, "the substrate itself is untouched");
        let sum = |ws: &[ChurnWindowStats], f: fn(&ChurnWindowStats) -> u64| {
            ws.iter().map(f).sum::<u64>()
        };
        let turnover = |w: &ChurnWindowStats| w.joins + w.crashes;
        assert!(sum(&runs[1], turnover) > sum(&runs[0], turnover));
        let repair_cost = |w: &ChurnWindowStats| w.repair_cost;
        assert!(
            sum(&runs[3], repair_cost) < sum(&runs[2], repair_cost),
            "reactive repair must cost less than sweeping at 2%/win"
        );
    }

    #[test]
    fn experiments_work_with_mercury_too() {
        let scale = Scale::small(200, 9);
        let builder = MercuryBuilder::new();
        let r = run_growth_experiment(
            &builder,
            &GnutellaKeys::default(),
            &ConstantDegrees::paper(),
            &scale,
            "mercury",
            &[],
        )
        .unwrap();
        assert_eq!(r.cost_by_size.len(), scale.checkpoints().len());
        assert!(r.final_utilization > 0.0);
    }

    #[test]
    fn experiments_are_deterministic() {
        let scale = Scale::small(200, 11);
        let builder = OscarBuilder::new(OscarConfig::default());
        let run = || {
            run_growth_experiment(
                &builder,
                &GnutellaKeys::default(),
                &ConstantDegrees::paper(),
                &scale,
                "x",
                &[],
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_utilization, b.final_utilization);
        let costs = |r: &GrowthRunResult| {
            r.cost_by_size
                .iter()
                .map(|(_, s)| s.mean_cost)
                .collect::<Vec<_>>()
        };
        assert_eq!(costs(&a), costs(&b));
    }
}
