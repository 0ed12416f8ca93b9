//! One driver per paper figure, shared by the per-figure experiments and
//! `all` (which reuses the heavy growth runs across figures).

use crate::experiments::{
    churn_schedule_for, grow_substrate, run_churn_cells, run_growth_experiment,
    standard_churn_schedules, turnover_label, GrowthRunResult, PhaseCell, SteadyChurnResult,
    FIG2_CRASHES,
};
use crate::json::Object;
use crate::parallel::{run_tasks, Task};
use crate::report::Report;
use crate::scale::Scale;
use crate::series::Series;
use oscar_core::{ChordBuilder, MercuryBuilder, OscarBuilder, OscarConfig};
use oscar_degree::{ConstantDegrees, DegreeDistribution, SpikyDegrees, SteppedDegrees};
use oscar_keydist::GnutellaKeys;
use oscar_sim::{ChurnSchedule, OverlayBuilder, RepairPolicy};
use oscar_types::labels::bench_experiments::{LBL_GROWTH, LBL_PHASE, LBL_STEADY};
use oscar_types::{Result, SeedTree};

/// Figure 1(a): the synthetic spiky node-degree pdf (model + empirical).
pub fn fig1a_report(scale: &Scale) -> Report {
    let spiky = SpikyDegrees::paper();
    let mut model = Series::new("model pdf");
    for (degree, prob) in spiky.pmf_points() {
        model.push(degree as f64, prob);
    }
    // Empirical check: histogram of 100k draws.
    let mut rng = SeedTree::new(scale.seed).child(0xA).rng();
    let draws = 100_000;
    let mut counts = std::collections::BTreeMap::new();
    let mut mean = 0.0;
    for _ in 0..draws {
        let d = oscar_degree::DegreeDistribution::sample(&spiky, &mut rng).rho_in;
        *counts.entry(d).or_insert(0u64) += 1;
        mean += d as f64 / draws as f64;
    }
    let mut empirical = Series::new("empirical (100k draws)");
    for (d, c) in counts {
        empirical.push(d as f64, c as f64 / draws as f64);
    }
    let mut report = Report::new(
        "Figure 1(a): synthetic spiky node-degree distribution (pdf)",
        "degree",
    );
    report.add_series(model);
    report.add_series(empirical);
    report.add_note(format!(
        "model mean = {:.4} (paper: 27); empirical mean over 100k draws = {mean:.3}",
        spiky.mean_degree()
    ));
    report.add_note("log-log in the paper; CSV carries raw (degree, pdf) points".to_string());
    report
}

/// The Figure 1(b)/(c) experiment bundle: Oscar under the three degree
/// distributions plus Mercury under constant degrees, all on the Gnutella
/// key distribution. The constant and realistic Oscar runs also carry
/// Figure 2's crashed-clone series.
pub struct Fig1Suite {
    /// Oscar runs: constant, realistic, stepped.
    pub oscar_runs: Vec<GrowthRunResult>,
    /// Mercury run with constant degrees (E3 / E7).
    pub mercury_run: GrowthRunResult,
    /// Chord finger-table run with constant degrees (skew-oblivious
    /// control, beyond the paper).
    pub chord_run: GrowthRunResult,
}

impl Fig1Suite {
    /// The Oscar run under the named in-degree distribution ("constant"
    /// is E7's contender and Figure 2(a)'s overlay, "realistic" Figure
    /// 2(b)'s).
    pub fn oscar(&self, degrees: &str) -> &GrowthRunResult {
        self.oscar_runs
            .iter()
            .find(|r| r.label == degrees)
            .expect("every paper degree distribution has a run")
    }
}

/// Runs the full Figure 1 suite (the expensive part, reused by 1(b), 1(c),
/// 2(a), 2(b), E3 and E7).
///
/// The five growth runs (3× Oscar, Mercury, Chord) are independent — each
/// derives every random draw from its own `SeedTree` rooted at
/// `scale.seed` — so they fan out over up to [`Scale::thread_count`]
/// worker threads with byte-identical results in any order
/// (`tests/parallel_determinism.rs` proves it against `OSCAR_THREADS=1`).
pub fn run_fig1_suite(scale: &Scale) -> Result<Fig1Suite> {
    let grow = move |label: &'static str,
                     builder: Box<dyn OverlayBuilder + Send>,
                     degrees: Box<dyn DegreeDistribution>,
                     crashes: &'static [f64]|
          -> Task<Result<GrowthRunResult>> {
        Box::new(move || {
            eprintln!("[fig1] growing {label} to {}...", scale.target);
            let keys = GnutellaKeys::default();
            run_growth_experiment(&*builder, &keys, &*degrees, scale, label, crashes)
        })
    };
    let oscar = || Box::new(OscarBuilder::new(OscarConfig::default()));
    let constant = || Box::new(ConstantDegrees::paper());
    let spiky = || Box::new(SpikyDegrees::paper());
    // Figure 2 has no stepped panel.
    let tasks = vec![
        grow("constant", oscar(), constant(), &FIG2_CRASHES),
        grow("realistic", oscar(), spiky(), &FIG2_CRASHES),
        grow("stepped", oscar(), Box::new(SteppedDegrees::paper()), &[]),
        grow(
            "mercury-constant",
            Box::new(MercuryBuilder),
            constant(),
            &[],
        ),
        grow("chord-constant", Box::new(ChordBuilder), constant(), &[]),
    ];
    let mut runs = run_tasks(scale.thread_count(), tasks);
    let chord_run = runs.pop().expect("chord task")?;
    let mercury_run = runs.pop().expect("mercury task")?;
    let oscar_runs = runs.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(Fig1Suite {
        oscar_runs,
        mercury_run,
        chord_run,
    })
}

/// Figure 1(b): relative degree load curves + degree-volume utilisation.
pub fn fig1b_report(suite: &Fig1Suite) -> Report {
    let mut report = Report::new(
        "Figure 1(b): relative degree load (actual/available in-degree, peers sorted)",
        "peer percentile",
    );
    let mut curves: Vec<(&str, &[f64])> = suite
        .oscar_runs
        .iter()
        .map(|r| (r.label.as_str(), r.final_degree_load.as_slice()))
        .collect();
    curves.push(("mercury-constant", &suite.mercury_run.final_degree_load));
    curves.push(("chord-constant", &suite.chord_run.final_degree_load));
    for (label, loads) in curves {
        let mut s = Series::new(label);
        // Downsample the sorted curve to 101 percentile points.
        let n = loads.len();
        if n == 0 {
            continue;
        }
        for pct in 0..=100usize {
            let idx = ((n - 1) * pct) / 100;
            s.push(pct as f64, loads[idx]);
        }
        report.add_series(s);
    }
    for r in &suite.oscar_runs {
        report.add_note(format!(
            "oscar/{}: degree volume utilisation = {:.1}% (paper: ~85%)",
            r.label,
            r.final_utilization * 100.0
        ));
    }
    report.add_note(format!(
        "mercury/constant: degree volume utilisation = {:.1}% (paper: ~61%)",
        suite.mercury_run.final_utilization * 100.0
    ));
    report.add_note(format!(
        "chord/constant (control): degree volume utilisation = {:.1}%",
        suite.chord_run.final_utilization * 100.0
    ));
    report
}

/// Figure 1(c): average search cost vs network size, three in-degree
/// distributions (Gnutella keys).
pub fn fig1c_report(suite: &Fig1Suite, scale: &Scale) -> Report {
    let mut report = Report::new(
        "Figure 1(c): search cost of Oscar under different in-degree distributions",
        "network size",
    );
    let figure_sizes = scale.figure_checkpoints();
    for run in &suite.oscar_runs {
        let mut s = Series::new(format!("{} in-degree", run.label));
        for (size, stats) in &run.cost_by_size {
            if figure_sizes.contains(size) {
                s.push(*size as f64, stats.mean_cost);
            }
        }
        report.add_series(s);
    }
    // The paper's claim: the three curves are nearly identical.
    let finals: Vec<f64> = suite
        .oscar_runs
        .iter()
        .filter_map(|r| r.cost_by_size.last().map(|(_, s)| s.mean_cost))
        .collect();
    let (mean, spread) = match finals.len() {
        0 => (0.0, 0.0),
        n => {
            let max = finals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = finals.iter().copied().fold(f64::INFINITY, f64::min);
            (finals.iter().sum::<f64>() / n as f64, max - min)
        }
    };
    report.add_note(format!(
        "final-size costs: mean {mean:.2}, max-min spread {spread:.2} (paper: curves nearly identical)"
    ));
    report
}

/// E7: Oscar vs Mercury search cost on the skewed key space.
pub fn mercury_compare_report(suite: &Fig1Suite, scale: &Scale) -> Report {
    let mut report = Report::new(
        "Oscar vs Mercury: search cost on the Gnutella key distribution (constant degrees)",
        "network size",
    );
    let figure_sizes = scale.figure_checkpoints();
    let oscar_constant = suite.oscar("constant");
    for (label, run) in [
        ("oscar", oscar_constant),
        ("mercury", &suite.mercury_run),
        ("chord-fingers", &suite.chord_run),
    ] {
        let mut s = Series::new(label);
        for (size, stats) in &run.cost_by_size {
            if figure_sizes.contains(size) {
                s.push(*size as f64, stats.mean_cost);
            }
        }
        report.add_series(s);
    }
    report.add_note(format!(
        "final size: oscar {:.2} vs mercury {:.2} (paper [8]: Oscar significantly outperforms Mercury)",
        oscar_constant.final_cost(),
        suite.mercury_run.final_cost()
    ));
    report.add_note(format!(
        "chord-fingers control: {:.2} — key-space-metric fingers collapse under skew (utilisation {:.1}%)",
        suite.chord_run.final_cost(),
        suite.chord_run.final_utilization * 100.0
    ));
    report
}

/// Figure 2(a)/(b): search cost under churn on `run`'s overlay, one curve
/// per crash fraction it measured.
pub fn fig2_report(run: &GrowthRunResult, scale: &Scale) -> Report {
    let mut report = Report::new(
        format!(
            "Figure 2: churn simulation (Gnutella keys; {} in-degree distribution)",
            run.label
        ),
        "network size",
    );
    let figure_sizes = scale.figure_checkpoints();
    for r in &run.crashed {
        let label = if r.fraction == 0.0 {
            "no faults".to_string()
        } else {
            format!("{:.0}% crashes", r.fraction * 100.0)
        };
        let mut s = Series::new(label);
        for (size, stats) in &r.cost_by_size {
            if figure_sizes.contains(size) {
                s.push(*size as f64, stats.mean_cost);
            }
        }
        report.add_series(s);
        let (_, last) = r.cost_by_size.last().expect("non-empty");
        // mean_cost/mean_hops average successful queries; mean_wasted
        // averages all issued queries (failures waste traffic too), so the
        // three are reported side by side, not as a sum.
        report.add_note(format!(
            "{:.0}% crashes at final size: successful-query cost {:.2} (hops {:.2}), \
             wasted/query incl. failures {:.2}, success {:.1}%",
            r.fraction * 100.0,
            last.mean_cost,
            last.mean_hops,
            last.mean_wasted,
            last.success_rate * 100.0
        ));
    }
    report
}

/// Runs the steady-state continuous-churn experiment (Oscar, Gnutella
/// keys, constant degrees) over the standard churn-level ladder: grow
/// one substrate, then one churn cell per level on the stabilised ring.
pub fn run_steady_churn_suite(scale: &Scale, windows: usize) -> Result<Vec<SteadyChurnResult>> {
    let builder = OscarBuilder::new(OscarConfig::default());
    let schedules = standard_churn_schedules(scale);
    eprintln!(
        "[churn-engine] growing to {} then running {} windows x {} churn levels...",
        scale.target,
        windows,
        schedules.len()
    );
    let (keys, degrees) = (GnutellaKeys::default(), ConstantDegrees::paper());
    let seed = SeedTree::new(scale.seed);
    let net = grow_substrate(
        &builder,
        &keys,
        &degrees,
        scale.target,
        seed.child(LBL_GROWTH),
    )?;
    let cells: Vec<_> = (0..)
        .zip(&schedules)
        .map(|(level, (_, schedule))| (schedule.clone(), None, seed.child2(LBL_STEADY, level)))
        .collect();
    let runs = run_churn_cells(&net, &builder, &keys, &degrees, scale, &cells, windows)?;
    Ok(schedules
        .into_iter()
        .zip(runs)
        .map(|((label, schedule), windows)| SteadyChurnResult {
            label,
            schedule,
            windows,
        })
        .collect())
}

/// The steady-state churn figures: search cost, wasted traffic and live
/// population per measurement window, one curve per churn level. Returned
/// as `(csv_name, report)` pairs for the emitters.
pub fn steady_churn_reports(results: &[SteadyChurnResult]) -> Vec<(&'static str, Report)> {
    let mut cost = Report::new(
        "Continuous churn: successful-query search cost per steady-state window",
        "window",
    );
    let mut waste = Report::new(
        "Continuous churn: wasted messages per query (incl. failures) per window",
        "window",
    );
    let mut population = Report::new("Continuous churn: live population per window", "window");
    let mut stderr = Report::new(
        "Continuous churn: standard error of mean cost per window (batch precision)",
        "window",
    );
    for r in results {
        let mut cost_s = Series::new(r.label.clone());
        let mut waste_s = Series::new(r.label.clone());
        let mut pop_s = Series::new(r.label.clone());
        let mut se_s = Series::new(r.label.clone());
        for w in &r.windows {
            let x = w.window as f64;
            cost_s.push(x, w.queries.mean_cost);
            waste_s.push(x, w.queries.mean_wasted);
            pop_s.push(x, w.live_at_end as f64);
            se_s.push(x, w.queries.se_cost);
        }
        cost.add_series(cost_s);
        waste.add_series(waste_s);
        population.add_series(pop_s);
        stderr.add_series(se_s);
        cost.add_note(format!(
            "{}: steady-state mean cost {:.2}, wasted/query {:.2}, success {:.1}%, live {:.0}",
            r.label,
            r.steady_mean(|w| w.queries.mean_cost),
            r.steady_mean(|w| w.queries.mean_wasted),
            r.steady_mean(|w| w.queries.success_rate) * 100.0,
            r.steady_mean(|w| w.live_at_end as f64),
        ));
    }
    vec![
        ("churn_steady_cost", cost),
        ("churn_steady_waste", waste),
        ("churn_steady_population", population),
        ("churn_steady_cost_stderr", stderr),
    ]
}

/// The `BENCH_churn*.json` summary of a steady-churn run: the
/// steady-state means per churn level, plus the run's
/// [`oscar_protocol::ProtocolEvent::Fault`] count (always 0 for the
/// oracle engine, which hosts no machines).
pub fn steady_churn_summary(
    bench: &str,
    scale: &Scale,
    results: &[SteadyChurnResult],
    faults: u64,
) -> Object {
    let total_windows: usize = results.iter().map(|r| r.windows.len()).sum();
    let windows_per_level = results.first().map_or(0, |r| r.windows.len());
    let levels = results
        .iter()
        .map(|r| {
            Object::new()
                .str("level", r.label.as_str())
                .float(
                    "steady_mean_cost",
                    r.steady_mean(|w| w.queries.mean_cost),
                    3,
                )
                .float(
                    "steady_mean_wasted",
                    r.steady_mean(|w| w.queries.mean_wasted),
                    3,
                )
                .float(
                    "steady_success_rate",
                    r.steady_mean(|w| w.queries.success_rate),
                    4,
                )
                .float("steady_live", r.steady_mean(|w| w.live_at_end as f64), 0)
        })
        .collect();
    Object::new()
        .str("bench", bench)
        .int("n_peers", scale.target)
        .int("seed", scale.seed)
        .int("windows_per_level", windows_per_level)
        .int("total_windows", total_windows)
        .int("faults", faults)
        .rows("levels", levels)
}

/// Runs the full churn phase diagram (Oscar, Gnutella keys, constant
/// degrees) on one grown substrate under the unstabilised ring: one churn
/// cell per churn level × repair policy × successor-list length.
pub fn run_phase_suite(scale: &Scale, windows: usize) -> Result<Vec<PhaseCell>> {
    // 2%–20% of the population per window: deliberately past the
    // standard ladder's 5% ceiling, so the delivery cliff is inside the
    // swept range.
    const TURNOVERS: [f64; 4] = [0.02, 0.05, 0.10, 0.20];
    const SUCC_LIST_LENS: [usize; 3] = [1, 2, 4];
    // No repair at all (the control column — dangling links and ring
    // corpses accumulate unchecked, which is where delivery actually
    // collapses), a whole-network sweep once per window, reactive k=2
    // neighbour repair, and probe-triggered repair.
    let window_ticks = ChurnSchedule::symmetric(0.0).window_ticks;
    let policies = [
        ("none", RepairPolicy::SweepEvery(0)),
        ("sweep", RepairPolicy::SweepEvery(window_ticks)),
        ("reactive-k2", RepairPolicy::Reactive { neighbors_k: 2 }),
        ("on-probe", RepairPolicy::OnProbe),
    ];
    eprintln!(
        "[phase] growing to {} then sweeping {} churn levels x {} repair policies x {} succ \
         lengths ({} windows each)...",
        scale.target,
        TURNOVERS.len(),
        policies.len(),
        SUCC_LIST_LENS.len(),
        windows,
    );
    let builder = OscarBuilder::new(OscarConfig::default());
    let (keys, degrees) = (GnutellaKeys::default(), ConstantDegrees::paper());
    // Per-cell seeds are keyed by grid position, independent of how the
    // cells are later batched onto workers.
    let seed = SeedTree::new(scale.seed);
    let net = grow_substrate(
        &builder,
        &keys,
        &degrees,
        scale.target,
        seed.child(LBL_GROWTH),
    )?;
    let (mut axes, mut cells) = (Vec::new(), Vec::new());
    for turnover in TURNOVERS {
        for (policy, repair) in &policies {
            for succ_list_len in SUCC_LIST_LENS {
                let schedule = ChurnSchedule {
                    repair: repair.clone(),
                    ..churn_schedule_for(turnover, scale)
                };
                let cell_seed = seed.child2(LBL_PHASE, cells.len() as u64);
                cells.push((schedule, Some(succ_list_len), cell_seed));
                axes.push((turnover, *policy, succ_list_len));
            }
        }
    }
    let runs = run_churn_cells(&net, &builder, &keys, &degrees, scale, &cells, windows)?;
    Ok(axes
        .into_iter()
        .zip(cells)
        .zip(runs)
        .map(
            |(((turnover, policy, succ_list_len), (schedule, ..)), windows)| PhaseCell {
                turnover,
                policy,
                succ_list_len,
                run: SteadyChurnResult {
                    label: turnover_label(turnover),
                    schedule,
                    windows,
                },
            },
        )
        .collect())
}

/// The phase-diagram figures: steady-state delivery, search cost, wasted
/// traffic and repair traffic as functions of churn level, one curve per
/// (repair policy, successor-list length). Returned as
/// `(csv_name, report)` pairs for the emitters.
pub fn phase_reports(cells: &[PhaseCell]) -> Vec<(&'static str, Report)> {
    let mut success = Report::new(
        "Churn phase diagram: steady-state delivery rate (unstabilised ring)",
        "churn %/window",
    );
    let mut cost = Report::new(
        "Churn phase diagram: steady-state successful-query search cost",
        "churn %/window",
    );
    let mut waste = Report::new(
        "Churn phase diagram: steady-state wasted messages per query",
        "churn %/window",
    );
    let mut repair = Report::new(
        "Churn phase diagram: steady-state repair messages per window",
        "churn %/window",
    );
    // One series per (policy, succ) pair, points ordered by churn level —
    // iterate combos in first-appearance order so the CSV layout is
    // stable whatever grid subset produced the cells.
    let mut combos: Vec<(&str, usize)> = Vec::new();
    for c in cells {
        let combo = (c.policy, c.succ_list_len);
        if !combos.contains(&combo) {
            combos.push(combo);
        }
    }
    for (policy, succ) in combos {
        let label = format!("{policy}/succ={succ}");
        let mut success_s = Series::new(label.clone());
        let mut cost_s = Series::new(label.clone());
        let mut waste_s = Series::new(label.clone());
        let mut repair_s = Series::new(label.clone());
        let mut cliff: Option<(f64, f64)> = None;
        for c in cells
            .iter()
            .filter(|c| c.policy == policy && c.succ_list_len == succ)
        {
            let x = c.turnover * 100.0;
            let delivery = c.run.steady_mean(|w| w.queries.success_rate);
            success_s.push(x, delivery);
            cost_s.push(x, c.run.steady_mean(|w| w.queries.mean_cost));
            waste_s.push(x, c.run.steady_mean(|w| w.queries.mean_wasted));
            repair_s.push(x, c.run.steady_mean(|w| w.repair_cost as f64));
            if cliff.is_none() && delivery < 0.9 {
                cliff = Some((x, delivery));
            }
        }
        success.add_note(match cliff {
            Some((x, d)) => format!(
                "{label}: delivery cliff at {x:.0}%/win (steady success {:.1}%)",
                d * 100.0
            ),
            None => format!("{label}: no cliff — delivery >= 90% across the swept range"),
        });
        success.add_series(success_s);
        cost.add_series(cost_s);
        waste.add_series(waste_s);
        repair.add_series(repair_s);
    }
    vec![
        ("churn_phase_success", success),
        ("churn_phase_cost", cost),
        ("churn_phase_waste", waste),
        ("churn_phase_repair", repair),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_report_has_model_and_empirical() {
        let report = fig1a_report(&Scale::small(100, 1));
        assert_eq!(report.series().len(), 2);
        // model pdf sums to ~1 over its support
        let total: f64 = report.series()[0].points.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fig1_suite_smoke_at_tiny_scale() {
        let scale = Scale::small(150, 3);
        let suite = run_fig1_suite(&scale).unwrap();
        assert_eq!(suite.oscar_runs.len(), 3);
        let b = fig1b_report(&suite);
        assert_eq!(b.series().len(), 5);
        let c = fig1c_report(&suite, &scale);
        assert_eq!(c.series().len(), 3);
        let m = mercury_compare_report(&suite, &scale);
        assert_eq!(m.series().len(), 3);
        for degrees in ["constant", "realistic"] {
            let fig2 = fig2_report(suite.oscar(degrees), &scale);
            assert_eq!(fig2.series().len(), 3, "{degrees}");
        }
    }

    #[test]
    fn phase_suite_smoke_at_tiny_scale() {
        let scale = Scale::small(120, 19);
        let cells = run_phase_suite(&scale, 2).unwrap();
        assert_eq!(cells.len(), 4 * 4 * 3);
        let reports = phase_reports(&cells);
        assert_eq!(reports.len(), 4);
        for (name, report) in &reports {
            // One curve per (policy, succ) combo, one point per level.
            assert_eq!(report.series().len(), 12, "{name}");
            for s in report.series() {
                assert_eq!(s.points.len(), 4, "{name}/{}", s.label);
            }
        }
    }

    #[test]
    fn steady_churn_suite_smoke_at_tiny_scale() {
        let scale = Scale::small(150, 7);
        let results = run_steady_churn_suite(&scale, 2).unwrap();
        assert_eq!(results.len(), 4);
        let reports = steady_churn_reports(&results);
        assert_eq!(reports.len(), 4);
        for (name, report) in &reports {
            assert_eq!(report.series().len(), 4, "{name}");
            for s in report.series() {
                assert_eq!(s.points.len(), 2, "{name}/{}", s.label);
            }
        }
    }
}
