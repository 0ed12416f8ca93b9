//! Parallel sweeps must be a pure wall-time optimisation: every CSV a
//! figure driver emits has to be byte-identical whether the runs execute
//! sequentially (`OSCAR_THREADS=1`) or fanned out over worker threads.
//!
//! Each growth/churn run derives all of its randomness from its own
//! `SeedTree` child of `Scale::seed`, so execution order cannot leak into
//! any result; these tests pin that property end to end, at the level the
//! acceptance criterion is stated: the rendered CSV bytes. The four
//! harness tests below also pin the 1-thread rendering to a fixed
//! digest, so a change that moves every thread count the same way fails
//! too; a new constant is computed on the parent commit, never on the
//! change.

use oscar_bench::figures::{
    fig1b_report, fig1c_report, fig2_report, mercury_compare_report, phase_reports, run_fig1_suite,
    run_phase_suite, run_steady_churn_suite, steady_churn_reports,
};
use oscar_bench::series::to_csv;
use oscar_bench::{run_growth_experiment, GrowthRunResult, Scale, FIG2_CRASHES};
use oscar_core::{OscarBuilder, OscarConfig};
use oscar_degree::{ConstantDegrees, DegreeDistribution, SpikyDegrees};
use oscar_keydist::GnutellaKeys;

/// FNV-1a over every byte of `parts`, in order.
fn fnv1a<S: AsRef<str>>(parts: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.as_ref().bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A standalone Figure 2 growth: one Oscar overlay on Gnutella keys with
/// Figure 2's crashed clones, as `oscar-repro fig2a`/`fig2b` run it.
fn fig2_run(scale: &Scale, degrees: &dyn DegreeDistribution, label: &str) -> GrowthRunResult {
    let builder = OscarBuilder::new(OscarConfig::default());
    let keys = GnutellaKeys::default();
    run_growth_experiment(&builder, &keys, degrees, scale, label, &FIG2_CRASHES).unwrap()
}

#[test]
fn fig1_suite_csvs_identical_across_thread_counts() {
    let csvs = |threads: usize| {
        let scale = Scale::small(150, 3).with_threads(threads);
        let suite = run_fig1_suite(&scale).unwrap();
        vec![
            to_csv(fig1b_report(&suite).series()),
            to_csv(fig1c_report(&suite, &scale).series()),
            to_csv(mercury_compare_report(&suite, &scale).series()),
        ]
    };
    let sequential = csvs(1);
    assert_eq!(sequential, csvs(4), "1 vs 4 threads");
    assert_eq!(sequential, csvs(0), "1 vs all-cores auto");
}

#[test]
fn fig2_churn_csvs_identical_across_thread_counts() {
    let csv = |threads: usize| {
        let scale = Scale::small(150, 5).with_threads(threads);
        let run = fig2_run(&scale, &ConstantDegrees::paper(), "constant");
        to_csv(fig2_report(&run, &scale).series())
    };
    let sequential = csv(1);
    assert_eq!(sequential, csv(4));
    assert_eq!(
        fnv1a(&[&sequential]),
        2_231_046_770_461_770_923,
        "fig2 CSV digest moved"
    );
}

#[test]
fn fig2_panels_from_the_suite_match_the_standalone_runs() {
    // `all` renders Figure 2 from the Figure 1 suite's constant and
    // realistic overlays instead of growing them again; the panels must
    // be the bytes the standalone `fig2a`/`fig2b` growths give.
    let scale = Scale::small(150, 5);
    let suite = run_fig1_suite(&scale).unwrap();
    let csv = |run: &GrowthRunResult| to_csv(fig2_report(run, &scale).series());
    let constant = csv(suite.oscar("constant"));
    assert_eq!(
        constant,
        csv(&fig2_run(&scale, &ConstantDegrees::paper(), "constant"))
    );
    assert_eq!(
        fnv1a(&[&constant]),
        2_231_046_770_461_770_923,
        "fig2 CSV digest moved"
    );
    assert_eq!(
        csv(suite.oscar("realistic")),
        csv(&fig2_run(&scale, &SpikyDegrees::paper(), "realistic"))
    );
}

#[test]
fn steady_churn_csvs_identical_across_thread_counts() {
    // The `churn` acceptance criterion: every steady-state CSV must be
    // byte-identical whether the per-level engine runs execute
    // sequentially or fan out over worker threads.
    let csvs = |threads: usize| {
        let scale = Scale::small(150, 9).with_threads(threads);
        let results = run_steady_churn_suite(&scale, 3).unwrap();
        steady_churn_reports(&results)
            .iter()
            .map(|(_, r)| to_csv(r.series()))
            .collect::<Vec<_>>()
    };
    let sequential = csvs(1);
    assert_eq!(sequential, csvs(4), "1 vs 4 threads");
    assert_eq!(sequential, csvs(0), "1 vs all-cores auto");
    assert_eq!(
        fnv1a(&sequential),
        4_518_135_704_319_992_958,
        "steady-churn CSV digest moved"
    );
}

#[test]
fn phase_diagram_csvs_identical_across_thread_counts() {
    // The `phase` acceptance criterion: the 3-axis sweep (churn level
    // × repair policy × successor-list length) fans its cells over
    // `OSCAR_THREADS` on owned clones, and every rendered CSV must be
    // byte-identical whether the cells run sequentially or on 4 workers.
    let csvs = |threads: usize| {
        let scale = Scale::small(120, 21).with_threads(threads);
        let cells = run_phase_suite(&scale, 2).unwrap();
        phase_reports(&cells)
            .iter()
            .map(|(_, r)| to_csv(r.series()))
            .collect::<Vec<_>>()
    };
    let sequential = csvs(1);
    assert_eq!(sequential, csvs(4), "1 vs 4 threads");
    assert_eq!(
        fnv1a(&sequential),
        12_073_951_030_862_955_110,
        "phase CSV digest moved"
    );
}

#[test]
fn steady_churn_windows_identical_across_thread_counts() {
    // Below the CSV rendering: the raw per-window stats must match field
    // for field.
    let run = |threads: usize| {
        let scale = Scale::small(150, 11).with_threads(threads);
        run_steady_churn_suite(&scale, 3).unwrap()
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.label, rb.label);
        assert_eq!(ra.windows, rb.windows, "windows diverged at {}", ra.label);
    }
}

#[test]
fn scenario_suite_artifacts_identical_across_thread_counts() {
    // The `scenarios` acceptance criterion: the whole scenario suite
    // fans one scenario per worker, and both rendered artifacts — the
    // per-window CSV body and the markdown report — must be
    // byte-identical at any thread count. Scenario streams are keyed by
    // name, not suite position, so scheduling cannot leak in.
    let artifacts = |threads: usize| {
        let scale = Scale::small(150, 13).with_threads(threads);
        let outcomes = oscar_bench::run_all_scenarios(&scale).unwrap();
        outcomes
            .iter()
            .map(|o| {
                let rows: Vec<String> = o
                    .rows
                    .iter()
                    .map(|r| format!("{}|{}|{:?}", r.window, r.phase_label, r.stats))
                    .collect();
                (
                    o.scenario.name,
                    rows,
                    oscar_bench::render_scenario_report(o),
                )
            })
            .collect::<Vec<_>>()
    };
    let sequential = artifacts(1);
    assert_eq!(sequential, artifacts(4), "1 vs 4 threads");
    let rendered: Vec<String> = sequential
        .iter()
        .flat_map(|(name, rows, report)| [name.to_string(), rows.join("\n"), report.clone()])
        .collect();
    assert_eq!(
        fnv1a(&rendered),
        14_415_204_476_022_530_323,
        "scenario artifact digest moved"
    );
}

#[test]
fn churn_experiment_stats_identical_across_thread_counts() {
    // Below the CSV rendering too: the raw per-checkpoint stats must match
    // field for field (CSV rounding can never be doing the equalising).
    let run = |threads: usize| {
        let scale = Scale::small(150, 7).with_threads(threads);
        fig2_run(&scale, &ConstantDegrees::paper(), "constant").crashed
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.fraction, rb.fraction);
        assert_eq!(ra.cost_by_size.len(), rb.cost_by_size.len());
        for ((sa, qa), (sb, qb)) in ra.cost_by_size.iter().zip(&rb.cost_by_size) {
            assert_eq!(sa, sb);
            assert_eq!(qa, qb, "stats diverged at size {sa}");
        }
    }
}
