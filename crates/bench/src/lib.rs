//! # oscar-bench — the experiment harness
//!
//! One binary, `oscar-repro <experiment>`, regenerates the paper's
//! figures and the stress experiments built around them; everything it
//! runs is a library function here, so the binary and the tests drive the
//! same code. [`registry`] is the table of experiments (names, knobs,
//! entry points); [`figures`] holds the paper's figures and the churn
//! suites, [`experiments`] the growth and churn runners behind them
//! (one growth runner, [`run_growth_experiment`], grows each figure's
//! overlay once and measures Figure 2's crashed clones on it; one
//! churn-cell runner, [`run_churn_cells`], under both `churn` and
//! `phase`), [`storm`] the machine-fleet query storms of the fault
//! sweep, [`scenario`] the multi-phase campaigns, [`ablations`] the
//! A1–A5 knock-outs. Every
//! experiment is a pure function of a [`Scale`] (size, seed, thread
//! budget); CSVs go through [`Report`] (one [`series::Series`] per
//! curve), `BENCH_<name>.json` summaries through [`json::Object`].
//!
//! Performance is *not* measured here: the repository's benchmark is
//! `BENCHMARK.json` + `benchmarks/`. What this harness gates is behaviour
//! (delivery, amplification, machine faults, scenario checks, A3 and
//! the E7 ordering), by exit code, and no artifact it writes holds a
//! clock reading.

pub mod ablations;
pub mod experiments;
pub mod figures;
pub mod json;
pub mod parallel;
pub mod registry;
pub mod report;
pub mod scale;
pub mod scenario;
pub mod series;
pub mod storm;

pub use experiments::{
    churn_schedule_for, grow_substrate, run_churn_cells, run_growth_experiment,
    run_machine_churn_experiment, standard_churn_schedules, steady_mean_of, ChurnResult,
    GrowthRunResult, PhaseCell, SteadyChurnResult, FIG2_CRASHES,
};
pub use parallel::{run_tasks, Task};
pub use report::Report;
pub use scale::{reject_unused_knobs, Scale};
pub use scenario::{
    render_scenario_report, run_all_scenarios, run_phases, run_scenario, scenario_tag,
    standard_scenarios, write_scenario_csv, write_scenario_report, Check, CheckOutcome, DegreeKind,
    PhaseSpec, Scenario, ScenarioOutcome, ScenarioRow,
};

/// Serialises every test that touches process environment variables.
///
/// Tests run on parallel threads of one process, and on glibc a `setenv`
/// concurrent with any `getenv` is undefined behaviour — so each
/// env-mutating test must hold [`env_guard::lock`] for its whole body,
/// and every *reader* of the same variables it mutates must be inside a
/// lock-holding test too.
#[cfg(test)]
pub(crate) mod env_guard {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Acquires the process-wide env lock (poison-tolerant: a failed
    /// env test must not cascade into unrelated failures).
    pub fn lock() -> MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes the named variables when dropped, even on panic, so a
    /// failed assertion cannot leak state into later runs.
    pub struct RemoveOnDrop(pub &'static [&'static str]);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            for name in self.0 {
                std::env::remove_var(name);
            }
        }
    }
}
