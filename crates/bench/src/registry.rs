//! The experiment registry: the one table `oscar-repro` is built on.
//!
//! Every experiment is a row of [`EXPERIMENTS`] — its command-line name,
//! a one-line description, the `OSCAR_*` knobs it reads beyond the base
//! set, and the function that runs it. Dispatch, knob rejection
//! ([`crate::reject_unused_knobs`] over [`Experiment::knobs`]),
//! `oscar-repro --list` ([`render_list`]) and the knob table of
//! `ARCHITECTURE.md` ([`render_knob_table`], held to the document by
//! `tests/registry.rs`) all read that table, so a knob an experiment
//! reads without declaring is refused at start-up rather than honoured
//! undocumented, and an experiment cannot be added without being listed.

use crate::experiments::{
    run_growth_experiment, run_machine_churn_experiment, standard_churn_schedules,
    SteadyChurnResult, FIG2_CRASHES,
};
use crate::figures::{
    fig1a_report, fig1b_report, fig1c_report, fig2_report, mercury_compare_report, phase_reports,
    run_fig1_suite, run_phase_suite, run_steady_churn_suite, steady_churn_reports,
    steady_churn_summary, Fig1Suite,
};
use crate::report::Report;
use crate::scale::{Scale, BASE_KNOBS};
use crate::scenario::{
    run_all_scenarios, scenario_suite_summary, write_scenario_csv, write_scenario_report,
};
use oscar_core::{OscarBuilder, OscarConfig};
use oscar_degree::{ConstantDegrees, DegreeDistribution, SpikyDegrees};
use oscar_keydist::GnutellaKeys;
use std::time::Instant;

/// How an experiment ends: `Ok` is exit 0; an
/// [`oscar_types::Error::InvalidConfig`] (a malformed knob) is exit 2;
/// any other error — an I/O failure, a failed behavioural gate — is
/// exit 1.
pub type RunResult = Result<(), Box<dyn std::error::Error>>;

/// Fails a seeded run in which any machine tripped an invariant: a
/// `ProtocolEvent::Fault` is a protocol bug, never data.
pub(crate) fn gate_machine_faults(faults: u64) -> RunResult {
    if faults > 0 {
        return Err(format!(
            "{faults} protocol fault(s) fired — machine invariants violated; a seeded run \
             must be fault-free"
        )
        .into());
    }
    Ok(())
}

/// One runnable experiment.
pub struct Experiment {
    /// Command-line name: `oscar-repro <name>`.
    pub name: &'static str,
    /// One line for `--list`.
    pub about: &'static str,
    /// The `OSCAR_*` knobs it reads beyond [`BASE_KNOBS`]; any other
    /// `OSCAR_*` variable in the environment is refused.
    pub knobs: &'static [&'static str],
    /// Runs it at `scale`, writing artifacts under the results dir.
    pub run: fn(&Scale) -> RunResult,
}

const CHURN_WINDOWS: &str = "OSCAR_CHURN_WINDOWS";

/// Every experiment, in `--list` order.
pub static EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        name: "fig1a",
        about: "Figure 1(a): the synthetic spiky node-degree pdf",
        knobs: &[],
        run: fig1a,
    },
    Experiment {
        name: "fig1b",
        about: "Figure 1(b): relative degree load, three in-degree distributions (+ Mercury, E3)",
        knobs: &[],
        run: fig1b,
    },
    Experiment {
        name: "fig1c",
        about: "Figure 1(c): search cost vs network size, three in-degree distributions",
        knobs: &[],
        run: fig1c,
    },
    Experiment {
        name: "fig2a",
        about: "Figure 2(a): search cost under 0/10/33% crashes, constant in-degrees",
        knobs: &[],
        run: fig2a,
    },
    Experiment {
        name: "fig2b",
        about: "Figure 2(b): search cost under 0/10/33% crashes, realistic in-degrees",
        knobs: &[],
        run: fig2b,
    },
    Experiment {
        name: "mercury-compare",
        about: "E7: Oscar vs Mercury (and a Chord control) on the skewed Gnutella keys; fails \
                unless Oscar's final-size search cost is below both (E7 ordering)",
        knobs: &[],
        run: mercury_compare,
    },
    Experiment {
        name: "all",
        about: "every figure above in one run, sharing the growth suite across figures; fails \
                on the E7 ordering like `mercury-compare`",
        knobs: &[],
        run: all,
    },
    Experiment {
        name: "churn",
        about: "steady-state Poisson churn ladder on the oracle engine (BENCH_churn.json)",
        knobs: &[CHURN_WINDOWS],
        run: churn,
    },
    Experiment {
        name: "churn-machine",
        about: "the same ladder through PeerMachine fleets on the DES; fails on any machine \
                fault (BENCH_churn_machine.json)",
        knobs: &[CHURN_WINDOWS],
        run: churn_machine,
    },
    Experiment {
        name: "phase",
        about: "churn phase diagram: level x repair policy x successor-list length, \
                unstabilised ring",
        knobs: &[CHURN_WINDOWS],
        run: phase,
    },
    Experiment {
        name: "faults",
        about: "loss/duplication/jitter sweep on both drivers; fails under 99% delivery, over \
                3.0 retry amplification, or on any machine fault (BENCH_faults.json)",
        knobs: &[],
        run: crate::storm::faults,
    },
    Experiment {
        name: "scenarios",
        about: "six multi-phase stress campaigns with pass/fail checks; fails on a red check \
                (BENCH_scenarios.json)",
        knobs: &[],
        run: scenarios,
    },
    Experiment {
        name: "ablations",
        about: "A1-A5: power-of-two choices, sample size, oracle medians, ring stabilisation, \
                access skew; fails if sampled medians cost > 1.08x oracle medians (A3)",
        knobs: &[],
        run: crate::ablations::run,
    },
];

/// The experiment named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Documentation of one `OSCAR_*` knob; who accepts it is derived from
/// [`EXPERIMENTS`].
struct KnobDoc {
    name: &'static str,
    default: &'static str,
    meaning: &'static str,
}

/// Every knob the harness parses: [`BASE_KNOBS`] first, then the extras.
const KNOB_DOCS: [KnobDoc; 5] = [
    KnobDoc {
        name: "OSCAR_SCALE",
        default: "10000",
        meaning: "target network size, floored at 100 (paper scale = 10⁴; CI smoke = 2000); \
                  `ablations` caps it at 4000",
    },
    KnobDoc {
        name: "OSCAR_SEED",
        default: "42",
        meaning: "root of every `SeedTree`; same seed ⇒ byte-identical artifacts",
    },
    KnobDoc {
        name: "OSCAR_THREADS",
        default: "all cores",
        meaning: "fan-out budget, and the actor runtime's worker count (floored at 2); \
                  1 = sequential; no CSV or report depends on it",
    },
    KnobDoc {
        name: "OSCAR_RESULTS_DIR",
        default: "`results/`",
        meaning: "where CSVs, reports and `BENCH_*.json` land",
    },
    KnobDoc {
        name: CHURN_WINDOWS,
        default: "8",
        meaning: "measurement windows per churn level / phase cell (>= 2)",
    },
];

/// The knob table of `ARCHITECTURE.md`, as markdown.
pub fn render_knob_table() -> String {
    let mut out = String::from("| knob | default | accepted by | meaning |\n|---|---|---|---|\n");
    for k in &KNOB_DOCS {
        let accepted_by = if BASE_KNOBS.contains(&k.name) {
            "all experiments".to_string()
        } else {
            let names: Vec<String> = EXPERIMENTS
                .iter()
                .filter(|e| e.knobs.contains(&k.name))
                .map(|e| format!("`{}`", e.name))
                .collect();
            names.join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {accepted_by} | {} |\n",
            k.name, k.default, k.meaning
        ));
    }
    out
}

/// What `oscar-repro --list` prints: every experiment, then the knobs.
pub fn render_list() -> String {
    let mut out = String::from("usage: oscar-repro <experiment>\n\nexperiments:\n");
    for e in &EXPERIMENTS {
        out.push_str(&format!("  {:<16} {}\n", e.name, e.about));
    }
    out.push_str(
        "\nknobs (environment; an OSCAR_* variable the experiment does not read is an error):\n\n",
    );
    out.push_str(&render_knob_table());
    out
}

// ---------------------------------------------------------------------
// The paper's figures
// ---------------------------------------------------------------------

fn fig1a(scale: &Scale) -> RunResult {
    fig1a_report(scale).emit("fig1a_degree_pdf")?;
    Ok(())
}

fn fig1b(scale: &Scale) -> RunResult {
    fig1b_report(&run_fig1_suite(scale)?).emit("fig1b_degree_load")?;
    Ok(())
}

fn fig1c(scale: &Scale) -> RunResult {
    fig1c_report(&run_fig1_suite(scale)?, scale).emit("fig1c_search_cost")?;
    Ok(())
}

fn fig2a(scale: &Scale) -> RunResult {
    fig2(
        scale,
        &ConstantDegrees::paper(),
        "constant",
        "fig2a_churn_constant",
    )
}

fn fig2b(scale: &Scale) -> RunResult {
    fig2(
        scale,
        &SpikyDegrees::paper(),
        "realistic",
        "fig2b_churn_realistic",
    )
}

/// One Figure 2 panel on its own: the Figure 1 suite's growth of the
/// `label` overlay, with its crashed clones, and nothing else.
fn fig2(scale: &Scale, degrees: &dyn DegreeDistribution, label: &str, csv: &str) -> RunResult {
    eprintln!("[fig2] growing {label} to {}...", scale.target);
    let run = run_growth_experiment(
        &OscarBuilder::new(OscarConfig::default()),
        &GnutellaKeys::default(),
        degrees,
        scale,
        label,
        &FIG2_CRASHES,
    )?;
    fig2_report(&run, scale).emit(csv)?;
    Ok(())
}

fn mercury_compare(scale: &Scale) -> RunResult {
    let suite = run_fig1_suite(scale)?;
    mercury_compare_report(&suite, scale).emit("mercury_compare")?;
    gate_e7_ordering(&suite)
}

/// The E7 ordering: Oscar's final-size search cost below both Mercury's
/// and the Chord control's, as `mercury-compare` reports it. Seed 42
/// reads (oscar / mercury / chord-fingers) 2.49 / 3.29 / 5.11 at 400
/// peers, 3.59 / 6.18 / 7.98 at 2000 and 4.70 / 11.98 / 12.73 at 10⁴.
/// Mercury is not gated against Chord: Chord is a control beyond the
/// paper, 6% behind Mercury at 10⁴.
fn gate_e7_ordering(suite: &Fig1Suite) -> RunResult {
    let oscar = suite.oscar("constant").final_cost();
    let mercury = suite.mercury_run.final_cost();
    let chord = suite.chord_run.final_cost();
    if oscar >= mercury || oscar >= chord {
        return Err(format!(
            "E7 ordering: Oscar's final-size search cost {oscar:.2} is not below both \
             Mercury's {mercury:.2} and chord-fingers' {chord:.2}"
        )
        .into());
    }
    Ok(())
}

/// Regenerates every figure in one run from one growth per overlay: the
/// Figure 1 suite (itself 5 parallel growths) also measures Figure 2's
/// crashed clones on its constant and realistic Oscar overlays. Reports
/// are emitted in a fixed order, so stdout and every CSV are
/// byte-identical to a sequential run and to the per-figure experiments.
fn all(scale: &Scale) -> RunResult {
    eprintln!(
        "regenerating all figures at scale {} (step {}, seed {}, {} threads)",
        scale.target,
        scale.step,
        scale.seed,
        scale.thread_count()
    );
    let t0 = Instant::now();
    fig1a(scale)?;
    let suite = run_fig1_suite(scale)?;
    fig1b_report(&suite).emit("fig1b_degree_load")?;
    fig1c_report(&suite, scale).emit("fig1c_search_cost")?;
    mercury_compare_report(&suite, scale).emit("mercury_compare")?;
    fig2_report(suite.oscar("constant"), scale).emit("fig2a_churn_constant")?;
    fig2_report(suite.oscar("realistic"), scale).emit("fig2b_churn_realistic")?;
    eprintln!("all figures regenerated in {:.1?}", t0.elapsed());
    gate_e7_ordering(&suite)
}

// ---------------------------------------------------------------------
// Beyond the paper: continuous churn, scenarios
// ---------------------------------------------------------------------

/// Steady-state continuous churn on the oracle engine: grow one Oscar
/// overlay, then run `oscar_sim::run_continuous_churn` per level of the
/// standard ladder. Failure detection is free (the engine knows who
/// died) and repairs are builder calls.
fn churn(scale: &Scale) -> RunResult {
    let t0 = Instant::now();
    let results = run_steady_churn_suite(scale, Scale::churn_windows_from_env()?)?;
    emit_steady_churn("", "steady_churn", "BENCH_churn.json", scale, &results, 0)?;
    eprintln!("steady churn: grew and ran in {:.1?}", t0.elapsed());
    Ok(())
}

/// The shared tail of both churn experiments: the four steady-state CSVs
/// (names prefixed with `csv_prefix`) and the JSON summary.
fn emit_steady_churn(
    csv_prefix: &str,
    bench: &str,
    json_file: &str,
    scale: &Scale,
    results: &[SteadyChurnResult],
    faults: u64,
) -> RunResult {
    for (name, report) in steady_churn_reports(results) {
        report.emit(&format!("{csv_prefix}{name}"))?;
    }
    steady_churn_summary(bench, scale, results, faults).write(json_file)?;
    Ok(())
}

/// The same ladder through the protocol stack: each level bootstraps a
/// `PeerMachine` fleet on its own DES by real joins and runs
/// `oscar_sim::run_machine_churn`, where death must be *detected* (ring
/// probes, bounced sends) and every repair is messages. Fails if any
/// `ProtocolEvent::Fault` fires.
fn churn_machine(scale: &Scale) -> RunResult {
    let windows = Scale::churn_windows_from_env()?;
    let schedules = standard_churn_schedules(scale);
    eprintln!(
        "[churn-machine] bootstrapping {}-peer machine fleets, then {windows} windows x {} \
         churn levels...",
        scale.target,
        schedules.len()
    );
    let t0 = Instant::now();
    let (results, faults) =
        run_machine_churn_experiment(&GnutellaKeys::default(), scale, &schedules, windows)?;
    emit_steady_churn(
        "machine_",
        "steady_churn_machine",
        "BENCH_churn_machine.json",
        scale,
        &results,
        faults,
    )?;
    eprintln!("steady churn [machine]: ran in {:.1?}", t0.elapsed());
    gate_machine_faults(faults)
}

/// The churn phase diagram — where does delivery actually break? Sweeps
/// churn level (2–20% of the population per window) × repair policy
/// (none, whole-network sweep, reactive k=2, probe-triggered) ×
/// successor-list length (1, 2, 4) on one grown overlay under the
/// unstabilised ring, and prints a steady-state table per cell.
fn phase(scale: &Scale) -> RunResult {
    let windows = Scale::churn_windows_from_env()?;
    let t0 = Instant::now();
    let cells = run_phase_suite(scale, windows)?;
    let secs = t0.elapsed().as_secs_f64();
    for (name, report) in phase_reports(&cells) {
        report.emit(name)?;
    }
    println!("\n==== steady-state phase cells ====\n");
    println!("| level | policy | succ | success | cost | wasted | repairs/win | repair msgs/win |");
    println!("|---|---|---|---|---|---|---|---|");
    for c in &cells {
        println!(
            "| {} | {} | {} | {:.3} | {:.2} | {:.2} | {:.0} | {:.0} |",
            c.run.label,
            c.policy,
            c.succ_list_len,
            c.run.steady_mean(|w| w.queries.success_rate),
            c.run.steady_mean(|w| w.queries.mean_cost),
            c.run.steady_mean(|w| w.queries.mean_wasted),
            c.run.steady_mean(|w| w.repairs as f64),
            c.run.steady_mean(|w| w.repair_cost as f64),
        );
    }
    eprintln!(
        "phase diagram: {} cells x {windows} windows in {secs:.1}s",
        cells.len()
    );
    Ok(())
}

/// The scenario suite: per scenario a per-window CSV and a markdown
/// report, plus the suite summary. Fails if any scenario check is red: a
/// red scenario is a regression in the overlay's resilience story.
fn scenarios(scale: &Scale) -> RunResult {
    eprintln!(
        "[scenarios] growing {}-peer substrates and running the scenario suite...",
        scale.target
    );
    let t0 = Instant::now();
    let outcomes = run_all_scenarios(scale)?;
    eprintln!("scenario suite ran in {:.1?}", t0.elapsed());
    for out in &outcomes {
        let csv = write_scenario_csv(out)?;
        let report = write_scenario_report(out)?;
        println!(
            "scenario {:<16} {:>2} windows  min delivery {:.4}  final {:.4}  {}  ({}, {})",
            out.scenario.name,
            out.rows.len(),
            out.min_delivery(),
            out.final_delivery(),
            if out.passed() { "pass" } else { "FAIL" },
            csv.display(),
            report.display()
        );
    }
    scenario_suite_summary(&outcomes, scale).write("BENCH_scenarios.json")?;
    let failed = outcomes.iter().filter(|o| !o.passed()).count();
    if failed > 0 {
        return Err(format!(
            "{failed} scenario(s) failed their checks — see the reports under {}/reports/",
            Report::results_dir().display()
        )
        .into());
    }
    Ok(())
}
