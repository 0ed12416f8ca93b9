//! The scenario engine: named, seeded, multi-phase stress campaigns.
//!
//! A [`Scenario`] is a declarative sequence of [`PhaseSpec`]s — steady
//! churn spans, sinusoidal (diurnal) churn, drifting-hotspot query
//! storms and one-shot [`oscar_sim::Shock`]s (mass-join bursts,
//! contiguous ring-arc outages, targeted top-degree kills, partition
//! masks, heals) — run against one grown Oscar overlay, measured per
//! window, and judged by [`Check`]s. Each run renders two artifacts with
//! byte-stable formatting:
//!
//! * `scenario_<name>.csv` — one row per measurement window
//!   ([`write_scenario_csv`]; columns documented in `results/README.md`);
//! * `reports/<name>.md` — a self-documenting markdown report
//!   ([`write_scenario_report`]): config echo, phase timeline, window
//!   table, check verdicts.
//!
//! Determinism: a scenario's stream is keyed by `(scale.seed, name)` —
//! [`scenario_tag`] hashes the name, so a scenario's numbers never
//! depend on its position in the suite, and [`run_all_scenarios`] fans
//! the suite over [`Scale::thread_count`] workers with byte-identical
//! artifacts at any thread count (`tests/parallel_determinism.rs`).
//! Phase `p` draws from `child2(LBL_PHASE, p)`, window `w` within it
//! from `child2(LBL_WINDOW, w)` (scope `bench_scenario`).
//!
//! Worlds: [`run_phases`] is the one interpreter of [`PhaseSpec`]s, over
//! any [`oscar_sim::ChurnWorld`] — every measured window is a one-window
//! [`oscar_sim::run_churn`] span, every shock an [`oscar_sim::Shock`] the
//! world applies itself. [`run_scenario`] runs the committed suite on an
//! [`oscar_sim::OracleWorld`] over a grown Oscar overlay; the same phases
//! run unchanged on an [`oscar_sim::MachineWorld`] over any
//! `ProtocolDriver`, except that partition masks, targeted-degree kills
//! and heals need the oracle's global view and are an error there.

use crate::experiments::{churn_schedule_for, grow_substrate, steady_mean_of};
use crate::json::Object;
use crate::parallel::{run_tasks, Task};
use crate::report::Report;
use crate::scale::Scale;
use oscar_core::{OscarBuilder, OscarConfig};
use oscar_degree::{ConstantDegrees, DegreeDistribution, SpikyDegrees};
use oscar_keydist::{GnutellaKeys, QueryWorkload};
use oscar_sim::{
    run_churn, ChurnSchedule, ChurnWindowStats, ChurnWorld, FaultModel, OracleWorld, RepairPolicy,
    Shock, ShockReport,
};
use oscar_types::labels::bench_scenario::{LBL_GROW, LBL_PHASE, LBL_RUN, LBL_WINDOW};
use oscar_types::{Result, SeedTree};
use std::path::PathBuf;

/// Ring-probe reach of the scenario suite's reactive repair (the
/// "reactive-k2" regime of the phase diagram).
const NEIGHBORS_K: usize = 2;

/// Successor-list length every scenario routes with after growth: long
/// enough to survive isolated corpses, short enough that shocks hurt.
const SUCC_LIST_LEN: usize = 4;

/// Which degree-cap distribution a scenario's peers draw from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DegreeKind {
    /// Homogeneous caps ([`ConstantDegrees::paper`]).
    Constant,
    /// Heterogeneous Gnutella-style caps ([`SpikyDegrees::paper`]):
    /// a few high-budget hubs over a modest majority.
    Spiky,
}

impl DegreeKind {
    fn dist(&self) -> Box<dyn DegreeDistribution> {
        match self {
            DegreeKind::Constant => Box::new(ConstantDegrees::paper()),
            DegreeKind::Spiky => Box::new(SpikyDegrees::paper()),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            DegreeKind::Constant => "constant(paper)",
            DegreeKind::Spiky => "spiky(paper)",
        }
    }
}

/// One phase of a scenario.
#[derive(Clone, Debug)]
pub enum PhaseSpec {
    /// Steady Poisson churn at `turnover` of the population per window,
    /// measured for `windows` windows.
    Churn {
        /// Phase label in artifacts.
        label: &'static str,
        /// Per-window peer turnover as a fraction of the grown size.
        turnover: f64,
        /// Measurement windows.
        windows: usize,
    },
    /// Sinusoidal churn: window `w` runs at
    /// `mean · (1 + amplitude · sin(2π·w / period))` turnover — a day
    /// of load compressed into `period` windows.
    Diurnal {
        /// Phase label in artifacts.
        label: &'static str,
        /// Mean per-window turnover.
        mean: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Windows per full sine period.
        period: usize,
        /// Measurement windows.
        windows: usize,
    },
    /// Background churn with a drifting-hotspot query workload: window
    /// `w`'s measurement batch draws `hot_fraction` of its targets from
    /// a `width`-wide ring region centred at `w / windows` (one full
    /// lap of the ring over the phase).
    QueryStorm {
        /// Phase label in artifacts.
        label: &'static str,
        /// Per-window background turnover.
        turnover: f64,
        /// Measurement windows (also the drift resolution).
        windows: usize,
        /// Hot-region width as a ring fraction.
        width: f64,
        /// Fraction of each batch aimed into the hot region.
        hot_fraction: f64,
    },
    /// A one-shot [`Shock`] the world applies itself, then one
    /// zero-churn window measures the aftermath (the shock's membership
    /// and repair deltas are booked into that window).
    Shock {
        /// Phase label in artifacts.
        label: &'static str,
        /// The shock.
        shock: Shock,
    },
}

impl PhaseSpec {
    /// The phase's label in artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseSpec::Churn { label, .. }
            | PhaseSpec::Diurnal { label, .. }
            | PhaseSpec::QueryStorm { label, .. }
            | PhaseSpec::Shock { label, .. } => label,
        }
    }

    /// Phase kind for the timeline table.
    fn kind(&self) -> &'static str {
        match self {
            PhaseSpec::Churn { .. } => "churn",
            PhaseSpec::Diurnal { .. } => "diurnal",
            PhaseSpec::QueryStorm { .. } => "query-storm",
            PhaseSpec::Shock { shock, .. } => match shock {
                Shock::MassJoin { .. } => "mass-join",
                Shock::KillArc { .. } => "kill-arc",
                Shock::TargetedKill { .. } => "targeted-kill",
                Shock::Partition { .. } => "partition",
                Shock::Heal => "heal",
            },
        }
    }

    /// Human parameter echo for the timeline table.
    fn detail(&self) -> String {
        match self {
            PhaseSpec::Churn { turnover, .. } => {
                format!("turnover {:.1}%/win", turnover * 100.0)
            }
            PhaseSpec::Diurnal {
                mean,
                amplitude,
                period,
                ..
            } => format!(
                "mean {:.1}%/win, swing ±{:.0}%, period {period} windows",
                mean * 100.0,
                amplitude * 100.0
            ),
            PhaseSpec::QueryStorm {
                turnover,
                width,
                hot_fraction,
                ..
            } => format!(
                "turnover {:.1}%/win, hotspot width {width}, hot fraction {hot_fraction}, \
                 center drifts one full lap",
                turnover * 100.0
            ),
            PhaseSpec::Shock { shock, .. } => match shock {
                Shock::MassJoin { fraction } => {
                    format!("burst of {:.0}% of the live population", fraction * 100.0)
                }
                Shock::KillArc { start, fraction } => format!(
                    "kill arc [{start}, {:.2}) = {:.0}% of the ring",
                    start + fraction,
                    fraction * 100.0
                ),
                Shock::TargetedKill { fraction } => {
                    format!("kill top {:.0}% by degree", fraction * 100.0)
                }
                Shock::Partition { start, fraction } => format!(
                    "sever all long links crossing the [{start}, {:.2}) arc boundary",
                    start + fraction
                ),
                Shock::Heal => "rewire damage-adjacent survivors".into(),
            },
        }
    }

    /// Measurement windows this phase contributes (shock phases measure
    /// exactly one aftermath window).
    fn window_count(&self) -> usize {
        match self {
            PhaseSpec::Churn { windows, .. }
            | PhaseSpec::Diurnal { windows, .. }
            | PhaseSpec::QueryStorm { windows, .. } => *windows,
            PhaseSpec::Shock { .. } => 1,
        }
    }
}

/// A pass/fail criterion over a scenario's measured windows. Phase
/// indices refer to the scenario's phase list; multi-window phases are
/// judged by their steady-state tail (last half of their windows, like
/// [`steady_mean_of`]).
#[derive(Clone, Debug)]
pub enum Check {
    /// Phase `phase`'s tail-mean delivery rate must be at least `min`.
    MinDelivery {
        /// Judged phase.
        phase: usize,
        /// Inclusive lower bound on tail-mean `success_rate`.
        min: f64,
    },
    /// Phase `after`'s tail-mean delivery must recover to at least
    /// phase `before`'s tail-mean minus `slack`.
    RecoversDelivery {
        /// Baseline phase (typically the pre-shock steady span).
        before: usize,
        /// Judged phase (typically the post-heal recovery span).
        after: usize,
        /// Tolerated shortfall (0.0 = must fully recover).
        slack: f64,
    },
    /// The final window's live population must be at least
    /// `min · scale.target` (no scenario may quietly depopulate).
    MinLiveFraction {
        /// Lower bound as a fraction of the grown size.
        min: f64,
    },
}

/// The evaluated outcome of one [`Check`].
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// What was checked, human-readable.
    pub label: String,
    /// The measured value.
    pub observed: f64,
    /// The bound it was held against.
    pub bound: f64,
    /// Whether the bound held.
    pub passed: bool,
}

/// One measured window of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioRow {
    /// Global window index across the whole scenario.
    pub window: usize,
    /// Index of the phase that produced it.
    pub phase: usize,
    /// That phase's label.
    pub phase_label: &'static str,
    /// The window's books (shock phases patch their membership deltas
    /// — burst joins, arc kills — into their aftermath window).
    pub stats: ChurnWindowStats,
    /// Free-form shock annotation ("killed 300", "severed 124 links").
    pub note: String,
}

/// A named, seeded, multi-phase stress campaign.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Artifact-stable name (`scenario_<name>.csv`, `reports/<name>.md`).
    pub name: &'static str,
    /// One-paragraph description rendered into the report.
    pub description: &'static str,
    /// Degree-cap distribution of the grown substrate.
    pub degrees: DegreeKind,
    /// The phase sequence.
    pub phases: Vec<PhaseSpec>,
    /// Pass/fail criteria.
    pub checks: Vec<Check>,
}

/// A completed scenario run: every measured window plus the evaluated
/// checks.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario as run (name, description and phase echo for the
    /// report).
    pub scenario: Scenario,
    /// Root seed of the run (`scale.seed`; the scenario's own stream is
    /// additionally keyed by [`scenario_tag`] of its name).
    pub seed: u64,
    /// Grown substrate size.
    pub target: usize,
    /// Every measured window, in order.
    pub rows: Vec<ScenarioRow>,
    /// Evaluated checks, in declaration order.
    pub checks: Vec<CheckOutcome>,
}

impl ScenarioOutcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Lowest per-window delivery rate of the run (0 for an empty run).
    pub fn min_delivery(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.stats.queries.success_rate)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Delivery rate of the last window (0 for an empty run).
    pub fn final_delivery(&self) -> f64 {
        self.rows
            .last()
            .map_or(0.0, |r| r.stats.queries.success_rate)
    }

    /// Tail-mean of `f` over the windows of phase `p` (last half of a
    /// multi-window phase; the single window of a shock phase).
    pub fn phase_tail_mean(&self, p: usize, f: impl Fn(&ChurnWindowStats) -> f64) -> f64 {
        let windows: Vec<ChurnWindowStats> = self
            .rows
            .iter()
            .filter(|r| r.phase == p)
            .map(|r| r.stats.clone())
            .collect();
        steady_mean_of(&windows, f)
    }
}

/// FNV-1a of the scenario name: the `child2(LBL_RUN, tag)` key that
/// makes a scenario's stream independent of its position in the suite.
pub fn scenario_tag(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The suite's churn schedule at `turnover`: the standard ladder
/// schedule with the reactive-k2 repair regime every scenario uses.
fn scenario_schedule(turnover: f64, scale: &Scale) -> ChurnSchedule {
    ChurnSchedule {
        repair: RepairPolicy::Reactive {
            neighbors_k: NEIGHBORS_K,
        },
        ..churn_schedule_for(turnover.max(0.0), scale)
    }
}

/// Runs `phases` in order on `world`: one [`ScenarioRow`] per measured
/// window, globally indexed.
///
/// Phase `p` draws from `seed.child2(LBL_PHASE, p)`: its shock (if it is
/// one) from that node directly, its window `w` from the node's
/// `child2(LBL_WINDOW, w)`. Every window is its own one-window engine
/// span, so the clock restarts at zero and repairs still pending when a
/// window closes are dropped with it. A shock a world cannot express is
/// that world's error.
pub fn run_phases<W: ChurnWorld + ?Sized>(
    world: &mut W,
    phases: &[PhaseSpec],
    scale: &Scale,
    seed: &SeedTree,
) -> Result<Vec<ScenarioRow>> {
    let mut rows: Vec<ScenarioRow> = Vec::new();
    let uniform = QueryWorkload::UniformPeers;
    for (p, phase) in phases.iter().enumerate() {
        let pseed = seed.child2(LBL_PHASE, p as u64);
        // Measures window `w` of this phase at `turnover`, patching a
        // preceding shock's membership and repair deltas into its books.
        let mut measure = |world: &mut W,
                           w: usize,
                           turnover: f64,
                           workload: &QueryWorkload,
                           shock: ShockReport,
                           note: String|
         -> Result<()> {
            let schedule = scenario_schedule(turnover, scale);
            let wseed = pseed.child2(LBL_WINDOW, w as u64);
            if let Some(mut stats) = run_churn(world, &schedule, workload, 1, wseed)?.pop() {
                stats.window = rows.len();
                stats.joins += shock.joined;
                stats.crashes += shock.killed;
                stats.repairs += shock.upkeep.repairs;
                stats.repair_cost += shock.upkeep.repair_cost;
                rows.push(ScenarioRow {
                    window: stats.window,
                    phase: p,
                    phase_label: phase.label(),
                    stats,
                    note,
                });
            }
            Ok(())
        };
        let quiet = ShockReport::default();
        let shock = match *phase {
            PhaseSpec::Churn {
                turnover, windows, ..
            } => {
                for w in 0..windows {
                    measure(world, w, turnover, &uniform, quiet, String::new())?;
                }
                continue;
            }
            PhaseSpec::Diurnal {
                mean,
                amplitude,
                period,
                windows,
                ..
            } => {
                for w in 0..windows {
                    let angle = std::f64::consts::TAU * w as f64 / period.max(1) as f64;
                    let turnover = mean * (1.0 + amplitude * angle.sin());
                    let note = format!("turnover {:.2}%", turnover * 100.0);
                    measure(world, w, turnover, &uniform, quiet, note)?;
                }
                continue;
            }
            PhaseSpec::QueryStorm {
                turnover,
                windows,
                width,
                hot_fraction,
                ..
            } => {
                for w in 0..windows {
                    let center = w as f64 / windows.max(1) as f64;
                    let workload = QueryWorkload::Hotspot {
                        center,
                        width,
                        hot_fraction,
                    };
                    let note = format!("hotspot center {center:.3}");
                    measure(world, w, turnover, &workload, quiet, note)?;
                }
                continue;
            }
            PhaseSpec::Shock { ref shock, .. } => shock,
        };
        // A shock phase: the shock, then one zero-churn aftermath window.
        let report = world.shock(shock, &pseed)?;
        let note = match shock {
            Shock::MassJoin { .. } => format!("{} joined at once", report.joined),
            Shock::KillArc { .. } => format!("killed {} contiguous peers", report.killed),
            Shock::TargetedKill { .. } => {
                format!("killed {} highest-degree peers", report.killed)
            }
            Shock::Partition { .. } => format!("severed {} crossing links", report.severed),
            Shock::Heal => format!("rewired {} peers", report.upkeep.repairs),
        };
        measure(world, 0, 0.0, &uniform, report, note)?;
    }
    Ok(rows)
}

/// Runs `sc` at `scale` on the oracle world and evaluates its checks.
///
/// Grows a fresh Oscar overlay to `scale.target` under the stabilised
/// ring, then flips to [`FaultModel::UnstabilizedRing`] with a
/// successor list of 4 — corpses stay visible and damage costs real
/// delivery — and executes the phases in order. Pure function of
/// `(sc, scale.target, scale.seed)`.
pub fn run_scenario(sc: &Scenario, scale: &Scale) -> Result<ScenarioOutcome> {
    let seed = SeedTree::new(scale.seed).child2(LBL_RUN, scenario_tag(sc.name));
    let builder = OscarBuilder::new(OscarConfig::default());
    let keys = GnutellaKeys::default();
    let degrees = sc.degrees.dist();

    let mut net = grow_substrate(
        &builder,
        &keys,
        degrees.as_ref(),
        scale.target,
        seed.child(LBL_GROW),
    )?;
    net.set_fault_model(FaultModel::UnstabilizedRing);
    net.set_succ_list_len(SUCC_LIST_LEN);

    let mut world = OracleWorld::new(&mut net, &builder, &keys, degrees.as_ref())?;
    let rows = run_phases(&mut world, &sc.phases, scale, &seed)?;

    let mut outcome = ScenarioOutcome {
        scenario: sc.clone(),
        seed: scale.seed,
        target: scale.target,
        rows,
        checks: Vec::new(),
    };
    outcome.checks = sc
        .checks
        .iter()
        .map(|c| evaluate_check(c, &outcome))
        .collect();
    Ok(outcome)
}

/// Evaluates one check against a completed run.
fn evaluate_check(check: &Check, out: &ScenarioOutcome) -> CheckOutcome {
    let phase_label = |p: usize| {
        out.scenario
            .phases
            .get(p)
            .map(|ph| ph.label())
            .unwrap_or("?")
    };
    match check {
        Check::MinDelivery { phase, min } => {
            let observed = out.phase_tail_mean(*phase, |w| w.queries.success_rate);
            CheckOutcome {
                label: format!("delivery in '{}' >= {min:.3}", phase_label(*phase)),
                observed,
                bound: *min,
                passed: observed >= *min,
            }
        }
        Check::RecoversDelivery {
            before,
            after,
            slack,
        } => {
            let base = out.phase_tail_mean(*before, |w| w.queries.success_rate);
            let observed = out.phase_tail_mean(*after, |w| w.queries.success_rate);
            let bound = base - slack;
            CheckOutcome {
                label: format!(
                    "delivery in '{}' recovers to >= '{}' - {slack:.3}",
                    phase_label(*after),
                    phase_label(*before)
                ),
                observed,
                bound,
                passed: observed >= bound,
            }
        }
        Check::MinLiveFraction { min } => {
            let observed = out
                .rows
                .last()
                .map(|r| r.stats.live_at_end as f64 / out.target as f64)
                .unwrap_or(0.0);
            CheckOutcome {
                label: format!("final live population >= {:.0}% of grown", min * 100.0),
                observed,
                bound: *min,
                passed: observed >= *min,
            }
        }
    }
}

/// The committed scenario suite: five adversarial/heterogeneous
/// campaigns plus a partition exercise, all under the reactive-k2
/// repair regime on the unstabilised ring.
pub fn standard_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "flash_crowd",
            description: "Steady 1%/window churn, then a mass-join burst of 10% of the \
                          population at once (10x the steady per-window join volume), then the \
                          aftermath: does admission-by-protocol absorb a flash crowd without \
                          hurting delivery?",
            degrees: DegreeKind::Constant,
            phases: vec![
                PhaseSpec::Churn {
                    label: "steady",
                    turnover: 0.01,
                    windows: 3,
                },
                PhaseSpec::Shock {
                    label: "burst",
                    shock: Shock::MassJoin { fraction: 0.10 },
                },
                PhaseSpec::Churn {
                    label: "aftermath",
                    turnover: 0.01,
                    windows: 5,
                },
            ],
            checks: vec![
                Check::MinDelivery {
                    phase: 2,
                    min: 0.90,
                },
                Check::RecoversDelivery {
                    before: 0,
                    after: 2,
                    slack: 0.05,
                },
                Check::MinLiveFraction { min: 0.8 },
            ],
        },
        Scenario {
            name: "diurnal",
            description: "Two full sinusoidal load cycles: per-window turnover swings +/-80% \
                          around a 1% mean, modelling the day/night churn rhythm of a real \
                          deployment. Delivery must hold through the peaks.",
            degrees: DegreeKind::Constant,
            phases: vec![PhaseSpec::Diurnal {
                label: "cycles",
                mean: 0.01,
                amplitude: 0.8,
                period: 8,
                windows: 16,
            }],
            checks: vec![
                Check::MinDelivery {
                    phase: 0,
                    min: 0.90,
                },
                Check::MinLiveFraction { min: 0.7 },
            ],
        },
        Scenario {
            name: "regional_outage",
            description: "A contiguous 15% arc of the identifier ring goes dark at once (one \
                          region, one data centre), is measured damaged, then the survivors \
                          bordering the hole heal reactively. Delivery must recover to at \
                          least its pre-outage level.",
            degrees: DegreeKind::Constant,
            phases: vec![
                PhaseSpec::Churn {
                    label: "steady",
                    turnover: 0.005,
                    windows: 3,
                },
                PhaseSpec::Shock {
                    label: "outage",
                    shock: Shock::KillArc {
                        start: 0.25,
                        fraction: 0.15,
                    },
                },
                PhaseSpec::Shock {
                    label: "heal",
                    shock: Shock::Heal,
                },
                PhaseSpec::Churn {
                    label: "recovery",
                    turnover: 0.005,
                    windows: 5,
                },
            ],
            checks: vec![
                // Half a percent of slack: the recovery tail runs under
                // live background churn, so a single in-window crash can
                // cost one query without indicting the heal. The strict
                // recovered >= pre comparison is pinned (at a fixed
                // scale and seed) by tests/scenario_recovery.rs.
                Check::RecoversDelivery {
                    before: 0,
                    after: 3,
                    slack: 0.005,
                },
                Check::MinLiveFraction { min: 0.7 },
            ],
        },
        Scenario {
            name: "targeted_attack",
            description: "Heterogeneous (spiky) degree caps, then an adversary kills the top \
                          5% of peers by long-link degree — the hubs. The repair regime must \
                          rebuild routing around the missing hubs.",
            degrees: DegreeKind::Spiky,
            phases: vec![
                PhaseSpec::Churn {
                    label: "steady",
                    turnover: 0.005,
                    windows: 3,
                },
                PhaseSpec::Shock {
                    label: "attack",
                    shock: Shock::TargetedKill { fraction: 0.05 },
                },
                PhaseSpec::Shock {
                    label: "heal",
                    shock: Shock::Heal,
                },
                PhaseSpec::Churn {
                    label: "recovery",
                    turnover: 0.005,
                    windows: 5,
                },
            ],
            checks: vec![
                Check::RecoversDelivery {
                    before: 0,
                    after: 3,
                    slack: 0.02,
                },
                Check::MinLiveFraction { min: 0.8 },
            ],
        },
        Scenario {
            name: "hotspot_drift",
            description: "Heterogeneous degree caps under mild churn while every window's \
                          query batch aims 80% of its traffic into a narrow hot region whose \
                          center drifts one full lap of the ring — a moving flash-interest \
                          workload (mixture over the gnutella key distribution).",
            degrees: DegreeKind::Spiky,
            phases: vec![PhaseSpec::QueryStorm {
                label: "storm",
                turnover: 0.005,
                windows: 12,
                width: 0.05,
                hot_fraction: 0.8,
            }],
            checks: vec![
                Check::MinDelivery {
                    phase: 0,
                    min: 0.90,
                },
                Check::MinLiveFraction { min: 0.8 },
            ],
        },
        Scenario {
            name: "partition_heal",
            description: "Every long link crossing a ring-arc boundary is severed at once — a \
                          partition mask splitting the shortcut graph in two — then the cut \
                          edge is healed reactively. Delivery must recover.",
            degrees: DegreeKind::Constant,
            phases: vec![
                PhaseSpec::Churn {
                    label: "steady",
                    turnover: 0.005,
                    windows: 2,
                },
                PhaseSpec::Shock {
                    label: "partition",
                    shock: Shock::Partition {
                        start: 0.0,
                        fraction: 0.5,
                    },
                },
                PhaseSpec::Shock {
                    label: "heal",
                    shock: Shock::Heal,
                },
                PhaseSpec::Churn {
                    label: "recovery",
                    turnover: 0.005,
                    windows: 4,
                },
            ],
            checks: vec![
                Check::RecoversDelivery {
                    before: 0,
                    after: 3,
                    slack: 0.02,
                },
                Check::MinLiveFraction { min: 0.8 },
            ],
        },
    ]
}

/// Runs the whole suite, one scenario per task, fanned over
/// [`Scale::thread_count`] workers. Scenario streams are keyed by name
/// (not position), so the artifacts are byte-identical at any thread
/// count.
pub fn run_all_scenarios(scale: &Scale) -> Result<Vec<ScenarioOutcome>> {
    let suite = standard_scenarios();
    let tasks: Vec<Task<Result<ScenarioOutcome>>> = suite
        .into_iter()
        .map(|sc| {
            let scale = scale.clone();
            Box::new(move || run_scenario(&sc, &scale)) as Task<Result<ScenarioOutcome>>
        })
        .collect();
    run_tasks(scale.thread_count(), tasks).into_iter().collect()
}

/// Renders a float with a fixed number of decimals — the one float
/// formatting the CSV and report use, so artifacts are byte-stable.
fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Writes `scenario_<name>.csv` (one row per measured window) into the
/// results directory and returns its path. Columns are documented in
/// `results/README.md`.
pub fn write_scenario_csv(out: &ScenarioOutcome) -> std::io::Result<PathBuf> {
    let mut csv = String::from(
        "window,phase,phase_label,live,joins,crashes,departs,repairs,repair_cost,suppressed,\
         delivery,mean_cost,p50_cost,p95_cost,se_cost,mean_wasted\n",
    );
    for r in &out.rows {
        let q = &r.stats.queries;
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.window,
            r.phase,
            r.phase_label,
            r.stats.live_at_end,
            r.stats.joins,
            r.stats.crashes,
            r.stats.departs,
            r.stats.repairs,
            r.stats.repair_cost,
            r.stats.suppressed,
            fmt(q.success_rate, 4),
            fmt(q.mean_cost, 3),
            fmt(q.p50_cost, 3),
            fmt(q.p95_cost, 3),
            fmt(q.se_cost, 4),
            fmt(q.mean_wasted, 3),
        ));
    }
    let dir = Report::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("scenario_{}.csv", out.scenario.name));
    std::fs::write(&path, csv)?;
    Ok(path)
}

/// Renders the self-documenting markdown report of one run. Pure
/// function of the outcome — no timestamps, no wall-clock — so the
/// report is byte-identical across reruns and thread counts.
pub fn render_scenario_report(out: &ScenarioOutcome) -> String {
    let mut md = String::new();
    md.push_str(&format!("# Scenario: {}\n\n", out.scenario.name));
    md.push_str(&format!("> {}\n\n", out.scenario.description));
    md.push_str("## Configuration\n\n");
    md.push_str(&format!(
        "- grown substrate: {} peers (Oscar builder, gnutella keys, {} degree caps)\n",
        out.target,
        out.scenario.degrees.name()
    ));
    md.push_str(&format!(
        "- fault model: unstabilised ring, successor list {SUCC_LIST_LEN}\n\
         - repair regime: reactive, ring-neighbourhood k = {NEIGHBORS_K}\n\
         - root seed: {} (scenario stream keyed by name, tag {:#018x})\n\n",
        out.seed,
        scenario_tag(out.scenario.name)
    ));
    md.push_str("## Phase timeline\n\n");
    md.push_str("| # | phase | kind | windows | parameters |\n");
    md.push_str("|---|-------|------|---------|------------|\n");
    for (i, ph) in out.scenario.phases.iter().enumerate() {
        md.push_str(&format!(
            "| {i} | {} | {} | {} | {} |\n",
            ph.label(),
            ph.kind(),
            ph.window_count(),
            ph.detail()
        ));
    }
    md.push_str("\n## Windows\n\n");
    md.push_str(
        "| w | phase | live | joins | crashes | departs | repairs | repair msgs | delivery | \
         mean cost | p50 | p95 | se | wasted | note |\n",
    );
    md.push_str(
        "|---|-------|------|-------|---------|---------|---------|-------------|----------|\
         -----------|-----|-----|----|--------|------|\n",
    );
    for r in &out.rows {
        let q = &r.stats.queries;
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.window,
            r.phase_label,
            r.stats.live_at_end,
            r.stats.joins,
            r.stats.crashes,
            r.stats.departs,
            r.stats.repairs,
            r.stats.repair_cost,
            fmt(q.success_rate, 4),
            fmt(q.mean_cost, 2),
            fmt(q.p50_cost, 2),
            fmt(q.p95_cost, 2),
            fmt(q.se_cost, 3),
            fmt(q.mean_wasted, 2),
            if r.note.is_empty() { "-" } else { &r.note },
        ));
    }
    md.push_str("\n## Checks\n\n");
    md.push_str("| check | bound | observed | verdict |\n");
    md.push_str("|-------|-------|----------|---------|\n");
    for c in &out.checks {
        md.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            c.label,
            fmt(c.bound, 4),
            fmt(c.observed, 4),
            if c.passed { "PASS" } else { "**FAIL**" },
        ));
    }
    md.push_str(&format!(
        "\nVerdict: **{}**\n",
        if out.passed() { "PASS" } else { "FAIL" }
    ));
    md
}

/// Writes `reports/<name>.md` into the results directory and returns
/// its path.
pub fn write_scenario_report(out: &ScenarioOutcome) -> std::io::Result<PathBuf> {
    let dir = Report::results_dir().join("reports");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.md", out.scenario.name));
    std::fs::write(&path, render_scenario_report(out))?;
    Ok(path)
}

/// The `BENCH_scenarios.json` suite summary: per-scenario delivery and
/// verdicts.
pub fn scenario_suite_summary(outcomes: &[ScenarioOutcome], scale: &Scale) -> Object {
    let total_windows: usize = outcomes.iter().map(|o| o.rows.len()).sum();
    let results = outcomes
        .iter()
        .map(|out| {
            Object::new()
                .str("scenario", out.scenario.name)
                .int("windows", out.rows.len())
                .float("min_delivery", out.min_delivery(), 4)
                .float("final_delivery", out.final_delivery(), 4)
                .int(
                    "checks_passed",
                    out.checks.iter().filter(|c| c.passed).count(),
                )
                .int("checks_total", out.checks.len())
        })
        .collect();
    Object::new()
        .str("bench", "scenarios")
        .int("n_peers", scale.target)
        .int("seed", scale.seed)
        .int("scenarios", outcomes.len())
        .int("total_windows", total_windows)
        .int(
            "failed_scenarios",
            outcomes.iter().filter(|o| !o.passed()).count(),
        )
        .rows("results", results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale::small(200, 9)
    }

    #[test]
    fn suite_names_are_unique_and_stable() {
        let suite = standard_scenarios();
        let names: Vec<&str> = suite.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "flash_crowd",
                "diurnal",
                "regional_outage",
                "targeted_attack",
                "hotspot_drift",
                "partition_heal"
            ]
        );
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        // Tags are how suite position independence is achieved — they
        // must differ per name.
        let mut tags: Vec<u64> = names.iter().map(|n| scenario_tag(n)).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), names.len());
    }

    #[test]
    fn an_empty_run_summarises_to_valid_json() {
        let sc = Scenario {
            name: "empty",
            description: "measures no window",
            degrees: DegreeKind::Constant,
            phases: vec![PhaseSpec::Churn {
                label: "none",
                turnover: 0.01,
                windows: 0,
            }],
            checks: vec![],
        };
        let scale = Scale::small(100, 1);
        let out = run_scenario(&sc, &scale).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!((out.min_delivery(), out.final_delivery()), (0.0, 0.0));
        let json = scenario_suite_summary(&[out], &scale).render();
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn flash_crowd_runs_and_counts_windows() {
        let sc = &standard_scenarios()[0];
        let out = run_scenario(sc, &tiny()).unwrap();
        // 3 steady + 1 burst aftermath + 5 aftermath windows.
        assert_eq!(out.rows.len(), 9);
        assert_eq!(out.rows[3].phase_label, "burst");
        assert!(out.rows[3].stats.joins >= 20, "10% of 200 joined at once");
        assert_eq!(out.checks.len(), sc.checks.len());
        // Every row's global index is its position.
        for (i, r) in out.rows.iter().enumerate() {
            assert_eq!(r.window, i);
            assert_eq!(r.stats.window, i);
        }
    }

    #[test]
    fn scenario_artifacts_are_deterministic() {
        let sc = &standard_scenarios()[2]; // regional_outage: uses hooks + heal
        let a = run_scenario(sc, &tiny()).unwrap();
        let b = run_scenario(sc, &tiny()).unwrap();
        assert_eq!(render_scenario_report(&a), render_scenario_report(&b));
    }

    #[test]
    fn per_window_phases_lower_turnover_and_workload_window_by_window() {
        let suite = standard_scenarios();
        let by_name = |n: &str| suite.iter().find(|s| s.name == n).unwrap();
        // diurnal: one row per window, turnover on the sine.
        let diurnal = run_scenario(by_name("diurnal"), &tiny()).unwrap();
        assert_eq!(diurnal.rows.len(), 16);
        assert_eq!(diurnal.rows[2].note, "turnover 1.80%", "the peak");
        assert_eq!(diurnal.rows[6].note, "turnover 0.20%", "the trough");
        // hotspot_drift: the hot region's centre laps the ring once.
        let storm = run_scenario(by_name("hotspot_drift"), &tiny()).unwrap();
        assert_eq!(storm.rows.len(), 12);
        assert_eq!(storm.rows[6].note, "hotspot center 0.500");
        // Shock phases measure exactly one aftermath window each.
        let outage = run_scenario(by_name("regional_outage"), &tiny()).unwrap();
        assert_eq!(outage.rows.len(), 3 + 1 + 1 + 5);
        let live_before = outage.rows[2].stats.live_at_end;
        let killed = (live_before as f64 * 0.15).ceil() as u64;
        assert_eq!(outage.rows[3].stats.crashes, killed);
        assert_eq!(
            outage.rows[3].note,
            format!("killed {killed} contiguous peers")
        );
        assert!(
            outage.rows[4].stats.repairs > 0,
            "the heal's rewires are booked"
        );
    }

    #[test]
    fn report_renders_all_sections_and_verdict() {
        let sc = &standard_scenarios()[0];
        let out = run_scenario(sc, &tiny()).unwrap();
        let md = render_scenario_report(&out);
        for section in [
            "# Scenario: flash_crowd",
            "## Configuration",
            "## Phase timeline",
            "## Windows",
            "## Checks",
            "Verdict: **",
        ] {
            assert!(md.contains(section), "missing {section:?}");
        }
        // One window table row per measured window.
        assert!(
            md.lines()
                .filter(|l| l.starts_with("| ") && l.contains(" | "))
                .count()
                >= out.rows.len()
        );
    }

    #[test]
    fn csv_has_one_row_per_window_and_stable_header() {
        let _lock = crate::env_guard::lock();
        let _cleanup = crate::env_guard::RemoveOnDrop(&["OSCAR_RESULTS_DIR"]);
        let dir = std::env::temp_dir().join("oscar_scenario_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("OSCAR_RESULTS_DIR", &dir);
        let sc = &standard_scenarios()[0];
        let out = run_scenario(sc, &tiny()).unwrap();
        let path = write_scenario_csv(&out).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines = content.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("window,phase,phase_label,live,joins"));
        assert_eq!(lines.count(), out.rows.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
