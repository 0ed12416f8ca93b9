//! The continuous-churn engine: sustained join/crash/depart at a rate,
//! over any [`ChurnWorld`].
//!
//! The paper's churn experiments (Figure 2) are one-shot crash waves
//! measured on post-wave snapshots; its harder open regime is a network
//! under *sustained* membership change, measured at steady state.
//! [`run_churn`] is that regime's one event loop: three independent
//! Poisson processes on the discrete-event queue ([`EventQueue`]), each
//! drawing exponential inter-arrival times from its own seed-tree stream,
//! pre-scheduled window timers, the `min_live` floor and the window books
//! ([`ChurnWindowStats`]). What is being churned is a plug-in: a
//! [`ChurnWorld`] admits, crashes and retires peers, measures itself when
//! a window closes, and may put its own upkeep events (rewire sweeps,
//! repairs, probe rounds) on the engine's clock. Two worlds exist —
//! [`OracleWorld`](crate::churn_oracle::OracleWorld), the snapshot
//! [`Network`](crate::network::Network) running an
//! [`OverlayBuilder`](crate::growth::OverlayBuilder)'s links, and
//! [`MachineWorld`](crate::churn_machine::MachineWorld), a fleet of
//! protocol machines on any driver.
//!
//! Everything derives from one [`SeedTree`], so a run is a pure function
//! of `(world, schedule, workload, windows, seed)` — the bench drivers fan
//! independent runs over worker threads with byte-identical results.

use crate::events::{EventQueue, VirtualTime};
use crate::routing::QueryBatchStats;
use oscar_keydist::QueryWorkload;
use oscar_types::labels::sim_churn_engine::{
    LBL_CRASH_GAPS, LBL_CRASH_PICK, LBL_DEPART_GAPS, LBL_DEPART_PICK, LBL_JOIN, LBL_JOIN_GAPS,
    LBL_MEASURE,
};
use oscar_types::{Error, Result, SeedTree};
use rand::rngs::SmallRng;
use rand::Rng;

/// How a continuous-churn run heals churn damage.
///
/// The sweep policy is the paper's checkpoint protocol (O(n) per sweep
/// regardless of how much actually broke); the two reactive policies
/// model real maintenance traffic — repair work proportional to the
/// damage observed, O(k) per membership event — which is what makes
/// steady-state runs at 10⁵+ peers affordable.
#[derive(Clone, Debug, PartialEq)]
pub enum RepairPolicy {
    /// Rewire every live peer's long-range links every this many ticks —
    /// the engine's original behaviour. `0` disables repair entirely,
    /// letting dangling-link waste accumulate.
    SweepEvery(u64),
    /// On each crash or graceful departure, schedule a rewire of the
    /// `neighbors_k` nearest live ring successors *and* predecessors of
    /// the dead peer (the peers whose ring neighbourhood the event
    /// changed), as repair events `REPAIR_DELAY` ticks later. Repair
    /// work is O(k) per membership event instead of O(n) per sweep.
    Reactive {
        /// Live ring successors/predecessors rewired per membership
        /// event, on each side of the dead peer. Must be >= 1.
        neighbors_k: usize,
    },
    /// A peer that probes a corpse while routing (a timed-out forwarding
    /// attempt, the paper's wasted traffic) enqueues its *own* rewire —
    /// failure-detection-driven maintenance: damage is repaired exactly
    /// where traffic discovers it. The engine's measurement batches are
    /// the probe traffic, so repairs trail each window's queries.
    OnProbe,
}

impl RepairPolicy {
    /// Checks the policy is runnable.
    fn validate(&self) -> Result<()> {
        if let RepairPolicy::Reactive { neighbors_k: 0 } = self {
            return Err(Error::InvalidConfig(
                "Reactive repair needs neighbors_k >= 1: k = 0 repairs nothing".into(),
            ));
        }
        Ok(())
    }
}

/// How many measurement queries a window issues, as a function of the
/// live population at the window's end.
///
/// At paper scale a fixed batch is fine, but the measurement cost of a
/// `Fixed(n/4)` batch scales linearly with the network and becomes the
/// bottleneck of million-peer runs. Sublinear budgets trade per-window
/// precision for scale; the per-window standard error
/// ([`QueryBatchStats::se_cost`]) quantifies exactly what was traded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryBudget {
    /// The classic fixed batch, independent of population.
    Fixed(usize),
    /// `ceil(sqrt(live))`, floored at `min`: sublinear sampling for big
    /// networks while small ones keep a usable sample.
    SqrtLive {
        /// Lower bound on the resolved batch size.
        min: usize,
    },
}

impl QueryBudget {
    /// The number of queries a window with `live` peers issues. Always
    /// at least 1 for a validated budget (a window without queries has
    /// no data point).
    pub fn resolve(&self, live: usize) -> usize {
        match *self {
            QueryBudget::Fixed(q) => q,
            QueryBudget::SqrtLive { min } => ((live as f64).sqrt().ceil() as usize).max(min),
        }
    }

    /// Checks the budget can never resolve to zero queries.
    fn validate(&self) -> Result<()> {
        match *self {
            QueryBudget::Fixed(0) => Err(Error::InvalidConfig(
                "QueryBudget::Fixed must be >= 1: a window without queries has no data point"
                    .into(),
            )),
            QueryBudget::SqrtLive { min: 0 } => Err(Error::InvalidConfig(
                "QueryBudget::SqrtLive needs min >= 1: an empty window has no data point".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// Rates and windows of a continuous-churn run.
///
/// Rates are expected events per virtual tick; each membership process is
/// an independent Poisson process (exponential inter-arrival times), so
/// joins and crashes genuinely interleave rather than alternating on a
/// fixed grid. A rate of `0.0` disables the process.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnSchedule {
    /// Expected joins per tick.
    pub join_rate: f64,
    /// Expected crashes (abrupt failures leaving dangling links) per tick.
    pub crash_rate: f64,
    /// Expected graceful departures (clean link teardown) per tick.
    pub depart_rate: f64,
    /// How churn damage is healed: periodic whole-network sweeps,
    /// reactive per-event neighbour rewires, or probe-triggered rewires.
    pub repair: RepairPolicy,
    /// Virtual length of one measurement window.
    pub window_ticks: u64,
    /// Queries issued at the end of each window (uniform live targets),
    /// resolved against the live population at measurement time.
    pub query_budget: QueryBudget,
    /// Crash/depart events fizzle while the live population is at or
    /// below this floor, so a crash-heavy schedule cannot extinguish the
    /// network mid-experiment.
    pub min_live: usize,
}

impl ChurnSchedule {
    /// A population-neutral schedule: joins and crashes at the same rate,
    /// no graceful departures, one rewire sweep per window.
    pub fn symmetric(rate_per_tick: f64) -> Self {
        ChurnSchedule {
            join_rate: rate_per_tick,
            crash_rate: rate_per_tick,
            depart_rate: 0.0,
            repair: RepairPolicy::SweepEvery(1000),
            window_ticks: 1000,
            query_budget: QueryBudget::Fixed(200),
            min_live: 16,
        }
    }

    /// Checks the schedule is runnable.
    pub fn validate(&self) -> Result<()> {
        for (name, rate) in [
            ("join_rate", self.join_rate),
            ("crash_rate", self.crash_rate),
            ("depart_rate", self.depart_rate),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "{name} must be a finite non-negative rate, got {rate}"
                )));
            }
        }
        if self.window_ticks == 0 {
            return Err(Error::InvalidConfig(
                "window_ticks must be >= 1: zero-length windows measure nothing".into(),
            ));
        }
        self.query_budget.validate()?;
        if self.min_live < 1 {
            return Err(Error::InvalidConfig(
                "min_live must be >= 1: the engine never extinguishes the network".into(),
            ));
        }
        self.repair.validate()
    }
}

/// What one measurement window observed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnWindowStats {
    /// 0-based window index.
    pub window: usize,
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (the measurement instant).
    pub end: VirtualTime,
    /// Joins completed during the window.
    pub joins: u64,
    /// Crashes injected during the window.
    pub crashes: u64,
    /// Graceful departures during the window.
    pub departs: u64,
    /// Rewire-all sweeps during the window.
    pub rewires: u64,
    /// Individual peer rewires the repair policy executed during the
    /// window: a sweep contributes one per live peer, the reactive
    /// policies one per fired repair event whose target was still alive.
    pub repairs: u64,
    /// Simulated messages those repairs generated (sampling walks, probes,
    /// link handshakes) — the window's maintenance traffic.
    pub repair_cost: u64,
    /// Crash/depart arrivals suppressed by the `min_live` floor.
    pub suppressed: u64,
    /// Live population at the measurement instant.
    pub live_at_end: usize,
    /// The window's query batch (cost, wasted traffic, success rate).
    pub queries: QueryBatchStats,
}

impl ChurnWindowStats {
    /// Zeroed accumulator for the window opening at `start`.
    fn fresh(window: usize, start: VirtualTime) -> Self {
        ChurnWindowStats {
            window,
            start,
            end: start,
            ..Default::default()
        }
    }
}

/// Maintenance a world performed, booked by the engine to the window it
/// happened in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Maintenance {
    /// Whole-population rewire sweeps.
    pub rewires: u64,
    /// Individual peer rewires (a sweep contributes one per live peer).
    pub repairs: u64,
    /// Messages the maintenance generated.
    pub repair_cost: u64,
}

/// What a world reports when a window closes.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Live population at the measurement instant.
    pub live: usize,
    /// Maintenance since the previous measurement, closed *before* the
    /// batch ran: repairs the batch itself triggers belong to the next
    /// window.
    pub upkeep: Maintenance,
    /// The window's query batch.
    pub queries: QueryBatchStats,
}

/// Uniform victim selection under the schedule's `min_live` floor — the
/// one place the floor is applied. A world lists its population once,
/// asks for a rank, and removes the peer of that rank.
pub struct VictimPick {
    floor: usize,
    rng: SmallRng,
}

impl VictimPick {
    /// Rank (in identifier order) of the victim among `live` peers, or
    /// `None` while the population is at or below the floor.
    pub fn rank(&mut self, live: usize) -> Option<usize> {
        (live > self.floor).then(|| self.rng.gen_range(0..live))
    }
}

/// What the engine's clock carries: the three arrival processes, the
/// window timers, and whatever upkeep the world put there.
#[derive(Copy, Clone, Debug)]
enum Tick<U> {
    Join,
    Crash,
    Depart,
    Upkeep(U),
    WindowEnd,
}

/// The span of churn a world's handler runs in: the schedule and seed of
/// the run, and the engine's clock — on which a world can schedule its own
/// upkeep events and nothing else.
pub struct Span<'a, U> {
    /// The run's schedule.
    pub schedule: &'a ChurnSchedule,
    /// The run's seed; worlds derive their own labelled children.
    pub seed: &'a SeedTree,
    /// 0-based index of the open window.
    pub window: usize,
    queue: EventQueue<Tick<U>>,
}

impl<U> Span<'_, U> {
    /// Schedules `upkeep` `delay` ticks from now. Same-tick events fire
    /// in scheduling order, after that tick's window timer.
    pub fn after(&mut self, delay: u64, upkeep: U) {
        self.queue.schedule_in(delay, Tick::Upkeep(upkeep));
    }
}

/// A one-shot structural event the Poisson processes cannot express.
#[derive(Clone, Debug, PartialEq)]
pub enum Shock {
    /// A flash crowd: `ceil(fraction · live)` peers (at least one) join
    /// at once, sized from whoever is alive when it strikes.
    MassJoin {
        /// Burst size as a fraction of the live population, `> 0`.
        fraction: f64,
    },
    /// A regional outage: crashes the contiguous ring arc of
    /// `fraction · live` peers starting at ring position `start` (a
    /// fraction of the ring; values wrap), always leaving two survivors.
    KillArc {
        /// Ring position of the arc's first victim, as a fraction.
        start: f64,
        /// Fraction of the live population killed, in `(0, 1)`.
        fraction: f64,
    },
    /// A targeted attack: crashes the `fraction · live` peers of highest
    /// total long-link degree, ties broken by identifier.
    TargetedKill {
        /// Fraction of the live population killed, in `(0, 1)`.
        fraction: f64,
    },
    /// A partition mask: severs every long-range link crossing the
    /// boundary of the ring arc `[start, start + fraction)`.
    Partition {
        /// Arc start as a ring fraction (wraps).
        start: f64,
        /// Arc width as a ring fraction, in `(0, 1)`.
        fraction: f64,
    },
    /// Rewires the survivors bordering every shock since the last heal,
    /// plus whoever holds a link to a corpse.
    Heal,
}

/// What a [`Shock`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShockReport {
    /// Peers admitted.
    pub joined: u64,
    /// Peers crashed.
    pub killed: u64,
    /// Directed long-range links severed.
    pub severed: u64,
    /// Peers rewired, and the messages that took.
    pub upkeep: Maintenance,
}

/// Resolves an arc spec into `(first_rank, count)` over `n` live peers,
/// keeping at least 2 peers out of the arc.
pub(crate) fn resolve_arc(n: usize, start: f64, fraction: f64) -> Result<(usize, usize)> {
    let count = resolve_kill_count(n, fraction)?;
    let first = (start.rem_euclid(1.0) * n as f64) as usize % n;
    Ok((first, count))
}

/// `ceil(live · fraction)` joiners of a [`Shock::MassJoin`], at least 1.
pub(crate) fn resolve_join_count(live: usize, fraction: f64) -> Result<usize> {
    if !fraction.is_finite() || fraction <= 0.0 {
        return Err(Error::InvalidConfig(format!(
            "a mass join's fraction must be finite and > 0, got {fraction}"
        )));
    }
    Ok(((live as f64 * fraction).ceil() as usize).max(1))
}

/// `ceil(n · fraction)` victims, keeping at least 2 of the `n` alive.
pub(crate) fn resolve_kill_count(n: usize, fraction: f64) -> Result<usize> {
    if n < 3 {
        return Err(Error::InvalidConfig(format!(
            "a kill or arc shock needs >= 3 live peers, got {n}"
        )));
    }
    if !fraction.is_finite() || fraction <= 0.0 || fraction >= 1.0 {
        return Err(Error::InvalidConfig(format!(
            "a shock's fraction must be in (0, 1), got {fraction}"
        )));
    }
    Ok(((n as f64 * fraction).ceil() as usize).clamp(1, n - 2))
}

/// A substrate the engine can churn.
///
/// The engine owns time, the arrival processes, the floor and the books;
/// a world owns membership, links, detection and repair. Handlers run to
/// completion: when one returns, the world is at rest and measurable.
pub trait ChurnWorld {
    /// World-private events on the engine's clock. A periodic one carries
    /// its own period and re-arms itself from [`ChurnWorld::upkeep`].
    type Upkeep;

    /// Live population.
    fn live(&self) -> usize;

    /// Opens a span of churn: arms whatever periodic upkeep the
    /// schedule's repair policy calls for. Runs after the engine scheduled
    /// its window timers and arrival processes.
    fn begin(&mut self, span: &mut Span<'_, Self::Upkeep>);

    /// Admits one peer, drawing its identity (and whatever else the world
    /// samples per joiner) from `rng`.
    fn join(&mut self, rng: &mut SmallRng) -> Result<()>;

    /// Crashes one uniformly picked peer: no farewell, its links dangle.
    /// `Ok(false)` when `pick` held the floor.
    fn crash(&mut self, pick: &mut VictimPick, span: &mut Span<'_, Self::Upkeep>) -> Result<bool>;

    /// Retires one uniformly picked peer gracefully (links torn down).
    /// `Ok(false)` when `pick` held the floor.
    fn depart(&mut self, pick: &mut VictimPick, span: &mut Span<'_, Self::Upkeep>) -> Result<bool>;

    /// Handles one of the world's own events.
    fn upkeep(&mut self, event: Self::Upkeep, span: &mut Span<'_, Self::Upkeep>) -> Result<()>;

    /// Closes a window: hands over the maintenance done since the last
    /// call, then issues `query_budget.resolve(live)` queries from uniform
    /// live sources at `workload` targets, drawing from `rng`.
    fn measure(
        &mut self,
        workload: &QueryWorkload,
        rng: &mut SmallRng,
        span: &mut Span<'_, Self::Upkeep>,
    ) -> Result<Measured>;

    /// Applies a one-shot shock between spans, drawing from children of
    /// `seed`. A world that cannot express a shock says so in the error.
    fn shock(&mut self, shock: &Shock, seed: &SeedTree) -> Result<ShockReport>;
}

/// Draws an exponential inter-arrival gap (in whole ticks, >= 1) for a
/// Poisson process with `rate` events per tick.
fn exponential_gap(rate: f64, rng: &mut SmallRng) -> u64 {
    let u: f64 = rng.gen(); // [0, 1)
                            // -ln(1-u)/rate, clamped into [1, 2^40] ticks: a gap of one tick is
                            // the event-queue resolution, and the upper clamp keeps a glacial
                            // rate from overflowing the virtual clock.
    let gap = -(1.0 - u).ln() / rate;
    (gap.ceil() as u64).clamp(1, 1 << 40)
}

/// One Poisson arrival process: its rate, its gap stream and the tick it
/// puts on the clock.
struct Arrivals {
    rate: f64,
    gaps: SmallRng,
}

impl Arrivals {
    fn new(rate: f64, seed: &SeedTree, label: u64) -> Self {
        Arrivals {
            rate,
            gaps: seed.child(label).rng(),
        }
    }

    /// Schedules the next arrival; a zero rate never arrives.
    fn arm<U>(&mut self, queue: &mut EventQueue<Tick<U>>, tick: Tick<U>) {
        if self.rate > 0.0 {
            queue.schedule_in(exponential_gap(self.rate, &mut self.gaps), tick);
        }
    }
}

/// Runs `windows` measurement windows of continuous churn on `world`, its
/// virtual clock starting at zero.
///
/// Joins, crashes and departures arrive as independent Poisson processes
/// at the schedule's rates; crash and depart victims are uniform over the
/// live population and fizzle at the `min_live` floor; every window closes
/// with a query batch at `workload` targets, sized by the schedule's
/// budget. This is the only code that pops the churn clock and the only
/// producer of [`ChurnWindowStats`].
///
/// Determinism: all randomness derives from `seed`; identical inputs give
/// identical windows, regardless of what else the process is doing.
pub fn run_churn<W: ChurnWorld + ?Sized>(
    world: &mut W,
    schedule: &ChurnSchedule,
    workload: &QueryWorkload,
    windows: usize,
    seed: SeedTree,
) -> Result<Vec<ChurnWindowStats>> {
    schedule.validate()?;
    let mut results = Vec::with_capacity(windows);
    if windows == 0 {
        return Ok(results);
    }

    let mut span = Span {
        schedule,
        seed: &seed,
        window: 0,
        queue: EventQueue::new(),
    };
    let mut joins = Arrivals::new(schedule.join_rate, &seed, LBL_JOIN_GAPS);
    let mut crashes = Arrivals::new(schedule.crash_rate, &seed, LBL_CRASH_GAPS);
    let mut departs = Arrivals::new(schedule.depart_rate, &seed, LBL_DEPART_GAPS);
    let mut crash_pick = VictimPick {
        floor: schedule.min_live,
        rng: seed.child(LBL_CRASH_PICK).rng(),
    };
    let mut depart_pick = VictimPick {
        floor: schedule.min_live,
        rng: seed.child(LBL_DEPART_PICK).rng(),
    };

    // Every window timer is scheduled up front, before anything else, so
    // each WindowEnd carries a lower FIFO sequence than every membership
    // event and upkeep event (initial or rescheduled): an event landing
    // exactly on a window boundary is always counted in the *next*
    // window, and a coinciding sweep repairs only *after* the books
    // close — a window reports the damage churn accumulated since the
    // last repair, under any sweep-period/`window_ticks` ratio.
    for k in 1..=windows as u64 {
        span.queue
            .schedule(VirtualTime(k * schedule.window_ticks), Tick::WindowEnd);
    }
    joins.arm(&mut span.queue, Tick::Join);
    crashes.arm(&mut span.queue, Tick::Crash);
    departs.arm(&mut span.queue, Tick::Depart);
    world.begin(&mut span);

    // An arrival process re-arms only after its handler ran, so upkeep a
    // handler schedules (a crash's repairs) precedes the process's next
    // arrival on a same-tick tie.
    let mut joins_total = 0u64;
    let mut w = ChurnWindowStats::fresh(0, VirtualTime(0));
    while results.len() < windows {
        let Some((now, tick)) = span.queue.pop() else {
            break; // unreachable while a window timer is pending
        };
        match tick {
            Tick::Join => {
                let mut jrng = seed.child2(LBL_JOIN, joins_total).rng();
                joins_total += 1;
                world.join(&mut jrng)?;
                w.joins += 1;
                joins.arm(&mut span.queue, Tick::Join);
            }
            Tick::Crash => {
                if world.crash(&mut crash_pick, &mut span)? {
                    w.crashes += 1;
                } else {
                    w.suppressed += 1;
                }
                crashes.arm(&mut span.queue, Tick::Crash);
            }
            Tick::Depart => {
                if world.depart(&mut depart_pick, &mut span)? {
                    w.departs += 1;
                } else {
                    w.suppressed += 1;
                }
                departs.arm(&mut span.queue, Tick::Depart);
            }
            Tick::Upkeep(event) => world.upkeep(event, &mut span)?,
            Tick::WindowEnd => {
                let mut qrng = seed.child2(LBL_MEASURE, span.window as u64).rng();
                let measured = world.measure(workload, &mut qrng, &mut span)?;
                w.end = now;
                w.live_at_end = measured.live;
                w.rewires = measured.upkeep.rewires;
                w.repairs = measured.upkeep.repairs;
                w.repair_cost = measured.upkeep.repair_cost;
                w.queries = measured.queries;
                span.window += 1;
                let next = ChurnWindowStats::fresh(span.window, now);
                results.push(std::mem::replace(&mut w, next));
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world of nothing but a head count, recording what the engine
    /// asked of it. A crash schedules a `"repair"` one tick later, like the
    /// oracle world's `Reactive` policy.
    struct Stub {
        live: usize,
        calls: Vec<&'static str>,
    }

    impl ChurnWorld for Stub {
        type Upkeep = &'static str;

        fn live(&self) -> usize {
            self.live
        }
        fn begin(&mut self, span: &mut Span<'_, &'static str>) {
            self.calls.push("begin");
            span.after(span.schedule.window_ticks, "sweep");
        }
        fn join(&mut self, _: &mut SmallRng) -> Result<()> {
            self.calls.push("join");
            self.live += 1;
            Ok(())
        }
        fn crash(
            &mut self,
            pick: &mut VictimPick,
            span: &mut Span<'_, &'static str>,
        ) -> Result<bool> {
            self.calls.push("crash");
            let removed = pick.rank(self.live).is_some();
            if removed {
                self.live -= 1;
                span.after(1, "repair");
            }
            Ok(removed)
        }
        fn depart(
            &mut self,
            pick: &mut VictimPick,
            _: &mut Span<'_, &'static str>,
        ) -> Result<bool> {
            self.calls.push("depart");
            let removed = pick.rank(self.live).is_some();
            self.live -= removed as usize;
            Ok(removed)
        }
        fn upkeep(&mut self, event: &'static str, _: &mut Span<'_, &'static str>) -> Result<()> {
            self.calls.push(event);
            Ok(())
        }
        fn measure(
            &mut self,
            _: &QueryWorkload,
            _: &mut SmallRng,
            span: &mut Span<'_, &'static str>,
        ) -> Result<Measured> {
            self.calls.push("measure");
            Ok(Measured {
                live: self.live,
                upkeep: Maintenance::default(),
                queries: QueryBatchStats {
                    queries: span.schedule.query_budget.resolve(self.live),
                    ..Default::default()
                },
            })
        }
        fn shock(&mut self, _: &Shock, _: &SeedTree) -> Result<ShockReport> {
            Ok(ShockReport::default())
        }
    }

    fn run_stub(
        schedule: &ChurnSchedule,
        windows: usize,
        live: usize,
    ) -> (Stub, Vec<ChurnWindowStats>) {
        let mut world = Stub {
            live,
            calls: Vec::new(),
        };
        let ws = run_churn(
            &mut world,
            schedule,
            &QueryWorkload::UniformPeers,
            windows,
            SeedTree::new(5),
        )
        .unwrap();
        (world, ws)
    }

    #[test]
    fn same_tick_events_fire_window_timer_first_then_in_scheduling_order() {
        // A rate this high clamps every gap to one tick: a crash per tick,
        // each scheduling its repair for the next — so every tick from 2
        // on is a Repair/Crash tie, and ticks 3 and 6 add the window
        // timer and the sweep the world armed in `begin`.
        let schedule = ChurnSchedule {
            join_rate: 0.0,
            crash_rate: 1e9,
            window_ticks: 3,
            min_live: 1,
            ..ChurnSchedule::symmetric(0.0)
        };
        let (world, ws) = run_stub(&schedule, 2, 100);
        let tick = ["repair", "crash"];
        let mut expect = vec!["begin", "crash"]; // tick 1
        expect.extend(tick); // tick 2
                             // Tick 3: the pre-scheduled window timer, then the sweep armed
                             // before any crash ran, then the repair a crash scheduled *before*
                             // its process re-armed, then that re-armed crash.
        expect.extend(["measure", "sweep"]);
        expect.extend(tick);
        // Ticks 4 and 5; tick 6 ends the run at its timer.
        expect.extend(tick);
        expect.extend(tick);
        expect.push("measure");
        assert_eq!(world.calls, expect);
        assert_eq!(ws[0].crashes, 2, "the tick-3 crash is window 1's");
        assert_eq!(ws[1].crashes, 3);
        assert_eq!((ws[1].start, ws[1].end), (VirtualTime(3), VirtualTime(6)));
    }

    #[test]
    fn the_floor_suppresses_removals_and_is_applied_by_the_pick() {
        let schedule = ChurnSchedule {
            join_rate: 0.0,
            crash_rate: 0.05,
            depart_rate: 0.05,
            min_live: 90,
            ..ChurnSchedule::symmetric(0.0)
        };
        let (world, ws) = run_stub(&schedule, 3, 100);
        let last = ws.last().unwrap();
        assert_eq!(world.live, 90, "floor must hold exactly");
        assert_eq!(last.live_at_end, 90);
        assert!(last.suppressed > 0, "floor suppressions must be counted");
        let removed: u64 = ws.iter().map(|w| w.crashes + w.departs).sum();
        assert_eq!(removed, 10);
    }

    #[test]
    fn windows_cover_the_virtual_timeline_and_zero_windows_do_nothing() {
        let schedule = ChurnSchedule {
            window_ticks: 500,
            query_budget: QueryBudget::SqrtLive { min: 8 },
            ..ChurnSchedule::symmetric(0.05)
        };
        let (_, ws) = run_stub(&schedule, 4, 120);
        assert_eq!(ws.len(), 4);
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.window, i);
            assert_eq!(w.start, VirtualTime(i as u64 * 500));
            assert_eq!(w.end, VirtualTime((i as u64 + 1) * 500));
            assert!(w.joins > 0 && w.crashes > 0, "both processes must fire");
            assert_eq!(
                w.queries.queries,
                schedule.query_budget.resolve(w.live_at_end)
            );
        }
        let (world, ws) = run_stub(&schedule, 0, 60);
        assert!(ws.is_empty());
        assert!(world.calls.is_empty(), "no windows, no churn applied");
    }

    #[test]
    fn query_budgets_resolve_against_the_live_population() {
        assert_eq!(QueryBudget::Fixed(200).resolve(10), 200);
        assert_eq!(QueryBudget::Fixed(200).resolve(1_000_000), 200);
        let sqrt = QueryBudget::SqrtLive { min: 32 };
        assert_eq!(sqrt.resolve(4), 32, "floored below min^2");
        assert_eq!(sqrt.resolve(10_000), 100);
        assert_eq!(sqrt.resolve(1_000_000), 1_000);
    }

    #[test]
    fn invalid_schedules_are_config_errors() {
        let bad = [
            ChurnSchedule {
                join_rate: -0.1,
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                crash_rate: f64::NAN,
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                window_ticks: 0,
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                query_budget: QueryBudget::Fixed(0),
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                query_budget: QueryBudget::SqrtLive { min: 0 },
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                min_live: 0,
                ..ChurnSchedule::symmetric(0.1)
            },
            ChurnSchedule {
                repair: RepairPolicy::Reactive { neighbors_k: 0 },
                ..ChurnSchedule::symmetric(0.1)
            },
        ];
        for schedule in bad {
            let mut world = Stub {
                live: 50,
                calls: Vec::new(),
            };
            let r = run_churn(
                &mut world,
                &schedule,
                &QueryWorkload::UniformPeers,
                2,
                SeedTree::new(1),
            );
            assert!(
                matches!(r, Err(Error::InvalidConfig(_))),
                "schedule {schedule:?} must be rejected"
            );
            assert!(
                world.calls.is_empty(),
                "rejected before the world is touched"
            );
        }
    }

    #[test]
    fn arc_specs_resolve_or_are_config_errors() {
        assert_eq!(resolve_arc(100, 0.25, 0.10).unwrap(), (25, 10));
        assert_eq!(
            resolve_arc(100, 1.25, 0.10).unwrap(),
            (25, 10),
            "start wraps"
        );
        // A huge fraction clamps to leave 2 survivors rather than erroring.
        assert_eq!(resolve_arc(50, 0.0, 0.99).unwrap(), (0, 48));
        assert_eq!(resolve_kill_count(32, 0.2).unwrap(), 7);
        for fraction in [0.0, 1.0, 1.5, f64::NAN] {
            assert!(resolve_arc(50, 0.0, fraction).is_err());
        }
        assert!(resolve_arc(2, 0.0, 0.5).is_err(), "nobody left to survive");
    }

    #[test]
    fn exponential_gaps_match_the_rate() {
        // Mean of exponential(λ) is 1/λ; the integer clamp biases the mean
        // up by at most half a tick, so a generous band suffices.
        let mut rng = SeedTree::new(33).rng();
        let rate = 0.05;
        let n = 20_000;
        let mean = (0..n)
            .map(|_| exponential_gap(rate, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 2.0,
            "mean gap {mean:.2} far from {:.2}",
            1.0 / rate
        );
        // The clamp floor: very high rates still advance time.
        assert!(exponential_gap(1e9, &mut rng) >= 1);
    }
}
