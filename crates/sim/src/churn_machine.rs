//! Continuous churn through the protocol machines — the second backend.
//!
//! [`run_continuous_churn`](crate::churn_engine::run_continuous_churn)
//! drives Poisson join/crash/depart against the oracle-backed
//! [`Network`](crate::network::Network): repairs are `builder.rewire`
//! calls and failure detection is free (the engine simply knows who is
//! dead). This module runs the *same* [`ChurnSchedule`] against a fleet
//! of [`PeerMachine`](oscar_protocol::PeerMachine)s hosted by any
//! [`ProtocolDriver`] — the discrete-event simulator or the threaded
//! actor runtime — where death must be *discovered* (ring probes,
//! bounced sends, retry give-ups) and every repair is real messages.
//!
//! The engine owns the Poisson clock and the window books; the machines
//! own detection and repair. Policy mapping
//! ([`machine_repair_policy`]):
//!
//! * `SweepEvery(t)` → machines run `oscar_protocol::RepairPolicy::Off`; the
//!   engine
//!   injects [`Command::Rewire`] to every live peer every `t` ticks
//!   (the checkpoint protocol: O(n) per sweep, no detection needed).
//! * `Reactive { k }` → machines run `ReactiveK { k }`; the engine
//!   injects [`Command::ProbeRing`] every `probe_every` ticks and the
//!   machines rewire where probes find corpses — O(damage) repair.
//! * `OnProbe` → machines run `OnProbe`; ring probes run at depth 1 and
//!   each measurement query that bounces off a corpse rewires its
//!   prober, so repair trails the traffic that discovered the damage.
//!
//! Window books ([`ChurnWindowStats`]): `repairs` counts
//! [`ProtocolEvent::RepairFired`] (sweeps count one per swept peer,
//! matching the legacy engine); `repair_cost` is the driver's `sent()`
//! delta across sweep and probe settles — honest maintenance traffic,
//! including the failure-detection pings the oracle backend gets for
//! free. Repairs fired *by* a measurement batch (the `OnProbe` path)
//! are booked to the next window, exactly like the legacy engine's
//! delayed repair events. `OnProbe` repair walks ride the measurement
//! settle, so their traffic lands in the query books rather than
//! `repair_cost` — the sweep-vs-reactive comparison is unaffected.
//!
//! Multi-phase runs ([`run_machine_phases`]): a scenario is a sequence
//! of [`MachinePhase`]s — churn/measurement spans, mass-join bursts and
//! contiguous arc kills — over one bootstrapped fleet. Each phase
//! derives its randomness from a `LBL_SPAN`-keyed child of the run
//! seed, and each churn span restarts its virtual clock at zero (the
//! scenario layer re-indexes windows globally). [`run_machine_churn`]
//! is the single-span special case and derives exactly the same streams
//! it always has, so committed machine baselines are unaffected.
//!
//! Determinism: every draw comes from a labelled child of the run seed
//! (scope `sim_churn_machine`), walks and queries carry token RNGs, and
//! query reports are aggregated in qid order — so a DES run and a
//! threaded-runtime run at the same seed produce the same windows.

use crate::churn_engine::{exponential_gap, ChurnSchedule, ChurnWindowStats, RepairPolicy};
use crate::events::{EventQueue, VirtualTime};
use crate::routing::QueryBatchStats;
use oscar_keydist::{KeyDistribution, QueryTarget, QueryWorkload};
use oscar_protocol::{Command, ProtocolDriver, ProtocolEvent, QueryReport};
use oscar_types::labels::sim_churn_machine::{
    LBL_BOOT, LBL_CRASH_GAPS, LBL_CRASH_PICK, LBL_DEPART_GAPS, LBL_DEPART_PICK, LBL_JOIN,
    LBL_JOIN_GAPS, LBL_MEASURE, LBL_SPAN,
};
use oscar_types::{Error, Id, P2Quantile, Result, SeedTree};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Timer-round budget for one settle: far above any single membership
/// event's retry chains, so a hit means a protocol livelock, not churn
/// — [`settle`] reports it as [`Error::Livelock`].
const SETTLE_ROUNDS: u64 = 4096;

/// Settles the driver after `during`, failing if that took the whole
/// [`SETTLE_ROUNDS`] budget: the fleet is then still not idle, and
/// whatever the engine measured next would be measured mid-operation.
fn settle<D: ProtocolDriver>(driver: &mut D, during: &'static str) -> Result<()> {
    let rounds = driver.settle(SETTLE_ROUNDS);
    if rounds >= SETTLE_ROUNDS {
        return Err(Error::Livelock { during, rounds });
    }
    Ok(())
}

/// Shape of the machine fleet a churn run is driven against.
#[derive(Clone, Debug)]
pub struct MachineChurnConfig {
    /// Peers bootstrapped (serial joins) before the schedule starts.
    pub initial_peers: usize,
    /// Sampling walks per link build: joins, sweeps, and bootstrap all
    /// launch this many (repairs use `PeerConfig::repair_walks`).
    pub build_walks: u32,
    /// Ring-probe cadence in virtual ticks (reactive policies only).
    pub probe_every: u64,
}

impl Default for MachineChurnConfig {
    fn default() -> Self {
        MachineChurnConfig {
            initial_peers: 64,
            build_walks: 3,
            probe_every: 100,
        }
    }
}

impl MachineChurnConfig {
    /// Checks the config is runnable.
    pub fn validate(&self) -> Result<()> {
        if self.initial_peers < 2 {
            return Err(Error::InvalidConfig(
                "machine churn needs initial_peers >= 2: one peer has no overlay".into(),
            ));
        }
        if self.probe_every == 0 {
            return Err(Error::InvalidConfig(
                "probe_every must be >= 1: zero-cadence probing never detects anything".into(),
            ));
        }
        Ok(())
    }
}

/// The machine-side repair policy a [`ChurnSchedule`] maps to. Callers
/// must build their driver's `PeerConfig` with this before running —
/// the engine cannot reconfigure machines after spawn.
pub fn machine_repair_policy(repair: &RepairPolicy) -> oscar_protocol::RepairPolicy {
    match repair {
        RepairPolicy::SweepEvery(_) => oscar_protocol::RepairPolicy::Off,
        RepairPolicy::Reactive { neighbors_k } => {
            oscar_protocol::RepairPolicy::ReactiveK { k: *neighbors_k }
        }
        RepairPolicy::OnProbe => oscar_protocol::RepairPolicy::OnProbe,
    }
}

/// The engine's event alphabet (the machine analogue of the legacy
/// engine's: sweeps become `Rewire` injections, reactive repair becomes
/// probe rounds, and there is no oracle `Repair` event — machines fire
/// their own).
#[derive(Copy, Clone, Debug)]
enum MachineEvent {
    Join,
    Crash,
    Depart,
    /// Ring-probe round across the live fleet (reactive policies).
    Probe,
    /// Whole-network rewire sweep (`SweepEvery`).
    Sweep,
    WindowEnd,
}

/// One step of a multi-phase machine scenario run.
#[derive(Clone, Debug)]
pub enum MachinePhase {
    /// A span of Poisson churn measured per window. Zero rates make it a
    /// pure measurement span; `workload` picks what the window batches
    /// target (`UniformPeers` reproduces the classic runs).
    Churn {
        /// Rates, repair policy and window geometry of the span.
        schedule: ChurnSchedule,
        /// Measurement workload of the span's window batches.
        workload: QueryWorkload,
        /// Measurement windows in the span.
        windows: usize,
    },
    /// A flash crowd: exactly `count` serial joins through random live
    /// contacts, links built immediately (no measurement of its own —
    /// follow with a zero-rate `Churn` span to observe the aftermath).
    MassJoin {
        /// Joins injected by the burst.
        count: usize,
    },
    /// A regional outage: crashes the contiguous arc of
    /// `fraction · live` peers starting at ring position `start` (a
    /// fraction of the sorted-identifier ring; values wrap). Survivors
    /// must *discover* the hole — probes and queries in later phases do.
    KillArc {
        /// Ring position of the arc's first victim, as a fraction.
        start: f64,
        /// Fraction of the live fleet killed, in `(0, 1)`.
        fraction: f64,
    },
}

/// Runs `windows` measurement windows of continuous churn against the
/// machines hosted by `driver`, which must be empty (the engine
/// bootstraps its own fleet so both drivers start from the same state).
///
/// Joins sample fresh identifiers from `keys` and enter through a
/// uniformly random live contact; crash and depart victims are uniform
/// over the live population; every window closes with a query batch
/// sized by the schedule's budget. Identical inputs give identical
/// windows on either driver.
pub fn run_machine_churn<D: ProtocolDriver>(
    driver: &mut D,
    keys: &dyn KeyDistribution,
    cfg: &MachineChurnConfig,
    schedule: &ChurnSchedule,
    windows: usize,
    seed: SeedTree,
) -> Result<Vec<ChurnWindowStats>> {
    schedule.validate()?;
    cfg.validate()?;
    bootstrap_fleet(driver, keys, cfg, &seed)?;
    let mut carry_repairs = 0u64;
    churn_span(
        driver,
        keys,
        cfg,
        schedule,
        &QueryWorkload::UniformPeers,
        windows,
        &seed,
        &mut carry_repairs,
    )
}

/// Runs a sequence of [`MachinePhase`]s over one bootstrapped fleet —
/// the machine backend of the scenario engine. Returns one
/// `Vec<ChurnWindowStats>` per phase, empty for phases that measure
/// nothing themselves (`MassJoin`, `KillArc`).
///
/// Phase `p` derives all randomness from `seed.child2(LBL_SPAN, p)`;
/// repairs fired by a phase's trailing measurement batch carry into the
/// next churn span's first window, mirroring the single-span engine's
/// next-window booking. Works on any [`ProtocolDriver`] and is
/// bit-deterministic per `(phases, seed)` on all of them.
pub fn run_machine_phases<D: ProtocolDriver>(
    driver: &mut D,
    keys: &dyn KeyDistribution,
    cfg: &MachineChurnConfig,
    phases: &[MachinePhase],
    seed: SeedTree,
) -> Result<Vec<Vec<ChurnWindowStats>>> {
    cfg.validate()?;
    bootstrap_fleet(driver, keys, cfg, &seed)?;
    let mut results = Vec::with_capacity(phases.len());
    let mut carry_repairs = 0u64;
    for (p, phase) in phases.iter().enumerate() {
        let span_seed = seed.child2(LBL_SPAN, p as u64);
        match phase {
            MachinePhase::Churn {
                schedule,
                workload,
                windows,
            } => {
                schedule.validate()?;
                results.push(churn_span(
                    driver,
                    keys,
                    cfg,
                    schedule,
                    workload,
                    *windows,
                    &span_seed,
                    &mut carry_repairs,
                )?);
            }
            MachinePhase::MassJoin { count } => {
                for i in 0..*count {
                    let mut jrng = span_seed.child2(LBL_JOIN, i as u64).rng();
                    machine_join(driver, keys, cfg, &mut jrng)?;
                    carry_repairs += absorb_repairs(driver);
                }
                results.push(Vec::new());
            }
            MachinePhase::KillArc { start, fraction } => {
                let live = driver.peer_ids();
                let n = live.len();
                if n < 3 {
                    return Err(Error::InvalidConfig(format!(
                        "KillArc needs >= 3 live peers, got {n}"
                    )));
                }
                if !fraction.is_finite() || *fraction <= 0.0 || *fraction >= 1.0 {
                    return Err(Error::InvalidConfig(format!(
                        "KillArc fraction must be in (0, 1), got {fraction}"
                    )));
                }
                let count = ((n as f64 * fraction).ceil() as usize).clamp(1, n - 2);
                let first = (start.rem_euclid(1.0) * n as f64) as usize % n;
                for i in 0..count {
                    // Abrupt, like the Crash event: no farewell, mail to
                    // the corpses bounces until survivors rewire.
                    driver.remove_peer(live[(first + i) % n]);
                }
                results.push(Vec::new());
            }
        }
    }
    Ok(results)
}

/// Bootstraps the fleet: serial joins through the first peer, then one
/// serialized link build per peer. The driver must start empty so both
/// drivers (and every run) grow identical overlays from the seed.
fn bootstrap_fleet<D: ProtocolDriver>(
    driver: &mut D,
    keys: &dyn KeyDistribution,
    cfg: &MachineChurnConfig,
    seed: &SeedTree,
) -> Result<()> {
    if !driver.peer_ids().is_empty() {
        return Err(Error::InvalidConfig(
            "machine churn bootstraps its own fleet: the driver must start empty".into(),
        ));
    }
    let mut boot = seed.child(LBL_BOOT).rng();
    // Join order is draw order (`ids`); `taken` answers "drawn before?"
    // in O(log n) where searching `ids` made the loop quadratic.
    let mut ids: Vec<Id> = Vec::with_capacity(cfg.initial_peers);
    let mut taken: BTreeSet<Id> = BTreeSet::new();
    while ids.len() < cfg.initial_peers {
        let mut placed = false;
        for _ in 0..1000 {
            let id = keys.sample(&mut boot);
            if taken.insert(id) {
                ids.push(id);
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(Error::InvalidConfig(
                "key distribution too degenerate: 1000 consecutive id collisions".into(),
            ));
        }
    }
    driver.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        driver.spawn_peer(id);
        driver.inject(id, Command::Join { contact: ids[0] });
        settle(driver, "a bootstrap join")?;
    }
    // One settle per peer, here and in the probe/sweep handlers below:
    // concurrent walks read each other's half-built link tables in
    // whatever order the driver interleaves them, which would make link
    // state scheduling-dependent on the threaded runtime. Serialized
    // injection keeps every link-mutating phase a pure function of the
    // trace, so both drivers grow identical overlays.
    for &id in &ids {
        driver.inject(
            id,
            Command::BuildLinks {
                walks: cfg.build_walks,
            },
        );
        settle(driver, "a bootstrap link build")?;
    }
    driver.drain_events(); // bootstrap milestones are not window data
    Ok(())
}

/// Admits one joiner: samples a fresh identifier (resampling collisions,
/// like the legacy engine), joins through a uniformly random live
/// contact and builds links once the splice settled.
fn machine_join<D: ProtocolDriver>(
    driver: &mut D,
    keys: &dyn KeyDistribution,
    cfg: &MachineChurnConfig,
    jrng: &mut SmallRng,
) -> Result<()> {
    let live = driver.peer_ids();
    for _ in 0..1000 {
        let id = keys.sample(jrng);
        if live.binary_search(&id).is_err() {
            let contact = live[jrng.gen_range(0..live.len())];
            driver.spawn_peer(id);
            driver.inject(id, Command::Join { contact });
            settle(driver, "a join")?;
            // Links only after the splice: a walk needs the joiner's
            // ring links to leave from.
            driver.inject(
                id,
                Command::BuildLinks {
                    walks: cfg.build_walks,
                },
            );
            return settle(driver, "a joiner's link build");
        }
    }
    Err(Error::InvalidConfig(
        "key distribution too degenerate: 1000 consecutive id collisions".into(),
    ))
}

/// One churn span: `windows` measurement windows of Poisson churn, all
/// randomness derived from `span_seed`, virtual clock starting at zero.
/// `carry_repairs` feeds repairs booked past the previous span's books
/// into this span's first window and returns this span's own trailing
/// batch repairs the same way.
#[allow(clippy::too_many_arguments)]
fn churn_span<D: ProtocolDriver>(
    driver: &mut D,
    keys: &dyn KeyDistribution,
    cfg: &MachineChurnConfig,
    schedule: &ChurnSchedule,
    workload: &QueryWorkload,
    windows: usize,
    span_seed: &SeedTree,
    carry_repairs: &mut u64,
) -> Result<Vec<ChurnWindowStats>> {
    let mut results = Vec::with_capacity(windows);
    if windows == 0 {
        return Ok(results);
    }

    // --- schedule: same pre-scheduled window timers as the legacy engine
    // (a WindowEnd on a boundary tick always outranks same-tick churn).
    let mut queue: EventQueue<MachineEvent> = EventQueue::new();
    let mut join_gaps = span_seed.child(LBL_JOIN_GAPS).rng();
    let mut crash_gaps = span_seed.child(LBL_CRASH_GAPS).rng();
    let mut depart_gaps = span_seed.child(LBL_DEPART_GAPS).rng();
    let mut crash_pick = span_seed.child(LBL_CRASH_PICK).rng();
    let mut depart_pick = span_seed.child(LBL_DEPART_PICK).rng();
    for k in 1..=windows as u64 {
        queue.schedule(
            VirtualTime(k * schedule.window_ticks),
            MachineEvent::WindowEnd,
        );
    }
    if schedule.join_rate > 0.0 {
        queue.schedule_in(
            exponential_gap(schedule.join_rate, &mut join_gaps),
            MachineEvent::Join,
        );
    }
    if schedule.crash_rate > 0.0 {
        queue.schedule_in(
            exponential_gap(schedule.crash_rate, &mut crash_gaps),
            MachineEvent::Crash,
        );
    }
    if schedule.depart_rate > 0.0 {
        queue.schedule_in(
            exponential_gap(schedule.depart_rate, &mut depart_gaps),
            MachineEvent::Depart,
        );
    }
    match schedule.repair {
        RepairPolicy::SweepEvery(every) => {
            if every > 0 {
                queue.schedule_in(every, MachineEvent::Sweep);
            }
        }
        RepairPolicy::Reactive { .. } | RepairPolicy::OnProbe => {
            queue.schedule_in(cfg.probe_every, MachineEvent::Probe);
        }
    }

    let mut joins_total = 0u64;
    let mut window_start = VirtualTime(0);
    let mut w = ChurnWindowStats::fresh(0, window_start);
    w.repairs += *carry_repairs;
    *carry_repairs = 0;

    while results.len() < windows {
        let (now, event) = queue
            .pop()
            .expect("an engine process or the window timer is always scheduled");
        match event {
            MachineEvent::Join => {
                let join_seed = span_seed.child2(LBL_JOIN, joins_total);
                joins_total += 1;
                let mut jrng = join_seed.rng();
                machine_join(driver, keys, cfg, &mut jrng)?;
                w.joins += 1;
                w.repairs += absorb_repairs(driver);
                queue.schedule_in(
                    exponential_gap(schedule.join_rate, &mut join_gaps),
                    MachineEvent::Join,
                );
            }
            MachineEvent::Crash => {
                let live = driver.peer_ids();
                if live.len() > schedule.min_live {
                    let victim = live[crash_pick.gen_range(0..live.len())];
                    // Abrupt: no farewell, mail to the corpse bounces (or
                    // blackholes, per the fault plan). Survivors discover
                    // the hole at the next probe round or query.
                    driver.remove_peer(victim);
                    w.crashes += 1;
                } else {
                    w.suppressed += 1;
                }
                queue.schedule_in(
                    exponential_gap(schedule.crash_rate, &mut crash_gaps),
                    MachineEvent::Crash,
                );
            }
            MachineEvent::Depart => {
                let live = driver.peer_ids();
                if live.len() > schedule.min_live {
                    let victim = live[depart_pick.gen_range(0..live.len())];
                    driver.inject(victim, Command::Depart);
                    settle(driver, "a departure")?;
                    driver.remove_peer(victim);
                    w.departs += 1;
                    w.repairs += absorb_repairs(driver);
                } else {
                    w.suppressed += 1;
                }
                queue.schedule_in(
                    exponential_gap(schedule.depart_rate, &mut depart_gaps),
                    MachineEvent::Depart,
                );
            }
            MachineEvent::Probe => {
                let before = driver.sent();
                for id in driver.peer_ids() {
                    driver.inject(id, Command::ProbeRing);
                    settle(driver, "a ring probe")?;
                }
                w.repair_cost += driver.sent() - before;
                w.repairs += absorb_repairs(driver);
                queue.schedule_in(cfg.probe_every, MachineEvent::Probe);
            }
            MachineEvent::Sweep => {
                let live = driver.peer_ids();
                let before = driver.sent();
                for &id in &live {
                    driver.inject(
                        id,
                        Command::Rewire {
                            walks: cfg.build_walks,
                        },
                    );
                    settle(driver, "a sweep rewire")?;
                }
                w.rewires += 1;
                w.repairs += live.len() as u64;
                w.repair_cost += driver.sent() - before;
                driver.drain_events();
                let RepairPolicy::SweepEvery(every) = schedule.repair else {
                    unreachable!("Sweep events are only scheduled by SweepEvery")
                };
                queue.schedule_in(every, MachineEvent::Sweep);
            }
            MachineEvent::WindowEnd => {
                let widx = results.len();
                let mut qrng = span_seed.child2(LBL_MEASURE, widx as u64).rng();
                w.window = widx;
                w.start = window_start;
                w.end = now;
                // Close the repair books before measuring: batch-triggered
                // repairs (OnProbe) belong to the next window, like the
                // legacy engine's delayed repair events.
                w.repairs += absorb_repairs(driver);
                let live = driver.peer_ids();
                w.live_at_end = live.len();
                let batch = schedule.query_budget.resolve(w.live_at_end);
                let mut issued = 0usize;
                for q in 0..batch {
                    if live.is_empty() {
                        break;
                    }
                    let src = live[qrng.gen_range(0..live.len())];
                    let key = match workload.draw(live.len(), &mut qrng) {
                        QueryTarget::PeerRank(r) => live[r],
                        QueryTarget::Key(k) => k,
                    };
                    driver.inject(
                        src,
                        Command::StartQuery {
                            qid: ((widx as u64) << 32) | q as u64,
                            key,
                        },
                    );
                    issued += 1;
                }
                settle(driver, "a window's query batch")?;
                let (mut reports, batch_repairs) = split_events(driver.drain_events());
                // The P² estimators are observation-order sensitive; qid
                // order is the one ordering every driver agrees on.
                reports.sort_by_key(|r| r.qid);
                w.queries = aggregate_reports(&reports, issued);
                results.push(w.clone());
                window_start = now;
                w = ChurnWindowStats::fresh(widx + 1, window_start);
                w.repairs += batch_repairs;
            }
        }
    }
    // Whatever the last measurement batch triggered was booked to the
    // window that will never close in this span; hand it to the caller so
    // a following span can own it instead of silently dropping it.
    *carry_repairs = w.repairs;
    Ok(results)
}

/// Drains the driver's events and counts the repairs that fired.
fn absorb_repairs<D: ProtocolDriver>(driver: &mut D) -> u64 {
    driver
        .drain_events()
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::RepairFired { .. }))
        .count() as u64
}

/// Splits a measurement settle's events into query reports and the
/// count of repairs the batch itself triggered.
fn split_events(events: Vec<ProtocolEvent>) -> (Vec<QueryReport>, u64) {
    let mut reports = Vec::new();
    let mut repairs = 0u64;
    for e in events {
        match e {
            ProtocolEvent::QueryCompleted(r) => reports.push(r),
            ProtocolEvent::RepairFired { .. } => repairs += 1,
            _ => {}
        }
    }
    (reports, repairs)
}

/// Aggregates query reports with the same streaming math as the oracle
/// backend's batch runner (`routing::run_query_batch`): wasted traffic
/// over all issued queries, cost statistics over the successful ones.
/// A query that produced no report (killed outright by the fault plan)
/// counts as issued-and-failed with zero observed waste.
fn aggregate_reports(reports: &[QueryReport], issued: usize) -> QueryBatchStats {
    let mut p50 = P2Quantile::new(0.50);
    let mut p95 = P2Quantile::new(0.95);
    let mut cost_sum = 0.0f64;
    let mut cost_sumsq = 0.0f64;
    let mut max_cost = 0u32;
    let mut hops_sum = 0u64;
    let mut wasted_sum = 0u64;
    let mut successes = 0usize;
    for r in reports {
        wasted_sum += r.wasted as u64;
        if r.success {
            successes += 1;
            let c = r.cost();
            let cf = c as f64;
            cost_sum += cf;
            cost_sumsq += cf * cf;
            max_cost = max_cost.max(c);
            p50.observe(cf);
            p95.observe(cf);
            hops_sum += r.hops as u64;
        }
    }
    let mut stats = QueryBatchStats {
        queries: issued,
        ..Default::default()
    };
    stats.success_rate = successes as f64 / issued.max(1) as f64;
    stats.mean_wasted = wasted_sum as f64 / issued.max(1) as f64;
    if successes > 0 {
        let m = successes as f64;
        stats.mean_cost = cost_sum / m;
        stats.mean_hops = hops_sum as f64 / m;
        stats.max_cost = max_cost;
        stats.p50_cost = p50.value();
        stats.p95_cost = p95.value();
        if successes > 1 {
            let var = ((cost_sumsq - cost_sum * cost_sum / m) / (m - 1.0)).max(0.0);
            stats.se_cost = (var / m).sqrt();
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn_engine::QueryBudget;
    use crate::protocol_des::DesDriver;
    use oscar_keydist::UniformKeys;
    use oscar_protocol::{FaultPlan, PeerConfig};

    fn des_for(schedule: &ChurnSchedule, seed: u64) -> DesDriver {
        let peer_cfg = PeerConfig {
            repair: machine_repair_policy(&schedule.repair),
            ..PeerConfig::default()
        };
        DesDriver::new_with_faults(seed, peer_cfg, FaultPlan::reliable())
    }

    fn small_schedule(repair: RepairPolicy) -> ChurnSchedule {
        ChurnSchedule {
            join_rate: 0.004,
            crash_rate: 0.004,
            depart_rate: 0.001,
            repair,
            window_ticks: 400,
            query_budget: crate::churn_engine::QueryBudget::Fixed(40),
            min_live: 8,
        }
    }

    fn run(repair: RepairPolicy, seed: u64) -> Vec<ChurnWindowStats> {
        let schedule = small_schedule(repair);
        let mut des = des_for(&schedule, seed);
        let cfg = MachineChurnConfig {
            initial_peers: 32,
            build_walks: 3,
            probe_every: 100,
        };
        run_machine_churn(
            &mut des,
            &UniformKeys,
            &cfg,
            &schedule,
            3,
            SeedTree::new(seed),
        )
        .unwrap()
    }

    #[test]
    fn windows_carry_churn_and_query_books() {
        let windows = run(RepairPolicy::Reactive { neighbors_k: 2 }, 7);
        assert_eq!(windows.len(), 3);
        let joins: u64 = windows.iter().map(|w| w.joins).sum();
        let crashes: u64 = windows.iter().map(|w| w.crashes).sum();
        assert!(joins > 0, "0.004/tick over 1200 ticks must join someone");
        assert!(crashes > 0, "0.004/tick over 1200 ticks must crash someone");
        for w in &windows {
            assert_eq!(w.queries.queries, 40);
            assert!(w.live_at_end >= 8);
            assert!(
                w.queries.success_rate > 0.5,
                "window {}: reactive repair must keep the overlay navigable, got {}",
                w.window,
                w.queries.success_rate
            );
        }
    }

    #[test]
    fn reactive_detection_repairs_crash_damage() {
        let windows = run(RepairPolicy::Reactive { neighbors_k: 2 }, 11);
        let crashes: u64 = windows.iter().map(|w| w.crashes).sum();
        let repairs: u64 = windows.iter().map(|w| w.repairs).sum();
        assert!(crashes > 0);
        assert!(
            repairs > 0,
            "probe rounds must detect {crashes} crashes and fire repairs"
        );
        let cost: u64 = windows.iter().map(|w| w.repair_cost).sum();
        assert!(cost > 0, "detection and repair are real messages here");
    }

    #[test]
    fn sweeps_repair_without_detection() {
        let windows = run(RepairPolicy::SweepEvery(400), 13);
        let rewires: u64 = windows.iter().map(|w| w.rewires).sum();
        let repairs: u64 = windows.iter().map(|w| w.repairs).sum();
        assert!(rewires >= 2, "a sweep every window-length must fire");
        assert!(repairs > rewires, "each sweep rewires the whole fleet");
        for w in &windows {
            assert!(
                w.queries.success_rate > 0.5,
                "sweeps must keep the overlay navigable"
            );
        }
    }

    #[test]
    fn same_seed_same_windows() {
        let a = run(RepairPolicy::Reactive { neighbors_k: 2 }, 23);
        let b = run(RepairPolicy::Reactive { neighbors_k: 2 }, 23);
        assert_eq!(a, b, "machine churn must be bit-deterministic");
    }

    #[test]
    fn reactive_repair_is_cheaper_than_sweeping() {
        let reactive = run(RepairPolicy::Reactive { neighbors_k: 2 }, 31);
        let sweep = run(RepairPolicy::SweepEvery(400), 31);
        let rc: u64 = reactive.iter().map(|w| w.repair_cost).sum();
        let sc: u64 = sweep.iter().map(|w| w.repair_cost).sum();
        // At 32 peers the probe rounds are a sizeable fraction of a sweep,
        // so only strict ordering holds here; the order-of-magnitude gap
        // appears at scale (see the phase tests in `tests/`).
        assert!(
            rc < sc,
            "reactive maintenance ({rc} msgs) must undercut sweeps ({sc} msgs)"
        );
    }

    /// A DES whose fleet is never seen idle: every settle reports its
    /// whole budget spent, as a livelocked protocol would.
    struct Restless(DesDriver);

    impl ProtocolDriver for Restless {
        fn spawn_peer(&mut self, id: Id) {
            ProtocolDriver::spawn_peer(&mut self.0, id);
        }
        fn remove_peer(&mut self, id: Id) {
            ProtocolDriver::remove_peer(&mut self.0, id);
        }
        fn inject(&mut self, id: Id, cmd: Command) {
            ProtocolDriver::inject(&mut self.0, id, cmd);
        }
        fn settle(&mut self, max_rounds: u64) -> u64 {
            ProtocolDriver::settle(&mut self.0, max_rounds);
            max_rounds
        }
        fn advance_to(&mut self, round: u64) {
            ProtocolDriver::advance_to(&mut self.0, round);
        }
        fn round(&self) -> u64 {
            ProtocolDriver::round(&self.0)
        }
        fn peer_ids(&self) -> Vec<Id> {
            ProtocolDriver::peer_ids(&self.0)
        }
        fn drain_events(&mut self) -> Vec<ProtocolEvent> {
            ProtocolDriver::drain_events(&mut self.0)
        }
        fn sent(&self) -> u64 {
            ProtocolDriver::sent(&self.0)
        }
        fn fault_count(&self) -> u64 {
            ProtocolDriver::fault_count(&self.0)
        }
    }

    #[test]
    fn an_exhausted_settle_budget_ends_the_run_with_an_error() {
        let schedule = small_schedule(RepairPolicy::Reactive { neighbors_k: 2 });
        let mut restless = Restless(des_for(&schedule, 5));
        let err = run_machine_churn(
            &mut restless,
            &UniformKeys,
            &phase_cfg(),
            &schedule,
            1,
            SeedTree::new(5),
        )
        .expect_err("a fleet that never settles must not be measured");
        assert_eq!(
            err,
            Error::Livelock {
                during: "a bootstrap join",
                rounds: SETTLE_ROUNDS
            }
        );
    }

    fn measure_phase(windows: usize) -> MachinePhase {
        MachinePhase::Churn {
            schedule: ChurnSchedule {
                join_rate: 0.0,
                crash_rate: 0.0,
                depart_rate: 0.0,
                repair: RepairPolicy::Reactive { neighbors_k: 2 },
                window_ticks: 400,
                query_budget: QueryBudget::Fixed(40),
                min_live: 8,
            },
            workload: QueryWorkload::UniformPeers,
            windows,
        }
    }

    fn phase_cfg() -> MachineChurnConfig {
        MachineChurnConfig {
            initial_peers: 32,
            build_walks: 3,
            probe_every: 100,
        }
    }

    fn run_phases(phases: &[MachinePhase], seed: u64) -> Vec<Vec<ChurnWindowStats>> {
        let schedule = small_schedule(RepairPolicy::Reactive { neighbors_k: 2 });
        let mut des = des_for(&schedule, seed);
        run_machine_phases(
            &mut des,
            &UniformKeys,
            &phase_cfg(),
            phases,
            SeedTree::new(seed),
        )
        .unwrap()
    }

    #[test]
    fn phases_mass_join_grows_the_fleet() {
        let phases = vec![
            measure_phase(1),
            MachinePhase::MassJoin { count: 16 },
            measure_phase(1),
        ];
        let out = run_phases(&phases, 41);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].len(), 1);
        assert!(out[1].is_empty(), "a burst phase has no windows");
        assert_eq!(out[2][0].live_at_end, out[0][0].live_at_end + 16);
        assert!(
            out[2][0].queries.success_rate > 0.9,
            "a 50% flash crowd must not break delivery, got {}",
            out[2][0].queries.success_rate
        );
    }

    #[test]
    fn phases_kill_arc_damages_then_probes_recover() {
        let phases = vec![
            measure_phase(1),
            MachinePhase::KillArc {
                start: 0.25,
                fraction: 0.2,
            },
            // Two zero-rate spans: probes run between windows, so the
            // second span measures the healed overlay.
            measure_phase(4),
        ];
        let out = run_phases(&phases, 43);
        let pre = out[0][0].queries.success_rate;
        let post = out[2].last().unwrap().queries.success_rate;
        assert_eq!(out[2][0].live_at_end, 32 - 7); // ceil(32 * 0.2) = 7
        let repairs: u64 = out[2].iter().map(|w| w.repairs).sum();
        assert!(repairs > 0, "probe rounds must discover the arc kill");
        assert!(
            post >= pre - 0.05,
            "reactive probes must heal the outage: pre {pre}, post {post}"
        );
    }

    #[test]
    fn phases_are_deterministic_and_reject_bad_specs() {
        let phases = vec![
            measure_phase(1),
            MachinePhase::MassJoin { count: 8 },
            MachinePhase::KillArc {
                start: 0.9,
                fraction: 0.1,
            },
            measure_phase(2),
        ];
        let a = run_phases(&phases, 47);
        let b = run_phases(&phases, 47);
        assert_eq!(a, b, "multi-phase machine runs must be bit-deterministic");

        let schedule = small_schedule(RepairPolicy::Reactive { neighbors_k: 2 });
        let mut des = des_for(&schedule, 1);
        let bad = vec![MachinePhase::KillArc {
            start: 0.0,
            fraction: 1.5,
        }];
        assert!(
            run_machine_phases(&mut des, &UniformKeys, &phase_cfg(), &bad, SeedTree::new(1))
                .is_err()
        );
    }
}
