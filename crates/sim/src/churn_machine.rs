//! The machine world: the churn engine over a fleet of protocol machines.
//!
//! [`OracleWorld`](crate::churn_oracle::OracleWorld) churns the
//! oracle-backed [`Network`](crate::network::Network): repairs are
//! `builder.rewire` calls and failure detection is free (the world simply
//! knows who is dead). [`MachineWorld`] puts a fleet of
//! [`PeerMachine`](oscar_protocol::PeerMachine)s hosted by any
//! [`ProtocolDriver`] — the discrete-event simulator or the threaded
//! actor runtime — under the *same* engine, where death must be
//! *discovered* (ring probes, bounced sends, retry give-ups) and every
//! repair is real messages.
//!
//! The engine owns the Poisson clock and the window books; the machines
//! own detection and repair. Policy mapping
//! ([`machine_repair_policy`]):
//!
//! * `SweepEvery(t)` → machines run `oscar_protocol::RepairPolicy::Off`; the
//!   world
//!   injects [`Command::Rewire`] to every live peer every `t` ticks
//!   (the checkpoint protocol: O(n) per sweep, no detection needed).
//! * `Reactive { k }` → machines run `ReactiveK { k }`; the world
//!   injects [`Command::ProbeRing`] every `probe_every` ticks and the
//!   machines rewire where probes find corpses — O(damage) repair.
//! * `OnProbe` → machines run `OnProbe`; ring probes run at depth 1 and
//!   each measurement query that bounces off a corpse rewires its
//!   prober, so repair trails the traffic that discovered the damage.
//!
//! Window books ([`ChurnWindowStats`]): `repairs` counts
//! [`ProtocolEvent::RepairFired`] (sweeps count one per swept peer,
//! matching the oracle world); `repair_cost` is the driver's `sent()`
//! delta across sweep and probe settles — honest maintenance traffic,
//! including the failure-detection pings the oracle world gets for
//! free. Repairs fired *by* a measurement batch (the `OnProbe` path)
//! are booked to the next window, exactly like the oracle world's
//! delayed repair events — and past the end of a span they stay on the
//! world's books, so a following span's first window owns them. `OnProbe`
//! repair walks ride the measurement settle, so their traffic lands in
//! the query books rather than `repair_cost` — the sweep-vs-reactive
//! comparison is unaffected.
//!
//! What the machines do *not* do yet is build Oscar's links: a joiner (and
//! every rewire) acquires at most 5 links (one constant for every peer)
//! to Metropolis–Hastings samples of the whole ring, not partition-median
//! links under per-peer degree caps. The samples are not uniform either:
//! the walk's proposal is not symmetric, so it drifts about four ranks
//! clockwise per step (ROADMAP measurement 2, item 14). The same schedule
//! therefore routes at a higher cost here than on the oracle world.
//!
//! Determinism: every draw comes from a labelled child of the run seed
//! (scope `sim_churn_engine`), walks and queries carry token RNGs, and a
//! window's statistics do not depend on the order its query reports
//! drain in — so a DES run and a threaded-runtime run at the same seed
//! produce the same windows.

use crate::churn_engine::{
    resolve_arc, resolve_join_count, run_churn, ChurnSchedule, ChurnWindowStats, ChurnWorld,
    Maintenance, Measured, RepairPolicy, Shock, ShockReport, Span, VictimPick,
};
use crate::growth::fresh_id;
use crate::routing::QueryBatchStats;
use oscar_keydist::{KeyDistribution, QueryWorkload};
use oscar_protocol::{Command, ProtocolDriver, ProtocolEvent};
use oscar_types::labels::sim_churn_engine::LBL_BOOT;
use oscar_types::labels::sim_churn_shock::LBL_BURST;
use oscar_types::{Error, Id, Result, SeedTree};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Timer-round budget for one settle: far above any single membership
/// event's retry chains, so a hit means a protocol livelock, not churn
/// — [`settle`] reports it as [`Error::Livelock`].
const SETTLE_ROUNDS: u64 = 4096;

/// Shape of the machine fleet a churn run is driven against.
#[derive(Clone, Debug)]
pub struct MachineChurnConfig {
    /// Peers bootstrapped (serial joins) before the schedule starts.
    pub initial_peers: usize,
    /// Sampling walks per link build: joins, sweeps, and bootstrap all
    /// launch this many (a repair launches the machines' own constant, 3).
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
/// the world cannot reconfigure machines after spawn.
pub fn machine_repair_policy(repair: &RepairPolicy) -> oscar_protocol::RepairPolicy {
    match repair {
        RepairPolicy::SweepEvery(_) => oscar_protocol::RepairPolicy::Off,
        RepairPolicy::Reactive { neighbors_k } => {
            oscar_protocol::RepairPolicy::ReactiveK { k: *neighbors_k }
        }
        RepairPolicy::OnProbe => oscar_protocol::RepairPolicy::OnProbe,
    }
}

/// The machine world's events on the engine's clock, each re-armed
/// `every` ticks after it ran. There is no oracle `Repair` event —
/// machines fire their own.
#[derive(Copy, Clone, Debug)]
pub enum MachineUpkeep {
    /// Ring-probe round across the live fleet (reactive policies).
    Probe {
        /// The probe cadence.
        every: u64,
    },
    /// Whole-network rewire sweep (`SweepEvery`).
    Sweep {
        /// The sweep period.
        every: u64,
    },
}

/// A fleet of protocol machines on `driver`, as a [`ChurnWorld`].
pub struct MachineWorld<'a, D: ProtocolDriver> {
    driver: &'a mut D,
    keys: &'a dyn KeyDistribution,
    cfg: &'a MachineChurnConfig,
    /// Maintenance since the last measurement. Whatever a span's last
    /// measurement batch triggered stays here for the next span.
    books: Maintenance,
}

impl<'a, D: ProtocolDriver> MachineWorld<'a, D> {
    /// Bootstraps the fleet on `driver`, which must be empty so both
    /// drivers (and every run) grow identical overlays from the seed:
    /// `initial_peers` fresh ids, grown by [`grow_fleet`] in draw order.
    pub fn bootstrap(
        driver: &'a mut D,
        keys: &'a dyn KeyDistribution,
        cfg: &'a MachineChurnConfig,
        seed: &SeedTree,
    ) -> Result<Self> {
        cfg.validate()?;
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
            ids.push(fresh_id(keys, &mut boot, |id| !taken.insert(id))?);
        }
        grow_fleet(driver, &ids, cfg.build_walks)?;
        Ok(MachineWorld {
            driver,
            keys,
            cfg,
            books: Maintenance::default(),
        })
    }

    /// Drains the driver's events and books the repairs that fired.
    fn absorb_repairs(&mut self) {
        self.books.repairs += self
            .driver
            .drain_events()
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::RepairFired { .. }))
            .count() as u64;
    }
}

impl<D: ProtocolDriver> ChurnWorld for MachineWorld<'_, D> {
    type Upkeep = MachineUpkeep;

    fn live(&self) -> usize {
        self.driver.peer_ids().len()
    }

    fn begin(&mut self, span: &mut Span<'_, MachineUpkeep>) {
        match span.schedule.repair {
            RepairPolicy::SweepEvery(0) => {}
            RepairPolicy::SweepEvery(every) => span.after(every, MachineUpkeep::Sweep { every }),
            RepairPolicy::Reactive { .. } | RepairPolicy::OnProbe => {
                let every = self.cfg.probe_every;
                span.after(every, MachineUpkeep::Probe { every });
            }
        }
    }

    /// Samples a fresh identifier, joins through a uniformly random live
    /// contact and builds links once the splice settled.
    fn join(&mut self, rng: &mut SmallRng) -> Result<()> {
        let live = self.driver.peer_ids();
        let id = fresh_id(self.keys, rng, |id| live.binary_search(&id).is_ok())?;
        let contact = live[rng.gen_range(0..live.len())];
        self.driver.spawn_peer(id);
        self.driver.inject(id, Command::Join { contact });
        settle(self.driver, "a join")?;
        // Links only after the splice: a walk needs the joiner's ring
        // links to leave from.
        let walks = self.cfg.build_walks;
        self.driver.inject(id, Command::BuildLinks { walks });
        settle(self.driver, "a joiner's link build")?;
        self.absorb_repairs();
        Ok(())
    }

    /// Abrupt: no farewell, mail to the corpse bounces (or blackholes,
    /// per the fault plan). Survivors discover the hole at the next probe
    /// round or query.
    fn crash(&mut self, pick: &mut VictimPick, _: &mut Span<'_, MachineUpkeep>) -> Result<bool> {
        let live = self.driver.peer_ids();
        let Some(rank) = pick.rank(live.len()) else {
            return Ok(false);
        };
        self.driver.remove_peer(live[rank]);
        Ok(true)
    }

    fn depart(&mut self, pick: &mut VictimPick, _: &mut Span<'_, MachineUpkeep>) -> Result<bool> {
        let live = self.driver.peer_ids();
        let Some(rank) = pick.rank(live.len()) else {
            return Ok(false);
        };
        self.driver.inject(live[rank], Command::Depart);
        settle(self.driver, "a departure")?;
        self.driver.remove_peer(live[rank]);
        self.absorb_repairs();
        Ok(true)
    }

    fn upkeep(&mut self, event: MachineUpkeep, span: &mut Span<'_, MachineUpkeep>) -> Result<()> {
        match event {
            MachineUpkeep::Probe { every } => {
                let before = self.driver.sent();
                for id in self.driver.peer_ids() {
                    self.driver.inject(id, Command::ProbeRing);
                    settle(self.driver, "a ring probe")?;
                }
                self.books.repair_cost += self.driver.sent() - before;
                self.absorb_repairs();
                span.after(every, event);
            }
            MachineUpkeep::Sweep { every } => {
                let live = self.driver.peer_ids();
                let before = self.driver.sent();
                let walks = self.cfg.build_walks;
                for &id in &live {
                    self.driver.inject(id, Command::Rewire { walks });
                    settle(self.driver, "a sweep rewire")?;
                }
                self.books.rewires += 1;
                self.books.repairs += live.len() as u64;
                self.books.repair_cost += self.driver.sent() - before;
                self.driver.drain_events();
                span.after(every, event);
            }
        }
        Ok(())
    }

    fn measure(
        &mut self,
        workload: &QueryWorkload,
        rng: &mut SmallRng,
        span: &mut Span<'_, MachineUpkeep>,
    ) -> Result<Measured> {
        // Close the repair books before measuring: batch-triggered
        // repairs (OnProbe) belong to the next window, like the oracle
        // world's delayed repair events.
        self.absorb_repairs();
        let upkeep = std::mem::take(&mut self.books);
        let live = self.driver.peer_ids();
        let batch = span.schedule.query_budget.resolve(live.len());
        // The window index in the high half keeps qids unique within the span.
        let window = (span.window as u64) << 32;
        let issued = if live.is_empty() { 0 } else { batch };
        if issued > 0 {
            let targets = workload.sampler(live.len());
            for q in 0..issued {
                let src = live[rng.gen_range(0..live.len())];
                let key = live[targets.draw(rng)];
                let qid = window | q as u64;
                self.driver.inject(src, Command::StartQuery { qid, key });
            }
        }
        settle(self.driver, "a window's query batch")?;
        let mut outcomes = Vec::with_capacity(issued);
        for e in self.driver.drain_events() {
            match e {
                ProtocolEvent::QueryCompleted(r) => outcomes.push((r.success, r.hops, r.wasted)),
                ProtocolEvent::RepairFired { .. } => self.books.repairs += 1,
                _ => {}
            }
        }
        Ok(Measured {
            live: live.len(),
            upkeep,
            queries: QueryBatchStats::of(issued, outcomes),
        })
    }

    fn shock(&mut self, shock: &Shock, seed: &SeedTree) -> Result<ShockReport> {
        let mut report = ShockReport::default();
        match *shock {
            // Serial joins through random live contacts, links built
            // immediately.
            Shock::MassJoin { fraction } => {
                let count = resolve_join_count(self.live(), fraction)?;
                for i in 0..count {
                    self.join(&mut seed.child2(LBL_BURST, i as u64).rng())?;
                }
                report.joined = count as u64;
            }
            // Abrupt, like `crash`. Survivors must *discover* the hole —
            // probes and queries in later spans do, and the machines' own
            // `ReactiveK` reach decides who rewires.
            Shock::KillArc { start, fraction } => {
                let live = self.driver.peer_ids();
                let (first, count) = resolve_arc(live.len(), start, fraction)?;
                for i in 0..count {
                    self.driver.remove_peer(live[(first + i) % live.len()]);
                }
                report.killed = count as u64;
            }
            Shock::TargetedKill { .. } | Shock::Partition { .. } | Shock::Heal => {
                return Err(Error::InvalidConfig(format!(
                    "{shock:?} needs a global view of every peer's links, which only the \
                     oracle world (`OracleWorld`) has: machines learn of damage through \
                     their own probes and heal themselves"
                )));
            }
        }
        Ok(report)
    }
}

/// Grows a fleet on `driver` in `ids` order: spawns the first id, joins
/// every later one through it, builds each peer's links with `walks`
/// walks, and drains the build's events. An empty `ids` does nothing.
///
/// One settle per peer, as in [`MachineWorld`]'s probes and sweeps:
/// concurrent walks would read each other's half-built link tables in
/// whatever order the driver interleaves them. Serialized, every
/// link-mutating phase is a pure function of the trace, so both drivers
/// grow identical fleets.
pub fn grow_fleet(driver: &mut impl ProtocolDriver, ids: &[Id], walks: u32) -> Result<()> {
    let Some((&contact, joiners)) = ids.split_first() else {
        return Ok(());
    };
    driver.spawn_peer(contact);
    for &id in joiners {
        driver.spawn_peer(id);
        driver.inject(id, Command::Join { contact });
        settle(driver, "a bootstrap join")?;
    }
    for &id in ids {
        driver.inject(id, Command::BuildLinks { walks });
        settle(driver, "a bootstrap link build")?;
    }
    driver.drain_events();
    Ok(())
}

/// Settles `driver` after `during`; a settle that spent the whole
/// [`SETTLE_ROUNDS`] budget left the fleet busy, an [`Error::Livelock`].
fn settle(driver: &mut impl ProtocolDriver, during: &'static str) -> Result<()> {
    let rounds = driver.settle(SETTLE_ROUNDS);
    if rounds >= SETTLE_ROUNDS {
        return Err(Error::Livelock { during, rounds });
    }
    Ok(())
}

/// Runs `windows` measurement windows of continuous churn against the
/// machines hosted by `driver`, which must be empty: the engine
/// ([`run_churn`]) over a freshly bootstrapped [`MachineWorld`], measured
/// with uniform live-peer targets.
///
/// Joins sample fresh identifiers from `keys` and enter through a
/// uniformly random live contact. Identical inputs give identical
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
    let mut world = MachineWorld::bootstrap(driver, keys, cfg, &seed)?;
    run_churn(
        &mut world,
        schedule,
        &QueryWorkload::UniformPeers,
        windows,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_des::DesDriver;
    use oscar_keydist::UniformKeys;
    use oscar_protocol::{FaultPlan, PeerConfig, PeerMachine};

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

    #[test]
    fn grow_fleet_joins_and_links_every_peer_and_leaves_no_events() {
        let mut des = des_for(&quiet(), 3);
        grow_fleet(&mut des, &[], 3).unwrap();
        assert!(des.peer_ids().is_empty(), "no ids, no fleet");
        assert_eq!((des.round(), des.sent()), (0, 0), "no ids, no traffic");

        let ids = [Id::new(1 << 62), Id::new(3 << 62), Id::new(2 << 62)];
        grow_fleet(&mut des, &ids, 3).unwrap();
        assert_eq!(des.peer_ids(), [ids[0], ids[2], ids[1]]);
        for id in ids {
            assert_eq!(des.with_peer(id, PeerMachine::joined), Some(true));
        }
        assert!(des.drain_events().is_empty(), "the build drains its events");
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

    /// A zero-rate span: probes run between windows, nothing else moves.
    fn quiet() -> ChurnSchedule {
        ChurnSchedule {
            join_rate: 0.0,
            crash_rate: 0.0,
            depart_rate: 0.0,
            ..small_schedule(RepairPolicy::Reactive { neighbors_k: 2 })
        }
    }

    fn phase_cfg() -> MachineChurnConfig {
        MachineChurnConfig {
            initial_peers: 32,
            build_walks: 3,
            probe_every: 100,
        }
    }

    /// One step of a scripted run: a shock, or a quiet span of so many
    /// measured windows.
    enum Step {
        Shock(Shock),
        Quiet(usize),
    }
    use Step::Quiet;

    /// Bootstraps a 32-peer fleet, then applies `steps` in order; step `p`
    /// draws from the root's child `p`. Returns each quiet span's windows.
    fn play(steps: &[Step], seed: u64) -> Result<Vec<Vec<ChurnWindowStats>>> {
        let mut des = des_for(&quiet(), seed);
        let root = SeedTree::new(seed);
        let cfg = phase_cfg();
        let mut world = MachineWorld::bootstrap(&mut des, &UniformKeys, &cfg, &root)?;
        let uniform = QueryWorkload::UniformPeers;
        let mut spans = Vec::new();
        for (p, step) in steps.iter().enumerate() {
            let pseed = root.child2(77, p as u64);
            match step {
                Step::Shock(shock) => {
                    world.shock(shock, &pseed)?;
                }
                Quiet(windows) => {
                    spans.push(run_churn(&mut world, &quiet(), &uniform, *windows, pseed)?)
                }
            }
        }
        Ok(spans)
    }

    #[test]
    fn mass_join_grows_the_fleet() {
        let out = play(
            &[
                Quiet(1),
                Step::Shock(Shock::MassJoin { fraction: 0.5 }),
                Quiet(1),
            ],
            41,
        )
        .unwrap();
        assert_eq!(out[1][0].live_at_end, out[0][0].live_at_end + 16);
        assert!(
            out[1][0].queries.success_rate > 0.9,
            "a 50% flash crowd must not break delivery, got {}",
            out[1][0].queries.success_rate
        );
    }

    #[test]
    fn kill_arc_damages_then_probes_recover() {
        let outage = Shock::KillArc {
            start: 0.25,
            fraction: 0.2,
        };
        // Probes run between windows, so the later windows of the second
        // span measure the healed overlay.
        let out = play(&[Quiet(1), Step::Shock(outage), Quiet(4)], 43).unwrap();
        let pre = out[0][0].queries.success_rate;
        let post = out[1].last().unwrap().queries.success_rate;
        assert_eq!(out[1][0].live_at_end, 32 - 7); // ceil(32 * 0.2) = 7
        let repairs: u64 = out[1].iter().map(|w| w.repairs).sum();
        assert!(repairs > 0, "probe rounds must discover the arc kill");
        assert!(
            post >= pre - 0.05,
            "reactive probes must heal the outage: pre {pre}, post {post}"
        );
    }

    #[test]
    fn shocked_runs_are_deterministic_and_reject_what_machines_cannot_do() {
        let steps = [
            Quiet(1),
            Step::Shock(Shock::MassJoin { fraction: 0.25 }),
            Step::Shock(Shock::KillArc {
                start: 0.9,
                fraction: 0.1,
            }),
            Quiet(2),
        ];
        let a = play(&steps, 47).unwrap();
        let b = play(&steps, 47).unwrap();
        assert_eq!(a, b, "shocked machine runs must be bit-deterministic");

        let bad = Shock::KillArc {
            start: 0.0,
            fraction: 1.5,
        };
        assert!(play(&[Step::Shock(bad)], 1).is_err());
        for oracle_only in [
            Shock::TargetedKill { fraction: 0.1 },
            Shock::Partition {
                start: 0.0,
                fraction: 0.5,
            },
            Shock::Heal,
        ] {
            let Err(Error::InvalidConfig(why)) = play(&[Step::Shock(oracle_only)], 1) else {
                panic!("machines have no global view to apply this shock with");
            };
            assert!(why.contains("OracleWorld"), "{why}");
        }
    }

    #[test]
    fn repairs_a_spans_last_batch_fires_are_booked_to_the_next_span() {
        // Under OnProbe a measurement query that bounces off a corpse
        // rewires its prober. After an arc kill, the first quiet span's
        // only batch finds the corpses; with no later window in that span
        // to own those repairs, the next span's first window must.
        let schedule = ChurnSchedule {
            repair: RepairPolicy::OnProbe,
            ..quiet()
        };
        let mut des = des_for(&schedule, 53);
        let root = SeedTree::new(53);
        let cfg = MachineChurnConfig {
            probe_every: 10_000, // no probe round inside these spans
            ..phase_cfg()
        };
        let mut world = MachineWorld::bootstrap(&mut des, &UniformKeys, &cfg, &root).unwrap();
        let outage = Shock::KillArc {
            start: 0.5,
            fraction: 0.25,
        };
        world.shock(&outage, &root).unwrap();
        let uniform = QueryWorkload::UniformPeers;
        let first = run_churn(&mut world, &schedule, &uniform, 1, root.child(1)).unwrap();
        assert_eq!(first[0].repairs, 0, "the batch's repairs trail its books");
        assert!(
            first[0].queries.mean_wasted > 0.0,
            "the batch must meet corpses"
        );
        let carried = world.books.repairs;
        assert!(
            carried > 0,
            "bounced queries must have rewired their probers"
        );
        let second = run_churn(&mut world, &schedule, &uniform, 1, root.child(2)).unwrap();
        assert!(second[0].repairs >= carried);
    }
}
