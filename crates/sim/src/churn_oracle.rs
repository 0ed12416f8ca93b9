//! The oracle world: the churn engine over a snapshot [`Network`].
//!
//! [`OracleWorld`] drives [`Network::add_peer`] / [`Network::kill`] /
//! [`Network::depart`] and builds links through an [`OverlayBuilder`] —
//! exactly the growth protocol's joins, interleaved with failures
//! on the engine's clock. Failure detection is free here (the world simply
//! knows who is dead), so the schedule's [`RepairPolicy`] maps onto direct
//! `rewire` calls: whole-network sweeps, reactive neighbour rewires a tick
//! after a death, or rewires of the peers a measurement batch saw probing
//! a corpse.
//!
//! It also implements every [`Shock`]. The kill shocks compute their
//! **repair set** (the live ring neighbours whose neighbourhood the kill
//! changes, exactly the set the `Reactive` policy would rewire) *before*
//! removing anyone, because a dead peer's live-ring pointers are stale;
//! the world keeps those sets until the next [`Shock::Heal`], which
//! rewires them plus every live peer left holding a dangling long-range
//! link — repair work proportional to the damage, O(k) per victim plus
//! O(dangling), never a whole-network sweep.

use crate::churn_engine::{
    resolve_arc, resolve_join_count, resolve_kill_count, run_churn, ChurnSchedule,
    ChurnWindowStats, ChurnWorld, Maintenance, Measured, RepairPolicy, Shock, ShockReport, Span,
    VictimPick,
};
use crate::growth::{admit_peer, rewire_all_peers, OverlayBuilder};
use crate::network::Network;
use crate::peer::PeerIdx;
use crate::routing::{run_query_batch, run_query_batch_observed, RoutePolicy};
use oscar_degree::DegreeDistribution;
use oscar_keydist::{KeyDistribution, QueryWorkload};
use oscar_types::labels::sim_churn_engine::{LBL_REPAIR, LBL_REWIRE};
use oscar_types::labels::sim_churn_shock::{LBL_BURST, LBL_HEAL};
use oscar_types::{Error, Id, Result, SeedTree};
use rand::rngs::SmallRng;

/// Failure-detection latency of the reactive policies, in ticks: a repair
/// triggered by a crash/departure/corpse probe fires this much later on
/// the engine's clock, after any same-tick measurement (window timers are
/// pre-scheduled and win FIFO ties).
const REPAIR_DELAY: u64 = 1;

/// Reach of a kill shock's repair set: the surviving ring neighbours on
/// each side of the damage that the next [`Shock::Heal`] rewires (the
/// reach of the scenario suite's reactive-k2 repair).
const SHOCK_REPAIR_REACH: usize = 2;

/// The oracle world's events on the engine's clock.
#[derive(Copy, Clone, Debug)]
pub enum OracleUpkeep {
    /// Rewire every live peer, then again `every` ticks later.
    Rewire {
        /// The sweep period.
        every: u64,
    },
    /// Reactive repair of a single peer (a no-op if the target died in
    /// the meantime).
    Repair(PeerIdx),
}

/// A snapshot [`Network`] whose joiners link through `builder`, as a
/// [`ChurnWorld`].
pub struct OracleWorld<'a, B: OverlayBuilder + ?Sized> {
    net: &'a mut Network,
    builder: &'a B,
    keys: &'a dyn KeyDistribution,
    degrees: &'a dyn DegreeDistribution,
    /// Survivors bordering un-healed shock damage, consumed by the next
    /// [`Shock::Heal`]. May hold peers a later shock killed — the heal
    /// re-checks liveness.
    pending_repairs: Vec<PeerIdx>,
    /// Sweeps and single repairs fired in the current span, for per-
    /// activity seed derivation.
    rewires_total: u64,
    repairs_total: u64,
    books: Maintenance,
}

impl<'a, B: OverlayBuilder + ?Sized> OracleWorld<'a, B> {
    /// Wraps a running overlay: joiners sample identifiers from `keys` and
    /// degree caps from `degrees`, then build links through `builder`.
    pub fn new(
        net: &'a mut Network,
        builder: &'a B,
        keys: &'a dyn KeyDistribution,
        degrees: &'a dyn DegreeDistribution,
    ) -> Result<Self> {
        if net.live_count() < 2 {
            return Err(Error::InvalidConfig(format!(
                "continuous churn needs a running overlay (>= 2 live peers), got {}",
                net.live_count()
            )));
        }
        Ok(OracleWorld {
            net,
            builder,
            keys,
            degrees,
            pending_repairs: Vec::new(),
            rewires_total: 0,
            repairs_total: 0,
            books: Maintenance::default(),
        })
    }

    /// Crashes or gracefully retires the picked peer. Under `Reactive`,
    /// first schedules repairs for its k nearest live ring neighbours on
    /// each side — the peers whose ring neighbourhood the removal changes;
    /// the victim's live-ring position is what locates them.
    fn remove(
        &mut self,
        pick: &mut VictimPick,
        span: &mut Span<'_, OracleUpkeep>,
        graceful: bool,
    ) -> Result<bool> {
        let Some(rank) = pick.rank(self.net.live_count()) else {
            return Ok(false);
        };
        let victim = self.net.live_peer_by_rank(rank);
        if let RepairPolicy::Reactive { neighbors_k } = span.schedule.repair {
            for n in self.net.live_ring_neighborhood(victim, neighbors_k) {
                span.after(REPAIR_DELAY, OracleUpkeep::Repair(n));
            }
        }
        if graceful {
            self.net.depart(victim)?;
        } else {
            self.net.kill(victim)?;
        }
        Ok(true)
    }

    /// Peers of the live-ring arc `[start, start + fraction)`, in ring
    /// order.
    fn arc(&self, start: f64, fraction: f64) -> Result<Vec<PeerIdx>> {
        let n = self.net.live_count();
        let (first, count) = resolve_arc(n, start, fraction)?;
        Ok((0..count)
            .map(|i| self.net.live_peer_by_rank((first + i) % n))
            .collect())
    }

    /// Kills the arc: its repair set is the [`SHOCK_REPAIR_REACH`] nearest
    /// survivors on each side of the hole.
    fn kill_arc(&mut self, start: f64, fraction: f64) -> Result<u64> {
        let victims = self.arc(start, fraction)?;
        self.kill_bordered(&victims)
    }

    /// Kills the `fraction · live` peers of highest total long-link
    /// degree (in + out), ties broken by identifier.
    fn kill_top_degree(&mut self, fraction: f64) -> Result<u64> {
        let count = resolve_kill_count(self.net.live_count(), fraction)?;
        let mut ranked: Vec<(u32, Id, PeerIdx)> = self
            .net
            .live_peers()
            .map(|p| {
                let peer = self.net.peer(p);
                (peer.in_degree() + peer.out_degree(), peer.id, p)
            })
            .collect();
        // Highest degree first; identifier order is the deterministic
        // tiebreak (no RNG anywhere in this shock).
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let victims: Vec<PeerIdx> = ranked[..count].iter().map(|&(_, _, p)| p).collect();
        self.kill_bordered(&victims)
    }

    /// Kills `victims` in order. The repair set is the
    /// [`SHOCK_REPAIR_REACH`] live ring neighbours of each victim that are
    /// not victims themselves, found just before that victim dies
    /// (exactly when the `Reactive` policy would have scheduled them), so
    /// a contiguous run of victims is bordered by the nearest survivors
    /// on each side.
    fn kill_bordered(&mut self, victims: &[PeerIdx]) -> Result<u64> {
        let mut repair_set = Vec::new();
        for &v in victims {
            for p in self.net.live_ring_neighborhood(v, SHOCK_REPAIR_REACH) {
                if !victims.contains(&p) && !repair_set.contains(&p) {
                    repair_set.push(p);
                }
            }
            self.net.kill(v)?;
        }
        repair_set.sort_by_key(|p| p.as_usize());
        self.pending_repairs.extend(repair_set);
        Ok(victims.len() as u64)
    }

    /// Severs every long-range link crossing between the arc and the rest
    /// of the network, in both directions: the two sides stay internally
    /// wired but lose all shortcut connectivity across the cut (the ring
    /// itself is untouched, as ring edges model the underlying key order,
    /// not sockets). The cut links' sources join the pending repair set.
    fn sever_arc_links(&mut self, start: f64, fraction: f64) -> Result<u64> {
        let mut in_arc = vec![false; self.net.len()];
        for p in self.arc(start, fraction)? {
            in_arc[p.as_usize()] = true;
        }
        let live: Vec<PeerIdx> = self.net.live_peers().collect();
        let mut severed = 0u64;
        for p in live {
            let crossing: Vec<PeerIdx> = self
                .net
                .peer(p)
                .long_out
                .iter()
                .copied()
                .filter(|&t| self.net.is_alive(t) && in_arc[p.as_usize()] != in_arc[t.as_usize()])
                .collect();
            if crossing.is_empty() {
                continue;
            }
            for t in crossing {
                if self.net.unlink(p, t) {
                    severed += 1;
                }
            }
            // `live_peers` runs in peer-index order, so the set stays
            // sorted and duplicate-free.
            self.pending_repairs.push(p);
        }
        Ok(severed)
    }

    /// Rewires (tear down + rebuild long links) every still-alive peer in
    /// the pending repair set, plus every live peer left holding a
    /// dangling long-range link to a corpse — the peers that would
    /// discover the damage through probes and bounced traffic. Targets
    /// are visited in peer-index order with per-repair seed children, so
    /// the heal is a pure function of `(network, repair set, seed)`.
    fn heal(&mut self, seed: &SeedTree) -> Result<Maintenance> {
        let mut targets: Vec<PeerIdx> = std::mem::take(&mut self.pending_repairs);
        targets.retain(|&p| self.net.is_alive(p));
        for p in self.net.live_peers() {
            if self
                .net
                .peer(p)
                .long_out
                .iter()
                .any(|&t| !self.net.is_alive(t))
            {
                targets.push(p);
            }
        }
        targets.sort_by_key(|p| p.as_usize());
        targets.dedup();
        let before = self.net.metrics.total();
        for (i, &p) in targets.iter().enumerate() {
            let mut rng = seed.child2(LBL_HEAL, i as u64).rng();
            self.builder.rewire(self.net, p, &mut rng)?;
        }
        Ok(Maintenance {
            rewires: 0,
            repairs: targets.len() as u64,
            repair_cost: self.net.metrics.total() - before,
        })
    }
}

impl<B: OverlayBuilder + ?Sized> ChurnWorld for OracleWorld<'_, B> {
    type Upkeep = OracleUpkeep;

    fn live(&self) -> usize {
        self.net.live_count()
    }

    fn begin(&mut self, span: &mut Span<'_, OracleUpkeep>) {
        self.rewires_total = 0;
        self.repairs_total = 0;
        if let RepairPolicy::SweepEvery(every) = span.schedule.repair {
            if every > 0 {
                span.after(every, OracleUpkeep::Rewire { every });
            }
        }
    }

    fn join(&mut self, rng: &mut SmallRng) -> Result<()> {
        let p = admit_peer(self.net, self.keys, self.degrees, rng)?;
        self.builder.build_links(self.net, p, rng)
    }

    fn crash(&mut self, pick: &mut VictimPick, span: &mut Span<'_, OracleUpkeep>) -> Result<bool> {
        self.remove(pick, span, false)
    }

    fn depart(&mut self, pick: &mut VictimPick, span: &mut Span<'_, OracleUpkeep>) -> Result<bool> {
        self.remove(pick, span, true)
    }

    fn upkeep(&mut self, event: OracleUpkeep, span: &mut Span<'_, OracleUpkeep>) -> Result<()> {
        match event {
            OracleUpkeep::Rewire { every } => {
                let before = self.net.metrics.total();
                let swept = self.net.live_count() as u64;
                let seed = span.seed.child2(LBL_REWIRE, self.rewires_total);
                self.rewires_total += 1;
                rewire_all_peers(self.net, self.builder, seed)?;
                self.books.rewires += 1;
                self.books.repairs += swept;
                self.books.repair_cost += self.net.metrics.total() - before;
                span.after(every, OracleUpkeep::Rewire { every });
            }
            // The target may have crashed or departed between failure
            // detection and the repair firing; a corpse has no links to
            // rebuild.
            OracleUpkeep::Repair(p) if self.net.is_alive(p) => {
                let mut rng = span.seed.child2(LBL_REPAIR, self.repairs_total).rng();
                self.repairs_total += 1;
                let before = self.net.metrics.total();
                self.builder.rewire(self.net, p, &mut rng)?;
                self.books.repairs += 1;
                self.books.repair_cost += self.net.metrics.total() - before;
            }
            OracleUpkeep::Repair(_) => {}
        }
        Ok(())
    }

    fn measure(
        &mut self,
        workload: &QueryWorkload,
        rng: &mut SmallRng,
        span: &mut Span<'_, OracleUpkeep>,
    ) -> Result<Measured> {
        let upkeep = std::mem::take(&mut self.books);
        let live = self.net.live_count();
        let batch = span.schedule.query_budget.resolve(live);
        let policy = RoutePolicy::default();
        let queries = if matches!(span.schedule.repair, RepairPolicy::OnProbe) {
            // The measurement batch doubles as the failure detector:
            // every peer that probed a corpse schedules its own rewire,
            // which lands (after the books close) in the next window.
            let mut probers = Vec::new();
            let stats =
                run_query_batch_observed(self.net, workload, batch, &policy, rng, &mut probers);
            for p in probers {
                span.after(REPAIR_DELAY, OracleUpkeep::Repair(p));
            }
            stats
        } else {
            run_query_batch(self.net, workload, batch, &policy, rng)
        };
        Ok(Measured {
            live,
            upkeep,
            queries,
        })
    }

    fn shock(&mut self, shock: &Shock, seed: &SeedTree) -> Result<ShockReport> {
        let mut report = ShockReport::default();
        match *shock {
            // Each joiner runs the growth protocol's join with its
            // own seed-tree child, so the burst is deterministic and
            // independent of any interleaved measurement.
            Shock::MassJoin { fraction } => {
                let count = resolve_join_count(self.live(), fraction)?;
                for i in 0..count {
                    self.join(&mut seed.child2(LBL_BURST, i as u64).rng())?;
                }
                report.joined = count as u64;
            }
            Shock::KillArc { start, fraction } => report.killed = self.kill_arc(start, fraction)?,
            Shock::TargetedKill { fraction } => report.killed = self.kill_top_degree(fraction)?,
            Shock::Partition { start, fraction } => {
                report.severed = self.sever_arc_links(start, fraction)?;
            }
            Shock::Heal => report.upkeep = self.heal(seed)?,
        }
        Ok(report)
    }
}

/// Runs `windows` measurement windows of continuous churn on `net`: the
/// engine ([`run_churn`]) over an [`OracleWorld`], measured with uniform
/// live-peer targets.
///
/// Joins sample fresh identifiers from `keys` and caps from `degrees`,
/// then build links through `builder`. Determinism: all randomness derives
/// from `seed`.
pub fn run_continuous_churn<B: OverlayBuilder + ?Sized>(
    net: &mut Network,
    builder: &B,
    keys: &dyn KeyDistribution,
    degrees: &dyn DegreeDistribution,
    schedule: &ChurnSchedule,
    windows: usize,
    seed: SeedTree,
) -> Result<Vec<ChurnWindowStats>> {
    schedule.validate()?;
    let mut world = OracleWorld::new(net, builder, keys, degrees)?;
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
    use crate::churn::FaultModel;
    use crate::churn_engine::QueryBudget;
    use crate::peer::LinkError;
    use oscar_degree::{ConstantDegrees, DegreeCaps};
    use oscar_keydist::UniformKeys;

    /// Toy builder: links to up to 4 random live peers.
    struct RandomBuilder;

    impl OverlayBuilder for RandomBuilder {
        fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
            for _ in 0..16 {
                if net.peer(p).out_degree() >= 4 {
                    break;
                }
                if let Some(t) = net.random_live_peer(rng) {
                    match net.try_link(p, t) {
                        Ok(())
                        | Err(LinkError::SelfLink)
                        | Err(LinkError::Duplicate)
                        | Err(LinkError::TargetFull) => {}
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
            }
            Ok(())
        }
    }

    fn grown(n: usize, seed: u64) -> Network {
        use crate::growth::GrowthConfig;
        let mut net = Network::new(FaultModel::StabilizedRing);
        GrowthConfig {
            target_size: n,
            checkpoints: vec![],
        }
        .run(
            &mut net,
            &RandomBuilder,
            &UniformKeys,
            &ConstantDegrees::new(8),
            SeedTree::new(seed),
            |_, _| Ok(()),
        )
        .unwrap();
        net
    }

    fn run(
        net: &mut Network,
        schedule: &ChurnSchedule,
        windows: usize,
        seed: u64,
    ) -> Vec<ChurnWindowStats> {
        run_continuous_churn(
            net,
            &RandomBuilder,
            &UniformKeys,
            &ConstantDegrees::new(8),
            schedule,
            windows,
            SeedTree::new(seed),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_under_seed() {
        let schedule = ChurnSchedule::symmetric(0.08);
        let mut a = grown(150, 2);
        let mut b = grown(150, 2);
        let wa = run(&mut a, &schedule, 3, 7);
        let wb = run(&mut b, &schedule, 3, 7);
        assert_eq!(wa, wb, "same seed, same windows");
        let mut c = grown(150, 2);
        let wc = run(&mut c, &schedule, 3, 8);
        assert_ne!(wa, wc, "different engine seed diverges");
    }

    #[test]
    fn symmetric_rates_hold_the_population() {
        let mut net = grown(200, 3);
        let ws = run(&mut net, &ChurnSchedule::symmetric(0.1), 6, 11);
        for w in &ws {
            assert!(
                (100..=300).contains(&w.live_at_end),
                "population drifted to {} in window {}",
                w.live_at_end,
                w.window
            );
            assert!(w.joins > 0 && w.crashes > 0, "both processes must fire");
        }
    }

    #[test]
    fn join_only_grows_and_crash_only_shrinks_to_the_floor() {
        let mut net = grown(100, 4);
        let join_only = ChurnSchedule {
            crash_rate: 0.0,
            ..ChurnSchedule::symmetric(0.1)
        };
        let ws = run(&mut net, &join_only, 3, 13);
        assert!(
            ws.last().unwrap().live_at_end > 200,
            "joins should compound"
        );
        assert!(ws.iter().all(|w| w.crashes == 0 && w.departs == 0));

        let mut net = grown(100, 5);
        let crash_only = ChurnSchedule {
            join_rate: 0.0,
            min_live: 40,
            ..ChurnSchedule::symmetric(0.2)
        };
        let ws = run(&mut net, &crash_only, 4, 13);
        let last = ws.last().unwrap();
        assert_eq!(last.live_at_end, 40, "floor must hold exactly");
        assert!(last.suppressed > 0, "floor suppressions must be counted");
    }

    #[test]
    fn departures_leave_no_dangling_links() {
        let mut net = grown(150, 6);
        let depart_only = ChurnSchedule {
            join_rate: 0.0,
            crash_rate: 0.0,
            depart_rate: 0.15,
            repair: RepairPolicy::SweepEvery(0),
            ..ChurnSchedule::symmetric(0.0)
        };
        let ws = run(&mut net, &depart_only, 3, 17);
        assert!(ws.iter().map(|w| w.departs).sum::<u64>() > 0);
        // Graceful departures tear links down cleanly: every remaining
        // out-link targets a live peer, so queries waste nothing.
        for p in net.live_peers().collect::<Vec<_>>() {
            for &t in &net.peer(p).long_out {
                assert!(net.is_alive(t), "departure left a dangling link");
            }
        }
        assert_eq!(ws.last().unwrap().queries.mean_wasted, 0.0);
    }

    #[test]
    fn rewire_sweeps_fire_on_schedule() {
        let mut net = grown(100, 7);
        let schedule = ChurnSchedule {
            repair: RepairPolicy::SweepEvery(250),
            window_ticks: 1000,
            ..ChurnSchedule::symmetric(0.02)
        };
        let ws = run(&mut net, &schedule, 2, 19);
        // Sweeps land at ticks 250, 500, 750, 1000, … — but at a window
        // boundary the measurement wins the FIFO tie (it was scheduled a
        // whole window earlier), so the boundary sweep is counted in the
        // *next* window: 3 sweeps in window 0, then 4 per window.
        assert_eq!(ws[0].rewires, 3);
        assert_eq!(ws[1].rewires, 4);
    }

    #[test]
    fn measurements_precede_sweeps_even_when_the_sweep_period_spans_windows() {
        // Regression: with `rewire_every > window_ticks` the first sweep
        // used to be enqueued (at init, t=0) with a lower FIFO sequence
        // than the coinciding window timer (enqueued one window later),
        // so the tick-200 measurement saw a freshly-swept network.
        // Pre-scheduling every window timer makes the measurement win all
        // same-tick ties: sweeps at 200, 400, 600 land *after* the books
        // close, i.e. in windows 2, 4, 6.
        let mut net = grown(100, 10);
        let schedule = ChurnSchedule {
            repair: RepairPolicy::SweepEvery(200),
            window_ticks: 100,
            query_budget: QueryBudget::Fixed(30),
            ..ChurnSchedule::symmetric(0.02)
        };
        let ws = run(&mut net, &schedule, 7, 23);
        let rewires: Vec<u64> = ws.iter().map(|w| w.rewires).collect();
        assert_eq!(rewires, vec![0, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn sublinear_budgets_drive_real_windows() {
        let mut net = grown(150, 77);
        let schedule = ChurnSchedule {
            query_budget: QueryBudget::SqrtLive { min: 8 },
            ..ChurnSchedule::symmetric(0.02)
        };
        let ws = run(&mut net, &schedule, 3, 78);
        for w in &ws {
            let expect = schedule.query_budget.resolve(w.live_at_end);
            assert_eq!(w.queries.queries, expect, "window {}", w.window);
            assert!(w.queries.queries < 150, "sublinear at this scale");
        }
    }

    #[test]
    fn an_invalid_schedule_or_an_empty_network_is_a_config_error() {
        let mut net = grown(50, 8);
        let bad = ChurnSchedule {
            repair: RepairPolicy::Reactive { neighbors_k: 0 },
            ..ChurnSchedule::symmetric(0.1)
        };
        let before = net.live_count();
        assert!(matches!(
            run_continuous_churn(
                &mut net,
                &RandomBuilder,
                &UniformKeys,
                &ConstantDegrees::new(8),
                &bad,
                2,
                SeedTree::new(1),
            ),
            Err(Error::InvalidConfig(_))
        ));
        assert_eq!(net.live_count(), before);
        // An empty network is not a runnable overlay either.
        let mut empty = Network::new(FaultModel::StabilizedRing);
        assert!(matches!(
            run_continuous_churn(
                &mut empty,
                &RandomBuilder,
                &UniformKeys,
                &ConstantDegrees::new(8),
                &ChurnSchedule::symmetric(0.1),
                1,
                SeedTree::new(1),
            ),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn sweeps_record_per_peer_repairs_and_cost() {
        let mut net = grown(100, 30);
        let schedule = ChurnSchedule {
            repair: RepairPolicy::SweepEvery(1000),
            ..ChurnSchedule::symmetric(0.02)
        };
        let ws = run(&mut net, &schedule, 2, 31);
        // Sweep at tick 1000 lands in window 1 (the boundary measurement
        // wins the FIFO tie); it rewires every peer live at sweep time —
        // the whole population, give or take the churn since the window
        // opened.
        assert_eq!(ws[0].repairs, 0);
        assert_eq!(ws[0].repair_cost, 0);
        assert_eq!(ws[1].rewires, 1);
        assert!(
            ws[1].repairs > ws[1].live_at_end as u64 / 2,
            "a sweep rewires the whole population: {} repairs, {} live",
            ws[1].repairs,
            ws[1].live_at_end
        );
        assert!(ws[1].repair_cost > 0, "a sweep generates link traffic");
    }

    #[test]
    fn reactive_repairs_follow_membership_events() {
        let mut net = grown(150, 32);
        let schedule = ChurnSchedule {
            repair: RepairPolicy::Reactive { neighbors_k: 2 },
            ..ChurnSchedule::symmetric(0.05)
        };
        let ws = run(&mut net, &schedule, 3, 33);
        let events: u64 = ws.iter().map(|w| w.crashes + w.departs).sum();
        let repairs: u64 = ws.iter().map(|w| w.repairs).sum();
        assert!(events > 0, "schedule must generate membership events");
        assert!(repairs > 0, "reactive repairs must fire");
        // At most 2k repairs per event (fewer when a scheduled target
        // itself died before its repair fired); never a whole sweep.
        assert!(
            repairs <= 4 * events,
            "repairs {repairs} exceed 2k per membership event ({events} events)"
        );
        assert!(
            ws.iter().all(|w| w.rewires == 0),
            "no sweeps under Reactive"
        );
        assert!(ws.iter().map(|w| w.repair_cost).sum::<u64>() > 0);
    }

    #[test]
    fn reactive_repair_is_cheaper_than_sweeping() {
        // 2%/window turnover on 200 peers (the regime the policy is
        // for): a sweep rewires all ~200 peers per window while reactive
        // rewires ~4 per membership event. At extreme turnover (a large
        // fraction of the population per window) the two converge.
        let schedule_with = |repair: RepairPolicy| ChurnSchedule {
            repair,
            ..ChurnSchedule::symmetric(0.004)
        };
        let mut a = grown(200, 34);
        let sweep = run(
            &mut a,
            &schedule_with(RepairPolicy::SweepEvery(1000)),
            4,
            35,
        );
        let mut b = grown(200, 34);
        let reactive = run(
            &mut b,
            &schedule_with(RepairPolicy::Reactive { neighbors_k: 2 }),
            4,
            35,
        );
        let total = |ws: &[ChurnWindowStats]| ws.iter().map(|w| w.repair_cost).sum::<u64>();
        assert!(
            total(&reactive) * 4 < total(&sweep),
            "reactive repair should cost a small fraction of sweeping: {} vs {}",
            total(&reactive),
            total(&sweep)
        );
    }

    #[test]
    fn on_probe_repairs_trail_corpse_probes() {
        // Crashes with no sweeps leave dangling links; the window-end
        // query batches probe them, so under OnProbe the probing peers
        // rewire themselves early in the *next* window.
        let mut net = grown(150, 36);
        let schedule = ChurnSchedule {
            join_rate: 0.0,
            crash_rate: 0.08,
            repair: RepairPolicy::OnProbe,
            min_live: 40,
            ..ChurnSchedule::symmetric(0.0)
        };
        let ws = run(&mut net, &schedule, 4, 37);
        assert_eq!(
            ws[0].repairs, 0,
            "no probes happened before window 0 closed"
        );
        let later: u64 = ws[1..].iter().map(|w| w.repairs).sum();
        assert!(later > 0, "corpse probes must trigger repairs: {ws:?}");
        assert!(ws.iter().all(|w| w.rewires == 0), "no sweeps under OnProbe");
    }

    #[test]
    fn every_policy_is_deterministic_under_seed() {
        for repair in [
            RepairPolicy::SweepEvery(700),
            RepairPolicy::Reactive { neighbors_k: 2 },
            RepairPolicy::OnProbe,
        ] {
            let schedule = ChurnSchedule {
                repair: repair.clone(),
                ..ChurnSchedule::symmetric(0.08)
            };
            let mut a = grown(150, 40);
            let mut b = grown(150, 40);
            assert_eq!(
                run(&mut a, &schedule, 3, 41),
                run(&mut b, &schedule, 3, 41),
                "{repair:?} must be a pure function of the seed"
            );
        }
    }

    /// Degree caps of the toy overlays' joiners.
    static EIGHT: std::sync::LazyLock<ConstantDegrees> =
        std::sync::LazyLock::new(|| ConstantDegrees::new(8));

    fn oracle(net: &mut Network) -> OracleWorld<'_, RandomBuilder> {
        OracleWorld::new(net, &RandomBuilder, &UniformKeys, &*EIGHT).unwrap()
    }

    fn arc(start: f64, fraction: f64) -> Shock {
        Shock::KillArc { start, fraction }
    }

    fn holders_of_dangling_links(net: &Network) -> usize {
        net.live_peers()
            .filter(|&p| net.peer(p).long_out.iter().any(|&t| !net.is_alive(t)))
            .count()
    }

    #[test]
    fn arc_kill_removes_contiguous_ring_range() {
        let mut net = grown(100, 1);
        let ring_before: Vec<PeerIdx> = (0..100).map(|r| net.live_peer_by_rank(r)).collect();
        let mut world = oracle(&mut net);
        let report = world.shock(&arc(0.25, 0.10), &SeedTree::new(0)).unwrap();
        assert_eq!(report.killed, 10);
        assert_eq!(world.live(), 90);
        // The repair set borders the hole and survived it.
        let repair_set = world.pending_repairs.clone();
        assert!(!repair_set.is_empty());
        for &p in &repair_set {
            assert!(net.is_alive(p));
        }
        for (rank, &p) in ring_before.iter().enumerate() {
            assert_eq!(net.is_alive(p), !(25..35).contains(&rank), "rank {rank}");
        }
    }

    #[test]
    fn arc_kill_repairs_two_survivors_on_each_side() {
        let mut net = Network::new(FaultModel::StabilizedRing);
        for i in 0..100 {
            net.add_peer(Id::new(i * (u64::MAX / 100)), DegreeCaps::symmetric(8))
                .unwrap();
        }
        let rank = |r: usize| net.live_peer_by_rank(r);
        let bordering: Vec<PeerIdx> = [23, 24, 35, 36].into_iter().map(rank).collect();
        let mut world = oracle(&mut net);
        world.shock(&arc(0.25, 0.10), &SeedTree::new(0)).unwrap();
        assert_eq!(world.pending_repairs, bordering);
    }

    #[test]
    fn arc_kill_is_deterministic_and_rejects_degenerate_specs() {
        let mut a = grown(80, 2);
        let mut b = grown(80, 2);
        let (mut wa, mut wb) = (oracle(&mut a), oracle(&mut b));
        wa.shock(&arc(0.5, 0.2), &SeedTree::new(0)).unwrap();
        wb.shock(&arc(0.5, 0.2), &SeedTree::new(0)).unwrap();
        assert_eq!(wa.pending_repairs, wb.pending_repairs);
        let live = |net: &Network| net.live_peers().collect::<Vec<_>>();
        assert_eq!(live(&a), live(&b));

        let mut net = grown(50, 3);
        let mut world = oracle(&mut net);
        for fraction in [0.0, 1.0, f64::NAN] {
            assert!(world.shock(&arc(0.0, fraction), &SeedTree::new(0)).is_err());
        }
        // A huge fraction clamps to leave 2 survivors rather than erroring.
        let report = world.shock(&arc(0.0, 0.99), &SeedTree::new(0)).unwrap();
        assert_eq!(world.live(), 50 - report.killed as usize);
        assert!(world.live() >= 2);
    }

    #[test]
    fn targeted_kill_takes_highest_degree_first() {
        let mut net = grown(100, 4);
        let degree = |net: &Network, p: PeerIdx| net.peer(p).in_degree() + net.peer(p).out_degree();
        let mut by_degree: Vec<(u32, PeerIdx)> =
            net.live_peers().map(|p| (degree(&net, p), p)).collect();
        by_degree.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
        let fifth_highest = by_degree[4].0;
        let attack = Shock::TargetedKill { fraction: 0.05 };
        let report = oracle(&mut net).shock(&attack, &SeedTree::new(0)).unwrap();
        assert_eq!(report.killed, 5);
        assert_eq!(net.live_count(), 95);
        // Every victim had at least the fifth-highest degree, and every
        // peer that had more than that is a victim.
        for &(d, p) in &by_degree {
            if !net.is_alive(p) {
                assert!(d >= fifth_highest);
            } else {
                assert!(d <= fifth_highest);
            }
        }
    }

    #[test]
    fn mass_join_admits_its_fraction_of_the_live_population() {
        let mut net = grown(60, 5);
        let before = net.len();
        let burst = Shock::MassJoin { fraction: 0.5 };
        let report = oracle(&mut net).shock(&burst, &SeedTree::new(77)).unwrap();
        assert_eq!(report.joined, 30);
        assert_eq!(net.live_count(), 90);
        let linked = net
            .all_peers()
            .skip(before)
            .filter(|&p| net.peer(p).out_degree() > 0)
            .count();
        assert!(linked >= 29, "{linked}/30 joiners got links");
        // Rounded up, never empty; a degenerate fraction is an error.
        let tiny = Shock::MassJoin { fraction: 1e-6 };
        let report = oracle(&mut net).shock(&tiny, &SeedTree::new(78)).unwrap();
        assert_eq!(report.joined, 1);
        for fraction in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let bad = Shock::MassJoin { fraction };
            assert!(oracle(&mut net).shock(&bad, &SeedTree::new(0)).is_err());
        }
    }

    #[test]
    fn partition_severs_only_crossing_links() {
        let mut net = grown(100, 6);
        let links =
            |net: &Network| -> usize { net.live_peers().map(|p| net.peer(p).long_out.len()).sum() };
        let before = links(&net);
        let cut = Shock::Partition {
            start: 0.0,
            fraction: 0.3,
        };
        let report = oracle(&mut net).shock(&cut, &SeedTree::new(0)).unwrap();
        assert!(report.severed > 0, "a 30% arc must cut some links");
        assert_eq!((before - links(&net)) as u64, report.severed);
        assert_eq!(net.live_count(), 100, "partition kills nobody");
        // Adjacency stays symmetric after the cut.
        for p in net.live_peers() {
            for &t in &net.peer(p).long_out {
                assert!(net.peer(t).long_in.contains(&p));
            }
        }
    }

    #[test]
    fn heal_repairs_dangling_links_and_the_pending_repair_set() {
        let mut net = grown(100, 7);
        oracle(&mut net)
            .shock(&arc(0.1, 0.15), &SeedTree::new(0))
            .unwrap();
        let dangling_before = holders_of_dangling_links(&net);
        assert!(dangling_before > 0, "an arc kill must leave dangling links");
        // A fresh world has no pending set: the heal still finds everyone
        // holding a link to a corpse.
        let report = oracle(&mut net)
            .shock(&Shock::Heal, &SeedTree::new(9))
            .unwrap();
        assert!(report.upkeep.repairs >= dangling_before as u64);
        assert!(
            report.upkeep.repair_cost > 0,
            "rewires are counted maintenance traffic"
        );
        assert_eq!(
            holders_of_dangling_links(&net),
            0,
            "heal must clear every dangling link"
        );

        // With the pending set: the ring neighbours of the hole are
        // rewired too, once, and the set is consumed.
        let mut net = grown(100, 7);
        let mut world = oracle(&mut net);
        world.shock(&arc(0.1, 0.15), &SeedTree::new(0)).unwrap();
        let pending = world.pending_repairs.len() as u64;
        assert!(pending > 0);
        let healed = world.shock(&Shock::Heal, &SeedTree::new(9)).unwrap();
        assert!(healed.upkeep.repairs >= report.upkeep.repairs);
        assert!(healed.upkeep.repairs <= report.upkeep.repairs + pending);
        assert!(world.pending_repairs.is_empty());
        let again = world.shock(&Shock::Heal, &SeedTree::new(9)).unwrap();
        assert_eq!(again.upkeep.repairs, 0, "nothing left to heal");
    }

    #[test]
    fn shocks_fuzz_preserve_adjacency_invariants() {
        use rand::Rng;
        let mut rng = SeedTree::new(11).rng();
        for round in 0..5u64 {
            let mut net = grown(60, 100 + round);
            let start: f64 = rng.gen();
            let mut world = oracle(&mut net);
            let seed = SeedTree::new(round);
            world.shock(&arc(start, 0.1), &seed).unwrap();
            let cut = Shock::Partition {
                start: start + 0.3,
                fraction: 0.2,
            };
            world.shock(&cut, &seed).unwrap();
            let attack = Shock::TargetedKill { fraction: 0.05 };
            world.shock(&attack, &seed).unwrap();
            world.shock(&Shock::Heal, &seed).unwrap();
            net.check_invariants().unwrap();
        }
    }
}
