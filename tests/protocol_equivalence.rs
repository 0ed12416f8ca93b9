//! Cross-driver equivalence: the discrete-event simulator and the
//! threaded actor runtime must build the *same overlay* from the same
//! seed and command trace.
//!
//! This is the load-bearing test for the protocol-core refactor: all
//! randomness that decides protocol outcomes is carried in tokens
//! seeded from (peer seed, walk id), so link tables and routing results
//! are a function of the command trace alone — not of scheduling, not
//! of which driver delivers the envelopes. Gossip views are the one
//! deliberately scheduling-dependent piece of state and are excluded
//! from the fingerprint.

use oscar::protocol::{
    Command, FaultPlan, OpKind, PeerConfig, ProtocolDriver, ProtocolEvent, QueryReport,
};
use oscar::runtime::{Runtime, RuntimeConfig};
use oscar::sim::DesDriver;
use oscar::types::Id;
use std::collections::BTreeMap;

const SEED: u64 = 0xE0_1234;

/// The shared trace: peer ids (join order), then per-peer link walks,
/// then a deterministic query set.
fn peer_ids(n: u64) -> Vec<Id> {
    // Scrambled insertion order exercises non-trivial splices.
    (0..n)
        .map(|i| Id::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
        .collect()
}

fn query_trace(ids: &[Id]) -> Vec<(Id, u64, Id)> {
    ids.iter()
        .enumerate()
        .flat_map(|(k, &origin)| {
            (0..3u64).map(move |j| {
                let qid = (k as u64) * 3 + j;
                (
                    origin,
                    qid,
                    Id::new(qid.wrapping_mul(0xD1B5_4A32_D192_ED03)),
                )
            })
        })
        .collect()
}

/// Per-peer link-table fingerprints: id -> (pred, succs, long_out, long_in).
type LinkTables = BTreeMap<Id, (Id, Vec<Id>, Vec<Id>, Vec<Id>)>;

fn run_des(ids: &[Id]) -> (LinkTables, Vec<QueryReport>) {
    let mut des = DesDriver::new(SEED, PeerConfig::default());
    des.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        assert!(des.join_and_wait(id, ids[0]), "DES join {id:?}");
    }
    for &id in ids {
        des.inject(id, Command::BuildLinks { walks: 3 });
        des.run_until_idle();
    }
    des.drain_events();
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        des.inject(origin, Command::StartQuery { qid, key });
        des.run_until_idle();
        for e in des.drain_events() {
            if let ProtocolEvent::QueryCompleted(r) = e {
                reports.push(r);
            }
        }
    }
    let tables = ids
        .iter()
        .map(|&id| (id, des.peer(id).unwrap().fingerprint()))
        .collect();
    reports.sort_by_key(|r| r.qid);
    (tables, reports)
}

fn run_actor(ids: &[Id], workers: usize) -> (LinkTables, Vec<QueryReport>) {
    let mut rt = Runtime::new(RuntimeConfig::new(SEED).with_workers(workers));
    rt.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        assert!(rt.join_and_wait(id, ids[0]), "runtime join {id:?}");
    }
    for &id in ids {
        rt.inject(id, Command::BuildLinks { walks: 3 });
        rt.quiesce();
    }
    rt.drain_events();
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        rt.inject(origin, Command::StartQuery { qid, key });
        rt.quiesce();
        for e in rt.drain_events() {
            if let ProtocolEvent::QueryCompleted(r) = e {
                reports.push(r);
            }
        }
    }
    let tables = ids
        .iter()
        .map(|&id| (id, rt.with_peer(id, |m| m.fingerprint()).unwrap()))
        .collect();
    reports.sort_by_key(|r| r.qid);
    rt.shutdown();
    (tables, reports)
}

#[test]
fn des_and_actor_runtime_build_identical_overlays() {
    let ids = peer_ids(48);
    let (des_tables, des_reports) = run_des(&ids);
    let (rt_tables, rt_reports) = run_actor(&ids, 4);

    assert_eq!(des_tables.len(), rt_tables.len());
    for (id, des_fp) in &des_tables {
        let rt_fp = &rt_tables[id];
        assert_eq!(des_fp, rt_fp, "link tables diverge at {id:?}");
    }

    assert_eq!(des_reports.len(), rt_reports.len(), "query report counts");
    for (d, r) in des_reports.iter().zip(&rt_reports) {
        assert_eq!(d.qid, r.qid);
        assert_eq!(d.origin, r.origin);
        assert_eq!(d.key, r.key);
        assert_eq!(d.success, r.success, "qid {} success", d.qid);
        assert_eq!(d.dest, r.dest, "qid {} destination", d.qid);
        assert_eq!(d.hops, r.hops, "qid {} hops", d.qid);
        assert_eq!(d.wasted, r.wasted, "qid {} wasted", d.qid);
        assert_eq!(d.backtracks, r.backtracks, "qid {} backtracks", d.qid);
    }
}

// --- equivalence under faults ----------------------------------------------

/// The shared fault plan: lossy, duplicating, jittery, with silent
/// blackholes on crash. Content-keyed decisions make the same message
/// meet the same fate in both drivers.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(0xBAD_F00D)
        .with_drop(0.05)
        .with_duplication(0.02)
        .with_delay_jitter(2)
        .with_blackhole(true)
}

/// The pre-seeded ring trace used for the faulted runs: joins are
/// covered reliably above; under loss the interesting equivalence is in
/// walks, link handshakes, and query retries.
fn bootstrap_trace(ids: &[Id]) -> Vec<(Id, Command)> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    sorted
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let succs: Vec<Id> = (1..=3).map(|j| sorted[(k + j) % n]).collect();
            (
                id,
                Command::Bootstrap {
                    pred: sorted[(k + n - 1) % n],
                    succs: succs.clone(),
                    known: succs,
                },
            )
        })
        .collect()
}

/// What a faulted run leaves behind. `timer_rounds` is the driver's
/// `next_timer_round()` at every quiescent point of every settle, in
/// order: the drivers must agree not only on where the trace ends up but
/// on which deadline is next each time the network falls silent.
struct FaultedRun {
    tables: LinkTables,
    reports: Vec<QueryReport>,
    retried: u64,
    timer_rounds: Vec<Option<u64>>,
}

/// `DesDriver::run_until_settled`, noting the next timer round at every
/// quiescent point on the way.
fn settle_des(des: &mut DesDriver, max_rounds: u64, timer_rounds: &mut Vec<Option<u64>>) {
    des.run_until_idle();
    timer_rounds.push(des.next_timer_round());
    for _ in 0..max_rounds {
        if !des.tick_timers() {
            break;
        }
        des.run_until_idle();
        timer_rounds.push(des.next_timer_round());
    }
}

/// `Runtime::settle`, noting the same.
fn settle_actor(rt: &Runtime, max_rounds: u64, timer_rounds: &mut Vec<Option<u64>>) {
    rt.quiesce();
    timer_rounds.push(rt.next_timer_round());
    for _ in 0..max_rounds {
        if !rt.tick_timers() {
            break;
        }
        rt.quiesce();
        timer_rounds.push(rt.next_timer_round());
    }
}

fn run_des_faulted(ids: &[Id]) -> FaultedRun {
    let mut des = DesDriver::new_with_faults(SEED, PeerConfig::default(), fault_plan());
    let mut timer_rounds = Vec::new();
    for &id in ids {
        des.spawn_peer(id);
    }
    for (id, cmd) in bootstrap_trace(ids) {
        des.inject(id, cmd);
    }
    settle_des(&mut des, 64, &mut timer_rounds);
    for &id in ids {
        des.inject(id, Command::BuildLinks { walks: 3 });
        settle_des(&mut des, 64, &mut timer_rounds);
    }
    let mut retried = 0u64;
    for e in des.drain_events() {
        if matches!(e, ProtocolEvent::Retried { .. }) {
            retried += 1;
        }
    }
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        des.inject(origin, Command::StartQuery { qid, key });
        settle_des(&mut des, 64, &mut timer_rounds);
        for e in des.drain_events() {
            match e {
                ProtocolEvent::QueryCompleted(r) => reports.push(r),
                ProtocolEvent::Retried { .. } => retried += 1,
                _ => {}
            }
        }
    }
    let tables = ids
        .iter()
        .map(|&id| (id, des.peer(id).unwrap().fingerprint()))
        .collect();
    reports.sort_by_key(|r| r.qid);
    FaultedRun {
        tables,
        reports,
        retried,
        timer_rounds,
    }
}

fn run_actor_faulted(ids: &[Id], workers: usize) -> FaultedRun {
    let mut timer_rounds = Vec::new();
    let mut rt = Runtime::new(
        RuntimeConfig::new(SEED)
            .with_workers(workers)
            .with_fault_plan(fault_plan()),
    );
    for &id in ids {
        rt.spawn_peer(id);
    }
    for (id, cmd) in bootstrap_trace(ids) {
        rt.inject(id, cmd);
    }
    settle_actor(&rt, 64, &mut timer_rounds);
    for &id in ids {
        rt.inject(id, Command::BuildLinks { walks: 3 });
        settle_actor(&rt, 64, &mut timer_rounds);
    }
    let mut retried = 0u64;
    for e in rt.drain_events() {
        if matches!(e, ProtocolEvent::Retried { .. }) {
            retried += 1;
        }
    }
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        rt.inject(origin, Command::StartQuery { qid, key });
        settle_actor(&rt, 64, &mut timer_rounds);
        for e in rt.drain_events() {
            match e {
                ProtocolEvent::QueryCompleted(r) => reports.push(r),
                ProtocolEvent::Retried { .. } => retried += 1,
                _ => {}
            }
        }
    }
    let tables = ids
        .iter()
        .map(|&id| (id, rt.with_peer(id, |m| m.fingerprint()).unwrap()))
        .collect();
    reports.sort_by_key(|r| r.qid);
    rt.shutdown();
    FaultedRun {
        tables,
        reports,
        retried,
        timer_rounds,
    }
}

#[test]
fn des_and_actor_runtime_agree_under_the_same_fault_plan() {
    let ids = peer_ids(48);
    let des = run_des_faulted(&ids);
    let rt = run_actor_faulted(&ids, 4);
    let (des_tables, des_reports) = (des.tables, des.reports);
    let (rt_tables, rt_reports) = (rt.tables, rt.reports);

    assert!(
        des.retried > 0,
        "the plan must actually exercise the retry path"
    );
    assert!(
        des.timer_rounds.iter().any(|r| r.is_some()),
        "some quiescent point must have a deadline pending"
    );
    assert_eq!(
        des.timer_rounds, rt.timer_rounds,
        "the drivers disagree on the next timer round at a quiescent point"
    );
    assert_eq!(des_tables.len(), rt_tables.len());
    for (id, des_fp) in &des_tables {
        let rt_fp = &rt_tables[id];
        assert_eq!(des_fp, rt_fp, "link tables diverge under faults at {id:?}");
    }
    assert_eq!(
        des_reports.len(),
        rt_reports.len(),
        "query report counts under faults"
    );
    for (d, r) in des_reports.iter().zip(&rt_reports) {
        assert_eq!(d, r, "qid {} report diverges under faults", d.qid);
    }
    // Recovery must actually work: every query eventually resolves.
    let delivered = des_reports.iter().filter(|r| r.success).count();
    assert!(
        delivered * 100 >= des_reports.len() * 99,
        "steady delivery below 99%: {delivered}/{}",
        des_reports.len()
    );
}

#[test]
fn blackholed_crash_degrades_gracefully_not_fatally() {
    // Reliable links, but crashes swallow mail silently: only timeouts
    // can detect the corpse, and the query must fail *cleanly* — a
    // GaveUp plus an unsuccessful report, never a ProtocolEvent::Fault.
    let plan = FaultPlan::new(0x0B5C).with_blackhole(true);
    let mut des = DesDriver::new_with_faults(77, PeerConfig::default(), plan);
    let ids: Vec<Id> = (1..=8u64).map(|i| Id::new(i * 100)).collect();
    des.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        assert!(des.join_and_wait(id, ids[0]));
    }
    des.drain_events();
    let victim = Id::new(500);
    assert!(des.remove_peer(victim));
    // A key inside the victim's arc: every probe to it now vanishes.
    des.inject(
        Id::new(100),
        Command::StartQuery {
            qid: 1,
            key: Id::new(450),
        },
    );
    des.run_until_settled(128);
    let events = des.drain_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ProtocolEvent::TimedOut {
                op: OpKind::Query,
                ..
            }
        )),
        "the blackholed probe must surface as a timeout"
    );
    assert!(events.iter().any(|e| matches!(
        e,
        ProtocolEvent::GaveUp {
            op: OpKind::Query,
            ..
        }
    )));
    let report = events
        .iter()
        .find_map(|e| match e {
            ProtocolEvent::QueryCompleted(r) => Some(r.clone()),
            _ => None,
        })
        .expect("the query must still complete — gracefully");
    assert!(!report.success);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::Fault { .. })),
        "graceful degradation must not raise Fault"
    );
    assert_eq!(
        des.sent(),
        des.delivered() + des.dropped() + des.bounced(),
        "accounting must reconcile"
    );
}

// --- join_and_wait ----------------------------------------------------------

/// `join_and_wait` means one thing on both drivers: it answers from the
/// events *this* call produced and discards none. A query report waiting
/// to be drained is still there after the next join, and an undrained
/// `JoinCompleted` from an id's previous life is not the success of its
/// next, impossible join.
#[test]
fn join_and_wait_answers_for_its_own_join_and_discards_nothing() {
    let (a, b, c) = (Id::new(100), Id::new(200), Id::new(300));
    let query = Command::StartQuery { qid: 9, key: b };
    /// The events a join after an undrained query must leave behind.
    fn assert_both_kept(events: &[ProtocolEvent], joined: Id, driver: &str) {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ProtocolEvent::QueryCompleted(r) if r.qid == 9)),
            "{driver}: the earlier query report was discarded by the join"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ProtocolEvent::JoinCompleted { peer } if *peer == joined)),
            "{driver}: the join's own event must stay drainable"
        );
    }

    let mut des = DesDriver::new(SEED, PeerConfig::default());
    des.spawn_peer(a);
    assert!(des.join_and_wait(b, a));
    des.drain_events();
    des.inject(a, query.clone());
    des.run_until_idle();
    assert!(des.join_and_wait(c, a));
    // `c` crashes and its id comes back through a contact that does not
    // exist: with `c`'s first JoinCompleted still undrained, the second
    // join must answer for itself.
    assert!(des.remove_peer(c));
    assert!(
        !des.join_and_wait(c, Id::new(999)),
        "a join through a missing contact cannot complete"
    );
    assert_both_kept(&des.drain_events(), c, "DES");

    let mut rt = Runtime::new(RuntimeConfig::new(SEED).with_workers(2));
    rt.spawn_peer(a);
    assert!(rt.join_and_wait(b, a));
    rt.drain_events();
    rt.inject(a, query);
    rt.quiesce();
    assert!(rt.join_and_wait(c, a));
    assert_both_kept(&rt.drain_events(), c, "runtime");
    rt.shutdown();
}

// --- spawn_peer on the seam -------------------------------------------------

/// `ProtocolDriver::spawn_peer` means what both drivers' inherent
/// `spawn_peer` means: the fresh machine replaces a live one. `a` pings its
/// crashed successor under a blackholing plan, so it waits on a timer that
/// only expiry can clear; its replacement waits on nothing.
fn respawn_replaces_a_waiting_machine<D: ProtocolDriver>(driver: &mut D, name: &str) {
    let (a, b) = (Id::new(100), Id::new(200));
    for (id, other) in [(a, b), (b, a)] {
        driver.spawn_peer(id);
        driver.inject(
            id,
            Command::Bootstrap {
                pred: other,
                succs: vec![other],
                known: vec![other],
            },
        );
    }
    assert_eq!(driver.settle(64), 0, "{name}: a bootstrapped pair is idle");
    driver.remove_peer(b);
    driver.inject(a, Command::ProbeRing);
    assert_eq!(driver.settle(0), 0);
    driver.spawn_peer(a);
    assert_eq!(
        driver.settle(64),
        0,
        "{name}: the replaced prober's timer outlived it"
    );
}

#[test]
fn spawn_peer_replaces_the_machine_on_both_drivers() {
    let plan = FaultPlan::new(0x5EA).with_blackhole(true);
    let mut des = DesDriver::new_with_faults(SEED, PeerConfig::default(), plan.clone());
    respawn_replaces_a_waiting_machine(&mut des, "DES");
    let mut rt = Runtime::new(
        RuntimeConfig::new(SEED)
            .with_workers(2)
            .with_fault_plan(plan),
    );
    respawn_replaces_a_waiting_machine(&mut rt, "runtime");
    rt.shutdown();
}

// --- equivalence under churn + repair --------------------------------------

/// The machine churn engine replayed on both drivers: Poisson
/// join/crash/depart, reactive-k2 detection and repair, and a lossy
/// network, all at the same seed. Every window's books — churn counts,
/// repair traffic, query statistics — and every surviving peer's link
/// tables must be identical. This is the tentpole claim of the unified
/// stack: churn outcomes are a function of the schedule and the seed,
/// not of which driver hosts the machines.
#[test]
fn des_and_actor_runtime_agree_under_churn_and_repair() {
    use oscar::keydist::UniformKeys;
    use oscar::sim::{
        machine_repair_policy, run_machine_churn, ChurnSchedule, ChurnWindowStats,
        MachineChurnConfig, QueryBudget, RepairPolicy,
    };
    use oscar::types::SeedTree;

    let schedule = ChurnSchedule {
        join_rate: 0.004,
        crash_rate: 0.004,
        depart_rate: 0.001,
        repair: RepairPolicy::Reactive { neighbors_k: 2 },
        window_ticks: 400,
        query_budget: QueryBudget::Fixed(40),
        min_live: 8,
    };
    let cfg = MachineChurnConfig {
        initial_peers: 32,
        build_walks: 3,
        probe_every: 100,
    };
    let peer_cfg = PeerConfig {
        repair: machine_repair_policy(&schedule.repair),
        ..PeerConfig::default()
    };
    // Blackholed crashes: corpses swallow mail silently and only timers
    // detect them. The bounce path is driver-timed (synchronous in the
    // runtime, next-tick in the DES) so it is excluded here — timeouts
    // fire on the shared round clock and keep detection order-free.
    let plan = FaultPlan::new(0xC0FFEE)
        .with_drop(0.05)
        .with_blackhole(true);

    let mut des = DesDriver::new_with_faults(SEED, peer_cfg.clone(), plan.clone());
    let des_windows: Vec<ChurnWindowStats> = run_machine_churn(
        &mut des,
        &UniformKeys,
        &cfg,
        &schedule,
        3,
        SeedTree::new(SEED),
    )
    .expect("DES churn run");
    let des_live = des.peer_ids();
    let des_tables: LinkTables = des_live
        .iter()
        .map(|&id| (id, des.peer(id).unwrap().fingerprint()))
        .collect();

    let mut rt = Runtime::new(
        RuntimeConfig::new(SEED)
            .with_workers(4)
            .with_peer_cfg(peer_cfg)
            .with_fault_plan(plan),
    );
    let rt_windows = run_machine_churn(
        &mut rt,
        &UniformKeys,
        &cfg,
        &schedule,
        3,
        SeedTree::new(SEED),
    )
    .expect("runtime churn run");
    let rt_live = rt.peer_ids();
    let rt_tables: LinkTables = rt_live
        .iter()
        .map(|&id| (id, rt.with_peer(id, |m| m.fingerprint()).unwrap()))
        .collect();

    let churned: u64 = des_windows.iter().map(|w| w.joins + w.crashes).sum();
    assert!(churned > 0, "the schedule must actually churn the fleet");
    assert_eq!(des_live, rt_live, "live populations diverge under churn");
    for (id, des_fp) in &des_tables {
        assert_eq!(
            des_fp, &rt_tables[id],
            "link tables diverge under churn at {id:?}"
        );
    }
    assert_eq!(
        des_windows, rt_windows,
        "window stats diverge between drivers"
    );
    assert_eq!(des.fault_count(), 0, "DES machine faults in a seeded run");
    assert_eq!(
        rt.fault_count(),
        0,
        "runtime machine faults in a seeded run"
    );
    rt.shutdown();
}

#[test]
fn actor_runtime_is_worker_count_invariant() {
    // The same trace under 1 worker and 4 workers: scheduling changes
    // completely, outcomes must not.
    let ids = peer_ids(24);
    let (t1, r1) = run_actor(&ids, 1);
    let (t4, r4) = run_actor(&ids, 4);
    assert_eq!(t1, t4, "link tables depend on worker count");
    assert_eq!(r1.len(), r4.len());
    for (a, b) in r1.iter().zip(&r4) {
        assert_eq!(
            (a.qid, a.success, a.dest, a.hops, a.wasted),
            (b.qid, b.success, b.dest, b.hops, b.wasted)
        );
    }
}
