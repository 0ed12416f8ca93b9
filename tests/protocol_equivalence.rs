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
//!
//! Every case is written once, generic over [`ProtocolDriver`], and run
//! on the DES and on the runtime at 4 workers: a case drives a fleet and
//! reads its machines through the seam alone (`with_peer`), never
//! through either driver's own API.

mod support;

use oscar::protocol::driver::deadline_scan;
use oscar::protocol::{
    Command, FaultPlan, OpKind, PeerConfig, PeerMachine, ProtocolDriver, ProtocolEvent, QueryReport,
};
use oscar::runtime::{Runtime, RuntimeConfig};
use oscar::sim::DesDriver;
use oscar::types::Id;
use std::collections::BTreeMap;
use support::join_all;

const SEED: u64 = 0xE0_1234;

fn des() -> DesDriver {
    DesDriver::new(SEED, PeerConfig::default())
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::new(SEED).with_workers(workers))
}

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

/// The link tables of the live peers `ids`, read through the seam.
fn link_tables<D: ProtocolDriver>(driver: &D, ids: &[Id]) -> LinkTables {
    ids.iter()
        .map(|&id| {
            let fp = driver.with_peer(id, PeerMachine::fingerprint);
            (id, fp.expect("a live peer"))
        })
        .collect()
}

/// The DES's and the runtime's link tables, peer for peer.
fn assert_same_tables(des: &LinkTables, rt: &LinkTables, context: &str) {
    assert_eq!(des.len(), rt.len(), "table counts {context}");
    for (id, des_fp) in des {
        assert_eq!(des_fp, &rt[id], "link tables diverge {context} at {id:?}");
    }
}

/// The query reports among `events`, in event order.
fn query_reports(events: Vec<ProtocolEvent>) -> impl Iterator<Item = QueryReport> {
    events.into_iter().filter_map(|e| match e {
        ProtocolEvent::QueryCompleted(r) => Some(r),
        _ => None,
    })
}

/// Joins, link walks and the query trace, each command settled before
/// the next.
fn run_trace<D: ProtocolDriver>(mut driver: D, ids: &[Id]) -> (LinkTables, Vec<QueryReport>) {
    join_all(&mut driver, ids);
    for &id in ids {
        driver.inject(id, Command::BuildLinks { walks: 3 });
        driver.settle(0);
    }
    driver.drain_events();
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        driver.inject(origin, Command::StartQuery { qid, key });
        driver.settle(0);
        reports.extend(query_reports(driver.drain_events()));
    }
    reports.sort_by_key(|r| r.qid);
    (link_tables(&driver, ids), reports)
}

#[test]
fn des_and_actor_runtime_build_identical_overlays() {
    let ids = peer_ids(48);
    let (des_tables, des_reports) = run_trace(des(), &ids);
    let (rt_tables, rt_reports) = run_trace(runtime(4), &ids);

    assert_same_tables(&des_tables, &rt_tables, "on a clean trace");

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

/// What a faulted run leaves behind. `timer_rounds` is the earliest
/// deadline any machine waits on at every quiescent point of every
/// settle, in order: the drivers must agree not only on where the trace
/// ends up but on which deadline is next each time the network falls
/// silent.
struct FaultedRun {
    tables: LinkTables,
    reports: Vec<QueryReport>,
    retried: u64,
    timer_rounds: Vec<Option<u64>>,
}

/// `settle(64)`, one timer round at a time, noting the earliest deadline
/// of the fleet at every quiescent point on the way. There it equals the
/// driver's `next_timer_round()`, whose debug oracle reads the same scan.
fn settle_noting<D: ProtocolDriver>(driver: &mut D, timer_rounds: &mut Vec<Option<u64>>) {
    let next_deadline = |driver: &D| deadline_scan(driver).into_iter().map(|(_, d)| d).min();
    driver.settle(0);
    timer_rounds.push(next_deadline(driver));
    for _ in 0..64 {
        if driver.settle(1) == 0 {
            break;
        }
        timer_rounds.push(next_deadline(driver));
    }
}

fn run_faulted<D: ProtocolDriver>(mut driver: D, ids: &[Id]) -> FaultedRun {
    let mut timer_rounds = Vec::new();
    for &id in ids {
        driver.spawn_peer(id);
    }
    for (id, cmd) in bootstrap_trace(ids) {
        driver.inject(id, cmd);
    }
    settle_noting(&mut driver, &mut timer_rounds);
    for &id in ids {
        driver.inject(id, Command::BuildLinks { walks: 3 });
        settle_noting(&mut driver, &mut timer_rounds);
    }
    let mut retried = 0u64;
    for e in driver.drain_events() {
        if matches!(e, ProtocolEvent::Retried { .. }) {
            retried += 1;
        }
    }
    let mut reports = Vec::new();
    for &(origin, qid, key) in &query_trace(ids) {
        driver.inject(origin, Command::StartQuery { qid, key });
        settle_noting(&mut driver, &mut timer_rounds);
        for e in driver.drain_events() {
            match e {
                ProtocolEvent::QueryCompleted(r) => reports.push(r),
                ProtocolEvent::Retried { .. } => retried += 1,
                _ => {}
            }
        }
    }
    reports.sort_by_key(|r| r.qid);
    FaultedRun {
        tables: link_tables(&driver, ids),
        reports,
        retried,
        timer_rounds,
    }
}

#[test]
fn des_and_actor_runtime_agree_under_the_same_fault_plan() {
    let ids = peer_ids(48);
    let des = run_faulted(
        DesDriver::new_with_faults(SEED, PeerConfig::default(), fault_plan()),
        &ids,
    );
    let rt = run_faulted(
        Runtime::new(
            RuntimeConfig::new(SEED)
                .with_workers(4)
                .with_fault_plan(fault_plan()),
        ),
        &ids,
    );
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
    assert_same_tables(&des.tables, &rt.tables, "under faults");
    assert_eq!(
        des.reports.len(),
        rt.reports.len(),
        "query report counts under faults"
    );
    for (d, r) in des.reports.iter().zip(&rt.reports) {
        assert_eq!(d, r, "qid {} report diverges under faults", d.qid);
    }
    // Recovery must actually work: every query eventually resolves.
    let delivered = des.reports.iter().filter(|r| r.success).count();
    assert!(
        delivered * 100 >= des.reports.len() * 99,
        "steady delivery below 99%: {delivered}/{}",
        des.reports.len()
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
    join_all(&mut des, &ids);
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

// --- one case, both drivers ------------------------------------------------

/// Serial joins through one contact splice every joiner in at its sorted
/// place: each peer's first successor is the next id clockwise.
fn joins_splice_the_sorted_ring<D: ProtocolDriver>(mut driver: D, name: &str) {
    let ids = [500u64, 100, 900, 300, 700].map(Id::new);
    join_all(&mut driver, &ids);
    let mut sorted = ids;
    sorted.sort_unstable();
    for (k, &id) in sorted.iter().enumerate() {
        let succ = sorted[(k + 1) % sorted.len()];
        let got = driver.with_peer(id, |m| m.succs()[0]);
        assert_eq!(got, Some(succ), "{name}: succ of {id:?}");
    }
}

#[test]
fn joins_splice_the_sorted_ring_on_both_drivers() {
    joins_splice_the_sorted_ring(des(), "DES");
    joins_splice_the_sorted_ring(runtime(4), "runtime");
}

/// A storm of queries from every peer of a linked ring at once: every
/// one succeeds, and a key between two peers resolves to the later one.
fn queries_resolve_in_parallel<D: ProtocolDriver>(mut driver: D, name: &str) {
    let ids: Vec<Id> = (1..=64u64).map(|i| Id::new(i * 1_000)).collect();
    join_all(&mut driver, &ids);
    for &id in &ids {
        driver.inject(id, Command::BuildLinks { walks: 2 });
    }
    driver.settle(0);
    driver.drain_events();
    let mut qid = 0u64;
    for &id in &ids {
        for k in 0..4u64 {
            let key = Id::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            driver.inject(id, Command::StartQuery { qid, key });
            qid += 1;
        }
    }
    let key = Id::new(4_500);
    driver.inject(ids[0], Command::StartQuery { qid, key });
    driver.settle(0);
    let reports: Vec<QueryReport> = query_reports(driver.drain_events()).collect();
    assert_eq!(reports.len(), qid as usize + 1, "{name}: one report each");
    assert!(
        reports.iter().all(|r| r.success),
        "{name}: all queries must succeed on a clean ring"
    );
    let dest = reports.iter().find(|r| r.qid == qid).and_then(|r| r.dest);
    assert_eq!(dest, Some(Id::new(5_000)), "{name}: the owner of 4500");
}

#[test]
fn queries_resolve_in_parallel_on_both_drivers() {
    queries_resolve_in_parallel(des(), "DES");
    queries_resolve_in_parallel(runtime(4), "runtime");
}

/// Queries routed into a crashed peer's arc all terminate: the corpse's
/// probe is charged as waste, and the driver's own `bounced` counter
/// (read by `bounced`) sees the mail returned.
fn removed_peer_bounces_mail_to_sender<D: ProtocolDriver>(
    mut driver: D,
    name: &str,
    bounced: impl Fn(&D) -> u64,
) {
    let ids: Vec<Id> = (1..=8u64).map(|i| Id::new(i * 100)).collect();
    join_all(&mut driver, &ids);
    let corpse = ids[3];
    driver.remove_peer(corpse);
    driver.drain_events();
    for (qid, &id) in (0..).zip(&ids).filter(|&(_, &id)| id != corpse) {
        driver.inject(
            id,
            Command::StartQuery {
                qid,
                key: Id::new(350),
            },
        );
    }
    driver.settle(0);
    let reports: Vec<QueryReport> = query_reports(driver.drain_events()).collect();
    assert_eq!(reports.len(), ids.len() - 1, "{name}: every query must end");
    let first = reports.iter().find(|r| r.origin == ids[0]);
    assert!(
        first.is_some_and(|r| r.wasted > 0),
        "{name}: corpse probe must be charged"
    );
    assert!(
        bounced(&driver) > 0,
        "{name}: corpse probes must be counted"
    );
}

#[test]
fn removed_peer_bounces_mail_to_sender_on_both_drivers() {
    removed_peer_bounces_mail_to_sender(des(), "DES", DesDriver::bounced);
    removed_peer_bounces_mail_to_sender(runtime(4), "runtime", |rt| rt.stats().bounced);
}

// --- spawn_peer and with_peer on the seam ----------------------------------

/// `ProtocolDriver::spawn_peer` means what both drivers' inherent
/// `spawn_peer` means: the fresh machine replaces a live one. `a` pings its
/// crashed successor under a blackholing plan, so it waits on a timer that
/// only expiry can clear; its replacement waits on nothing. `with_peer`
/// reads no machine under a removed id, and the replacement's own state.
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
    assert!(driver.with_peer(b, |_| ()).is_none(), "{name}: b is gone");
    driver.inject(a, Command::ProbeRing);
    assert_eq!(driver.settle(0), 0);
    let waiting = driver.with_peer(a, PeerMachine::next_deadline);
    assert!(
        waiting.flatten().is_some(),
        "{name}: a ping waits on a timer"
    );
    driver.spawn_peer(a);
    assert_eq!(driver.with_peer(a, PeerMachine::joined), Some(false));
    assert_eq!(
        driver.with_peer(a, PeerMachine::next_deadline),
        Some(None),
        "{name}: the replacement waits on nothing"
    );
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

    /// One churn run: its windows, its survivors' link tables, its faults.
    fn churn<D: ProtocolDriver>(
        mut driver: D,
        cfg: &MachineChurnConfig,
        schedule: &ChurnSchedule,
    ) -> (Vec<ChurnWindowStats>, LinkTables, u64) {
        let seeds = SeedTree::new(SEED);
        let windows = run_machine_churn(&mut driver, &UniformKeys, cfg, schedule, 3, seeds);
        let live = driver.peer_ids();
        let tables = link_tables(&driver, &live);
        (windows.expect("churn run"), tables, driver.fault_count())
    }

    let (des_windows, des_tables, des_faults) = churn(
        DesDriver::new_with_faults(SEED, peer_cfg.clone(), plan.clone()),
        &cfg,
        &schedule,
    );
    let (rt_windows, rt_tables, rt_faults) = churn(
        Runtime::new(
            RuntimeConfig::new(SEED)
                .with_workers(4)
                .with_peer_cfg(peer_cfg)
                .with_fault_plan(plan),
        ),
        &cfg,
        &schedule,
    );

    let churned: u64 = des_windows.iter().map(|w| w.joins + w.crashes).sum();
    assert!(churned > 0, "the schedule must actually churn the fleet");
    assert!(
        des_tables.keys().eq(rt_tables.keys()),
        "live populations diverge under churn"
    );
    assert_same_tables(&des_tables, &rt_tables, "under churn");
    assert_eq!(
        des_windows, rt_windows,
        "window stats diverge between drivers"
    );
    assert_eq!(des_faults, 0, "DES machine faults in a seeded run");
    assert_eq!(rt_faults, 0, "runtime machine faults in a seeded run");
}

#[test]
fn actor_runtime_is_worker_count_invariant() {
    // The same trace under 1 worker and 4 workers: scheduling changes
    // completely, outcomes must not.
    let ids = peer_ids(24);
    let (t1, r1) = run_trace(runtime(1), &ids);
    let (t4, r4) = run_trace(runtime(4), &ids);
    assert_eq!(t1, t4, "link tables depend on worker count");
    assert_eq!(r1.len(), r4.len());
    for (a, b) in r1.iter().zip(&r4) {
        assert_eq!(
            (a.qid, a.success, a.dest, a.hops, a.wasted),
            (b.qid, b.success, b.dest, b.hops, b.wasted)
        );
    }
}
