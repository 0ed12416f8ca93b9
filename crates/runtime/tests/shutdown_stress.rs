//! Stress tests for the runtime's scheduling protocol and shutdown path.
//!
//! The scheduling model has a handful of places where a wrong wake-up
//! protocol or a slipped in-flight count means a hang: workers parked
//! beside an empty run queue, workers mid-batch inside an actor, callers
//! inside `quiesce` — running actors themselves, or parked behind
//! messages other threads hold — and mail for a peer that is removed
//! while it travels. These tests slam the runtime with traffic and pull
//! the plug, or a third of the peers, mid-flight, repeatedly, under
//! varying worker counts — every iteration must return, with every
//! envelope in exactly one ledger bucket.

use oscar_protocol::{Command, FaultPlan, PeerConfig, ProtocolEvent};
use oscar_runtime::{Runtime, RuntimeConfig};
use oscar_types::Id;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Builds a small settled ring so injected traffic actually routes.
fn settled_ring(rt: &Runtime, n: u64) -> Vec<Id> {
    let ids: Vec<Id> = (0..n).map(|i| Id::new((i + 1) * 1_000_003)).collect();
    rt.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        assert!(rt.join_and_wait(id, ids[0]));
    }
    for &id in &ids {
        rt.inject(id, Command::BuildLinks { walks: 2 });
    }
    rt.quiesce();
    rt.drain_events();
    ids
}

/// Injects `per_peer` queries at every peer, with consecutive query ids
/// from `first_qid` and keys scattered over the ring.
fn inject_storm(rt: &Runtime, ids: &[Id], per_peer: u64, first_qid: u64) {
    let mut qid = first_qid;
    for &id in ids {
        for _ in 0..per_peer {
            let key = Id::new(qid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            rt.inject(id, Command::StartQuery { qid, key });
            qid += 1;
        }
    }
}

/// Drains the event buffer and returns the `(qid, dest)` of every query
/// report in it, sorted.
fn drain_query_reports(rt: &Runtime) -> Vec<(u64, Option<Id>)> {
    let mut reports: Vec<_> = rt
        .drain_events()
        .into_iter()
        .filter_map(|e| match e {
            ProtocolEvent::QueryCompleted(r) => Some((r.qid, r.dest)),
            _ => None,
        })
        .collect();
    reports.sort_unstable();
    reports
}

/// Runs `f` on a watchdog thread; panics if it does not finish in time.
/// A hang in shutdown would otherwise stall the whole test binary with
/// no diagnostic.
fn must_finish_within(label: &str, secs: u64, f: impl FnOnce() + Send + 'static) {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let h = std::thread::spawn(move || {
        f();
        flag.store(true, Ordering::SeqCst);
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    while std::time::Instant::now() < deadline {
        if done.load(Ordering::SeqCst) {
            h.join().unwrap();
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{label}: did not finish within {secs}s — hang");
}

#[test]
fn shutdown_mid_query_storm_returns() {
    // 20 iterations across worker counts: inject a query storm and shut
    // down immediately, without quiescing first.
    must_finish_within("mid-storm shutdown", 120, || {
        for iter in 0..20u64 {
            let workers = 1 + (iter as usize % 4);
            let mut rt = Runtime::new(RuntimeConfig::new(1000 + iter).with_workers(workers));
            let ids = settled_ring(&rt, 24);
            let mut qid = 0u64;
            for &id in &ids {
                for k in 0..8u64 {
                    rt.inject(
                        id,
                        Command::StartQuery {
                            qid,
                            key: Id::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        },
                    );
                    qid += 1;
                }
            }
            // No quiesce: messages are in flight right now.
            rt.shutdown();
            // Discarded in-flight messages must not strand a later
            // quiesce — shutdown zeroes the pending counter.
            rt.quiesce();
        }
    });
}

#[test]
fn quiesce_under_load_then_repeated_shutdown() {
    // quiesce() parked behind live traffic must be woken by the workers
    // draining it, and shutdown must stay idempotent afterwards.
    must_finish_within("quiesce-then-shutdown", 120, || {
        for iter in 0..10u64 {
            let mut rt = Runtime::new(RuntimeConfig::new(2000 + iter).with_workers(2));
            let ids = settled_ring(&rt, 16);
            for (q, &id) in ids.iter().enumerate() {
                rt.inject(
                    id,
                    Command::StartQuery {
                        qid: q as u64,
                        key: Id::new(q as u64 * 777_777),
                    },
                );
            }
            rt.quiesce();
            rt.shutdown();
            rt.shutdown(); // idempotent: second call must be a no-op
        }
    });
}

#[test]
fn shutdown_with_gossip_and_churn_in_flight() {
    // Gossip fan-out plus peer removal mid-flight: removed mailboxes
    // reclaim their pending counts, and the teardown still converges.
    must_finish_within("gossip+churn shutdown", 120, || {
        for iter in 0..10u64 {
            let mut rt = Runtime::new(RuntimeConfig::new(3000 + iter).with_workers(3));
            let ids = settled_ring(&rt, 20);
            rt.gossip_round();
            // Crash a third of the ring while gossip is still in the air.
            for &id in ids.iter().step_by(3) {
                rt.remove_peer(id);
            }
            rt.gossip_round();
            rt.shutdown();
        }
    });
}

#[test]
fn remove_mid_flight_keeps_the_books() {
    // Crash a third of the ring under a query storm, with no quiesce in
    // between: mail already queued to a corpse, mail an executor has
    // already taken from it and mail a sender pushes after the removal
    // must each be booked `dropped` exactly once, or the in-flight count
    // never returns to zero (or wraps below it) and `quiesce` hangs.
    must_finish_within("remove mid-flight", 120, || {
        for iter in 0..100u64 {
            // A query on a ring with a third of its peers gone and nobody
            // repairing it wanders until its budget is spent; a short one
            // keeps the aftermath to thousands of messages, not a million.
            let cfg = PeerConfig {
                query_budget: 64,
                ..PeerConfig::default()
            };
            let mut rt = Runtime::new(
                RuntimeConfig::new(6000 + iter)
                    .with_workers(2)
                    .with_peer_cfg(cfg),
            );
            let ids = settled_ring(&rt, 32);
            inject_storm(&rt, &ids, 20, 0);
            for &id in ids.iter().step_by(3) {
                assert!(rt.remove_peer(id));
            }
            rt.quiesce();
            let s = rt.stats();
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "iteration {iter}: every envelope must land in exactly one bucket"
            );
            rt.shutdown();
        }
    });
}

#[test]
fn duplicates_and_bounces_pass_the_in_flight_slot_on() {
    // A handled envelope lends its in-flight slot to its step's last
    // output. A duplicated send pushes two copies on one slot plus one
    // fresh, and a send to a removed peer (bounced, not blackholed) hands
    // the slot to whatever the sender's failure step emits. Remove a third
    // of the ring under a storm and settle: the count must come back to
    // zero with every envelope in one bucket and every query reported once.
    must_finish_within("duplicates and bounces", 120, || {
        for iter in 0..20u64 {
            let cfg = PeerConfig {
                query_budget: 64,
                ..PeerConfig::default()
            };
            let plan = FaultPlan::new(10_000 + iter).with_duplication(0.1);
            let mut rt = Runtime::new(
                RuntimeConfig::new(11_000 + iter)
                    .with_workers(1 + (iter as usize % 4))
                    .with_peer_cfg(cfg)
                    .with_fault_plan(plan),
            );
            let ids = settled_ring(&rt, 24);
            let doomed: Vec<Id> = ids.iter().step_by(3).copied().collect();
            let survivors: Vec<Id> = ids
                .iter()
                .copied()
                .filter(|id| !doomed.contains(id))
                .collect();
            const PER_PEER: u64 = 8;
            inject_storm(&rt, &survivors, PER_PEER, 0);
            for &id in &doomed {
                assert!(rt.remove_peer(id));
            }
            rt.settle(256);
            let s = rt.stats();
            assert!(s.duplicated > 0, "iteration {iter}: plan must duplicate");
            assert!(s.bounced > 0, "iteration {iter}: corpses must bounce");
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "iteration {iter}: every envelope must land in exactly one bucket"
            );
            let reported: Vec<u64> = drain_query_reports(&rt)
                .into_iter()
                .map(|(qid, _)| qid)
                .collect();
            assert_eq!(
                reported,
                (0..survivors.len() as u64 * PER_PEER).collect::<Vec<u64>>(),
                "iteration {iter}: one report per query"
            );
            rt.shutdown();
        }
    });
}

#[test]
fn fire_and_forget_send_wakes_a_parked_worker() {
    // Nobody calls `quiesce` here, so nobody helps: the one message this
    // command sends is handled only if the push onto an idle pool wakes a
    // worker. Pins the notify in `schedule` against being optimised away.
    must_finish_within("fire-and-forget delivery", 60, || {
        let rt = Runtime::new(RuntimeConfig::new(8000).with_workers(2));
        let (a, b) = (Id::new(100), Id::new(200));
        for (id, other) in [(a, b), (b, a)] {
            rt.spawn_peer(id);
            // Installs ring state without sending anything.
            rt.inject(
                id,
                Command::Bootstrap {
                    pred: other,
                    succs: vec![other],
                    known: vec![other],
                },
            );
        }
        // The workers have had nothing to do since they started; give
        // them time to go to sleep over it.
        std::thread::sleep(Duration::from_millis(50));
        // `b` owns the key: one `Query` out, its report back.
        let key = Id::new(150);
        rt.inject(a, Command::StartQuery { qid: 1, key });
        loop {
            let s = rt.stats();
            if s.sent == 2 && s.delivered == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(drain_query_reports(&rt), [(1, Some(b))]);
    });
}

#[test]
fn two_quiescers_beside_one_worker_both_return_and_are_booked() {
    // Two threads inject half a storm each and enter `quiesce` together,
    // beside a single pool worker: three executors share one run queue
    // and two of them may park on `quiet`. Both calls must return, to a
    // balanced ledger with every query reported exactly once, and the
    // messages the callers handled must be booked in the trailing slot.
    must_finish_within("two quiescers", 120, || {
        let rt = Runtime::new(RuntimeConfig::new(9000).with_workers(1));
        let ids = settled_ring(&rt, 24);
        const PER_PEER: u64 = 16;
        let per_thread = ids.len() as u64 * PER_PEER;
        for iter in 0..10u64 {
            let together = Barrier::new(2);
            std::thread::scope(|scope| {
                for t in 0..2u64 {
                    let (rt, ids, together) = (&rt, &ids, &together);
                    scope.spawn(move || {
                        inject_storm(rt, ids, PER_PEER, (2 * iter + t) * per_thread);
                        together.wait();
                        rt.quiesce();
                    });
                }
            });
            let s = rt.stats();
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "iteration {iter}"
            );
            assert_eq!(
                s.per_worker_msgs.iter().sum::<u64>(),
                s.delivered,
                "iteration {iter}: every delivery booked to an executor by quiescence"
            );
            let reported: Vec<u64> = drain_query_reports(&rt)
                .into_iter()
                .map(|(qid, _)| qid)
                .collect();
            let first = 2 * iter * per_thread;
            assert_eq!(
                reported,
                (first..first + 2 * per_thread).collect::<Vec<u64>>(),
                "iteration {iter}: one report per query"
            );
        }
        let s = rt.stats();
        assert_eq!(s.busy_ns.len(), rt.workers() + 1);
        assert_eq!(s.per_worker_msgs.len(), rt.workers() + 1);
        let helped = s.per_worker_msgs[rt.workers()];
        assert!(helped > 0, "the quiesce callers never ran an actor");
        assert!(s.busy_ns[rt.workers()] > 0);
    });
}

#[test]
fn faulted_storm_counters_reconcile_at_quiescence() {
    // Under a lossy, duplicating plan every envelope must still land in
    // exactly one accounting bucket once the network settles:
    // sent == delivered + dropped + bounced.
    must_finish_within("faulted-storm reconciliation", 120, || {
        for iter in 0..5u64 {
            let plan = FaultPlan::new(7000 + iter)
                .with_drop(0.05)
                .with_duplication(0.05)
                .with_blackhole(true);
            let mut rt = Runtime::new(
                RuntimeConfig::new(5000 + iter)
                    .with_workers(1 + (iter as usize % 4))
                    .with_fault_plan(plan),
            );
            // Bootstrap directly — joins under loss are exercised by the
            // equivalence tests; this test is about the accounting.
            let ids: Vec<Id> = (0..24u64).map(|i| Id::new((i + 1) * 1_000_003)).collect();
            let n = ids.len();
            for &id in &ids {
                rt.spawn_peer(id);
            }
            for (k, &id) in ids.iter().enumerate() {
                let succs: Vec<Id> = (1..=3).map(|j| ids[(k + j) % n]).collect();
                rt.inject(
                    id,
                    Command::Bootstrap {
                        pred: ids[(k + n - 1) % n],
                        succs: succs.clone(),
                        known: succs,
                    },
                );
            }
            rt.quiesce();
            let mut qid = 0u64;
            for &id in &ids {
                for k in 0..4u64 {
                    rt.inject(
                        id,
                        Command::StartQuery {
                            qid,
                            key: Id::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        },
                    );
                    qid += 1;
                }
            }
            rt.settle(256);
            let s = rt.stats();
            assert!(s.dropped > 0, "plan must have dropped something");
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "every envelope must land in exactly one bucket"
            );
            rt.shutdown();
        }
    });
}

#[test]
fn drop_without_explicit_shutdown_joins_the_pool() {
    must_finish_within("drop teardown", 60, || {
        for iter in 0..10u64 {
            let rt = Runtime::new(RuntimeConfig::new(4000 + iter).with_workers(4));
            let ids = settled_ring(&rt, 12);
            for (q, &id) in ids.iter().enumerate() {
                rt.inject(
                    id,
                    Command::StartQuery {
                        qid: q as u64,
                        key: Id::new(q as u64 * 31_337),
                    },
                );
            }
            drop(rt); // Drop impl must join all workers
        }
    });
}
