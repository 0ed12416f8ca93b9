//! Stress tests for the runtime's scheduling protocol and shutdown path.
//!
//! The scheduling model has a handful of places where a wrong wake-up
//! protocol or a slipped in-flight count means a hang: workers parked
//! beside an empty run queue, workers mid-batch inside an actor, callers
//! inside `quiesce` — running actors themselves, or parked behind
//! messages other threads hold — and mail for a peer that is removed or
//! replaced while it travels. These tests slam the runtime with traffic
//! and pull the plug, or remove or replace a third of the peers,
//! mid-flight, repeatedly, under varying worker counts — every iteration
//! must return, with every envelope in exactly one ledger bucket.

use oscar_protocol::{Command, FaultPlan, PeerConfig, PeerMachine, ProtocolDriver, ProtocolEvent};
use oscar_runtime::{Runtime, RuntimeConfig};
use oscar_types::Id;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Builds a small settled ring so injected traffic actually routes.
fn settled_ring(rt: &Runtime, n: u64) -> Vec<Id> {
    let ids: Vec<Id> = (0..n).map(|i| Id::new((i + 1) * 1_000_003)).collect();
    rt.spawn_peer(ids[0]);
    for &id in &ids[1..] {
        rt.spawn_peer(id);
        rt.inject(id, Command::Join { contact: ids[0] });
        rt.settle(0);
        assert_eq!(rt.with_peer(id, PeerMachine::joined), Some(true));
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
/// no diagnostic. A body that panics finishes too: its own panic is
/// raised here, not reported as a hang.
fn must_finish_within(label: &str, secs: u64, f: impl FnOnce() + Send + 'static) {
    let h = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !h.is_finished() {
        if Instant::now() >= deadline {
            panic!("{label}: did not finish within {secs}s — hang");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if let Err(panic) = h.join() {
        std::panic::resume_unwind(panic);
    }
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
fn inject_after_shutdown_closes_the_transport() {
    // After `shutdown` no thread handles mail. A command still runs on the
    // caller's thread, but its sends are booked `sent` and `dropped` and
    // never queued: were one counted in flight, the next `quiesce` — and
    // every timer round, which quiesces — would wait for it forever.
    must_finish_within("inject after shutdown", 60, || {
        let mut rt = Runtime::new(RuntimeConfig::new(13_000).with_workers(2));
        let (a, b) = (Id::new(100), Id::new(200));
        rt.spawn_peer(a);
        rt.spawn_peer(b);
        rt.inject(b, Command::Join { contact: a });
        rt.settle(0);
        assert_eq!(rt.with_peer(b, PeerMachine::joined), Some(true));
        rt.shutdown();
        let before = rt.stats();
        // `b` owns its own id: one `Query` from `a`, onto a closed transport.
        assert!(rt.inject(a, Command::StartQuery { qid: 1, key: b }));
        rt.quiesce();
        let after = rt.stats();
        assert_eq!(after.sent, before.sent + 1);
        assert_eq!(after.dropped, before.dropped + 1);
        // The query's retries go the same way, and the clock still moves.
        let round = rt.round();
        rt.advance_to(round + 64);
        assert!(rt.round() >= round + 64);
        rt.settle(64);
        let s = rt.stats();
        assert!(s.sent > after.sent, "the query was retried");
        assert_eq!(
            s.sent,
            s.delivered + s.dropped + s.bounced,
            "every envelope must land in exactly one bucket"
        );
        assert_eq!(s.delivered, before.delivered, "nothing is delivered");
    });
}

#[test]
fn remove_after_shutdown_leaves_quiesce_returning() {
    // Mail still queued at `shutdown` was in the in-flight count that
    // `shutdown` zeroed. A peer removed afterwards takes that mail out and
    // books it `dropped`, but must not release it from the count again:
    // the count would wrap, and the next `quiesce` would wait forever.
    must_finish_within("remove after shutdown", 60, || {
        for iter in 0..20u64 {
            let mut rt = Runtime::new(RuntimeConfig::new(14_000 + iter).with_workers(2));
            let ids = settled_ring(&rt, 24);
            inject_storm(&rt, &ids, 8, 0);
            // No quiesce: mail is queued right now.
            rt.shutdown();
            for &id in &ids {
                assert!(rt.remove_peer(id));
            }
            rt.quiesce();
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
            let gossip_round = |rt: &Runtime| {
                for id in rt.peer_ids() {
                    rt.inject(id, Command::GossipTick);
                }
            };
            gossip_round(&rt);
            // Crash a third of the ring while gossip is still in the air.
            for &id in ids.iter().step_by(3) {
                rt.remove_peer(id);
            }
            gossip_round(&rt);
            rt.shutdown();
        }
    });
}

#[test]
fn remove_mid_flight_keeps_the_books() {
    // Crash a third of the ring under a query storm, or replace it with
    // clones of its own machines, with no quiesce in between: mail already
    // queued to a corpse, mail an executor has already taken from it and
    // mail a sender pushes after the change must each be booked `dropped`
    // exactly once, or the in-flight count never returns to zero (or wraps
    // below it) and `quiesce` hangs.
    type Change = fn(&Runtime, Id);
    let changes: [(&str, Change); 2] = [
        ("remove", |rt, id| assert!(rt.remove_peer(id))),
        ("replace", |rt, id| {
            rt.spawn_machine(rt.with_peer(id, PeerMachine::clone).unwrap())
        }),
    ];
    must_finish_within("remove mid-flight", 120, move || {
        for (iter, (label, change)) in (0..100u64).flat_map(|i| changes.map(|c| (i, c))) {
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
                change(&rt, id);
            }
            rt.quiesce();
            let s = rt.stats();
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "iteration {iter} ({label}): every envelope must land in exactly one bucket"
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
    // The storm may be over before the removals land, so after them each
    // corpse's ring predecessor also issues a query keyed at the corpse:
    // its first hop is the corpse, and bounces.
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
            let first_forced = survivors.len() as u64 * PER_PEER;
            for (qid, &corpse) in (first_forced..).zip(&doomed) {
                let k = ids.iter().position(|&id| id == corpse).unwrap();
                let pred = ids[(k + ids.len() - 1) % ids.len()];
                rt.inject(pred, Command::StartQuery { qid, key: corpse });
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
                (0..first_forced + doomed.len() as u64).collect::<Vec<u64>>(),
                "iteration {iter}: one report per query"
            );
            rt.shutdown();
        }
    });
}

#[test]
fn membership_changes_invalidate_every_executors_actor_view() {
    // Every executor resolves targets through its own view of the actor
    // table, kept while the table's epoch stands. Warm each view with a
    // storm, then change membership: a send issued afterwards must see
    // the change. Mail for a removed peer bounces at its sender — through
    // a stale view it would be dropped, and the query never reported —
    // and mail for a peer whose actor was replaced reaches the new actor.
    must_finish_within("actor view invalidation", 120, || {
        for workers in [1, 4] {
            let cfg = PeerConfig {
                query_budget: 64,
                ..PeerConfig::default()
            };
            let rt = Runtime::new(
                RuntimeConfig::new(12_000 + workers as u64)
                    .with_workers(workers)
                    .with_peer_cfg(cfg),
            );
            let ids = settled_ring(&rt, 24);
            const PER_PEER: u64 = 16;
            inject_storm(&rt, &ids, PER_PEER, 0);
            rt.quiesce();
            let mut qid = ids.len() as u64 * PER_PEER;
            assert_eq!(drain_query_reports(&rt).len() as u64, qid);

            // Remove x. One query keyed at x starts at a peer that does not
            // link to x, so an executor makes the hop into x; one starts at
            // x's predecessor, whose first hop is x.
            let (pred, x) = (ids[4], ids[5]);
            let far = *ids
                .iter()
                .find(|&&id| id != x && rt.with_peer(id, |m| !m.neighbors().contains(&x)).unwrap())
                .expect("a peer without a link to x");
            assert!(rt.remove_peer(x));
            for origin in [far, pred] {
                let before = rt.stats();
                rt.inject(origin, Command::StartQuery { qid, key: x });
                rt.quiesce();
                let after = rt.stats();
                assert_eq!(
                    after.bounced,
                    before.bounced + 1,
                    "{workers} workers: x bounces once"
                );
                assert_eq!(
                    after.dropped, before.dropped,
                    "{workers} workers: nothing dropped"
                );
                let reported: Vec<u64> = drain_query_reports(&rt)
                    .into_iter()
                    .map(|(q, _)| q)
                    .collect();
                assert_eq!(reported, [qid], "{workers} workers: one report");
                qid += 1;
            }

            // Warm the views again, then replace every actor with one over
            // a copy of its machine, three times over, each replacement a
            // membership change of its own: mail now goes to the new
            // actors, and a storm loses none of it.
            let survivors: Vec<Id> = ids.iter().copied().filter(|&id| id != x).collect();
            let per_storm = survivors.len() as u64 * PER_PEER;
            inject_storm(&rt, &survivors, PER_PEER, qid);
            rt.quiesce();
            assert_eq!(drain_query_reports(&rt).len() as u64, per_storm);
            qid += per_storm;
            for &y in survivors.iter().cycle().take(3 * survivors.len()) {
                rt.spawn_machine(rt.with_peer(y, PeerMachine::clone).unwrap());
            }
            let before = rt.stats();
            inject_storm(&rt, &survivors, PER_PEER, qid);
            rt.quiesce();
            let after = rt.stats();
            assert_eq!(
                after.dropped, before.dropped,
                "{workers} workers: nothing dropped"
            );
            let reported = drain_query_reports(&rt).len() as u64;
            assert_eq!(
                reported, per_storm,
                "{workers} workers: one report per query"
            );

            // A peer spawned after the views were warmed joins: the
            // welcome an executor sends it arrives. Its contact is the
            // peer just before it, so the request never routes past x.
            let z = Id::new(ids[8].raw() + 1);
            rt.spawn_peer(z);
            rt.inject(z, Command::Join { contact: ids[8] });
            rt.settle(0);
            assert_eq!(
                rt.with_peer(z, PeerMachine::joined),
                Some(true),
                "{workers} workers"
            );
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

#[test]
fn removing_peers_under_hopping_queries_drops_mail_in_hand_once() {
    // A send to an idle peer hands its envelope to the sender's run-next
    // slot instead of the peer's mailbox, so `remove_peer` cannot see it.
    // Remove a third of the ring, a peer at a time, while query waves
    // hop through it: an envelope in hand for a corpse must be booked
    // `dropped` once by the executor that finds the corpse, never handled
    // and never counted by `remove_peer`. A double booking unbalances the
    // ledger; a missed one strands the in-flight count and `settle`
    // hangs; a handled one would complete a query at a corpse twice.
    must_finish_within("removal under hopping queries", 120, || {
        let mut dropped = 0;
        for iter in 0..40u64 {
            let cfg = PeerConfig {
                query_budget: 64,
                ..PeerConfig::default()
            };
            let mut rt = Runtime::new(
                RuntimeConfig::new(13_000 + iter)
                    .with_workers(1 + (iter as usize % 4))
                    .with_peer_cfg(cfg),
            );
            let ids = settled_ring(&rt, 30);
            const PER_PEER: u64 = 8;
            let mut qid = 0;
            for &corpse in ids.iter().step_by(3) {
                let live = rt.peer_ids();
                inject_storm(&rt, &live, PER_PEER, qid);
                qid += live.len() as u64 * PER_PEER;
                assert!(rt.remove_peer(corpse));
            }
            rt.settle(256);
            let s = rt.stats();
            assert_eq!(
                s.sent,
                s.delivered + s.dropped + s.bounced,
                "iteration {iter}: every envelope must land in exactly one bucket"
            );
            // A query whose origin was removed later has nobody to report
            // to; every other query reports exactly once.
            let reported: Vec<u64> = drain_query_reports(&rt)
                .into_iter()
                .map(|(q, _)| q)
                .collect();
            assert!(
                reported.windows(2).all(|w| w[0] < w[1]),
                "iteration {iter}: a query reported twice"
            );
            assert!(reported.iter().all(|&q| q < qid));
            dropped += s.dropped;
            rt.shutdown();
        }
        assert!(dropped > 0, "no mail for a corpse was ever dropped");
    });
}

/// Two peers on one ring: `a` at 100 and `b` at 200, each the other's
/// predecessor and successor, so `b` owns the keys in (100, 200].
/// Installed by `Bootstrap`, which sends nothing.
fn two_peer_ring(rt: &Runtime) -> (Id, Id) {
    let (a, b) = (Id::new(100), Id::new(200));
    for (id, other) in [(a, b), (b, a)] {
        rt.spawn_peer(id);
        rt.inject(
            id,
            Command::Bootstrap {
                pred: other,
                succs: vec![other],
                known: vec![other],
            },
        );
    }
    (a, b)
}

#[test]
fn one_step_sends_to_an_idle_peer_are_handled_in_send_order() {
    // One timer step of `a` retries two queries, and both go to `b`,
    // which is idle: the first send finds `b` idle and hands the envelope
    // on, the second queues in `b`'s mailbox. The tick is injected, and
    // `inject` runs no actor, so it must put the handed envelope back at
    // the head of `b`'s mailbox, not behind the second. `b` owns both
    // keys and reports each to `a` in the order it handled them. That is
    // the same pattern inside a run: `b`'s run sends both reports to idle
    // `a`, the first handed to its executor's run-next slot and the
    // second queued, and `a` must handle the handed one first. So `a`
    // completes query 1 before query 2 only if both hand-offs keep send
    // order.
    must_finish_within("send order through the hand-off", 60, || {
        for workers in 1..=4 {
            // Blackholed: the first attempts vanish while `b` is away, so
            // both queries wait on one retry deadline.
            let plan = FaultPlan::new(14_000).with_blackhole(true);
            let rt = Runtime::new(
                RuntimeConfig::new(14_000 + workers as u64)
                    .with_workers(workers)
                    .with_fault_plan(plan),
            );
            let (a, b) = two_peer_ring(&rt);
            let away = rt.with_peer(b, PeerMachine::clone).unwrap();
            assert!(rt.remove_peer(b));
            for (qid, key) in [(1, 150), (2, 160)] {
                let key = Id::new(key);
                rt.inject(a, Command::StartQuery { qid, key });
            }
            rt.quiesce();
            assert!(drain_query_reports(&rt).is_empty());
            rt.spawn_machine(away);
            rt.settle(64);
            let done: Vec<u64> = rt
                .drain_events()
                .into_iter()
                .filter_map(|e| match e {
                    ProtocolEvent::QueryCompleted(r) => {
                        assert_eq!(r.dest, Some(b), "{workers} workers");
                        Some(r.qid)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(done, [1, 2], "{workers} workers: handled out of send order");
        }
    });
}

#[test]
fn duplicated_sends_keep_the_mailbox_and_both_copies_are_handled() {
    // A fault-plan duplicate never takes the hand-off: both copies go
    // through the target's mailbox, back to back, and both are handled
    // (the second only to be suppressed by the machine's dedup window).
    // Duplicating every send, nothing may be lost: each envelope is
    // delivered, and each query reported once.
    must_finish_within("duplicates through the mailbox", 60, || {
        for workers in 1..=4 {
            let plan = FaultPlan::new(15_000).with_duplication(1.0);
            let rt = Runtime::new(
                RuntimeConfig::new(15_000 + workers as u64)
                    .with_workers(workers)
                    .with_fault_plan(plan),
            );
            let (a, b) = two_peer_ring(&rt);
            rt.quiesce();
            for qid in 0..64u64 {
                let (origin, key) = if qid % 2 == 0 { (a, 150) } else { (b, 50) };
                rt.inject(
                    origin,
                    Command::StartQuery {
                        qid,
                        key: Id::new(key),
                    },
                );
            }
            rt.quiesce();
            let s = rt.stats();
            assert!(s.duplicated > 0, "{workers} workers: plan must duplicate");
            assert_eq!(
                s.sent,
                2 * s.duplicated,
                "{workers} workers: every send doubled"
            );
            assert_eq!(
                (s.delivered, s.dropped, s.bounced),
                (s.sent, 0, 0),
                "{workers} workers: both copies of every send handled"
            );
            let reported: Vec<u64> = drain_query_reports(&rt)
                .into_iter()
                .map(|(q, _)| q)
                .collect();
            assert_eq!(reported, (0..64).collect::<Vec<u64>>(), "{workers} workers");
        }
    });
}
