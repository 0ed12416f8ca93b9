//! The runtime's deadline index against the machines it indexes.
//!
//! `Runtime::next_timer_round` and `tick_timers` answer from a shared
//! `TimerIndex` that the inject thread and every worker write whenever a
//! machine's earliest deadline moves. These tests read the machines
//! themselves (`with_peer(.., next_deadline)`) and require the index to
//! agree at every quiescent point — after crashes with timers armed,
//! after spawning machines that already carry timers, and after traffic
//! in which several threads re-index at once (the suite the advisory
//! ThreadSanitizer job runs for the index's locking).

use oscar_protocol::machine::peer_seed;
use oscar_protocol::{Command, FaultPlan, PeerConfig, PeerMachine, ProtocolDriver};
use oscar_runtime::{Runtime, RuntimeConfig};
use oscar_types::{Id, SeedTree};

const SEED: u64 = 0x71DE;

/// Every live machine asked for its earliest deadline: what the index
/// must agree with when the network is silent.
fn scanned_deadlines(rt: &Runtime) -> Vec<(Id, u64)> {
    rt.peer_ids()
        .into_iter()
        .filter_map(|id| Some((id, rt.with_peer(id, |m| m.next_deadline())??)))
        .collect()
}

fn assert_index_matches_machines(rt: &Runtime, at: &str) {
    let scanned = scanned_deadlines(rt);
    assert_eq!(
        rt.next_timer_round(),
        scanned.iter().map(|&(_, d)| d).min(),
        "{at}: index and machines disagree on the next round ({scanned:?})"
    );
}

/// A ring of `n` peers under `plan`, installed with `Bootstrap` (joins
/// are covered elsewhere, and would need retries under a lossy plan).
fn ring(workers: usize, n: usize, plan: FaultPlan) -> (Runtime, Vec<Id>) {
    let rt = Runtime::new(
        RuntimeConfig::new(SEED)
            .with_workers(workers)
            .with_fault_plan(plan),
    );
    let ids: Vec<Id> = (1..=n as u64).map(|i| Id::new(i * 1_000)).collect();
    for &id in &ids {
        rt.spawn_peer(id);
    }
    for (k, &id) in ids.iter().enumerate() {
        let succs: Vec<Id> = (1..=3.min(n - 1)).map(|j| ids[(k + j) % n]).collect();
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
    assert_eq!(rt.next_timer_round(), None, "an idle ring waits on nothing");
    (rt, ids)
}

/// Mail to corpses vanishes, so only timers can notice a crash.
fn blackhole() -> FaultPlan {
    FaultPlan::new(0xB1AC).with_blackhole(true)
}

#[test]
fn crashing_a_peer_takes_its_armed_timers_out_of_the_index() {
    let (mut rt, ids) = ring(2, 3, blackhole());
    let (a, b) = (ids[0], ids[1]);
    // With B gone, A's ping to it can never be answered: A's timer is
    // armed for certain, whatever the workers have got to.
    assert!(rt.remove_peer(b));
    rt.inject(a, Command::ProbeRing);
    assert!(
        rt.next_timer_round().is_some(),
        "an unanswerable ping must be waiting on its timer"
    );
    // Crash A with the timer armed and C's pong possibly still in flight.
    assert!(rt.remove_peer(a));
    rt.quiesce();
    // A leaked entry would name a round with nobody to tick, and settle
    // would spin through its whole budget on it.
    assert_eq!(rt.next_timer_round(), None);
    assert_eq!(ProtocolDriver::settle(&mut rt, 64), 0);
    assert_index_matches_machines(&rt, "after the crash");
}

#[test]
fn spawning_a_machine_indexes_the_timers_it_already_carries() {
    let (mut rt, ids) = ring(2, 2, blackhole());
    let b = ids[1];
    let c = Id::new(9_000);
    let mut machine = PeerMachine::new(c, peer_seed(SEED, c), PeerConfig::default());
    let mut rng = SeedTree::new(SEED).rng();
    machine.on_command(
        Command::Bootstrap {
            pred: b,
            succs: vec![b],
            known: vec![b],
        },
        &mut rng,
    );
    // Pings that were never sent: their timers can only expire.
    machine.on_command(Command::ProbeRing, &mut rng);
    let armed = machine.next_deadline();
    assert!(armed.is_some());
    rt.spawn_machine(machine);
    assert_eq!(rt.next_timer_round(), armed);
    assert!(ProtocolDriver::settle(&mut rt, 64) > 0, "the timers fire");
    assert_eq!(rt.next_timer_round(), None);

    // Re-spawning over a waiting peer replaces its index entry too.
    assert!(rt.remove_peer(b));
    rt.inject(c, Command::ProbeRing);
    rt.quiesce();
    assert!(rt.next_timer_round().is_some());
    rt.spawn_peer(c);
    assert_eq!(rt.next_timer_round(), None);
    assert_index_matches_machines(&rt, "after the re-spawn");
}

#[test]
fn index_matches_the_machines_after_many_threads_re_index_at_once() {
    // Lossy and blackholed: queries and probes arm timers on the thread
    // that injects them, workers clear them as replies land, retries move
    // them at every tick — all against one shared index.
    let plan = FaultPlan::new(0x10_55).with_drop(0.15).with_blackhole(true);
    let (rt, ids) = ring(4, 32, plan);
    for &id in &ids {
        rt.inject(id, Command::BuildLinks { walks: 2 });
    }
    rt.settle(64);
    rt.drain_events();

    for wave in 0..6u64 {
        let live = rt.peer_ids();
        let (left, right) = live.split_at(live.len() / 2);
        // Two injecting threads and four workers re-index concurrently,
        // and a crash lands while their traffic is in flight.
        std::thread::scope(|scope| {
            for (half, peers) in [left, right].into_iter().enumerate() {
                let rt = &rt;
                scope.spawn(move || {
                    for (k, &id) in peers.iter().enumerate() {
                        let qid = (wave << 32) | ((half as u64) << 16) | k as u64;
                        let key = Id::new(qid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        rt.inject(id, Command::StartQuery { qid, key });
                        rt.inject(id, Command::ProbeRing);
                    }
                });
            }
            rt.remove_peer(live[(wave as usize * 5) % live.len()]);
        });

        // Every quiescent point of the settle: after the traffic, and
        // after each timer round's retries and give-ups.
        rt.quiesce();
        assert_index_matches_machines(&rt, "after the wave's traffic");
        let mut rounds = 0;
        while rt.tick_timers() {
            rt.quiesce();
            assert_index_matches_machines(&rt, "after a timer round");
            rounds += 1;
            assert!(rounds < 512, "wave {wave} never settled");
        }
        assert!(scanned_deadlines(&rt).is_empty(), "settled means idle");
        rt.drain_events();
    }
}
