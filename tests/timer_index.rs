//! Both drivers' clocks against the machines they index.
//!
//! Each driver re-indexes its `TimerIndex` after every call into a
//! machine, and both run the same `Rounds` loop on it. Every case here is
//! generic over the driver and runs on the DES and on the runtime: it
//! reads the machines themselves (`deadline_scan`) and requires the index
//! to agree at rest — after crashes with timers armed, after spawning
//! machines that carry timers, after `advance_to`, and after every step of
//! random traces under random fault plans. The runtime alone adds several
//! threads re-indexing at once (run under the advisory ThreadSanitizer
//! job); the DES alone guards that an idle `settle` does not cost more on a
//! larger fleet.

#[path = "support/timers.rs"]
mod timers;

use oscar::protocol::driver::deadline_scan;
use oscar::protocol::machine::peer_seed;
use oscar::protocol::{
    Command, FaultPlan, PeerConfig, PeerMachine, ProtocolDriver, RepairPolicy, Rounds,
};
use oscar::runtime::{Runtime, RuntimeConfig};
use oscar::sim::DesDriver;
use oscar::types::{Id, SeedTree};
use proptest::prelude::*;
use timers::{check_next_round, rest, ring, run_trace, Clocked};

const SEED: u64 = 0x71DE;

/// Both drivers under a plan that makes mail to corpses vanish, so only
/// timers can notice a crash; the runtime at 2 workers.
fn blackholed() -> (DesDriver, Runtime) {
    let plan = FaultPlan::new(0xB1AC).with_blackhole(true);
    let rt = RuntimeConfig::new(SEED).with_workers(2);
    let des = DesDriver::new_with_faults(SEED, PeerConfig::default(), plan.clone());
    (des, Runtime::new(rt.with_fault_plan(plan)))
}

fn crashing_takes_armed_timers_out<D: Clocked>(mut driver: D, name: &str) {
    let ids = ring(&mut driver, 3);
    let (a, b) = (ids[0], ids[1]);
    // With B gone, A's ping to it can never be answered: A's timer is
    // armed for certain, whatever the runtime's workers have got to.
    driver.remove_peer(b);
    driver.inject(a, Command::ProbeRing);
    assert!(
        driver.rounds().next_timer_round().is_some(),
        "{name}: an unanswerable ping must be waiting on its timer"
    );
    // Crash A with the timer armed and C's pong possibly still in flight.
    driver.remove_peer(a);
    rest(&mut driver);
    // A leaked entry would name a round with nobody to tick, and settle
    // would spin through its whole budget on it.
    assert_eq!(driver.rounds().next_timer_round(), None, "{name}");
    assert_eq!(driver.settle(64), 0, "{name}");
    check_next_round(&mut driver, name).unwrap();
}

#[test]
fn crashing_a_peer_takes_its_armed_timers_out_of_the_index() {
    let (des, rt) = blackholed();
    crashing_takes_armed_timers_out(des, "DES");
    crashing_takes_armed_timers_out(rt, "runtime");
}

fn spawning_indexes_carried_timers<D: Clocked>(mut driver: D, name: &str) {
    let ids = ring(&mut driver, 2);
    let b = ids[1];
    let c = Id::new(9_000);
    let mut machine = PeerMachine::new(c, peer_seed(SEED, c), PeerConfig::default());
    let mut rng = SeedTree::new(SEED).rng();
    let (pred, succs, known) = (b, vec![b], vec![b]);
    machine.on_command(Command::Bootstrap { pred, succs, known }, &mut rng);
    // Pings that were never sent: their timers can only expire.
    machine.on_command(Command::ProbeRing, &mut rng);
    let armed = machine.next_deadline();
    assert!(armed.is_some());
    driver.rounds().spawn_machine(machine);
    assert_eq!(driver.rounds().next_timer_round(), armed, "{name}");
    assert!(driver.settle(64) > 0, "{name}: the timers fire");
    assert_eq!(driver.rounds().next_timer_round(), None, "{name}");

    // Re-spawning over a waiting peer replaces its index entry too.
    driver.remove_peer(b);
    driver.inject(c, Command::ProbeRing);
    rest(&mut driver);
    assert!(driver.rounds().next_timer_round().is_some(), "{name}");
    driver.spawn_peer(c);
    assert_eq!(driver.rounds().next_timer_round(), None, "{name}");
    check_next_round(&mut driver, name).unwrap();
}

#[test]
fn spawning_a_machine_indexes_the_timers_it_already_carries() {
    let (des, rt) = blackholed();
    spawning_indexes_carried_timers(des, "DES");
    spawning_indexes_carried_timers(rt, "runtime");
}

/// `advance_to(r)` slices time at `r`: afterwards the round is at least
/// `r`, nothing is pending at or before `r`, and every deadline that lay
/// beyond `r` is still pending. Two pairs, each prober pinging a corpse,
/// keep retry deadlines on the clock for several rounds; the probers
/// share no peer, so neither's ticks move the other's deadlines.
fn advance_to_stops_at_its_round<D: Clocked>(mut driver: D, name: &str) {
    let ids = [100, 200, 300, 400].map(Id::new);
    for (id, pred) in ids.into_iter().zip([200, 100, 400, 300].map(Id::new)) {
        let (succs, known) = (vec![pred], vec![pred]);
        driver.spawn_peer(id);
        driver.inject(id, Command::Bootstrap { pred, succs, known });
    }
    driver.settle(0);
    driver.remove_peer(ids[1]);
    driver.remove_peer(ids[3]);
    driver.inject(ids[0], Command::ProbeRing);
    driver.advance_to(driver.round() + 1);
    driver.inject(ids[2], Command::ProbeRing);

    let mut r = driver.round();
    while driver.rounds().next_timer_round().is_some() {
        let mut later = deadline_scan(&driver);
        later.retain(|&(_, d)| d > r);
        driver.advance_to(r);
        let (round, next) = (driver.round(), driver.rounds().next_timer_round());
        let sliced = round >= r && next.is_none_or(|d| d > r);
        assert!(sliced, "{name}: at {round} after {r}, next {next:?}");
        let pending = deadline_scan(&driver);
        let kept = later.iter().all(|entry| pending.contains(entry));
        assert!(kept, "{name}: advancing to {r} fired some of {later:?}");
        r += 1;
        assert!(r < 1_000, "{name}: the probers never gave up");
    }
    driver.advance_to(r + 10);
    assert_eq!(driver.round(), r + 10, "{name}: an idle clock still moves");
}

#[test]
fn advance_to_fires_what_is_due_and_keeps_what_is_later() {
    let (des, rt) = blackholed();
    advance_to_stops_at_its_round(des, "DES");
    advance_to_stops_at_its_round(rt, "runtime");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn index_matches_a_scan_of_the_machines_after_every_step(
        seed in any::<u64>(),
        faults in (0.0f64..0.3, 0.0f64..0.2, 0u64..4, any::<bool>()),
        trace in prop::collection::vec((0u8..9, any::<u64>()), 1..80),
    ) {
        let (drop, dup, jitter, blackhole) = faults;
        let plan = FaultPlan::new(seed ^ 0xFA17)
            .with_drop(drop)
            .with_duplication(dup)
            .with_delay_jitter(jitter)
            .with_blackhole(blackhole);
        let cfg = PeerConfig {
            repair: RepairPolicy::ReactiveK { k: 2 },
            ..PeerConfig::default()
        };
        let mut des = DesDriver::new_with_faults(seed, cfg.clone(), plan.clone());
        run_trace(&mut des, &trace, "DES")?;
        let rt = RuntimeConfig::new(seed).with_workers(2).with_peer_cfg(cfg);
        run_trace(&mut Runtime::new(rt.with_fault_plan(plan)), &trace, "runtime")?;
    }
}

#[test]
fn index_matches_the_machines_after_many_threads_re_index_at_once() {
    // Lossy and blackholed: queries and probes arm timers on the thread
    // that injects them, workers clear them as replies land, retries move
    // them at every tick — all against one shared index.
    let plan = FaultPlan::new(0x10_55).with_drop(0.15).with_blackhole(true);
    let mut rt = Runtime::new(
        RuntimeConfig::new(SEED)
            .with_workers(4)
            .with_fault_plan(plan),
    );
    ring(&mut rt, 32);
    for id in rt.peer_ids() {
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
        check_next_round(&mut rt, "after the wave's traffic").unwrap();
        let mut rounds = 0;
        while rt.rounds().tick_timers() {
            check_next_round(&mut rt, "after a timer round").unwrap();
            rounds += 1;
            assert!(rounds < 512, "wave {wave} never settled");
        }
        assert!(deadline_scan(&rt).is_empty(), "settled means idle");
        rt.drain_events();
    }
}

/// Min-of-`k` cost of one idle `settle`, in nanoseconds per call.
fn idle_settle_ns(des: &mut DesDriver) -> f64 {
    const CALLS: u32 = 2_000;
    ProtocolDriver::settle(des, 4096);
    (0..15)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(ProtocolDriver::settle(std::hint::black_box(des), 4096));
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The scan made an idle settle 16× dearer on a 16× larger fleet; the
/// index must keep it flat. Debug builds keep the scan as the index's
/// oracle inside every timer round, so the guard only means something
/// without debug assertions.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds rescan the fleet as the index's oracle; run with --release"
)]
fn idle_settle_cost_does_not_grow_with_the_fleet() {
    let fleet = |n| {
        let mut des = DesDriver::new(7, PeerConfig::default());
        ring(&mut des, n);
        des
    };
    let small = idle_settle_ns(&mut fleet(500));
    let large = idle_settle_ns(&mut fleet(8_000));
    assert!(
        large < 4.0 * small.max(1.0),
        "an idle settle costs {large:.0} ns at n=8000 against {small:.0} ns at n=500"
    );
}
