//! `DesDriver`'s deadline index against the machines it indexes.
//!
//! The driver answers `next_timer_round` and picks `tick_timers`' due set
//! from a `TimerIndex` it re-indexes after every call into a machine.
//! The property test replays random command traces under random fault
//! plans and checks both answers, after every step, against a walk over
//! `peer(id).next_deadline()` — the scan the index replaced. The scaling
//! guard checks what the index bought: an idle `settle` no longer costs
//! more on a larger fleet.

use oscar_protocol::{Command, FaultPlan, PeerConfig, ProtocolDriver, ProtocolEvent, RepairPolicy};
use oscar_sim::DesDriver;
use oscar_types::Id;
use proptest::prelude::*;

/// A fleet of `n` peers on a `Bootstrap`-installed ring, queue drained.
fn bootstrapped(n: usize, seed: u64, cfg: PeerConfig, plan: FaultPlan) -> DesDriver {
    let mut des = DesDriver::new_with_faults(seed, cfg, plan);
    let ids: Vec<Id> = (1..=n as u64)
        .map(|i| Id::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    for &id in &ids {
        des.spawn_peer(id);
    }
    let mut sorted = ids;
    sorted.sort_unstable();
    for (k, &id) in sorted.iter().enumerate() {
        let succs: Vec<Id> = (1..=3).map(|j| sorted[(k + j) % n]).collect();
        des.inject(
            id,
            Command::Bootstrap {
                pred: sorted[(k + n - 1) % n],
                succs: succs.clone(),
                known: succs,
            },
        );
    }
    des.settle(0);
    des
}

/// The scan the index replaced: every live machine's earliest deadline,
/// in id order.
fn scanned_deadlines(des: &DesDriver) -> Vec<(Id, u64)> {
    des.peer_ids()
        .into_iter()
        .filter_map(|id| Some((id, des.peer(id)?.next_deadline()?)))
        .collect()
}

fn check_next_round(des: &DesDriver, step: usize) -> TestCaseResult {
    let scanned = scanned_deadlines(des);
    prop_assert_eq!(
        des.next_timer_round(),
        scanned.iter().map(|&(_, d)| d).min(),
        "step {}: index and machines disagree on the next round ({:?})",
        step,
        scanned
    );
    Ok(())
}

/// One timer round, with the peers it ticked checked against the scan:
/// a ticked machine reports `TimedOut` for each deadline that fired, and
/// every scanned-due machine has at least one.
fn check_tick(des: &mut DesDriver, step: usize) -> TestCaseResult {
    let Some(next) = des.next_timer_round() else {
        prop_assert!(
            !des.tick_timers(),
            "step {}: ticked with nobody waiting",
            step
        );
        return Ok(());
    };
    let now = des.round().max(next);
    let expected: Vec<Id> = scanned_deadlines(des)
        .into_iter()
        .filter(|&(_, d)| d <= now)
        .map(|(id, _)| id)
        .collect();
    des.drain_events();
    prop_assert!(des.tick_timers());
    let mut ticked: Vec<Id> = Vec::new();
    for e in des.drain_events() {
        if let ProtocolEvent::TimedOut { peer, .. } = e {
            if ticked.last() != Some(&peer) {
                ticked.push(peer);
            }
        }
    }
    // Equality of the sequences also pins the order: ascending id.
    prop_assert_eq!(
        ticked,
        expected,
        "step {}: wrong peers ticked at round {}",
        step,
        now
    );
    Ok(())
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
        let mut des = bootstrapped(12, seed, cfg, plan);
        check_next_round(&des, 0)?;

        for (step, &(op, arg)) in trace.iter().enumerate() {
            let step = step + 1;
            let live = des.peer_ids();
            if live.is_empty() {
                break;
            }
            let target = live[(arg % live.len() as u64) as usize];
            match op {
                0 => {
                    let joiner = Id::new(arg | 1);
                    if live.binary_search(&joiner).is_err() {
                        des.spawn_peer(joiner);
                        des.inject(joiner, Command::Join { contact: target });
                    }
                }
                1 => {
                    des.inject(target, Command::BuildLinks { walks: 1 + (arg >> 32) as u32 % 3 });
                }
                2 => {
                    let key = Id::new(arg.rotate_left(17));
                    des.inject(target, Command::StartQuery { qid: step as u64, key });
                }
                3 => {
                    des.inject(target, Command::ProbeRing);
                }
                4 => {
                    des.inject(target, Command::Depart);
                }
                5 => {
                    des.remove_peer(target);
                }
                6 => des.advance_to(des.round() + (arg >> 32) % 24),
                7 => {
                    des.settle(0);
                }
                _ => {
                    des.settle(0);
                    check_tick(&mut des, step)?;
                }
            }
            check_next_round(&des, step)?;
        }

        // Whatever the trace left pending runs down to an idle fleet.
        let rounds = ProtocolDriver::settle(&mut des, 4096);
        prop_assert!(rounds < 4096, "the trace left a livelock behind");
        check_next_round(&des, trace.len() + 1)?;
        prop_assert_eq!(des.next_timer_round(), None);
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
/// oracle inside `next_timer_round`, so the guard only means something
/// without debug assertions.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds rescan the fleet as the index's oracle; run with --release"
)]
fn idle_settle_cost_does_not_grow_with_the_fleet() {
    let fleet = |n| bootstrapped(n, 7, PeerConfig::default(), FaultPlan::reliable());
    let small = idle_settle_ns(&mut fleet(500));
    let large = idle_settle_ns(&mut fleet(8_000));
    assert!(
        large < 4.0 * small.max(1.0),
        "an idle settle costs {large:.0} ns at n=8000 against {small:.0} ns at n=500"
    );
}
