//! What the timer tests drive both drivers through: the seam, each
//! driver's [`Rounds`] — on `&mut DesDriver`, on `&Runtime` — and the
//! random command trace the clock is checked against after every step.

use oscar::protocol::driver::deadline_scan;
use oscar::protocol::{Command, ProtocolDriver, ProtocolEvent, Rounds};
use oscar::runtime::Runtime;
use oscar::sim::DesDriver;
use oscar::types::Id;
use proptest::prelude::*;

/// A driver whose timer rounds a test runs by hand.
pub trait Clocked: ProtocolDriver {
    /// Whether a timer round's ticks run with no delivery between them.
    /// On the runtime the workers deliver a tick's traffic while later
    /// ticks are still being injected, and that traffic may settle a later
    /// due peer's operation before its own tick lands.
    const TICKS_ALONE: bool;

    fn rounds(&mut self) -> impl Rounds + '_;
}

impl Clocked for DesDriver {
    const TICKS_ALONE: bool = true;

    fn rounds(&mut self) -> impl Rounds + '_ {
        self
    }
}

impl Clocked for Runtime {
    const TICKS_ALONE: bool = false;

    fn rounds(&mut self) -> impl Rounds + '_ {
        &*self
    }
}

/// Brings the fleet to rest, where its clock must agree with a scan of
/// its machines: the DES is there between any two calls, the runtime
/// quiesces.
pub fn rest<D: Clocked>(driver: &mut D) {
    let mut rounds = driver.rounds();
    if rounds.at_rest().is_none() {
        rounds.quiesce();
    }
}

/// Puts `n` peers on a `Bootstrap`-installed ring (joins are covered
/// elsewhere, and would need retries under a lossy plan) and settles it.
/// Returns the ids, sorted.
pub fn ring<D: Clocked>(driver: &mut D, n: usize) -> Vec<Id> {
    let mut ids: Vec<Id> = (1..=n as u64)
        .map(|i| Id::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    ids.iter().for_each(|&id| driver.spawn_peer(id));
    ids.sort_unstable();
    for (k, &id) in ids.iter().enumerate() {
        let succs: Vec<Id> = (1..=3.min(n - 1)).map(|j| ids[(k + j) % n]).collect();
        let pred = ids[(k + n - 1) % n];
        let known = succs.clone();
        driver.inject(id, Command::Bootstrap { pred, succs, known });
    }
    driver.settle(0);
    ids
}

/// At rest, the next timer round is the earliest deadline a scan of the
/// machines finds.
pub fn check_next_round<D: Clocked>(driver: &mut D, at: &str) -> TestCaseResult {
    rest(driver);
    let scanned = deadline_scan(driver);
    prop_assert_eq!(
        driver.rounds().next_timer_round(),
        scanned.iter().map(|&(_, d)| d).min(),
        "{}: index and machines disagree on the next round ({:?})",
        at,
        scanned
    );
    Ok(())
}

/// One timer round, with the peers it ticked checked against the scan:
/// a ticked machine reports `TimedOut` for each deadline that fired, and
/// every scanned-due machine has at least one, in ascending id order.
/// Where deliveries run beside the ticks, the ticked are an ordered part
/// of the due.
fn check_tick<D: Clocked>(driver: &mut D, at: &str) -> TestCaseResult {
    let Some(next) = driver.rounds().next_timer_round() else {
        prop_assert!(!driver.rounds().tick_timers(), "{}: ticked idle", at);
        return Ok(());
    };
    let now = driver.round().max(next);
    let scan = deadline_scan(driver).into_iter();
    let due: Vec<Id> = scan.filter(|&(_, d)| d <= now).map(|(id, _)| id).collect();
    driver.drain_events();
    prop_assert!(driver.rounds().tick_timers());
    let mut ticked: Vec<Id> = Vec::new();
    for e in driver.drain_events() {
        if let ProtocolEvent::TimedOut { peer, .. } = e {
            if ticked.last() != Some(&peer) {
                ticked.push(peer);
            }
        }
    }
    let mut left = due.iter();
    let in_order = ticked.iter().all(|t| left.any(|d| d == t));
    prop_assert!(
        in_order && (ticked.len() == due.len() || !D::TICKS_ALONE),
        "{}: ticked {:?} at round {}, due {:?}",
        at,
        ticked,
        now,
        due
    );
    Ok(())
}

/// Replays `trace` on a 12-peer ring: each `(op, arg)` is a join, a link
/// build, a query, a ring probe, a departure, a crash, an `advance_to`, a
/// `settle(0)`, or a settle and one checked timer round. The next timer
/// round is checked against a scan after every step, and whatever the
/// trace left pending must run down to an idle fleet.
pub fn run_trace<D: Clocked>(driver: &mut D, trace: &[(u8, u64)], name: &str) -> TestCaseResult {
    ring(driver, 12);
    check_next_round(driver, name)?;
    for (step, &(op, arg)) in trace.iter().enumerate() {
        let at = format!("{name}, step {}", step + 1);
        let live = driver.peer_ids();
        let Some(&target) = live.get((arg % live.len().max(1) as u64) as usize) else {
            break;
        };
        match op {
            0 if live.binary_search(&Id::new(arg | 1)).is_err() => {
                driver.spawn_peer(Id::new(arg | 1));
                driver.inject(Id::new(arg | 1), Command::Join { contact: target });
            }
            1 => {
                let walks = 1 + (arg >> 32) as u32 % 3;
                driver.inject(target, Command::BuildLinks { walks });
            }
            2 => {
                let (qid, key) = (step as u64 + 1, Id::new(arg.rotate_left(17)));
                driver.inject(target, Command::StartQuery { qid, key });
            }
            3 => driver.inject(target, Command::ProbeRing),
            4 => driver.inject(target, Command::Depart),
            5 => driver.remove_peer(target),
            6 => driver.advance_to(driver.round() + (arg >> 32) % 24),
            7 => {
                driver.settle(0);
            }
            8 => {
                driver.settle(0);
                check_tick(driver, &at)?;
            }
            _ => {}
        }
        check_next_round(driver, &at)?;
    }
    prop_assert!(driver.settle(4096) < 4096, "{}: a livelock", name);
    check_next_round(driver, name)?;
    prop_assert_eq!(driver.rounds().next_timer_round(), None);
    Ok(())
}
