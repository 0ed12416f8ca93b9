//! The driver abstraction: what a world must offer to host machines.
//!
//! Both execution worlds — the discrete-event simulator in `oscar-sim`
//! and the threaded actor runtime in `oscar-runtime` — move the same
//! [`PeerMachine`] envelopes; they differ only in *when* (virtual FIFO
//! rounds vs real threads) and *where* (one queue vs one mailbox per
//! actor). [`ProtocolDriver`] is the one surface a harness or a test
//! drives a fleet through and reads it by: the churn engine's machine
//! world runs Poisson join/crash/depart through either driver and gets
//! the same window statistics, and every DES-vs-runtime test is one
//! generic function run on both.
//!
//! The trait lives here (not in a driver crate) so both worlds can
//! implement it without a dependency cycle: `oscar-sim` and
//! `oscar-runtime` already depend on `oscar-protocol`. So does time:
//! [`TimerIndex`] is a driver's clock, and [`Rounds`] the one timer-round
//! loop both drivers run on it.

use crate::message::{Command, ProtocolEvent};
use crate::PeerMachine;
use oscar_types::Id;
use std::collections::BTreeSet;
use std::ops::DerefMut;

/// A world that can host peer machines and move their envelopes.
///
/// Time model: drivers expose a monotone *round* counter — the DES
/// equates it with timer rounds on its virtual clock, the threaded
/// runtime ticks it at quiescent points. The churn engine's machine
/// world paces itself with [`ProtocolDriver::settle`] alone;
/// [`ProtocolDriver::advance_to`] and [`ProtocolDriver::round`] are for
/// callers that slice time themselves (the fault sweep advances each
/// cell to its cloned fleet's build round and reads the counter; driver
/// tests and the benchmark's tracing wrapper advance it too).
/// Both drivers run `settle` and `advance_to` as [`Rounds`]' loops.
///
/// A join is [`spawn_peer`](ProtocolDriver::spawn_peer), an
/// `inject(joiner, Command::Join { contact })` and `settle(0)`; whether it
/// completed is `with_peer(joiner, PeerMachine::joined)`, which drains no
/// event.
///
/// Both drivers also keep inherent methods beside these traits:
/// - the ones the benchmark package calls without the traits in scope
///   (`DesDriver::{peer, run_until_settled, delivered}`, the runtime's
///   `quiesce` and `stats`, and the inherent twins of the methods here);
/// - the runtime's `settle`/`advance_to`/`round` take `&self`, because
///   the runtime is `Sync` and its stress tests call them from several
///   threads at once.
pub trait ProtocolDriver {
    /// Adds a fresh, unjoined machine for `id`, replacing any machine
    /// already under it; the replaced machine's armed timers go with it.
    fn spawn_peer(&mut self, id: Id);

    /// Removes `id` abruptly (a crash): undelivered and future messages
    /// to it bounce back to their senders as delivery failures.
    fn remove_peer(&mut self, id: Id);

    /// Enqueues a local command to `id`'s machine.
    fn inject(&mut self, id: Id, cmd: Command);

    /// Delivers messages and fires timers until every machine is idle or
    /// `max_rounds` timer rounds have elapsed. Returns the number of
    /// timer rounds consumed.
    fn settle(&mut self, max_rounds: u64) -> u64;

    /// Advances the round counter to at least `round`, delivering
    /// messages and firing due timers along the way.
    fn advance_to(&mut self, round: u64);

    /// The current round counter.
    fn round(&self) -> u64;

    /// Ids of all live machines, sorted.
    fn peer_ids(&self) -> Vec<Id>;

    /// Drains protocol events accumulated across all machines since the
    /// last drain, in a deterministic order.
    fn drain_events(&mut self) -> Vec<ProtocolEvent>;

    /// Total messages sent so far (the maintenance-traffic meter).
    fn sent(&self) -> u64;

    /// [`ProtocolEvent::Fault`] occurrences observed so far. Unlike
    /// drained events this is a lifetime counter: harnesses gate runs on
    /// it staying zero.
    fn fault_count(&self) -> u64;

    /// Runs `f` against `id`'s machine; `None` when no machine is under
    /// `id`. `f` must not call back into the driver: the runtime holds
    /// the peer's lock while `f` runs, and its `quiesce` (so `settle`,
    /// `advance_to`) may run that peer on the calling thread.
    ///
    /// The default answers `None` for every id, so a wrapper driver
    /// that does not forward it still builds.
    fn with_peer<T>(&self, id: Id, f: impl FnOnce(&PeerMachine) -> T) -> Option<T> {
        let _ = (id, f);
        None
    }
}

/// The timer round, once for both drivers: deliver until silent, move
/// the clock to the earliest deadline, tick the peers due there in [`Id`]
/// order, repeat. Ticking only at quiescent points makes an expired
/// deadline a genuine loss, never a reply still in flight.
///
/// Each driver supplies the moves on a borrow of itself (`&mut DesDriver`,
/// `&Runtime`) and gets the loops. They stay off [`ProtocolDriver`], which
/// a wrapper driver implements method by method and which owns no clock.
/// Debug builds check the clock against a scan of the machines at every
/// call here that finds the fleet at rest.
pub trait Rounds {
    /// The driver the debug oracle reads the machines through.
    type Fleet: ProtocolDriver;

    /// Delivers messages until none is in flight.
    fn quiesce(&mut self);

    /// The driver's clock.
    fn clock(&mut self) -> impl DerefMut<Target = TimerIndex> + '_;

    /// Adds a pre-built machine, replacing any machine already under its
    /// id; timers the machine already carries are indexed.
    fn spawn_machine(&mut self, machine: PeerMachine);

    /// Injects `Command::TimerTick { now }` into each of `due`, in order.
    fn tick(&mut self, due: Vec<Id>, now: u64);

    /// The fleet when every machine has finished its last step: always on
    /// the DES, at quiescent points on the runtime.
    fn at_rest(&self) -> Option<&Self::Fleet>;

    /// The earliest pending deadline across all machines, if any.
    fn next_timer_round(&mut self) -> Option<u64> {
        check_clock(self);
        self.clock().earliest()
    }

    /// Moves the clock to the earliest pending deadline and ticks every
    /// machine due there; false when nobody is waiting. Call only at a
    /// quiescent point.
    fn tick_timers(&mut self) -> bool {
        check_clock(self);
        let Some((now, due)) = self.clock().advance() else {
            return false;
        };
        self.tick(due, now);
        true
    }

    /// Alternates quiescence with timer rounds until every pending
    /// operation resolved (completion, retry success or graceful give-up)
    /// or `max_rounds` timer rounds elapsed; returns the rounds consumed.
    fn run_until_settled(&mut self, max_rounds: u64) -> u64 {
        self.quiesce();
        let mut rounds = 0;
        while rounds < max_rounds && self.tick_timers() {
            self.quiesce();
            rounds += 1;
        }
        rounds
    }

    /// Moves the clock to at least `round`, firing every deadline up to
    /// it, each followed by the traffic it provokes. Later deadlines stay
    /// pending.
    fn run_to_round(&mut self, round: u64) {
        self.quiesce();
        while self.next_timer_round().is_some_and(|d| d <= round) {
            self.tick_timers();
            self.quiesce();
        }
        self.clock().advance_to(round);
    }
}

/// Every live machine's earliest deadline, in [`Id`] order, read through
/// the seam: what a driver's clock holds whenever its fleet is at rest.
pub fn deadline_scan<D: ProtocolDriver>(driver: &D) -> Vec<(Id, u64)> {
    let deadline = |id| driver.with_peer(id, PeerMachine::next_deadline);
    let scan = driver.peer_ids().into_iter();
    scan.filter_map(|id| Some((id, deadline(id)??))).collect()
}

/// The debug oracle of [`Rounds`]: at rest, the clock holds exactly the
/// deadlines a scan of the machines finds. Release builds never scan.
fn check_clock<R: Rounds + ?Sized>(rounds: &mut R) {
    debug_assert!(
        (rounds.at_rest().map(deadline_scan)).is_none_or(|scan| rounds.clock().holds(&scan)),
        "timer index out of step with the machines"
    );
}

/// A driver's clock: the timer round, and one `(deadline, peer)` entry
/// per machine waiting on a timer.
///
/// A driver re-indexes a peer with [`TimerIndex::set`] whenever it has run
/// (or added or removed) that peer's machine, passing the machine's
/// [`next_deadline`](crate::PeerMachine::next_deadline) and the deadline
/// it indexed last time, which it keeps beside the machine to skip the
/// steps that leave it where it was. [`TimerIndex::advance`] then finds
/// who is due in O(due · log n), where asking every machine was O(n) per
/// round. The set is ordered: nothing read from it depends on hash order.
#[derive(Clone, Debug, Default)]
pub struct TimerIndex {
    /// One `(deadline, peer)` entry per waiting peer, earliest first.
    by_deadline: BTreeSet<(u64, Id)>,
    /// The current timer round; it never moves back.
    round: u64,
}

impl TimerIndex {
    /// An empty index at round 0: nobody is waiting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves `id`'s entry from `old` — the deadline the caller indexed
    /// for it last, `None` if it was not waiting — to `new`, its earliest
    /// pending deadline now; `None` takes `id` out of the index (its
    /// operations completed, or the peer is gone). `old == new` is a
    /// no-op, and inlined so a caller pays nothing for a step that left
    /// the deadline where it was.
    #[inline]
    pub fn set(&mut self, id: Id, old: Option<u64>, new: Option<u64>) {
        if old == new {
            return;
        }
        if let Some(o) = old {
            let was_indexed = self.by_deadline.remove(&(o, id));
            debug_assert!(was_indexed, "{id:?} was not indexed at {o}");
        }
        if let Some(d) = new {
            self.by_deadline.insert((d, id));
        }
    }

    /// The current timer round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Moves the round to the earliest indexed deadline, if that is later,
    /// and returns it with the peers due; `None` when nobody is waiting.
    pub fn advance(&mut self) -> Option<(u64, Vec<Id>)> {
        self.round = self.round.max(self.earliest()?);
        Some((self.round, self.due(self.round)))
    }

    /// Moves the round to `round`, if that is later.
    pub fn advance_to(&mut self, round: u64) {
        self.round = self.round.max(round);
    }

    /// The earliest indexed deadline; `None` when nobody is waiting.
    fn earliest(&self) -> Option<u64> {
        self.by_deadline.first().map(|&(deadline, _)| deadline)
    }

    /// The peers whose indexed deadline is at or before `now`, in
    /// ascending [`Id`] order whatever their deadlines — the order a
    /// sorted walk over the fleet would find them in. Drivers inject
    /// `TimerTick` in this order, and injection order is enqueue order,
    /// so the order is part of every seeded outcome.
    fn due(&self, now: u64) -> Vec<Id> {
        let mut due: Vec<Id> = self
            .by_deadline
            .range(..=(now, Id::MAX))
            .map(|&(_, id)| id)
            .collect();
        due.sort_unstable();
        due
    }

    /// Whether the index holds exactly the `(peer, deadline)` pairs of
    /// `scan`.
    fn holds(&self, scan: &[(Id, u64)]) -> bool {
        let held = |&(id, d): &(Id, u64)| self.by_deadline.contains(&(d, id));
        self.by_deadline.len() == scan.len() && scan.iter().all(held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> Id {
        Id::new(raw)
    }

    #[test]
    fn set_moves_and_clears_one_entry_per_peer() {
        let mut idx = TimerIndex::new();
        assert_eq!(idx.earliest(), None);

        idx.set(id(7), None, Some(40));
        idx.set(id(3), None, Some(25));
        assert_eq!(idx.earliest(), Some(25));

        // Moving takes the peer's single entry along, later or earlier.
        idx.set(id(3), Some(25), Some(90));
        assert_eq!(idx.earliest(), Some(40));
        assert_eq!(idx.due(89), vec![id(7)], "the old entry for 3 is gone");
        idx.set(id(3), Some(90), Some(10));
        assert_eq!(idx.earliest(), Some(10));

        // Re-setting the indexed deadline changes nothing.
        idx.set(id(3), Some(10), Some(10));
        assert_eq!(idx.due(u64::MAX), vec![id(3), id(7)]);

        idx.set(id(3), Some(10), None);
        assert_eq!(idx.earliest(), Some(40));
        idx.set(id(7), Some(40), None);
        assert_eq!(idx.earliest(), None);
        assert!(idx.due(u64::MAX).is_empty());
    }

    #[test]
    fn clearing_a_peer_that_was_not_waiting_is_a_no_op() {
        let mut idx = TimerIndex::new();
        idx.set(id(1), None, None);
        assert_eq!(idx.earliest(), None);
        idx.set(id(2), None, Some(5));
        idx.set(id(1), None, None);
        assert_eq!(idx.due(u64::MAX), vec![id(2)]);
        assert_eq!(idx.earliest(), Some(5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "was not indexed at 9")]
    fn a_wrong_old_deadline_is_caught_in_debug_builds() {
        let mut idx = TimerIndex::new();
        idx.set(id(1), None, Some(5));
        idx.set(id(1), Some(9), Some(12));
    }

    #[test]
    fn due_is_id_ordered_whatever_the_deadline_order() {
        let mut idx = TimerIndex::new();
        // Deadlines descend as ids ascend, plus a tie and a late one.
        idx.set(id(10), None, Some(30));
        idx.set(id(20), None, Some(20));
        idx.set(id(30), None, Some(10));
        idx.set(id(40), None, Some(10));
        idx.set(id(5), None, Some(31));
        assert_eq!(idx.due(9), Vec::<Id>::new());
        assert_eq!(idx.due(10), vec![id(30), id(40)]);
        assert_eq!(idx.due(20), vec![id(20), id(30), id(40)]);
        assert_eq!(idx.due(30), vec![id(10), id(20), id(30), id(40)]);
        assert_eq!(idx.due(31), vec![id(5), id(10), id(20), id(30), id(40)]);
        // Reading does not consume: the driver clears by re-indexing.
        assert_eq!(idx.due(31).len(), 5);
    }

    #[test]
    fn advance_moves_the_round_forward_to_the_earliest_deadline() {
        let mut idx = TimerIndex::new();
        assert_eq!(idx.advance(), None);
        assert_eq!(idx.round(), 0);
        idx.set(id(2), None, Some(5));
        idx.set(id(1), None, Some(7));
        assert_eq!(idx.advance(), Some((5, vec![id(2)])));
        // Reading does not consume: the driver clears by re-indexing.
        assert_eq!(idx.advance(), Some((5, vec![id(2)])));
        idx.set(id(2), Some(5), None);
        assert_eq!(idx.advance(), Some((7, vec![id(1)])));
        idx.advance_to(3);
        assert_eq!(idx.round(), 7, "the round never moves back");
        idx.advance_to(10);
        idx.set(id(3), None, Some(8));
        assert_eq!(
            idx.advance(),
            Some((10, vec![id(1), id(3)])),
            "deadlines behind the round are due at the round"
        );
    }

    #[test]
    fn extreme_ids_and_deadlines_are_indexed_like_any_other() {
        let mut idx = TimerIndex::new();
        idx.set(Id::MAX, None, Some(u64::MAX));
        idx.set(Id::ZERO, None, Some(0));
        assert_eq!(idx.earliest(), Some(0));
        assert_eq!(idx.due(0), vec![Id::ZERO]);
        assert_eq!(idx.due(u64::MAX), vec![Id::ZERO, Id::MAX]);
    }
}
