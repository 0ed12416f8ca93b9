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
//! `oscar-runtime` already depend on `oscar-protocol`. So does
//! [`TimerIndex`], the deadline index both worlds answer "which machines
//! are due?" from.

use crate::message::{Command, ProtocolEvent};
use crate::PeerMachine;
use oscar_types::Id;
use std::collections::BTreeSet;

/// A world that can host peer machines and move their envelopes.
///
/// Time model: drivers expose a monotone *round* counter — the DES
/// equates it with timer rounds on its virtual clock, the threaded
/// runtime ticks it at quiescent points. The churn engine's machine
/// world paces itself with [`ProtocolDriver::settle`] alone;
/// [`ProtocolDriver::advance_to`] and [`ProtocolDriver::round`] are for
/// callers that slice time themselves (the fault sweep's storm reads the
/// counter; driver tests and the benchmark's tracing wrapper advance it).
///
/// A join is [`spawn_peer`](ProtocolDriver::spawn_peer), an
/// `inject(joiner, Command::Join { contact })` and `settle(0)`; whether it
/// completed is `with_peer(joiner, PeerMachine::joined)`, which drains no
/// event.
///
/// Both drivers also keep inherent methods beside this trait:
/// - the ones the benchmark package calls without the trait in scope
///   (`DesDriver::{peer, run_until_settled, delivered}`, the runtime's
///   `quiesce` and `stats`, and the inherent twins of the methods here);
/// - the runtime's `settle`/`advance_to`/`round` take `&self`, because
///   the runtime is `Sync` and its stress tests call them from several
///   threads at once;
/// - `next_timer_round`, `tick_timers` and `spawn_machine`, because the
///   timer-index tests read and feed the index itself.
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

/// Which machines are waiting on a timer, keyed for the one question a
/// driver asks at every quiescent point: *who is due?*
///
/// A driver keeps one index beside its machines and re-indexes a peer
/// with [`TimerIndex::set`] whenever it has run that peer's machine (or
/// added or removed it), passing the machine's
/// [`next_deadline`](crate::PeerMachine::next_deadline) and the deadline
/// it indexed for that peer last time — which the driver keeps beside the
/// machine anyway, to skip the steps that leave it where it was, so the
/// index holds each deadline once. The next timer round is then
/// [`TimerIndex::earliest`] and the peers to tick are
/// [`TimerIndex::due`] — O(log n) and O(due · log n), where asking every
/// machine was O(n) per round, most rounds finding nobody.
///
/// The set is ordered, so nothing a driver reads from the index depends
/// on hash order.
#[derive(Clone, Debug, Default)]
pub struct TimerIndex {
    /// One `(deadline, peer)` entry per waiting peer, earliest first.
    by_deadline: BTreeSet<(u64, Id)>,
}

impl TimerIndex {
    /// An empty index: nobody is waiting.
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

    /// The earliest indexed deadline; `None` when nobody is waiting.
    pub fn earliest(&self) -> Option<u64> {
        self.by_deadline.first().map(|&(deadline, _)| deadline)
    }

    /// The peers whose indexed deadline is at or before `now`, in
    /// ascending [`Id`] order whatever their deadlines — the order a
    /// sorted walk over the fleet would find them in. Drivers inject
    /// `TimerTick` in this order, and injection order is enqueue order,
    /// so the order is part of every seeded outcome.
    pub fn due(&self, now: u64) -> Vec<Id> {
        let mut due: Vec<Id> = self
            .by_deadline
            .range(..=(now, Id::MAX))
            .map(|&(_, id)| id)
            .collect();
        due.sort_unstable();
        due
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
    fn extreme_ids_and_deadlines_are_indexed_like_any_other() {
        let mut idx = TimerIndex::new();
        idx.set(Id::MAX, None, Some(u64::MAX));
        idx.set(Id::ZERO, None, Some(0));
        assert_eq!(idx.earliest(), Some(0));
        assert_eq!(idx.due(0), vec![Id::ZERO]);
        assert_eq!(idx.due(u64::MAX), vec![Id::ZERO, Id::MAX]);
    }
}
