//! A minimal discrete-event engine with virtual time.
//!
//! The growth driver's checkpointed loop covers the paper's experiments,
//! but continuous-churn scenarios (peers joining and crashing concurrently,
//! extension experiment A6 and the `churn_resilience` example) and the DES
//! driver's mail need events interleaved on a virtual clock. This queue is
//! deliberately tiny: monotonically increasing virtual time, FIFO
//! tie-breaking, no cancellation.

use std::collections::VecDeque;

/// Virtual simulation time (opaque ticks).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Time advanced by `ticks`.
    pub fn after(self, ticks: u64) -> VirtualTime {
        VirtualTime(self.0 + ticks)
    }
}

/// Earliest-first event queue with FIFO tie-breaking.
///
/// One FIFO per pending time, times ascending: a pop takes the head of the
/// earliest, so events leave in (time, scheduling order) with no heap and
/// no sequence number. A schedule binary-searches the pending times; one
/// that opens a new time before the latest also shifts the later ones,
/// O(pending times). An emptied FIFO is kept for the next new time, so memory follows the
/// events pending, never the longest delay.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending times, ascending, each with its events; none is empty.
    times: VecDeque<(VirtualTime, VecDeque<E>)>,
    spare: Option<VecDeque<E>>,
    len: usize,
    now: VirtualTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            times: VecDeque::new(),
            spare: None,
            len: 0,
            now: VirtualTime(0),
        }
    }

    /// Current virtual time (time of the last popped event).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past (before the last popped event) — the
    /// simulation would no longer be causal.
    pub fn schedule(&mut self, at: VirtualTime, payload: E) {
        assert!(at >= self.now, "scheduling into the past breaks causality");
        let k = self.times.partition_point(|&(t, _)| t < at);
        match self.times.get_mut(k) {
            Some((t, fifo)) if *t == at => fifo.push_back(payload),
            _ => {
                let mut fifo = self.spare.take().unwrap_or_default();
                fifo.push_back(payload);
                self.times.insert(k, (at, fifo));
            }
        }
        self.len += 1;
    }

    /// Schedules `payload` `delay` ticks from now.
    pub fn schedule_in(&mut self, delay: u64, payload: E) {
        self.schedule(self.now.after(delay), payload);
    }

    /// Pops the earliest event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let (at, fifo) = self.times.front_mut()?;
        let at = *at;
        let payload = fifo.pop_front()?;
        if fifo.is_empty() {
            self.spare = self.times.pop_front().map(|(_, fifo)| fifo);
        }
        self.len -= 1;
        self.now = at;
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime(30), "c");
        q.schedule(VirtualTime(10), "a");
        q.schedule(VirtualTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(VirtualTime(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime(7), ());
        assert_eq!(q.now(), VirtualTime(0));
        q.pop();
        assert_eq!(q.now(), VirtualTime(7));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime(10), 1);
        q.pop();
        q.schedule_in(5, 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, VirtualTime(15));
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(VirtualTime(10), ());
        q.pop();
        q.schedule(VirtualTime(5), ());
    }

    mod queue_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Model check against a sorted reference: under arbitrary
            /// interleavings of `schedule` (absolute, offset from now),
            /// `schedule_in` and `pop`, every pop must return exactly the
            /// pending event with the least `(time, insertion order)` —
            /// i.e. time-ordering with FIFO tie-breaking — and the clock
            /// must advance monotonically.
            #[test]
            fn pops_always_follow_time_then_fifo_order(
                ops in prop::collection::vec((0u8..3, 0u64..20), 1..200),
            ) {
                let mut q: EventQueue<usize> = EventQueue::new();
                // Reference model: pending (time, seq) pairs, seq = the
                // payload tag assigned at insertion.
                let mut pending: Vec<(u64, usize)> = Vec::new();
                let mut inserted = 0usize;
                let mut last_popped = VirtualTime(0);
                for (op, delay) in ops {
                    match op {
                        0 => {
                            let at = q.now().after(delay);
                            q.schedule(at, inserted);
                            pending.push((at.0, inserted));
                            inserted += 1;
                        }
                        1 => {
                            q.schedule_in(delay, inserted);
                            pending.push((q.now().0 + delay, inserted));
                            inserted += 1;
                        }
                        _ => match q.pop() {
                            Some((t, tag)) => {
                                let (bi, &best) = pending
                                    .iter()
                                    .enumerate()
                                    .min_by_key(|&(_, &(at, seq))| (at, seq))
                                    .expect("queue non-empty implies model non-empty");
                                prop_assert_eq!((t.0, tag), best, "pop order diverged");
                                prop_assert!(t >= last_popped, "clock went backwards");
                                prop_assert_eq!(q.now(), t);
                                last_popped = t;
                                pending.remove(bi);
                            }
                            None => prop_assert!(pending.is_empty(), "queue dropped events"),
                        },
                    }
                    prop_assert_eq!(q.len(), pending.len());
                }
                // Drain: the remainder must come out in model order too.
                pending.sort_unstable();
                let drained: Vec<(u64, usize)> =
                    std::iter::from_fn(|| q.pop().map(|(t, tag)| (t.0, tag))).collect();
                prop_assert_eq!(drained, pending);
            }
        }
    }

    mod bucket_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under a jitter of 10^4 ticks the queue holds at most one
            /// FIFO per pending event, plus the one spare: memory follows
            /// the events, not the delay.
            #[test]
            fn fifos_follow_the_events_not_the_delay(
                ops in prop::collection::vec((any::<bool>(), 0u64..=10_000), 1..300),
            ) {
                let mut q = EventQueue::new();
                for (push, jitter) in ops {
                    if push {
                        q.schedule_in(1 + jitter, ());
                    } else {
                        q.pop();
                    }
                    let fifos = q.times.len() + usize::from(q.spare.is_some());
                    prop_assert!(fifos <= q.len() + 1, "{} FIFOs for {} events", fifos, q.len());
                }
            }
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        // An event handler scheduling follow-ups — the DES core loop.
        let mut q = EventQueue::new();
        q.schedule(VirtualTime(1), 0u32);
        let mut fired = Vec::new();
        while let Some((t, gen)) = q.pop() {
            fired.push((t.0, gen));
            if gen < 3 {
                q.schedule_in(2, gen + 1);
            }
        }
        assert_eq!(fired, vec![(1, 0), (3, 1), (5, 2), (7, 3)]);
    }
}
