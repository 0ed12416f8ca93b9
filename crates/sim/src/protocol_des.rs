//! Discrete-event driver for the `oscar-protocol` peer machines.
//!
//! The thin adapter that runs [`PeerMachine`]s in virtual time: every
//! [`Outbound`] becomes an envelope on the simulator's [`EventQueue`]
//! with one tick of delivery latency, and a delivery to a missing peer
//! bounces back to the sender as `on_delivery_failure` — the identical
//! failure surface the threaded actor runtime (`oscar-runtime`)
//! presents, which is what makes the two drivers interchangeable.
//!
//! This driver is intentionally sequential and deterministic: it is the
//! reference world for the cross-driver equivalence test, and doubles
//! as a protocol debugging harness (single-stepped, inspectable,
//! reproducible).

use crate::events::EventQueue;
use oscar_protocol::machine::peer_seed;
use oscar_protocol::{
    Command, FaultPlan, Message, Outbound, PeerConfig, PeerMachine, ProtocolDriver, ProtocolEvent,
    TimerIndex,
};
use oscar_types::labels::sim_protocol_des::LBL_CMD;
use oscar_types::{Id, SeedTree};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;

/// A protocol message in flight through virtual time.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending peer.
    pub from: Id,
    /// Destination peer.
    pub to: Id,
    /// Payload.
    pub msg: Message,
}

/// One hosted machine and the deadline `DesDriver::timers` holds for it:
/// a step that leaves the deadline where it was never touches the index.
struct Slot {
    machine: PeerMachine,
    indexed: Option<u64>,
}

impl Slot {
    /// Re-indexes the machine after a call into it.
    fn reindex(&mut self, id: Id, timers: &mut TimerIndex) {
        let deadline = self.machine.next_deadline();
        timers.set(id, self.indexed, deadline);
        self.indexed = deadline;
    }
}

/// The DES world: peer machines plus one event queue of envelopes.
pub struct DesDriver {
    peers: BTreeMap<Id, Slot>,
    /// Every machine's earliest deadline, re-indexed after each call into
    /// a machine and on spawn/remove: timer rounds read this, never the
    /// fleet.
    timers: TimerIndex,
    queue: EventQueue<Envelope>,
    seed: u64,
    peer_cfg: PeerConfig,
    plan: FaultPlan,
    events: Vec<ProtocolEvent>,
    /// The stream every `on_command`/`on_message` is handed. Only gossip
    /// draws from it, and a sequential driver's draw order is its
    /// delivery order, so one stream is as deterministic as one per call.
    gossip_rng: SmallRng,
    /// Current timer round (virtual failure-detection time); advanced
    /// only at quiescent points, where all in-flight loss is final.
    round: u64,
    sent: u64,
    delivered: u64,
    bounced: u64,
    dropped: u64,
    duplicated: u64,
    /// Lifetime count of [`ProtocolEvent::Fault`] occurrences — unlike
    /// drained events this never resets, so harnesses can gate a whole
    /// run on it staying zero.
    faults: u64,
}

impl DesDriver {
    /// An empty world rooted at `seed` (same peer-seed derivation as the
    /// actor runtime), with the reliable fault plan.
    pub fn new(seed: u64, peer_cfg: PeerConfig) -> Self {
        Self::new_with_faults(seed, peer_cfg, FaultPlan::reliable())
    }

    /// An empty world whose every send is subjected to `plan` at the
    /// driver's single routing point (`DesDriver::enqueue_all`).
    pub fn new_with_faults(seed: u64, peer_cfg: PeerConfig, plan: FaultPlan) -> Self {
        DesDriver {
            peers: BTreeMap::new(),
            timers: TimerIndex::new(),
            queue: EventQueue::new(),
            seed,
            peer_cfg,
            plan,
            events: Vec::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "the driver's one stream, rooted at its seed — only gossip draws from it"
            )]
            gossip_rng: SeedTree::new(seed).child(LBL_CMD).rng(),
            round: 0,
            sent: 0,
            delivered: 0,
            bounced: 0,
            dropped: 0,
            duplicated: 0,
            faults: 0,
        }
    }

    /// Registers a fresh solo peer with the canonical derived seed.
    pub fn spawn_peer(&mut self, id: Id) {
        self.spawn_machine(PeerMachine::new(
            id,
            peer_seed(self.seed, id),
            self.peer_cfg.clone(),
        ));
    }

    /// Registers a pre-built machine, replacing any machine already
    /// under its id. Timers the machine already carries are indexed.
    pub fn spawn_machine(&mut self, machine: PeerMachine) {
        let (id, indexed) = (machine.id(), machine.next_deadline());
        let replaced = self.peers.insert(id, Slot { machine, indexed });
        self.timers
            .set(id, replaced.and_then(|slot| slot.indexed), indexed);
    }

    /// Removes a peer outright (a crash). Mail already queued to it will
    /// bounce at delivery time, and its armed timers die with it.
    pub fn remove_peer(&mut self, id: Id) -> bool {
        let Some(slot) = self.peers.remove(&id) else {
            return false;
        };
        self.timers.set(id, slot.indexed, None);
        true
    }

    /// Live peer ids, sorted.
    pub fn peer_ids(&self) -> Vec<Id> {
        self.peers.keys().copied().collect()
    }

    /// Read access to one peer's machine.
    pub fn peer(&self, id: Id) -> Option<&PeerMachine> {
        self.peers.get(&id).map(|slot| &slot.machine)
    }

    /// Envelopes handed to the transport so far (fault copies included).
    /// At any quiescent point `sent == delivered + dropped + bounced`.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Envelopes actually handled by a live destination machine.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Sends to missing peers returned to the sender as
    /// `on_delivery_failure` (the instant-bounce crash model).
    pub fn bounced(&self) -> u64 {
        self.bounced
    }

    /// Envelopes silently discarded: fault-plan drops, plus sends to
    /// missing peers under a blackhole plan.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Extra copies injected by the fault plan (each also counts in
    /// `sent`, and lands in `delivered`/`dropped`/`bounced` like any
    /// other envelope).
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// The current timer round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// [`ProtocolEvent::Fault`] occurrences since the driver was built
    /// (a lifetime counter, unaffected by [`DesDriver::drain_events`]).
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Absorbs a machine's freshly drained events into the driver's
    /// buffer, bumping the lifetime fault counter on the way.
    fn absorb_events(&mut self, evs: Vec<ProtocolEvent>) {
        self.faults += evs
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Fault { .. }))
            .count() as u64;
        self.events.extend(evs);
    }

    /// Hands a command to one peer and queues its replies.
    pub fn inject(&mut self, id: Id, cmd: Command) -> bool {
        let Some(peer) = self.peers.get_mut(&id) else {
            return false;
        };
        let outs = peer.machine.on_command(cmd, &mut self.gossip_rng);
        peer.reindex(id, &mut self.timers);
        let evs = peer.machine.drain_events();
        self.absorb_events(evs);
        self.enqueue_all(id, outs);
        true
    }

    /// Delivers queued envelopes until the world goes silent (the DES
    /// analogue of the runtime's `quiesce`).
    fn run_until_idle(&mut self) {
        while let Some((_, env)) = self.queue.pop() {
            self.deliver(env);
        }
    }

    /// The earliest pending deadline across all machines, if any
    /// operation anywhere is still awaiting completion. Read from the
    /// deadline index; debug builds check it against a scan of the fleet.
    pub fn next_timer_round(&self) -> Option<u64> {
        let next = self.timers.earliest();
        debug_assert_eq!(
            next,
            self.peers
                .values()
                .filter_map(|slot| slot.machine.next_deadline())
                .min(),
            "timer index out of step with the machines"
        );
        next
    }

    /// Advances the timer round to the earliest pending deadline and
    /// ticks every machine whose deadline has come due; false when no
    /// machine is waiting. Call only at quiescent points (empty queue):
    /// there, all in-flight loss is final, so an expired deadline is a
    /// genuine loss — never a message still in the queue.
    ///
    /// The due set comes from the deadline index in ascending [`Id`]
    /// order — the order a walk over the sorted fleet finds it in, and
    /// injection order is enqueue order, so every seeded outcome depends
    /// on it — at a cost that grows with the machines due, not with the
    /// fleet.
    /// Debug builds check the set against that walk.
    pub fn tick_timers(&mut self) -> bool {
        let Some(min) = self.next_timer_round() else {
            return false;
        };
        self.round = self.round.max(min);
        let now = self.round;
        let due = self.timers.due(now);
        debug_assert_eq!(
            due,
            self.peers
                .iter()
                .filter(|(_, slot)| slot.machine.next_deadline().is_some_and(|d| d <= now))
                .map(|(&id, _)| id)
                .collect::<Vec<Id>>(),
            "timer index disagrees with the machines on who is due"
        );
        for id in due {
            self.inject(id, Command::TimerTick { now });
        }
        true
    }

    /// Alternates delivering every queued envelope with timer rounds
    /// until every pending operation resolved (completion, retry
    /// success, or graceful give-up) or `max_rounds` timer rounds
    /// elapsed. Returns the timer rounds consumed.
    pub fn run_until_settled(&mut self, max_rounds: u64) -> u64 {
        self.run_until_idle();
        let mut rounds = 0;
        while rounds < max_rounds && self.tick_timers() {
            self.run_until_idle();
            rounds += 1;
        }
        rounds
    }

    /// Drains protocol milestones observed since the last drain.
    pub fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.events)
    }

    /// The driver's single routing point: every outbound passes through
    /// the fault plan here (the runtime's analogue is `Shared::send`).
    fn enqueue_all(&mut self, from: Id, outs: Vec<Outbound>) {
        for o in outs {
            self.sent += 1;
            let fate = self.plan.decide(from, o.to, &o.msg);
            if fate.drop {
                self.dropped += 1;
                continue;
            }
            if fate.duplicate {
                self.sent += 1;
                self.duplicated += 1;
                // The copy trails the original by one extra tick.
                self.queue.schedule_in(
                    2 + fate.extra_delay,
                    Envelope {
                        from,
                        to: o.to,
                        msg: o.msg.clone(),
                    },
                );
            }
            // One tick of delivery latency per message, plus jitter.
            self.queue.schedule_in(
                1 + fate.extra_delay,
                Envelope {
                    from,
                    to: o.to,
                    msg: o.msg,
                },
            );
        }
    }

    fn deliver(&mut self, env: Envelope) {
        if let Some(peer) = self.peers.get_mut(&env.to) {
            self.delivered += 1;
            let outs = peer
                .machine
                .on_message(env.from, env.msg, &mut self.gossip_rng);
            peer.reindex(env.to, &mut self.timers);
            let evs = peer.machine.drain_events();
            self.absorb_events(evs);
            self.enqueue_all(env.to, outs);
        } else if self.plan.blackhole_on_crash() {
            // The realistic crash model: the send vanishes; only the
            // sender's timers can notice.
            self.dropped += 1;
        } else {
            // Bounce: the sender learns about the corpse, exactly like the
            // actor runtime's failed send.
            self.bounced += 1;
            let Some(sender) = self.peers.get_mut(&env.from) else {
                return; // both ends gone; the message evaporates
            };
            let outs = sender.machine.on_delivery_failure(env.to, env.msg);
            sender.reindex(env.from, &mut self.timers);
            let evs = sender.machine.drain_events();
            self.absorb_events(evs);
            self.enqueue_all(env.from, outs);
        }
    }
}

/// The DES as a generic machine host: virtual timer rounds are the
/// round counter, so the churn engine's Poisson schedule lands on the
/// same clock the retry timers use.
impl ProtocolDriver for DesDriver {
    fn spawn_peer(&mut self, id: Id) {
        DesDriver::spawn_peer(self, id);
    }

    fn remove_peer(&mut self, id: Id) {
        DesDriver::remove_peer(self, id);
    }

    fn inject(&mut self, id: Id, cmd: Command) {
        DesDriver::inject(self, id, cmd);
    }

    fn settle(&mut self, max_rounds: u64) -> u64 {
        self.run_until_settled(max_rounds)
    }

    /// Delivers all queued envelopes, then fires every timer deadline up
    /// to `round` (each followed by the deliveries it provokes).
    /// Deadlines beyond `round` stay pending — they belong to a later
    /// slice of time.
    fn advance_to(&mut self, round: u64) {
        self.run_until_idle();
        while self.next_timer_round().is_some_and(|d| d <= round) {
            self.tick_timers();
            self.run_until_idle();
        }
        self.round = self.round.max(round);
    }

    fn round(&self) -> u64 {
        DesDriver::round(self)
    }

    fn peer_ids(&self) -> Vec<Id> {
        DesDriver::peer_ids(self)
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        DesDriver::drain_events(self)
    }

    fn sent(&self) -> u64 {
        DesDriver::sent(self)
    }

    fn fault_count(&self) -> u64 {
        DesDriver::fault_count(self)
    }

    fn with_peer<T>(&self, id: Id, f: impl FnOnce(&PeerMachine) -> T) -> Option<T> {
        self.peer(id).map(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(seed: u64) -> DesDriver {
        DesDriver::new(seed, PeerConfig::default())
    }

    #[test]
    fn gossip_on_the_des_is_a_pure_function_of_the_seed() {
        // Gossip draws from the driver's stream and nothing else (`view.rs`),
        // and the joins leave both seeds with the same views, so what
        // differs afterwards is the stream's target and sample picks.
        let views = |seed: u64| {
            let mut des = driver(seed);
            let ids: Vec<Id> = (1..=30u64).map(|i| Id::new(i * 1_000)).collect();
            des.spawn_peer(ids[0]);
            for &id in &ids[1..] {
                des.spawn_peer(id);
                des.inject(id, Command::Join { contact: ids[0] });
                des.settle(0);
                assert!(des.peer(id).unwrap().joined());
            }
            let known = |des: &DesDriver| {
                ids.iter()
                    .map(|&id| des.peer(id).unwrap().known().to_vec())
                    .collect::<Vec<_>>()
            };
            let joined = known(&des);
            for _ in 0..2 {
                for &id in &ids {
                    des.inject(id, Command::GossipTick);
                }
                des.run_until_idle();
            }
            (joined, known(&des))
        };
        let (joined, gossiped) = views(42);
        assert_eq!((joined.clone(), gossiped.clone()), views(42));
        let (other_joined, other_gossiped) = views(43);
        assert_eq!(joined, other_joined, "joins read no seed");
        assert_ne!(gossiped, other_gossiped);
    }

    /// Two joined peers under a plan that swallows mail to corpses, so
    /// only timers can notice a crash.
    fn blackholed_pair() -> (DesDriver, Id, Id) {
        let plan = FaultPlan::new(0xB1AC).with_blackhole(true);
        let mut des = DesDriver::new_with_faults(3, PeerConfig::default(), plan);
        let (a, b) = (Id::new(100), Id::new(200));
        des.spawn_peer(a);
        des.spawn_peer(b);
        des.inject(b, Command::Join { contact: a });
        des.settle(0);
        assert!(des.peer(b).unwrap().joined());
        des.drain_events();
        assert_eq!(
            des.next_timer_round(),
            None,
            "a settled pair waits on nothing"
        );
        (des, a, b)
    }

    #[test]
    fn crashing_a_peer_takes_its_armed_timers_out_of_the_index() {
        let (mut des, a, _) = blackholed_pair();
        des.inject(a, Command::ProbeRing);
        assert!(
            des.next_timer_round().is_some(),
            "an unanswered ping must be waiting on its timer"
        );
        assert!(des.remove_peer(a));
        // A leaked entry would name a round with nobody to tick, and
        // settle would spin through its whole budget on it.
        assert_eq!(des.next_timer_round(), None);
        assert_eq!(ProtocolDriver::settle(&mut des, 64), 0);
        assert_eq!(des.next_timer_round(), None);
    }

    #[test]
    fn spawning_a_machine_indexes_the_timers_it_already_carries() {
        let (mut des, _, b) = blackholed_pair();
        let c = Id::new(300);
        let mut machine = PeerMachine::new(c, peer_seed(3, c), PeerConfig::default());
        let mut rng = SeedTree::new(3).rng();
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
        des.spawn_machine(machine);
        assert_eq!(des.next_timer_round(), armed);
        assert!(ProtocolDriver::settle(&mut des, 64) > 0, "the timers fire");
        assert_eq!(des.next_timer_round(), None);

        // Re-spawning over a waiting peer replaces its index entry too.
        des.inject(c, Command::ProbeRing);
        assert!(des.next_timer_round().is_some());
        des.spawn_peer(c);
        assert_eq!(des.next_timer_round(), None);
    }

    #[test]
    fn counters_reconcile_at_quiescence() {
        let plan = FaultPlan::new(0xC0)
            .with_drop(0.05)
            .with_duplication(0.05)
            .with_delay_jitter(2);
        let mut des = DesDriver::new_with_faults(11, PeerConfig::default(), plan);
        let ids: Vec<Id> = (1..=12u64).map(|i| Id::new(i * 500)).collect();
        // Bootstrap the ring directly (joins are exercised elsewhere).
        for &id in &ids {
            des.spawn_peer(id);
        }
        let n = ids.len();
        for (k, &id) in ids.iter().enumerate() {
            let succs: Vec<Id> = (1..=3).map(|j| ids[(k + j) % n]).collect();
            let known = succs.clone();
            des.inject(
                id,
                Command::Bootstrap {
                    pred: ids[(k + n - 1) % n],
                    succs,
                    known,
                },
            );
        }
        for &id in &ids {
            des.inject(id, Command::BuildLinks { walks: 2 });
        }
        des.run_until_settled(256);
        for (qid, &id) in ids.iter().enumerate() {
            des.inject(
                id,
                Command::StartQuery {
                    qid: qid as u64,
                    key: Id::new((qid as u64 + 1) * 333),
                },
            );
        }
        des.run_until_settled(256);
        assert!(des.duplicated() > 0, "plan must have injected copies");
        assert!(des.dropped() > 0, "plan must have dropped something");
        assert_eq!(
            des.sent(),
            des.delivered() + des.dropped() + des.bounced(),
            "every envelope must land in exactly one bucket"
        );
    }

    #[test]
    fn pure_duplication_and_jitter_change_nothing_observable() {
        // Duplicates are suppressed by the machines and jitter only
        // reorders virtual time, so fingerprints and reports must match
        // the reliable run exactly.
        let run = |plan: FaultPlan| {
            let mut des = DesDriver::new_with_faults(17, PeerConfig::default(), plan);
            let ids: Vec<Id> = (1..=10u64).map(|i| Id::new(i * 1_000)).collect();
            des.spawn_peer(ids[0]);
            for &id in &ids[1..] {
                des.spawn_peer(id);
                des.inject(id, Command::Join { contact: ids[0] });
                des.settle(0);
                assert!(des.peer(id).unwrap().joined());
            }
            for &id in &ids {
                des.inject(id, Command::BuildLinks { walks: 2 });
            }
            des.run_until_settled(64);
            des.drain_events();
            for (qid, &id) in ids.iter().enumerate() {
                des.inject(
                    id,
                    Command::StartQuery {
                        qid: qid as u64,
                        key: Id::new((qid as u64 + 1) * 777),
                    },
                );
                des.run_until_settled(64);
            }
            let mut reports: Vec<_> = des
                .drain_events()
                .into_iter()
                .filter_map(|e| match e {
                    ProtocolEvent::QueryCompleted(r) => Some(r),
                    _ => None,
                })
                .collect();
            reports.sort_by_key(|r| r.qid);
            let prints: Vec<_> = ids
                .iter()
                .map(|&id| des.peer(id).unwrap().fingerprint())
                .collect();
            (prints, reports, des.duplicated())
        };
        let (p_rel, r_rel, dup_rel) = run(FaultPlan::reliable());
        let (p_dup, r_dup, dup_dup) = run(FaultPlan::new(0xD0)
            .with_duplication(1.0)
            .with_delay_jitter(3));
        assert_eq!(dup_rel, 0);
        assert!(dup_dup > 0, "the faulty run must actually duplicate");
        assert_eq!(p_rel, p_dup, "fingerprints diverged under duplication");
        assert_eq!(r_rel, r_dup, "reports diverged under duplication");
    }
}
