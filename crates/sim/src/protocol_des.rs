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
//!
//! Once the buffers have grown, an envelope costs no allocation and no
//! tree walk: machines sit in a slab found through an `Id` hash index,
//! the queue keeps one FIFO per pending tick (with one tick of latency
//! and a jitter of a few ticks, every push lands on one of a few pending
//! ticks or opens the newest), and every call into a machine is lent the
//! driver's one outbound buffer.

use crate::events::EventQueue;
use oscar_protocol::machine::peer_seed;
use oscar_protocol::{
    Command, FaultPlan, Message, Outbound, PeerConfig, PeerMachine, ProtocolDriver, ProtocolEvent,
    Rounds, TimerIndex,
};
use oscar_types::labels::sim_protocol_des::LBL_CMD;
use oscar_types::{Id, IdHasher, SeedTree};
use rand::rngs::SmallRng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::DerefMut;

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
    /// Re-indexes the machine after a call into it, and takes the events
    /// the call raised.
    fn after_step(&mut self, id: Id, timers: &mut TimerIndex) -> Vec<ProtocolEvent> {
        let deadline = self.machine.next_deadline();
        timers.set(id, self.indexed, deadline);
        self.indexed = deadline;
        self.machine.drain_events()
    }
}

/// The DES world: peer machines plus one event queue of envelopes.
pub struct DesDriver {
    /// The hosted machines, in no order: `index` finds a peer's slot.
    slots: Vec<Slot>,
    /// Peer id → its position in `slots`. Looked up, never iterated.
    index: HashMap<Id, u32, BuildHasherDefault<IdHasher>>,
    /// The live ids, sorted: what `peer_ids` copies.
    ids: Vec<Id>,
    /// The clock: the timer round, and every machine's earliest deadline,
    /// re-indexed after each call into a machine and on spawn/remove.
    /// Timer rounds read this, never the fleet.
    timers: TimerIndex,
    queue: EventQueue<Envelope>,
    /// The buffer lent to every call into a machine, empty between calls.
    outbox: Vec<Outbound>,
    seed: u64,
    peer_cfg: PeerConfig,
    plan: FaultPlan,
    events: Vec<ProtocolEvent>,
    /// The stream every `on_command`/`on_message` is handed. Only gossip
    /// draws from it, and a sequential driver's draw order is its
    /// delivery order, so one stream is as deterministic as one per call.
    gossip_rng: SmallRng,
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
            slots: Vec::new(),
            index: HashMap::default(),
            ids: Vec::new(),
            timers: TimerIndex::new(),
            queue: EventQueue::new(),
            outbox: Vec::new(),
            seed,
            peer_cfg,
            plan,
            events: Vec::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "the driver's one stream, rooted at its seed — only gossip draws from it"
            )]
            gossip_rng: SeedTree::new(seed).child(LBL_CMD).rng(),
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
        let machine = PeerMachine::new(id, peer_seed(self.seed, id), self.peer_cfg.clone());
        Rounds::spawn_machine(&mut { self }, machine);
    }

    /// Removes a peer outright (a crash). Mail already queued to it will
    /// bounce at delivery time, and its armed timers die with it.
    pub fn remove_peer(&mut self, id: Id) -> bool {
        let Some(k) = self.index.remove(&id) else {
            return false;
        };
        let slot = self.slots.swap_remove(k as usize);
        if let Some(moved) = self.slots.get(k as usize) {
            self.index.insert(moved.machine.id(), k);
        }
        if let Ok(pos) = self.ids.binary_search(&id) {
            self.ids.remove(pos);
        }
        self.timers.set(id, slot.indexed, None);
        true
    }

    /// Live peer ids, sorted.
    pub fn peer_ids(&self) -> Vec<Id> {
        self.ids.clone()
    }

    /// Read access to one peer's machine.
    pub fn peer(&self, id: Id) -> Option<&PeerMachine> {
        let k = self.slot_of(id)?;
        self.slots.get(k).map(|slot| &slot.machine)
    }

    /// `id`'s position in `slots`.
    fn slot_of(&self, id: Id) -> Option<usize> {
        self.index.get(&id).map(|&k| k as usize)
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
        self.timers.round()
    }

    /// [`ProtocolEvent::Fault`] occurrences since the driver was built
    /// (a lifetime counter, unaffected by [`DesDriver::drain_events`]).
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Books what a call into `id`'s machine left behind: its events,
    /// bumping the lifetime fault counter on the way, and its sends.
    fn book(&mut self, id: Id, evs: Vec<ProtocolEvent>, outs: Vec<Outbound>) {
        self.faults += evs
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Fault { .. }))
            .count() as u64;
        self.events.extend(evs);
        self.enqueue_all(id, outs);
    }

    /// Runs one call into the machine in slot `k`, lent the driver's
    /// outbound buffer, then re-indexes it and books what it left.
    fn step(
        &mut self,
        k: usize,
        call: impl FnOnce(&mut PeerMachine, &mut SmallRng) -> Vec<Outbound>,
    ) {
        let Some(slot) = self.slots.get_mut(k) else {
            return;
        };
        let id = slot.machine.id();
        slot.machine.lend_outbox(std::mem::take(&mut self.outbox));
        let outs = call(&mut slot.machine, &mut self.gossip_rng);
        let evs = slot.after_step(id, &mut self.timers);
        self.book(id, evs, outs);
    }

    /// Hands a command to one peer and queues its replies.
    pub fn inject(&mut self, id: Id, cmd: Command) -> bool {
        let Some(k) = self.slot_of(id) else {
            return false;
        };
        self.step(k, |machine, rng| machine.on_command(cmd, rng));
        true
    }

    /// [`Rounds::run_until_settled`]: returns the timer rounds consumed.
    pub fn run_until_settled(&mut self, max_rounds: u64) -> u64 {
        Rounds::run_until_settled(&mut { self }, max_rounds)
    }

    /// Drains protocol milestones observed since the last drain.
    pub fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.events)
    }

    /// The driver's single routing point: every outbound passes through
    /// the fault plan here (the runtime's analogue is `Shared::send`).
    /// `outs` is emptied and kept as the buffer the next call is lent.
    fn enqueue_all(&mut self, from: Id, mut outs: Vec<Outbound>) {
        for o in outs.drain(..) {
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
        self.outbox = outs;
    }

    fn deliver(&mut self, env: Envelope) {
        let Envelope { from, to, msg } = env;
        if let Some(k) = self.slot_of(to) {
            self.delivered += 1;
            self.step(k, |machine, rng| machine.on_message(from, msg, rng));
        } else if self.plan.blackhole_on_crash() {
            // The realistic crash model: the send vanishes; only the
            // sender's timers can notice.
            self.dropped += 1;
        } else {
            // Bounce: the sender learns about the corpse, exactly like the
            // actor runtime's failed send. With both ends gone the message
            // evaporates.
            self.bounced += 1;
            if let Some(k) = self.slot_of(from) {
                self.step(k, |machine, _| machine.on_delivery_failure(to, msg));
            }
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

    fn advance_to(&mut self, round: u64) {
        Rounds::run_to_round(&mut { self }, round);
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

/// The DES's timer rounds, on `&mut DesDriver` as the runtime's are on
/// `&Runtime`. The machines are at rest between any two calls, so debug
/// builds check the clock at every one.
impl Rounds for &mut DesDriver {
    type Fleet = DesDriver;

    /// Delivers queued envelopes until the world goes silent.
    fn quiesce(&mut self) {
        while let Some((_, env)) = self.queue.pop() {
            self.deliver(env);
        }
    }

    fn clock(&mut self) -> impl DerefMut<Target = TimerIndex> + '_ {
        &mut self.timers
    }

    /// A machine whose id is live replaces the hosted one in its slot.
    fn spawn_machine(&mut self, machine: PeerMachine) {
        let (id, indexed) = (machine.id(), machine.next_deadline());
        let slot = Slot { machine, indexed };
        let replaced = match self.index.entry(id) {
            Entry::Occupied(k) => self
                .slots
                .get_mut(*k.get() as usize)
                .and_then(|old| std::mem::replace(old, slot).indexed),
            Entry::Vacant(k) => {
                k.insert(self.slots.len() as u32);
                self.slots.push(slot);
                let pos = self.ids.partition_point(|&x| x < id);
                self.ids.insert(pos, id);
                None
            }
        };
        self.timers.set(id, replaced, indexed);
    }

    fn tick(&mut self, due: Vec<Id>, now: u64) {
        for id in due {
            self.inject(id, Command::TimerTick { now });
        }
    }

    fn at_rest(&self) -> Option<&DesDriver> {
        Some(self)
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
                (&mut des).quiesce();
            }
            (joined, known(&des))
        };
        let (joined, gossiped) = views(42);
        assert_eq!((joined.clone(), gossiped.clone()), views(42));
        let (other_joined, other_gossiped) = views(43);
        assert_eq!(joined, other_joined, "joins read no seed");
        assert_ne!(gossiped, other_gossiped);
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

    mod slab_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// The slab and its index against a `BTreeMap` of live ids
            /// (true where the hosted machine is a pre-built one waiting
            /// on a join): spawns, in-place replacements and removes,
            /// absent ids included, leave the same fleet, and a settle
            /// afterwards finds the clock in step with the machines.
            #[test]
            fn the_slab_is_a_sorted_map(
                ops in prop::collection::vec((0u8..3, 0u64..12, 0u64..12), 1..80),
            ) {
                let mut des = driver(5);
                let mut model: BTreeMap<Id, bool> = BTreeMap::new();
                let mut rng = SeedTree::new(5).rng();
                let id = |k: u64| Id::new((k + 1) * 0x1000_0000_0000);
                for (op, k, contact) in ops {
                    match op {
                        0 => {
                            des.spawn_peer(id(k));
                            model.insert(id(k), false);
                        }
                        1 => {
                            let mut machine =
                                PeerMachine::new(id(k), peer_seed(5, id(k)), PeerConfig::default());
                            machine.on_command(Command::Join { contact: id(contact) }, &mut rng);
                            Rounds::spawn_machine(&mut &mut des, machine);
                            model.insert(id(k), true);
                        }
                        _ => prop_assert_eq!(des.remove_peer(id(k)), model.remove(&id(k)).is_some()),
                    }
                }
                let ids: Vec<Id> = model.keys().copied().collect();
                prop_assert_eq!(des.peer_ids(), ids);
                for (&id, &waiting) in &model {
                    let machine = des.peer(id).expect("a live id has a machine");
                    prop_assert_eq!(machine.id(), id);
                    prop_assert_eq!(machine.next_deadline().is_some(), waiting);
                }
                // Both read the clock against a scan of the machines.
                Rounds::next_timer_round(&mut &mut des);
                des.run_until_settled(256);
            }
        }
    }
}
