//! The replay loop: `PeerMachine`s cloned out of a settled DES fleet,
//! driven by a FIFO queue the benchmark owns, on one thread, with the
//! clock read around every `on_message` and `on_command`.
//!
//! No driver is involved, so what it measures is protocol time alone, per
//! message kind — the number the runtime's busy time per message is
//! compared against to get its own overhead.

use crate::{labels, Outcome};
use oscar_keydist::{GnutellaKeys, KeyDistribution};
use oscar_protocol::machine::peer_seed;
use oscar_protocol::{Command, Message, Outbound, PeerConfig, PeerMachine};
use oscar_sim::DesDriver;
use oscar_types::{Id, SeedTree};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Message kinds reported as `protocol.on_message_ns.<kind>`; the last
/// slot collects the kinds that are not (`LinkReject`, `Unlink`, gossip).
const MESSAGE_KINDS: [&str; 15] = [
    "Query",
    "QueryDone",
    "WalkProbe",
    "WalkReject",
    "WalkDone",
    "LinkRequest",
    "LinkAccept",
    "JoinRequest",
    "JoinWelcome",
    "NewSuccessor",
    "Ping",
    "Pong",
    "Leaving",
    "PredUpdate",
    "other",
];

/// Command kinds reported as `protocol.on_command_ns.<kind>`.
const COMMAND_KINDS: [&str; 5] = [
    "TimerTick",
    "ProbeRing",
    "StartQuery",
    "BuildLinks",
    "other",
];

/// Operations whose message cost is reported as `protocol.msgs_per_<op>`.
const OPS: [&str; 3] = ["query", "join", "probe"];

/// Timer rounds one settle may take before the replay gives up on it.
const SETTLE_ROUNDS: usize = 4096;

fn message_kind(msg: &Message) -> usize {
    match msg {
        Message::Query(_) => 0,
        Message::QueryDone(_) => 1,
        Message::WalkProbe(_) => 2,
        Message::WalkReject(_) => 3,
        Message::WalkDone { .. } => 4,
        Message::LinkRequest { .. } => 5,
        Message::LinkAccept { .. } => 6,
        Message::JoinRequest { .. } => 7,
        Message::JoinWelcome { .. } => 8,
        Message::NewSuccessor { .. } => 9,
        Message::Ping { .. } => 10,
        Message::Pong { .. } => 11,
        Message::Leaving { .. } => 12,
        Message::PredUpdate => 13,
        _ => 14,
    }
}

fn command_kind(cmd: &Command) -> usize {
    match cmd {
        Command::TimerTick { .. } => 0,
        Command::ProbeRing => 1,
        Command::StartQuery { .. } => 2,
        Command::BuildLinks { .. } => 3,
        _ => 4,
    }
}

/// Mean cost in nanoseconds of reading the clock twice with nothing in
/// between: what every timed call below is inflated by.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let t = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        let a = Instant::now();
        sink += a.elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    // Each iteration read the clock twice; the loop's own time is the cost.
    t.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// See the module docs.
pub struct Replay {
    peers: BTreeMap<Id, PeerMachine>,
    queue: VecDeque<(Id, Id, Message)>,
    cfg: PeerConfig,
    seed: u64,
    rng: SmallRng,
    now: u64,
    sent: u64,
    message_ns: [u64; 15],
    message_count: [u64; 15],
    command_ns: [u64; 5],
    command_count: [u64; 5],
    /// `(messages, operations)` per entry of [`OPS`].
    op_msgs: [(u64, u64); 3],
    clock_ns: f64,
}

impl Replay {
    /// Clones every machine out of `des`, which should be settled.
    /// `cfg` and `seed` are the deployment's, for the peers the churn
    /// scenario adds.
    pub fn from_des(des: &DesDriver, cfg: PeerConfig, seed: u64) -> Replay {
        let peers = des
            .peer_ids()
            .into_iter()
            .filter_map(|id| des.peer(id).map(|m| (id, m.clone())))
            .collect();
        Replay {
            peers,
            queue: VecDeque::new(),
            cfg,
            seed,
            rng: SeedTree::new(seed).child(labels::REPLAY).rng(),
            now: des.round(),
            sent: 0,
            message_ns: [0; 15],
            message_count: [0; 15],
            command_ns: [0; 5],
            command_count: [0; 5],
            op_msgs: [(0, 0); 3],
            clock_ns: clock_pair_ns(),
        }
    }

    fn enqueue(&mut self, from: Id, outs: Vec<Outbound>) {
        self.sent += outs.len() as u64;
        self.queue
            .extend(outs.into_iter().map(|o| (from, o.to, o.msg)));
    }

    fn command(&mut self, id: Id, cmd: Command) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let kind = command_kind(&cmd);
        let t = Instant::now();
        let outs = peer.on_command(cmd, &mut self.rng);
        self.command_ns[kind] += t.elapsed().as_nanos() as u64;
        self.command_count[kind] += 1;
        peer.drain_events();
        self.enqueue(id, outs);
    }

    /// Delivers until the queue is empty. A message to a missing peer
    /// bounces to its sender, as under the reliable fault plan.
    fn deliver_all(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if let Some(peer) = self.peers.get_mut(&to) {
                let kind = message_kind(&msg);
                let t = Instant::now();
                let outs = peer.on_message(from, msg, &mut self.rng);
                self.message_ns[kind] += t.elapsed().as_nanos() as u64;
                self.message_count[kind] += 1;
                peer.drain_events();
                self.enqueue(to, outs);
            } else if let Some(sender) = self.peers.get_mut(&from) {
                let outs = sender.on_delivery_failure(to, msg);
                sender.drain_events();
                self.enqueue(from, outs);
            }
        }
    }

    /// Delivers, then fires timer rounds until no machine waits.
    fn settle(&mut self) {
        self.deliver_all();
        for _ in 0..SETTLE_ROUNDS {
            let Some(next) = self.peers.values().filter_map(|m| m.next_deadline()).min() else {
                return;
            };
            self.now = self.now.max(next);
            let now = self.now;
            let due: Vec<Id> = self
                .peers
                .iter()
                .filter(|(_, m)| m.next_deadline().is_some_and(|d| d <= now))
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                self.command(id, Command::TimerTick { now });
            }
            self.deliver_all();
        }
    }

    /// Runs `ops` operations' worth of `work`, then settles, and books the
    /// messages sent to `OPS[op]`.
    fn operation(&mut self, op: usize, ops: usize, work: impl FnOnce(&mut Replay)) {
        let sent0 = self.sent;
        work(self);
        self.settle();
        self.op_msgs[op].0 += self.sent - sent0;
        self.op_msgs[op].1 += ops as u64;
    }

    fn random_peers(&mut self, count: usize) -> Vec<Id> {
        let live: Vec<Id> = self.peers.keys().copied().collect();
        (0..count.min(live.len()))
            .map(|_| live[self.rng.gen_range(0..live.len())])
            .collect()
    }

    /// Replays `(source, key)` queries, all in flight at once.
    pub fn queries(&mut self, queries: &[(Id, Id)]) {
        self.operation(0, queries.len(), |r| {
            for (q, &(src, key)) in queries.iter().enumerate() {
                let qid = (1 << 40) | q as u64;
                r.command(src, Command::StartQuery { qid, key });
            }
        });
    }

    /// Exercises every message kind the churn engine causes: a query
    /// batch, a probe round, joins with link building, departures, and
    /// crashes found by the next probe round.
    pub fn churn_scenario(&mut self, seed: SeedTree) {
        let n = self.peers.len();
        let sources = self.random_peers(2000);
        let targets = self.random_peers(2000);
        let queries: Vec<(Id, Id)> = sources.into_iter().zip(targets).collect();
        self.queries(&queries);

        let probed = self.random_peers(1000);
        self.operation(2, probed.len(), |r| {
            for id in probed {
                r.command(id, Command::ProbeRing);
            }
        });

        let keys = GnutellaKeys::default();
        let mut id_rng = seed.child(labels::IDS).rng();
        let joiners: Vec<Id> = std::iter::repeat_with(|| keys.sample(&mut id_rng))
            .filter(|id| !self.peers.contains_key(id))
            .take((n / 20).clamp(1, 100))
            .collect();
        let contacts = self.random_peers(joiners.len());
        self.operation(1, joiners.len(), |r| {
            for (&id, &contact) in joiners.iter().zip(&contacts) {
                let machine = PeerMachine::new(id, peer_seed(r.seed, id), r.cfg.clone());
                r.peers.insert(id, machine);
                r.command(id, Command::Join { contact });
                // Serial, as the engine does it: a walk needs the
                // joiner's ring links to leave from.
                r.settle();
                r.command(id, Command::BuildLinks { walks: 3 });
                r.settle();
            }
        });

        let leavers = self.random_peers((n / 40).clamp(1, 50));
        for id in leavers {
            self.command(id, Command::Depart);
            self.settle();
            self.peers.remove(&id);
        }

        let victims = self.random_peers((n / 40).clamp(1, 50));
        for id in victims {
            self.peers.remove(&id);
        }
        let everyone: Vec<Id> = self.peers.keys().copied().collect();
        self.operation(2, everyone.len(), |r| {
            for &id in &everyone {
                r.command(id, Command::ProbeRing);
            }
        });

        // Under the reliable plan a send to a corpse bounces at once, so
        // no deadline above ever came due; tick every machine once for
        // the cost of a timer round that finds nothing to fire.
        self.now += 1;
        let now = self.now;
        for id in everyone {
            self.command(id, Command::TimerTick { now });
        }
        self.settle();
    }

    /// Mean protocol time per delivered message, clock cost removed.
    pub fn mean_message_ns(&self) -> f64 {
        let ns: u64 = self.message_ns.iter().sum();
        let count: u64 = self.message_count.iter().sum();
        self.net_mean(ns, count)
    }

    fn net_mean(&self, ns: u64, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        (ns as f64 / count as f64 - self.clock_ns).max(0.0)
    }

    /// Sets the `protocol.*` metrics. A kind the scenario never produced
    /// reads zero.
    pub fn report(&self, out: &mut Outcome) {
        let reported = |kinds: &'static [&'static str]| {
            kinds
                .iter()
                .enumerate()
                .filter(|(_, kind)| **kind != "other")
        };
        for (k, kind) in reported(&MESSAGE_KINDS) {
            out.set(
                &format!("protocol.on_message_ns.{kind}"),
                self.net_mean(self.message_ns[k], self.message_count[k]),
            );
        }
        for (k, kind) in reported(&COMMAND_KINDS) {
            out.set(
                &format!("protocol.on_command_ns.{kind}"),
                self.net_mean(self.command_ns[k], self.command_count[k]),
            );
        }
        for (o, op) in OPS.iter().enumerate() {
            let (msgs, ops) = self.op_msgs[o];
            out.set(
                &format!("protocol.msgs_per_{op}"),
                crate::ratio(msgs as f64, ops as f64),
            );
        }
        let counts: Vec<String> = MESSAGE_KINDS
            .iter()
            .zip(self.message_count)
            .filter(|(_, c)| *c > 0)
            .map(|(k, c)| format!("{k} {c}"))
            .collect();
        out.note(format!(
            "replay loop delivered: {}; clock pair {:.0} ns removed from each mean",
            counts.join(", "),
            self.clock_ns
        ));
    }
}
