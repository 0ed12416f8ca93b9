//! The per-peer protocol state machine.
//!
//! A [`PeerMachine`] owns exactly what a real Oscar node would own — its
//! ring links (predecessor + successor list), its long links, a bounded
//! membership view — and advances only by handling one message or one
//! local command at a time, returning the messages it wants delivered.
//! It never touches a global snapshot; *who* delivers the messages (the
//! discrete-event simulator, the threaded actor runtime, or a unit
//! test's hand pump) is the driver's business.
//!
//! This module holds the state, the accessors, the three dispatchers and
//! the timer tick; the handlers live in five sub-machines — `join`,
//! `walk` (sampling walks and the link handshake), `query`, `repair`
//! (probes, the dead-neighbour verdict, departure) and `view` (membership
//! and gossip) — over the shared `tables`.
//!
//! Determinism boundary: every stochastic protocol decision (walk
//! proposals, MH acceptances) draws from the RNG *carried inside the
//! token*, so outcomes are a pure function of the token seed and the
//! link tables it traverses — independent of scheduling. The only
//! handler that uses the driver-supplied RNG is gossip, which is
//! explicitly outside the deterministic core.

mod config;
mod join;
mod query;
mod repair;
mod tables;
mod view;
mod walk;

pub use config::{PeerConfig, RepairPolicy};

use crate::message::{Command, Message, OpKind, Outbound, ProtocolEvent, RepairTrigger};
use oscar_types::labels::protocol_machine::LBL_PEER;
use oscar_types::{mix64, Id, SeedTree};
use rand::RngCore;
use tables::{Bounded, KeyWindow, NearSet, Op, OpTable, Recent};

/// The canonical per-peer machine seed for a deployment rooted at
/// `root_seed`. Every driver must use this derivation so that the same
/// deployment seed yields the same walk-token streams in all worlds —
/// the cross-driver equivalence test depends on it.
pub fn peer_seed(root_seed: u64, id: Id) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "this is THE canonical entry point every driver shares to root per-peer streams"
    )]
    SeedTree::new(root_seed).child2(LBL_PEER, id.raw()).seed()
}

/// A pure, side-effect-free Oscar peer.
#[derive(Clone, Debug)]
pub struct PeerMachine {
    id: Id,
    seed: u64,
    cfg: PeerConfig,
    /// Ring predecessor; `id` itself when alone.
    pred: Id,
    /// Successor list, nearest first (by clockwise distance; see
    /// `repair::merge_succs` for the one exception); empty when alone.
    succs: Bounded<{ join::SUCC_LEN }>,
    /// Long links this peer initiated (sorted).
    long_out: Bounded<{ walk::MAX_LONG_OUT }>,
    /// Long links this peer accepted (sorted).
    long_in: Bounded<{ walk::MAX_LONG_IN }>,
    /// Bounded gossip membership view (sorted, excludes `id`).
    known: NearSet,
    joined: bool,
    walk_counter: u64,
    /// The walk batch in flight: walks in launch order, samples as they
    /// land.
    batch: Option<Vec<(u64, Option<Id>)>>,
    events: Vec<ProtocolEvent>,
    /// Messages the running dispatcher has queued for the driver.
    outbox: Vec<Outbound>,
    /// Pending operations awaiting completion messages, and the virtual
    /// clock their deadlines run on.
    ops: OpTable,
    /// Recent message instance keys (dedup window).
    seen: KeyWindow,
    /// Recent ring splices `(joiner, old_pred)` this peer served, so a
    /// retried `JoinRequest` whose welcome was lost can be re-welcomed.
    recent_splices: Recent<(Id, Id)>,
    /// Neighbours this peer has declared dead (sorted, bounded). Gates
    /// predecessor hand-offs and successor merges; any message received
    /// from a suspect acquits it (false-positive recovery).
    suspects: NearSet,
    /// Monotone counter of `ProbeRing` rounds — salts probe nonces so
    /// every round rolls fresh fault dice per edge.
    probe_epoch: u64,
    /// Join requests this peer has already forwarded, as `(joiner,
    /// attempt)` — a repeat means greedy routing found a cycle (see
    /// `join::on_join_request`) and the request is dropped.
    forwarded_joins: Recent<(Id, u32)>,
}

impl PeerMachine {
    /// A solo peer: its own predecessor, owning the whole ring.
    pub fn new(id: Id, seed: u64, cfg: PeerConfig) -> Self {
        PeerMachine {
            id,
            seed,
            pred: id,
            succs: Bounded::new(),
            long_out: Bounded::new(),
            long_in: Bounded::new(),
            known: NearSet::new(id, view::VIEW_CAP),
            joined: false,
            walk_counter: 0,
            batch: None,
            events: Vec::new(),
            outbox: Vec::new(),
            ops: OpTable::new(seed),
            seen: KeyWindow::new(),
            recent_splices: Recent::new(join::SPLICE_MEMORY),
            suspects: NearSet::new(id, repair::SUSPECT_CAP),
            probe_epoch: 0,
            forwarded_joins: Recent::new(join::JOIN_FORWARD_MEMORY),
            cfg,
        }
    }

    /// This peer's ring position.
    pub fn id(&self) -> Id {
        self.id
    }

    /// Current ring predecessor (`id()` when alone).
    pub fn pred(&self) -> Id {
        self.pred
    }

    /// Successor list, nearest first.
    pub fn succs(&self) -> &[Id] {
        &self.succs
    }

    /// Long out-links, sorted.
    pub fn long_out(&self) -> &[Id] {
        &self.long_out
    }

    /// Long in-links, sorted.
    pub fn long_in(&self) -> &[Id] {
        &self.long_in
    }

    /// Membership view, sorted.
    pub fn known(&self) -> &[Id] {
        &self.known
    }

    /// True once the peer has spliced into the ring (or was bootstrapped).
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Neighbours this peer has declared dead (sorted).
    pub fn suspects(&self) -> &[Id] {
        &self.suspects
    }

    /// Canonical neighbour table: predecessor, successors, and long links,
    /// sorted and de-duplicated. Identical across drivers by construction,
    /// which is what makes token walks scheduling-independent.
    pub fn neighbors(&self) -> Vec<Id> {
        self.neighbor_table().to_vec()
    }

    /// [`Self::neighbors`] without an allocation: built on the stack, once
    /// per walk step.
    fn neighbor_table(&self) -> Bounded<{ walk::NEIGHBOR_CAP }> {
        // Never full: the capacity is the sum of the four tables' caps.
        // Plain loops, not a `flatten`: the order of filling is moot, since
        // the table is sorted next.
        let mut t = Bounded::new();
        t.push(self.pred);
        for &x in self.succs.iter() {
            t.push(x);
        }
        for &x in self.long_out.iter() {
            t.push(x);
        }
        for &x in self.long_in.iter() {
            t.push(x);
        }
        t.sort_dedup();
        t.retain(|x| x != self.id);
        t
    }

    /// Full link-table fingerprint for equivalence checks:
    /// `(pred, succs, long_out, long_in)`.
    pub fn fingerprint(&self) -> (Id, Vec<Id>, Vec<Id>, Vec<Id>) {
        (
            self.pred,
            self.succs.to_vec(),
            self.long_out.to_vec(),
            self.long_in.to_vec(),
        )
    }

    /// Drains the milestones observed since the last drain.
    pub fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.events)
    }

    /// The earliest pending deadline, if any operation is still waiting.
    /// Drivers use the minimum across all machines to decide the next
    /// timer round; `None` everywhere means the deployment has settled.
    pub fn next_deadline(&self) -> Option<u64> {
        self.ops.next_deadline()
    }

    /// Hands the machine an empty buffer for its sends: the next
    /// [`Self::on_command`], [`Self::on_message`] or
    /// [`Self::on_delivery_failure`] returns it, so a driver that lends
    /// the buffer it got back sends without allocating.
    pub fn lend_outbox(&mut self, buf: Vec<Outbound>) {
        debug_assert!(buf.is_empty(), "a lent outbox must be empty");
        debug_assert!(self.outbox.is_empty(), "no call is running");
        self.outbox = buf;
    }

    /// Handles a local driver command.
    pub fn on_command(&mut self, cmd: Command, rng: &mut dyn RngCore) -> Vec<Outbound> {
        match cmd {
            Command::Bootstrap { pred, succs, known } => {
                self.enter_ring(pred, succs);
                known.into_iter().for_each(|k| self.known.insert(k));
            }
            Command::Join { contact } => self.start_join(contact),
            Command::BuildLinks { walks } => self.launch_walks(walks),
            Command::Rewire { walks } => self.rewire(walks),
            Command::StartQuery { qid, key } => self.start_query(qid, key),
            Command::GossipTick => self.gossip_round(rng),
            Command::ProbeRing => self.probe_ring(),
            Command::Depart => self.depart(),
            Command::TimerTick { now } => self.on_timer_tick(now),
        }
        std::mem::take(&mut self.outbox)
    }

    /// Handles one delivered message from `from`.
    pub fn on_message(&mut self, from: Id, msg: Message, rng: &mut dyn RngCore) -> Vec<Outbound> {
        // Duplicate suppression for token steps: a duplicated delivery of
        // one send must not double-advance a walk or query. Keyed by
        // message content (see `Message::instance_key`), so consecutive
        // *legitimate* steps of the same token never collide.
        if let Some(key) = msg.dedup_key() {
            if self.seen.contains(key) {
                return std::mem::take(&mut self.outbox);
            }
            self.seen.push(key);
        }
        // Hearing from a suspect acquits it: the declaration was a false
        // positive (lossy edge, slow probe) and the peer is demonstrably up.
        self.suspects.remove(from);
        match msg {
            Message::JoinRequest { joiner, attempt } => self.on_join_request(joiner, attempt),
            Message::JoinWelcome { pred, succs, .. } => self.on_join_welcome(pred, succs),
            Message::NewSuccessor { succ } => self.on_new_successor(succ),
            Message::WalkProbe(token) => self.on_walk_probe(from, token),
            Message::WalkReject(token) => self.advance_walk(token),
            Message::WalkDone {
                walk_id, sample, ..
            } => self.on_walk_done(walk_id, sample),
            Message::LinkRequest { nonce } => self.on_link_request(from, nonce),
            Message::LinkAccept { .. } => self.on_link_accept(from),
            Message::LinkReject { .. } => {
                self.ops.clear(OpKind::Link, from.raw());
            }
            Message::Unlink => self.unlink(from),
            Message::Query(token) => self.process_query(token),
            Message::QueryDone(report) => self.finish_query(report),
            Message::GossipPush { view } => {
                self.absorb_view(from, view);
                let view = self.view_sample(rng);
                self.send(from, Message::GossipPull { view });
            }
            Message::GossipPull { view } => self.absorb_view(from, view),
            Message::Ping { nonce } => self.on_ping(from, nonce),
            Message::Pong { succs, .. } => self.on_pong(from, &succs),
            Message::Leaving { pred, succs } => self.on_leaving(from, pred, succs),
            Message::PredUpdate => self.maybe_adopt_pred(from),
        }
        std::mem::take(&mut self.outbox)
    }

    /// Driver callback: a message this peer sent could not be delivered
    /// (dead or unknown destination). This is the uniform failure model
    /// across drivers — the DES and the actor runtime report it the same
    /// way, so recovery behaviour stays identical.
    pub fn on_delivery_failure(&mut self, to: Id, msg: Message) -> Vec<Outbound> {
        self.known.remove(to);
        match msg {
            Message::Query(token) => self.on_query_bounce(to, token),
            // A bounced probe is an instant verdict: the driver itself
            // reports the destination dead — no need to drain retries.
            Message::Ping { .. } => self.declare_dead(to, RepairTrigger::RingDetect),
            Message::WalkProbe(mut token) => {
                // A probe to a corpse is a rejected move: step consumed,
                // walk stays here.
                token.remaining = token.remaining.saturating_sub(1);
                self.advance_walk(token);
            }
            // The requester died after we granted the slot: reclaim it.
            Message::LinkAccept { .. } => self.long_in.retain(|x| x != to),
            // Lost walks, joins, reports, gossip: nothing to recover.
            _ => {}
        }
        std::mem::take(&mut self.outbox)
    }

    /// Queues `msg` for `to`; the dispatcher that is running hands the
    /// queue to the driver, in send order, when it returns.
    fn send(&mut self, to: Id, msg: Message) {
        self.outbox.push(Outbound::new(to, msg));
    }

    /// Fires expired deadlines at `now` (see [`OpTable::expire`]), then
    /// acts on them: retries are re-sent first, in table order, then the
    /// exhausted operations degrade gracefully via [`Self::give_up`].
    fn on_timer_tick(&mut self, now: u64) {
        let (retries, gave_up) = self.ops.expire(
            now,
            self.cfg.max_retries,
            &self.known,
            self.id,
            &mut self.events,
        );
        for (op, attempt) in retries {
            self.retry(op, attempt);
        }
        for (op, attempts) in gave_up {
            self.events.push(ProtocolEvent::GaveUp {
                peer: self.id,
                op: op.addr().0,
                attempts,
            });
            self.give_up(op, attempts);
        }
    }

    /// Re-sends a timed-out operation as its issue number `attempt`.
    fn retry(&mut self, op: Op, attempt: u32) {
        // Salted nonce: a link or probe retry is content-distinct, so it
        // draws a fresh fault decision.
        let salted = |nonce_base: u64| mix64(nonce_base ^ attempt as u64);
        match op {
            Op::Join { contact } => self.join_request(contact, attempt),
            Op::Walk { walk_id } => self.advance_walk(self.walk_token(walk_id, attempt)),
            Op::Query { qid, key } => self.issue_query(qid, key, attempt),
            Op::Link {
                target, nonce_base, ..
            } => {
                let nonce = salted(nonce_base);
                self.send(target, Message::LinkRequest { nonce });
            }
            Op::Probe { target, nonce_base } => {
                let nonce = salted(nonce_base);
                self.send(target, Message::Ping { nonce });
            }
        }
    }

    /// Graceful degradation when an operation exhausts its retries: the
    /// walk batch settles without the lost walk (a shorter sample), the
    /// query reports failure cleanly, the join stays pending for the
    /// harness to reissue — never a [`ProtocolEvent::Fault`].
    fn give_up(&mut self, op: Op, attempts: u32) {
        match op {
            Op::Join { .. } => {}
            Op::Walk { walk_id } => self.abandon_walk(walk_id),
            Op::Query { qid, key } => self.fail_query(qid, key, attempts),
            // Best-effort cleanup: if the target granted the slot but
            // every accept was lost, the unlink releases it; if the
            // target never heard us, it's a no-op there.
            Op::Link { target, .. } => self.send(target, Message::Unlink),
            // The failure detector's verdict: a drained probe budget
            // declares the neighbour dead and triggers repair.
            Op::Probe { target, .. } => self.declare_dead(target, RepairTrigger::RingDetect),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::QueryReport;
    use std::collections::BTreeMap;

    /// A minimal in-test pump: synchronous message delivery until quiet.
    pub(super) struct Pump {
        pub(super) peers: BTreeMap<Id, PeerMachine>,
        queue: std::collections::VecDeque<(Id, Outbound)>,
        delivered: usize,
    }

    impl Pump {
        pub(super) fn new(peers: Vec<PeerMachine>) -> Self {
            Pump {
                peers: peers.into_iter().map(|p| (p.id(), p)).collect(),
                queue: Default::default(),
                delivered: 0,
            }
        }

        pub(super) fn command(&mut self, at: Id, cmd: Command) {
            let mut rng = SeedTree::new(0).rng();
            let outs = self.peers.get_mut(&at).unwrap().on_command(cmd, &mut rng);
            for o in outs {
                self.queue.push_back((at, o));
            }
            self.run();
        }

        fn run(&mut self) {
            let mut rng = SeedTree::new(1).rng();
            while let Some((from, out)) = self.queue.pop_front() {
                self.delivered += 1;
                assert!(self.delivered < 100_000, "message storm");
                let outs = if let Some(peer) = self.peers.get_mut(&out.to) {
                    peer.on_message(from, out.msg, &mut rng)
                } else {
                    self.peers
                        .get_mut(&from)
                        .unwrap()
                        .on_delivery_failure(out.to, out.msg)
                };
                let at = out.to;
                for o in outs {
                    // Failure replies originate at the original sender.
                    let src = if self.peers.contains_key(&at) {
                        at
                    } else {
                        from
                    };
                    self.queue.push_back((src, o));
                }
            }
        }
    }

    pub(super) fn machines(ids: &[u64]) -> Vec<PeerMachine> {
        machines_with(ids, PeerConfig::default())
    }

    pub(super) fn machines_with(ids: &[u64], cfg: PeerConfig) -> Vec<PeerMachine> {
        ids.iter()
            .map(|&i| PeerMachine::new(Id::new(i), 1000 + i, cfg.clone()))
            .collect()
    }

    /// The kinds of a batch of outbounds, with their destinations.
    fn sent(outs: &[Outbound]) -> Vec<(&'static str, u64)> {
        let kind = |m: &Message| match m {
            Message::JoinRequest { .. } => "join",
            Message::WalkProbe(_) => "walk",
            Message::Query(_) => "query",
            Message::LinkRequest { .. } => "link",
            Message::Ping { .. } => "ping",
            Message::PredUpdate => "pred-update",
            _ => "other",
        };
        outs.iter().map(|o| (kind(&o.msg), o.to.raw())).collect()
    }

    #[test]
    fn one_tick_fires_all_five_kinds_in_table_order_retries_before_give_ups() {
        use OpKind::*;
        let cfg = PeerConfig {
            max_retries: 1,
            ..PeerConfig::default()
        };
        let mut m = PeerMachine::new(Id::new(100), 1, cfg);
        let mut rng = SeedTree::new(3).rng();
        let mut cmd = |m: &mut PeerMachine, c: Command| m.on_command(c, &mut rng);
        // Round 0: a join (left pending by the bootstrap that overtakes
        // it) and two probes. The tick at round 1 retries all three.
        let contact = Id::new(900);
        assert_eq!(
            sent(&cmd(&mut m, Command::Join { contact })),
            [("join", 900)]
        );
        let (pred, succs) = (Id::new(50), vec![Id::new(200), Id::new(300)]);
        let known = succs.clone();
        cmd(&mut m, Command::Bootstrap { pred, succs, known });
        assert_eq!(
            sent(&cmd(&mut m, Command::ProbeRing)),
            [("ping", 50), ("ping", 200)]
        );
        let outs = cmd(&mut m, Command::TimerTick { now: 1 });
        assert_eq!(
            sent(&outs),
            [("ping", 50), ("ping", 200)],
            "joined: no re-join"
        );
        m.drain_events();
        // Round 1: a query, a link (its walk landed) and a second walk.
        let key = Id::new(250);
        assert_eq!(
            sent(&cmd(&mut m, Command::StartQuery { qid: 7, key })),
            [("query", 200)]
        );
        cmd(&mut m, Command::BuildLinks { walks: 1 });
        let done = Message::WalkDone {
            walk_id: 0,
            sample: Id::new(777),
            attempt: 0,
        };
        let mut mrng = SeedTree::new(4).rng();
        assert_eq!(
            sent(&m.on_message(Id::new(300), done, &mut mrng)),
            [("link", 777)]
        );
        cmd(&mut m, Command::BuildLinks { walks: 1 });
        m.drain_events();
        // The table now holds, in issue order: join, probe 50, probe 200
        // (one retry each — spent), query, link, walk (fresh). One tick
        // far ahead fires all six.
        let outs = cmd(&mut m, Command::TimerTick { now: 100 });
        let fired: Vec<(&str, OpKind, u32)> = m
            .drain_events()
            .iter()
            .filter_map(|e| match *e {
                ProtocolEvent::TimedOut { op, attempt, .. } => Some(("timed-out", op, attempt)),
                ProtocolEvent::Retried { op, attempt, .. } => Some(("retried", op, attempt)),
                ProtocolEvent::GaveUp { op, attempts, .. } => Some(("gave-up", op, attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fired,
            [
                ("timed-out", Join, 1),
                ("timed-out", Probe, 1),
                ("timed-out", Probe, 1),
                ("timed-out", Query, 0),
                ("retried", Query, 1),
                ("timed-out", Link, 0),
                ("retried", Link, 1),
                ("timed-out", Walk, 0),
                ("retried", Walk, 1),
                ("gave-up", Join, 2),
                ("gave-up", Probe, 2),
                ("gave-up", Probe, 2),
            ]
        );
        // Retries go out first, in table order — the query still routes
        // via 200, which only the give-ups after it declare dead (its
        // successor 300 then gets the claim on the vacated slot).
        let walk_hop = outs[2].to.raw();
        assert_eq!(
            sent(&outs),
            [
                ("query", 200),
                ("link", 777),
                ("walk", walk_hop),
                ("pred-update", 300)
            ]
        );
        assert_eq!(m.suspects(), [Id::new(50), Id::new(200)]);

        // The completion gate: the first report for the pending query
        // counts, a second (content-distinct, so not deduplicated) finds
        // no entry and is ignored.
        let report = |hops| {
            Message::QueryDone(QueryReport {
                qid: 7,
                origin: Id::new(100),
                key,
                success: true,
                hops,
                wasted: 0,
                backtracks: 0,
                attempt: 1,
                dest: Some(Id::new(300)),
            })
        };
        m.on_message(Id::new(300), report(2), &mut mrng);
        m.on_message(Id::new(300), report(3), &mut mrng);
        let completed = m.drain_events();
        assert_eq!(completed.len(), 1, "{completed:?}");
        assert!(matches!(&completed[0], ProtocolEvent::QueryCompleted(r) if r.hops == 2));
        assert_eq!(m.next_deadline(), Some(101), "link and walk still pending");
    }
}
