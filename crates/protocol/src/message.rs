//! The protocol's message taxonomy and driver-facing envelopes.
//!
//! A [`PeerMachine`](crate::PeerMachine) communicates with the world
//! exclusively through these types: it receives a [`Message`] (or a local
//! [`Command`] from its driver) and returns [`Outbound`] messages plus
//! locally observable [`ProtocolEvent`]s. Drivers — the discrete-event
//! simulator and the threaded actor runtime — only move envelopes; they
//! never inspect or mutate peer state.

use crate::token::{QueryToken, WalkToken};
use oscar_types::{mix64, Id};

/// A protocol message between two peers.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    // --- ring membership -------------------------------------------------
    /// Routed greedily toward `joiner`'s position; the owner splices.
    JoinRequest {
        /// The joining peer (also the routing key).
        joiner: Id,
        /// Which try this is (0 = first; bumped by timeout retries so a
        /// retried request is content-distinct from the original).
        attempt: u32,
    },
    /// Owner → joiner: your predecessor and successor list.
    JoinWelcome {
        /// The joiner's new predecessor (the owner's old one).
        pred: Id,
        /// The joiner's successor list, nearest first (head = the owner).
        succs: Vec<Id>,
        /// Echo of the request's attempt (keeps retried welcomes
        /// content-distinct under deterministic fault decisions).
        attempt: u32,
    },
    /// Joiner → its predecessor: "your immediate successor is now me".
    NewSuccessor {
        /// The new successor (the joiner).
        succ: Id,
    },

    // --- Metropolis–Hastings sampling walk -------------------------------
    /// Holder → candidate: one walk step proposal.
    WalkProbe(WalkToken),
    /// Candidate → holder: proposal rejected, walk stays (step consumed).
    WalkReject(WalkToken),
    /// Final holder → origin: the walk's sample.
    WalkDone {
        /// Which of the origin's walks finished.
        walk_id: u64,
        /// The sampled peer.
        sample: Id,
        /// Which launch of the walk produced the sample.
        attempt: u32,
    },

    // --- long links -------------------------------------------------------
    /// Origin → sampled peer: request a long link.
    LinkRequest {
        /// Deterministic handshake nonce, echoed by the reply. Retries
        /// salt it so a retried request draws a fresh fault decision.
        nonce: u64,
    },
    /// Target accepted; the requester installs the out-link.
    LinkAccept {
        /// Echo of the request nonce.
        nonce: u64,
    },
    /// Target at capacity; the requester drops the sample.
    LinkReject {
        /// Echo of the request nonce.
        nonce: u64,
    },
    /// Either endpoint dissolves the link (rewire, shutdown).
    Unlink,

    // --- queries ----------------------------------------------------------
    /// A greedy-routed query token, forwarded toward its key. Boxed: the
    /// token is the largest payload by far, and every envelope on both
    /// drivers is as wide as the widest variant.
    Query(Box<QueryToken>),
    /// Final peer → origin: the query's outcome.
    QueryDone(QueryReport),

    // --- gossip membership -------------------------------------------------
    /// Push a sample of the sender's membership view.
    GossipPush {
        /// Peer ids known to the sender (a bounded sample).
        view: Vec<Id>,
    },
    /// Reply to a push with the receiver's own sample (one round, no echo).
    GossipPull {
        /// Peer ids known to the replier (a bounded sample).
        view: Vec<Id>,
    },

    // --- failure detection and ring repair ---------------------------------
    /// Ring-liveness probe to a predecessor or successor. Detection is
    /// timer-table-driven: the sender arms a probe deadline and declares
    /// the target dead only after the retry budget drains without a pong.
    Ping {
        /// Deterministic probe nonce (salted per retry and per probe
        /// epoch so every probe rolls fresh fault dice).
        nonce: u64,
    },
    /// Probe reply; piggybacks the responder's successor list so every
    /// probe round doubles as Chord-style successor-list stabilisation.
    Pong {
        /// Echo of the probe nonce.
        nonce: u64,
        /// The responder, then its successors, truncated (same shape as
        /// a welcome's successor list).
        succs: Vec<Id>,
    },
    /// Graceful departure announcement to ring neighbours: the leaver
    /// hands over its predecessor and successor knowledge so receivers
    /// splice without a detection delay.
    Leaving {
        /// The leaver's ring predecessor.
        pred: Id,
        /// The leaver's successor list, nearest first.
        succs: Vec<Id>,
    },
    /// Sender → its (believed) immediate successor: "I am your live
    /// predecessor". Accepted when the sender is closer than the current
    /// predecessor or the current predecessor has been declared dead.
    PredUpdate,
}

/// Stable mix64 fold (NOT `std::hash` — instance keys feed committed
/// seeded artifacts and must never drift across toolchains).
#[inline]
fn fold(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v)
}

fn fold_walk(tag: u64, t: &WalkToken) -> u64 {
    let mut acc = fold(tag, t.walk_id);
    acc = fold(acc, t.origin.raw());
    acc = fold(acc, t.remaining as u64);
    acc = fold(acc, t.attempt as u64);
    fold(acc, t.rng.fingerprint())
}

impl Message {
    /// A content-derived key identifying this *instance* of the message.
    ///
    /// Two properties the protocol relies on:
    ///
    /// * every step of a forwarded token yields a distinct key (walk
    ///   tokens change `remaining`/rng state per step, query tokens burn
    ///   budget per send), so duplicate *deliveries* of one send are
    ///   distinguishable from consecutive legitimate sends;
    /// * a timeout retry is content-distinct from the original (`attempt`
    ///   counters, salted link nonces), so a deterministic per-content
    ///   fault decision cannot doom every retry to the original's fate.
    ///
    /// `Unlink` is the one content-constant message: its copies on an
    /// edge share a fate under fault injection, which is acceptable — a
    /// lost unlink only leaves a bounded stale in-link behind.
    pub fn instance_key(&self) -> u64 {
        match self {
            Message::JoinRequest { joiner, attempt } => {
                fold(fold(0x01, joiner.raw()), *attempt as u64)
            }
            Message::JoinWelcome {
                pred,
                succs,
                attempt,
            } => {
                let mut acc = fold(0x02, pred.raw());
                for s in succs {
                    acc = fold(acc, s.raw());
                }
                fold(acc, *attempt as u64)
            }
            Message::NewSuccessor { succ } => fold(0x03, succ.raw()),
            Message::WalkProbe(t) => fold_walk(0x04, t),
            Message::WalkReject(t) => fold_walk(0x05, t),
            Message::WalkDone {
                walk_id,
                sample,
                attempt,
            } => fold(fold(fold(0x06, *walk_id), sample.raw()), *attempt as u64),
            Message::LinkRequest { nonce } => fold(0x07, *nonce),
            Message::LinkAccept { nonce } => fold(0x08, *nonce),
            Message::LinkReject { nonce } => fold(0x09, *nonce),
            Message::Unlink => mix64(0x0A),
            Message::Query(t) => {
                let mut acc = fold(0x0B, t.qid);
                acc = fold(acc, t.origin.raw());
                acc = fold(acc, t.attempt as u64);
                acc = fold(acc, t.budget as u64);
                fold(acc, (t.hops as u64) ^ ((t.wasted as u64) << 32))
            }
            Message::QueryDone(r) => {
                let mut acc = fold(0x0C, r.qid);
                acc = fold(acc, r.origin.raw());
                acc = fold(acc, r.attempt as u64);
                acc = fold(acc, (r.hops as u64) ^ ((r.wasted as u64) << 32));
                fold(acc, r.success as u64)
            }
            Message::GossipPush { view } => view.iter().fold(mix64(0x0D), |a, p| fold(a, p.raw())),
            Message::GossipPull { view } => view.iter().fold(mix64(0x0E), |a, p| fold(a, p.raw())),
            Message::Ping { nonce } => fold(0x0F, *nonce),
            Message::Pong { nonce, succs } => succs
                .iter()
                .fold(fold(0x10, *nonce), |a, p| fold(a, p.raw())),
            Message::Leaving { pred, succs } => succs
                .iter()
                .fold(fold(0x11, pred.raw()), |a, p| fold(a, p.raw())),
            Message::PredUpdate => mix64(0x12),
        }
    }

    /// The dedup key, for messages where a duplicated delivery would
    /// otherwise double-advance in-flight state (token steps and their
    /// completions). Everything else is handled idempotently by the
    /// machine and needs no suppression.
    pub fn dedup_key(&self) -> Option<u64> {
        match self {
            Message::WalkProbe(_)
            | Message::WalkReject(_)
            | Message::WalkDone { .. }
            | Message::Query(_)
            | Message::QueryDone(_) => Some(self.instance_key()),
            _ => None,
        }
    }
}

/// A message queued for delivery: the driver owns *how* it travels.
#[derive(Clone, Debug, PartialEq)]
pub struct Outbound {
    /// Destination peer.
    pub to: Id,
    /// Payload.
    pub msg: Message,
}

impl Outbound {
    /// Convenience constructor.
    pub fn new(to: Id, msg: Message) -> Self {
        Outbound { to, msg }
    }
}

/// A local instruction from the driver (or harness) to one peer.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Install ring state directly (pre-seeded topologies, bench bootstrap).
    Bootstrap {
        /// Predecessor on the ring.
        pred: Id,
        /// Successor list, nearest first.
        succs: Vec<Id>,
        /// Initial membership view.
        known: Vec<Id>,
    },
    /// Join the overlay through `contact`.
    Join {
        /// Any live peer already in the overlay.
        contact: Id,
    },
    /// Launch `walks` MH sampling walks and link to the samples.
    BuildLinks {
        /// Number of walks (= long links wanted).
        walks: u32,
    },
    /// Drop all long out-links and rebuild them with fresh walks.
    Rewire {
        /// Number of replacement walks.
        walks: u32,
    },
    /// Resolve `key`: route a query and report the outcome.
    StartQuery {
        /// Harness-assigned id, echoed in the report.
        qid: u64,
        /// The key to resolve.
        key: Id,
    },
    /// One round of anti-entropy gossip (uses the driver's RNG — the only
    /// protocol activity outside the deterministic token core).
    GossipTick,
    /// Probe the ring neighbourhood (predecessor + leading successors)
    /// for liveness. Detection rides the timer table: unanswered probes
    /// retry with backoff and a drained budget declares the target dead,
    /// triggering the configured [`RepairPolicy`](crate::RepairPolicy).
    /// The driver owns the probe cadence, the machine owns the verdict.
    ProbeRing,
    /// Leave the overlay gracefully: announce [`Message::Leaving`] to
    /// ring neighbours, dissolve long links, and go quiet. The driver
    /// removes the actor once the farewell messages have flushed.
    Depart,
    /// Advance this peer's virtual clock to `now` and fire any expired
    /// deadlines. Drivers own time (the DES counts settle rounds, the
    /// threaded runtime ticks at quiescent points); machines only own
    /// deadlines — no protocol code ever reads a wall clock.
    TimerTick {
        /// The driver's current timer round (monotone per deployment).
        now: u64,
    },
}

/// Which class of pending operation a timeout event refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A `JoinRequest` awaiting its `JoinWelcome`.
    Join,
    /// A launched MH walk awaiting its `WalkDone`.
    Walk,
    /// An issued query awaiting completion.
    Query,
    /// A `LinkRequest` awaiting accept/reject.
    Link,
    /// A ring-liveness `Ping` awaiting its `Pong`.
    Probe,
}

/// How a peer came to declare a neighbour dead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RepairTrigger {
    /// A ring probe exhausted its retries (or bounced) without a pong.
    RingDetect,
    /// A query forward bounced off the corpse (on-probe detection).
    QueryDetect,
}

/// Outcome of one query, reported back to its origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReport {
    /// Harness-assigned query id.
    pub qid: u64,
    /// The issuing peer.
    pub origin: Id,
    /// The key that was resolved.
    pub key: Id,
    /// True iff the key's owner was reached within budget.
    pub success: bool,
    /// Useful forward hops.
    pub hops: u32,
    /// Non-advancing messages (dead probes, backtracks).
    pub wasted: u32,
    /// Dead-end retreats.
    pub backtracks: u32,
    /// Which issue of the query produced this outcome (0 = first try).
    pub attempt: u32,
    /// The owner that answered, when successful.
    pub dest: Option<Id>,
}

impl QueryReport {
    /// Total message cost (useful + wasted), the paper's cost metric.
    pub fn cost(&self) -> u32 {
        self.hops + self.wasted
    }
}

/// Locally observable protocol milestones, drained by the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// The peer spliced into the ring (welcome processed).
    JoinCompleted {
        /// The joined peer.
        peer: Id,
    },
    /// All outstanding walks finished and link requests were issued.
    WalksSettled {
        /// The walking peer.
        peer: Id,
        /// Samples collected by the finished walk batch.
        samples: usize,
    },
    /// A query this peer issued has completed.
    QueryCompleted(QueryReport),
    /// A pending operation's deadline expired at a timer tick.
    TimedOut {
        /// The waiting peer.
        peer: Id,
        /// Which operation class timed out.
        op: OpKind,
        /// Attempts made so far (0 = the first send timed out).
        attempt: u32,
    },
    /// A timed-out operation was retried (with backoff).
    Retried {
        /// The retrying peer.
        peer: Id,
        /// Which operation class was retried.
        op: OpKind,
        /// The retry's attempt number (1 = first retry).
        attempt: u32,
    },
    /// A pending operation exhausted its retries and was abandoned
    /// gracefully (shorter walk sample, failed query report, unjoined
    /// peer) — *not* a [`ProtocolEvent::Fault`].
    GaveUp {
        /// The abandoning peer.
        peer: Id,
        /// Which operation class was abandoned.
        op: OpKind,
        /// Total attempts made before giving up.
        attempts: u32,
    },
    /// A dead neighbour was detected and the configured repair policy
    /// rewired around it (ring splice always happens on detection; this
    /// event fires only when the policy additionally launched walks).
    RepairFired {
        /// The repairing peer.
        peer: Id,
        /// The neighbour declared dead.
        dead: Id,
        /// Which detection channel found the corpse.
        trigger: RepairTrigger,
        /// Replacement walks launched by the policy.
        walks: u32,
    },
    /// The machine hit a state it cannot make progress from and
    /// recovered by dropping the operation instead of panicking. The
    /// driver decides whether to log, count, or abort; a fault must
    /// never kill a worker thread (panic-policy).
    Fault {
        /// The faulting peer.
        peer: Id,
        /// What was dropped (static so events stay cheap and `Eq`).
        context: &'static str,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_message_fits_in_one_cache_line() {
        // Every mailbox slot and DES envelope is as wide as the widest
        // variant: a large payload goes behind a `Box`, as `Query` does.
        assert!(std::mem::size_of::<Message>() <= 64);
    }
}
