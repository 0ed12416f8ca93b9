//! # oscar-runtime — a threaded actor driver for the protocol core
//!
//! The second world the [`oscar_protocol::PeerMachine`] runs in: every
//! peer is an actor behind its own FIFO mailbox, executed by a pool of
//! OS worker threads against wall-clock time. Where the discrete-event
//! simulator (`oscar-sim`) delivers envelopes one at a time in virtual
//! time, this runtime delivers them concurrently with all cores busy —
//! the same state machines, zero protocol code duplicated.
//!
//! Scheduling model (no async runtime — the workspace is offline and
//! dependency-free by construction):
//!
//! * a mailbox is one mutex over a FIFO queue and a `scheduled` flag: the
//!   push that finds the flag clear sets it and hands the actor itself (its
//!   `Arc`, not its id) on to be run; the executor that finds the queue
//!   empty clears it. An actor is therefore queued or running at most once,
//!   and "went non-empty" and "drained" are decided under one lock;
//! * the first actor an executor's sends make ready goes into that
//!   executor's run-next slot, and the executor runs it as soon as it is
//!   done with the current one: a query hop stays on the executor that
//!   sent it and never touches the run queue. When the send found the
//!   actor idle (mailbox empty, not scheduled) and the fault plan made no
//!   copy, the envelope rides in the slot too and never enters the
//!   mailbox: the send sets `scheduled` under the mailbox lock, so later
//!   mail queues behind the handed envelope, which is handled first. Any
//!   further actor made ready in the same run goes to the shared run
//!   queue. [`Runtime::inject`] runs no actor: it puts a handed envelope
//!   back at the head of its mailbox and queues every actor it made ready;
//! * the run queue is one mutex over the ready actors and two counts —
//!   pool workers parked on the `work` condvar, [`Runtime::quiesce`]
//!   callers parked on `quiet`. A push wakes a worker only if one is
//!   parked, else a waiting quiescer, else nobody;
//! * an executor — a pool worker, or one a `quiesce` or `inject` caller
//!   borrows from `Runtime::helpers` for the call — pops an actor and runs
//!   a chain: that actor, then every actor its run-next slot hands on,
//!   until the slot stays empty (an `inject` caller runs only its
//!   command's step). Running an actor handles its handed envelope, then
//!   moves its mail into a buffer the executor owns and handles that. A
//!   message moves from the sender's outbox to the machine without being
//!   copied (a fault-plan duplicate is the one clone), and each
//!   `on_message`, like an `inject` caller's `on_command`, fills the
//!   executor's one outbound buffer, lent through
//!   `PeerMachine::lend_outbox` and taken back empty after the routing;
//! * an atomic in-flight message counter backs `quiesce`, which does not
//!   sleep while there is work: it runs ready actors on the calling thread
//!   and parks only when the queue is empty while other threads still hold
//!   messages. The envelope being handled lends its in-flight slot to the
//!   last output of its step, so a hop with one output never touches the
//!   counter: k copies pushed add k − 1, none pushed releases one;
//! * an executor finds a send's target in its own view of the actor table,
//!   without a lock: the view is filled on demand from the locked table.
//!   Every `spawn_machine` and `remove_peer` bumps the table's epoch under
//!   the table's write lock; the first send to see the epoch moved empties
//!   its view, which refills as it misses. Every thread that sends is an
//!   executor, so every send resolves this way; a borrowed executor, view
//!   and gossip stream included, outlives the call that borrowed it. Only
//!   `with_peer` and `peer_ids` read the locked table;
//! * each executor books everything it counts — `sent`, the message count
//!   that sums to `delivered`, `bounced`, `dropped`, `duplicated` and
//!   `faults` — on a cache line of its own; borrowed executors share one
//!   trailing line;
//! * sends to unknown/removed peers synchronously invoke the sender's
//!   `on_delivery_failure` — the same failure surface the DES presents.
//!   A send issued after `remove_peer` returned sees the new epoch, so it
//!   bounces. Mail that reaches a removed actor anyway (queued before the
//!   removal, handed to a run-next slot, or pushed by a sender that
//!   already held it — through a view that had not yet seen the epoch
//!   move, say) is booked `dropped` by whoever finds it, exactly once,
//!   never handled;
//! * a shared [`TimerIndex`] is the clock: the round and every machine's
//!   earliest deadline. Whichever thread ran a machine re-indexes it, under
//!   that machine's lock and only when the deadline moved, so the timer
//!   rounds — [`Rounds`]', as on the DES — find who is due without
//!   visiting a single actor;
//! * busy time is read off the clock once per chain, not per actor: the
//!   time from popping an actor to the chain's end, booked when it ends.
//!
//! No wake-up is lost. `parked` and `quiescers` are read and written only
//! under the run-queue lock, which a thread holds from its last look at
//! the queue (or at the in-flight count) until it is counted and waiting.
//! A push and its decision whom to notify share that lock, and the release
//! that takes the count to zero notifies `quiet` under it. An actor in a
//! run-next slot needs no wake-up: the executor holding it is awake and
//! runs it before it looks at the run queue, the count or a condvar — so a
//! `quiesce` caller never returns holding one. `shutdown` needs
//! `&mut self`, so nobody is inside `quiesce` then: it wakes the parked
//! workers and zeroes the count for the quiescers that come after. From
//! then on the transport is closed: `inject` still runs the command, and
//! books each send it makes `sent` and `dropped` without queuing it, so no
//! later `quiesce` waits for mail nobody will handle; and `remove_peer`
//! books a corpse's queued mail `dropped` without releasing it from the
//! count a second time.
//!
//! The count cannot reach zero early while in-flight slots are lent on. An
//! executor keeps the slot of the envelope it handles until the step's
//! last push; every earlier push adds its copies to the count before they
//! land in a mailbox or a run-next slot; the envelope's books (the
//! executor's message count, which `delivered` sums) are written before
//! the first push, and each send books `sent` to its executor's slot
//! before its own push. After the last push the executor books nothing
//! for that envelope, and every other
//! outcome — a drop, a bounce, a duplicate — is booked before the slot it
//! ends moves on, so by the time the count reaches zero every envelope it
//! covered is in the ledger: the whole ledger is exact at a quiescent point
//! although no executor writes another's line.
//!
//! Determinism: the protocol's token-carried RNG makes walk and query
//! outcomes scheduling-independent, so a serialized command sequence
//! (join, build links, quiesce between) produces *identical* link tables
//! here and in the DES — asserted by the cross-driver equivalence test
//! in the workspace root.

// The determinism rules in force in this crate's library code; `clippy.toml`
// lists the disallowed methods (ARCHITECTURE.md § "Static analysis &
// determinism rules").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use oscar_protocol::{
    machine::peer_seed, Command, FaultPlan, Message, Outbound, PeerConfig, PeerMachine,
    ProtocolDriver, ProtocolEvent, Rounds, TimerIndex,
};
use oscar_types::labels::runtime::LBL_WORKER;
use oscar_types::{Id, IdHasher, SeedTree};
use rand::rngs::SmallRng;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Runtime construction parameters.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads (0 = all available parallelism).
    pub workers: usize,
    /// Root seed: peer machines and worker RNGs derive from it.
    pub seed: u64,
    /// Per-peer protocol tunables.
    pub peer_cfg: PeerConfig,
    /// Fault plan applied to every send (reliable by default).
    pub plan: FaultPlan,
}

impl RuntimeConfig {
    /// Default config at a given seed.
    pub fn new(seed: u64) -> Self {
        RuntimeConfig {
            workers: 0,
            seed,
            peer_cfg: PeerConfig::default(),
            plan: FaultPlan::reliable(),
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the peer tunables.
    pub fn with_peer_cfg(mut self, cfg: PeerConfig) -> Self {
        self.peer_cfg = cfg;
        self
    }

    /// Subjects every send to `plan` at the runtime's single routing
    /// point (`Shared::send` — the DES's analogue is `enqueue_all`).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// One peer actor: machine + mailbox.
struct Actor {
    id: Id,
    slot: Mutex<Slot>,
    mailbox: Mutex<Mailbox>,
}

/// A message and its sender.
type Envelope = (Id, Message);

/// An actor's mail, and whether an executor is due to look at it.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Envelope>,
    /// Set by the push that finds it clear — which then hands the actor to
    /// a run-next slot or the run queue — and cleared by the executor that
    /// finds `queue` empty: true exactly while the actor is queued or
    /// being run.
    scheduled: bool,
}

/// The run queue and who is asleep beside it, under one lock (the
/// module doc has the wake-up protocol).
#[derive(Default)]
struct RunQueue {
    /// Actors with mail, each at most once.
    ready: VecDeque<Arc<Actor>>,
    /// Pool workers waiting on `Shared::work`.
    parked: usize,
    /// [`Runtime::quiesce`] callers waiting on `Shared::quiet`.
    quiescers: usize,
}

/// What a thread that runs or sends for actors brings along: a pool
/// worker for its whole life; a [`Runtime::quiesce`] or [`Runtime::inject`]
/// caller for one call, borrowed from `Runtime::helpers` and given back.
struct Executor {
    /// Index into `Shared::books`: the line everything it counts goes to.
    slot: usize,
    /// The gossip stream `on_command` and `on_message` draw from.
    rng: SmallRng,
    /// A mailbox's queue is moved into this buffer to drain it; empty
    /// between runs. Each mailbox keeps its own buffer, so grown buffers
    /// do not circulate from busy actors to idle ones.
    batch: VecDeque<Envelope>,
    /// Lent to each machine it runs before `on_message` (or, borrowed by
    /// an `inject` caller, before `on_command`), and taken back
    /// empty once the step's sends are routed: a hop sends without
    /// allocating.
    outbox: Vec<Outbound>,
    /// Where its sends find their targets.
    view: ActorView,
    /// The run-next slot: the first actor this executor's sends made
    /// ready, run as soon as the current one is done. When that send
    /// found the actor idle, the envelope rides here too, not through the
    /// mailbox.
    next: Option<(Arc<Actor>, Option<Envelope>)>,
}

/// The actors one executor has sent to, as the actor table held them at
/// `epoch`: a send finds its target here without a lock. The first send
/// to see `Shared::epoch` moved empties the view; a miss reads the locked
/// table and keeps what it found.
#[derive(Default)]
struct ActorView {
    epoch: u64,
    actors: HashMap<Id, Arc<Actor>, BuildHasherDefault<IdHasher>>,
}

/// One executor slot's books, written once a message. Aligned to 128
/// bytes, not 64, because x86's adjacent-line prefetcher pulls cache lines
/// in pairs: two executors' books never share one.
#[derive(Default)]
#[repr(align(128))]
struct Books {
    /// Envelopes this slot's sends handed to the transport.
    sent: AtomicU64,
    /// Messages handled.
    msgs: AtomicU64,
    /// Sends to missing peers, returned to their senders.
    bounced: AtomicU64,
    /// Envelopes discarded (see [`RuntimeStats::dropped`]).
    dropped: AtomicU64,
    /// Fault-plan copies (each also in `sent`).
    duplicated: AtomicU64,
    /// [`ProtocolEvent::Fault`]s of the steps this slot ran.
    faults: AtomicU64,
    /// Nanoseconds spent running actors.
    busy_ns: AtomicU64,
}

/// The actor table's epoch, on a line of its own: every send reads it,
/// and only membership changes write it.
#[derive(Default)]
#[repr(align(128))]
struct Epoch(AtomicU64);

/// What an actor's mutex guards: the machine, and what the shared
/// [`TimerIndex`] currently holds for it. Keeping the indexed deadline
/// here lets whoever just ran the machine see, without another lock,
/// whether the index needs telling.
struct Slot {
    machine: PeerMachine,
    /// The deadline `Shared::timers` holds for this peer.
    indexed: Option<u64>,
    /// Set once the actor has left the actor table: whoever still finds
    /// mail for it drops the mail, and nobody puts the corpse back in the
    /// index.
    retired: bool,
}

/// State shared between the handle and the worker threads.
struct Shared {
    // BTreeMap, not HashMap: peer enumeration (stats, snapshots,
    // peer_ids) walks this map, and ordered iteration keeps every such
    // walk deterministic for free (iter-order discipline).
    actors: RwLock<BTreeMap<Id, Arc<Actor>>>,
    /// Bumped under the write lock of `actors` after every change: an
    /// executor's [`ActorView`] is good while this has not moved.
    epoch: Epoch,
    runq: Mutex<RunQueue>,
    /// Parked pool workers wait here for an actor to run.
    work: Condvar,
    /// Parked `quiesce` callers wait here for silence, or for an actor
    /// no pool worker is free to take.
    quiet: Condvar,
    /// Messages enqueued but not yet fully processed.
    pending: AtomicUsize,
    /// Set by [`Runtime::shutdown`]: the pool stops, and the transport is
    /// closed.
    stop: AtomicBool,
    events: Mutex<Vec<ProtocolEvent>>,
    /// The clock: the timer round and every live machine's earliest
    /// deadline. Written by whichever thread ran a machine, and only when
    /// that machine's earliest deadline moved (lock order: actor slot,
    /// then this); read alone by the timer rounds, at quiescence.
    timers: Mutex<TimerIndex>,
    plan: FaultPlan,
    /// One slot per pool worker and a trailing one for the borrowed
    /// executors of `quiesce` and `inject` callers.
    books: Vec<Books>,
}

/// The one decision on a poisoned lock, taken here for every lock and
/// condvar wait of the runtime: another executor — possibly the harness
/// thread inside `quiesce` — panicked while it held shared state, so
/// propagate.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "poison = a peer thread already panicked mid-update; the books are untrustworthy, fail the run"
)]
fn held<G>(guard: LockResult<G>) -> G {
    guard.expect("a thread panicked holding this lock")
}

/// Aggregate counters for throughput reporting. Mirrors the DES
/// driver's accounting: at any quiescent point
/// `sent == delivered + dropped + bounced`.
#[derive(Clone, Debug)]
pub struct RuntimeStats {
    /// Envelopes handed to the transport (fault copies included).
    pub sent: u64,
    /// Messages delivered to mailboxes and processed: the sum of
    /// `per_worker_msgs`.
    pub delivered: u64,
    /// Sends to missing peers returned as `on_delivery_failure`.
    pub bounced: u64,
    /// Envelopes silently discarded: fault-plan drops, blackholed sends
    /// to missing peers, mail queued to a removed peer, and sends made
    /// after [`Runtime::shutdown`].
    pub dropped: u64,
    /// Extra copies injected by the fault plan (each also in `sent`).
    pub duplicated: u64,
    /// `ProtocolEvent::Fault` occurrences over the runtime's lifetime.
    pub faults: u64,
    /// Busy time in nanoseconds: one slot per pool worker, then one
    /// trailing slot shared by every executor a [`Runtime::quiesce`] or
    /// [`Runtime::inject`] caller borrowed. A run-next chain's time is
    /// booked when the chain ends, so a read at a quiescent point may miss
    /// the tail of one still closing.
    pub busy_ns: Vec<u64>,
    /// Delivered-message counts, slot for slot with `busy_ns`.
    pub per_worker_msgs: Vec<u64>,
}

/// Executors no call holds, and how many were ever made: helper k is
/// executor `workers + k`.
#[derive(Default)]
struct Helpers {
    idle: Vec<Executor>,
    made: usize,
}

/// The actor runtime handle. Dropping it shuts the worker pool down.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The executors [`Runtime::quiesce`] and [`Runtime::inject`] callers
    /// borrow, kept with their actor views and streams between calls.
    helpers: Mutex<Helpers>,
    cfg: RuntimeConfig,
}

impl Runtime {
    /// Starts the worker pool.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            actors: RwLock::default(),
            epoch: Epoch::default(),
            runq: Mutex::new(RunQueue::default()),
            work: Condvar::new(),
            quiet: Condvar::new(),
            pending: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            timers: Mutex::new(TimerIndex::new()),
            plan: cfg.plan.clone(),
            books: (0..=workers).map(|_| Books::default()).collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let (sh, me) = (Arc::clone(&shared), Executor::new(cfg.seed, w, w));
                #[expect(
                    clippy::expect_used,
                    reason = "the OS refused a thread at start-up: there is no runtime to return"
                )]
                std::thread::Builder::new()
                    .name(format!("oscar-worker-{w}"))
                    .spawn(move || worker_loop(sh, me))
                    .expect("spawn worker")
            })
            .collect();
        Runtime {
            shared,
            workers: handles,
            helpers: Mutex::default(),
            cfg,
        }
    }

    /// Number of pool worker threads (a thread helping from inside
    /// [`Runtime::quiesce`] is not one).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Registers a pre-built machine as an actor, replacing any actor
    /// already under its id. Timers the machine already carries are
    /// indexed.
    pub fn spawn_machine(&self, machine: PeerMachine) {
        let id = machine.id();
        let indexed = machine.next_deadline();
        let actor = Arc::new(Actor {
            id,
            slot: Mutex::new(Slot {
                machine,
                indexed,
                retired: false,
            }),
            mailbox: Mutex::new(Mailbox::default()),
        });
        // The table lock is held across the index writes so that a
        // concurrent spawn or remove of the same id cannot interleave
        // with them.
        let mut actors = held(self.shared.actors.write());
        if let Some(replaced) = actors.insert(id, actor) {
            self.shared.retire(&replaced);
        }
        self.shared.epoch.bump();
        if indexed.is_some() {
            held(self.shared.timers.lock()).set(id, None, indexed);
        }
    }

    /// Spawns a fresh solo peer with the canonical derived seed (the DES
    /// driver uses the same derivation, which the equivalence test relies
    /// on).
    pub fn spawn_peer(&self, id: Id) {
        self.spawn_machine(PeerMachine::new(
            id,
            peer_seed(self.cfg.seed, id),
            self.cfg.peer_cfg.clone(),
        ));
    }

    /// Removes a peer outright (a crash): queued mail is discarded,
    /// its armed timers die with it, and future sends to it surface as
    /// delivery failures at the senders.
    pub fn remove_peer(&self, id: Id) -> bool {
        let removed = {
            let mut actors = held(self.shared.actors.write());
            let removed = actors.remove(&id);
            if let Some(actor) = &removed {
                self.shared.retire(actor);
                self.shared.epoch.bump();
            }
            removed
        };
        let Some(actor) = removed else {
            return false;
        };
        // Mail queued to the corpse is taken out and counted as dropped
        // here. Mail an executor took before this or holds in its run-next
        // slot, or that a sender already holding the actor pushes after it
        // — through an actor view that has not yet seen the epoch move —
        // `deliver` drops when it finds the slot retired: each envelope
        // exactly once.
        let queued = std::mem::take(&mut held(actor.mailbox.lock()).queue).len();
        self.shared.books[self.shared.trailing()]
            .dropped
            .fetch_add(queued as u64, Ordering::Relaxed);
        // `shutdown` zeroed the count with this mail still in it.
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.shared.release(queued);
        }
        true
    }

    /// Live peer ids, sorted.
    pub fn peer_ids(&self) -> Vec<Id> {
        // BTreeMap keys iterate in ascending order: already sorted.
        held(self.shared.actors.read()).keys().copied().collect()
    }

    /// Delivers a command to one peer on the calling thread, on a
    /// borrowed executor; resulting messages flow through the worker pool.
    /// After [`Runtime::shutdown`] the command still runs, but the
    /// transport is closed: each send it makes is booked `sent` and
    /// `dropped`, and nothing is queued.
    pub fn inject(&self, id: Id, cmd: Command) -> bool {
        let mut me = self.take_helper();
        let actor = me.view.resolve(&self.shared, id).cloned();
        if let Some(actor) = &actor {
            let mut outs = {
                let mut slot = held(actor.slot.lock());
                slot.machine.lend_outbox(std::mem::take(&mut me.outbox));
                let outs = slot.machine.on_command(cmd, &mut me.rng);
                self.shared.after_step(id, &mut slot, me.slot);
                outs
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                let (books, closed) = (&self.shared.books[me.slot], outs.len() as u64);
                books.sent.fetch_add(closed, Ordering::Relaxed);
                books.dropped.fetch_add(closed, Ordering::Relaxed);
                outs.clear();
            } else {
                // The caller runs no actor: what it made ready goes to the
                // shared run queue, with a wake. An envelope handed to the
                // run-next slot goes back to the head of its mailbox, ahead
                // of whatever the same step sent there after it.
                self.shared.send_all(actor, &mut outs, false, &mut me);
                if let Some((first, handed)) = me.next.take() {
                    if let Some(envelope) = handed {
                        held(first.mailbox.lock()).queue.push_front(envelope);
                    }
                    self.shared.schedule(first);
                }
            }
            me.outbox = outs;
        }
        held(self.helpers.lock()).idle.push(me);
        actor.is_some()
    }

    /// Returns once no message is in flight anywhere. The caller does
    /// not sleep through the work: it runs ready actors itself, beside
    /// the pool, and parks only when there is none to take while other
    /// threads still hold messages. Machines therefore run on the calling
    /// thread.
    pub fn quiesce(&self) {
        let mut helper: Option<Executor> = None;
        while let Some(actor) = self.next_to_help() {
            let me = helper.get_or_insert_with(|| self.take_helper());
            run_chain(&self.shared, actor, me);
        }
        // A chain ends with its run-next slot empty.
        if let Some(me) = helper {
            held(self.helpers.lock()).idle.push(me);
        }
    }

    /// The actor a [`Runtime::quiesce`] caller runs next, from the run
    /// queue, parking while there is none and other threads still hold
    /// messages; `None` once none is in flight.
    fn next_to_help(&self) -> Option<Arc<Actor>> {
        let shared = &*self.shared;
        let mut q = held(shared.runq.lock());
        loop {
            if shared.pending.load(Ordering::SeqCst) == 0 {
                return None;
            }
            if let Some(actor) = q.ready.pop_front() {
                return Some(actor);
            }
            q.quiescers += 1;
            q = held(shared.quiet.wait(q));
            q.quiescers -= 1;
        }
    }

    /// An executor for a `quiesce` caller about to run its first actor, or
    /// for an `inject` caller: one an earlier call gave back, actor view
    /// and stream and all, else a new one, numbered on from the pool's.
    fn take_helper(&self) -> Executor {
        let mut helpers = held(self.helpers.lock());
        if let Some(me) = helpers.idle.pop() {
            return me;
        }
        let trailing = self.shared.trailing();
        helpers.made += 1;
        Executor::new(self.cfg.seed, trailing + helpers.made - 1, trailing)
    }

    /// Drains protocol milestones collected since the last drain.
    pub fn drain_events(&self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut *held(self.shared.events.lock()))
    }

    /// [`Rounds::run_until_settled`]: returns the timer rounds consumed.
    pub fn settle(&self, max_rounds: u64) -> u64 {
        Rounds::run_until_settled(&mut { self }, max_rounds)
    }

    /// [`Rounds::run_to_round`]: fires every deadline up to `round`.
    pub fn advance_to(&self, round: u64) {
        Rounds::run_to_round(&mut { self }, round);
    }

    /// The current timer round (virtual failure-detection time).
    pub fn round(&self) -> u64 {
        held(self.shared.timers.lock()).round()
    }

    /// Lifetime [`ProtocolEvent::Fault`] count (never reset by
    /// [`Runtime::drain_events`]).
    pub fn fault_count(&self) -> u64 {
        self.shared.lines(|b| &b.faults).sum()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        let sh = &*self.shared;
        let per_worker_msgs: Vec<u64> = sh.lines(|b| &b.msgs).collect();
        RuntimeStats {
            sent: sh.lines(|b| &b.sent).sum(),
            delivered: per_worker_msgs.iter().sum(),
            bounced: sh.lines(|b| &b.bounced).sum(),
            dropped: sh.lines(|b| &b.dropped).sum(),
            duplicated: sh.lines(|b| &b.duplicated).sum(),
            faults: sh.lines(|b| &b.faults).sum(),
            busy_ns: sh.lines(|b| &b.busy_ns).collect(),
            per_worker_msgs,
        }
    }

    /// Stops the worker pool and joins every thread. In-flight messages
    /// are discarded; idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            // The guard is held poisoned or not: `Drop` runs this, and a
            // panic there while another unwinds aborts the process.
            let _q = self.shared.runq.lock();
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // A later quiesce() must not wait behind the discarded messages
        // (`&mut self`: nobody is inside one now).
        self.shared.pending.store(0, Ordering::SeqCst);
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The threaded runtime as a generic machine host: the round counter is
/// the quiescent-point timer clock, so the churn engine's schedule maps
/// onto the same virtual failure-detection time the DES uses.
impl ProtocolDriver for Runtime {
    fn spawn_peer(&mut self, id: Id) {
        Runtime::spawn_peer(self, id);
    }

    fn remove_peer(&mut self, id: Id) {
        Runtime::remove_peer(self, id);
    }

    fn inject(&mut self, id: Id, cmd: Command) {
        Runtime::inject(self, id, cmd);
    }

    fn settle(&mut self, max_rounds: u64) -> u64 {
        Runtime::settle(self, max_rounds)
    }

    fn advance_to(&mut self, round: u64) {
        Runtime::advance_to(self, round);
    }

    fn round(&self) -> u64 {
        Runtime::round(self)
    }

    fn peer_ids(&self) -> Vec<Id> {
        Runtime::peer_ids(self)
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        Runtime::drain_events(self)
    }

    fn sent(&self) -> u64 {
        self.shared.lines(|b| &b.sent).sum()
    }

    fn fault_count(&self) -> u64 {
        Runtime::fault_count(self)
    }

    fn with_peer<T>(&self, id: Id, f: impl FnOnce(&PeerMachine) -> T) -> Option<T> {
        let actor = held(self.shared.actors.read()).get(&id).cloned()?;
        let slot = held(actor.slot.lock());
        Some(f(&slot.machine))
    }
}

/// The runtime's timer rounds, on `&Runtime` so that its `&self` callers
/// run them too. The machines are at rest only at quiescent points, so
/// debug builds check the clock only there.
impl Rounds for &Runtime {
    type Fleet = Runtime;

    fn quiesce(&mut self) {
        Runtime::quiesce(self);
    }

    fn clock(&mut self) -> impl DerefMut<Target = TimerIndex> + '_ {
        held(self.shared.timers.lock())
    }

    fn spawn_machine(&mut self, machine: PeerMachine) {
        Runtime::spawn_machine(self, machine);
    }

    fn tick(&mut self, due: Vec<Id>, now: u64) {
        for id in due {
            self.inject(id, Command::TimerTick { now });
        }
    }

    fn at_rest(&self) -> Option<&Runtime> {
        let quiet = self.shared.pending.load(Ordering::SeqCst) == 0;
        quiet.then_some(*self)
    }
}

impl Shared {
    /// One count of the books, line by line.
    fn lines(&self, count: fn(&Books) -> &AtomicU64) -> impl Iterator<Item = u64> + '_ {
        self.books
            .iter()
            .map(move |b| count(b).load(Ordering::Relaxed))
    }

    /// The books line every borrowed executor shares; its index is also
    /// the number of pool workers the runtime started with.
    fn trailing(&self) -> usize {
        self.books.len() - 1
    }

    /// Routes one outbound from `from`; the runtime's single routing
    /// point, where the fault plan is consulted (the DES's analogue is
    /// `enqueue_all`). The message is moved into the target's mailbox;
    /// only a fault-plan duplicate is cloned. Missing targets bounce back
    /// as delivery failures on the sender, recursively — unless the plan
    /// blackholes crashes, in which case only the sender's timers can
    /// notice.
    ///
    /// With `lent`, the caller's own in-flight slot covers the first copy
    /// this send pushes, and the call returns whether it did: the caller
    /// then no longer holds a slot. A bounce passes the lent slot on to
    /// the last output of the sender's last failure step. The envelope and
    /// its fate are booked to `at`'s slot and its target found through
    /// `at`'s actor view; an actor the push makes ready goes into `at`'s
    /// run-next slot if that is empty, else to the shared run queue. A
    /// single copy to an idle actor, bound for an empty run-next slot,
    /// skips the mailbox: it rides in the slot beside its actor.
    fn send(&self, from: &Actor, out: Outbound, lent: bool, at: &mut Executor) -> bool {
        let books = &self.books[at.slot];
        books.sent.fetch_add(1, Ordering::Relaxed);
        let Outbound { to, msg } = out;
        let mut extra = None;
        if !self.plan.is_reliable() {
            let fate = self.plan.decide(from.id, to, &msg);
            if fate.drop {
                books.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if fate.duplicate {
                // extra_delay is a virtual-time notion; the threaded
                // runtime reorders naturally and ignores it.
                extra = Some(msg.clone());
                books.sent.fetch_add(1, Ordering::Relaxed);
                books.duplicated.fetch_add(1, Ordering::Relaxed);
            }
        }
        let copies = 1 + extra.is_some() as usize;
        match at.view.resolve(self, to) {
            Some(target) => {
                // Counted before the copies are visible in the mailbox.
                let fresh = copies - usize::from(lent);
                if fresh > 0 {
                    self.pending.fetch_add(fresh, Ordering::SeqCst);
                }
                let mut mb = held(target.mailbox.lock());
                let idle = !std::mem::replace(&mut mb.scheduled, true);
                if idle && mb.queue.is_empty() && extra.is_none() && at.next.is_none() {
                    drop(mb);
                    at.next = Some((Arc::clone(target), Some((from.id, msg))));
                    return lent;
                }
                mb.queue.extend(extra.map(|m| (from.id, m)));
                mb.queue.push_back((from.id, msg));
                drop(mb);
                if idle {
                    if at.next.is_none() {
                        at.next = Some((Arc::clone(target), None));
                    } else {
                        self.schedule(Arc::clone(target));
                    }
                }
                lent
            }
            None if self.plan.blackhole_on_crash() => {
                books.dropped.fetch_add(copies as u64, Ordering::Relaxed);
                false
            }
            None => {
                books.bounced.fetch_add(copies as u64, Ordering::Relaxed);
                let mut handed = false;
                for (k, msg) in extra.into_iter().chain([msg]).enumerate() {
                    let mut outs = {
                        let mut slot = held(from.slot.lock());
                        let outs = slot.machine.on_delivery_failure(to, msg);
                        self.after_step(from.id, &mut slot, at.slot);
                        outs
                    };
                    handed |= self.send_all(from, &mut outs, lent && k + 1 == copies, at);
                }
                handed
            }
        }
    }

    /// Routes one step's outputs in order. With `lent`, the step's own
    /// in-flight slot goes to its last output, so every earlier push is
    /// counted while the caller still holds that slot (the module doc's
    /// hand-off argument). Returns whether the slot was passed on; `outs`
    /// is left empty, its capacity kept.
    fn send_all(
        &self,
        from: &Actor,
        outs: &mut Vec<Outbound>,
        lent: bool,
        at: &mut Executor,
    ) -> bool {
        let last = outs.len().saturating_sub(1);
        let mut handed = false;
        for (k, o) in outs.drain(..).enumerate() {
            handed |= self.send(from, o, lent && k == last, at);
        }
        handed
    }

    /// Puts an actor whose mailbox just went non-empty on the run queue
    /// and wakes one thread that could run it, if any is asleep: a
    /// parked worker, else a quiescer waiting for the others to finish.
    /// With every executor awake the push is all there is to do — each
    /// looks at the queue again before it sleeps.
    fn schedule(&self, actor: Arc<Actor>) {
        let mut q = held(self.runq.lock());
        q.ready.push_back(actor);
        if q.parked > 0 {
            self.work.notify_one();
        } else if q.quiescers > 0 {
            self.quiet.notify_one();
        }
    }

    /// Releases `n` in-flight slots; the release that reaches zero tells
    /// every waiting quiescer, under the lock they checked the count
    /// under.
    fn release(&self, n: usize) {
        if n > 0 && self.pending.fetch_sub(n, Ordering::SeqCst) == n {
            let q = held(self.runq.lock());
            if q.quiescers > 0 {
                self.quiet.notify_all();
            }
        }
    }

    /// Books what one call into a machine left behind, under that
    /// machine's lock: its events (faults counted to books line `line`),
    /// and its earliest deadline if that moved. Most steps leave the
    /// deadline where it was and never touch the shared index.
    fn after_step(&self, id: Id, slot: &mut Slot, line: usize) {
        let deadline = slot.machine.next_deadline();
        if deadline != slot.indexed && !slot.retired {
            held(self.timers.lock()).set(id, slot.indexed, deadline);
            slot.indexed = deadline;
        }
        let evs = slot.machine.drain_events();
        if !evs.is_empty() {
            let faults = evs
                .iter()
                .filter(|e| matches!(e, ProtocolEvent::Fault { .. }))
                .count() as u64;
            if faults > 0 {
                self.books[line].faults.fetch_add(faults, Ordering::Relaxed);
            }
            held(self.events.lock()).extend(evs);
        }
    }

    /// Takes an actor that has left the actor table out of the deadline
    /// index, for good: a worker may still be running its machine, and
    /// `after_step` leaves a retired slot alone.
    fn retire(&self, actor: &Actor) {
        let mut slot = held(actor.slot.lock());
        slot.retired = true;
        if let Some(old) = slot.indexed.take() {
            held(self.timers.lock()).set(actor.id, Some(old), None);
        }
    }
}

impl Epoch {
    /// Moves the epoch on; called under the actor table's write lock,
    /// after each change. The `Release` pairs with the `Acquire` in
    /// [`ActorView::resolve`]: a view that reads the new epoch empties
    /// itself before it is used again.
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl Executor {
    /// Executor `k` of the runtime rooted at `seed`, booking to line
    /// `slot`: its gossip stream is `k`'s and lives as long as it does.
    fn new(seed: u64, k: usize, slot: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "executor gossip streams root at the runtime config seed — the deployment entry point"
        )]
        let rng = SeedTree::new(seed).child2(LBL_WORKER, k as u64).rng();
        Executor {
            slot,
            rng,
            batch: VecDeque::new(),
            outbox: Vec::new(),
            view: ActorView::default(),
            next: None,
        }
    }
}

impl ActorView {
    /// The actor registered under `to`. Read without a lock while the
    /// epoch stands; once it moved, the view starts over empty. A miss
    /// reads the locked table. A peer the table lacks is not remembered:
    /// a send to it bounces each time.
    fn resolve(&mut self, shared: &Shared, to: Id) -> Option<&Arc<Actor>> {
        let epoch = shared.epoch.0.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.actors.clear();
            self.epoch = epoch;
        }
        match self.actors.entry(to) {
            Entry::Occupied(hit) => Some(hit.into_mut()),
            Entry::Vacant(miss) => {
                let actor = held(shared.actors.read()).get(&to).cloned()?;
                Some(miss.insert(actor))
            }
        }
    }
}

/// The worker thread body: pop an actor and run its chain, parking when
/// there is none.
fn worker_loop(shared: Arc<Shared>, mut me: Executor) {
    loop {
        let actor = {
            let mut q = held(shared.runq.lock());
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(actor) = q.ready.pop_front() {
                    break actor;
                }
                q.parked += 1;
                q = held(shared.work.wait(q));
                q.parked -= 1;
            }
        };
        run_chain(&shared, actor, &mut me);
    }
}

/// Runs `first`, popped from the run queue, then every actor the
/// executor's run-next slot hands on, until the slot stays empty. The
/// chain's busy time is one clock read at each end.
fn run_chain(shared: &Shared, first: Arc<Actor>, me: &mut Executor) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's one clock read: busy time per run-next chain, a RuntimeStats field no seeded artifact includes"
    )]
    let t0 = Instant::now();
    let mut handled = run_actor(shared, &first, None, me);
    while let Some((actor, handed)) = me.next.take() {
        handled |= run_actor(shared, &actor, handed, me);
    }
    if handled {
        shared.books[me.slot]
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Runs one scheduled actor: the envelope `handed` to it through a run-next
/// slot first, then its mailbox until that is empty — take the mail, hand
/// it to the machine message by message, route the replies. The one
/// delivery path, under [`run_chain`]. Returns whether it handled any
/// message.
fn run_actor(
    shared: &Shared,
    actor: &Actor,
    mut handed: Option<Envelope>,
    me: &mut Executor,
) -> bool {
    let mut handled = false;
    while !shared.stop.load(Ordering::SeqCst) {
        if handed.is_none() {
            let mut mb = held(actor.mailbox.lock());
            if mb.queue.is_empty() {
                mb.scheduled = false;
                break;
            }
            me.batch.append(&mut mb.queue);
        }
        while let Some((from, msg)) = handed.take().or_else(|| me.batch.pop_front()) {
            handled |= deliver(shared, actor, from, msg, me);
        }
    }
    handled
}

/// Hands one envelope to `actor`'s machine on the executor's lent
/// buffer and routes the step's sends; a retired actor's mail is booked
/// `dropped` instead (see [`Runtime::remove_peer`]). Returns whether the
/// machine handled it.
fn deliver(shared: &Shared, actor: &Actor, from: Id, msg: Message, me: &mut Executor) -> bool {
    let books = &shared.books[me.slot];
    let outs = {
        let mut slot = held(actor.slot.lock());
        if slot.retired {
            None
        } else {
            slot.machine.lend_outbox(std::mem::take(&mut me.outbox));
            let outs = slot.machine.on_message(from, msg, &mut me.rng);
            shared.after_step(actor.id, &mut slot, me.slot);
            Some(outs)
        }
    };
    // Book the envelope before its in-flight slot is passed on or
    // released: once `pending` hits zero a quiescent observer must see
    // sent == delivered + dropped + bounced already settled.
    match outs {
        Some(mut outs) => {
            books.msgs.fetch_add(1, Ordering::Relaxed);
            if !shared.send_all(actor, &mut outs, true, me) {
                shared.release(1);
            }
            me.outbox = outs;
            true
        }
        None => {
            books.dropped.fetch_add(1, Ordering::Relaxed);
            shared.release(1);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(workers: usize, seed: u64) -> Runtime {
        Runtime::new(RuntimeConfig::new(seed).with_workers(workers))
    }

    #[test]
    fn quiesce_observes_silence() {
        let rt = runtime(2, 1);
        let (a, b) = (Id::new(10), Id::new(20));
        rt.spawn_peer(a);
        rt.spawn_peer(b);
        rt.inject(b, Command::Join { contact: a });
        rt.settle(0);
        assert_eq!(rt.with_peer(b, PeerMachine::joined), Some(true));
        rt.quiesce(); // immediately satisfiable
        assert_eq!(rt.stats().bounced, 0);
    }

    #[test]
    fn gossip_rounds_spread_membership() {
        let rt = runtime(4, 11);
        let ids: Vec<Id> = (0..16u64).map(|i| Id::new((i + 1) << 32)).collect();
        rt.spawn_peer(ids[0]);
        for &id in &ids[1..] {
            rt.spawn_peer(id);
            rt.inject(id, Command::Join { contact: ids[0] });
            rt.settle(0);
            assert_eq!(rt.with_peer(id, PeerMachine::joined), Some(true));
        }
        for _ in 0..8 {
            for &id in &ids {
                rt.inject(id, Command::GossipTick);
            }
            rt.quiesce();
        }
        let min_known = ids
            .iter()
            .map(|&id| rt.with_peer(id, |m| m.known().len()).unwrap())
            .min()
            .unwrap();
        assert!(min_known >= ids.len() / 2, "gossip stalled: {min_known}");
    }
}
