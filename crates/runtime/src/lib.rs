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
//!   sent it and never touches the run queue. Any further actor made ready
//!   in the same run, and every actor [`Runtime::inject`] makes ready, goes
//!   to the shared run queue;
//! * the run queue is one mutex over the ready actors and two counts —
//!   pool workers parked on the `work` condvar, [`Runtime::quiesce`]
//!   callers parked on `quiet`. A push wakes a worker only if one is
//!   parked, else a waiting quiescer, else nobody;
//! * an executor — a pool worker, or a thread inside `quiesce` — runs its
//!   run-next actor, else pops one, moves the actor's mail into a buffer
//!   it owns and handles it; a message moves from the sender's outbox to
//!   the machine without being copied (a fault-plan duplicate is the one
//!   clone);
//! * an atomic in-flight message counter backs `quiesce`, which does not
//!   sleep while there is work: it runs ready actors on the calling thread
//!   and parks only when the queue is empty while other threads still hold
//!   messages. The envelope being handled lends its in-flight slot to the
//!   last output of its step, so a hop with one output never touches the
//!   counter: k copies pushed add k − 1, none pushed releases one;
//! * sends to unknown/removed peers synchronously invoke the sender's
//!   `on_delivery_failure` — the same failure surface the DES presents;
//!   mail that reaches a removed actor anyway (queued before the removal,
//!   or pushed by a sender that already held it) is booked `dropped` by
//!   whoever finds it, never handled;
//! * a shared [`TimerIndex`] holds every machine's earliest deadline;
//!   whichever thread ran a machine updates it, under that machine's
//!   lock and only when the deadline moved, so a timer round finds who
//!   is due without visiting a single actor.
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
//! workers and zeroes the count for the quiescers that come after.
//!
//! The count cannot reach zero early under the hand-off. An executor keeps
//! the slot of the envelope it handles until the step's last push; every
//! earlier push adds its copies to the count before they land in a
//! mailbox; and the envelope's books (`delivered`, the executor's message
//! count) are written before the first push. After the hand-off the
//! executor books nothing but its busy time, so by the time the count
//! reaches zero every envelope it covered is in the ledger.
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
    ProtocolDriver, ProtocolEvent, TimerIndex,
};
use oscar_types::labels::runtime::{LBL_GOSSIP, LBL_WORKER};
use oscar_types::{Id, SeedTree};
use rand::rngs::SmallRng;
use std::collections::{BTreeMap, VecDeque};
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

/// An actor's mail, and whether an executor is due to look at it.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<(Id, Message)>,
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

/// What a thread that runs actors brings along: a pool worker for its
/// whole life, a [`Runtime::quiesce`] caller for one call.
struct Executor {
    /// Index into `Shared::books`.
    stats_slot: usize,
    /// The gossip stream `on_message` draws from.
    rng: SmallRng,
    /// A mailbox's queue is moved into this buffer to drain it; empty
    /// between runs. Each mailbox keeps its own buffer, so grown buffers
    /// do not circulate from busy actors to idle ones.
    batch: VecDeque<(Id, Message)>,
    /// The run-next slot: the first actor this executor's sends made
    /// ready, run as soon as the current one is done.
    next: Option<Arc<Actor>>,
}

/// One executor slot's books, written once a message. Aligned to 128
/// bytes, not 64, because x86's adjacent-line prefetcher pulls cache lines
/// in pairs: two executors' books never share one.
#[derive(Default)]
#[repr(align(128))]
struct Books {
    /// Messages handled.
    msgs: AtomicU64,
    /// Nanoseconds spent running actors.
    busy_ns: AtomicU64,
}

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
    runq: Mutex<RunQueue>,
    /// Parked pool workers wait here for an actor to run.
    work: Condvar,
    /// Parked `quiesce` callers wait here for silence, or for an actor
    /// no pool worker is free to take.
    quiet: Condvar,
    /// Messages enqueued but not yet fully processed.
    pending: AtomicUsize,
    stop: AtomicBool,
    inject_nonce: AtomicU64,
    events: Mutex<Vec<ProtocolEvent>>,
    /// Every live machine's earliest deadline. Written by whichever
    /// thread ran a machine, and only when that machine's earliest
    /// deadline moved (lock order: actor slot, then this); read alone by
    /// the timer rounds, at quiescence.
    timers: Mutex<TimerIndex>,
    plan: FaultPlan,
    /// Current timer round (virtual failure-detection time); advanced
    /// only at quiescent points via [`Runtime::tick_timers`].
    round: AtomicU64,
    sent: AtomicU64,
    delivered: AtomicU64,
    bounced: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    /// Lifetime [`ProtocolEvent::Fault`] count — unlike the drained
    /// event buffer this never resets, so harnesses gate runs on it.
    faults: AtomicU64,
    /// One slot per pool worker and a trailing one for `quiesce` callers.
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
    /// Messages delivered to mailboxes and processed.
    pub delivered: u64,
    /// Sends to missing peers returned as `on_delivery_failure`.
    pub bounced: u64,
    /// Envelopes silently discarded: fault-plan drops, blackholed sends
    /// to missing peers, and mail queued to a removed peer.
    pub dropped: u64,
    /// Extra copies injected by the fault plan (each also in `sent`).
    pub duplicated: u64,
    /// `ProtocolEvent::Fault` occurrences over the runtime's lifetime.
    pub faults: u64,
    /// Busy time in nanoseconds: one slot per pool worker, then one
    /// trailing slot shared by every thread that ran actors from inside
    /// [`Runtime::quiesce`]. A run's time is booked when the run ends, so
    /// a read at a quiescent point may miss the tail of one still closing.
    pub busy_ns: Vec<u64>,
    /// Delivered-message counts, slot for slot with `busy_ns`; at a
    /// quiescent point they sum to `delivered`.
    pub per_worker_msgs: Vec<u64>,
}

/// The actor runtime handle. Dropping it shuts the worker pool down.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
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
            actors: RwLock::new(BTreeMap::new()),
            runq: Mutex::new(RunQueue::default()),
            work: Condvar::new(),
            quiet: Condvar::new(),
            pending: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            inject_nonce: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            timers: Mutex::new(TimerIndex::new()),
            plan: cfg.plan.clone(),
            round: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            bounced: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            books: (0..=workers).map(|_| Books::default()).collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "worker gossip streams root at the runtime config seed — the deployment entry point"
                )]
                let rng = SeedTree::new(cfg.seed).child2(LBL_WORKER, w as u64).rng();
                #[expect(
                    clippy::expect_used,
                    reason = "the OS refused a thread at start-up: there is no runtime to return"
                )]
                std::thread::Builder::new()
                    .name(format!("oscar-worker-{w}"))
                    .spawn(move || worker_loop(sh, Executor::new(w, rng)))
                    .expect("spawn worker")
            })
            .collect();
        Runtime {
            shared,
            workers: handles,
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
            }
            removed
        };
        let Some(actor) = removed else {
            return false;
        };
        // Mail queued to the corpse is taken out and counted as dropped
        // here. Mail an executor took before this, or that a sender
        // already holding the actor pushes after it, `run_actor` drops
        // when it finds the slot retired — each envelope exactly once.
        let queued = std::mem::take(&mut held(actor.mailbox.lock()).queue).len();
        self.shared
            .dropped
            .fetch_add(queued as u64, Ordering::Relaxed);
        self.shared.release(queued);
        true
    }

    /// Live peer ids, sorted.
    pub fn peer_ids(&self) -> Vec<Id> {
        // BTreeMap keys iterate in ascending order: already sorted.
        held(self.shared.actors.read()).keys().copied().collect()
    }

    /// Runs `f` against one peer's machine (read-only access pattern).
    pub fn with_peer<T>(&self, id: Id, f: impl FnOnce(&PeerMachine) -> T) -> Option<T> {
        let actor = held(self.shared.actors.read()).get(&id).cloned()?;
        let slot = held(actor.slot.lock());
        Some(f(&slot.machine))
    }

    /// Delivers a command to one peer on the calling thread; resulting
    /// messages flow through the worker pool.
    pub fn inject(&self, id: Id, cmd: Command) -> bool {
        let Some(actor) = held(self.shared.actors.read()).get(&id).cloned() else {
            return false;
        };
        let mut rng = self.fresh_stream();
        let outs = {
            let mut slot = held(actor.slot.lock());
            let outs = slot.machine.on_command(cmd, &mut rng);
            self.shared.after_step(id, &mut slot);
            outs
        };
        // The calling thread is no executor: what it makes ready goes to
        // the shared run queue, with a wake.
        let mut ready = None;
        self.shared.send_all(&actor, outs, false, &mut ready);
        if let Some(first) = ready {
            self.shared.schedule(first);
        }
        true
    }

    /// A fresh gossip stream per call: commands (gossip in particular)
    /// must not replay the same draws every round.
    fn fresh_stream(&self) -> SmallRng {
        let nonce = self.shared.inject_nonce.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "inject and helper streams are keyed by nonce so thread interleaving cannot reorder draws"
        )]
        SeedTree::new(self.cfg.seed).child2(LBL_GOSSIP, nonce).rng()
    }

    /// Returns once no message is in flight anywhere. The caller does
    /// not sleep through the work: it runs ready actors itself, beside
    /// the pool, and parks only when there is none to take while other
    /// threads still hold messages. Machines therefore run on the calling
    /// thread — do not call this from inside a [`Runtime::with_peer`]
    /// closure, which holds that peer's lock.
    pub fn quiesce(&self) {
        let shared = &*self.shared;
        let mut helper: Option<Executor> = None;
        loop {
            let actor = match helper.as_mut().and_then(|me| me.next.take()) {
                Some(actor) => actor,
                None => {
                    let mut q = held(shared.runq.lock());
                    loop {
                        if shared.pending.load(Ordering::SeqCst) == 0 {
                            return;
                        }
                        if let Some(actor) = q.ready.pop_front() {
                            break actor;
                        }
                        q.quiescers += 1;
                        q = held(shared.quiet.wait(q));
                        q.quiescers -= 1;
                    }
                }
            };
            let me = helper
                .get_or_insert_with(|| Executor::new(shared.books.len() - 1, self.fresh_stream()));
            run_actor(shared, &actor, me);
        }
    }

    /// Spawns `joiner`, joins it through `contact`, and waits for the
    /// splice to settle. Returns true iff *this* join completed: the
    /// answer is read from the events this call produced, and every
    /// event — these and any already waiting — stays for
    /// [`Runtime::drain_events`], as on the DES.
    pub fn join_and_wait(&self, joiner: Id, contact: Id) -> bool {
        let before = held(self.shared.events.lock()).len();
        self.spawn_peer(joiner);
        self.inject(joiner, Command::Join { contact });
        self.quiesce();
        let events = held(self.shared.events.lock());
        events
            .iter()
            .skip(before)
            .any(|e| matches!(e, ProtocolEvent::JoinCompleted { peer } if *peer == joiner))
    }

    /// One anti-entropy gossip round across all peers.
    pub fn gossip_round(&self) {
        for id in self.peer_ids() {
            self.inject(id, Command::GossipTick);
        }
    }

    /// Drains protocol milestones collected since the last drain.
    pub fn drain_events(&self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut *held(self.shared.events.lock()))
    }

    /// The earliest pending deadline across all machines, if any
    /// operation anywhere is still awaiting completion. Read from the
    /// deadline index; at a quiescent point, debug builds check it
    /// against a scan of every machine.
    pub fn next_timer_round(&self) -> Option<u64> {
        let next = held(self.shared.timers.lock()).earliest();
        debug_assert!(
            !self.is_quiescent() || next == self.scan_deadlines().into_iter().map(|(_, d)| d).min(),
            "timer index out of step with the machines"
        );
        next
    }

    /// Advances the timer round to the earliest pending deadline and
    /// ticks every machine whose deadline has come due; false when no
    /// machine is waiting. Call only after [`Runtime::quiesce`]: with
    /// the network silent, all loss is final, so an expired deadline is
    /// a genuine loss — identical semantics to the DES's `tick_timers`.
    ///
    /// The due set comes from the deadline index alone — no actor is
    /// locked to find it — in ascending [`Id`] order, the order the DES
    /// ticks in, so both drivers tick the same machines in the same order.
    /// Debug builds check the set against a scan of every machine.
    pub fn tick_timers(&self) -> bool {
        let Some(min) = self.next_timer_round() else {
            return false;
        };
        let prev = self.shared.round.fetch_max(min, Ordering::SeqCst);
        let now = prev.max(min);
        let due = held(self.shared.timers.lock()).due(now);
        debug_assert!(
            !self.is_quiescent()
                || due
                    == self
                        .scan_deadlines()
                        .into_iter()
                        .filter(|&(_, d)| d <= now)
                        .map(|(id, _)| id)
                        .collect::<Vec<Id>>(),
            "timer index disagrees with the machines on who is due"
        );
        for id in due {
            self.inject(id, Command::TimerTick { now });
        }
        true
    }

    /// True when no message is in flight: every machine has finished
    /// its last step, index update included.
    fn is_quiescent(&self) -> bool {
        self.shared.pending.load(Ordering::SeqCst) == 0
    }

    /// The debug oracle of the deadline index: every live machine asked
    /// for its earliest deadline, in id order. Release builds never call
    /// it.
    fn scan_deadlines(&self) -> Vec<(Id, u64)> {
        let actors: Vec<Arc<Actor>> = held(self.shared.actors.read()).values().cloned().collect();
        actors
            .iter()
            .filter_map(|a| {
                let deadline = held(a.slot.lock()).machine.next_deadline()?;
                Some((a.id, deadline))
            })
            .collect()
    }

    /// Alternates [`Runtime::quiesce`] with timer rounds until every
    /// pending operation resolved (completion, retry success, or
    /// graceful give-up) or `max_rounds` timer rounds elapsed. Returns
    /// the timer rounds consumed.
    pub fn settle(&self, max_rounds: u64) -> u64 {
        self.quiesce();
        let mut rounds = 0;
        while rounds < max_rounds && self.tick_timers() {
            self.quiesce();
            rounds += 1;
        }
        rounds
    }

    /// The current timer round (virtual failure-detection time).
    pub fn round(&self) -> u64 {
        self.shared.round.load(Ordering::SeqCst)
    }

    /// Lifetime [`ProtocolEvent::Fault`] count (never reset by
    /// [`Runtime::drain_events`]).
    pub fn fault_count(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Advances the timer round to at least `round`: quiesces the
    /// network, then fires every deadline up to `round` (each followed
    /// by the traffic it provokes). Deadlines beyond `round` stay
    /// pending — same slicing of time as the DES's `advance_to`.
    pub fn advance_to(&self, round: u64) {
        self.quiesce();
        while self.next_timer_round().is_some_and(|d| d <= round) {
            self.tick_timers();
            self.quiesce();
        }
        self.shared.round.fetch_max(round, Ordering::SeqCst);
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            sent: self.shared.sent.load(Ordering::Relaxed),
            delivered: self.shared.delivered.load(Ordering::Relaxed),
            bounced: self.shared.bounced.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            duplicated: self.shared.duplicated.load(Ordering::Relaxed),
            faults: self.shared.faults.load(Ordering::Relaxed),
            busy_ns: self
                .shared
                .books
                .iter()
                .map(|b| b.busy_ns.load(Ordering::Relaxed))
                .collect(),
            per_worker_msgs: self
                .shared
                .books
                .iter()
                .map(|b| b.msgs.load(Ordering::Relaxed))
                .collect(),
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
        self.shared.sent.load(Ordering::Relaxed)
    }

    fn fault_count(&self) -> u64 {
        Runtime::fault_count(self)
    }
}

impl Shared {
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
    /// the last output of the sender's last failure step. An actor the
    /// push makes ready goes into `next` if that is empty, else to the
    /// shared run queue.
    fn send(&self, from: &Actor, out: Outbound, lent: bool, next: &mut Option<Arc<Actor>>) -> bool {
        self.sent.fetch_add(1, Ordering::Relaxed);
        let Outbound { to, msg } = out;
        let mut extra = None;
        if !self.plan.is_reliable() {
            let fate = self.plan.decide(from.id, to, &msg);
            if fate.drop {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if fate.duplicate {
                // extra_delay is a virtual-time notion; the threaded
                // runtime reorders naturally and ignores it.
                extra = Some(msg.clone());
                self.sent.fetch_add(1, Ordering::Relaxed);
                self.duplicated.fetch_add(1, Ordering::Relaxed);
            }
        }
        let copies = 1 + extra.is_some() as usize;
        let target = held(self.actors.read()).get(&to).cloned();
        match target {
            Some(target) => {
                // Counted before the copies are visible in the mailbox.
                let fresh = copies - usize::from(lent);
                if fresh > 0 {
                    self.pending.fetch_add(fresh, Ordering::SeqCst);
                }
                let went_non_empty = {
                    let mut mb = held(target.mailbox.lock());
                    mb.queue.extend(extra.map(|m| (from.id, m)));
                    mb.queue.push_back((from.id, msg));
                    !std::mem::replace(&mut mb.scheduled, true)
                };
                if went_non_empty {
                    if next.is_none() {
                        *next = Some(target);
                    } else {
                        self.schedule(target);
                    }
                }
                lent
            }
            None if self.plan.blackhole_on_crash() => {
                self.dropped.fetch_add(copies as u64, Ordering::Relaxed);
                false
            }
            None => {
                self.bounced.fetch_add(copies as u64, Ordering::Relaxed);
                let mut handed = false;
                for (k, msg) in extra.into_iter().chain([msg]).enumerate() {
                    let outs = {
                        let mut slot = held(from.slot.lock());
                        let outs = slot.machine.on_delivery_failure(to, msg);
                        self.after_step(from.id, &mut slot);
                        outs
                    };
                    handed |= self.send_all(from, outs, lent && k + 1 == copies, next);
                }
                handed
            }
        }
    }

    /// Routes one step's outputs in order. With `lent`, the step's own
    /// in-flight slot goes to its last output, so every earlier push is
    /// counted while the caller still holds that slot (the module doc's
    /// hand-off argument). Returns whether the slot was passed on.
    fn send_all(
        &self,
        from: &Actor,
        outs: Vec<Outbound>,
        lent: bool,
        next: &mut Option<Arc<Actor>>,
    ) -> bool {
        let last = outs.len().saturating_sub(1);
        let mut handed = false;
        for (k, o) in outs.into_iter().enumerate() {
            handed |= self.send(from, o, lent && k == last, next);
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
    /// machine's lock: its events, and its earliest deadline if that
    /// moved. Most steps leave the deadline where it was and never touch
    /// the shared index.
    fn after_step(&self, id: Id, slot: &mut Slot) {
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
                self.faults.fetch_add(faults, Ordering::Relaxed);
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

impl Executor {
    fn new(stats_slot: usize, rng: SmallRng) -> Self {
        Executor {
            stats_slot,
            rng,
            batch: VecDeque::new(),
            next: None,
        }
    }
}

/// The worker thread body: run the run-next actor, else pop one, and park
/// when there is none.
fn worker_loop(shared: Arc<Shared>, mut me: Executor) {
    loop {
        let actor = match me.next.take() {
            Some(actor) => actor,
            None => {
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
            }
        };
        run_actor(&shared, &actor, &mut me);
    }
}

/// Runs one scheduled actor until its mailbox is empty: take the mail,
/// hand it to the machine message by message, route the replies. The
/// one delivery path — pool workers and [`Runtime::quiesce`] both call
/// it.
fn run_actor(shared: &Shared, actor: &Actor, me: &mut Executor) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's one clock read: busy time per executor, a RuntimeStats field no seeded artifact includes"
    )]
    let t0 = Instant::now();
    let books = &shared.books[me.stats_slot];
    let mut handled = false;
    while !shared.stop.load(Ordering::SeqCst) {
        {
            let mut mb = held(actor.mailbox.lock());
            if mb.queue.is_empty() {
                mb.scheduled = false;
                break;
            }
            me.batch.append(&mut mb.queue);
        }
        while let Some((from, msg)) = me.batch.pop_front() {
            let outs = {
                let mut slot = held(actor.slot.lock());
                if slot.retired {
                    None
                } else {
                    let outs = slot.machine.on_message(from, msg, &mut me.rng);
                    shared.after_step(actor.id, &mut slot);
                    Some(outs)
                }
            };
            // Book the envelope before its in-flight slot is passed on or
            // released: once `pending` hits zero a quiescent observer
            // must see sent == delivered + dropped + bounced, and every
            // delivery in some executor's count, already settled.
            match outs {
                Some(outs) => {
                    shared.delivered.fetch_add(1, Ordering::Relaxed);
                    books.msgs.fetch_add(1, Ordering::Relaxed);
                    handled = true;
                    if !shared.send_all(actor, outs, true, &mut me.next) {
                        shared.release(1);
                    }
                }
                // Mail for a removed peer: see `Runtime::remove_peer`.
                None => {
                    shared.dropped.fetch_add(1, Ordering::Relaxed);
                    shared.release(1);
                }
            }
        }
    }
    if handled {
        books
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(workers: usize, seed: u64) -> Runtime {
        Runtime::new(RuntimeConfig::new(seed).with_workers(workers))
    }

    #[test]
    fn serial_joins_form_the_sorted_ring() {
        let rt = runtime(4, 7);
        let ids: Vec<Id> = [500u64, 100, 900, 300, 700]
            .iter()
            .map(|&i| Id::new(i))
            .collect();
        rt.spawn_peer(ids[0]);
        for &id in &ids[1..] {
            assert!(rt.join_and_wait(id, ids[0]), "join of {id:?} timed out");
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        for (k, &id) in sorted.iter().enumerate() {
            let succ = sorted[(k + 1) % sorted.len()];
            let got = rt.with_peer(id, |m| m.succs()[0]).unwrap();
            assert_eq!(got, succ, "succ of {id:?}");
        }
    }

    #[test]
    fn quiesce_observes_silence() {
        let rt = runtime(2, 1);
        rt.spawn_peer(Id::new(10));
        assert!(rt.join_and_wait(Id::new(20), Id::new(10)));
        rt.quiesce(); // immediately satisfiable
        assert_eq!(rt.stats().bounced, 0);
    }

    #[test]
    fn queries_resolve_in_parallel() {
        let rt = runtime(4, 3);
        let ids: Vec<Id> = (0..64u64).map(|i| Id::new(i * 1_000_003)).collect();
        rt.spawn_peer(ids[0]);
        for &id in &ids[1..] {
            assert!(rt.join_and_wait(id, ids[0]));
        }
        for &id in &ids {
            rt.inject(id, Command::BuildLinks { walks: 2 });
        }
        rt.quiesce();
        rt.drain_events();
        // A storm of queries from every peer at once.
        let mut qid = 0u64;
        for &id in &ids {
            for k in 0..4u64 {
                rt.inject(
                    id,
                    Command::StartQuery {
                        qid,
                        key: Id::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    },
                );
                qid += 1;
            }
        }
        rt.quiesce();
        let events = rt.drain_events();
        let done = events
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::QueryCompleted(r) if r.success))
            .count();
        assert_eq!(
            done, qid as usize,
            "all queries must succeed on a clean ring"
        );
    }

    #[test]
    fn gossip_rounds_spread_membership() {
        let rt = runtime(4, 11);
        let ids: Vec<Id> = (0..16u64).map(|i| Id::new((i + 1) << 32)).collect();
        rt.spawn_peer(ids[0]);
        for &id in &ids[1..] {
            assert!(rt.join_and_wait(id, ids[0]));
        }
        for _ in 0..8 {
            rt.gossip_round();
            rt.quiesce();
        }
        let min_known = ids
            .iter()
            .map(|&id| rt.with_peer(id, |m| m.known().len()).unwrap())
            .min()
            .unwrap();
        assert!(min_known >= ids.len() / 2, "gossip stalled: {min_known}");
    }

    #[test]
    fn dead_peer_sends_surface_as_failures_not_hangs() {
        let rt = runtime(2, 5);
        let ids: Vec<Id> = (1..=8u64).map(|i| Id::new(i * 1_000)).collect();
        rt.spawn_peer(ids[0]);
        for &id in &ids[1..] {
            assert!(rt.join_and_wait(id, ids[0]));
        }
        assert!(rt.remove_peer(ids[3]));
        // Route queries across the corpse's arc; they must all terminate.
        rt.drain_events();
        for (q, &id) in ids.iter().enumerate() {
            if id == ids[3] {
                continue;
            }
            rt.inject(
                id,
                Command::StartQuery {
                    qid: q as u64,
                    key: Id::new(3_500),
                },
            );
        }
        rt.quiesce();
        let events = rt.drain_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ProtocolEvent::QueryCompleted(_)))
                .count(),
            ids.len() - 1
        );
        assert!(rt.stats().bounced > 0, "corpse probes must be counted");
    }
}
