//! The benchmark's `ProtocolDriver` wrapper: it delegates every call to
//! the driver under test and reads the clock around it.
//!
//! `run_machine_churn` is one opaque call that bootstraps a fleet and
//! then runs every window, so the only place the benchmark can tell
//! set-up from the timed region, one window from the next, and a probe
//! round from a query batch is this seam. The wrapper is always in place:
//! an untraced run pays two clock reads and a few additions per driver
//! call (well under 1% of the cheapest call); a traced run additionally
//! keeps a span per call.

use crate::sys::CpuTimes;
use crate::trace::{Recorder, SpanId};
use oscar_protocol::{Command, ProtocolDriver, ProtocolEvent};
use oscar_runtime::Runtime;
use oscar_sim::DesDriver;
use oscar_types::Id;
use std::cell::RefCell;
use std::time::Instant;

/// The engine activity a driver call serves, told from the `Command`
/// that preceded it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    /// `spawn_peer`, `Join` and the settle that splices the ring.
    Join = 0,
    /// `BuildLinks` and the settle that walks and shakes hands.
    Link = 1,
    Probe = 2,
    Query = 3,
    Depart = 4,
    Other = 5,
}

/// Number of [`Class`] values.
const CLASSES: usize = 6;

/// The `ProtocolDriver` methods that do work.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Call {
    Spawn = 0,
    Remove = 1,
    Inject = 2,
    Settle = 3,
    Advance = 4,
    PeerIds = 5,
    Drain = 6,
}

/// The message ledger both drivers keep: at a quiescent point
/// `sent == delivered + dropped + bounced`.
pub trait Ledger {
    /// `[sent, delivered, dropped, bounced]`.
    fn ledger(&self) -> [u64; 4];
}

impl Ledger for DesDriver {
    fn ledger(&self) -> [u64; 4] {
        [
            DesDriver::sent(self),
            self.delivered(),
            self.dropped(),
            self.bounced(),
        ]
    }
}

impl Ledger for Runtime {
    fn ledger(&self) -> [u64; 4] {
        let s = self.stats();
        [s.sent, s.delivered, s.dropped, s.bounced]
    }
}

/// True iff the ledger reconciles.
pub fn ledger_balanced(l: [u64; 4]) -> bool {
    l[0] == l[1] + l[2] + l[3]
}

/// See the module docs.
pub struct Traced<D> {
    pub inner: D,
    class: Class,
    /// Wall time and count per driver method, timed region only.
    pub call_ns: [u64; 7],
    pub call_count: [u64; 7],
    /// The first `drain_events`, which ends `bootstrap_fleet`.
    pub setup_end: Option<(Instant, CpuTimes)>,
    /// `[sent, delivered, dropped, bounced]` at the end of set-up.
    pub setup_ledger: [u64; 4],
    round_start: Option<Instant>,
    /// Duration of every completed probe round (one `ProbeRing` + settle
    /// per live peer), in milliseconds.
    pub rounds_ms: Vec<f64>,
    join_start: Option<Instant>,
    link_start: Option<Instant>,
    /// Duration of every join (`spawn_peer` to the end of the settle after
    /// `BuildLinks`) and of its link build alone, in milliseconds.
    pub joins_ms: Vec<f64>,
    pub links_ms: Vec<f64>,
    batch_start: Option<Instant>,
    /// Duration of every window's query batch, first `StartQuery` to the
    /// drain of its reports, in milliseconds.
    pub batches_ms: Vec<f64>,
    /// The `drain_events` that closes each window's query batch.
    pub window_ends: Vec<Instant>,
    /// Quiescent reads at which the ledger did not reconcile or a fault
    /// had been counted.
    pub bad_reads: u64,
    pub recorder: Option<Recorder>,
    parked_ids: RefCell<Vec<(Instant, Instant)>>,
    root: Option<SpanId>,
    window: Option<SpanId>,
    calls: u64,
}

impl<D: ProtocolDriver + Ledger> Traced<D> {
    pub fn new(inner: D, recorder: Option<Recorder>) -> Self {
        Traced {
            inner,
            class: Class::Other,
            call_ns: [0; 7],
            call_count: [0; 7],
            setup_end: None,
            setup_ledger: [0; 4],
            round_start: None,
            rounds_ms: Vec::new(),
            join_start: None,
            link_start: None,
            joins_ms: Vec::new(),
            links_ms: Vec::new(),
            batch_start: None,
            batches_ms: Vec::new(),
            window_ends: Vec::new(),
            bad_reads: 0,
            recorder,
            parked_ids: RefCell::new(Vec::new()),
            root: None,
            window: None,
            calls: 0,
        }
    }

    /// Closes the spans still open once the engine has returned.
    pub fn finish(&mut self) {
        self.end_round(Instant::now());
        self.book_parked();
        if let Some(rec) = &mut self.recorder {
            if let Some(w) = self.window.take() {
                rec.close(w);
            }
            if let Some(r) = self.root.take() {
                rec.close(r);
            }
        }
    }

    fn quiescent_read(&mut self) {
        if !ledger_balanced(self.inner.ledger()) || self.inner.fault_count() != 0 {
            self.bad_reads += 1;
        }
    }

    /// Books one finished call. Set-up calls are not booked: the timed
    /// region starts at the first `drain_events`.
    fn book(&mut self, call: Call, name: &'static str, start: Instant, end: Instant) {
        self.book_parked();
        self.book_one(call, name, start, end);
    }

    /// Books the `peer_ids` calls made since the last `&mut` call.
    fn book_parked(&mut self) {
        let parked = std::mem::take(self.parked_ids.get_mut());
        for (start, end) in parked {
            self.book_one(Call::PeerIds, "peer_ids", start, end);
        }
    }

    fn book_one(&mut self, call: Call, name: &'static str, start: Instant, end: Instant) {
        if self.setup_end.is_none() {
            return;
        }
        let ns = end.duration_since(start).as_nanos() as u64;
        self.calls += 1;
        self.call_ns[call as usize] += ns;
        self.call_count[call as usize] += 1;
        if let Some(rec) = &mut self.recorder {
            rec.leaf(name, self.calls, start, end);
        }
    }

    /// A probe round ends at the first call that is not part of it.
    fn end_round(&mut self, now: Instant) {
        if let Some(start) = self.round_start.take() {
            self.rounds_ms
                .push(now.duration_since(start).as_secs_f64() * 1e3);
        }
    }
}

fn class_of(cmd: &Command) -> Class {
    match cmd {
        Command::Join { .. } => Class::Join,
        Command::BuildLinks { .. } => Class::Link,
        Command::ProbeRing => Class::Probe,
        Command::StartQuery { .. } => Class::Query,
        Command::Depart => Class::Depart,
        _ => Class::Other,
    }
}

fn inject_span(cmd: &Command) -> &'static str {
    match cmd {
        Command::Join { .. } => "inject.Join",
        Command::BuildLinks { .. } => "inject.BuildLinks",
        Command::ProbeRing => "inject.ProbeRing",
        Command::StartQuery { .. } => "inject.StartQuery",
        Command::Depart => "inject.Depart",
        Command::Rewire { .. } => "inject.Rewire",
        Command::TimerTick { .. } => "inject.TimerTick",
        Command::Bootstrap { .. } | Command::GossipTick => "inject.other",
    }
}

const SETTLE_SPANS: [&str; CLASSES] = [
    "settle.join",
    "settle.link",
    "settle.probe",
    "settle.query",
    "settle.depart",
    "settle.other",
];

impl<D: ProtocolDriver + Ledger> ProtocolDriver for Traced<D> {
    fn spawn_peer(&mut self, id: Id) {
        let start = Instant::now();
        self.end_round(start);
        // The engine spawns a machine only to join it next.
        self.class = Class::Join;
        if self.setup_end.is_some() {
            self.join_start = Some(start);
        }
        self.inner.spawn_peer(id);
        self.book(Call::Spawn, "spawn_peer", start, Instant::now());
    }

    fn remove_peer(&mut self, id: Id) {
        let start = Instant::now();
        self.end_round(start);
        // After a `Depart` settled this is the leaver's removal;
        // otherwise it is a crash, which no command precedes.
        if self.class != Class::Depart {
            self.class = Class::Other;
        }
        self.inner.remove_peer(id);
        self.book(Call::Remove, "remove_peer", start, Instant::now());
        self.class = Class::Other;
    }

    fn inject(&mut self, id: Id, cmd: Command) {
        let start = Instant::now();
        let class = class_of(&cmd);
        if class == Class::Probe {
            self.round_start.get_or_insert(start);
        } else {
            self.end_round(start);
        }
        if class == Class::Query {
            self.batch_start.get_or_insert(start);
        }
        if class == Class::Link && self.join_start.is_some() {
            self.link_start = Some(start);
        }
        self.class = class;
        let name = inject_span(&cmd);
        self.inner.inject(id, cmd);
        self.book(Call::Inject, name, start, Instant::now());
    }

    fn settle(&mut self, max_rounds: u64) -> u64 {
        let start = Instant::now();
        let rounds = self.inner.settle(max_rounds);
        let end = Instant::now();
        self.book(Call::Settle, SETTLE_SPANS[self.class as usize], start, end);
        // A join ends when the settle after its `BuildLinks` does.
        if let (Class::Link, Some(link)) = (self.class, self.link_start.take()) {
            let ms = |from: Instant| end.duration_since(from).as_secs_f64() * 1e3;
            self.links_ms.push(ms(link));
            if let Some(join) = self.join_start.take() {
                self.joins_ms.push(ms(join));
            }
        }
        rounds
    }

    fn advance_to(&mut self, round: u64) {
        let start = Instant::now();
        self.end_round(start);
        self.inner.advance_to(round);
        self.book(Call::Advance, "advance_to", start, Instant::now());
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    /// `peer_ids` takes `&self`, so the call is parked and booked by the
    /// next `&mut` call, which always comes before the window closes.
    fn peer_ids(&self) -> Vec<Id> {
        let start = Instant::now();
        let ids = self.inner.peer_ids();
        self.parked_ids.borrow_mut().push((start, Instant::now()));
        ids
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        let start = Instant::now();
        self.end_round(start);
        let events = self.inner.drain_events();
        let end = Instant::now();
        if self.setup_end.is_none() {
            // `bootstrap_fleet` ends with the first drain.
            self.setup_end = Some((end, CpuTimes::now()));
            self.setup_ledger = self.inner.ledger();
            self.quiescent_read();
            if let Some(rec) = &mut self.recorder {
                self.root = Some(rec.open("timed", 0));
                self.window = Some(rec.open("window", 0));
            }
            return events;
        }
        self.book(Call::Drain, "drain_events", start, end);
        if self.class == Class::Query {
            // The drain after a query batch closes the window.
            if let Some(batch) = self.batch_start.take() {
                self.batches_ms
                    .push(end.duration_since(batch).as_secs_f64() * 1e3);
            }
            self.window_ends.push(end);
            self.quiescent_read();
            let next = self.window_ends.len() as u64;
            if let (Some(rec), Some(w)) = (&mut self.recorder, self.window.take()) {
                rec.close(w);
                self.window = Some(rec.open("window", next));
            }
            self.class = Class::Other;
        }
        events
    }

    fn sent(&self) -> u64 {
        self.inner.sent()
    }

    fn fault_count(&self) -> u64 {
        self.inner.fault_count()
    }
}
