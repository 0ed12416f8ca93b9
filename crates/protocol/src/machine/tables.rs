//! The tables the sub-machines share, each defined once: pending
//! operations with their deadlines and retry streams ([`OpTable`]), a
//! FIFO window ([`Recent`]), the duplicate-suppression window of message
//! keys behind a tag index ([`KeyWindow`]), a sorted peer set that sheds its
//! clockwise-farthest member ([`NearSet`]) and an inline list of at most
//! `N` peers ([`Bounded`]) that holds each link table.

use crate::message::{OpKind, ProtocolEvent};
use crate::token::TokenRng;
use oscar_types::labels::protocol_machine::LBL_RETRY;
use oscar_types::{Id, SeedTree};
use std::collections::VecDeque;
use std::ops::Deref;

/// Base deadline for pending operations, in driver timer rounds.
const RETRY_TIMEOUT: u64 = 1;

/// Cap on the exponential retry backoff, in timer rounds.
const MAX_BACKOFF: u64 = 8;

/// An operation awaiting its completion message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(super) enum Op {
    /// `JoinRequest` sent to `contact`; cleared by `JoinWelcome`.
    Join { contact: Id },
    /// Launched walk; cleared by its `WalkDone`.
    Walk { walk_id: u64 },
    /// Issued query; cleared by `QueryDone` or local completion.
    Query { qid: u64, key: Id },
    /// `LinkRequest` to `target`; cleared by accept or reject.
    Link {
        target: Id,
        walk_id: u64,
        nonce_base: u64,
    },
    /// Ring-liveness `Ping` to `target`; cleared by its `Pong`. A drained
    /// retry budget declares the target dead (the failure detector).
    Probe { target: Id, nonce_base: u64 },
}

impl Op {
    /// What handlers address this entry by: its class and the key its
    /// completion message carries (a peer has one join in flight: key 0).
    pub(super) fn addr(&self) -> (OpKind, u64) {
        match *self {
            Op::Join { .. } => (OpKind::Join, 0),
            Op::Walk { walk_id } => (OpKind::Walk, walk_id),
            Op::Query { qid, .. } => (OpKind::Query, qid),
            Op::Link { target, .. } => (OpKind::Link, target.raw()),
            Op::Probe { target, .. } => (OpKind::Probe, target.raw()),
        }
    }

    /// The (label, key) pair addressing this operation's retry stream.
    fn stream_key(&self) -> (u64, u64) {
        match *self {
            Op::Join { contact } => (1, contact.raw()),
            Op::Walk { walk_id } => (2, walk_id),
            Op::Query { qid, .. } => (3, qid),
            Op::Link { walk_id, .. } => (4, walk_id),
            // Keyed by the probe nonce, not the target: every probe epoch
            // gets a fresh retry stream for the same neighbour.
            Op::Probe { nonce_base, .. } => (5, nonce_base),
        }
    }
}

#[derive(Clone, Debug)]
struct Pending {
    op: Op,
    /// Sends made so far minus one (0 = only the original send).
    attempt: u32,
    /// Fires when the table's clock reaches this round.
    deadline: u64,
    /// Backoff jitter and alternate-contact picks draw from here — a
    /// per-operation token stream, never the driver RNG.
    rng: TokenRng,
}

/// Operations found due, in table order, each with an attempt count.
pub(super) type Due = Vec<(Op, u32)>;

#[derive(Clone, Debug)]
pub(super) struct OpTable {
    /// Parent of every retry stream: rooted at the machine's own seed, so
    /// jitter and contact picks are deterministic and driver-independent.
    retry_root: SeedTree,
    /// Virtual clock in driver timer rounds; advanced only by
    /// [`Self::expire`] — never by a wall clock.
    now: u64,
    entries: Vec<Pending>,
}

impl OpTable {
    pub(super) fn new(machine_seed: u64) -> Self {
        OpTable {
            #[expect(
                clippy::disallowed_methods,
                reason = "retry streams root at the machine's own deterministic seed keyed by the operation"
            )]
            retry_root: SeedTree::new(machine_seed).child(LBL_RETRY),
            now: 0,
            entries: Vec::new(),
        }
    }

    /// Starts the clock on a freshly issued operation.
    pub(super) fn arm(&mut self, op: Op) {
        let (tag, key) = op.stream_key();
        self.entries.push(Pending {
            op,
            attempt: 0,
            deadline: self.now + RETRY_TIMEOUT,
            rng: TokenRng::new(self.retry_root.child2(tag, key).seed()),
        });
    }

    pub(super) fn has(&self, kind: OpKind, key: u64) -> bool {
        self.entries.iter().any(|p| p.op.addr() == (kind, key))
    }

    /// Removes the entries addressed `(kind, key)`; true iff one existed
    /// (the completion gate — late and duplicated reports find nothing).
    pub(super) fn clear(&mut self, kind: OpKind, key: u64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|p| p.op.addr() != (kind, key));
        self.entries.len() != before
    }

    pub(super) fn cancel_all(&mut self) {
        self.entries.clear();
    }

    pub(super) fn next_deadline(&self) -> Option<u64> {
        self.entries.iter().map(|p| p.deadline).min()
    }

    /// Advances the clock to `now` and fires every expired deadline: each
    /// due entry emits `TimedOut`, then either re-arms (capped exponential
    /// backoff with jitter from its own stream, `Retried`) or — once
    /// `max_retries` is spent — leaves the table. A retried join re-picks
    /// its contact from `contacts`, if any (the original may be the
    /// crashed peer). Returns `(to re-send, given up)`; the caller acts
    /// on them afterwards, because an action (e.g. a query retry
    /// completing locally) may itself clear entries.
    pub(super) fn expire(
        &mut self,
        now: u64,
        max_retries: u32,
        contacts: &[Id],
        peer: Id,
        events: &mut Vec<ProtocolEvent>,
    ) -> (Due, Due) {
        self.now = self.now.max(now);
        let now = self.now;
        let (mut retries, mut gave_up) = (Due::new(), Due::new());
        self.entries.retain_mut(|p| {
            if p.deadline > now {
                return true;
            }
            let op = p.op.addr().0;
            events.push(ProtocolEvent::TimedOut {
                peer,
                op,
                attempt: p.attempt,
            });
            if p.attempt >= max_retries {
                gave_up.push((p.op, p.attempt + 1));
                return false;
            }
            p.attempt += 1;
            let exp = RETRY_TIMEOUT
                .saturating_mul(1u64 << (p.attempt - 1).min(16))
                .min(MAX_BACKOFF);
            let jitter = p.rng.index(exp as usize) as u64;
            p.deadline = now + exp + jitter;
            if let Op::Join { contact } = &mut p.op {
                if !contacts.is_empty() {
                    *contact = contacts[p.rng.index(contacts.len())];
                }
            }
            events.push(ProtocolEvent::Retried {
                peer,
                op,
                attempt: p.attempt,
            });
            retries.push((p.op, p.attempt));
            true
        });
        (retries, gave_up)
    }
}

/// The last `cap` items pushed, oldest first; derefs to the queue.
#[derive(Clone, Debug)]
pub(super) struct Recent<T> {
    cap: usize,
    items: VecDeque<T>,
}

impl<T> Recent<T> {
    pub(super) fn new(cap: usize) -> Self {
        Recent {
            cap,
            items: VecDeque::new(),
        }
    }

    /// Remembers `item`, forgetting the oldest one once at capacity. The
    /// oldest goes first, so a full window never grows its buffer past
    /// `cap`; a window with `cap` 0 stays empty.
    pub(super) fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() == self.cap {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }
}

/// Message instance keys kept for duplicate suppression.
const DEDUP_WINDOW: usize = 128;

const _: () = assert!(DEDUP_WINDOW > 0 && DEDUP_WINDOW.is_multiple_of(8));

/// `0x01` in every byte of a word.
const LOW_BYTES: u64 = u64::MAX / 0xFF;

/// `0x80` in every byte of a word.
const HIGH_BITS: u64 = LOW_BYTES << 7;

/// The last [`DEDUP_WINDOW`] message keys pushed: the same set a
/// [`Recent<u64>`] of that capacity holds, in a ring whose keys are
/// indexed by their top byte. A lookup reads the packed tags a word at a
/// time and compares only the keys whose tag matches, so a miss reads the
/// tags' two cache lines and rarely a key.
#[derive(Clone, Debug)]
pub(super) struct KeyWindow {
    /// The oldest slot once the ring is full; 0 until then.
    head: usize,
    /// Slot `i`'s tag — its key's top byte — is byte `i % 8` of word
    /// `i / 8`. A slot not yet filled reads 0.
    tags: [u64; DEDUP_WINDOW / 8],
    /// The keys by slot: grows to [`DEDUP_WINDOW`], then each push
    /// overwrites the oldest in place.
    keys: Vec<u64>,
}

impl KeyWindow {
    pub(super) fn new() -> Self {
        KeyWindow {
            head: 0,
            tags: [0; DEDUP_WINDOW / 8],
            keys: Vec::new(),
        }
    }

    fn tag(key: u64) -> u64 {
        key >> 56
    }

    /// Remembers `key`, forgetting the oldest one once full.
    pub(super) fn push(&mut self, key: u64) {
        let slot = if self.keys.len() < DEDUP_WINDOW {
            self.keys.push(key);
            self.keys.len() - 1
        } else {
            let slot = self.head;
            self.keys[slot] = key;
            self.head = (slot + 1) % DEDUP_WINDOW;
            slot
        };
        let shift = (slot % 8) * 8;
        let word = &mut self.tags[slot / 8];
        *word = (*word & !(0xFF << shift)) | (Self::tag(key) << shift);
    }

    /// Whether `key` is among the keys held. Exact: a tag match only
    /// nominates a slot, whose key is then compared.
    pub(super) fn contains(&self, key: u64) -> bool {
        let probe = Self::tag(key) * LOW_BYTES;
        for (w, &word) in self.tags.iter().enumerate() {
            // A zero byte of `x` is a slot whose tag matches. The mask
            // flags every one of them; a borrow may also flag the byte
            // above one, which the key comparison then rejects.
            let x = word ^ probe;
            let mut hits = x.wrapping_sub(LOW_BYTES) & !x & HIGH_BITS;
            while hits != 0 {
                let slot = w * 8 + hits.trailing_zeros() as usize / 8;
                // An unfilled slot is past the end: `get` answers `None`.
                if self.keys.get(slot) == Some(&key) {
                    return true;
                }
                hits &= hits - 1;
            }
        }
        false
    }
}

/// At most `N` peers in an inline array: a link table that lives inside
/// its machine, not in an allocation of its own. Derefs to the occupied
/// prefix.
#[derive(Clone)]
pub(super) struct Bounded<const N: usize> {
    len: usize,
    ids: [Id; N],
}

impl<const N: usize> Bounded<N> {
    pub(super) fn new() -> Self {
        Bounded {
            len: 0,
            ids: [Id::ZERO; N],
        }
    }

    /// The first `N` of `ids`.
    pub(super) fn from_slice(ids: &[Id]) -> Self {
        let mut t = Self::new();
        t.len = ids.len().min(N);
        t.ids[..t.len].copy_from_slice(&ids[..t.len]);
        t
    }

    /// Appends `id`; false, and nothing changes, when the table is full.
    pub(super) fn push(&mut self, id: Id) -> bool {
        if self.len == N {
            return false;
        }
        self.ids[self.len] = id;
        self.len += 1;
        true
    }

    /// Inserts `id` at `pos`, shedding the last entry when the table is
    /// full; nothing changes when `pos` is `N`.
    pub(super) fn insert(&mut self, pos: usize, id: Id) {
        debug_assert!(pos <= self.len, "insert past the end");
        if pos >= N {
            return;
        }
        let end = self.len.min(N - 1);
        self.ids.copy_within(pos..end, pos + 1);
        self.ids[pos] = id;
        self.len = end + 1;
    }

    /// Keeps the entries `keep` accepts, in order.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(Id) -> bool) {
        let mut kept = 0;
        for k in 0..self.len {
            let id = self.ids[k];
            if keep(id) {
                self.ids[kept] = id;
                kept += 1;
            }
        }
        self.len = kept;
    }

    pub(super) fn sort_by_key<K: Ord>(&mut self, key: impl FnMut(&Id) -> K) {
        self.ids[..self.len].sort_unstable_by_key(key);
    }

    /// Sorts the table and drops repeated entries.
    pub(super) fn sort_dedup(&mut self) {
        self.ids[..self.len].sort_unstable();
        let mut prev = None;
        self.retain(|id| prev.replace(id) != Some(id));
    }
}

impl<const N: usize> Default for Bounded<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::fmt::Debug for Bounded<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A sorted set of at most `cap` peers around `me` (never `me` itself);
/// derefs to the sorted slice.
#[derive(Clone, Debug)]
pub(super) struct NearSet {
    me: Id,
    cap: usize,
    ids: Vec<Id>,
}

impl NearSet {
    pub(super) fn new(me: Id, cap: usize) -> Self {
        NearSet {
            me,
            cap,
            ids: Vec::new(),
        }
    }

    pub(super) fn insert(&mut self, p: Id) {
        if p == self.me {
            return;
        }
        if let Err(pos) = self.ids.binary_search(&p) {
            self.ids.insert(pos, p);
            if self.ids.len() > self.cap {
                // Deterministic trim: drop the clockwise-farthest entry
                // (ring surgery and routing only ever need the nearby
                // ones) — in id order, the one just before `me`, wrapping
                // to the last.
                let before_me = self.ids.partition_point(|&x| x < self.me);
                let far = before_me.checked_sub(1).unwrap_or(self.ids.len() - 1);
                self.ids.remove(far);
            }
        }
    }

    pub(super) fn remove(&mut self, p: Id) {
        if let Ok(pos) = self.ids.binary_search(&p) {
            self.ids.remove(pos);
        }
    }
}

impl<T> Deref for Recent<T> {
    type Target = VecDeque<T>;

    fn deref(&self) -> &VecDeque<T> {
        &self.items
    }
}

impl<const N: usize> Deref for Bounded<N> {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        &self.ids[..self.len]
    }
}

impl Deref for NearSet {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(raw: u64) -> Id {
        Id::new(raw)
    }

    #[test]
    fn retry_streams_keep_the_per_operation_derivation() {
        let seed = 0xC0FFEE;
        let ops = [
            (Op::Join { contact: id(900) }, 1, 900),
            (Op::Walk { walk_id: 7 }, 2, 7),
            (
                Op::Query {
                    qid: 11,
                    key: id(5),
                },
                3,
                11,
            ),
            // A link's stream is keyed by its walk, a probe's by its nonce:
            // neither by the target that addresses the entry.
            (
                Op::Link {
                    target: id(40),
                    walk_id: 3,
                    nonce_base: 99,
                },
                4,
                3,
            ),
            (
                Op::Probe {
                    target: id(40),
                    nonce_base: 0xAB,
                },
                5,
                0xAB,
            ),
        ];
        let mut table = OpTable::new(seed);
        for (op, _, _) in ops {
            table.arm(op);
        }
        for (entry, (op, tag, key)) in table.entries.iter().zip(ops) {
            let want = SeedTree::new(seed).child(LBL_RETRY).child2(tag, key).seed();
            assert_eq!(entry.rng, TokenRng::new(want), "{op:?}");
        }
    }

    #[test]
    fn clear_reports_whether_an_entry_existed() {
        let mut table = OpTable::new(1);
        table.arm(Op::Query { qid: 4, key: id(9) });
        table.arm(Op::Walk { walk_id: 4 });
        assert!(table.has(OpKind::Query, 4) && !table.has(OpKind::Query, 5));
        assert!(table.clear(OpKind::Query, 4), "the first report finds it");
        assert!(!table.clear(OpKind::Query, 4), "a duplicate finds nothing");
        // Same key, other class: untouched.
        assert!(table.has(OpKind::Walk, 4));
        assert_eq!(table.next_deadline(), Some(RETRY_TIMEOUT));
    }

    #[test]
    fn a_key_is_found_for_127_later_pushes_and_forgotten_after_128() {
        let first = 0xAB00_0000_0000_0001;
        let mut window = KeyWindow::new();
        window.push(first);
        // Same tag as `first`, so each later key is a candidate slot the
        // lookup must reject by comparing keys.
        for k in 2..=DEDUP_WINDOW as u64 {
            window.push(first + k);
        }
        assert!(window.contains(first));
        window.push(first + 1000);
        assert!(!window.contains(first));
        assert!(window.contains(first + 1000) && window.contains(first + 2));
    }

    proptest! {
        #[test]
        fn key_window_holds_what_a_fifo_of_its_capacity_holds(
            ops in prop::collection::vec((0u8..3, 0usize..3, 0u64..200), 0..1200),
        ) {
            // Top bytes from three values, 0 among them, so tags collide
            // and keys tagged 0 meet the unfilled slots; low bits from a
            // small range, so keys repeat. Two ops in three push: the
            // longer cases wrap the ring several times.
            let mut window = KeyWindow::new();
            let mut model: VecDeque<u64> = VecDeque::new();
            for (op, top, low) in ops {
                let key = ([0u64, 0x7F, 0xFF][top] << 56) | low;
                if op < 2 {
                    window.push(key);
                    if model.len() == DEDUP_WINDOW {
                        model.pop_front();
                    }
                    model.push_back(key);
                } else {
                    prop_assert_eq!(window.contains(key), model.contains(&key));
                }
            }
            for &key in &model {
                prop_assert!(window.contains(key));
            }
        }

        #[test]
        fn recent_is_a_bounded_fifo(cap in 0usize..9, items in prop::collection::vec(0u8..16, 0..64)) {
            let mut recent = Recent::new(cap);
            let mut model: Vec<u8> = Vec::new();
            for item in items {
                recent.push(item);
                model.push(item);
                if model.len() > cap {
                    model.remove(0);
                }
                prop_assert!(recent.len() <= cap);
                // Popped before pushed: a full window never doubles its
                // buffer.
                prop_assert!(recent.items.capacity() <= cap.next_power_of_two().max(8));
                prop_assert_eq!(recent.iter().copied().collect::<Vec<_>>(), model.clone());
            }
        }

        #[test]
        fn bounded_is_a_vec_that_sheds_past_its_cap(
            ops in prop::collection::vec((0u8..3, 0usize..8, 0u64..6), 0..64),
        ) {
            let mut table = Bounded::<5>::new();
            let mut model: Vec<Id> = Vec::new();
            for (op, pos, raw) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(table.push(id(raw)), model.len() < 5);
                        if model.len() < 5 {
                            model.push(id(raw));
                        }
                    }
                    1 => {
                        let pos = pos.min(model.len());
                        table.insert(pos, id(raw));
                        model.insert(pos, id(raw));
                        model.truncate(5);
                    }
                    _ => {
                        table.retain(|x| x != id(raw));
                        model.retain(|&x| x != id(raw));
                    }
                }
                prop_assert_eq!(&table[..], &model[..]);
            }
            table.sort_dedup();
            model.sort_unstable();
            model.dedup();
            prop_assert_eq!(&table[..], &model[..]);
        }

        #[test]
        fn near_set_sheds_the_clockwise_farthest(
            me: u64,
            cap in 0usize..9,
            ops in prop::collection::vec((any::<bool>(), 0u64..24), 0..64),
        ) {
            // Ids cluster around `me` on both sides of the wrap.
            let me = id(me);
            let mut set = NearSet::new(me, cap);
            let mut model: Vec<Id> = Vec::new();
            for (insert, offset) in ops {
                let p = id(me.raw().wrapping_add(offset).wrapping_sub(12));
                if insert {
                    set.insert(p);
                    if p != me && !model.contains(&p) {
                        model.push(p);
                        if model.len() > cap {
                            let far = model.iter().copied().max_by_key(|&x| me.cw_dist(x));
                            model.retain(|&x| Some(x) != far);
                        }
                    }
                } else {
                    set.remove(p);
                    model.retain(|&x| x != p);
                }
                model.sort_unstable();
                prop_assert!(set.len() <= cap);
                prop_assert_eq!(&set[..], &model[..]);
            }
        }
    }
}
