//! Long-link acquisition: Metropolis–Hastings sampling walks launched in
//! batches, and the link handshake a settled batch issues.

use super::join::SUCC_LEN;
use super::tables::Op;
use super::PeerMachine;
use crate::logic;
use crate::message::{Message, OpKind, ProtocolEvent};
use crate::token::{TokenRng, WalkToken};
use oscar_types::labels::protocol_machine::{LBL_LINK, LBL_WALK};
use oscar_types::{Id, SeedTree};

/// Long out-link budget (links this peer initiates).
pub(super) const MAX_LONG_OUT: usize = 5;

/// Long in-link budget (links this peer accepts).
pub(super) const MAX_LONG_IN: usize = 10;

/// Most entries a canonical neighbour table can hold: the predecessor and
/// every link table full.
pub(super) const NEIGHBOR_CAP: usize = 1 + SUCC_LEN + MAX_LONG_OUT + MAX_LONG_IN;

/// MH walk length per sample (burn-in of the sampling chain).
const WALK_TTL: u32 = 16;

impl PeerMachine {
    pub(super) fn launch_walks(&mut self, walks: u32) {
        // Launching changes no link: one table serves every first step.
        let table = self.neighbor_table();
        if walks == 0 || table.is_empty() {
            return;
        }
        let first = self.walk_counter;
        self.walk_counter += walks as u64;
        let batch = self.batch.get_or_insert_with(Vec::new);
        batch.extend((first..self.walk_counter).map(|w| (w, None)));
        for walk_id in first..self.walk_counter {
            self.ops.arm(Op::Walk { walk_id });
            self.step_walk(self.walk_token(walk_id, 0), &table);
        }
    }

    /// Full rewire: dissolve every out-link and rebuild the whole budget
    /// with `walks` fresh walks — the machine port of the churn engine's
    /// `builder.rewire`.
    pub(super) fn rewire(&mut self, walks: u32) {
        for &t in std::mem::take(&mut self.long_out).iter() {
            self.send(t, Message::Unlink);
        }
        self.launch_walks(walks);
    }

    /// The token for launch `attempt` of `walk_id`. Attempt 0 uses the
    /// original per-walk derivation (artifact-critical: committed seeded
    /// baselines realise exactly these streams); retries derive a fresh
    /// child stream so the re-launched walk takes a different path.
    pub(super) fn walk_token(&self, walk_id: u64, attempt: u32) -> WalkToken {
        #[expect(
            clippy::disallowed_methods,
            reason = "walk tokens root at the machine's own deterministic seed keyed by walk_id"
        )]
        let node = SeedTree::new(self.seed).child2(LBL_WALK, walk_id);
        let seed = if attempt == 0 {
            node.seed()
        } else {
            node.child(attempt as u64).seed()
        };
        WalkToken {
            walk_id,
            origin: self.id,
            remaining: WALK_TTL,
            rng: TokenRng::new(seed),
            holder_deg: 0,
            attempt,
        }
    }

    /// Sends the walk's next message from this holder: a probe of a
    /// uniformly proposed neighbour while steps remain, else (or with
    /// nowhere to go) this holder, reported to the origin as the sample.
    pub(super) fn advance_walk(&mut self, token: WalkToken) {
        let table = if token.remaining > 0 {
            self.neighbor_table()
        } else {
            Default::default()
        };
        self.step_walk(token, &table);
    }

    /// [`Self::advance_walk`] over this holder's neighbour table, built
    /// by the caller.
    fn step_walk(&mut self, mut token: WalkToken, table: &[Id]) {
        if token.remaining == 0 || table.is_empty() {
            let done = Message::WalkDone {
                walk_id: token.walk_id,
                sample: self.id,
                attempt: token.attempt,
            };
            self.send(token.origin, done);
        } else {
            let k = token.rng.index(table.len());
            token.holder_deg = table.len();
            self.send(table[k], Message::WalkProbe(token));
        }
    }

    pub(super) fn on_walk_probe(&mut self, from: Id, mut token: WalkToken) {
        token.remaining = token.remaining.saturating_sub(1);
        // One table serves the acceptance test and the next proposal.
        let table = self.neighbor_table();
        let accept = logic::mh_accept(token.holder_deg, table.len(), || token.rng.unit_f64());
        if accept && !table.is_empty() {
            self.step_walk(token, &table);
        } else {
            self.send(from, Message::WalkReject(token));
        }
    }

    pub(super) fn on_walk_done(&mut self, walk_id: u64, sample: Id) {
        self.known.insert(sample);
        let Some(batch) = self.batch.as_mut() else {
            return;
        };
        match batch.iter_mut().find(|(w, _)| *w == walk_id) {
            // First sample for this walk: record it.
            Some(slot) if slot.1.is_none() => slot.1 = Some(sample),
            // A late WalkDone from a retried walk whose earlier launch
            // also finished, or an unknown walk id: the batch may already
            // be settled (or settling) — ignore.
            _ => return,
        }
        self.ops.clear(OpKind::Walk, walk_id);
        self.try_settle_batch();
    }

    /// A walk that exhausted its retries: the batch settles without it
    /// (a shorter sample).
    pub(super) fn abandon_walk(&mut self, walk_id: u64) {
        if let Some(batch) = self.batch.as_mut() {
            batch.retain(|&(w, _)| w != walk_id);
        }
        self.try_settle_batch();
    }

    /// Settles the walk batch once every pending walk has landed (or been
    /// given up): issues link requests in launch order — a deterministic
    /// sequence, whatever order the WalkDone messages arrived in.
    fn try_settle_batch(&mut self) {
        if !matches!(&self.batch, Some(b) if b.iter().all(|(_, s)| s.is_some())) {
            return;
        }
        let Some(batch) = self.batch.take() else {
            // Checked present above; a miss here means the machine's own
            // state went inconsistent — drop the batch, keep the thread.
            self.events.push(ProtocolEvent::Fault {
                peer: self.id,
                context: "walk batch vanished before settling",
            });
            return;
        };
        let mut targets: Vec<(u64, Id)> = Vec::new();
        let mut chosen: Vec<Id> = Vec::new();
        for (walk_id, sample) in &batch {
            // Every slot landed (checked above); skip rather than unwrap so
            // an impossible None cannot poison the machine.
            let Some(s) = *sample else { continue };
            if logic::admits_link(self.id, s, &chosen, &self.long_out) {
                chosen.push(s);
                targets.push((*walk_id, s));
            }
        }
        let room = MAX_LONG_OUT.saturating_sub(self.long_out.len());
        targets.truncate(room);
        for (walk_id, target) in targets {
            #[expect(
                clippy::disallowed_methods,
                reason = "link nonces root at the machine's own deterministic seed keyed by walk_id"
            )]
            let nonce = SeedTree::new(self.seed).child2(LBL_LINK, walk_id).seed();
            let link = Op::Link {
                target,
                walk_id,
                nonce_base: nonce,
            };
            self.ops.arm(link);
            self.send(target, Message::LinkRequest { nonce });
        }
    }

    pub(super) fn on_link_request(&mut self, from: Id, nonce: u64) {
        if from != self.id && self.long_in.len() < MAX_LONG_IN {
            if let Err(pos) = self.long_in.binary_search(&from) {
                self.long_in.insert(pos, from);
                self.known.insert(from);
            }
        }
        // Answer by membership: a link granted earlier is re-affirmed, not
        // rejected — the request is a retry whose accept was lost, and a
        // reject would make the requester drop a link this side keeps.
        let reply = if self.long_in.binary_search(&from).is_ok() {
            Message::LinkAccept { nonce }
        } else {
            Message::LinkReject { nonce }
        };
        self.send(from, reply);
    }

    pub(super) fn on_link_accept(&mut self, from: Id) {
        self.ops.clear(OpKind::Link, from.raw());
        self.known.insert(from);
        if self.long_out.len() < MAX_LONG_OUT {
            if let Err(pos) = self.long_out.binary_search(&from) {
                self.long_out.insert(pos, from);
            }
        }
        // Not installed means no room (a duplicated accept finds the link
        // in place): give the accepted slot back.
        if self.long_out.binary_search(&from).is_err() {
            self.send(from, Message::Unlink);
        }
    }

    /// Drops both directions of any long link with `peer`.
    pub(super) fn unlink(&mut self, peer: Id) {
        self.long_in.retain(|x| x != peer);
        self.long_out.retain(|x| x != peer);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{machines, Pump};
    use super::super::{PeerConfig, PeerMachine};
    use crate::message::{Command, Message, Outbound};
    use oscar_types::{Id, SeedTree};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn the_stack_table_is_the_sorted_deduplicated_neighbour_list(
            me: u64,
            links in prop::collection::vec((0u8..4, 0u64..48), 0..32),
        ) {
            // Ids cluster around `me`, so a peer listed in several tables
            // and the machine's own id among its links both occur; each
            // table takes entries up to its cap.
            let near = |offset: u64| Id::new(me.wrapping_add(offset).wrapping_sub(24));
            let mut m = PeerMachine::new(Id::new(me), 1, PeerConfig::default());
            for (table, offset) in links {
                match table {
                    0 => m.pred = near(offset),
                    1 => _ = m.succs.push(near(offset)),
                    2 => _ = m.long_out.push(near(offset)),
                    _ => _ = m.long_in.push(near(offset)),
                }
            }
            // The table a walk step draws `table[k]` from, as first written.
            let mut model = [&[m.pred][..], &m.succs, &m.long_out, &m.long_in].concat();
            model.sort_unstable();
            model.dedup();
            model.retain(|&x| x != m.id);
            prop_assert_eq!(&m.neighbor_table()[..], &model[..]);
            prop_assert_eq!(m.neighbors(), model);
        }
    }

    #[test]
    fn walks_settle_and_install_links() {
        let ids = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let mut pump = Pump::new(machines(&ids));
        let contact = Id::new(10);
        for &i in &ids[1..] {
            pump.command(Id::new(i), Command::Join { contact });
        }
        for &i in &ids {
            pump.command(Id::new(i), Command::BuildLinks { walks: 3 });
        }
        // The batch settled: every out-link is mirrored by the target's
        // in-link, and no walk or link request is still pending.
        let snapshot: Vec<(Id, Vec<Id>)> = pump
            .peers
            .values()
            .map(|m| (m.id(), m.long_out().to_vec()))
            .collect();
        let mut total = 0;
        for (id, outs) in snapshot {
            for t in outs {
                total += 1;
                assert!(
                    pump.peers[&t].long_in().contains(&id),
                    "{t:?} missing in-link from {id:?}"
                );
            }
        }
        assert!(total > 0, "no long links formed");
        for m in pump.peers.values() {
            assert_eq!(
                m.next_deadline(),
                None,
                "{:?}: walk batch never settled",
                m.id()
            );
        }
    }

    #[test]
    fn duplicated_walk_probe_does_not_double_advance() {
        let ids = [10u64, 20, 30, 40];
        let mut pump = Pump::new(machines(&ids));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(10),
                },
            );
        }
        let mut rng = SeedTree::new(4).rng();
        let origin = Id::new(10);
        let outs = pump
            .peers
            .get_mut(&origin)
            .unwrap()
            .on_command(Command::BuildLinks { walks: 1 }, &mut rng);
        assert_eq!(outs.len(), 1);
        let Outbound { to, msg } = outs[0].clone();
        assert!(matches!(msg, Message::WalkProbe(_)));
        let first = pump
            .peers
            .get_mut(&to)
            .unwrap()
            .on_message(origin, msg.clone(), &mut rng);
        assert!(!first.is_empty(), "first probe must advance or reject");
        let second = pump
            .peers
            .get_mut(&to)
            .unwrap()
            .on_message(origin, msg, &mut rng);
        assert!(second.is_empty(), "duplicated probe must be suppressed");
    }

    #[test]
    fn rewire_dissolves_and_rebuilds_long_links() {
        let ids = [10u64, 20, 30, 40, 50, 60];
        let mut pump = Pump::new(machines(&ids));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(10),
                },
            );
        }
        pump.command(Id::new(10), Command::BuildLinks { walks: 2 });
        let before = pump.peers[&Id::new(10)].long_out().to_vec();
        pump.command(Id::new(10), Command::Rewire { walks: 2 });
        let after = pump.peers[&Id::new(10)].long_out().to_vec();
        // Old partners must have dropped the in-link unless re-chosen.
        for t in before {
            if !after.contains(&t) {
                assert!(!pump.peers[&t].long_in().contains(&Id::new(10)));
            }
        }
    }
}
