//! Failure detection and ring repair: probe rounds, the dead-neighbour
//! verdict and what it triggers, stabilisation ride-alongs on pings and
//! pongs, and graceful departure.

use super::join::SUCC_LEN;
use super::tables::{Bounded, Op};
use super::{PeerMachine, RepairPolicy};
use crate::logic;
use crate::message::{Message, OpKind, ProtocolEvent, RepairTrigger};
use oscar_types::{mix64, Id};

/// Fresh MH walks launched by a policy-triggered rewire.
const REPAIR_WALKS: u32 = 3;

/// Bound on the per-peer suspect list (declared-dead neighbours).
pub(super) const SUSPECT_CAP: usize = 32;

impl PeerMachine {
    /// The ring neighbours maintenance talks to: the predecessor, then
    /// the leading `depth` successors, distinct.
    fn ring_targets(&self, depth: usize) -> Bounded<{ 1 + SUCC_LEN }> {
        // Never full: one predecessor and at most `SUCC_LEN` successors.
        let mut targets = Bounded::new();
        if self.pred != self.id {
            targets.push(self.pred);
        }
        for &s in self.succs.iter().take(depth) {
            if s != self.id && !targets.contains(&s) {
                targets.push(s);
            }
        }
        targets
    }

    /// One ring-probe round: ping the predecessor and the leading
    /// successors (depth `k` under [`RepairPolicy::ReactiveK`], 1
    /// otherwise). Targets with a probe still pending are skipped — the
    /// in-flight verdict stands. The driver owns the cadence; the machine
    /// owns the verdict.
    pub(super) fn probe_ring(&mut self) {
        self.probe_epoch += 1;
        let depth = match self.cfg.repair {
            RepairPolicy::ReactiveK { k } => k.max(1),
            _ => 1,
        };
        for &target in self.ring_targets(depth).iter() {
            if self.ops.has(OpKind::Probe, target.raw()) {
                continue;
            }
            // Nonce salted by the probe epoch: the same edge rolls fresh
            // fault dice every round (and keys a fresh retry stream).
            let nonce_base = mix64(mix64(self.seed ^ target.raw()) ^ self.probe_epoch);
            self.ops.arm(Op::Probe { target, nonce_base });
            self.send(target, Message::Ping { nonce: nonce_base });
        }
    }

    pub(super) fn on_ping(&mut self, from: Id, nonce: u64) {
        self.known.insert(from);
        // Chord-notify ride-along: the peer whose successor head is me
        // pings me every probe round, so a lost Leaving or PredUpdate
        // still converges at probe cadence.
        self.maybe_adopt_pred(from);
        let succs = self.welcome_succs();
        self.send(from, Message::Pong { nonce, succs });
    }

    pub(super) fn on_pong(&mut self, from: Id, succs: &[Id]) {
        self.ops.clear(OpKind::Probe, from.raw());
        self.known.insert(from);
        // Stabilisation ride-along: merge the responder's successor list
        // into ours (suspects and self excluded), keeping the
        // clockwise-nearest `SUCC_LEN`.
        self.merge_succs(succs);
    }

    /// Graceful departure: announce the hand-over to ring neighbours,
    /// dissolve long links both ways, cancel every pending operation and
    /// go quiet. The driver removes the actor once the farewells flush.
    pub(super) fn depart(&mut self) {
        let farewell = Message::Leaving {
            pred: self.pred,
            succs: self.succs.to_vec(),
        };
        for &t in self.ring_targets(usize::MAX).iter() {
            self.send(t, farewell.clone());
        }
        let (long_out, long_in) = (
            std::mem::take(&mut self.long_out),
            std::mem::take(&mut self.long_in),
        );
        for &t in long_out.iter().chain(long_in.iter()) {
            self.send(t, Message::Unlink);
        }
        self.ops.cancel_all();
        self.batch = None;
        self.joined = false;
    }

    /// A neighbour's graceful splice: purge the leaver, adopt its
    /// hand-over.
    pub(super) fn on_leaving(&mut self, from: Id, pred: Id, mut succs: Vec<Id>) {
        let was_head = self.forget(from);
        if self.pred == from {
            // The leaver's predecessor is now ours (ourselves when the
            // leaver knew no one else — a two-peer ring).
            self.pred = if pred == from { self.id } else { pred };
        }
        succs.retain(|&s| s != from);
        self.merge_succs(&succs);
        if was_head {
            // The leaver sat between me and my new successor head: claim
            // the predecessor slot it vacated (the receiver's guard
            // rejects the claim if someone closer exists).
            self.claim_pred_slot();
        }
    }

    /// The failure detector's verdict on `dead`: purge it from every
    /// table, re-stitch the ring (claim the vacated predecessor slot of
    /// the next successor), and — when the policy and detection channel
    /// agree — rewire long links with fresh walks.
    ///
    /// The predecessor pointer is *not* reset to `self` when the corpse
    /// was our predecessor: that would claim the whole remaining arc. It
    /// dangles until the corpse's own predecessor claims the slot (its
    /// `PredUpdate`, or its pings once the suspect gate opens).
    pub(super) fn declare_dead(&mut self, dead: Id, trigger: RepairTrigger) {
        if dead == self.id {
            return;
        }
        self.ops.clear(OpKind::Probe, dead.raw());
        self.suspects.insert(dead);
        // The dangling out-link is just gone either way — the corpse can
        // never unlink back (mirrors simulator crashes).
        if self.forget(dead) {
            // My old head sat between me and the next one: claim its slot.
            self.claim_pred_slot();
        }
        let rewire = matches!(
            (self.cfg.repair, trigger),
            (RepairPolicy::ReactiveK { .. }, RepairTrigger::RingDetect)
                | (RepairPolicy::OnProbe, RepairTrigger::QueryDetect)
        );
        if rewire {
            self.events.push(ProtocolEvent::RepairFired {
                peer: self.id,
                dead,
                trigger,
                walks: REPAIR_WALKS,
            });
            self.rewire(REPAIR_WALKS);
        }
    }

    /// Purges `gone` from the link tables, the view and the successor
    /// list; true iff it was the successor head.
    fn forget(&mut self, gone: Id) -> bool {
        self.unlink(gone);
        self.known.remove(gone);
        let was_head = self.succs.first() == Some(&gone);
        self.succs.retain(|x| x != gone);
        was_head
    }

    /// Tells the successor head that this peer is now its predecessor.
    fn claim_pred_slot(&mut self) {
        if let Some(&head) = self.succs.first() {
            self.send(head, Message::PredUpdate);
        }
    }

    /// Merges a received successor list into ours: suspects, self and
    /// duplicates excluded, clockwise-nearest `SUCC_LEN` kept, sorted by
    /// clockwise distance. Each new entry goes in at its place, shedding
    /// the farthest from a full list. A list a welcome installed is taken
    /// as given and may be out of order (the welcomer's predecessor
    /// pointer can be stale under churn): the first new entry sorts it.
    fn merge_succs(&mut self, incoming: &[Id]) {
        let me = self.id;
        let mut sorted = false;
        for &s in incoming {
            self.known.insert(s);
            if s == me || self.succs.contains(&s) || self.suspects.binary_search(&s).is_ok() {
                continue;
            }
            if !sorted {
                self.succs.sort_by_key(|&x| me.cw_dist(x));
                sorted = true;
            }
            let pos = self
                .succs
                .partition_point(|&x| me.cw_dist(x) < me.cw_dist(s));
            self.succs.insert(pos, s);
        }
        debug_assert!(
            !sorted
                || self
                    .succs
                    .windows(2)
                    .all(|w| me.cw_dist(w[0]) <= me.cw_dist(w[1])),
            "successor list of {me:?} out of clockwise order after a merge: {:?}",
            self.succs
        );
    }

    /// Guarded predecessor adoption (the `PredUpdate` rule): accept
    /// `from` when it is strictly closer than the current predecessor, or
    /// when the current predecessor has been declared dead. Shared by
    /// `PredUpdate` and `Ping` (Chord-notify style), so ring re-stitching
    /// converges to the closest live claimant in any delivery order.
    pub(super) fn maybe_adopt_pred(&mut self, from: Id) {
        if from == self.id || from == self.pred {
            return;
        }
        let closer = self.pred == self.id || logic::owns(self.pred, self.id, from);
        if closer || self.suspects.binary_search(&self.pred).is_ok() {
            self.pred = from;
            self.known.insert(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{machines, machines_with, Pump};
    use super::super::{PeerConfig, PeerMachine, RepairPolicy};
    use crate::message::{Command, ProtocolEvent};
    use oscar_types::{Id, SeedTree};

    #[test]
    fn crashed_neighbor_is_detected_and_ring_restitched() {
        let ids = [10u64, 20, 30, 40, 50, 60];
        let cfg = PeerConfig {
            repair: RepairPolicy::ReactiveK { k: 2 },
            ..PeerConfig::default()
        };
        let mut pump = Pump::new(machines_with(&ids, cfg));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(10),
                },
            );
        }
        pump.peers.remove(&Id::new(40)); // crash
                                         // Several probe rounds: the first detects the corpse everywhere it
                                         // is probed (bounced pings are instant verdicts); the following
                                         // rounds let pong successor-merges fill the sparse join-time succ
                                         // lists and the predecessor's pings re-stitch the pred pointers
                                         // (Chord-style stabilisation converges at probe cadence).
        for _ in 0..4 {
            for &i in &ids {
                if i != 40 {
                    pump.command(Id::new(i), Command::ProbeRing);
                }
            }
        }
        assert_eq!(pump.peers[&Id::new(30)].succs()[0], Id::new(50));
        assert_eq!(pump.peers[&Id::new(50)].pred(), Id::new(30));
        assert!(pump.peers[&Id::new(30)].suspects().contains(&Id::new(40)));
        let repaired = pump
            .peers
            .get_mut(&Id::new(30))
            .unwrap()
            .drain_events()
            .iter()
            .any(|e| {
                matches!(
                    e,
                    ProtocolEvent::RepairFired {
                        dead,
                        trigger: crate::message::RepairTrigger::RingDetect,
                        ..
                    } if *dead == Id::new(40)
                )
            });
        assert!(repaired, "the corpse's predecessor must fire a repair");
    }

    #[test]
    fn probe_timeout_declares_dead_without_a_bounce() {
        // A machine whose probes vanish into the void (no bounce, no
        // pong): only the timer table can convict. This is the blackhole
        // crash mode of the fault plan.
        let cfg = PeerConfig {
            repair: RepairPolicy::ReactiveK { k: 2 },
            ..PeerConfig::default()
        };
        let mut m = PeerMachine::new(Id::new(100), 1, cfg);
        let mut rng = SeedTree::new(3).rng();
        m.on_command(
            Command::Bootstrap {
                pred: Id::new(50),
                succs: vec![Id::new(200), Id::new(300)],
                known: vec![Id::new(200), Id::new(300)],
            },
            &mut rng,
        );
        let outs = m.on_command(Command::ProbeRing, &mut rng);
        assert_eq!(outs.len(), 3, "pred + k successors must be probed");
        let mut now = 0;
        for _ in 0..128 {
            let Some(d) = m.next_deadline() else { break };
            now = now.max(d);
            m.on_command(Command::TimerTick { now }, &mut rng);
        }
        assert!(m.suspects().contains(&Id::new(200)));
        assert!(!m.succs().contains(&Id::new(200)));
        let events = m.drain_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                ProtocolEvent::RepairFired {
                    trigger: crate::message::RepairTrigger::RingDetect,
                    ..
                }
            )),
            "drained probe budget must fire a repair"
        );
    }

    #[test]
    fn graceful_departure_splices_without_detection() {
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
        pump.command(Id::new(40), Command::BuildLinks { walks: 2 });
        pump.command(Id::new(40), Command::Depart);
        pump.peers.remove(&Id::new(40));
        assert_eq!(pump.peers[&Id::new(30)].succs()[0], Id::new(50));
        assert_eq!(pump.peers[&Id::new(50)].pred(), Id::new(30));
        // The leaver's links dissolved both ways: no survivor still
        // references it.
        for m in pump.peers.values() {
            assert!(!m.long_out().contains(&Id::new(40)), "{:?}", m.id());
            assert!(!m.long_in().contains(&Id::new(40)), "{:?}", m.id());
            assert!(!m.succs().contains(&Id::new(40)), "{:?}", m.id());
            assert_ne!(m.pred(), Id::new(40), "{:?}", m.id());
        }
    }

    #[test]
    fn on_probe_repair_rewires_the_prober() {
        let ids = [100u64, 200, 300, 400];
        let cfg = PeerConfig {
            repair: RepairPolicy::OnProbe,
            ..PeerConfig::default()
        };
        let mut pump = Pump::new(machines_with(&ids, cfg));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(100),
                },
            );
        }
        pump.peers.remove(&Id::new(300));
        pump.command(
            Id::new(100),
            Command::StartQuery {
                qid: 1,
                key: Id::new(250),
            },
        );
        // Whichever peer forwarded into the corpse must have fired an
        // on-probe repair with the query-bounce trigger.
        let fired = pump.peers.values_mut().any(|m| {
            m.drain_events().iter().any(|e| {
                matches!(
                    e,
                    ProtocolEvent::RepairFired {
                        dead,
                        trigger: crate::message::RepairTrigger::QueryDetect,
                        ..
                    } if *dead == Id::new(300)
                )
            })
        });
        assert!(fired, "a query bounce must trigger the prober's rewire");
    }
}
