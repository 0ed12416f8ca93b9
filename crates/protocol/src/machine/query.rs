//! Greedy clockwise routing: queries issued, forwarded, backtracked and
//! reported. Join requests ride the same next-hop ranking.

use super::tables::Op;
use super::{PeerMachine, RepairPolicy};
use crate::logic;
use crate::message::{Message, OpKind, ProtocolEvent, QueryReport, RepairTrigger};
use crate::token::QueryToken;
use oscar_types::Id;

impl PeerMachine {
    pub(super) fn start_query(&mut self, qid: u64, key: Id) {
        if !self.ops.has(OpKind::Query, qid) {
            self.ops.arm(Op::Query { qid, key });
        }
        self.issue_query(qid, key, 0);
    }

    /// Issue `attempt` of this peer's own query `qid`: a fresh token,
    /// advanced from here.
    pub(super) fn issue_query(&mut self, qid: u64, key: Id, attempt: u32) {
        let mut token = Box::new(QueryToken::new(qid, self.id, key, self.cfg.query_budget));
        token.attempt = attempt;
        self.process_query(token);
    }

    /// A query forward to `to` bounced: the probe was charged when sent;
    /// undo the advance, record the corpse, and try the next candidate
    /// from here.
    pub(super) fn on_query_bounce(&mut self, to: Id, mut token: Box<QueryToken>) {
        token.hops = token.hops.saturating_sub(1);
        token.stack.pop();
        token.mark_dead(to);
        token.wasted += 1;
        // On-probe repair: the bounce *is* the failure detector — the
        // prober rewires itself right where traffic found the damage.
        // Other policies leave detection to ring probes.
        if self.cfg.repair == RepairPolicy::OnProbe {
            self.declare_dead(to, RepairTrigger::QueryDetect);
        }
        self.process_query(token);
    }

    /// Advances a query token held at this peer: deliver, forward, or
    /// backtrack. Shares its progress ranking ([`logic::progress_toward`])
    /// and ownership test ([`logic::owns`]) with the simulator's router.
    pub(super) fn process_query(&mut self, mut token: Box<QueryToken>) {
        if logic::owns(self.pred, self.id, token.key) {
            return self.complete_query(&token, Some(self.id));
        }
        if let Some(next) = self.best_step_toward(token.key, |c| token.is_excluded(c)) {
            if token.budget == 0 {
                return self.complete_query(&token, None);
            }
            token.budget -= 1;
            token.hops += 1;
            token.stack.push(self.id);
            return self.send(next, Message::Query(token));
        }
        // Dead end: retreat along the forward path.
        token.mark_exhausted(self.id);
        token.backtracks += 1;
        token.wasted += 1;
        while let Some(prev) = token.stack.pop() {
            if token.is_excluded(prev) {
                continue;
            }
            if token.budget == 0 {
                break;
            }
            token.budget -= 1;
            return self.send(prev, Message::Query(token));
        }
        self.complete_query(&token, None)
    }

    /// The best next hop toward `key` from this peer's local tables: the
    /// neighbour with the smallest remaining clockwise distance, or the
    /// first successor whose arc covers the key (the final overshoot hop
    /// to the owner), skipping `exclude`d peers.
    ///
    /// Ranks the link tables as they lie, without building the canonical
    /// [`PeerMachine::neighbors`] table: the remaining distance is
    /// injective in the candidate, so a peer listed twice can only tie
    /// with itself and the minimum is the sorted table's (this peer's own
    /// id, at distance `span`, never counts as progress).
    pub(super) fn best_step_toward(&self, key: Id, exclude: impl Fn(Id) -> bool) -> Option<Id> {
        let span = self.id.cw_dist(key);
        let best = [&[self.pred], &self.succs[..], &self.long_out, &self.long_in]
            .into_iter()
            .flatten()
            .copied()
            .filter(|&c| !exclude(c))
            .filter_map(|c| Some((logic::progress_toward(c, key, span)?, c)))
            .min_by_key(|&(p, _)| p);
        best.map(|(_, c)| c).or_else(|| {
            // No neighbour lies on (self, key]: the owner sits just past
            // the key — the nearest successor whose arc covers it.
            let covers = |s: Id| !exclude(s) && logic::owns(self.id, s, key);
            self.succs.iter().copied().find(|&s| covers(s))
        })
    }

    /// Ends the query here — at its owner `dest`, or failed — and reports
    /// to the origin.
    fn complete_query(&mut self, token: &QueryToken, dest: Option<Id>) {
        let report = QueryReport {
            qid: token.qid,
            origin: token.origin,
            key: token.key,
            success: dest.is_some(),
            hops: token.hops,
            wasted: token.wasted,
            backtracks: token.backtracks,
            attempt: token.attempt,
            dest,
        };
        if token.origin == self.id {
            self.finish_query(report);
        } else {
            self.send(token.origin, Message::QueryDone(report));
        }
    }

    /// Records the outcome of this peer's own query. Gated on the pending
    /// entry: a late or duplicated report (or a duplicated token
    /// completing locally) for an already-completed query must not
    /// double-count.
    pub(super) fn finish_query(&mut self, report: QueryReport) {
        if self.ops.clear(OpKind::Query, report.qid) {
            self.events.push(ProtocolEvent::QueryCompleted(report));
        }
    }

    /// A query that exhausted its retries reports failure cleanly. Its
    /// pending entry is already gone, so the report is recorded directly.
    pub(super) fn fail_query(&mut self, qid: u64, key: Id, attempts: u32) {
        self.events.push(ProtocolEvent::QueryCompleted(QueryReport {
            qid,
            origin: self.id,
            key,
            success: false,
            hops: 0,
            wasted: 0,
            backtracks: 0,
            attempt: attempts,
            dest: None,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{machines, Pump};
    use super::super::{PeerConfig, PeerMachine};
    use crate::logic;
    use crate::message::{Command, OpKind, Outbound, ProtocolEvent};
    use oscar_types::{Id, SeedTree};
    use proptest::prelude::*;

    #[test]
    fn queries_resolve_to_ring_owners() {
        let ids = [100u64, 300, 500, 700, 900];
        let mut pump = Pump::new(machines(&ids));
        let contact = Id::new(100);
        for &i in &ids[1..] {
            pump.command(Id::new(i), Command::Join { contact });
        }
        // (key, owner): owner = first peer at-or-after the key, wrapping.
        let cases = [
            (150u64, 300u64),
            (300, 300),
            (901, 100),
            (50, 100),
            (699, 700),
        ];
        for (qid, (key, owner)) in cases.iter().enumerate() {
            let origin = Id::new(500);
            pump.command(
                origin,
                Command::StartQuery {
                    qid: qid as u64,
                    key: Id::new(*key),
                },
            );
            let events = pump.peers.get_mut(&origin).unwrap().drain_events();
            let report = events
                .iter()
                .find_map(|e| match e {
                    ProtocolEvent::QueryCompleted(r) if r.qid == qid as u64 => Some(r.clone()),
                    _ => None,
                })
                .expect("query completed");
            assert!(report.success, "query {qid} failed");
            assert_eq!(report.dest, Some(Id::new(*owner)), "key {key}");
        }
    }

    #[test]
    fn self_owned_query_costs_nothing() {
        let ids = [100u64, 200];
        let mut pump = Pump::new(machines(&ids));
        pump.command(
            Id::new(200),
            Command::Join {
                contact: Id::new(100),
            },
        );
        let origin = Id::new(200);
        pump.command(
            origin,
            Command::StartQuery {
                qid: 9,
                key: Id::new(150),
            },
        );
        let events = pump.peers.get_mut(&origin).unwrap().drain_events();
        let r = events
            .iter()
            .find_map(|e| match e {
                ProtocolEvent::QueryCompleted(r) => Some(r.clone()),
                _ => None,
            })
            .expect("completed");
        assert!(r.success);
        assert_eq!(r.hops, 0);
        assert_eq!(r.cost(), 0);
    }

    #[test]
    fn dead_destination_querying_backtracks_or_fails_cleanly() {
        // Build a 4-ring, then delete a machine outright; queries routed
        // through the hole must still terminate with a report.
        let ids = [100u64, 200, 300, 400];
        let mut pump = Pump::new(machines(&ids));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(100),
                },
            );
        }
        pump.peers.remove(&Id::new(300));
        let origin = Id::new(100);
        pump.command(
            origin,
            Command::StartQuery {
                qid: 1,
                key: Id::new(250),
            },
        );
        let events = pump.peers.get_mut(&origin).unwrap().drain_events();
        let r = events
            .iter()
            .find_map(|e| match e {
                ProtocolEvent::QueryCompleted(r) => Some(r.clone()),
                _ => None,
            })
            .expect("query must terminate despite the corpse");
        assert!(r.wasted > 0, "corpse probe must be charged");
    }

    #[test]
    fn duplicated_query_envelope_is_suppressed() {
        let ids = [100u64, 300, 500, 700];
        let mut pump = Pump::new(machines(&ids));
        for &i in &ids[1..] {
            pump.command(
                Id::new(i),
                Command::Join {
                    contact: Id::new(100),
                },
            );
        }
        // Issue a query by hand so its first-hop envelope can be replayed.
        let mut rng = SeedTree::new(2).rng();
        let origin = Id::new(100);
        let outs = pump.peers.get_mut(&origin).unwrap().on_command(
            Command::StartQuery {
                qid: 7,
                key: Id::new(650),
            },
            &mut rng,
        );
        assert_eq!(outs.len(), 1);
        let Outbound { to, msg } = outs[0].clone();
        let first = pump
            .peers
            .get_mut(&to)
            .unwrap()
            .on_message(origin, msg.clone(), &mut rng);
        assert!(!first.is_empty(), "first delivery must advance the query");
        let second = pump
            .peers
            .get_mut(&to)
            .unwrap()
            .on_message(origin, msg, &mut rng);
        assert!(second.is_empty(), "duplicated delivery must be suppressed");
    }

    #[test]
    fn query_timeout_retries_then_gives_up_cleanly() {
        // A bootstrapped peer whose only neighbour never answers (we drop
        // every send on the floor): only the timer path can finish the
        // query — via retries, then a graceful failure report.
        let mut m = PeerMachine::new(Id::new(100), 1, PeerConfig::default());
        let mut rng = SeedTree::new(3).rng();
        m.on_command(
            Command::Bootstrap {
                pred: Id::new(900),
                succs: vec![Id::new(900)],
                known: vec![Id::new(900)],
            },
            &mut rng,
        );
        let outs = m.on_command(
            Command::StartQuery {
                qid: 1,
                key: Id::new(500),
            },
            &mut rng,
        );
        assert!(!outs.is_empty(), "the probe must leave the origin");
        let mut now = 0;
        for _ in 0..64 {
            let Some(d) = m.next_deadline() else { break };
            now = now.max(d);
            m.on_command(Command::TimerTick { now }, &mut rng);
        }
        assert!(
            m.next_deadline().is_none(),
            "query must not stay pending forever"
        );
        let events = m.drain_events();
        let retried = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ProtocolEvent::Retried {
                        op: OpKind::Query,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(retried, PeerConfig::default().max_retries as usize);
        assert!(events.iter().any(|e| matches!(
            e,
            ProtocolEvent::GaveUp {
                op: OpKind::Query,
                ..
            }
        )));
        let report = events
            .iter()
            .find_map(|e| match e {
                ProtocolEvent::QueryCompleted(r) => Some(r.clone()),
                _ => None,
            })
            .expect("gave-up query must still complete");
        assert!(!report.success);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ProtocolEvent::Fault { .. })),
            "graceful degradation must not raise Fault"
        );
    }

    /// `best_step_toward` as it was first written: rank the canonical
    /// sorted, de-duplicated neighbour table.
    fn sorted_table_step(m: &PeerMachine, key: Id, exclude: impl Fn(Id) -> bool) -> Option<Id> {
        let span = m.id.cw_dist(key);
        let best = m
            .neighbors()
            .into_iter()
            .filter(|&c| !exclude(c))
            .filter_map(|c| Some((logic::progress_toward(c, key, span)?, c)))
            .min_by_key(|&(p, _)| p);
        best.map(|(_, c)| c).or_else(|| {
            let covers = |s: Id| !exclude(s) && logic::owns(m.id, s, key);
            m.succs.iter().copied().find(|&s| covers(s))
        })
    }

    proptest! {
        #[test]
        fn best_step_ranks_the_tables_as_they_lie_like_the_sorted_one(
            me: u64,
            links in prop::collection::vec((0u8..4, 0u64..48), 0..24),
            excluded in prop::collection::vec(0u64..48, 0..8),
            far_key: bool,
            key: u64,
        ) {
            // Ids cluster around `me` on both sides of the wrap, so a peer
            // listed in several tables, the machine's own id among its
            // links and excluded best candidates all occur.
            let near = |offset: u64| Id::new(me.wrapping_add(offset).wrapping_sub(24));
            let mut m = PeerMachine::new(Id::new(me), 1, PeerConfig::default());
            for (table, offset) in links {
                match table {
                    0 => m.pred = near(offset),
                    1 => m.succs.push(near(offset)),
                    2 => m.long_out.push(near(offset)),
                    _ => m.long_in.push(near(offset)),
                }
            }
            let excluded: Vec<Id> = excluded.into_iter().map(near).collect();
            let exclude = |c: Id| excluded.contains(&c);
            let key = if far_key { Id::new(key) } else { near(key % 64) };
            prop_assert_eq!(
                m.best_step_toward(key, exclude),
                sorted_table_step(&m, key, exclude)
            );
        }
    }
}
