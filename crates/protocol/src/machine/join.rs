//! Joining the ring: the joiner's request and welcome, the owner's
//! splice, and the greedy routing of requests in between.

use super::tables::{Bounded, Op};
use super::PeerMachine;
use crate::logic;
use crate::message::{Message, OpKind};
use oscar_types::Id;

/// Successor-list length (ring resilience).
pub(super) const SUCC_LEN: usize = 8;

/// Splice-memory depth: how many recent joiners an owner can re-welcome.
pub(super) const SPLICE_MEMORY: usize = 4;

/// Bound on the forwarded-join memory. Joins in flight through one peer
/// at once are few; the memory only has to outlive one routing cycle.
pub(super) const JOIN_FORWARD_MEMORY: usize = 64;

impl PeerMachine {
    /// Takes a ring position as given: `Command::Bootstrap` hands one
    /// over, a welcome carries one.
    pub(super) fn enter_ring(&mut self, pred: Id, succs: Vec<Id>) {
        self.pred = pred;
        self.succs = Bounded::from_slice(&succs);
        self.joined = true;
    }

    pub(super) fn start_join(&mut self, contact: Id) {
        if self.joined {
            return;
        }
        self.known.insert(contact);
        if !self.ops.has(OpKind::Join, 0) {
            self.ops.arm(Op::Join { contact });
        }
        self.join_request(contact, 0);
    }

    /// Issue `attempt` of this peer's own join, unless a welcome (or a
    /// splice it served) already put it on the ring.
    pub(super) fn join_request(&mut self, contact: Id, attempt: u32) {
        if !self.joined {
            let joiner = self.id;
            self.send(contact, Message::JoinRequest { joiner, attempt });
        }
    }

    pub(super) fn on_join_welcome(&mut self, pred: Id, succs: Vec<Id>) {
        if self.joined {
            // A duplicated or retried welcome; the first one won.
            return;
        }
        self.ops.clear(OpKind::Join, 0);
        self.enter_ring(pred, succs);
        for &s in self.succs.iter() {
            self.known.insert(s);
        }
        self.known.insert(pred);
        if pred != self.id {
            self.send(pred, Message::NewSuccessor { succ: self.id });
        }
    }

    pub(super) fn on_new_successor(&mut self, succ: Id) {
        self.known.insert(succ);
        let dist = |p: Id| self.id.cw_dist(p);
        let closer = self
            .succs
            .first()
            .is_none_or(|&s0| succ != s0 && dist(succ) < dist(s0));
        if closer && succ != self.id {
            self.succs.insert(0, succ);
        }
    }

    pub(super) fn on_join_request(&mut self, joiner: Id, attempt: u32) {
        if joiner == self.id {
            // A retried request routed all the way back to its issuer
            // (possible once the splice is installed); self-splicing
            // would corrupt the ring.
            return;
        }
        if logic::owns(self.pred, self.id, joiner) {
            // Splice: the joiner takes over the head of my arc. Serving a
            // splice also makes a solo bootstrap peer part of the overlay.
            let old_pred = self.pred;
            self.pred = joiner;
            self.joined = true;
            self.known.insert(joiner);
            self.recent_splices.push((joiner, old_pred));
            self.welcome(joiner, old_pred, attempt);
            return;
        }
        if joiner == self.pred {
            // Already spliced — a duplicated or retried request whose
            // original welcome may have been lost. Reconstruct it from
            // the splice memory; a joiner that did receive the original
            // ignores the repeat (welcomes are idempotent).
            let served = self.recent_splices.iter().rev().find(|s| s.0 == joiner);
            if let Some(&(_, old_pred)) = served {
                self.welcome(joiner, old_pred, attempt);
            }
            return;
        }
        // Routing-loop suppression. While the ring converges after a
        // nearby splice, the owner-delivery hop (a successor-list jump)
        // can land at a peer whose pred has already moved past the
        // joiner; that peer re-greedies the request, which circles the
        // whole ring back to the same jump — forever, since joins carry
        // no hop budget. Seeing the same `(joiner, attempt)` twice is
        // exactly that cycle: drop the request and let the joiner's
        // retry timer redrive the join against the converged ring.
        if self.forwarded_joins.contains(&(joiner, attempt)) {
            return;
        }
        // No next hop is unreachable on a consistent ring; drop rather
        // than loop.
        if let Some(next) = self.best_step_toward(joiner, |_| false) {
            self.forwarded_joins.push((joiner, attempt));
            self.send(next, Message::JoinRequest { joiner, attempt });
        }
    }

    fn welcome(&mut self, joiner: Id, old_pred: Id, attempt: u32) {
        let welcome = Message::JoinWelcome {
            pred: old_pred,
            succs: self.welcome_succs(),
            attempt,
        };
        self.send(joiner, welcome);
    }

    /// The successor list shipped in a welcome (and a pong): this peer,
    /// then its own successors, truncated.
    pub(super) fn welcome_succs(&self) -> Vec<Id> {
        let mut succs = Vec::with_capacity(SUCC_LEN);
        succs.push(self.id);
        succs.extend_from_slice(&self.succs);
        succs.truncate(SUCC_LEN);
        succs
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{machines, Pump};
    use crate::message::Command;
    use oscar_types::Id;

    #[test]
    fn serial_joins_build_a_consistent_ring() {
        let ids = [100u64, 900, 300, 700, 500, 42, 650];
        let mut pump = Pump::new(machines(&ids));
        let contact = Id::new(ids[0]);
        for &i in &ids[1..] {
            pump.command(Id::new(i), Command::Join { contact });
        }
        // Ring must be exactly the sorted id cycle.
        let mut sorted: Vec<Id> = ids.iter().map(|&i| Id::new(i)).collect();
        sorted.sort_unstable();
        for (k, &id) in sorted.iter().enumerate() {
            let m = &pump.peers[&id];
            let succ = sorted[(k + 1) % sorted.len()];
            let pred = sorted[(k + sorted.len() - 1) % sorted.len()];
            assert_eq!(m.succs()[0], succ, "succ of {id:?}");
            assert_eq!(m.pred(), pred, "pred of {id:?}");
            assert!(m.joined());
        }
    }
}
