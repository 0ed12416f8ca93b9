//! The bounded membership view and the gossip that spreads it — the one
//! activity that draws from the driver-supplied RNG, outside the
//! deterministic core.

use super::PeerMachine;
use crate::message::Message;
use oscar_types::Id;
use rand::RngCore;

/// Peers contacted per gossip round.
const GOSSIP_FANOUT: usize = 2;

/// View entries shipped per gossip message (this peer included).
const GOSSIP_SAMPLE: usize = 8;

/// Bound on the membership view.
pub(super) const VIEW_CAP: usize = 128;

impl PeerMachine {
    /// Up to `want` distinct view entries, uniformly: a partial
    /// Fisher–Yates over the view's indices.
    fn pick_known(&self, want: usize, rng: &mut dyn RngCore) -> Vec<Id> {
        let want = want.min(self.known.len());
        let mut idxs: Vec<usize> = (0..self.known.len()).collect();
        for i in 0..want {
            #[expect(
                clippy::disallowed_methods,
                reason = "gossip is the one driver-RNG activity by design — it never feeds a measured artifact"
            )]
            let j = i + (rng.next_u64() as usize) % (idxs.len() - i);
            idxs.swap(i, j);
        }
        idxs[..want].iter().map(|&i| self.known[i]).collect()
    }

    pub(super) fn gossip_round(&mut self, rng: &mut dyn RngCore) {
        let targets = self.pick_known(GOSSIP_FANOUT, rng);
        let view = self.view_sample(rng);
        for t in targets {
            self.send(t, Message::GossipPush { view: view.clone() });
        }
    }

    /// A bounded sample of the view (always includes this peer).
    pub(super) fn view_sample(&self, rng: &mut dyn RngCore) -> Vec<Id> {
        let mut view = vec![self.id];
        view.extend(self.pick_known(GOSSIP_SAMPLE - 1, rng));
        view
    }

    /// Folds a received gossip view, and its sender, into ours.
    pub(super) fn absorb_view(&mut self, from: Id, view: Vec<Id>) {
        for p in view {
            self.known.insert(p);
        }
        self.known.insert(from);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{machines, Pump};
    use crate::message::Command;
    use oscar_types::Id;

    #[test]
    fn gossip_spreads_membership() {
        let ids = [1u64, 2, 3, 4, 5, 6];
        let mut pump = Pump::new(machines(&ids));
        let contact = Id::new(1);
        for &i in &ids[1..] {
            pump.command(Id::new(i), Command::Join { contact });
        }
        for _ in 0..6 {
            for &i in &ids {
                pump.command(Id::new(i), Command::GossipTick);
            }
        }
        for m in pump.peers.values() {
            assert!(
                m.known().len() >= ids.len() - 2,
                "{:?} knows only {:?}",
                m.id(),
                m.known()
            );
        }
    }
}
