//! Helpers the root test suites share.

use oscar::protocol::{Command, PeerMachine, ProtocolDriver};
use oscar::types::Id;

/// Spawns `ids[0]` and joins every other id through it, one at a time:
/// spawn, `Join`, `settle(0)`. Each join must have put its peer on the
/// ring, which is read off the machine, so every event stays for
/// `drain_events`.
pub fn join_all<D: ProtocolDriver>(driver: &mut D, ids: &[Id]) {
    driver.spawn_peer(ids[0]);
    for &joiner in &ids[1..] {
        driver.spawn_peer(joiner);
        driver.inject(joiner, Command::Join { contact: ids[0] });
        driver.settle(0);
        let joined = driver.with_peer(joiner, PeerMachine::joined);
        assert_eq!(joined, Some(true), "the join of {joiner:?}");
    }
}
