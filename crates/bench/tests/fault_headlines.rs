//! The fault sweep's DES cells are pure functions of the seed — every
//! retry decision flows from token streams and the content-keyed fault
//! plan — so their headlines are pinned here as exact values. A change
//! that moves them changed the protocol's robustness, not the weather.
//!
//! Pinned on one join-grown fleet per sweep (ROADMAP item 18(b)): every
//! cell storms clones of the same machines.

use oscar_bench::storm::{run_fault_sweep, FaultCell};
use oscar_bench::Scale;

#[test]
fn des_headlines_are_pinned_at_n300_seed42() {
    let queries = 300 * 2;
    let sweep = run_fault_sweep(&Scale::small(300, 42), 2).unwrap();
    assert_eq!(sweep.cells.len(), 8 + 4, "8 DES cells then 4 runtime cells");
    assert_eq!(sweep.steady_delivery_pct(), 100.0);
    assert_eq!(sweep.retry_amplification(), 1.0 + 247.0 / queries as f64);
    // The one DES cell where delivery moves: 10% loss, 3 ticks of jitter.
    let worst = &sweep.cells[7];
    assert_eq!((worst.driver, worst.loss_pct, worst.jitter), ("des", 10, 3));
    assert_eq!(worst.delivery_pct, 599.0 / queries as f64 * 100.0);
    assert_eq!(worst.gave_up, 1);
    // Nearest-rank p95 of delivered cost, jitter 0 then 3, loss 0/2/5/10.
    let p95: Vec<u64> = sweep.cells[..8].iter().map(|c| c.p95_cost).collect();
    assert_eq!(p95, [8; 8]);
    assert_eq!(
        sweep.faults(),
        0,
        "injected loss must never trip a machine invariant"
    );
}

/// Both drivers storm clones of one fleet, and a reliable storm reads no
/// link table that anything is still writing, so the runtime's loss-0
/// cell is the DES's (loss 0, jitter 0) cell whatever the scheduling.
#[test]
fn reliable_storm_is_the_same_on_both_drivers() {
    let sweep = run_fault_sweep(&Scale::small(300, 42), 2).unwrap();
    let (des, rt) = (&sweep.cells[0], &sweep.cells[8]);
    assert_eq!((des.driver, des.loss_pct, des.jitter), ("des", 0, 0));
    assert_eq!((rt.driver, rt.loss_pct), ("runtime", 0));
    let row = |c: &FaultCell| {
        (
            c.delivery_pct,
            c.retries_per_query,
            c.p95_cost,
            c.gave_up,
            c.rounds,
        )
    };
    assert_eq!(row(rt), row(des));
}
