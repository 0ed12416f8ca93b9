//! The fault sweep's DES cells are pure functions of the seed — every
//! retry decision flows from token streams and the content-keyed fault
//! plan — so their headlines are pinned here as exact values. A change
//! that moves them changed the protocol's robustness, not the weather.

use oscar_bench::storm::run_fault_sweep;
use oscar_bench::Scale;

#[test]
fn des_headlines_are_pinned_at_n300_seed42() {
    let queries = 300 * 2;
    let sweep = run_fault_sweep(&Scale::small(300, 42), 2);
    assert_eq!(sweep.cells.len(), 8 + 4, "8 DES cells then 4 runtime cells");
    assert_eq!(sweep.steady_delivery_pct(), 100.0);
    assert_eq!(sweep.retry_amplification(), 1.0 + 245.0 / queries as f64);
    // The one DES cell where delivery moves: 10% loss, 3 ticks of jitter.
    let worst = &sweep.cells[7];
    assert_eq!((worst.driver, worst.loss_pct, worst.jitter), ("des", 10, 3));
    assert_eq!(worst.delivery_pct, 599.0 / queries as f64 * 100.0);
    assert_eq!(worst.gave_up, 1);
    // Nearest-rank p95 of delivered cost, jitter 0 then 3, loss 0/2/5/10.
    let p95: Vec<u64> = sweep.cells[..8].iter().map(|c| c.p95_cost).collect();
    assert_eq!(p95, [9, 8, 8, 8, 9, 8, 8, 8]);
    assert_eq!(
        sweep.faults(),
        0,
        "injected loss must never trip a machine invariant"
    );
}
