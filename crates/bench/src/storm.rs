//! Query storms over a join-grown [`PeerMachine`] fleet: the fault sweep.
//!
//! [`run_fault_sweep`] grows one fleet with [`grow_fleet`] — serial joins,
//! then one link build per peer — on a reliable DES, and hands every cell
//! clones of those machines. A cell then fires queries from all peers at
//! once: every cell of loss {0, 2, 5, 10}% × jitter {0, 3 ticks} on the
//! virtual-time DES, plus the loss axis on the runtime (which collapses
//! delay jitter by design — mailboxes are FIFO), under a blackholing
//! [`FaultPlan`] with duplication at half the loss rate, and asks whether
//! the timeout/retry machines still deliver — and at what retry cost. Its
//! loss=0 runtime cell is the reliable storm: every query terminates
//! exactly once, with no machine fault, and it equals the DES's loss=0
//! cell.
//!
//! [`PeerMachine`]: oscar_protocol::PeerMachine

use crate::json::Object;
use crate::registry::{gate_machine_faults, RunResult};
use crate::scale::Scale;
use oscar_protocol::{
    Command, FaultPlan, OpKind, PeerConfig, PeerMachine, ProtocolDriver, ProtocolEvent,
    QueryReport, Rounds,
};
use oscar_runtime::{Runtime, RuntimeConfig};
use oscar_sim::{grow_fleet, DesDriver, QueryBatchStats};
use oscar_types::labels::bench_storm::{LBL_IDS, LBL_KEYS};
use oscar_types::{Id, Result, SeedTree};
use rand::Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// Round budget for each settle phase; the retry state machine converges
/// in `max_retries + 1` rounds per op, so this is generous headroom.
const SETTLE_ROUNDS: u64 = 200;

/// Every peer fires `per_peer` queries to random keys (the same key
/// stream whatever the driver). Returns the number injected.
fn inject_storm(driver: &mut impl ProtocolDriver, ids: &[Id], per_peer: usize, seed: u64) -> usize {
    let mut krng = SeedTree::new(seed).child(LBL_KEYS).rng();
    let mut qid = 0u64;
    for &id in ids {
        for _ in 0..per_peer {
            let key = Id::new(krng.gen::<u64>());
            driver.inject(id, Command::StartQuery { qid, key });
            qid += 1;
        }
    }
    ids.len() * per_peer
}

/// Worker threads of a storm's runtime: storms are meaningless
/// single-threaded, so the floor is 2 even on one-core runners.
fn storm_workers(scale: &Scale) -> usize {
    scale.thread_count().max(2)
}

// ---------------------------------------------------------------------
// Fault sweep
// ---------------------------------------------------------------------

/// Loss rates swept, in percent. Cells at or below `STEADY_MAX_LOSS`
/// feed the headlines; the 10% cells document degradation.
const LOSS_PCT: [u32; 4] = [0, 2, 5, 10];
const STEADY_MAX_LOSS: u32 = 5;
/// Extra-delay ceilings (virtual ticks) swept on the DES.
const JITTERS: [u64; 2] = [0, 3];

/// Query-phase events distilled from a drained event stream.
struct StormOutcome {
    retried: usize,
    gave_up: usize,
    reports: Vec<QueryReport>,
}

impl StormOutcome {
    fn of(events: Vec<ProtocolEvent>) -> Self {
        let mut out = StormOutcome {
            retried: 0,
            gave_up: 0,
            reports: Vec::new(),
        };
        for ev in events {
            match ev {
                ProtocolEvent::QueryCompleted(r) => out.reports.push(r),
                ProtocolEvent::Retried {
                    op: OpKind::Query, ..
                } => out.retried += 1,
                ProtocolEvent::GaveUp {
                    op: OpKind::Query, ..
                } => out.gave_up += 1,
                _ => {}
            }
        }
        out
    }
}

/// Protocol tunables for the sweep: a much deeper retry budget than the
/// default 3, because per-issue failure grows with path length. At
/// n = 2000 the sweep's p95 query costs 11 hops, ~12 envelopes with the
/// reply, so 5% loss kills such an issue ~46% of the time; eleven issues
/// leave 0.46^11 < 0.03% of them dead, comfortably over the 99% delivery
/// gate, while the *mean* issue count stays under 1/(1-0.46) ~ 1.9 —
/// under the amplification bound of 3.
fn sweep_peer_cfg() -> PeerConfig {
    PeerConfig {
        max_retries: 10,
        ..PeerConfig::default()
    }
}

/// The per-cell fault plan: duplication rides at half the loss rate so a
/// lossy network is also a duplicating one, and crashes blackhole
/// (silent loss) rather than bounce — the harsher detection regime.
fn plan_for(scale_seed: u64, idx: usize, loss_pct: u32, jitter: u64) -> FaultPlan {
    let plan_seed = scale_seed ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let loss = loss_pct as f64 / 100.0;
    FaultPlan::new(plan_seed)
        .with_drop(loss)
        .with_duplication(loss / 2.0)
        .with_delay_jitter(jitter)
        .with_blackhole(true)
}

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// `"des"` or `"runtime"`.
    pub driver: &'static str,
    /// Injected message loss, percent.
    pub loss_pct: u32,
    /// Extra-delay ceiling, virtual ticks (always 0 on the runtime).
    pub jitter: u64,
    /// Queries that reached their owner, percent of those fired.
    pub delivery_pct: f64,
    /// Mean query re-issues per fired query.
    pub retries_per_query: f64,
    /// Nearest-rank p95 of `hops + wasted` over delivered queries.
    pub p95_cost: u64,
    /// Queries whose retry budget ran out.
    pub gave_up: usize,
    /// The storm's settle length: rounds the driver's round counter
    /// advanced by, the same unit on both drivers.
    pub rounds: u64,
    /// Machine invariant violations (`ProtocolEvent::Fault`). Injected
    /// network loss must never surface as one of these.
    pub faults: u64,
}

/// Runs one cell on `driver`, which holds clones of the sweep's fleet as
/// it stood at round `grown_at`: catch the clock up, storm, settle.
fn run_cell<D: ProtocolDriver>(
    mut driver: D,
    name: &'static str,
    (loss_pct, jitter): (u32, u64),
    grown_at: u64,
    per_peer: usize,
    seed: u64,
) -> FaultCell {
    driver.advance_to(grown_at);
    let sources = driver.peer_ids();
    let total = inject_storm(&mut driver, &sources, per_peer, seed);
    let round0 = driver.round();
    driver.settle(SETTLE_ROUNDS);
    let outcome = StormOutcome::of(driver.drain_events());
    assert_eq!(
        outcome.reports.len(),
        total,
        "{name} loss={loss_pct}% jitter={jitter}: every query must terminate exactly once"
    );
    let outcomes = outcome
        .reports
        .iter()
        .map(|r| (r.success, r.hops, r.wasted));
    let queries = QueryBatchStats::of(total, outcomes);
    FaultCell {
        driver: name,
        loss_pct,
        jitter,
        delivery_pct: queries.success_rate * 100.0,
        retries_per_query: outcome.retried as f64 / total as f64,
        p95_cost: queries.p95_cost as u64,
        gave_up: outcome.gave_up,
        rounds: driver.round() - round0,
        faults: driver.fault_count(),
    }
}

/// The finished sweep: every cell, DES first.
#[derive(Clone, Debug)]
pub struct FaultSweep {
    /// Queries each peer fired per cell.
    pub per_peer: usize,
    /// Worker threads of the runtime cells.
    pub workers: usize,
    /// Machine faults the one fleet build raised, before any cell.
    pub build_faults: u64,
    /// DES cells (jitter-major, loss-minor), then the runtime cells.
    pub cells: Vec<FaultCell>,
}

impl FaultSweep {
    /// Worst delivery (percent) and worst mean issues-per-query (1 first
    /// issue + retries) over the steady cells (loss ≤ 5%) — of the DES
    /// alone, or of both drivers.
    fn worst_steady(&self, des_only: bool) -> (f64, f64) {
        self.cells
            .iter()
            .filter(|c| c.loss_pct <= STEADY_MAX_LOSS && (!des_only || c.driver == "des"))
            .fold((f64::INFINITY, 0.0), |(delivery, amp), c| {
                (
                    delivery.min(c.delivery_pct),
                    amp.max(1.0 + c.retries_per_query),
                )
            })
    }

    /// Headline: the worst delivery over the steady DES cells. A pure
    /// function of the seed — in the DES every retry decision flows from
    /// token streams and the content-keyed fault plan.
    pub fn steady_delivery_pct(&self) -> f64 {
        self.worst_steady(true).0
    }

    /// Headline: the worst mean issues-per-query over the steady DES
    /// cells; deterministic like [`FaultSweep::steady_delivery_pct`].
    pub fn retry_amplification(&self) -> f64 {
        self.worst_steady(true).1
    }

    /// Machine faults summed over the build and every cell.
    pub fn faults(&self) -> u64 {
        self.build_faults + self.cells.iter().map(|c| c.faults).sum::<u64>()
    }
}

/// Runs the whole sweep at `scale.target` peers, `per_peer` queries per
/// peer per cell. The fleet is grown once, by [`grow_fleet`] on a
/// reliable DES, and every cell storms its own clones of those machines,
/// so only the fault plan varies between cells.
pub fn run_fault_sweep(scale: &Scale, per_peer: usize) -> Result<FaultSweep> {
    let workers = storm_workers(scale);
    let mut rng = SeedTree::new(scale.seed).child(LBL_IDS).rng();
    let mut taken = BTreeSet::new();
    let ids: Vec<Id> = std::iter::repeat_with(|| Id::new(rng.gen::<u64>()))
        .filter(|&id| taken.insert(id))
        .take(scale.target)
        .collect();
    let mut build = DesDriver::new_with_faults(scale.seed, sweep_peer_cfg(), FaultPlan::reliable());
    grow_fleet(&mut build, &ids, 3)?;
    let (grown_at, build_faults) = (build.round(), build.fault_count());
    let fleet: Vec<PeerMachine> = ids.iter().flat_map(|&id| build.peer(id)).cloned().collect();
    let des_axes = JITTERS
        .iter()
        .flat_map(|&jitter| LOSS_PCT.iter().map(move |&loss| (loss, jitter)));
    let mut cells = Vec::new();
    for axes @ (loss, jitter) in des_axes {
        let plan = plan_for(scale.seed, cells.len(), loss, jitter);
        let mut des = DesDriver::new_with_faults(scale.seed, sweep_peer_cfg(), plan);
        for machine in &fleet {
            Rounds::spawn_machine(&mut &mut des, machine.clone());
        }
        cells.push(run_cell(des, "des", axes, grown_at, per_peer, scale.seed));
    }
    for loss in LOSS_PCT {
        let rt = Runtime::new(
            RuntimeConfig::new(scale.seed)
                .with_workers(workers)
                .with_peer_cfg(sweep_peer_cfg())
                .with_fault_plan(plan_for(scale.seed, cells.len(), loss, 0)),
        );
        for machine in &fleet {
            rt.spawn_machine(machine.clone());
        }
        cells.push(run_cell(
            rt,
            "runtime",
            (loss, 0),
            grown_at,
            per_peer,
            scale.seed,
        ));
    }
    Ok(FaultSweep {
        per_peer,
        workers,
        build_faults,
        cells,
    })
}

/// The `faults` experiment: [`run_fault_sweep`] at 2 queries per peer,
/// summarised into `BENCH_faults.json`.
///
/// Self-gating over BOTH drivers' steady cells: delivery below 99% or
/// amplification above 3.0 fails the run, as does any machine fault. The
/// JSON headlines come from the DES cells alone, whose every retry
/// decision is a pure function of the seed; the 10% cells are reported
/// but never gated.
pub fn faults(scale: &Scale) -> RunResult {
    let per_peer = 2;
    let n = scale.target;
    eprintln!(
        "[faults] {n} peers, {per_peer} queries/peer; sweeping loss {LOSS_PCT:?}% x jitter \
         {JITTERS:?} on the DES and loss {LOSS_PCT:?}% on the {}-worker runtime...",
        storm_workers(scale)
    );
    let t0 = Instant::now();
    let sweep = run_fault_sweep(scale, per_peer)?;
    eprintln!("  {} cells in {:.1?}", sweep.cells.len(), t0.elapsed());
    for c in &sweep.cells {
        eprintln!(
            "  {:7} loss={:2}% jitter={} delivery={:6.2}% retries/q={:.3} p95_cost={} \
             gave_up={} rounds={}",
            c.driver,
            c.loss_pct,
            c.jitter,
            c.delivery_pct,
            c.retries_per_query,
            c.p95_cost,
            c.gave_up,
            c.rounds
        );
    }
    let cells = sweep
        .cells
        .iter()
        .map(|c| {
            Object::new()
                .str("driver", c.driver)
                .int("loss_pct", c.loss_pct)
                .int("jitter", c.jitter)
                .float("delivery_pct", c.delivery_pct, 2)
                .float("retries_per_query", c.retries_per_query, 3)
                .int("p95_cost", c.p95_cost)
                .int("gave_up", c.gave_up)
                .int("rounds", c.rounds)
        })
        .collect();
    Object::new()
        .str("bench", "faults")
        .int("n_peers", n)
        .int("seed", scale.seed)
        .int("queries_per_peer", per_peer)
        .int("workers", sweep.workers)
        .float("steady_delivery_pct", sweep.steady_delivery_pct(), 2)
        .float("retry_amplification", sweep.retry_amplification(), 3)
        .int("faults", sweep.faults())
        .rows("cells", cells)
        .write("BENCH_faults.json")?;
    let (both_delivery, both_amp) = sweep.worst_steady(false);
    eprintln!(
        "faults: steady delivery {:.2}% DES / {both_delivery:.2}% both drivers (gate >= 99%), \
         retry amplification {:.3} DES / {both_amp:.3} both (gate <= 3.0) over loss <= \
         {STEADY_MAX_LOSS}% cells",
        sweep.steady_delivery_pct(),
        sweep.retry_amplification(),
    );
    if both_delivery < 99.0 || both_amp > 3.0 {
        return Err("robustness contract violated — see the cells above".into());
    }
    gate_machine_faults(sweep.faults())
}
