//! `churn_des` — `run_machine_churn` on the discrete-event driver.
//!
//! Poisson joins, crashes and departures at 1% turnover per 1000-tick
//! window, reactive repair at probe depth 2, a ring-probe round every 100
//! ticks and a fixed query batch closing each window, under the reliable
//! fault plan (sends to a crashed peer bounce). This is the *write* side
//! of the `PeerMachine` that `storm` reads: joins, walks, link
//! handshakes, pings, departures and timers, one `settle` at a time,
//! single-threaded through the event queue at n=4000.
//!
//! The traced run also runs the identical engine and schedule on the
//! threaded runtime at n=2000 for a few windows (the *runtime twin*),
//! checked against a DES shadow of the same configuration. On the runtime
//! the ~10⁴ tiny inject-then-settle round trips of a window make wake and
//! park latency rule, not throughput — the opposite use of the runtime to
//! `storm` — and on a shared host that latency is the hypervisor's (it
//! moved between 68 and 113 µs per round trip for tens of minutes at a
//! time on the sizing box), so the twin is reported per layer, not gated.

use crate::driver::{ledger_balanced, Call, Ledger, Traced};
use crate::replay::Replay;
use crate::stats::{self, Fnv};
use crate::sys::{self, CpuTimes};
use crate::trace::{Recorder, Shares};
use crate::{labels, probes, ratio, Outcome, RunCfg};
use oscar_keydist::GnutellaKeys;
use oscar_protocol::{PeerConfig, ProtocolDriver};
use oscar_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use oscar_sim::{
    machine_repair_policy, run_machine_churn, ChurnSchedule, ChurnWindowStats, DesDriver,
    MachineChurnConfig, QueryBudget, RepairPolicy,
};
use oscar_types::{Id, SeedTree};
use std::time::Instant;

/// Peers of the declared workload, and of the traced run's runtime twin.
pub const N_DES: usize = 4_000;
pub const N_TWIN: usize = 2_000;
/// Windows the runtime twin and its DES shadow run.
const TWIN_WINDOWS: usize = 4;
/// Bootstraps timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const WINDOW_TICKS: u64 = 1000;
const TURNOVER: f64 = 0.01;
const QUERIES_PER_WINDOW: usize = 2000;

fn schedule(n: usize) -> ChurnSchedule {
    let rate = TURNOVER * n as f64 / WINDOW_TICKS as f64;
    ChurnSchedule {
        join_rate: rate,
        crash_rate: rate * 0.8,
        depart_rate: rate * 0.2,
        repair: RepairPolicy::Reactive { neighbors_k: 2 },
        window_ticks: WINDOW_TICKS,
        query_budget: QueryBudget::Fixed(QUERIES_PER_WINDOW),
        min_live: (n / 10).max(2),
    }
}

fn fleet(n: usize) -> MachineChurnConfig {
    MachineChurnConfig {
        initial_peers: n,
        build_walks: 3,
        probe_every: WINDOW_TICKS / 10,
    }
}

fn peer_cfg(n: usize) -> PeerConfig {
    PeerConfig {
        repair: machine_repair_policy(&schedule(n).repair),
        ..PeerConfig::default()
    }
}

fn des_driver(seed: &SeedTree, n: usize) -> DesDriver {
    DesDriver::new(seed.seed(), peer_cfg(n))
}

fn rt_driver(seed: &SeedTree, n: usize) -> Runtime {
    Runtime::new(
        RuntimeConfig::new(seed.seed())
            .with_workers(sys::RUNTIME_WORKERS)
            .with_peer_cfg(peer_cfg(n)),
    )
}

/// One `run_machine_churn` call, seen through the wrapper.
struct EngineRun<D> {
    driver: Traced<D>,
    windows: Vec<ChurnWindowStats>,
    setup_s: f64,
    timed_s: f64,
    total_s: f64,
    timed_cpu: CpuTimes,
    total_cpu: CpuTimes,
    live: Vec<Id>,
}

fn engine_run<D: ProtocolDriver + Ledger>(
    inner: D,
    n: usize,
    windows: usize,
    seed: SeedTree,
    rec: Option<Recorder>,
) -> EngineRun<D> {
    let keys = GnutellaKeys::default();
    let mut driver = Traced::new(inner, rec);
    let cpu0 = CpuTimes::now();
    let start = Instant::now();
    let stats = run_machine_churn(&mut driver, &keys, &fleet(n), &schedule(n), windows, seed)
        .expect("the schedule and fleet are valid by construction");
    let end = Instant::now();
    let cpu1 = CpuTimes::now();
    driver.finish();
    let (setup_end, setup_cpu) = driver
        .setup_end
        .expect("bootstrap_fleet ends with a drain_events");
    let live = driver.inner.peer_ids();
    EngineRun {
        windows: stats,
        setup_s: setup_end.duration_since(start).as_secs_f64(),
        timed_s: end.duration_since(setup_end).as_secs_f64(),
        total_s: end.duration_since(start).as_secs_f64(),
        timed_cpu: cpu1.since(&setup_cpu),
        total_cpu: cpu1.since(&cpu0),
        live,
        driver,
    }
}

/// Bootstrap alone: `run_machine_churn` with no windows.
fn time_bootstrap<D: ProtocolDriver>(mut driver: D, n: usize, seed: SeedTree) -> f64 {
    let keys = GnutellaKeys::default();
    let t = Instant::now();
    run_machine_churn(&mut driver, &keys, &fleet(n), &schedule(n), 0, seed)
        .expect("the schedule and fleet are valid by construction");
    t.elapsed().as_secs_f64()
}

/// Totals over a run's window books.
struct Books {
    joins: u64,
    repairs: u64,
    issued: u64,
    successes: u64,
    cost_sum: f64,
    /// Digest of what both drivers must agree on bit for bit: per-window
    /// membership counts and the final live set.
    membership: u64,
    /// Digest of everything the DES determines: the above plus repair
    /// books, query statistics and the message count.
    full: u64,
}

fn books(windows: &[ChurnWindowStats], live: &[Id], sent: u64) -> Books {
    let (mut membership, mut full) = (Fnv::default(), Fnv::default());
    let mut b = Books {
        joins: 0,
        repairs: 0,
        issued: 0,
        successes: 0,
        cost_sum: 0.0,
        membership: 0,
        full: 0,
    };
    for w in windows {
        let successes = (w.queries.success_rate * w.queries.queries as f64).round();
        b.joins += w.joins;
        b.repairs += w.repairs;
        b.issued += w.queries.queries as u64;
        b.successes += successes as u64;
        b.cost_sum += w.queries.mean_cost * successes;
        for word in [w.joins, w.crashes, w.departs, w.live_at_end as u64] {
            membership.word(word);
            full.word(word);
        }
        full.word(w.repairs);
        full.word(w.repair_cost);
        full.float(w.queries.mean_cost);
        full.float(w.queries.mean_wasted);
        full.float(w.queries.success_rate);
    }
    for id in live {
        membership.word(id.raw());
        full.word(id.raw());
    }
    full.word(sent);
    b.membership = membership.finish();
    b.full = full.finish();
    b
}

/// Wall seconds of each window: from the end of set-up, then from one
/// window's closing drain to the next.
fn window_seconds<D>(d: &Traced<D>) -> Vec<f64> {
    let Some((mut from, _)) = d.setup_end else {
        return Vec::new();
    };
    d.window_ends
        .iter()
        .map(|&end| {
            let s = end.duration_since(from).as_secs_f64();
            from = end;
            s
        })
        .collect()
}

/// Output checks every engine run must pass.
fn check_run<D: ProtocolDriver + Ledger>(
    out: &mut Outcome,
    who: &str,
    run: &EngineRun<D>,
    windows: usize,
) {
    let d = &run.driver;
    out.check(
        d.window_ends.len() == windows && run.windows.len() == windows,
        || {
            format!(
                "{who}: {} windows closed, {} reported, {windows} scheduled",
                d.window_ends.len(),
                run.windows.len()
            )
        },
    );
    out.check(d.bad_reads == 0, || {
        format!(
            "{who}: {} quiescent reads saw a fault or sent != delivered + dropped + bounced",
            d.bad_reads
        )
    });
    out.check(
        d.inner.fault_count() == 0 && ledger_balanced(d.inner.ledger()),
        || {
            format!(
                "{who}: {} faults, final ledger {:?}",
                d.inner.fault_count(),
                d.inner.ledger()
            )
        },
    );
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let n = cfg.n.unwrap_or(N_DES);
    // A window costs about 0.7 s on the DES at n=4000.
    let windows = (cfg.pass_seconds() as usize * 3 / 2).max(1);
    let seed = SeedTree::new(cfg.seed).child(labels::CHURN);
    let mut out = Outcome::default();

    // --- set-up: bootstrap_fleet, SETUP_REPS times in all -----------------------
    let mut setup_s: Vec<f64> = (1..SETUP_REPS)
        .map(|_| time_bootstrap(des_driver(&seed, n), n, seed))
        .collect();

    let plain = engine_run(des_driver(&seed, n), n, windows, seed, None);
    setup_s.push(plain.setup_s);
    check_run(&mut out, "run", &plain, windows);
    let sent = plain.driver.inner.sent();
    let b = books(&plain.windows, &plain.live, sent);
    // Under churn a query can die with the peer that holds it, so
    // delivery is a metric here, not a check.
    out.attempted = b.joins + b.issued;
    out.failed = b.issued - b.successes;
    out.digest = b.full;

    if !cfg.trace {
        let d = &plain.driver;
        let window_s = stats::median(&window_seconds(d));
        out.set("setup_s", stats::median(&setup_s));
        // Joins over the wall time spent on them (spawn_peer to the end of
        // the settle after BuildLinks), and the same for the link build
        // inside each (BuildLinks and its settle: what a rewire is made
        // of). Totals, not medians: link builds come in a fast and a slow
        // kind, and which one the median lands on changes with the seed.
        let per_s = |ms: &[f64]| ratio(ms.len() as f64 * 1e3, ms.iter().sum());
        out.set("joins_per_s", per_s(&d.joins_ms));
        out.set("rewires_per_s", per_s(&d.links_ms));
        // All of a window's queries over the median window. The query
        // batch alone (~30 ms of a window) is not timed into a rate of its
        // own: how fast it runs depends on how the seed's crashes have
        // worn the overlay, 12% between seeds.
        let queries = QUERIES_PER_WINDOW as f64;
        out.set("routes_per_s", queries / window_s);
        out.set("queries_per_s", queries / window_s);
        // On this workload a wave is a probe round: one ProbeRing and one
        // settle per live peer, n closed-loop round trips.
        out.set("wave_ms_p50", stats::median(&d.rounds_ms));
        out.set("windows_per_s", 1.0 / window_s);
        out.set(
            "msgs_per_window",
            (sent - d.setup_ledger[0]) as f64 / windows as f64,
        );
        out.set("search_cost_hops", ratio(b.cost_sum, b.successes as f64));
        out.set("delivery_rate", ratio(b.successes as f64, b.issued as f64));
        out.set("cpu_s", plain.timed_cpu.total());
        out.set("peak_rss_mb", sys::peak_rss_mb());
        out.note(format!(
            "{windows} windows at n={n} in {:.2} s, rates from the median window; {} probe rounds; \
             setup_s is the median of {SETUP_REPS} bootstraps",
            plain.timed_s,
            d.rounds_ms.len()
        ));
        return out;
    }

    // --- traced pass: a fresh fleet, the same trace, spans on ----------------------
    let mut traced = engine_run(
        des_driver(&seed, n),
        n,
        windows,
        seed,
        Some(Recorder::default()),
    );
    check_run(&mut out, "traced run", &traced, windows);
    let t = books(&traced.windows, &traced.live, traced.driver.inner.sent());
    out.check(t.full == b.full, || {
        "the traced run produced other window books than the untraced one".to_string()
    });
    let rec = traced
        .driver
        .recorder
        .take()
        .expect("the traced run was given a recorder");
    let shares = DriverShares::of(&rec);
    out.set("des.settle_share", shares.settle);
    out.set("des.inject_share", shares.inject);
    out.set("des.peer_ids_share", shares.peer_ids);
    out.set("trace.other_share", shares.other);
    out.set("churn.engine_self_share", shares.engine_self);
    out.set("trace.self_share", shares.engine_self);
    out.set("churn.join_share", shares.join);
    out.set("churn.probe_share", shares.probe);
    out.set("churn.query_share", shares.query);
    out.set("churn.depart_share", shares.depart);
    out.set(
        "trace.overhead_pct",
        (traced.timed_s / plain.timed_s - 1.0) * 100.0,
    );
    let (tail, pct) = stats::tail_percentile(&plain.driver.rounds_ms);
    out.set("wave_ms_p90", tail);
    out.note(format!(
        "wave_ms_p90 is the p{pct} of {} untraced probe rounds",
        plain.driver.rounds_ms.len()
    ));
    out.note(shares.sum_note("the timed region"));

    let probe_seed = SeedTree::new(cfg.seed).child(labels::PROBE);
    probes::micro(&mut out, &traced.live, probe_seed);
    let d = &traced.driver;
    out.set(
        "des.settle_calls_per_window",
        d.call_count[Call::Settle as usize] as f64 / windows as f64,
    );
    out.set("des.bootstrap_joins_per_s", n as f64 / traced.setup_s);
    let driver_ns = (d.call_ns[Call::Inject as usize] + d.call_ns[Call::Settle as usize]) as f64;
    let delivered = d.inner.ledger()[1] - d.setup_ledger[1];
    out.set("des.ns_per_msg", ratio(driver_ns, delivered as f64));
    crate::report::write_trace(&mut out, &cfg.workload, &rec);

    // The replay loop and the driver probes run on what the traced run
    // left behind: machines cloned out of the settled fleet, then the
    // driver itself.
    let replay_seed = SeedTree::new(cfg.seed).child(labels::REPLAY);
    let mut replay = Replay::from_des(&traced.driver.inner, peer_cfg(n), replay_seed.seed());
    replay.churn_scenario(replay_seed);
    replay.report(&mut out);
    probes::des(&mut out, &mut traced.driver.inner, probe_seed);

    runtime_twin(
        &mut out,
        cfg.n.unwrap_or(N_TWIN),
        TWIN_WINDOWS.min(windows),
        seed,
        probe_seed,
    );
    out
}

/// Shares of a traced engine run's timed region, from its spans.
struct DriverShares {
    settle: f64,
    inject: f64,
    peer_ids: f64,
    /// `spawn_peer`, `remove_peer`, `drain_events`, `advance_to`.
    other: f64,
    /// Window wall time outside every driver call.
    engine_self: f64,
    /// Settle time by the class of the command that preceded it.
    join: f64,
    probe: f64,
    query: f64,
    depart: f64,
}

impl DriverShares {
    fn of(rec: &Recorder) -> DriverShares {
        let shares = Shares::of(rec.spans());
        let share = |prefix: &str| shares.total(prefix);
        DriverShares {
            settle: share("settle."),
            inject: share("inject."),
            peer_ids: share("peer_ids"),
            other: share("spawn_peer")
                + share("remove_peer")
                + share("drain_events")
                + share("advance_to"),
            engine_self: shares.own("timed") + shares.own("window"),
            join: share("settle.join") + share("settle.link"),
            probe: share("settle.probe"),
            query: share("settle.query"),
            depart: share("settle.depart"),
        }
    }

    fn sum_note(&self, of: &str) -> String {
        format!(
            "shares of {of} sum to {:.4} (settle {:.4} + inject {:.4} + peer_ids {:.4} + other \
             calls {:.4} + engine self {:.4})",
            self.settle + self.inject + self.peer_ids + self.other + self.engine_self,
            self.settle,
            self.inject,
            self.peer_ids,
            self.other,
            self.engine_self
        )
    }
}

/// The runtime twin of a traced run: the same engine, schedule and seed
/// on the threaded runtime, spans on, then on a DES shadow. Both drivers
/// must agree on the membership trace bit for bit and on the query
/// statistics closely; the `runtime.*` shares, counters and call costs
/// come from the runtime side.
fn runtime_twin(out: &mut Outcome, n: usize, windows: usize, seed: SeedTree, probe_seed: SeedTree) {
    let mut twin = engine_run(
        rt_driver(&seed, n),
        n,
        windows,
        seed,
        Some(Recorder::default()),
    );
    check_run(out, "runtime twin", &twin, windows);
    let shadow = engine_run(des_driver(&seed, n), n, windows, seed, None);
    check_run(out, "shadow", &shadow, windows);

    let t = books(&twin.windows, &twin.live, twin.driver.inner.sent());
    let s = books(&shadow.windows, &shadow.live, shadow.driver.inner.sent());
    out.check(t.membership == s.membership, || {
        let counts = |w: &[ChurnWindowStats]| -> Vec<(u64, u64, u64)> {
            w.iter().map(|w| (w.joins, w.crashes, w.departs)).collect()
        };
        format!(
            "runtime twin and DES shadow disagree on membership: live {} vs {}, per-window \
             (joins, crashes, departs) {:?} vs {:?}",
            twin.live.len(),
            shadow.live.len(),
            counts(&twin.windows),
            counts(&shadow.windows),
        )
    });
    let (rate, shadow_rate) = (
        ratio(t.successes as f64, t.issued as f64),
        ratio(s.successes as f64, s.issued as f64),
    );
    out.check((rate - shadow_rate).abs() <= 0.01, || {
        format!("runtime twin delivery_rate {rate:.4} vs DES shadow {shadow_rate:.4}")
    });
    let (hops, shadow_hops) = (
        ratio(t.cost_sum, t.successes as f64),
        ratio(s.cost_sum, s.successes as f64),
    );
    out.check((hops - shadow_hops).abs() <= 0.03 * shadow_hops, || {
        format!("runtime twin search_cost_hops {hops:.3} vs DES shadow {shadow_hops:.3}")
    });

    let rec = twin
        .driver
        .recorder
        .take()
        .expect("the twin was given a recorder");
    let shares = DriverShares::of(&rec);
    out.set("runtime.settle_share", shares.settle);
    out.set("runtime.inject_share", shares.inject);
    out.set("runtime.peer_ids_share", shares.peer_ids);
    out.set("runtime.vs_des_ratio", ratio(twin.timed_s, shadow.timed_s));
    out.note(format!(
        "runtime twin: {windows} windows at n={n} in {:.2} s, DES shadow {:.2} s; {}",
        twin.timed_s,
        shadow.timed_s,
        shares.sum_note("its timed region")
    ));
    crate::report::write_trace(out, "churn_rt", &rec);

    // The runtime's counters cover its whole life, bootstrap included.
    let after = twin.driver.inner.stats();
    let born = RuntimeStats {
        sent: 0,
        delivered: 0,
        bounced: 0,
        dropped: 0,
        duplicated: 0,
        faults: 0,
        busy_ns: vec![0; after.busy_ns.len()],
        per_worker_msgs: vec![0; after.per_worker_msgs.len()],
    };
    probes::runtime_counters(out, &born, &after, twin.total_s, &twin.total_cpu);
    probes::runtime(out, twin.driver.inner, probe_seed);
}
