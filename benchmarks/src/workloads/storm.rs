//! `storm` — read-only, message-dense load on the threaded runtime: n
//! peers on uniform identifiers installed with `Command::Bootstrap` and
//! linked by concurrent `BuildLinks{walks:3}` (set-up), then closed-loop
//! waves of `WAVE` `StartQuery` from seeded random sources to uniform
//! keys, each wave followed by `quiesce` and `drain_events`.
//!
//! `WAVE` callers that each wait for their reply make a closed loop. Time
//! goes to `PeerMachine::on_message(Query)` and to the mailbox and run
//! queue; none goes to joins, walks or the ring.

use crate::driver::{ledger_balanced, Ledger};
use crate::replay::Replay;
use crate::stats::{self, Fnv};
use crate::sys::{self, CpuTimes};
use crate::trace::{Recorder, Shares};
use crate::{labels, probes, ratio, Outcome, RunCfg};
use oscar_protocol::{Command, PeerConfig, ProtocolEvent};
use oscar_ring::Ring;
use oscar_runtime::{Runtime, RuntimeConfig, RuntimeStats};
use oscar_sim::DesDriver;
use oscar_types::{Id, SeedTree};
use rand::Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// Peers the declared workload installs.
pub const N: usize = 10_000;
/// Queries per closed-loop wave.
const WAVE: usize = 1000;
/// Fleets built per run; `setup_s` is the median build.
const SETUP_REPS: usize = 7;
/// Successor-list length installed by `Bootstrap` (the `PeerConfig` default).
const SUCC_LEN: usize = 8;
const BUILD_WALKS: u32 = 3;
/// Untimed waves run on the fresh fleet first, so that mailboxes, the
/// run queue and the allocator have reached their working sizes.
const WARMUP_WAVES: usize = 10;
/// Waves replayed on the DES twin and through the replay loop.
const REPLAY_WAVES: usize = 5;
/// Waves the traced run's two-worker fleet is timed on, after the warm-up
/// (a fresh two-worker fleet runs at the one-worker rate for its first ten
/// or so waves before the workers start to contend).
const CONTENDED_WAVES: usize = 30;

fn waves_for(seconds: u64) -> usize {
    (9 * seconds as usize).max(1)
}

/// The `Bootstrap` command that installs `ids[i]`'s ring state.
fn bootstrap_of(ids: &[Id], i: usize) -> Command {
    let n = ids.len();
    let pred = ids[(i + n - 1) % n];
    let succs: Vec<Id> = (1..=SUCC_LEN.min(n - 1))
        .map(|k| ids[(i + k) % n])
        .collect();
    let mut known = succs.clone();
    known.push(pred);
    Command::Bootstrap { pred, succs, known }
}

struct Fleet {
    rt: Runtime,
    boot_s: f64,
    links_s: f64,
}

/// Installs the ring and builds every peer's long links concurrently.
fn build_fleet(ids: &[Id], seed: u64, workers: usize) -> Fleet {
    let rt = Runtime::new(RuntimeConfig::new(seed).with_workers(workers));
    let t = Instant::now();
    for &id in ids {
        rt.spawn_peer(id);
    }
    for (i, &id) in ids.iter().enumerate() {
        rt.inject(id, bootstrap_of(ids, i));
    }
    let boot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for &id in ids {
        rt.inject(id, Command::BuildLinks { walks: BUILD_WALKS });
    }
    rt.quiesce();
    rt.drain_events();
    let links_s = t.elapsed().as_secs_f64();
    Fleet {
        rt,
        boot_s,
        links_s,
    }
}

/// What one pass over the waves measured.
struct Pass {
    wall_s: f64,
    wave_ms: Vec<f64>,
    issued: u64,
    successes: u64,
    cost_sum: u64,
    /// Reports that were missing, duplicated, foreign or named the wrong owner.
    bad_reports: u64,
    /// Quiescent reads with an unbalanced ledger or a counted fault.
    bad_reads: u64,
    cpu: CpuTimes,
    before: RuntimeStats,
    after: RuntimeStats,
}

/// Runs `waves` (each a list of `(source, key)`) with query ids from
/// `qid_base` up. Query ids must not repeat across passes on one fleet:
/// the machines suppress duplicate deliveries by message content.
fn pass(
    rt: &Runtime,
    waves: &[Vec<(Id, Id)>],
    qid_base: u64,
    ring: &Ring,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let mut wave_ms = Vec::with_capacity(waves.len());
    let (mut issued, mut successes, mut cost_sum) = (0u64, 0u64, 0u64);
    let (mut bad_reports, mut bad_reads) = (0u64, 0u64);
    let before = rt.stats();
    let cpu0 = CpuTimes::now();
    let root = rec.as_deref_mut().map(|r| r.open("timed", 0));
    let t = Instant::now();
    for (w, wave) in waves.iter().enumerate() {
        let base = qid_base + (w * WAVE) as u64;
        let span = rec.as_deref_mut().map(|r| r.open("wave", w as u64));
        let t_wave = Instant::now();
        for (q, &(src, key)) in wave.iter().enumerate() {
            let qid = base + q as u64;
            let cmd = Command::StartQuery { qid, key };
            match rec.as_deref_mut() {
                None => rt.inject(src, cmd),
                Some(rec) => rec.time("runtime.inject", qid, || rt.inject(src, cmd)),
            };
        }
        let events = match rec.as_deref_mut() {
            None => {
                rt.quiesce();
                rt.drain_events()
            }
            Some(rec) => {
                rec.time("runtime.quiesce", w as u64, || rt.quiesce());
                rec.time("runtime.drain_events", w as u64, || rt.drain_events())
            }
        };
        wave_ms.push(t_wave.elapsed().as_secs_f64() * 1e3);
        if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
            rec.close(span);
        }

        // Every issued query yields exactly one report, from the key's owner.
        let mut seen = vec![false; wave.len()];
        for e in events {
            let ProtocolEvent::QueryCompleted(r) = e else {
                continue;
            };
            let slot = r.qid.checked_sub(base).map(|s| s as usize);
            match slot.filter(|&s| s < wave.len() && !seen[s]) {
                Some(s) => {
                    seen[s] = true;
                    if r.success {
                        successes += 1;
                        cost_sum += r.cost() as u64;
                        if r.dest != ring.owner_of(wave[s].1) {
                            bad_reports += 1;
                        }
                    }
                }
                None => bad_reports += 1,
            }
        }
        issued += wave.len() as u64;
        bad_reports += seen.iter().filter(|&&s| !s).count() as u64;
        if !ledger_balanced(rt.ledger()) || rt.fault_count() != 0 {
            bad_reads += 1;
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    if let (Some(rec), Some(root)) = (rec, root) {
        rec.close(root);
    }
    Pass {
        wall_s,
        wave_ms,
        issued,
        successes,
        cost_sum,
        bad_reports,
        bad_reads,
        cpu: CpuTimes::now().since(&cpu0),
        before,
        after: rt.stats(),
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let n = cfg.n.unwrap_or(N);
    let workers = sys::RUNTIME_WORKERS;
    let seed = SeedTree::new(cfg.seed);
    let mut out = Outcome::default();

    // --- inputs -------------------------------------------------------------
    let mut rng = seed.child(labels::IDS).rng();
    let mut ids = BTreeSet::new();
    while ids.len() < n {
        ids.insert(Id::new(rng.gen::<u64>()));
    }
    let ids: Vec<Id> = ids.into_iter().collect();
    let ring = Ring::from_ids(ids.clone());
    let mut rng = seed.child(labels::QUERY).rng();
    let waves: Vec<Vec<(Id, Id)>> = (0..WARMUP_WAVES + waves_for(cfg.pass_seconds()))
        .map(|_| {
            (0..WAVE)
                .map(|_| (ids[rng.gen_range(0..n)], Id::new(rng.gen::<u64>())))
                .collect()
        })
        .collect();
    let fleet_seed = seed.child(labels::FLEET).seed();

    // --- set-up: the fleet, built SETUP_REPS times ----------------------------
    let mut fleet = build_fleet(&ids, fleet_seed, workers);
    let (mut links_s, mut setup_s) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            // One fleet alive at a time: the assignment drops the previous
            // one, which joins its workers.
            fleet = build_fleet(&ids, fleet_seed, workers);
        }
        links_s.push(fleet.links_s);
        setup_s.push(fleet.boot_s + fleet.links_s);
    }
    let rt = fleet.rt;

    let mut digest = Fnv::default();
    ids.iter().for_each(|id| digest.word(id.raw()));
    for &(src, key) in waves.iter().flatten() {
        digest.word(src.raw());
        digest.word(key.raw());
    }

    let all_waves = &waves;
    let (warmup, waves) = all_waves.split_at(WARMUP_WAVES);
    let warm = pass(&rt, warmup, 0, &ring, None);
    checks(&mut out, &warm, &mut digest);
    let qid_base = (WARMUP_WAVES * WAVE) as u64;
    let plain = pass(&rt, waves, qid_base, &ring, None);
    checks(&mut out, &plain, &mut digest);
    if !cfg.trace {
        let waves_run = plain.wave_ms.len() as f64;
        let wave_s = stats::median(&plain.wave_ms) / 1e3;
        out.set("setup_s", stats::median(&setup_s));
        // Set-up is the only place this workload joins and links peers:
        // a join is an install plus its link build, a rewire the link
        // build alone.
        out.set("joins_per_s", n as f64 / stats::median(&setup_s));
        out.set("rewires_per_s", n as f64 / stats::median(&links_s));
        // The timed region is nothing but queries, and a window is a
        // wave: one median wave time behind three rates.
        out.set("routes_per_s", WAVE as f64 / wave_s);
        out.set("queries_per_s", WAVE as f64 / wave_s);
        out.set("wave_ms_p50", wave_s * 1e3);
        out.set("windows_per_s", 1.0 / wave_s);
        out.set(
            "msgs_per_window",
            (plain.after.sent - plain.before.sent) as f64 / waves_run,
        );
        out.set(
            "search_cost_hops",
            ratio(plain.cost_sum as f64, plain.successes as f64),
        );
        out.set(
            "delivery_rate",
            ratio(plain.successes as f64, plain.issued as f64),
        );
        out.set("cpu_s", plain.cpu.total());
        out.set("peak_rss_mb", sys::peak_rss_mb());
        out.note(format!(
            "{workers} worker thread(s) on {} cores; {} waves of {WAVE} queries in {:.2} s after \
             {WARMUP_WAVES} untimed ones, rates from the median wave; setup_s is the median of \
             {SETUP_REPS} fleet builds",
            sys::nproc(),
            waves_run as u64,
            plain.wall_s
        ));
        out.digest = digest.finish();
        return out;
    }

    // --- traced pass on the same fleet, fresh query ids -----------------------
    let mut rec = Recorder::default();
    let qid_base = qid_base + (waves.len() * WAVE) as u64;
    let traced = pass(&rt, waves, qid_base, &ring, Some(&mut rec));
    checks(&mut out, &traced, &mut digest);

    // --- the contended probe: the same first waves on a two-worker fleet -------
    let contended = build_fleet(&ids, fleet_seed, sys::contended_workers()).rt;
    let probe_waves = &all_waves[..(WARMUP_WAVES + CONTENDED_WAVES).min(all_waves.len())];
    let two = pass(&contended, probe_waves, 0, &ring, None);
    checks(&mut out, &two, &mut digest);
    drop(contended);
    out.set(
        "runtime.two_worker_wave_ratio",
        ratio(
            stats::median(&two.wave_ms[WARMUP_WAVES.min(two.wave_ms.len() - 1)..]),
            stats::median(&plain.wave_ms),
        ),
    );
    out.digest = digest.finish();

    let shares = Shares::of(rec.spans());
    let share = |name: &str| shares.total(name);
    out.set("runtime.inject_ns", shares.mean_ns("runtime.inject"));
    out.set("runtime.inject_share", share("runtime.inject"));
    out.set("runtime.settle_share", share("runtime.quiesce"));
    out.set("trace.other_share", share("runtime.drain_events"));
    let self_share = shares.own("timed") + shares.own("wave");
    out.set("trace.self_share", self_share);
    out.set(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    let (tail, pct) = stats::tail_percentile(&plain.wave_ms);
    out.set("wave_ms_p90", tail);
    out.note(format!(
        "wave_ms_p90 is the p{pct} of {} untraced waves",
        plain.wave_ms.len()
    ));
    out.note(format!(
        "shares of the timed region sum to {:.4} (self {:.4})",
        share("runtime.inject")
            + share("runtime.quiesce")
            + share("runtime.drain_events")
            + self_share,
        self_share
    ));
    let busy_ns_per_msg = probes::runtime_counters(
        &mut out,
        &traced.before,
        &traced.after,
        traced.wall_s,
        &traced.cpu,
    );

    // --- the DES twin: same ids, same install, the first waves replayed -------
    let replayed = &waves[..REPLAY_WAVES.min(waves.len())];
    let mut des = DesDriver::new(fleet_seed, PeerConfig::default());
    for &id in &ids {
        des.spawn_peer(id);
    }
    for (i, &id) in ids.iter().enumerate() {
        des.inject(id, bootstrap_of(&ids, i));
    }
    for &id in &ids {
        des.inject(id, Command::BuildLinks { walks: BUILD_WALKS });
    }
    des.run_until_settled(4096);
    des.drain_events();
    let mut replay = Replay::from_des(&des, PeerConfig::default(), fleet_seed);
    let delivered0 = des.delivered();
    let t = Instant::now();
    for (q, &(src, key)) in replayed.iter().flatten().enumerate() {
        des.inject(src, Command::StartQuery { qid: q as u64, key });
    }
    des.run_until_settled(4096);
    let des_ns = t.elapsed().as_nanos() as f64;
    out.set(
        "des.ns_per_msg",
        ratio(des_ns, (des.delivered() - delivered0) as f64),
    );
    des.drain_events();
    out.check(des.fault_count() == 0, || {
        format!("{} machine faults on the DES twin", des.fault_count())
    });

    // --- the replay loop: protocol time per message, no driver at all ---------
    let queries: Vec<(Id, Id)> = replayed.iter().flatten().copied().collect();
    replay.queries(&queries);
    replay.report(&mut out);
    out.set(
        "runtime.overhead_ns_per_msg",
        (busy_ns_per_msg - replay.mean_message_ns()).max(0.0),
    );

    let probe_seed = seed.child(labels::PROBE);
    probes::micro(&mut out, &ids, probe_seed);
    probes::des(&mut out, &mut des, probe_seed);
    probes::runtime(&mut out, rt, probe_seed);

    crate::report::write_trace(&mut out, &cfg.workload, &rec);
    out
}

/// The output checks of one `storm` pass.
fn checks(out: &mut Outcome, p: &Pass, digest: &mut Fnv) {
    out.check(p.bad_reports == 0, || {
        format!(
            "{} query reports were missing, duplicated or named the wrong owner",
            p.bad_reports
        )
    });
    out.check(p.bad_reads == 0, || {
        format!(
            "{} quiescent reads saw a fault or sent != delivered + dropped + bounced",
            p.bad_reads
        )
    });
    out.check(p.successes == p.issued, || {
        format!(
            "{} of {} queries were not delivered",
            p.issued - p.successes,
            p.issued
        )
    });
    out.attempted += p.issued;
    out.failed += p.issued - p.successes;
    digest.word(p.issued);
    digest.word(p.successes);
}
