//! One engine, two worlds: the same [`ChurnSchedule`] and seed through
//! [`OracleWorld`] and [`MachineWorld`] realise the same arrival process —
//! and the machine world keeps asking its driver for exactly what the
//! benchmark's tracing driver was calibrated on.

use oscar_degree::ConstantDegrees;
use oscar_keydist::{QueryWorkload, UniformKeys};
use oscar_protocol::{Command, FaultPlan, PeerConfig, ProtocolDriver, ProtocolEvent};
use oscar_sim::{
    machine_repair_policy, run_churn, run_machine_churn, ChurnSchedule, ChurnWindowStats,
    DesDriver, FaultModel, GrowthConfig, LinkError, MachineChurnConfig, MachineWorld, Network,
    OracleWorld, OverlayBuilder, PeerIdx, QueryBudget, RepairPolicy,
};
use oscar_types::{Id, Result, SeedTree};
use rand::rngs::SmallRng;
use std::cell::RefCell;

fn des_for(schedule: &ChurnSchedule, seed: u64) -> DesDriver {
    let peer_cfg = PeerConfig {
        repair: machine_repair_policy(&schedule.repair),
        ..PeerConfig::default()
    };
    DesDriver::new_with_faults(seed, peer_cfg, FaultPlan::reliable())
}

fn fleet(n: usize) -> MachineChurnConfig {
    MachineChurnConfig {
        initial_peers: n,
        build_walks: 3,
        probe_every: 100,
    }
}

/// Toy builder: links to up to 4 random live peers.
struct RandomBuilder;

impl OverlayBuilder for RandomBuilder {
    fn build_links(&self, net: &mut Network, p: PeerIdx, rng: &mut SmallRng) -> Result<()> {
        for _ in 0..16 {
            if net.peer(p).out_degree() >= 4 {
                break;
            }
            if let Some(t) = net.random_live_peer(rng) {
                match net.try_link(p, t) {
                    Ok(())
                    | Err(LinkError::SelfLink)
                    | Err(LinkError::Duplicate)
                    | Err(LinkError::TargetFull) => {}
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        Ok(())
    }
}

fn on_the_oracle(schedule: &ChurnSchedule, windows: usize, seed: u64) -> Vec<ChurnWindowStats> {
    let degrees = ConstantDegrees::new(8);
    let mut net = Network::new(FaultModel::StabilizedRing);
    GrowthConfig {
        target_size: 300,
        checkpoints: vec![],
    }
    .run(
        &mut net,
        &RandomBuilder,
        &UniformKeys,
        &degrees,
        SeedTree::new(seed).child(99),
        |_, _| Ok(()),
    )
    .unwrap();
    let mut world = OracleWorld::new(&mut net, &RandomBuilder, &UniformKeys, &degrees).unwrap();
    let workload = QueryWorkload::UniformPeers;
    run_churn(
        &mut world,
        schedule,
        &workload,
        windows,
        SeedTree::new(seed),
    )
    .unwrap()
}

fn on_the_machines(schedule: &ChurnSchedule, windows: usize, seed: u64) -> Vec<ChurnWindowStats> {
    let mut des = des_for(schedule, seed);
    let cfg = fleet(300);
    let root = SeedTree::new(seed);
    let mut world = MachineWorld::bootstrap(&mut des, &UniformKeys, &cfg, &root).unwrap();
    let workload = QueryWorkload::UniformPeers;
    run_churn(&mut world, schedule, &workload, windows, root).unwrap()
}

#[test]
fn both_worlds_live_through_the_same_arrival_process() {
    for repair in [
        RepairPolicy::SweepEvery(250),
        RepairPolicy::Reactive { neighbors_k: 2 },
        RepairPolicy::OnProbe,
    ] {
        let schedule = ChurnSchedule {
            join_rate: 0.02,
            crash_rate: 0.03,
            depart_rate: 0.01,
            repair: repair.clone(),
            window_ticks: 400,
            query_budget: QueryBudget::Fixed(30),
            // High enough that the crash-heavy schedule hits the floor, so
            // `suppressed` is compared on more than zeros.
            min_live: 285,
        };
        let oracle = on_the_oracle(&schedule, 4, 7);
        let machines = on_the_machines(&schedule, 4, 7);
        assert_eq!(oracle.len(), machines.len());
        let membership = |w: &ChurnWindowStats| {
            (
                (w.window, w.start, w.end),
                (w.joins, w.crashes, w.departs, w.suppressed),
                w.live_at_end,
            )
        };
        for (o, m) in oracle.iter().zip(&machines) {
            // One clock, one arrival process; only `queries`, `repairs`,
            // `repair_cost` and `rewires` are the world's own.
            assert_eq!(membership(o), membership(m), "{repair:?}");
        }
        let total = |f: fn(&ChurnWindowStats) -> u64| oracle.iter().map(f).sum::<u64>();
        assert!(total(|w| w.joins) > 0 && total(|w| w.crashes) > 0 && total(|w| w.departs) > 0);
        assert!(total(|w| w.suppressed) > 0, "the floor must have held");
    }
}

/// What the engine asked of its driver, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Spawn,
    Remove,
    Join,
    BuildLinks,
    Rewire,
    StartQuery,
    ProbeRing,
    Depart,
    OtherCommand,
    Settle,
    Advance,
    PeerIds,
    Drain,
    Sent,
}

/// A `DesDriver` that records every call made of it.
struct Recording {
    inner: DesDriver,
    trace: RefCell<Vec<(Call, u64)>>,
}

impl Recording {
    fn note(&self, call: Call, peer: Id) {
        self.trace.borrow_mut().push((call, peer.raw()));
    }
}

impl ProtocolDriver for Recording {
    fn spawn_peer(&mut self, id: Id) {
        self.note(Call::Spawn, id);
        ProtocolDriver::spawn_peer(&mut self.inner, id);
    }
    fn remove_peer(&mut self, id: Id) {
        self.note(Call::Remove, id);
        ProtocolDriver::remove_peer(&mut self.inner, id);
    }
    fn inject(&mut self, id: Id, cmd: Command) {
        let call = match cmd {
            Command::Join { .. } => Call::Join,
            Command::BuildLinks { .. } => Call::BuildLinks,
            Command::Rewire { .. } => Call::Rewire,
            Command::StartQuery { .. } => Call::StartQuery,
            Command::ProbeRing => Call::ProbeRing,
            Command::Depart => Call::Depart,
            _ => Call::OtherCommand,
        };
        self.note(call, id);
        ProtocolDriver::inject(&mut self.inner, id, cmd);
    }
    fn settle(&mut self, max_rounds: u64) -> u64 {
        self.note(Call::Settle, Id::new(0));
        ProtocolDriver::settle(&mut self.inner, max_rounds)
    }
    fn advance_to(&mut self, round: u64) {
        self.note(Call::Advance, Id::new(0));
        ProtocolDriver::advance_to(&mut self.inner, round);
    }
    fn round(&self) -> u64 {
        ProtocolDriver::round(&self.inner)
    }
    fn peer_ids(&self) -> Vec<Id> {
        self.note(Call::PeerIds, Id::new(0));
        ProtocolDriver::peer_ids(&self.inner)
    }
    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        self.note(Call::Drain, Id::new(0));
        ProtocolDriver::drain_events(&mut self.inner)
    }
    fn sent(&self) -> u64 {
        self.note(Call::Sent, Id::new(0));
        ProtocolDriver::sent(&self.inner)
    }
    fn fault_count(&self) -> u64 {
        ProtocolDriver::fault_count(&self.inner)
    }
}

#[test]
fn run_machine_churn_asks_its_driver_for_the_pinned_call_sequence() {
    // The benchmark's tracing driver (`benchmarks/src/driver.rs`) tells
    // set-up from the timed region by the first `drain_events` and one
    // window from the next by the drain after a query batch, so the
    // sequence of driver calls is part of `run_machine_churn`'s contract.
    let schedule = ChurnSchedule {
        join_rate: 0.01,
        crash_rate: 0.008,
        depart_rate: 0.002,
        repair: RepairPolicy::Reactive { neighbors_k: 2 },
        window_ticks: 500,
        query_budget: QueryBudget::Fixed(20),
        min_live: 8,
    };
    let mut driver = Recording {
        inner: des_for(&schedule, 42),
        trace: RefCell::new(Vec::new()),
    };
    let n = 64;
    let windows = run_machine_churn(
        &mut driver,
        &UniformKeys,
        &fleet(n),
        &schedule,
        2,
        SeedTree::new(42),
    )
    .unwrap();
    assert_eq!(windows.len(), 2);
    let trace = driver.trace.into_inner();

    // Bootstrap is everything before the first drain: the emptiness
    // check, n spawns, n-1 joins and n link builds, each settled.
    let first_drain = trace.iter().position(|&(c, _)| c == Call::Drain).unwrap();
    let boot = |call: Call| trace[..first_drain].iter().filter(|t| t.0 == call).count();
    assert_eq!(boot(Call::PeerIds), 1);
    assert_eq!(boot(Call::Spawn), n);
    assert_eq!(boot(Call::Join), n - 1);
    assert_eq!(boot(Call::BuildLinks), n);
    assert_eq!(boot(Call::Settle), 2 * n - 1);
    assert_eq!(first_drain, 1 + n + (n - 1) + n + (2 * n - 1));

    // FNV-1a over the whole `(call, peer)` sequence, recorded from the
    // last commit that had `churn_machine::churn_span` (d48cb94).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (call, peer) in &trace {
        for b in [*call as u64, *peer] {
            h = (h ^ b).wrapping_mul(0x100_0000_01b3);
        }
    }
    assert_eq!(
        (trace.len(), h),
        (1597, 17_356_956_766_548_230_633),
        "the driver-call sequence of run_machine_churn moved"
    );
}
