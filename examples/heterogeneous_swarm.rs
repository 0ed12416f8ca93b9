//! Heterogeneous swarm: wildly different per-peer link budgets.
//!
//! Peers declare how many links they are willing to carry (dial-up peers a
//! handful, university mirrors hundreds); Oscar must respect every budget
//! while still exploiting the donated capacity. This example builds such a
//! swarm, verifies no budget is exceeded, and reports utilisation by
//! capacity class — the Figure 1(b) story at example scale.
//!
//! Run with:
//! ```sh
//! cargo run --release --example heterogeneous_swarm
//! ```

use oscar::prelude::*;

fn main() -> Result<()> {
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 99);

    println!("growing a 1000-peer swarm with spiky (realistic) degree budgets...");
    overlay.grow_to(1000, &GnutellaKeys::default(), &SpikyDegrees::paper())?;
    let net = overlay.network();

    // --- Hard guarantee: nobody carries more than they volunteered. ---
    let mut violations = 0;
    for p in net.all_peers() {
        let peer = net.peer(p);
        if peer.in_degree() > peer.caps.rho_in || peer.out_degree() > peer.caps.rho_out {
            violations += 1;
        }
    }
    println!("budget violations: {violations} (must be 0)");
    assert_eq!(violations, 0);

    // --- Utilisation by capacity class. ---
    let mut classes: Vec<(&str, u32, u32, u64, u64)> = vec![
        ("weak   (rho_in <= 10)", 0, 10, 0, 0),
        ("normal (11..=32)", 11, 32, 0, 0),
        ("strong (33..=64)", 33, 64, 0, 0),
        ("hub    (>= 65)", 65, u32::MAX, 0, 0),
    ];
    for p in net.live_peers() {
        let peer = net.peer(p);
        for class in classes.iter_mut() {
            if (class.1..=class.2).contains(&peer.caps.rho_in) {
                class.3 += peer.in_degree() as u64;
                class.4 += peer.caps.rho_in as u64;
            }
        }
    }
    println!("\nutilisation by capacity class:");
    for (label, _, _, used, cap) in &classes {
        if *cap > 0 {
            println!(
                "  {label:<24} {used:>6} / {cap:>6} links  ({:.1}%)",
                100.0 * *used as f64 / *cap as f64
            );
        }
    }
    println!(
        "\ntotal degree-volume utilisation: {:.1}% (paper reports ~85% at 10k peers)",
        100.0 * net.degree_volume_utilization()
    );

    // --- And it still routes well. ---
    let stats = overlay.run_queries(&QueryWorkload::UniformPeers, 1000);
    println!(
        "search: mean {:.2}, p95 {:.0}, success {:.1}%",
        stats.mean_cost,
        stats.p95_cost,
        stats.success_rate * 100.0
    );
    Ok(())
}
