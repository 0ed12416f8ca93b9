//! File-sharing index: the scenario that motivates Oscar.
//!
//! A Gnutella-style network indexes file names *order-preservingly* so
//! that prefix and range queries touch contiguous peers. This example
//! builds the index, then runs point lookups and a prefix (range) scan,
//! showing which peers own which lexical ranges.
//!
//! Run with:
//! ```sh
//! cargo run --release --example file_sharing_index
//! ```

use oscar::keydist::{encode_filename_key, GnutellaKeys};
use oscar::prelude::*;
use oscar::sim::{route_to_owner, RoutePolicy};

fn main() -> Result<()> {
    let corpus = GnutellaKeys::default();
    let builder = OscarBuilder::new(OscarConfig::default());
    let mut overlay = Overlay::new(builder, FaultModel::StabilizedRing, 7);

    println!("indexing a synthetic Gnutella filename corpus across 800 peers...");
    overlay.grow_to(800, &corpus, &SpikyDegrees::paper())?;

    // --- Point lookups: find the peer responsible for a file name. ---
    let mut rng = SeedTree::new(123).rng();
    println!("\npoint lookups:");
    for _ in 0..5 {
        let filename = corpus.sample_filename(&mut rng);
        let key = encode_filename_key(&filename);
        let src = overlay
            .network()
            .random_live_peer(&mut rng)
            .expect("network is non-empty");
        let outcome = route_to_owner(overlay.network(), src, key, &RoutePolicy::default());
        let owner = outcome.dest.expect("fault-free routing succeeds");
        println!(
            "  {:<28} -> peer at ring position {} in {} hops",
            filename,
            overlay.network().peer(owner).id,
            outcome.hops
        );
    }

    // --- Prefix scan: all indexed names in a lexical range. ---
    // Because the encoding preserves order, the owners of ["m", "n") are a
    // contiguous arc of the ring; `range_scan` routes to the range start
    // and walks successors to the range end.
    let lo = encode_filename_key("m");
    let hi = encode_filename_key("n");
    let src = overlay.network().random_live_peer(&mut rng).unwrap();
    let scan = oscar::core::range_scan(overlay.network(), src, lo, hi, &RoutePolicy::default());
    println!(
        "\nprefix scan 'm*': entry cost {} hops, then {} contiguous owner peers cover the range \
         ({} total messages)",
        scan.entry.hops,
        scan.owners.len(),
        scan.cost()
    );
    println!(
        "(the range holds {:.1}% of peers — files starting with 'm' are popular, \
         and Oscar's partitions adapt to exactly that skew)",
        100.0 * scan.owners.len() as f64 / overlay.network().live_count() as f64
    );
    Ok(())
}
