//! Quickstart: run a multi-site metadata cluster and use it.
//!
//! Starts the shipped deployment for the four-datacenter topology on this
//! machine (one framed-TCP registry server per site, on ephemeral loopback
//! ports), publishes file metadata from one site and resolves it from the
//! others.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use geometa::core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa::core::strategy::StrategyKind;
use geometa::net::TcpLayer;
use geometa::sim::topology::{SiteId, Topology};
use std::time::Duration;

fn main() {
    let topology = Topology::azure_4dc();
    println!(
        "Starting a loopback TCP cluster over {} datacenters:",
        topology.num_sites()
    );
    for site in topology.site_ids() {
        println!(
            "  {site} = {:<17} (centrality {:.1} ms)",
            topology.site(site).name,
            topology.centrality(site).as_secs_f64() * 1_000.0
        );
    }

    let cluster = ServiceRuntime::start(
        RuntimeConfig {
            topology,
            kind: StrategyKind::DhtLocalReplica,
            ..RuntimeConfig::default()
        },
        TcpLayer::ephemeral(),
    );

    // A workflow node in West Europe publishes its outputs.
    let writer = cluster.client(SiteId(0), 0);
    for i in 0..10 {
        writer
            .publish(&format!("results/part_{i}.dat"), 190 * 1024)
            .unwrap();
    }
    println!("\npublished 10 files from West Europe");

    // A co-located node resolves them instantly (local replica).
    let local_reader = cluster.client(SiteId(0), 1);
    let entry = local_reader.resolve("results/part_3.dat").unwrap();
    println!(
        "local resolve:  results/part_3.dat -> {} bytes at {:?}",
        entry.size, entry.locations
    );
    let stats = local_reader.stats().snapshot();
    println!(
        "local reader stats: {} local hit(s), {} remote read(s)",
        stats.local_read_hits, stats.remote_reads
    );

    // A node in South Central US resolves through the DHT owner (lazy
    // propagation may still be in flight, so retry briefly).
    let remote_reader = cluster.client(SiteId(3), 0);
    let entry = remote_reader
        .resolve_with_retry("results/part_7.dat", 100, |_| {
            std::thread::sleep(Duration::from_millis(1))
        })
        .unwrap();
    println!(
        "remote resolve: results/part_7.dat -> {} bytes, available at {} location(s)",
        entry.size,
        entry.locations.len()
    );

    // Strategies are hot-swappable through the architecture controller.
    cluster.controller().switch_kind(
        StrategyKind::Centralized,
        cluster.topology().site_ids().collect(),
    );
    writer
        .publish("results/final.dat", 8 * 1024 * 1024)
        .unwrap();
    let entry = remote_reader.resolve("results/final.dat").unwrap();
    println!(
        "\nswitched to {:?}; resolved results/final.dat ({} bytes) through the central registry",
        cluster.controller().kind(),
        entry.size
    );
    println!("strategy history: {:?}", cluster.controller().history());

    cluster.shutdown();
    println!("\ncluster shut down cleanly");
}
