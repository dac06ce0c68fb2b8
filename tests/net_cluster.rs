//! Integration tests for the framed-TCP deployment: a 4-site cluster on
//! ephemeral loopback ports runs a real Montage workload, its registry
//! contents must match the in-process transport bit-for-bit (modulo
//! clock-stamped `created_at`), and shutdown must join every thread and
//! release every port.

use geometa::core::controller::ArchitectureController;
use geometa::core::protocol::RegistryRequest;
use geometa::core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa::core::strategy::StrategyKind;
use geometa::core::transport::{InProcessTransport, RegistryTransport};
use geometa::core::{ClientConfig, StrategyClient};
use geometa::net::loadgen::{run_stream, LoadOptions};
use geometa::net::TcpLayer;
use geometa::sim::time::SimDuration;
use geometa::sim::topology::{SiteId, Topology};
use geometa::workflow::apps::montage::{montage, MontageConfig};
use geometa::workflow::apps::ops::workflow_streams;
use geometa::workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One comparable entry: name, size, sorted (site, node) locations.
type EntryKey = (String, u64, Vec<(u16, u32)>);
/// Per-site registry contents with clock-dependent fields erased: the
/// comparable "result" of a workload run.
type SiteContents = BTreeMap<u16, Vec<EntryKey>>;

fn contents(registry_of: impl Fn(SiteId) -> Vec<geometa::core::RegistryEntry>) -> SiteContents {
    (0..4u16)
        .map(|s| {
            let mut entries: Vec<EntryKey> = registry_of(SiteId(s))
                .into_iter()
                .map(|e| {
                    let mut locs: Vec<(u16, u32)> =
                        e.locations.iter().map(|l| (l.site.0, l.node)).collect();
                    locs.sort_unstable();
                    (e.name.to_string(), e.size, locs)
                })
                .collect();
            entries.sort();
            (s, entries)
        })
        .collect()
}

fn montage_stream() -> geometa::workflow::apps::ops::OpStream {
    let w = montage(MontageConfig {
        tiles: 12,
        files_per_task: 3,
        compute: SimDuration::ZERO,
        ..MontageConfig::default()
    });
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
    let nodes = node_grid(&sites, 3);
    let placement = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
    workflow_streams(&w, &placement)
}

#[test]
fn tcp_cluster_matches_in_process_run_and_shuts_down_cleanly() {
    let kind = StrategyKind::DhtLocalReplica;
    let stream = montage_stream();
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();

    // Reference run: the zero-latency in-process transport.
    let reference = {
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(kind, sites.clone()));
        let report = run_stream(
            |site, node| {
                StrategyClient::new(
                    Arc::clone(&transport),
                    Arc::clone(&controller),
                    ClientConfig { site, node },
                )
            },
            &stream,
            &LoadOptions::default(),
        )
        .expect("in-process run completes");
        assert_eq!(report.total_ops as usize, stream.total_ops());
        contents(|s| transport.registry(s).unwrap().all_entries())
    };

    // Same workload over real TCP sockets on ephemeral loopback ports.
    let runtime = ServiceRuntime::start(
        RuntimeConfig {
            topology: Topology::azure_4dc(),
            kind,
            shards: 8,
            sync_interval: Duration::from_millis(5),
            ..RuntimeConfig::default()
        },
        TcpLayer::ephemeral(),
    );
    let addrs: Vec<std::net::SocketAddr> = {
        let map = runtime.layer().addrs();
        let mut pairs: Vec<_> = map.iter().map(|(s, a)| (*s, *a)).collect();
        pairs.sort_by_key(|(s, _)| *s);
        pairs.into_iter().map(|(_, a)| a).collect()
    };
    let transport = geometa::net::transport_for(&addrs, Duration::from_secs(10));
    let controller = Arc::new(ArchitectureController::with_kind(kind, sites.clone()));
    let report = run_stream(
        |site, node| {
            StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig { site, node },
            )
        },
        &stream,
        &LoadOptions::default(),
    )
    .expect("TCP run completes");
    assert_eq!(report.total_ops as usize, stream.total_ops());

    // Lazy pushes are written with their connection's next write and
    // served when the site gets to them; wait for quiescence, then demand
    // identical per-site contents.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let tcp = contents(|s| runtime.registry(s).unwrap().all_entries());
        if tcp == reference {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "TCP registry contents never converged to the in-process result"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Clean shutdown: every runtime thread joins (the reactor pool of
    // each of the 4 sites, each reactor owning its share of the
    // connections)…
    let pool = geometa::net::TcpConfig::default().resolved_reactors();
    drop(transport);
    let joined = runtime.shutdown();
    assert_eq!(joined, 4 * pool, "{pool} reactors per site");

    // …and the ports are actually released.
    for addr in addrs {
        TcpListener::bind(addr)
            .unwrap_or_else(|e| panic!("port {addr} still held after shutdown: {e}"));
    }
}

/// The reactor pool is a pure serving-capacity knob: the same workload
/// against a 1-reactor and a multi-reactor cluster must leave byte-equal
/// registry contents at every site (modulo clock-stamped fields, as
/// above). The pooled run drives its clients through as many transports
/// as there are reactors — one connection per site each — so every site
/// serves at least that many connections, spread over its reactors by
/// whichever wins each accept.
#[test]
fn reactor_pool_matches_single_reactor_contents() {
    let kind = StrategyKind::DhtLocalReplica;
    let stream = montage_stream();
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();

    let run_with = |pool: usize| -> SiteContents {
        let runtime = ServiceRuntime::start(
            RuntimeConfig {
                topology: Topology::azure_4dc(),
                kind,
                shards: 8,
                sync_interval: Duration::from_millis(5),
                ..RuntimeConfig::default()
            },
            geometa::net::TcpLayer::new(geometa::net::TcpConfig {
                reactors: pool,
                ..geometa::net::TcpConfig::default()
            }),
        );
        let addrs: Vec<std::net::SocketAddr> = {
            let map = runtime.layer().addrs();
            let mut pairs: Vec<_> = map.iter().map(|(s, a)| (*s, *a)).collect();
            pairs.sort_by_key(|(s, _)| *s);
            pairs.into_iter().map(|(_, a)| a).collect()
        };
        let transports: Vec<_> = (0..pool)
            .map(|_| geometa::net::transport_for(&addrs, Duration::from_secs(10)))
            .collect();
        let controller = Arc::new(ArchitectureController::with_kind(kind, sites.clone()));
        let report = run_stream(
            |site, node| {
                StrategyClient::new(
                    Arc::clone(&transports[node as usize % pool]),
                    Arc::clone(&controller),
                    ClientConfig { site, node },
                )
            },
            &stream,
            &LoadOptions::default(),
        )
        .expect("TCP run completes");
        assert_eq!(report.total_ops as usize, stream.total_ops());

        // Lazy pushes may still be in flight or unserved: wait for the
        // contents to stop changing (stable across several consecutive
        // samples).
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut last = contents(|s| runtime.registry(s).unwrap().all_entries());
        let mut stable = 0;
        while stable < 5 {
            assert!(
                Instant::now() < deadline,
                "registry contents never quiesced"
            );
            std::thread::sleep(Duration::from_millis(20));
            let now = contents(|s| runtime.registry(s).unwrap().all_entries());
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        for &site in &sites {
            let status = transports[0]
                .call(site, RegistryRequest::Status)
                .into_status()
                .expect("status");
            assert!(
                status.conns as usize >= pool,
                "{site} serves {} connections, fewer than {pool} transports",
                status.conns
            );
        }
        drop(transports);
        runtime.shutdown();
        last
    };

    let single = run_with(1);
    let pooled = run_with(3);
    assert_eq!(
        single, pooled,
        "reactor pool must not change registry contents"
    );
}

#[test]
fn ephemeral_clusters_do_not_collide() {
    // Two clusters side by side on OS-assigned ports: distinct addresses,
    // both serving.
    let a = ServiceRuntime::start(RuntimeConfig::default(), TcpLayer::ephemeral());
    let b = ServiceRuntime::start(RuntimeConfig::default(), TcpLayer::ephemeral());
    let addrs_a: Vec<_> = a.layer().addrs().values().copied().collect();
    for addr in &addrs_a {
        assert!(
            !b.layer().addrs().values().any(|x| x == addr),
            "clusters share {addr}"
        );
    }
    let ca = a.client(SiteId(0), 0);
    let cb = b.client(SiteId(0), 0);
    ca.publish("only-in-a", 1).unwrap();
    cb.publish("only-in-b", 1).unwrap();
    assert!(ca.resolve("only-in-b").is_err(), "clusters are isolated");
    assert!(cb.resolve("only-in-a").is_err());
    a.shutdown();
    b.shutdown();
}
