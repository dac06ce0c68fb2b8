//! Integration tests for a running cluster (real threads, real time, a
//! loopback TCP cluster on ephemeral ports): every strategy end-to-end,
//! concurrent multi-site clients, runtime strategy switching, failure
//! injection under load, and clean shutdown.

use geometa::core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa::core::strategy::StrategyKind;
use geometa::core::MetaError;
use geometa::net::TcpLayer;
use geometa::sim::topology::SiteId;
use std::time::Duration;

fn start(kind: StrategyKind) -> ServiceRuntime<TcpLayer> {
    ServiceRuntime::start(
        RuntimeConfig {
            kind,
            shards: 8,
            sync_interval: Duration::from_millis(2),
            ..RuntimeConfig::default()
        },
        TcpLayer::ephemeral(),
    )
}

#[test]
fn every_strategy_serves_cross_site_reads() {
    for kind in StrategyKind::all() {
        let cluster = start(kind);
        let writer = cluster.client(SiteId(1), 0);
        for i in 0..30 {
            writer.publish(&format!("x/{i}"), 64).unwrap();
        }
        let reader = cluster.client(SiteId(2), 0);
        for i in 0..30 {
            let res = reader.resolve_with_retry(&format!("x/{i}"), 400, |_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            assert!(res.is_ok(), "{kind:?}: x/{i} unreachable: {res:?}");
        }
        cluster.shutdown();
    }
}

#[test]
fn concurrent_writers_merge_locations() {
    let cluster = start(StrategyKind::Centralized);
    std::thread::scope(|s| {
        for site in 0..4u16 {
            let c = cluster.client(SiteId(site), site as u32);
            s.spawn(move || {
                for _ in 0..10 {
                    c.publish("shared/replicated-file", 1024).unwrap();
                }
            });
        }
    });
    let reader = cluster.client(SiteId(0), 99);
    let entry = reader.resolve("shared/replicated-file").unwrap();
    // All four sites must appear as locations (location-set union).
    for site in 0..4u16 {
        assert!(
            entry.available_at(SiteId(site)),
            "location for site {site} lost in concurrent merge: {:?}",
            entry.locations
        );
    }
    cluster.shutdown();
}

#[test]
fn strategy_switch_under_load() {
    let cluster = start(StrategyKind::Centralized);
    let sites: Vec<SiteId> = cluster.topology().site_ids().collect();
    std::thread::scope(|s| {
        for (i, &site) in sites.iter().enumerate() {
            let cluster = &cluster;
            s.spawn(move || {
                let c = cluster.client(site, 0);
                for j in 0..40 {
                    c.publish(&format!("sw/{i}/{j}"), 32).unwrap();
                }
            });
        }
        // Flip strategies while writers run.
        std::thread::sleep(Duration::from_millis(3));
        cluster
            .controller()
            .switch_kind(StrategyKind::DhtLocalReplica, sites.clone());
    });
    // Every file written before or after the switch is resolvable by
    // somebody: pre-switch files live at the old home; post-switch per DR.
    // A reader under the CURRENT strategy finds at least the post-switch
    // share; the history must record both strategies.
    assert_eq!(
        cluster.controller().history(),
        vec![StrategyKind::Centralized, StrategyKind::DhtLocalReplica]
    );
    let total: usize = sites
        .iter()
        .map(|&s| cluster.registry(s).unwrap().len())
        .sum();
    assert!(
        total >= 160,
        "all 160 writes must be stored somewhere, found {total}"
    );
    cluster.shutdown();
}

#[test]
fn registry_failover_under_live_load() {
    let cluster = start(StrategyKind::DhtNonReplicated);
    let writer = cluster.client(SiteId(0), 0);
    for i in 0..60 {
        writer.publish(&format!("ha/{i}"), 8).unwrap();
    }
    // Kill the primary cache of every registry instance.
    for site in cluster.topology().site_ids() {
        cluster.registry(site).unwrap().fail_primary();
    }
    // Everything stays readable (replica promotion inside each instance).
    let reader = cluster.client(SiteId(3), 0);
    for i in 0..60 {
        assert!(
            reader.resolve(&format!("ha/{i}")).is_ok(),
            "ha/{i} lost after failover"
        );
    }
    cluster.shutdown();
}

#[test]
fn unpublish_is_visible_across_sites() {
    let cluster = start(StrategyKind::Centralized);
    let w = cluster.client(SiteId(0), 0);
    w.publish("temp/scratch", 1).unwrap();
    let r = cluster.client(SiteId(2), 0);
    assert!(r.resolve("temp/scratch").is_ok());
    w.unpublish("temp/scratch").unwrap();
    assert_eq!(r.resolve("temp/scratch"), Err(MetaError::NotFound));
    cluster.shutdown();
}

#[test]
fn stats_reflect_strategy_semantics() {
    let cluster = start(StrategyKind::DhtLocalReplica);
    let c = cluster.client(SiteId(1), 0);
    for i in 0..40 {
        c.publish(&format!("st/{i}"), 4).unwrap();
    }
    for i in 0..40 {
        c.resolve(&format!("st/{i}")).unwrap();
    }
    let snap = c.stats().snapshot();
    assert_eq!(snap.local_writes, 40, "DR writes complete locally");
    assert_eq!(
        snap.local_read_hits, 40,
        "writer's own reads hit the local replica"
    );
    assert_eq!(snap.remote_writes, 0);
    // Roughly 3/4 of keys hash to a remote owner -> async pushes.
    assert!(snap.async_pushes > 10, "async pushes {}", snap.async_pushes);
    cluster.shutdown();
}

#[test]
fn concurrent_clients_many_sites() {
    let cluster = start(StrategyKind::DhtNonReplicated);
    std::thread::scope(|s| {
        for site in 0..4u16 {
            let cluster = &cluster;
            s.spawn(move || {
                let c = cluster.client(SiteId(site), 0);
                for i in 0..25 {
                    c.publish(&format!("s{site}-f{i}"), 1).unwrap();
                }
                for i in 0..25 {
                    c.resolve(&format!("s{site}-f{i}")).unwrap();
                }
            });
        }
    });
    let total: usize = (0..4)
        .map(|s| cluster.registry(SiteId(s)).unwrap().len())
        .sum();
    assert_eq!(total, 100, "DHT partitioning stores each entry once");
    cluster.shutdown();
}

#[test]
fn injected_registry_failure_promotes_without_losing_acked_writes() {
    let cluster = start(StrategyKind::DhtNonReplicated);
    let w = cluster.client(SiteId(0), 0);
    for i in 0..40 {
        w.publish(&format!("pre{i}"), 1).unwrap();
    }
    // Kill every registry's primary mid-run (worst case).
    for s in 0..4u16 {
        assert!(cluster.inject_registry_failure(SiteId(s)));
    }
    assert!(!cluster.inject_registry_failure(SiteId(9)), "unknown site");
    // Every acked write still resolves (promotion served it), and new
    // writes keep flowing through the promoted stores.
    for i in 0..40 {
        assert!(
            w.resolve(&format!("pre{i}")).is_ok(),
            "pre{i} lost to the injected failure"
        );
    }
    for i in 0..40 {
        w.publish(&format!("post{i}"), 1).unwrap();
        assert!(w.resolve(&format!("post{i}")).is_ok());
    }
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_via_drop() {
    let cluster = start(StrategyKind::Replicated);
    let c = cluster.client(SiteId(0), 0);
    c.publish("x", 1).unwrap();
    drop(cluster); // Drop path must join all threads without hanging.
}
