//! Elasticity end-to-end: grow and shrink the deployment while keeping
//! every entry resolvable — the §VIII "server volatility" scenario that
//! motivates consistent hashing + idempotent absorbs.

use geometa::core::controller::ArchitectureController;
use geometa::core::hash::{ConsistentRing, SitePlacer};
use geometa::core::rebalance::{apply_rebalance, plan_rebalance};
use geometa::core::registry::RegistryInstance;
use geometa::core::strategy::{DhtNonReplicated, MetadataStrategy};
use geometa::core::transport::InProcessTransport;
use geometa::core::{ClientConfig, FxHashMap, StrategyClient};
use geometa::sim::topology::SiteId;
use std::sync::Arc;

fn registries(sites: &[SiteId]) -> FxHashMap<SiteId, Arc<RegistryInstance>> {
    sites
        .iter()
        .map(|&s| (s, Arc::new(RegistryInstance::new(s, 8))))
        .collect()
}

#[test]
fn grow_from_4_to_5_sites_without_losing_entries() {
    let sites4: Vec<SiteId> = (0..4).map(SiteId).collect();
    let sites5: Vec<SiteId> = (0..5).map(SiteId).collect();
    let ring4 = ConsistentRing::new(sites4.clone(), 64);
    let mut ring5 = ring4.clone();
    ring5.add_site(SiteId(4));

    // Populate through the DHT strategy over 4 sites.
    let transport = Arc::new(InProcessTransport::new(&sites5, 8)); // site 4 exists but is idle
    let controller = Arc::new(ArchitectureController::new(Arc::new(
        DhtNonReplicated::new(Arc::new(ring4.clone()) as Arc<dyn SitePlacer>),
    )));
    let client = StrategyClient::new(
        Arc::clone(&transport),
        Arc::clone(&controller),
        ClientConfig {
            site: SiteId(0),
            node: 0,
        },
    );
    for i in 0..800 {
        client.publish(&format!("grow/f{i}"), 64).unwrap();
    }

    // Rebalance onto the 5-site ring, then switch the strategy.
    let reg_map: FxHashMap<SiteId, Arc<RegistryInstance>> = sites5
        .iter()
        .map(|&s| (s, Arc::clone(transport.registry(s).unwrap())))
        .collect();
    let moves = plan_rebalance(&ring4, &ring5, &reg_map);
    assert!(!moves.is_empty(), "some keys must migrate to the new site");
    let moved = apply_rebalance(&moves, &reg_map).unwrap();
    assert_eq!(moved, moves.len());
    controller.switch(Arc::new(DhtNonReplicated::new(
        Arc::new(ring5.clone()) as Arc<dyn SitePlacer>
    )));

    // Every entry is resolvable under the new placement, and the new site
    // actually carries load.
    for i in 0..800 {
        assert!(
            client.resolve(&format!("grow/f{i}")).is_ok(),
            "grow/f{i} lost in scale-out"
        );
    }
    assert!(
        transport.registry(SiteId(4)).unwrap().len() > 50,
        "new site should own a meaningful share"
    );
}

#[test]
fn shrink_from_4_to_3_sites_without_losing_entries() {
    let sites4: Vec<SiteId> = (0..4).map(SiteId).collect();
    let ring4 = ConsistentRing::new(sites4.clone(), 64);
    let mut ring3 = ring4.clone();
    ring3.remove_site(SiteId(3));

    let reg_map = registries(&sites4);
    // Populate directly at owners under the 4-site ring.
    for i in 0..600 {
        let name = format!("shrink/f{i}");
        let owner = ring4.owner(&name);
        reg_map[&owner]
            .put(
                &geometa::core::entry::RegistryEntry::new(
                    &name,
                    1,
                    geometa::core::entry::FileLocation {
                        site: owner,
                        node: 0,
                    },
                    i + 1,
                ),
                i + 1,
            )
            .unwrap();
    }

    // Evacuate the departing site.
    let moves = plan_rebalance(&ring4, &ring3, &reg_map);
    apply_rebalance(&moves, &reg_map).unwrap();

    // Everything resolvable via the 3-site ring without touching site 3.
    for i in 0..600 {
        let name = format!("shrink/f{i}");
        let owner = ring3.owner(&name);
        assert_ne!(owner, SiteId(3));
        assert!(
            reg_map[&owner].get(&name).is_ok(),
            "{name} lost in scale-in"
        );
    }
}

#[test]
fn strategy_switch_after_rebalance_routes_to_new_owner() {
    // Use the uniform mod-hash to show WHY the ring matters: the same
    // grow operation moves most keys under mod-hash.
    use geometa::core::hash::{migration_fraction, UniformHash};
    let keys: Vec<String> = (0..5_000).map(|i| format!("k{i}")).collect();
    let ring_moved = {
        let before = ConsistentRing::new((0..4).map(SiteId).collect(), 64);
        let mut after = before.clone();
        after.add_site(SiteId(4));
        migration_fraction(&before, &after, &keys)
    };
    let mod_moved = {
        let before = UniformHash::new((0..4).map(SiteId).collect());
        let after = UniformHash::new((0..5).map(SiteId).collect());
        migration_fraction(&before, &after, &keys)
    };
    assert!(
        ring_moved < mod_moved / 2.0,
        "ring ({ring_moved:.2}) must migrate far less than mod-hash ({mod_moved:.2})"
    );
}

#[test]
fn dht_strategy_follows_ring_updates() {
    // A DhtNonReplicated built on a ring routes to whatever the ring says;
    // after a controller switch, plans reflect the new membership.
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
    let ring = ConsistentRing::new(sites.clone(), 64);
    let strat = DhtNonReplicated::new(Arc::new(ring.clone()) as Arc<dyn SitePlacer>);
    let mut grown = ring.clone();
    grown.add_site(SiteId(4));
    let strat5 = DhtNonReplicated::new(Arc::new(grown.clone()) as Arc<dyn SitePlacer>);
    let mut changed = 0;
    for i in 0..1_000 {
        let key = format!("k{i}");
        let a = strat.write_plan(&key, SiteId(0)).sync_target;
        let b = strat5.write_plan(&key, SiteId(0)).sync_target;
        if a != b {
            changed += 1;
            assert_eq!(b, SiteId(4));
        }
    }
    assert!(changed > 50, "the new site must receive a share of plans");
}
