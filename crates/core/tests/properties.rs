//! Property-based tests for the core middleware: codec totality, CRDT-style
//! merge laws, hashing invariants, and strategy plan invariants.

use geometa_core::consistency::merge_entries;
use geometa_core::controller::build_strategy;
use geometa_core::entry::{FileLocation, RegistryEntry};
use geometa_core::hash::{migration_fraction, ConsistentRing, Rendezvous, SitePlacer, UniformHash};
use geometa_core::strategy::StrategyKind;
use geometa_sim::topology::SiteId;
use proptest::prelude::*;

fn arb_location() -> impl Strategy<Value = FileLocation> {
    (0..8u16, any::<u32>()).prop_map(|(s, n)| FileLocation {
        site: SiteId(s),
        node: n,
    })
}

fn arb_entry() -> impl Strategy<Value = RegistryEntry> {
    (
        "[a-z0-9/_.]{1,40}",
        any::<u64>(),
        prop::collection::vec(arb_location(), 0..6),
        prop::option::of("[a-zA-Z0-9-]{1,20}"),
        any::<u64>(),
    )
        .prop_map(
            |(name, size, locations, producer, created_at)| RegistryEntry {
                name: name.into(),
                size,
                locations: locations.into_iter().collect(),
                producer: producer.map(Into::into),
                created_at,
            },
        )
}

/// Same-name variants of an entry (for merge laws).
fn arb_entry_family() -> impl Strategy<Value = (RegistryEntry, RegistryEntry, RegistryEntry)> {
    (
        "[a-z]{1,10}",
        any::<[u64; 3]>(),
        prop::collection::vec(arb_location(), 3..9),
    )
        .prop_map(|(name, ts, locs)| {
            let mk = |i: usize| RegistryEntry {
                name: name.as_str().into(),
                size: ts[i] % 1000,
                locations: locs[i * (locs.len() / 3)..(i + 1) * (locs.len() / 3)]
                    .iter()
                    .copied()
                    .collect(),
                producer: Some(format!("t{i}").into()),
                created_at: ts[i],
            };
            (mk(0), mk(1), mk(2))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every entry round-trips through the binary codec.
    #[test]
    fn codec_roundtrip(entry in arb_entry()) {
        let bytes = entry.to_bytes();
        prop_assert_eq!(bytes.len(), entry.encoded_len());
        let back = RegistryEntry::from_bytes(bytes).unwrap();
        prop_assert_eq!(back, entry);
    }

    /// The decoder never panics on arbitrary garbage — it errors.
    #[test]
    fn codec_rejects_garbage(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = RegistryEntry::from_bytes(bytes::Bytes::from(raw));
        // Reaching here without a panic is the property.
    }

    /// Truncating a valid encoding anywhere yields an error, not a panic.
    #[test]
    fn codec_rejects_truncation(entry in arb_entry(), cut_frac in 0.0f64..1.0) {
        let full = entry.to_bytes();
        let cut = ((full.len() as f64) * cut_frac) as usize;
        if cut < full.len() {
            prop_assert!(RegistryEntry::from_bytes(full.slice(0..cut)).is_err());
        }
    }

    /// Merge is commutative, associative and idempotent (location sets can
    /// then propagate in any order and still converge).
    #[test]
    fn merge_laws((a, b, c) in arb_entry_family()) {
        let ab = merge_entries(&a, &b);
        let ba = merge_entries(&b, &a);
        prop_assert_eq!(&ab, &ba, "commutativity");
        let ab_c = merge_entries(&ab, &c);
        let a_bc = merge_entries(&a, &merge_entries(&b, &c));
        prop_assert_eq!(&ab_c, &a_bc, "associativity");
        let aa = merge_entries(&a, &a);
        prop_assert_eq!(merge_entries(&aa, &a), aa.clone(), "idempotence");
        // Merge never loses a location.
        for loc in a.locations.iter().chain(b.locations.iter()) {
            prop_assert!(ab.locations.contains(loc), "lost location {loc:?}");
        }
    }

    /// Every placer is deterministic and in-range for arbitrary keys.
    #[test]
    fn placers_deterministic_in_range(keys in prop::collection::vec("[a-z0-9]{1,24}", 1..50), n_sites in 1..8usize) {
        let sites: Vec<SiteId> = (0..n_sites as u16).map(SiteId).collect();
        let placers: Vec<Box<dyn SitePlacer>> = vec![
            Box::new(UniformHash::new(sites.clone())),
            Box::new(ConsistentRing::new(sites.clone(), 64)),
            Box::new(Rendezvous::new(sites.clone())),
        ];
        for p in &placers {
            for k in &keys {
                let o = p.owner(k);
                prop_assert!(sites.contains(&o));
                prop_assert_eq!(o, p.owner(k));
            }
        }
    }

    /// Ring membership change moves only a bounded fraction of keys, and
    /// every moved key moves to the new site.
    #[test]
    fn ring_migration_is_minimal(n_sites in 2..7usize, new_site in 100..110u16) {
        let keys: Vec<String> = (0..4000).map(|i| format!("key{i}")).collect();
        let sites: Vec<SiteId> = (0..n_sites as u16).map(SiteId).collect();
        let before = ConsistentRing::new(sites, 64);
        let mut after = before.clone();
        after.add_site(SiteId(new_site));
        let frac = migration_fraction(&before, &after, &keys);
        let ideal = 1.0 / (n_sites as f64 + 1.0);
        prop_assert!(frac < ideal * 2.0, "migration {frac} vs ideal {ideal}");
        for k in &keys {
            if before.owner(k) != after.owner(k) {
                prop_assert_eq!(after.owner(k), SiteId(new_site));
            }
        }
    }

    /// Strategy plan invariants, for every strategy, key and origin:
    /// reads probe at least one site;
    /// DR probes the local site first; every plan stays within registry
    /// sites.
    #[test]
    fn strategy_plan_invariants(key in "[a-z0-9/]{1,30}", origin in 0..4u16) {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let origin = SiteId(origin);
        for kind in StrategyKind::all() {
            let s = build_strategy(kind, sites.clone());
            let wp = s.write_plan(&key, origin);
            let registry_sites = s.registry_sites();
            for t in wp.all_targets() {
                prop_assert!(registry_sites.contains(&t), "{}", kind);
            }
            let rp = s.read_plan(&key, origin);
            prop_assert!(!rp.probes.is_empty(), "{}", kind);
            for t in &rp.probes {
                prop_assert!(registry_sites.contains(t), "{}", kind);
            }
            match kind {
                StrategyKind::DhtLocalReplica => {
                    prop_assert_eq!(rp.probes[0], origin, "DR reads local first");
                    prop_assert_eq!(wp.sync_target, origin, "DR writes complete locally");
                }
                StrategyKind::Replicated => {
                    prop_assert_eq!(rp.probes.clone(), vec![origin]);
                    prop_assert_eq!(wp.sync_target, origin);
                    prop_assert!(wp.async_targets.is_empty(), "agent propagates, not the client");
                }
                StrategyKind::Centralized => {
                    prop_assert_eq!(rp.probes[0], wp.sync_target, "reads go where writes go");
                }
                StrategyKind::DhtNonReplicated => {
                    prop_assert_eq!(rp.probes.clone(), vec![wp.sync_target], "owner serves both");
                }
            }
        }
    }

    /// A write followed by a read through the same strategy's plans always
    /// finds the entry (read-your-writes through the plan algebra): the
    /// read probe list intersects the write targets.
    #[test]
    fn read_plans_cover_write_plans(key in "[a-z0-9]{1,20}", origin in 0..4u16, reader in 0..4u16) {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        for kind in StrategyKind::all() {
            if kind == StrategyKind::Replicated {
                continue; // coverage comes from the sync agent, not the plan
            }
            let s = build_strategy(kind, sites.clone());
            let wp = s.write_plan(&key, SiteId(origin));
            let rp = s.read_plan(&key, SiteId(reader));
            let write_sites: Vec<SiteId> = wp.all_targets().collect();
            prop_assert!(
                rp.probes.iter().any(|p| write_sites.contains(p)),
                "{}: read probes {:?} never reach write sites {:?}",
                kind, rp.probes, write_sites
            );
        }
    }
}
