//! Eventual-consistency machinery: entry merging.
//!
//! The middleware favours availability: writes complete locally and
//! propagate lazily (paper §III-D). When the same key is written at two
//! sites, replicas must still converge — we merge entries with a
//! deterministic, commutative, associative rule (location-set union plus
//! last-writer-wins on scalar fields), so the final state is independent of
//! delivery order.

use crate::entry::RegistryEntry;

/// Merge two versions of the same entry into their least upper bound.
///
/// Every field is joined independently, so the merge is a true join
/// semilattice — commutative, associative, idempotent (verified by
/// property tests) — which is what lets replicas absorb updates in any
/// delivery order and still converge:
///
/// * locations: set union (a file gains replicas, never silently loses
///   them);
/// * `created_at`: the earliest creation, preserving provenance;
/// * size / producer: per-field maximum. Workflow files are write-once
///   (paper §II-A), so two writes of one key normally only differ in
///   their location; a genuine scalar conflict is exceptional and any
///   deterministic order-independent rule is acceptable — max is the
///   simplest one that stays a semilattice.
pub fn merge_entries(existing: &RegistryEntry, incoming: &RegistryEntry) -> RegistryEntry {
    debug_assert_eq!(existing.name, incoming.name, "merging different keys");
    let mut merged = RegistryEntry {
        name: existing.name.clone(),
        size: existing.size.max(incoming.size),
        locations: existing.locations.clone(),
        producer: existing.producer.clone().max(incoming.producer.clone()),
        created_at: existing.created_at.min(incoming.created_at),
    };
    for loc in &incoming.locations {
        merged.add_location(*loc);
    }
    merged.locations.sort();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;
    use geometa_sim::topology::SiteId;

    fn entry(name: &str, site: u16, node: u32, at: u64) -> RegistryEntry {
        RegistryEntry::new(
            name,
            100,
            FileLocation {
                site: SiteId(site),
                node,
            },
            at,
        )
    }

    #[test]
    fn merge_unions_locations() {
        let a = entry("f", 0, 1, 10);
        let b = entry("f", 2, 5, 20);
        let m = merge_entries(&a, &b);
        assert_eq!(m.locations.len(), 2);
        assert!(m.available_at(SiteId(0)));
        assert!(m.available_at(SiteId(2)));
        assert_eq!(m.created_at, 10, "earliest creation wins");
    }

    #[test]
    fn merge_is_commutative() {
        let a = entry("f", 0, 1, 10).with_producer("t1");
        let b = entry("f", 2, 5, 20).with_producer("t2");
        let ab = merge_entries(&a, &b);
        let ba = merge_entries(&b, &a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = entry("f", 0, 1, 10);
        let b = entry("f", 1, 2, 20);
        let c = entry("f", 2, 3, 30);
        let left = merge_entries(&merge_entries(&a, &b), &c);
        let right = merge_entries(&a, &merge_entries(&b, &c));
        assert_eq!(left, right);
    }

    #[test]
    fn merge_is_idempotent() {
        let a = entry("f", 0, 1, 10).with_producer("t");
        let m = merge_entries(&a, &a);
        assert_eq!(m, {
            let mut x = a.clone();
            x.locations.sort();
            x
        });
    }

    #[test]
    fn newer_write_wins_scalars() {
        let mut old = entry("f", 0, 1, 10);
        old.size = 100;
        let mut new = entry("f", 1, 2, 20);
        new.size = 999;
        let m = merge_entries(&old, &new);
        assert_eq!(m.size, 999);
        let m2 = merge_entries(&new, &old);
        assert_eq!(m2.size, 999);
    }
}
