//! Elastic rebalancing: metadata migration when sites join or leave.
//!
//! The paper's related-work section (§VIII) faults classic schemes for
//! their behaviour under elasticity — "a high volatility of metadata
//! servers ... is the norm in the nowadays elastic clouds" — and answers
//! with consistent hashing plus lazy, eventually consistent updates. This
//! module completes that story: given the placement *before* and *after* a
//! membership change, [`plan_rebalance`] lists exactly the entries whose
//! owner moved (≈ 1/n of them under a [`ConsistentRing`]), and
//! [`apply_rebalance`] copies them to their new owners using the same
//! idempotent absorb path as every other propagation.
//!
//! [`ConsistentRing`]: crate::hash::ConsistentRing

use crate::entry::RegistryEntry;
use crate::hash::SitePlacer;
use crate::registry::RegistryInstance;
use crate::MetaError;
use geometa_cache::FxHashMap;
use geometa_sim::topology::SiteId;
use std::sync::Arc;

/// One required metadata movement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Move {
    /// The entry to copy.
    pub entry: RegistryEntry,
    /// Site that owned it under the old placement.
    pub from: SiteId,
    /// Site that owns it under the new placement.
    pub to: SiteId,
}

/// Compute the moves a membership change requires: every entry whose hash
/// owner changed between `before` and `after`.
///
/// Only entries stored at their *owner* site are considered — local
/// replicas (the DR strategy's) stay where they are; they were placed by
/// origin, not by hash.
pub fn plan_rebalance(
    before: &dyn SitePlacer,
    after: &dyn SitePlacer,
    registries: &FxHashMap<SiteId, Arc<RegistryInstance>>,
) -> Vec<Move> {
    let mut moves = Vec::new();
    // Iterate sites in id order: the move plan's order is observable (it
    // drives transfer scheduling), so it must not depend on hash order.
    let mut sites: Vec<(&SiteId, &Arc<RegistryInstance>)> = registries.iter().collect();
    sites.sort_by_key(|(site, _)| **site);
    for (&site, registry) in sites {
        for entry in registry.all_entries() {
            let old_owner = before.owner(&entry.name);
            if old_owner != site {
                continue; // a local replica, not the authoritative copy
            }
            let new_owner = after.owner(&entry.name);
            if new_owner != site {
                moves.push(Move {
                    entry,
                    from: site,
                    to: new_owner,
                });
            }
        }
    }
    // Name order, not hash order.
    moves.sort_by(|a, b| a.entry.name.cmp(&b.entry.name));
    moves
}

/// Apply a rebalance plan: absorb every moved entry at its new owner.
///
/// Copies are absorbed (idempotent, origin-timestamped), so a crashed and
/// re-run rebalance converges to the same state. The old copies are left
/// in place — under eventual consistency a stale extra replica is
/// harmless and avoids a delete/lookup race; callers that want space back
/// can remove them once the new placement is live.
pub fn apply_rebalance(
    moves: &[Move],
    registries: &FxHashMap<SiteId, Arc<RegistryInstance>>,
) -> Result<usize, MetaError> {
    for m in moves {
        let target = registries.get(&m.to).ok_or(MetaError::Unavailable)?;
        target.absorb(&m.entry)?;
    }
    Ok(moves.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;
    use crate::hash::ConsistentRing;

    fn setup(
        n_sites: u16,
        entries: usize,
    ) -> (ConsistentRing, FxHashMap<SiteId, Arc<RegistryInstance>>) {
        let sites: Vec<SiteId> = (0..n_sites).map(SiteId).collect();
        let ring = ConsistentRing::new(sites.clone(), 64);
        let registries: FxHashMap<SiteId, Arc<RegistryInstance>> = sites
            .iter()
            .map(|&s| (s, Arc::new(RegistryInstance::new(s, 8))))
            .collect();
        for i in 0..entries {
            let name = format!("f{i}");
            let owner = ring.owner(&name);
            registries[&owner]
                .put(
                    &RegistryEntry::new(
                        &name,
                        1,
                        FileLocation {
                            site: owner,
                            node: 0,
                        },
                        i as u64 + 1,
                    ),
                    i as u64 + 1,
                )
                .unwrap();
        }
        (ring, registries)
    }

    #[test]
    fn adding_a_site_moves_about_one_fifth() {
        let (ring, registries) = setup(4, 2_000);
        let mut grown = ring.clone();
        grown.add_site(SiteId(4));
        let moves = plan_rebalance(&ring, &grown, &registries);
        let frac = moves.len() as f64 / 2_000.0;
        assert!((0.10..0.32).contains(&frac), "moved fraction {frac}");
        for m in &moves {
            assert_eq!(m.to, SiteId(4), "additions only pull keys to the new site");
        }
    }

    #[test]
    fn applied_rebalance_makes_new_owners_authoritative() {
        let (ring, mut registries) = setup(4, 500);
        let mut grown = ring.clone();
        grown.add_site(SiteId(4));
        registries.insert(SiteId(4), Arc::new(RegistryInstance::new(SiteId(4), 8)));
        let moves = plan_rebalance(&ring, &grown, &registries);
        let n = apply_rebalance(&moves, &registries).unwrap();
        assert_eq!(n, moves.len());
        // Every key is now resolvable at its NEW owner.
        for i in 0..500 {
            let name = format!("f{i}");
            let owner = grown.owner(&name);
            assert!(
                registries[&owner].get(&name).is_ok(),
                "{name} missing at new owner {owner}"
            );
        }
    }

    #[test]
    fn removing_a_site_evacuates_exactly_its_keys() {
        let (ring, registries) = setup(4, 1_000);
        let mut shrunk = ring.clone();
        shrunk.remove_site(SiteId(2));
        let moves = plan_rebalance(&ring, &shrunk, &registries);
        for m in &moves {
            assert_eq!(m.from, SiteId(2), "only the removed site's keys move");
            assert_ne!(m.to, SiteId(2));
        }
        assert_eq!(moves.len(), registries[&SiteId(2)].len());
    }

    #[test]
    fn rebalance_is_idempotent() {
        let (ring, mut registries) = setup(4, 300);
        let mut grown = ring.clone();
        grown.add_site(SiteId(4));
        registries.insert(SiteId(4), Arc::new(RegistryInstance::new(SiteId(4), 8)));
        let moves = plan_rebalance(&ring, &grown, &registries);
        apply_rebalance(&moves, &registries).unwrap();
        let before = registries[&SiteId(4)].len();
        apply_rebalance(&moves, &registries).unwrap(); // re-run (crash recovery)
        assert_eq!(registries[&SiteId(4)].len(), before, "absorb is idempotent");
    }

    #[test]
    fn no_membership_change_means_no_moves() {
        let (ring, registries) = setup(4, 400);
        let moves = plan_rebalance(&ring, &ring.clone(), &registries);
        assert!(moves.is_empty());
    }

    #[test]
    fn missing_target_registry_errors() {
        let (ring, registries) = setup(4, 100);
        let mut grown = ring.clone();
        grown.add_site(SiteId(9)); // no registry instance created for it
        let moves = plan_rebalance(&ring, &grown, &registries);
        if !moves.is_empty() {
            assert_eq!(
                apply_rebalance(&moves, &registries),
                Err(MetaError::Unavailable)
            );
        }
    }
}
