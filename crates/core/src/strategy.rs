//! The four metadata-management strategies of the paper (§IV).
//!
//! Each strategy answers two questions for a key and an origin site:
//! *where must a write go* ([`WritePlan`]) and *where should a read look*
//! ([`ReadPlan`]). Everything else — transports, queueing, propagation —
//! is shared machinery.
//!
//! | Strategy | paper §IV | registry layout | sync agent |
//! |---|---|---|---|
//! | [`Centralized`] | A (baseline) | 1 instance, one site | no |
//! | [`Replicated`] | B | 1 instance per site, identical contents | yes |
//! | [`DhtNonReplicated`] | C | 1 instance per site, hash-partitioned | no |
//! | [`DhtLocalReplica`] | D | partitioned + a local replica per entry | no |

use crate::hash::SitePlacer;
use crate::plan::{ReadPlan, WritePlan};
use geometa_cache::Key;
use geometa_sim::topology::SiteId;
use std::sync::Arc;

/// Discriminant for the four strategies (configuration, reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrategyKind {
    /// Single-instance baseline.
    Centralized,
    /// Per-site replicas kept in sync by a centralized agent.
    Replicated,
    /// DHT-partitioned, no replication ("DN" in the paper's figures).
    DhtNonReplicated,
    /// DHT-partitioned with a local replica per entry ("DR").
    DhtLocalReplica,
}

impl StrategyKind {
    /// Short label used in tables (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Centralized => "Centralized",
            StrategyKind::Replicated => "Replicated",
            StrategyKind::DhtNonReplicated => "Dec. Non-replicated",
            StrategyKind::DhtLocalReplica => "Dec. Replicated",
        }
    }

    /// All four, in the paper's presentation order.
    pub fn all() -> [StrategyKind; 4] {
        [
            StrategyKind::Centralized,
            StrategyKind::Replicated,
            StrategyKind::DhtNonReplicated,
            StrategyKind::DhtLocalReplica,
        ]
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A metadata-management strategy: pure placement policy.
pub trait MetadataStrategy: Send + Sync {
    /// Which of the four this is.
    fn kind(&self) -> StrategyKind;

    /// Plan a write of `key` originating at `origin`.
    fn write_plan(&self, key: &str, origin: SiteId) -> WritePlan;

    /// Plan a read of `key` from `origin`.
    fn read_plan(&self, key: &str, origin: SiteId) -> ReadPlan;

    /// [`Self::write_plan`] for an interned key. Hash-placed strategies
    /// override this to reuse the key's precomputed hash; the default
    /// delegates to the text version. Must agree with it.
    fn write_plan_key(&self, key: &Key, origin: SiteId) -> WritePlan {
        self.write_plan(key, origin)
    }

    /// [`Self::read_plan`] for an interned key (see
    /// [`Self::write_plan_key`]).
    fn read_plan_key(&self, key: &Key, origin: SiteId) -> ReadPlan {
        self.read_plan(key, origin)
    }

    /// Sites that host a registry instance under this strategy.
    fn registry_sites(&self) -> Vec<SiteId>;

    /// Whether this strategy relies on the background synchronization
    /// agent (only the replicated strategy does).
    fn uses_sync_agent(&self) -> bool {
        false
    }
}

/// §IV-A — the state-of-the-art baseline: one registry instance at `home`.
#[derive(Clone, Debug)]
pub struct Centralized {
    home: SiteId,
}

impl Centralized {
    /// Place the single registry at `home` ("arbitrarily placed in any of
    /// the datacenters").
    pub fn new(home: SiteId) -> Centralized {
        Centralized { home }
    }
}

impl MetadataStrategy for Centralized {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Centralized
    }

    fn write_plan(&self, _key: &str, _origin: SiteId) -> WritePlan {
        WritePlan {
            sync_target: self.home,
            async_targets: vec![],
        }
    }

    fn read_plan(&self, _key: &str, _origin: SiteId) -> ReadPlan {
        ReadPlan::single(self.home)
    }

    fn registry_sites(&self) -> Vec<SiteId> {
        vec![self.home]
    }
}

/// §IV-B — a registry instance on every site; every node operates locally;
/// a synchronization agent propagates updates between instances.
#[derive(Clone, Debug)]
pub struct Replicated {
    sites: Vec<SiteId>,
}

impl Replicated {
    /// Replicate across `sites`. The runtime places the sync agent ("can
    /// be placed in any of the sites").
    pub(crate) fn new(sites: Vec<SiteId>) -> Replicated {
        assert!(!sites.is_empty(), "replicated strategy needs sites");
        Replicated { sites }
    }
}

impl MetadataStrategy for Replicated {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Replicated
    }

    fn write_plan(&self, _key: &str, origin: SiteId) -> WritePlan {
        // Local write only; the agent handles inter-site propagation.
        WritePlan {
            sync_target: origin,
            async_targets: vec![],
        }
    }

    fn read_plan(&self, _key: &str, origin: SiteId) -> ReadPlan {
        // Always local; entries written elsewhere become visible after the
        // next sync cycle (eventual consistency).
        ReadPlan::single(origin)
    }

    fn registry_sites(&self) -> Vec<SiteId> {
        self.sites.clone()
    }

    fn uses_sync_agent(&self) -> bool {
        true
    }
}

/// §IV-C — decentralized, non-replicated: the hash of the file name picks
/// the single owner site for both reads and writes.
pub struct DhtNonReplicated {
    placer: Arc<dyn SitePlacer>,
}

impl DhtNonReplicated {
    /// Partition entries across the placer's sites.
    pub fn new(placer: Arc<dyn SitePlacer>) -> DhtNonReplicated {
        DhtNonReplicated { placer }
    }

    /// The owner site of a key (exposed for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn owner(&self, key: &str) -> SiteId {
        self.placer.owner(key)
    }
}

impl MetadataStrategy for DhtNonReplicated {
    fn kind(&self) -> StrategyKind {
        StrategyKind::DhtNonReplicated
    }

    fn write_plan(&self, key: &str, _origin: SiteId) -> WritePlan {
        WritePlan {
            sync_target: self.placer.owner(key),
            async_targets: vec![],
        }
    }

    fn read_plan(&self, key: &str, _origin: SiteId) -> ReadPlan {
        ReadPlan::single(self.placer.owner(key))
    }

    fn write_plan_key(&self, key: &Key, _origin: SiteId) -> WritePlan {
        WritePlan {
            sync_target: self.placer.owner_key(key),
            async_targets: vec![],
        }
    }

    fn read_plan_key(&self, key: &Key, _origin: SiteId) -> ReadPlan {
        ReadPlan::single(self.placer.owner_key(key))
    }

    fn registry_sites(&self) -> Vec<SiteId> {
        self.placer.sites()
    }
}

/// §IV-D — decentralized with local replication: writes land locally
/// (completion) and are lazily copied to the hash owner; reads probe the
/// local instance first, then the owner ("two-step hierarchical
/// procedure").
pub struct DhtLocalReplica {
    placer: Arc<dyn SitePlacer>,
}

impl DhtLocalReplica {
    /// Partition entries across the placer's sites, with local replicas.
    pub(crate) fn new(placer: Arc<dyn SitePlacer>) -> DhtLocalReplica {
        DhtLocalReplica { placer }
    }

    /// The owner site of a key (exposed for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn owner(&self, key: &str) -> SiteId {
        self.placer.owner(key)
    }
}

impl DhtLocalReplica {
    fn write_plan_for(owner: SiteId, origin: SiteId) -> WritePlan {
        if owner == origin {
            // "When h corresponds to the local site, the metadata is not
            // further replicated."
            WritePlan {
                sync_target: origin,
                async_targets: vec![],
            }
        } else {
            WritePlan {
                sync_target: origin,
                async_targets: vec![owner],
            }
        }
    }

    fn read_plan_for(owner: SiteId, origin: SiteId) -> ReadPlan {
        if owner == origin {
            ReadPlan::single(origin)
        } else {
            ReadPlan {
                probes: vec![origin, owner],
            }
        }
    }
}

impl MetadataStrategy for DhtLocalReplica {
    fn kind(&self) -> StrategyKind {
        StrategyKind::DhtLocalReplica
    }

    fn write_plan(&self, key: &str, origin: SiteId) -> WritePlan {
        Self::write_plan_for(self.placer.owner(key), origin)
    }

    fn read_plan(&self, key: &str, origin: SiteId) -> ReadPlan {
        Self::read_plan_for(self.placer.owner(key), origin)
    }

    fn write_plan_key(&self, key: &Key, origin: SiteId) -> WritePlan {
        Self::write_plan_for(self.placer.owner_key(key), origin)
    }

    fn read_plan_key(&self, key: &Key, origin: SiteId) -> ReadPlan {
        Self::read_plan_for(self.placer.owner_key(key), origin)
    }

    fn registry_sites(&self) -> Vec<SiteId> {
        self.placer.sites()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::UniformHash;

    fn sites4() -> Vec<SiteId> {
        (0..4).map(SiteId).collect()
    }

    fn placer() -> Arc<dyn SitePlacer> {
        Arc::new(UniformHash::new(sites4()))
    }

    #[test]
    fn centralized_always_routes_home() {
        let s = Centralized::new(SiteId(1));
        for key in ["a", "b", "c"] {
            for origin in sites4() {
                assert_eq!(s.write_plan(key, origin).sync_target, SiteId(1));
                assert_eq!(s.read_plan(key, origin).probes, vec![SiteId(1)]);
            }
        }
        assert_eq!(s.registry_sites(), vec![SiteId(1)]);
        assert!(!s.uses_sync_agent());
    }

    #[test]
    fn replicated_is_always_local_with_agent() {
        let s = Replicated::new(sites4());
        for origin in sites4() {
            let wp = s.write_plan("f", origin);
            assert_eq!(wp.sync_target, origin);
            assert!(wp.async_targets.is_empty());
            assert_eq!(s.read_plan("f", origin).probes, vec![origin]);
        }
        assert!(s.uses_sync_agent());
        assert_eq!(s.registry_sites().len(), 4);
    }

    #[test]
    fn dht_nonreplicated_reads_and_writes_go_to_owner() {
        let s = DhtNonReplicated::new(placer());
        for key in ["file1", "file2", "file3"] {
            let owner = s.owner(key);
            for origin in sites4() {
                assert_eq!(s.write_plan(key, origin).sync_target, owner);
                assert_eq!(s.read_plan(key, origin).probes, vec![owner]);
            }
        }
    }

    #[test]
    fn dht_nonreplicated_about_quarter_local() {
        // "on average only 1/n of the operations would be local".
        let s = DhtNonReplicated::new(placer());
        let origin = SiteId(0);
        let local = (0..10_000)
            .filter(|i| s.write_plan(&format!("f{i}"), origin).sync_target == origin)
            .count();
        assert!((2_000..3_000).contains(&local), "local count {local}");
    }

    #[test]
    fn dht_local_replica_write_completes_locally() {
        let s = DhtLocalReplica::new(placer());
        for key in ["x1", "x2", "x3", "x4"] {
            let owner = s.owner(key);
            for origin in sites4() {
                let wp = s.write_plan(key, origin);
                assert_eq!(wp.sync_target, origin, "write must complete locally");
                if owner == origin {
                    assert!(wp.async_targets.is_empty(), "no self-replication");
                } else {
                    assert_eq!(wp.async_targets, vec![owner]);
                }
            }
        }
    }

    #[test]
    fn dht_local_replica_two_step_read() {
        let s = DhtLocalReplica::new(placer());
        for key in ["y1", "y2", "y3", "y4"] {
            let owner = s.owner(key);
            for origin in sites4() {
                let rp = s.read_plan(key, origin);
                if owner == origin {
                    assert_eq!(rp.probes, vec![origin]);
                } else {
                    assert_eq!(rp.probes, vec![origin, owner]);
                }
            }
        }
    }

    #[test]
    fn local_replica_doubles_local_read_probability() {
        // Paper §IV-D: with local replication and uniform creation across
        // sites, the chance that the FIRST probe succeeds locally is
        // P(created here) + P(created elsewhere) * P(owner is here) ≈
        // 1/4 + 3/4 * 1/4 ≈ 0.44, roughly twice the non-replicated 1/4.
        // We verify the plan-level property that makes that true: the local
        // site is always probed first.
        let s = DhtLocalReplica::new(placer());
        for i in 0..100 {
            let rp = s.read_plan(&format!("k{i}"), SiteId(2));
            assert_eq!(rp.probes[0], SiteId(2));
        }
    }

    #[test]
    fn kinds_and_labels() {
        assert_eq!(StrategyKind::all().len(), 4);
        assert_eq!(StrategyKind::Centralized.label(), "Centralized");
        assert_eq!(StrategyKind::DhtLocalReplica.to_string(), "Dec. Replicated");
    }
}
