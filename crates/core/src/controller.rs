//! The architecture controller: runtime strategy selection.
//!
//! Paper §V: "The Architecture Controller allows to switch between metadata
//! management strategies. The desired strategy is provided as a parameter
//! and can be dynamically modified as new jobs are executed." Strategies
//! plug in and out without touching client code: clients fetch the current
//! strategy per operation.

use crate::hash::{ConsistentRing, SitePlacer};
use crate::strategy::{
    Centralized, DhtLocalReplica, DhtNonReplicated, MetadataStrategy, Replicated, StrategyKind,
};
use geometa_sim::topology::SiteId;
use parking_lot::RwLock;
use std::sync::Arc;

/// Holds the active [`MetadataStrategy`] and swaps it atomically.
pub struct ArchitectureController {
    current: RwLock<Arc<dyn MetadataStrategy>>,
    switches: RwLock<Vec<StrategyKind>>,
}

impl ArchitectureController {
    /// Start with the given strategy.
    pub fn new(initial: Arc<dyn MetadataStrategy>) -> ArchitectureController {
        let kind = initial.kind();
        ArchitectureController {
            current: RwLock::new(initial),
            switches: RwLock::new(vec![kind]),
        }
    }

    /// Convenience constructor: build the standard form of `kind` over
    /// `sites` (centralized home / sync agent at the first site; DHT
    /// placement via a consistent ring with 128 vnodes).
    pub fn with_kind(kind: StrategyKind, sites: Vec<SiteId>) -> ArchitectureController {
        ArchitectureController::new(build_strategy(kind, sites))
    }

    /// The active strategy (cheap Arc clone; safe to hold across an op).
    pub fn strategy(&self) -> Arc<dyn MetadataStrategy> {
        self.current.read().clone()
    }

    /// The active strategy's kind.
    pub fn kind(&self) -> StrategyKind {
        self.current.read().kind()
    }

    /// Switch strategies. In-flight operations keep the strategy they
    /// started with (they hold an `Arc`); new operations see the new one.
    pub fn switch(&self, next: Arc<dyn MetadataStrategy>) {
        let kind = next.kind();
        *self.current.write() = next;
        self.switches.write().push(kind);
    }

    /// Switch to the standard form of `kind` over `sites`.
    pub fn switch_kind(&self, kind: StrategyKind, sites: Vec<SiteId>) {
        self.switch(build_strategy(kind, sites));
    }

    /// History of strategies used (first entry = initial).
    pub fn history(&self) -> Vec<StrategyKind> {
        self.switches.read().clone()
    }
}

/// Virtual nodes per site in every canonical consistent ring. The
/// elastic rebalance planner builds before/after rings with the same
/// count so its placement agrees with the strategies clients run.
pub(crate) const RING_VNODES: usize = 128;

/// Build the canonical instance of each strategy kind over `sites`.
pub fn build_strategy(kind: StrategyKind, sites: Vec<SiteId>) -> Arc<dyn MetadataStrategy> {
    assert!(!sites.is_empty(), "strategy needs at least one site");
    match kind {
        StrategyKind::Centralized => Arc::new(Centralized::new(sites[0])),
        StrategyKind::Replicated => Arc::new(Replicated::new(sites)),
        StrategyKind::DhtNonReplicated => {
            let placer: Arc<dyn SitePlacer> = Arc::new(ConsistentRing::new(sites, RING_VNODES));
            Arc::new(DhtNonReplicated::new(placer))
        }
        StrategyKind::DhtLocalReplica => {
            let placer: Arc<dyn SitePlacer> = Arc::new(ConsistentRing::new(sites, RING_VNODES));
            Arc::new(DhtLocalReplica::new(placer))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> Vec<SiteId> {
        (0..4).map(SiteId).collect()
    }

    #[test]
    fn build_all_kinds() {
        for kind in StrategyKind::all() {
            let s = build_strategy(kind, sites());
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn controller_switches_atomically() {
        let c = ArchitectureController::with_kind(StrategyKind::Centralized, sites());
        assert_eq!(c.kind(), StrategyKind::Centralized);
        // An in-flight op holds the old strategy.
        let held = c.strategy();
        c.switch_kind(StrategyKind::DhtLocalReplica, sites());
        assert_eq!(held.kind(), StrategyKind::Centralized);
        assert_eq!(c.kind(), StrategyKind::DhtLocalReplica);
    }

    #[test]
    fn history_records_every_switch() {
        let c = ArchitectureController::with_kind(StrategyKind::Centralized, sites());
        c.switch_kind(StrategyKind::Replicated, sites());
        c.switch_kind(StrategyKind::DhtNonReplicated, sites());
        assert_eq!(
            c.history(),
            vec![
                StrategyKind::Centralized,
                StrategyKind::Replicated,
                StrategyKind::DhtNonReplicated
            ]
        );
    }

    #[test]
    fn plans_follow_the_active_strategy() {
        let c = ArchitectureController::with_kind(StrategyKind::Centralized, sites());
        let p1 = c.strategy().write_plan("f", SiteId(2));
        assert_eq!(p1.sync_target, SiteId(0), "centralized home is sites[0]");
        c.switch_kind(StrategyKind::DhtLocalReplica, sites());
        let p2 = c.strategy().write_plan("f", SiteId(2));
        assert_eq!(p2.sync_target, SiteId(2), "DR writes complete locally");
    }

    #[test]
    fn concurrent_readers_and_switchers() {
        let c = ArchitectureController::with_kind(StrategyKind::Centralized, sites());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        let strat = c.strategy();
                        let _ = strat.read_plan("f", SiteId(1));
                    }
                });
            }
            for kind in [StrategyKind::Replicated, StrategyKind::DhtLocalReplica] {
                c.switch_kind(kind, sites());
            }
        });
        assert_eq!(c.kind(), StrategyKind::DhtLocalReplica);
    }
}
