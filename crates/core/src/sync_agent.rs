//! The synchronization agent of the replicated strategy (§IV-B).
//!
//! "A synchronization agent iteratively queries all registry instances for
//! updates, then synchronizes all metadata instances." The agent is a
//! *single*, centralized component — deliberately so, because the paper
//! shows it becoming the bottleneck beyond ~32 nodes (Fig. 7), which is
//! exactly what motivates the decentralized strategies.
//!
//! [`SyncAgentState`] is the transport-agnostic core: it tracks, per
//! registry instance, the logical timestamp up to which deltas have been
//! pulled, decides the polling order, and turns a pulled delta into the
//! pushes that bring every other instance up to date. The DES binding and
//! the live cluster both drive it.

use crate::entry::RegistryEntry;
use geometa_cache::FxHashMap;
use geometa_sim::topology::SiteId;

/// One propagation instruction: push `entries` to `target`.
#[derive(Clone, Debug)]
pub struct SyncPush {
    /// Destination registry instance.
    pub target: SiteId,
    /// Entries to absorb there.
    pub entries: Vec<RegistryEntry>,
}

/// Transport-agnostic state of the synchronization agent.
#[derive(Debug)]
pub struct SyncAgentState {
    sites: Vec<SiteId>,
    /// Timestamp up to which each instance's updates have been pulled.
    watermark: FxHashMap<SiteId, u64>,
    cycles: u64,
    entries_propagated: u64,
}

impl SyncAgentState {
    /// Create the agent over the replicated registry sites.
    pub fn new(sites: Vec<SiteId>) -> SyncAgentState {
        assert!(sites.len() >= 2, "sync agent needs at least two instances");
        let watermark = sites.iter().map(|&s| (s, 0u64)).collect();
        SyncAgentState {
            sites,
            watermark,
            cycles: 0,
            entries_propagated: 0,
        }
    }

    /// The `since` watermark to use when pulling a delta from `site`.
    pub fn watermark(&self, site: SiteId) -> u64 {
        self.watermark.get(&site).copied().unwrap_or(0)
    }

    /// Integrate a delta pulled from `source` (covering updates up to
    /// `up_to`); returns the pushes to every *other* instance.
    ///
    /// The watermark only advances to `up_to`, which the caller must set to
    /// the logical time at which the delta query executed — updates landing
    /// after that are picked up next cycle.
    pub fn integrate(
        &mut self,
        source: SiteId,
        delta: Vec<RegistryEntry>,
        up_to: u64,
    ) -> Vec<SyncPush> {
        let w = self.watermark.entry(source).or_insert(0);
        *w = (*w).max(up_to);
        if delta.is_empty() {
            return Vec::new();
        }
        self.entries_propagated += delta.len() as u64;
        self.sites
            .iter()
            .copied()
            .filter(|&s| s != source)
            .map(|target| SyncPush {
                target,
                entries: delta.clone(),
            })
            .collect()
    }

    /// Roll `site`'s watermark back to at most `to` (no-op if already
    /// lower). Drivers call this when a push derived from the site's
    /// delta could not be delivered: the next cycle re-pulls the same
    /// window and re-pushes everywhere (absorb is idempotent, so targets
    /// that did receive the first attempt are unharmed).
    pub(crate) fn rollback_watermark(&mut self, site: SiteId, to: u64) {
        if let Some(w) = self.watermark.get_mut(&site) {
            *w = (*w).min(to);
        }
    }

    /// Mark a full poll cycle complete.
    pub fn cycle_done(&mut self) {
        self.cycles += 1;
    }

    /// Completed cycles.
    #[cfg(test)]
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total entries propagated (each counted once per pull, not per push).
    #[cfg(test)]
    pub(crate) fn entries_propagated(&self) -> u64 {
        self.entries_propagated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;

    fn entry(name: &str, t: u64) -> RegistryEntry {
        RegistryEntry::new(
            name,
            1,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            t,
        )
    }

    fn agent() -> SyncAgentState {
        SyncAgentState::new((0..4).map(SiteId).collect())
    }

    #[test]
    fn integrate_pushes_to_all_others() {
        let mut a = agent();
        let pushes = a.integrate(SiteId(1), vec![entry("f", 5)], 10);
        let targets: Vec<SiteId> = pushes.iter().map(|p| p.target).collect();
        assert_eq!(targets, vec![SiteId(0), SiteId(2), SiteId(3)]);
        for p in &pushes {
            assert_eq!(p.entries.len(), 1);
        }
    }

    #[test]
    fn empty_delta_produces_no_pushes_but_advances_watermark() {
        let mut a = agent();
        let pushes = a.integrate(SiteId(2), vec![], 42);
        assert!(pushes.is_empty());
        assert_eq!(a.watermark(SiteId(2)), 42);
    }

    #[test]
    fn watermark_never_regresses() {
        let mut a = agent();
        a.integrate(SiteId(0), vec![], 100);
        a.integrate(SiteId(0), vec![], 50);
        assert_eq!(a.watermark(SiteId(0)), 100);
    }

    #[test]
    fn watermarks_are_per_site() {
        let mut a = agent();
        a.integrate(SiteId(0), vec![], 10);
        a.integrate(SiteId(1), vec![], 20);
        assert_eq!(a.watermark(SiteId(0)), 10);
        assert_eq!(a.watermark(SiteId(1)), 20);
        assert_eq!(a.watermark(SiteId(2)), 0);
    }

    #[test]
    fn propagation_counter_counts_pulled_entries_once() {
        let mut a = agent();
        a.integrate(SiteId(0), vec![entry("a", 1), entry("b", 2)], 5);
        assert_eq!(a.entries_propagated(), 2);
        a.cycle_done();
        assert_eq!(a.cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two instances")]
    fn single_site_agent_is_rejected() {
        let _ = SyncAgentState::new(vec![SiteId(0)]);
    }

    #[test]
    fn rollback_lowers_but_never_raises() {
        let mut a = agent();
        a.integrate(SiteId(0), vec![], 100);
        a.rollback_watermark(SiteId(0), 40);
        assert_eq!(a.watermark(SiteId(0)), 40);
        a.rollback_watermark(SiteId(0), 90);
        assert_eq!(a.watermark(SiteId(0)), 40, "rollback must not advance");
    }
}
