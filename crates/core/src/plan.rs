//! Operation plans: where a metadata read/write must go.
//!
//! A strategy does not execute operations itself; it produces *plans*
//! that the op machines in [`crate::op`] carry out, whether a service
//! client or a simulated node drives them. This keeps the paper's
//! policies in exactly one place.

use geometa_sim::topology::SiteId;

/// Plan for publishing (writing) one metadata entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WritePlan {
    /// The registry instance that must acknowledge before the write
    /// counts as complete. Per the paper (§VII-B), "for writes, the
    /// completion is the moment when the assigned cache entry is
    /// successfully generated in the local datacenter" — one site in
    /// every strategy.
    pub sync_target: SiteId,
    /// Registry instances updated *lazily* after completion (the paper's
    /// asynchronous propagation to replicas; §III-D).
    pub async_targets: Vec<SiteId>,
}

impl WritePlan {
    /// All sites eventually holding the entry under this plan.
    pub fn all_targets(&self) -> impl Iterator<Item = SiteId> + '_ {
        std::iter::once(self.sync_target).chain(self.async_targets.iter().copied())
    }
}

/// Plan for resolving (reading) one metadata entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadPlan {
    /// Registry instances to probe, in order, until one returns the entry.
    /// The decentralized-replicated strategy's "two-step hierarchical
    /// procedure" (§IV-D) is simply `[local, hash_owner]`.
    pub probes: Vec<SiteId>,
}

impl ReadPlan {
    /// A plan probing exactly one site.
    pub(crate) fn single(site: SiteId) -> ReadPlan {
        ReadPlan { probes: vec![site] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_chains_sync_then_async() {
        let p = WritePlan {
            sync_target: SiteId(1),
            async_targets: vec![SiteId(2), SiteId(3)],
        };
        let all: Vec<SiteId> = p.all_targets().collect();
        assert_eq!(all, vec![SiteId(1), SiteId(2), SiteId(3)]);
    }

    #[test]
    fn single_read_plan() {
        let p = ReadPlan::single(SiteId(3));
        assert_eq!(p.probes, vec![SiteId(3)]);
    }
}
