//! Provenance: producer/consumer indices and proactive provisioning.
//!
//! Paper §III-C: "By efficiently querying the workflow's metadata, we can
//! obtain information about data location and data dependencies which
//! allow to proactively move data between nodes in distant datacenters
//! before it is needed, keeping idle times as low as possible."
//!
//! [`ProvenanceIndex`] answers *who makes this file / who needs it*, and
//! [`provisioning_plan`] combines that with a [`Placement`] to list every
//! cross-site transfer the workflow will require — the input to a
//! prefetcher.

use crate::dag::Workflow;
use crate::scheduler::Placement;
use crate::task::TaskId;
use geometa_core::FxHashMap;
use geometa_sim::topology::SiteId;

/// Producer/consumer index over one workflow.
#[derive(Clone, Debug)]
pub struct ProvenanceIndex {
    consumers: FxHashMap<String, Vec<TaskId>>,
}

impl ProvenanceIndex {
    /// Build the index.
    pub fn build(workflow: &Workflow) -> ProvenanceIndex {
        let mut consumers: FxHashMap<String, Vec<TaskId>> = FxHashMap::default();
        for t in workflow.tasks() {
            for i in &t.inputs {
                consumers.entry(i.clone()).or_default().push(t.id);
            }
        }
        ProvenanceIndex { consumers }
    }

    /// Tasks that read `file`.
    #[cfg(test)]
    pub(crate) fn consumers_of(&self, file: &str) -> &[TaskId] {
        self.consumers.get(file).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Files read by more than one task (broadcast-style hot files).
    pub fn shared_files(&self) -> Vec<(&str, usize)> {
        let mut out: Vec<(&str, usize)> = self
            .consumers
            .iter()
            .filter(|(_, c)| c.len() > 1)
            .map(|(f, c)| (f.as_str(), c.len()))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

/// One required cross-site data movement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// File to move.
    pub file: String,
    /// Bytes to move.
    pub bytes: u64,
    /// Producing site.
    pub from: SiteId,
    /// Consuming site.
    pub to: SiteId,
    /// The consuming task (so a prefetcher knows the deadline).
    pub needed_by: TaskId,
}

/// Every cross-site transfer implied by `placement`: a file produced at one
/// site and consumed at another. Intra-site consumption is free (shared
/// storage within the datacenter).
pub fn provisioning_plan(workflow: &Workflow, placement: &Placement) -> Vec<Transfer> {
    let mut out = Vec::new();
    for t in workflow.tasks() {
        let tsite = placement.site_of(t.id);
        for input in &t.inputs {
            if let Some(p) = workflow.producer_of(input) {
                let psite = placement.site_of(p);
                if psite != tsite {
                    let bytes = workflow
                        .task(p)
                        .outputs
                        .iter()
                        .find(|f| &f.name == input)
                        .map(|f| f.size)
                        .unwrap_or(0);
                    out.push(Transfer {
                        file: input.clone(),
                        bytes,
                        from: psite,
                        to: tsite,
                        needed_by: t.id,
                    });
                }
            }
        }
    }
    out
}

/// Total bytes the plan moves across sites.
pub fn plan_bytes(plan: &[Transfer]) -> u64 {
    plan.iter().map(|t| t.bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{broadcast, pipeline, PatternConfig};
    use crate::scheduler::{node_grid, schedule, SchedulerPolicy};

    fn sites4() -> Vec<SiteId> {
        (0..4).map(SiteId).collect()
    }

    #[test]
    fn consumers_indexed() {
        let w = broadcast("b", 5, PatternConfig::default());
        let idx = ProvenanceIndex::build(&w);
        assert_eq!(idx.consumers_of("b/shared").len(), 5);
        assert!(idx.consumers_of("missing").is_empty());
        let shared = idx.shared_files();
        assert_eq!(shared[0], ("b/shared", 5));
    }

    #[test]
    fn locality_placement_needs_no_transfers_for_pipeline() {
        let w = pipeline("p", 10, PatternConfig::default());
        let placement = schedule(&w, &node_grid(&sites4(), 8), SchedulerPolicy::LocalityAware);
        let plan = provisioning_plan(&w, &placement);
        assert!(plan.is_empty(), "co-located pipeline should not move data");
    }

    #[test]
    fn random_placement_generates_transfers() {
        let w = pipeline("p", 32, PatternConfig::default());
        let placement = schedule(&w, &node_grid(&sites4(), 8), SchedulerPolicy::Random(3));
        let plan = provisioning_plan(&w, &placement);
        assert!(
            !plan.is_empty(),
            "random placement across 4 sites must cross sites"
        );
        for t in &plan {
            assert_ne!(t.from, t.to);
            assert_eq!(t.bytes, PatternConfig::default().file_size);
        }
        assert_eq!(
            plan_bytes(&plan),
            plan.len() as u64 * PatternConfig::default().file_size
        );
    }
}
