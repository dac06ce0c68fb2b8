//! Strategy advisor: the paper's §VII "best-match" analysis as an API.
//!
//! "Which strategy fits what type of workflow on what kind of deployment?"
//! The paper's discussion answers qualitatively:
//!
//! * **Centralized** — "the best option for small scale workflows: using
//!   few tens of nodes, managing at most 500 files each, running in a
//!   single site";
//! * **Replicated** — "workflows manipulating average sets of very large
//!   files (i.e. tens or hundreds of MBs), where metadata operations are
//!   not so frequent";
//! * **Decentralized non-replicated** — "workflows with high degree of
//!   parallelism (e.g. following a scatter/gather pattern), where tasks
//!   and data are widely distributed across datacenters";
//! * **Decentralized locally-replicated** — "workflows with a larger
//!   proportion of sequential jobs (e.g. with pipeline patterns)" and
//!   metadata-intensive workloads generally.
//!
//! [`recommend`] encodes those rules over a [`WorkloadProfile`], so a
//! deployment can pick (or switch, via the
//! [`ArchitectureController`](crate::controller::ArchitectureController))
//! a strategy programmatically.

use crate::strategy::StrategyKind;

/// The dominant data-access shape of a workflow (paper §II-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DominantPattern {
    /// Long chains of sequential, tightly file-coupled tasks.
    Pipeline,
    /// Wide fan-out/fan-in parallelism.
    ScatterGather,
    /// No single dominant shape.
    Mixed,
}

/// Coarse description of a workload and its deployment.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadProfile {
    /// Execution nodes in the deployment.
    pub nodes: usize,
    /// Datacenters the deployment spans.
    pub sites: usize,
    /// Files handled per node over the run.
    pub files_per_node: usize,
    /// Typical file size in bytes.
    pub avg_file_size: u64,
    /// Dominant access pattern.
    pub pattern: DominantPattern,
}

impl WorkloadProfile {
    /// Whether this counts as "small scale" in the paper's sense: few tens
    /// of nodes, ≤ ~500 files each, effectively single-site.
    pub(crate) fn is_small_scale(&self) -> bool {
        self.sites <= 1 || (self.nodes <= 32 && self.files_per_node <= 500)
    }

    /// Whether files are "very large" (tens to hundreds of MB), making
    /// metadata operations comparatively rare.
    pub(crate) fn has_large_files(&self) -> bool {
        self.avg_file_size >= 10 * 1024 * 1024
    }

    /// Whether the workload is metadata-intensive: many small files per
    /// node across several sites.
    pub(crate) fn is_metadata_intensive(&self) -> bool {
        self.files_per_node > 500 && !self.has_large_files()
    }
}

/// Recommend the paper's best-match strategy for a workload.
pub fn recommend(profile: &WorkloadProfile) -> StrategyKind {
    // Single-site or genuinely small deployments: the baseline wins — the
    // latency hierarchy that motivates everything else is absent.
    if profile.is_small_scale() {
        return StrategyKind::Centralized;
    }
    // Few, very large files => metadata is rare; per-site replicas with a
    // relaxed sync agent give local reads everywhere.
    if profile.has_large_files() && !profile.is_metadata_intensive() {
        return StrategyKind::Replicated;
    }
    // Metadata-intensive, multi-site: decentralize; the pattern decides
    // whether local replicas pay for themselves.
    match profile.pattern {
        DominantPattern::ScatterGather => StrategyKind::DhtNonReplicated,
        DominantPattern::Pipeline | DominantPattern::Mixed => StrategyKind::DhtLocalReplica,
    }
}

/// Human-readable justification for a recommendation (mirrors §VII-A).
pub fn explain(profile: &WorkloadProfile) -> String {
    let kind = recommend(profile);
    let why = match kind {
        StrategyKind::Centralized => {
            "small-scale / single-site: intra-datacenter latencies keep a single registry fast"
        }
        StrategyKind::Replicated => {
            "few, large files: infrequent metadata ops give the sync agent time to keep replicas consistent"
        }
        StrategyKind::DhtNonReplicated => {
            "wide parallelism across sites: hash-partitioning preserves linear scalability"
        }
        StrategyKind::DhtLocalReplica => {
            "sequential/metadata-intensive jobs: local replicas serve co-scheduled consumers instantly"
        }
    };
    format!("{} — {}", kind.label(), why)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadProfile {
        WorkloadProfile {
            nodes: 64,
            sites: 4,
            files_per_node: 2_000,
            avg_file_size: 256 * 1024,
            pattern: DominantPattern::Mixed,
        }
    }

    #[test]
    fn small_scale_gets_centralized() {
        // The paper: "few tens of nodes, managing at most 500 files each".
        let p = WorkloadProfile {
            nodes: 16,
            files_per_node: 300,
            ..base()
        };
        assert_eq!(recommend(&p), StrategyKind::Centralized);
    }

    #[test]
    fn single_site_always_centralized() {
        let p = WorkloadProfile {
            sites: 1,
            nodes: 128,
            files_per_node: 100_000,
            ..base()
        };
        assert_eq!(recommend(&p), StrategyKind::Centralized);
    }

    #[test]
    fn large_files_get_replicated() {
        // "average sets of very large files ... metadata operations are not
        // so frequent".
        let p = WorkloadProfile {
            files_per_node: 50,
            avg_file_size: 100 * 1024 * 1024,
            nodes: 64,
            ..base()
        };
        assert_eq!(recommend(&p), StrategyKind::Replicated);
    }

    #[test]
    fn scatter_gather_gets_dht() {
        let p = WorkloadProfile {
            pattern: DominantPattern::ScatterGather,
            ..base()
        };
        assert_eq!(recommend(&p), StrategyKind::DhtNonReplicated);
    }

    #[test]
    fn pipelines_get_local_replicas() {
        let p = WorkloadProfile {
            pattern: DominantPattern::Pipeline,
            ..base()
        };
        assert_eq!(recommend(&p), StrategyKind::DhtLocalReplica);
    }

    #[test]
    fn metadata_intensive_mixed_gets_local_replicas() {
        assert_eq!(recommend(&base()), StrategyKind::DhtLocalReplica);
    }

    #[test]
    fn explanations_name_the_strategy() {
        for p in [
            base(),
            WorkloadProfile { sites: 1, ..base() },
            WorkloadProfile {
                avg_file_size: 64 * 1024 * 1024,
                files_per_node: 10,
                ..base()
            },
            WorkloadProfile {
                pattern: DominantPattern::ScatterGather,
                ..base()
            },
        ] {
            let text = explain(&p);
            assert!(text.contains(recommend(&p).label()), "{text}");
        }
    }
}
