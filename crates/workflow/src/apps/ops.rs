//! Flattened metadata-operation streams for load generation.
//!
//! A load generator (the DES binding drives actors; `geometa-load` drives
//! real sockets) wants each execution node's metadata traffic as a plain,
//! pre-materialized list of operations it can replay closed-loop. This
//! module flattens the two workload sources into that shape:
//!
//! * [`synthetic_streams`] — the §VI-B half-writers/half-readers benchmark
//!   from a [`SyntheticSpec`] (reader keys drawn from the spec's seeded
//!   per-node RNG streams, so a given spec always produces the same ops);
//! * [`workflow_streams`] — a scheduled [`Workflow`] (Montage, BuzzFlow,
//!   any DAG) flattened per node: each task's inputs become resolves, its
//!   outputs publishes, in the placement's per-node topological order.
//!
//! Streams are *descriptions*: executing them (with retry on not-found,
//! latency recording, etc.) is the executor's job.

use crate::apps::synthetic::{Role, SyntheticSpec};
use crate::dag::Workflow;
use crate::scheduler::Placement;
use geometa_sim::topology::SiteId;

/// One metadata operation in a replayable stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaOp {
    /// Publish a file's metadata.
    Publish {
        /// Registry key.
        name: String,
        /// File size recorded in the entry.
        size: u64,
    },
    /// Resolve a file's metadata (retried by executors until visible).
    Resolve {
        /// Registry key.
        name: String,
    },
}

impl MetaOp {}

/// One execution node's operation stream.
#[derive(Clone, Debug)]
pub struct NodeStream {
    /// Site the node runs in.
    pub site: SiteId,
    /// Node index within the site.
    pub node: u32,
    /// Operations in issue order.
    pub ops: Vec<MetaOp>,
}

/// A complete workload: files that must exist before the run plus every
/// node's stream.
#[derive(Clone, Debug, Default)]
pub struct OpStream {
    /// External inputs pre-published before any node starts.
    pub externals: Vec<(String, u64)>,
    /// Per-node operation streams (executed concurrently).
    pub nodes: Vec<NodeStream>,
}

impl OpStream {
    /// Total operations across every node (excluding externals).
    pub fn total_ops(&self) -> usize {
        self.nodes.iter().map(|n| n.ops.len()).sum()
    }
}

/// Default size for synthetic-benchmark entries (workflow files are small;
/// the paper's registry charges metadata, not data).
pub(crate) const SYNTHETIC_FILE_SIZE: u64 = 64 * 1024;

/// Flatten a [`SyntheticSpec`] into per-node streams, spreading nodes
/// round-robin over `sites`. Writers post their consecutive keys; readers
/// draw from the spec's seeded per-node RNG, so the stream set is a pure
/// function of `(spec, sites)`.
pub fn synthetic_streams(spec: &SyntheticSpec, sites: &[SiteId]) -> OpStream {
    assert!(!sites.is_empty(), "need at least one site");
    let mut nodes = Vec::with_capacity(spec.nodes);
    for node in 0..spec.nodes {
        let site = sites[node % sites.len()];
        let mut ops = Vec::with_capacity(spec.ops_per_node);
        match spec.role(node) {
            Role::Writer => {
                for i in 0..spec.ops_per_node {
                    ops.push(MetaOp::Publish {
                        name: spec.writer_key(node, i),
                        size: SYNTHETIC_FILE_SIZE,
                    });
                }
            }
            Role::Reader => {
                let mut rng = spec.node_rng(node);
                for i in 0..spec.ops_per_node {
                    ops.push(MetaOp::Resolve {
                        name: spec.reader_key(node, i, &mut rng),
                    });
                }
            }
        }
        nodes.push(NodeStream {
            site,
            node: (node / sites.len()) as u32,
            ops,
        });
    }
    OpStream {
        externals: Vec::new(),
        nodes,
    }
}

/// Flatten a scheduled workflow into per-node streams: for every task in
/// the node's queue (placement topological order), resolve each input,
/// then publish each output. External inputs are returned separately for
/// pre-publication.
pub fn workflow_streams(workflow: &Workflow, placement: &Placement) -> OpStream {
    let externals = workflow
        .external_inputs()
        .into_iter()
        .map(|name| (name, 1024))
        .collect();
    let nodes = placement
        .per_node_queues(workflow)
        .into_iter()
        .map(|(node, queue)| {
            let mut ops = Vec::new();
            for tid in queue {
                let task = workflow.task(tid);
                for input in &task.inputs {
                    ops.push(MetaOp::Resolve {
                        name: input.clone(),
                    });
                }
                for out in &task.outputs {
                    ops.push(MetaOp::Publish {
                        name: out.name.clone(),
                        size: out.size,
                    });
                }
            }
            NodeStream {
                site: node.site,
                node: node.index,
                ops,
            }
        })
        .collect();
    OpStream { externals, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::montage::{montage, MontageConfig};
    use crate::scheduler::{node_grid, schedule, SchedulerPolicy};
    use geometa_core::FxHashSet;
    use geometa_sim::time::SimDuration;

    fn sites() -> Vec<SiteId> {
        (0..4).map(SiteId).collect()
    }

    #[test]
    fn synthetic_streams_are_deterministic_and_complete() {
        let spec = SyntheticSpec::fig5(20);
        let a = synthetic_streams(&spec, &sites());
        let b = synthetic_streams(&spec, &sites());
        assert_eq!(a.total_ops(), spec.total_ops());
        assert_eq!(a.nodes.len(), spec.nodes);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(
                na.ops, nb.ops,
                "streams must be a pure function of the spec"
            );
        }
        // Half the nodes write, half read.
        let writers = a
            .nodes
            .iter()
            .filter(|n| matches!(n.ops[0], MetaOp::Publish { .. }))
            .count();
        assert_eq!(writers, spec.writers());
    }

    #[test]
    fn synthetic_reader_keys_reference_written_keys() {
        let spec = SyntheticSpec::fig5(10);
        let s = synthetic_streams(&spec, &sites());
        let written: FxHashSet<&str> = s
            .nodes
            .iter()
            .flat_map(|n| n.ops.iter())
            .filter_map(|op| match op {
                MetaOp::Publish { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        for n in &s.nodes {
            for op in &n.ops {
                if let MetaOp::Resolve { name } = op {
                    assert!(written.contains(name.as_str()), "{name} never written");
                }
            }
        }
    }

    #[test]
    fn workflow_streams_cover_every_task_in_order() {
        let w = montage(MontageConfig {
            tiles: 8,
            files_per_task: 2,
            compute: SimDuration::ZERO,
            ..MontageConfig::default()
        });
        let nodes = node_grid(&sites(), 2);
        let placement = schedule(&w, &nodes, SchedulerPolicy::RoundRobin);
        let s = workflow_streams(&w, &placement);
        assert_eq!(
            s.externals,
            vec![("montage/input_table.tbl".to_string(), 1024)]
        );
        // Task inputs (incl. the external table read) + outputs = the
        // DAG's metadata op count; external pre-publication is extra.
        assert_eq!(s.total_ops(), w.total_metadata_ops());
        // Every produced file is published exactly once across all streams.
        let publishes: Vec<&str> = s
            .nodes
            .iter()
            .flat_map(|n| n.ops.iter())
            .filter_map(|op| match op {
                MetaOp::Publish { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let unique: FxHashSet<&str> = publishes.iter().copied().collect();
        assert_eq!(publishes.len(), unique.len(), "duplicate publish");
        assert_eq!(unique.len(), w.total_files(), "all outputs published");
        // Within a node, a task's resolves precede its publishes in queue
        // order (spot-check: streams are non-empty and start with the
        // first queued task's ops).
        assert!(s.nodes.iter().any(|n| !n.ops.is_empty()));
    }
}
