//! The §VI-B synthetic metadata benchmark and the Table I scenarios.
//!
//! "To simulate concurrent operations on the metadata registry, half of
//! the nodes act as writers and half as readers. Writers post a set of
//! consecutive entries to the registry (e.g. file1, file2, ...) whereas
//! readers get a random set of files (e.g. file13, file201...) from it."
//!
//! This module defines the workload *description* (who writes what keys,
//! which keys readers sample); executors in `geometa-experiments` and the
//! examples drive it against any transport.

use geometa_sim::rng::SplitMix64;
use geometa_sim::time::SimDuration;

/// Role of a node in the synthetic benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Posts consecutive entries.
    Writer,
    /// Reads random entries.
    Reader,
}

/// Description of one synthetic run.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticSpec {
    /// Total execution nodes (half writers, half readers).
    pub nodes: usize,
    /// Metadata operations each node performs.
    pub ops_per_node: usize,
    /// Simulated computation inserted between operations (zero for the
    /// pure metadata benchmarks of Figs. 5-8).
    pub compute_per_op: SimDuration,
    /// Seed for reader key sampling.
    pub seed: u64,
}

impl SyntheticSpec {
    /// The Fig. 5 configuration: 32 nodes, variable ops.
    #[cfg(test)]
    pub(crate) fn fig5(ops_per_node: usize) -> SyntheticSpec {
        SyntheticSpec {
            nodes: 32,
            ops_per_node,
            compute_per_op: SimDuration::ZERO,
            seed: 0xF165,
        }
    }

    /// The Fig. 7/8 configuration: variable nodes.
    pub fn scaling(nodes: usize, ops_per_node: usize) -> SyntheticSpec {
        SyntheticSpec {
            nodes,
            ops_per_node,
            compute_per_op: SimDuration::ZERO,
            seed: 0xF167,
        }
    }

    /// Role of node `i`: even = writer, odd = reader (half and half).
    pub fn role(&self, node: usize) -> Role {
        if node.is_multiple_of(2) {
            Role::Writer
        } else {
            Role::Reader
        }
    }

    /// Number of writers.
    pub fn writers(&self) -> usize {
        self.nodes.div_ceil(2)
    }

    /// Total operations in the run.
    pub fn total_ops(&self) -> usize {
        self.nodes * self.ops_per_node
    }

    /// The key written by writer-node `node` at its `i`-th operation
    /// ("consecutive entries").
    pub fn writer_key(&self, node: usize, i: usize) -> String {
        debug_assert_eq!(self.role(node), Role::Writer);
        format!("bench/w{node}/file{i}")
    }

    /// The key read by reader-node `node` at its `i`-th operation: a
    /// uniformly random writer and a random sequence index no greater than
    /// `i` (writers and readers progress at similar rates, so the target
    /// has likely been written; occasional too-early reads exercise the
    /// retry path, like real registry polling does).
    pub fn reader_key(&self, node: usize, i: usize, rng: &mut SplitMix64) -> String {
        debug_assert_eq!(self.role(node), Role::Reader);
        let writer = 2 * rng.range_usize(self.writers());
        let seq = rng.range_usize(i + 1).min(self.ops_per_node - 1);
        format!("bench/w{writer}/file{seq}")
    }

    /// A dedicated RNG stream for one node.
    pub fn node_rng(&self, node: usize) -> SplitMix64 {
        SplitMix64::new(self.seed).split(node as u64)
    }
}

/// The paper's Table I scenarios for the real-life workflows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// "SS": 100 ops/node, 1 s compute — small scale.
    SmallScale,
    /// "CI": 200 ops/node, 5 s compute — computation intensive.
    ComputationIntensive,
    /// "MI": 1,000 ops/node, 1 s compute — metadata intensive.
    MetadataIntensive,
}

impl Scenario {
    /// All three, in the paper's order.
    pub fn all() -> [Scenario; 3] {
        [
            Scenario::SmallScale,
            Scenario::ComputationIntensive,
            Scenario::MetadataIntensive,
        ]
    }

    /// Table label used in the paper ("SS", "CI", "MI").
    pub fn label(self) -> &'static str {
        match self {
            Scenario::SmallScale => "SS",
            Scenario::ComputationIntensive => "CI",
            Scenario::MetadataIntensive => "MI",
        }
    }

    /// Operations per node (Table I).
    pub fn ops_per_node(self) -> usize {
        match self {
            Scenario::SmallScale => 100,
            Scenario::ComputationIntensive => 200,
            Scenario::MetadataIntensive => 1_000,
        }
    }

    /// Computation time per node/task (Table I).
    pub fn compute(self) -> SimDuration {
        match self {
            Scenario::SmallScale => SimDuration::from_secs(1),
            Scenario::ComputationIntensive => SimDuration::from_secs(5),
            Scenario::MetadataIntensive => SimDuration::from_secs(1),
        }
    }

    /// Total metadata operations for BuzzFlow (Table I).
    pub fn buzzflow_total_ops(self) -> usize {
        match self {
            Scenario::SmallScale => 7_200,
            Scenario::ComputationIntensive => 14_400,
            Scenario::MetadataIntensive => 72_000,
        }
    }

    /// Total metadata operations for Montage (Table I).
    pub fn montage_total_ops(self) -> usize {
        match self {
            Scenario::SmallScale => 16_000,
            Scenario::ComputationIntensive => 32_000,
            Scenario::MetadataIntensive => 150_000,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_split_half_and_half() {
        let spec = SyntheticSpec::fig5(100);
        let writers = (0..spec.nodes)
            .filter(|&n| spec.role(n) == Role::Writer)
            .count();
        assert_eq!(writers, 16);
        assert_eq!(spec.writers(), 16);
        assert_eq!(spec.total_ops(), 3_200);
    }

    #[test]
    fn writer_keys_are_consecutive_and_distinct() {
        let spec = SyntheticSpec::fig5(10);
        assert_eq!(spec.writer_key(0, 0), "bench/w0/file0");
        assert_eq!(spec.writer_key(0, 1), "bench/w0/file1");
        assert_ne!(spec.writer_key(0, 3), spec.writer_key(2, 3));
    }

    #[test]
    fn reader_keys_reference_real_writers() {
        let spec = SyntheticSpec::fig5(50);
        let mut rng = spec.node_rng(1);
        for i in 0..200 {
            let k = spec.reader_key(1, i % 50, &mut rng);
            // Key shape: bench/w{even}/file{seq<ops}.
            let rest = k.strip_prefix("bench/w").unwrap();
            let (w, f) = rest.split_once("/file").unwrap();
            let w: usize = w.parse().unwrap();
            let f: usize = f.parse().unwrap();
            assert_eq!(w % 2, 0, "writers are even nodes");
            assert!(w < spec.nodes);
            assert!(f < spec.ops_per_node);
        }
    }

    #[test]
    fn reader_never_reads_far_future() {
        // At op i a reader may reference at most sequence i.
        let spec = SyntheticSpec::fig5(1000);
        let mut rng = spec.node_rng(3);
        for i in 0..100 {
            let k = spec.reader_key(3, i, &mut rng);
            let seq: usize = k.split("/file").nth(1).unwrap().parse().unwrap();
            assert!(seq <= i);
        }
    }

    #[test]
    fn node_rngs_are_independent() {
        let spec = SyntheticSpec::fig5(10);
        let mut a = spec.node_rng(1);
        let mut b = spec.node_rng(3);
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn table1_settings_match_the_paper() {
        use Scenario::*;
        assert_eq!(SmallScale.ops_per_node(), 100);
        assert_eq!(ComputationIntensive.ops_per_node(), 200);
        assert_eq!(MetadataIntensive.ops_per_node(), 1_000);
        assert_eq!(ComputationIntensive.compute(), SimDuration::from_secs(5));
        assert_eq!(SmallScale.buzzflow_total_ops(), 7_200);
        assert_eq!(MetadataIntensive.buzzflow_total_ops(), 72_000);
        assert_eq!(SmallScale.montage_total_ops(), 16_000);
        assert_eq!(ComputationIntensive.montage_total_ops(), 32_000);
        assert_eq!(MetadataIntensive.montage_total_ops(), 150_000);
        assert_eq!(MetadataIntensive.label(), "MI");
    }
}
