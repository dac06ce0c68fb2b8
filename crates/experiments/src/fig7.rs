//! Figure 7 — metadata throughput as the deployment scales.
//!
//! "Metadata throughput as the number of nodes grows": 8 → 128 nodes,
//! 5,000 ops/node, all four strategies. Expected shape: the decentralized
//! strategies grow near-linearly (up to ~1,150 ops/s at 128 nodes in the
//! paper); the centralized baseline flattens once its single instance
//! saturates; the replicated strategy tracks the leaders up to ~32 nodes,
//! then degrades as the single sync agent becomes the bottleneck.

use crate::simbind::{run_synthetic, SimConfig};
use crate::table::Table;
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_workflow::apps::synthetic::SyntheticSpec;

/// Throughput of each strategy at one node count.
#[derive(Clone, Debug)]
pub(crate) struct Fig7Row {
    /// Execution nodes.
    pub nodes: usize,
    /// Aggregate throughput (ops/s) per strategy, paper order.
    pub throughput: [f64; 4],
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub(crate) struct Fig7Config {
    /// Node counts (paper: 8, 16, 32, 64, 128).
    pub node_counts: Vec<usize>,
    /// Ops per node (paper: 5,000).
    pub ops_per_node: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            node_counts: vec![8, 16, 32, 64, 128],
            ops_per_node: 5_000,
            seed: 7,
        }
    }
}

impl Fig7Config {
    /// Reduced sweep for tests/benches.
    pub(crate) fn quick() -> Fig7Config {
        Fig7Config {
            node_counts: vec![8, 32],
            ops_per_node: 100,
            seed: 7,
        }
    }
}

/// Run the sweep: the (node count × strategy) grid fans out over the
/// [`Runner`](crate::runner::Runner) worker pool, index-keyed so rows stay
/// byte-identical to a sequential sweep.
pub(crate) fn run(cfg: &Fig7Config) -> Vec<Fig7Row> {
    let cells: Vec<(usize, StrategyKind)> = cfg
        .node_counts
        .iter()
        .flat_map(|&nodes| {
            StrategyKind::all()
                .into_iter()
                .map(move |kind| (nodes, kind))
        })
        .collect();
    let tp = crate::runner::Runner::from_env().run(cells, |_, (nodes, kind)| {
        let spec = SyntheticSpec {
            nodes,
            ops_per_node: cfg.ops_per_node,
            compute_per_op: SimDuration::ZERO,
            seed: cfg.seed,
        };
        run_synthetic(&spec, &SimConfig::new(kind, cfg.seed)).throughput
    });
    cfg.node_counts
        .iter()
        .zip(tp.chunks_exact(StrategyKind::all().len()))
        .map(|(&nodes, t)| Fig7Row {
            nodes,
            throughput: [t[0], t[1], t[2], t[3]],
        })
        .collect()
}

/// Render paper-style output.
pub(crate) fn render(rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(
        "Fig. 7 — aggregate metadata throughput (ops/s) vs node count",
        &[
            "nodes",
            "Centralized",
            "Replicated",
            "Dec. Non-rep",
            "Dec. Rep",
        ],
    );
    for r in rows {
        t.row(vec![
            r.nodes.to_string(),
            format!("{:.0}", r.throughput[0]),
            format!("{:.0}", r.throughput[1]),
            format!("{:.0}", r.throughput[2]),
            format!("{:.0}", r.throughput[3]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_rows() -> Vec<Fig7Row> {
        run(&Fig7Config::quick())
    }

    #[test]
    fn decentralized_scales_with_nodes() {
        let rows = quick_rows();
        let first = &rows[0];
        let last = rows.last().unwrap();
        let node_ratio = last.nodes as f64 / first.nodes as f64;
        for idx in [2usize, 3] {
            let growth = last.throughput[idx] / first.throughput[idx];
            assert!(
                growth > node_ratio * 0.5,
                "strategy {idx} grew only {growth:.2}x over a {node_ratio:.0}x node increase"
            );
        }
    }

    #[test]
    fn decentralized_beats_centralized_at_scale() {
        let rows = quick_rows();
        let last = rows.last().unwrap();
        assert!(last.throughput[3] > last.throughput[0]);
        assert!(last.throughput[2] > last.throughput[0]);
    }

    #[test]
    fn throughputs_positive_everywhere() {
        for r in quick_rows() {
            for tp in r.throughput {
                assert!(tp > 0.0);
            }
        }
    }
}
