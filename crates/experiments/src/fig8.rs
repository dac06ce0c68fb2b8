//! Figure 8 — completion of a fixed operation batch as the set grows.
//!
//! "Completion of 32,000 operations as the set size grows": the total work
//! is constant, spread over 8 → 128 nodes. Expected shape: centralized
//! and decentralized both gain from parallelism (linear time gain), the
//! decentralized strategies dominate, and the replicated strategy
//! degrades at larger scale (same agent bottleneck as Fig. 7).

use crate::simbind::{run_synthetic, SimConfig};
use crate::table::{secs, Table};
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_workflow::apps::synthetic::SyntheticSpec;

/// Completion time of each strategy at one node count.
#[derive(Clone, Debug)]
pub(crate) struct Fig8Row {
    /// Execution nodes.
    pub nodes: usize,
    /// Batch completion time per strategy, paper order.
    pub completion: [SimDuration; 4],
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub(crate) struct Fig8Config {
    /// Node counts (paper: 8, 16, 32, 64, 128).
    pub node_counts: Vec<usize>,
    /// Total operations split across nodes (paper: 32,000).
    pub total_ops: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            node_counts: vec![8, 16, 32, 64, 128],
            total_ops: 32_000,
            seed: 8,
        }
    }
}

impl Fig8Config {
    /// Reduced sweep for tests/benches.
    pub(crate) fn quick() -> Fig8Config {
        Fig8Config {
            node_counts: vec![8, 32],
            total_ops: 1_600,
            seed: 8,
        }
    }
}

/// Run the sweep: the (node count × strategy) grid fans out over the
/// [`Runner`](crate::runner::Runner) worker pool, index-keyed so rows stay
/// byte-identical to a sequential sweep.
pub(crate) fn run(cfg: &Fig8Config) -> Vec<Fig8Row> {
    let cells: Vec<(usize, StrategyKind)> = cfg
        .node_counts
        .iter()
        .flat_map(|&nodes| {
            StrategyKind::all()
                .into_iter()
                .map(move |kind| (nodes, kind))
        })
        .collect();
    let times = crate::runner::Runner::from_env().run(cells, |_, (nodes, kind)| {
        let spec = SyntheticSpec {
            nodes,
            ops_per_node: cfg.total_ops / nodes,
            compute_per_op: SimDuration::ZERO,
            seed: cfg.seed,
        };
        run_synthetic(&spec, &SimConfig::new(kind, cfg.seed)).makespan
    });
    cfg.node_counts
        .iter()
        .zip(times.chunks_exact(StrategyKind::all().len()))
        .map(|(&nodes, t)| Fig8Row {
            nodes,
            completion: [t[0], t[1], t[2], t[3]],
        })
        .collect()
}

/// Render paper-style output.
pub(crate) fn render(rows: &[Fig8Row]) -> Table {
    let mut t = Table::new(
        "Fig. 8 — completion time (s) of a fixed 32k-op batch vs node count",
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
            secs(r.completion[0]),
            secs(r.completion[1]),
            secs(r.completion[2]),
            secs(r.completion[3]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_nodes_finish_the_batch_faster() {
        let rows = run(&Fig8Config::quick());
        let first = &rows[0];
        let last = rows.last().unwrap();
        // Decentralized strategies parallelize the fixed batch.
        for idx in [2usize, 3] {
            assert!(
                last.completion[idx] < first.completion[idx],
                "strategy {idx}: {} !< {}",
                last.completion[idx],
                first.completion[idx]
            );
        }
    }

    #[test]
    fn decentralized_wins_at_scale() {
        let rows = run(&Fig8Config::quick());
        let last = rows.last().unwrap();
        assert!(last.completion[3] <= last.completion[0]);
    }
}
