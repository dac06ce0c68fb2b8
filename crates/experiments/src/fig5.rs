//! Figure 5 — node execution time vs operations per node.
//!
//! "Average execution time for a node performing metadata operations",
//! 32 nodes over 4 datacenters, half writers / half readers, sweeping
//! {500, 1000, 5000, 10000} ops/node across all four strategies; grey bars
//! report the aggregate operation count. Expected shape: centralized is
//! fine at ≤500 ops/node, then falls behind; the decentralized strategies
//! gain up to ~50% at 320,000 total operations.

use crate::simbind::{run_synthetic, SimConfig, SyntheticOutcome};
use crate::table::{secs, Table};
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_workflow::apps::synthetic::SyntheticSpec;

/// One sweep point: every strategy at one ops/node setting.
#[derive(Clone, Debug)]
pub(crate) struct Fig5Row {
    /// Operations per node.
    pub ops_per_node: usize,
    /// Aggregate operations (the figure's grey bars).
    pub aggregate_ops: usize,
    /// Average node execution time per strategy, paper order.
    pub times: [SimDuration; 4],
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub(crate) struct Fig5Config {
    /// Node count (paper: 32).
    pub nodes: usize,
    /// Ops/node sweep (paper: 500, 1000, 5000, 10000).
    pub ops_sweep: Vec<usize>,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            nodes: 32,
            ops_sweep: vec![500, 1_000, 5_000, 10_000],
            seed: 5,
        }
    }
}

impl Fig5Config {
    /// Reduced sweep for tests/benches.
    pub(crate) fn quick() -> Fig5Config {
        Fig5Config {
            nodes: 16,
            ops_sweep: vec![50, 150],
            seed: 5,
        }
    }
}

/// Run one (strategy, ops/node) cell.
pub(crate) fn run_cell(cfg: &Fig5Config, kind: StrategyKind, ops: usize) -> SyntheticOutcome {
    let spec = SyntheticSpec {
        nodes: cfg.nodes,
        ops_per_node: ops,
        compute_per_op: SimDuration::ZERO,
        seed: cfg.seed,
    };
    run_synthetic(&spec, &SimConfig::new(kind, cfg.seed))
}

/// Run the full sweep: the (ops/node × strategy) grid fans out over the
/// [`Runner`](crate::runner::Runner) worker pool, index-keyed so the rows
/// are byte-identical to a sequential sweep.
pub(crate) fn run(cfg: &Fig5Config) -> Vec<Fig5Row> {
    let cells: Vec<(usize, StrategyKind)> = cfg
        .ops_sweep
        .iter()
        .flat_map(|&ops| StrategyKind::all().into_iter().map(move |kind| (ops, kind)))
        .collect();
    let outcomes = crate::runner::Runner::from_env().run(cells, |_, (ops, kind)| {
        run_cell(cfg, kind, ops).avg_node_completion
    });
    cfg.ops_sweep
        .iter()
        .zip(outcomes.chunks_exact(StrategyKind::all().len()))
        .map(|(&ops, t)| Fig5Row {
            ops_per_node: ops,
            aggregate_ops: ops * cfg.nodes,
            times: [t[0], t[1], t[2], t[3]],
        })
        .collect()
}

/// Render paper-style output.
pub(crate) fn render(rows: &[Fig5Row]) -> Table {
    let mut t = Table::new(
        "Fig. 5 — avg node execution time (s), 32 nodes, by ops/node",
        &[
            "ops/node",
            "aggregate ops",
            "Centralized",
            "Replicated",
            "Dec. Non-rep",
            "Dec. Rep",
        ],
    );
    for r in rows {
        t.row(vec![
            r.ops_per_node.to_string(),
            r.aggregate_ops.to_string(),
            secs(r.times[0]),
            secs(r.times[1]),
            secs(r.times[2]),
            secs(r.times[3]),
        ]);
    }
    t
}

/// The paper's headline number for this figure: relative gain of the best
/// decentralized strategy over the centralized baseline at the largest
/// sweep point.
pub(crate) fn headline_gain(rows: &[Fig5Row]) -> f64 {
    let last = rows.last().expect("non-empty sweep");
    let centralized = last.times[0].as_secs_f64();
    let best_dec = last.times[2].min(last.times[3]).as_secs_f64();
    1.0 - best_dec / centralized
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decentralized_wins_at_scale() {
        let cfg = Fig5Config::quick();
        let rows = run(&cfg);
        let last = rows.last().unwrap();
        let [c, _r, dn, dr] = last.times;
        assert!(
            dr < c && dn < c,
            "decentralized ({dn}, {dr}) must beat centralized ({c}) at the largest point"
        );
    }

    #[test]
    fn gap_grows_with_ops() {
        let cfg = Fig5Config::quick();
        let rows = run(&cfg);
        let gap = |r: &Fig5Row| r.times[0].as_secs_f64() - r.times[3].as_secs_f64();
        assert!(
            gap(rows.last().unwrap()) > gap(&rows[0]),
            "absolute centralized-vs-DR gap must grow with ops"
        );
    }

    #[test]
    fn aggregate_ops_bars_match() {
        let cfg = Fig5Config::quick();
        let rows = run(&cfg);
        for r in &rows {
            assert_eq!(r.aggregate_ops, r.ops_per_node * cfg.nodes);
        }
        assert!(headline_gain(&rows) > 0.0);
    }
}
