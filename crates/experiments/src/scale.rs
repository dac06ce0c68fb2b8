//! Beyond-paper large-scale sweep: 10k–100k files per site.
//!
//! The paper's evaluation tops out at 320,000 aggregate operations
//! (Fig. 5). This sweep pushes the same synthetic writer/reader workload
//! one to two orders of magnitude further — 10,000 to 100,000 files
//! *per site* on the 4-DC topology — to demonstrate that the reproduction
//! scales "as fast as the hardware allows": the DES core's events/sec
//! stays flat while the strategies' relative ordering from Figs. 5–8
//! holds at two orders of magnitude beyond the paper's largest point.
//!
//! Cells fan out over the [`Runner`](crate::runner::Runner) worker pool;
//! every *table* column is virtual-time (deterministic, byte-identical for
//! any `--jobs`), while wall-clock events/sec per cell goes to stderr.

use crate::simbind::{run_synthetic_instrumented, SimConfig};
use crate::table::{secs, Table};
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_workflow::apps::synthetic::SyntheticSpec;

/// One measured cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Files posted per site (writers × ops/writer ÷ sites).
    pub files_per_site: usize,
    /// Strategy under test.
    pub kind: StrategyKind,
    /// Total client operations across the deployment.
    pub total_ops: usize,
    /// Virtual makespan.
    pub makespan: SimDuration,
    /// Virtual aggregate throughput (ops/s).
    pub throughput: f64,
    /// DES events dispatched for the cell.
    pub events: u64,
    /// Host wall-clock events/sec for the cell (stderr only —
    /// never rendered into the deterministic table).
    pub wall_events_per_sec: f64,
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Files-per-site targets (default: 10k, 30k, 100k).
    pub files_per_site: Vec<usize>,
    /// Execution nodes (writer/reader pairs dealt round-robin over 4
    /// sites, like Figs. 5–8).
    pub nodes: usize,
    /// Strategies to sweep.
    pub kinds: Vec<StrategyKind>,
    /// Seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            files_per_site: vec![10_000, 30_000, 100_000],
            nodes: 32,
            kinds: StrategyKind::all().to_vec(),
            seed: 0x5CA1E,
        }
    }
}

impl ScaleConfig {
    /// Reduced sweep for tests and the CI smoke path.
    pub fn quick() -> ScaleConfig {
        ScaleConfig {
            files_per_site: vec![1_000, 4_000],
            nodes: 16,
            kinds: vec![StrategyKind::Centralized, StrategyKind::DhtLocalReplica],
            seed: 0x5CA1E,
        }
    }

    /// Writers per site under the round-robin node deal (half the nodes
    /// write, spread evenly over the 4-DC topology).
    fn writers_per_site(&self) -> usize {
        (self.nodes / 2 / 4).max(1)
    }

    /// The per-node op count that yields `files_per_site`.
    pub fn ops_per_node(&self, files_per_site: usize) -> usize {
        (files_per_site / self.writers_per_site()).max(1)
    }
}

/// Run one cell, returning the row and measuring host-side events/sec.
pub fn run_cell(cfg: &ScaleConfig, files_per_site: usize, kind: StrategyKind) -> ScaleRow {
    let spec = SyntheticSpec {
        nodes: cfg.nodes,
        ops_per_node: cfg.ops_per_node(files_per_site),
        compute_per_op: SimDuration::ZERO,
        seed: cfg.seed,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "host-throughput metric (events/sec of the simulator itself); kept out of the deterministic result table"
    )]
    let started = std::time::Instant::now();
    let (out, artifacts) = run_synthetic_instrumented(&spec, &SimConfig::new(kind, cfg.seed));
    let wall = started.elapsed().as_secs_f64();
    let wall_events_per_sec = if wall > 0.0 {
        artifacts.events_processed as f64 / wall
    } else {
        0.0
    };
    eprintln!(
        "[scale] {files_per_site} files/site {kind}: {} events, {:.0} ev/s wall",
        artifacts.events_processed, wall_events_per_sec
    );
    ScaleRow {
        files_per_site,
        kind,
        total_ops: out.total_ops,
        makespan: out.makespan,
        throughput: out.throughput,
        events: artifacts.events_processed,
        wall_events_per_sec,
    }
}

/// Run the sweep over the worker pool.
pub(crate) fn run(cfg: &ScaleConfig) -> Vec<ScaleRow> {
    let cells: Vec<(usize, StrategyKind)> = cfg
        .files_per_site
        .iter()
        .flat_map(|&f| cfg.kinds.iter().map(move |&k| (f, k)))
        .collect();
    crate::runner::Runner::from_env().run(cells, |_, (files, kind)| run_cell(cfg, files, kind))
}

/// Render the deterministic table (virtual metrics only: wall-clock
/// numbers stay out so `--jobs N` cannot perturb a byte of the report).
pub fn render(rows: &[ScaleRow]) -> Table {
    let mut t = Table::new(
        "Scale sweep (beyond paper) — synthetic workload, 4 sites",
        &[
            "files/site",
            "strategy",
            "total ops",
            "makespan (s)",
            "ops/s",
            "events",
        ],
    );
    for r in rows {
        t.row(vec![
            r.files_per_site.to_string(),
            r.kind.label().to_string(),
            r.total_ops.to_string(),
            secs(r.makespan),
            format!("{:.0}", r.throughput),
            r.events.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_completes_every_op() {
        let cfg = ScaleConfig::quick();
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.files_per_site.len() * cfg.kinds.len());
        for r in &rows {
            let expected = cfg.ops_per_node(r.files_per_site) * cfg.nodes;
            assert_eq!(r.total_ops, expected, "{} {:?}", r.files_per_site, r.kind);
            assert!(r.events > 0 && r.throughput > 0.0);
        }
    }

    #[test]
    fn decentralized_keeps_winning_beyond_paper_scale() {
        let cfg = ScaleConfig::quick();
        let rows = run(&cfg);
        let at = |files: usize, kind: StrategyKind| {
            rows.iter()
                .find(|r| r.files_per_site == files && r.kind == kind)
                .expect("cell present")
                .makespan
        };
        let largest = *cfg.files_per_site.last().unwrap();
        assert!(
            at(largest, StrategyKind::DhtLocalReplica) < at(largest, StrategyKind::Centralized),
            "the paper's ordering must hold at beyond-paper scale"
        );
    }

    #[test]
    fn table_is_deterministic_across_worker_counts() {
        let cfg = ScaleConfig::quick();
        let seq = render(
            &crate::runner::Runner::new(1).run(
                cfg.files_per_site
                    .iter()
                    .flat_map(|&f| cfg.kinds.iter().map(move |&k| (f, k)))
                    .collect(),
                |_, (f, k)| run_cell(&cfg, f, k),
            ),
        )
        .to_csv();
        let par = render(
            &crate::runner::Runner::new(8).run(
                cfg.files_per_site
                    .iter()
                    .flat_map(|&f| cfg.kinds.iter().map(move |&k| (f, k)))
                    .collect(),
                |_, (f, k)| run_cell(&cfg, f, k),
            ),
        )
        .to_csv();
        assert_eq!(seq, par, "scale table must not depend on worker count");
    }
}
