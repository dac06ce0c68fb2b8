//! Figure 10 + Table I — real-life workflows under every strategy.
//!
//! "Makespan for two real-life workflows" — BuzzFlow (near-pipeline) and
//! Montage (split/parallel/merge) in the three Table I scenarios
//! (small-scale, computation-intensive, metadata-intensive), executed on
//! 32 nodes over 4 datacenters with locality-aware scheduling. Expected
//! shape: centralized wins at small scale (decentralization overhead not
//! amortized); decentralized strategies win the metadata-intensive
//! scenario — the paper reports ~15% (BuzzFlow) and ~28% (Montage) gains
//! over the centralized baseline.

use crate::simbind::{run_workflow, SimConfig, WorkflowOutcome};
use crate::table::{secs, Table};
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_sim::topology::SiteId;
use geometa_workflow::apps::buzzflow::{buzzflow, BuzzFlowConfig};
use geometa_workflow::apps::montage::{montage, MontageConfig};
use geometa_workflow::apps::synthetic::Scenario;
use geometa_workflow::dag::Workflow;
use geometa_workflow::scheduler::{node_grid, schedule, Placement, SchedulerPolicy};

/// Which application a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Near-pipeline trend analysis.
    BuzzFlow,
    /// Split/parallel/merge mosaic assembly.
    Montage,
}

impl App {
    /// Both, in the paper's order.
    pub fn all() -> [App; 2] {
        [App::BuzzFlow, App::Montage]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            App::BuzzFlow => "BuzzFlow",
            App::Montage => "Montage",
        }
    }
}

/// One (app, scenario) cell across all strategies.
#[derive(Clone, Debug)]
pub(crate) struct Fig10Row {
    /// Application.
    pub app: App,
    /// Table I scenario.
    pub scenario: Scenario,
    /// Total metadata ops the generated workflow performs.
    pub total_ops: usize,
    /// Makespan per strategy, paper order.
    pub makespan: [SimDuration; 4],
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig10Config {
    /// Nodes (paper: 32, evenly over 4 sites).
    pub nodes_per_site: u32,
    /// Scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Scale factor on Table I op totals (1.0 = full size); tests shrink.
    pub ops_scale: f64,
    /// Task placement policy. The paper distributes jobs "evenly across 32
    /// nodes" (round-robin); locality-aware placement is the ablation.
    pub policy: SchedulerPolicy,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            nodes_per_site: 8,
            scenarios: Scenario::all().to_vec(),
            ops_scale: 1.0,
            policy: SchedulerPolicy::RoundRobin,
            seed: 10,
        }
    }
}

impl Fig10Config {
    /// Reduced configuration for tests/benches.
    pub fn quick() -> Fig10Config {
        Fig10Config {
            nodes_per_site: 2,
            scenarios: vec![Scenario::SmallScale, Scenario::MetadataIntensive],
            ops_scale: 0.02,
            policy: SchedulerPolicy::RoundRobin,
            seed: 10,
        }
    }
}

/// Build the Montage workflow for a scenario: `files_per_task` chosen so a
/// parallel task performs ≈ the scenario's ops/node, tile count so the
/// total matches Table I.
pub fn montage_for(scenario: Scenario, cfg: &Fig10Config) -> Workflow {
    let target = ((scenario.montage_total_ops() as f64) * cfg.ops_scale) as usize;
    let per_task = ((scenario.ops_per_node() as f64) * cfg.ops_scale).max(2.0) as usize;
    let fpt = (per_task - 1).max(1);
    let tiles = ((target.saturating_sub(2)) / (2 * fpt + 4)).max(1);
    montage(MontageConfig {
        tiles,
        files_per_task: fpt,
        compute: scenario.compute(),
        ..MontageConfig::default()
    })
}

/// Build the BuzzFlow workflow for a scenario (stage widths narrowing from
/// 36, per-task file count from the scenario's ops/node).
pub fn buzzflow_for(scenario: Scenario, cfg: &Fig10Config) -> Workflow {
    let per_task = ((scenario.ops_per_node() as f64) * cfg.ops_scale).max(2.0) as usize;
    let fpt = (per_task / 2).max(1);
    let initial_width = ((36.0 * cfg.ops_scale.sqrt()) as usize).max(4);
    buzzflow(BuzzFlowConfig {
        stages: 8,
        initial_width,
        files_per_task: fpt,
        compute: scenario.compute(),
        ..BuzzFlowConfig::default()
    })
}

fn placement_for(w: &Workflow, cfg: &Fig10Config) -> Placement {
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
    let nodes = node_grid(&sites, cfg.nodes_per_site);
    schedule(w, &nodes, cfg.policy)
}

/// Run one (app, scenario, strategy) cell.
pub fn run_cell(
    app: App,
    scenario: Scenario,
    kind: StrategyKind,
    cfg: &Fig10Config,
) -> WorkflowOutcome {
    let w = match app {
        App::BuzzFlow => buzzflow_for(scenario, cfg),
        App::Montage => montage_for(scenario, cfg),
    };
    let placement = placement_for(&w, cfg);
    run_workflow(&w, &placement, &SimConfig::new(kind, cfg.seed))
}

/// Run the full grid: every (app, scenario, strategy) cell is an
/// independent simulation, fanned out over the
/// [`Runner`](crate::runner::Runner) worker pool and re-assembled by cell
/// index so the rows are byte-identical to a sequential run.
pub(crate) fn run(cfg: &Fig10Config) -> Vec<Fig10Row> {
    let mut shells: Vec<(App, Scenario, Workflow, Placement)> = Vec::new();
    for app in App::all() {
        for &scenario in &cfg.scenarios {
            let w = match app {
                App::BuzzFlow => buzzflow_for(scenario, cfg),
                App::Montage => montage_for(scenario, cfg),
            };
            let placement = placement_for(&w, cfg);
            shells.push((app, scenario, w, placement));
        }
    }
    let kinds = StrategyKind::all();
    let cells: Vec<(usize, StrategyKind)> = (0..shells.len())
        .flat_map(|s| kinds.into_iter().map(move |kind| (s, kind)))
        .collect();
    let times = crate::runner::Runner::from_env().run(cells, |_, (s, kind)| {
        let (app, scenario, w, placement) = &shells[s];
        eprintln!(
            "[fig10] {} {} {} ({} ops)...",
            app.label(),
            scenario.label(),
            kind,
            w.total_metadata_ops()
        );
        run_workflow(w, placement, &SimConfig::new(kind, cfg.seed)).makespan
    });
    shells
        .iter()
        .zip(times.chunks_exact(kinds.len()))
        .map(|((app, scenario, w, _), t)| Fig10Row {
            app: *app,
            scenario: *scenario,
            total_ops: w.total_metadata_ops(),
            makespan: [t[0], t[1], t[2], t[3]],
        })
        .collect()
}

/// Render paper-style output.
pub(crate) fn render(rows: &[Fig10Row]) -> Table {
    let mut t = Table::new(
        "Fig. 10 — workflow makespan (s) per scenario and strategy",
        &[
            "app",
            "scenario",
            "total ops",
            "Centralized",
            "Replicated",
            "Dec. Non-rep",
            "Dec. Rep",
        ],
    );
    for r in rows {
        t.row(vec![
            r.app.label().to_string(),
            r.scenario.label().to_string(),
            r.total_ops.to_string(),
            secs(r.makespan[0]),
            secs(r.makespan[1]),
            secs(r.makespan[2]),
            secs(r.makespan[3]),
        ]);
    }
    t
}

/// Gain of the best decentralized strategy over the centralized baseline
/// for one row.
pub(crate) fn decentralized_gain(row: &Fig10Row) -> f64 {
    let c = row.makespan[0].as_secs_f64();
    let best = row.makespan[2].min(row.makespan[3]).as_secs_f64();
    if c > 0.0 {
        1.0 - best / c
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_is_shaped() {
        let cfg = Fig10Config::quick();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 4); // 2 apps x 2 scenarios
        for r in &rows {
            for m in r.makespan {
                assert!(m > SimDuration::ZERO, "{:?}/{:?}", r.app, r.scenario);
            }
        }
    }

    #[test]
    fn metadata_intensive_favours_decentralized_montage() {
        // Montage (parallel, geo-distributed) shows the decentralized win
        // even at the shrunken test scale; BuzzFlow's near-pipeline needs
        // the full-size run (its tiny version degenerates to small-scale
        // behaviour, where centralized solutions win — as the paper says).
        let cfg = Fig10Config::quick();
        let r = run(&cfg)
            .into_iter()
            .find(|r| r.app == App::Montage && r.scenario == Scenario::MetadataIntensive)
            .expect("montage MI row");
        assert!(
            decentralized_gain(&r) > 0.0,
            "Montage MI: decentralized should beat centralized (gain {})",
            decentralized_gain(&r)
        );
    }

    #[test]
    fn generators_hit_table1_totals_at_full_scale() {
        let cfg = Fig10Config::default();
        for scenario in Scenario::all() {
            let m = montage_for(scenario, &cfg).total_metadata_ops();
            let target = scenario.montage_total_ops();
            let err = (m as f64 - target as f64).abs() / target as f64;
            assert!(err < 0.10, "montage {scenario}: {m} vs {target}");
            let b = buzzflow_for(scenario, &cfg).total_metadata_ops();
            let target = scenario.buzzflow_total_ops();
            let err = (b as f64 - target as f64).abs() / target as f64;
            assert!(err < 0.10, "buzzflow {scenario}: {b} vs {target}");
        }
    }
}
