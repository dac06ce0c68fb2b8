//! The workflow engine × strategy × pattern matrix, on the in-process
//! transport (semantics) and in the simulator (timing), plus scheduler and
//! provenance cross-checks.

use geometa::core::controller::ArchitectureController;
use geometa::core::strategy::StrategyKind;
use geometa::core::transport::InProcessTransport;
use geometa::core::{ClientConfig, FxHashMap, StrategyClient};
use geometa::experiments::calibration::Calibration;
use geometa::experiments::simbind::{run_workflow, SimConfig};
use geometa::sim::time::SimDuration;
use geometa::sim::topology::SiteId;
use geometa::workflow::apps::buzzflow::{buzzflow, BuzzFlowConfig};
use geometa::workflow::apps::montage::{montage, MontageConfig};
use geometa::workflow::dag::Workflow;
use geometa::workflow::engine::{EngineConfig, MetadataOps, WorkflowEngine};
use geometa::workflow::patterns::{broadcast, gather, pipeline, reduce, scatter, PatternConfig};
use geometa::workflow::scheduler::{node_grid, schedule, NodeId, SchedulerPolicy};
use std::sync::Arc;

fn sites4() -> Vec<SiteId> {
    (0..4).map(SiteId).collect()
}

fn clients(nodes: &[NodeId], kind: StrategyKind) -> FxHashMap<NodeId, Arc<dyn MetadataOps>> {
    let transport = Arc::new(InProcessTransport::new(&sites4(), 8));
    let controller = Arc::new(ArchitectureController::with_kind(kind, sites4()));
    nodes
        .iter()
        .map(|&n| {
            let c: Arc<dyn MetadataOps> = Arc::new(StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig {
                    site: n.site,
                    node: n.index,
                },
            ));
            (n, c)
        })
        .collect()
}

fn patterns() -> Vec<Workflow> {
    let cfg = PatternConfig {
        compute: SimDuration::ZERO,
        ..PatternConfig::default()
    };
    vec![
        pipeline("pl", 8, cfg),
        scatter("sc", 8, cfg),
        gather("ga", 8, cfg),
        reduce("re", 8, 2, cfg),
        broadcast("br", 8, cfg),
    ]
}

/// Every pattern completes under every strategy with locality placement on
/// the threaded engine (in-process transport).
#[test]
fn engine_runs_every_pattern_under_every_strategy() {
    let nodes = node_grid(&sites4(), 4);
    for w in patterns() {
        // The replicated strategy needs its sync agent to propagate between
        // sites; the bare in-process transport has none (that combination is
        // covered by the live-cluster tests, where the agent thread runs).
        for kind in [
            StrategyKind::Centralized,
            StrategyKind::DhtNonReplicated,
            StrategyKind::DhtLocalReplica,
        ] {
            let placement = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
            let cs = clients(&nodes, kind);
            let report = WorkflowEngine::new(EngineConfig::default())
                .run(&w, &placement, &cs)
                .unwrap_or_else(|e| panic!("{} under {kind:?}: {e}", w.name()));
            assert_eq!(
                report.task_completion.len(),
                w.len(),
                "{} under {kind:?}",
                w.name()
            );
            assert_eq!(report.publish_calls as usize, w.total_files());
        }
    }
}

/// The same matrix in the simulator: op counts must match the DAG exactly.
/// Every (pattern × strategy) cell is an independent seeded simulation, so
/// the grid fans out over the scenario worker pool (`GEOMETA_JOBS`).
#[test]
fn simulated_engine_op_counts_match_dag() {
    let nodes = node_grid(&sites4(), 2);
    let cal = Calibration::test_fast();
    let cells: Vec<(Workflow, StrategyKind)> = patterns()
        .into_iter()
        .flat_map(|w| {
            [StrategyKind::Centralized, StrategyKind::DhtLocalReplica]
                .into_iter()
                .map(move |kind| (w.clone(), kind))
        })
        .collect();
    let results = geometa::experiments::runner::Runner::from_env().run(cells, |_, (w, kind)| {
        let placement = schedule(&w, &nodes, SchedulerPolicy::RoundRobin);
        let cfg = SimConfig {
            cal,
            ..SimConfig::new(kind, 7)
        };
        (
            run_workflow(&w, &placement, &cfg).total_ops,
            w.total_metadata_ops(),
            w.name().to_string(),
            kind,
        )
    });
    for (got, want, name, kind) in results {
        assert_eq!(got, want, "{name} under {kind:?}");
    }
}

/// Montage and BuzzFlow generators execute end to end in the simulator.
#[test]
fn real_apps_execute_in_sim() {
    let nodes = node_grid(&sites4(), 4);
    let m = montage(MontageConfig {
        tiles: 8,
        files_per_task: 3,
        compute: SimDuration::from_millis(20),
        ..MontageConfig::default()
    });
    let b = buzzflow(BuzzFlowConfig {
        stages: 5,
        initial_width: 6,
        files_per_task: 3,
        compute: SimDuration::from_millis(20),
        ..BuzzFlowConfig::default()
    });
    for w in [m, b] {
        let placement = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
        let cfg = SimConfig {
            cal: Calibration::test_fast(),
            ..SimConfig::new(StrategyKind::DhtLocalReplica, 11)
        };
        let out = run_workflow(&w, &placement, &cfg);
        assert_eq!(out.total_ops, w.total_metadata_ops(), "{}", w.name());
        // Makespan at least the critical path's compute time.
        assert!(out.makespan >= w.critical_path(), "{}", w.name());
    }
}

/// Locality-aware placement reduces both provisioning traffic and simulated
/// makespan versus random placement (the `ablation_locality` claim).
#[test]
fn locality_placement_beats_random_in_sim() {
    use geometa::workflow::provenance::provisioning_plan;
    let nodes = node_grid(&sites4(), 4);
    let w = buzzflow(BuzzFlowConfig {
        stages: 6,
        initial_width: 8,
        files_per_task: 6,
        compute: SimDuration::ZERO,
        ..BuzzFlowConfig::default()
    });
    let local = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
    let random = schedule(&w, &nodes, SchedulerPolicy::Random(3));
    assert!(
        provisioning_plan(&w, &local).len() < provisioning_plan(&w, &random).len(),
        "locality placement must need fewer cross-site transfers"
    );
    let cfg = SimConfig {
        cal: Calibration::test_fast(),
        ..SimConfig::new(StrategyKind::DhtLocalReplica, 5)
    };
    let t_local = run_workflow(&w, &local, &cfg).makespan;
    let t_random = run_workflow(&w, &random, &cfg).makespan;
    assert!(
        t_local <= t_random,
        "locality {t_local} should not lose to random {t_random}"
    );
}
