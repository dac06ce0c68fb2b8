//! Property-based tests for the workflow layer: every generator yields a
//! valid DAG with the documented shape, schedulers produce complete valid
//! placements, and the op-count formulas match the generated DAGs.

use geometa_core::FxHashMap;
use geometa_sim::time::SimDuration;
use geometa_sim::topology::SiteId;
use geometa_workflow::apps::buzzflow::{buzzflow, buzzflow_ops, BuzzFlowConfig};
use geometa_workflow::apps::montage::{montage, montage_ops, MontageConfig};
use geometa_workflow::dag::Workflow;
use geometa_workflow::patterns::{broadcast, gather, pipeline, reduce, scatter, PatternConfig};
use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use proptest::prelude::*;

fn check_valid(w: &Workflow) -> Result<(), TestCaseError> {
    // Topological order covers every task exactly once and respects deps.
    prop_assert_eq!(w.topological_order().len(), w.len());
    let pos: FxHashMap<_, _> = w
        .topological_order()
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    for t in w.tasks() {
        for &d in w.dependencies(t.id) {
            prop_assert!(pos[&d] < pos[&t.id], "dependency after dependent");
        }
    }
    // Critical path is bounded by total compute.
    let total: u64 = w.tasks().iter().map(|t| t.compute.as_micros()).sum();
    prop_assert!(w.critical_path().as_micros() <= total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn patterns_always_valid(width in 1..40usize, arity in 2..5usize, file_size in 1..10_000u64) {
        let cfg = PatternConfig {
            compute: SimDuration::from_millis(10),
            file_size,
        };
        for w in [
            pipeline("p", width, cfg),
            scatter("s", width, cfg),
            gather("g", width, cfg),
            reduce("r", width, arity, cfg),
            broadcast("b", width, cfg),
        ] {
            check_valid(&w)?;
        }
    }

    #[test]
    fn montage_shape_and_formula(tiles in 1..60usize, fpt in 1..50usize) {
        let cfg = MontageConfig {
            tiles,
            files_per_task: fpt,
            compute: SimDuration::from_secs(1),
            ..MontageConfig::default()
        };
        let w = montage(cfg);
        check_valid(&w)?;
        prop_assert_eq!(w.len(), 2 * tiles + 2);
        prop_assert_eq!(w.total_metadata_ops(), montage_ops(&cfg));
        prop_assert_eq!(w.max_width(), tiles.max(1));
        // Merge depends on every background task.
        let merge = w.tasks().last().unwrap().id;
        prop_assert_eq!(w.dependencies(merge).len(), tiles);
    }

    #[test]
    fn buzzflow_shape_and_formula(stages in 1..10usize, width in 1..40usize, fpt in 1..30usize) {
        let cfg = BuzzFlowConfig {
            stages,
            initial_width: width,
            files_per_task: fpt,
            compute: SimDuration::from_secs(1),
            ..BuzzFlowConfig::default()
        };
        let w = buzzflow(cfg);
        check_valid(&w)?;
        prop_assert_eq!(w.total_metadata_ops(), buzzflow_ops(&cfg));
        let max_level = *w.levels().iter().max().unwrap();
        prop_assert_eq!(max_level + 1, stages, "one level per stage");
    }

    #[test]
    fn schedulers_assign_every_task_to_a_real_node(
        width in 1..30usize,
        per_site in 1..6u32,
        policy_idx in 0..3usize,
        seed in any::<u64>(),
    ) {
        let w = reduce("r", width, 2, PatternConfig::default());
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let nodes = node_grid(&sites, per_site);
        let policy = [
            SchedulerPolicy::RoundRobin,
            SchedulerPolicy::Random(seed),
            SchedulerPolicy::LocalityAware,
        ][policy_idx];
        let p = schedule(&w, &nodes, policy);
        let mut assigned = 0usize;
        for (node, queue) in p.per_node_queues(&w) {
            prop_assert!(nodes.contains(&node), "placement invented a node");
            assigned += queue.len();
        }
        prop_assert_eq!(assigned, w.len(), "every task scheduled exactly once");
        let frac = p.colocated_edge_fraction(&w);
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn locality_never_splits_a_pure_pipeline(len in 2..30usize, per_site in 1..8u32) {
        let w = pipeline("p", len, PatternConfig::default());
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let nodes = node_grid(&sites, per_site);
        let p = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
        prop_assert_eq!(p.colocated_edge_fraction(&w), 1.0);
    }
}
