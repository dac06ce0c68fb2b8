//! BuzzFlow-shaped workflow generator.
//!
//! BuzzFlow "searches for trends and correlations in large scientific
//! publications databases like DBLP or PubMed" and is described by the
//! paper as a *near-pipelined* application (Fig. 9a): a chain of analysis
//! stages (buzz detection, word reduction, history correlation, ...) where
//! each stage consumes the previous stage's files, with limited intra-stage
//! parallelism that narrows towards the end.
//!
//! Sequential, tightly file-coupled stages are exactly the workloads the
//! locally-replicated decentralized strategy targets (§VII-A): consecutive
//! tasks land in the same site, so their metadata is found locally.

use crate::dag::Workflow;
use crate::file::WorkflowFile;
use geometa_sim::time::SimDuration;

/// Tuning for the BuzzFlow generator.
#[derive(Clone, Copy, Debug)]
pub struct BuzzFlowConfig {
    /// Number of pipeline stages.
    pub stages: usize,
    /// Parallel width of the first stage; later stages narrow
    /// geometrically towards 1 (the near-pipeline profile).
    pub initial_width: usize,
    /// Files each task writes.
    pub files_per_task: usize,
    /// Compute duration per task.
    pub compute: SimDuration,
    /// Size of intermediate files.
    pub file_size: u64,
}

impl Default for BuzzFlowConfig {
    fn default() -> Self {
        BuzzFlowConfig {
            stages: 8,
            initial_width: 6,
            files_per_task: 4,
            compute: SimDuration::from_secs(1),
            file_size: 190 * 1024, // the paper's genome-trace-sized files
        }
    }
}

/// Stage widths: geometric narrowing from `initial_width` to 1.
pub(crate) fn stage_widths(cfg: &BuzzFlowConfig) -> Vec<usize> {
    (0..cfg.stages)
        .map(|s| (cfg.initial_width >> s).max(1))
        .collect()
}

/// Generate a BuzzFlow-shaped workflow.
pub fn buzzflow(cfg: BuzzFlowConfig) -> Workflow {
    assert!(cfg.stages > 0 && cfg.initial_width > 0 && cfg.files_per_task > 0);
    let widths = stage_widths(&cfg);
    let mut b = Workflow::builder("buzzflow");
    // prev[i] = files written by task i of the previous stage.
    let mut prev: Vec<Vec<String>> = Vec::new();
    for (s, &width) in widths.iter().enumerate() {
        let mut this: Vec<Vec<String>> = Vec::with_capacity(width);
        for t in 0..width {
            // Each task consumes the outputs of the previous-stage tasks
            // that map onto it (near-pipeline: mostly one-to-one, fan-in
            // where the stage narrows).
            let inputs: Vec<String> = if prev.is_empty() {
                vec![format!("buzzflow/db_shard_{t}.tbl")] // external DB shard
            } else {
                let ratio = prev.len().div_ceil(width);
                prev.iter()
                    .enumerate()
                    .filter(|(i, _)| i / ratio == t)
                    .flat_map(|(_, fs)| fs.iter().cloned())
                    .collect()
            };
            let outputs: Vec<WorkflowFile> = (0..cfg.files_per_task)
                .map(|f| WorkflowFile::new(format!("buzzflow/s{s}_t{t}_f{f}.out"), cfg.file_size))
                .collect();
            this.push(outputs.iter().map(|f| f.name.clone()).collect());
            b.task(format!("buzz-s{s}-t{t}"), inputs, outputs, cfg.compute);
        }
        prev = this;
    }
    b.build().expect("buzzflow generator produces a DAG")
}

/// Closed-form metadata op count.
pub fn buzzflow_ops(cfg: &BuzzFlowConfig) -> usize {
    let widths = stage_widths(cfg);
    let mut ops = 0;
    for (s, &w) in widths.iter().enumerate() {
        // Writes.
        ops += w * cfg.files_per_task;
        // Reads: stage 0 reads one external shard per task; stage s reads
        // all files of stage s-1 (each file read exactly once thanks to
        // the partitioned fan-in).
        if s == 0 {
            ops += w;
        } else {
            ops += widths[s - 1] * cfg.files_per_task;
        }
    }
    ops
}

/// Size a BuzzFlow run so total metadata ops approximate `target_ops`.
pub fn buzzflow_with_total_ops(
    target_ops: usize,
    stages: usize,
    initial_width: usize,
    compute: SimDuration,
) -> Workflow {
    let mut best = BuzzFlowConfig {
        stages,
        initial_width,
        files_per_task: 1,
        compute,
        ..BuzzFlowConfig::default()
    };
    let mut best_diff = usize::MAX;
    for fpt in 1..=4096 {
        let cfg = BuzzFlowConfig {
            stages,
            initial_width,
            files_per_task: fpt,
            compute,
            ..BuzzFlowConfig::default()
        };
        let ops = buzzflow_ops(&cfg);
        let diff = ops.abs_diff(target_ops);
        if diff < best_diff {
            best_diff = diff;
            best = cfg;
        }
        if ops > target_ops {
            break;
        }
    }
    buzzflow(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometa_core::FxHashMap;

    #[test]
    fn widths_narrow_geometrically() {
        let cfg = BuzzFlowConfig {
            stages: 5,
            initial_width: 8,
            ..BuzzFlowConfig::default()
        };
        assert_eq!(stage_widths(&cfg), vec![8, 4, 2, 1, 1]);
    }

    #[test]
    fn shape_is_near_pipeline() {
        let w = buzzflow(BuzzFlowConfig::default());
        let levels = w.levels();
        let max_level = *levels.iter().max().unwrap();
        assert_eq!(max_level + 1, 8, "one level per stage");
        // Depth dominates width — the "near-pipeline" signature.
        assert!(max_level + 1 > w.max_width());
    }

    #[test]
    fn op_formula_matches_dag() {
        for (stages, width, fpt) in [(3, 4, 1), (5, 8, 3), (7, 8, 4)] {
            let cfg = BuzzFlowConfig {
                stages,
                initial_width: width,
                files_per_task: fpt,
                ..BuzzFlowConfig::default()
            };
            let w = buzzflow(cfg);
            assert_eq!(
                w.total_metadata_ops(),
                buzzflow_ops(&cfg),
                "stages={stages} width={width} fpt={fpt}"
            );
        }
    }

    #[test]
    fn total_ops_targeting_is_close() {
        // Paper Table I: BuzzFlow metadata-intensive = 72,000 ops.
        let w = buzzflow_with_total_ops(72_000, 7, 8, SimDuration::from_secs(1));
        let ops = w.total_metadata_ops();
        let err = (ops as f64 - 72_000.0).abs() / 72_000.0;
        assert!(err < 0.05, "ops {ops} too far from 72k");
    }

    #[test]
    fn every_intermediate_file_is_consumed() {
        let w = buzzflow(BuzzFlowConfig {
            stages: 4,
            initial_width: 4,
            files_per_task: 2,
            ..BuzzFlowConfig::default()
        });
        // Count reads of each produced file: all but final-stage outputs
        // must be read exactly once.
        let mut reads: FxHashMap<&str, usize> = Default::default();
        for t in w.tasks() {
            for i in &t.inputs {
                *reads.entry(i.as_str()).or_insert(0) += 1;
            }
        }
        let final_stage_prefix = "buzzflow/s3_";
        for t in w.tasks() {
            for o in &t.outputs {
                if o.name.starts_with(final_stage_prefix) {
                    continue;
                }
                assert_eq!(
                    reads.get(o.name.as_str()),
                    Some(&1),
                    "file {} should be read exactly once",
                    o.name
                );
            }
        }
    }
}
