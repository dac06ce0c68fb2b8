//! The canonical workflow data-access patterns (paper §II-A).
//!
//! "The most frequent data access models are: pipeline, gather, scatter,
//! reduce and broadcast. Further studies show that the workflow
//! applications are typically a combination of these patterns." Each
//! generator returns a validated [`Workflow`].

use crate::dag::Workflow;
use crate::file::WorkflowFile;
use geometa_sim::time::SimDuration;

/// Shared knobs for the pattern generators.
#[derive(Clone, Copy, Debug)]
pub struct PatternConfig {
    /// Compute duration of every generated task.
    pub compute: SimDuration,
    /// Size of every generated file.
    pub file_size: u64,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            compute: SimDuration::from_secs(1),
            file_size: 256 * 1024,
        }
    }
}

/// A linear chain: `t0 -> t1 -> ... -> t(n-1)`, each task consuming its
/// predecessor's file.
pub fn pipeline(name: &str, stages: usize, cfg: PatternConfig) -> Workflow {
    assert!(stages > 0, "pipeline needs at least one stage");
    let mut b = Workflow::builder(name);
    let mut prev: Option<String> = None;
    for i in 0..stages {
        let out = format!("{name}/stage{i}.out");
        let inputs = prev.take().map(|p| vec![p]).unwrap_or_default();
        b.task(
            format!("{name}-stage{i}"),
            inputs,
            vec![WorkflowFile::new(&out, cfg.file_size)],
            cfg.compute,
        );
        prev = Some(out);
    }
    b.build().expect("pipeline is trivially acyclic")
}

/// One source task fans out to `width` independent workers, each getting
/// its own slice file.
pub fn scatter(name: &str, width: usize, cfg: PatternConfig) -> Workflow {
    assert!(width > 0, "scatter needs at least one branch");
    let mut b = Workflow::builder(name);
    let slices: Vec<WorkflowFile> = (0..width)
        .map(|i| WorkflowFile::new(format!("{name}/slice{i}"), cfg.file_size))
        .collect();
    b.task(format!("{name}-split"), vec![], slices.clone(), cfg.compute);
    for (i, s) in slices.iter().enumerate() {
        b.task(
            format!("{name}-worker{i}"),
            vec![s.name.clone()],
            vec![WorkflowFile::new(format!("{name}/part{i}"), cfg.file_size)],
            cfg.compute,
        );
    }
    b.build().expect("scatter is trivially acyclic")
}

/// `width` independent producers feed one sink that reads all their files.
pub fn gather(name: &str, width: usize, cfg: PatternConfig) -> Workflow {
    assert!(width > 0, "gather needs at least one producer");
    let mut b = Workflow::builder(name);
    let mut parts = Vec::with_capacity(width);
    for i in 0..width {
        let out = WorkflowFile::new(format!("{name}/part{i}"), cfg.file_size);
        parts.push(out.name.clone());
        b.task(
            format!("{name}-producer{i}"),
            vec![],
            vec![out],
            cfg.compute,
        );
    }
    b.task(
        format!("{name}-sink"),
        parts,
        vec![WorkflowFile::new(format!("{name}/gathered"), cfg.file_size)],
        cfg.compute,
    );
    b.build().expect("gather is trivially acyclic")
}

/// Tree reduction with the given `arity`: leaves pairwise (arity-wise)
/// combine until a single result remains.
pub fn reduce(name: &str, leaves: usize, arity: usize, cfg: PatternConfig) -> Workflow {
    assert!(leaves > 0, "reduce needs leaves");
    assert!(arity >= 2, "reduce arity must be >= 2");
    let mut b = Workflow::builder(name);
    // Leaf producers.
    let mut frontier: Vec<String> = Vec::with_capacity(leaves);
    for i in 0..leaves {
        let out = WorkflowFile::new(format!("{name}/leaf{i}"), cfg.file_size);
        frontier.push(out.name.clone());
        b.task(format!("{name}-leaf{i}"), vec![], vec![out], cfg.compute);
    }
    // Reduction levels.
    let mut level = 0;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(arity));
        for (j, chunk) in frontier.chunks(arity).enumerate() {
            let out = WorkflowFile::new(format!("{name}/red{level}-{j}"), cfg.file_size);
            next.push(out.name.clone());
            b.task(
                format!("{name}-red{level}-{j}"),
                chunk.to_vec(),
                vec![out],
                cfg.compute,
            );
        }
        frontier = next;
        level += 1;
    }
    b.build().expect("reduce is trivially acyclic")
}

/// One producer's file is read by `width` consumers.
pub fn broadcast(name: &str, width: usize, cfg: PatternConfig) -> Workflow {
    assert!(width > 0, "broadcast needs at least one consumer");
    let mut b = Workflow::builder(name);
    let shared = WorkflowFile::new(format!("{name}/shared"), cfg.file_size);
    b.task(
        format!("{name}-source"),
        vec![],
        vec![shared.clone()],
        cfg.compute,
    );
    for i in 0..width {
        b.task(
            format!("{name}-consumer{i}"),
            vec![shared.name.clone()],
            vec![WorkflowFile::new(format!("{name}/echo{i}"), cfg.file_size)],
            cfg.compute,
        );
    }
    b.build().expect("broadcast is trivially acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn cfg() -> PatternConfig {
        PatternConfig::default()
    }

    #[test]
    fn pipeline_shape() {
        let w = pipeline("p", 5, cfg());
        assert_eq!(w.len(), 5);
        assert_eq!(w.max_width(), 1);
        assert_eq!(w.levels(), vec![0, 1, 2, 3, 4]);
        assert_eq!(w.roots(), vec![TaskId(0)]);
    }

    #[test]
    fn scatter_shape() {
        let w = scatter("s", 8, cfg());
        assert_eq!(w.len(), 9);
        assert_eq!(w.roots(), vec![TaskId(0)]);
        assert_eq!(w.max_width(), 8);
        for i in 1..9 {
            assert_eq!(w.dependencies(TaskId(i)), &[TaskId(0)]);
        }
    }

    #[test]
    fn gather_shape() {
        let w = gather("g", 6, cfg());
        assert_eq!(w.len(), 7);
        let sink = TaskId(6);
        assert_eq!(w.dependencies(sink).len(), 6);
        assert_eq!(w.max_width(), 6);
    }

    #[test]
    fn reduce_tree_shape() {
        let w = reduce("r", 8, 2, cfg());
        // 8 leaves + 4 + 2 + 1 = 15 tasks.
        assert_eq!(w.len(), 15);
        let levels = w.levels();
        assert_eq!(*levels.iter().max().unwrap(), 3);
    }

    #[test]
    fn reduce_with_arity_4() {
        let w = reduce("r4", 16, 4, cfg());
        // 16 leaves + 4 + 1 = 21.
        assert_eq!(w.len(), 21);
        assert_eq!(*w.levels().iter().max().unwrap(), 2);
    }

    #[test]
    fn reduce_uneven_leaves() {
        let w = reduce("odd", 5, 2, cfg());
        // 5 leaves + (3) + (2) + (1) = 11.
        assert_eq!(w.len(), 11);
    }

    #[test]
    fn broadcast_shape() {
        let w = broadcast("b", 10, cfg());
        assert_eq!(w.len(), 11);
        // All consumers read the same file from the source.
        for i in 1..11 {
            assert_eq!(w.dependencies(TaskId(i)), &[TaskId(0)]);
        }
    }

    #[test]
    fn all_patterns_validate() {
        // Generators must never produce invalid DAGs.
        for w in [
            pipeline("a", 20, cfg()),
            scatter("b", 20, cfg()),
            gather("c", 20, cfg()),
            reduce("d", 20, 3, cfg()),
            broadcast("e", 20, cfg()),
        ] {
            assert!(!w.is_empty());
            assert_eq!(w.topological_order().len(), w.len());
        }
    }
}
