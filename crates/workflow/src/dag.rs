//! The workflow DAG, with edges derived from file names.
//!
//! A [`Workflow`] is built from tasks; the dependency graph is *implied*:
//! task B depends on task A when B reads a file that A writes. Validation
//! rejects duplicate producers (write-once files, paper §II-A), unknown
//! structure is allowed for *external* inputs (files assumed present before
//! the workflow starts), and cycles are rejected.

use crate::file::WorkflowFile;
use crate::task::{Task, TaskId};
use geometa_core::{FxHashMap, FxHashSet};
use geometa_sim::time::SimDuration;
use std::collections::VecDeque;

/// Validation errors for workflow construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkflowError {
    /// Two tasks write the same file (violates write-once).
    DuplicateProducer {
        /// The contested file.
        file: String,
        /// First producer.
        first: TaskId,
        /// Second producer.
        second: TaskId,
    },
    /// The dependency graph has a cycle.
    Cycle,
    /// A task reads one of its own outputs.
    SelfDependency(TaskId),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateProducer {
                file,
                first,
                second,
            } => {
                write!(f, "file {file} produced by both {first} and {second}")
            }
            WorkflowError::Cycle => write!(f, "workflow dependency graph has a cycle"),
            WorkflowError::SelfDependency(t) => write!(f, "{t} reads its own output"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A validated workflow DAG.
#[derive(Clone, Debug)]
pub struct Workflow {
    name: String,
    tasks: Vec<Task>,
    /// file name -> producing task.
    producer: FxHashMap<String, TaskId>,
    /// Edges: deps[t] = tasks that must finish before t.
    deps: Vec<Vec<TaskId>>,
    /// Topological order of task ids.
    topo: Vec<TaskId>,
}

impl Workflow {
    /// Start building a workflow.
    pub fn builder(name: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tasks, indexed by `TaskId`.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// One task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workflow has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task producing `file`, if any (None = external input).
    pub(crate) fn producer_of(&self, file: &str) -> Option<TaskId> {
        self.producer.get(file).copied()
    }

    /// Tasks that must complete before `t` starts.
    pub fn dependencies(&self, t: TaskId) -> &[TaskId] {
        &self.deps[t.index()]
    }

    /// Task ids in a valid execution order.
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no dependencies (can start immediately).
    #[cfg(test)]
    pub(crate) fn roots(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| self.deps[t.id.index()].is_empty())
            .map(|t| t.id)
            .collect()
    }

    /// Input files not produced by any task (must pre-exist).
    pub fn external_inputs(&self) -> Vec<String> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.tasks {
            for i in &t.inputs {
                if !self.producer.contains_key(i) && seen.insert(i.clone()) {
                    out.push(i.clone());
                }
            }
        }
        out
    }

    /// Level (longest dependency chain length) of each task; roots = 0.
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.tasks.len()];
        for &t in &self.topo {
            for &d in &self.deps[t.index()] {
                level[t.index()] = level[t.index()].max(level[d.index()] + 1);
            }
        }
        level
    }

    /// Length of the critical path in compute time (ignores I/O).
    pub fn critical_path(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        let mut best = SimDuration::ZERO;
        for &t in &self.topo {
            let start = self.deps[t.index()]
                .iter()
                .map(|d| finish[d.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[t.index()] = start + self.tasks[t.index()].compute;
            if finish[t.index()] > best {
                best = finish[t.index()];
            }
        }
        best
    }

    /// Total metadata operations across all tasks.
    pub fn total_metadata_ops(&self) -> usize {
        self.tasks.iter().map(|t| t.metadata_ops()).sum()
    }

    /// Total files produced.
    pub fn total_files(&self) -> usize {
        self.tasks.iter().map(|t| t.outputs.len()).sum()
    }

    /// Maximum number of tasks that could run concurrently (width of the
    /// widest level).
    pub fn max_width(&self) -> usize {
        let levels = self.levels();
        let mut counts: FxHashMap<usize, usize> = FxHashMap::default();
        for &l in &levels {
            *counts.entry(l).or_insert(0) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }
}

/// Builder for [`Workflow`].
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<Task>,
}

impl WorkflowBuilder {
    /// Add a task; ids are assigned densely in insertion order. Returns
    /// the new task's id.
    pub fn task(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<String>,
        outputs: Vec<WorkflowFile>,
        compute: SimDuration,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            id,
            name: name.into(),
            inputs,
            outputs,
            compute,
        });
        id
    }

    /// Validate and build the DAG.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        let n = self.tasks.len();
        // Producer index; reject duplicate producers.
        let mut producer: FxHashMap<String, TaskId> = FxHashMap::default();
        for t in &self.tasks {
            for o in &t.outputs {
                if let Some(&first) = producer.get(&o.name) {
                    return Err(WorkflowError::DuplicateProducer {
                        file: o.name.clone(),
                        first,
                        second: t.id,
                    });
                }
                producer.insert(o.name.clone(), t.id);
            }
        }
        // Derive edges from file flow.
        let mut deps: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for t in &self.tasks {
            let mut seen = FxHashSet::default();
            for i in &t.inputs {
                if let Some(&p) = producer.get(i) {
                    if p == t.id {
                        return Err(WorkflowError::SelfDependency(t.id));
                    }
                    if seen.insert(p) {
                        deps[t.id.index()].push(p);
                        dependents[p.index()].push(t.id);
                    }
                }
            }
        }
        // Kahn's algorithm for topological order + cycle detection.
        let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut queue: VecDeque<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            topo.push(t);
            for &d in &dependents[t.index()] {
                indegree[d.index()] -= 1;
                if indegree[d.index()] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if topo.len() != n {
            return Err(WorkflowError::Cycle);
        }
        Ok(Workflow {
            name: self.name,
            tasks: self.tasks,
            producer,
            deps,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str) -> WorkflowFile {
        WorkflowFile::new(name, 100)
    }

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// a -> b -> c chain plus an independent d.
    fn chain() -> Workflow {
        let mut b = Workflow::builder("chain");
        b.task("a", vec![], vec![f("fa")], sec(1));
        b.task("b", vec!["fa".into()], vec![f("fb")], sec(2));
        b.task("c", vec!["fb".into()], vec![f("fc")], sec(3));
        b.task("d", vec![], vec![f("fd")], sec(10));
        b.build().unwrap()
    }

    #[test]
    fn edges_derived_from_files() {
        let w = chain();
        assert_eq!(w.dependencies(TaskId(1)), &[TaskId(0)]);
        assert_eq!(w.dependencies(TaskId(2)), &[TaskId(1)]);
        assert!(w.dependencies(TaskId(3)).is_empty());
        assert_eq!(w.producer_of("fb"), Some(TaskId(1)));
        assert_eq!(w.producer_of("external"), None);
    }

    #[test]
    fn topo_order_respects_deps() {
        let w = chain();
        let pos: FxHashMap<TaskId, usize> = w
            .topological_order()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        for t in w.tasks() {
            for &d in w.dependencies(t.id) {
                assert!(pos[&d] < pos[&t.id]);
            }
        }
    }

    #[test]
    fn roots_and_levels() {
        let w = chain();
        let mut roots = w.roots();
        roots.sort();
        assert_eq!(roots, vec![TaskId(0), TaskId(3)]);
        assert_eq!(w.levels(), vec![0, 1, 2, 0]);
        assert_eq!(w.max_width(), 2);
    }

    #[test]
    fn critical_path_is_longest_chain() {
        let w = chain();
        // Chain a->b->c totals 6 s; lone d is 10 s.
        assert_eq!(w.critical_path(), sec(10));
    }

    #[test]
    fn external_inputs_detected() {
        let mut b = Workflow::builder("ext");
        b.task("t", vec!["pre-existing.dat".into()], vec![f("out")], sec(1));
        let w = b.build().unwrap();
        assert_eq!(w.external_inputs(), vec!["pre-existing.dat".to_string()]);
        assert_eq!(w.roots(), vec![TaskId(0)]);
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut b = Workflow::builder("dup");
        b.task("t1", vec![], vec![f("same")], sec(1));
        b.task("t2", vec![], vec![f("same")], sec(1));
        let err = b.build().unwrap_err();
        assert!(matches!(err, WorkflowError::DuplicateProducer { .. }));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = Workflow::builder("cycle");
        b.task("t1", vec!["f2".into()], vec![f("f1")], sec(1));
        b.task("t2", vec!["f1".into()], vec![f("f2")], sec(1));
        assert_eq!(b.build().unwrap_err(), WorkflowError::Cycle);
    }

    #[test]
    fn self_dependency_rejected() {
        let mut b = Workflow::builder("self");
        b.task("t", vec!["mine".into()], vec![f("mine")], sec(1));
        assert_eq!(
            b.build().unwrap_err(),
            WorkflowError::SelfDependency(TaskId(0))
        );
    }

    #[test]
    fn metadata_op_accounting() {
        let w = chain();
        // 2 reads (b, c) + 4 writes.
        assert_eq!(w.total_metadata_ops(), 6);
        assert_eq!(w.total_files(), 4);
    }

    #[test]
    fn diamond_dedups_edges() {
        // One producer feeding a consumer through two files: single edge.
        let mut b = Workflow::builder("multi");
        b.task("p", vec![], vec![f("x"), f("y")], sec(1));
        b.task("c", vec!["x".into(), "y".into()], vec![f("z")], sec(1));
        let w = b.build().unwrap();
        assert_eq!(w.dependencies(TaskId(1)), &[TaskId(0)]);
    }
}
