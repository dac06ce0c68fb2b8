//! Workflow tasks: standalone computations reading and writing files.

use crate::file::WorkflowFile;
use geometa_sim::time::SimDuration;
use std::fmt;

/// Dense task identifier within one workflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index for vector addressing.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// One workflow task ("usually a standalone binary", paper §I): consumes
/// input files, computes for a while, produces output files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Identifier within the workflow (assigned by the builder).
    pub id: TaskId,
    /// Human-readable name (e.g. `mProject-17`).
    pub name: String,
    /// Names of files this task reads.
    pub inputs: Vec<String>,
    /// Files this task writes.
    pub outputs: Vec<WorkflowFile>,
    /// Modeled computation time (the paper simulates task computation "by
    /// defining a sleep period", §VI-D).
    pub compute: SimDuration,
}

impl Task {
    /// Total metadata operations this task performs: one read per input,
    /// one write per output.
    pub(crate) fn metadata_ops(&self) -> usize {
        self.inputs.len() + self.outputs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_op_count() {
        let t = Task {
            id: TaskId(0),
            name: "t".into(),
            inputs: vec!["a".into(), "b".into()],
            outputs: vec![WorkflowFile::new("c", 10), WorkflowFile::new("d", 20)],
            compute: SimDuration::from_secs(1),
        };
        assert_eq!(t.metadata_ops(), 4);
    }
}
