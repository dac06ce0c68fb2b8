//! # geometa-workflow — scientific workflow substrate
//!
//! The workflow layer that drives the metadata middleware: DAGs of tasks
//! exchanging data through files (the execution model of Swift, Pegasus,
//! Chiron and friends that the paper targets), plus everything needed to
//! reproduce the paper's workloads:
//!
//! * [`dag::Workflow`] — a validated task DAG whose edges are *derived from
//!   file names*: task B depends on task A iff B reads a file A writes,
//!   exactly how "workflow engines are basically schedulers that build and
//!   manage a task-dependency graph based on the tasks' input/output
//!   files" (paper §I);
//! * [`patterns`] — the five canonical access patterns (pipeline, scatter,
//!   gather, reduce, broadcast; paper §II-A) as composable generators;
//! * [`apps`] — shape-faithful generators for the paper's real-life
//!   applications (Montage, BuzzFlow) and the §VI-B synthetic
//!   reader/writer benchmark with the Table I scenario presets;
//! * [`scheduler`] — task placement across sites and nodes, including the
//!   locality-aware policy the paper's discussion assumes ("workflow
//!   execution engines schedule sequential jobs with tight data
//!   dependencies in the same site");
//! * [`engine`] — a threaded executor that runs a workflow against any
//!   metadata backend: tasks discover their inputs *through the metadata
//!   registry* and publish their outputs back to it;
//! * [`provenance`] — producer/consumer indices and the cross-site
//!   provisioning plan of paper §III-C.

pub mod apps;
pub mod dag;
pub mod engine;
mod file;
pub mod patterns;
pub mod provenance;
pub mod scheduler;
mod task;

pub use dag::{Workflow, WorkflowError};
pub use engine::{EngineConfig, ExecutionReport, MetadataOps, WorkflowEngine};
pub use file::WorkflowFile;
pub use scheduler::{NodeId, Placement, SchedulerPolicy};
pub use task::{Task, TaskId};
